"""Linear discriminant analysis and the class-similarity matrix.

Fits the within/between scatter eigenproblem, projects per-class mean
vectors into the discriminant subspace, and turns their pairwise cosine
distances into a row-stochastic, zero-diagonal similarity matrix.
"""

import io
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .errors import DataFormatError, DimensionError, SingularScatterError

ROW_SUM_TOL = 1e-9


def row_fault(row, i, tol=1e-12):
    """The first rule of a similarity matrix that row i breaks, worded, or
    None: a zero diagonal entry, positive off-diagonal entries and a sum of
    1 within tol. Every test is written so that a NaN fails it."""
    if not row[i] == 0.0:
        return f"diagonal entry must be 0, got {float(row[i])!r}"
    if not (np.all(row[:i] > 0.0) and np.all(row[i + 1:] > 0.0)):
        return "off-diagonal entries must be strictly positive"
    total = float(row.sum())
    if not abs(total - 1.0) <= tol:
        return f"row sums to {total!r}, expected 1"
    return None


@dataclass(frozen=True)
class SimilarityMatrix:
    """Row-stochastic k x k matrix with zero diagonal; row i is the
    similarity distribution of class i."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"matrix must be square, got shape {a.shape}")
        for i, row in enumerate(a):
            fault = row_fault(row, i)
            if fault:
                raise ValueError(f"row {i}: {fault}")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def k(self):
        return self.a.shape[0]

    @classmethod
    def from_scores(cls, scores):
        """The matrix of k x k non-negative scores with the diagonal zeroed
        and each row scaled to sum to 1."""
        a = np.array(scores, dtype=float)
        np.fill_diagonal(a, 0.0)
        return cls(a / a.sum(axis=1, keepdims=True))


@np.errstate(over="ignore", invalid="ignore")  # an overflow is raised
def scatter_matrices(data):
    """Within-class and between-class scatter (S_w, S_b) plus the mean
    feature vector of each class, in class-index order. A mean or scatter
    that overflows float64 is an error."""
    mu = data.features.mean(axis=0)
    d = data.dim
    sw = np.zeros((d, d))
    sb = np.zeros((d, d))
    means = []
    for c in range(data.k):
        block = data.features[data.labels == c]
        if not len(block):
            raise ValueError(f"class {c} has no samples")
        means.append(block.mean(axis=0))
        centered = block - means[c]
        sw += centered.T @ centered
        diff = (means[c] - mu)[:, None]
        sb += block.shape[0] * (diff @ diff.T)
    if not (np.isfinite(sw).all() and np.isfinite(sb).all()):
        raise DataFormatError("the features overflow float64 in the LDA scatter matrices")
    return sw, sb, means


def check_ridge(ridge):
    if not 0 <= ridge < np.inf:
        raise ValueError(f"ridge must be in [0, inf), got {ridge}")


def solve_generalized_symmetric_eig(sb, sw, ridge=0.0):
    """Eigenpairs of (sw + ridge*I)^(-1) sb.

    sb and sw must be finite, symmetric d x d float arrays of one size, as
    scatter_matrices returns them; they are not checked. Reduces to a
    standard symmetric problem through the Cholesky factor of the
    regularized within matrix, then runs numpy's eigh. Eigenvalues come
    back non-increasing; eigenvectors are columns, unit Euclidean norm. Ties
    keep eigh's ascending column order.
    """
    check_ridge(ridge)
    try:
        chol = np.linalg.cholesky(sw + ridge * np.eye(sw.shape[0]))
    except LinAlgError:
        raise SingularScatterError(
            "within-class scatter plus ridge is not positive definite; "
            "increase the ridge term"
        ) from None

    # C = L^-1 sb L^-T is symmetric with the same eigenvalues.
    inv_chol = np.linalg.inv(chol)
    c = inv_chol @ sb @ inv_chol.T
    vals, vecs = np.linalg.eigh(0.5 * (c + c.T))

    order = np.argsort(-vals, kind="stable")
    # L^-T is invertible, so no back-transformed column is zero
    vecs = inv_chol.T @ vecs[:, order]
    return vals[order], vecs / np.linalg.norm(vecs, axis=0)


def fit_lda(data, num_components=None, ridge=None):
    """The class means projected onto the leading discriminant directions:
    a k x num_components array whose row i belongs to class i.

    num_components defaults to min(k - 1, d); ridge defaults to
    1e-6 * trace(S_w) / d to keep near-singular scatter invertible.
    """
    k = data.k
    if k < 2:
        raise ValueError(f"LDA needs at least 2 classes, got {k}")
    limit = min(k - 1, data.dim)
    if num_components is None:
        num_components = limit
    if not 1 <= num_components <= limit:
        raise ValueError(f"num_components must be in [1, {limit}], got {num_components}")
    if data.n <= k:
        raise ValueError("need more samples than classes")
    sw, sb, means = scatter_matrices(data)
    if ridge is None:
        ridge = 1e-6 * np.trace(sw) / sw.shape[0]
    _, vecs = solve_generalized_symmetric_eig(sb, sw, ridge)
    return np.array(means) @ vecs[:, :num_components]


def build_similarity_matrix(means):
    """Similarity matrix from the k x c projected class means of fit_lda.

    d(v_i, v_j) = 1 - cos(v_i, v_j); s = 1 / (1 + e^d); rows normalize over
    the off-diagonal entries, diagonal stays zero.
    """
    with np.errstate(over="ignore"):  # an overflowing norm is raised
        norms = np.linalg.norm(means, axis=1)
    for i, nrm in enumerate(norms):
        if not 0.0 < nrm < np.inf:  # a NaN fails too
            what = "the zero vector" if nrm == 0.0 else "not finite or its norm overflows float64"
            raise ValueError(f"projected mean of class {i} is {what}")
    cos = means @ means.T / np.outer(norms, norms)
    return SimilarityMatrix.from_scores(1.0 / (1.0 + np.exp(1.0 - cos)))


def format_similarity(sim):
    """Plain-text format: line 1 is k, then k rows of k numbers at full
    double precision (%.17g), so load_similarity reads back the same bits."""
    return f"{sim.k}\n" + "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in sim.a)


def load_similarity(path):
    """Read a file in format_similarity's format. Blank lines and # comment
    lines may stand anywhere, and a UTF-8 byte-order mark may lead. Each row
    meets row_fault at ROW_SUM_TOL. The rows load as written, unless one sums
    to 1 only within that: then from_scores renormalises every row."""
    try:
        with open(path, "rb") as fh:  # decoded as utf-8-sig does, offsets from byte 0
            text = fh.read().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 at byte offset {exc.start}") from None
    # physical lines: split at \n, \r\n and \r only, as the CSV readers count them
    lines = [line.rstrip("\r\n") for line in io.StringIO(text, newline="")]
    content = [(lineno, line) for lineno, line in enumerate(lines, start=1)
               if line.strip() and not line.lstrip().startswith("#")]
    if not content:
        raise DataFormatError(f"{path}: no content")
    lineno, line = content[0]
    try:
        k = int(line.strip())
    except ValueError:
        raise DataFormatError(
            f"{path}: line {lineno}: expected the class count, got {line!r}") from None
    if k < 2:
        raise DataFormatError(f"{path}: line {lineno}: class count must be >= 2")
    rows = []
    for i, (lineno, line) in enumerate(content[1:k + 1]):
        cells = line.split()
        if len(cells) != k:
            raise DataFormatError(
                f"{path}: line {lineno}: expected {k} values, got {len(cells)}"
            )
        try:
            row = np.array([float(c) for c in cells])
        except ValueError:
            raise DataFormatError(f"{path}: line {lineno}: non-numeric value") from None
        if not np.all(np.isfinite(row)):
            raise DataFormatError(f"{path}: line {lineno}: non-finite value")
        fault = row_fault(row, i, ROW_SUM_TOL)
        if fault:
            raise DataFormatError(f"{path}: line {lineno}: {fault}")
        rows.append(row)
    if len(rows) < k:
        raise DataFormatError(f"{path}: line {len(lines) + 1}: missing row {len(rows)}")
    if len(content) > k + 1:
        raise DataFormatError(
            f"{path}: line {content[k + 1][0]}: data after the {k} declared rows")
    try:
        return SimilarityMatrix(rows)
    except ValueError:  # a row sums to 1 within ROW_SUM_TOL, not 1e-12
        return SimilarityMatrix.from_scores(rows)


def uniform_similarity(k):
    """Uniform off-diagonal similarity (the label-smoothing special case)."""
    return SimilarityMatrix.from_scores(np.ones((k, k)))
