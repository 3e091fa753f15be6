import codecs
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcel.data import LabeledDataset, gen_blobs
from mcel.errors import DataFormatError, DimensionError, SingularScatterError
from mcel.harness import similarity_checksum
from mcel.lda import (
    SimilarityMatrix,
    build_similarity_matrix,
    fit_lda,
    format_similarity,
    load_similarity,
    scatter_matrices,
    solve_generalized_symmetric_eig,
    uniform_similarity,
)


def class_means(data):
    return scatter_matrices(data)[2]


def discriminants(data):
    """fit_lda's eigenproblem at its default ridge: eigenvalues, eigenvector
    columns and the class means before projection."""
    sw, sb, means = scatter_matrices(data)
    vals, vecs = solve_generalized_symmetric_eig(sb, sw, 1e-6 * np.trace(sw) / data.dim)
    return vals, vecs, means


def assert_rows_are_projected_means(data, num_components=None):
    projected = fit_lda(data, num_components)
    _, vecs, means = discriminants(data)
    c = projected.shape[1]
    assert projected.shape == (data.k, c)
    assert np.array_equal(projected, np.array(means) @ vecs[:, :c])


class TestClassMeans:
    def test_singleton_classes(self):
        feats = np.array([[1.0, 2.0], [3.0, 4.0]])
        data = LabeledDataset(feats, np.array([0, 1]), 2)
        means = class_means(data)
        assert np.array_equal(means[0], [1, 2])
        assert np.array_equal(means[1], [3, 4])

    def test_midpoint(self):
        feats = np.array([[0.0, 0.0], [2.0, 2.0], [9.0, 9.0]])
        data = LabeledDataset(feats, np.array([0, 0, 1]), 2)
        assert np.array_equal(class_means(data)[0], [1.0, 1.0])

    def test_streaming_sum_oracle(self):
        data = gen_blobs(3, 40, 4, seed=3)
        means = class_means(data)
        for c in range(3):
            acc = np.zeros(4)
            count = 0
            for x, y in zip(data.features, data.labels):
                if y == c:
                    acc = acc + x
                    count += 1
            assert np.allclose(means[c], acc / count, atol=1e-12)

    def test_empty_class(self):
        feats = np.array([[0.0], [1.0]])
        data = LabeledDataset(feats, np.array([0, 2]), 3)
        with pytest.raises(ValueError, match="class 1"):
            class_means(data)


class TestFitLda:
    def test_two_class_fisher_closed_form(self):
        centers = np.array([[0.0, 0.0], [3.0, 1.0]])
        data = gen_blobs(2, 300, 2, centers=centers, spread=0.7, seed=1)
        sw, _, means = scatter_matrices(data)
        fisher = np.linalg.solve(sw, means[1] - means[0])
        direction = discriminants(data)[1][:, 0]
        cosine = np.dot(direction, fisher) / (
            np.linalg.norm(direction) * np.linalg.norm(fisher)
        )
        assert abs(cosine) >= 0.999
        assert_rows_are_projected_means(data)

    def test_coincident_means(self):
        rng = np.random.default_rng(0)
        block = rng.standard_normal((200, 3))
        feats = np.vstack([block, block])
        labels = np.array([0] * 200 + [1] * 200)
        vals, _, _ = discriminants(LabeledDataset(feats, labels, 2))
        assert vals[0] <= 1e-9

    def test_shape_contract(self):
        data = gen_blobs(3, 50, 4, seed=2)
        assert fit_lda(data, num_components=2).shape == (3, 2)
        vals, vecs, _ = discriminants(data)
        assert vecs.shape == (4, 4)
        assert np.all(np.diff(vals) <= 1e-12)
        assert_rows_are_projected_means(data, num_components=2)

    def test_too_many_components(self):
        data = gen_blobs(3, 20, 4, seed=2)
        with pytest.raises(ValueError, match="num_components"):
            fit_lda(data, num_components=3)

    def test_one_class_rejected(self):
        data = LabeledDataset(np.arange(6.0).reshape(3, 2), np.zeros(3, dtype=int), 1)
        with pytest.raises(ValueError, match=r"^LDA needs at least 2 classes, got 1$"):
            fit_lda(data)


def random_spd(rng, n, shift=0.5):
    m = rng.normal(size=(n, n))
    return m @ m.T + shift * n * np.eye(n)


class TestGeneralizedEig:
    def test_diagonal_case(self):
        vals, vecs = solve_generalized_symmetric_eig(np.diag([2.0, 1.0]), np.eye(2), 0.0)
        assert np.allclose(vals, [2.0, 1.0])
        assert np.allclose(np.abs(vecs), np.eye(2), atol=1e-12)

    def test_zero_between(self):
        vals, _ = solve_generalized_symmetric_eig(np.zeros((3, 3)), np.eye(3), 0.0)
        assert np.allclose(vals, 0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_residuals(self, seed):
        rng = np.random.default_rng(seed)
        sw = random_spd(rng, 6)
        sb = random_spd(rng, 6, shift=0.0)
        ridge = 1e-3
        vals, vecs = solve_generalized_symmetric_eig(sb, sw, ridge)
        assert np.all(np.diff(vals) <= 1e-12)
        reg = sw + ridge * np.eye(6)
        bound = 1e-8 * np.linalg.norm(sb, "fro")
        for i in range(6):
            resid = sb @ vecs[:, i] - vals[i] * reg @ vecs[:, i]
            assert np.linalg.norm(resid) <= bound
        assert np.allclose(np.linalg.norm(vecs, axis=0), 1.0, atol=1e-12)

    def test_singular_scatter_rejected(self):
        sw = np.zeros((3, 3))
        with pytest.raises(SingularScatterError, match="ridge"):
            solve_generalized_symmetric_eig(np.eye(3), sw, 0.0)

    def test_negative_ridge_rejected(self):
        for ridge in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=r"ridge must be in \[0, inf\)"):
                solve_generalized_symmetric_eig(np.eye(2), np.eye(2), ridge)


class TestSimilarityMatrix:
    def test_two_class_forced_normalization(self):
        sim = build_similarity_matrix(np.array([[2.0], [-1.0]]))
        assert np.allclose(sim.a, [[0, 1], [1, 0]], atol=1e-15)

    def test_three_symmetric_directions(self):
        angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
        means = [[np.cos(t), np.sin(t)] for t in angles]
        sim = build_similarity_matrix(np.array(means))
        off = sim.a[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5, atol=1e-12)

    def test_literal_formula_oracle(self):
        means = [[1.0, 0.0], [0.0, 1.0], [1 / np.sqrt(2), 1 / np.sqrt(2)]]
        sim = build_similarity_matrix(np.array(means))
        expected = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                vi, vj = np.array(means[i]), np.array(means[j])
                d = 1 - vi.dot(vj) / (np.linalg.norm(vi) * np.linalg.norm(vj))
                expected[i, j] = 1 / (1 + np.exp(d))
            expected[i] /= expected[i].sum()
        assert np.allclose(sim.a, expected, atol=1e-12)

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError, match="class 1"):
            build_similarity_matrix(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))

    def test_invariants_on_fitted_data(self):
        for k in (3, 10):
            data = gen_blobs(k, 60, 5, seed=k)
            sim = build_similarity_matrix(fit_lda(data))
            assert np.all(np.diag(sim.a) == 0.0)
            assert np.all(sim.a[~np.eye(k, dtype=bool)] > 0.0)
            assert np.allclose(sim.a.sum(axis=1), 1.0, atol=1e-12)

    def test_sign_flip_invariance(self):
        data = gen_blobs(4, 80, 5, seed=9)
        means = fit_lda(data)
        sim = build_similarity_matrix(means)
        flip = np.array([1.0, -1.0, 1.0])[: means.shape[1]]
        assert np.max(np.abs(build_similarity_matrix(means * flip).a - sim.a)) <= 1e-10

    def test_permutation_equivariance(self):
        data = gen_blobs(4, 80, 5, seed=10)
        means = fit_lda(data)
        sim = build_similarity_matrix(means)
        perm = np.array([2, 0, 3, 1])
        sim_p = build_similarity_matrix(means[np.argsort(perm)])
        for i in range(4):
            for j in range(4):
                assert abs(sim_p.a[perm[i], perm[j]] - sim.a[i, j]) <= 1e-12

    def test_raw_scores_symmetric_normalized_need_not_be(self):
        data = gen_blobs(5, 60, 4, seed=11)
        means = fit_lda(data)
        k = len(means)
        s = np.zeros((k, k))
        for i in range(k):
            for j in range(k):
                if i != j:
                    d = 1 - means[i].dot(means[j]) / (
                        np.linalg.norm(means[i]) * np.linalg.norm(means[j])
                    )
                    s[i, j] = 1 / (1 + np.exp(d))
        assert np.allclose(s, s.T, atol=1e-12)
        sim = build_similarity_matrix(means)
        assert np.allclose(sim.a, s / s.sum(axis=1, keepdims=True), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("means,message", [
        ([[1.0, np.nan], [0.0, 1.0]], "class 0 is not finite"),
        ([[1.0, 0.0], [np.inf, 1.0]], "class 1 is not finite"),
        ([[1e200, 1e200], [1e200, -1e200]], "class 0 .*norm overflows float64"),
    ], ids=["nan", "inf", "norm-overflow"])
    def test_degenerate_means_rejected_before_any_arithmetic(self, means, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning first
            with pytest.raises(ValueError, match=message):
                build_similarity_matrix(np.array(means))


class TestSimilarityFile:
    def test_round_trip(self, tmp_path):
        # a fitted prior loads back bit for bit, so train --similarity
        # reports the checksum that similarity printed
        path = tmp_path / "sim.txt"
        for k in (3, 4, 6, 10):
            for seed in (0, 1, 2, 12):
                sim = build_similarity_matrix(fit_lda(gen_blobs(k, 40, 4, seed=seed)))
                path.write_text(format_similarity(sim))
                loaded = load_similarity(path)
                assert np.array_equal(loaded.a, sim.a), (k, seed)
                assert similarity_checksum(loaded) == similarity_checksum(sim), (k, seed)

    def test_comments_allowed(self, tmp_path):
        path = tmp_path / "sim.txt"
        path.write_text("# similarity for a toy problem\n2\n0 1\n1 0\n\n  # done\n")
        sim = load_similarity(path)
        assert np.array_equal(sim.a, [[0, 1], [1, 0]])

    def test_blank_and_comment_lines_between_rows(self, tmp_path):
        path = tmp_path / "sim.txt"
        path.write_text("3\n0 0.5 0.5\n0.25 0 0.75\n0.5 0.5 0\n")
        want = load_similarity(path).a.tobytes()
        for filler in ("# note\n", "\n", "  \n  # indented\n\n"):
            path.write_text(f"3\n0 0.5 0.5\n{filler}0.25 0 0.75\n{filler}0.5 0.5 0\n")
            assert load_similarity(path).a.tobytes() == want

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_lines_are_physical(self, tmp_path, ending):
        # only \n, \r\n and \r end a line; what else str.splitlines breaks at is inside one
        path = tmp_path / "sim.txt"
        for sep in ("\u2028", "\x85", "\x1c", "\x0c"):
            path.write_bytes(f"2\n# note{sep}tail\n0 1\n1 0\n".replace("\n", ending).encode())
            assert np.array_equal(load_similarity(path).a, [[0, 1], [1, 0]])
            path.write_bytes(f"2\n0 1{sep}1 0\n".replace("\n", ending).encode())
            with pytest.raises(DataFormatError, match="sim.txt: line 2: expected 2 values, got 4$"):
                load_similarity(path)
        path.write_bytes("2\n0 1\n1 0 0\n".replace("\n", ending).encode())
        with pytest.raises(DataFormatError, match="sim.txt: line 3: expected 2 values, got 3$"):
            load_similarity(path)

    @pytest.mark.parametrize("text,message", [
        ("2\n0 1\n", "line 3: missing row 1"),
        ("3\n0 0.5 0.5\n# row 1\n0.5 0 0.5\n\n", "line 6: missing row 2"),
    ], ids=["at-the-end", "after-filler"])
    def test_missing_row_names_the_line_past_the_last(self, tmp_path, text, message):
        path = tmp_path / "sim.txt"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=rf"sim.txt: {message}$"):
            load_similarity(path)

    @pytest.mark.parametrize("text,line", [("1\n0\n", 1), ("# none\n0\n", 2)],
                             ids=["one", "zero"])
    def test_class_count_below_two_rejected(self, tmp_path, text, line):
        path = tmp_path / "sim.txt"
        path.write_text(text)
        with pytest.raises(DataFormatError,
                           match=f"sim.txt: line {line}: class count must be >= 2$"):
            load_similarity(path)

    def test_byte_order_mark(self, tmp_path):
        # Notepad starts a UTF-8 file with one
        path = tmp_path / "sim.txt"
        path.write_bytes(codecs.BOM_UTF8 + b"2\n0 1\n1 0\n")
        assert np.array_equal(load_similarity(path).a, [[0, 1], [1, 0]])
        path.write_bytes(codecs.BOM_UTF8 + b"2\n0 1\n1 \xff0\n")
        with pytest.raises(DataFormatError, match="sim.txt: not UTF-8 at byte offset 11$"):
            load_similarity(path)

    def test_nonzero_diagonal_rejected(self, tmp_path):
        path = tmp_path / "sim.txt"
        path.write_text("2\n0.1 0.9\n1 0\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_similarity(path)

    def test_bad_row_sum_rejected(self, tmp_path):
        data = gen_blobs(3, 30, 3, seed=13)
        sim = build_similarity_matrix(fit_lda(data))
        path = tmp_path / "sim.txt"
        path.write_text(format_similarity(sim))
        lines = path.read_text().splitlines()
        cells = lines[2].split()
        cells[0] = repr(float(cells[0]) - 0.1)
        lines[2] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="line 3.*sums"):
            load_similarity(path)

    @pytest.mark.parametrize("row,fault,file_fault", [
        ([0.5, 0.1, 0.4], "diagonal entry must be 0, got 0.1", None),
        ([1.5, 0.0, -0.5], "off-diagonal entries must be strictly positive", None),
        ([0.5, 0.0, 0.6], "row sums to 1.1, expected 1", None),
        ([np.nan, 0.0, 0.5], "off-diagonal entries must be strictly positive",
         "non-finite value"),
    ], ids=["diagonal", "off-diagonal", "row-sum", "nan"])
    def test_type_and_file_word_one_rule(self, tmp_path, row, fault, file_fault):
        # row 1 of the matrix is line 3 of the file; a NaN cell is read as non-finite
        a = [[0.0, 0.5, 0.5], row, [0.5, 0.5, 0.0]]
        with pytest.raises(ValueError, match=f"^row 1: {re.escape(fault)}$"):
            SimilarityMatrix(np.array(a))
        path = tmp_path / "sim.txt"
        path.write_text("3\n" + "".join(" ".join(map(repr, r)) + "\n" for r in a))
        with pytest.raises(DataFormatError,
                           match=f"sim.txt: line 3: {re.escape(file_fault or fault)}$"):
            load_similarity(path)

    def test_row_after_the_declared_rows_rejected(self, tmp_path):
        path = tmp_path / "sim.txt"
        path.write_text("2\n0 1\n1 0\n\n# a comment\n0.5 0.5\n")
        with pytest.raises(DataFormatError, match="sim.txt: line 6: data after the 2"):
            load_similarity(path)

    def test_malformed_value_rejected(self, tmp_path):
        path = tmp_path / "sim.txt"
        path.write_text("2\n0 junk\n1 0\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_similarity(path)


    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, tmp_path, cell):
        path = tmp_path / "sim.txt"
        path.write_text(f"3\n0 0.5 0.5\n0.5 0 {cell}\n0.5 0.5 0\n")
        with pytest.raises(DataFormatError, match="sim.txt: line 3: non-finite"):
            load_similarity(path)

    def test_invariant_failure_names_the_file(self, tmp_path):
        # rows sum to 1 but an off-diagonal entry is negative
        path = tmp_path / "sim.txt"
        path.write_text("3\n0 1.5 -0.5\n0.5 0 0.5\n0.5 0.5 0\n")
        with pytest.raises(DataFormatError, match="sim.txt: line 2: off-diagonal"):
            load_similarity(path)

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "sim.txt"
        path.write_bytes(b"2\n0 1\n1 \xff0\n")
        with pytest.raises(DataFormatError, match="sim.txt: not UTF-8 at byte offset 8"):
            load_similarity(path)

    @pytest.mark.parametrize("a", [np.full((2, 3), 0.5), np.array([0.0, 1.0])],
                             ids=["2x3", "1-D"])
    def test_non_square_rejected(self, a):
        with pytest.raises(DimensionError, match="must be square"):
            SimilarityMatrix(a)

    def test_nan_fails_the_type_invariants(self):
        for a in ([[0.0, np.nan], [1.0, 0.0]], [[np.nan, 1.0], [1.0, 0.0]]):
            with pytest.raises(ValueError):
                SimilarityMatrix(np.array(a))


SIM_TEXT = b"3\n0 0.5 0.5\n0.25 0 0.75\n0.5 0.5 0\n"
# tokens a mutation may write: bad numbers, layout and bytes that are not UTF-8
SIM_TOKENS = [b"nan", b"inf", b"-0.5", b"0", b"1e308", b" ", b"\n", b"#", b"\xff", b"\xc3"]


def load_similarity_or_reject(raw):
    """Load similarity-file bytes; a clean load must meet the type invariants."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sim.txt"
        path.write_bytes(raw)
        try:
            sim = load_similarity(path)
        except DataFormatError:
            return
    a = sim.a
    assert np.all(np.isfinite(a)) and np.all(np.diag(a) == 0.0)
    assert np.all(a[~np.eye(sim.k, dtype=bool)] > 0.0)
    assert np.all(np.abs(a.sum(axis=1) - 1.0) <= 1e-12)


def mutate(raw, edits):
    """Apply ("byte", offset, bytes) overwrites and ("cell", index, bytes)
    replacements of whole whitespace-separated cells."""
    raw = bytearray(raw)
    for kind, index, value in edits:
        if kind == "byte":
            raw[index:index + len(value)] = value
        else:
            pieces = re.split(rb"(\s+)", bytes(raw))
            pieces[2 * (index % ((len(pieces) + 1) // 2))] = value
            raw = bytearray(b"".join(pieces))
    return bytes(raw)


class TestSimilarityFileProperties:
    def test_every_truncation(self):
        for cut in range(len(SIM_TEXT)):
            load_similarity_or_reject(SIM_TEXT[:cut])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["byte", "cell"]),
                st.integers(0, len(SIM_TEXT) - 1),
                st.sampled_from(SIM_TOKENS) | st.binary(min_size=1, max_size=2),
            ),
            min_size=1, max_size=4,
        )
    )
    def test_mutations(self, edits):
        load_similarity_or_reject(mutate(SIM_TEXT, edits))


def test_uniform_similarity():
    sim = uniform_similarity(5)
    assert np.allclose(sim.a.sum(axis=1), 1.0)
    assert np.all(np.diag(sim.a) == 0)
    assert np.allclose(sim.a[0, 1], 0.25)
