import numpy as np
import pytest

from mcel.errors import SingularScatterError
from mcel.lda import solve_generalized_symmetric_eig


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

    def test_asymmetric_rejected(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            solve_generalized_symmetric_eig(bad, np.eye(2), 0.0)

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            solve_generalized_symmetric_eig(np.eye(2), np.eye(2), -1.0)
