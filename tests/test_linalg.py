import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sephill.errors import NonFinite, NonSymmetric, NotPositiveDefinite
from sephill.linalg import (
    check_symmetric,
    cholesky,
    spd_inverse,
    spectral_norm,
    spectral_norms,
    symmetric_spd_inverse,
)


def random_spd(rng, d, cond_cap=1e4):
    g = rng.normal(size=(d, d))
    m = g @ g.T + np.eye(d) / cond_cap * np.abs(g).max() ** 2
    return 0.5 * (m + m.T)


class TestCholesky:
    def test_hand_factor(self):
        lower = cholesky([[4.0, 2.0], [2.0, 3.0]])
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        np.testing.assert_allclose(lower, expected, rtol=1e-15)

    def test_identity(self):
        np.testing.assert_array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 3, 5, 8):
            m = random_spd(rng, d)
            lower = cholesky(m)
            np.testing.assert_allclose(lower @ lower.T, m, rtol=1e-12, atol=1e-12)
            assert np.all(np.diag(lower) > 0)
            assert np.allclose(lower, np.tril(lower))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky([[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky([[1.0, 1.0], [1.0, 1.0]])

    def test_rejects_zero(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.zeros((2, 2)))

    def test_failure_is_scale_invariant(self):
        # the pivot floor is relative, so rescaling cannot change the verdict
        bad = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        for c in (1e-12, 1.0, 1e12):
            with pytest.raises(NotPositiveDefinite):
                cholesky(c * bad)

    def test_success_is_scale_invariant(self):
        good = np.array([[2.0, 1.0], [1.0, 2.0]])
        for c in (1e-9, 1.0, 1e9):
            lower = cholesky(c * good)
            np.testing.assert_allclose(lower @ lower.T, c * good, rtol=1e-12)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NonSymmetric):
            cholesky([[1.0, 0.1], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(NonSymmetric):
            cholesky(np.ones((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(NonFinite):
            cholesky([[np.nan, 0.0], [0.0, 1.0]])


class TestSpdInverse:
    def test_hand_inverse(self):
        inv = spd_inverse([[4.0, 2.0], [2.0, 3.0]])
        np.testing.assert_allclose(
            inv, [[0.375, -0.25], [-0.25, 0.5]], rtol=1e-14
        )

    def test_inverse_is_symmetric_and_accurate(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 4, 7):
            m = random_spd(rng, d)
            inv = spd_inverse(m)
            np.testing.assert_array_equal(inv, inv.T)
            resid = np.abs(m @ inv - np.eye(d)).max()
            assert resid < 1e-10

    def test_diagonal(self):
        inv = spd_inverse(np.diag([4.0, 0.25]))
        np.testing.assert_allclose(inv, np.diag([0.25, 4.0]), rtol=1e-15)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_matches_numpy_inverse(self, d):
        rng = np.random.default_rng(100 + d)
        m = random_spd(rng, d)
        inv = spd_inverse(m)
        np.testing.assert_array_equal(inv, inv.T)
        ref = np.linalg.inv(m)
        assert np.max(np.abs(inv - ref)) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "m",
        [
            [[1.0, 2.0], [2.0, 1.0]],
            [[1.0, 1.0], [1.0, 1.0]],
            [[0.0, 0.0], [0.0, 0.0]],
            [[1.0, 0.0], [0.0, 1e-20]],
        ],
        ids=["indefinite", "singular", "zero", "below-pivot-floor"],
    )
    def test_rejects_what_cholesky_rejects(self, m):
        with pytest.raises(NotPositiveDefinite):
            spd_inverse(m)


class TestSpectralNorm:
    def test_swap_matrix(self):
        assert spectral_norm([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_picks_largest_magnitude(self):
        assert spectral_norm(np.diag([1.0, -5.0, 3.0])) == pytest.approx(5.0, rel=1e-13)

    def test_scalar(self):
        assert spectral_norm([[-2.5]]) == 2.5

    def test_zero(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_matches_eigvalsh_on_random_symmetric(self):
        rng = np.random.default_rng(23)
        for d in (2, 3, 5, 10, 20):
            g = rng.normal(size=(d, d))
            m = 0.5 * (g + g.T)
            expected = np.max(np.abs(np.linalg.eigvalsh(m)))
            assert spectral_norm(m) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NonSymmetric):
            spectral_norm([[0.0, 1.0], [1.0 + 1e-6, 0.0]])

    def test_accepts_rounding_level_asymmetry(self):
        m = np.array([[1.0, 0.5], [0.5 * (1 + 1e-14), 1.0]])
        assert spectral_norm(m) == pytest.approx(1.5, rel=1e-12)


class TestSpectralNorms:
    @pytest.mark.parametrize("d", range(1, 8))
    def test_stacked_norms_equal_separate_calls_bit_for_bit(self, d):
        rng = np.random.default_rng(700 + d)
        for _ in range(200):
            g = rng.normal(size=(3, d, d)) * rng.uniform(1e-3, 1e3, size=(3, 1, 1))
            stack = 0.5 * (g + g.mT)
            norms = spectral_norms(list(stack))
            assert norms.tolist() == [spectral_norm(m) for m in stack]

    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), NonFinite),
            (np.array([[1.0, np.inf], [np.inf, 1.0]]), NonFinite),
            (np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]]), NonSymmetric),
        ],
    )
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_raises_what_a_separate_call_raises(self, bad, error, slot):
        stack = [np.eye(2), 2.0 * np.eye(2), 3.0 * np.eye(2)]
        stack[slot] = bad
        with pytest.raises(error):
            spectral_norm(bad)
        with pytest.raises(error):
            spectral_norms(stack)

    def test_symmetry_tolerance_is_per_matrix(self):
        # a rounding-level asymmetry next to small entries fails even when
        # another matrix of the stack has far larger entries
        small = np.array([[1.0, 0.5], [0.5 + 1e-9, 1.0]])
        with pytest.raises(NonSymmetric):
            spectral_norms([1e12 * np.eye(2), small])

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 3), (0, 0, 0), (2, 0, 0)])
    def test_rejects_shapes_that_are_not_a_stack_of_square_matrices(self, shape):
        with pytest.raises(NonSymmetric):
            spectral_norms(np.zeros(shape))


class TestCheckSymmetric:
    def test_returns_float_array(self):
        out = check_symmetric([[1, 2], [2, 1]])
        assert out.dtype == float

    def test_relative_tolerance_scales(self):
        big = np.array([[1e12, 5e-1], [5e-1 + 1e-3, 1e12]])
        check_symmetric(big)  # 1e-3 asymmetry is tiny next to 1e12 entries

    @pytest.mark.parametrize(
        "fn", [check_symmetric, cholesky, spd_inverse, spectral_norm]
    )
    def test_empty_matrix_is_rejected(self, fn):
        with pytest.raises(NonSymmetric, match="nonempty"):
            fn(np.zeros((0, 0)))


class TestSymmetricSpdInverse:
    @pytest.mark.parametrize("d", range(1, 8))
    def test_same_bytes_as_spd_inverse(self, d):
        rng = np.random.default_rng(800 + d)
        for _ in range(20):
            m = random_spd(rng, d)
            assert symmetric_spd_inverse(m).tobytes() == spd_inverse(m).tobytes()

    @pytest.mark.parametrize(
        "m, error",
        [
            ([[np.nan, 0.0], [0.0, 1.0]], NonFinite),
            ([[1.0, 2.0], [2.0, 1.0]], NotPositiveDefinite),
            ([[0.0, 0.0], [0.0, 0.0]], NotPositiveDefinite),
            ([[1.0, 0.0], [0.0, 1e-20]], NotPositiveDefinite),
        ],
    )
    def test_raises_what_spd_inverse_raises(self, m, error):
        a = np.array(m)
        with pytest.raises(error) as ref:
            spd_inverse(a)
        with pytest.raises(error) as got:
            symmetric_spd_inverse(a)
        assert str(got.value) == str(ref.value)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_cholesky_inverse_norm_consistency(d, seed):
    """For random SPD matrices: L L^T reconstructs, the inverse inverts, and
    the spectral norm dominates the action on random unit vectors."""
    rng = np.random.default_rng(seed)
    m = random_spd(rng, d)
    lower = cholesky(m)
    np.testing.assert_allclose(lower @ lower.T, m, rtol=1e-11, atol=1e-11 * m.max())
    inv = spd_inverse(m)
    np.testing.assert_allclose(m @ inv, np.eye(d), atol=1e-9)
    nrm = spectral_norm(m)
    v = rng.normal(size=d)
    v /= np.linalg.norm(v)
    assert np.linalg.norm(m @ v) <= nrm * (1 + 1e-10)
