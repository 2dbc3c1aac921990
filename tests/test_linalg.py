import numpy as np
import pytest

from nsim.errors import DataError, UsageError
from nsim.linalg import cross_covariance, pseudo_inverse, sample_covariance


def two_pass_mean(rows):
    """Independent oracle: explicit per-column two-pass summation."""
    rows = np.asarray(rows, dtype=float)
    out = []
    for col in range(rows.shape[1]):
        total = 0.0
        for value in rows[:, col]:
            total += value
        out.append(total / rows.shape[0])
    return np.array(out)


def double_loop_covariance(rows):
    rows = np.asarray(rows, dtype=float)
    n, d = rows.shape
    mean = two_pass_mean(rows)
    cov = np.zeros((d, d))
    for i in range(n):
        dev = rows[i] - mean
        for a in range(d):
            for b in range(d):
                cov[a, b] += dev[a] * dev[b]
    return cov / n


def double_loop_cross_covariance(rows, responses):
    rows = np.asarray(rows, dtype=float)
    responses = np.asarray(responses, dtype=float)
    n, d = rows.shape
    mean_x = two_pass_mean(rows)
    mean_y = sum(responses) / n
    out = np.zeros(d)
    for i in range(n):
        out += (responses[i] - mean_y) * (rows[i] - mean_x)
    return out / n


class TestSampleMean:
    """The mean both covariances centre on, taken inside their shared input
    check."""

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty sample"):
            cross_covariance(np.empty((0, 3)), np.empty(0))


class TestSampleCovariance:
    def test_two_point_variance(self):
        # variance of {1, 3} under 1/n normalization
        assert np.allclose(sample_covariance([[1], [3]]), [[1.0]])

    def test_identical_rows_degenerate(self):
        rows = np.tile([2.0, -1.0, 0.5], (6, 1))
        assert np.allclose(sample_covariance(rows), np.zeros((3, 3)), atol=1e-15)

    def test_matches_double_loop_oracle(self):
        rows = np.random.default_rng(52).normal(size=(50, 3))
        assert np.allclose(
            sample_covariance(rows), double_loop_covariance(rows), atol=1e-12, rtol=0
        )

    def test_symmetric_and_psd(self):
        for seed in range(5):
            rows = np.random.default_rng(seed).normal(size=(40, 4)) * (seed + 1)
            cov = sample_covariance(rows)
            assert np.max(np.abs(cov - cov.T)) < 1e-12
            eigvals = np.linalg.eigvalsh(cov)
            assert eigvals.min() > -1e-9 * max(eigvals.max(), 0.0)

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty sample"):
            sample_covariance(np.empty((0, 2)))


class TestCrossCovariance:
    def test_two_point_hand_computation(self):
        assert np.allclose(cross_covariance([[0], [1]], [0, 1]), [0.25])

    def test_constant_responses_zero(self):
        rows = np.random.default_rng(3).normal(size=(10, 3))
        assert np.allclose(cross_covariance(rows, np.full(10, 7.0)), np.zeros(3), atol=1e-15)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(41)
        rows = rng.normal(size=(40, 4))
        responses = rng.normal(size=40)
        assert np.allclose(
            cross_covariance(rows, responses),
            double_loop_cross_covariance(rows, responses),
            atol=1e-12,
            rtol=0,
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="differ"):
            cross_covariance([[1], [2]], [1, 2, 3])


def random_psd(seed, d=5):
    a = np.random.default_rng(seed).normal(size=(d + 3, d))
    return sample_covariance(a)


class TestPseudoInverse:
    def test_rank_deficient_diagonal(self):
        assert np.allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(4)), np.eye(4))

    def test_reconstruction_identity_random_psd(self):
        m = random_psd(99)
        m_dag = pseudo_inverse(m)
        assert np.allclose(m @ m_dag @ m, m, atol=1e-9, rtol=0)

    def test_all_four_moore_penrose_identities(self):
        for seed in range(8):
            m = random_psd(seed)
            m_dag = pseudo_inverse(m)
            tol = 1e-8 * max(np.linalg.eigvalsh(m).max(), 1.0)
            assert np.allclose(m @ m_dag @ m, m, atol=tol, rtol=0)
            assert np.allclose(m_dag @ m @ m_dag, m_dag, atol=tol, rtol=0)
            assert np.allclose((m @ m_dag).T, m @ m_dag, atol=tol, rtol=0)
            assert np.allclose((m_dag @ m).T, m_dag @ m, atol=tol, rtol=0)

    def test_matches_direct_solve_when_well_conditioned(self):
        m = random_psd(7) + 0.5 * np.eye(5)
        assert np.linalg.cond(m) < 1e6
        v = np.random.default_rng(8).normal(size=5)
        direct = np.linalg.solve(m, v)
        assert np.allclose(pseudo_inverse(m) @ v, direct, rtol=1e-8, atol=0)

    def test_low_rank_covariance(self):
        # rank-1 covariance from collinear samples inverts on its range only
        t = np.linspace(0, 1, 20)[:, None]
        m = sample_covariance(t @ np.array([[1.0, 2.0, 2.0]]))
        m_dag = pseudo_inverse(m)
        assert np.linalg.matrix_rank(m_dag) == 1
        assert np.allclose(m @ m_dag @ m, m, atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            pseudo_inverse(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(DataError, match="square"):
            pseudo_inverse(np.ones((2, 3)))

    @pytest.mark.parametrize("rank_tol", [None, 1e-3])
    def test_stack_equals_the_per_matrix_calls(self, rank_tol):
        # full rank, rank deficient (a duplicated column), all zero and 1 x 1
        # matrices; each is inverted against its own largest eigenvalue
        rng = np.random.default_rng(12)
        for d in (1, 4):
            mats = [random_psd(seed, d) for seed in range(4)]
            a = rng.normal(size=(d + 2, d))
            a[:, -1] = a[:, 0]
            mats += [sample_covariance(a), np.zeros((d, d)), 1e6 * random_psd(9, d)]
            stacked = pseudo_inverse(np.array(mats), rank_tol)
            assert stacked.shape == (len(mats), d, d)
            for m, m_dag in zip(mats, stacked):
                assert np.array_equal(m_dag, pseudo_inverse(m, rank_tol))
            nested = pseudo_inverse(np.array(mats[:6]).reshape(2, 3, d, d), rank_tol)
            assert np.array_equal(nested.reshape(6, d, d), stacked[:6])

    def test_non_finite_anywhere_in_a_stack_rejected(self):
        stack = np.array([np.eye(2), np.diag([1.0, np.inf])])
        with pytest.raises(DataError, match="non-finite"):
            pseudo_inverse(stack)

    def test_non_positive_rank_tol_rejected(self):
        with pytest.raises(UsageError, match="rank_tol"):
            pseudo_inverse(np.stack([np.eye(2)] * 3), -1.0)

    def test_non_square_stack_rejected(self):
        with pytest.raises(DataError, match="square"):
            pseudo_inverse(np.ones((3, 2, 4)))
