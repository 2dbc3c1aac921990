import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsim.data import Dataset
from nsim.errors import DataError, InfeasibleFitError, NsimError, UsageError
from nsim.linalg import cross_covariance, pseudo_inverse, sample_covariance
from nsim.partition import dyadic_partition, equiblock_partition
from nsim.estimator import fit
from nsim.tangents import DEGENERATE_NORM, fit_tangents, grammian


def line_dataset(n=60, noise=0.0, seed=11):
    """Samples on the line t * (1,1,1)/sqrt(3) with strictly increasing responses."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 2.0, n))
    direction = np.ones(3) / np.sqrt(3.0)
    features = np.outer(t, direction)
    if noise:
        features = features + rng.normal(scale=noise, size=features.shape)
    return Dataset(features, t + 0.5 * t**2), direction


def lstsq_direction_oracle(features, responses):
    """Normal-equations oracle: minimum-norm least squares on centered data."""
    xc = features - features.mean(axis=0)
    yc = responses - responses.mean()
    solution, *_ = np.linalg.lstsq(xc, yc, rcond=None)
    return solution


class TestFitTangents:
    def test_exact_line_recovers_direction(self):
        data, direction = line_dataset()
        field = fit_tangents(data, dyadic_partition(data.responses, 1))
        assert np.allclose(field.vectors[0], direction, atol=1e-6)

    def test_zero_cross_covariance_is_degenerate(self):
        features = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        responses = np.array([1.0, 1.0, -1.0, -1.0])
        data = Dataset(features, responses)
        with pytest.raises(InfeasibleFitError, match="degenerate regression direction"):
            fit_tangents(data, equiblock_partition(responses, 1))

    def test_undersized_level_set_rejected(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(8, 4)), rng.uniform(size=8))
        with pytest.raises(InfeasibleFitError, match="too small"):
            fit_tangents(data, equiblock_partition(data.responses, 3))

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(200)
        t = rng.uniform(0, 1, 200)
        features = np.outer(t, [1.0, 0.5, -0.2]) + rng.normal(scale=0.1, size=(200, 3))
        responses = t + rng.normal(scale=0.01, size=200)
        data = Dataset(features, responses)
        partition = dyadic_partition(responses, 2)
        field = fit_tangents(data, partition)
        for j, idx in enumerate(partition.groups):
            oracle = lstsq_direction_oracle(features[idx], responses[idx])
            oracle_unit = oracle / np.linalg.norm(oracle)
            assert np.linalg.norm(field.vectors[j] - oracle_unit) < 1e-8

    def test_normal_equations_consistency(self):
        # Sigma_j b_j equals the projection of r_j onto range(Sigma_j)
        rng = np.random.default_rng(77)
        t = rng.uniform(0, 1, 150)
        features = np.outer(t, [1.0, -1.0, 2.0]) + rng.normal(scale=0.05, size=(150, 3))
        responses = t**2
        data = Dataset(features, responses)
        partition = dyadic_partition(responses, 3)
        field = fit_tangents(data, partition)
        for j, idx in enumerate(partition.groups):
            sigma = sample_covariance(features[idx])
            r = cross_covariance(features[idx], responses[idx])
            u, s, _ = np.linalg.svd(sigma)
            keep = s > s.max() * 3 * np.finfo(float).eps
            projected = u[:, keep] @ (u[:, keep].T @ r)
            scale = np.linalg.norm(
                lstsq_direction_oracle(features[idx], responses[idx])
            )
            assert np.allclose(sigma @ (field.vectors[j] * scale), projected, atol=1e-8)

    def test_counts_and_means_recorded(self):
        data, _ = line_dataset()
        partition = equiblock_partition(data.responses, 4)
        field = fit_tangents(data, partition)
        assert field.counts.sum() == data.n
        for j, idx in enumerate(partition.groups):
            assert np.allclose(field.level_means_x[j], data.features[idx].mean(axis=0))
            assert np.isclose(field.level_means_y[j], data.responses[idx].mean())

    def test_response_scale_invariance(self):
        data, _ = line_dataset(noise=0.05)
        for j_count in (1, 2, 4):
            part = dyadic_partition(data.responses, j_count)
            base = fit_tangents(data, part)
            scaled = fit_tangents(Dataset(data.features, 10.0 * data.responses), part)
            assert np.allclose(base.vectors, scaled.vectors, atol=1e-9)

    def test_feature_translation_invariance(self):
        data, _ = line_dataset(noise=0.05)
        part = equiblock_partition(data.responses, 3)
        base = fit_tangents(data, part)
        shifted = fit_tangents(Dataset(data.features + [5.0, -2.0, 11.0], data.responses), part)
        assert np.allclose(base.vectors, shifted.vectors, atol=1e-9)

    def test_exact_line_collinear_for_all_feasible_j(self):
        data, direction = line_dataset(n=120)
        for j_count in (1, 2, 4, 8):
            part = equiblock_partition(data.responses, j_count)
            field = fit_tangents(data, part)
            cosines = np.abs(field.vectors @ direction)
            assert np.all(cosines >= 1 - 1e-6)


def per_level_set_reference(data, partition, rank_tol=None):
    """fit_tangents one level set at a time through the 2-d linalg kernels:
    (vectors, level means of x, level means of y, counts)."""
    d = data.d
    rows = []
    for j, idx in enumerate(partition.groups):
        if len(idx) < d + 1:
            raise InfeasibleFitError(
                f"level set {j} too small (need >= {d + 1} samples, got {len(idx)})"
            )
        x, y = data.features[idx], data.responses[idx]
        b = pseudo_inverse(sample_covariance(x), rank_tol) @ cross_covariance(x, y)
        norm = float(np.linalg.norm(b))
        if norm < DEGENERATE_NORM:
            raise InfeasibleFitError(f"degenerate regression direction in level set {j}")
        rows.append((b / norm, x.mean(axis=0), y.mean(), len(idx)))
    return tuple(np.array(column) for column in zip(*rows))


@st.composite
def level_set_problems(draw):
    d = draw(st.integers(1, 5))
    j_count = draw(st.integers(1, 4))
    # no extra rows: equiblock level sets of exactly D+1 rows, dyadic ones
    # that are often too small
    n = j_count * (d + 1) + draw(st.sampled_from([0, 0, 3, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = rng.normal(size=(n, d)) * draw(st.sampled_from([1e-3, 1.0, 1e4]))
    if d > 1 and draw(st.booleans()):
        features[:, -1] = features[:, 0]  # every covariance is rank deficient
    responses = np.tanh(features[:, 0]) + draw(st.sampled_from([0.0, 0.1])) * rng.normal(size=n)
    partition = draw(st.sampled_from([dyadic_partition, equiblock_partition]))(responses, j_count)
    return Dataset(features, responses), partition, draw(st.sampled_from([None, 1e-6]))


def _outcome(call):
    try:
        return call()
    except NsimError as exc:
        return type(exc), str(exc)


class TestStackedSolve:
    @given(level_set_problems())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_per_level_set_reference_bit_for_bit(self, problem):
        data, partition, rank_tol = problem
        expected = _outcome(lambda: per_level_set_reference(data, partition, rank_tol))
        field = _outcome(lambda: fit_tangents(data, partition, rank_tol))
        if isinstance(expected[0], type):
            assert field == expected
            return
        got = (field.vectors, field.level_means_x, field.level_means_y, field.counts)
        for mine, reference in zip(got, expected):
            assert mine.dtype == reference.dtype
            assert np.array_equal(mine, reference)

    # one-column level sets on responses that dyadic J = 2 splits at 0.5
    LEVEL_SETS = {
        "fine": ([0.0, 1.0, 2.0, 3.0], [0.0, 0.1, 0.2, 0.4]),
        "degenerate": ([1.0, -1.0, 1.0, -1.0], [0.0, 0.0, 0.0, 0.0]),
        "small": ([2.0], [0.0]),
        # 12 rows at +-4e153: the centred sum of squares overflows to inf
        "non-finite": ([4e153, -4e153] * 6, [0.0, 0.1] * 6),
    }

    @pytest.mark.parametrize(
        "first, second, rank_tol, error, message",
        [
            ("degenerate", "small", None, InfeasibleFitError, "degenerate .* level set 0"),
            ("small", "fine", -1.0, InfeasibleFitError, "level set 0 too small"),
            ("fine", "small", -1.0, UsageError, "rank_tol"),
            ("fine", "non-finite", None, DataError, "matrix contains non-finite values"),
            ("fine", "non-finite", -1.0, UsageError, "rank_tol"),
            ("degenerate", "non-finite", None, InfeasibleFitError, "degenerate .* level set 0"),
            ("non-finite", "small", -1.0, DataError, "matrix contains non-finite values"),
            ("fine", "degenerate", None, InfeasibleFitError, "degenerate .* level set 1"),
        ],
    )
    def test_the_first_failing_level_set_decides(self, first, second, rank_tol, error, message):
        (x0, y0), (x1, y1) = self.LEVEL_SETS[first], self.LEVEL_SETS[second]
        responses = np.array(y0 + [1.0 - y for y in y1])
        data = Dataset(np.array(x0 + x1)[:, None], responses)
        partition = dyadic_partition(responses, 2)
        assert [len(g) for g in partition.groups] == [len(y0), len(y1)]
        with pytest.raises(error, match=message):
            fit_tangents(data, partition, rank_tol)

    @pytest.mark.parametrize("kind", ["dyadic", "equiblock"])
    def test_responses_near_float_max_are_a_data_error(self, kind):
        # the level-set mean overflows, so b_j is NaN; it used to pass the
        # degenerate check and leave NaN index vectors in the model
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(200, 3)), rng.uniform(-1.0, 1.0, 200) * 1.7e308)
        with pytest.raises(DataError, match="J=2: non-finite regression direction in level set 0"):
            fit(data, 2, 3, partition_kind=kind)


class TestGrammian:
    def test_single_level_set(self):
        data, _ = line_dataset()
        field = fit_tangents(data, dyadic_partition(data.responses, 1))
        assert np.allclose(grammian(field), [[1.0]])

    def test_identical_tangents_all_ones(self):
        data, _ = line_dataset(n=80)
        field = fit_tangents(data, equiblock_partition(data.responses, 2))
        gram = grammian(field)  # both tangents estimate the same line direction
        assert np.allclose(gram, np.ones((2, 2)), atol=1e-6)

    def test_orthogonal_tangents_identity(self):
        from dataclasses import replace

        data, _ = line_dataset()
        field = fit_tangents(data, dyadic_partition(data.responses, 1))
        field = replace(field, vectors=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert np.allclose(grammian(field), np.eye(2))

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(4)
        t = rng.uniform(-np.pi / 2, np.pi / 2, 400)
        features = np.stack([np.cos(t), np.sin(t), 0.05 * rng.normal(size=400)], axis=1)
        data = Dataset(features, t)
        field = fit_tangents(data, dyadic_partition(data.responses, 5))
        gram = grammian(field)
        assert np.allclose(gram, gram.T, atol=1e-9)
        assert np.allclose(np.diag(gram), 1.0, atol=1e-9)


class TestAssignTangent:
    def test_group_zero(self):
        data, _ = line_dataset()
        model = fit(data, 2, 1, partition_kind="equiblock")
        idx = model.partition.groups[0][0]
        assert np.array_equal(model.tangent_rows()[idx], model.tangents.vectors[0])

    def test_single_group_always_first_vector(self):
        data, _ = line_dataset()
        model = fit(data, 1, 1)
        for i in range(data.n):
            assert np.array_equal(model.tangent_rows()[i], model.tangents.vectors[0])

    def test_every_sample_matches_its_group(self):
        data, _ = line_dataset(n=90)
        model = fit(data, 3, 1, partition_kind="equiblock")
        member = model.partition.sample_groups()
        for i in range(data.n):
            assert np.array_equal(model.tangent_rows()[i], model.tangents.vectors[member[i]])
