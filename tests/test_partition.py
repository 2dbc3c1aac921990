import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsim.errors import DataError, UsageError
from nsim.partition import dyadic_partition, equiblock_partition

MAX = np.finfo(np.float64).max


def groups_as_sets(partition):
    return [set(g.tolist()) for g in partition.groups]


class TestDyadic:
    def test_equal_halves(self):
        part = dyadic_partition([0.0, 0.25, 0.5, 0.75, 1.0], 2)
        first, second = part.intervals
        assert (first.lower, first.upper, first.closed_upper) == (0.0, 0.5, False)
        assert (second.lower, second.upper, second.closed_upper) == (0.5, 1.0, True)
        # 0.5 sits on the shared edge: right-open puts it in the upper interval
        assert groups_as_sets(part) == [{0, 1}, {2, 3, 4}]

    def test_single_interval_contains_everything(self):
        part = dyadic_partition([3.0, -1.0, 2.0], 1)
        assert part.n_groups == 1
        assert groups_as_sets(part) == [{0, 1, 2}]

    def test_four_singletons(self):
        # hand enumeration: edges at 0.1, 0.3, 0.5, 0.7, 0.9
        part = dyadic_partition([0.1, 0.4, 0.6, 0.9], 4)
        assert groups_as_sets(part) == [{0}, {1}, {2}, {3}]

    def test_interval_widths_uniform(self):
        rng = np.random.default_rng(5)
        responses = rng.uniform(-3, 9, 200)
        span = responses.max() - responses.min()
        for j_count in (1, 2, 7, 16):
            part = dyadic_partition(responses, j_count)
            widths = [(iv.upper - iv.lower) / span for iv in part.intervals]
            assert np.allclose(widths, 1.0 / j_count, atol=1e-12)

    def test_j_below_one_rejected(self):
        with pytest.raises(UsageError):
            dyadic_partition([1.0, 2.0], 0)

    def test_constant_responses_rejected(self):
        with pytest.raises(DataError, match="degenerate response range"):
            dyadic_partition([2.0, 2.0, 2.0], 2)

    def test_constant_responses_fine_with_single_group(self):
        part = dyadic_partition([2.0, 2.0, 2.0], 1)
        assert groups_as_sets(part) == [{0, 1, 2}]

    def test_empty_level_sets_permitted_at_construction(self):
        # responses clustered at the range ends leave the middle cells empty;
        # rejection happens at fit time, not here
        part = dyadic_partition([0.0, 0.01, 0.99, 1.0], 4)
        assert groups_as_sets(part) == [{0, 1}, set(), set(), {2, 3}]


class TestEquiblock:
    def test_even_split_with_midpoint_boundary(self):
        part = equiblock_partition([1.0, 2.0, 3.0, 4.0], 2)
        assert groups_as_sets(part) == [{0, 1}, {2, 3}]
        assert part.intervals[1].lower == 2.5

    def test_single_block(self):
        part = equiblock_partition([5.0, 1.0, 3.0], 1)
        assert groups_as_sets(part) == [{0, 1, 2}]

    def test_size_rule_larger_blocks_first(self):
        part = equiblock_partition([0.1, 0.5, 0.3, 0.9, 0.7], 2)
        assert [len(g) for g in part.groups] == [3, 2]

    def test_unsorted_input_grouped_by_response(self):
        part = equiblock_partition([4.0, 1.0, 3.0, 2.0], 2)
        assert groups_as_sets(part) == [{1, 3}, {0, 2}]

    def test_j_exceeding_n_rejected(self):
        with pytest.raises(DataError, match="exceeds"):
            equiblock_partition([1.0, 2.0], 3)


class TestNearFloatMax:
    """Sums and spans of responses near float max overflow; both partitions
    still give finite, ordered, contiguous intervals and follow their rules."""

    @pytest.mark.parametrize(
        "responses, j_count, groups",
        [
            ([1e308, 1.5e308, 1.7e308], 2, [{0, 1}, {2}]),
            ([-1.7e308, -1.6e308, -1.5e308, -1e308], 2, [{0, 1}, {2, 3}]),
            ([1.7e308, 1.6e308, 1.5e308, 1.0], 3, [{3, 2}, {1}, {0}]),
        ],
    )
    def test_equiblock(self, responses, j_count, groups):
        part = equiblock_partition(responses, j_count)
        self._check_intervals(part, responses)
        assert groups_as_sets(part) == groups

    @pytest.mark.parametrize(
        "responses, j_count, groups",
        [
            ([-1e308, 0.0, 1e308], 2, [{0}, {1, 2}]),
            ([0.0, 1e308, 1.7e308], 3, [{0}, {1}, {2}]),
            ([-MAX, 0.0, MAX], 7, [{0}, set(), set(), {1}, set(), set(), {2}]),
        ],
    )
    def test_dyadic(self, responses, j_count, groups):
        part = dyadic_partition(responses, j_count)
        self._check_intervals(part, responses)
        assert groups_as_sets(part) == groups
        # equal widths, measured in halves so that the span cannot overflow
        half_widths = [iv.upper / 2 - iv.lower / 2 for iv in part.intervals]
        span = max(responses) / 2 - min(responses) / 2
        assert np.allclose(half_widths, span / j_count, rtol=1e-12, atol=0)

    @staticmethod
    def _check_intervals(part, responses):
        lower = [iv.lower for iv in part.intervals]
        upper = [iv.upper for iv in part.intervals]
        assert np.all(np.isfinite(lower + upper))
        assert all(lo < up for lo, up in zip(lower, upper))
        assert lower[1:] == upper[:-1]
        assert (lower[0], upper[-1]) == (min(responses), max(responses))
        member = part.member
        for i, y in enumerate(responses):
            iv = part.intervals[member[i]]
            assert iv.lower <= y and (y <= iv.upper if iv.closed_upper else y < iv.upper)


class TestLocate:
    """Which group a response value lands in: the interval holding it under
    the right-open rule."""

    def test_interior_point(self):
        part = dyadic_partition(np.append(np.linspace(0, 1, 50), 0.45), 5)
        assert part.member[-1] == 2

    def test_shared_boundary_goes_up(self):
        part = dyadic_partition([0.0, 0.25, 0.5, 0.75, 1.0], 4)
        assert part.member[2] == 2


@st.composite
def responses_and_j(draw, unique=False):
    values = draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=60,
            unique=unique,
        )
    )
    j_count = draw(st.integers(1, len(values)))
    return np.asarray(values), j_count


class TestPartitionProperties:
    @given(responses_and_j())
    @settings(max_examples=150, deadline=None)
    def test_equiblock_disjoint_cover_and_balance(self, case):
        responses, j_count = case
        part = equiblock_partition(responses, j_count)
        joined = np.concatenate([g for g in part.groups]) if part.groups else np.array([])
        assert sorted(joined.tolist()) == list(range(len(responses)))
        sizes = [len(g) for g in part.groups]
        assert max(sizes) - min(sizes) <= 1

    @given(responses_and_j(unique=True))
    @settings(max_examples=150, deadline=None)
    def test_dyadic_disjoint_cover(self, case):
        responses, j_count = case
        part = dyadic_partition(responses, j_count)
        joined = np.concatenate([g for g in part.groups])
        assert sorted(joined.tolist()) == list(range(len(responses)))

    @given(responses_and_j(unique=True))
    @settings(max_examples=150, deadline=None)
    def test_locate_agrees_with_membership(self, case):
        # locating a value by bisecting the inner interval boundaries
        # (right-open rule: a shared boundary opens the upper interval)
        # gives each sample's group, on both partitions
        responses, j_count = case
        for part in (
            dyadic_partition(responses, j_count),
            equiblock_partition(responses, j_count),
        ):
            inner = np.array([iv.lower for iv in part.intervals[1:]])
            located = np.searchsorted(inner, responses, side="right")
            assert np.array_equal(located, part.member)

    @given(responses_and_j(unique=True))
    @example((np.array([1.0, np.nextafter(1.0, 2.0)]), 2))  # midpoint rounds onto 1.0
    @example((np.array([0.0, 5e-324]), 2))  # midpoint rounds onto 0.0
    @example((np.array([1e308, 1.5e308, 1.7e308]), 2))  # the sum overflows
    @example((np.array([-1e308, 0.0, 1e308]), 2))  # the span overflows
    @settings(max_examples=100, deadline=None)
    def test_groups_match_interval_containment(self, case):
        # documented caveat: equiblock ties straddling a block boundary make
        # the block assignment authoritative, so this holds on unique values
        responses, j_count = case
        for part in (
            dyadic_partition(responses, j_count),
            equiblock_partition(responses, j_count),
        ):
            member = part.member
            for i, y in enumerate(responses):
                iv = part.intervals[member[i]]
                assert iv.lower <= y and (y <= iv.upper if iv.closed_upper else y < iv.upper)


# a few values that tie, including both zeros, subnormals and values near float max
TIE_POOL = [-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0, 1.5, 1e308, -1e308, MAX, -MAX]


def oracle_groups(member, j_count):
    """Groups built one sample at a time in index order."""
    groups = [[] for _ in range(j_count)]
    for i, j in enumerate(member.tolist()):
        groups[j].append(i)
    return [np.array(g, dtype=np.intp) for g in groups]


def dyadic_member(responses, part):
    inner = np.array([iv.lower for iv in part.intervals[1:]])
    return np.searchsorted(inner, responses, side="right")


def equiblock_oracle(responses, j_count):
    base, extra = divmod(len(responses), j_count)
    sizes = [base + 1] * extra + [base] * (j_count - extra)
    return np.split(np.argsort(responses, kind="stable"), np.cumsum(sizes)[:-1])


def assert_same_groups(got, expected):
    assert len(got) == len(expected)
    for mine, reference in zip(got, expected):
        assert mine.dtype == np.intp
        assert np.array_equal(mine, reference)


@st.composite
def tied_responses_and_j(draw):
    pool = draw(
        st.lists(
            st.sampled_from(TIE_POOL) | st.floats(allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=6,
        )
    )
    values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80))
    return np.asarray(values), draw(st.integers(1, len(values)))


class TestPartitionOracle:
    """Both partitions against their plain formulations: a bisection of the
    inner edges for dyadic, a stable argsort cut into blocks for equiblock;
    each group lists its indices in ascending order."""

    @given(tied_responses_and_j())
    @example((np.array([0.0, -0.0, 0.0, -0.0]), 2))
    @example((np.array([-MAX, 5e-324, -5e-324, MAX, 5e-324]), 3))
    @settings(max_examples=300, deadline=None)
    def test_heavy_ties(self, case):
        responses, j_count = case
        blocks = equiblock_partition(responses, j_count)
        assert_same_groups(blocks.groups, equiblock_oracle(responses, j_count))
        # member names the block of each sample
        sizes = [len(g) for g in blocks.groups]
        assert np.array_equal(
            blocks.member[np.concatenate(blocks.groups)], np.repeat(np.arange(j_count), sizes)
        )
        if j_count > 1 and responses.min() == responses.max():
            with pytest.raises(DataError, match="degenerate response range"):
                dyadic_partition(responses, j_count)
            return
        part = dyadic_partition(responses, j_count)
        member = dyadic_member(responses, part)
        assert_same_groups(part.groups, oracle_groups(member, j_count))
        assert np.array_equal(part.member, member)

    @pytest.mark.parametrize(
        "n, j_count, pool_size",
        [(5000, 300, 40), (70000, 70000, 30000)],  # uint16 and uint32 group indices
    )
    def test_many_level_sets(self, n, j_count, pool_size):
        rng = np.random.default_rng(j_count)
        pool = np.concatenate([[-0.0, 0.0, 5e-324], rng.normal(size=pool_size)])
        responses = rng.choice(pool, n)
        part = dyadic_partition(responses, j_count)
        assert_same_groups(part.groups, oracle_groups(dyadic_member(responses, part), j_count))
        assert_same_groups(
            equiblock_partition(responses, j_count).groups, equiblock_oracle(responses, j_count)
        )
