"""Unit tests for seeded RNG streams and Zipf helpers."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.rng import SimRng, WeightedSampler, zipf_weights


def _draws(rng: SimRng, name: str, count: int = 5) -> list[float]:
    return [rng.stream(name).random() for _ in range(count)]


def test_same_seed_same_draws():
    assert _draws(SimRng(42), "x") == _draws(SimRng(42), "x")


def test_different_seeds_differ():
    assert _draws(SimRng(1), "x") != _draws(SimRng(2), "x")


def test_streams_are_independent():
    """Drawing extra values from one stream must not shift another, and a
    stream created first draws what it draws when created last."""
    a, b = SimRng(7), SimRng(7)
    _draws(a, "noise", 10)  # extra draws on a different stream
    assert _draws(a, "target") == _draws(b, "target")
    _draws(b, "noise", 10)  # created after "target" on this instance
    assert _draws(a, "noise") == _draws(b, "noise")


def test_zipf_weights_uniform_at_zero_skew():
    weights = zipf_weights(10, 0.0)
    assert np.allclose(weights, 0.1)


def test_zipf_weights_monotone_decreasing():
    weights = zipf_weights(10, 1.5)
    assert all(weights[i] >= weights[i + 1] for i in range(9))


def test_zipf_weights_sum_to_one():
    for skew in (0.0, 0.5, 1.0, 2.0, 6.0):
        assert zipf_weights(37, skew).sum() == pytest.approx(1.0)


def test_zipf_rejects_bad_args():
    with pytest.raises(ValueError):
        zipf_weights(0, 1.0)
    with pytest.raises(ValueError):
        zipf_weights(5, -1.0)


def test_zipf_index_in_range():
    sampler = WeightedSampler(SimRng(9).stream("z"), zipf_weights(20, 1.0))
    for _ in range(100):
        assert 0 <= sampler.draw() < 20


def test_high_skew_concentrates_on_rank_zero():
    sampler = WeightedSampler(SimRng(11).stream("z"), zipf_weights(10, 6.0))
    draws = [sampler.draw() for _ in range(200)]
    assert draws.count(0) > 150


@given(st.integers(min_value=1, max_value=200), st.floats(min_value=0, max_value=4))
def test_property_zipf_weights_valid_distribution(n, skew):
    weights = zipf_weights(n, skew)
    assert len(weights) == n
    assert np.all(weights > 0)
    assert weights.sum() == pytest.approx(1.0)


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_property_stream_determinism_across_instances(seed):
    assert _draws(SimRng(seed), "s", 1) == _draws(SimRng(seed), "s", 1)


# -- WeightedSampler ---------------------------------------------------------------


class _FixedDraws:
    """A generator stand-in whose ``random()`` returns the given values."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


_WEIGHT_VECTORS = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3)), min_size=1, max_size=12
).filter(any)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), weights=_WEIGHT_VECTORS)
@example(seed=99, weights=list(zipf_weights(2, 0.0)))
@example(seed=99, weights=list(zipf_weights(3, 1.0)))
@example(seed=99, weights=list(zipf_weights(5, 2.5)))
@example(seed=99, weights=list(zipf_weights(8, 0.3)))
@example(seed=1, weights=[0.0, 0.25, 0.0, 0.25, 0.5, 0.0])
def test_weighted_sampler_matches_numpy_choice_draw_stream(seed, weights):
    """The precomputed-CDF sampler must be bit-identical to
    ``Generator.choice(n, p=weights)`` — the goldens depend on it.  Zero
    weights repeat CDF values, so a draw equal to one of them must take
    the same right-biased index as numpy's ``searchsorted``."""
    n = len(weights)
    p = np.asarray(weights) / np.sum(weights)
    reference = np.random.default_rng(seed)
    sampler = WeightedSampler(np.random.default_rng(seed), p)
    expected = [int(reference.choice(n, p=p)) for _ in range(300)]
    assert [sampler.draw() for _ in range(300)] == expected

    cdf = p.cumsum()
    cdf /= cdf[-1]
    ties = [0.0, *cdf[:-1].tolist()]
    tied = WeightedSampler(_FixedDraws(ties), p)
    assert [tied.draw() for _ in ties] == [int(cdf.searchsorted(u, side="right")) for u in ties]


def test_weighted_sampler_accepts_plain_lists_and_rejects_empty():
    sampler = WeightedSampler(np.random.default_rng(1), [1.0, 1.0])
    assert sampler.draw() in (0, 1)
    zeros_allowed = WeightedSampler(np.random.default_rng(1), [0, 2, 0])
    assert {zeros_allowed.draw() for _ in range(50)} == {1}
    with pytest.raises(ValueError):
        WeightedSampler(np.random.default_rng(1), [])
    # All-zero, negative, NaN and infinite weights: ``choice`` refuses each,
    # so the sampler that claims its draw stream must refuse them too.
    for weights in ([0, 0, 0], [1, -1, 1], [float("nan"), 1], [float("inf"), 1]):
        with pytest.raises(ValueError):
            np.random.default_rng(1).choice(len(weights), p=weights)
        with pytest.raises(ValueError, match="weights"):
            WeightedSampler(np.random.default_rng(1), weights)
