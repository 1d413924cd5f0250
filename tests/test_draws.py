"""A `DrawStream` returns, value for value, what numpy's `Generator` returns
for the same calls on the same seed, and uses exactly the same words."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from fairsched.draws import DrawStream
from oracles import assert_same_position

# 2**31 + 1 and 3 * 2**30 reject often; 2**32 - 1 is the widest 32-bit
# Lemire range, 2**32 takes one half as it is and 2**32 + 1 whole words
BOUNDS = [1, 2, 3, 92, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1]
RATES = [2.0**-53, 0.01, 0.5, 1 - 2.0**-53, 1.0]


def _pair(seed: int) -> tuple[DrawStream, np.random.Generator]:
    return DrawStream(np.random.PCG64(seed)), np.random.default_rng(seed)


def _request(stream: DrawStream, rng: np.random.Generator, plan: random.Random) -> None:
    """One randomly chosen request, made of both; their values must agree."""
    kind = plan.randrange(5)
    if kind == 0:
        n = plan.choice(BOUNDS)
        assert stream.integers(0, n) == rng.integers(0, n), n
    elif kind == 1:
        assert stream.random() == rng.random()
    elif kind == 2:
        n, rate = plan.randrange(0, 130), plan.choice(RATES)
        got = stream.coins(rate, np.empty(n, dtype=bool))
        assert got.tolist() == np.less(rng.random(n), rate).tolist(), (n, rate)
    elif kind == 3:
        m = plan.randrange(1, 65)
        k = plan.randrange(1, min(3, m) + 1)
        assert stream.sorted_choice(m, k) == sorted(rng.choice(m, k, replace=False).tolist()), (m, k)
    else:
        n = plan.randrange(0, 70)
        assert stream.uniform(10.0, 100.0, n).tobytes() == rng.uniform(10.0, 100.0, size=n).tobytes()


@pytest.mark.parametrize("block", range(4))
def test_interleaved_requests_match_generator(block):
    """300 seeds, each a random interleaving of bounded integers, doubles,
    coins, samples and uniforms: every value agrees, and afterwards both
    sides stand at the same word with the same pending half."""
    for seed in range(block * 80, block * 80 + 80):
        stream, rng = _pair(seed)
        plan = random.Random(seed)
        for _ in range(plan.randrange(1, 80)):
            _request(stream, rng, plan)
        assert_same_position(stream, rng)


def test_pending_half_survives_doubles_and_coins():
    """A 32-bit draw leaves the word's upper half pending; doubles, coins and
    uniforms read whole words past it, and the next 32-bit draw takes it."""
    for seed in range(300):
        stream, rng = _pair(seed)
        assert stream.integers(0, 92) == rng.integers(0, 92)
        assert stream._half >= 0
        for _ in range(3):
            assert stream.random() == rng.random()
        assert stream.coins(0.5, np.empty(5, dtype=bool)).tolist() == (rng.random(5) < 0.5).tolist()
        assert stream.uniform(0.0, 1.0, 2).tolist() == rng.uniform(0.0, 1.0, size=2).tolist()
        assert_same_position(stream, rng)
        assert stream.integers(0, 2**32) == rng.integers(0, 2**32)  # the pending half itself
        assert stream._half < 0
        assert_same_position(stream, rng)


def test_coins_at_rate_one_all_hit():
    """At rate 1.0 the word bound ceil(rate * 2**53) << 11 is 2**64, beyond
    uint64: every coin hits, and the coins still use one word each."""
    for seed in range(300):
        stream, rng = _pair(seed)
        n = seed % 70
        out = stream.coins(1.0, np.zeros(n, dtype=bool))
        assert out.all() and (rng.random(n) < 1.0).all()
        assert_same_position(stream, rng)
        stream, rng = _pair(seed)
        assert stream.coins(1 - 2.0**-53, np.empty(n, dtype=bool)).tolist() == (rng.random(n) < 1 - 2.0**-53).tolist()
        assert_same_position(stream, rng)


def test_word_bound_is_exact_at_the_rate():
    """A coin hits exactly when the double the word makes is below the rate:
    words on either side of each bound, with the doubles numpy makes of them."""
    for rate in RATES + [2.0**-52, 0.3, 0.7]:
        edge = math.ceil(rate * 2**53) << 11
        words = np.array([w for w in (edge - 2049, edge - 1, edge, edge + 2048) if 0 <= w < 2**64], dtype=np.uint64)
        doubles = (words >> np.uint64(11)) * 2.0**-53
        stream = DrawStream(np.random.PCG64(0))
        stream._words, stream._at = words, 0
        assert stream.coins(rate, np.empty(len(words), dtype=bool)).tolist() == (doubles < rate).tolist(), rate


def test_floyd_sample_matches_for_larger_samples():
    """`sorted_choice` follows numpy's Floyd's algorithm for any sample size
    it takes that branch for, not only the generator's k <= 3."""
    for seed in range(100):
        stream, rng = _pair(seed)
        for m, k in ((1, 1), (10, 10), (64, 9), (500, 40), (10000, 200), (60000, 1200)):
            assert stream.sorted_choice(m, k) == sorted(rng.choice(m, k, replace=False).tolist()), (seed, m, k)
        assert_same_position(stream, rng)


def test_unsupported_requests_raise():
    stream = DrawStream(np.random.PCG64(0))
    with pytest.raises(ValueError, match="high <= low"):
        stream.integers(5, 5)
    with pytest.raises(ValueError, match="2\\*\\*64 or more"):
        stream.integers(-(2**63), 2**63)
    with pytest.raises(ValueError, match="tail shuffle"):
        stream.sorted_choice(20000, 401)


def test_widest_ranges_match_generator():
    """64-bit ranges up to 2**64 - 1 on int64 bounds."""
    for seed in range(50):
        stream, rng = _pair(seed)
        for low, high in ((0, 2**63 - 1), (-(2**63), 2**63 - 1), (-(2**62), 2**62 + 1)):
            assert stream.integers(low, high) == rng.integers(low, high)
        assert_same_position(stream, rng)
