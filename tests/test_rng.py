import random
import warnings

import numpy as np
import pytest

from basingen import function_seed, rng
from basingen.rng import MAX_SEED, MODULUS, LaggedFibonacci
from conftest import sized_class
from knuth_reference import ReferenceStream

# chi-square critical value for 9 degrees of freedom at p = 0.001,
# i.e. scipy.stats.chi2.ppf(0.999, 9)
CHI2_9_P999 = 27.877164871626786


def words(gen, count):
    """The next `count` raw words: each deviate is exactly word / 2**30."""
    return (gen.uniforms(count) * 2**30).tolist()


def test_knuth_published_check_value():
    # Knuth's ran_array test: ran_start(310952), then 2010 blocks of 1009
    # words (or 1010 blocks of 2009) leave 995235265 in word 0 of the last
    # block, word 2,027,081 of the stream; the constructor is ran_start,
    # warm-up included
    for blocks, length in ((2010, 1009), (1010, 2009)):
        gen = LaggedFibonacci(310952)
        for _ in range(blocks):
            block = words(gen, length)
        assert block[0] == 995235265


def oracle_seeds():
    """Range ends, Knuth's test seed, every bit length, both classes'
    function seeds and 100 seeds drawn at random."""
    seeds = {0, 1, MAX_SEED, 310952}
    for k in range(1, 30):
        seeds |= {2**k, 2**k - 1}
    for params in (sized_class(2, 10), sized_class(10, 100)):
        seeds |= {function_seed(params, nf) for nf in range(1, 101)}
    seeds |= set(random.Random(20261018).sample(range(MAX_SEED + 1), 100))
    return sorted(seeds)


def test_stream_matches_integer_oracle():
    # the uint64 seeding and recurrence against the pure-integer ran_start /
    # ran_array; numpy warns on scalar overflow, so warnings are errors,
    # and the seed-independent map is rebuilt under that filter too
    mismatched = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rng._tail_map.cache_clear()
        rng._warm_state.cache_clear()  # else seeds memoised earlier skip the filter
        for seed in oracle_seeds():
            gen = LaggedFibonacci(seed)
            ref = ReferenceStream(seed)
            same = True
            for _ in range(3):  # the first 100 words are the warm state
                same &= words(gen, 1009) == ref.next_block(1009)
            same &= gen.uniforms(2500).tolist() == [ref.uniform() for _ in range(2500)]
            if not same:
                mismatched.append(seed)
    assert mismatched == []


def test_warm_state_matches_oracle():
    # mixed bit lengths and a class's seeds against ran_start and the
    # warm-up, one seed at a time
    seeds = [0, 1, 2, 3, 2**29, MAX_SEED, 310952]
    seeds += [function_seed(sized_class(2, 10), nf) for nf in range(1, 101)]
    for seed in seeds:
        state = rng._warm_state(seed)
        assert state.shape == (100,) and state.dtype == np.uint64
        assert state.tolist() == ReferenceStream(seed)._state, seed


# the stream is read in full, so every count is an edge only of what has
# been computed: the lags 37 and 100 and Knuth's block length 1009
UNIFORMS_COUNTS = (0, 1, 36, 37, 99, 100, 101, 137, 1008, 1009, 1010, 3000)


def test_uniforms_match_oracle_across_block_boundaries():
    # array draws, alone and interleaved with single draws, walk the
    # stream exactly as uniform() does
    for interleaved in (False, True):
        gen = LaggedFibonacci(310952)
        ref = ReferenceStream(310952)
        for count in UNIFORMS_COUNTS:
            values = gen.uniforms(count)
            assert values.dtype == np.float64 and values.shape == (count,)
            assert values.tolist() == [ref.uniform() for _ in range(count)]
            if interleaved:
                assert gen.uniform() == ref.uniform()
        assert gen.uniform() == ref.uniform()


def test_mixed_draws_equal_one_array_draw():
    # a single draw that finds words missing computes a 37-word slice,
    # which the draws after it read: any mix of single and array draws
    # walks the stream that one array draw returns
    picks = random.Random(20261020)
    single = None
    plans = [[single] * 300, [single, 36, single, 0, 37, single, 62, single, 100, single, 1]]
    counts = [single] * 4 + [0, 1, 2, 36, 37, 38, 99, 100, 101]
    plans += [[picks.choice(counts) for _ in range(60)] for _ in range(20)]
    for plan in plans:
        gen = LaggedFibonacci(310952)
        drawn = []
        for count in plan:
            if count is single:
                drawn.append(gen.uniform())
            else:
                drawn.extend(gen.uniforms(count).tolist())
        assert drawn == LaggedFibonacci(310952).uniforms(len(drawn)).tolist()


def test_uniforms_rejects_bad_counts():
    gen = LaggedFibonacci(5)
    for count in (-1, 1.5, 2.0, True, "3", None, np.float64(3.0)):
        with pytest.raises(ValueError):
            gen.uniforms(count)
    assert gen.uniform() == LaggedFibonacci(5).uniform()  # nothing was drawn


def test_numpy_integer_seeds_and_counts():
    for kind in (np.int64, np.int32):
        gen, ref = LaggedFibonacci(kind(310952)), LaggedFibonacci(310952)
        assert type(gen.seed) is int and gen.seed == 310952
        for count in (0, 5, 1500):
            assert gen.uniforms(kind(count)).tolist() == ref.uniforms(count).tolist()
        assert gen.uniform() == ref.uniform()
    with pytest.raises(ValueError):
        LaggedFibonacci(True)


def test_same_seed_same_stream():
    a = LaggedFibonacci(42)
    b = LaggedFibonacci(42)
    assert np.array_equal(a.uniforms(5000), b.uniforms(5000))


def test_zero_seed_is_valid():
    gen = LaggedFibonacci(0)
    values = gen.uniforms(100)
    assert all(0.0 <= v < 1.0 for v in values)


def test_seed_out_of_range():
    with pytest.raises(ValueError):
        LaggedFibonacci(-1)
    with pytest.raises(ValueError):
        LaggedFibonacci(MODULUS)
    with pytest.raises(ValueError):
        LaggedFibonacci(1.5)
    LaggedFibonacci(MAX_SEED)  # top of the range is allowed


def test_advancing_k_steps_matches():
    a = LaggedFibonacci(7)
    b = LaggedFibonacci(7)
    a.uniforms(1500)  # past Knuth's block length
    b.uniforms(1500)
    assert a.uniform() == b.uniform()


def test_range_contract_large_sample():
    gen = LaggedFibonacci(3)
    values = gen.uniforms(1_000_000)
    assert values.min() >= 0.0
    assert values.max() < 1.0


def test_mean_of_large_sample():
    gen = LaggedFibonacci(11)
    values = gen.uniforms(1_000_000)
    assert abs(values.mean() - 0.5) < 0.01


def test_chi_square_uniformity():
    gen = LaggedFibonacci(7)
    counts = [0] * 10
    n = 100_000
    for _ in range(n):
        counts[int(gen.uniform() * 10)] += 1
    expected = n / 10
    statistic = sum((c - expected) ** 2 / expected for c in counts)
    assert statistic < CHI2_9_P999


def test_distinct_seeds_distinct_first_draws():
    first = [LaggedFibonacci(seed).uniform() for seed in range(1, 101)]
    assert len(set(first)) == 100


def test_states_do_not_share_storage():
    a = LaggedFibonacci(5)
    b = LaggedFibonacci(5)
    a.uniforms(10)
    # advancing one state must not disturb the other
    assert b.uniform() == LaggedFibonacci(5).uniform()
