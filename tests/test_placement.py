"""Block-drawn placement and basin values against the candidate-at-a-time
reference in ``placement_reference.py``: equal arrays, equal error text
and the stream left at the same word after each stage."""

import copy
import dataclasses

import numpy as np
import pytest

import placement_reference as reference
from basingen import generator
from basingen.generator import compute_radii, function_seed, place_vertex_and_global
from basingen.params import PRECISION, ParameterError
from basingen.rng import LaggedFibonacci
from conftest import sized_class, small_class


def next_three(rng):
    """The next three deviates of `rng`, read from a copy so that `rng`
    itself does not move."""
    peek = copy.deepcopy(rng)
    return [peek.uniform() for _ in range(3)]


def stage_mismatches(params, nf):
    """Run placement and then values on twin streams, one through the
    library and one through the reference; name each stage whose output
    or following stream position differs."""
    lib = LaggedFibonacci(function_seed(params, nf))
    ref = LaggedFibonacci(function_seed(params, nf))
    vertex, global_min = place_vertex_and_global(params, lib)
    place_vertex_and_global(params, ref)
    mismatches = []
    others = generator.place_local_minimizers(params, vertex, global_min, lib)
    expected = reference.place_local_minimizers(params, vertex, global_min, ref)
    if not np.array_equal(others, expected) or next_three(lib) != next_three(ref):
        mismatches.append(("placement", nf))
    local_min = np.vstack([vertex[None, :], global_min[None, :], expected])
    rho = compute_radii(generator._distance_matrix(local_min), params)
    values, peaks = generator.compute_minima_values(local_min, rho, params, lib)
    ref_values, ref_peaks = reference.compute_minima_values(local_min, rho, params, ref)
    same = np.array_equal(values, ref_values) and np.array_equal(peaks, ref_peaks)
    if not same or next_three(lib) != next_three(ref):
        mismatches.append(("values", nf))
    return mismatches


@pytest.mark.parametrize("dim, num_minima", [(2, 10), (5, 30), (10, 100)])
def test_pinned_classes_match_reference(dim, num_minima):
    # the seeds of the 300 records pinned in test_generator.py
    params = sized_class(dim, num_minima)
    mismatches = [m for nf in range(1, 101) for m in stage_mismatches(params, nf)]
    assert mismatches == []


def test_rejection_heavy_class_matches_reference():
    # 60 minima in the default 2-D box: the global-ball gap rejects about
    # a third of the candidates, so most blocks end in misses
    params = sized_class(2, 60)
    mismatches = [m for nf in range(1, 101) for m in stage_mismatches(params, nf)]
    assert mismatches == []


@pytest.mark.parametrize(
    "num_minima, gap",
    [
        (3, 3.0),  # test_infeasible_gap_fails_not_hangs: every candidate is rejected
        (30, 1.88),  # 6 minimizers placed, then blocks shrink to the retries left
    ],
)
def test_infeasible_gap_fails_like_reference(num_minima, gap):
    # both raise the same error after the same draws
    params = small_class(num_minima=num_minima, gap=gap)
    lib = LaggedFibonacci(function_seed(params, 1))
    ref = LaggedFibonacci(function_seed(params, 1))
    vertex, global_min = place_vertex_and_global(params, lib)
    place_vertex_and_global(params, ref)
    with pytest.raises(ParameterError) as got:
        generator.place_local_minimizers(params, vertex, global_min, lib)
    with pytest.raises(ParameterError) as expected:
        reference.place_local_minimizers(params, vertex, global_min, ref)
    assert str(got.value) == str(expected.value)
    assert got.value.codes == expected.value.codes
    assert next_three(lib) == next_three(ref)


def _no_blas_norm(*args, **kwargs):
    raise AssertionError("placement called np.linalg.norm")


def test_candidate_on_the_gap_threshold_matches_reference(monkeypatch):
    # placement reads global_radius + gap only as the threshold on the
    # einsum norm of candidate - x*; put it exactly on a candidate's norm
    # and one ulp above, for a candidate whose np.linalg.norm rounds
    # differently where this platform's BLAS makes one.  The library must
    # decide the gap without np.linalg.norm
    base = small_class(dim=5, num_minima=12, gap=0.0)
    rng = LaggedFibonacci(function_seed(base, 1))
    vertex, global_min = place_vertex_and_global(base, rng)
    lower, upper = np.array(base.domain_left), np.array(base.domain_right)
    first_block = lower + (upper - lower) * copy.deepcopy(rng).uniforms(10 * 5).reshape(10, 5)
    offsets = first_block - global_min
    norms = np.array([np.linalg.norm(offset) for offset in offsets])
    einsum_norms = np.sqrt(np.einsum("ij,ij->i", offsets, offsets))
    row = int(np.argmax(norms != einsum_norms))
    for threshold in (einsum_norms[row], np.nextafter(einsum_norms[row], np.inf)):
        params = dataclasses.replace(base, global_radius=float(threshold))
        lib, ref = copy.deepcopy(rng), copy.deepcopy(rng)
        expected = reference.place_local_minimizers(params, vertex, global_min, ref)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "norm", _no_blas_norm)
            others = generator.place_local_minimizers(params, vertex, global_min, lib)
        assert np.array_equal(others, expected)
        assert next_three(lib) == next_three(ref)


class ZeroedStream:
    """A stream that reads 0.0 at the given word positions, counted from
    its construction, and the seeded stream's deviates everywhere else."""

    def __init__(self, seed, zeros):
        self._rng = LaggedFibonacci(seed)
        self._zeros = set(zeros)
        self.position = 0

    def uniform(self):
        value = self._rng.uniform()
        if self.position in self._zeros:
            value = 0.0
        self.position += 1
        return value

    def uniforms(self, count):
        return np.array([self.uniform() for _ in range(count)], dtype=float)


# word 2r + 1 is row r's depth word while no zero has been redrawn
ZERO_WORDS = {
    "first-row": [1],
    "middle-row": [2 * 14 + 1],
    "last-row": [2 * 27 + 1],
    "two-in-a-row": [2 * 14 + 1, 2 * 14 + 2],
}


@pytest.mark.parametrize("zeros", ZERO_WORDS.values(), ids=ZERO_WORDS.keys())
def test_zero_depth_word_is_redrawn_like_reference(func5, zeros):
    # func5 has 28 rows after the vertex and the global minimizer
    table, params = func5.minima, func5.params
    lib, ref = ZeroedStream(7, zeros), ZeroedStream(7, zeros)
    values, peaks = generator.compute_minima_values(table.local_min, table.rho, params, lib)
    ref_values, ref_peaks = reference.compute_minima_values(
        table.local_min, table.rho, params, ref
    )
    assert ref.position == 2 * 28 + len(zeros)  # every zero was a depth word
    assert np.array_equal(values, ref_values)
    assert np.array_equal(peaks, ref_peaks)
    delta = params.delta_max * generator._positive_uniform(lib)
    assert delta == params.delta_max * reference._positive_uniform(ref)
    assert lib.uniform() == ref.uniform()
    assert lib.position == ref.position


class WordStream:
    """A stream that serves the given words in order, through `uniform()`
    and `uniforms(count)` alike."""

    def __init__(self, words):
        self._words = list(words)
        self.position = 0

    def uniform(self):
        self.position += 1
        return self._words[self.position - 1]

    def uniforms(self, count):
        return np.array([self.uniform() for _ in range(count)], dtype=float)


# on [0, 1]^2 a word is the coordinate it draws; minimizers 3..6 come in a
# block of 4 rows, then a block of the rows still needed
P = PRECISION
SCREEN_BLOCKS = {
    "near-the-vertex": [(0.25 + P / 2, 0.25), (0.2, 0.8), (0.5, 0.7), (0.8, 0.9), (0.1, 0.5)],
    "near-an-earlier-row": [(0.2, 0.8), (0.2, 0.8 + P / 3), (0.5, 0.7), (0.8, 0.9), (0.1, 0.5)],
    # 4P - 2P is exactly 2P, the screen's threshold
    "2P-apart-in-coordinate-0": [(2 * P, 0.2), (4 * P, 0.8), (0.5, 0.7), (0.8, 0.9)],
    "near-in-coordinate-0-only": [(0.3, 0.2), (0.3 + P / 2, 0.8), (0.5, 0.7), (0.8, 0.9)],
}


@pytest.mark.parametrize("rows", SCREEN_BLOCKS.values(), ids=SCREEN_BLOCKS.keys())
def test_near_pairs_in_a_block_are_placed_like_reference(rows):
    # blocks with a pair whose first coordinates lie within 2 PRECISION,
    # which the exact distance test decides
    params = small_class(
        num_minima=6, global_dist=0.3, global_radius=0.1, gap=0.05,
        domain_left=(0.0, 0.0), domain_right=(1.0, 1.0),
    )
    vertex, global_min = np.array([0.25, 0.25]), np.array([0.55, 0.25])
    spare = [0.9, 0.1, 0.1, 0.9]  # read only by a placement that rejects too many rows
    words = [w for row in rows for w in row] + spare
    lib, ref = WordStream(words), WordStream(words)
    others = generator.place_local_minimizers(params, vertex, global_min, lib)
    expected = reference.place_local_minimizers(params, vertex, global_min, ref)
    assert np.array_equal(others, expected)
    assert lib.position == ref.position == 2 * len(rows)
