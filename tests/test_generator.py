import dataclasses
import hashlib

import numpy as np
import pytest

from basingen import (
    ClassParams,
    ErrorCode,
    ParameterError,
    default_params,
    function_seed,
    generate,
    ground_truth_problems,
)
from basingen.generator import (
    GLOBAL_ROW,
    VERTEX_ROW,
    _reflect_into_domain,
    _spherical_offset,
    compute_minima_values,
    compute_radii,
    identify_globals,
    place_local_minimizers,
    place_vertex_and_global,
)
from basingen.rng import LaggedFibonacci
from conftest import sized_class
from fdtools import reference_radii


def small_class(dim=2, num_minima=2, **kw):
    base = dict(
        dim=dim,
        num_minima=num_minima,
        global_value=-1.0,
        global_dist=2.0 / 3.0,
        global_radius=1.0 / 3.0,
        domain_left=(-1.0,) * dim,
        domain_right=(1.0,) * dim,
    )
    base.update(kw)
    return ClassParams(**base)


def records_equal(a, b):
    return (
        a.params == b.params
        and a.nf == b.nf
        and a.delta == b.delta
        and np.array_equal(a.minima.local_min, b.minima.local_min)
        and np.array_equal(a.minima.f, b.minima.f)
        and np.array_equal(a.minima.rho, b.minima.rho)
        and np.array_equal(a.minima.peak, b.minima.peak)
        and np.array_equal(a.minima.w_rho, b.minima.w_rho)
        and a.glob.num_global_minima == b.glob.num_global_minima
        and np.array_equal(a.glob.gm_index, b.glob.gm_index)
    )


# --------------------------------------------------------------------------
# generate


def test_generate_is_deterministic(params2, func9):
    assert records_equal(func9, generate(params2, 9))


# sha256 over one stored field of all 100 functions of a class, in
# function order (little-endian float64 / int64), recorded before the
# random stream and the radii moved to numpy arrays
PINNED_FIELD_DIGESTS = {
    (2, 10): {
        "local_min": "bfa896860608b1948f3d72797f143211e9a50e4ac0532d6d1e9fda2894da6cea",
        "f": "8eef709b90729cb6d16b9b2c992111711231b8509bcdf7ad371d0ad3cd259045",
        "rho": "a501a68d0a3afece08356d3caff16988525d99117b4991b2066eab1c5c57c2f7",
        "peak": "5593b3a399d75e1e82df6d6a16999cd56c31a870069a575618f0915a6c48c91d",
        "w_rho": "aa792e024dacd36dc80fbce4a618c4c4b005702cba1611ec5214a553d7fa1114",
        "gm_index": "11e828eb8925ad4584a75911be30e62e23ebfd2b5b0d5f60dc0dd7c95d3df7e5",
        "num_global_minima": "88163244840eeecf6554c622bb0701919ca70a3ff3761c4204e33af20acbde61",
        "delta": "047c032204845f5474c99c3a2e663be2b2ee821f6aa887d01d091fabe5567f5b",
    },
    (5, 30): {
        "local_min": "c00b296297a3e78ae18b2db7bb6fc37db3a1e354de889c0c9294f82fb27c6697",
        "f": "02d16c3bb733452f27b7876b5a77b3ece5d1924a0e4291fb98a2da45484c3696",
        "rho": "d4e4e22457d4893722e08f2a4b23de73c890455f8a4c31ce8b91e21987a11fdc",
        "peak": "0b938b9877b20c08a86db8cf5760b5a8443e266804dd8476b8deb73056571b90",
        "w_rho": "e9eb88e0d82c529e988be01197c2183c52cf7f14aa89410340dff411f9a89dda",
        "gm_index": "fd67bef259553d3d87d35786301cce47ad908c1b4f7a37e1c15107ca00f6201b",
        "num_global_minima": "88163244840eeecf6554c622bb0701919ca70a3ff3761c4204e33af20acbde61",
        "delta": "dc408a480f6d38b56e75e48fc720a2e70cdbaf2e4529498ee6dcd391776c08f2",
    },
    (10, 100): {
        "local_min": "38ab062af311254073b396aad0c5a002a5e2dded213778540c8fbf5607820253",
        "f": "34f7faa4677b91e8da07dc7d7022000d51eef81d023ea920417752e77be6da6b",
        "rho": "6ddfe27e7b2fb7ca4db60631614c163de2af8eba5bcf4cb572c0cef2909f1242",
        "peak": "c2d8c05dfdacb62af56d3b5b22886cf17592225ca8f9de2342c5a6e04cd86efd",
        "w_rho": "b6c5339b48e9bd43318e5c5ca0a1963874061a72dbd746cd197d006e3d5e2229",
        "gm_index": "26d2b916efc2bcf5bb2e4a86c75a426b176813cafe0351295e1eb02b437d5eda",
        "num_global_minima": "88163244840eeecf6554c622bb0701919ca70a3ff3761c4204e33af20acbde61",
        "delta": "357759c2749cd7cfcd01a1eb61a23f5843cdb812b694ca0bb20385775d389578",
    },
}


def stored_fields(func):
    """Every stored field of a record as little-endian bytes."""
    table = func.minima
    floats = dict(
        local_min=table.local_min,
        f=table.f,
        rho=table.rho,
        peak=table.peak,
        w_rho=table.w_rho,
        delta=[func.delta],
    )
    ints = dict(gm_index=func.glob.gm_index, num_global_minima=[func.glob.num_global_minima])
    fields = {name: np.ascontiguousarray(v, dtype="<f8") for name, v in floats.items()}
    fields.update({name: np.ascontiguousarray(v, dtype="<i8") for name, v in ints.items()})
    return {name: arr.tobytes() for name, arr in fields.items()}


def test_generation_pinned_bit_for_bit(pinned_classes):
    for key, functions in pinned_classes.items():
        hashes = {name: hashlib.sha256() for name in PINNED_FIELD_DIGESTS[key]}
        for func in functions:
            for name, data in stored_fields(func).items():
                hashes[name].update(data)
        digests = {name: h.hexdigest() for name, h in hashes.items()}
        assert digests == PINNED_FIELD_DIGESTS[key], key


def test_function_number_bounds(params2):
    for nf in (0, 101, -3):
        with pytest.raises(ParameterError) as exc:
            generate(params2, nf)
        assert exc.value.codes == [ErrorCode.FUNC_NUMBER]


def test_invalid_params_rejected():
    bad = dataclasses.replace(default_params(2), global_radius=0.4)
    with pytest.raises(ParameterError) as exc:
        generate(bad, 1)
    assert ErrorCode.GLOBAL_RADIUS in exc.value.codes


def test_seed_formula():
    p = default_params(2)
    assert function_seed(p, 1) == (10 - 1) * 100 + 1_000_000
    assert function_seed(p, 9) == 8 + 900 + 1_000_000
    p5 = small_class(dim=5, num_minima=30)
    assert function_seed(p5, 1) == 29 * 100 + 4 * 1_000_000
    # distinct across the class
    seeds = {function_seed(p, nf) for nf in range(1, 101)}
    assert len(seeds) == 100


def test_distinct_functions_within_class(params2, default_class):
    vertices = {tuple(f.vertex) for f in default_class}
    assert len(vertices) == 100


def test_generated_record_is_frozen(func9):
    with pytest.raises(dataclasses.FrozenInstanceError):
        func9.delta = 1.0
    with pytest.raises(ValueError):
        func9.minima.f[0] = 5.0
    with pytest.raises(ValueError):
        func9.glob.gm_index[0] = 7


# --------------------------------------------------------------------------
# placement


def test_spherical_offset_zero_angle():
    offset = _spherical_offset(2.0 / 3.0, [0.0])
    assert offset == pytest.approx([2.0 / 3.0, 0.0])


def test_spherical_offset_norm_many_dims():
    rng = np.random.default_rng(4)
    for dim in (2, 3, 5, 9):
        for _ in range(200):
            angles = [np.pi * rng.random()] + list(
                2.0 * np.pi * rng.random(dim - 2)
            )
            offset = _spherical_offset(0.37, angles)
            assert np.linalg.norm(offset) == pytest.approx(0.37, abs=1e-12)


def test_reflection_preserves_distance():
    center = np.array([0.9, 0.0])
    raw = np.array([1.1, 0.0])
    lower = np.array([-1.0, -1.0])
    upper = np.array([1.0, 1.0])
    reflected = _reflect_into_domain(raw, center, lower, upper)
    assert reflected == pytest.approx([0.7, 0.0])
    assert abs(np.linalg.norm(reflected - center) - 0.2) < 1e-15


def test_vertex_and_global_distance():
    p = small_class(dim=3, num_minima=10)
    for seed in range(1000):
        rng = LaggedFibonacci(seed)
        vertex, gmin = place_vertex_and_global(p, rng)
        assert np.linalg.norm(gmin - vertex) == pytest.approx(p.global_dist, abs=1e-12)
        assert np.all(gmin > -1.0) and np.all(gmin < 1.0)
        assert np.all(vertex > -1.0) and np.all(vertex < 1.0)


def test_m2_has_no_extra_minimizers():
    p = small_class(num_minima=2)
    rng = LaggedFibonacci(0)
    vertex, gmin = place_vertex_and_global(p, rng)
    others = place_local_minimizers(p, vertex, gmin, rng)
    assert others.shape == (0, 2)
    func = generate(p, 1)
    assert func.minima.local_min.shape == (2, 2)


def test_gap_condition_enforced(default_class):
    p = default_class[0].params
    least = p.global_radius + p.gap
    for func in default_class:
        gaps = np.linalg.norm(
            func.minima.local_min[2:] - func.global_minimizer, axis=1
        )
        assert np.all(gaps >= least)


def test_infeasible_gap_fails_not_hangs():
    # a clearance larger than the domain diameter leaves nowhere to place
    p = small_class(num_minima=3, gap=3.0)
    with pytest.raises(ParameterError) as exc:
        generate(p, 1)
    assert exc.value.codes == [ErrorCode.NUM_MINIMA]
    assert "cannot place minimizers" in exc.value.errors[0].detail


# --------------------------------------------------------------------------
# radii


def test_radii_hand_trace_tight():
    # two minimizers at distance 2/3 with global radius 1/3: the vertex
    # ball starts at 1/3, cannot expand, and is weighted to 0.33
    p = small_class(num_minima=2)
    points = np.array([[0.0, 0.0], [2.0 / 3.0, 0.0]])
    rho = compute_radii(points, p)
    assert rho[VERTEX_ROW] == pytest.approx(0.33)
    assert rho[GLOBAL_ROW] == pytest.approx(1.0 / 3.0)


def test_radii_hand_trace_expanding():
    # with global radius 0.2 the vertex ball expands from 1/3 to
    # 2/3 - 0.2 = 7/15 before weighting
    p = small_class(num_minima=2, global_radius=0.2)
    points = np.array([[0.0, 0.0], [2.0 / 3.0, 0.0]])
    rho = compute_radii(points, p)
    assert rho[VERTEX_ROW] == pytest.approx(0.99 * 7.0 / 15.0)
    assert rho[GLOBAL_ROW] == pytest.approx(0.2)


def test_radii_match_per_row_reference(pinned_classes):
    large = sized_class(20, 500)
    functions = [func for funcs in pinned_classes.values() for func in funcs]
    functions += [generate(large, nf) for nf in (1, 2, 3)]
    for func in functions:
        local_min = func.minima.local_min
        rho = compute_radii(local_min, func.params)
        assert np.array_equal(rho, reference_radii(local_min, func.params))
        assert np.array_equal(rho, func.minima.rho)


def test_balls_disjoint_across_class(default_class):
    for func in default_class:
        lm = func.minima.local_min
        rho = func.minima.rho
        for i in range(len(lm)):
            diffs = lm[i + 1 :] - lm[i]
            dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
            assert np.all(dists >= rho[i] + rho[i + 1 :] - 1e-12)


def test_global_radius_kept(default_class):
    for func in default_class:
        assert func.minima.rho[GLOBAL_ROW] == func.params.global_radius


# --------------------------------------------------------------------------
# minima values


def test_boundary_minimum_closed_form():
    p = small_class(num_minima=3, gap=0.05, global_radius=0.1, global_dist=0.5)
    points = np.array([[0.0, 0.0], [0.5, 0.0], [0.8, 0.0]])
    rho = np.array([0.1, 0.1, 0.2])
    values, peaks = compute_minima_values(points, rho, p, LaggedFibonacci(1))
    # minimum of the paraboloid over the third ball boundary: (0.8 - 0.2)^2
    assert values[2] + peaks[2] == pytest.approx(0.36)


def test_value_ordering(default_class):
    for func in default_class:
        f = func.minima.f
        assert f[VERTEX_ROW] == func.params.paraboloid_min
        assert f[GLOBAL_ROW] == func.params.global_value
        assert f.min() == func.params.global_value
        assert np.all(f >= func.params.global_value)


def test_values_below_boundary_minimum(default_class):
    for func in default_class:
        lm = func.minima.local_min
        rho = func.minima.rho
        dists = np.linalg.norm(lm[2:] - func.vertex, axis=1)
        boundary_min = (dists - rho[2:]) ** 2 + func.params.paraboloid_min
        assert np.all(func.minima.f[2:] < boundary_min)
        assert np.all(func.minima.peak[2:] > 0.0)


def test_delta_within_bounds(default_class):
    for func in default_class:
        assert 0.0 < func.delta < func.params.delta_max


# --------------------------------------------------------------------------
# global bookkeeping


def test_identify_globals_unique():
    info = identify_globals(np.array([0.0, -1.0, -0.4, -0.7]), 1e-10)
    assert info.num_global_minima == 1
    assert info.gm_index.tolist() == [2, 1, 3, 4]


def test_identify_globals_tie():
    info = identify_globals(np.array([0.0, -1.0, -1.0, -0.5]), 1e-10)
    assert info.num_global_minima == 2
    assert info.gm_index.tolist() == [2, 3, 1, 4]


def test_single_global_in_practice(default_class):
    # continuous depth draws make value ties measure-zero
    assert all(f.glob.num_global_minima == 1 for f in default_class)
    assert all(f.glob.gm_index[0] == 2 for f in default_class)


def test_ground_truth_audit_accepts_generated(default_class):
    for func in default_class:
        assert ground_truth_problems(func) == []
