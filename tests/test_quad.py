import dataclasses
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from netmoment import (Dipole, DipoleScene, EstimatorSpec, FieldMap, GridParams, NoiseSpec,
                       add_noise, all_specs, asympt_coefficients, b3, build_grid, estimate,
                       estimate_moment, integrate_weighted, net_moment, noise, quad,
                       read_field_csv, recovered_coefficients, sample_field, sweep,
                       t_quantities, write_field_csv)
from netmoment.quad import _BLOCK_ROWS, _DEFAULT_GRID, DiskGrid, _unit_rule
from oracles import (disk_moments_fsum, disk_monomial_integral, read_field_csv_rows,
                     write_field_csv_rows)


def test_weights_sum_to_disk_area():
    for radius in (1.0, 7.5e-4):
        grid = build_grid(radius, 32, 48)
        assert grid.weights.sum() == pytest.approx(math.pi * radius**2, rel=1e-12)


def test_constant_integrates_to_area(demo_scene):
    grid = build_grid(2e-3, 24, 32)
    fmap = sample_field(DipoleScene((), 1.0, "si"), grid)
    ones = type(fmap)(grid=grid, samples=np.ones(len(grid.nodes)), unit_system="si")
    assert integrate_weighted(ones, lambda x: np.ones(len(x))) == pytest.approx(
        math.pi * (2e-3) ** 2, rel=1e-12)


def test_polynomial_exactness():
    radius = 1.7
    grid = build_grid(radius, 16, 24)
    ones = np.ones(len(grid.nodes))
    from netmoment import FieldMap
    fmap = FieldMap(grid=grid, samples=ones, unit_system="natural")
    for (a, b) in ((2, 0), (0, 2), (4, 2), (6, 0), (3, 1), (1, 0), (5, 3)):
        got = integrate_weighted(fmap, lambda x: x[..., 0] ** a * x[..., 1] ** b)
        want = disk_monomial_integral(radius, a, b)
        if want == 0.0:
            assert abs(got) < 1e-14 * radius ** (a + b + 3)
        else:
            assert got == pytest.approx(want, rel=1e-10)


def test_odd_monomial_cancels():
    grid = build_grid(2e-3, 16, 24)
    from netmoment import FieldMap
    fmap = FieldMap(grid=grid, samples=np.ones(len(grid.nodes)), unit_system="natural")
    got = integrate_weighted(fmap, lambda x: x[..., 0])
    assert abs(got) < 1e-14 * (2e-3) ** 3


def test_parameter_validation():
    with pytest.raises(ValueError):
        build_grid(1.0, 3, 32)
    with pytest.raises(ValueError):
        build_grid(1.0, 16, 7)
    with pytest.raises(ValueError):
        build_grid(1.0, 16, 9)  # odd
    with pytest.raises(ValueError):
        build_grid(-1.0, 16, 16)


def test_sample_field_spot_values(demo_scene):
    grid = build_grid(7.5e-4, 40, 48)
    fmap = sample_field(demo_scene, grid)
    for idx in (0, len(grid.nodes) // 3, len(grid.nodes) - 1):
        assert fmap.samples[idx] == pytest.approx(
            float(b3(demo_scene, grid.nodes[idx])), rel=1e-15)


def test_sample_field_empty_scene_zero():
    fmap = sample_field(DipoleScene((), 1.0, "si"), build_grid(1.0, 8, 16))
    assert np.all(fmap.samples == 0.0)


def test_refinement_self_consistency(demo_scene):
    vals = []
    for n in (50, 100, 200):
        fmap = sample_field(demo_scene, build_grid(7.5e-4, n, int(n * 1.28)))
        vals.append(integrate_weighted(fmap, lambda x: np.ones(len(x))))
    assert vals[1] == pytest.approx(vals[2], rel=1e-8)


def test_refinement_monotone_for_x1_moment(demo_scene):
    # coarse rules, so that quadrature error and not roundoff sets the differences
    vals = []
    for n in (4, 6, 8, 12, 16):
        fmap = sample_field(demo_scene, build_grid(7.5e-4, n, 2 * n))
        vals.append(integrate_weighted(fmap, lambda x: x[..., 0]))
    diffs = [abs(a - b) for a, b in zip(vals, vals[1:])]
    assert diffs[0] > diffs[1] > diffs[2] > diffs[3]


def test_sampling_is_deterministic(demo_scene):
    grid = build_grid(7.5e-4, 30, 32)
    a = sample_field(demo_scene, grid)
    b = sample_field(demo_scene, grid)
    assert np.array_equal(a.samples, b.samples)


def test_field_csv_round_trip(tmp_path, demo_scene):
    fmap = sample_field(demo_scene, build_grid(7.5e-4, 20, 24))
    path = tmp_path / "map.csv"
    write_field_csv(fmap, str(path))
    back = read_field_csv(str(path))
    assert np.array_equal(back.samples, fmap.samples)
    assert np.array_equal(back.grid.nodes, fmap.grid.nodes)
    assert np.array_equal(back.grid.weights, fmap.grid.weights)
    assert back.radius == pytest.approx(fmap.radius, rel=1e-12)


def assert_reads_like_csv_reader(path):
    back = read_field_csv(str(path))
    nodes, weights, samples = read_field_csv_rows(str(path))
    for got, want in ((back.grid.nodes, nodes), (back.grid.weights, weights),
                      (back.samples, samples)):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    return back


def test_field_csv_bytes_match_csv_writer(tmp_path, demo_scene):
    grid = build_grid(7.5e-4, 20, 24)
    samples = sample_field(demo_scene, grid).samples.copy()
    samples[:6] = [-0.0, 5e-324, 1e-300, 0.1, 1e16, -1.2345678901234567e-9]
    fmap = FieldMap(grid=grid, samples=samples, unit_system="si")
    path, ref = tmp_path / "map.csv", tmp_path / "ref.csv"
    write_field_csv(fmap, str(path))
    write_field_csv_rows(fmap, str(ref))
    assert path.read_bytes() == ref.read_bytes()
    back = assert_reads_like_csv_reader(path)
    assert np.array_equal(back.samples, samples)
    assert np.array_equal(np.signbit(back.samples), np.signbit(samples))


def test_read_field_csv_matches_csv_reader_on_random_bit_patterns(tmp_path):
    grid = build_grid(2e-3, 200, 256)
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2**64, size=len(grid.nodes), dtype=np.uint64)
    bits[(bits >> np.uint64(52)) & np.uint64(0x7FF) == 0x7FF] ^= np.uint64(1 << 62)  # finite
    bits[::16] &= np.uint64(0x800FFFFFFFFFFFFF)       # zero exponent: subnormals
    bits[1::997] &= np.uint64(1 << 63)                # +-0.0
    samples = bits.view(np.float64)
    assert np.all(np.isfinite(samples))
    assert np.any(samples == 0.0) and np.any(np.signbit(samples[samples == 0.0]))
    path = tmp_path / "map.csv"
    write_field_csv(FieldMap(grid=grid, samples=samples, unit_system="si"), str(path))
    back = assert_reads_like_csv_reader(path)
    assert np.array_equal(back.samples.view(np.uint64), samples.view(np.uint64))


def test_field_csv_bytes_match_csv_writer_across_block_boundaries(tmp_path, demo_scene):
    built = build_grid(2e-3)
    nodes, weights = built.nodes.copy(), built.weights.copy()
    samples = sample_field(demo_scene, built).samples.copy()
    block = _BLOCK_ROWS
    assert len(nodes) % block and len(nodes) > 2 * block
    for edge in (block, len(nodes) // block * block):
        # signed zero weights in both orders, one pair on each side of the edge; a
        # memo keyed by value would write the first zero's text for the second
        for i, zero in ((edge - 3, 0.0), (edge - 2, -0.0), (edge + 1, -0.0), (edge + 2, 0.0)):
            weights[edge - 1 if i < edge else edge] += weights[i]    # the area stays
            weights[i] = zero
        samples[edge - 2:edge + 2] = [-0.0, 5e-324, -5e-324, -0.0]
    assert built.nodes[block, 1] == 0.0     # the first node of a ring sits at angle 0
    nodes[block, 1] = -0.0
    fmap = FieldMap(grid=DiskGrid(2e-3, nodes, weights), samples=samples)
    path, ref = tmp_path / "map.csv", tmp_path / "ref.csv"
    write_field_csv(fmap, str(path))
    write_field_csv_rows(fmap, str(ref))
    assert path.read_bytes() == ref.read_bytes()
    back = assert_reads_like_csv_reader(path)
    for got, want in ((back.grid.nodes, nodes), (back.grid.weights, weights),
                      (back.samples, samples)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("shape", [(200, 256), (400, 256)])
def test_field_csv_writer_peak_does_not_grow_with_the_map(tmp_path, demo_scene, shape,
                                                          traced_peak):
    fmap = sample_field(demo_scene, build_grid(2e-3, *shape))
    path = tmp_path / "map.csv"
    write_field_csv(fmap, str(path))     # any first-call set-up is not counted
    peak = traced_peak(lambda: write_field_csv(fmap, str(path)))
    # one float list of the 200 x 256 map's four columns alone is 1.6 MB
    assert peak < 1_500_000


_HEADER = "x1,x2,weight,b3\r\n"


@pytest.mark.parametrize("text, match", [
    ("x1,x2,w,b3\r\n0.0,0.0,1.0,1.0\r\n", "header"),
    (_HEADER, "no nodes"),
    (_HEADER + "\r\n", "no nodes"),
    (_HEADER + "0.5,0.0,1.0,1.0\r\n0.0,0.5\r\n", "column"),
    (_HEADER + "0.5,0.0,1.0\r\n0.0,0.5,1.0\r\n", "4 columns"),
    (_HEADER + "0.5,0.0,1.0,1.0\r\n0.0,0.5,1.0,abc\r\n", "abc"),
    (_HEADER + "# a comment\r\n0.5,0.0,1.0,1.0\r\n", "#"),
])
def test_read_field_csv_rejects_malformed_file(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            read_field_csv(str(path))


@pytest.mark.parametrize("weights, total", [(["-1.0"], "-1.0"), (["0.0"], "0.0"),
                                            (["inf"], "inf"), (["nan"], "nan"),
                                            (["1e308", "1e308"], "inf"),
                                            (["inf", "-inf"], "nan")])
def test_read_field_csv_rejects_weights_that_give_no_radius(tmp_path, weights, total):
    # these failed as a bare math domain error, or blamed a radius the file does
    # not hold, and inf leaked a RuntimeWarning from numpy
    path = tmp_path / "bad.csv"
    path.write_bytes((_HEADER + "".join(f"0.5,0.0,{w},1.0\r\n" for w in weights)).encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                f"field CSV {path}: the weight column sums to {total}, not to the finite")):
            read_field_csv(str(path))


@pytest.mark.parametrize("scene_name, radius, shape", [
    ("demo_scene", 2e-3, (200, 256)),
    ("demo_scene", 7.5e-4, (20, 24)),
    ("demo_scene_natural", 1e4, (20, 32)),
])
def test_field_csv_round_trip_keeps_grid_shape(tmp_path, request, scene_name, radius, shape):
    scene = request.getfixturevalue(scene_name)
    path = tmp_path / "map.csv"
    write_field_csv(sample_field(scene, build_grid(radius, *shape)), str(path))
    back = read_field_csv(str(path), scene.unit_system)
    assert (back.grid.n_radial, back.grid.n_angular) == shape


def test_nonfinite_radius_rejected():
    from netmoment import DiskGrid
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="radius"):
            build_grid(bad, 8, 16)
    grid = build_grid(1.0, 8, 16)
    with pytest.raises(ValueError, match="disk area"):
        DiskGrid(math.nan, grid.nodes, grid.weights)


def test_disk_grid_rejects_negative_radius_and_bad_sizes(demo_scene):
    from netmoment import DiskGrid, EstimatorSpec, estimate_moment
    grid = build_grid(2e-3, 16, 32)
    # the nodes and weights of a valid 2 mm grid: a negative radius has the
    # same disk area and used to be accepted, flipping the sign of m3 estimates
    with pytest.raises(ValueError, match=re.escape("radius must be positive and finite, "
                                                   "got -0.002")):
        DiskGrid(-2e-3, grid.nodes, grid.weights)
    # the shape belongs to the rule: no size is taken, so none can contradict
    # the nodes (3 x 5 sizes with the 512 nodes of a 16 x 32 grid were accepted)
    with pytest.raises(TypeError):
        DiskGrid(2e-3, 3, 5, grid.nodes, grid.weights)
    same = DiskGrid(np.float64(2e-3), grid.nodes, grid.weights)
    assert type(same.radius) is float
    fmap = sample_field(demo_scene, same)
    assert estimate_moment(fmap, EstimatorSpec("m3", 2)) > 0


def test_grid_rejects_nan_node():
    from netmoment import DiskGrid
    grid = build_grid(1.0, 8, 16)
    for column in (0, 1):
        nodes = grid.nodes.copy()
        nodes[5, column] = math.nan
        with pytest.raises(ValueError, match="not finite, first node 5 at"):
            DiskGrid(1.0, nodes, grid.weights)


def test_read_field_csv_rejects_nan_node(tmp_path, demo_scene):
    path = tmp_path / "map.csv"
    write_field_csv(sample_field(demo_scene, build_grid(7.5e-4, 8, 8)), str(path))
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = "nan" + lines[3][lines[3].index(","):]
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="first node 2 at \\(nan, "):
        read_field_csv(str(path))


def test_grid_invariant_rejects_bad_weights():
    from netmoment import DiskGrid
    grid = build_grid(1.0, 8, 16)
    with pytest.raises(ValueError, match="disk area"):
        DiskGrid(1.0, grid.nodes, grid.weights * 1.001)


def test_zero_weight_integrates_to_zero(demo_scene):
    fmap = sample_field(demo_scene, build_grid(1e-3, 16, 16))
    assert integrate_weighted(fmap, lambda x: np.zeros(len(x))) == 0.0


def test_moments_match_exact_monomial_integrals():
    from netmoment import FieldMap
    radius = 1.7
    grid = build_grid(radius, 16, 32)
    fmap = FieldMap(grid=grid, samples=np.ones(len(grid.nodes)), unit_system="natural")
    assert fmap.moments.shape == (2, 12)
    for p in range(12):
        want = disk_monomial_integral(radius, p, 0) / radius**p
        for j in (0, 1):
            got = fmap.moments[j, p]
            if want == 0.0:
                assert abs(got) < 1e-14 * radius**2
            else:
                assert got == pytest.approx(want, rel=1e-12)


def test_map_arrays_are_read_only(demo_scene):
    fmap = sample_field(demo_scene, build_grid(1e-3, 8, 16))
    for arr in (fmap.samples, fmap.grid.nodes, fmap.grid.weights, fmap.moments):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


@pytest.mark.parametrize("producer", ["sample_field", "add_noise", "read_field_csv"])
def test_a_producer_hands_its_fresh_samples_to_the_map(tmp_path, demo_scene, monkeypatch,
                                                       producer):
    clean = sample_field(demo_scene, build_grid(1e-3, 8, 16))
    path = tmp_path / "map.csv"
    write_field_csv(clean, str(path))
    handed = []

    def spy(*args, **kwargs):
        handed.append(kwargs["samples"])
        return FieldMap(*args, **kwargs)

    monkeypatch.setattr(quad, "FieldMap", spy)
    monkeypatch.setattr(noise, "FieldMap", spy)
    fmap = {"sample_field": lambda: sample_field(demo_scene, clean.grid),
            "add_noise": lambda: add_noise(clean, NoiseSpec(20.0, seed=1)),
            "read_field_csv": lambda: read_field_csv(str(path))}[producer]()
    assert len(handed) == 1 and np.shares_memory(fmap.samples, handed[0])
    with pytest.raises(ValueError, match="read-only"):
        fmap.samples[0] = 1.0


def test_a_callers_samples_are_copied(demo_scene):
    grid = build_grid(1e-3, 8, 16)
    samples = b3(demo_scene, grid.nodes)
    fmap = FieldMap(grid, samples)
    assert not np.shares_memory(fmap.samples, samples) and samples.flags.writeable
    samples[:] = 1.0
    assert np.array_equal(fmap.samples, sample_field(demo_scene, grid).samples)


def test_sample_field_holds_no_copy_of_the_samples(demo_scene, monkeypatch, traced_peak):
    grid = build_grid(2e-3)                                  # 200 x 256
    values = b3(demo_scene, grid.nodes)
    monkeypatch.setattr(quad, "_b3_kernel", lambda scene, n_points, row_blocks: values)
    peak = traced_peak(lambda: sample_field(demo_scene, grid))
    # a copy of the samples is 0.39 MiB; the finite check's mask is 0.05 MiB
    assert peak < 0.2 * 2**20, f"sample_field peaked at {peak / 2**20:.2f} MiB"


def test_grid_rejects_fractional_radial_count():
    with pytest.raises(ValueError, match="n_radial must be an integer, got 8.5"):
        build_grid(1e-3, 8.5, 16)


def test_grid_rejects_float_angular_count():
    with pytest.raises(ValueError, match="n_angular must be an integer, got 16.0"):
        build_grid(1e-3, 10, 16.0)


def test_grid_accepts_numpy_integer_counts():
    grid = build_grid(1e-3, np.int64(10), np.int32(16))
    assert len(grid.nodes) == 160
    assert (grid.n_radial, grid.n_angular) == (10, 16)


def test_field_map_rejects_unknown_unit_system():
    grid = build_grid(1e-3, 8, 16)
    with pytest.raises(ValueError, match="unit_system must be one of .*, got 'SI'"):
        FieldMap(grid, np.ones(len(grid.nodes)), unit_system="SI")


def test_read_field_csv_rejects_unknown_unit_system(tmp_path, demo_scene):
    path = tmp_path / "map.csv"
    write_field_csv(sample_field(demo_scene, build_grid(7.5e-4, 8, 8)), str(path))
    with pytest.raises(ValueError, match="unit_system must be one of .*, got 'SI'"):
        read_field_csv(str(path), "SI")


def test_disk_grid_rejects_nodes_that_are_not_planar_points():
    from netmoment import DiskGrid
    grid = build_grid(1.0, 8, 16)
    nodes = np.column_stack([grid.nodes, np.zeros(len(grid.nodes))])
    with pytest.raises(ValueError, match=re.escape("grid nodes must be (M, 2) with matching "
                                                   "weights")):
        DiskGrid(1.0, nodes, grid.weights)


def test_field_map_rejects_wrong_sample_count_and_nonfinite_samples():
    grid = build_grid(1.0, 8, 16)
    with pytest.raises(ValueError, match="sample count must match the grid node count"):
        FieldMap(grid, np.zeros(len(grid.nodes) - 1))
    for bad in (math.nan, math.inf):
        samples = np.zeros(len(grid.nodes))
        samples[3] = bad
        with pytest.raises(ValueError, match="field samples must be finite"):
            FieldMap(grid, samples)


def random_scene(seed: int, n_dipoles: int) -> DipoleScene:
    """Dipoles within 0.1 mm of the axis and 0.1 mm deep, 0.25 mm below the plane."""
    rng = np.random.default_rng(seed)
    positions = np.column_stack([rng.uniform(-1e-4, 1e-4, n_dipoles),
                                 rng.uniform(-1e-4, 1e-4, n_dipoles),
                                 rng.uniform(0.0, 1e-4, n_dipoles)])
    moments = rng.normal(0.0, 1e-12, (n_dipoles, 3))
    return DipoleScene(tuple(Dipole(tuple(p), tuple(m)) for p, m in zip(positions, moments)),
                       2.5e-4, "si")


@pytest.mark.parametrize("radius", [3e-4, 7.5e-4, 2e-3, 1.7])
@pytest.mark.parametrize("shape", [(4, 8), (16, 24), (60, 64), (200, 256)])
def test_build_grid_scales_the_cached_unit_rule(radius, shape):
    n_radial, n_angular = shape
    rule = _unit_rule(n_radial, n_angular)
    grid = build_grid(radius, n_radial, n_angular)
    r = radius * rule.radii
    want = np.stack([np.outer(r, rule.cos), np.outer(r, rule.sin)], axis=-1).reshape(-1, 2)
    assert np.array_equal(grid.nodes.view(np.uint64), want.view(np.uint64))
    weights = np.repeat(radius * radius * rule.ring_weights, n_angular)
    assert np.array_equal(grid.weights.view(np.uint64), weights.view(np.uint64))
    assert abs(grid.weights.sum() - math.pi * radius**2) <= 1e-12 * math.pi * radius**2


@pytest.mark.parametrize("bad, text", [
    (lambda x, w: (x, 2.0 * w), "rule's weights do not sum to the unit disk's area"),
    # nodes at +-1.72 and weights that still sum to the area
    (lambda x, w: (2.0 * x, w), "rule has a ring outside the unit disk"),
])
def test_the_unit_rule_refuses_a_bad_gauss_legendre_rule(monkeypatch, bad, text):
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: bad(*leggauss(n)))
    with pytest.raises(ValueError, match=re.escape(f"the 4 x 8 {text}")):
        _unit_rule.__wrapped__(4, 8)


def test_a_build_grid_file_with_one_more_row_reads_back_as_a_point_grid(tmp_path, demo_scene):
    # the first run of 8 equal weights and the 33 rows give a 4 x 8 shape,
    # whose 32 nodes are refused before the weights are reshaped to it
    fmap = sample_field(demo_scene, build_grid(7.5e-4, 4, 8))
    path = tmp_path / "map.csv"
    write_field_csv(fmap, str(path))
    with open(path, "a", newline="", encoding="utf-8") as fh:
        fh.write("0.0,0.0,1e-12,0.0\r\n")
    back = read_field_csv(str(path))
    assert back.grid._rule is None and back.grid.n_radial is back.grid.n_angular is None
    assert len(back.samples) == 33
    spec = EstimatorSpec("m1", 1)
    assert estimate_moment(back, spec) == pytest.approx(estimate_moment(fmap, spec), rel=1e-12)


def test_a_sweep_builds_one_unit_rule_per_shape(demo_scene):
    _unit_rule.cache_clear()
    with pytest.warns(UserWarning, match="asymptotic condition"):
        sweep(demo_scene, np.geomspace(3e-4, 2e-3, 24), [EstimatorSpec("m3", 2)],
              GridParams(16, 24))
    info = _unit_rule.cache_info()
    assert (info.misses, info.hits) == (1, 23)


def test_only_build_grid_grids_and_their_files_carry_the_unit_rule(tmp_path, demo_scene):
    grid = build_grid(7.5e-4, 16, 24)
    assert grid._rule is _unit_rule(16, 24)
    path = tmp_path / "map.csv"
    write_field_csv(sample_field(demo_scene, grid), str(path))
    back = read_field_csv(str(path)).grid
    assert back._rule is grid._rule
    # the shape is the rule's: it matches the nodes, and a grid without a rule has none
    for built in (grid, back):
        assert (built.n_radial, built.n_angular) == (16, 24)
        assert built.n_radial * built.n_angular == len(built.nodes)
    # one weight an ulp off: the file is no longer that grid's
    lines = path.read_text().splitlines(keepends=True)
    x1, x2, w, s = lines[7].split(",")
    lines[7] = ",".join([x1, x2, repr(math.nextafter(float(w), 0.0)), s])
    path.write_text("".join(lines))
    others = [read_field_csv(str(path)).grid,
              type(grid)(grid.radius, grid.nodes, grid.weights),
              dataclasses.replace(grid, radius=grid.radius)]
    # the replaced grid used to keep the sizes of the grid it came from
    for other in others:
        assert other._rule is None
        assert (other.n_radial, other.n_angular) == (None, None)
        assert other.nodes is not grid.nodes and np.array_equal(other.nodes, grid.nodes)


@pytest.mark.parametrize("make", [
    # 3 x 5 sizes with the 512 nodes of a 16 x 32 grid were accepted
    lambda g: DiskGrid(g.radius, 3, 5, g.nodes, g.weights),
    # sizes that match the nodes are refused too: there is no size to give
    lambda g: DiskGrid(radius=g.radius, n_radial=16, n_angular=32,
                       nodes=g.nodes, weights=g.weights),
], ids=["positional sizes off the nodes", "keyword sizes on the nodes"])
def test_disk_grid_takes_no_size_argument(make):
    with pytest.raises(TypeError):
        make(build_grid(2e-3, 16, 32))


@pytest.mark.parametrize("shape", [(4, 8), (5, 14), (16, 24), (33, 10), (200, 256)])
def test_a_built_grid_and_its_file_have_the_shape_it_was_built_with(tmp_path, demo_scene,
                                                                    shape):
    grid = build_grid(7.5e-4, *shape)
    path = tmp_path / "map.csv"
    write_field_csv(sample_field(demo_scene, grid), str(path))
    for built in (grid, read_field_csv(str(path)).grid):
        assert (built.n_radial, built.n_angular) == shape
        assert type(built.n_radial) is int and type(built.n_angular) is int
        assert built.n_radial * built.n_angular == len(built.nodes)


@pytest.mark.parametrize("make", ["direct", "replaced", "file off the built grid"])
def test_a_grid_without_a_rule_has_no_shape(tmp_path, demo_scene, make):
    grid = build_grid(7.5e-4, 16, 24)
    if make == "direct":
        other = DiskGrid(grid.radius, grid.nodes, grid.weights)
    elif make == "replaced":        # used to keep the sizes of the grid it came from
        other = dataclasses.replace(grid, radius=grid.radius)
    else:
        nodes, weights = _off_grid(grid, "scattered nodes")
        path = tmp_path / "map.csv"
        write_field_csv(FieldMap(DiskGrid(grid.radius, nodes, weights),
                                 b3(demo_scene, nodes)), str(path))
        other = read_field_csv(str(path)).grid
    assert other._rule is None
    assert (other.n_radial, other.n_angular) == (None, None)


@pytest.mark.parametrize("name", ["n_radial", "n_angular"])
def test_a_grids_shape_cannot_be_set(name):
    grid = build_grid(1.0, 8, 16)
    with pytest.raises(AttributeError):
        setattr(grid, name, 3)
    assert (grid.n_radial, grid.n_angular) == (8, 16)


def test_a_file_reads_back_onto_the_radius_its_grid_was_built_with(tmp_path, demo_scene):
    # a radius that the weight sum does not give back exactly
    radius = next(a for a in np.geomspace(1e-4, 1e-3, 100)
                  if math.sqrt(build_grid(a, 16, 24).weights.sum() / math.pi) != a)
    fmap = sample_field(demo_scene, build_grid(radius, 16, 24))
    path = tmp_path / "map.csv"
    write_field_csv(fmap, str(path))
    back = read_field_csv(str(path))
    assert back.radius == radius and back.grid._rule is not None
    assert np.array_equal(back.moments, fmap.moments)


def test_field_csv_read_back_holds_one_copy_of_the_map(tmp_path, demo_scene, traced_peak):
    fmap = sample_field(demo_scene, build_grid(2e-3))    # 200 x 256
    path = tmp_path / "map.csv"
    write_field_csv(fmap, str(path))
    read_field_csv(str(path))       # any first-call set-up is not counted
    peak = traced_peak(lambda: read_field_csv(str(path)))
    # the 1.6 MB table next to a radii scan and a whole build_grid candidate
    # peaked at 3.9 MB
    assert peak < 2.6 * 2**20, f"the read-back peaked at {peak / 2**20:.2f} MB"


def _off_grid(grid: DiskGrid, edit: str) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a file that is not grid's, by one edit of them."""
    nodes, weights = grid.nodes.copy(), grid.weights.copy()
    if edit == "outer weight one ulp off":
        weights[-1] = math.nextafter(weights[-1], 0.0)
    elif edit == "outer node one ulp off":
        nodes[-3, 1] = math.nextafter(nodes[-3, 1], math.inf)
    elif edit == "equal weights":
        weights[:] = math.pi * grid.radius**2 / len(weights)
    else:                           # scattered nodes of equal weight
        rng = np.random.default_rng(5)
        r = grid.radius * np.sqrt(rng.uniform(0.0, 1.0, len(nodes)))
        t = rng.uniform(0.0, 2.0 * math.pi, len(nodes))
        nodes = np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)
        weights[:] = math.pi * grid.radius**2 / len(weights)
    return nodes, weights


@pytest.mark.parametrize("edit", ["outer weight one ulp off", "outer node one ulp off",
                                  "equal weights", "scattered nodes"])
def test_a_file_off_every_built_grid_reads_back_as_it_is(tmp_path, demo_scene, edit):
    grid = build_grid(7.5e-4, 16, 24)
    nodes, weights = _off_grid(grid, edit)
    samples = b3(demo_scene, nodes)
    path = tmp_path / "map.csv"
    write_field_csv(FieldMap(DiskGrid(grid.radius, nodes, weights), samples), str(path))
    back = read_field_csv(str(path))
    assert back.grid._rule is None
    assert (back.grid.n_radial, back.grid.n_angular) == (None, None)
    for got, want in ((back.grid.nodes, nodes), (back.grid.weights, weights),
                      (back.samples, samples)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("seed", [211, 212, 213])
@pytest.mark.parametrize("shape", [(16, 24), (60, 64), (200, 256)])
def test_tensor_moments_match_a_node_by_node_exact_sum(seed, shape):
    rng = np.random.default_rng(seed)
    radius = float(rng.uniform(3e-4, 2e-3))
    fmap = sample_field(random_scene(seed, 1 + seed % 7), build_grid(radius, *shape))
    grid = fmap.grid
    dense = FieldMap(type(grid)(radius, grid.nodes, grid.weights), fmap.samples)
    want, scale = disk_moments_fsum(fmap)
    for route in (fmap, dense):     # the tensor tables, then one sum over the nodes
        assert np.all(np.abs(route.moments - want) <= 1e-13 * scale)


def test_tensor_moments_hold_no_node_sized_array(demo_scene, traced_peak):
    fmap = sample_field(demo_scene, build_grid(2e-3))    # the 200 x 256 rule, cached
    peak = traced_peak(lambda: fmap.moments)
    # one (2, 12, M) monomial stack alone is 9.8 MB
    assert peak < 1_000_000


def _disk_functionals(fmap: FieldMap, scene: DipoleScene) -> list[float]:
    coeffs = asympt_coefficients(scene)
    rec = recovered_coefficients(fmap)
    return ([estimate_moment(fmap, spec) for spec in all_specs()]
            + [v for axis in ("x1", "x2")
               for v in vars(t_quantities(fmap, coeffs, axis)).values()]
            + [d[k] for d in (rec.a1_over_radius, rec.combo) for k in sorted(d)])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_read_back_map_agrees_with_the_map_in_memory(tmp_path, seed):
    # routes that differ only in roundoff move the recovered coefficients of
    # seed 3 by 1.5e-12 relative, so the map read back must take the same route
    scene = random_scene(seed, 1000)
    fmap = sample_field(scene, build_grid(2e-3, 60, 64))
    path = tmp_path / "map.csv"
    write_field_csv(fmap, str(path))
    back = read_field_csv(str(path))
    assert np.array_equal(back.grid.nodes, fmap.grid.nodes)
    assert np.array_equal(back.grid.weights, fmap.grid.weights)
    assert (back.grid.n_radial, back.grid.n_angular) == (60, 64)
    got = np.array(_disk_functionals(back, scene))
    want = np.array(_disk_functionals(fmap, scene))
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("radius", [1e154, 1e155, 1e-152, 1e-165])
def test_build_grid_refuses_a_radius_whose_weights_are_not_normal_floats(radius):
    # 1e154: an overflow RuntimeWarning; 1e155: a bare OverflowError from the
    # area; 1e-152: subnormal weights; 1e-165: every weight and the area 0.0
    with pytest.raises(ValueError, match="radius") as info:
        build_grid(radius)
    assert type(info.value) is ValueError


def test_a_direct_grid_refuses_a_radius_whose_area_overflows():
    grid = build_grid(1.0, 8, 16)
    with pytest.raises(ValueError, match="radius") as info:
        DiskGrid(1e160, grid.nodes * 1e160, grid.weights)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("radius", [1e150, 1e-148])
def test_build_grid_accepts_the_radii_whose_weights_are_normal_floats(radius):
    grid = build_grid(radius)
    assert np.all(grid.weights >= np.finfo(float).tiny) and np.all(np.isfinite(grid.nodes))
    assert abs(grid.weights.sum() - math.pi * radius * radius) <= 1e-12 * math.pi * radius * radius


def test_a_file_on_a_refused_radius_reads_back_as_it_is(tmp_path):
    # the arrays build_grid(1e-152) made before it refused that radius: the
    # innermost weights are subnormal, and their file still reads back
    radius, rule = 1e-152, _unit_rule(*_DEFAULT_GRID)
    nodes = np.empty((rule.size, 2))
    weights = np.repeat(quad._scaled_rings(rule, radius, slice(None),
                                           nodes.reshape(-1, _DEFAULT_GRID[1], 2)),
                        _DEFAULT_GRID[1])
    assert weights.min() < np.finfo(float).tiny
    path = tmp_path / "map.csv"
    write_field_csv(FieldMap(DiskGrid(radius, nodes, weights), np.zeros(len(weights))), str(path))
    back = read_field_csv(str(path)).grid
    assert back._rule is None
    for got, want in ((back.nodes, nodes), (back.weights, weights)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

def test_build_grid_holds_no_node_sized_array(traced_peak):
    build_grid(2e-3)                # the 200 x 256 rule, cached
    peak = traced_peak(lambda: build_grid(2e-3))
    # the nodes and weights built with the grid peaked at 1.2 MiB
    assert peak < 64 * 2**10, f"build_grid peaked at {peak / 2**10:.1f} KiB"


@pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
def test_a_sweep_cell_never_builds_the_node_array(demo_scene, monkeypatch, noisy):
    written, grids = [], []
    scaled_rings, make_grid = quad._scaled_rings, estimate.build_grid

    def spy(rule, radius, rings, out=None):
        if out is not None:
            written.append(range(len(rule.radii))[rings])
        return scaled_rings(rule, radius, rings, out)

    def built(*args):
        grids.append(make_grid(*args))
        return grids[-1]

    monkeypatch.setattr(quad, "_scaled_rings", spy)
    monkeypatch.setattr(estimate, "build_grid", built)
    noise = NoiseSpec(20.0, seed=42) if noisy else None
    predictions = {EstimatorSpec("m1", 1): 0.25, EstimatorSpec("m3", 2): -0.5}
    rows = estimate._sweep_cell(demo_scene, all_specs(), GridParams(), noise,
                                net_moment(demo_scene), predictions, 0, 2e-3)
    assert len(rows) == len(all_specs()) and len(grids) == 1
    assert [r.predicted_error for r in rows] == [predictions.get(s) for s in all_specs()]
    # every ring written once, in blocks of whole rings, and no grid-sized array
    assert [i for rings in written for i in rings] == list(range(200))
    assert max(map(len, written)) < 200
    assert "nodes" not in vars(grids[0])


@pytest.mark.parametrize("n_dipoles", [1, 3, 4, 7, 8, 1000])
@pytest.mark.parametrize("shape", [(200, 256), (16, 24), (5, 8), (4, 8192)])
def test_the_ring_kernel_gives_the_samples_of_b3_bit_for_bit(n_dipoles, shape):
    scene = random_scene(n_dipoles, n_dipoles)
    grid = build_grid(1.3e-3, *shape)
    samples = sample_field(scene, grid).samples
    # below 8 dipoles the kernel reads the grid's walk of whole rings, also
    # of one ring larger than a block; from 8 on, b3 reads the nodes
    assert ("nodes" in vars(grid)) is (n_dipoles >= 8)
    want = b3(scene, grid.nodes)
    assert np.array_equal(samples.view(np.uint64), want.view(np.uint64))
    # a direct grid's walk copies slices of its nodes
    direct = sample_field(scene, DiskGrid(grid.radius, grid.nodes, grid.weights)).samples
    assert np.array_equal(direct.view(np.uint64), want.view(np.uint64))


def test_a_built_grids_arrays_are_made_once_read_only_and_kept():
    grid = build_grid(7.5e-4, 16, 24)
    assert "nodes" not in vars(grid) and "weights" not in vars(grid)
    weights = grid.weights
    assert "nodes" not in vars(grid)     # the weights alone, as add_noise needs them
    nodes = grid.nodes
    assert grid.nodes is nodes and grid.weights is weights
    for arr in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.nodes = nodes.copy()
    with pytest.raises(AttributeError, match="no attribute 'weight'"):
        grid.weight
    back = pickle.loads(pickle.dumps(build_grid(7.5e-4, 16, 24)))
    assert "nodes" not in vars(back) and (back.n_radial, back.n_angular) == (16, 24)
    fresh = build_grid(7.5e-4, 16, 24)
    replaced = dataclasses.replace(fresh, radius=fresh.radius)
    for other in (replaced, back):
        for got, want in ((other.nodes, nodes), (other.weights, weights)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert not got.flags.writeable
    direct = pickle.loads(pickle.dumps(replaced))
    assert direct._rule is None and np.array_equal(direct.nodes, nodes)


def test_grids_maps_and_rules_compare_by_identity_and_print_no_arrays(demo_scene):
    # the generated == compared arrays (an ambiguous truth value), hash raised
    # TypeError, and repr made and kept a built grid's nodes and weights
    grid, twin = build_grid(1e-3, 8, 16), build_grid(1e-3, 8, 16)
    fmap = sample_field(demo_scene, grid)
    for a, b in ((grid, twin), (fmap, sample_field(demo_scene, twin)),
                 (grid._rule, _unit_rule(4, 8))):
        assert a == a and a != b
        assert hash(a) == hash(a)
    assert len({grid, twin, fmap}) == 3
    for text in (repr(grid), repr(fmap)):
        assert "DiskGrid(radius=0.001)" in text
    assert "nodes" not in vars(grid) and "weights" not in vars(grid)
    direct = DiskGrid(grid.radius, grid.nodes, grid.weights)
    assert repr(direct) == "DiskGrid(radius=0.001)" and direct != grid
