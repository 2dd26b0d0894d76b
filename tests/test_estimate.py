import dataclasses
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmoment import (MU0, Dipole, DipoleScene, EstimatorSpec, FieldMap, GridParams,
                       NoiseSpec, add_noise, asympt_coefficients, b3, build_grid,
                       convergence_slope, d_coefficients, estimate_moment,
                       estimator_weight, integrate_weighted, net_moment,
                       predicted_leading_error, recovered_coefficients,
                       sample_field, sweep, t_quantities, t_quantities_analytic)
from netmoment import raster_m3_drift_series
from netmoment.estimate import _ROWS, SweepResult, SweepRow, all_specs
from netmoment.quad import MAX_POWER
from netmoment.specfun import sin_cos_components, sin_cos_taylor
from conftest import DEMO_DIPOLES, DEMO_HEIGHT
from oracles import (ESTIMATOR_ROWS, from_paper_order, ft_im_direct, ft_series_coefficient,
                     leading_error_tabulated, named, raster_m3_drift_series_per_pixel,
                     raster_m3_drift_series_whole, t_quantities_tabulated)

finite_coeff = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# estimator weights and basic estimates
# ---------------------------------------------------------------------------

def test_weight_spot_values():
    radius = 1.3
    edge = np.array([[radius, 0.0]])
    assert estimator_weight(EstimatorSpec("m1", 1), radius)(edge)[0] == pytest.approx(
        2 * radius, rel=1e-15)
    assert estimator_weight(EstimatorSpec("m1", 2), radius)(edge)[0] == pytest.approx(
        14 * radius / 3, rel=1e-15)
    assert estimator_weight(EstimatorSpec("m3", 3, "x1"), radius)(edge)[0] == pytest.approx(
        -83 * radius / 4, rel=1e-15)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_weight_and_leading_error_reject_nonpositive_or_nonfinite_radius(demo_scene, radius):
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        estimator_weight(EstimatorSpec("m1", 1), radius)
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        predicted_leading_error(demo_scene, EstimatorSpec("m1", 1), radius)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        EstimatorSpec("m3", 5)
    with pytest.raises(ValueError):
        EstimatorSpec("m1", 6)
    with pytest.raises(ValueError):
        EstimatorSpec("m1", 0)
    with pytest.raises(ValueError):
        EstimatorSpec("m4", 1)
    with pytest.raises(ValueError):
        EstimatorSpec("m3", 3, "x3")


@pytest.mark.parametrize("order", [1.0, True, 2.5, "1", None])
def test_non_integer_spec_order_rejected(order):
    # a float or bool order used to pass and label itself m1:1.0 or m1:True
    with pytest.raises(ValueError, match="order must be an integer"):
        EstimatorSpec("m1", order)


def test_numpy_integer_spec_order_accepted():
    spec = EstimatorSpec("m1", np.int64(1))
    assert spec == EstimatorSpec("m1", 1)
    assert spec.label() == "m1:1"
    assert EstimatorSpec("m3", np.uint8(3), "x2").label() == "m3:3:x2"


def test_specs_that_estimate_the_same_thing_compare_equal():
    # the axis changes only a normal estimator of order >= 3
    assert EstimatorSpec("m1", 1, "x2") == EstimatorSpec("m1", 1)
    assert EstimatorSpec("m3", 2, "x2") == EstimatorSpec.parse("m3:2:x2") == EstimatorSpec("m3", 2)
    assert EstimatorSpec("m2", 5, "x2").axis == "x1"
    assert EstimatorSpec("m3", 3, "x2") != EstimatorSpec("m3", 3)
    assert len(set(all_specs())) == len(all_specs()) == 15


def test_for_spec_gives_the_rows_of_a_filter_and_sort(base_sweep):
    absent = EstimatorSpec("m2", 3)
    rows = [r for r in base_sweep.rows if r.spec != absent]
    # a second row per radius and spec, told apart by its estimate: rows of
    # one radius keep their order, as a stable sort keeps them
    rows += [dataclasses.replace(r, estimate=r.estimate + 1.0) for r in rows]
    random.Random(33).shuffle(rows)
    result = SweepResult(tuple(rows))
    for spec in all_specs():
        want = sorted((r for r in rows if r.spec == spec), key=lambda r: r.radius)
        for _ in range(2):                     # the grouping is made once and kept
            got = result.for_spec(spec)
            assert len(got) == len(want) and all(g is w for g, w in zip(got, want))
    result.for_spec(absent).append(rows[0])    # a caller's list is its own
    assert result.for_spec(absent) == []


def test_convergence_slope_finds_rows_of_an_equal_spec(base_sweep):
    for comp, order in (("m1", 1), ("m2", 3), ("m3", 2)):
        spec = EstimatorSpec(comp, order)
        assert (convergence_slope(base_sweep, EstimatorSpec(comp, order, "x2"))
                == convergence_slope(base_sweep, spec)), spec.label()


def test_spec_parsing_round_trip():
    assert EstimatorSpec.parse("m3:4:x2") == EstimatorSpec("m3", 4, "x2")
    assert EstimatorSpec.parse("m1:2") == EstimatorSpec("m1", 2)
    with pytest.raises(ValueError):
        EstimatorSpec.parse("m1")


def test_zero_map_gives_zero_estimates():
    grid = build_grid(1.0, 16, 16)
    fmap = FieldMap(grid=grid, samples=np.zeros(len(grid.nodes)), unit_system="si")
    for spec in all_specs():
        assert estimate_moment(fmap, spec) == 0.0


@pytest.mark.parametrize("radius", [3e-4, 7.5e-4, 2e-3])
def test_estimate_matches_weight_integral(demo_scene, radius):
    fmap = sample_field(demo_scene, build_grid(radius))
    for spec in all_specs():
        direct = integrate_weighted(fmap, estimator_weight(spec, radius)) / MU0
        assert estimate_moment(fmap, spec) == pytest.approx(direct, rel=1e-12), spec


def test_disk_functionals_are_python_floats(demo_scene, demo_map_2mm):
    coeffs = asympt_coefficients(demo_scene)
    rec = recovered_coefficients(demo_map_2mm)
    values = ([estimate_moment(demo_map_2mm, spec) for spec in all_specs()]
              + list(dataclasses.astuple(t_quantities(demo_map_2mm, coeffs, "x2")))
              + list(rec.a1_over_radius.values()) + list(rec.combo.values()))
    assert all(type(v) is float for v in values)


def test_demo_m2_order2_close_to_truth(demo_map_2mm):
    est = estimate_moment(demo_map_2mm, EstimatorSpec("m2", 2))
    # tolerance fixed by the high-resolution oracle run: observed 3.4 percent
    assert est == pytest.approx(12.0e-12, rel=0.04)


def test_vertical_dipole_tangential_null():
    scene = DipoleScene((Dipole((0.0, 0.0, 0.0), (0.0, 0.0, 1e-12)),), 2.5e-4, "si")
    fmap = sample_field(scene, build_grid(7.5e-4, 60, 64))
    scale = abs(fmap.samples).max() * fmap.radius**3
    for order in range(1, 6):
        est = estimate_moment(fmap, EstimatorSpec("m1", order))
        assert abs(est) < 1e-14 * scale / scene.mu0


def test_estimate_linear_in_samples(demo_map_2mm):
    fmap2 = FieldMap(grid=demo_map_2mm.grid, samples=2.5 * demo_map_2mm.samples,
                     unit_system=demo_map_2mm.unit_system)
    for spec in (EstimatorSpec("m1", 3), EstimatorSpec("m3", 4, "x2")):
        assert estimate_moment(fmap2, spec) == pytest.approx(
            2.5 * estimate_moment(demo_map_2mm, spec), rel=1e-15)


def test_reflection_antisymmetry(demo_scene):
    mirrored = DipoleScene(
        tuple(Dipole((-d.position[0], d.position[1], d.position[2]),
                     (-d.moment[0], d.moment[1], d.moment[2]))
              for d in demo_scene.dipoles),
        demo_scene.height, "si")
    grid = build_grid(1.5e-3, 100, 128)
    base = sample_field(demo_scene, grid)
    flip = sample_field(mirrored, grid)
    scale = abs(net_moment(demo_scene).as_array()).max()
    for order in range(1, 6):
        e1 = estimate_moment(base, EstimatorSpec("m1", order))
        e2 = estimate_moment(flip, EstimatorSpec("m1", order))
        assert e1 + e2 == pytest.approx(0.0, abs=1e-12 * scale)
        for comp in ("m2", "m3"):
            orders = range(1, 6) if comp == "m2" else range(2, 5)
            if order in orders:
                a = estimate_moment(base, EstimatorSpec(comp, order))
                b = estimate_moment(flip, EstimatorSpec(comp, order))
                assert a == pytest.approx(b, abs=1e-12 * scale)


def test_m3_axis_redundancy(demo_scene, base_sweep):
    rows_x1 = base_sweep.for_spec(EstimatorSpec("m3", 3, "x1"))
    rows_x2 = base_sweep.for_spec(EstimatorSpec("m3", 3, "x2"))
    truth = net_moment(demo_scene).m3
    # both axis choices converge, but do not coincide pointwise
    assert rows_x1[-1].abs_error < 0.05 * truth
    assert rows_x2[-1].abs_error < 0.05 * truth
    diffs = [abs(a.estimate - b.estimate) for a, b in zip(rows_x1, rows_x2)]
    assert max(diffs) > 0.0


# ---------------------------------------------------------------------------
# d coefficients against the Fourier-transform oracle
# ---------------------------------------------------------------------------

def test_d1_is_pi_m1(demo_scene, demo_scene_natural):
    d_nat = d_coefficients(demo_scene_natural)
    assert d_nat[1] == pytest.approx(math.pi * net_moment(demo_scene_natural).m1,
                                     rel=1e-15)
    d_si = d_coefficients(demo_scene)
    assert d_si[1] == pytest.approx(
        demo_scene.mu0 * math.pi * net_moment(demo_scene).m1, rel=1e-15)


def test_d3_vanishes_for_axial_vertical_dipole():
    scene = DipoleScene((Dipole((0.0, 0.0, 1e-5), (0.0, 0.0, 2e-12)),), 2.5e-4, "si")
    assert d_coefficients(scene)[3] == 0.0


def test_all_d_coefficients_match_transform_series(demo_scene):
    d = d_coefficients(demo_scene)
    assert list(d) == list(range(1, MAX_POWER + 1))
    for q in (1, 3, 5, 7, 9, 11):
        im, _ = ft_series_coefficient(demo_scene, q)
        assert d[q] == pytest.approx(im, rel=1e-12), q
    for q in (2, 4, 6, 8, 10):
        _, re = ft_series_coefficient(demo_scene, q)
        assert d[q] == pytest.approx(re, rel=1e-12), q


def test_transform_quadrature_bridge(demo_scene):
    """Disk integral plus the exterior ring closed form reproduces the
    analytic transform at a finite frequency, tying the Fourier oracle to
    actual field data."""
    radius = 2e-3
    k1 = 50.0  # 2 pi k1 A ~ 0.63, small enough for the expansion tail
    fmap = sample_field(demo_scene, build_grid(radius, 300, 384))
    disk = float(np.dot(np.sin(2 * math.pi * k1 * fmap.grid.nodes[:, 0])
                        * fmap.grid.weights, fmap.samples))
    c = named(asympt_coefficients(demo_scene))
    comp = sin_cos_components(k1, radius)
    tail = (c.a1[0] * comp[(1, 0, 5)] + c.a4[0] * comp[(1, 0, 7)]
            + c.a5[0] * comp[(3, 0, 9)] + c.a5[3] * comp[(1, 2, 9)])
    assert disk + tail == pytest.approx(ft_im_direct(demo_scene, k1), rel=1e-6)


# ---------------------------------------------------------------------------
# T quantities: exact identities and data-side agreement
# ---------------------------------------------------------------------------

def random_coeffs(draw_tuple):
    a0, a2, a31, a32, a33, a41, a42, a51, a52, a53, a54, a11, a12 = draw_tuple
    return from_paper_order([a0, a11, a12, a2, a31, a32, a33, a41, a42, a51, a52, a53, a54])


@given(st.tuples(*[finite_coeff] * 13), st.floats(0.5, 4.0))
@settings(max_examples=60, deadline=None)
def test_t_linear_dependencies_exact(tup, radius):
    t = t_quantities_analytic(random_coeffs(tup), radius)
    scale = max(abs(v) for v in dataclasses.astuple(t)) + 1e-30
    assert abs(0.5 * (t.t5 + t.t9) - t.t7) <= 1e-12 * scale
    assert abs(0.5 * (t.t7 + t.t11) - t.t9) <= 1e-12 * scale
    assert abs(t.t0 - (3 * t.t4 - 2 * t.t6)) <= 1e-12 * scale
    assert abs(t.t0 - (4 * t.t6 - 3 * t.t8)) <= 1e-12 * scale


@given(st.tuples(*[finite_coeff] * 13), st.floats(0.5, 4.0))
@settings(max_examples=60, deadline=None)
def test_t_combination_identities_exact(tup, radius):
    coeffs = random_coeffs(tup)
    t = t_quantities_analytic(coeffs, radius)
    c = named(coeffs)
    target = (4 * c.a4[0] + 3 * c.a5[0] + c.a5[3]) / radius**3
    scale = abs(target) + max(abs(v) for v in dataclasses.astuple(t)) + 1e-30
    assert abs(4 * (t.t5 - t.t7) + t.t9 - target) <= 1e-12 * scale
    assert abs(5 * (t.t7 - t.t9) + t.t11 - target) <= 1e-12 * scale


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_t_quantities_analytic_rejects_nonpositive_or_nonfinite_radius(demo_scene, radius):
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        t_quantities_analytic(asympt_coefficients(demo_scene), radius)


@pytest.mark.parametrize("units", ["si", "natural"])
def test_t_quantities_approach_analytic_values(units):
    """Data-side T's in the map's field units tend to the algebraic ones."""
    scene = DipoleScene(DEMO_DIPOLES, DEMO_HEIGHT, units)
    coeffs = asympt_coefficients(scene)
    radius = 16e-3
    data = t_quantities(sample_field(scene, build_grid(radius, 400, 512)), coeffs)
    exact = t_quantities_analytic(coeffs, radius)
    for name, value in dataclasses.asdict(data).items():
        if name != "t2":  # t2 carries an O(1/A^2) contamination
            ratio = value / getattr(exact, name)
            assert abs(ratio - 1.0) <= 0.05, (units, name, ratio)


def test_rows_match_independent_derivation():
    """_ROWS, derived at import, is the tabulated table: same keys, same order, exact."""
    assert list(_ROWS) == list(ESTIMATOR_ROWS)
    for key, row in ESTIMATOR_ROWS.items():
        got = list(_ROWS[key].items())
        assert all(isinstance(c, (int, Fraction)) for _, c in got), key
        want = [(p, Fraction(c)) for p, c in row.items()]
        assert [(p, Fraction(c)) for p, c in got] == want, key


def test_t_quantities_analytic_equals_hand_formula_bitwise():
    rng = np.random.default_rng(1101)
    for _ in range(300):
        coeffs = from_paper_order(rng.uniform(-1, 1, 13) * 10.0 ** rng.uniform(-20, 2, 13))
        radius = 10.0 ** rng.uniform(-4, 1)
        got = dataclasses.asdict(t_quantities_analytic(coeffs, radius))
        want = t_quantities_tabulated(coeffs, radius)
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


@pytest.mark.parametrize("units", ["si", "natural"])
def test_leading_error_matches_hand_formula(units):
    """The finite-part sum agrees with the hand formula to within 1e-15 of its terms' size."""
    scale = 1e-4 if units == "si" else 1.0
    for seed in range(200):
        rng = np.random.default_rng(1201 + seed)
        dipoles = tuple(Dipole(tuple(rng.uniform(-scale, scale, 3)),
                               tuple(rng.uniform(-1, 1, 3) * (1e-12 if units == "si" else 1.0)))
                        for _ in range(rng.integers(1, 6)))
        scene = DipoleScene(dipoles, 2.5 * scale, units)
        coeffs = asympt_coefficients(scene)
        # every term of the hand formula has a positive weight, so on |c| it
        # is the sum of the terms' magnitudes
        magnitudes = {shape: abs(v) for shape, v in coeffs.items()}
        radius = 10.0 ** rng.uniform(1, 2.5) * scale
        for spec in (EstimatorSpec("m1", 1), EstimatorSpec("m2", 1), EstimatorSpec("m3", 2)):
            got = predicted_leading_error(scene, spec, radius)
            want = leading_error_tabulated(coeffs, spec.component, radius, scene.mu0)
            size = leading_error_tabulated(magnitudes, spec.component, radius, scene.mu0)
            assert abs(got - want) <= 1e-15 * size, (seed, spec.label(), got, want)


def test_t_quantities_name_the_first_missing_shape(demo_scene, demo_map_2mm):
    # a missing shape used to raise a bare KeyError
    with pytest.raises(ValueError, match=re.escape("shape (1, 0, 7)")):
        t_quantities_analytic({}, 1.0)
    coeffs = asympt_coefficients(demo_scene)
    for axis, shape in (("x1", (1, 0, 5)), ("x2", (0, 1, 5)), ("x1", (0, 0, 3))):
        partial = {s: c for s, c in coeffs.items() if s != shape}
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            t_quantities(demo_map_2mm, partial, axis)
    without_a2 = {s: c for s, c in coeffs.items() if s != (0, 0, 5)}
    with pytest.raises(ValueError, match=re.escape("shape (0, 0, 5)")):
        t_quantities_analytic(without_a2, 1.0)


def test_t_quantities_rejects_unknown_axis(demo_scene, demo_map_2mm):
    coeffs = asympt_coefficients(demo_scene)
    with pytest.raises(ValueError, match=r"axis must be one of \('x1', 'x2'\), got 'x3'"):
        t_quantities(demo_map_2mm, coeffs, axis="x3")


def test_t_quantities_data_side_units(demo_scene, demo_map_2mm):
    coeffs = asympt_coefficients(demo_scene)
    t = t_quantities(demo_map_2mm, coeffs)
    assert all(math.isfinite(v) for v in dataclasses.astuple(t))
    # t2 carries an O(1/A^2) contamination, far larger than the others
    assert abs(t.t2) > 10 * abs(t.t0)


# ---------------------------------------------------------------------------
# predicted leading errors and recovered coefficients
# ---------------------------------------------------------------------------

def test_predicted_error_unsupported_spec(demo_scene):
    with pytest.raises(ValueError):
        predicted_leading_error(demo_scene, EstimatorSpec("m1", 2), 1e-3)


def test_predicted_error_axial_dipole_reduces():
    # a vertical on-axis dipole has a1 = 0, leaving only the 1/A^3 group
    scene = DipoleScene((Dipole((0.0, 0.0, 0.0), (0.0, 0.0, 1e-12)),), 2.5e-4, "natural")
    c = named(asympt_coefficients(scene))
    assert c.a1[0] == 0.0
    radius = 5e-3
    want = 2 * math.pi * (4 * c.a4[0] + 3 * c.a5[0] + c.a5[3]) / (12 * radius**3)
    assert predicted_leading_error(scene, EstimatorSpec("m1", 1), radius) == pytest.approx(
        want, rel=1e-13)


def test_error_prediction_ratio_tends_to_one(demo_scene, base_sweep):
    for spec in (EstimatorSpec("m1", 1), EstimatorSpec("m3", 2)):
        rows = base_sweep.for_spec(spec)[-2:]
        for row in rows:
            ratio = (row.true_value - row.estimate) / row.predicted_error
            assert 0.9 <= ratio <= 1.1, (spec.label(), row.radius, ratio)


def test_recovered_zero_map():
    grid = build_grid(1.0, 16, 16)
    fmap = FieldMap(grid=grid, samples=np.zeros(len(grid.nodes)), unit_system="si")
    rec = recovered_coefficients(fmap)
    assert all(v == 0.0 for v in rec.a1_over_radius.values())
    assert all(v == 0.0 for v in rec.combo.values())


def test_recovered_a1_horizontal_dipole():
    h = 2.5e-4
    scene = DipoleScene((Dipole((0.0, 0.0, 0.0), (1e-12, 0.0, 0.0)),), h, "natural")
    target = 3 * h * 1e-12 / (4 * math.pi)
    prev = math.inf
    for radius in (2e-3, 4e-3, 8e-3):
        fmap = sample_field(scene, build_grid(radius, 200, 256))
        rec = recovered_coefficients(fmap)
        got = rec.a1_over_radius[("x1", 4)] * radius
        err = abs(got - target) / target
        assert err < prev
        prev = err
    assert prev < 2e-3


def test_recovered_converges_to_analytic(demo_scene):
    exact = named(asympt_coefficients(demo_scene))
    errs4 = []
    errs5 = []
    for radius in (2e-3, 4e-3, 8e-3):
        fmap = sample_field(demo_scene, build_grid(radius, 200, 256))
        rec = recovered_coefficients(fmap)
        errs4.append(abs(rec.a1_over_radius[("x1", 4)] * radius - exact.a1[0]))
        errs5.append(abs(rec.a1_over_radius[("x2", 5)] * radius - exact.a1[1]))
    assert errs4[0] > errs4[1] > errs4[2]
    assert errs5[0] > errs5[1] > errs5[2]


# ---------------------------------------------------------------------------
# sweeps and slopes
# ---------------------------------------------------------------------------

def test_sweep_empty_scene_all_zero():
    scene = DipoleScene((), 1.0, "si")
    result = sweep(scene, np.linspace(0.5, 1.0, 4), [EstimatorSpec("m1", 1)],
                   GridParams(8, 8))
    assert all(r.estimate == 0.0 for r in result.rows)


def test_sweep_noisy_is_deterministic(demo_scene):
    radii = np.geomspace(7.5e-4, 2e-3, 4)
    kwargs = dict(grid_params=GridParams(40, 48),
                  noise=NoiseSpec(20.0, seed=42))
    a = sweep(demo_scene, radii, [EstimatorSpec("m2", 2)], **kwargs)
    b = sweep(demo_scene, radii, [EstimatorSpec("m2", 2)], **kwargs)
    assert [r.estimate for r in a.rows] == [r.estimate for r in b.rows]


def test_sweep_draws_noise_stream_i_at_radius_index_i(demo_scene):
    radii = np.geomspace(7.5e-4, 2e-3, 3)
    specs = [EstimatorSpec("m1", 1), EstimatorSpec("m3", 2)]
    result = sweep(demo_scene, radii, specs, GridParams(40, 48), NoiseSpec(20.0, seed=7))
    expected = []
    for i, radius in enumerate(radii):
        fmap = add_noise(sample_field(demo_scene, build_grid(radius, 40, 48)),
                         NoiseSpec(20.0, 7, stream=i))
        expected += [(radius, spec, estimate_moment(fmap, spec)) for spec in specs]
    assert [(r.radius, r.spec, r.estimate) for r in result.rows] == expected


@pytest.mark.parametrize("sizes, text", [
    ((3, 16), "n_radial must be at least 4, got 3"),
    ((8, 6), "n_angular must be even and at least 8, got 6"),
    ((8, 9), "n_angular must be even and at least 8, got 9"),
])
def test_grid_params_refuse_the_sizes_build_grid_refuses(sizes, text):
    # GridParams used to take any value and fail at the first grid of a sweep
    for make in (GridParams, lambda *n: build_grid(1e-3, *n)):
        with pytest.raises(ValueError, match=re.escape(text)):
            make(*sizes)


def test_sweep_warns_when_condition_fails(demo_scene):
    with pytest.warns(UserWarning, match="asymptotic condition"):
        sweep(demo_scene, [3e-4, 6e-4], [EstimatorSpec("m1", 1)], GridParams(16, 16))


def test_sweep_errors_decrease_along_tail(base_sweep):
    for spec in all_specs():
        rows = base_sweep.for_spec(spec)
        assert rows[-1].abs_error < rows[0].abs_error, spec.label()


def test_convergence_slope_power_law():
    spec = EstimatorSpec("m1", 1)
    radii = np.geomspace(1.0, 10.0, 12)
    rows = tuple(SweepRow(a, spec, 1.0 - 3.0 / a**2, 1.0) for a in radii)
    slope = convergence_slope(SweepResult(rows), spec, top_fraction=1.0)
    assert slope == pytest.approx(-2.0, abs=1e-6)


def test_convergence_slope_needs_rows():
    spec = EstimatorSpec("m1", 1)
    radii = np.geomspace(1.0, 10.0, 12)
    rows = tuple(SweepRow(a, spec, 1.0, 1.0) for a in radii)  # zero error
    with pytest.raises(ValueError, match="degenerate"):
        convergence_slope(SweepResult(rows), spec, top_fraction=1.0)
    with pytest.raises(ValueError, match="no rows"):
        convergence_slope(SweepResult(tuple()), spec)


def test_drift_series_clean_limit_and_determinism(demo_scene):
    from netmoment import raster_m3_drift_series

    radii = np.linspace(7.5e-4, 2e-3, 6)
    clean = raster_m3_drift_series(demo_scene, radii, EstimatorSpec("m3", 2),
                                   noise=None, n_pixels=192)
    # pixel sums approximate the exact quadrature estimate at the percent level
    fmap = sample_field(demo_scene, build_grid(radii[-1], 120, 128))
    exact = estimate_moment(fmap, EstimatorSpec("m3", 2))
    assert clean[-1][1] == pytest.approx(exact, rel=0.02)
    spec = NoiseSpec(20.0, seed=9)
    a = raster_m3_drift_series(demo_scene, radii, EstimatorSpec("m3", 3, "x2"),
                               spec, n_pixels=128)
    b = raster_m3_drift_series(demo_scene, radii, EstimatorSpec("m3", 3, "x2"),
                               spec, n_pixels=128)
    assert a == b
    with pytest.raises(ValueError, match="normal component"):
        raster_m3_drift_series(demo_scene, radii, EstimatorSpec("m1", 1), spec)


# the drift specs of the README sweep
@pytest.mark.parametrize("label", ["m3:2", "m3:3:x1", "m3:4:x2"])
def test_drift_series_equals_the_whole_raster_series(demo_scene, label):
    spec = EstimatorSpec.parse(label)
    radii = np.geomspace(3e-4, 2e-3, 24)
    for noise in (None, NoiseSpec(20.0, seed=2311)):
        for n_pixels in (1, 7, 31, 64, 256, 301):
            assert (raster_m3_drift_series(demo_scene, radii, spec, noise, n_pixels)
                    == raster_m3_drift_series_whole(demo_scene, radii, spec, noise, n_pixels))



@pytest.mark.parametrize("label", ["m3:2", "m3:2:x2", "m3:3:x1", "m3:3:x2", "m3:4:x1",
                                   "m3:4:x2"])
@pytest.mark.parametrize("n_pixels", [255, 256])
def test_drift_series_takes_each_power_once_per_line_with_the_same_bits(demo_scene, label,
                                                                        n_pixels):
    spec = EstimatorSpec.parse(label)
    radii = np.geomspace(3e-4, 2e-3, 24)
    for noise in (None, NoiseSpec(20.0, seed=2311)):
        got = raster_m3_drift_series(demo_scene, radii, spec, noise, n_pixels)
        want = raster_m3_drift_series_per_pixel(demo_scene, radii, spec, noise, n_pixels)
        assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))

def test_drift_series_holds_one_working_copy_of_the_raster(demo_scene, traced_peak):
    radii = np.geomspace(3e-4, 2e-3, 24)
    spec, noise = EstimatorSpec("m3", 2), NoiseSpec(20.0, seed=2311)
    raster_m3_drift_series(demo_scene, radii, spec, noise)     # any first-call set-up
    peak = traced_peak(lambda: raster_m3_drift_series(demo_scene, radii, spec, noise))
    # the whole-raster arrays (a meshgrid, four sorted copies side by side, one
    # full cumulative sum per power) peaked at 5.1 MB here, 5.9 MB for m3:3
    assert peak < 3 * 2**20, f"the drift series peaked at {peak / 2**20:.2f} MB"


@pytest.mark.parametrize("radii", [
    [2e-3, 1e-3],                  # descending: the raster would cover only 1 mm
    [1e-3, 1e-3],
    [-1e-3, 2e-3],
    [0.0, 2e-3],
    [math.nan, 2e-3],
    [1e-3, math.nan],
    [1e-3, math.inf],
    [],
])
def test_drift_series_rejects_unusable_radii(demo_scene, radii):
    from netmoment import raster_m3_drift_series

    with pytest.raises(ValueError, match="radii"):
        raster_m3_drift_series(demo_scene, radii, EstimatorSpec("m3", 2), None, n_pixels=32)


def test_drift_series_rejects_too_few_pixels(demo_scene):
    from netmoment import raster_m3_drift_series

    spec = EstimatorSpec("m3", 2)
    # 64.5 pixels per side used to be accepted and to give a slightly different series
    for n_pixels in (0, -4, 64.5):
        with pytest.raises(ValueError, match="n_pixels"):
            raster_m3_drift_series(demo_scene, [1e-3, 2e-3], spec, None, n_pixels=n_pixels)
    # 2 x 2 pixel centres lie at 0.71 r_max: a 0.1 r_max subdisk holds none
    with pytest.raises(ValueError, match="n_pixels"):
        raster_m3_drift_series(demo_scene, [2e-4, 2e-3], spec, None, n_pixels=2)


def test_drift_series_rejects_bool_pixel_count(demo_scene):
    from netmoment import raster_m3_drift_series

    # True is an Integral equal to 1 and used to run as a 1-pixel raster
    with pytest.raises(ValueError, match="n_pixels"):
        raster_m3_drift_series(demo_scene, [1e-3, 2e-3], EstimatorSpec("m3", 2), None,
                               n_pixels=True)


@pytest.mark.parametrize("radii", [[], [1e-3, math.nan, 2e-3]])
def test_sweep_rejects_empty_or_nan_radii(demo_scene, radii):
    with pytest.raises(ValueError, match="radii"):
        sweep(demo_scene, radii, [EstimatorSpec("m1", 1)], GridParams(8, 8))


_NOT_A_SPEC = "spec must be an EstimatorSpec, got 'm1:1'"


@pytest.mark.parametrize("call", [
    lambda scene: estimate_moment(sample_field(scene, build_grid(1e-3, 8, 8)), "m1:1"),
    lambda scene: estimator_weight("m1:1", 1e-3),
    lambda scene: predicted_leading_error(scene, "m1:1", 1e-3),
    lambda scene: convergence_slope(SweepResult(()), "m1:1"),
    lambda scene: raster_m3_drift_series(scene, [1e-3, 2e-3], "m1:1", None, n_pixels=32),
], ids=["estimate_moment", "estimator_weight", "predicted_leading_error",
        "convergence_slope", "raster_m3_drift_series"])
def test_entry_points_reject_a_spec_that_is_not_an_estimator_spec(demo_scene, call):
    # each raised a bare AttributeError from spec.component or spec.label()
    with pytest.raises(ValueError, match=re.escape(_NOT_A_SPEC)):
        call(demo_scene)


def test_sweep_rejects_a_spec_that_is_not_an_estimator_spec_before_any_grid(
        demo_scene, monkeypatch):
    # the sweep used to build and sample the grid of its first radius first
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built before the specs were checked")

    monkeypatch.setattr("netmoment.estimate.build_grid", no_grid)
    with pytest.raises(ValueError, match=re.escape(_NOT_A_SPEC)):
        sweep(demo_scene, [1e-3, 2e-3], [EstimatorSpec("m1", 2), "m1:1"], GridParams(8, 8))


def test_spec_parse_rejects_a_non_integer_order():
    with pytest.raises(ValueError, match=re.escape("order in 'm1:x' must be an integer")):
        EstimatorSpec.parse("m1:x")


def test_convergence_slope_rejects_top_fraction_above_one_and_too_few_rows():
    spec = EstimatorSpec("m1", 1)
    rows = tuple(SweepRow(a, spec, 1.0 - 3.0 / a**2, 1.0) for a in np.geomspace(1.0, 10.0, 12))
    with pytest.raises(ValueError, match=re.escape("top_fraction must lie in (0, 1], got 1.5")):
        convergence_slope(SweepResult(rows), spec, top_fraction=1.5)
    with pytest.raises(ValueError, match="at least 4 rows"):
        convergence_slope(SweepResult(rows[:3]), spec, top_fraction=1.0)


def test_infinite_snr_sweep_and_drift_series_equal_the_clean_ones(demo_scene):
    # SNR = inf passes the samples through unchanged, drawing nothing
    radii = [1e-3, 1.5e-3, 2e-3]
    specs = [EstimatorSpec("m1", 2), EstimatorSpec("m3", 3, "x2")]
    inf = NoiseSpec(math.inf, seed=4)
    assert (sweep(demo_scene, radii, specs, GridParams(16, 16), noise=inf)
            == sweep(demo_scene, radii, specs, GridParams(16, 16)))
    assert (raster_m3_drift_series(demo_scene, radii, specs[1], inf, n_pixels=64)
            == raster_m3_drift_series(demo_scene, radii, specs[1], None, n_pixels=64))
