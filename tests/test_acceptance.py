"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances marked "oracle-fixed" were frozen from high-resolution reference
runs of this implementation (grid-refinement checked); the remaining ones are
analytic requirements.
"""
import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from netmoment import (Dipole, DipoleScene, EstimatorSpec, GridParams, NoiseSpec,
                       all_specs, asympt_coefficients, b3, build_grid,
                       convergence_slope, detrend_backward, estimate_moment,
                       estimator_weight, integrate_weighted, net_moment,
                       noise_sigma, raster_m3_drift_series, sample_field, specfun,
                       sweep, t_quantities_analytic)
from netmoment.specfun import (TailIntegralKind, sin_cos_components,
                               sin_cos_components_quadrature, sin_cos_taylor,
                               tail_integral, tail_integral_quadrature,
                               tail_recursion_rhs)
from conftest import DEMO_TRUE
from oracles import (COS_TAYLOR_SHAPES, SIN_TAYLOR_SHAPES, from_paper_order,
                     high_precision_ring_fd, named)


def report(criterion: str, detail: str) -> None:
    print(f"[acceptance {criterion}] PASS: {detail}")


# ---------------------------------------------------------------------------
# 1. benchmark-scene reproduction on the clean sweep
# ---------------------------------------------------------------------------

def test_criterion_1_clean_reproduction(demo_scene):
    start = time.perf_counter()
    radii = np.geomspace(3e-4, 2e-3, 24)
    with pytest.warns(UserWarning):
        result = sweep(demo_scene, radii, all_specs(), GridParams(200, 256))
    elapsed = time.perf_counter() - start
    for spec in all_specs():
        rows = result.for_spec(spec)
        assert rows[-1].abs_error < 0.5 * rows[0].abs_error, (
            f"{spec.label()} does not converge toward the true moment")
    # oracle-fixed tolerances for the order-2 tangential estimates at A = 2 mm
    # (reference run: 6.2% and 3.4% relative; the asymptotic error is genuine)
    tol = {"m1": 0.08, "m2": 0.045}
    worst = {}
    for comp in ("m1", "m2"):
        row = result.for_spec(EstimatorSpec(comp, 2))[-1]
        rel = row.abs_error / abs(row.true_value)
        worst[comp] = rel
        assert rel <= tol[comp], f"{comp} order 2 at 2 mm off by {rel:.2%}"
    assert elapsed <= 60.0, f"sweep took {elapsed:.1f} s"
    report("1", f"order-2 tangential at 2 mm: m1 {worst['m1']:.2%}, "
                f"m2 {worst['m2']:.2%}; all 15 estimators converge; "
                f"runtime {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 2. convergence orders over the top half-decade (widened radius range)
# ---------------------------------------------------------------------------

def test_criterion_2_convergence_orders(wide_sweep):
    slopes = {}
    for spec in all_specs():
        slope = convergence_slope(wide_sweep, spec, top_fraction=0.5)
        slopes[spec.label()] = slope
        assert abs(slope + spec.order) <= 0.4, (
            f"{spec.label()}: slope {slope:+.2f}, expected about {-spec.order}")
    detail = ", ".join(f"{k} {v:+.2f}" for k, v in slopes.items())
    report("2", detail)


# ---------------------------------------------------------------------------
# 3. appendix identity suite
# ---------------------------------------------------------------------------

def _reduction_errors() -> list[float]:
    """|lhs - rhs| / max(1, |lhs|) of the reduction identity at each (n, rho)."""
    errors = []
    for n in (1, 2, 3):
        kind = {1: TailIntegralKind.J1_OVER_X_P3,
                2: TailIntegralKind.J1_OVER_X_P5,
                3: TailIntegralKind.J1_OVER_X_P7}[n]
        for rho in (0.7, 3.0, 12.0):
            lhs = tail_integral(kind, rho)
            rhs = tail_recursion_rhs(n, rho)
            errors.append(abs(lhs - rhs) / max(1.0, abs(lhs)))
    return errors


def test_criterion_3_tail_identities():
    start = time.perf_counter()
    worst_tail = 0.0
    for kind in TailIntegralKind:
        for rho in (0.5, 1.0, 2.0, 5.0, 10.0, 25.0):
            closed = tail_integral(kind, rho)
            ref = tail_integral_quadrature(kind, rho)
            rel = abs(closed - ref) / max(abs(ref), 1e-300)
            worst_tail = max(worst_tail, rel)
            assert rel <= 1e-8, (kind, rho, rel)
    worst_rec = max(_reduction_errors())
    assert worst_rec <= 1e-10
    rng = np.random.default_rng(2024)
    theta = 2.0 * math.pi * np.arange(4096) / 4096
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    w = 2.0 * math.pi / 4096
    worst_ring = 0.0
    for _ in range(20):
        alpha = rng.uniform(-10, 10)
        m = int(rng.integers(0, 4))
        n = int(rng.integers(0, 4))
        vals = (
            np.sum(np.cos(alpha * cos_t) * cos_t ** (2 * m + 1) * sin_t**n) * w,
            np.sum(np.cos(alpha * cos_t) * cos_t**m * sin_t ** (2 * n + 1)) * w,
            np.sum(np.sin(alpha * cos_t) * cos_t**m * sin_t ** (2 * n + 1)) * w,
            np.sum(np.sin(alpha * cos_t) * cos_t ** (2 * m) * sin_t**n) * w,
        )
        worst_ring = max(worst_ring, max(abs(v) for v in vals))
        assert worst_ring <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0, f"identity suite took {elapsed:.1f} s"
    report("3", f"tail closed forms {worst_tail:.1e} (tol 1e-8), reduction "
                f"identity {worst_rec:.1e} (tol 1e-10), vanishing ring "
                f"integrals {worst_ring:.1e} (tol 1e-12); runtime {elapsed:.1f} s")


def test_criterion_3_reduction_check_compares_two_routes(monkeypatch):
    # every exact form scaled by 1.001: the right side, summed from J1, J1' and
    # the lower tail, no longer follows the derived form, so the check fails
    value = specfun._value
    monkeypatch.setattr(specfun, "_value",
                        lambda form, rho: value(form, rho) * Fraction(1001, 1000))
    assert max(_reduction_errors()) > 1e-10


# ---------------------------------------------------------------------------
# 4. exterior ring integrals: closed forms and Taylor table
# ---------------------------------------------------------------------------

def test_criterion_4_ring_integral_forms():
    worst_cf = 0.0
    for (k1, radius) in ((0.05, 1.0), (0.2, 2.0), (0.5, 3.0)):
        closed = sin_cos_components(k1, radius)
        ref = sin_cos_components_quadrature(k1, radius)
        for shape, got in closed.items():
            want = ref[shape]
            rel = abs(got - want) / max(abs(want), 1e-300)
            worst_cf = max(worst_cf, rel)
            assert rel <= 1e-6
    radius = 1.7
    rng = np.random.default_rng(99)
    sin_groups = tuple(rng.uniform(-1, 1, 4))
    cos_groups = tuple(rng.uniform(-1, 1, 4))
    fd_sin, fd_cos = high_precision_ring_fd(radius, (sin_groups, cos_groups), dps=80)
    table = sin_cos_taylor(radius)
    worst_taylor = 0.0
    for order, row in table.items():
        groups, shapes, fd = ((sin_groups, SIN_TAYLOR_SHAPES, fd_sin) if order % 2
                              else (cos_groups, COS_TAYLOR_SHAPES, fd_cos))
        got = sum(c * row[s] for c, s in zip(groups, shapes))
        rel = abs(got - fd[order]) / abs(fd[order])
        worst_taylor = max(worst_taylor, rel)
        assert rel <= 1e-4
    report("4", f"closed forms vs quadrature {worst_cf:.1e} (tol 1e-6); "
                f"Taylor table vs high-precision differences {worst_taylor:.1e} "
                f"(tol 1e-4)")


# ---------------------------------------------------------------------------
# 5. exact algebraic identities of the T quantities
# ---------------------------------------------------------------------------

def test_criterion_5_t_identities():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        vals = rng.uniform(-5, 5, 13)
        coeffs = from_paper_order(vals)
        radius = float(rng.uniform(0.5, 5.0))
        t = t_quantities_analytic(coeffs, radius)
        c = named(coeffs)
        target = (4 * c.a4[0] + 3 * c.a5[0] + c.a5[3]) / radius**3
        scale = max(abs(v) for v in dataclasses.astuple(t)) + abs(target) + 1e-30
        residuals = (
            0.5 * (t.t5 + t.t9) - t.t7,
            0.5 * (t.t7 + t.t11) - t.t9,
            t.t0 - (3 * t.t4 - 2 * t.t6),
            t.t0 - (4 * t.t6 - 3 * t.t8),
            4 * (t.t5 - t.t7) + t.t9 - target,
            5 * (t.t7 - t.t9) + t.t11 - target,
        )
        worst = max(worst, max(abs(r) for r in residuals) / scale)
        assert worst <= 1e-12
    report("5", f"six identities over 200 random coefficient sets, worst "
                f"residual {worst:.1e} (tol 1e-12)")


# ---------------------------------------------------------------------------
# 6. closed-form leading error terms
# ---------------------------------------------------------------------------

def test_criterion_6_error_prediction(base_sweep):
    ratios = {}
    for spec in (EstimatorSpec("m1", 1), EstimatorSpec("m3", 2)):
        for row in base_sweep.for_spec(spec)[-2:]:
            ratio = (row.true_value - row.estimate) / row.predicted_error
            ratios[(spec.label(), round(row.radius, 6))] = ratio
            assert 0.9 <= ratio <= 1.1, (spec.label(), row.radius, ratio)
    detail = ", ".join(f"{k[0]}@{k[1]:g}: {v:.3f}" for k, v in ratios.items())
    report("6", f"observed/predicted error ratios {detail} (band [0.9, 1.1])")


# ---------------------------------------------------------------------------
# 7. noise robustness
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def noise_study(demo_scene):
    start = time.perf_counter()
    radius = 7.5e-4
    grid = build_grid(radius)
    clean = sample_field(demo_scene, grid)
    sigma = noise_sigma(clean, NoiseSpec(20.0, seed=0))
    rng = np.random.Generator(np.random.Philox(key=2718))
    draws = rng.standard_normal((100, len(clean.samples)))
    stats = {}
    for comp in ("m1", "m2"):
        for order in range(1, 6):
            spec = EstimatorSpec(comp, order)
            w = estimator_weight(spec, radius)(grid.nodes) * grid.weights
            clean_est = float(w @ clean.samples) / demo_scene.mu0
            ests = (clean.samples + sigma * draws) @ w / demo_scene.mu0
            stats[(comp, order)] = (clean_est, float(ests.mean()), float(ests.std()))
    return stats, time.perf_counter() - start


def test_criterion_7a_tangential_noise_robustness(noise_study):
    noise_study, _ = noise_study
    # oracle-fixed bands: the clean asymptotic bias at A = 7.5e-4 m dominates
    # (reference run: -50%, -31% for m1 orders 1-2; -38%, -19% for m2)
    bands = {("m1", 1): 0.60, ("m1", 2): 0.40, ("m2", 1): 0.45, ("m2", 2): 0.25}
    truth = {"m1": DEMO_TRUE[0], "m2": DEMO_TRUE[1]}
    details = []
    for (comp, order), band in bands.items():
        clean_est, mean, spread = noise_study[(comp, order)]
        rel_dev = abs(mean - truth[comp]) / truth[comp]
        assert rel_dev <= band, (comp, order, rel_dev)
        # noise must not shift the seed-mean away from the clean estimate
        assert abs(mean - clean_est) <= 5 * spread / math.sqrt(100)
        details.append(f"{comp}:{order} dev {rel_dev:.1%} (band {band:.0%})")
    for comp in ("m1", "m2"):
        spreads = [noise_study[(comp, order)][2] for order in range(1, 6)]
        assert all(a < b for a, b in zip(spreads, spreads[1:])), (
            f"{comp} spreads not monotone: {spreads}")
    report("7a", "; ".join(details) + "; spreads grow monotonically with order")


@pytest.fixture(scope="module")
def drift_series(demo_scene):
    start = time.perf_counter()
    radii = np.linspace(3e-4, 2e-3, 24)
    series = raster_m3_drift_series(demo_scene, radii, EstimatorSpec("m3", 2),
                                    NoiseSpec(20.0, seed=42), n_pixels=256)
    return radii, series, time.perf_counter() - start


def test_criterion_7b_noisy_m3_drift_is_positive(drift_series):
    radii, series, _ = drift_series
    values = np.array([v for _, v in series])
    slope = np.polyfit(radii, values, 1)[0]
    assert slope > 0.0, f"raw drift slope {slope:.3e} not positive"
    report("7b", f"raw noisy m3 sweep drifts upward at {slope:.3e} (A*m^2)/m")


def test_criterion_7c_detrend_halves_drift_slope(demo_scene, drift_series):
    radii, series, _ = drift_series
    spec = EstimatorSpec("m3", 2)
    # an order-k estimate carries a leading error ~ A**-k, so each backward
    # window is extrapolated in A**-k toward A -> inf, where it converges
    power = -spec.order
    values = np.array([v for _, v in series])
    corrected = detrend_backward(series, window=11, power=power)
    fitted = np.array([p.fitted for p in corrected])
    corr_vals = np.array([p.value for p in corrected])
    raw_slope = np.polyfit(radii, values, 1)[0]
    corr_slope = np.polyfit(radii[fitted], corr_vals[fitted], 1)[0]
    reduction = abs(raw_slope) / max(abs(corr_slope), 1e-300)
    assert reduction >= 2.0, (
        f"backward detrending reduced the fitted drift slope by {reduction:.2f}x "
        f"(raw {raw_slope:.3e}, corrected {corr_slope:.3e}); at least 2x required")
    # the slope ratio alone passes an identity "correction" too; detrending is
    # linear, so its systematic part shows on the noise-free raster series:
    # every corrected value must lie strictly closer to the true m3
    clean = raster_m3_drift_series(demo_scene, radii, spec, None, n_pixels=256)
    for (a, raw), point in zip(clean, detrend_backward(clean, window=11, power=power)):
        if not point.fitted:
            continue
        raw_err = abs(raw - DEMO_TRUE[2])
        corr_err = abs(point.value - DEMO_TRUE[2])
        assert corr_err < raw_err, (
            f"noise-free m3 at A = {a:.4g} m: corrected error {corr_err:.3e} "
            f"not below raw error {raw_err:.3e} A*m^2")
    report("7c", f"drift slope reduced {reduction:.1f}x by backward detrending "
                 f"in A^{power}; noise-free corrections closer to m3 at every "
                 f"fitted radius")


def test_criterion_7_runtime(noise_study, drift_series):
    elapsed = noise_study[1] + drift_series[2]
    assert elapsed < 300.0
    report("7", f"noise study computed in {elapsed:.1f} s (budget 300 s)")


# ---------------------------------------------------------------------------
# 8. symmetry and null invariants
# ---------------------------------------------------------------------------

def test_criterion_8_symmetry_suite(demo_scene):
    grid = build_grid(1e-3, 64, 64)
    base = sample_field(demo_scene, grid)
    # odd-weight null: a field even in x1 yields no tangential-1 response
    even_scene = DipoleScene((Dipole((0.0, 0.0, 0.0), (0.0, 0.0, 1e-12)),),
                             2.5e-4, "si")
    even_map = sample_field(even_scene, grid)
    field_scale = abs(even_map.samples).max() * grid.radius**3 / even_scene.mu0
    for order in range(1, 6):
        est = estimate_moment(even_map, EstimatorSpec("m1", order))
        assert abs(est) <= 1e-13 * field_scale
    # superposition and scaling
    half = DipoleScene(demo_scene.dipoles[:2], demo_scene.height, "si")
    rest = DipoleScene(demo_scene.dipoles[2:], demo_scene.height, "si")
    pts = grid.nodes[::97]
    assert np.allclose(b3(demo_scene, pts), b3(half, pts) + b3(rest, pts), rtol=1e-13, atol=0)
    doubled = DipoleScene(
        tuple(Dipole(d.position, tuple(2 * m for m in d.moment))
              for d in demo_scene.dipoles), demo_scene.height, "si")
    assert np.allclose(b3(doubled, pts), 2 * b3(demo_scene, pts), rtol=1e-15, atol=0)
    # reflection antisymmetry for the tangential estimate
    mirrored = DipoleScene(
        tuple(Dipole((-d.position[0], d.position[1], d.position[2]),
                     (-d.moment[0], d.moment[1], d.moment[2]))
              for d in demo_scene.dipoles), demo_scene.height, "si")
    mmap = sample_field(mirrored, grid)
    m_scale = abs(DEMO_TRUE).max()
    assert (estimate_moment(base, EstimatorSpec("m1", 2))
            + estimate_moment(mmap, EstimatorSpec("m1", 2))) == pytest.approx(
        0.0, abs=1e-12 * m_scale)
    assert estimate_moment(base, EstimatorSpec("m3", 2)) == pytest.approx(
        estimate_moment(mmap, EstimatorSpec("m3", 2)), rel=1e-12)
    # determinism
    again = sample_field(demo_scene, grid)
    assert np.array_equal(base.samples, again.samples)
    assert integrate_weighted(base, lambda x: x[..., 0]) == integrate_weighted(
        again, lambda x: x[..., 0])
    report("8", "odd-weight null, superposition, scaling, reflection, and "
                "determinism invariants hold")
