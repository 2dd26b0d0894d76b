import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from netmoment import (Dipole, DipoleScene, asympt_coefficients,
                       asympt_condition_margin, b3, b3_asympt, build_grid, net_moment)
from netmoment import field
from netmoment.field import _FAR_FIELD_ROWS, _PAIR_BUDGET
from oracles import (PAPER_ORDER, asympt_coefficients_tabulated, b3_unchunked,
                     condition_margin_bruteforce, far_field_tabulated, identifiable_functionals,
                     named, ring_harmonic_fit)


def vertical_dipole(m3=1e-12, h=2.5e-4, units="si"):
    return DipoleScene((Dipole((0.0, 0.0, 0.0), (0.0, 0.0, m3)),), h, units)


def test_b3_center_value_vertical_dipole():
    scene = vertical_dipole()
    # (mu0 / 4 pi) * 2 m3 / h^3 at the center
    assert b3(scene, (0.0, 0.0)) == pytest.approx(1.28e-8, rel=1e-12)


def test_b3_even_under_point_reflection():
    scene = vertical_dipole()
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-1e-3, 1e-3, 2)
        assert b3(scene, x) == pytest.approx(b3(scene, -x), rel=1e-14)


def random_scene(n_dipoles: int, seed: int) -> DipoleScene:
    rng = np.random.default_rng(seed)
    return DipoleScene(
        tuple(Dipole(tuple(rng.uniform(-1e-4, 1e-4, 3)), tuple(rng.uniform(-1e-12, 1e-12, 3)))
              for _ in range(n_dipoles)),
        2.5e-4, "si")


def assert_bitwise(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_b3_blocks_match_unchunked_many_dipoles():
    scene = random_scene(1000, seed=11)
    step = _PAIR_BUDGET // 1000
    nodes = build_grid(2e-3, 40, 48).nodes[:1201]
    assert len(nodes) > 3 * step and len(nodes) % step  # full blocks and a partial last one
    assert_bitwise(b3(scene, nodes), b3_unchunked(scene, nodes))


def test_b3_blocks_match_unchunked_demo_and_shapes(demo_scene):
    nodes = build_grid(2e-3).nodes
    assert_bitwise(b3(demo_scene, nodes), b3_unchunked(demo_scene, nodes))
    pts = nodes[:6000].reshape(40, 150, 2)
    assert_bitwise(b3(demo_scene, pts), b3_unchunked(demo_scene, pts))
    scene = random_scene(50, seed=12)
    assert_bitwise(b3(scene, pts), b3_unchunked(scene, pts))
    for point in ((1e-4, -3e-4), np.array([0.0, 0.0])):
        value = b3(scene, point)
        assert isinstance(value, float)
        assert_bitwise(value, b3_unchunked(scene, point))
    empty = DipoleScene((), 1.0, "si")
    assert_bitwise(b3(empty, pts), b3_unchunked(empty, pts))
    assert_bitwise(b3(empty, (1.0, 2.0)), b3_unchunked(empty, (1.0, 2.0)))


def test_b3_blocks_match_unchunked_beyond_pair_budget():
    scene = random_scene(_PAIR_BUDGET + 37, seed=14)     # one node per block
    nodes = build_grid(1e-3, 5, 8).nodes                  # 40 nodes
    assert_bitwise(b3(scene, nodes), b3_unchunked(scene, nodes))


def test_b3_memory_does_not_grow_with_nodes(traced_peak):
    scene = random_scene(1000, seed=13)
    nodes = build_grid(1e-3, 32, 256).nodes               # 8192 nodes
    peak = traced_peak(lambda: b3(scene, nodes))
    # one pass over all pairs would hold five 65 MB arrays
    assert peak < 8 * 2**20, f"b3 peaked at {peak / 2**20:.1f} MB"


# below 8 dipoles b3 lays its blocks out dipole-major, from 8 on node-major
@pytest.mark.parametrize("n_dipoles", [1, 2, 3, 4, 5, 7, 8, 9])
def test_b3_tiles_match_unchunked_few_dipoles(n_dipoles):
    scene = random_scene(n_dipoles, seed=20 + n_dipoles)
    step = _PAIR_BUDGET // n_dipoles
    rng = np.random.default_rng(30 + n_dipoles)
    for n_nodes in (2 * step + 17, step // 3, 1):   # partial last block; less than one
        nodes = rng.uniform(-2e-3, 2e-3, (n_nodes, 2))
        assert_bitwise(b3(scene, nodes), b3_unchunked(scene, nodes))
    point = tuple(rng.uniform(-2e-3, 2e-3, 2))
    assert_bitwise(b3(scene, point), b3_unchunked(scene, point))


def test_b3_tiles_do_not_grow_with_nodes(traced_peak):
    nodes = build_grid(1e-3, 512, 256).nodes               # 2**17 nodes
    for n_dipoles in (1, 7):                               # 7: the widest dipole-major block
        scene = random_scene(n_dipoles, seed=15)
        peak = traced_peak(lambda: b3(scene, nodes))
        # the 1 MB output, four 128 KB buffers and a node buffer of at most
        # 256 KB; buffers sized to the node count would add 4 MB or more
        assert peak < 3 * 2**20, f"{n_dipoles} dipoles: b3 peaked at {peak / 2**20:.2f} MB"


def b3_exact(scene: DipoleScene, point) -> tuple[float, float]:
    """(B3, its size) at one point, from the scene's floats in 40 digits.

    B3 = (mu0 / 4 pi) sum_d [3u (m1 y1 + m2 y2) + (2u^2 - |y|^2) m3] / q^(5/2) with
    q = |y|^2 + u^2.  The size is the same sum over the absolute value of each
    product, (|3u m1 y1| + |3u m2 y2| + (2u^2 + |y|^2) |m3|) / q^(5/2): the scale
    of the roundoff of any float route, also where a numerator cancels and
    its term is far smaller than its parts.
    """
    with mp.workdps(40):
        x1, x2 = map(mp.mpf, point)
        total = size = mp.mpf(0)
        for d in scene.dipoles:
            (t1, t2, t3), (m1, m2, m3) = ([mp.mpf(c) for c in v] for v in (d.position, d.moment))
            y1, y2, u = x1 - t1, x2 - t2, mp.mpf(scene.height) - t3
            rho2 = y1 * y1 + y2 * y2
            q52 = mp.power(rho2 + u * u, mp.mpf(5) / 2)
            total += (3 * u * (m1 * y1 + m2 * y2) + (2 * u * u - rho2) * m3) / q52
            size += (abs(3 * u * m1 * y1) + abs(3 * u * m2 * y2)
                     + (2 * u * u + rho2) * abs(m3)) / q52
        scale = mp.mpf(scene.mu0) / (4 * mp.pi)
        return float(scale * total), float(scale * size)


# 1, 4 and 7 dipoles take the dipole-major layout, 8 and 50 the node-major one
@pytest.mark.parametrize("n_dipoles", [1, 4, 7, 8, 50])
def test_b3_is_within_four_eps_of_its_size_from_the_exact_field(n_dipoles):
    scene = random_scene(n_dipoles, seed=270 + n_dipoles)
    rng = np.random.default_rng(280 + n_dipoles)
    angles = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    points = np.concatenate([
        scene.positions[:3, :2],                                     # right above a dipole
        2e-2 * np.column_stack([np.cos(angles), np.sin(angles)]),   # far out on the disk
        rng.uniform(-2e-3, 2e-3, (8, 2)),
        [[0.0, 0.0]],
    ])
    for point, value in zip(points, b3(scene, points)):
        exact, size = b3_exact(scene, point)
        assert abs(value - exact) <= 4 * np.finfo(float).eps * size, (point, value, exact)


def test_b3_empty_scene_zero():
    scene = DipoleScene((), 1.0, "si")
    pts = np.array([[0.0, 0.0], [1.0, 2.0]])
    assert np.all(b3(scene, pts) == 0.0)


def test_b3_superposition(demo_scene):
    parts = [DipoleScene((d,), demo_scene.height, "si") for d in demo_scene.dipoles]
    pts = np.array([[1e-4, 2e-4], [-3e-4, 5e-5], [0.0, 0.0]])
    total = sum(b3(p, pts) for p in parts)
    assert np.allclose(b3(demo_scene, pts), total, rtol=1e-14, atol=0)


def test_b3_and_coefficients_scale_linearly(demo_scene):
    scaled = DipoleScene(
        tuple(Dipole(d.position, tuple(2.0 * m for m in d.moment))
              for d in demo_scene.dipoles),
        demo_scene.height, "si")
    pts = np.array([[2e-4, -1e-4]])
    assert b3(scaled, pts)[0] == pytest.approx(2.0 * b3(demo_scene, pts)[0], rel=1e-15)
    ca = asympt_coefficients(demo_scene)
    cb = asympt_coefficients(scaled)
    assert ca.keys() == cb.keys()
    assert np.allclose([cb[s] for s in ca], [2.0 * v for v in ca.values()],
                       rtol=1e-15, atol=0)


def test_a0_is_minus_m3_over_4pi():
    scene = vertical_dipole(m3=3.5, h=4.0, units="natural")
    assert asympt_coefficients(scene)[(0, 0, 3)] == pytest.approx(-3.5 / (4 * math.pi), rel=1e-15)


def test_a1_single_horizontal_dipole_at_origin():
    h = 2.0
    scene = DipoleScene((Dipole((0.0, 0.0, 0.0), (1.5, 0.0, 0.0)),), h, "natural")
    coeffs = named(asympt_coefficients(scene))
    assert coeffs.a1[0] == pytest.approx(3 * h * 1.5 / (4 * math.pi), rel=1e-15)
    assert coeffs.a1[1] == 0.0


def test_tail_fit_recovers_identifiable_coefficients():
    rng = np.random.default_rng(7)
    for trial in range(3):
        rows = tuple(
            Dipole(tuple(rng.uniform(-0.5, 0.5, 3)), tuple(rng.uniform(-1, 1, 3)))
            for _ in range(rng.integers(1, 4))
        )
        scene = DipoleScene(rows, height=1.5, unit_system="natural")
        diam = max(scene.diameter(), 1.0)
        fitted = ring_harmonic_fit(scene, 1e3 * diam, 1e4 * diam)
        exact = identifiable_functionals(asympt_coefficients(scene))
        scale = max(abs(v) for v in exact.values())
        for name, value in exact.items():
            assert fitted[name] == pytest.approx(value, abs=1e-4 * scale), (trial, name)


def test_asympt_expansion_tail_decay(demo_scene):
    coeffs = asympt_coefficients(demo_scene)
    diam = demo_scene.diameter()
    radii = np.geomspace(50 * diam, 2000 * diam, 12)
    pts = np.stack([radii * math.cos(0.7), radii * math.sin(0.7)], axis=-1)
    ratio = np.abs(b3(demo_scene, pts) - b3_asympt(coeffs, pts)) * radii**7
    assert np.all(np.diff(ratio) <= ratio[:-1] * 1e-6 + 1e-30)


def test_b3_asympt_zero_and_single_term():
    pts = np.array([[[3.0, -1.0], [2.0, 0.0], [-0.5, 1.5]]] * 2)
    zero = b3_asympt({}, pts)
    assert zero.shape == (2, 3) and zero.dtype == float and not zero.any()
    value = b3_asympt({}, (3.0, -1.0))
    assert isinstance(value, float) and value == 0.0
    got = b3_asympt({(0, 0, 3): 1.0}, pts)
    assert np.allclose(got, np.hypot(pts[..., 0], pts[..., 1]) ** -3, rtol=1e-15, atol=0)
    assert b3_asympt({(0, 0, 3): 1.0}, (2.0, 0.0)) == pytest.approx(0.125, rel=1e-15)


def test_b3_asympt_equals_paper_order_sum():
    """Summed over the expansion's shapes, b3_asympt is the thirteen-term sum in the
    paper's order to within the rounding of its terms."""
    rng = np.random.default_rng(1301)
    for seed in range(200):
        units = ("si", "natural")[seed % 2]
        scale = 1e-4 if units == "si" else 1.0
        dipoles = tuple(Dipole(tuple(rng.uniform(-scale, scale, 3)),
                               tuple(rng.uniform(-1, 1, 3) * (1e-12 if units == "si" else 1.0)))
                        for _ in range(rng.integers(1, 6)))
        coeffs = asympt_coefficients(DipoleScene(dipoles, 2.5 * scale, units))
        assert set(coeffs) == set(PAPER_ORDER)
        pts = rng.uniform(-20, 20, (200, 2)) * scale
        x1, x2 = pts[:, 0], pts[:, 1]
        r = np.hypot(x1, x2)
        terms = [coeffs[a, b, n] * x1**a * x2**b / r**n for a, b, n in PAPER_ORDER]
        size = np.sum(np.abs(terms), axis=0)
        gap = np.abs(b3_asympt(coeffs, pts) - sum(terms))
        assert np.all(gap <= 2e-15 * size), seed


def test_b3_asympt_rejects_origin(demo_scene):
    coeffs = asympt_coefficients(demo_scene)
    with pytest.raises(ValueError, match="singular"):
        b3_asympt(coeffs, (0.0, 0.0))


def test_margin_single_dipole_origin():
    scene = vertical_dipole(h=2.5e-4)
    radius = 7.5e-4
    assert asympt_condition_margin(scene, radius) == pytest.approx(
        (2.5e-4 / 7.5e-4) ** 2, rel=1e-14)


def test_margin_matches_bruteforce(demo_scene):
    closed = asympt_condition_margin(demo_scene, 7.5e-4)
    brute = condition_margin_bruteforce(demo_scene, 7.5e-4)
    assert closed == pytest.approx(brute, rel=1e-6)
    assert brute <= closed * (1 + 1e-12)  # dense grid cannot exceed the sup


def test_margin_rejects_nonfinite_radius(demo_scene):
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="radius"):
            asympt_condition_margin(demo_scene, bad)


def test_margin_decreases_with_radius(demo_scene):
    radii = np.geomspace(3e-4, 1.0, 12)
    vals = [asympt_condition_margin(demo_scene, a) for a in radii]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-3  # the cross term decays like 1/A


def test_margin_leaves_the_floats_without_a_warning(demo_scene):
    # radius**2 is 0 (or subnormal) below about 1e-154, where a numpy divide
    # warned, and overflowed past 1e154, where it raised OverflowError
    for radius in (1e-158, 1e-165, 1e-200):
        assert asympt_condition_margin(demo_scene, radius) == math.inf
    for radius in (1e160, 1e300):
        assert asympt_condition_margin(demo_scene, radius) == 0.0


def test_margin_empty_scene_zero():
    assert asympt_condition_margin(DipoleScene((), 1.0, "si"), 2.0) == 0.0


def test_si_coefficients_carry_mu0(demo_scene, demo_scene_natural):
    si = asympt_coefficients(demo_scene)
    nat = asympt_coefficients(demo_scene_natural)
    assert si.keys() == nat.keys()
    assert np.allclose(list(si.values()), [v * demo_scene.mu0 for v in nat.values()],
                       rtol=1e-15, atol=0)


def test_net_moment_from_a0(demo_scene):
    coeffs = asympt_coefficients(demo_scene)
    m3 = -4 * math.pi * coeffs[(0, 0, 3)] / demo_scene.mu0
    assert m3 == pytest.approx(net_moment(demo_scene).m3, rel=1e-13)


def test_far_field_rule_equals_hand_formulas_exactly():
    # the height moments the hand formulas read, then each one alone set to 1:
    # 4 pi times each coefficient is then one rational entry of the formulas
    keys = set()
    far_field_tabulated(lambda *key: keys.add(key) or 0.0)
    tabulated = {shape: {} for shape in PAPER_ORDER}
    for key in keys:
        for shape, v in far_field_tabulated(lambda *k: float(k == key)).items():
            if v:
                tabulated[shape][key] = Fraction(4 * math.pi * v).limit_denominator(1000)
    assert sum(len(row) for row in tabulated.values()) == 41
    # the expansion yields exactly the paper's thirteen shapes, each with its terms
    assert {s: set(row) for s, row in _FAR_FIELD_ROWS.items()} == {
        s: set(row) for s, row in tabulated.items()}
    for shape, want in tabulated.items():
        assert {key: Fraction(c) for key, c in _FAR_FIELD_ROWS[shape].items()} == want, shape


@pytest.mark.parametrize("units", ["si", "natural"])
def test_asympt_coefficients_match_hand_formulas(units):
    for seed in range(200):
        rng = np.random.default_rng(4000 + seed)
        scale = 1e-4 if units == "si" else 1.0
        dipoles = tuple(Dipole(tuple(rng.uniform(-scale, scale, 3)),
                               tuple(rng.uniform(-1, 1, 3) * (1e-12 if units == "si" else 1.0)))
                        for _ in range(rng.integers(1, 6)))
        scene = DipoleScene(dipoles, 2.5 * scale, units)
        got = asympt_coefficients(scene)
        want = asympt_coefficients_tabulated(scene)
        assert got.keys() == want.keys()
        gap = max(abs(got[s] - want[s]) for s in want)
        assert gap <= 1e-15 * max(abs(v) for v in want.values()), seed


@pytest.mark.parametrize("points", [[[1e-3, 2e-3, 5.0]], [1e-3], (1e-3, 2e-3, 5.0)])
def test_b3_and_b3_asympt_reject_points_without_2_components(demo_scene, points):
    # b3_asympt used to drop a third coordinate and to index past a single one
    coeffs = asympt_coefficients(demo_scene)
    for call in (lambda x: b3(demo_scene, x), lambda x: b3_asympt(coeffs, x)):
        with pytest.raises(ValueError, match="evaluation points must have 2 components"):
            call(points)


# the kernel's q ** 2.5 overflows at 1e62 and inf warns of an invalid value (each
# an error under Tier-1's error::RuntimeWarning), and nan would come back as nan
@pytest.mark.parametrize("points, named, why", [
    ([1e62, 0.0], "[1e+62, 0.0]", "is out of range"),
    ([[1e-3, 0.0], [5e-4, -1e62]], "[0.0005, -1e+62]", "is out of range"),
    ([math.inf, 0.0], "[inf, 0.0]", "is not finite"),
    ([math.nan, 0.0], "[nan, 0.0]", "is not finite"),
    ([[1e-3, 0.0], [math.nan, -math.inf], [0.0, math.nan]], "[nan, -inf]", "is not finite"),
])
def test_b3_refuses_a_point_it_cannot_evaluate_naming_it(demo_scene, points, named, why):
    with pytest.raises(ValueError, match=re.escape(f"evaluation point {named} {why}")):
        b3(demo_scene, points)


@pytest.mark.parametrize("points", [[math.inf, 0.0], [[1e-3, 0.0], [0.0, math.nan]]])
def test_b3_asympt_refuses_a_point_that_is_not_finite(demo_scene, points):
    with pytest.raises(ValueError, match="is not finite"):
        b3_asympt(asympt_coefficients(demo_scene), points)


def test_b3_evaluates_the_farthest_point_in_range(demo_scene):
    # q ** 2.5 at |x| = 2e61 is about 3e306; the guard leaves the values unchanged
    points = np.array([[2e61, 0.0], [0.0, -2e61], [1e-4, 2e-4]])
    values = b3(demo_scene, points)
    assert np.all(np.isfinite(values))
    kernel = field._b3_kernel(demo_scene, len(points), field._row_blocks(points))
    assert values.tobytes() == kernel.tobytes()
