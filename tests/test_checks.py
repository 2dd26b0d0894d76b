"""Every integer and positive argument of the public API obeys one rule set.

The rules live in netmoment._checks; each layer raises its own ValueError
subclass (DomainError in specfun, SceneError in scene, ValueError
elsewhere), with a message that names the argument.
"""
import inspect
import math
import pathlib
import re

import pytest

from netmoment import (Dipole, DipoleScene, DiskGrid, EstimatorSpec, GridParams, NoiseSpec,
                       SceneError, algebraic_moment, asympt_coefficients,
                       asympt_condition_margin, build_grid, detrend_backward,
                       estimator_weight, field, height_moment, predicted_leading_error,
                       raster_m3_drift_series, sweep, t_quantities_analytic)
from netmoment.specfun import (DomainError, TailIntegralKind, bessel_j0, bessel_j1,
                               bessel_j1_prime, bessel_j2, ring_trig_integral,
                               sin_cos_components, sin_cos_components_quadrature,
                               sin_cos_taylor, struve_h0, struve_h1, tail_integral,
                               tail_integral_quadrature, tail_recursion_rhs)

_GRID = build_grid(1.0, 8, 16)
_SERIES = [(float(a), 0.0) for a in range(1, 15)]
_J0 = TailIntegralKind.J0_TOTAL

# (argument, layer error, call with the argument set to v); the demo scene is s
_INTEGER_ARGUMENTS = [
    ("order", ValueError, lambda s, v: EstimatorSpec("m1", v)),
    ("seed", ValueError, lambda s, v: NoiseSpec(20.0, seed=v)),
    ("stream", ValueError, lambda s, v: NoiseSpec(20.0, seed=0, stream=v)),
    ("n_radial", ValueError, lambda s, v: build_grid(1e-3, v, 16)),
    ("n_angular", ValueError, lambda s, v: build_grid(1e-3, 8, v)),
    ("n_radial", ValueError, lambda s, v: GridParams(v, 16)),
    ("n_pixels", ValueError, lambda s, v: raster_m3_drift_series(
        s, [1e-3, 2e-3], EstimatorSpec("m3", 2), None, n_pixels=v)),
    ("window", ValueError, lambda s, v: detrend_backward(_SERIES, window=v)),
    ("exponent j1", SceneError, lambda s, v: algebraic_moment(s, v, 0, 0, 1)),
    ("exponent j2", SceneError, lambda s, v: algebraic_moment(s, 0, v, 0, 1)),
    ("exponent j3", SceneError, lambda s, v: algebraic_moment(s, 0, 0, v, 1)),
    ("component index n", SceneError, lambda s, v: algebraic_moment(s, 0, 0, 0, v)),
    ("exponent p", SceneError, lambda s, v: height_moment(s, v, 0, 0, 1)),
    ("exponent q", SceneError, lambda s, v: height_moment(s, 0, v, 0, 1)),
    ("exponent r", SceneError, lambda s, v: height_moment(s, 0, 0, v, 1)),
    ("component index n", SceneError, lambda s, v: height_moment(s, 0, 0, 0, v)),
    ("integer n", DomainError, lambda s, v: tail_recursion_rhs(v, 1.0)),
    ("cos_pow", DomainError, lambda s, v: ring_trig_integral("sin", v, 0, 3, 0.2, 1.0)),
    ("sin_pow", DomainError, lambda s, v: ring_trig_integral("sin", 1, v, 3, 0.2, 1.0)),
    ("inv_pow", DomainError, lambda s, v: ring_trig_integral("sin", 1, 0, v, 0.2, 1.0)),
    # last, so that each row above keeps the index in its case ids
    ("n_angular", ValueError, lambda s, v: GridParams(8, v)),
]

_POSITIVE_ARGUMENTS = [
    ("radius", ValueError, lambda s, v: build_grid(v, 8, 16)),
    # with the nodes and weights of the unit disk, whose area a radius of -1 shares
    ("radius", ValueError, lambda s, v: DiskGrid(v, _GRID.nodes, _GRID.weights)),
    ("radius", ValueError, lambda s, v: asympt_condition_margin(s, v)),
    ("radius", ValueError, lambda s, v: estimator_weight(EstimatorSpec("m1", 1), v)),
    ("radius", ValueError, lambda s, v: predicted_leading_error(s, EstimatorSpec("m1", 1), v)),
    ("radius", ValueError, lambda s, v: t_quantities_analytic(asympt_coefficients(s), v)),
    ("radii", ValueError, lambda s, v: sweep(s, [v], [EstimatorSpec("m1", 1)], GridParams(8, 8))),
    ("radii", ValueError, lambda s, v: raster_m3_drift_series(
        s, [v, 2e-3], EstimatorSpec("m3", 2), None, n_pixels=32)),
    ("rho", DomainError, lambda s, v: tail_integral(_J0, v)),
    ("rho", DomainError, lambda s, v: tail_integral_quadrature(_J0, v)),
    ("rho", DomainError, lambda s, v: tail_recursion_rhs(1, v)),
    ("k1", DomainError, lambda s, v: sin_cos_components(v, 1.0)),
    ("radius", DomainError, lambda s, v: sin_cos_components(0.1, v)),
    ("k1", DomainError, lambda s, v: sin_cos_components_quadrature(v, 1.0)),
    ("radius", DomainError, lambda s, v: sin_cos_components_quadrature(0.1, v)),
    ("k1", DomainError, lambda s, v: ring_trig_integral("sin", 1, 0, 3, v, 1.0)),
    ("radius", DomainError, lambda s, v: ring_trig_integral("sin", 1, 0, 3, 0.2, v)),
    ("radius", DomainError, lambda s, v: sin_cos_taylor(v)),
]

# rho beyond the series cap, refused by the closed forms and by the quadrature
# that checks them (whose midpoints grow with rho, to gigabytes at 1e8)
_CAPPED_ARGUMENTS = [
    ("rho <= 50.0", DomainError, lambda s, v: tail_integral(_J0, v)),
    ("rho <= 50.0", DomainError, lambda s, v: tail_recursion_rhs(1, v)),
    ("tail_integral_quadrature", DomainError, lambda s, v: tail_integral_quadrature(_J0, v)),
]

# 1.5 is a valid positive value, so only the integer arguments get it; an
# integer beyond the float range (whose float() raised OverflowError) is read
# as inf, so only the positive arguments get it
_NOT_INTEGERS = [True, 1.5, "2", math.nan, math.inf, -1]
_NOT_POSITIVE = [True, "2", math.nan, math.inf, -1, 10**400]


def _cases(arguments, values):
    return [pytest.param(name, error, call, value, id=f"{name}-{i}-{value!r:.8}")
            for i, (name, error, call) in enumerate(arguments) for value in values]


@pytest.mark.parametrize("name, error, call, value",
                         _cases(_INTEGER_ARGUMENTS, _NOT_INTEGERS)
                         + _cases(_POSITIVE_ARGUMENTS, _NOT_POSITIVE)
                         + _cases(_CAPPED_ARGUMENTS, [50.000001, 60.0, 120.0]))
def test_argument_rules_reject_with_the_layer_error_naming_the_argument(
        demo_scene, name, error, call, value):
    with pytest.raises(ValueError) as info:
        call(demo_scene, value)
    assert type(info.value) is error
    assert name in str(info.value)


# arguments that may be zero or negative, but are numbers all the same: a bool,
# a str, None and a complex are not
_REAL_ARGUMENTS = [
    ("needs finite x", DomainError, lambda s, v: bessel_j0(v)),
    ("needs finite x", DomainError, lambda s, v: bessel_j1(v)),
    ("needs finite x", DomainError, lambda s, v: bessel_j1_prime(v)),
    ("needs finite x", DomainError, lambda s, v: bessel_j2(v)),
    ("struve_h0", DomainError, lambda s, v: struve_h0(v)),
    ("struve_h1", DomainError, lambda s, v: struve_h1(v)),
    ("snr_db", ValueError, lambda s, v: NoiseSpec(v, seed=0)),
    ("power", ValueError, lambda s, v: detrend_backward(_SERIES, power=v)),
    ("radius at index 0", ValueError, lambda s, v: detrend_backward([(v, 0.0)] + _SERIES)),
    ("height", SceneError, lambda s, v: DipoleScene((), v)),
    ("dipole position", SceneError, lambda s, v: Dipole((0.0, v, 0.0), (1.0, 0.0, 0.0))),
    ("dipole moment", SceneError, lambda s, v: Dipole((0.0, 0.0, 0.0), (v, 0.0, 0.0))),
]


@pytest.mark.parametrize("name, error, call, value",
                         _cases(_REAL_ARGUMENTS, [True, False, "2", None, 1j]))
def test_real_arguments_reject_what_is_not_a_number(demo_scene, name, error, call, value):
    with pytest.raises(ValueError) as info:
        call(demo_scene, value)
    assert type(info.value) is error
    assert name in str(info.value)


_SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "netmoment"


def test_only_the_rule_module_tests_integral_or_bool_types():
    pattern = re.compile(r"numbers\.Integral|isinstance\([^)]*,\s*bool\)"
                         r"|^\s*(import numbers|from numbers import)", re.MULTILINE)
    modules = sorted(_SOURCE.glob("*.py"))
    assert _SOURCE / "_checks.py" in modules
    offenders = [f"{path.name}: {match.group(0).strip()}" for path in modules
                 if path.name != "_checks.py"
                 for match in pattern.finditer(path.read_text(encoding="utf-8"))]
    assert offenders == []


@pytest.mark.parametrize("pattern, home", [
    (r"abs\(num\) \* scale < den", "specfun.py"),      # the exact series' stop test
    (r"snr_db\s*[!=]=\s*math\.inf", "noise.py"),       # the SNR = inf pass-through
    (r"evaluation points must have 2 components", "field.py"),
    (r"[<>]=? STRUVE_MAX_ARG\b", "specfun.py"),          # the cap of every exact series
    (r"must be even and at least 8", "quad.py"),         # the grid-size rule
    (r"math\.pi / n_angular", "quad.py"),               # the unit rule's angular weight
    (r"\* rule\.radii\b", "quad.py"),                  # a built ring's nodes: grid, walk, CSV
    (r"\* rule\.ring_weights\b", "quad.py"),           # a built ring's weight: grid and CSV match
    (r"4 \* n \* n - 1", "specfun.py"),              # the reduction identity's right side
])
def test_each_numerical_rule_is_written_once(pattern, home):
    found = [path.name for path in sorted(_SOURCE.glob("*.py"))
             for _ in re.finditer(pattern, path.read_text(encoding="utf-8"))]
    assert found == [home]


def test_the_cli_synthesises_maps_only_through_the_estimate_layer():
    text = (_SOURCE / "cli.py").read_text(encoding="utf-8")
    assert re.findall(r"\b(?:build_grid|sample_field|add_noise)\b", text) == []


def test_the_sweep_runs_without_a_thread_pool():
    # parallel sweeps come back only with a benchmark workload that gains from them
    pattern = re.compile(r"concurrent\.futures|ThreadPoolExecutor|NETMOMENT_THREADS")
    found = [f"{path.name}: {match.group(0)}" for path in sorted(_SOURCE.glob("*.py"))
             for match in pattern.finditer(path.read_text(encoding="utf-8"))]
    assert found == []


def test_b3_takes_no_power():
    # on one 16 x 1000 block of pairs np.power(q, 2.5) took 48 us and
    # sqrt(q) times q twice 29 us (timeit, numpy 2.4): the power stays out
    # of b3 and of the kernel that computes every pair
    for function in (field.b3, field._b3_kernel):
        source = inspect.getsource(function)
        assert "np.power" not in source and "**" not in source, function.__name__


def test_the_field_layer_names_no_ring():
    # how a grid's nodes reach b3's kernel is the grid's own walk of them
    # (quad.DiskGrid._row_blocks); the kernel takes only (2, k) row blocks
    text = (_SOURCE / "field.py").read_text(encoding="utf-8")
    assert re.findall(r"_b3_rings|ring_size|ring_nodes", text) == []


def test_the_package_exports_each_layer_name_once():
    import netmoment
    from netmoment import estimate, noise, quad, scene, specfun
    layers = (scene, field, quad, noise, estimate)
    names = [name for layer in layers for name in layer.__all__] + ["specfun"]
    assert len(set(names)) == len(names)
    assert sorted(netmoment.__all__) == sorted(names)
    for layer in layers:
        for name in layer.__all__:
            assert getattr(netmoment, name) is getattr(layer, name), name
    assert netmoment.specfun is specfun
