"""Moment estimators of increasing asymptotic order and their diagnostics.

Tangential components support orders 1..5, the normal component orders 2..4
(with a free axis choice at orders >= 3).  Alongside the estimators live the
Fourier-side Taylor coefficients d_q, keyed by the power q up to MAX_POWER,
the data-side T quantities whose exact linear dependences raise the
estimator order, closed-form leading error terms, far-field coefficient
recovery from data, and radius sweeps with log-log convergence slopes.

Every data-side quantity here is a fixed linear combination of the monomial
disk moments FieldMap.moments; the exact coefficients live in one table,
_ROWS, derived at import from the finite-part rule field._finite_part, which
the algebraic T quantities and the closed-form leading errors also read.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from ._checks import _integer, _one_of, _positive
from .field import (_FAR_FIELD_ROWS, AsymptCoeffs, _finite_part, _refuse_b3_overflow,
                    asympt_coefficients, asympt_condition_margin, b3)
from .noise import NoiseSpec, _noisy, add_noise
from .quad import _DEFAULT_GRID, MAX_POWER, FieldMap, _grid_sizes, build_grid, sample_field
from .scene import MU0, DipoleScene, net_moment

__all__ = [
    "EstimatorSpec",
    "TQuantities",
    "RecoveredCoeffs",
    "GridParams",
    "SweepRow",
    "SweepResult",
    "estimator_weight",
    "estimate_moment",
    "d_coefficients",
    "t_quantities",
    "t_quantities_analytic",
    "predicted_leading_error",
    "recovered_coefficients",
    "sweep",
    "convergence_slope",
    "raster_m3_drift_series",
    "all_specs",
]

_PI = math.pi

_COMPONENTS = ("m1", "m2", "m3")
_AXES = ("x1", "x2")
# component -> the _ROWS kind of its estimators
_LADDER = {"m1": "tangential", "m2": "tangential", "m3": "normal"}

# Exact coefficient rows c over the monomial disk moments mu[j, p] of
# FieldMap.moments, keyed by power p; j is the data axis.
#  - ("tangential" | "normal", order): the estimator is A * sum_p c_p mu[j, p]
#    in field units, i.e. its weight is A * sum_p c_p (x_j / A)^p.
#  - ("t", q): the T quantities; column _CLOSURE holds the a1~ (odd q) or m3
#    (even q) closure term, see t_quantities.
#  - ("a1" | "combo", order): the recovered coefficients are
#    (A / pi) * sum_p c_p mu[j, p].
# On axis x1, the far-field term of shape (a, b, n), with e = n - 2 - a - b,
# enters A * sum_p c_p mu[j, p] as pi * F * coefficient * A^(1-e), where
# F = sum_p c_p _finite_part(p, a, b, n) is the term's finite part under the
# row; each row is the unique one whose F meets prescribed targets.
_CLOSURE = MAX_POWER + 1
# T quantity q is sum target * coefficient / A^3 over these terms; its row meets
# the targets with a closure column that cancels the a1 (odd q) or a0 (even q) term
_T_TARGETS = {q: {(1, 0, 7): q + 3, (3, 0, 9): q + 2, (1, 2, 9): 1} for q in (5, 7, 9, 11)}
_T_TARGETS.update({q: {(0, 0, 5): q + 2, (2, 0, 7): q + 1, (0, 2, 7): 1}
                   for q in (0, 2, 4, 6, 8)})


# Exact Gauss-Jordan elimination over the unknown coefficients of the given
# powers: targets are keyed by term shape, fixed holds known coefficients, and
# a nonempty closure maps shapes to their weight in one more unknown column,
# _CLOSURE.  None when an unknown stays free or the targets conflict.
def _row(powers, targets: dict, fixed: dict = {}, closure: dict = {}):
    """The row {p: c_p} whose F meets every target, else None."""
    cols = list(powers) + ([_CLOSURE] if closure else [])
    m = [[Fraction(closure.get(t, 0)) if p == _CLOSURE else _finite_part(p, *t) for p in cols]
         + [target - sum(c * _finite_part(p, *t) for p, c in fixed.items())]
         for t, target in targets.items()]
    for i in range(len(cols)):
        k = next((h for h in range(i, len(m)) if m[h][i]), None)
        if k is None:
            return None
        m[i], m[k] = m[k], m[i]
        pivot = [v / m[i][i] for v in m[i]]
        m = [pivot if h == i else [v - r[i] * w for v, w in zip(r, pivot)]
             for h, r in enumerate(m)]
    # conflicting targets leave a nonzero right side below the pivots
    return None if any(r[-1] for r in m[len(cols):]) else {
        **fixed, **{p: r[-1] for p, r in zip(cols, m)}}


# Every row, derived on the x1 axis (the x2 rows are the same by symmetry).
def _derive_rows() -> dict[tuple[str, int], dict[int, int | Fraction]]:
    def fewest(lead, first, targets, fixed={}):
        # the row in lead plus the fewest of the powers first, first + 2, ...
        return next(filter(None, (_row(lead + list(range(first, first + 2 * count, 2)),
                                       targets, fixed) for count in range(8))))

    def cancel(k):
        return {(a, b, n): 0 for a, b, n in _FAR_FIELD_ROWS if n - 2 - a - b <= k}

    rows = {}
    for k in range(1, 6):
        # c_1 = 2, every term with e <= k cancelled, the fewest odd powers >= k + 1
        rows[("tangential", k)] = fewest([], k + 1 + k % 2, cancel(k), {1: 2})
    for k in range(2, 5):
        # the a0 target is -4 (m3 = -4 pi a0); the fewest even powers >= k + 1
        rows[("normal", k)] = fewest([0], k + 1 + (k + 1) % 2, cancel(k) | {(0, 0, 3): -4})
    for q, targets in _T_TARGETS.items():
        closure = {(1, 0, 5): 1} if q % 2 else {(0, 0, 3): -4}
        rows[("t", q)] = _row([q], {**targets, **dict.fromkeys(closure, 0)}, closure=closure)
    for name, targets in (("a1", {(1, 0, 5): 1, (1, 0, 7): 0, (3, 0, 9): 0, (1, 2, 9): 0}),
                          ("combo", {(1, 0, 5): 0, (1, 0, 7): 4, (3, 0, 9): 3, (1, 2, 9): 1})):
        for k in (4, 5):
            rows[(name, k)] = _row([2 * k - 3, 2 * k - 1, 2 * k + 1], targets)
    return rows


_ROWS = _derive_rows()


def _apply(row: dict[int, int | Fraction], columns) -> float:
    """sum_p c_p * columns[p], summed without intermediate rounding (math.fsum)."""
    return math.fsum(float(c) * float(columns[p]) for p, c in row.items())


@dataclass(frozen=True)
class EstimatorSpec:
    """Which moment component, at which asymptotic order, along which axis.

    The axis matters only for the normal component at order >= 3, where the
    data enter through powers of either x1 or x2; elsewhere it is set to x1,
    so specs that estimate the same thing compare equal.
    """

    component: str
    order: int
    axis: str = "x1"

    def __post_init__(self):
        _one_of(self.component, _COMPONENTS, f"component must be one of {_COMPONENTS}")
        _one_of(self.axis, _AXES, f"axis must be one of {_AXES}")
        # a float or bool order would label itself m1:1.0 or m1:True
        _integer(self.order, "order must be an integer")
        valid = _orders(self.component)
        _one_of(self.order, valid, f"order of {self.component} must be one of {valid}")
        if _shown_axis(self) is None:
            object.__setattr__(self, "axis", _AXES[0])

    def label(self) -> str:
        axis = _shown_axis(self)
        return f"{self.component}:{self.order}" + (f":{axis}" if axis else "")

    @classmethod
    def parse(cls, text: str) -> "EstimatorSpec":
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"spec must look like component:order[:axis], got {text!r}")
        comp = parts[0]
        try:
            order = int(parts[1])
        except ValueError as exc:
            raise ValueError(f"order in {text!r} must be an integer") from exc
        axis = parts[2] if len(parts) == 3 else "x1"
        return cls(comp, order, axis)


def _orders(component: str) -> list[int]:
    """The orders _ROWS holds for a component, ascending."""
    return [order for kind, order in _ROWS if kind == _LADDER[component]]


def _shown_axis(spec: EstimatorSpec) -> Optional[str]:
    """The axis of a normal estimator of order >= 3, the only ones it changes; else None."""
    return spec.axis if spec.component == "m3" and spec.order >= 3 else None


def _estimator_row(spec: EstimatorSpec) -> tuple[dict[int, int | Fraction], int]:
    """The spec's coefficient row and the index j of its data axis x_j."""
    if not isinstance(spec, EstimatorSpec):
        raise ValueError(f"spec must be an EstimatorSpec, got {spec!r}")
    j = _AXES.index(spec.axis) if spec.component == "m3" else _COMPONENTS.index(spec.component)
    return _ROWS[(_LADDER[spec.component], spec.order)], j


def all_specs() -> list[EstimatorSpec]:
    """Every implemented estimator, both axes where the axis matters."""
    # where the axis does not matter, both axes give the same (x1) spec
    return list(dict.fromkeys(EstimatorSpec(c, o, ax) for c in _COMPONENTS
                              for o in _orders(c) for ax in _AXES))


def estimator_weight(spec: EstimatorSpec, radius: float) -> Callable[[np.ndarray], np.ndarray]:
    """The weight polynomial w(x) of the estimator, as a callable on (..., 2) points.

    The moment estimate is (1/mu0) iint w * B3 over the disk of the given radius.
    """
    radius = _positive(radius, "radius must be positive and finite")
    row, j = _estimator_row(spec)

    def weight(x: np.ndarray) -> np.ndarray:
        u = np.asarray(x, dtype=float)[..., j] / radius
        return radius * sum(float(c) * u**p for p, c in row.items())

    return weight


def estimate_moment(field_map: FieldMap, spec: EstimatorSpec) -> float:
    """Weighted disk integral of the sampled field, in A*m^2."""
    row, j = _estimator_row(spec)
    value = field_map.radius * _apply(row, field_map.moments[j])
    return value / MU0 if field_map.unit_system == "si" else value


def d_coefficients(scene: DipoleScene) -> dict[int, float]:
    """{q: d_q} for q = 1 .. MAX_POWER, the Taylor coefficients at k1 = 0+ of the
    field's planar Fourier transform, from the transform's generating function.

    Odd q scale Im B3-hat along the k1 axis, even q Re B3-hat; d_1 = pi m1.
    """
    # Along the k1 axis, for k1 > 0, B3-hat(k1, 0) = pi mu0 k1 sum_d Re[w e^(-2 pi k1 z)]
    # (Im part) and Re[i w e^(-2 pi k1 z)] (Re part), with w = m1 - i m3 and
    # z = (h - t3) - i t1 per dipole, so
    # d_q = mu0 pi (-2 pi)^(q-1) / (q-1)! * Re sum_d (1 for odd q, i for even q) w z^(q-1).
    z = scene.depths - 1j * scene.positions[:, 0]
    wz = scene.moments[:, 0] - 1j * scene.moments[:, 2]    # w z^(q-1), starting at q = 1
    values = {}
    for q in range(1, MAX_POWER + 1):
        total = complex(np.sum(wz)) * (1 if q % 2 else 1j)
        values[q] = scene.mu0 * _PI * (-2 * _PI) ** (q - 1) / math.factorial(q - 1) * total.real
        wz = wz * z
    return values


@dataclass(frozen=True)
class TQuantities:
    """The nine T quantities.

    Odd indices estimate (q+3) a4~ + (q+2) a5~ + a54~ from the tangential
    data moments, even indices (q+2) a2~ + (q+1) a31~ + a32~ from the normal
    ones (tilded coefficients are a/A^3).  Exact dependences:
    (t5 + t9)/2 = t7, (t7 + t11)/2 = t9, t0 = 3 t4 - 2 t6, t0 = 4 t6 - 3 t8.
    """

    t5: float
    t7: float
    t9: float
    t11: float
    t0: float
    t2: float
    t4: float
    t6: float
    t8: float


def _coeff(coeffs: AsymptCoeffs, shape: tuple[int, int, int]) -> float:
    """coeffs[shape], or a ValueError naming the shape that the mapping lacks."""
    try:
        return coeffs[shape]
    except KeyError:
        raise ValueError(f"coefficients lack the term of shape {shape}") from None


def t_quantities(field_map: FieldMap, coeffs: AsymptCoeffs,
                 axis: str = "x1") -> TQuantities:
    """Data-side T quantities from a field map plus the a1~/m3 closures.

    The tangential rows need a1/A, shape (1, 0, 5) on x1 or (0, 1, 5) on x2,
    and the normal rows m3 = -4 pi a0, shape (0, 0, 3); both come from the
    supplied coefficient set (analytic or recovered).
    When the map is SI the coefficients must carry the mu0 factor too.  The
    values are in the map's field units and approach
    t_quantities_analytic(coeffs, A) as A grows.
    """
    j = _AXES.index(_one_of(axis, _AXES, f"axis must be one of {_AXES}"))
    a = field_map.radius
    mu = list(field_map.moments[j])
    # closure columns: pi a1 / A^2 for the odd (tangential) rows, which are
    # scaled by A / pi, and m3 * mu0 / A = -4 pi a0 / A for the even (normal)
    # rows, which are scaled by 1 / pi
    tangential = mu + [_PI * _coeff(coeffs, ((1, 0, 5), (0, 1, 5))[j]) / a**2]
    normal = mu + [-4.0 * _PI * _coeff(coeffs, (0, 0, 3)) / a]
    return TQuantities(**{f"t{q}": a / _PI * _apply(_ROWS[("t", q)], tangential) if q % 2
                          else _apply(_ROWS[("t", q)], normal) / _PI for q in _T_TARGETS})


def _radius_power(radius: float, k: int) -> float:
    """radius ** k; a ValueError naming the radius where it overflows, or is 0 with k > 0."""
    try:
        power = radius ** k
        if k < 0 or power > 0.0:  # a positive power is a divisor
            return power
    except OverflowError:
        power = math.inf
    raise ValueError(f"radius {radius!r} is out of range: radius ** {k} is {power!r}")


def t_quantities_analytic(coeffs: AsymptCoeffs, radius: float) -> TQuantities:
    """The algebraic left sides of the T quantities from exact coefficients."""
    a3 = _radius_power(_positive(radius, "radius must be positive and finite"), 3)
    return TQuantities(**{f"t{q}": sum(target * (_coeff(coeffs, t) / a3)
                                       for t, target in targets.items())
                          for q, targets in _T_TARGETS.items()})


_PREDICTED_SPECS = {("m1", 1), ("m2", 1), ("m3", 2)}


def predicted_leading_error(scene: DipoleScene, spec: EstimatorSpec,
                            radius: float) -> float:
    """Closed-form leading term of (true moment - estimate), in A*m^2.

    Available only where a closed leading term exists: first-order tangential
    estimates and the second-order normal estimate.
    """
    _estimator_row(spec)
    if (spec.component, spec.order) not in _PREDICTED_SPECS:
        raise ValueError(
            f"no closed-form leading error for {spec.label()}; "
            "supported: m1:1, m2:1, m3:2"
        )
    return _leading_error(asympt_coefficients(scene), spec,
                          _positive(radius, "radius must be positive and finite"), scene.mu0)


# The true moment minus the estimate is -pi * sum (F - target) * coefficient * A^(1-e)
# over the far-field terms.  The row meets its targets exactly for e <= order, which
# leaves the terms with e > order, whose target is 0; axis x2 mirrors each shape.
@functools.cache
def _leftover_terms(spec: EstimatorSpec) -> tuple[tuple[tuple[int, int, int], float, int], ...]:
    """(shape, F, 1 - e) of each far-field term that the spec's row leaves."""
    row, j = _estimator_row(spec)
    return tuple(((a, b, n), float(sum(c * _finite_part(p, *((a, b), (b, a))[j], n)
                                       for p, c in row.items())), 3 + a + b - n)
                 for a, b, n in _FAR_FIELD_ROWS if n - 2 - a - b > spec.order)


def _leading_error(c: AsymptCoeffs, spec: EstimatorSpec, radius: float,
                   scale: float) -> float:
    return -_PI * math.fsum(f * c[t] * _radius_power(radius, k)
                            for t, f, k in _leftover_terms(spec)) / scale


@dataclass(frozen=True)
class RecoveredCoeffs:
    """Far-field quantities recovered from disk data alone, per axis and order.

    a1_over_radius[(axis, order)] approximates a1^(axis)/A at asymptotic
    order 4 or 5; combo[(axis, order)] the (4 a4 + 3 a5 + a5-cross)/A^3
    combination entering the leading error term.  Values are in the map's
    field units (mu0 included for SI maps).
    """

    a1_over_radius: dict
    combo: dict


def recovered_coefficients(field_map: FieldMap) -> RecoveredCoeffs:
    scale = field_map.radius / _PI

    def recover(name: str) -> dict:
        return {(axis, order): scale * _apply(_ROWS[(name, order)], field_map.moments[j])
                for j, axis in enumerate(_AXES) for order in (4, 5)}

    return RecoveredCoeffs(a1_over_radius=recover("a1"), combo=recover("combo"))


@dataclass(frozen=True)
class GridParams:
    n_radial: int = _DEFAULT_GRID[0]
    n_angular: int = _DEFAULT_GRID[1]

    def __post_init__(self):
        _grid_sizes(self.n_radial, self.n_angular)


@dataclass(frozen=True)
class SweepRow:
    radius: float
    spec: EstimatorSpec
    estimate: float
    true_value: float
    predicted_error: Optional[float] = None

    @property
    def abs_error(self) -> float:
        return abs(self.true_value - self.estimate)


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    @functools.cached_property
    def _by_spec(self) -> dict[EstimatorSpec, list[SweepRow]]:
        # grouped once: the rows are read-only, so it cannot go stale
        groups = {}
        for row in sorted(self.rows, key=lambda r: r.radius):
            groups.setdefault(row.spec, []).append(row)
        return groups

    def for_spec(self, spec: EstimatorSpec) -> list[SweepRow]:
        # the spec's rows sorted by radius; rows of one radius keep their order
        return list(self._by_spec.get(spec, ()))


def _synthesised_map(scene: DipoleScene, radius: float, grid_params: GridParams,
                     noise: Optional[NoiseSpec]) -> FieldMap:
    """The scene's field sampled on the grid of that radius, plus the noise when given."""
    fmap = sample_field(scene, build_grid(radius, grid_params.n_radial, grid_params.n_angular))
    return fmap if noise is None else add_noise(fmap, noise)


def _sweep_cell(scene: DipoleScene, specs: Sequence[EstimatorSpec], grid_params: GridParams,
                noise: Optional[NoiseSpec], truth, predictions: dict[EstimatorSpec, float],
                stream: int, radius: float) -> list[SweepRow]:
    fmap = _synthesised_map(scene, radius, grid_params,
                            None if noise is None else dataclasses.replace(noise, stream=stream))
    return [SweepRow(radius, spec, estimate_moment(fmap, spec), getattr(truth, spec.component),
                     predictions.get(spec)) for spec in specs]


def _ascending_radii(radii: Sequence[float]) -> list[float]:
    text = "radii must be positive, finite and strictly ascending"
    radii = [_positive(a, text) for a in radii]
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(text)
    return radii


def sweep(scene: DipoleScene, radii: Sequence[float], specs: Sequence[EstimatorSpec],
          grid_params: GridParams = GridParams(), noise: Optional[NoiseSpec] = None) -> SweepResult:
    """Estimate every spec on every radius.

    The rows come grouped by ascending radius, each group in the order of
    specs; SweepResult.for_spec returns one spec's rows sorted by radius.
    The radius of index i draws its noise from stream i of noise.seed.  Before
    any grid is built the specs are checked and each closed-form leading error
    is computed, once per radius; a radius at which one of them, or b3 at the
    largest radius, overflows is refused.  A margin >= 1 at the smallest radius
    only warns: small radii outside the asymptotic regime are still useful data.
    """
    radii = _ascending_radii(radii)
    for spec in specs:
        _estimator_row(spec)
    coeffs = asympt_coefficients(scene)
    predictions = [{spec: _leading_error(coeffs, spec, radius, scene.mu0) for spec in specs
                    if (spec.component, spec.order) in _PREDICTED_SPECS} for radius in radii]
    _refuse_b3_overflow(scene, radii[-1])
    margin = asympt_condition_margin(scene, radii[0])
    if margin >= 1.0:
        warnings.warn(
            f"asymptotic condition fails at the smallest radius "
            f"(margin {margin:.3f} >= 1); small-radius rows are pre-asymptotic",
            stacklevel=2,
        )
    truth = net_moment(scene)
    # one call per radius, so each radius's map is freed before the next is built
    return SweepResult(rows=tuple(
        row for stream, (radius, preds) in enumerate(zip(radii, predictions))
        for row in _sweep_cell(scene, specs, grid_params, noise, truth, preds, stream, radius)))


def convergence_slope(result: SweepResult, spec: EstimatorSpec,
                      top_fraction: float = 0.5) -> float:
    """Least-squares slope of log|error| against log radius.

    top_fraction selects the upper part of the log-radius range: with 0.5 on
    a one-decade sweep this is the classic top half-decade.
    """
    _estimator_row(spec)
    if _positive(top_fraction, "top_fraction must lie in (0, 1]") > 1.0:
        raise ValueError(f"top_fraction must lie in (0, 1], got {top_fraction!r}")
    rows = result.for_spec(spec)
    if not rows:
        raise ValueError(f"no rows for spec {spec.label()}")
    radii = np.array([r.radius for r in rows])
    errors = np.array([r.abs_error for r in rows])
    cutoff = radii[-1] * (radii[0] / radii[-1]) ** top_fraction
    sel = radii >= cutoff * (1 - 1e-12)
    if sel.sum() < 4:
        raise ValueError("need at least 4 rows in the selected top fraction")
    if np.any(errors[sel] == 0.0):
        raise ValueError("zero error rows make the log-log fit degenerate")
    return float(np.polyfit(np.log(radii[sel]), np.log(errors[sel]), 1)[0])


def raster_m3_drift_series(scene: DipoleScene, radii: Sequence[float],
                           spec: EstimatorSpec, noise: Optional[NoiseSpec],
                           n_pixels: int = 256) -> list[tuple[float, float]]:
    """Normal-moment estimates over nested subdisks of one noisy raster.

    Mirrors the single-measurement protocol: a uniform Cartesian raster over
    the largest disk, one noise realization on it, then each radius estimate
    integrates the same pixels inside that subdisk.  Cumulative moment sums
    over radius-sorted pixels make the whole sweep one pass.  A pixel's x_j
    is one of the n_pixels line centres, so each power (x_j / r_max)^p is
    taken once per line and gathered per pixel, with the same bits.
    """
    row, j = _estimator_row(spec)
    if spec.component != "m3":
        raise ValueError("drift series is defined for the normal component")
    radii = _ascending_radii(radii)
    # True would run as a 1-pixel raster
    _integer(n_pixels, "n_pixels must be an integer of at least 1", lo=1)
    r_max = radii[-1]
    _refuse_b3_overflow(scene, r_max)
    step = 2.0 * r_max / n_pixels
    centers = -r_max + step * (np.arange(n_pixels) + 0.5)
    # pixel (i, k) sits at (centers[i], centers[k]): axes[j] is x_j over the
    # raster as a view, and the outer sum of the squares has the bits of
    # gx**2 + gy**2 over a meshgrid, which is never built
    along = np.broadcast_to(centers, (n_pixels, n_pixels))
    axes = (along.T, along)
    r2 = np.add.outer(centers**2, centers**2)
    inside = r2 <= r_max**2
    r2 = r2[inside]
    pts = np.stack([axes[0][inside], axes[1][inside]], axis=-1)
    samples = b3(scene, pts)
    del pts
    if noise is not None:
        # the plain variance over the raster's pixels, whatever noise.weighted_variance says
        samples = _noisy(samples, noise)
    order = np.argsort(r2)
    r_sorted = np.sqrt(r2[order])
    del r2
    idx = np.searchsorted(r_sorted, radii, side="right") - 1
    del r_sorted
    if idx[0] < 0:
        raise ValueError(f"radii: no pixel centre lies inside radius {radii[0]}; "
                         f"raise n_pixels above {n_pixels}")
    # pixel (i, k) lies on line i of x1 and line k of x2, whose coordinate is
    # centers[line]: each power is taken once per line and gathered per pixel
    lines = np.broadcast_to(np.arange(n_pixels), (n_pixels, n_pixels))
    line = (lines.T, lines)[j][inside][order]
    u = centers / r_max
    sv = samples[order] * step * step
    del samples, order
    # cumulative moments over the largest disk, read at each subdisk's last
    # pixel and rescaled to that subdisk
    cums = {p: np.cumsum((u**p)[line] * sv)[idx] for p in row}
    out = []
    for k, a in enumerate(radii):
        mu = {p: cums[p][k] * (r_max / a) ** p for p in row}
        out.append((a, a * _apply(row, mu) / scene.mu0))
    return out
