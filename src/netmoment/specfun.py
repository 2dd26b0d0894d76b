"""Bessel/Struve evaluation and the oscillatory ring-integral machinery.

Everything here feeds the far-field moment estimators: J0/J1/J2 and Struve
H0/H1 by exact rational series on |x| <= 50, each rounded once, closed forms
for the semi-infinite Bessel tail integrals and the exterior ring integrals,
an oscillation-aware quadrature that independently confirms each, the ring
Taylor tables from the finite-part rule field._finite_part, and
`IDENTITIES`, the one table of identity checks that `netmoment
verify-specfun` runs.

The closed forms are derived: a form {(f, k): c} sums c f(rho) rho^k over
f in 1, J0, J1 and S = J0 (pi/2)H1 - J1 (pi/2)H0.  Only int_rho^inf J0 is
typed; four exact rules give the other tails (`_tail_form`), and a ring form
integrates the angular mean of its term onto them (`_ring_form`).  A form is
evaluated exactly on the cached series at rho and rounded to a float once.

The ring integrals are keyed like the far-field coefficients, by term shape
(a, b, n): their shapes are the far-field shapes with even b, and odd a
pairs with sin, even a with cos.

The exact series of J_n and (pi/2)H_n share one loop, which sums the terms
as one integer numerator over the running integer denominator of the last
term, so a series is normalised once, when its Fraction is built; the float
J_n divides that numerator by that denominator and skips the gcd.

The quadrature route shares no code with the closed forms: its integrands
evaluate J_n by a vectorised midpoint rule on Bessel's integral
(`_bessel_integral`), never through the rational series, and its panels
are plain Gauss-Legendre with a graded first panel and Euler acceleration,
evaluated a batch of panels per integrand call.  The ring integrals of one
trig share their panels, so each batch evaluates that trig once for all of
them, on a periodic angle rule folded onto [0, pi/2]; the seven tail
integrals at one rho share theirs in the same way, each batch evaluating
J0, J1 and J2 once.
"""
from __future__ import annotations

import functools
import math
import sys
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from ._checks import _finite, _integer, _one_of, _positive, _real
from .field import _FAR_FIELD_ROWS, _finite_part
from .quad import MAX_POWER, _angles

__all__ = [
    "DomainError",
    "IDENTITIES",
    "STRUVE_MAX_ARG",
    "TailIntegralKind",
    "bessel_j0",
    "bessel_j1",
    "bessel_j1_prime",
    "bessel_j2",
    "struve_h0",
    "struve_h1",
    "tail_integral",
    "tail_integral_quadrature",
    "tail_recursion_rhs",
    "ring_trig_integral",
    "sin_cos_components",
    "sin_cos_components_quadrature",
    "sin_cos_taylor",
]


class DomainError(ValueError):
    """Argument outside the supported numerical domain."""


# The cap of every exact series, and so of J_n, (pi/2)H_n and the closed forms
# read on them: the terms grow to ~1e19 at 50 before they cancel, and the
# consumers (rho = 2*pi*k1*A) have no business beyond it.
STRUVE_MAX_ARG = 50.0


def _capped(x: float, text: str, lo: float = -STRUVE_MAX_ARG) -> float:
    """x, if it lies in [lo, STRUVE_MAX_ARG]; NaN does not."""
    if not lo <= x <= STRUVE_MAX_ARG:
        raise DomainError(f"{text}, got {x!r}")
    return x


def _alternating_series(num: int, den: int, zp: int, zq: int,
                        factor: Callable[[int], int], tol_exp: int) -> tuple[int, int]:
    """sum_k (-1)^k t_k exactly, t_0 = num/den, t_k = t_(k-1) zp / (zq factor(k)).

    The terms grow to ~1e19 near x = 50 before cancelling; integers keep the
    cancellation exact.  The sum is returned as an integer numerator over the
    running denominator D_k = D_(k-1) zq factor(k) of its last term, so no
    term pays a gcd.  The loop stops after the first term below 10^-tol_exp,
    tested in integers.
    """
    tot = num
    scale = 10**tol_exp
    k = 1
    while True:
        f = zq * factor(k)
        num = -num * zp
        den *= f
        tot = tot * f + num
        if abs(num) * scale < den:
            break
        k += 1
    return tot, den


def _bessel_series_ratio(x: Fraction, n: int, tol_exp: int = 30) -> tuple[int, int]:
    """J_n as an unreduced integer ratio: sum (-1)^k z^k (x/2)^n / (k! (n+k)!), z = (x/2)^2."""
    hp, hq = x.numerator, 2 * x.denominator  # x/2, not reduced
    return _alternating_series(hp**n, hq**n * math.factorial(n), hp * hp, hq * hq,
                               lambda k: k * (n + k), tol_exp)


def _bessel_series_frac(x: Fraction, n: int, tol_exp: int = 30) -> Fraction:
    """J_n at x by the ascending series, exactly."""
    return Fraction(*_bessel_series_ratio(x, n, tol_exp))


def _bessel_arg(fn: str, x: float) -> float:
    """x as a float for fn: finite, with |x| within the series cap."""
    xf = _finite(x, f"{fn} needs finite x", DomainError)
    return _capped(xf, f"{fn} needs |x| <= {STRUVE_MAX_ARG}")


def _bessel_j(n: int, x: float) -> float:
    """J_n(x), n = 0, 1, 2: the exact series at |x| rounded once, the sign by parity."""
    xf = _bessel_arg(f"bessel_j{n}", x)
    # one int / int rounds correctly: the bits of float(Fraction), without its gcd
    num, den = _bessel_series_ratio(Fraction(abs(xf)), n)
    return (-num if n % 2 and xf < 0 else num) / den


def bessel_j0(x: float) -> float:
    """Bessel J0 on |x| <= 50, correctly rounded from the exact series."""
    return _bessel_j(0, x)


def bessel_j1(x: float) -> float:
    """Bessel J1 (odd) on |x| <= 50, correctly rounded from the exact series."""
    return _bessel_j(1, x)


def bessel_j1_prime(x: float) -> float:
    """J1'(x) = J0(x) - J1(x)/x on |x| <= 50, exact and rounded once; the x -> 0 limit 1/2."""
    xf = _bessel_arg("bessel_j1_prime", x)
    if xf == 0.0:
        return 0.5
    r = Fraction(abs(xf))  # J1' is even
    return float(_bessel_series_frac(r, 0) - _bessel_series_frac(r, 1) / r)


def bessel_j2(x: float) -> float:
    """Bessel J2 (even) on |x| <= 50, correctly rounded from the exact series."""
    return _bessel_j(2, x)


def _struve_series_frac(z: Fraction, n: int, tol_exp: int = 30) -> Fraction:
    """(pi/2) H_n(z) as an exact rational: sum (-1)^k z^(2k+n+1)/((2k+1)!!(2k+2n+1)!!)."""
    p, q = z.numerator, z.denominator
    den = q ** (n + 1) * math.prod(range(1, 2 * n + 2, 2))
    return Fraction(*_alternating_series(p ** (n + 1), den, p * p, q * q,
                                         lambda k: (2 * k + 1) * (2 * k + 2 * n + 1), tol_exp))


def _struve_series(x: float, n: int) -> float:
    text = f"struve_h{n} defined on [0, {STRUVE_MAX_ARG}]"
    xf = _capped(_real(x, text, DomainError), text, 0.0)
    return 2.0 * float(_struve_series_frac(Fraction(xf), n, tol_exp=22)) / math.pi


def struve_h0(x: float) -> float:
    """Struve H0 on [0, 50], absolute accuracy ~1e-14."""
    return _struve_series(x, 0)


def struve_h1(x: float) -> float:
    """Struve H1 on [0, 50], absolute accuracy ~1e-14."""
    return _struve_series(x, 1)


class TailIntegralKind(Enum):
    """Semi-infinite Bessel integrals with closed forms."""

    J1_OVER_X_P1 = "j1_over_x_p1"     # int_rho^inf J1(x)/x dx
    J1_OVER_X_P3 = "j1_over_x_p3"     # int_rho^inf J1(x)/x^3 dx
    J1_OVER_X_P5 = "j1_over_x_p5"     # int_rho^inf J1(x)/x^5 dx
    J1_OVER_X_P7 = "j1_over_x_p7"     # int_rho^inf J1(x)/x^7 dx
    J0_OVER_X_P2 = "j0_over_x_p2"     # int_rho^inf J0(x)/x^2 dx
    J0_TOTAL = "j0_total"             # int_rho^inf J0(x) dx
    J2_TOTAL = "j2_total"             # int_rho^inf J2(x) dx


# kind -> (i, p) of the integrand J_i(x) / x^p, read by both routes
_TAIL_INTEGRANDS = {
    TailIntegralKind.J1_OVER_X_P1: (1, 1),
    TailIntegralKind.J1_OVER_X_P3: (1, 3),
    TailIntegralKind.J1_OVER_X_P5: (1, 5),
    TailIntegralKind.J1_OVER_X_P7: (1, 7),
    TailIntegralKind.J0_OVER_X_P2: (0, 2),
    TailIntegralKind.J0_TOTAL: (0, 0),
    TailIntegralKind.J2_TOTAL: (2, 0),
}

# A closed form {(f, k): c} stands for the sum of c f(rho) rho^k over its
# entries, c a Fraction and f one of "1", "J0", "J1" and
# "S" = J0 (pi/2)H1 - J1 (pi/2)H0.  Struve enters only through S, so a form
# is rational at a rational rho and its heavy cancellations cost nothing.
# The forms and the series values are cached and shared: never mutate one.
Form = dict[tuple[str, int], Fraction]


@functools.lru_cache(maxsize=32)
def _exact_series(rho: Fraction) -> dict[str, Fraction]:
    """1, J0, J1 and S at rho as exact rationals; cached, as every form at one rho reads them."""
    j0, j1 = _bessel_series_frac(rho, 0), _bessel_series_frac(rho, 1)
    return {"1": Fraction(1), "J0": j0, "J1": j1,
            "S": j0 * _struve_series_frac(rho, 1) - j1 * _struve_series_frac(rho, 0)}


def _value(form: Form, rho: Fraction) -> Fraction:
    """A form at rho, exactly: one Laurent polynomial in rho per function, times its value."""
    return sum(value * sum(c * rho**k for (g, k), c in form.items() if g == f)
               for f, value in _exact_series(rho).items())


def _sum(*terms: tuple[Fraction | int, Form]) -> Form:
    """The combination of the (weight, form) pairs, zero entries dropped."""
    out: dict[tuple[str, int], Fraction] = {}
    for w, form in terms:
        for key, c in form.items():
            out[key] = out.get(key, 0) + w * c
    return {key: Fraction(c) for key, c in out.items() if c}


@functools.cache
def _tail_form(i: int, p: int) -> Form:
    """int_rho^inf J_i(x) / x^p dx: J0 over even p, J1 over odd p or J2 over x^0."""
    if (i, p) == (0, 0):  # the one typed form: int J0 = 1 - rho J0 + rho S
        return {("1", 0): Fraction(1), ("J0", 1): Fraction(-1), ("S", 1): Fraction(1)}
    if i == 0:  # integration by parts with J1 = -J0' takes J0/x^p onto J1/x^(p-1)
        w = Fraction(1, p - 1)
        return _sum((w, {("J0", 1 - p): 1}), (-w, _tail_form(1, p - 1)))
    if i == 2 or p == 1:  # J1/x = J0 - J1' and J2 = J0 - 2 J1' add J1(rho), 2 J1(rho)
        return _sum((1, _tail_form(0, 0)), (i, {("J1", 0): 1}))
    # the reduction identity for J1/x^(q+2), q odd: Bessel's equation
    # J1 = J1/x^2 - J1'' - J1'/x over x^q, integrated by parts, gives
    # (J0(rho)/rho^q + q J1(rho)/rho^(q+1) - int J1/x^q) / (q (q+2))
    q = p - 2
    w = Fraction(1, q * (q + 2))
    return _sum((w, {("J0", -q): 1, ("J1", -q - 1): q}), (-w, _tail_form(1, q)))


def _closed_form_rho(fn: str, rho: float) -> float:
    """rho as a float; it must be finite, > 0 and within the series cap."""
    rho = _positive(rho, f"{fn} needs finite rho > 0", DomainError)
    return _capped(rho, f"{fn} closed forms use Struve functions, capped at "
                        f"rho <= {STRUVE_MAX_ARG}")


# (i, p) of the kind's integrand J_i(x) / x^p; any other value raises DomainError
def _integrand(kind: TailIntegralKind) -> tuple[int, int]:
    try:
        return _TAIL_INTEGRANDS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise DomainError(f"unknown tail integral kind {kind!r}") from None


def tail_integral(kind: TailIntegralKind, rho: float) -> float:
    """Closed form of the selected tail integral at lower limit rho."""
    i, p = _integrand(kind)
    rho = _closed_form_rho("tail_integral", rho)
    return float(_value(_tail_form(i, p), Fraction(rho)))


def tail_recursion_rhs(n: int, rho: float) -> float:
    """Right side of the reduction identity for int_rho^inf J1/x^(2n+1), in floats.

    (2n J1(rho)/rho^(2n) + J1'(rho)/rho^(2n-1) - int_rho^inf J1/x^(2n-1)) / (4n^2 - 1),
    summed from `bessel_j1`, `bessel_j1_prime` and the closed form of the lower
    tail: a second route to `tail_integral` of J1/x^(2n+1), which evaluates the
    derived form exactly and rounds once, so a fault in either shows.
    """
    n = _integer(n, "tail_recursion_rhs needs an integer n in {1, 2, 3}", DomainError, 1, 3)
    rho = _closed_form_rho("tail_recursion_rhs", rho)
    return (2 * n * bessel_j1(rho) / rho ** (2 * n) + bessel_j1_prime(rho) / rho ** (2 * n - 1)
            - tail_integral(TailIntegralKind(f"j1_over_x_p{2 * n - 1}"), rho)) / (4 * n * n - 1)


# ---------------------------------------------------------------------------
# oscillation-aware quadrature (independent route for the identities above)
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)

# relative stopping tolerances of the tail and the ring-integral quadratures,
# and the panel cap of _integrate_panels with its batches: one integrand call
# for panels 1 .. _FIRST_BATCH (the first checkpoint needs all of them), then
# one per _BATCH panels
_TAIL_TOL = 1e-14
_RING_TOL = 1e-12
_MAX_PANELS = 400
_FIRST_BATCH = 16
_BATCH = 8
# the periodic angle rule of ring_trig_integral: _N_THETA nodes on the circle,
# folded onto the _N_THETA // 4 + 1 of them in [0, pi/2]
_N_THETA = 256


@functools.cache
def _euler_weights(size: int) -> np.ndarray:
    """C(size - 1, j) / 2^(size - 1) for j < size, exact floats; built on first use."""
    return np.array([math.comb(size - 1, j) for j in range(size)]) / 2.0 ** (size - 1)


def _euler_sums(panels: np.ndarray) -> np.ndarray:
    """Euler transform of each row of a (K, L) array of (eventually) alternating panels.

    The panels before the last 40 are summed as they are.  The partial sums
    of the last 40 are averaged pairwise until one is left, which is their
    weighted sum with the binomial weights of `_euler_weights`: one
    cumulative sum and one product, all rows at once.  Each row is reduced
    on its own, so it has the bits of a call on that row alone.
    """
    size = min(panels.shape[-1], 40)
    averaged = np.sum(np.cumsum(panels[:, -size:], axis=-1) * _euler_weights(size), axis=-1)
    return np.sum(panels[:, :-size], axis=-1) + averaged


def _gauss_legendre(f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray) -> np.ndarray:
    """Each row of f integrated over each [edges[j], edges[j + 1]] by the 20-point rule.

    f is called once, on the nodes of all the intervals; the result has shape
    (K, len(edges) - 1).
    """
    half = 0.5 * np.diff(edges)
    x = (half[:, None] * (_GL_NODES + 1.0) + edges[:-1, None]).ravel()
    values = f(x)
    return np.sum(values.reshape(len(values), len(half), -1) * _GL_WEIGHTS, axis=-1) * half


def _integrate_panels(f: Callable[[np.ndarray], np.ndarray], a: float,
                      period: float, tol: float) -> list[float]:
    """Integrate each row of f on (a, inf): half-period panels + Euler acceleration.

    f maps nodes x to K rows of integrand values, shape (K, len(x)), so
    integrals that share their panels share each evaluation.  Panels are
    evaluated in batches, one call of f each: the pieces of the first panel,
    panels 1 .. _FIRST_BATCH, then _BATCH panels at a time up to the cap of
    _MAX_PANELS.  The panel sums are kept as a (K, panels) array.  At each
    checkpoint, every even panel i >= _FIRST_BATCH, `_euler_sums` transforms
    panels 0 .. i of all rows in one call, and the group stops at the second
    checkpoint in a row at which every row moved by less than tol of its
    value; panels of the batch past that checkpoint are dropped.

    The first panel [a, a + period] is graded: cut at a, 2a, 4a, ... so a
    steep algebraic factor such as x^-7 near a small lower limit is resolved,
    and its pieces are summed into that one panel.  The edges after a lie on
    a grid of 2^-40 periods, with the period rounded to it, so each edge is
    a float exactly while a is below about 7800 periods: a partial sum is
    the integral up to an exact point, and its Euler sum sees no rounding of
    the edges.
    """
    step = 2.0 ** (math.frexp(period)[1] - 40)
    period = round(period / step) * step
    first_end = round((a + period) / step) * step
    cuts = [a]
    while a > 0.0 and 2.0 * cuts[-1] < first_end:
        cuts.append(2.0 * cuts[-1])
    cuts.append(first_end)
    pieces = _gauss_legendre(f, np.array(cuts))
    panels = np.empty((len(pieces), _MAX_PANELS))
    panels[:, 0] = [math.fsum(row) for row in pieces]
    prev = np.inf
    stable = 0
    done = 1
    while done < _MAX_PANELS:
        end = min(done + (_BATCH if done > 1 else _FIRST_BATCH), _MAX_PANELS)
        edges = first_end + period * np.arange(done - 1, end)
        panels[:, done:end] = _gauss_legendre(f, edges)
        for i in range(max(done + done % 2, _FIRST_BATCH), end, 2):
            cur = _euler_sums(panels[:, :i + 1])
            stable = stable + 1 if np.all(np.abs(cur - prev) < tol * np.abs(cur) + 1e-300) else 0
            if stable >= 2:
                return cur.tolist()
            prev = cur
        done = end
    return _euler_sums(panels).tolist()


def _bessel_integral(orders: Sequence[int], x: np.ndarray) -> np.ndarray:
    """J_n(x) for each n in orders by the midpoint rule on (1/pi) int_0^pi cos(n t - x sin t) dt.

    For integer n the integrand is 2pi-periodic and even about pi, so the m
    midpoints are the periodic trapezoid rule with 2m points, whose error is
    of the size of J_(2m-n)(x): it falls below roundoff once 2m exceeds
    max|x| by a few max|x|^(1/3).  m follows from the call's own input.
    cos(n t - x sin t) = cos(n t) cos(x sin t) + sin(n t) sin(x sin t), so the
    orders share one (len(x), m) array each of cos(x sin t) and sin(x sin t),
    and each J_n is their products with cos(n t) and sin(n t).  Returns shape
    (len(orders), len(x)).
    """
    x = np.asarray(x, dtype=float)
    x_max = float(np.max(np.abs(x)))
    m = math.ceil(x_max / 2 + 4 * x_max ** (1 / 3)) + 16
    tau = (np.arange(m) + 0.5) * (math.pi / m)
    phase = np.multiply.outer(x, np.sin(tau))
    cos_phase, sin_phase = np.cos(phase), np.sin(phase)
    # one matrix-vector product per order: a matrix product would have BLAS
    # touch its packing buffers, about 0.3 MB more peak RSS for the same time
    return np.stack([cos_phase @ np.cos(n * tau) + sin_phase @ np.sin(n * tau)
                     for n in orders]) / m


@functools.lru_cache(maxsize=32)
def _tail_quadratures(rho: float) -> dict[TailIntegralKind, float]:
    """int_rho^inf J_i(x) / x^p dx for every kind of `_TAIL_INTEGRANDS`, as one panel group.

    The seven kinds share their panels, so each batch of panels evaluates J0,
    J1 and J2 once for all of them, and each row divides its order by its own
    x**p.  Cached because the tail checks of one run ask for every kind at
    the same rho one kind at a time.
    """
    def f(x: np.ndarray) -> np.ndarray:
        j = _bessel_integral((0, 1, 2), x)  # row i is J_i
        return np.stack([j[i] / x**p for i, p in _TAIL_INTEGRANDS.values()])

    return dict(zip(_TAIL_INTEGRANDS, _integrate_panels(f, rho, math.pi, _TAIL_TOL)))


def tail_integral_quadrature(kind: TailIntegralKind, rho: float) -> float:
    """The defining integral evaluated numerically, closed forms untouched.

    J0, J1 and J2 come from `_bessel_integral` (Bessel's integral, not the
    exact series of the closed forms), integrated over half-period panels
    from rho, the first one graded, with Euler acceleration of the
    alternating panel sums.  All kinds at one rho are integrated together on
    shared panels by `_tail_quadratures`, which keeps the values of recent
    rho.  rho is capped like the closed forms it checks: the midpoints of
    `_bessel_integral` grow with it.
    """
    _integrand(kind)  # refuses an unknown kind
    rho = _positive(rho, "tail_integral_quadrature needs finite rho > 0", DomainError)
    return _tail_quadratures(_capped(rho, "tail_integral_quadrature checks closed forms "
                                          f"capped at rho <= {STRUVE_MAX_ARG}"))[kind]


# ---------------------------------------------------------------------------
# exterior ring integrals of the far-field expansion
# ---------------------------------------------------------------------------

# The far-field term shapes (a, b, n) of the ring integrals: a term odd in x2
# has a zero transform on the x1 axis.  trig(2 pi k1 x1) is sin for odd a and
# cos for even a, the other one integrating the term to zero.
_RING_SHAPES = tuple(shape for shape in _FAR_FIELD_ROWS if shape[1] % 2 == 0)


# J0' = -J1 and J1' = J0 - J1/x, as (function, shift of the power, weight)
_PRIMES = {"J0": (("J1", 0, -1),), "J1": (("J0", 0, 1), ("J1", -1, -1))}


@functools.cache
def _d_j0(m: int) -> Form:
    """The m-th derivative of J0 as a form in J0 and J1."""
    if m == 0:
        return {("J0", 0): Fraction(1)}
    # the product rule on each term c f x^k: c k f x^(k-1) + c f' x^k
    return _sum(*((c * w, {(g, k + dk): 1}) for (f, k), c in _d_j0(m - 1).items()
                  for g, dk, w in ((f, -1, k), *_PRIMES[f])))


@functools.cache
def _ring_form(a: int, b: int, n: int) -> Form:
    """The ring integral of shape (a, b, n) over 2 pi (2 pi k1)^(s-1), s = n - a - b - 1."""
    # With x = 2 pi k1 r the ring integral is 2 pi (2 pi k1)^(s-1) times the
    # integral over (rho, inf) of x^-s <trig(x cos t) cos^a t sin^b t>, <.> the
    # mean over t.  sin^b = (1 - cos^2)^(b/2) expands into cos^(a+2j), the mean
    # of trig(x cos t) cos^m t is (-1)^((m+1)//2) d^m J0/dx^m, and the two signs
    # leave (-1)^((a+1)//2) for every j.  Each term c J_i x^k of the mean then
    # integrates onto c int J_i/x^(s-k).
    s = n - a - b - 1
    mean = _sum(*(((-1) ** ((a + 1) // 2) * math.comb(b // 2, j), _d_j0(a + 2 * j))
                  for j in range(b // 2 + 1)))
    # f is "J0" or "J1", so f[1] is the Bessel order i
    return _sum(*((c, _tail_form(int(f[1]), s - k)) for (f, k), c in mean.items()))


def sin_cos_components(k1: float, radius: float) -> dict[tuple[int, int, int], float]:
    """Closed-form ring integrals by term shape at rho = 2*pi*k1*radius (requires rho <= 50)."""
    k1 = _positive(k1, "sin_cos_components needs finite k1 > 0", DomainError)
    radius = _positive(radius, "sin_cos_components needs finite radius > 0", DomainError)
    rho = Fraction(_closed_form_rho("sin_cos_components", 2.0 * math.pi * k1 * radius))
    two_pi = 2.0 * math.pi
    values = {}
    for a, b, n in _RING_SHAPES:
        # the prefactor times the form rounded on its own; at a tiny k1 the
        # prefactor underflows, or the form (of order rho^-e) overflows
        try:
            prefactor = two_pi * (two_pi * k1) ** (n - a - b - 2)
            values[(a, b, n)] = prefactor * float(_value(_ring_form(a, b, n), rho))
        except OverflowError:
            prefactor = 0.0
        if not sys.float_info.min <= prefactor < math.inf:
            raise DomainError(f"sin_cos_components: a ring term leaves the float range at "
                              f"k1 = {k1!r}, radius = {radius!r}")
    return values


def _ring_trig_integrals(trig: str, powers: list[tuple[int, int, int]],
                         k1: float, radius: float) -> list[float]:
    """`ring_trig_integral` for each (a, b, p) in powers, all of one trig.

    The integrals share their panels, so trig(2 pi k1 r cos t) is evaluated
    once per batch of panels for all of them; each takes its own product
    with its angular factor.

    The periodic rule of _N_THETA nodes on the circle is folded onto its
    nodes in [0, pi/2].  The reflections t -> -t, pi - t and pi + t map
    those nodes onto all the others and multiply the integrand by (-1)^b,
    s (-1)^a and s (-1)^(a+b), with s = +1 for cos and -1 for sin, so a node
    carries the weight (1 + (-1)^b)(1 + s (-1)^a), halved at t = 0 and
    pi/2, which have two images each instead of four.  The fold is exact
    for every (a, b), and a shape that the weight kills integrates to 0.0.
    """
    quarter = _N_THETA // 4
    ct, st = (t[:quarter + 1] for t in _angles(_N_THETA))
    fold = np.full(quarter + 1, 2.0 * math.pi / _N_THETA)
    fold[[0, -1]] *= 0.5
    fun, s = (np.sin, -1) if trig == "sin" else (np.cos, 1)
    angs = [(1 + (-1) ** b) * (1 + s * (-1) ** a) * fold * ct**a * st**b for a, b, _ in powers]

    def g(r: np.ndarray) -> np.ndarray:
        vals = fun(2.0 * math.pi * k1 * np.outer(r, ct))
        return np.stack([vals @ ang / r**p for ang, (_, _, p) in zip(angs, powers)])

    period = 0.5 / k1  # half period of the fastest angular ray
    return _integrate_panels(g, radius, period, _RING_TOL)


def ring_trig_integral(trig: str, cos_pow: int, sin_pow: int, inv_pow: int,
                       k1: float, radius: float) -> float:
    """Direct quadrature of

        int_radius^inf int_0^2pi trig(2 pi k1 r cos t) cos^a t sin^b t dt dr / r^p

    with a periodic trapezoid in angle and accelerated half-period panels in r.
    """
    _one_of(trig, ("sin", "cos"), "ring_trig_integral needs trig 'sin' or 'cos'", DomainError)
    # a fractional power of a negative cos t or sin t has no real value, and
    # the radial integral diverges for inv_pow < 1
    for name, power, least in (("cos_pow", cos_pow, 0), ("sin_pow", sin_pow, 0),
                               ("inv_pow", inv_pow, 1)):
        _integer(power, f"ring_trig_integral needs an integer {name} >= {least}",
                 DomainError, least)
    k1 = _positive(k1, "ring_trig_integral needs finite k1 > 0", DomainError)
    radius = _positive(radius, "ring_trig_integral needs finite radius > 0", DomainError)
    return _ring_trig_integrals(trig, [(cos_pow, sin_pow, inv_pow)], k1, radius)[0]


def sin_cos_components_quadrature(k1: float, radius: float) -> dict[tuple[int, int, int], float]:
    """Defining double integrals of the ring integrals by term shape, quadrature route.

    The component of shape (a, b, n) integrates trig(2 pi k1 x1) against the
    far-field term x1^a x2^b / |x|^n: cos^a sin^b in angle over
    r^(n - a - b - 1) in radius.  The components of one trig share panels.
    """
    k1 = _positive(k1, "sin_cos_components_quadrature needs finite k1 > 0", DomainError)
    radius = _positive(radius, "sin_cos_components_quadrature needs finite radius > 0", DomainError)
    values = {}
    for trig, parity in (("sin", 1), ("cos", 0)):
        shapes = [shape for shape in _RING_SHAPES if shape[0] % 2 == parity]
        powers = [(a, b, n - a - b - 1) for a, b, n in shapes]
        values.update(zip(shapes, _ring_trig_integrals(trig, powers, k1, radius)))
    return {shape: values[shape] for shape in _RING_SHAPES}


def sin_cos_taylor(radius: float) -> dict[int, dict[tuple[int, int, int], float]]:
    """One-sided k1-derivatives of the ring integrals at k1 = 0+, by order and term shape.

    Returns {q: {shape: value}} for q = 0 .. MAX_POWER, so a caller contracts
    each order with an actual coefficient set.  Order q holds the shapes with
    a = q (mod 2): the odd derivatives of the sin integrals, the even ones of
    the cos integrals.
    """
    radius = _positive(radius, "sin_cos_taylor needs finite radius > 0", DomainError)
    # Expanding trig(2 pi k1 x1) in powers of k1, the q-th derivative of the term
    # of shape (a, b, n) is q! (2 pi)^(q+1) c A^(q-e), where
    # c = -(-1)^(q//2) _finite_part(q, a, b, n) / (2 q!): the exterior integral
    # is minus the finite part over the disk.
    two_pi = 2.0 * math.pi
    table = {}
    for q in range(MAX_POWER + 1):
        base = math.factorial(q) * two_pi ** (q + 1)
        table[q] = {}
        for a, b, n in _RING_SHAPES:
            if (q - a) % 2 == 0:
                c = -(-1) ** (q // 2) * _finite_part(q, a, b, n) / (2 * math.factorial(q))
                table[q][(a, b, n)] = base * float(c) * radius ** (q - (n - 2 - a - b))
    return table


# ---------------------------------------------------------------------------
# identity table of `netmoment verify-specfun`
# ---------------------------------------------------------------------------

def _gap(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


def _worst(errors: Iterable[float]) -> float:
    """The largest of 0.0 and the errors, but NaN when any error is NaN.

    The builtin max drops a NaN that is not its first argument, which would
    let a routine returning NaN pass its row.
    """
    errors = [0.0, *errors]
    return math.nan if any(math.isnan(err) for err in errors) else max(errors)


# tail closed forms vs the oscillation-aware quadrature
def _tail_vs_quadrature(kind: TailIntegralKind) -> float:
    return _worst(_gap(tail_integral(kind, rho), tail_integral_quadrature(kind, rho))
                  for rho in (0.5, 1.0, 2.0, 5.0, 10.0, 25.0))


# reduction identity for the odd tail int J1/x^(2n+1): the derived form against
# its right side, summed in floats from J1, J1' and the lower tail
def _tail_recursion(n: int) -> float:
    kind = TailIntegralKind(f"j1_over_x_p{2 * n + 1}")
    sides = ((tail_integral(kind, rho), tail_recursion_rhs(n, rho)) for rho in (0.7, 3.0, 12.0))
    return _worst(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300) for lhs, rhs in sides)


# the nodes of the ring identities' angle rule
_RING_NODES = 4096


# The 20 (alpha, m, n) of the odd-symmetry row: the draws of numpy's
# default_rng(12345), in the order uniform(-10, 10), integers(0, 4), integers(0, 4),
# pinned here so that verify-specfun never imports numpy's random module; only a
# command that adds noise does, in noise._generator
_ODD_SYMMETRY_DRAWS = (
    (-5.453279550656607, 3, 1), (5.947309146654682, 2, 2), (-2.1778089879618197, 3, 1),
    (1.9661750717437965, 0, 0), (3.4551208802924265, 2, 3), (-5.03508570740858, 3, 3),
    (3.3447490620074483, 0, 0), (-1.1632066766437443, 0, 3), (3.949069997640443, 0, 1),
    (4.67856326660133, 3, 0), (-8.368108609155838, 1, 0), (-3.197996300905894, 1, 1),
    (-4.671579434184581, 2, 3), (-6.13411221421011, 0, 0), (-8.166704969101282, 0, 2),
    (7.094838087480028, 2, 2), (8.63976722271967, 2, 2), (7.211026347865847, 2, 3),
    (0.9237201816470613, 1, 3), (-0.10024119842351453, 1, 1),
)


# ring integrals that vanish by odd angular symmetry, on the package's angle
# rule, at the pinned draws above
def _odd_symmetry_vanishing() -> float:
    cos_t, sin_t = _angles(_RING_NODES)
    # the powers 0 .. 7 that the draws reach, built per call
    cos_pow = [cos_t**k for k in range(8)]
    sin_pow = [sin_t**k for k in range(8)]

    def draw(alpha: float, m: int, n: int) -> float:
        arg = alpha * cos_t
        cos_arg, sin_arg = np.cos(arg), np.sin(arg)
        vals = [np.sum(trig * cos_pow[a] * sin_pow[b]) * (2.0 * math.pi / _RING_NODES)
                for trig, a, b in ((cos_arg, 2 * m + 1, n), (cos_arg, m, 2 * n + 1),
                                   (sin_arg, m, 2 * n + 1), (sin_arg, 2 * m, n))]
        return float(np.max(np.abs(vals)))

    return _worst(draw(*triple) for triple in _ODD_SYMMETRY_DRAWS)


# J_n(x) as the ring mean of trig(x cos t) cos^n t, n = 0, 1
def _ring_representation(n: int) -> float:
    trig, bessel = (np.cos, bessel_j0) if n == 0 else (np.sin, bessel_j1)
    cos_t = _angles(_RING_NODES)[0]
    return _worst(abs(float(np.mean(trig(x * cos_t) * cos_t**n)) - bessel(x))
                  for x in np.linspace(0.0, 40.0, 81))


# J0' = -J1 by central differences
def _j0_derivative() -> float:
    h = 1e-6
    return _worst(abs((bessel_j0(x + h) - bessel_j0(x - h)) / (2 * h) + bessel_j1(x))
                  for x in np.linspace(0.5, 40.0, 20))


# large-argument form of J0 within x^-1.5 (empirical constant 1)
def _j0_envelope() -> float:
    return _worst(abs(bessel_j0(x) - math.sqrt(2.0 / (math.pi * x)) * math.cos(x - math.pi / 4))
                  - x**-1.5 for x in np.linspace(5.0, 50.0, 46))


# ring integral closed forms vs direct quadrature at three scales
def _ring_closed_forms() -> float:
    pairs = ((sin_cos_components(k1, radius), sin_cos_components_quadrature(k1, radius))
             for k1, radius in ((0.05, 1.0), (0.2, 2.0), (0.5, 3.0)))
    return _worst(_gap(value, ref[shape]) for cf, ref in pairs for shape, value in cf.items())


# Taylor orders 1 (sin) and 0 (cos) vs one-sided differences of the closed
# forms; the integrals carry every power of k1, so one-sided third-order
# extrapolations recover the value and first derivative at 0+
def _taylor_low_orders() -> float:
    radius = 2.0
    table = sin_cos_taylor(radius)
    h = 1e-4 / radius
    sin_w = {(1, 0, 5): 0.7, (1, 0, 7): -0.4, (3, 0, 9): 0.9, (1, 2, 9): 0.3}
    cos_w = {(0, 0, 3): 0.7, (0, 0, 5): -0.4, (2, 0, 7): 0.9, (0, 2, 7): 0.3}

    def contract(w, values) -> float:
        return sum(c * values[shape] for shape, c in w.items())

    comps = [sin_cos_components(j * h, radius) for j in (1, 2, 3)]
    s1, s2, s3 = (contract(sin_w, cf) for cf in comps)
    c1, c2, c3 = (contract(cos_w, cf) for cf in comps)
    return _worst((_gap((18 * s1 - 9 * s2 + 2 * s3) / (6 * h), contract(sin_w, table[1])),
                   _gap(3 * c1 - 3 * c2 + c3, contract(cos_w, table[0]))))


# row name -> (tolerance, check returning the worst error), in report order
IDENTITIES: dict[str, tuple[float, Callable[[], float]]] = {
    **{f"tail:{kind.value}": (1e-8, functools.partial(_tail_vs_quadrature, kind))
       for kind in TailIntegralKind},
    **{f"recursion:n={n}": (1e-10, functools.partial(_tail_recursion, n)) for n in (1, 2, 3)},
    "ring:odd-symmetry-vanishing": (1e-12, _odd_symmetry_vanishing),
    "bessel:j0-ring-representation": (1e-10, functools.partial(_ring_representation, 0)),
    "bessel:j1-ring-representation": (1e-10, functools.partial(_ring_representation, 1)),
    "bessel:j0-derivative": (1e-9, _j0_derivative),
    "bessel:j0-envelope": (0.0, _j0_envelope),
    "ring:sin-cos-closed-forms": (1e-6, _ring_closed_forms),
    "ring:taylor-low-orders": (1e-4, _taylor_low_orders),
}
