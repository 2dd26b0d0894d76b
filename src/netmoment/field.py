"""Normal field of a dipole scene and its far-field expansion.

b3 is the exact closed-form field on the measurement plane.  The thirteen
far-field coefficients are linear combinations of the scene's height
moments, derived once at import by the binomial expansion of b3's own
formula (_far_field_rows), which also names the terms: each is keyed by its
shape (a, b, n), for x1^a x2^b / |x|^n, from 1/|x|^3 to 1/|x|^9.  b3_asympt
sums them; specfun and estimate key their terms by the same shapes, and
derive the ring Taylor rows and the estimator rows from the one finite-part
rule, _finite_part.  asympt_condition_margin gives the exact supremum of the
large-disk applicability condition.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator

import numpy as np

from ._checks import _positive
from .scene import DipoleScene, height_moment

__all__ = [
    "AsymptCoeffs",
    "b3",
    "asympt_coefficients",
    "b3_asympt",
    "asympt_condition_margin",
]

_PI = math.pi

# The far-field coefficients keyed by term shape (a, b, n), for x1^a x2^b / |x|^n,
# in field units (mu0 folded in for SI scenes).  The paper's names: a0 = (0, 0, 3);
# a1 = (1, 0, 5), (0, 1, 5); a2 = (0, 0, 5); a3 = (2, 0, 7), (0, 2, 7), (1, 1, 7);
# a4 = (1, 0, 7), (0, 1, 7); a5 = (3, 0, 9), (0, 3, 9), (2, 1, 9), (1, 2, 9).
AsymptCoeffs = dict[tuple[int, int, int], float]


# The finite part of iint_{|x|<A} x1^p * x1^a x2^b / |x|^n, per pi A^(p-e): the
# exterior integral continued analytically, ang(p+a, b) / (p - e) with
# e = n - 2 - a - b and ang(a, b) = (1/pi) int_0^2pi cos^a sin^b, which is
# 2 (a-1)!! (b-1)!! / (a+b)!! for even a and b and 0 otherwise; parity rules
# out the logarithmic case p = e.
def _finite_part(p: int, a: int, b: int, n: int) -> Fraction:
    if (p + a) % 2 or b % 2:
        return Fraction(0)
    ang = Fraction(2 * math.prod(range(p + a - 1, 0, -2)) * math.prod(range(b - 1, 0, -2)),
                   math.prod(range(p + a + b, 0, -2)))
    return ang / (p - (n - 2 - a - b))


# (node, dipole) pairs b3 evaluates at once: each of its four block buffers is
# 128 KB, small enough to stay in cache
_PAIR_BUDGET = 1 << 14

# numpy sums a contiguous row shorter than this left to right from 0, as an
# axis-0 reduction does; from here on it sums pairwise, so b3 lays its blocks
# out dipole-major only below it
_SEQUENTIAL_ROW_SUM = 8


def _points(x) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray | float]]:
    """Planar points x, a 2-vector or an (..., 2) array, as an (M, 2) array,
    and the map of M values back to x's shape (a float for a 2-vector).
    A ValueError names the first point that is not finite."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if pts.shape[-1] != 2:
        raise ValueError("evaluation points must have 2 components")
    pts = pts.reshape(-1, 2)
    if not np.isfinite(pts).all():
        bad = pts[np.argmin(np.isfinite(pts).all(axis=1))]
        raise ValueError(f"evaluation point {bad.tolist()} is not finite")
    return pts, lambda vals: (float(vals[0]) if x.ndim == 1 else vals.reshape(x.shape[:-1]))


def b3(scene: DipoleScene, x) -> np.ndarray | float:
    """Exact normal field on the plane x3 = height at planar points x.

    x may be a single 2-vector or an (..., 2) array; the return matches.
    A point that is not finite, or far enough out that q^2.5 may overflow
    (the rule of _refuse_b3_overflow at the largest |x|), is refused with a
    ValueError naming it.  The points are taken in blocks of consecutive
    nodes holding at most _PAIR_BUDGET (node, dipole) pairs, or one node
    when the scene has more dipoles than that, so memory does not grow with
    the number of points.
    Every block is computed in the same four reused buffers, with the same
    operations in the same order as the one-pass formula
        mu0/(4 pi) * sum_d [dx1 (3u m1) + dx2 (3u m2) + (2u^2 - r^2) m3] / (sqrt(q) q q)
    with r^2 = dx1^2 + dx2^2 and q = r^2 + u^2, and each point's dipole sum
    adds in the order of a contiguous row sum, so the values depend on
    neither the block size nor the layout.  q^2.5 is sqrt(q) times q twice:
    a square root and two products cost about half of one pow.

    The points reach the kernel as (2, k) blocks of x1 and x2 rows, copied
    from x (_row_blocks); sample_field hands it a grid's own walk of its
    nodes (quad.DiskGrid._row_blocks) instead.  The layout follows the
    dipole count.  From _SEQUENTIAL_ROW_SUM dipoles on, a block is (nodes x
    dipoles) and the seven per-dipole operands are tiled once per call to
    its shape (at most 7 x 128 KB).  Below that, a short last axis would
    make numpy run one tiny inner loop per node, so a block is (dipoles x
    nodes), the operands are (dipoles x 1) columns and the dipole sum is a
    reduction over axis 0.  That adds left to right from 0, as numpy's sum
    of a contiguous row shorter than _SEQUENTIAL_ROW_SUM does; longer rows
    are summed pairwise, so the switch sits where the bits would change.
    """
    pts, shaped = _points(x)
    if len(pts):
        far = np.argmax(np.hypot(*pts.T))
        _refuse_b3_overflow(scene, math.hypot(*pts[far]),
                            f"evaluation point {pts[far].tolist()}")
    return shaped(_b3_kernel(scene, len(pts), _row_blocks(pts)))


def _row_blocks(pts: np.ndarray) -> Iterator[np.ndarray]:
    """The (M, 2) points pts as consecutive (2, k) blocks of their x1 and x2
    rows, k <= _PAIR_BUDGET, copied into one buffer that each block reuses."""
    rows = np.empty((2, min(_PAIR_BUDGET, len(pts))))
    for lo in range(0, len(pts), _PAIR_BUDGET):
        n = min(_PAIR_BUDGET, len(pts) - lo)
        np.copyto(rows[:, :n], pts[lo:lo + n].T)
        yield rows[:, :n]


def _refuse_b3_overflow(scene: DipoleScene, radius: float, name: str | None = None) -> None:
    """A ValueError naming the radius (or name, when given) if b3's q^2.5 overflows on the
    disk of that radius, where q = |x - t|^2 + u^2 <= (radius + |(t1, t2)|)^2 + u^2; numpy's
    products reach inf where ** would raise OverflowError."""
    with np.errstate(over="ignore"):
        reach = radius + np.hypot(*scene.positions[:, :2].T)
        q = float(np.max(reach * reach + scene.depths * scene.depths, initial=0.0))
    if not math.sqrt(q) * q * q < math.inf:
        raise ValueError(f"{name or f'radius {radius!r}'} is out of range: "
                         "b3's q ** 2.5 overflows")


def _b3_kernel(scene: DipoleScene, n_points: int,
               row_blocks: Iterable[np.ndarray]) -> np.ndarray:
    """b3's values at n_points planar points, given as consecutive (2, k) blocks
    of x1 and x2 rows, each row contiguous (a block may reuse the memory of the
    one before), cut into blocks of at most _PAIR_BUDGET pairs as b3 describes."""
    vals = np.zeros(n_points)
    n_dip = len(scene.dipoles)
    if n_dip:
        p1, p2, _ = scene.positions.T
        m1, m2, m3 = scene.moments.T
        u = scene.depths
        u2 = u * u
        three_u = 3.0 * u
        step = max(1, _PAIR_BUDGET // n_dip)
        size = min(step, n_points)
        operands = np.stack([p1, p2, three_u * m1, three_u * m2, m3, u2, 2.0 * u2])
        dipole_major = n_dip < _SEQUENTIAL_ROW_SUM
        if dipole_major:
            operands = operands[:, :, None]
            # rows padded by one cache line: on a buffer contiguous across rows
            # numpy's ufunc loop runs up to 8192 elements across rows at a time
            # and copies each operand column into its own buffer to do so,
            # which makes the column ops about 3x slower from 4 dipoles on
            bufs = np.empty((4, n_dip, size + 8))
        else:
            operands = np.repeat(operands[:, None], size, axis=1)
            bufs = np.empty((4, size, n_dip))
        blocks = (rows[:, i:i + step] for rows in row_blocks
                  for i in range(0, rows.shape[1], step))
        lo = 0
        for x1, x2 in blocks:
            n = len(x1)
            if dipole_major:
                a, b, r2, den = bufs[..., :n]
                p1, p2, um1, um2, m3, u2, two_u2 = operands
            else:
                x1, x2 = x1[:, None], x2[:, None]
                a, b, r2, den = bufs[:, :n]
                p1, p2, um1, um2, m3, u2, two_u2 = operands[:, :n]
            np.subtract(x1, p1, out=a)                        # dx1
            np.subtract(x2, p2, out=b)                        # dx2
            np.square(a, out=r2)
            np.square(b, out=den)
            np.add(r2, den, out=r2)                           # r^2
            np.multiply(a, um1, out=a)                        # dx1 (3u m1)
            np.multiply(b, um2, out=b)                        # dx2 (3u m2)
            np.add(a, b, out=a)
            np.subtract(two_u2, r2, out=b)
            np.multiply(b, m3, out=b)
            np.add(a, b, out=a)                               # numerator
            np.add(r2, u2, out=r2)                            # q
            np.sqrt(r2, out=den)
            np.multiply(den, r2, out=den)
            np.multiply(den, r2, out=den)                     # q^2.5
            np.divide(a, den, out=a)
            np.add.reduce(a, axis=0 if dipole_major else -1, out=vals[lo:lo + n])
            lo += n
        vals *= scene.mu0 / (4.0 * _PI)
    return vals


# The far-field coefficients follow from b3's own formula.  Per dipole,
#   4 pi B3 / mu0 = [3u (m1 y1 + m2 y2) + (2u^2 - |y|^2) m3] (|y|^2 + u^2)^(-5/2)
# with y = x - t and u = h - t3.  Write |y|^2 + u^2 = |x|^2 (1 + s) with
# s = (-2 x.t + |t|^2 + u^2) / |x|^2 and expand (1 + s)^(-5/2) by the binomial
# series, keeping |x|^2 a symbol (it lowers n) and the terms of degree <= 3 in
# (u, t1, t2).  Each term c u^p t1^q t2^r m_k x1^a x2^b / |x|^n then adds
# c <u^p t1^q t2^r M_k> / (4 pi) to the coefficient of shape (a, b, n).
def _far_field_rows() -> dict[tuple[int, int, int], dict[tuple[int, int, int, int], Fraction]]:
    """{(a, b, n): {(p, q, r, k): c}} over the shapes of the expansion above."""
    # a polynomial is {(p, q, r, a, b, n): c} for the sum of c u^p t1^q t2^r x1^a x2^b / |x|^n
    def mul(f, g):
        out = {}
        for e, c in f.items():
            for e2, c2 in g.items():
                key = tuple(i + j for i, j in zip(e, e2))
                if sum(key[:3]) <= 3:
                    out[key] = out.get(key, 0) + c * c2
        return out

    s = {(0, 1, 0, 1, 0, 2): -2, (0, 0, 1, 0, 1, 2): -2,
         (0, 2, 0, 0, 0, 2): 1, (0, 0, 2, 0, 0, 2): 1, (2, 0, 0, 0, 0, 2): 1}
    # |x|^-5 (1 + s)^(-5/2); every term of s has degree >= 1, so s^3 is the last needed
    series, s_j, binom = {}, {(0, 0, 0, 0, 0, 5): 1}, Fraction(1)
    for j in range(4):
        for e, c in s_j.items():
            series[e] = series.get(e, 0) + binom * c
        s_j, binom = mul(s_j, s), binom * (Fraction(-5, 2) - j) / (j + 1)
    numerators = {  # 3u y1, 3u y2 and 2u^2 - |y|^2 = 2u^2 - |x|^2 + 2 x.t - |t|^2
        1: {(1, 0, 0, 1, 0, 0): 3, (1, 1, 0, 0, 0, 0): -3},
        2: {(1, 0, 0, 0, 1, 0): 3, (1, 0, 1, 0, 0, 0): -3},
        3: {(2, 0, 0, 0, 0, 0): 2, (0, 0, 0, 0, 0, -2): -1, (0, 1, 0, 1, 0, 0): 2,
            (0, 0, 1, 0, 1, 0): 2, (0, 2, 0, 0, 0, 0): -1, (0, 0, 2, 0, 0, 0): -1},
    }
    rows = {}
    for k, numerator in numerators.items():
        for (p, q, r, a, b, n), c in mul(numerator, series).items():
            rows.setdefault((a, b, n), {})[(p, q, r, k)] = c
    return rows


# {shape: {(p, q, r, k): c}}: coefficient = sum c <u^p t1^q t2^r M_k> / (4 pi)
_FAR_FIELD_ROWS = _far_field_rows()


def asympt_coefficients(scene: DipoleScene) -> AsymptCoeffs:
    """The thirteen far-field coefficients, keyed by shape, from the scene's height moments."""
    return {shape: math.fsum(float(c) * height_moment(scene, *key) for key, c in row.items())
            / (4 * _PI) * scene.mu0 for shape, row in _FAR_FIELD_ROWS.items()}


def b3_asympt(coeffs: AsymptCoeffs, x) -> np.ndarray | float:
    """Far-field expansion at planar points x (|x| > 0 required), over any set of shapes."""
    pts, shaped = _points(x)
    x1, x2 = pts.T
    r2 = x1**2 + x2**2
    if np.any(r2 == 0.0):
        raise ValueError("b3_asympt is singular at x = (0, 0)")
    r = np.sqrt(r2)
    # the zero start keeps the points' shape when coeffs is empty
    vals = sum((c * x1**a * x2**b / r**n for (a, b, n), c in coeffs.items()), np.zeros_like(r))
    return shaped(vals)


def asympt_condition_margin(scene: DipoleScene, radius: float) -> float:
    """Exact sup of the large-disk condition over |x| >= radius and the dipoles.

    Per dipole the sup is attained on |x| = radius with x antiparallel to the
    horizontal offset, giving (t1^2 + t2^2 + (h-t3)^2 + 2 A sqrt(t1^2+t2^2))/A^2.
    The expansion machinery applies iff the returned margin is < 1.
    """
    radius = _positive(radius, "radius must be positive and finite")
    p = scene.positions
    tperp2 = p[:, 0]**2 + p[:, 1]**2
    # numpy's power has the bits of radius**2, but is inf past the float range
    # (a margin of 0) instead of raising, and a tiny radius has a margin of inf
    with np.errstate(divide="ignore", over="ignore"):
        vals = (tperp2 + scene.depths**2 + 2.0 * radius * np.sqrt(tperp2)) / np.float64(radius)**2
    # an empty scene has a margin of 0
    return float(vals.max(initial=0.0))
