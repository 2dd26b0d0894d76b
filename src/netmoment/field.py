"""Normal field of a dipole scene and its far-field expansion.

b3 is the exact closed-form field on the measurement plane.  The thirteen
far-field coefficients are fixed linear combinations of the scene's
monomial moments; b3_asympt sums the corresponding 1/|x|^3 ... 1/|x|^9
terms, whose shapes are the one tuple _TERM_SHAPES, and
asympt_condition_margin gives the exact supremum of the large-disk
applicability condition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scene import DipoleScene, height_moment

__all__ = [
    "AsymptCoeffs",
    "b3",
    "asympt_coefficients",
    "b3_asympt",
    "asympt_condition_margin",
]

_PI = math.pi

# (a, b, n) of each far-field term x1^a x2^b / |x|^n, in AsymptCoeffs.as_array() order
_TERM_SHAPES = (
    (0, 0, 3),                                      # a0
    (1, 0, 5), (0, 1, 5),                           # a1
    (0, 0, 5),                                      # a2
    (2, 0, 7), (0, 2, 7), (1, 1, 7),                # a3
    (1, 0, 7), (0, 1, 7),                           # a4
    (3, 0, 9), (0, 3, 9), (2, 1, 9), (1, 2, 9),     # a5
)

# (node, dipole) pairs b3 evaluates at once: each of its four block buffers is
# 128 KB, small enough to stay in cache
_PAIR_BUDGET = 1 << 14


@dataclass(frozen=True)
class AsymptCoeffs:
    """Far-field expansion coefficients, in field units.

    a0 scales 1/|x|^3; a1 the odd 1/|x|^5 pair; a2 the even 1/|x|^5 term;
    a3 the quadratic 1/|x|^7 triple; a4 the odd 1/|x|^7 pair; a5 the cubic
    1/|x|^9 quadruple.  When the source scene is SI the mu0 factor is folded
    in, matching tesla-valued fields.
    """

    a0: float
    a1: tuple[float, float]
    a2: float
    a3: tuple[float, float, float]
    a4: tuple[float, float]
    a5: tuple[float, float, float, float]

    def scaled(self, factor: float) -> "AsymptCoeffs":
        return AsymptCoeffs(
            a0=self.a0 * factor,
            a1=tuple(v * factor for v in self.a1),
            a2=self.a2 * factor,
            a3=tuple(v * factor for v in self.a3),
            a4=tuple(v * factor for v in self.a4),
            a5=tuple(v * factor for v in self.a5),
        )

    def as_array(self) -> np.ndarray:
        return np.array([self.a0, *self.a1, self.a2, *self.a3, *self.a4, *self.a5])


def _positive_radius(radius) -> float:
    """radius as a float; NaN, infinite and nonpositive radii raise ValueError."""
    radius = float(radius)
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    return radius


def b3(scene: DipoleScene, x) -> np.ndarray | float:
    """Exact normal field on the plane x3 = height at planar points x.

    x may be a single 2-vector or an (..., 2) array; the return matches.
    The points are taken in blocks of consecutive nodes holding at most
    _PAIR_BUDGET (node, dipole) pairs, or one node when the scene has more
    dipoles than that, so memory does not grow with the number of points.
    Every block is computed in the same four reused buffers, with the same
    operations in the same order as the one-pass formula
        mu0/(4 pi) * sum_d [3u (dx1 m1 + dx2 m2) + (2u^2 - r^2) m3] / (r^2 + u^2)^2.5,
    and each point's dipole sum is one contiguous row reduction, so the values
    do not depend on the block size.  The eight per-dipole operands are tiled
    once per call to the block's shape (at most 8 x 128 KB): broadcast over a
    block, a length-n_dipoles row makes numpy run one short inner loop per
    node, which for a few dipoles costs more than the arithmetic.  Only the two
    node subtractions and the row sum are left on the short dipole axis.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[-1] != 2:
        raise ValueError("evaluation points must have 2 components")
    pts = pts.reshape(-1, 2)
    vals = np.zeros(len(pts))
    n_dip = len(scene.dipoles)
    if n_dip:
        p1, p2, t3 = scene.positions.T
        m1, m2, m3 = scene.moments.T
        u = scene.height - t3                         # h - t3 > 0 per scene invariant
        u2 = u**2
        step = max(1, _PAIR_BUDGET // n_dip)
        rows = min(step, len(pts))
        # the per-dipole operands tiled to the block's shape (see the docstring)
        tiles = np.repeat(np.stack([p1, p2, m1, m2, m3, u2, 3.0 * u, 2.0 * u2])[:, None],
                          rows, axis=1)
        bufs = np.empty((4, rows, n_dip))
        for lo in range(0, len(pts), step):
            block = pts[lo:lo + step]
            a, b, r2, den = bufs[:, :len(block)]
            p1, p2, m1, m2, m3, u2, three_u, two_u2 = tiles[:, :len(block)]
            np.subtract(block[:, 0, None], p1, out=a)         # dx1
            np.subtract(block[:, 1, None], p2, out=b)         # dx2
            np.square(a, out=r2)
            np.square(b, out=den)
            np.add(r2, den, out=r2)                           # r^2
            np.multiply(a, m1, out=a)
            np.multiply(b, m2, out=b)
            np.add(a, b, out=a)
            np.multiply(three_u, a, out=a)
            np.subtract(two_u2, r2, out=b)
            np.multiply(b, m3, out=b)
            np.add(a, b, out=a)                               # numerator
            np.add(r2, u2, out=r2)
            np.power(r2, 2.5, out=den)
            np.divide(a, den, out=a)
            np.sum(a, axis=-1, out=vals[lo:lo + step])
        vals *= scene.mu0 / (4.0 * _PI)
    return float(vals[0]) if scalar else vals.reshape(x.shape[:-1])


def asympt_coefficients(scene: DipoleScene) -> AsymptCoeffs:
    """The thirteen far-field coefficients from the scene moments."""
    def hm(p, q, r, n):
        return height_moment(scene, p, q, r, n)

    m3 = hm(0, 0, 0, 3)
    a0 = -m3 / (4 * _PI)
    a1 = (
        3 / (4 * _PI) * (hm(1, 0, 0, 1) - hm(0, 1, 0, 3)),
        3 / (4 * _PI) * (hm(1, 0, 0, 2) - hm(0, 0, 1, 3)),
    )
    a2 = -3 / (8 * _PI) * (
        2 * hm(1, 1, 0, 1) + 2 * hm(1, 0, 1, 2)
        - 3 * hm(2, 0, 0, 3) - hm(0, 2, 0, 3) - hm(0, 0, 2, 3)
    )
    a3 = (
        15 / (8 * _PI) * (2 * hm(1, 1, 0, 1) - hm(0, 2, 0, 3)),
        15 / (8 * _PI) * (2 * hm(1, 0, 1, 2) - hm(0, 0, 2, 3)),
        15 / (4 * _PI) * (hm(1, 0, 1, 1) + hm(1, 1, 0, 2) - hm(0, 1, 1, 3)),
    )
    a4 = (
        -15 / (8 * _PI) * (
            3 * hm(1, 2, 0, 1) + hm(1, 0, 2, 1) + hm(3, 0, 0, 1) + 2 * hm(1, 1, 1, 2)
            - hm(0, 3, 0, 3) - hm(0, 1, 2, 3) - 3 * hm(2, 1, 0, 3)
        ),
        -15 / (8 * _PI) * (
            3 * hm(1, 0, 2, 2) + hm(1, 2, 0, 2) + hm(3, 0, 0, 2) + 2 * hm(1, 1, 1, 1)
            - hm(0, 0, 3, 3) - hm(0, 2, 1, 3) - 3 * hm(2, 0, 1, 3)
        ),
    )
    a5 = (
        35 / (8 * _PI) * (3 * hm(1, 2, 0, 1) - hm(0, 3, 0, 3)),
        35 / (8 * _PI) * (3 * hm(1, 0, 2, 2) - hm(0, 0, 3, 3)),
        105 / (8 * _PI) * (hm(1, 2, 0, 2) + 2 * hm(1, 1, 1, 1) - hm(0, 2, 1, 3)),
        105 / (8 * _PI) * (hm(1, 0, 2, 1) + 2 * hm(1, 1, 1, 2) - hm(0, 1, 2, 3)),
    )
    coeffs = AsymptCoeffs(a0=a0, a1=a1, a2=a2, a3=a3, a4=a4, a5=a5)
    return coeffs.scaled(scene.mu0) if scene.unit_system == "si" else coeffs


def b3_asympt(coeffs: AsymptCoeffs, x) -> np.ndarray | float:
    """Far-field expansion at planar points x (|x| > 0 required)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = np.atleast_2d(x)
    x1 = pts[..., 0]
    x2 = pts[..., 1]
    r2 = x1**2 + x2**2
    if np.any(r2 == 0.0):
        raise ValueError("b3_asympt is singular at x = (0, 0)")
    r = np.sqrt(r2)
    vals = sum(c * x1**a * x2**b / r**n
               for c, (a, b, n) in zip(coeffs.as_array(), _TERM_SHAPES))
    return float(vals[0]) if scalar else vals.reshape(x.shape[:-1])


def asympt_condition_margin(scene: DipoleScene, radius: float) -> float:
    """Exact sup of the large-disk condition over |x| >= radius and the dipoles.

    Per dipole the sup is attained on |x| = radius with x antiparallel to the
    horizontal offset, giving (t1^2 + t2^2 + (h-t3)^2 + 2 A sqrt(t1^2+t2^2))/A^2.
    The expansion machinery applies iff the returned margin is < 1.
    """
    radius = _positive_radius(radius)
    if not len(scene.dipoles):
        return 0.0
    p = scene.positions
    u = scene.height - p[:, 2]
    tperp2 = p[:, 0]**2 + p[:, 1]**2
    vals = (tperp2 + u**2 + 2.0 * radius * np.sqrt(tperp2)) / radius**2
    return float(vals.max())
