"""Independent oracles used by the test suite.

Each oracle reaches a tested quantity by a different route than the library:
exact Taylor coefficients of the dipole Fourier transform, harmonic-resolved
ring fits of the raw field, high-precision one-sided differences of the ring
integrals, closed-form polynomial disk integrals, a dense-grid maximisation
of the far-field condition expression, the tabulated Taylor rows of the ring
integrals, the hand-expanded far-field coefficients, the hand-tabulated
estimator rows with the T-quantity and leading-error formulas, the Bessel
and Struve series summed term by term in reduced `Fraction`s, the hand-typed
tail and ring closed forms with the Taylor coefficients of the functions
they are written in, the Euler transform of one panel series held as a
list, the monomial disk moments of a field map summed node by node in
exact arithmetic, the raster drift series computed over whole-raster
arrays or with every power taken pixel by pixel, and the angular rule of the
ring integrals summed over every node of the circle.  The library
keys each far-field coefficient by its term's shape (a, b, n) alone; the
paper's names and order for them are kept here, in PAPER_NAMES.
"""
from __future__ import annotations

import csv
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from netmoment import AsymptCoeffs, DipoleScene, FieldMap, b3, height_moment
from netmoment.estimate import _CLOSURE, _apply, _ascending_radii, _estimator_row
from netmoment.noise import _noisy

# The paper's name of each far-field coefficient group and the shapes (a, b, n)
# of its terms x1^a x2^b / |x|^n, in the paper's order.
PAPER_NAMES = {
    "a0": ((0, 0, 3),),
    "a1": ((1, 0, 5), (0, 1, 5)),
    "a2": ((0, 0, 5),),
    "a3": ((2, 0, 7), (0, 2, 7), (1, 1, 7)),
    "a4": ((1, 0, 7), (0, 1, 7)),
    "a5": ((3, 0, 9), (0, 3, 9), (2, 1, 9), (1, 2, 9)),
}
PAPER_ORDER = tuple(shape for shapes in PAPER_NAMES.values() for shape in shapes)


def named(coeffs: AsymptCoeffs) -> SimpleNamespace:
    """The coefficients by the paper's names: a0 and a2 floats, a1, a3, a4, a5 tuples."""
    return SimpleNamespace(**{
        name: coeffs[shapes[0]] if len(shapes) == 1 else tuple(coeffs[s] for s in shapes)
        for name, shapes in PAPER_NAMES.items()})


def from_paper_order(values) -> AsymptCoeffs:
    """The shape-keyed coefficients of thirteen values in the paper's order."""
    return dict(zip(PAPER_ORDER, map(float, values), strict=True))


def b3_unchunked(scene: DipoleScene, x) -> np.ndarray | float:
    """The normal field with all (point, dipole) pairs in one set of arrays."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[-1] != 2:
        raise ValueError("evaluation points must have 2 components")
    if not len(scene.dipoles):
        out = np.zeros(pts.shape[:-1])
        return float(out[0]) if scalar else out.reshape(x.shape[:-1])
    pos = scene.positions
    mom = scene.moments
    u = scene.height - pos[:, 2]                      # h - t3 > 0 per scene invariant
    dx1 = pts[..., 0, None] - pos[:, 0]
    dx2 = pts[..., 1, None] - pos[:, 1]
    r2 = dx1**2 + dx2**2
    # the ops of b3 in its order: 3u folded into m1 and m2, q^2.5 as sqrt(q) q q
    num = (dx1 * ((3.0 * u) * mom[:, 0]) + dx2 * ((3.0 * u) * mom[:, 1])
           + (2.0 * u**2 - r2) * mom[:, 2])
    q = r2 + u**2
    vals = (scene.mu0 / (4.0 * math.pi)) * np.sum(num / (np.sqrt(q) * q * q), axis=-1)
    return float(vals[0]) if scalar else vals.reshape(x.shape[:-1])


def write_field_csv_rows(field_map: FieldMap, path: str) -> None:
    """The field-map CSV written one csv.writer row per node."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "weight", "b3"])
        for (x1, x2), w, s in zip(field_map.grid.nodes, field_map.grid.weights,
                                  field_map.samples):
            writer.writerow([repr(float(x1)), repr(float(x2)),
                             repr(float(w)), repr(float(s))])


def read_field_csv_rows(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nodes, weights, samples) of a field-map CSV parsed one csv.reader row at a time."""
    nodes, weights, samples = [], [], []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["x1", "x2", "weight", "b3"]:
            raise ValueError(f"unexpected field CSV header {header!r} in {path}")
        for row in reader:
            x1, x2, w, s = map(float, row)
            nodes.append((x1, x2))
            weights.append(w)
            samples.append(s)
    return np.array(nodes), np.array(weights), np.array(samples)


def raster_m3_drift_series_whole(scene: DipoleScene, radii, spec, noise,
                                 n_pixels: int = 256) -> list[tuple[float, float]]:
    """The raster drift series with every whole-raster array alive at once.

    A meshgrid of the pixel centres, all four radius-sorted arrays side by
    side and one full cumulative sum per power of the row.
    """
    row, j = _estimator_row(spec)
    radii = _ascending_radii(radii)
    r_max = radii[-1]
    step = 2.0 * r_max / n_pixels
    centers = -r_max + step * (np.arange(n_pixels) + 0.5)
    gx, gy = np.meshgrid(centers, centers, indexing="ij")
    r2 = (gx**2 + gy**2).ravel()
    inside = r2 <= r_max**2
    pts = np.stack([gx.ravel()[inside], gy.ravel()[inside]], axis=-1)
    samples = b3(scene, pts)
    if noise is not None:
        samples = _noisy(samples, noise)
    order = np.argsort(r2[inside])
    r_sorted = np.sqrt(r2[inside][order])
    u = pts[order, j] / r_max
    sv = samples[order] * step * step
    cums = {p: np.cumsum(u**p * sv) for p in row}
    idx = np.searchsorted(r_sorted, radii, side="right") - 1
    out = []
    for a, i in zip(radii, idx):
        mu = {p: cums[p][i] * (r_max / a) ** p for p in row}
        out.append((a, a * _apply(row, mu) / scene.mu0))
    return out



def raster_m3_drift_series_per_pixel(scene: DipoleScene, radii, spec, noise,
                                     n_pixels: int = 256) -> list[tuple[float, float]]:
    """The raster drift series taking every power u^p pixel by pixel.

    The library takes u^p once per pixel line and gathers it per pixel; this
    raises each pixel's own u = x_j / r_max to the power, as the library did
    before, with the same memory-lean arrays otherwise.
    """
    row, j = _estimator_row(spec)
    radii = _ascending_radii(radii)
    r_max = radii[-1]
    step = 2.0 * r_max / n_pixels
    centers = -r_max + step * (np.arange(n_pixels) + 0.5)
    along = np.broadcast_to(centers, (n_pixels, n_pixels))
    axes = (along.T, along)
    r2 = np.add.outer(centers**2, centers**2)
    inside = r2 <= r_max**2
    r2 = r2[inside]
    samples = b3(scene, np.stack([axes[0][inside], axes[1][inside]], axis=-1))
    if noise is not None:
        samples = _noisy(samples, noise)
    order = np.argsort(r2)
    idx = np.searchsorted(np.sqrt(r2[order]), radii, side="right") - 1
    u = axes[j][inside][order] / r_max
    sv = samples[order] * step * step
    cums = {p: np.cumsum(u**p * sv)[idx] for p in row}
    out = []
    for k, a in enumerate(radii):
        mu = {p: cums[p][k] * (r_max / a) ** p for p in row}
        out.append((a, a * _apply(row, mu) / scene.mu0))
    return out

def ft_series_coefficient(scene: DipoleScene, q: int) -> tuple[float, float]:
    """Coefficient of k1^q in (Im, Re) of the planar Fourier transform.

    For a dipole ensemble the transform along the k1 axis is, for k1 > 0,

        pi * sum_d k1 e^(-2 pi u k1) [ (m1 cos + m3 sin)(2 pi t1 k1) ]   (Im)
        pi * sum_d k1 e^(-2 pi u k1) [ (m3 cos - m1 sin)(2 pi t1 k1) ]   (Re)

    whose power series follows from multiplying the exponential and trig
    series; this never touches the moment-combination formulas under test.
    """
    im = 0.0
    re = 0.0
    p = q - 1
    if p < 0:
        return 0.0, 0.0
    for pos, mom in zip(scene.positions, scene.moments):
        u = scene.height - pos[2]
        t1 = pos[0]
        cos_part = math.fsum(
            (-2 * math.pi * u) ** i / math.factorial(i)
            * (-1) ** (j // 2) * (2 * math.pi * t1) ** j / math.factorial(j)
            for i in range(p + 1) for j in (p - i,) if j % 2 == 0
        )
        sin_part = math.fsum(
            (-2 * math.pi * u) ** i / math.factorial(i)
            * (-1) ** ((j - 1) // 2) * (2 * math.pi * t1) ** j / math.factorial(j)
            for i in range(p + 1) for j in (p - i,) if j % 2 == 1
        )
        im += math.pi * (mom[0] * cos_part + mom[2] * sin_part)
        re += math.pi * (mom[2] * cos_part - mom[0] * sin_part)
    return im * scene.mu0, re * scene.mu0


def ft_im_direct(scene: DipoleScene, k1: float) -> float:
    """Im of the transform at a finite k1 > 0 from the same closed form."""
    total = 0.0
    for pos, mom in zip(scene.positions, scene.moments):
        u = scene.height - pos[2]
        total += math.pi * k1 * math.exp(-2 * math.pi * u * k1) * (
            mom[0] * math.cos(2 * math.pi * pos[0] * k1)
            + mom[2] * math.sin(2 * math.pi * pos[0] * k1)
        )
    return total * scene.mu0


def ring_harmonic_fit(scene: DipoleScene, r_lo: float, r_hi: float,
                      n_radii: int = 24, n_theta: int = 256) -> dict[str, float]:
    """Identifiable far-field functionals fitted from raw field samples.

    Samples the exact field on a far ring, resolves angular harmonics by FFT,
    and fits each harmonic against its radial power ladder (with one nuisance
    power absorbing the next expansion order).  The thirteen expansion
    coefficients are only identifiable through ten functionals:

        a0 | a1_1, a1_2 | s0 = a2 + (a3_1 + a3_2)/2 | c2 = (a3_1 - a3_2)/2
        s2 = a3_3/2 | c13 = a4_1 + (3 a5_1 + a5_4)/4
        s13 = a4_2 + (3 a5_2 + a5_3)/4 | c33 = (a5_1 - a5_4)/4
        s33 = (a5_3 - a5_2)/4
    """
    radii = np.geomspace(r_lo, r_hi, n_radii)
    theta = 2 * math.pi * np.arange(n_theta) / n_theta
    pts = np.stack([np.outer(radii, np.cos(theta)), np.outer(radii, np.sin(theta))],
                   axis=-1)
    vals = b3(scene, pts) * radii[:, None] ** 3
    spec = np.fft.rfft(vals, axis=1) / n_theta
    harm = {
        (0, "c"): spec[:, 0].real,
        (1, "c"): 2 * spec[:, 1].real,
        (1, "s"): -2 * spec[:, 1].imag,
        (2, "c"): 2 * spec[:, 2].real,
        (2, "s"): -2 * spec[:, 2].imag,
        (3, "c"): 2 * spec[:, 3].real,
        (3, "s"): -2 * spec[:, 3].imag,
    }

    def fit(y: np.ndarray, powers: tuple[int, ...]) -> np.ndarray:
        cols = np.stack([radii ** (-p) for p in powers], axis=1)
        scale = np.abs(cols).max(axis=0)
        sol, *_ = np.linalg.lstsq(cols / scale, y, rcond=None)
        return sol / scale

    out = {}
    out["a0"], out["s0"], _ = fit(harm[(0, "c")], (0, 2, 4))
    out["a1_1"], out["c13"], _ = fit(harm[(1, "c")], (1, 3, 5))
    out["a1_2"], out["s13"], _ = fit(harm[(1, "s")], (1, 3, 5))
    out["c2"], _ = fit(harm[(2, "c")], (2, 4))
    out["s2"], _ = fit(harm[(2, "s")], (2, 4))
    out["c33"], _ = fit(harm[(3, "c")], (3, 5))
    out["s33"], _ = fit(harm[(3, "s")], (3, 5))
    return out


def identifiable_functionals(coeffs: AsymptCoeffs) -> dict[str, float]:
    """The same ten functionals computed from an exact coefficient set."""
    coeffs = named(coeffs)
    a3_1, a3_2, a3_3 = coeffs.a3
    a5_1, a5_2, a5_3, a5_4 = coeffs.a5
    return {
        "a0": coeffs.a0,
        "a1_1": coeffs.a1[0],
        "a1_2": coeffs.a1[1],
        "s0": coeffs.a2 + (a3_1 + a3_2) / 2,
        "c2": (a3_1 - a3_2) / 2,
        "s2": a3_3 / 2,
        "c13": coeffs.a4[0] + (3 * a5_1 + a5_4) / 4,
        "s13": coeffs.a4[1] + (3 * a5_2 + a5_3) / 4,
        "c33": (a5_1 - a5_4) / 4,
        "s33": (a5_3 - a5_2) / 4,
    }


def disk_monomial_integral(radius: float, a: int, b: int) -> float:
    """Exact iint over the disk of x1^a x2^b."""
    if a % 2 or b % 2:
        return 0.0

    def half_fact(n):  # (n-1)!! for even n entering the angular average
        out = 1
        for k in range(1, n, 2):
            out *= k
        return out

    n = a + b
    # angular integral of cos^a sin^b over the full circle
    ang = 2 * math.pi * half_fact(a) * half_fact(b) / math.prod(range(2, n + 2, 2))
    return radius ** (n + 2) / (n + 2) * ang


def disk_moments_fsum(field_map: FieldMap) -> tuple[np.ndarray, np.ndarray]:
    """(mu, scale): mu[j, p] = sum over nodes of (x_j / A)^p * w * s, each sum
    rounded once by math.fsum, and scale[j, p] = sum of the terms' magnitudes."""
    radius = field_map.radius
    ws = field_map.grid.weights * field_map.samples
    mu, scale = np.empty((2, 12)), np.empty((2, 12))
    for j in (0, 1):
        u = field_map.grid.nodes[:, j] / radius
        for p in range(12):
            terms = (u**p * ws).tolist()
            mu[j, p] = math.fsum(terms)
            scale[j, p] = math.fsum(map(abs, terms))
    return mu, scale


def condition_margin_bruteforce(scene: DipoleScene, radius: float,
                                n_angles: int = 720, n_radii: int = 400,
                                r_max_factor: float = 50.0) -> float:
    """Dense-grid maximisation of the condition expression over |x| >= radius."""
    if not len(scene.dipoles):
        return 0.0
    best = 0.0
    angles = 2 * math.pi * np.arange(n_angles) / n_angles
    radii = radius * np.exp(np.linspace(0.0, math.log(r_max_factor), n_radii))
    x1 = np.outer(radii, np.cos(angles)).ravel()
    x2 = np.outer(radii, np.sin(angles)).ravel()
    rr = x1**2 + x2**2
    for dip, u in zip(scene.positions, scene.height - scene.positions[:, 2]):
        t1, t2 = dip[0], dip[1]
        expr = np.abs((t1 * t1 + t2 * t2 + u * u) / rr - 2 * (x1 * t1 + x2 * t2) / rr)
        best = max(best, float(expr.max()))
    return best


def high_precision_ring_fd(radius: float, coeff_sets, dps: int = 60):
    """One-sided derivatives of the ring integrals at k1 = 0+, via mpmath.

    Evaluates the closed forms at high precision on a geometric ladder of
    tiny k1 values, then solves the odd/even Vandermonde systems so the
    derivative extraction itself is independent of the Taylor table.
    Returns ({order: value} for the sin side, {order: value} for cos),
    contracted with the given (sin-groups, cos-groups) coefficient tuples.
    """
    import mpmath as mp

    sin_coeffs, cos_coeffs = coeff_sets
    with mp.workdps(dps):
        A = mp.mpf(radius)
        two_pi = 2 * mp.pi
        h = mp.mpf("1e-4") / A

        def components(k1):
            rho = two_pi * k1 * A
            j0 = mp.besselj(0, rho)
            j1 = mp.besselj(1, rho)
            j1p = j0 - j1 / rho
            h0 = mp.struveh(0, rho)
            h1 = mp.struveh(1, rho)
            g = mp.pi * rho * (j0 * h1 - j1 * h0)
            t1 = (j1 / rho**2 + j1p / rho - j0 / rho + 1 + j1 - rho * j0 + g / 2)
            t3 = (j0 / (3 * rho) + j1 / (3 * rho**2) - mp.mpf(1) / 3 - j1 / 3
                  + rho * j0 / 3 - g / 6)
            t5 = (4 * j1 / (15 * rho**4) + j1p / (15 * rho**3) - j0 / (45 * rho)
                  - j1 / (45 * rho**2) + mp.mpf(1) / 45 + j1 / 45 - rho * j0 / 45 + g / 90)
            t7 = (6 * j1 / (35 * rho**6) + j1p / (35 * rho**5) - 4 * j1 / (525 * rho**4)
                  - j1p / (525 * rho**3) + j0 / (1575 * rho) + j1 / (1575 * rho**2)
                  - mp.mpf(1) / 1575 - j1 / 1575 + rho * j0 / 1575 - g / 3150)
            ps1 = two_pi**2 * k1 / A
            ps3 = two_pi**2 * k1 / A**3
            i_sin = (ps1 * rho * t3,
                     ps3 * rho**3 * t5,
                     ps3 * (5 * j1 / rho**3 + j1p / rho**2 - 30 * rho**3 * t7),
                     -ps3 * (5 * j1 / rho**3 + j1p / rho**2 - rho**3 * t5
                             - 30 * rho**3 * t7))
            pc1 = two_pi / A
            pc3 = two_pi / A**3
            i_cos = (pc1 * (j0 - rho * t1),
                     pc3 * (j0 - rho**3 * t3) / 3,
                     pc3 * (-j1 / rho + 4 * rho**3 * t5),
                     pc3 * (j0 / 3 + j1 / rho - rho**3 * t3 / 3 - 4 * rho**3 * t5))
            f_sin = mp.fsum(c * v for c, v in zip(sin_coeffs, i_sin))
            f_cos = mp.fsum(c * v for c, v in zip(cos_coeffs, i_cos))
            return f_sin, f_cos

        # The integrals are analytic in rho = 2 pi k1 radius for k1 > 0 with
        # every integer power present (the even powers are the |k1| part), so
        # fit the full ladder k1^p and read the orders of interest.  Scaled
        # unknowns d_p = c_p h^p keep the Vandermonde in integer powers.
        n_pts = 16
        sin_vals = mp.matrix(n_pts, 1)
        cos_vals = mp.matrix(n_pts, 1)
        for j in range(1, n_pts + 1):
            f_sin, f_cos = components(j * h)
            sin_vals[j - 1] = f_sin
            cos_vals[j - 1] = f_cos
        m_sin = mp.matrix(n_pts, n_pts)
        m_cos = mp.matrix(n_pts, n_pts)
        for j in range(1, n_pts + 1):
            for i in range(n_pts):
                m_sin[j - 1, i] = mp.mpf(j) ** (i + 1)   # powers 1..n
                m_cos[j - 1, i] = mp.mpf(j) ** i         # powers 0..n-1
        c_sin = mp.lu_solve(m_sin, sin_vals)
        c_cos = mp.lu_solve(m_cos, cos_vals)
        sin_out = {q: float(c_sin[q - 1] / h**q * mp.factorial(q))
                   for q in (1, 3, 5, 7, 9, 11)}
        cos_out = {q: float(c_cos[q] / h**q * mp.factorial(q))
                   for q in (0, 2, 4, 6, 8, 10)}
    return sin_out, cos_out


# Exact per-group Taylor data of the exterior ring integrals about k1 = 0+, as
# tabulated by hand before sin_cos_taylor derived them from the finite-part
# rule.  Row q of the sin table: the q-th one-sided k1-derivative of the sin
# integral equals  q! (2 pi)^(q+1) [ c1 a1 A^(q-2) + (c2 a4 + c3 a5 + c4 a54) A^(q-4) ];
# cos rows analogously with groups (a0, a2, a3^(1), a3^(2)) and powers
# (q-1, q-3).  The groups' term shapes, in the rows' order:
SIN_TAYLOR_SHAPES = ((1, 0, 5), (1, 0, 7), (3, 0, 9), (1, 2, 9))
COS_TAYLOR_SHAPES = ((0, 0, 3), (0, 0, 5), (2, 0, 7), (0, 2, 7))
SIN_TAYLOR_ROWS: dict[int, tuple[Fraction, ...]] = {
    1: (Fraction(1, 2), Fraction(1, 6), Fraction(1, 8), Fraction(1, 24)),
    3: (Fraction(1, 16), Fraction(-1, 16), Fraction(-5, 96), Fraction(-1, 96)),
    5: (Fraction(-1, 1152), Fraction(-1, 384), Fraction(-7, 3072), Fraction(-1, 3072)),
    7: (Fraction(1, 92160), Fraction(1, 55296), Fraction(1, 61440), Fraction(1, 552960)),
    9: (Fraction(-1, 10321920), Fraction(-1, 7372800), Fraction(-11, 88473600),
        Fraction(-1, 88473600)),
    11: (Fraction(1, 1592524800), Fraction(1, 1238630400), Fraction(13, 17340825600),
         Fraction(1, 17340825600)),
}
COS_TAYLOR_ROWS: dict[int, tuple[Fraction, ...]] = {
    0: (Fraction(1), Fraction(1, 3), Fraction(1, 6), Fraction(1, 6)),
    2: (Fraction(1, 4), Fraction(-1, 4), Fraction(-3, 16), Fraction(-1, 16)),
    4: (Fraction(-1, 192), Fraction(-1, 64), Fraction(-5, 384), Fraction(-1, 384)),
    6: (Fraction(1, 11520), Fraction(1, 6912), Fraction(7, 55296), Fraction(1, 55296)),
    8: (Fraction(-1, 1032192), Fraction(-1, 737280), Fraction(-1, 819200),
        Fraction(-1, 7372800)),
    10: (Fraction(1, 132710400), Fraction(1, 103219200), Fraction(11, 1238630400),
         Fraction(1, 1238630400)),
}


def sin_cos_taylor_tabulated(radius: float) -> dict[str, dict[int, tuple[float, ...]]]:
    """sin_cos_taylor's table evaluated from the hand-tabulated rows above."""
    radius = float(radius)
    two_pi = 2.0 * math.pi
    sin_rows = {}
    for q, row in SIN_TAYLOR_ROWS.items():
        base = math.factorial(q) * two_pi ** (q + 1)
        sin_rows[q] = (base * float(row[0]) * radius ** (q - 2),
                       *(base * float(c) * radius ** (q - 4) for c in row[1:]))
    cos_rows = {}
    for q, row in COS_TAYLOR_ROWS.items():
        base = math.factorial(q) * two_pi ** (q + 1)
        cos_rows[q] = (base * float(row[0]) * radius ** (q - 1),
                       *(base * float(c) * radius ** (q - 3) for c in row[1:]))
    return {"sin": sin_rows, "cos": cos_rows}


# ---------------------------------------------------------------------------
# the far-field coefficients as hand-expanded formulas
# ---------------------------------------------------------------------------

def far_field_tabulated(hm) -> AsymptCoeffs:
    """The thirteen far-field coefficients in natural units, as expanded by hand
    before asympt_coefficients derived them from the dipole field's expansion.

    hm(p, q, r, n) is the height moment <(h - x3)^p x1^q x2^r M_n>.
    """
    _PI = math.pi
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
    return from_paper_order([a0, *a1, a2, *a3, *a4, *a5])


def asympt_coefficients_tabulated(scene: DipoleScene) -> AsymptCoeffs:
    """The hand formulas on the scene's height moments, each times mu0 when SI."""
    coeffs = far_field_tabulated(lambda p, q, r, n: height_moment(scene, p, q, r, n))
    if scene.unit_system != "si":
        return coeffs
    return {shape: c * scene.mu0 for shape, c in coeffs.items()}


# ---------------------------------------------------------------------------
# the estimator table and its two hand formulas
# ---------------------------------------------------------------------------

# The estimate module's coefficient rows as tabulated by hand before they were
# derived from the finite-part rule; keyed and ordered as there.
ESTIMATOR_ROWS: dict[tuple[str, int], dict[int, int | Fraction]] = {
    ("tangential", 1): {1: 2},
    ("tangential", 2): {1: 2, 3: Fraction(8, 3)},
    ("tangential", 3): {1: 2, 5: Fraction(48, 5)},
    ("tangential", 4): {1: 2, 5: Fraction(-192, 5), 7: Fraction(2560, 7), 9: Fraction(-1280, 3)},
    # the p = 9 coefficient of order 5 follows from the exact T-ladder
    ("tangential", 5): {1: 2, 7: Fraction(-3200, 7), 9: Fraction(6400, 3),
                        11: Fraction(-21504, 11)},
    ("normal", 2): {0: 2},
    ("normal", 3): {0: Fraction(5, 4), 4: 10, 6: -32},
    ("normal", 4): {0: Fraction(35, 24), 6: Fraction(224, 3), 8: Fraction(-400, 3)},
    ("t", 5): {5: Fraction(64, 5), _CLOSURE: Fraction(-8, 3)},
    ("t", 7): {7: Fraction(384, 7), _CLOSURE: -6},
    ("t", 9): {9: Fraction(2560, 21), _CLOSURE: Fraction(-60, 7)},
    ("t", 11): {11: Fraction(7168, 33), _CLOSURE: Fraction(-98, 9)},
    ("t", 0): {0: -3, _CLOSURE: Fraction(3, 2)},
    ("t", 2): {2: -4, _CLOSURE: -1},
    ("t", 4): {4: 8, _CLOSURE: Fraction(1, 2)},
    ("t", 6): {6: Fraction(192, 5), _CLOSURE: Fraction(6, 5)},
    ("t", 8): {8: Fraction(640, 7), _CLOSURE: Fraction(25, 14)},
    ("a1", 4): {5: Fraction(-84, 5), 7: 144, 9: -160},
    ("a1", 5): {7: -216, 9: 960, 11: Fraction(-9408, 11)},
    ("combo", 4): {5: Fraction(-144, 5), 7: Fraction(3264, 7), 9: -640},
    ("combo", 5): {7: Fraction(-1056, 7), 9: 1280, 11: Fraction(-16128, 11)},
}


def t_quantities_tabulated(coeffs: AsymptCoeffs, radius: float) -> dict[str, float]:
    """The T quantities' algebraic left sides as written out by hand, by name."""
    a3 = radius ** 3
    coeffs = named(coeffs)
    a4t = coeffs.a4[0] / a3
    a51t = coeffs.a5[0] / a3
    a54t = coeffs.a5[3] / a3
    a2t = coeffs.a2 / a3
    a31t = coeffs.a3[0] / a3
    a32t = coeffs.a3[1] / a3
    values = {f"t{q}": (q + 3) * a4t + (q + 2) * a51t + a54t for q in (5, 7, 9, 11)}
    values.update({f"t{q}": (q + 2) * a2t + (q + 1) * a31t + a32t for q in (0, 2, 4, 6, 8)})
    return values


def leading_error_tabulated(c: AsymptCoeffs, component: str, radius: float,
                            scale: float) -> float:
    """The leading error of m1:1, m2:1 or m3:2 by the hand formula."""
    c = named(c)
    if component == "m3":
        return (2 * math.pi / 3) * (2 * c.a2 + c.a3[0] + c.a3[1]) / radius**2 / scale
    j = ("m1", "m2").index(component)
    combo = 4 * c.a4[j] + 3 * c.a5[j] + c.a5[3 - j]
    return 2 * math.pi * (c.a1[j] / radius + combo / (12 * radius**3)) / scale


# ---------------------------------------------------------------------------
# the exact Bessel and Struve series, one reduced Fraction per term
# ---------------------------------------------------------------------------

def bessel_series_frac_per_term(x: Fraction, n: int, tol_exp: int = 30) -> Fraction:
    """J_n(x) by its ascending series, each term a reduced Fraction.

    Stops after the first term of size below 10^-tol_exp.
    """
    half = x / 2
    z = half * half
    term = half**n / math.factorial(n)
    total = term
    k = 1
    tol = Fraction(1, 10**tol_exp)
    while True:
        term = -term * z / (k * (n + k))
        total += term
        if abs(term) < tol:
            break
        k += 1
    return total


def struve_series_frac_per_term(z: Fraction, n: int, tol_exp: int = 30) -> Fraction:
    """(pi/2) H_n(z) by its series, each term a reduced Fraction.

    Stops after the first term of size below 10^-tol_exp.
    """
    z2 = z * z
    term = z ** (n + 1) / math.prod(range(1, 2 * n + 2, 2))
    total = term
    k = 1
    tol = Fraction(1, 10**tol_exp)
    while True:
        term = -term * z2 / ((2 * k + 1) * (2 * k + 2 * n + 1))
        total += term
        if abs(term) < tol:
            break
        k += 1
    return total


# ---------------------------------------------------------------------------
# the Fourier-side closed forms as typed by hand, and the series they expand in
# ---------------------------------------------------------------------------

def _hand_inputs(rho: Fraction):
    """J0, J1, J1' and g = pi rho (J0 H1 - J1 H0) at rho, exactly, by the per-term series."""
    j0 = bessel_series_frac_per_term(rho, 0)
    j1 = bessel_series_frac_per_term(rho, 1)
    g = 2 * rho * (j0 * struve_series_frac_per_term(rho, 1)
                   - j1 * struve_series_frac_per_term(rho, 0))
    return j0, j1, j0 - j1 / rho, g


def tail_integrals_tabulated(rho: Fraction) -> dict[str, Fraction]:
    """The seven tail integrals at rho by their hand-typed closed forms, keyed by kind value.

    These are the forms the library typed one by one before it derived them
    from the integral of J0 alone.
    """
    j0, j1, j1p, g = _hand_inputs(rho)
    one = Fraction(1)
    return {
        "j1_over_x_p1": j1 / rho**2 + j1p / rho - j0 / rho + one + j1 - rho * j0 + g / 2,
        "j1_over_x_p3": (j0 / (3 * rho) + j1 / (3 * rho**2) - Fraction(1, 3) - j1 / 3
                         + rho * j0 / 3 - g / 6),
        "j1_over_x_p5": (4 * j1 / (15 * rho**4) + j1p / (15 * rho**3) - j0 / (45 * rho)
                         - j1 / (45 * rho**2) + Fraction(1, 45) + j1 / 45 - rho * j0 / 45
                         + g / 90),
        "j1_over_x_p7": (6 * j1 / (35 * rho**6) + j1p / (35 * rho**5) - 4 * j1 / (525 * rho**4)
                         - j1p / (525 * rho**3) + j0 / (1575 * rho) + j1 / (1575 * rho**2)
                         - Fraction(1, 1575) - j1 / 1575 + rho * j0 / 1575 - g / 3150),
        "j0_over_x_p2": j0 / rho - j1 - one + rho * j0 - g / 2,
        "j0_total": one - rho * j0 + g / 2,
        "j2_total": one + 2 * j1 - rho * j0 + g / 2,
    }


def tail_recursion_rhs_tabulated(n: int, rho: Fraction) -> Fraction:
    """The reduction identity's right side with the hand-typed tail one step down."""
    j0, j1, j1p, _ = _hand_inputs(rho)
    lower = tail_integrals_tabulated(rho)[f"j1_over_x_p{2 * n - 1}"]
    return (2 * n * j1 / rho ** (2 * n) + j1p / rho ** (2 * n - 1) - lower) / (4 * n * n - 1)


def ring_forms_tabulated(rho: Fraction) -> dict[tuple[int, int, int], Fraction]:
    """The eight hand-typed ring closed forms at rho, each over 2 pi (2 pi k1)^(s-1).

    The hand float formulas were prefactors (2 pi)^2 k1 / A, (2 pi)^2 k1 / A^3,
    2 pi / A and 2 pi / A^3 times these brackets; with rho = 2 pi k1 A each
    prefactor is 2 pi (2 pi k1)^(s-1) / rho^c, s = n - a - b - 1, so the
    brackets below carry the 1/rho^c.
    """
    j0, j1, j1p, _ = _hand_inputs(rho)
    tails = tail_integrals_tabulated(rho)
    t1, t3, t5, t7 = (tails[f"j1_over_x_p{p}"] for p in (1, 3, 5, 7))
    return {
        (1, 0, 5): rho * t3 / rho,
        (1, 0, 7): rho**3 * t5 / rho**3,
        (3, 0, 9): (5 * j1 / rho**3 + j1p / rho**2 - 30 * rho**3 * t7) / rho**3,
        (1, 2, 9): -(5 * j1 / rho**3 + j1p / rho**2 - rho**3 * t5 - 30 * rho**3 * t7) / rho**3,
        (0, 0, 3): (j0 - rho * t1) / rho,
        (0, 0, 5): (j0 - rho**3 * t3) / 3 / rho**3,
        (2, 0, 7): (-j1 / rho + 4 * rho**3 * t5) / rho**3,
        (0, 2, 7): (j0 / 3 + j1 / rho - rho**3 * t3 / 3 - 4 * rho**3 * t5) / rho**3,
    }


def exact_series_coefficients(order: int) -> dict[str, dict[int, Fraction]]:
    """Taylor coefficients {power: c} through x^order of 1, J0, J1 and S.

    S = J0 (pi/2)H1 - J1 (pi/2)H0, with J_n = sum (-1)^k (x/2)^(2k+n) / (k! (k+n)!)
    and (pi/2) H_n = sum (-1)^k x^(2k+n+1) / ((2k+1)!! (2k+2n+1)!!), written
    out here rather than read from the library's series.
    """
    def double_factorial(m: int) -> int:
        return math.prod(range(m, 0, -2))

    ks = range(order // 2 + 1)
    bessel = {n: {2 * k + n: Fraction((-1) ** k, 2 ** (2 * k + n) * math.factorial(k)
                                      * math.factorial(k + n))
                  for k in ks if 2 * k + n <= order} for n in (0, 1)}
    struve = {n: {2 * k + n + 1: Fraction((-1) ** k, double_factorial(2 * k + 1)
                                          * double_factorial(2 * k + 2 * n + 1))
                  for k in ks if 2 * k + n + 1 <= order} for n in (0, 1)}
    s: dict[int, Fraction] = {}
    for j, h, sign in ((bessel[0], struve[1], 1), (bessel[1], struve[0], -1)):
        for pj, cj in j.items():
            for ph, ch in h.items():
                if pj + ph <= order:
                    s[pj + ph] = s.get(pj + ph, Fraction(0)) + sign * cj * ch
    return {"1": {0: Fraction(1)}, "J0": bessel[0], "J1": bessel[1], "S": s}


# ---------------------------------------------------------------------------
# the Euler transform of one panel series, held as a list
# ---------------------------------------------------------------------------

def euler_sum_list(panels: list[float]) -> float:
    """The panels before the last 40 summed, plus the last 40's partial sums averaged down."""
    size = min(len(panels), 40)
    total = float(np.sum(panels[:-size])) if len(panels) > size else 0.0
    s = np.cumsum(np.array(panels[-size:], dtype=float))
    while len(s) > 1:
        s = 0.5 * (s[:-1] + s[1:])
    return total + float(s[0])


# ---------------------------------------------------------------------------
# the angular rule of the ring integrals over the whole circle, unfolded
# ---------------------------------------------------------------------------

def ring_angle_rule_unfolded(trig: str, a: int, b: int, p: int, k1: float,
                             r: np.ndarray) -> np.ndarray:
    """int_0^2pi trig(2 pi k1 r cos t) cos^a t sin^b t dt / r^p at each r, as a (1, len(r)) row.

    The periodic trapezoid rule on all 256 nodes of the circle, summed node
    by node: no symmetry of the integrand is used.
    """
    fun = {"sin": np.sin, "cos": np.cos}[trig]
    total = np.zeros(len(r))
    for k in range(256):
        t = 2.0 * math.pi * k / 256
        total += fun(2.0 * math.pi * k1 * r * math.cos(t)) * math.cos(t) ** a * math.sin(t) ** b
    return (total * (2.0 * math.pi / 256) / r**p)[None]
