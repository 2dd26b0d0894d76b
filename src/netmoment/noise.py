"""Additive measurement noise and the backward linear drift correction.

Noise draws come from a counter-based generator keyed by (seed, stream), so
results do not depend on evaluation order.  The noise amplitude follows the
SNR convention sigma = sqrt(10^(-SNR/10) * Var(B3)) with Var taken as the
quadrature-weighted population variance over the disk (a plain-variance
toggle exists for comparison).

The drift correction fits each backward window of a radius sweep linearly in
A**power and reports the fit where A**power vanishes.  An order-k estimator
carries a leading error ~ A**-k, so power = -k extrapolates toward A -> inf,
where the estimates converge; the default power = 1 extrapolates to A = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._checks import _bool, _finite, _integer, _real
from .quad import FieldMap, Provenance

__all__ = [
    "NoiseSpec",
    "DetrendPoint",
    "add_noise",
    "noise_sigma",
    "detrend_backward",
]


@dataclass(frozen=True)
class NoiseSpec:
    """snr_db may be math.inf for a pass-through; seed feeds a Philox key.

    stream separates independent draws sharing one seed (e.g. sweep cells);
    weighted_variance selects the quadrature-weighted Var(B3) (default) or
    the plain per-node sample variance.
    """

    snr_db: float
    seed: int
    stream: int = 0
    weighted_variance: bool = True

    def __post_init__(self):
        # True would silently be a 1 dB SNR, and a np.float32 SNR would compute
        # sigma in float32 and draw other noise, so the value is stored as a float
        object.__setattr__(self, "snr_db", _real(self.snr_db, "snr_db must be a real number"))
        if not self.snr_db > -math.inf:  # NaN fails too
            raise ValueError("snr_db must be finite or +inf")
        # each fills 64 bits of the 128-bit Philox key, so wider values would alias;
        # True would silently draw the noise of 1
        for name in ("seed", "stream"):
            _integer(getattr(self, name), f"{name} must be an integer in [0, 2**64)",
                     lo=0, hi=2**64 - 1)
        # 'no' would be truthy and select the weighted variance
        _bool(self.weighted_variance, "weighted_variance must be True or False")


def _generator(spec: NoiseSpec) -> np.random.Generator:
    key = int(spec.seed) | (int(spec.stream) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _sigma(snr_db: float, s: np.ndarray, w: np.ndarray | None = None) -> float:
    """sqrt(10^(-SNR/10) * Var(s)), Var weighted by w when given, else plain."""
    if w is None:
        var = float(s.var())
    else:
        mean = float(np.sum(w * s) / np.sum(w))
        var = float(np.sum(w * (s - mean) ** 2) / np.sum(w))
    return math.sqrt(10.0 ** (-snr_db / 10.0) * var)


def _noisy(samples: np.ndarray, spec: NoiseSpec, weights: np.ndarray | None = None) -> np.ndarray:
    """samples plus _sigma times the spec's normal draws in index order; at SNR = inf, samples."""
    if spec.snr_db == math.inf:
        return samples
    sigma = _sigma(spec.snr_db, samples, weights)
    return samples + sigma * _generator(spec).standard_normal(len(samples))


def noise_sigma(field_map: FieldMap, spec: NoiseSpec) -> float:
    """Per-node noise standard deviation implied by the SNR (0.0 at SNR = inf)."""
    return _sigma(spec.snr_db, field_map.samples,
                  field_map.grid.weights if spec.weighted_variance else None)


def add_noise(field_map: FieldMap, spec: NoiseSpec) -> FieldMap:
    """Independent Gaussian draws per node, in node-index order."""
    if field_map.provenance.kind != "clean":
        raise ValueError("map already carries noise")
    samples = _noisy(field_map.samples, spec,
                     field_map.grid.weights if spec.weighted_variance else None)
    return FieldMap(grid=field_map.grid, samples=samples, unit_system=field_map.unit_system,
                    provenance=Provenance("noisy", snr_db=spec.snr_db, seed=spec.seed),
                    _fresh=True)


@dataclass(frozen=True)
class DetrendPoint:
    radius: float
    value: float
    fitted: bool  # False where the backward window had too little history


def detrend_backward(series: Sequence[tuple[float, float]],
                     window: int = 11, power: float = 1.0) -> list[DetrendPoint]:
    """Backward linear regression drift correction over a radius sweep.

    For each point with at least window-1 predecessors, fit
    value = b0 + b1*A**power over the current and nearest smaller-radius
    points and report b0, the local fit where A**power vanishes: A -> 0 for
    power > 0 (the default power = 1 is the line in A extrapolated to A = 0)
    and A -> inf for power < 0.  On an order-k sweep, whose leading error
    is C/A**k, power = -k removes that term exactly; fitting in A instead
    reports about v - A*dv/dA, which turns a -C/A**2 bias into -3C/A**2.
    Earlier points keep their raw value, flagged fitted=False.
    """
    _integer(window, "window must be an integer of at least 3", lo=3)
    power = _finite(power, "power must be finite and nonzero")
    if power == 0.0:
        raise ValueError(f"power must be finite and nonzero, got {power}")
    pts = [(_finite(a, f"radius at index {i} must be finite"),
            _finite(v, f"value at index {i} must be finite"))
           for i, (a, v) in enumerate(series)]
    radii = [a for a, _ in pts]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("series must be sorted by strictly ascending radius")
    if power != 1.0 and radii and radii[0] <= 0.0:
        raise ValueError(f"radii must be positive for power {power}, got {radii[0]}")
    if len(pts) < window:
        raise ValueError(
            f"series of length {len(pts)} has no index with {window - 1} predecessors"
        )
    out = []
    for i, (a, v) in enumerate(pts):
        if i < window - 1:
            out.append(DetrendPoint(a, v, False))
            continue
        chunk = pts[i - window + 1:i + 1]
        xs = np.array([c[0] ** power for c in chunk])
        ys = np.array([c[1] for c in chunk])
        xbar = xs.mean()
        ybar = ys.mean()
        sxx = float(np.sum((xs - xbar) ** 2))
        b1 = float(np.sum((xs - xbar) * (ys - ybar))) / sxx
        out.append(DetrendPoint(a, float(ybar - b1 * xbar), True))
    return out
