"""Disk quadrature grids and sampled field maps.

The grid is a Gauss-Legendre rule in radius (Jacobian folded into the
weights) crossed with a uniform angular rule, so any disk integral of a
sampled field is a plain weighted dot product.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._checks import _integer, _one_of, _positive, _real
from .field import b3
from .scene import _UNIT_SYSTEMS, DipoleScene, _read_only

__all__ = [
    "DiskGrid",
    "Provenance",
    "FieldMap",
    "build_grid",
    "sample_field",
    "integrate_weighted",
    "write_field_csv",
    "read_field_csv",
]

# Highest power p of the monomial moments mu[j, p] a FieldMap carries.
MAX_POWER = 11

# (n_radial, n_angular) of the default disk rule
_DEFAULT_GRID = (200, 256)


@dataclass(frozen=True)
class DiskGrid:
    """Quadrature nodes and weights covering the disk |x| <= radius."""

    radius: float
    n_radial: int
    n_angular: int
    nodes: np.ndarray      # (M, 2)
    weights: np.ndarray    # (M,)

    def __post_init__(self):
        for name in ("n_radial", "n_angular"):
            _integer(getattr(self, name), f"{name} must be a positive integer", lo=1)
        nodes = _read_only(self.nodes)
        weights = _read_only(self.weights)
        if nodes.ndim != 2 or nodes.shape[1] != 2 or len(weights) != len(nodes):
            raise ValueError("grid nodes must be (M, 2) with matching weights")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        area = math.pi * _real(self.radius, "radius must be positive and finite") ** 2
        if not abs(weights.sum() - area) <= 1e-12 * area:  # NaN fails too
            raise ValueError(f"grid weights do not sum to the disk area of radius {self.radius!r}")
        # a negative radius has the area of its opposite, but would flip the
        # sign of every odd power of the radius downstream; inf passes the area test
        radius = _positive(self.radius, "radius must be positive and finite")
        object.__setattr__(self, "radius", radius)
        # the two columns squared and added: the bits of a row sum, without
        # numpy looping over rows of length 2; NaN fails the test
        x1, x2 = nodes.T
        r2 = x1**2 + x2**2
        inside = r2 <= radius**2 * (1 + 1e-12)
        if not np.all(inside):
            bad = np.flatnonzero(~inside)
            raise ValueError(f"{len(bad)} grid node(s) outside the disk or not finite, "
                             f"first node {bad[0]} at {tuple(nodes[bad[0]].tolist())}")


@dataclass(frozen=True)
class Provenance:
    kind: str                       # "clean" | "noisy"
    snr_db: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self):
        _one_of(self.kind, ("clean", "noisy"), "provenance kind must be clean or noisy")


@dataclass(frozen=True)
class FieldMap:
    """Per-node field samples on a disk grid (tesla when unit_system is si)."""

    grid: DiskGrid
    samples: np.ndarray
    unit_system: str = "si"
    provenance: Provenance = Provenance("clean")

    def __post_init__(self):
        _one_of(self.unit_system, _UNIT_SYSTEMS, f"unit_system must be one of {_UNIT_SYSTEMS}")
        samples = _read_only(self.samples)
        if samples.shape != (len(self.grid.nodes),):
            raise ValueError("sample count must match the grid node count")
        if not np.all(np.isfinite(samples)):
            raise ValueError("field samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def radius(self) -> float:
        return self.grid.radius

    @functools.cached_property
    def moments(self) -> np.ndarray:
        """mu[j, p] = iint (x_j / radius)^p * sample, j = x1, x2, p <= MAX_POWER, field units."""
        # cached: the samples and the grid are read-only, so it cannot go stale
        def monomials(x: np.ndarray) -> np.ndarray:
            # running products into one stack: no second stack of its size is held
            u = x.T / self.radius
            stack = np.empty((2, MAX_POWER + 1, len(x)))
            stack[:, 0] = 1.0
            for p in range(1, MAX_POWER + 1):
                np.multiply(stack[:, p - 1], u, out=stack[:, p])
            return stack.reshape(-1, len(x))

        return _read_only(integrate_weighted(self, monomials).reshape(2, MAX_POWER + 1))


@functools.lru_cache(maxsize=32)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    # the reference rule on [-1, 1] does not depend on the radius
    xg, wg = np.polynomial.legendre.leggauss(n)
    return _read_only(xg), _read_only(wg)


def _grid_sizes(n_radial: int, n_angular: int) -> None:
    """The sizes build_grid takes: integers, n_radial >= 4, n_angular even and >= 8."""
    for name, n in (("n_radial", n_radial), ("n_angular", n_angular)):
        _integer(n, f"{name} must be an integer")
    if n_radial < 4:
        raise ValueError(f"n_radial must be at least 4, got {n_radial}")
    if n_angular < 8 or n_angular % 2:
        raise ValueError(f"n_angular must be even and at least 8, got {n_angular}")


def build_grid(radius: float, n_radial: int = _DEFAULT_GRID[0],
               n_angular: int = _DEFAULT_GRID[1]) -> DiskGrid:
    """Gauss-Legendre x uniform-angle tensor rule on the disk of given radius."""
    radius = _positive(radius, "radius must be positive and finite")
    _grid_sizes(n_radial, n_angular)
    xg, wg = _gauss_legendre(n_radial)
    r = 0.5 * radius * (xg + 1.0)
    wr = 0.5 * radius * wg * r                       # radial weight with Jacobian r
    theta = 2.0 * math.pi * np.arange(n_angular) / n_angular
    nodes = np.stack(
        [np.outer(r, np.cos(theta)).ravel(), np.outer(r, np.sin(theta)).ravel()],
        axis=-1,
    )
    weights = np.repeat(wr, n_angular) * (2.0 * math.pi / n_angular)
    return DiskGrid(radius, n_radial, n_angular, nodes, weights)


def sample_field(scene: DipoleScene, grid: DiskGrid) -> FieldMap:
    """Evaluate the scene's normal field at every node, in node order."""
    return FieldMap(grid=grid, samples=b3(scene, grid.nodes),
                    unit_system=scene.unit_system, provenance=Provenance("clean"))


def integrate_weighted(field_map: FieldMap,
                       weight: Callable[[np.ndarray], np.ndarray]) -> float | np.ndarray:
    """sum over nodes of weight(x) * sample * node_weight.

    A weight returning a (K, M) stack for the M nodes gives the K sums as an array.
    """
    w = np.asarray(weight(field_map.grid.nodes), dtype=float)
    sums = w @ (field_map.grid.weights * field_map.samples)
    return float(sums) if w.ndim == 1 else sums


def write_field_csv(field_map: FieldMap, path: str) -> None:
    """Field map CSV: header x1,x2,weight,b3; SI units; full float round trip."""
    nodes = field_map.grid.nodes
    columns = (nodes[:, 0].tolist(), nodes[:, 1].tolist(),
               field_map.grid.weights.tolist(), field_map.samples.tolist())
    # repr round-trips every float; \r\n ends rows as in the csv module's default dialect
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("x1,x2,weight,b3\r\n")
        fh.writelines(f"{x1!r},{x2!r},{w!r},{s!r}\r\n" for x1, x2, w, s in zip(*columns))


def read_field_csv(path: str, unit_system: str = "si") -> FieldMap:
    """Read a field-map CSV back; the disk radius is recovered from the weights."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header != ["x1", "x2", "weight", "b3"]:
            raise ValueError(f"unexpected field CSV header {header!r} in {path}")
        with warnings.catch_warnings():
            # an empty body is reported below by name
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                # the same correctly rounded conversion as float(); no comment lines
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError as exc:
                raise ValueError(f"field CSV {path}: {exc}") from exc
    if not table.size:
        raise ValueError(f"field CSV {path} contains no nodes")
    if table.shape[1] != 4:
        raise ValueError(f"field CSV {path} rows must have 4 columns, got {table.shape[1]}")
    nodes_arr = table[:, :2]
    weights_arr = table[:, 2]
    radius = math.sqrt(weights_arr.sum() / math.pi)
    # distinct node radii: the rule's radial gaps are far above 1e-9 * radius,
    # the roundoff of one radius far below
    node_radii = np.sort(np.hypot(nodes_arr[:, 0], nodes_arr[:, 1]))
    n_radial = 1 + int(np.count_nonzero(np.diff(node_radii) > 1e-9 * radius))
    grid = DiskGrid(radius, n_radial, max(len(nodes_arr) // n_radial, 8),
                    nodes_arr, weights_arr)
    return FieldMap(grid=grid, samples=table[:, 3], unit_system=unit_system)
