"""Disk quadrature grids and sampled field maps.

The grid is a Gauss-Legendre rule in radius (Jacobian folded into the
weights) crossed with a uniform angular rule, so any disk integral of a
sampled field is a plain weighted dot product.

build_grid(A, n_radial, n_angular) scales one unit-disk rule, built once per
(n_radial, n_angular) and cached: nodes A*r_i*(cos t_k, sin t_k) and weights
A^2*w_i.  The cache holds only 1-D factors and two small moment tables, so
the monomial moments of a map on such a grid are a product of the samples,
viewed as an (n_radial x n_angular) array, with those tables.  Such a grid
holds only its radius and rule; its node and weight arrays are each made on
first access.  A grid walks its nodes as (2, k) blocks of x1 and x2 rows in
one reused buffer (DiskGrid._row_blocks): whole rings written from the rule,
or copied slices of another grid's nodes.  b3's kernel reads that walk, so a
sweep of fewer than 8 dipoles makes no node array.  A field CSV whose nodes
(compared with a walk) and weights are those of a build_grid grid, bit for
bit, reads back onto that grid.  Only such a grid has a shape, its rule's
(n_radial, n_angular).  Any other grid (another file, or a DiskGrid built
directly) has no shape and no tensor structure, and its moments are one
dense weighted sum.
"""
from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import InitVar, dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from ._checks import _integer, _one_of, _positive, _real
from .field import _SEQUENTIAL_ROW_SUM, _b3_kernel, _row_blocks, b3
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

# nodes a build_grid grid walks at a time, in whole rings (DiskGrid._row_blocks),
# and rows write_field_csv formats and writes at a time: one block's nodes
# stay in cache for b3's kernel, and only one block's floats and text are
# alive at once, whatever the node count
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class _UnitRule:
    """The unit-disk rule of one (n_radial, n_angular) shape, as 1-D factors.

    Node (i, k) sits at radii[i] * (cos[k], sin[k]) with weight ring_weights[i].
    radial_moments[p, i] = radii[i]^p * ring_weights[i], and
    angular_moments[j, p, k] = cos[k]^p (j = 0) or sin[k]^p (j = 1), p <= MAX_POWER.
    """

    radii: np.ndarray             # (n_radial,)
    ring_weights: np.ndarray      # (n_radial,)
    cos: np.ndarray               # (n_angular,)
    sin: np.ndarray               # (n_angular,)
    radial_moments: np.ndarray    # (MAX_POWER + 1, n_radial)
    angular_moments: np.ndarray   # (2, MAX_POWER + 1, n_angular)

    @property
    def size(self) -> int:
        """The node count of the rule."""
        return self.radii.size * self.cos.size


@dataclass(frozen=True)
class DiskGrid:
    """Quadrature nodes and weights covering the disk |x| <= radius; its shape
    (n_radial, n_angular) is read off its build_grid rule, and is None without one.

    A grid made directly keeps read-only copies of its nodes and weights and
    checks them.  A build_grid grid is its radius and its cached unit rule
    alone: build_grid checks the radius and the rule was checked once, when
    it was built.  Its read-only nodes and weights are each made from the rule
    on first access and kept.
    """

    radius: float
    nodes: np.ndarray      # (M, 2)
    weights: np.ndarray    # (M,)
    # set by build_grid only, with no arrays: the unit rule its nodes and
    # weights are scaled from; any other grid keeps None and private copies
    _unit_rule: InitVar[Optional[_UnitRule]] = None

    def __post_init__(self, _unit_rule: Optional[_UnitRule]):
        object.__setattr__(self, "_rule", _unit_rule)
        if _unit_rule is not None:
            # made on first access, by __getattr__
            object.__delattr__(self, "nodes")
            object.__delattr__(self, "weights")
            return
        object.__setattr__(self, "nodes", _read_only(self.nodes))
        object.__setattr__(self, "weights", _read_only(self.weights))
        nodes, weights = self.nodes, self.weights
        if nodes.ndim != 2 or nodes.shape[1] != 2 or len(weights) != len(nodes):
            raise ValueError("grid nodes must be (M, 2) with matching weights")
        radius = _real(self.radius, "radius must be positive and finite")
        # radius * radius: ** raises OverflowError where the product is inf
        area = math.pi * radius * radius
        if area == math.inf:
            raise ValueError(f"radius {radius!r}: the disk area overflows")
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

    def __getattr__(self, name: str) -> np.ndarray:
        # reached only for an attribute the grid does not hold: on a build_grid
        # grid, its nodes or weights before their first access
        rule = self.__dict__.get("_rule")
        if rule is None or name not in ("nodes", "weights"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        n_angular = len(rule.cos)
        if name == "nodes":
            arr = np.empty((rule.size, 2))
            _scaled_rings(rule, self.radius, slice(None), arr.reshape(-1, n_angular, 2))
        else:
            arr = np.repeat(_scaled_rings(rule, self.radius, slice(None)), n_angular)
        arr.flags.writeable = False
        object.__setattr__(self, name, arr)
        return arr

    @property
    def n_radial(self) -> Optional[int]:
        return None if self._rule is None else len(self._rule.radii)

    @property
    def n_angular(self) -> Optional[int]:
        return None if self._rule is None else len(self._rule.cos)

    @property
    def _size(self) -> int:
        """The node count, without making a build_grid grid's nodes."""
        return len(self.nodes) if self._rule is None else self._rule.size

    def _row_blocks(self) -> Iterator[np.ndarray]:
        """The nodes as consecutive (2, k) blocks of x1 and x2 rows in one reused
        buffer: whole rings (_BLOCK_ROWS nodes at most, or one ring) written from
        a build_grid grid's rule, or copied slices of any other grid's nodes."""
        rule = self._rule
        if rule is None:
            yield from _row_blocks(self.nodes)
            return
        n_radial, n_angular = len(rule.radii), len(rule.cos)
        step = min(max(1, _BLOCK_ROWS // n_angular), n_radial)
        rows = np.empty((2, step * n_angular))
        # (rings, n_angular, 2) over the two rows, as _scaled_rings writes nodes
        rings = np.moveaxis(rows.reshape(2, step, n_angular), 0, -1)
        for i in range(0, n_radial, step):
            k = min(step, n_radial - i)
            _scaled_rings(rule, self.radius, slice(i, i + k), rings[:k])
            yield rows[:, :k * n_angular]


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
    # set by sample_field, add_noise and read_field_csv only: their samples
    # are a float array that nothing else writes (fresh, or the read-only
    # samples of a clean map at SNR = inf), kept and made read-only in place;
    # any other caller's samples are copied
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh: bool):
        _one_of(self.unit_system, _UNIT_SYSTEMS, f"unit_system must be one of {_UNIT_SYSTEMS}")
        if _fresh:
            samples = self.samples
            samples.flags.writeable = False
        else:
            samples = _read_only(self.samples)
        if samples.shape != (self.grid._size,):
            raise ValueError("sample count must match the grid node count")
        if not np.all(np.isfinite(samples)):
            raise ValueError("field samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def radius(self) -> float:
        return self.grid.radius

    @functools.cached_property
    def moments(self) -> np.ndarray:
        """mu[j, p] = iint (x_j / radius)^p * sample, j = x1, x2, p <= MAX_POWER, field units.

        On a build_grid grid this is radius^2 * sum_i R[p, i] (S C^T)[i, j, p],
        with S the samples as an (n_radial x n_angular) array and R, C the unit
        rule's moment tables; on any other grid, one weighted sum over the nodes.
        """
        # cached: the samples and the grid are read-only, so it cannot go stale
        rule = self.grid._rule
        if rule is not None:
            n_angular = len(rule.cos)
            ring_sums = self.samples.reshape(-1, n_angular) @ rule.angular_moments.reshape(
                -1, n_angular).T
            mu = np.einsum("pi,ijp->jp", rule.radial_moments,
                           ring_sums.reshape(-1, 2, MAX_POWER + 1))
            return _read_only(self.radius * self.radius * mu)

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
def _unit_rule(n_radial: int, n_angular: int) -> _UnitRule:
    """The unit-disk rule and its moment tables; they do not depend on the radius.

    Checked here, once per shape, for every grid scaled from it: the weights
    sum to the unit disk's area and every ring lies inside the disk.
    """
    xg, wg = np.polynomial.legendre.leggauss(n_radial)
    radii = 0.5 * (xg + 1.0)
    ring_weights = 0.5 * wg * radii * (2.0 * math.pi / n_angular)   # Jacobian r
    if not abs(n_angular * ring_weights.sum() - math.pi) <= 1e-12 * math.pi:
        raise ValueError(f"the {n_radial} x {n_angular} rule's weights do not sum to "
                         "the unit disk's area")
    if not np.all((0.0 < radii) & (radii < 1.0)):
        raise ValueError(f"the {n_radial} x {n_angular} rule has a ring outside the unit disk")
    theta = 2.0 * math.pi * np.arange(n_angular) / n_angular
    cos, sin = np.cos(theta), np.sin(theta)
    powers = np.arange(MAX_POWER + 1)[:, None]
    return _UnitRule(*map(_read_only, (radii, ring_weights, cos, sin,
                                       radii**powers * ring_weights,
                                       np.stack([cos, sin])[:, None] ** powers)))


def _grid_sizes(n_radial: int, n_angular: int) -> None:
    """The sizes build_grid takes: integers, n_radial >= 4, n_angular even and >= 8."""
    for name, n in (("n_radial", n_radial), ("n_angular", n_angular)):
        _integer(n, f"{name} must be an integer")
    if n_radial < 4:
        raise ValueError(f"n_radial must be at least 4, got {n_radial}")
    if n_angular < 8 or n_angular % 2:
        raise ValueError(f"n_angular must be even and at least 8, got {n_angular}")


def _scaled_rings(rule: _UnitRule, radius: float, rings: slice,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """The given rings of the unit rule scaled to radius.

    Returns the ring weights radius^2 * w_i and, given out, shaped
    (rings, n_angular, 2), writes node (i, k) = (radius * r_i) * (cos t_k, sin t_k)
    of each ring into it.
    """
    if out is not None:
        r = radius * rule.radii[rings]
        np.multiply.outer(r, rule.cos, out=out[..., 0])
        np.multiply.outer(r, rule.sin, out=out[..., 1])
    return radius * radius * rule.ring_weights[rings]


def _in_range(rule: _UnitRule, radius: float) -> bool:
    """Whether every weight of the rule scaled to radius is a normal float and
    the disk's area is finite."""
    # radius * radius is inf past the float range, where ** raises OverflowError;
    # a finite area bounds every weight, as the unit weights are below 1
    return bool(math.pi * radius * radius < math.inf
                and _scaled_rings(rule, radius, slice(None)).min() >= sys.float_info.min)


def build_grid(radius: float, n_radial: int = _DEFAULT_GRID[0],
               n_angular: int = _DEFAULT_GRID[1]) -> DiskGrid:
    """Gauss-Legendre x uniform-angle tensor rule on the disk of given radius.

    The cached unit rule of (n_radial, n_angular), scaled: node (i, k) is
    (radius * r_i) * (cos t_k, sin t_k), ring by ring, and its weight is
    radius^2 * w_i.  The grid holds the radius and the rule alone; its nodes
    and weights are each made on first access.  A radius for which a weight
    would overflow or fall below the normal floats, or the disk's area
    overflow, is refused (on the default rule, 1e154 and 1e-152 are).
    """
    radius = _positive(radius, "radius must be positive and finite")
    _grid_sizes(n_radial, n_angular)
    rule = _unit_rule(n_radial, n_angular)
    if not _in_range(rule, radius):
        raise ValueError(f"radius {radius!r} is out of range for the {n_radial} x {n_angular} "
                         "rule: its weights or its disk area are not normal floats")
    return DiskGrid(radius, None, None, rule)


def sample_field(scene: DipoleScene, grid: DiskGrid) -> FieldMap:
    """Evaluate the scene's normal field at every node, in node order.

    b3's kernel takes the grid's walk of its nodes (DiskGrid._row_blocks):
    for a scene of fewer than 8 dipoles a build_grid grid's node array is
    not made.  b3's values do not depend on its blocks, so the samples are
    b3(scene, grid.nodes), bit for bit.
    """
    if len(scene.dipoles) >= _SEQUENTIAL_ROW_SUM:
        # the same bits through the public b3, only so that a trace of b3
        # counts a large scene's pairs (bench/test_bench.py::ACTIVE_COUNTS
        # reads field.b3.pairs on synth_large)
        samples = b3(scene, grid.nodes)
    else:
        samples = _b3_kernel(scene, grid._size, grid._row_blocks())
    return FieldMap(grid=grid, samples=samples, unit_system=scene.unit_system,
                    provenance=Provenance("clean"), _fresh=True)


def integrate_weighted(field_map: FieldMap,
                       weight: Callable[[np.ndarray], np.ndarray]) -> float | np.ndarray:
    """sum over nodes of weight(x) * sample * node_weight.

    A weight returning a (K, M) stack for the M nodes gives the K sums as an array.
    """
    w = np.asarray(weight(field_map.grid.nodes), dtype=float)
    sums = w @ (field_map.grid.weights * field_map.samples)
    return float(sums) if w.ndim == 1 else sums


def write_field_csv(field_map: FieldMap, path: str) -> None:
    """Field map CSV: header x1,x2,weight,b3; full float round trip.

    The samples are written in the map's own field units (tesla when its
    unit_system is si), which the file does not record.
    """
    nodes, weights, samples = field_map.grid.nodes, field_map.grid.weights, field_map.samples
    # repr round-trips every float; \r\n ends rows as in the csv module's default dialect
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("x1,x2,weight,b3\r\n")
        for start in range(0, len(samples), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            x1, x2 = nodes[block].T.tolist()
            # one repr per distinct weight (a build_grid ring shares one), told
            # apart by bits: as values 0.0 == -0.0 would share one text
            distinct, which = np.unique(weights[block].view(np.uint64), return_inverse=True)
            texts = [repr(v) for v in distinct.view(np.float64).tolist()]
            rows = zip(x1, x2, [texts[i] for i in which.tolist()], samples[block].tolist())
            fh.write("".join(f"{a!r},{b!r},{w},{s!r}\r\n" for a, b, w, s in rows))


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
    weights_arr = table[:, 2]
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are refused below
        area = float(weights_arr.sum())
    if not 0.0 < area < math.inf:
        raise ValueError(f"field CSV {path}: the weight column sums to {area!r}, "
                         "not to the finite area > 0 of a disk")
    radius = math.sqrt(area / math.pi)
    # a build_grid ring shares one weight, so its first run of equal weights is one ring
    n_angular = int(np.argmax(weights_arr != weights_arr[0])) or len(weights_arr)
    n_radial = len(table) // n_angular
    a = _built_radius(table, radius, n_radial, n_angular)
    if a is not None:
        # the file is that grid: only its samples are kept, and the table goes
        # before the grid is built
        samples = table[:, 3].copy()
        del table, weights_arr
        return FieldMap(grid=build_grid(a, n_radial, n_angular), samples=samples,
                        unit_system=unit_system, _fresh=True)
    # any other file keeps its nodes and weights as written, and has no shape;
    # its strided sample column is copied
    return FieldMap(grid=DiskGrid(radius, table[:, :2], weights_arr), samples=table[:, 3],
                    unit_system=unit_system)


# how far, in ulps, the radius read back from a weight sum may sit from the
# radius the grid was built with (2 seen over 1500 radii and five shapes)
_RADIUS_ULPS = 4


def _built_radius(table: np.ndarray, radius: float, n_radial: int,
                  n_angular: int) -> Optional[float]:
    """The radius a within _RADIUS_ULPS ulps of radius for which the nodes and
    weights of the (M, 4) field table are those of build_grid(a, n_radial,
    n_angular), bit for bit; None if there is none or build_grid refuses a.

    A map written from a build_grid grid reads back onto that grid and so takes
    the same tensor route for its moments, with the same bits.  The file's
    nodes are compared with each candidate grid's walk of its nodes, so no
    grid-sized array is built.
    """
    try:
        _grid_sizes(n_radial, n_angular)
    except ValueError:
        return None
    if len(table) != n_radial * n_angular:
        return None
    rule = _unit_rule(n_radial, n_angular)
    nodes, weights = table[:, :2].T, table[:, 2].reshape(n_radial, n_angular)

    def matches(a: float) -> bool:
        lo = 0
        for rows in DiskGrid(a, None, None, rule)._row_blocks():
            if not np.array_equal(rows, nodes[:, lo:lo + rows.shape[1]]):
                return False
            lo += rows.shape[1]
        return bool(np.all(weights == _scaled_rings(rule, a, slice(None))[:, None]))

    below = above = radius
    candidates = [radius]
    for _ in range(_RADIUS_ULPS):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
        candidates += [below, above]
    a = next((a for a in candidates if matches(a)), None)
    # a grid build_grid would refuse is read back as it is
    return a if a is not None and _in_range(rule, a) else None
