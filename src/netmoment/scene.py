"""Dipole scenes: the ground-truth magnetisation model.

A scene is a finite set of point dipoles below a horizontal measurement
plane.  Net moment and monomial-weighted moments are plain weighted sums
over the dipoles; they feed every analytic coefficient downstream.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._checks import _finite, _integer, _one_of

__all__ = [
    "MU0",
    "SceneError",
    "Dipole",
    "DipoleScene",
    "MomentVector",
    "net_moment",
    "algebraic_moment",
    "height_moment",
    "scene_from_dict",
    "load_scene",
    "scene_to_dict",
]

MU0 = 4.0 * math.pi * 1e-7

_UNIT_SYSTEMS = ("si", "natural")


class SceneError(ValueError):
    """Invalid scene data."""


def _read_only(values) -> np.ndarray:
    """A private float copy that cannot be written in place."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def _vec3(value: Sequence[float], what: str) -> tuple[float, float, float]:
    text = f"{what} must be a 3-vector of finite numbers"
    try:
        x1, x2, x3 = value
    except (TypeError, ValueError):  # not iterable, or not of length 3
        raise SceneError(f"{text}, got {value!r}") from None
    # float() would take "0" and True, as a scene document may spell them
    return tuple(_finite(c, text, SceneError) for c in (x1, x2, x3))


@dataclass(frozen=True)
class Dipole:
    """Point dipole: position in meters, moment in A*m^2."""

    position: tuple[float, float, float]
    moment: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "position", _vec3(self.position, "dipole position"))
        object.__setattr__(self, "moment", _vec3(self.moment, "dipole moment"))


def _dipole(i: int, entry) -> Dipole:
    """dipoles[i] as a Dipole: one already, or a (position, moment) pair."""
    try:
        return entry if isinstance(entry, Dipole) else Dipole(*entry)
    except TypeError:  # not iterable, or not of length 2
        raise SceneError(f"dipoles[{i}] must be a Dipole or a (position, moment) pair, "
                         f"got {entry!r}") from None


@dataclass(frozen=True)
class MomentVector:
    m1: float
    m2: float
    m3: float

    def __post_init__(self):
        for name in ("m1", "m2", "m3"):
            _finite(getattr(self, name), f"moment component {name} must be finite", SceneError)

    def as_array(self) -> np.ndarray:
        return np.array([self.m1, self.m2, self.m3])

    def __getitem__(self, n: int) -> float:
        return (self.m1, self.m2, self.m3)[n]


@dataclass(frozen=True)
class DipoleScene:
    """Dipole ensemble plus the measurement height and unit system.

    The plane x3 = height must lie strictly above every dipole so field
    denominators never vanish; that is enforced here, not at evaluation.
    Three read-only arrays are made once from the dipoles: positions and
    moments, (N, 3), and depths, the (N,) height - x3 below the plane.
    """

    dipoles: tuple[Dipole, ...]
    height: float
    unit_system: str = "si"
    positions: np.ndarray = field(init=False, repr=False, compare=False)
    moments: np.ndarray = field(init=False, repr=False, compare=False)
    depths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            entries = enumerate(self.dipoles)
        except TypeError:  # not iterable
            raise SceneError(f"dipoles must be an iterable of dipoles, "
                             f"got {self.dipoles!r}") from None
        dipoles = tuple(_dipole(i, d) for i, d in entries)
        object.__setattr__(self, "dipoles", dipoles)
        h = _finite(self.height, "height must be a finite number", SceneError)
        object.__setattr__(self, "height", h)
        _one_of(self.unit_system, _UNIT_SYSTEMS, f"unit_system must be one of {_UNIT_SYSTEMS}",
                SceneError)
        if dipoles:
            top = max(d.position[2] for d in dipoles)
            if h <= top:
                raise SceneError(
                    f"height {h} must be strictly above the highest dipole x3 = {top}"
                )
        # read-only, so that a write cannot make them disagree with the dipoles
        pos = _read_only([d.position for d in dipoles]).reshape(-1, 3)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "moments", _read_only([d.moment for d in dipoles]).reshape(-1, 3))
        object.__setattr__(self, "depths", _read_only(self.height - pos[:, 2]))

    @property
    def mu0(self) -> float:
        return MU0 if self.unit_system == "si" else 1.0

    def diameter(self) -> float:
        """Diameter of the dipole support (0 for empty or single-dipole scenes)."""
        if len(self.dipoles) < 2:
            return 0.0
        p = self.positions
        diff = p[:, None, :] - p[None, :, :]
        return float(np.sqrt((diff**2).sum(axis=-1)).max())


def net_moment(scene: DipoleScene) -> MomentVector:
    """Component-wise sum of the dipole moments."""
    total = scene.moments.sum(axis=0) if len(scene.dipoles) else np.zeros(3)
    return MomentVector(*map(float, total))


def algebraic_moment(scene: DipoleScene, j1: int, j2: int, j3: int, n: int) -> float:
    """<x1^j1 x2^j2 x3^j3 M_n>, the monomial-weighted moment of component n.

    For dipole ensembles the distributional pairing is the weighted point sum
    sum_k t1^j1 t2^j2 t3^j3 m_n over dipoles.
    """
    _integer(n, "component index n must be 1, 2 or 3", SceneError, 1, 3)
    # a fractional power of a negative coordinate is NaN
    for name, value in (("j1", j1), ("j2", j2), ("j3", j3)):
        _integer(value, f"exponent {name} must be a nonnegative integer", SceneError, 0)
    if not len(scene.dipoles):
        return 0.0
    p = scene.positions
    return float(np.sum(p[:, 0]**j1 * p[:, 1]**j2 * p[:, 2]**j3 * scene.moments[:, n - 1]))


def height_moment(scene: DipoleScene, p: int, q: int, r: int, n: int) -> float:
    """<(h - x3)^p x1^q x2^r M_n> via binomial expansion in the height h."""
    for name, value in (("p", p), ("q", q), ("r", r)):
        _integer(value, f"exponent {name} must be a nonnegative integer", SceneError, 0)
    h = scene.height
    return math.fsum(
        math.comb(p, i) * h ** (p - i) * (-1) ** i * algebraic_moment(scene, q, r, i, n)
        for i in range(p + 1)
    )


def scene_from_dict(data: dict) -> DipoleScene:
    """Build a scene from the JSON document structure, naming bad fields."""
    if not isinstance(data, dict):
        raise SceneError("scene document must be a JSON object")
    for key in ("unit_system", "height", "dipoles"):
        if key not in data:
            raise SceneError(f"scene document missing field {key!r}")
    raw = data["dipoles"]
    if not isinstance(raw, list):
        raise SceneError("field 'dipoles' must be a list")
    dipoles = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "position" not in entry or "moment" not in entry:
            raise SceneError(f"dipoles[{i}] must be an object with 'position' and 'moment'")
        dipoles.append(Dipole(entry["position"], entry["moment"]))
    return DipoleScene(tuple(dipoles), data["height"], data["unit_system"])


def load_scene(path: str) -> DipoleScene:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SceneError(f"scene file {path} is not valid JSON: {exc}") from exc
    return scene_from_dict(data)


def scene_to_dict(scene: DipoleScene) -> dict:
    return {
        "unit_system": scene.unit_system,
        "height": scene.height,
        "dipoles": [
            {"position": list(d.position), "moment": list(d.moment)} for d in scene.dipoles
        ],
    }
