import tracemalloc

import numpy as np
import pytest

from netmoment import Dipole, DipoleScene, GridParams, all_specs, build_grid, sample_field, sweep

DEMO_DIPOLES = (
    Dipole((3.5e-5, 3.0e-5, 1.0e-5), (4.5e-12, 3.5e-12, 1.0e-12)),
    Dipole((0.0, 0.0, 7.0e-5), (2.5e-12, 4.5e-12, 0.5e-12)),
    Dipole((4.0e-5, -5.5e-5, 1.15e-4), (-3.0e-12, 2.0e-12, 2.5e-12)),
    Dipole((-4.0e-5, 5.5e-5, 2.5e-5), (-1.0e-12, 2.0e-12, 1.5e-12)),
)
DEMO_HEIGHT = 2.5e-4
DEMO_TRUE = np.array([3.0e-12, 12.0e-12, 5.5e-12])


@pytest.fixture(scope="session")
def demo_scene() -> DipoleScene:
    """The four-dipole benchmark scene in SI units."""
    return DipoleScene(DEMO_DIPOLES, DEMO_HEIGHT, "si")


@pytest.fixture(scope="session")
def demo_scene_natural() -> DipoleScene:
    return DipoleScene(DEMO_DIPOLES, DEMO_HEIGHT, "natural")


@pytest.fixture(scope="session")
def demo_map_2mm(demo_scene):
    """Clean field map of the benchmark scene on the default grid at A = 2 mm."""
    return sample_field(demo_scene, build_grid(2e-3))


@pytest.fixture(scope="session")
def base_sweep(demo_scene):
    """Clean sweep over 24 log-spaced radii in [3e-4, 2e-3] m, all estimators."""
    radii = np.geomspace(3e-4, 2e-3, 24)
    with pytest.warns(UserWarning, match="asymptotic condition"):
        return sweep(demo_scene, radii, all_specs(), GridParams(200, 256))


@pytest.fixture(scope="session")
def wide_sweep(demo_scene):
    """Clean sweep out to 2e-2 m where the high-order power laws are visible."""
    radii = np.geomspace(3e-4, 2e-2, 24)
    with pytest.warns(UserWarning, match="asymptotic condition"):
        return sweep(demo_scene, radii, all_specs(), GridParams(200, 256))


@pytest.fixture(scope="session")
def traced_peak():
    """traced_peak(call): the peak bytes tracemalloc traces while call() runs."""
    def peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
