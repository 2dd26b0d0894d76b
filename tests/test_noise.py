import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmoment import (NoiseSpec, add_noise, build_grid, detrend_backward,
                       noise_sigma, sample_field)

finite = st.floats(-100, 100, allow_nan=False)


@pytest.fixture(scope="module")
def small_map(demo_scene):
    return sample_field(demo_scene, build_grid(7.5e-4, 32, 16))


def test_infinite_snr_is_passthrough(small_map):
    out = add_noise(small_map, NoiseSpec(math.inf, seed=1))
    assert np.array_equal(out.samples, small_map.samples)
    assert out.provenance.kind == "noisy"


def test_snr20_is_ten_percent_level(small_map):
    spec = NoiseSpec(20.0, seed=0)
    w = small_map.grid.weights
    s = small_map.samples
    mean = np.sum(w * s) / np.sum(w)
    var = np.sum(w * (s - mean) ** 2) / np.sum(w)
    assert noise_sigma(small_map, spec) == pytest.approx(0.1 * math.sqrt(var), rel=1e-12)


def test_plain_variance_toggle(small_map):
    sigma = noise_sigma(small_map, NoiseSpec(20.0, seed=0, weighted_variance=False))
    assert sigma == pytest.approx(0.1 * small_map.samples.std(), rel=1e-12)


def test_same_seed_reproduces_bitwise(small_map):
    a = add_noise(small_map, NoiseSpec(20.0, seed=42))
    b = add_noise(small_map, NoiseSpec(20.0, seed=42))
    assert np.array_equal(a.samples, b.samples)
    c = add_noise(small_map, NoiseSpec(20.0, seed=43))
    assert not np.array_equal(a.samples, c.samples)
    d = add_noise(small_map, NoiseSpec(20.0, seed=42, stream=1))
    assert not np.array_equal(a.samples, d.samples)


def test_seed_and_stream_beyond_64_bits_rejected():
    # the Philox key holds 64 bits of each; wider values would alias
    NoiseSpec(20.0, seed=2**64 - 1, stream=2**64 - 1)
    for field in ("seed", "stream"):
        for bad in (2**64, 5 + 2**64, -1):
            with pytest.raises(ValueError, match=field):
                NoiseSpec(20.0, **{"seed": 0, field: bad})


@pytest.mark.parametrize("field, bad", [("seed", 1.5), ("seed", 1.0), ("stream", 0.9),
                                        ("stream", "1"), ("seed", True), ("stream", True)])
def test_non_integer_seed_and_stream_rejected(field, bad):
    # a float seed used to be truncated into the key: seed=1.5 drew the noise of seed=1
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        NoiseSpec(20.0, **{"seed": 0, field: bad})


@pytest.mark.parametrize("bad", ["20", None, True, False, 20 + 0j])
def test_non_real_or_bool_snr_rejected(bad):
    # a str or None used to raise a bare TypeError, and True was a 1 dB SNR
    with pytest.raises(ValueError, match=re.escape(f"snr_db must be a real number, got {bad!r}")):
        NoiseSpec(bad, seed=1)


@pytest.mark.parametrize("bad", ["no", 1, 0, None])
def test_weighted_variance_must_be_a_bool(bad):
    # 'no' is truthy and used to select the weighted variance
    with pytest.raises(ValueError, match=re.escape(
            f"weighted_variance must be True or False, got {bad!r}")):
        NoiseSpec(20.0, seed=0, weighted_variance=bad)


def test_numpy_float_snr_accepted(small_map):
    # a float32 SNR used to compute sigma in float32 and so draw other noise
    want = NoiseSpec(20.0, seed=3)
    for snr in (np.float64(20.0), np.float32(20.0), 20):
        spec = NoiseSpec(snr, seed=3)
        assert type(spec.snr_db) is float
        assert noise_sigma(small_map, spec).hex() == noise_sigma(small_map, want).hex()
        assert np.array_equal(add_noise(small_map, spec).samples,
                              add_noise(small_map, want).samples)


def test_numpy_integer_seed_and_stream_accepted(small_map):
    a = add_noise(small_map, NoiseSpec(20.0, seed=np.int64(7), stream=np.uint8(3)))
    b = add_noise(small_map, NoiseSpec(20.0, seed=7, stream=3))
    assert np.array_equal(a.samples, b.samples)


def test_double_noising_rejected(small_map):
    noisy = add_noise(small_map, NoiseSpec(20.0, seed=0))
    with pytest.raises(ValueError, match="already"):
        add_noise(noisy, NoiseSpec(20.0, seed=1))


def test_noise_mean_and_variance(small_map):
    spec0 = NoiseSpec(20.0, seed=0)
    sigma = noise_sigma(small_map, spec0)
    n_seeds = 1000
    deltas = np.empty((n_seeds, len(small_map.samples)))
    for seed in range(n_seeds):
        noisy = add_noise(small_map, NoiseSpec(20.0, seed=seed))
        deltas[seed] = noisy.samples - small_map.samples
    mean = deltas.mean(axis=0)
    assert np.all(np.abs(mean) <= 5 * sigma / math.sqrt(n_seeds))
    pooled = deltas.var()
    assert pooled == pytest.approx(sigma**2, rel=0.05)


def test_detrend_constant_series():
    radii = np.linspace(1.0, 3.0, 15)
    out = detrend_backward([(a, 5.0) for a in radii])
    assert all(not p.fitted for p in out[:10])
    assert all(p.fitted and p.value == pytest.approx(5.0, abs=1e-12) for p in out[10:])


def test_detrend_exact_line_returns_intercept():
    radii = np.linspace(0.5, 2.0, 14)
    out = detrend_backward([(a, 5.0 + 2.0 * a) for a in radii])
    for p in out:
        if p.fitted:
            assert p.value == pytest.approx(5.0, abs=1e-10)


@given(st.lists(finite, min_size=12, max_size=20), finite, finite)
@settings(max_examples=40, deadline=None)
def test_detrend_affine_behavior(values, slope_add, const_add):
    radii = np.linspace(1.0, 2.0, len(values))
    base = detrend_backward(list(zip(radii, values)))
    tilted = detrend_backward([(a, v + slope_add * a) for a, v in zip(radii, values)])
    shifted = detrend_backward([(a, v + const_add) for a, v in zip(radii, values)])
    for b, t, s in zip(base, tilted, shifted):
        if b.fitted:
            # adding a linear-in-A component leaves the corrected level alone;
            # adding a constant shifts it by exactly that constant
            assert t.value == pytest.approx(b.value, abs=1e-8 * (1 + abs(slope_add) + abs(b.value)))
            assert s.value == pytest.approx(b.value + const_add,
                                            abs=1e-8 * (1 + abs(const_add) + abs(b.value)))


@given(st.lists(finite, min_size=12, max_size=18), st.floats(-8, 8))
@settings(max_examples=40, deadline=None)
def test_detrend_commutes_with_scaling(values, scale):
    radii = np.linspace(1.0, 2.0, len(values))
    base = detrend_backward(list(zip(radii, values)))
    scaled = detrend_backward([(a, scale * v) for a, v in zip(radii, values)])
    for b, s in zip(base, scaled):
        if b.fitted:
            assert s.value == pytest.approx(scale * b.value,
                                            abs=1e-9 * (1 + abs(scale)) * (1 + abs(b.value)))


def test_detrend_power_removes_inverse_square_term():
    radii = np.linspace(1e-3, 3e-3, 16)
    out = detrend_backward([(a, 5.0 + 2e-6 / a**2) for a in radii], power=-2)
    assert sum(p.fitted for p in out) == 6
    for p in out:
        if p.fitted:
            assert p.value == pytest.approx(5.0, abs=1e-10)


def test_detrend_power_validation():
    good = [(float(i), 0.0) for i in range(1, 15)]
    for power in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="power"):
            detrend_backward(good, power=power)
    with pytest.raises(ValueError, match="positive"):
        detrend_backward([(a - 5.0, v) for a, v in good], power=-2)


def test_detrend_input_validation():
    good = [(float(i), 0.0) for i in range(1, 15)]
    for window in (2, 3.5, 11.0):  # 3.5 used to fail inside numpy's slicing
        with pytest.raises(ValueError, match="window"):
            detrend_backward(good, window=window)
    with pytest.raises(ValueError, match="ascending"):
        detrend_backward(list(reversed(good)))
    with pytest.raises(ValueError, match="predecessors"):
        detrend_backward(good[:5], window=11)


def test_detrend_rejects_nonfinite_radius():
    # a NaN compares false both ways, so the ascending-order check alone let
    # it through and every window holding it came back NaN
    good = [(float(i), 0.0) for i in range(1, 15)]
    for index, bad in ((4, math.nan), (13, math.inf), (0, -math.inf)):
        series = list(good)
        series[index] = (bad, 0.0)
        with pytest.raises(ValueError, match=rf"index {index} must be finite, got {bad}"):
            detrend_backward(series)


def test_snr_of_minus_infinity_rejected():
    with pytest.raises(ValueError, match=re.escape("snr_db must be finite or +inf")):
        NoiseSpec(-math.inf, 0)


def test_detrend_rejects_nonfinite_or_non_numeric_value():
    # a NaN or infinite value came back as NaN fitted points, and float()
    # took "2.5" and True
    good = [(float(i), 0.0) for i in range(1, 15)]
    for index, bad in ((4, math.nan), (13, math.inf), (0, -math.inf), (7, "2.5"), (9, True)):
        series = list(good)
        series[index] = (series[index][0], bad)
        with pytest.raises(ValueError, match=re.escape(f"value at index {index} must be finite, "
                                                       f"got {bad!r}")):
            detrend_backward(series)
