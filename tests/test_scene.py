import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmoment import (Dipole, DipoleScene, SceneError, algebraic_moment,
                       height_moment, net_moment, scene_from_dict, scene_to_dict)

# dyadic floats keep every arithmetic identity exact
dyadic = st.integers(min_value=-64, max_value=64).map(lambda n: n / 16.0)


def make_scene(rows, height=8.0, units="natural"):
    return DipoleScene(tuple(Dipole(p, m) for p, m in rows), height, units)


def test_net_moment_demo_scene(demo_scene):
    m = net_moment(demo_scene)
    assert m.as_array() == pytest.approx([3.0e-12, 12.0e-12, 5.5e-12], rel=1e-14)


def test_net_moment_empty_scene():
    scene = DipoleScene((), 1.0, "natural")
    assert net_moment(scene).as_array().tolist() == [0.0, 0.0, 0.0]


def test_net_moment_single_dipole_identity():
    scene = make_scene([((0.5, -1.0, 2.0), (1.25, -0.5, 3.0))])
    assert net_moment(scene).as_array().tolist() == [1.25, -0.5, 3.0]


def test_algebraic_moment_zeroth_equals_net(demo_scene):
    m = net_moment(demo_scene)
    for n in (1, 2, 3):
        assert algebraic_moment(demo_scene, 0, 0, 0, n) == m[n - 1]


@pytest.mark.parametrize("args, name", [
    ((math.nan, 0, 0, 1), "exponent j1"), ((1.5, 0, 0, 1), "exponent j1"),
    ((0, True, 0, 1), "exponent j2"), ((0, 0, -1, 1), "exponent j3"),
    ((0, 0, 0, True), "component index n"), ((0, 0, 0, 2.0), "component index n"),
])
def test_algebraic_moment_rejects_bad_exponents_and_component(demo_scene, args, name):
    # NaN gave NaN, 1.5 a fractional-power sum, and n = True was component 1
    with pytest.raises(SceneError, match=re.escape(f"{name} must be")):
        algebraic_moment(demo_scene, *args)


@pytest.mark.parametrize("args, name", [
    ((1.5, 0, 0, 1), "exponent p"), ((True, 0, 0, 1), "exponent p"),
    ((1, 0.5, 0, 1), "exponent q"), ((1, 0, -2, 1), "exponent r"),
])
def test_height_moment_rejects_bad_exponents(demo_scene, args, name):
    # p = 1.5 raised a bare TypeError from range
    with pytest.raises(SceneError, match=re.escape(f"{name} must be a nonnegative integer")):
        height_moment(demo_scene, *args)


def test_moments_accept_numpy_integer_exponents(demo_scene):
    assert (algebraic_moment(demo_scene, np.int64(1), 0, np.int64(2), np.int64(3))
            == algebraic_moment(demo_scene, 1, 0, 2, 3))
    assert height_moment(demo_scene, np.int64(2), 0, 0, 1) == height_moment(demo_scene, 2, 0, 0, 1)


def test_algebraic_moment_point_sum():
    scene = make_scene([((1.0, 2.0, 3.0), (0.0, 0.0, 5.0))], height=10.0)
    assert algebraic_moment(scene, 1, 0, 1, 3) == 15.0


def test_algebraic_moment_demo_x1_m3(demo_scene):
    # hand sum over the four dipoles: 3.5*1 + 0*0.5 + 4*2.5 - 4*1.5 (x 1e-17)
    expected = (3.5 * 1.0 + 0.0 * 0.5 + 4.0 * 2.5 - 4.0 * 1.5) * 1e-17
    assert algebraic_moment(demo_scene, 1, 0, 0, 3) == pytest.approx(expected, rel=1e-13)


def test_algebraic_moment_bad_component(demo_scene):
    with pytest.raises(SceneError):
        algebraic_moment(demo_scene, 0, 0, 0, 4)


@given(st.lists(st.tuples(st.tuples(dyadic, dyadic, dyadic),
                          st.tuples(dyadic, dyadic, dyadic)), max_size=4),
       st.lists(st.tuples(st.tuples(dyadic, dyadic, dyadic),
                          st.tuples(dyadic, dyadic, dyadic)), max_size=4),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 2), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_moment_linearity_under_concatenation(rows_a, rows_b, j1, j2, j3, n):
    a = make_scene(rows_a)
    b = make_scene(rows_b)
    both = make_scene(rows_a + rows_b)
    assert (algebraic_moment(both, j1, j2, j3, n)
            == algebraic_moment(a, j1, j2, j3, n) + algebraic_moment(b, j1, j2, j3, n))


@given(st.lists(st.tuples(st.tuples(dyadic, dyadic, dyadic),
                          st.tuples(dyadic, dyadic, dyadic)), min_size=1, max_size=4),
       dyadic, st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_translation_shifts_first_moment(rows, delta, n):
    base = make_scene(rows)
    shifted = make_scene([((p[0] + delta, p[1], p[2]), m) for p, m in rows])
    m_n = net_moment(base)[n - 1]
    assert (algebraic_moment(shifted, 1, 0, 0, n)
            == algebraic_moment(base, 1, 0, 0, n) + delta * m_n)


def test_height_moment_matches_direct_sum(demo_scene):
    h = demo_scene.height
    for (p, q, r, n) in ((1, 0, 0, 1), (2, 1, 0, 3), (3, 0, 2, 2), (0, 2, 1, 1)):
        direct = sum((h - pos[2]) ** p * pos[0] ** q * pos[1] ** r * mom[n - 1]
                     for pos, mom in zip(demo_scene.positions, demo_scene.moments))
        assert height_moment(demo_scene, p, q, r, n) == pytest.approx(direct, rel=1e-12)


def test_height_above_dipoles_enforced():
    with pytest.raises(SceneError, match="height"):
        make_scene([((0.0, 0.0, 2.0), (1.0, 0.0, 0.0))], height=2.0)


def test_non_finite_rejected():
    with pytest.raises(SceneError):
        Dipole((0.0, 0.0, math.nan), (1.0, 0.0, 0.0))
    with pytest.raises(SceneError):
        Dipole((0.0, 0.0, 0.0), (math.inf, 0.0, 0.0))


def test_bad_unit_system():
    with pytest.raises(SceneError, match="unit_system"):
        DipoleScene((), 1.0, "imperial")


def test_scene_json_round_trip(demo_scene):
    rebuilt = scene_from_dict(scene_to_dict(demo_scene))
    assert rebuilt == demo_scene


def test_scene_from_dict_names_offending_field():
    with pytest.raises(SceneError, match="height"):
        scene_from_dict({"unit_system": "si", "height": "tall", "dipoles": []})
    with pytest.raises(SceneError, match="dipoles\\[0\\]"):
        scene_from_dict({"unit_system": "si", "height": 1.0, "dipoles": [{"position": [0, 0, 0]}]})


@pytest.mark.parametrize("field, value, name", [
    ("height", "1e-3", "height"), ("height", True, "height"), ("height", None, "height"),
    ("position", ["0", "0", "0"], "dipole position"),
    ("position", [0.0, True, 0.0], "dipole position"),
    ("moment", [1e-12, 0.0, "1e-12"], "dipole moment"),
    ("moment", [1e-12, 0.0], "dipole moment"), ("moment", 1e-12, "dipole moment"),
])
def test_scene_document_rejects_strings_and_booleans_as_numbers(field, value, name):
    # float() took "1e-3" as 0.001, true as 1.0 and "0" as 0.0
    doc = {"unit_system": "si", "height": 1e-3,
           "dipoles": [{"position": [0.0, 0.0, 0.0], "moment": [1e-12, 0.0, 0.0]}]}
    if field == "height":
        doc["height"] = value
    else:
        doc["dipoles"][0][field] = value
    with pytest.raises(SceneError, match=re.escape(f"{name} must be")):
        scene_from_dict(doc)


def test_mu0_by_unit_system(demo_scene, demo_scene_natural):
    assert demo_scene.mu0 == pytest.approx(4e-7 * np.pi)
    assert demo_scene_natural.mu0 == 1.0


@pytest.mark.parametrize("entry", [(0.0, 0.0, 0.0), 5, ((0.0, 0.0, 0.0),)])
def test_scene_rejects_a_dipole_entry_that_is_not_a_pair(entry):
    # Dipole(*entry) raised a bare TypeError
    good = Dipole((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    with pytest.raises(SceneError, match=re.escape(
            "dipoles[1] must be a Dipole or a (position, moment) pair")):
        DipoleScene((good, entry), 1.0)


@pytest.mark.parametrize("dipoles", [5, 1.0, None])
def test_scene_rejects_dipoles_that_are_not_iterable(dipoles):
    # enumerate() raised a bare TypeError
    with pytest.raises(SceneError, match=re.escape(
            f"dipoles must be an iterable of dipoles, got {dipoles!r}")):
        DipoleScene(dipoles, 1.0)


def test_scene_arrays_are_read_only_and_keep_their_bits():
    # a write used to reach net_moment, while dipoles and scene_to_dict kept the old value
    scene = DipoleScene((((1e-5, 2e-5, 3e-5), (1e-12, 2e-12, 3e-12)),), 1.0)
    for arr in (scene.positions, scene.moments):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 5.0
    assert scene.positions.tolist() == [[1e-5, 2e-5, 3e-5]]
    assert scene.moments.tolist() == [[1e-12, 2e-12, 3e-12]]
    assert net_moment(scene).m1 == 1e-12


def test_scene_arrays_are_its_own_fields_and_depths_are_height_minus_x3(demo_scene):
    # positions and moments used to sit behind two forwarding properties
    init = {f.name: f.init for f in dataclasses.fields(DipoleScene)}
    assert [init[k] for k in ("positions", "moments", "depths")] == [False] * 3
    assert not hasattr(demo_scene, "_positions") and not hasattr(demo_scene, "_moments")
    assert [k for k, v in vars(DipoleScene).items() if isinstance(v, property)] == ["mu0"]
    depths = demo_scene.depths
    want = demo_scene.height - demo_scene.positions[:, 2]
    assert depths.shape == (4,) and depths.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        depths[0] = 1.0


def test_an_empty_or_one_dipole_scene_has_no_extent():
    empty = DipoleScene((), 1.0)
    assert algebraic_moment(empty, 1, 0, 0, 1) == 0.0
    assert empty.depths.shape == (0,)
    for scene in (empty, make_scene([((0.5, -1.0, 2.0), (1.0, 0.0, 0.0))])):
        assert scene.diameter() == 0.0


@pytest.mark.parametrize("doc, text", [
    ([], "scene document must be a JSON object"),
    ({"unit_system": "si", "dipoles": []}, "scene document missing field 'height'"),
    ({"unit_system": "si", "height": 1.0, "dipoles": {}}, "field 'dipoles' must be a list"),
])
def test_scene_document_must_be_an_object_with_a_dipole_list(doc, text):
    with pytest.raises(SceneError, match=re.escape(text)):
        scene_from_dict(doc)
