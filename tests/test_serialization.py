"""Canonical JSON and tensor document round trips."""

import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bochnerkit.curvature import (
    PointValidationError,
    flat_point,
    random_curvature_tensor,
    random_hermitian_point,
    rk_project,
    space_form_tensor,
    standard_J,
)
from bochnerkit.multilinear import DimensionMismatchError, SymmetryError
from bochnerkit.serialization import (
    DocumentFormatError,
    TensorDocument,
    canonical_json,
    dump_tensor,
    load_tensor,
)
from float_reference import float_cases, mismatches, percent_run, reference_document


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def test_canonical_json_sorts_keys_and_strips_space():
    assert canonical_json({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'


def test_canonical_json_negative_zero_normalized():
    assert canonical_json(-0.0) == "0"


def test_canonical_json_rejects_nan():
    with pytest.raises(DocumentFormatError):
        canonical_json(float("nan"))


@pytest.mark.parametrize("obj", [{1: "a"}, {1: "a", "b": 2}, {"b": 2, 1: "a"}])
def test_canonical_json_rejects_non_string_keys(obj):
    # the mixed cases cannot be sorted; the key check comes first
    with pytest.raises(DocumentFormatError, match="object keys must be strings, got int"):
        canonical_json(obj)


@given(x=st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_canonical_float_round_trips(x):
    assert float(json.loads(canonical_json(x))) == (0.0 if x == 0.0 else x)


def test_canonical_json_is_valid_json():
    doc = {"values": [1.0, 1e-300, -2.5e17, 3], "name": 'q"uote'}
    assert json.loads(canonical_json(doc)) == doc


_finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


@given(xs=st.lists(_finite_floats, max_size=40))
@settings(max_examples=200, deadline=None)
def test_float_run_matches_per_element_form(xs):
    # a run of Python floats is formatted in one call; it must give the bytes
    # the scalar branch gives element by element
    expected = "[" + ",".join(canonical_json(x) for x in xs) + "]"
    assert canonical_json(xs) == expected
    assert canonical_json(tuple(xs)) == expected
    assert canonical_json(np.array(xs, dtype=float)) == expected
    assert canonical_json([np.float64(x) for x in xs]) == expected


def test_float_run_pinned_literally():
    assert (canonical_json([0.1, -0.0, 5e-324, -2.5])
            == "[0.10000000000000001,0,4.9406564584124654e-324,-2.5]")
    assert canonical_json(np.array([[1.5, -0.0], [1e300, 3.0]])) == "[[1.5,0],[1.0000000000000001e+300,3]]"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_float_run_rejects_non_finite(bad):
    with pytest.raises(DocumentFormatError):
        canonical_json([1.0, bad, 2.0])
    with pytest.raises(DocumentFormatError):
        canonical_json(np.array([1.0, bad, 2.0]))


@pytest.mark.parametrize("at", [0, 10_368, 20_735], ids=["start", "middle", "end"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_long_float_run_rejects_non_finite(bad, at):
    # the length of R at dim 12, written in blocks of 4096; the run is checked before it is written
    run = np.random.default_rng(7).standard_normal(20_736).tolist()
    run[at] = bad
    with pytest.raises(DocumentFormatError):
        canonical_json(run)
    with pytest.raises(DocumentFormatError):
        canonical_json(np.array(run))


@pytest.mark.parametrize("value, text", [
    (np.array(1.5), "1.5"),
    (np.array(-0.0), "0"),
    (np.array(3), "3"),
    (np.array(True), "true"),
    (np.array(0.1, dtype=np.float32), "0.10000000149011612"),
    (np.array([0.1], dtype=np.float32), "[0.10000000149011612]"),
    (np.array([], dtype=float), "[]"),
])
def test_zero_dimensional_float32_and_empty_arrays(value, text):
    # a 0-d array is its scalar; float32 widens exactly to the double it is
    assert canonical_json(value) == text


def test_float_runs_write_the_bytes_of_the_percent_form():
    # about 100,000 seeded doubles: every binade, subnormals, decimal scales,
    # powers of ten and their neighbours, rounding ties and the format's edges
    values = float_cases(100_000, seed=33)
    assert values.size >= 100_000
    assert not mismatches(values)
    assert canonical_json(values.tolist()) == canonical_json(values)


def test_no_double_below_a_millionth_is_near_a_decade_boundary():
    # for q = 16 - k > 22 the writer's remainder s is off by up to 1e-14, and it
    # decides the decade of |x| 10**q from the sign of s at 1e16 and 1e17.  Only
    # a double next to a power of ten can come within a unit of a boundary, and
    # none comes within 0.01 (the nearest is 1e-205, at 0.011).
    for p in range(-323, -6):
        x = float(f"1e{p}")
        for y in (np.nextafter(x, 0.0), x, np.nextafter(x, 1.0)):
            for k in (p - 1, p):
                V = Fraction(float(y)) * Fraction(10) ** (16 - k)
                assert min(abs(V - 10**16), abs(V - 10**17)) > Fraction(1, 100), (y, k)


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_random_documents_write_the_bytes_of_the_percent_form(n):
    doc = _random_doc(n, seed=n)
    buf = io.StringIO()
    dump_tensor(doc, buf)
    raw = {"schema_version": 1, "dim": n, "g": doc.g.tolist(), "J": doc.J.tolist(),
           "R": doc.R.tolist(), "label": doc.label}
    assert buf.getvalue() == reference_document(raw)
    assert canonical_json(doc.R) == "[" + percent_run(doc.R) + "]"


def test_mixed_list_stays_per_element():
    assert canonical_json([1, 2.0, True, None]) == "[1,2,true,null]"
    assert canonical_json([2.0, True, 10**20]) == "[2,true,100000000000000000000]"
    assert canonical_json([np.float64(-0.0), 0.5, {"a": 1.0}]) == '[0,0.5,{"a":1}]'


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

def _sphere_doc():
    point = flat_point(6)
    return TensorDocument.from_point_tensor(
        point, space_form_tensor(point, 1.0), label="S6(1)"
    )


def _random_doc(n=12, seed=5):
    # non-orthonormal point and 17-significant-digit entries at the largest
    # size the algebra benchmark writes
    point = random_hermitian_point(n, seed)
    R = rk_project(point, random_curvature_tensor(n, seed))
    return TensorDocument.from_point_tensor(point, R, label=f"random({n})")


@pytest.mark.parametrize("make_doc", [_sphere_doc, _random_doc], ids=["S6(1)", "random(12)"])
def test_round_trip_is_bitwise(tmp_path, make_doc):
    doc = make_doc()
    path = tmp_path / "doc.json"
    dump_tensor(doc, path)
    loaded = load_tensor(path)
    assert loaded == doc
    # dumping again produces identical bytes
    buf = io.StringIO()
    dump_tensor(loaded, buf)
    assert buf.getvalue() == path.read_text()


def test_round_trip_through_stream():
    doc = _sphere_doc()
    buf = io.StringIO()
    dump_tensor(doc, buf)
    buf.seek(0)
    assert load_tensor(buf) == doc


def test_document_arrays_are_read_only(tmp_path):
    doc = _sphere_doc()
    path = tmp_path / "doc.json"
    dump_tensor(doc, path)
    for d in (doc, load_tensor(path)):
        for values, size in ((d.g, 36), (d.J, 36), (d.R, 6**4)):
            assert values.dtype == np.float64 and values.shape == (size,)
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0


def test_document_refuses_a_tensor_of_another_dimension():
    # such a document would dump, and load_tensor refuse it
    point = flat_point(6)
    with pytest.raises(DimensionMismatchError, match="6 != 8"):
        TensorDocument.from_point_tensor(point, space_form_tensor(flat_point(8), 1.0))


def test_document_equality_compares_values():
    doc = _sphere_doc()
    assert doc == TensorDocument(6, doc.g.copy(), doc.J.copy(), doc.R.copy(), "S6(1)")
    assert doc != TensorDocument(6, doc.g, doc.J, doc.R, "other")
    assert doc != TensorDocument(6, doc.g, doc.J, np.nextafter(doc.R, 2.0), "S6(1)")
    assert doc != doc.to_dict()


def test_document_rebuilds_point_and_tensor():
    doc = _sphere_doc()
    point, R = doc.to_point_tensor()
    assert point.dim == 6
    assert R.components[0, 1, 1, 0] == 1.0


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(DocumentFormatError):
        load_tensor(path)


def test_load_rejects_missing_keys(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text('{"dim": 4, "g": []}')
    with pytest.raises(DocumentFormatError):
        load_tensor(path)


def test_load_rejects_wrong_lengths(tmp_path):
    doc = _sphere_doc()
    raw = doc.to_dict()
    raw["R"] = raw["R"][:-1]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(raw, default=np.ndarray.tolist))
    with pytest.raises(DocumentFormatError):
        load_tensor(path)


def test_load_rejects_odd_dimension(tmp_path):
    raw = {
        "dim": 5,
        "g": list(np.eye(5).reshape(-1)),
        "J": [0.0] * 25,
        "R": [0.0] * 625,
    }
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(PointValidationError) as err:
        load_tensor(path)
    assert any("even dimension" in v.invariant for v in err.value.violations)


def test_load_rejects_bad_J(tmp_path):
    doc = _sphere_doc()
    raw = doc.to_dict()
    raw["J"] = list(np.eye(6).reshape(-1))  # J^2 = +I
    path = tmp_path / "badj.json"
    path.write_text(json.dumps(raw, default=np.ndarray.tolist))
    with pytest.raises(PointValidationError) as err:
        load_tensor(path)
    assert any("J squares" in v.invariant for v in err.value.violations)


def test_load_rejects_non_curvature_tensor(tmp_path):
    point = flat_point(4)
    bad = np.zeros((4,) * 4)
    bad[0, 1, 0, 1] = 1.0
    raw = {
        "dim": 4,
        "g": list(point.g.reshape(-1)),
        "J": list(standard_J(4).reshape(-1)),
        "R": list(bad.reshape(-1)),
    }
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(SymmetryError):
        load_tensor(path)


def test_load_rejects_unknown_schema(tmp_path):
    raw = _sphere_doc().to_dict()
    raw["schema_version"] = 99
    path = tmp_path / "version.json"
    path.write_text(json.dumps(raw, default=np.ndarray.tolist))
    with pytest.raises(DocumentFormatError):
        load_tensor(path)


def test_document_mixing_json_ints_and_floats_loads_as_floats(tmp_path):
    # the reader converts a list holding JSON integers; an all-float list is kept
    raw = _sphere_doc().to_dict()
    assert all(v.is_integer() for v in raw["R"]) and any(raw["R"])
    mixed = {**raw, "R": [int(v) if i % 2 else v for i, v in enumerate(raw["R"])]}
    floats_path, mixed_path = tmp_path / "floats.json", tmp_path / "mixed.json"
    floats_path.write_text(json.dumps(raw, default=np.ndarray.tolist))
    mixed_path.write_text(json.dumps(mixed, default=np.ndarray.tolist))
    assert '1.0,' in floats_path.read_text() and '1,' in mixed_path.read_text()
    loaded = load_tensor(mixed_path)
    assert loaded == load_tensor(floats_path) == _sphere_doc()
    assert loaded.R.dtype == np.float64 and loaded.R.shape == (6**4,)
    assert canonical_json(loaded.to_dict()) == canonical_json(raw)


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_load_rejects_schema_version_that_only_equals_one(tmp_path, version):
    # JSON true and 1.0 compare equal to 1 in Python; only the integer 1 is version 1
    raw = {**_sphere_doc().to_dict(), "schema_version": version}
    path = tmp_path / "version.json"
    path.write_text(json.dumps(raw, default=np.ndarray.tolist))
    with pytest.raises(DocumentFormatError, match="unsupported schema_version"):
        load_tensor(path)
