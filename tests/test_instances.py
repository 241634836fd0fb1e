"""Instance ensembles and JSON file round-trip tests."""

import json
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from psdperm import (
    BadRankError,
    InstanceFile,
    ParseError,
    SchemaError,
    gen_instance,
    parse_instance,
    write_instance,
)


def test_identity_ensemble():
    psd = gen_instance(4, 4, ensemble="identity")
    np.testing.assert_array_equal(psd.matrix, np.eye(4))
    assert psd.rank == 4


def test_all_ones_ensemble():
    psd = gen_instance(3, 1, ensemble="all-ones")
    np.testing.assert_array_equal(psd.matrix, np.ones((3, 3)))
    assert psd.rank == 1
    np.testing.assert_allclose(psd.eigenvalues, [3.0, 0.0, 0.0], atol=1e-12)


def test_diagonal_ensemble():
    psd = gen_instance(5, 5, seed=2, ensemble="diagonal")
    assert np.count_nonzero(psd.matrix - np.diag(np.diag(psd.matrix))) == 0
    diag = np.real(np.diag(psd.matrix))
    assert diag.max() == pytest.approx(1.0)
    assert diag.min() > 0
    assert psd.rank == 5


def test_gaussian_gram_rank_and_normalization():
    for d in range(1, 9):
        psd = gen_instance(8, d, seed=d)
        assert psd.rank == d
        assert np.max(np.real(np.diag(psd.matrix))) == pytest.approx(1.0)


def test_gen_deterministic():
    a = gen_instance(6, 3, seed=7)
    b = gen_instance(6, 3, seed=7)
    assert a.matrix.tobytes() == b.matrix.tobytes()
    c = gen_instance(6, 3, seed=8)
    assert a.matrix.tobytes() != c.matrix.tobytes()


def test_gen_rejects_bad_rank():
    with pytest.raises(BadRankError):
        gen_instance(4, 0)
    with pytest.raises(BadRankError):
        gen_instance(4, 5)
    with pytest.raises(BadRankError):
        gen_instance(0, 0)
    with pytest.raises(BadRankError):
        gen_instance(4, 2, ensemble="identity")
    with pytest.raises(BadRankError):
        gen_instance(4, 2, ensemble="all-ones")
    with pytest.raises(BadRankError):
        gen_instance(4, 2, ensemble="diagonal")


def test_gen_rejects_unknown_ensemble():
    with pytest.raises(ValueError):
        gen_instance(4, 2, ensemble="wishart")


# --------------------------------------------------------------------- file


@pytest.mark.parametrize("seed", range(100))
def test_round_trip_is_bitwise(tmp_path, seed):
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    n = 1 + seed % 6
    M = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    path = tmp_path / "inst.json"
    write_instance(InstanceFile(matrix=M, metadata={"seed": seed}), path)
    back = parse_instance(path)
    np.testing.assert_array_equal(back.matrix.view(np.uint64), M.view(np.uint64))
    assert back.metadata == {"seed": seed}


#: finite float64 values that a decimal round trip tends to get wrong
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
               2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(parts=st.integers(1, 8).flatmap(lambda n: arrays(
    np.float64, (n, n, 2),
    elements=st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
)))
def test_round_trip_is_bitwise_property(tmp_path, parts):
    n = parts.shape[0]
    M = np.empty((n, n), dtype=complex)
    M.real, M.imag = parts[..., 0], parts[..., 1]
    path = tmp_path / "prop.json"
    write_instance(InstanceFile(matrix=M), path)
    back = parse_instance(path)
    # assert_array_equal alone would count -0.0 == 0.0
    np.testing.assert_array_equal(back.matrix.view(np.uint64), M.view(np.uint64))


def test_metadata_optional(tmp_path):
    path = tmp_path / "bare.json"
    write_instance(InstanceFile(matrix=np.eye(2)), path)
    inst = parse_instance(path)
    assert inst.metadata == {}
    assert inst.n == 2


def test_parse_error_reports_offset(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 1, "entries": [[{"re": 1.0')
    with pytest.raises(ParseError) as exc:
        parse_instance(path)
    assert exc.value.offset is not None


def write_obj(tmp_path, obj):
    path = tmp_path / "obj.json"
    path.write_text(json.dumps(obj))
    return path


def cell(x=1.0, y=0.0):
    return {"re": x, "im": y}


def test_schema_errors_name_the_field(tmp_path):
    cases = [
        ([1, 2, 3], "$"),
        ({"entries": [[cell()]]}, "n"),
        ({"n": True, "entries": [[cell()]]}, "n"),
        ({"n": 0, "entries": []}, "n"),
        ({"n": 2, "entries": [[cell(), cell()]]}, "entries"),
        ({"n": 1, "entries": [[cell(), cell()]]}, "entries[0]"),
        ({"n": 1, "entries": [[{"re": 1.0}]]}, "entries[0][0]"),
        ({"n": 1, "entries": [[{"re": "x", "im": 0.0}]]}, "entries[0][0].re"),
        ({"n": 1, "entries": [[{"re": 1.0, "im": True}]]}, "entries[0][0].im"),
        ({"n": 1, "entries": [[cell()]], "metadata": 5}, "metadata"),
        # past the first row, and the first defect in row-major order wins
        ({"n": 3, "entries": [[cell()] * 3, [cell()] * 3, [cell()] * 2]}, "entries[2]"),
        ({"n": 3, "entries": [[cell()] * 3, [cell(), 7, cell()], [cell()] * 2]},
         "entries[1][1]"),
        ({"n": 3, "entries": [[cell()] * 3, [cell()] * 2, [cell("x")] * 3]}, "entries[1]"),
        ({"n": 2, "entries": [[cell(), cell(float("nan"))], [cell("x"), cell()]]},
         "entries[0][1].re"),
        ({"n": 2, "entries": [[cell(), cell(float("inf"), "x")], [cell(), cell()]]},
         "entries[0][1].re"),
    ]
    for obj, fieldname in cases:
        with pytest.raises(SchemaError) as exc:
            parse_instance(write_obj(tmp_path, obj))
        assert exc.value.field == fieldname, obj


def test_schema_rejects_non_finite(tmp_path):
    # json.loads accepts bare NaN/Infinity, and integers beyond the float
    # range; the schema must not
    path = tmp_path / "nan.json"
    for literal in ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400):
        path.write_text('{"n": 1, "entries": [[{"re": %s, "im": 0.0}]]}' % literal)
        with pytest.raises(SchemaError) as exc:
            parse_instance(path)
        assert "entries[0][0].re" == exc.value.field, literal
        assert "must be finite" in str(exc.value), literal


#: the JSON text of one bad cell, and what `SchemaError.field` appends to
#: ``entries[i][j]`` when it names that cell
CELL_DEFECTS = [
    pytest.param("5", "", id="non-object"),
    pytest.param('{"re": 1.0}', "", id="missing-im"),
    pytest.param('{"re": "1.0", "im": 0.0}', ".re", id="string"),
    pytest.param('{"re": 1.0, "im": true}', ".im", id="true"),
    pytest.param('{"re": null, "im": 0.0}', ".re", id="null"),
    pytest.param('{"re": 1.0, "im": NaN}', ".im", id="nan"),
    pytest.param('{"re": Infinity, "im": 0.0}', ".re", id="infinity"),
    pytest.param('{"re": 1.0, "im": 1e400}', ".im", id="1e400"),
    pytest.param('{"re": 1%s, "im": 0.0}' % ("0" * 400), ".re", id="401-digits"),
    pytest.param("[1.0, 0.0]", "", id="list-cell"),
    pytest.param('{"re": [1.0], "im": 0.0}', ".re", id="list-value"),
]


@pytest.mark.parametrize("defect, suffix", CELL_DEFECTS)
@pytest.mark.parametrize("i, j", [(i, j) for i in range(3) for j in range(3)])
def test_single_defect_is_named(tmp_path, i, j, defect, suffix):
    rows = [['{"re": 0.5, "im": -0.0}'] * 3 for _ in range(3)]
    rows[i][j] = defect
    path = tmp_path / "defect.json"
    path.write_text('{"n": 3, "entries": [%s]}' % ", ".join(
        "[" + ", ".join(row) + "]" for row in rows))
    with pytest.raises(SchemaError) as exc:
        parse_instance(path)
    assert exc.value.field == f"entries[{i}][{j}]{suffix}"


def int_digit_limit() -> int:
    """Python's int-string digit limit (0 where there is none)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("data, offset", [
    pytest.param(b'\xff{"n": 1, "entries": [[{"re": 1.0, "im": 0.0}]]}', 0, id="not-utf8"),
    pytest.param(b'{"n": 1, "entries": [[{"re": 1.0, "im": 0.0}]]}\n\xfe', 48,
                 id="not-utf8-late"),
    pytest.param(('{"n": 1, "entries": [[{"re": 1%s, "im": 0.0}]]}'
                  % ("0" * int_digit_limit())).encode(), None, id="too-many-digits",
                 marks=pytest.mark.skipif(int_digit_limit() == 0,
                                          reason="no int-string digit limit")),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, None, id="nested-too-deeply"),
    # the offset counts bytes: each "\u00e9" takes two, and CR LF is not folded to LF
    pytest.param('{"metadata": {"label": "\u00e9\u00e9\u00e9\u00e9"}, x}'.encode(), 36,
                 id="non-ascii-before-error"),
    pytest.param(b'{"n": 1,\r\n\r\n x}', 13, id="crlf-before-error"),
])
def test_unreadable_text_is_a_parse_error(tmp_path, data, offset):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        parse_instance(path)
    assert exc.value.offset == offset


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        parse_instance(tmp_path / "absent.json")


def test_integer_entries_accepted(tmp_path):
    path = write_obj(tmp_path, {"n": 1, "entries": [[{"re": 2, "im": 0}]]})
    inst = parse_instance(path)
    assert inst.matrix[0, 0] == 2.0 + 0.0j

    # past 2**53 an integer rounds to the nearest double, as float() does
    big = [2**53 + 1, 2**53 + 3, -(2**63 + 12345), 2**64 + 1, 10**300 + 7,
           2**1024 - 2**970 - 1, 3, -(2**62)]
    path = write_obj(tmp_path, {"n": 2, "entries": [
        [{"re": big[0], "im": big[1]}, {"re": big[2], "im": big[3]}],
        [{"re": big[4], "im": big[5]}, {"re": big[6], "im": big[7]}],
    ]})
    got = parse_instance(path).matrix.view(np.float64).ravel()
    want = np.array([float(v) for v in big])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
