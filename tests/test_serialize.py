import json
import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qduality import linalg, qobjects, serialize
from qduality.correlations import JointTable
from qduality.duality import IsoPair, iso_forward
from qduality.errors import ValidationError
from qduality.qobjects import DensityOperator, Ensemble, Povm
from qduality.randomgen import random_channel, random_density, random_povm


def _bits(m) -> bytes:
    """Bit pattern of a matrix as complex128, so that -0.0 differs from 0.0."""
    return np.ascontiguousarray(m, dtype=complex).tobytes()


def test_matrix_roundtrip_exact(rng):
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    edges = np.array(
        [[-0.0, 5e-324, 1.7976931348623157e308], [0.1, -5e-324, -1.7976931348623157e308]]
    )
    signed = edges.astype(complex)
    signed.imag = edges[::-1]  # -0.0 and the extremes in both parts
    cases = [
        m,
        signed,
        m.T,  # a non-contiguous view
        edges,  # a real-dtype input
    ]
    assert not m.T.flags.c_contiguous
    for case in cases:
        back = serialize.json_to_matrix(serialize.matrix_to_json(case))
        assert back.shape == case.shape
        assert _bits(back) == _bits(case)


def test_matrix_shape_mismatch_rejected():
    with pytest.raises(ValidationError):
        serialize.json_to_matrix({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})


def test_matrix_nonfinite_rejected():
    with pytest.raises(ValidationError):
        serialize.json_to_matrix(
            {"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]}
        )


def test_state_roundtrip_and_validation(rng):
    rho = random_density(3, rng)
    back = serialize.state_from_json(serialize.state_to_json(rho))
    assert np.array_equal(back.matrix, rho.matrix)
    bad = serialize.state_to_json(rho)
    bad["matrix"]["data"][0][0] = 0.0  # breaks the unit-trace invariant
    with pytest.raises(ValidationError, match="trace"):
        serialize.state_from_json(bad)


def test_loaded_state_support_is_its_eigendecomposition(rng):
    m = random_density(4, rng, rank=2).matrix
    loaded = serialize.state_from_json(serialize.state_to_json(DensityOperator(m)))
    supp = linalg.support(loaded.matrix)
    assert loaded.support.rank == supp.rank == 2
    assert np.array_equal(loaded.support.eigenvalues, supp.eigenvalues)
    assert np.array_equal(loaded.support.eigenvectors, supp.eigenvectors)
    assert loaded.support.floor == supp.floor


def test_loaded_matrix_state_is_checked_once(rng, monkeypatch):
    # shape, Hermiticity and trace run once per matrix file, not again for the Support
    obj = {"dim": 4, "matrix": serialize.matrix_to_json(random_density(4, rng).matrix)}
    calls = []

    def counted(m, _fn=qobjects._checked_state_matrix):
        calls.append(np.shape(m))
        return _fn(m)

    monkeypatch.setattr(qobjects, "_checked_state_matrix", counted)
    loaded = serialize.state_from_json(obj)
    assert loaded.support.rank == 4
    assert calls == [(4, 4)]


def test_channel_roundtrip(rng):
    e = random_channel(2, 3, rng)
    back = serialize.channel_from_json(serialize.channel_to_json(e))
    assert all(np.array_equal(a, b) for a, b in zip(back.kraus, e.kraus))


def test_povm_roundtrip_and_completeness(rng):
    m = random_povm(2, 3, rng)
    back = serialize.povm_from_json(serialize.povm_to_json(m))
    assert all(np.array_equal(a, b) for a, b in zip(back.elements, m.elements))
    bad = serialize.povm_to_json(m)
    bad["elements"] = bad["elements"][:-1]
    with pytest.raises(ValidationError):
        serialize.povm_from_json(bad)


def test_ensemble_roundtrip(rng):
    ens = Ensemble(((0.25, random_density(2, rng)), (0.75, random_density(2, rng))))
    back = serialize.ensemble_from_json(serialize.ensemble_to_json(ens))
    assert back.members[0][0] == 0.25
    assert np.array_equal(back.members[1][1].matrix, ens.members[1][1].matrix)


def test_table_roundtrip():
    t = JointTable(np.array([[0.1, 0.2], [0.3, 0.4]]), ("a", "b"), ("c", "d"))
    back = serialize.table_from_json(serialize.table_to_json(t))
    assert np.array_equal(back.probs, t.probs)
    assert back.m_labels == ("a", "b")


def test_save_load_byte_identical(tmp_path, rng):
    rho = random_density(3, rng)
    path = tmp_path / "rho.json"
    serialize.save(path, serialize.state_to_json(rho))
    first = path.read_bytes()
    # compact, sorted and on one line
    text = first.decode()
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
    assert text.count("\n") == 1 and " " not in text
    serialize.save(path, serialize.state_to_json(serialize.state_from_json(serialize.load(path))))
    assert path.read_bytes() == first

    # a 64 x 64 matrix, the size of a tau at d = 8 written as a matrix
    tau = iso_forward(IsoPair(random_density(8, rng), random_channel(8, 8, rng))).state.matrix
    path = tmp_path / "tau.json"
    serialize.save(path, serialize.matrix_to_json(tau))
    first = path.read_bytes()
    back = serialize.json_to_matrix(serialize.load(path))
    assert _bits(back) == _bits(tau)
    serialize.save(path, serialize.matrix_to_json(back))
    assert path.read_bytes() == first


def test_factor_file_byte_identical(tmp_path, rng):
    # the state file `iso forward --out` writes at d = 8: tau as its factor
    tau = iso_forward(IsoPair(random_density(8, rng), random_channel(8, 8, rng))).state
    path = tmp_path / "tau.json"
    serialize.save(path, serialize.state_to_json(tau))
    first = path.read_bytes()
    assert json.loads(first)["dim"] == 64 and "matrix" not in json.loads(first)
    back = serialize.state_from_json(serialize.load(path))
    serialize.save(path, serialize.state_to_json(back))
    assert path.read_bytes() == first
    # the same factor, so the same SVD and the same Support as in memory
    assert "matrix" not in vars(back)
    assert _bits(back.support.factor()) == _bits(tau.support.factor())


def test_factor_state_loads_without_eigensolver(rng, numpy_calls):
    x = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    x /= np.linalg.norm(x)
    state = serialize.state_from_json(serialize.factor_to_json(x))
    supp = linalg.support_from_factor(x)
    assert state.dim == 6 and state.support.rank == supp.rank == 2
    assert np.array_equal(state.support.eigenvalues, supp.eigenvalues)
    assert np.allclose(state.matrix, x @ x.conj().T, atol=1e-16)
    # no eigensolver on a state loaded as its factor
    assert numpy_calls["eigh"] == numpy_calls["eigvalsh"] == []


def test_indented_file_loads_bit_identical(tmp_path, rng):
    rho = random_density(4, rng)
    obj = serialize.state_to_json(rho)
    old = tmp_path / "indented.json"
    old.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    back = serialize.state_from_json(serialize.load(old))
    assert _bits(back.matrix) == _bits(rho.matrix)
    new = tmp_path / "compact.json"
    serialize.save(new, serialize.state_to_json(back))
    assert serialize.load(new) == serialize.load(old)


@pytest.mark.parametrize(
    "data",
    [
        [[1.0, 0.0], [0.0]],
        [[1.0, 0.0], [0.0, 0.0, 0.0]],
        [1.0, 0.0],
        [None, [0.0, 0.0]],
        None,
        [[[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0]],
        [["one", 0.0], [0.0, 0.0]],
        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[10**400, 0.0], [0.0, 0.0]],  # a JSON integer beyond float range
        [["0.5", 0.0], [0.0, 0.0]],
        ["12", "34"],  # two-character strings, not [re, im] pairs
    ],
    ids=[
        "ragged-pair",
        "triple",
        "bare-numbers",
        "null-entry",
        "null-data",
        "deeper-nesting",
        "non-numeric-string",
        "rows-cols-mismatch",
        "out-of-float-range",
        "numeric-string",
        "digit-strings",
    ],
)
def test_malformed_matrix_data_rejected(data):
    with pytest.raises(ValidationError):
        serialize.json_to_matrix({"rows": 1, "cols": 2, "data": data})


@pytest.mark.parametrize(
    "obj",
    [
        {"dout": 2, "kraus": []},
        {"din": None, "dout": 2, "kraus": []},
        {"din": "two", "dout": 2, "kraus": []},
        [2, 2],
    ],
    ids=["missing-din", "null-din", "text-din", "not-an-object"],
)
def test_channel_loader_reports_bad_fields_as_validation_errors(obj):
    with pytest.raises(ValidationError):
        serialize.channel_from_json(obj)


def _same_value(a, b) -> bool:
    """Equal in type and structure, with floats compared bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return np.array(a).view(np.uint64) == np.array(b).view(np.uint64)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_value, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_value(a[k], b[k]) for k in a)
    return a == b


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                1e-300, -1e300, 1e300, 1.7976931348623157e308, 1e23, 0.1, 1 / 3]


@given(
    st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2 * cols,
                     max_size=2 * cols),
            min_size=1, max_size=4,
        )
    )
)
@example([_EDGE_FLOATS[:12], _EDGE_FLOATS[1:]])
def test_loads_matches_json_bit_for_bit(tmp_path_factory, rows):
    # finite doubles of every magnitude, -0.0 and subnormals included
    m = np.array(rows, dtype=float).view(complex)
    path = tmp_path_factory.mktemp("loads") / "m.json"
    serialize.save(path, serialize.matrix_to_json(m))
    raw = path.read_bytes()
    assert _same_value(serialize.loads(raw, str(path)), json.loads(raw))
    assert _bits(serialize.json_to_matrix(serialize.load(path))) == _bits(m)


def _stdlib_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


# where orjson's notation for a float differs from repr's, and either side of it
_NOTATION_EDGES = [1e-5, 1e-4, 9.999999999999999e-05, 1.3e-05, -1.3e-05, 1.5e-07, 1e-06,
                   1e16, -1e16, 9999999999999998.0, 1e22, 10.00001, 5e-324,
                   1.7976931348623157e308, -0.0, 0.0]
_NUMBER_LIKE = ["1e-5", "0.00001", "e5", "a-1e-7", "1e16", "null", 'say "1e-5"', "a\\b", "\u00e9",
                "\x7f"]
_json_values = st.recursive(
    st.one_of(
        st.floats(),  # nan, inf, subnormals and -0.0 included
        st.sampled_from(_NOTATION_EDGES),
        st.integers(),
        st.integers(2**63 - 3, 2**64 + 3) | st.integers(-(2**63) - 3, -(2**63) + 3),
        st.none(),
        st.booleans(),
        st.text(),
        st.text(string.printable),
        st.sampled_from(_NUMBER_LIKE),
    ),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(string.printable) | st.text(), inner),
    max_leaves=20,
)


@settings(max_examples=200)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40) | _json_values)
@example(_NOTATION_EDGES)
@example({"1e-5": ["0.00001", "e5", "a-1e-7", "1e16"], "0.00001": _NOTATION_EDGES})
@example(["\u00e9", 1e-5])  # json escapes non-ASCII text
@example(["\x7f", 1e-5])  # and DEL
@example(['say "1e-5"', "a\\b", 1e-5])  # an escaped quote ends no string
@example([float("nan"), float("inf"), -float("inf"), None])
def test_save_writes_the_bytes_of_json_dumps(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "save.json"
    serialize.save(path, obj)
    assert path.read_bytes() == _stdlib_bytes(obj)


def test_files_the_cli_writes_take_the_orjson_path(tmp_path, rng, monkeypatch):
    # a tau factor, a state matrix and a channel whose entries fall in every
    # notation orjson and repr differ in; none may go to json.dumps
    tau = iso_forward(IsoPair(random_density(4, rng), random_channel(4, 4, rng))).state
    edges = np.array([[3.7e-5, -1.2e-5, 1e-5, 9.999999999999999e-05],
                      [2.5e-7, -4e-12, 5e-324, 0.0],
                      [1e16, -3.5e17, -0.0, 0.0]])
    payloads = {
        "tau": serialize.state_to_json(tau),
        "state": serialize.state_to_json(random_density(3, rng)),
        "channel": serialize.channel_to_json(random_channel(2, 3, rng)),
    }
    tau_x = payloads["tau"]["factor"]  # tau is written as its factor
    for matrix in tau_x, payloads["state"]["matrix"], payloads["channel"]["kraus"][0]:
        matrix["data"][: edges.size // 2] = edges.reshape(-1, 2).tolist()
    expected = {name: _stdlib_bytes(obj) for name, obj in payloads.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("save fell back to json.dumps")

    monkeypatch.setattr(serialize.json, "dumps", refuse)
    for name, obj in payloads.items():
        serialize.save(tmp_path / f"{name}.json", obj)
        assert (tmp_path / f"{name}.json").read_bytes() == expected[name], name


def test_loads_depth_counts_brackets_outside_strings():
    assert serialize._depth(b'{"a": [[1, 2], [3]], "b": {}}') == 3
    assert serialize._depth(b'["]]]]", [[["[[", 1]]]]') == 4
    assert serialize._depth(b"") == serialize._depth(b"1.5") == 0


@pytest.mark.parametrize("depth", [serialize._MAX_DEPTH, serialize._MAX_DEPTH + 100])
def test_loads_either_side_of_the_depth_limit(depth):
    # past the limit json decodes the file, to the same value
    raw = b"[" * depth + b"0.1" + b"]" * depth
    assert serialize.loads(raw, "deep.json") == json.loads(raw)


@pytest.mark.parametrize(
    "raw, value",
    [
        (b'\xef\xbb\xbf{"a": [1.5]}', {"a": [1.5]}),
        ('{"a": [1.5]}'.encode("utf-16"), {"a": [1.5]}),
        (b'{"a": "\\u00e9\\n", "b": 2}', {"a": "\u00e9\n", "b": 2}),
        (b'[NaN, -Infinity]', [float("nan"), float("-inf")]),
        (b'[1e400]', [float("inf")]),
    ],
    ids=["utf8-bom", "utf16", "escapes", "nan-infinity", "beyond-float"],
)
def test_loads_falls_back_to_json(raw, value):
    got = serialize.loads(raw, "f.json")
    assert json.dumps(got) == json.dumps(value)


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"{not json", "malformed JSON in f.json at line 1 column 2"),
        (b"[1,]", "malformed JSON in f.json at line 1 column 4"),
        (b'["\xff"]', "can't decode byte 0xff"),
    ],
    ids=["bare-key", "trailing-comma", "not-utf8"],
)
def test_loads_reports_undecodable_input(raw, message):
    with pytest.raises(ValidationError, match=message):
        serialize.loads(raw, "f.json")
