"""JSON interchange formats for states, channels, measurements and tables.

Matrices travel as {"rows", "cols", "data"} with row-major [re, im] pairs;
a state travels as its matrix or as a factor X of it (rho = X X†).
Files are written as compact single-line JSON with sorted keys and floats in
shortest round-trip form, so save -> load -> save is byte-identical and values
survive exactly.  Loaders accept any whitespace, so indented files load too.
Reports printed for people keep the indented layout of `dumps`.

Both directions go through orjson where it can and the standard library where
it cannot.  `loads` decodes every file, and accepts and rejects the files json
does; `save` writes every file, byte for byte as json.dumps writes it, so the
files are those earlier versions wrote.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import struct
from pathlib import Path

import numpy as np
import orjson

from .classical import JointTable
from .errors import QdualityError, ValidationError
from .qobjects import DensityOperator, Ensemble, KrausChannel, Povm


def _loader(build):
    """Report a missing or mistyped field of a JSON payload as invalid input."""

    @functools.wraps(build)
    def load(obj):
        try:
            return build(obj)
        except QdualityError:
            raise
        except KeyError as err:
            raise ValidationError(f"missing field {err}") from err
        except (TypeError, ValueError, OverflowError) as err:
            raise ValidationError(f"malformed field: {err}") from err

    return load


def _count(obj, key) -> int:
    """A size field: a JSON integer, or a float with an integral value."""
    value = obj[key]
    if type(value) not in (int, float) or value % 1:
        raise ValidationError(f"{key} must be a whole number, got {value!r:.40}")
    return int(value)


def _number(obj, key) -> float:
    """A JSON number: strings and booleans are refused, though float() takes them."""
    value = obj[key]
    if type(value) not in (int, float):
        raise ValidationError(f"{key} must be a number, got {value!r:.40}")
    return float(value)


def _labels(obj, key) -> tuple[str, ...] | None:
    """A label field: a JSON array of strings, or None when absent, so the
    constructor's "0", "1", ... apply."""
    if key not in obj:
        return None
    value = obj[key]
    if type(value) is not list or any(type(s) is not str for s in value):
        raise ValidationError(f"{key} must be an array of strings, got {value!r:.40}")
    return tuple(value)


def matrix_to_json(m: np.ndarray) -> dict:
    # contiguous, so that the float view pairs each entry's re and im
    m = np.ascontiguousarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValidationError("matrix payload must be two-dimensional")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": m.view(float).reshape(-1, 2).tolist(),
    }


@_loader
def json_to_matrix(obj) -> np.ndarray:
    if not isinstance(obj, dict) or not {"rows", "cols", "data"} <= set(obj):
        raise ValidationError("matrix object must carry rows, cols and data")
    rows, cols = _count(obj, "rows"), _count(obj, "cols")
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValidationError(
            f"matrix data length {len(data)} does not match rows*cols = {rows * cols}"
        )
    if data and set(map(len, data)) != {2}:
        raise ValidationError("matrix data must be a list of [re, im] pairs")
    # one pass over the flattened pairs.  struct takes ints and floats and
    # rejects strings, which np.fromiter would parse.  np.array would first
    # probe the nesting of every entry, which takes longer still.
    flat = np.empty(2 * len(data))
    try:
        struct.pack_into(f"{flat.size}d", flat, 0, *itertools.chain.from_iterable(data))
    except struct.error as err:
        raise TypeError("matrix entries must be numbers in float range") from err
    # struct takes a boolean as 0 or 1 too: only the entries read as exactly
    # 0 or 1 are looked at again, not the whole file
    for i in np.flatnonzero((flat == 0.0) | (flat == 1.0)).tolist():
        if type(data[i >> 1][i & 1]) is bool:
            raise ValidationError("matrix entries must be numbers, not true or false")
    if not np.isfinite(flat).all():
        raise ValidationError("matrix entries must be finite")
    return flat.view(complex).reshape(rows, cols)


def state_to_json(rho: DensityOperator) -> dict:
    """{"dim", "factor"} for a state held as a factor X with fewer columns
    than rows, else {"dim", "matrix"}: whichever exact form is smaller.

    A tau built by iso_forward, or a state loaded as such a factor, is
    written as that factor, so loading it again reads the same X.
    """
    x = getattr(rho, "_factor", None)
    if x is not None and x.shape[1] < x.shape[0]:
        return factor_to_json(x)
    return {"dim": rho.dim, "matrix": matrix_to_json(rho.matrix)}


def factor_to_json(x: np.ndarray) -> dict:
    """The operator X X† on dim = rows of X, written as its factor."""
    return {"dim": int(x.shape[0]), "factor": matrix_to_json(x)}


@_loader
def state_from_json(obj) -> DensityOperator:
    """A state from exactly one of its matrix or a factor X of it.

    A matrix goes through the public constructor: its checks (Hermiticity,
    trace, positivity), with positivity read from the one eigendecomposition
    that is kept as the state's Support.  A factor is PSD and Hermitian by
    construction: after the finiteness and row checks, its unit trace is
    checked as ||X||_F^2, and its Support is one thin SVD of X when first
    read.
    """
    dim = _count(obj, "dim")
    if ("matrix" in obj) == ("factor" in obj):
        raise ValidationError("state needs exactly one of matrix or factor")
    if "factor" in obj:
        x = json_to_matrix(obj["factor"])
        if x.shape[0] != dim:
            raise ValidationError(f"state factor has {x.shape[0]} rows, not dim = {dim}")
        return DensityOperator._from_factor(x)
    mat = json_to_matrix(obj["matrix"])
    if mat.shape != (dim, dim):
        raise ValidationError("state matrix shape does not match declared dim")
    return DensityOperator(mat)


def channel_to_json(e: KrausChannel) -> dict:
    return {
        "din": e.din,
        "dout": e.dout,
        "kraus": [matrix_to_json(k) for k in e.kraus],
    }


@_loader
def channel_from_json(obj) -> KrausChannel:
    din, dout = _count(obj, "din"), _count(obj, "dout")
    kraus = tuple(json_to_matrix(k) for k in obj["kraus"])
    return KrausChannel(kraus, din, dout)


def povm_to_json(m: Povm) -> dict:
    return {
        "dim": m.dim,
        "elements": [matrix_to_json(e) for e in m.elements],
        "labels": list(m.labels),
    }


@_loader
def povm_from_json(obj) -> Povm:
    elements = tuple(json_to_matrix(e) for e in obj["elements"])
    labels = _labels(obj, "labels")
    dim = _count(obj, "dim")
    if any(e.shape != (dim, dim) for e in elements):
        raise ValidationError("measurement element shape does not match declared dim")
    return Povm(elements, labels)


def ensemble_to_json(ens: Ensemble) -> dict:
    return {
        "members": [
            {"weight": float(w), "state": state_to_json(s)} for w, s in ens.members

        ]
    }


@_loader
def ensemble_from_json(obj) -> Ensemble:
    members = tuple(
        (_number(m, "weight"), state_from_json(m["state"])) for m in obj["members"]
    )
    return Ensemble(members)


def table_to_json(t: JointTable) -> dict:
    return {
        "probs": matrix_to_json(t.probs.astype(complex)),
        "m_labels": list(t.m_labels),
        "n_labels": list(t.n_labels),
    }


@_loader
def table_from_json(obj) -> JointTable:
    probs = json_to_matrix(obj["probs"])
    if np.any(probs.imag):
        raise ValidationError("probability table entries must be real")
    return JointTable(probs.real, _labels(obj, "m_labels"), _labels(obj, "n_labels"))


def dumps(obj) -> str:
    """Indented text for reports read by people."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# orjson and repr give every float the same shortest round-trip digits and
# differ only in notation: orjson writes 1e16 and 1.5e-7 where repr writes
# 1e+16 and 1.5e-07, and 0.000013 where repr writes 1.3e-05 (for
# 1e-5 <= |x| < 1e-4).  These rewrite the first forms into the second.
_EXPONENT_SIGN = re.compile(rb"e(?=\d)")
_EXPONENT_PAD = re.compile(rb"e-(\d)(?!\d)")
# the lookbehind comes after the literal, so the scan searches for the
# literal; it skips the fraction of a number such as 10.00001
_FIVE_PLACES = re.compile(rb"0\.0000(?<!\d0\.0000)([1-9])(\d*)")
# subclasses, dataclasses and dates raise, so that json decides them
_PLAIN_JSON = (
    orjson.OPT_SORT_KEYS
    | orjson.OPT_PASSTHROUGH_SUBCLASS
    | orjson.OPT_PASSTHROUGH_DATACLASS
    | orjson.OPT_PASSTHROUGH_DATETIME
)


def _scientific(match) -> bytes:
    lead, rest = match.groups()
    return lead + (b"." + rest if rest else b"") + b"e-05"


def _repr_numbers(text: bytes) -> bytes:
    """JSON text outside strings, with every float in repr's notation."""
    text = _EXPONENT_PAD.sub(rb"e-0\1", _EXPONENT_SIGN.sub(b"e+", text))
    return _FIVE_PLACES.sub(_scientific, text)


def _compact(obj) -> bytes:
    """json.dumps(obj, sort_keys=True, separators=(",", ":")), as bytes.

    orjson writes them, several times faster, when it takes obj and its
    output holds no backslash (an escape), no byte outside printable ASCII
    (json escapes those) and no null (orjson's NaN and infinities).  With no
    backslash every double quote opens or closes a string, so the numbers
    lie between every other quote.  Anything else goes to json.dumps,
    whose value, or error, is then the result.  One divergence is left:
    orjson writes enums and UUIDs, which json rejects.
    """
    try:
        raw = orjson.dumps(obj, option=_PLAIN_JSON)
    except orjson.JSONEncodeError:
        pass
    else:
        if raw.isascii() and b"\\" not in raw and b"\x7f" not in raw and b"null" not in raw:
            pieces = raw.split(b'"')
            pieces[::2] = map(_repr_numbers, pieces[::2])
            return b'"'.join(pieces)
    # compact: with an indent json would leave its C encoder for pure Python
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def save(path, obj) -> None:
    """Write obj as one line of compact JSON with sorted keys."""
    Path(path).write_bytes(_compact(obj) + b"\n")


# Deeper files go to json.loads, which accepts them up to the interpreter's
# recursion limit (1000 by default) and then raises RecursionError; orjson
# has no such limit and overflows the C stack at a depth of about 10**5.
_MAX_DEPTH = 512
# every byte but the brackets and the double quote
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'[]{}"')))


def _depth(raw: bytes) -> int:
    """Deepest nesting of arrays and objects in JSON text without escapes.

    With no backslash every double quote opens or closes a string, so the
    brackets outside strings are those between every other quote.  For
    malformed text this still bounds the depth a parser reaches before it
    meets the first error: up to there the text is well formed.
    """
    marks = raw.translate(None, _NOT_STRUCTURE)
    brackets = np.frombuffer(b"".join(marks.split(b'"')[::2]), np.uint8)
    # bit 1 is set in '[' and '{' and clear in ']' and '}'
    return int(np.cumsum((brackets & 2).astype(np.int32) - 1).max(initial=0))


def loads(raw: bytes, source: str):
    """The JSON value in a file's bytes; any decoding failure is invalid input.

    orjson parses floats with correct rounding, as json does, and several
    times faster.  The bytes go to json.loads instead when orjson rejects
    them (NaN and Infinity, numbers beyond float range, a byte order mark,
    UTF-16 or UTF-32 text, a lone surrogate), when they hold a backslash
    escape, or when they nest deeper than _MAX_DEPTH: the value, or the
    error, is then json's.  One divergence is left: orjson reads an integer
    outside [-2**63, 2**64) as a float, where json keeps it an int.
    """
    try:
        if b"\\" not in raw and _depth(raw) <= _MAX_DEPTH:
            try:
                return orjson.loads(raw)
            except orjson.JSONDecodeError:
                pass
        return json.loads(raw)
    except json.JSONDecodeError as err:
        raise ValidationError(
            f"malformed JSON in {source} at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    except RecursionError as err:
        raise ValidationError(f"malformed JSON in {source}: nested too deeply") from err
    except UnicodeDecodeError as err:
        raise ValidationError(f"malformed JSON in {source}: {err}") from err


def load(path):
    return loads(Path(path).read_bytes(), str(path))
