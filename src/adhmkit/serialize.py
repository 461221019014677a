"""JSON encoding of the data kinds used by the command line tool.

Complex scalars are two-element arrays [re, im]; matrices are arrays of row
arrays; covectors are single row arrays.  Floats pass through Python's
shortest round-trip repr, so decode(encode(x)) is bit-exact.  Every decoder
validates shapes against the declared sizes and raises ParseError with a
JSON-pointer-ish path on any mismatch.

Each numeric block (a row, a matrix or the whole C stack) is encoded with one
numpy call and decoded in one vectorised pass that accepts only plain lists
of the declared shape holding finite ``int``/``float`` pairs.  Anything that
pass declines goes to the per-scalar walk, which is the sole judge of what is
valid: it either builds the same array or raises the ParseError with its path.

``dumps`` writes exactly the text of the stdlib's encoder with ``indent=2``
and ``allow_nan=False``, errors included, through an emitter of its own.  A
regular nested block of plain floats is rendered in one pass: one finiteness
check, one ``float.__repr__`` map, and one fill of a template whose brackets
and separators are built level by level.  Everything else is walked item by
item the way the stdlib's indent encoder walks it.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ParseError
from .geometry import TotPoint, YTildePoint
from .hirz import ChartCoords, HirzADHM, chart_coords, hirz_adhm
from .linalg import ProjPoint
from .plane import PlaneADHM, plane_adhm

__all__ = [
    "encode",
    "decode",
    "loads",
    "dumps",
    "load_path",
]

# kind tag -> (class, constructor, size fields, {numeric field: shape}), each
# listed in the key order of the JSON object.  A shape names the sizes that
# give its dimensions ("" is a complex scalar); the constructor takes the
# sizes, then the fields.  Every size but the chart index m is a count >= 1.
_KINDS = {
    "plane_adhm": (PlaneADHM, lambda c, *fields: plane_adhm(*fields), "c",
                   {"b1": "cc", "b2": "cc", "e": "c"}),
    "hirz_adhm": (HirzADHM, hirz_adhm, "nc", {"A1": "cc", "A2": "cc", "C": "ncc", "e": "c"}),
    "chart_coords": (ChartCoords, chart_coords, "mnc",
                     {"B": "cc", "E": "cc", "e": "c", "A2m": "cc"}),
    # the relations of the two point kinds are checked where the twist n is known
    "tot_point": (TotPoint, TotPoint, "", dict.fromkeys(("y1", "y2", "u1", "u2"), "")),
    "ytilde_point": (YTildePoint, YTildePoint, "", dict.fromkeys(("y1", "y2", "x1", "x2"), "")),
}


def _pairs(a) -> list:
    """Nested lists of [re, im] pairs for a complex scalar or array."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def encode(obj) -> dict:
    for kind, (cls, _, sizes, fields) in _KINDS.items():
        if isinstance(obj, cls):
            return {"kind": kind, **{s: getattr(obj, s) for s in sizes},
                    **{f: _pairs(getattr(obj, f)) for f in fields}}
    if isinstance(obj, ProjPoint):
        return {"point": [_pairs(obj.lam1), _pairs(obj.lam2)]}
    raise TypeError(f"encode: unsupported object type {type(obj).__name__}")


def _get(data, key, path):
    if not isinstance(data, dict):
        raise ParseError("expected a JSON object", path)
    if key not in data:
        raise ParseError(f"missing key {key!r}", path)
    return data[key]


def _parse_int(data, key, path):
    v = _get(data, key, path)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"expected an integer, got {v!r}", f"{path}/{key}")
    return v


def _parse_complex(v, path):
    if (not isinstance(v, list) or len(v) != 2
            or not all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in v)):
        raise ParseError("expected a complex scalar [re, im]", path)
    try:
        z = complex(float(v[0]), float(v[1]))
    except OverflowError:  # an int literal beyond float range
        raise ParseError("complex scalar must be finite", path) from None
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ParseError("complex scalar must be finite", path)
    return z


def _regular(v):
    """(shape, leaves, leaf types) when ``v`` is a regular block of nested lists, else None.

    One pass per nesting level: while every item is exactly a list, all of
    them must share one non-zero length, the next entry of ``shape``.  The
    first level whose items are not all lists is returned flat as
    ``leaves`` with the set of their exact types, for callers to check.
    """
    items, shape = [v], ()
    while (types := set(map(type, items))) == {list}:
        sizes = set(map(len, items))
        if len(sizes) != 1 or 0 in sizes:
            return None
        shape += (sizes.pop(),)
        items = list(chain.from_iterable(items))
    return shape, items, types


def _fast_block(v, shape):
    """The complex array of ``shape`` that ``v`` holds, or None to defer to the walk.

    ``v`` must be a regular block of the declared shape plus a trailing
    ``(2,)``, every scalar exactly an int or float; numpy then converts
    them all at once.  This accepts a subset of what the walk accepts and
    builds the same bits (the sign of -0.0 included), so any input it
    declines, valid or not, is judged by the walk alone.
    """
    block = _regular(v)
    if block is None or block[0] != shape + (2,) or not block[2] <= {int, float}:
        return None
    items = block[1]
    try:
        f = np.array(items, dtype=float)
    except OverflowError:  # an int beyond float range: the walk raises it
        return None
    if not np.isfinite(f).all():
        return None
    return f.view(complex).reshape(shape)


# what a block of each rank must be, from its length and its field's name
_BLOCK_WANTED = {1: "a row of {} complex scalars", 2: "a matrix with {} rows", 3: "{} {}-matrices"}


def _walk_block(v, shape, path):
    """The per-scalar walk: a complex scalar at ``()``, else a list of ``shape[0]`` blocks."""
    if not shape:
        return _parse_complex(v, path)
    if not isinstance(v, list) or len(v) != shape[0]:
        wanted = _BLOCK_WANTED[len(shape)].format(shape[0], path.rsplit("/", 1)[-1])
        raise ParseError(f"expected {wanted}", path)
    return np.array([_walk_block(t, shape[1:], f"{path}[{i}]") for i, t in enumerate(v)])


def _parse_block(v, shape, path):
    z = _fast_block(v, shape)
    return _walk_block(v, shape, path) if z is None else z


def decode(data, path="$"):
    """Decode a JSON object into the value its ``kind`` field declares."""
    kind = _get(data, "kind", path)
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ParseError(f"unknown kind {kind!r}", f"{path}/kind")
    _, make, sizes, fields = _KINDS[kind]
    dims = {s: _parse_int(data, s, path) for s in sizes}
    for s, size in dims.items():
        if size < 1 and s != "m":
            raise ParseError(f"{s} must be >= 1", f"{path}/{s}")
    values = []
    for f, spec in fields.items():
        v, shape, at = _get(data, f, path), tuple(dims[s] for s in spec), f"{path}/{f}"
        values.append(_parse_block(v, shape, at) if shape else _parse_complex(v, at))
    return make(*dims.values(), *values)


_INDENT = "  "
_NONFINITE = "Out of range float values are not JSON compliant: "


def _float_text(x) -> str:
    if not math.isfinite(x):
        raise ValueError(_NONFINITE + repr(x))
    return float.__repr__(x)


def _key_text(key) -> str:
    """A dict key converted to a string the way the stdlib does before quoting."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _block_seps(shape, level) -> list:
    """The strings around the values of a block whose "[" sits on indent ``level``.

    One more string than values: ``seps[i]`` goes before value ``i`` and the
    last one closes the block.  A level's list repeats its child's inner
    separators, and glues adjacent children with ",\\n" and the indent.
    """
    inner = "\n" + _INDENT * (level + 1)
    child = _block_seps(shape[1:], level + 1) if len(shape) > 1 else ["", ""]
    first, mid, last = child[0], child[1:-1], child[-1]
    joint = last + "," + inner + first
    return (["[" + inner + first] + (mid + [joint]) * (shape[0] - 1) + mid
            + [last + "\n" + _INDENT * level + "]"])


def _block_text(shape, items, level) -> str:
    """Text of a float block: one finiteness check, one repr map, one fill."""
    finite = np.isfinite(np.array(items))
    if not finite.all():
        raise ValueError(_NONFINITE + repr(items[int(np.argmin(finite))]))
    return "%s".join(_block_seps(shape, level)) % tuple(map(float.__repr__, items))


def _join(open_, parts, close, level) -> str:
    if not parts:
        return open_ + close
    inner = "\n" + _INDENT * (level + 1)
    return open_ + inner + ("," + inner).join(parts) + "\n" + _INDENT * level + close


def _emit(o, level) -> str:
    """JSON text of ``o`` whose first character sits on a line of indent ``level``."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    if isinstance(o, (list, tuple)):
        block = _regular(o)
        if block is not None and block[2] == {float}:
            return _block_text(block[0], block[1], level)
        return _join("[", [_emit(v, level + 1) for v in o], "]", level)
    if isinstance(o, dict):
        parts = [encode_basestring_ascii(_key_text(k)) + ": " + _emit(v, level + 1)
                 for k, v in o.items()]
        return _join("{", parts, "}", level)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def dumps(data) -> str:
    """JSON text for a library object (or an already-encoded dict).

    The text is what the stdlib's encoder writes with ``indent=2`` and
    ``allow_nan=False``: ValueError on NaN or infinity, TypeError on an
    unsupported object.
    """
    if not isinstance(data, (dict, list)):
        data = encode(data)
    return _emit(data, 0)


def loads(text: str, path="$"):
    try:
        data = json.loads(text)
    # JSONDecodeError, an int literal over the digit limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}", path) from exc
    return decode(data, path)


def load_path(filename: str):
    try:
        with open(filename, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", filename) from exc
    return loads(text, filename)
