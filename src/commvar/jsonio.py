"""JSON wire formats.

Complex scalars are [re, im] pairs; real matrices carry a "field": "real"
tag and plain float scalars.  Serialization is deterministic: given equal
inputs, dumps produces byte-identical output.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .commodel import CommutingTuple


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(obj) -> str:
    return _ENCODER.encode(obj)


class Text(str):
    """JSON text that dumps_tree writes as it stands."""


def dumps_tree(obj) -> str:
    """dumps(obj) for a tree of dicts and lists whose Text leaves are JSON
    already; a dict holding a Text, dict or list, or a list holding a Text or
    dict, is walked, and anything else, such as a dict of numbers, is dumped whole."""
    if isinstance(obj, Text):
        return obj
    if isinstance(obj, dict) and any(isinstance(v, (Text, dict, list)) for v in obj.values()):
        return "{" + ",".join(f"{dumps(k)}:{dumps_tree(obj[k])}" for k in sorted(obj)) + "}"
    if isinstance(obj, list) and any(isinstance(x, (Text, dict)) for x in obj):
        return "[" + ",".join(map(dumps_tree, obj)) + "]"
    return dumps(obj)


_JSON_TYPES = {int: "an integer", list: "a list", str: "a string"}


def _member(d: dict, key: str, kind: type = int):
    """d[key] of a JSON object d, of exactly the type kind: so a JSON
    integer is not a bool, a float or a string, and a missing key is null."""
    if type(d) is not dict:
        raise ValueError(f"expected an object holding {key}, got {type(d).__name__}")
    if type(v := d.get(key)) is not kind:
        raise ValueError(f"{key} must be {_JSON_TYPES[kind]}, got {type(v).__name__} {v!r:.40}")
    return v


def matrix_to_json(a: np.ndarray) -> dict:
    a = np.asarray(a)
    rows, cols = a.shape
    # cast before tolist, so integer and bool entries still encode as floats
    if np.iscomplexobj(a):
        z = a.astype(complex).reshape(-1)
        return {"rows": rows, "cols": cols, "data": np.stack([z.real, z.imag], axis=1).tolist()}
    return {"rows": rows, "cols": cols, "data": a.astype(float).reshape(-1).tolist(),
            "field": "real"}


# the all-zero complex entries, indexed by 2 signbit(re) + signbit(im)
_ZEROS = np.array(["[0.0,0.0]", "[0.0,-0.0]", "[-0.0,0.0]", "[-0.0,-0.0]"], dtype=object)


def matrix_texts(stack: np.ndarray) -> list[Text]:
    """dumps(matrix_to_json(m)) for each matrix m of a (k, rows, cols)
    complex stack, byte for byte, with no Python float for an exact zero: an
    entry whose parts are both zero is one of four constant texts, chosen by
    the sign bits of its parts, and every other entry is [repr(re),repr(im)].
    A real stack, or one holding a nan or an infinity (which json writes as
    NaN and Infinity), takes dumps(matrix_to_json(m)) itself."""
    k, rows, cols = stack.shape
    if not np.iscomplexobj(stack) or not np.isfinite(stack).all():
        return [Text(dumps(matrix_to_json(m))) for m in stack]
    parts = np.ascontiguousarray(stack, dtype=complex).view(float).reshape(k, rows * cols, 2)
    sign = np.signbit(parts)
    entries = _ZEROS[2 * sign[..., 0] + sign[..., 1]]
    live = (parts != 0).any(axis=2)
    entries[live] = [f"[{re!r},{im!r}]" for re, im in parts[live].tolist()]
    return [Text(f'{{"cols":{cols},"data":[{",".join(row)}],"rows":{rows}}}')
            for row in entries.tolist()]


def matrix_dicts(stack: np.ndarray) -> list[dict]:
    return [matrix_to_json(m) for m in stack]


def matrix_from_json(d: dict) -> np.ndarray:
    rows, cols = _member(d, "rows"), _member(d, "cols")
    if rows < 0 or cols < 0:
        raise ValueError(f"rows and cols must not be negative, got {rows!r:.40} and {cols!r:.40}")
    field = d.get("field", "complex")
    if field not in ("complex", "real"):
        raise ValueError(f'field must be "real" or "complex", got {field!r:.40}')
    real, data = field == "real", _member(d, "data", list)
    if len(data) != rows * cols:
        raise ValueError("matrix data length does not match rows*cols")
    try:
        unpaired = not real and set(map(len, data)) - {2}
    except TypeError:  # an entry with no length
        unpaired = True
    if unpaired:
        raise ValueError("complex matrix entries must be [re, im] pairs")
    # a JSON number decodes to an int or a float, and true and false to a bool
    entries = data if real else list(itertools.chain.from_iterable(data))
    if not set(map(type, entries)) <= {int, float}:
        raise ValueError("matrix entries must be numbers")
    data = np.array(entries, dtype=float)
    return (data if real else data.view(complex)).reshape(rows, cols)


def tuple_to_json(t: CommutingTuple, encode=matrix_dicts) -> dict:
    """The tuple's wire form; encode maps its (n, s, s) stack to the list of
    matrix encodings (matrix_to_json dicts, or matrix_texts for dumps_tree)."""
    return {
        "n": t.n,
        "s": t.s,
        "kind": t.kind,
        "mats": encode(t.mats),
    }


def tuple_from_json(d: dict) -> CommutingTuple:
    n, s = _member(d, "n"), _member(d, "s")
    mats = [matrix_from_json(m) for m in _member(d, "mats", list)]
    if len(mats) != n or s < 0 or any(m.shape != (s, s) for m in mats):
        raise ValueError("tuple shape fields disagree with matrix data")
    return CommutingTuple(_member(d, "kind", str), np.reshape(mats, (n, s, s)))

