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
from .gammaconf import BASEPOINT, Configuration, Label, SpherePoint
from .rankstrata import SubquotientChart
from .symuniverse import UniverseBasis


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _count(d: dict, field: str) -> int:
    if type(v := d[field]) is not int:  # a JSON integer: not a bool, a float or a string
        raise ValueError(f"{field} must be an integer, got {type(v).__name__} {v!r:.40}")
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


def matrix_from_json(d: dict) -> np.ndarray:
    rows, cols = _count(d, "rows"), _count(d, "cols")
    real, data = d.get("field") == "real", d["data"]
    if len(data) != rows * cols:
        raise ValueError("matrix data length does not match rows*cols")
    if not real and set(map(len, data)) - {2}:
        raise ValueError("complex matrix entries must be [re, im] pairs")
    # one flat array: a string gives a str array, null (or an int past int64) an object one
    data = np.array(data if real else list(itertools.chain.from_iterable(data)))
    if data.ndim != 1 or not (data.dtype.kind in "biuf" or data.dtype.kind == "O" and all(
            isinstance(x, (int, float)) for x in data)):
        raise ValueError("matrix entries must be numbers")
    data = data.astype(float)
    return (data if real else data.view(complex)).reshape(rows, cols)


def tuple_to_json(t: CommutingTuple) -> dict:
    return {
        "n": t.n,
        "s": t.s,
        "kind": t.kind,
        "mats": [matrix_to_json(m) for m in t.mats],
    }


def tuple_from_json(d: dict) -> CommutingTuple:
    kind = d["kind"]
    n, s = _count(d, "n"), _count(d, "s")
    mats = [matrix_from_json(m) for m in d["mats"]]
    if len(mats) != n or s < 0 or any(m.shape != (s, s) for m in mats):
        raise ValueError("tuple shape fields disagree with matrix data")
    return CommutingTuple(kind, np.reshape(mats, (n, s, s)))


def point_to_json(p: SpherePoint):
    if p.is_basepoint:
        return "basepoint"
    return {"coords": [[float(z.real), float(z.imag)] for z in p.coords]}


def point_from_json(d) -> SpherePoint:
    if d == "basepoint":
        return BASEPOINT
    return SpherePoint([complex(re, im) for re, im in d["coords"]])


def config_to_json(c: Configuration) -> dict:
    return {
        "universe": {"n": c.universe.n, "D": c.universe.D},
        "labels": [
            {"frame": matrix_to_json(lab.frame), "point": point_to_json(lab.point)}
            for lab in c.labels
        ],
    }


def config_from_json(d: dict) -> Configuration:
    u = UniverseBasis(_count(d["universe"], "n"), _count(d["universe"], "D"))
    labels = [
        Label(matrix_from_json(lab["frame"]), point_from_json(lab["point"]))
        for lab in d["labels"]
    ]
    return Configuration(u, labels)


def chart_to_json(chart: SubquotientChart) -> dict:
    return {
        "s": chart.s,
        "X": tuple_to_json(chart.X),
        "f": matrix_to_json(chart.f),
        "split": {
            "traceless": tuple_to_json(chart.traceless),
            "tau": chart.tau.astype(float).tolist(),
        },
    }
