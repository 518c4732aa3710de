"""JSON wire formats.

Complex scalars are [re, im] pairs; real matrices carry a "field": "real"
tag and plain float scalars.  Serialization is deterministic: given equal
inputs, dumps produces byte-identical output.
"""

from __future__ import annotations

import json

import numpy as np

from .commodel import CommutingTuple
from .gammaconf import BASEPOINT, Configuration, Label, SpherePoint
from .rankstrata import SubquotientChart
from .symuniverse import UniverseBasis


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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
    rows, cols = int(d["rows"]), int(d["cols"])
    data = d["data"]
    if len(data) != rows * cols:
        raise ValueError("matrix data length does not match rows*cols")
    if d.get("field") == "real":
        flat = np.array([float(x) for x in data], dtype=float)
    else:
        flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    return flat.reshape(rows, cols)


def tuple_to_json(t: CommutingTuple) -> dict:
    return {
        "n": t.n,
        "s": t.s,
        "kind": t.kind,
        "mats": [matrix_to_json(m) for m in t.mats],
    }


def tuple_from_json(d: dict, ambient: UniverseBasis | None = None) -> CommutingTuple:
    kind = d["kind"]
    n, s = int(d["n"]), int(d["s"])
    mats = [matrix_from_json(m) for m in d["mats"]]
    if len(mats) != n or s < 0 or any(m.shape != (s, s) for m in mats):
        raise ValueError("tuple shape fields disagree with matrix data")
    return CommutingTuple(kind, np.reshape(mats, (n, s, s)), ambient)


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
    u = UniverseBasis(int(d["universe"]["n"]), int(d["universe"]["D"]))
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
