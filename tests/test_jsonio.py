import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from commvar import jsonio
from commvar.commodel import KINDS, CommutingTuple
from commvar.gammaconf import BASEPOINT, SpherePoint
from commvar.generate import gen_random_commuting, gen_random_config
from commvar.numkit import fro
from commvar.rankstrata import subquotient_chart
from commvar.generate import gen_exact_rank_tuple
from commvar.symuniverse import UniverseBasis


def test_matrix_schema_complex():
    a = np.array([[1.0 + 2.0j, 0.0], [0.5j, -1.0]])
    d = jsonio.matrix_to_json(a)
    assert set(d) == {"rows", "cols", "data"}
    assert d["rows"] == 2 and d["cols"] == 2
    assert d["data"][0] == [1.0, 2.0]  # row-major [re, im] pairs
    assert d["data"][2] == [0.0, 0.5]
    back = jsonio.matrix_from_json(d)
    assert fro(back - a) == 0.0


def _per_element_encoding(a):
    # the element-by-element encoding that matrix_to_json replaced
    rows, cols = a.shape
    if np.iscomplexobj(a):
        data = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
        return {"rows": rows, "cols": cols, "data": data}
    return {"rows": rows, "cols": cols, "data": [float(x) for x in a.reshape(-1)],
            "field": "real"}


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64, np.float64, np.int64, bool])
def test_matrix_to_json_matches_per_element_encoding(dtype):
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 3)) * 1e3
    if np.issubdtype(dtype, np.complexfloating):
        a = a + 1j * rng.normal(size=(5, 3)) * 1e-3
    a[0, 0] = -0.0
    a = a.astype(dtype)
    for m in (a, a.T, a[:0]):
        assert jsonio.dumps(jsonio.matrix_to_json(m)) == jsonio.dumps(_per_element_encoding(m))


def test_matrix_schema_real():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    d = jsonio.matrix_to_json(a)
    assert d["field"] == "real"
    assert d["data"] == [1.0, 2.0, 3.0, 4.0]
    back = jsonio.matrix_from_json(d)
    assert back.dtype.kind == "f"
    assert fro(back - a) == 0.0


def test_tuple_schema_roundtrip():
    t = gen_random_commuting(3, 2, 3, "unitary")
    d = jsonio.tuple_to_json(t)
    assert set(d) == {"n", "s", "kind", "mats"}
    assert d["n"] == 2 and d["s"] == 3 and d["kind"] == "unitary"
    back = jsonio.tuple_from_json(d)
    assert back.kind == "unitary"
    assert max(fro(a - b) for a, b in zip(back.mats, t.mats)) == 0.0

    tr = gen_random_commuting(4, 1, 2, "real_symmetric")
    back_r = jsonio.tuple_from_json(jsonio.tuple_to_json(tr))
    assert back_r.mats.dtype.kind == "f"


def test_point_schema():
    assert jsonio.point_to_json(BASEPOINT) == "basepoint"
    p = SpherePoint([-1.0, 1j])
    d = jsonio.point_to_json(p)
    assert d == {"coords": [[-1.0, 0.0], [0.0, 1.0]]}
    assert jsonio.point_from_json("basepoint").is_basepoint
    back = jsonio.point_from_json(d)
    assert np.allclose(back.coords, p.coords)


def test_config_schema_roundtrip():
    u = UniverseBasis(2, 1)
    c = gen_random_config(9, u, max_labels=2, max_rank=2)
    d = jsonio.config_to_json(c)
    assert d["universe"] == {"n": 2, "D": 1}
    assert all(set(lab) == {"frame", "point"} for lab in d["labels"])
    back = jsonio.config_from_json(d)
    from commvar.gammaconf import config_distance

    assert config_distance(back, c) < 1e-15


def test_chart_schema():
    t = gen_exact_rank_tuple(2, 2, 2, 4)
    chart = subquotient_chart(t)
    d = jsonio.chart_to_json(chart)
    assert set(d) == {"s", "X", "f", "split"}
    assert set(d["split"]) == {"traceless", "tau"}
    assert d["s"] == 2
    json.dumps(d)  # serializable


def test_dumps_deterministic():
    t = gen_random_commuting(5, 2, 2, "skew_hermitian")
    one = jsonio.dumps(jsonio.tuple_to_json(t))
    two = jsonio.dumps(jsonio.tuple_to_json(gen_random_commuting(5, 2, 2, "skew_hermitian")))
    assert one == two


@st.composite
def _tuples(draw):
    kind = draw(st.sampled_from(KINDS))
    shape = (draw(st.integers(0, 3)),) + (draw(st.integers(1, 6)),) * 2
    entries = hnp.arrays(np.float64, shape,
                         elements=st.floats(allow_nan=False, allow_infinity=False))
    mats = draw(entries)
    if kind != "real_symmetric":
        mats = mats + 1j * draw(entries)
    return CommutingTuple(kind, mats)


@settings(deadline=None)
@given(_tuples())
def test_tuple_wire_roundtrip_is_exact(t):
    text = jsonio.dumps(jsonio.tuple_to_json(t))
    back = jsonio.tuple_from_json(json.loads(text))
    assert back.kind == t.kind
    assert back.mats.dtype == t.mats.dtype and back.mats.shape == t.mats.shape
    assert back.mats.tobytes() == t.mats.tobytes()
    assert jsonio.dumps(jsonio.tuple_to_json(back)) == text
