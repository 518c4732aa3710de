import contextlib
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from commvar import cli, jsonio
from commvar.commodel import KINDS, CommutingTuple, identity_tuple, joint_diagonalize
from commvar.generate import gen_exact_rank_tuple, gen_random_commuting
from commvar.isodecomp import decomposition_type
from commvar.numkit import fro
from commvar.rankstrata import subquotient_chart


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


def _per_entry_decoding(d):
    # the entry-by-entry parse that one array per matrix replaced
    rows, cols = int(d["rows"]), int(d["cols"])
    if d.get("field") == "real":
        flat = np.array([float(x) for x in d["data"]], dtype=float)
    else:
        flat = np.array([complex(re, im) for re, im in d["data"]], dtype=complex)
    return flat.reshape(rows, cols)


def test_matrix_from_json_matches_per_entry_decoding():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    a[0, 0], a[1, 1] = complex(-0.0, 0.0), complex(0.0, -0.0)
    payloads = [jsonio.matrix_to_json(m) for m in (a, a.real, a[:0], a.real[:, :0])]
    # integer and beyond-int64 entries are numbers too
    payloads.append({"rows": 1, "cols": 3, "data": [[1, 0], [1, -2], [2 ** 70, 0.5]]})
    payloads.append({"rows": 1, "cols": 3, "data": [1, 0, -(2 ** 70)], "field": "real"})
    for d in payloads:
        got, ref = jsonio.matrix_from_json(json.loads(json.dumps(d))), _per_entry_decoding(d)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    # a bool is not: among numbers NumPy reads it as 1 or 0, in an int, float or object array
    for d in ({"rows": 1, "cols": 3, "data": [[1, 0], [True, -2], [2 ** 70, 0.5]]},
              {"rows": 1, "cols": 3, "data": [1, False, -(2 ** 70)], "field": "real"},
              {"rows": 1, "cols": 2, "data": [[1, 0], [True, -2]]},
              {"rows": 2, "cols": 2, "data": [True, 0.5, 0.5, 2], "field": "real"}):
        with pytest.raises(ValueError, match="matrix entries must be numbers"):
            jsonio.matrix_from_json(json.loads(json.dumps(d)))


@pytest.mark.parametrize("data,field", [
    ([[1.0, 0.0], ["2", 0.0]], None),
    ([[1.0, 0.0], [None, 0.0]], None),
    ([[2 ** 70, 0.0], ["2", 0.0]], None),
    ([1.0, "2"], "real"),
    ([1.0, None], "real"),
    ([2 ** 70, None], "real"),
], ids=["complex-string", "complex-null", "complex-big-and-string", "real-string",
        "real-null", "real-big-and-null"])
def test_matrix_from_json_rejects_strings_and_null(data, field):
    d = {"rows": 1, "cols": 2, "data": data}
    if field:
        d["field"] = field
    with pytest.raises(ValueError):
        jsonio.matrix_from_json(d)


# what json.loads can give an entry: ints (0, 1 and past int64 among them),
# floats (signed zeros, NaN and infinities among them) and every other JSON type
_ENTRIES = st.one_of(
    st.integers(-(2 ** 100), 2 ** 100), st.sampled_from([0, 1, 2 ** 70, -(2 ** 70)]),
    st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.booleans(), st.text(max_size=3), st.none(),
    st.lists(st.integers() | st.floats(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@settings(deadline=None, max_examples=300)
@given(st.lists(_ENTRIES, max_size=8), st.booleans())
def test_matrix_from_json_takes_exactly_ints_and_floats(flat, real):
    if real:
        d = {"rows": 1, "cols": len(flat), "data": flat, "field": "real"}
    else:
        pairs = [flat[i:i + 2] for i in range(0, len(flat) - 1, 2)]
        flat = flat[:2 * len(pairs)]
        d = {"rows": 1, "cols": len(pairs), "data": pairs}
    if all(type(x) in (int, float) for x in flat):
        ref = np.array([float(x) for x in flat])
        ref = (ref if real else ref.view(complex)).reshape(1, -1)
        got = jsonio.matrix_from_json(d)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    else:
        with pytest.raises(ValueError, match="^matrix entries must be numbers"):
            jsonio.matrix_from_json(d)


def _reference_matrix_text(m):
    # the encoding before matrix_texts: a matrix_to_json dict through json.dumps
    return json.dumps(jsonio.matrix_to_json(m), sort_keys=True, separators=(",", ":"))


def _texts_cases():
    rng = np.random.default_rng(11)
    dense = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
    signed = np.zeros((1, 2, 3), complex)
    signed.reshape(-1)[:4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                              complex(0.0, 0.0)]
    signed.reshape(-1)[4:] = [complex(-0.0, 1.5), complex(2.5, -0.0)]
    tiny = np.array([[[5e-324 + 0j, complex(-5e-324, 2.2250738585072014e-308)],
                      [complex(0.0, -1e-310), 1e300 - 1e-300j]]])
    diag = 1j * np.array([1.0, -2.0, 0.0])[:, None] * np.eye(3)  # -0.0 off the diagonal
    cases = {"dense": dense, "signed-zeros": signed, "subnormal": tiny, "diag": diag[None],
             "one-by-one": np.array([[[complex(-0.0, 3.0)]]]),
             "one-by-one-zero": np.zeros((1, 1, 1), complex),
             "empty": np.zeros((2, 0, 0), complex), "no-columns": np.zeros((1, 3, 0), complex),
             "no-matrices": np.zeros((0, 2, 2), complex), "complex64": dense.astype(np.complex64),
             "real": rng.normal(size=(2, 2, 2))}
    for name, bad in (("nan", complex(np.nan, 0.0)), ("inf", complex(0.0, np.inf)),
                      ("minus-inf", complex(-np.inf, 1.0))):
        with_bad = dense.copy()
        with_bad[1, 2, 3] = bad
        cases[name] = with_bad
    return cases


@pytest.mark.parametrize("name,stack", sorted(_texts_cases().items()))
def test_matrix_texts_match_dumps_of_matrix_to_json(name, stack):
    texts = jsonio.matrix_texts(stack)
    assert all(isinstance(t, jsonio.Text) for t in texts)
    assert texts == [_reference_matrix_text(m) for m in stack]
    assert [jsonio.dumps_tree(t) for t in texts] == texts


def test_matrix_texts_write_non_finite_entries_as_json_does():
    cases = _texts_cases()
    assert "NaN" in jsonio.matrix_texts(cases["nan"])[1]
    assert "Infinity" in jsonio.matrix_texts(cases["inf"])[1]
    assert "-Infinity" in jsonio.matrix_texts(cases["minus-inf"])[1]
    text, = jsonio.matrix_texts(cases["signed-zeros"])
    assert '"data":[[-0.0,0.0],[0.0,-0.0],[-0.0,-0.0],[0.0,0.0],[-0.0,1.5],[2.5,-0.0]]' in text


def test_dumps_tree_matches_dumps():
    tree = {"b": [1, 2.5, None], "a": {"z": [[1, 2], "x"], "y": True}, "c": [], "d": {}, "e": -0.0}
    assert jsonio.dumps_tree(tree) == jsonio.dumps(tree)
    text = jsonio.Text('{"k":[1]}')
    assert (jsonio.dumps_tree({"m": [text, text], "t": text})
            == '{"m":[{"k":[1]},{"k":[1]}],"t":{"k":[1]}}')


def test_poincare_tables_are_dumped_whole(monkeypatch, capsys):
    # a dict of numbers is one dumps call: at p = 113 each table holds about
    # 12,300 entries, which a walk would write with two calls each
    trees, calls = [], []
    tree, dumps = jsonio.dumps_tree, jsonio.dumps
    monkeypatch.setattr(jsonio, "dumps_tree", lambda obj: trees.append(obj) or tree(obj))
    monkeypatch.setattr(jsonio, "dumps", lambda obj: calls.append(obj) or dumps(obj))
    assert cli.main(["poincare", "--p", "113"]) == 0
    payload = trees[0]
    assert len(payload["poincare"]) > 10_000
    assert capsys.readouterr().out == json.dumps(payload, sort_keys=True,
                                                 separators=(",", ":")) + "\n"
    assert len(calls) < 10


def _reference_report(t, spectrum):
    # the stratify report as the command built it before matrix_texts: the
    # chart's matrix_to_json dicts, written through json.dumps; text mode
    # prints the scalar fields
    report = {"rank": None, "chart": None, "split": None,
              "decomposition_type": list(decomposition_type(t, spectrum=spectrum).parts)}
    if t.kind == "unitary":
        c = subquotient_chart(t, spectrum=spectrum)

        def tup(x):
            return {"n": x.n, "s": x.s, "kind": x.kind,
                    "mats": [jsonio.matrix_to_json(m) for m in x.mats]}

        report.update({"rank": c.s, "chart": {"X": tup(c.X), "f": jsonio.matrix_to_json(c.f)},
                       "split": {"traceless": tup(c.traceless),
                                 "tau": c.tau.astype(float).tolist()}})
    return {"json": json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n",
            "text": f"rank: {report['rank']}\ndecomposition_type: {report['decomposition_type']}\n"
                    f"tau: {report['split'] and report['split']['tau']}\n"}


def _check_stratify_stdout(t, monkeypatch):
    """stratify's stdout and exit code in both modes against the reference
    report of the same wire-decoded tuple."""
    payload = jsonio.dumps(jsonio.tuple_to_json(t))
    t = jsonio.tuple_from_json(json.loads(payload))
    expect = _reference_report(t, joint_diagonalize(t))
    for mode in ("json", "text"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["stratify", "--output", mode])
        assert (code, out.getvalue()) == (0, expect[mode]), mode
    return expect


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("kind", KINDS)
def test_stratify_stdout_matches_the_reference_on_the_generate_grid(kind, n, monkeypatch):
    for s in (1, 3, 6, 12, 24, 64, 128):
        for seed in (0, 7):
            _check_stratify_stdout(gen_random_commuting(seed, n, s, kind), monkeypatch)


@pytest.mark.parametrize("name,t", [
    ("rank-0", identity_tuple(2, 3)),
    ("rank-0-one-by-one", identity_tuple(1, 1)),
    ("padded", gen_exact_rank_tuple(3, 2, 2, 5)),
    ("one-by-one", CommutingTuple("unitary", np.array([[[1j]], [[complex(-1.0, -0.0)]]]))),
])
def test_stratify_stdout_matches_the_reference_on_edge_charts(name, t, monkeypatch):
    expect = _check_stratify_stdout(t, monkeypatch)
    if name.startswith("rank-0"):
        empty = '"X":{"kind":"skew_hermitian","mats":[{"cols":0,"data":[],"rows":0}'
        assert empty in expect["json"]


def _stdout(argv, monkeypatch, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("s", [1, 64])
@pytest.mark.parametrize("n", [0, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_generate_stdout_is_the_dict_route(kind, n, s, monkeypatch):
    argv = ["generate", "--kind", kind, "--n", str(n), "--s", str(s), "--seed", "7"]
    doc = jsonio.tuple_to_json(gen_random_commuting(7, n, s, kind))
    assert _stdout(argv, monkeypatch) == (0, jsonio.dumps(doc) + "\n")
    assert _stdout(argv + ["--output", "text"], monkeypatch) == (
        0, f"n: {n}\ns: {s}\nkind: {kind}\n")


@pytest.mark.parametrize("mode,calls", [("json", [1, 3]), ("text", [0, 0])])
def test_generate_and_stratify_take_one_encoder_from_the_output_mode(mode, calls, monkeypatch):
    # JSON mode writes each matrix stack through matrix_texts: generate's
    # tuple, and stratify's chart X, frame f and traceless split
    seen, texts = [], jsonio.matrix_texts
    monkeypatch.setattr(jsonio, "matrix_texts", lambda stack: seen.append(stack) or texts(stack))
    assert _stdout(["generate", "--n", "2", "--s", "4", "--seed", "0", "--output", mode],
                   monkeypatch)[0] == 0
    counts = [len(seen)]
    tup = jsonio.dumps(jsonio.tuple_to_json(gen_random_commuting(0, 2, 4, "unitary")))
    assert _stdout(["stratify", "--output", mode], monkeypatch, tup)[0] == 0
    assert counts + [len(seen) - counts[0]] == calls


@pytest.mark.parametrize("argv,stdin,code", [
    *((["generate", "--kind", kind, "--n", "2", "--s", "5", "--seed", "3"], "", 0)
      for kind in KINDS),
    *((["stratify"], jsonio.dumps(jsonio.tuple_to_json(gen_random_commuting(3, 2, 5, kind))), 0)
      for kind in ("unitary", "real_symmetric")),
    (["verify", "--suite", "cohomology", "--trials", "1"], "", 0),
    (["poincare", "--p", "5"], "", 0),
    (["stratify"], "{", 2),
], ids=["generate-" + kind for kind in KINDS] + [
    "stratify-unitary", "stratify-real", "verify", "poincare", "error"])
def test_every_command_writes_canonical_json(argv, stdin, code, monkeypatch):
    exit_code, out = _stdout(argv, monkeypatch, stdin)
    assert exit_code == code
    assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
