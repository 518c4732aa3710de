import contextlib
import io
import json
import math
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from commvar import commodel, jsonio
from commvar.cli import MAX_GENERATE_N, MAX_STRATIFY_S, build_parser, main
from commvar.cohomtab import MAX_P
from commvar.commodel import KINDS, CommutingTuple, identity_tuple
from commvar.errors import InvalidTuple, NoConvergence, NotOddPrime
from commvar.generate import gen_random_commuting
from commvar.numkit import real_symmetric_defect, skew_hermitian_defect, unitary_defect
from commvar.verify import MAX_D, MAX_N, MAX_TRIALS


def run_cli(args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "commvar.cli", *args],
        input=stdin, capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_generate_deterministic_bytes():
    code1, out1, _ = run_cli(["generate", "--seed", "9", "--n", "2", "--s", "3"])
    code2, out2, _ = run_cli(["generate", "--seed", "9", "--n", "2", "--s", "3"])
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["kind"] == "unitary" and data["n"] == 2 and data["s"] == 3


def test_stratify_s64_deterministic_bytes():
    _, tup, _ = run_cli(["generate", "--s", "64"])
    runs = [run_cli(["stratify"], stdin=tup) for _ in range(2)]
    assert runs[0][0] == runs[1][0] == 0
    assert runs[0][1] == runs[1][1]


def test_in_process_main_prints_what_a_subprocess_prints(monkeypatch, capsys):
    # one parser serves every call of main in a process
    assert build_parser() is build_parser()
    gen = ["generate", "--seed", "3"]
    _, tup, _ = run_cli(gen)
    for args, stdin in ((gen, None), (["stratify"], tup), (gen, None)):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
        code = main(args)
        assert (code, capsys.readouterr().out) == run_cli(args, stdin=stdin)[:2]


def test_generate_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("COMMVAR_SEED", "31")
    assert main(["generate", "--n", "1", "--s", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "--n", "1", "--s", "2", "--seed", "31"]) == 0
    assert capsys.readouterr().out == first


def test_env_seed_that_is_not_an_integer_is_invalid_input(monkeypatch, capsys):
    monkeypatch.setenv("COMMVAR_SEED", "abc")
    for argv in (["generate"], ["verify", "--trials", "1"]):
        assert main(argv) == 2
        body = json.loads(capsys.readouterr().out)
        assert body == {"error": "invalid_input",
                        "message": "COMMVAR_SEED must be an integer, got 'abc'"}
    # stratify and poincare never read the seed
    tup = jsonio.dumps(jsonio.tuple_to_json(gen_random_commuting(1, 2, 3, "unitary")))
    monkeypatch.setattr(sys, "stdin", io.StringIO(tup))
    assert main(["stratify"]) == 0
    assert "error" not in json.loads(capsys.readouterr().out)
    assert main(["poincare", "--p", "5"]) == 0
    assert "error" not in json.loads(capsys.readouterr().out)


def test_empty_env_seed_reads_as_unset(monkeypatch, capsys):
    monkeypatch.setenv("COMMVAR_SEED", "")
    assert main(["generate", "--n", "1", "--s", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "--n", "1", "--s", "2", "--seed", "0"]) == 0
    assert capsys.readouterr().out == first


def test_stratify_identity_tuple(capsys):
    payload = jsonio.dumps(jsonio.tuple_to_json(identity_tuple(2, 3)))
    code, out, _ = run_cli(["stratify", "--input", "-"], stdin=payload)
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == 0
    assert report["chart"]["X"]["s"] == 0
    assert report["decomposition_type"] == [3]


def test_stratify_generated_tuple(tmp_path):
    code, out, _ = run_cli(["generate", "--seed", "5", "--n", "2", "--s", "3",
                            "--kind", "unitary"])
    assert code == 0
    path = tmp_path / "tuple.json"
    path.write_text(out)
    code, out2, _ = run_cli(["stratify", "--input", str(path)])
    assert code == 0
    report = json.loads(out2)
    assert report["rank"] == 3
    assert len(report["split"]["tau"]) == 2


def test_stratify_skew_tuple_reports_type_only():
    code, out, _ = run_cli(["generate", "--seed", "6", "--n", "1", "--s", "2",
                            "--kind", "skew_hermitian"])
    payload = out
    code, out2, _ = run_cli(["stratify"], stdin=payload)
    assert code == 0
    report = json.loads(out2)
    assert report["rank"] is None
    assert sum(report["decomposition_type"]) == 2


def test_stratify_rejects_noncommuting():
    bad = {
        "n": 2, "s": 2, "kind": "unitary",
        "mats": [
            jsonio.matrix_to_json(np.diag([1j, -1j])),
            jsonio.matrix_to_json(np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)),
        ],
    }
    code, out, _ = run_cli(["stratify"], stdin=json.dumps(bad))
    assert code == 2
    assert json.loads(out)["error"] == "invalid_input"


def test_stratify_rejects_malformed_json():
    code, out, _ = run_cli(["stratify"], stdin="{nope")
    assert code == 2
    assert json.loads(out)["error"] == "invalid_input"


@pytest.mark.parametrize("payload", [
    "[" * 100_000 + "]" * 100_000,
    '{"kind": "unitary", "n": ' + "[" * 5000 + "]" * 5000 + ', "s": 1, "mats": []}',
], ids=["top-level", "inside-n"])
def test_stratify_rejects_deeply_nested_json(payload, monkeypatch, capsys):
    # json.loads raises RecursionError past the interpreter's recursion limit
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    assert main(["stratify"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "invalid_input"


def test_stratify_tolerance_breach_exit_3():
    # eigenvalue at arc distance ~5e-9 from 1: outside the default basepoint
    # window (1e-9) so it stays in F, but inside a widened structural
    # tolerance, so the chart must refuse
    a = np.diag([np.exp(5e-9j), -1.0])
    payload = jsonio.dumps(jsonio.tuple_to_json(
        CommutingTuple("unitary", np.array([a]))))
    code, out, _ = run_cli(["stratify", "--tol-struct", "1e-7"], stdin=payload)
    assert code == 3
    assert json.loads(out)["error"] == "stratum_error"


def test_stratify_exit_3_when_the_joint_residual_is_too_large(monkeypatch, capsys):
    # a kernel that leaves the tuple undiagonalized: joint_diagonalize's
    # residual check refuses it
    monkeypatch.setattr(commodel, "joint_diagonalizer",
                        lambda hmats, *args, **kwargs: np.eye(hmats.shape[-1]))
    t = gen_random_commuting(3, 2, 4, "unitary")
    monkeypatch.setattr(sys, "stdin", io.StringIO(jsonio.dumps(jsonio.tuple_to_json(t))))
    assert main(["stratify"]) == 3
    body = json.loads(capsys.readouterr().out)
    assert body["error"] == "stratum_error" and "joint residual" in body["message"]


def test_stratify_rejects_empty_matrices(monkeypatch, capsys):
    payload = {"n": 1, "s": 0, "kind": "unitary",
               "mats": [{"rows": 0, "cols": 0, "data": []}]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert main(["stratify"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "invalid_input"


@pytest.mark.parametrize("s", [257, 10 ** 9])
def test_stratify_rejects_sizes_above_the_cap(s, monkeypatch, capsys):
    # an n = 0 tuple has no matrix data to bound its size
    payload = {"n": 0, "s": s, "kind": "unitary", "mats": []}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert main(["stratify"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "invalid_input"


@pytest.mark.parametrize("entry,field,code", [
    ("-1.0", None, 0), ('"-1.0"', None, 2), ("null", None, 2),
    ("-1.0", "real", 0), ('"-1.0"', "real", 2), ("null", "real", 2),
], ids=["complex-number", "complex-string", "complex-null",
        "real-number", "real-string", "real-null"])
def test_stratify_rejects_strings_and_null_entries(entry, field, code, monkeypatch, capsys):
    if field:
        kind = "real_symmetric"
        mat = f'{{"rows": 1, "cols": 1, "field": "real", "data": [{entry}]}}'
    else:
        kind, mat = "unitary", f'{{"rows": 1, "cols": 1, "data": [[{entry}, 0.0]]}}'
    payload = f'{{"kind": "{kind}", "n": 1, "s": 1, "mats": [{mat}]}}'
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    assert main(["stratify"]) == code
    body = json.loads(capsys.readouterr().out)
    assert body.get("error") == ("invalid_input" if code else None)


@pytest.mark.parametrize("flag,value", [("--n", "-1"), ("--s", "-1"), ("--s", "0"),
                                        ("--s", "257")])
def test_generate_rejects_sizes_stratify_rejects(flag, value, capsys):
    assert main(["generate", flag, value]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "invalid_input"


def test_generate_accepts_the_size_bounds(capsys):
    for argv in (["--n", "0", "--s", "1"], ["--n", "0", "--s", "256"]):
        assert main(["generate", *argv]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 0 and out["s"] == int(argv[-1])


_GENERATE_THEN_STRATIFY = """
import contextlib, io, sys
from unittest import mock
from commvar.cli import build_parser, main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["generate", "--seed", "3"]) == 0
with mock.patch.object(sys, "stdin", io.StringIO(out.getvalue())):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["stratify"]) == 0
assert "scipy" not in sys.modules, "scipy was imported"
"""


def test_cli_leaves_scipy_unloaded():
    proc = subprocess.run([sys.executable, "-c", _GENERATE_THEN_STRATIFY],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("kind", ["unitary", "skew_hermitian"])
def test_stratify_diagonalizes_once(kind, monkeypatch, capsys):
    original = commodel.joint_diagonalize
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # rebind the name in every module that imported it
    for name, module in list(sys.modules.items()):
        if name == "commvar" or name.startswith("commvar."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    t = gen_random_commuting(3, 2, 4, kind)
    monkeypatch.setattr(sys, "stdin", io.StringIO(jsonio.dumps(jsonio.tuple_to_json(t))))
    assert main(["stratify"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["unitary", "skew_hermitian", "real_symmetric"])
def test_stratify_validates_once(kind, monkeypatch, capsys):
    original = CommutingTuple.validate
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CommutingTuple, "validate", counted)
    t = gen_random_commuting(3, 2, 4, kind)
    monkeypatch.setattr(sys, "stdin", io.StringIO(jsonio.dumps(jsonio.tuple_to_json(t))))
    assert main(["stratify"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("kind,mat", [
    ("unitary", 2.0 * np.eye(2)),
    ("skew_hermitian", np.eye(2)),
    ("real_symmetric", np.array([[1.0, 1.0], [0.0, 1.0]])),
])
def test_stratify_rejects_wrong_structure(kind, mat, monkeypatch, capsys):
    payload = {"n": 1, "s": 2, "kind": kind, "mats": [jsonio.matrix_to_json(mat)]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert main(["stratify"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "invalid_input"


_DEFECTS = {"unitary": ("unitary", unitary_defect),
            "skew_hermitian": ("skew-hermitian", skew_hermitian_defect),
            "real_symmetric": ("symmetric", real_symmetric_defect)}


@pytest.mark.parametrize("kind", KINDS)
def test_stratify_names_the_structure_defect(kind, monkeypatch, capsys):
    mats = gen_random_commuting(5, 3, 3, kind).mats
    mats[1] += 0.01 * np.triu(np.ones((3, 3)), 1)  # breaks every kind's structure
    t = CommutingTuple(kind, mats)
    monkeypatch.setattr(sys, "stdin", io.StringIO(jsonio.dumps(jsonio.tuple_to_json(t))))
    assert main(["stratify"]) == 2
    name, defect = _DEFECTS[kind]
    assert json.loads(capsys.readouterr().out) == {
        "error": "invalid_input", "message": f"{name} defect {defect(t.mats[1]):.3e}"}


def test_stratify_closes_input_file(tmp_path, capsys):
    path = tmp_path / "tuple.json"
    path.write_text(jsonio.dumps(jsonio.tuple_to_json(identity_tuple(1, 2))))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["stratify", "--input", str(path)]) == 0
    capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_verify_cohomology_passes():
    code, out, _ = run_cli(["verify", "--suite", "cohomology", "--trials", "5"])
    assert code == 0
    summary = json.loads(out)
    assert summary["failures"] == 0
    assert summary["suite"] == "cohomology"


def test_verify_unknown_suite():
    code, out, _ = run_cli(["verify", "--suite", "nonsense"])
    assert code == 2


def test_verify_failure_exit_code():
    # an absurd structural tolerance makes every generated tuple fail
    # validation inside the suite, driving the failure count up
    code, out, _ = run_cli(["verify", "--suite", "cayley", "--trials", "2",
                            "--tol-struct", "1e-30"])
    assert code == 1
    assert json.loads(out)["failures"] > 0


def test_verify_text_output():
    code, out, _ = run_cli(["verify", "--suite", "cohomology", "--trials", "2",
                            "--output", "text"])
    assert code == 0
    assert "suite cohomology" in out


def test_poincare_command():
    code, out, _ = run_cli(["poincare", "--p", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["poincare"] == {"0": 1, "3": 1, "4": 2, "5": 1}
    assert data["reduced"] == {"3": 1, "4": 2, "5": 1}
    assert "t^3" in data["string"]
    code, out, _ = run_cli(["poincare", "--p", "4"])
    assert code == 2
    code, out, _ = run_cli(["poincare", "--p", "5", "--output", "text"])
    assert code == 0 and "P(t)" in out


def test_verify_deterministic():
    args = ["verify", "--suite", "isotropy", "--trials", "3", "--seed", "4"]
    _, out1, _ = run_cli(args)
    _, out2, _ = run_cli(args)
    assert out1 == out2


@pytest.mark.parametrize("imag,code", [(1e-3, 2), (0.0, 0)], ids=["nonzero", "zero"])
def test_stratify_real_symmetric_imaginary_parts(imag, code, monkeypatch, capsys):
    # complex data tagged real_symmetric: a nonzero imaginary part is
    # rejected, an exactly zero one is dropped without a ComplexWarning
    payload = {"n": 1, "s": 2, "kind": "real_symmetric",
               "mats": [jsonio.matrix_to_json((1.0 + imag * 1j) * np.eye(2))]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        assert main(["stratify"]) == code
    body = json.loads(capsys.readouterr().out)
    if code:
        assert body["error"] == "invalid_input"
    else:
        assert body["decomposition_type"] == [2]


@pytest.mark.parametrize("payload", [
    '{"kind": "unitary", "n": 1e400, "s": 1, "mats": []}',
    '{"kind": "unitary", "n": 1, "s": 1,'
    ' "mats": [{"rows": Infinity, "cols": 1, "data": [[1, 0]]}]}',
    '{"kind": "unitary", "n": 1, "s": 1,'
    ' "mats": [{"rows": 1, "cols": 1, "data": [[1' + "0" * 400 + ', 0]]}]}',
], ids=["n-1e400", "rows-Infinity", "entry-401-digits"])
def test_stratify_rejects_overflowing_fields(payload, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    assert main(["stratify"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "invalid_input"


@pytest.mark.parametrize("mats", [
    [[[0.0, 1.0], [1.0, 0.0]]],
    [[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]],
], ids=["eigenvalues-1e200", "non-commuting-pair"])
def test_stratify_rejects_entries_above_the_bound(mats, monkeypatch, capsys):
    # at 1e200 every Frobenius norm overflows: without the entry bound the
    # first reads type [2] and the second passes the commutator check.
    # Tier-1 turns a RuntimeWarning into an error
    payload = {"n": len(mats), "s": 2, "kind": "real_symmetric",
               "mats": [jsonio.matrix_to_json(1e200 * np.array(m)) for m in mats]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert main(["stratify"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "invalid_input"


def _stratify_outcome(t):
    with mock.patch.object(sys, "stdin", io.StringIO(jsonio.dumps(jsonio.tuple_to_json(t)))):
        code, lines = _main_outcome(["stratify"])
    return code, json.loads(lines[0])


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(["skew_hermitian", "real_symmetric"]), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 3), st.integers(1, 6), st.integers(0, 300))
def test_stratify_scaled_tuple_keeps_its_type_or_is_invalid(kind, seed, n, s, k):
    # a scale changes no eigenspace: up to commodel.MAX_ENTRY the type is
    # the unscaled one, above it (inf included) the tuple is invalid input
    t = gen_random_commuting(seed, n, s, kind, min_separation=0.2)
    code, body = _stratify_outcome(t)
    assert code == 0
    with np.errstate(over="ignore"):
        scaled = CommutingTuple(kind, t.mats * 10.0 ** k)
    if np.max(np.abs(scaled.mats)) <= commodel.MAX_ENTRY:
        assert _stratify_outcome(scaled) == (0, body)
    else:
        code, body = _stratify_outcome(scaled)
        assert code == 2 and body["error"] == "invalid_input"


# shape fields: small ints, fractions, sizes above the stratify cap, +-inf
# or NaN
_SHAPE_FIELDS = st.one_of(st.integers(0, 4), st.floats(-1.0, 4.9),
                          st.integers(257, 10 ** 9),
                          st.sampled_from([math.inf, -math.inf, math.nan]))


@st.composite
def _stratify_payloads(draw):
    kind = draw(st.sampled_from(KINDS + ("unknown",)))
    n, s = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    real = draw(st.booleans())
    if kind in KINDS and draw(st.booleans()):
        mats = gen_random_commuting(draw(st.integers(0, 2 ** 32)), n, s, kind).mats
    else:
        mats = draw(hnp.arrays(complex, (n, s, s), elements=st.complex_numbers(
            max_magnitude=1e3, allow_nan=False, allow_infinity=False)))
    mats_json = []
    for m in mats:
        body = {"rows": s, "cols": s}
        if real:
            body.update(field="real", data=[float(z.real) for z in m.reshape(-1)])
        else:
            body["data"] = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
        mats_json.append(body)
    payload = {"kind": kind, "n": n, "s": s, "mats": mats_json}
    for key in draw(st.sets(st.sampled_from(["n", "s", "rows", "cols"]))):
        for target in [payload] if key in ("n", "s") else mats_json:
            target[key] = draw(_SHAPE_FIELDS)
    return json.dumps(payload)


@settings(deadline=None, max_examples=150)
@given(_stratify_payloads())
def test_stratify_never_raises_a_traceback(text):
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), contextlib.redirect_stdout(out):
        code = main(["stratify"])
    assert code in (0, 2, 3)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)


def _main_outcome(argv):
    """Exit code and stdout lines of an in-process `main`; argparse reports a
    value it cannot parse by raising SystemExit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().splitlines()


def _parses_as_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


# Accepted draws stay small (p <= 31, n <= 3, s <= 8, trials <= 3) and
# rejected ones are negative or above the caps, so no draw starts slow work:
# each cap, `verify.MAX_TRIALS` too, is checked before any work starts.
_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@settings(deadline=None, max_examples=100)
@given(st.integers(max_value=31) | st.integers(min_value=MAX_P + 1))
def test_poincare_integer_p_ends_in_one_json_object(p):
    code, lines = _main_outcome(["poincare", "--p", str(p)])
    assert code == (0 if p in _SMALL_PRIMES else 2)
    assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)


@settings(deadline=None, max_examples=100)
@given(st.integers(max_value=3) | st.integers(min_value=MAX_GENERATE_N + 1),
       st.integers(max_value=8) | st.integers(min_value=MAX_STRATIFY_S + 1),
       st.sampled_from(KINDS))
def test_generate_integer_sizes_end_in_one_json_object(n, s, kind):
    code, lines = _main_outcome(["generate", "--n", str(n), "--s", str(s), "--kind", kind])
    assert code == (0 if 0 <= n <= 3 and 1 <= s <= 8 else 2)
    assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)


# verify --suite cohomology never reads --s, so any positive --s is accepted
_CAPS = st.integers(max_value=0) | st.integers(1, 8) | st.integers(min_value=10 ** 6)


@settings(deadline=None, max_examples=100)
@given(st.integers(max_value=3) | st.integers(min_value=MAX_TRIALS + 1), _CAPS, _CAPS, _CAPS)
def test_verify_integer_flags_end_in_one_json_object(trials, n, s, d):
    code, lines = _main_outcome(["verify", "--suite", "cohomology", "--trials", str(trials),
                                 "--n", str(n), "--s", str(s), "--D", str(d)])
    accepted = 1 <= trials <= MAX_TRIALS and 1 <= n <= MAX_N and s >= 1 and 1 <= d <= MAX_D
    assert code == (0 if accepted else 2)
    assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from([("poincare", "--p"), ("generate", "--n"), ("generate", "--s"),
                        ("generate", "--kind"), ("verify", "--trials"), ("verify", "--n"),
                        ("verify", "--s"), ("verify", "--D")]),
       st.text(max_size=8).filter(lambda t: not _parses_as_int(t) and t not in KINDS))
def test_non_integer_flag_values_end_in_argparse_exit_2(flag, value):
    assert _main_outcome([*flag, value]) == (2, [])


@pytest.mark.parametrize("flag", ["--tol-struct", "--tol-cluster"])
@pytest.mark.parametrize("argv", [["generate"], ["poincare", "--p", "3"]])
def test_generate_and_poincare_take_no_tolerance_flags(argv, flag):
    assert _main_outcome([*argv, flag, "1e-7"]) == (2, [])


@pytest.mark.parametrize("argv", [["stratify"], ["poincare", "--p", "3"]])
def test_stratify_and_poincare_take_no_seed(argv):
    assert _main_outcome([*argv, "--seed", "3"]) == (2, [])


@pytest.mark.parametrize("command", ["generate", "verify"])
def test_generate_and_verify_take_a_seed(command):
    assert build_parser().parse_args([command, "--seed", "3"]).seed == 3


def test_generate_accepts_n_at_the_cap(capsys):
    assert main(["generate", "--n", str(MAX_GENERATE_N), "--s", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == MAX_GENERATE_N


@pytest.mark.parametrize("flag,value", [("--n", "7"), ("--D", "5")])
def test_verify_rejects_caps_above_the_bound(flag, value, monkeypatch, capsys):
    monkeypatch.setattr("commvar.cli.run_suite", mock.Mock(side_effect=AssertionError))
    assert main(["verify", "--suite", "cohomology", flag, value]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "invalid_input"


def test_verify_accepts_caps_at_the_bound(capsys):
    assert main(["verify", "--suite", "cohomology", "--trials", "1",
                 "--n", "6", "--D", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == 0


def test_generate_into_a_closed_pipe_ends_quietly():
    # about 300 KB of output, more than a pipe buffer holds
    proc = subprocess.Popen([sys.executable, "-m", "commvar.cli", "generate", "--s", "64"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert head.startswith(b"{")
    assert err == b""


_LADDER_ARGV = {
    "generate": (["generate"], "commvar.cli.gen_random_commuting"),
    "stratify": (["stratify"], "commvar.cli.joint_diagonalize"),
    "verify": (["verify", "--suite", "cohomology", "--trials", "1"], "commvar.cli.run_suite"),
    "poincare": (["poincare", "--p", "3"], "commvar.cohomtab.a0_lambda_table"),
}


@pytest.mark.parametrize("error,code,kind", [
    (ValueError("bad value"), 2, "invalid_input"),
    (InvalidTuple("bad tuple"), 2, "invalid_input"),
    (NotOddPrime("bad prime"), 2, "invalid_input"),
    (NoConvergence("no convergence"), 3, "stratum_error"),
], ids=["ValueError", "InvalidTuple", "NotOddPrime", "NoConvergence"])
@pytest.mark.parametrize("command", sorted(_LADDER_ARGV))
def test_main_maps_each_raised_error_to_its_exit_code(command, error, code, kind,
                                                      monkeypatch, capsys):
    argv, target = _LADDER_ARGV[command]
    monkeypatch.setattr(target, mock.Mock(side_effect=error))
    payload = jsonio.dumps(jsonio.tuple_to_json(identity_tuple(1, 2)))
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    assert main(argv) == code
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": kind, "message": str(error)}
    assert "Traceback" not in captured.err
