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
from commvar.cli import build_parser, main
from commvar.commodel import KINDS, CommutingTuple, identity_tuple
from commvar.generate import gen_random_commuting


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
