"""Every parameter of every function in the package is read by its body.

A parameter no code reads (a tolerance left on a function that no longer
makes a tolerance decision, say) misleads every caller who passes it.  The
one exemption is the trial-suite body signature (rng, cfg, rec), which
verify's _trial_suite decorator calls every body with.
"""

import ast
from pathlib import Path

import pytest

from commvar import numkit

SRC = Path(numkit.__file__).resolve().parent
TRIAL_BODY = ["rng", "cfg", "rec"]


def _is_trial_body(node) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_trial_suite"
               for d in node.decorator_list)


def unread_parameters(source: str) -> list[str]:
    """'function.parameter' for each parameter, self aside, that no Name in
    its function's body loads (nested functions and lambdas count)."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
        params += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
        if params == TRIAL_BODY and _is_trial_body(node):
            continue
        loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        hits += [f"{node.name}.{p}" for p in params if p != "self" and p not in loaded]
    return hits


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_the_scan_sees_an_unread_parameter():
    source = '''
class Psi:
    def kron_frame(self, f, g, tol=None):
        return f * g

@_trial_suite("x")
def suite_x(rng, cfg, rec):
    rec.expect("x", rng)

def body(rng, cfg, rec):
    return lambda: rng(rec)
'''
    assert sorted(unread_parameters(source)) == ["body.cfg", "kron_frame.tol"]
