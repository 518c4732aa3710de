"""The commvar names the benchmark harness under bench/ wraps and imports.

bench/tracer.py rebinds every function of its FUNCTIONS table and every
method of its METHODS table by name, and bench/workloads.py imports commvar
names directly and calls them; a removed or renamed name, or a signature
that no longer takes a workload's call, breaks a benchmark run.  Both files
are parsed, not imported, so nothing under bench/ runs or is written.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _module_body(name: str) -> list:
    return ast.parse((BENCH / name).read_text()).body


def _literal(name: str, target: str):
    """The literal value a module-level assignment of a bench file binds."""
    for node in _module_body(name):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == target for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} assigns no {target}")


def _resolves(module: str, name: str) -> bool:
    mod = importlib.import_module(module)
    return hasattr(mod, name) or importlib.util.find_spec(f"{module}.{name}") is not None


def test_every_traced_name_resolves():
    functions = _literal("tracer.py", "FUNCTIONS")
    methods = _literal("tracer.py", "METHODS")
    missing = [f"{mod}.{fn}" for mod, fns in functions.items() for fn in fns
               if not _resolves(f"commvar.{mod}", fn)]
    for mod, cls, meth in methods:
        owner = getattr(importlib.import_module(f"commvar.{mod}"), cls, None)
        if meth not in vars(owner or object):  # the class's own attribute is wrapped
            missing.append(f"{mod}.{cls}.{meth}")
    # install() also wraps the suites of verify.SUITES and counts the calls
    # of numkit._jacobi_sweeps
    for mod, name in (("verify", "SUITES"), ("numkit", "_jacobi_sweeps")):
        if not _resolves(f"commvar.{mod}", name):
            missing.append(f"{mod}.{name}")
    assert len(functions) > 5 and methods
    assert not missing


def test_every_workload_import_resolves():
    imports = [(node.module, alias.name) for node in _module_body("workloads.py")
               if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "commvar"
               for alias in node.names]
    assert imports
    assert not [f"{module}.{name}" for module, name in imports if not _resolves(module, name)]


def _workload_callees() -> dict:
    """Each name bench/workloads.py imports from commvar (a module imported
    whole, as `from commvar import cli`, included), bound to its object."""
    names = {}
    for node in _module_body("workloads.py"):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "commvar":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def test_every_workload_call_binds_to_its_signature():
    # a call that a signature change no longer binds (a chart field added
    # without a default, a renamed keyword) would raise TypeError in every
    # run of the workload; calls with *args or **kwargs are not checked
    names = _workload_callees()
    checked, unbound = set(), []
    for node in ast.walk(ast.parse((BENCH / "workloads.py").read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            label, obj = func.id, names[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and inspect.ismodule(names.get(func.value.id))):
            label, obj = f"{func.value.id}.{func.attr}", getattr(names[func.value.id], func.attr)
        else:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            continue
        try:
            inspect.signature(obj).bind(*node.args, **{k.arg: k for k in node.keywords})
        except TypeError as exc:
            unbound.append(f"line {node.lineno}: {label}: {exc}")
        checked.add(label)
    assert {"SubquotientChart", "reconstruct_chart", "run_suite", "cli.main"} <= checked
    assert not unbound
