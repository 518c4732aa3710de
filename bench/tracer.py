"""Span tracer that wraps commvar's public functions from outside `src/`.

`Tracer.install()` rebinds every traced function in every module that holds
it by name (``from .commodel import joint_diagonalize`` copies the binding
into `rankstrata`, `realk`, `isodecomp`, `verify`, `cli`, ...), wraps the
traced methods on their classes and the suite functions in `verify.SUITES`.
`uninstall()` puts every original object back and reports any binding that
is not the original again.

Spans live in memory as rows (name, start, end, parent, op, raised) and are
reduced to per-layer metrics by `layer_metrics`.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time

import numpy as np

# (module, function) pairs wrapped with a span, named "<module>.<function>"
FUNCTIONS = {
    "numkit": ("joint_diagonalizer", "hermitian_eig", "orthonormalize", "commutator_defect"),
    "commodel": ("joint_diagonalize", "F_subspace", "canonical_rep", "class_distance",
                 "config_to_commuting", "commuting_to_config"),
    "rankstrata": ("subquotient_chart", "cayley", "cayley_inv", "reconstruct_chart"),
    "realk": ("real_stratum_chart", "real_cayley_inv", "joint_diagonalize_real"),
    "isodecomp": ("decomposition_type", "flag_map_preimage"),
    "spectrumops": ("multiply", "structure_map", "unit_map", "multiply_tuple",
                    "structure_map_tuple"),
    "gammaconf": ("canonicalize", "config_distance", "sigma_action_config", "apply_based_map"),
    "symuniverse": ("psi_embed", "sigma_star"),
    "jsonio": ("tuple_from_json", "tuple_to_json", "dumps"),
    "generate": ("gen_random_commuting", "gen_partition_tuple", "gen_random_config",
                 "gen_exact_rank_tuple"),
    "cli": ("main",),
}
# (module, class, method) triples, named "<module>.<class>.<method>"
METHODS = (
    ("commodel", "CommutingTuple", "validate"),
    ("symuniverse", "PsiIsometry", "kron_frame"),
)
KERNEL = ("numkit.joint_diagonalizer", "numkit.hermitian_eig")

# per-layer metrics of a traced run, in report order: (name, unit)
PER_LAYER = [
    ("numkit.joint_diagonalizer.calls", "count"),
    ("numkit.joint_diagonalizer.self_s", "s"),
    ("numkit.joint_diagonalizer.raised", "count"),
    ("numkit.joint_diagonalizer.pairs", "count"),
    ("numkit.joint_diagonalizer.resid_max", "ratio"),
    ("numkit.joint_diagonalizer.fallbacks", "count"),
    ("numkit.hermitian_eig.calls", "count"),
    ("numkit.hermitian_eig.self_s", "s"),
    ("numkit.kernel_share", "ratio"),
    ("numkit.orthonormalize.calls", "count"),
    ("numkit.orthonormalize.self_s", "s"),
    ("numkit.commutator_defect.calls", "count"),
    ("numkit.commutator_defect.self_s", "s"),
    ("commodel.joint_diagonalize.calls", "count"),
    ("commodel.joint_diagonalize.self_s", "s"),
    ("commodel.joint_diagonalize.raised", "count"),
    ("commodel.CommutingTuple.validate.calls", "count"),
    ("commodel.CommutingTuple.validate.self_s", "s"),
    ("commodel.jd_per_tuple", "ratio"),
    ("commodel.validate_per_tuple", "ratio"),
    ("commodel.jd_per_unitary_tuple", "ratio"),
    ("commodel.validate_per_unitary_tuple", "ratio"),
    ("commodel.jd_per_other_tuple", "ratio"),
    ("commodel.validate_per_other_tuple", "ratio"),
    ("commodel.F_subspace.calls", "count"),
    ("commodel.canonical_rep.calls", "count"),
    ("commodel.canonical_rep.self_s", "s"),
    ("commodel.class_distance.calls", "count"),
    ("commodel.class_distance.self_s", "s"),
    ("commodel.config_to_commuting.self_s", "s"),
    ("commodel.commuting_to_config.self_s", "s"),
    ("rankstrata.subquotient_chart.calls", "count"),
    ("rankstrata.subquotient_chart.self_s", "s"),
    ("rankstrata.subquotient_chart.raised", "count"),
    ("rankstrata.cayley_inv.calls", "count"),
    ("rankstrata.cayley_inv.self_s", "s"),
    ("rankstrata.cayley.calls", "count"),
    ("rankstrata.cayley.self_s", "s"),
    ("rankstrata.reconstruct_chart.self_s", "s"),
    ("realk.real_stratum_chart.calls", "count"),
    ("realk.real_stratum_chart.self_s", "s"),
    ("realk.real_stratum_chart.raised", "count"),
    ("realk.real_cayley_inv.self_s", "s"),
    ("realk.joint_diagonalize_real.calls", "count"),
    ("isodecomp.decomposition_type.calls", "count"),
    ("isodecomp.decomposition_type.self_s", "s"),
    ("isodecomp.flag_map_preimage.calls", "count"),
    ("isodecomp.flag_map_preimage.self_s", "s"),
    ("spectrumops.multiply.calls", "count"),
    ("spectrumops.multiply.self_s", "s"),
    ("spectrumops.structure_map.calls", "count"),
    ("spectrumops.structure_map.self_s", "s"),
    ("spectrumops.unit_map.self_s", "s"),
    ("spectrumops.multiply_tuple.self_s", "s"),
    ("spectrumops.structure_map_tuple.self_s", "s"),
    ("gammaconf.canonicalize.calls", "count"),
    ("gammaconf.canonicalize.self_s", "s"),
    ("gammaconf.canonicalize.raised", "count"),
    ("gammaconf.config_distance.calls", "count"),
    ("gammaconf.config_distance.self_s", "s"),
    ("gammaconf.sigma_action_config.self_s", "s"),
    ("gammaconf.apply_based_map.self_s", "s"),
    ("symuniverse.PsiIsometry.kron_frame.calls", "count"),
    ("symuniverse.PsiIsometry.kron_frame.self_s", "s"),
    ("symuniverse.psi_embed.calls", "count"),
    ("symuniverse.psi_embed.self_s", "s"),
    ("symuniverse.sigma_star.self_s", "s"),
    ("jsonio.tuple_from_json.self_s", "s"),
    ("jsonio.tuple_to_json.self_s", "s"),
    ("jsonio.dumps.self_s", "s"),
    ("generate.self_s", "s"),
    ("verify.roundtrip.total_s", "s"),
    ("verify.cayley.total_s", "s"),
    ("verify.spectrum.total_s", "s"),
    ("verify.equivariance.total_s", "s"),
    ("verify.real.total_s", "s"),
    ("verify.isotropy.total_s", "s"),
    ("verify.cohomology.total_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.import_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]
# metrics that count work; they must repeat exactly between two traced runs
EXACT = [name for name, unit in PER_LAYER if unit == "count"] + [
    "commodel.jd_per_tuple", "commodel.validate_per_tuple",
    "commodel.jd_per_unitary_tuple", "commodel.validate_per_unitary_tuple",
    "commodel.jd_per_other_tuple", "commodel.validate_per_other_tuple",
]


def _digest(t) -> bytes:
    return hashlib.sha1(t.kind.encode() + t.mats.tobytes()).digest()


class Tracer:
    """In-memory spans of one traced pass."""

    def __init__(self, extra_modules=()):
        self.extra_modules = list(extra_modules)
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent, op, raised]
        self.stack: list[int] = []
        self.op = -1
        self.jd_inputs: list[np.ndarray] = []  # kernel inputs, for the residual
        self.jd_outputs: list[np.ndarray] = []
        self.sweeps: dict[int, int] = {}  # kernel span -> sweep-loop entries
        self.tuple_calls = {"jd": {}, "validate": {}}  # digest -> [kind, calls]
        self._saved: list[tuple] = []
        self._name_index: dict[str, int] = {}

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([idx, time.perf_counter(), 0.0, parent, self.op, False])
        span = len(self.spans) - 1
        self.stack.append(span)
        return span

    def _close(self, span: int):
        self.spans[span][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.spans[span][5] = True
                raise
            finally:
                tracer._close(span)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -------------------------------------------------------- observers

    def _observe_jd(self, args, kwargs, q):
        hmats = np.array(args[0], copy=True)
        self.jd_inputs.append(hmats[None] if hmats.ndim == 2 else hmats)
        self.jd_outputs.append(q)

    def _count_tuple(self, table: str, t):
        entry = self.tuple_calls[table].setdefault(_digest(t), [t.kind, 0])
        entry[1] += 1

    # ----------------------------------------------------- (un)install

    def _modules(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "commvar" or name.startswith("commvar."))]
        return mods + self.extra_modules

    def _rebind(self, orig, wrapper):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._saved.append((mod, attr, orig))

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        observers = {
            "numkit.joint_diagonalizer": self._observe_jd,
            "commodel.joint_diagonalize":
                lambda args, kwargs, result: self._count_tuple("jd", args[0]),
            "commodel.CommutingTuple.validate":
                lambda args, kwargs, result: self._count_tuple("validate", args[0]),
        }
        for mod_name, funcs in FUNCTIONS.items():
            mod = sys.modules[f"commvar.{mod_name}"]
            for fn_name in funcs:
                name = f"{mod_name}.{fn_name}"
                orig = getattr(mod, fn_name)
                self._rebind(orig, self.wrap(name, orig, observers.get(name)))
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"commvar.{mod_name}"], cls_name)
            name = f"{mod_name}.{cls_name}.{meth}"
            orig = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(name, orig, observers.get(name)))
            self._saved.append((cls, meth, orig))
        suites = sys.modules["commvar.verify"].SUITES
        for suite, orig in list(suites.items()):
            suites[suite] = self.wrap(f"verify.{suite}", orig)
            self._saved.append((suites, suite, orig))
        numkit = sys.modules["commvar.numkit"]
        orig = numkit._jacobi_sweeps
        numkit._jacobi_sweeps = self._count_sweeps(orig)
        self._saved.append((numkit, "_jacobi_sweeps", orig))

    def _count_sweeps(self, fn):
        """Count sweep-loop entries per kernel call without a span, so the
        kernel's self time keeps its sweeps; more than one entry means the
        random-combination fallback ran."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.stack:
                span = tracer.stack[-1]
                tracer.sweeps[span] = tracer.sweeps.get(span, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def uninstall(self) -> list[str]:
        """Restore every binding; return the ones that are not the original."""
        for target, attr, orig in reversed(self._saved):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        wrong = []
        for target, attr, orig in self._saved:
            now = target[attr] if isinstance(target, dict) else \
                (target.__dict__[attr] if isinstance(target, type) else getattr(target, attr))
            if now is not orig:
                wrong.append(f"{getattr(target, '__name__', 'SUITES')}.{attr}")
        self._saved = []
        return wrong

    # ----------------------------------------------------------- reduce

    def rows(self) -> list[dict]:
        """Spans as plain records, for writing out after the pass."""
        return [
            {"name": self.names[n], "start": s, "end": e, "parent": p, "op": op, "raised": r}
            for n, s, e, p, op, r in self.spans
        ]


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children.  `spans` holds (start, end, parent)
    rows, parent -1 for a root; overlapping children count once."""
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _relative_joint_residual(hmats: np.ndarray, q: np.ndarray) -> float:
    c = 0.5 * (hmats + np.conj(np.swapaxes(hmats, 1, 2)))
    scale = max((float(np.linalg.norm(ck)) for ck in c), default=0.0)
    if scale == 0.0:
        return 0.0
    d = np.einsum("ab,kbc,cd->kad", q.conj().T, c, q)
    off = d - np.einsum("kii->ki", d)[:, :, None] * np.eye(d.shape[1])
    return float(np.linalg.norm(off)) / scale


def _per_tuple(table: dict, kinds) -> float:
    entries = [calls for kind, calls in table.values() if kind in kinds]
    return sum(entries) / len(entries) if entries else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took `wall_s` seconds;
    `cli.import_s` and `trace.overhead_ratio` are filled in by the caller."""
    selfs = self_times([(s, e, p) for _n, s, e, p, _op, _r in tracer.spans])
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    raised: dict[str, int] = {}
    for (n, start, end, _p, _op, r), own in zip(tracer.spans, selfs):
        name = tracer.names[n]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        raised[name] = raised.get(name, 0) + int(r)

    out: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        layer, stat = metric.rsplit(".", 1)
        if stat == "calls":
            out[metric] = calls.get(layer, 0)
        elif stat == "self_s":
            out[metric] = self_s.get(layer, 0.0)
        elif stat == "raised":
            out[metric] = raised.get(layer, 0)
        elif stat == "total_s":
            out[metric] = total_s.get(layer, 0.0)

    jd = "numkit.joint_diagonalizer"
    out[f"{jd}.pairs"] = sum(c.shape[0] * c.shape[1] * (c.shape[1] - 1) // 2
                             for c in tracer.jd_inputs)
    out[f"{jd}.resid_max"] = max(
        (_relative_joint_residual(c, q) for c, q in zip(tracer.jd_inputs, tracer.jd_outputs)),
        default=0.0)
    jd_index = tracer._name_index.get(jd, -2)
    out[f"{jd}.fallbacks"] = sum(
        1 for i, row in enumerate(tracer.spans)
        if row[0] == jd_index and tracer.sweeps.get(i, 0) > 1)
    out["numkit.kernel_share"] = sum(total_s.get(k, 0.0) for k in KERNEL) / wall_s
    everything = ("unitary", "skew_hermitian", "real_symmetric")
    for table, prefix in (("jd", "jd"), ("validate", "validate")):
        rows = tracer.tuple_calls[table]
        out[f"commodel.{prefix}_per_tuple"] = _per_tuple(rows, everything)
        out[f"commodel.{prefix}_per_unitary_tuple"] = _per_tuple(rows, ("unitary",))
        out[f"commodel.{prefix}_per_other_tuple"] = _per_tuple(rows, everything[1:])
    out["generate.self_s"] = sum((v for k, v in self_s.items() if k.startswith("generate.")), 0.0)
    return out
