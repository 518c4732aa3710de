"""The public API of `commvar`: every name the package exports, and the
signature text of every exported function.

ROADMAP item 8 keeps public names and signatures unless an item says
otherwise; this pin makes that a check.  A change to the public API edits
the pin and says so in CHANGES.md.  A default equal to DEFAULT_TOL is
written as DEFAULT_TOL.
"""

import inspect
import types

import commvar
from commvar import DEFAULT_TOL

OTHER_NAMES = {
    "BASEPOINT", "CommutingTuple", "Configuration", "DEFAULT_TOL", "DecompType", "EigenBlock",
    "JointSpectrum", "Label", "SpherePoint", "SubquotientChart", "Tolerances", "UniverseBasis",
}

FUNCTION_SIGNATURES = {
    "F_subspace": (
        "(t: 'CommutingTuple', tol: 'Tolerances' = DEFAULT_TOL, "
        "spectrum: 'JointSpectrum | None' = None) -> 'np.ndarray'"
    ),
    "a0_lambda_table": "(p: 'int') -> 'dict[int, int]'",
    "apply_based_map": (
        "(c: 'Configuration', alpha, n_targets: 'int', "
        "tol: 'Tolerances' = DEFAULT_TOL) -> 'Configuration'"
    ),
    "canonical_rep": (
        "(t: 'CommutingTuple', tol: 'Tolerances' = DEFAULT_TOL, "
        "spectrum: 'JointSpectrum | None' = None) -> 'CommutingTuple'"
    ),
    "canonicalize": "(c: 'Configuration', tol: 'Tolerances' = DEFAULT_TOL) -> 'Configuration'",
    "cayley": "(x: 'np.ndarray', tol: 'Tolerances' = DEFAULT_TOL) -> 'np.ndarray'",
    "cayley_inv": "(a: 'np.ndarray', tol: 'Tolerances' = DEFAULT_TOL) -> 'np.ndarray'",
    "class_distance": (
        "(t1: 'CommutingTuple', t2: 'CommutingTuple', tol: 'Tolerances' = DEFAULT_TOL) -> 'float'"
    ),
    "commutator_defect": "(mats) -> 'float'",
    "commuting_to_config": (
        "(t: 'CommutingTuple', tol: 'Tolerances' = DEFAULT_TOL, "
        "spectrum: 'JointSpectrum | None' = None) -> 'Configuration'"
    ),
    "config_distance": "(a: 'Configuration', b: 'Configuration') -> 'float'",
    "config_to_commuting": "(c: 'Configuration') -> 'CommutingTuple'",
    "decomposition_type": (
        "(t: 'CommutingTuple', tol: 'Tolerances' = DEFAULT_TOL, "
        "spectrum: 'JointSpectrum | None' = None) -> 'DecompType'"
    ),
    "fixed_subspace_dim": "(d: 'DecompType', n: 'int', field: 'str' = 'complex') -> 'int'",
    "flag_map": (
        "(g: 'np.ndarray', x: 'CommutingTuple', "
        "tol: 'Tolerances' = DEFAULT_TOL) -> 'CommutingTuple'"
    ),
    "flag_map_preimage": (
        "(t: 'CommutingTuple', tol: 'Tolerances' = DEFAULT_TOL, "
        "spectrum: 'JointSpectrum | None' = None)"
    ),
    "gen_exact_rank_tuple": (
        "(seed: 'int', n: 'int', s: 'int', ambient_dim: 'int | None' = None) -> 'CommutingTuple'"
    ),
    "gen_partition_tuple": (
        "(seed: 'int', n: 'int', parts, kind: 'str' = 'skew_hermitian', "
        "traceless: 'bool' = False, unit: 'bool' = False) -> 'CommutingTuple'"
    ),
    "gen_random_commuting": (
        "(seed: 'int', n: 'int', s: 'int', kind: 'str', margin: 'float' = 0.0, "
        "min_separation: 'float' = 0.0) -> 'CommutingTuple'"
    ),
    "gen_random_config": (
        "(seed: 'int', universe: 'UniverseBasis', max_labels: 'int' = 3, "
        "max_rank: 'int | None' = None, dims=None, "
        "tol: 'Tolerances' = DEFAULT_TOL) -> 'Configuration'"
    ),
    "hermitian_eig": "(h: 'np.ndarray', tol: 'Tolerances' = DEFAULT_TOL)",
    "is_complete_type": "(d: 'DecompType') -> 'bool'",
    "j0": "(universe: 'UniverseBasis') -> 'np.ndarray'",
    "joint_diagonalize": (
        "(t: 'CommutingTuple', tol: 'Tolerances' = DEFAULT_TOL) -> 'JointSpectrum'"
    ),
    "joint_diagonalize_real": (
        "(t: 'CommutingTuple', tol: 'Tolerances' = DEFAULT_TOL) -> 'JointSpectrum'"
    ),
    "multiply": (
        "(a: 'Configuration', b: 'Configuration', "
        "tol: 'Tolerances' = DEFAULT_TOL) -> 'Configuration'"
    ),
    "multiply_tuple": (
        "(ta: 'CommutingTuple', tb: 'CommutingTuple', tol: 'Tolerances' = DEFAULT_TOL, "
        "spectrum_a: 'JointSpectrum | None' = None, "
        "spectrum_b: 'JointSpectrum | None' = None) -> 'CommutingTuple'"
    ),
    "orthonormalize": "(vectors, tol: 'Tolerances' = DEFAULT_TOL) -> 'np.ndarray'",
    "pairing_chart": "(x: 'CommutingTuple', y: 'CommutingTuple') -> 'CommutingTuple'",
    "poincare_poly": "(p: 'int') -> 'PoincareTable'",
    "psi_embed": "(left: 'UniverseBasis', right: 'UniverseBasis') -> 'PsiIsometry'",
    "rank": "(c: 'Configuration') -> 'int'",
    "real_cayley": "(x: 'np.ndarray', tol: 'Tolerances' = DEFAULT_TOL) -> 'np.ndarray'",
    "real_cayley_inv": "(a: 'np.ndarray', tol: 'Tolerances' = DEFAULT_TOL) -> 'np.ndarray'",
    "real_stratum_chart": (
        "(t: 'CommutingTuple', tol: 'Tolerances' = DEFAULT_TOL, "
        "spectrum: 'JointSpectrum | None' = None) -> 'SubquotientChart'"
    ),
    "reconstruct_chart": (
        "(chart: 'SubquotientChart', ambient_dim: 'int', "
        "tol: 'Tolerances' = DEFAULT_TOL) -> 'CommutingTuple'"
    ),
    "sigma_action_config": (
        "(sigma, c: 'Configuration', tol: 'Tolerances' = DEFAULT_TOL) -> 'Configuration'"
    ),
    "sigma_action_tuple": "(sigma, t: 'CommutingTuple') -> 'CommutingTuple'",
    "sigma_star": "(sigma, universe: 'UniverseBasis') -> 'np.ndarray'",
    "smash": "(x: 'SpherePoint', y: 'SpherePoint') -> 'SpherePoint'",
    "sphere_coord": "(t: 'float') -> 'complex'",
    "stabilize": "(x: 'CommutingTuple', m: 'int') -> 'CommutingTuple'",
    "stratum_rank": "(t: 'CommutingTuple', tol: 'Tolerances' = DEFAULT_TOL) -> 'int'",
    "structure_map": (
        "(a: 'Configuration', y: 'SpherePoint', m: 'int | None' = None, "
        "tol: 'Tolerances' = DEFAULT_TOL) -> 'Configuration'"
    ),
    "structure_map_tuple": (
        "(t: 'CommutingTuple', y: 'SpherePoint', m: 'int | None' = None, "
        "tol: 'Tolerances' = DEFAULT_TOL, "
        "spectrum: 'JointSpectrum | None' = None) -> 'CommutingTuple'"
    ),
    "subquotient_chart": (
        "(t: 'CommutingTuple', tol: 'Tolerances' = DEFAULT_TOL, "
        "frame: 'np.ndarray | None' = None, "
        "spectrum: 'JointSpectrum | None' = None) -> 'SubquotientChart'"
    ),
    "trace_split": "(x: 'CommutingTuple')",
    "tuple_norm": "(t: 'CommutingTuple') -> 'float'",
    "unit_map": (
        "(x: 'SpherePoint', universe: 'UniverseBasis', "
        "tol: 'Tolerances' = DEFAULT_TOL) -> 'Configuration'"
    ),
    "unit_map_tuple": "(x: 'SpherePoint', universe: 'UniverseBasis') -> 'CommutingTuple'",
    "unit_normalize": "(t: 'CommutingTuple', tol: 'Tolerances' = DEFAULT_TOL) -> 'CommutingTuple'",
}


def _exported() -> dict:
    return {name: obj for name, obj in vars(commvar).items()
            if not name.startswith("_") and not isinstance(obj, types.ModuleType)}


def test_exported_names_are_pinned():
    assert set(_exported()) == OTHER_NAMES | set(FUNCTION_SIGNATURES)


def test_exported_function_signatures_are_pinned():
    got = {name: str(inspect.signature(obj)).replace(repr(DEFAULT_TOL), "DEFAULT_TOL")
           for name, obj in _exported().items() if inspect.isfunction(obj)}
    assert got == FUNCTION_SIGNATURES
