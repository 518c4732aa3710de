"""Commuting-matrix models of labeled configuration spaces.

Finite-truncation model of configurations of sphere points labeled by
orthogonal subspaces, their equivalence with commuting unitary tuples via
joint diagonalization, the Cayley-transform stratum charts, level structure
maps, the real symmetric variant, isotropy types, and the exact graded
dimension tables of the complete unordered flag manifold.
"""

from .numkit import DEFAULT_TOL, Tolerances, commutator_defect, hermitian_eig, orthonormalize
from .symuniverse import UniverseBasis, j0, psi_embed, sigma_star
from .gammaconf import (
    BASEPOINT,
    Configuration,
    Label,
    SpherePoint,
    apply_based_map,
    canonicalize,
    config_distance,
    rank,
    sigma_action_config,
    smash,
    sphere_coord,
)
from .commodel import (
    CommutingTuple,
    EigenBlock,
    F_subspace,
    JointSpectrum,
    canonical_rep,
    class_distance,
    commuting_to_config,
    config_to_commuting,
    joint_diagonalize,
    sigma_action_tuple,
)
from .rankstrata import (
    SubquotientChart,
    cayley,
    cayley_inv,
    pairing_chart,
    reconstruct_chart,
    stabilize,
    stratum_rank,
    subquotient_chart,
    trace_split,
)
from .spectrumops import (
    multiply,
    multiply_tuple,
    structure_map,
    structure_map_tuple,
    unit_map,
    unit_map_tuple,
)
from .realk import (
    RealSplit,
    joint_diagonalize_real,
    real_cayley,
    real_cayley_inv,
    real_stratum_chart,
    real_trace_split,
)
from .isodecomp import (
    DecompType,
    decomposition_type,
    fixed_subspace_dim,
    flag_map,
    flag_map_preimage,
    is_complete_type,
    tuple_norm,
    unit_normalize,
)
from .cohomtab import a0_lambda_table, poincare_poly
from .generate import (
    gen_exact_rank_tuple,
    gen_partition_tuple,
    gen_random_commuting,
    gen_random_config,
)

__version__ = "0.1.0"
