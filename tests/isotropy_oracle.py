"""The isotropy sweep's nullspace count for one partition, shared by the
tests that check fixed-subspace dimensions against it."""

from commvar.rng import SplitMix64
from commvar.verify import _fixed_dims


def fixed_dim_nullspace_oracle(parts, n: int, field: str, seed: int = 0) -> int:
    """`_fixed_dims` of one partition on the first 4 sum p_i^2 normals of its
    stream SplitMix64(seed ^ 0xFACADE), times n for the n-fold direct sum."""
    normals = SplitMix64(seed ^ 0xFACADE).normals(4 * sum(p * p for p in parts))
    return n * next(_fixed_dims([parts], field, normals))
