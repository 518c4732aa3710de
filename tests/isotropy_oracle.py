"""The isotropy sweep's nullspace count for one partition, shared by the
tests that check fixed-subspace dimensions against it."""

from commvar.verify import _fixed_dim


def fixed_dim_nullspace_oracle(parts, n: int, field: str, seed: int = 0) -> int:
    """`_fixed_dim` of one partition, times n for the n-fold direct sum.  The
    oracle draws nothing: `seed` is unused, and kept so callers may pass one."""
    return n * _fixed_dim(parts, field)
