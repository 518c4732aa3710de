"""Real variant: commuting real symmetric tuples, special-orthogonal joint
diagonalization, and real stratum charts through the transform
X -> (iX - Id)(iX + Id)^{-1}.
"""

import numpy as np

from commvar import (
    class_distance,
    gen_random_commuting,
    joint_diagonalize_real,
    real_cayley,
    real_cayley_inv,
    real_stratum_chart,
    reconstruct_chart,
    trace_split,
)
from commvar.numkit import fro, off_norm

# The real transform lands in the symmetric unitaries.
x = np.array([[0.5, 0.2], [0.2, -1.0]])
a = real_cayley(x)
print("unitary defect:", fro(a.conj().T @ a - np.eye(2)))
print("complex-symmetric defect:", fro(a - a.T))
print("round trip:", fro(real_cayley_inv(a) - x))

# Commuting symmetric tuples rotate to diagonal form inside SO(s).
t = gen_random_commuting(11, n=3, s=5, kind="real_symmetric")
q, blocks = joint_diagonalize_real(t)
diag = np.einsum("ab,kbc,cd->kad", q.T, t.mats, q)
print("det Q:", np.linalg.det(q))
print("joint off-diagonal:", np.sqrt(sum(off_norm(d) ** 2 for d in diag)))
print("eigenblock sizes:", [b.frame.shape[1] for b in blocks])

# The scalar split is the complex one's, read off the tuple's kind: X = bar + tau Id.
bar, tau = trace_split(t)
print("traceless part traces:", [float(abs(np.trace(m))) for m in bar.mats])

# A tuple of symmetric unitaries charts down to real symmetric coordinates
# and a real frame.
sym = np.array([real_cayley(m) for m in t.mats])
from commvar.commodel import CommutingTuple

tsym = CommutingTuple("unitary", sym)
chart = real_stratum_chart(tsym)
print("real chart size:", chart.s, "kind:", chart.X.kind)
# The complex reconstruction rebuilds a real chart through cayley(iX).
rec = reconstruct_chart(chart, tsym.s)
print("reconstruction gap:", class_distance(rec, tsym))
