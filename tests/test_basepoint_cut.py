"""F is decided once, per eigenvector, inside joint_diagonalize.

A joint eigenvector of a unitary tuple lies off F when some coordinate of its
value tuple is within eps_base of 1.  Clustering links only eigenvectors on
one side of that cut, and the stratum rank, the chart and the decomposition
type all read the same decision.
"""

import contextlib
import io
import json
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from commvar import jsonio
from commvar.cli import main
from commvar.commodel import CommutingTuple, F_subspace, commuting_to_config, joint_diagonalize
from commvar.gammaconf import _label_leads, frame_order, rank
from commvar.generate import gen_exact_rank_tuple, gen_partition_tuple
from commvar.isodecomp import decomposition_type
from commvar.numkit import DEFAULT_TOL
from commvar.rankstrata import stratum_rank
from commvar.symuniverse import UniverseBasis

EPS_BASE, EPS_CLUSTER = DEFAULT_TOL.eps_base, DEFAULT_TOL.eps_cluster
# 0; +-1/2 and +-2 times each threshold; a chain spaced just under eps_cluster;
# generic phases
PHASES = [0.0, *(k * eps for eps in (EPS_BASE, EPS_CLUSTER) for k in (0.5, -0.5, 2.0, -2.0)),
          *(k * EPS_CLUSTER for k in (0.9, 1.8, 2.7)), 0.7, -1.3, 2.0, 3.0]


def diagonal_unitary(phases) -> CommutingTuple:
    """The tuple diag(exp(i phases[j])) over the rows j of phases."""
    phases = np.asarray(phases, dtype=float)
    return CommutingTuple("unitary", np.exp(1j * phases)[:, :, None] * np.eye(phases.shape[1]))


def columns_off_one(phases) -> int:
    """Columns with no coordinate within eps_base of 1: the dimension of F."""
    near = np.abs(np.exp(1j * np.asarray(phases)) - 1.0) <= EPS_BASE
    return int(np.sum(~near.any(axis=0)))


def stratify(t: CommutingTuple):
    out = io.StringIO()
    doc = json.dumps(jsonio.tuple_to_json(t))
    with mock.patch.object(sys, "stdin", io.StringIO(doc)), contextlib.redirect_stdout(out):
        code = main(["stratify"])
    return code, json.loads(out.getvalue())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.integers(1, 6).flatmap(
    lambda s: hnp.arrays(float, (n, s), elements=st.sampled_from(PHASES)))))
def test_rank_chart_and_type_read_one_cut(phases):
    t = diagonal_unitary(phases)
    rank = columns_off_one(phases)
    assert stratum_rank(t) == rank
    code, report = stratify(t)
    assert code == 0, report
    assert report["rank"] == rank
    assert sum(report["decomposition_type"]) == t.s


@pytest.mark.parametrize("phases, rank, parts, x_max", [
    ([[0.0, 2e-9]], 1, [1, 1], 1e9),
    ([[0.0, 8e-7, 1.6e-6, 2.0]], 3, [2, 1, 1], 2.5e6),
    ([[1e-10, 9e-7, 2.0]], 2, [1, 1, 1], 2 / 9e-7),
    # two columns near 1 in different coordinates, 5e-7 apart: one block, off F
    ([[0.0, 5e-7, 2.0], [5e-7, 0.0, 1.0]], 1, [2, 1], None),
    # in F on both sides of 1: two blocks, each off 1
    ([[2e-9, -2e-9, 2.0]], 3, [1, 1, 1], 1e9),
    # 2e-7 apart across i and across -1: one block each
    ([[np.pi / 2 - 1e-7, np.pi / 2 + 1e-7, np.pi - 1e-7, 1e-7 - np.pi]], 4, [2, 2], None),
], ids=["two-columns", "chain", "chain-off-zero", "pair", "straddle-one",
        "straddle-i-and-minus-one"])
def test_values_near_one_leave_F_column_by_column(phases, rank, parts, x_max):
    t = diagonal_unitary(phases)
    code, report = stratify(t)
    assert code == 0, report
    assert report["rank"] == stratum_rank(t) == rank
    assert report["decomposition_type"] == parts
    if x_max is not None:
        x = jsonio.tuple_from_json(report["chart"]["X"]).mats
        assert np.max(np.abs(x)) == pytest.approx(x_max, rel=1e-3)


def test_a_block_in_F_that_would_straddle_1_keeps_its_rank_as_a_configuration():
    t = CommutingTuple("unitary", diagonal_unitary([[2e-9, -2e-9, 2.0]]).mats, UniverseBasis(1, 2))
    assert stratum_rank(t) == rank(commuting_to_config(t)) == 3


# universes of dimension at most 6, by (n, D)
UNIVERSES = [(1, d) for d in range(6)] + [(2, 1), (2, 2), (3, 1)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(UNIVERSES).flatmap(lambda nd: st.tuples(st.just(nd), hnp.arrays(
    float, (nd[0], UniverseBasis(*nd).dim), elements=st.sampled_from(PHASES)))))
def test_configuration_rank_is_the_stratum_rank(case):
    (n, d), phases = case
    t = CommutingTuple("unitary", diagonal_unitary(phases).mats, UniverseBasis(n, d))
    assert rank(commuting_to_config(t)) == stratum_rank(t) == columns_off_one(phases)


def test_lie_kinds_are_not_cut_at_one():
    # 1 - 5e-10 is within eps_base of 1 and 1 + 5e-7 is not, but the two
    # cluster at eps_cluster: a value near 1 means nothing to a symmetric tuple
    t = CommutingTuple("real_symmetric", np.diag([1 - 5e-10, 1 + 5e-7, 3.0])[None])
    assert decomposition_type(t).parts == (2, 1)


@pytest.mark.parametrize("t", [
    gen_partition_tuple(3, 2, (2, 1, 2, 1), kind="unitary"),
    gen_partition_tuple(5, 1, (3, 2, 2, 1), kind="skew_hermitian"),
    gen_exact_rank_tuple(4, 2, 4, 8),
    diagonal_unitary([[0.0, 3.0, 1e-10, 2.0, 2.0], [1.0, 0.5, 0.5, 0.0, 0.25]]),
], ids=["unitary-parts", "skew-parts", "exact-rank", "diagonal"])
def test_blocks_come_in_chart_order(t):
    spectrum = joint_diagonalize(t)
    blocks = spectrum.blocks
    lead = _label_leads(np.hstack([b.frame for b in blocks]), [b.frame.shape[1] for b in blocks],
                        DEFAULT_TOL)
    values = np.array([b.values for b in blocks])
    assert frame_order(lead, values).tolist() == list(range(len(blocks)))
    assert np.array_equal(F_subspace(t, spectrum=spectrum),
                          np.hstack([b.frame for b in blocks if b.in_F] or [np.zeros((t.s, 0))]))
    if t.kind == "unitary":
        # a block is in F exactly when none of its columns has a value at 1
        for b in blocks:
            vals = np.diagonal(b.frame.conj().T @ t.mats @ b.frame, axis1=1, axis2=2)
            assert b.in_F == (not np.any(np.abs(vals - 1.0) <= EPS_BASE))
