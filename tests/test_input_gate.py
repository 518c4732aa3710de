"""The input gate's entry bound (numkit.check_entries, which
numkit.check_structure runs first) guards every matrix a caller hands in:
each entry point rejects a NaN, infinite or oversized entry with InvalidTuple
before it takes any norm or product, so no RuntimeWarning is raised."""

import contextlib
import io
import json
import re
import sys
from unittest import mock

import numpy as np
import pytest

from commvar import jsonio
from commvar.cli import main
from commvar.commodel import MAX_ENTRY, CommutingTuple
from commvar.errors import InvalidTuple, NotUnitary
from commvar.isodecomp import flag_map, unit_normalize
from commvar.numkit import hermitian_eig
from commvar.rankstrata import cayley, cayley_inv
from commvar.realk import real_cayley, real_cayley_inv

BAD = {"nan": np.nan, "inf": np.inf, "1e200": 1e200}
BOUND_MESSAGE = f"entries must be finite and at most {MAX_ENTRY:.0e} in modulus"
# a unit traceless diagonal flag coordinate of size 2
FLAG_X = CommutingTuple("skew_hermitian", np.array([np.diag([1j, -1j]) / np.sqrt(2.0)]))


def _diagonal(b):
    """The traceless skew-Hermitian tuple diag(i b, -i b)."""
    return CommutingTuple("skew_hermitian", np.array([np.diag([complex(0, b), complex(0, -b)])]))


def _stratify(b):
    """`stratify` on a real symmetric tuple with entry b, which validate
    checks; its exit-2 body is raised again as the InvalidTuple it reports."""
    mats = np.array([[[0.0, b], [b, 0.0]]])
    payload = json.dumps(jsonio.tuple_to_json(CommutingTuple("real_symmetric", mats)))
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(payload)), contextlib.redirect_stdout(out):
        code = main(["stratify"])
    body = json.loads(out.getvalue())
    if code == 2 and body["error"] == "invalid_input":
        raise InvalidTuple(body["message"])


ENTRY_POINTS = {
    "validate": _stratify,
    "hermitian_eig": lambda b: hermitian_eig(np.array([[0.0, b], [b, 0.0]])),
    "cayley": lambda b: cayley(np.array([[0.0, b], [-b, 0.0]], dtype=complex)),
    "real_cayley": lambda b: real_cayley(np.array([[0.0, b], [b, 0.0]])),
    "cayley_inv": lambda b: cayley_inv(np.array([[0.0, b], [b, 0.0]], dtype=complex)),
    "real_cayley_inv": lambda b: real_cayley_inv(np.array([[0.0, b], [b, 0.0]], dtype=complex)),
    "flag_map": lambda b: flag_map(np.array([[b, 0.0], [0.0, 1.0]]), FLAG_X),
    "flag_map_coordinates": lambda b: flag_map(np.eye(2), _diagonal(b)),
    "unit_normalize": lambda b: unit_normalize(_diagonal(b)),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
@pytest.mark.parametrize("entry_point", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_every_entry_point_rejects_an_entry_outside_the_bound(entry_point, bad):
    with pytest.raises(InvalidTuple, match=re.escape(BOUND_MESSAGE)):
        entry_point(bad)


@pytest.mark.parametrize("inverse", [cayley_inv, real_cayley_inv])
def test_inverse_cayley_transforms_reject_a_non_unitary_matrix(inverse):
    # A - Id is invertible, so only the unitarity check rejects this matrix
    with pytest.raises(NotUnitary):
        inverse(np.array([[0.0, 2.0], [2.0, 0.0]], dtype=complex))
