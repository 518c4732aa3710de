"""The small-matrix primitives compute what the NumPy wrappers they replace
compute, bit for bit, signed zeros included.

fro takes np.linalg.norm's Frobenius sum, kron_pair np.kron's broadcast
product, the kernel's start np.tensordot's product, and verify's cayley
suite reads its fifty scalar charts off one diagonal chart.  The cached
constants are read-only.  An AST guard keeps the wrappers out of the hot
modules.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from commvar import numkit
from commvar.commodel import _hermitian_components, kron_pair
from commvar.generate import gen_random_commuting
from commvar.numkit import (
    _all_pairs_step,
    _coefficients,
    _jacobi_sweeps,
    fro,
    identity,
    joint_diagonalizer,
    off_norm,
)
from commvar.rankstrata import cayley
from commvar.rng import SplitMix64

SRC = Path(numkit.__file__).resolve().parent


def _bits(a) -> bytes:
    """The bytes of an array: equal bytes are equal values with equal zero signs."""
    return np.ascontiguousarray(a).tobytes()


# ------------------------------------------------------------------ fro

_VIEWS = {
    "as is": lambda a: a,
    "transposed": lambda a: a.T,
    "every other": lambda a: a[::2],
    "reversed last axis": lambda a: a[..., ::-1],
    "strided last axis": lambda a: a[..., ::2],
}


def _entries(dtype):
    real = st.floats(-1e100, 1e100, allow_nan=False) | st.sampled_from([0.0, -0.0])
    if dtype == complex:
        return st.builds(complex, real, real)
    return real


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([float, complex]).flatmap(lambda dtype: hnp.arrays(
           dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
           elements=_entries(dtype))),
       st.sampled_from(sorted(_VIEWS)))
def test_fro_is_the_norm_frobenius_sum(a, view):
    a = _VIEWS[view](a) if a.ndim else a
    assert _bits(fro(a)) == _bits(float(np.linalg.norm(a)))


@pytest.mark.parametrize("a", [np.arange(12).reshape(3, 4), np.array([[True, False]]), 3, -0.0,
                               [[1.0, -2.0], [0.5, 0.0]], np.zeros((0, 4), complex)])
def test_fro_converts_input_as_norm_does(a):
    assert _bits(fro(a)) == _bits(float(np.linalg.norm(a)))


# ------------------------------------------------------------- kron_pair


def _signed_zero_stack(rng, n, s, dtype):
    a = rng.standard_normal((n, s, s))
    if dtype == complex:
        a = a + 1j * rng.standard_normal((n, s, s))
    zeros = rng.random((n, s, s)) < 0.3
    a[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    if dtype == complex:
        a.imag[rng.random((n, s, s)) < 0.3] = -0.0
    return a


@pytest.mark.parametrize("dx, dy", [(complex, complex), (float, complex), (complex, float),
                                    (float, float)])
@pytest.mark.parametrize("n, p, m, r", [(2, 3, 1, 2), (0, 2, 2, 3), (3, 1, 3, 1), (1, 4, 0, 2),
                                        (2, 2, 2, 2), (1, 0, 1, 3)])
def test_kron_pair_is_the_np_kron_formula(dx, dy, n, p, m, r):
    rng = np.random.default_rng(17 * n + 5 * p + 3 * m + r)
    xs, ys = _signed_zero_stack(rng, n, p, dx), _signed_zero_stack(rng, m, r, dy)
    expected = np.concatenate([np.kron(xs, np.eye(r)[None]), np.kron(np.eye(p)[None], ys)])
    got = kron_pair(xs, ys)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert _bits(got) == _bits(expected)


# ---------------------------------------------------------- scalar charts


@pytest.mark.parametrize("seed", range(6))
def test_stacked_scalar_cayley_charts_are_the_one_by_one_charts(seed):
    rng = np.random.default_rng(seed)
    ts = (rng.uniform(-1.0, 1.0, 50) * 10.0 ** rng.uniform(-8.0, 8.0, 50)).tolist()
    ts[:6] = [0.0, -0.0, 1e8, -1e8, 1e-8, -1e-8]
    stacked = np.diagonal(cayley(np.diag(1j * np.array(ts))))
    single = [cayley(np.array([[1j * t]]))[0, 0] for t in ts]
    assert _bits(stacked) == _bits(np.array(single))


# ------------------------------------------------------------ the kernel


def _tensordot_kernel(hmats, off_target):
    """joint_diagonalizer with its start combined by np.tensordot."""
    kk, s = len(hmats), hmats.shape[-1]
    c = 0.5 * (hmats + np.conj(np.swapaxes(hmats, 1, 2)))
    if off_norm(c) <= max(off_target, 1e-300):
        return np.eye(s, dtype=c.dtype)
    coeffs = SplitMix64(0x5EEDC0FFEE ^ (kk << 16) ^ s).normals(kk)
    q0 = np.linalg.eigh(np.tensordot(coeffs, c, axes=(0, 0)))[1]
    c = q0.conj().T @ c @ q0
    if off_norm(c) <= off_target:
        return q0 + 0.0
    u, pairs = _all_pairs_step(c)
    return q0 @ u @ _jacobi_sweeps(c, off_target, pairs)


@pytest.mark.parametrize("kind", ["unitary", "skew_hermitian", "real_symmetric"])
@pytest.mark.parametrize("n", range(4))
def test_joint_diagonalizer_is_its_tensordot_start_on_the_generate_grid(kind, n):
    # the grid holds --kind unitary --n 1 --s 24 --seed 0, whose zero signs
    # move under another product order
    for s in (1, 3, 6, 12, 24, 64):
        for seed in (0, 7):
            t = gen_random_commuting(seed, n, s, kind)
            comps = _hermitian_components(t)
            target = 1e-12 * max((fro(a) for a in t.mats), default=0.0)
            got, expected = joint_diagonalizer(comps, target), _tensordot_kernel(comps, target)
            assert got.dtype == expected.dtype
            assert _bits(got) == _bits(expected), (s, seed)


# ------------------------------------------------------- cached constants


@pytest.mark.parametrize("s", [0, 1, 4, 9])
@pytest.mark.parametrize("dtype", [float, complex, bool, np.dtype(complex)])
def test_cached_identity_is_read_only_and_fresh(s, dtype):
    eye = identity(s, dtype)
    assert eye is identity(s, dtype)
    assert eye.dtype == np.eye(s, dtype=dtype).dtype and _bits(eye) == _bits(np.eye(s, dtype=dtype))
    with pytest.raises(ValueError):
        eye[...] = 0


@pytest.mark.parametrize("kk, s", [(1, 1), (2, 4), (6, 6), (6, 64)])
def test_cached_coefficients_are_read_only_and_fresh(kk, s):
    coeffs = _coefficients(kk, s)
    assert coeffs is _coefficients(kk, s)
    fresh = SplitMix64(0x5EEDC0FFEE ^ (kk << 16) ^ s).normals(kk)
    assert coeffs.shape == (1, kk) and _bits(coeffs) == _bits(fresh)
    with pytest.raises(ValueError):
        coeffs[0, 0] = 0.0


def test_returned_identities_are_fresh_arrays():
    # the kernel hands its identity to callers, who may write to it
    q = joint_diagonalizer(np.zeros((2, 3, 3)), 1e-12)
    q[0, 0] = 5.0
    assert identity(3, np.dtype(float))[0, 0] == 1.0


def test_commutator_defect_of_fewer_than_two_matrices_takes_no_norm(monkeypatch):
    def no_norm(a):
        raise AssertionError("a norm was taken")

    monkeypatch.setattr(numkit, "fro", no_norm)
    assert numkit.commutator_defect([np.eye(3)]) == 0.0
    assert numkit.commutator_defect([]) == 0.0


# ------------------------------------------------------------ the guard

_WRAPPERS = {("np", "linalg", "norm"), ("np", "tensordot"), ("np", "kron"), ("np", "eye"),
             ("np", "swapaxes"), ("np", "diagonal"), ("np", "trace")}


def _dotted(node) -> tuple:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return (node.id, *reversed(parts)) if isinstance(node, ast.Name) else ()


def _wrapper_calls(module: str) -> list[str]:
    """module:line and name of each wrapper call, np.eye inside
    numkit.identity excepted."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    allowed = set()
    for fn in ast.walk(tree):
        if module == "numkit" and isinstance(fn, ast.FunctionDef) and fn.name == "identity":
            allowed |= {id(node) for node in ast.walk(fn)}
    return [f"{module}:{node.lineno} {'.'.join(_dotted(node.func))}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _dotted(node.func) in _WRAPPERS
            and id(node) not in allowed]


def test_the_guard_sees_a_wrapper_call():
    tree = ast.parse("np.linalg.norm(a) + np.eye(3)[0] + np.kron(a, b)")
    calls = [_dotted(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert sorted(c for c in calls if c in _WRAPPERS) == [
        ("np", "eye"), ("np", "kron"), ("np", "linalg", "norm")]


@pytest.mark.parametrize("module", ["numkit", "commodel", "rankstrata", "gammaconf", "isodecomp",
                                    "generate", "realk", "spectrumops", "symuniverse", "rng"])
def test_no_wrapper_call_returns_to_the_hot_modules(module):
    assert _wrapper_calls(module) == []
