"""Exact integer linear algebra: oracles are brute force and fractions."""

import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmod2 import bridge, errors, f2, groups, intlinalg, lattice
from oracles import det_fraction


def _row_span_member(rows, v, bound=6):
    """Brute-force membership of v in the integer row span (small cases)."""
    if not rows:
        return not any(v)
    coeffs = range(-bound, bound + 1)

    def rec(i, acc):
        if i == len(rows):
            return acc == list(v)
        return any(rec(i + 1, [a + c * b for a, b in zip(acc, rows[i])])
                   for c in coeffs)

    return rec(0, [0] * len(v))


def test_hnf_canonical_under_row_operations():
    random.seed(3)
    for _ in range(25):
        rows = [[random.randint(-4, 4) for _ in range(4)] for _ in range(3)]
        h1 = intlinalg._hermite_normal_form(rows)
        # unimodular mix: shuffle, negate, add a multiple of another row
        mixed = [list(r) for r in rows]
        random.shuffle(mixed)
        mixed[0] = [-x for x in mixed[0]]
        mixed[1] = [a + 2 * b for a, b in zip(mixed[1], mixed[2])]
        assert intlinalg._hermite_normal_form(mixed) == h1


def test_hnf_reduced_shape():
    h = intlinalg._hermite_normal_form([[2, 4, 4], [0, 6, 12], [0, 0, 8]])
    # pivots positive, entries above pivots reduced
    assert h == [(2, 4, 4), (0, 6, 4), (0, 0, 8)]


def test_kernel_basis_spans_kernel():
    random.seed(5)
    for _ in range(20):
        c = [random.randint(-3, 3) for _ in range(4)]
        if not any(c):
            continue
        basis = intlinalg._kernel_basis(c)
        assert len(basis) == 3
        assert all(sum(a * b for a, b in zip(c, row)) == 0 for row in basis)
        # every small kernel vector is an integer combination of the basis
        for v in [(c[1], -c[0], 0, 0), (0, c[2], -c[1], 0), (0, 0, c[3], -c[2])]:
            assert _row_span_member(basis, v)


def test_kernel_basis_is_sorted_and_deterministic():
    c = (-3, -1, -1, -1)
    b1 = intlinalg._kernel_basis(c)
    assert b1 == sorted(b1)
    assert b1 == intlinalg._kernel_basis(c)


def test_kernel_of_zero_functional_rejected():
    with pytest.raises(ValueError):
        intlinalg._kernel_basis((0, 0, 0))


def test_det_matches_fraction_elimination():
    random.seed(11)
    singular = [[[0]], [[0, 0], [0, 0]], [[1, 2], [2, 4]],
                [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
                [[2, -1, 0], [0, 0, 0], [1, 1, 1]],
                [[3, 1, 4, 1], [5, 9, 2, 6], [3, 1, 4, 1], [0, 2, 7, 1]]]
    for M in singular:
        assert det_fraction(M) == 0
        assert intlinalg._abs_det(M) == 0
    for n in (1, 2, 3, 4, 5):
        for _ in range(10):
            M = [[random.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert intlinalg._abs_det(M) == abs(det_fraction(M))
    assert intlinalg._abs_det([]) == 1


def test_positive_definite():
    """_build's definiteness check is the only one that rejects K^perp at
    n = 10, the even unimodular II_(9,1), as K.K = +1 leaves the negative
    sign to K^perp; at n = 9, K.K = 0 puts K in its own K^perp, and the
    singular Gram matrix fails the discriminant check (for any expected
    discriminant but 0)."""
    for n, check in ((10, "positive definite"), (9, "discriminant")):
        signs, K = (-1,) + (1,) * n, (3,) + (-1,) * n
        with pytest.raises(errors.CrossCheckFailed, match=check):
            lattice._build("delpezzo", n, signs, K, 1, "X")


def _matrix(rows, cols, bound=4):
    entry = st.integers(-bound, bound)
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def _matrix_and_row_operations(draw):
    """An integer matrix and a word in the unimodular row operations."""
    m = draw(st.integers(1, 4))
    rows = draw(_matrix(m, draw(st.integers(1, 5))))
    index = st.integers(0, m - 1)
    ops = draw(st.lists(st.tuples(st.sampled_from(("swap", "negate", "add")),
                                  index, index, st.integers(-3, 3)),
                        max_size=10))
    return rows, ops


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_matrix_and_row_operations())
def test_hnf_is_canonical_under_unimodular_row_operations(case):
    """The HNF depends only on the row lattice."""
    rows, ops = case
    mixed = [list(r) for r in rows]
    for op, i, j, c in ops:
        if op == "swap":
            mixed[i], mixed[j] = mixed[j], mixed[i]
        elif op == "negate":
            mixed[i] = [-x for x in mixed[i]]
        elif i != j:
            mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
    assert intlinalg._hermite_normal_form(mixed) == intlinalg._hermite_normal_form(rows)


@st.composite
def _square_pair(draw):
    n = draw(st.integers(1, 5))
    return draw(_matrix(n, n, 6)), draw(_matrix(n, n, 6))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_square_pair())
def test_det_is_multiplicative(pair):
    """|det| against the rational oracle, and multiplicative, also on a
    singular A0: A with row 0 repeated, when A has two rows or more."""
    A, B = pair

    def mul(X, Y):
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*Y)] for row in X]

    A0 = [A[0]] + A[:-1]
    for X, Y in ((A, B), (A0, B)):
        for M in (X, Y, mul(X, Y)):
            assert intlinalg._abs_det(M) == abs(det_fraction(M))
        assert intlinalg._abs_det(mul(X, Y)) == intlinalg._abs_det(X) * intlinalg._abs_det(Y)
    if len(A) > 1:
        assert intlinalg._abs_det(A0) == intlinalg._abs_det(mul(A0, B)) == 0


@pytest.mark.parametrize("bad_call", [
    lambda: f2.F2QuadraticSpace(2, (1, 2), (0, 0), ((0, 1), (0, 0))),
    lambda: f2.F2QuadraticSpace(2, (1, 1), (0, 0), ((0, 0), (0, 0))),
    lambda: f2.F2QuadraticSpace(2, (4,), (0,), ((0,),)),
    lambda: f2.F2QuadraticSpace(2, (-1,), (0,), ((0,),)),
    lambda: f2.F2QuadraticSpace(2, (0,), (0,), ((0,),)),
    lambda: f2.F2QuadraticSpace(-1, (), (), ()),
    lambda: f2.F2QuadraticSpace(2, [1, 2], [1], [[0, 1], [1, 0]]),
    lambda: f2.F2QuadraticSpace(2, [1], [1, 0], [[0]]),
    lambda: f2.F2QuadraticSpace(2.5, [1], [0], [[0]]),
    lambda: f2.F2QuadraticSpace(2, [1.5], [0], [[0]]),
    lambda: f2.F2QuadraticSpace(2, [1], [True], [[0]]),
    lambda: f2.F2QuadraticSpace(2, [1], [0], [[0.0]]),
    lambda: f2.space_from_gram(((1,),)),
    lambda: f2.space_from_gram([[2, 1], [1]]),
    lambda: f2.space_from_gram([[2.0]]),
    lambda: f2.space_from_gram([["a"]]),
    lambda: f2.space_from_gram(5),
    lambda: f2.F2QuadraticSpace(2, [1], [0], [0]),
    lambda: f2.space_from_gram([[2, 2], [0, 2]]),
    lambda: groups.PermGroup([], 0),
    lambda: groups.PermGroup([[1, 1, 2]], 3),
    lambda: groups.PermGroup([], "3"),
    lambda: groups.PermGroup([], 2.9),
    lambda: groups.PermGroup([], True),
    lambda: groups.PermGroup([], -1),
    lambda: groups.PermGroup([], None),
    lambda: groups.PermGroup([], 2**70),    # not tuple(range(2**70))'s OverflowError
    lambda: groups.PermGroup([], 1025),     # above A10's 1,024 points, the largest chain
    lambda: intlinalg._kernel_basis((0, 0, 0)),
    lambda: intlinalg._hermite_normal_form([[1], [3, 4]]),
    lambda: intlinalg._hermite_normal_form([[1, 2], [3]]),
    lambda: intlinalg._kernel_basis((1.5, -1)),
    lambda: intlinalg._kernel_basis(("1", "2")),
    lambda: intlinalg._hermite_normal_form([[True, 0]]),
    lambda: intlinalg._abs_det([[1, 2]]),
    lambda: lattice.build_del_pezzo(5.0),
    lambda: lattice.build_del_pezzo("5"),
    lambda: lattice.build_del_pezzo(True),
    lambda: lattice.build_plain_root_lattice(5.0),
    lambda: lattice.build_plain_root_lattice("5"),
    lambda: lattice.build_plain_root_lattice(True),
    lambda: bridge.verify_remarks(5.0),
    lambda: bridge.verify_remarks(3.0),
    lambda: bridge.verify_remarks(True),
    lambda: bridge.verify_remarks(4),
    lambda: bridge.verify_prop1(lattice.build_plain_root_lattice(5)),
    lambda: bridge.verify_prop2(lattice.build_del_pezzo(3)),
    lambda: bridge.verify_corollary(lattice.build_del_pezzo(3)),
    lambda: bridge.reduce_root(lattice.build_del_pezzo(4), (1, 0, 0, 0, 0)),
    lambda: lattice.root_reflection(lattice.build_del_pezzo(4), (1, 0, 0, 0, 0)),
    lambda: lattice.build_del_pezzo(3).dot((1,), (1,)),
    lambda: lattice.build_del_pezzo(9),
    lambda: lattice.build_plain_root_lattice(11),
    lambda: f2.reduce(lattice.build_del_pezzo(4)).q(1),
    lambda: f2.f2_reflection(f2.reduce(lattice.build_del_pezzo(4)), 0b11),
    lambda: groups.PermGroup([(1, 0, 2)], 3).contains([1, 0]),
    lambda: bridge.reduce_root(lattice.build_del_pezzo(4), None),
    lambda: bridge.reduce_root(lattice.build_del_pezzo(4), 5),
    lambda: lattice.root_reflection(lattice.build_del_pezzo(4), None),
    lambda: lattice.build_del_pezzo(4).dot(None, lattice.build_del_pezzo(4).K),
    lambda: lattice.build_del_pezzo(4).dot(5, lattice.build_del_pezzo(4).K),
], ids=["f2-gram2", "f2-dependent-basis", "f2-mask-beyond-width",
        "f2-negative-mask", "f2-zero-mask", "f2-negative-width",
        "f2-short-qdiag", "f2-long-qdiag", "f2-float-width", "f2-float-mask",
        "f2-bool-qdiag", "f2-float-gram2", "f2-odd-gram", "f2-ragged-gram",
        "f2-float-gram", "f2-str-gram", "f2-gram-not-rows",
        "f2-gram2-row-not-sequence", "f2-asymmetric-gram",
        "groups-degree", "groups-not-a-permutation", "groups-str-degree",
        "groups-float-degree", "groups-bool-degree", "groups-negative-degree",
        "groups-None-degree", "groups-huge-degree", "groups-degree-1025",
        "intlinalg-zero-functional", "intlinalg-long-row",
        "intlinalg-short-row", "intlinalg-float-coeff", "intlinalg-str-coeff",
        "intlinalg-bool-entry", "intlinalg-det-not-square",
        "lattice-float-n", "lattice-str-n", "lattice-bool-n",
        "lattice-float-rank", "lattice-str-rank", "lattice-bool-rank",
        "bridge-float-remark-rank", "bridge-float-remark1-rank",
        "bridge-bool-remark-rank", "bridge-remark-rank-4", "bridge-prop1-plain",
        "bridge-prop2-dp3", "bridge-corollary-dp3", "bridge-reduce-non-root",
        "lattice-reflect-non-root", "lattice-dot-short", "lattice-dp9",
        "lattice-a11", "f2-q-outside-space", "f2-reflection-q0",
        "groups-contains-wrong-degree",
        "bridge-reduce-none", "bridge-reduce-int", "lattice-reflect-none",
        "lattice-dot-none", "lattice-dot-int"])
def test_bad_input_is_a_typed_error(bad_call):
    """Rejected input raises a package error that is still a ValueError."""
    with pytest.raises(errors.BadInput) as info:
        bad_call()
    assert isinstance(info.value, errors.Error)
    assert isinstance(info.value, ValueError)


_README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


@pytest.mark.parametrize("module, name", [
    (f2, "apply"), (f2, "compose"), (groups, "bit_indices"),
    (intlinalg, "hermite_normal_form"), (intlinalg, "kernel_basis"),
    (intlinalg, "abs_det"),
], ids=lambda x: x if isinstance(x, str) else x.__name__.split(".")[-1])
def test_unchecked_helpers_are_private(module, name):
    """These helpers do not type-check their arguments (None or a float
    gives a bare TypeError), so they are private: no public name, and the
    README documents none of them."""
    assert not hasattr(module, name)
    assert callable(getattr(module, "_" + name))
    assert f"`{name}" not in _README and f".{name}" not in _README
