"""Lattice constructions: brute-force scans are the oracles for enumeration."""

import hashlib
import itertools
import random
from functools import lru_cache

import pytest

from dpmod2 import errors, f2, groups, lattice
from dpmod2.lattice import (automorphism_chain, automorphism_group,
                            automorphism_order, build_del_pezzo,
                            build_plain_root_lattice, component_isometries,
                            enumerate_roots, is_root, lattice_coords,
                            minus_one, root_components, root_reflection,
                            simple_roots, weyl_generators)
from oracles import closure, det_fraction

WEYL_ORDERS = {3: 12, 4: 120, 5: 1920, 6: 51840, 7: 2903040, 8: 696729600}
AUT_ORDERS = {3: 24, 4: 240, 5: 3840, 6: 103680, 7: 2903040, 8: 696729600}
ROOTS = {3: 8, 4: 20, 5: 40, 6: 72, 7: 126, 8: 240}


def _root_group(perms, roots):
    return groups.PermGroup(perms, len(roots))


def _pointwise(L, image):
    """Reference root permutation: the index of image(r) for each root r,
    computed on ambient tuples one root at a time."""
    R = enumerate_roots(L)
    index = {r: i for i, r in enumerate(R)}
    return [index[image(r)] for r in R]


def _reflection_reference(L, alpha):
    return _pointwise(L, lambda r: tuple(
        x - L.dot(r, alpha) * a for x, a in zip(r, alpha)))


def _negation_reference(L):
    return _pointwise(L, lambda r: tuple(-x for x in r))


@lru_cache(maxsize=None)
def _pairing_table(L):
    """The full N x N table of root pairings, built here from the ambient form."""
    R = enumerate_roots(L)
    return [[L.dot(a, b) for b in R] for a in R]


def _preserves_all_pairings(L, p):
    """p is a permutation of the roots keeping every pairing: the root
    action of an isometry (the roots span L)."""
    table = _pairing_table(L)
    return (sorted(p) == list(range(len(table)))
            and all([table[p[i]][q] for q in p] == row for i, row in enumerate(table)))


def test_dot_examples():
    """The del Pezzo model's form is Lorentzian: E0^2 = -1, Ei^2 = 1."""
    L = build_del_pezzo(3)
    e0 = (1, 0, 0, 0)
    e1 = (0, 1, 0, 0)
    e2 = (0, 0, 1, 0)
    assert L.dot(e0, e0) == -1
    assert L.dot(e1, e1) == 1
    assert L.dot(e1, e2) == 0
    L8 = build_del_pezzo(8)
    assert L8.dot(L8.K, L8.K) == -1  # -9 + n at n = 8
    with pytest.raises(errors.LengthMismatch):
        L.dot((1, 0), (1, 0, 0, 0))


@pytest.mark.parametrize("n", range(3, 9))
def test_del_pezzo_invariants(n):
    L = build_del_pezzo(n)
    assert len(L.basis) == n
    assert all(L.dot(b, L.K) == 0 for b in L.basis)
    assert all(L.gram[i][i] % 2 == 0 for i in range(n))
    assert abs(det_fraction(L.gram)) == 9 - n
    # Sylvester's criterion: every leading principal minor is positive
    assert all(det_fraction([row[:k] for row in L.gram[:k]]) > 0
               for k in range(1, n + 1))
    # deterministic construction
    assert L == build_del_pezzo(n)
    # an immutable value: equal fields give an equal lattice with its hash
    same = lattice.Lattice(L.kind, L.n, L.signs, L.K, L.basis, L.gram, L.root_type)
    assert same == L and hash(same) == hash(L)
    with pytest.raises(AttributeError):
        L.n = 0


@pytest.mark.parametrize("n", (2, 9))
def test_del_pezzo_out_of_range(n):
    with pytest.raises(errors.OutOfRange):
        build_del_pezzo(n)


@pytest.mark.parametrize("rank", (1, 11))
def test_plain_out_of_range(rank):
    with pytest.raises(errors.OutOfRange):
        build_plain_root_lattice(rank)


@pytest.mark.parametrize("n", range(3, 9))
def test_root_counts(n):
    L = build_del_pezzo(n)
    R = enumerate_roots(L)
    assert len(R) == ROOTS[n]
    assert all(L.dot(v, v) == 2 and L.dot(v, L.K) == 0 for v in R)
    negs = {tuple(-c for c in v) for v in R}
    assert negs == set(R)
    assert list(R) == sorted(R)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_roots_against_full_box_scan(n):
    """Independent oracle: scan the whole coordinate box with itertools."""
    L = build_del_pezzo(n)
    box = range(-2, 3)  # |v0| <= 1 for n <= 5, other coords bounded by sqrt(3)
    brute = sorted(v for v in itertools.product(box, repeat=n + 1)
                   if L.dot(v, v) == 2 and L.dot(v, L.K) == 0)
    assert list(enumerate_roots(L)) == brute


def test_plain_root_counts():
    assert len(enumerate_roots(build_plain_root_lattice(2))) == 6
    assert len(enumerate_roots(build_plain_root_lattice(8))) == 72
    for rank in range(2, 11):
        L = build_plain_root_lattice(rank)
        assert len(enumerate_roots(L)) == rank * (rank + 1)
        assert abs(det_fraction(L.gram)) == rank + 1


def test_plain_rank4_matches_del_pezzo_n4():
    """A4 is the n=4 del Pezzo type: same root count and censuses."""
    from dpmod2 import f2
    A4 = build_plain_root_lattice(4)
    D4 = build_del_pezzo(4)
    assert len(enumerate_roots(A4)) == len(enumerate_roots(D4)) == 20
    assert f2.value_census(f2.reduce(A4)) == f2.value_census(f2.reduce(D4))
    assert automorphism_order(A4) == automorphism_order(D4) == 240


@pytest.mark.parametrize("n", range(3, 9))
def test_root_reflection_properties(n):
    L = build_del_pezzo(n)
    R = enumerate_roots(L)
    random.seed(n)
    for alpha in random.sample(R, 5):
        s = root_reflection(L, alpha)
        a = R.index(alpha)
        assert list(s) == _reflection_reference(L, alpha)
        assert s[a] == R.index(tuple(-c for c in alpha))
        assert [s[i] for i in s] == list(range(len(R)))
        # fixes the orthogonal hyperplane
        for i, x in enumerate(R):
            if L.dot(x, alpha) == 0:
                assert s[i] == i


def test_root_reflection_rejects_non_roots():
    L = build_del_pezzo(4)
    with pytest.raises(errors.NotARoot):
        root_reflection(L, (1, 0, 0, 0, 0))


@pytest.mark.parametrize("n", range(3, 9))
def test_simple_roots_shape(n):
    L = build_del_pezzo(n)
    simple = simple_roots(L)
    assert len(simple) == n
    # pairwise products of distinct simple roots are 0 or -1 (simply laced)
    for i, a in enumerate(simple):
        for b in simple[i + 1:]:
            assert L.dot(a, b) in (0, -1)


@pytest.mark.parametrize("n", range(3, 9))
def test_weyl_generator_count_and_order(n):
    L = build_del_pezzo(n)
    gens = weyl_generators(L)
    assert len(gens) == n
    G = _root_group(gens, enumerate_roots(L))
    assert G.degree == ROOTS[n]
    assert G.order() == WEYL_ORDERS[n]


@pytest.mark.parametrize("n", (3, 4, 5))
def test_weyl_equals_all_root_reflections(n):
    L = build_del_pezzo(n)
    R = enumerate_roots(L)
    simple_group = _root_group(weyl_generators(L), R)
    all_refl = [root_reflection(L, a) for a in R]
    full_group = _root_group(all_refl, R)
    assert simple_group.order() == full_group.order()


@pytest.mark.parametrize("n", range(3, 9))
def test_minus_one_in_weyl_iff_7_or_8(n):
    L = build_del_pezzo(n)
    G = _root_group(weyl_generators(L), enumerate_roots(L))
    neg = _negation_reference(L)
    assert list(lattice.minus_one(L)) == neg
    assert G.contains(neg) == (n in (7, 8))


@pytest.mark.parametrize("n", range(3, 9))
def test_automorphism_group_orders(n):
    L = build_del_pezzo(n)
    gens = automorphism_group(L)
    assert list(gens[0]) == _negation_reference(L)
    G = _root_group(gens, enumerate_roots(L))
    # chain order equals the independent backtracking count
    assert G.order() == automorphism_order(L) == AUT_ORDERS[n]
    # the pruning chain is generated by exactly the kept permutations, in order
    chain = automorphism_chain(L)
    assert chain.order() == AUT_ORDERS[n]
    assert chain.generators == list(gens)
    assert all(_preserves_all_pairings(L, u) for u in gens)


def test_chain_order_mismatch_raises(monkeypatch):
    """The chain-vs-backtracking cross-check is a raise, not an assert."""
    L = build_del_pezzo(4)
    order, solutions = lattice._aut_search(L)
    monkeypatch.setattr(lattice, "_aut_search", lambda L: (order + 1, solutions))
    automorphism_chain.cache_clear()
    try:
        with pytest.raises(errors.CrossCheckFailed):
            automorphism_chain(L)
    finally:
        automorphism_chain.cache_clear()


@pytest.mark.parametrize("L, count, digest", [
    (build_del_pezzo(8), 418,
     "bbc7e68e8c97d9b1a89fefa93c0ee9c4bde9ec2db41d7f39258e321cf68ca891"),
    (build_plain_root_lattice(10), 164,
     "89c20ce9a368a23a600ed1283464afac01b8c480284eebb8d5386aab274b6d85"),
], ids=["E8", "A10"])
def test_aut_search_solutions_pinned(L, count, digest):
    """The backtracking's solutions, in order, feed the O(L) chain: pinned."""
    solutions = lattice._aut_search(L)[1]
    assert len(solutions) == count
    assert hashlib.sha256(repr(solutions).encode()).hexdigest() == digest


def test_root_permutation_not_closed():
    """A linear map sending the simple roots to roots is refused when a root
    image is no root: a map sending every simple root to the same root, or
    one swapping two simple roots."""
    L = build_del_pezzo(4)
    simple = lattice._simple_indices(L)
    assert list(lattice._solution_perms(L, [simple])) == [tuple(range(20))]
    s0, s1, *rest = simple
    for images in [(s0,) * L.n, (s1, s0, *rest)]:
        with pytest.raises(errors.NotClosed):
            list(lattice._solution_perms(L, [images]))


@pytest.mark.parametrize("n", range(3, 9))
def test_generators_preserve_gram_and_permute_roots(n):
    L = build_del_pezzo(n)
    for g in weyl_generators(L) + automorphism_group(L):
        assert _preserves_all_pairings(L, g)
    for g, alpha in zip(weyl_generators(L), simple_roots(L), strict=True):
        assert list(g) == _reflection_reference(L, alpha)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_root_action_is_faithful(n):
    """The kept root permutations generate AUT_ORDERS[n] distinct ones, the
    independent count of O(L), so only the identity fixes every root
    (exhaustive closure)."""
    L = build_del_pezzo(n)
    gens = list(automorphism_group(L))
    ident = tuple(range(len(enumerate_roots(L))))
    elems = closure(gens, lambda a, b: tuple(a[i] for i in b), ident)
    assert len(elems) == AUT_ORDERS[n]
    assert all(_preserves_all_pairings(L, list(u)) for u in elems)


def test_lattice_coords_roundtrip():
    L = build_del_pezzo(6)
    random.seed(4)
    for _ in range(20):
        x = tuple(random.randint(-3, 3) for _ in range(L.n))
        v = tuple(sum(xi * b[j] for xi, b in zip(x, L.basis))
                  for j in range(L.width))
        assert lattice_coords(L, v) == x
    with pytest.raises(ValueError):
        lattice_coords(L, (1, 0, 0, 0, 0, 0, 0))  # not orthogonal to K
    # the width is checked, as Lattice.dot does: no IndexError, and no
    # truncation or zero padding by zip
    for v in ((1, 2), (0,) * 8):
        with pytest.raises(errors.LengthMismatch):
            lattice_coords(L, v)


@pytest.mark.parametrize("L", [build_del_pezzo(n) for n in range(3, 9)]
                         + [build_plain_root_lattice(r) for r in range(2, 11)],
                         ids=lambda L: f"{L.kind}-{L.root_type}")
def test_basis_on_simple_recombines_the_basis(L):
    """Row i holds the simple-root coefficients of basis vector i."""
    simple = simple_roots(L)
    for row, b in zip(lattice._basis_on_simple(L), L.basis, strict=True):
        assert tuple(sum(c * s[j] for c, s in zip(row, simple, strict=True))
                     for j in range(L.width)) == b


@pytest.mark.parametrize("L", [build_plain_root_lattice(2), build_del_pezzo(8)],
                         ids=lambda L: L.root_type)
def test_basis_on_simple_rejects_a_sublattice(L, monkeypatch):
    """Simple roots spanning an index-2 sublattice fail the HNF check."""
    *rest, last = simple_roots(L)
    doubled = tuple(a + 2 * b for a, b in zip(rest[0], last))
    monkeypatch.setattr(lattice, "simple_roots", lambda L: (*rest, doubled))
    with pytest.raises(errors.CrossCheckFailed, match="do not span"):
        lattice._basis_on_simple.__wrapped__(L)


def test_root_components_and_component_isometries():
    """On each dP3 component, the root search counts the group generated by
    the component's root reflections and -1, restricted to its roots (O(A1)
    and O(A2) = W(A2) x {+-1}); its Gram matrices reduce to O(L2) factors
    of orders 1 and 6."""
    L = build_del_pezzo(3)
    roots = enumerate_roots(L)
    comps = root_components(L)
    assert tuple(len(c) for c in comps) == (2, 6)
    orders, f2_orders = [], []
    for c in comps:
        points = [roots.index(r) for r in c]
        local = {p: i for i, p in enumerate(points)}
        gens = [tuple(local[g[p]] for p in points)
                for g in [minus_one(L)] + [root_reflection(L, r) for r in c]]
        group = closure(gens, groups.gather, tuple(range(len(c))))
        order, gram = component_isometries(L, c)
        assert order == len(group)
        orders.append(order)
        f2_orders.append(f2.isometry_order(f2.space_from_gram(gram)))
    assert orders == [2, 12]
    assert f2_orders == [1, 6]
    with pytest.raises(errors.BadInput, match="not a root component"):
        component_isometries(L, comps[1][:3])


def test_build_checks_the_discriminant():
    """Construction invariants raise, so python -O cannot strip them."""
    signs = (-1,) + (1,) * 4
    K = (3,) + (-1,) * 4
    assert lattice._build("delpezzo", 4, signs, K, 5, "A4").n == 4
    with pytest.raises(errors.CrossCheckFailed):
        lattice._build("delpezzo", 4, signs, K, 6, "A4")


def test_plain_automorphism_orders():
    import math
    for rank in (5, 8):
        L = build_plain_root_lattice(rank)
        assert automorphism_order(L) == 2 * math.factorial(rank + 1)


def test_is_root_type_checks():
    L = build_del_pezzo(3)
    assert not is_root(L, (0, 1, -1))          # wrong width
    assert not is_root(L, (0, 1, -1, 0.0))     # non-integer entry
    assert is_root(L, (0, 1, -1, 0))
