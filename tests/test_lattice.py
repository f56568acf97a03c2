"""Lattice constructions: brute-force scans are the oracles for enumeration."""

import gc
import hashlib
import itertools
import pickle
import random
from copy import deepcopy
from functools import lru_cache
from math import factorial, prod

import pytest

from dpmod2 import bridge, errors, f2, groups, lattice
from dpmod2.lattice import (automorphism_chain, automorphism_group,
                            automorphism_order, build_del_pezzo,
                            build_plain_root_lattice, component_isometries,
                            enumerate_roots, is_root,
                            minus_one, root_components, root_reflection,
                            simple_roots, weyl_generators)
from oracles import (check_isometry_pairings, closure, det_fraction,
                     root_pairings_by_heights, root_reflection_by_dots, searches)

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
    with pytest.raises(errors.BadInput):
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
    with pytest.raises(errors.BadInput):
        build_del_pezzo(n)


@pytest.mark.parametrize("rank", (1, 11))
def test_plain_out_of_range(rank):
    with pytest.raises(errors.BadInput):
        build_plain_root_lattice(rank)


@pytest.mark.parametrize("build", [build_del_pezzo, build_plain_root_lattice])
@pytest.mark.parametrize("junk", [[], {1: 2}, {4}, bytearray(b"4")],
                         ids=["list", "dict", "set", "bytearray"])
def test_builders_refuse_unhashable_ranks(build, junk):
    """An unhashable rank is BadInput, as for any rank that is not an int,
    not a TypeError.  Each call builds a new lattice, equal to the last."""
    with pytest.raises(errors.BadInput, match="must be an int"):
        build(junk)
    assert build(5) == build(5) and build(5) is not build(5)


@pytest.mark.parametrize("build, n", [(build_del_pezzo, 3), (build_del_pezzo, 8),
                                      (build_plain_root_lattice, 10)])
def test_a_used_lattice_copies_its_fields_alone(build, n):
    """A lattice keeps its derived values, search rows and closures among
    them, in its __dict__; a pickle or a deep copy takes the fields alone,
    an equal lattice with nothing kept."""
    L = build(n)
    if L.kind == "delpezzo":
        bridge.verify_lemma(L), bridge.verify_prop1(L)
    else:
        automorphism_group(L), f2.isometry_order(f2.reduce(L))
    assert "dpmod2.lattice._root_pairings" in vars(L)
    for copy in (pickle.loads(pickle.dumps(L)), deepcopy(L)):
        assert copy == L and copy is not L and vars(copy) == {}
        assert type(copy) is lattice.Lattice


@pytest.mark.parametrize("fn", [enumerate_roots, weyl_generators, automorphism_group,
                                f2.reduce, f2.arf, f2.isometry_order, f2.split_radical],
                         ids=lambda fn: fn.__name__)
def test_memoized_functions_refuse_a_non_lattice(fn):
    """A memoized function reads its argument's __dict__, so one without it,
    such as None, raises AttributeError, not vars()'s TypeError."""
    with pytest.raises(AttributeError):
        fn(None)


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
    with pytest.raises(errors.BadInput):
        root_reflection(L, (1, 0, 0, 0, 0))


_ALL_LATTICES = ([build_del_pezzo(n) for n in range(3, 9)]
                 + [build_plain_root_lattice(r) for r in range(2, 11)])


@pytest.mark.parametrize("L", _ALL_LATTICES, ids=lambda L: L.root_type)
def test_root_steps_match_the_scans(L):
    """The pairing rows added up along _root_steps, each read through the
    lazy mapping, are those of one height scan per root, and the reflection
    in every root, the root map of the simple roots' images, is the one of
    one pairing per root."""
    rows, simple, gram = lattice._root_pairings(L)
    scanned, *rest = root_pairings_by_heights(L)
    assert [rows[a] for a in range(len(enumerate_roots(L)))] == scanned
    assert [simple, gram] == rest
    for alpha in enumerate_roots(L):
        assert root_reflection(L, alpha) == root_reflection_by_dots(L, alpha)


@pytest.mark.parametrize("L", [build_del_pezzo(8), build_plain_root_lattice(10)],
                         ids=lambda L: L.root_type)
def test_pairing_rows_are_freed_without_the_collector(L):
    """A LazyRows hands itself to its builder, so rows built from other rows
    hold no reference cycle: dropped, they are freed at once, and a lattice
    that lets go of its rows releases them without waiting for the cyclic
    garbage collector."""
    lattice._root_pairings(L)       # keep on L what the rows are built from
    gc.collect()
    gc.disable()
    try:
        rows = lattice._root_pairings.__wrapped__(L)[0]
        assert [rows[a] for a in range(len(enumerate_roots(L)))]
        del rows
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("L", _ALL_LATTICES, ids=lambda L: L.root_type)
def test_root_enumeration_leaves_no_cycle(L):
    """Enumerating the roots leaves no reference cycle, so nothing it built
    waits for the cyclic garbage collector."""
    gc.collect()
    gc.disable()
    try:
        assert lattice.enumerate_roots.__wrapped__(L) == enumerate_roots(L)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("L", [build_del_pezzo(8), build_plain_root_lattice(2)],
                         ids=lambda L: L.root_type)
@pytest.mark.parametrize("corrupt", ["drop", "flip"])
def test_root_pairings_refuse_a_corrupted_simple_row(L, corrupt, monkeypatch):
    """The first step r = a + b reads the scanned row of b.  Dropping r from
    the roots pairing to 1 with b leaves no root pairing to 2 with r;
    moving a from -1 to 1 with b (and so from 1 to -1 with -b) makes
    <r, a> read 3.  Either raises CrossCheckFailed on the first read of
    r's row."""
    r, a, b = lattice._root_steps(L)[0]
    neg_b = minus_one(L)[b]
    ones = lattice._pairing_ones

    def corrupted(heights, index, c):
        row = ones(heights, index, c)
        if corrupt == "drop":
            return row & ~(1 << r) if c == b else row
        return row ^ (1 << a) if c in (b, neg_b) else row

    monkeypatch.setattr(lattice, "_pairing_ones", corrupted)
    rows = lattice._root_pairings.__wrapped__(L)[0]
    with pytest.raises(errors.CrossCheckFailed, match="not a root's"):
        rows[r]


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


@pytest.mark.parametrize("n", [*range(3, 9), *(f"A{r}" for r in range(2, 11))])
def test_automorphism_group_orders(n):
    """O(L) is generated by the simple reflections, then -1 unless it is in
    W (dP7 and dP8 only): on dP3..dP8 and A2..A10, the chain's generators
    are exactly these, and its order is the backtracking count."""
    if isinstance(n, int):
        L, weyl_order, order = build_del_pezzo(n), WEYL_ORDERS[n], AUT_ORDERS[n]
    else:
        L = build_plain_root_lattice(int(n[1:]))
        weyl_order = factorial(L.n + 1)
        order = 2 * weyl_order
    in_weyl = n in (7, 8)
    gens = automorphism_group(L)
    assert gens == weyl_generators(L) + (() if in_weyl else (minus_one(L),))
    assert list(minus_one(L)) == _negation_reference(L)
    G = _root_group(gens, enumerate_roots(L))
    # chain order equals the independent backtracking count
    assert G.order() == automorphism_order(L) == order
    # the chain is generated by exactly these permutations, in order
    chain, weyl, minus1 = automorphism_chain(L)
    assert chain.order() == order
    assert chain.generators == list(gens)
    assert (weyl, minus1) == (weyl_order, in_weyl)
    assert all(_preserves_all_pairings(L, u) for u in gens)


def test_a_search_that_undercounts_below_w_raises(monkeypatch):
    """The O(L) chain holds W whatever the search counts: a search that
    counts 2, as if O(L) were {+-1}, raises on a new A4, as W and -1 give a
    chain of order 240."""
    monkeypatch.setattr(lattice, "automorphism_order", lambda L: 2)
    with pytest.raises(errors.CrossCheckFailed, match="backtracking count 2"):
        automorphism_group(build_plain_root_lattice(4))


@pytest.mark.parametrize("name, value, match", [
    ("minus_one", lambda L: tuple(range(20)), "backtracking count 240"),
    ("exponents", lambda L: (1, 59), "A4: -1 in W is False"),
], ids=["identity-for-minus-one", "odd-exponents"])
def test_minus_one_in_weyl_is_cross_checked(monkeypatch, name, value, match):
    """-1 is in W exactly when every exponent is odd.  With the identity in
    place of -1, A4's chain is W alone, of order 120, which the backtracking
    count refuses first; with exponents 1 and 59, whose prod(m + 1) is still
    |W| = 120, the chain's -1 outside W contradicts their parity."""
    monkeypatch.setattr(lattice, name, value)
    with pytest.raises(errors.CrossCheckFailed, match=match):
        automorphism_group(build_plain_root_lattice(4))


def test_chain_order_mismatch_raises(monkeypatch):
    """The chain-vs-backtracking cross-check is a raise, not an assert."""
    L = build_del_pezzo(4)
    order = automorphism_order(L)
    monkeypatch.setattr(lattice, "automorphism_order", lambda L: order + 1)
    with pytest.raises(errors.CrossCheckFailed):
        automorphism_group(L)


@pytest.mark.parametrize("L, count, digest", [
    (build_del_pezzo(8), 8,
     "43c10c5bd9190135850b6224c732c9c280b98cd8b15e2ba4ffbf4a773e5e6ba2"),
    (build_plain_root_lattice(10), 10,
     "f57733ef22205a61e9b1b5d2577c870c06883f16f6326ca83e22ffbda7eafd9b"),
], ids=["E8", "A10"])
def test_aut_search_solutions_pinned(L, count, digest):
    """The backtracking's solutions, by level and in order, pinned: they
    prune the search, and the O(L) chain does not read them.  count is the
    elements the pruned search finds (418 on E8 and 164 on A10 without
    pruning), so a search that stops pruning fails here."""
    (_, solutions), = searches(lambda: automorphism_order.__wrapped__(L))
    assert sum(map(len, solutions)) == count
    assert hashlib.sha256(repr(solutions).encode()).hexdigest() == digest


def test_root_permutation_not_closed():
    """A linear map sending the simple roots to roots is refused when a root
    image is no root: a map sending every simple root to the same root, or
    one swapping two simple roots."""
    L = build_del_pezzo(4)
    simple = lattice._simple_indices(L)
    assert lattice._root_map(L, simple) == tuple(range(20))
    s0, s1, *rest = simple
    for images in [(s0,) * L.n, (s1, s0, *rest)]:
        with pytest.raises(errors.NotIsometry):
            lattice._root_map(L, images)


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
    """Basis coordinates x give the same vector on the basis as x times
    _basis_on_simple(L) gives on the simple roots."""
    L = build_del_pezzo(6)
    simple, on_simple = simple_roots(L), lattice._basis_on_simple(L)
    random.seed(4)
    for _ in range(20):
        x = tuple(random.randint(-3, 3) for _ in range(L.n))
        y = [sum(xi * row[t] for xi, row in zip(x, on_simple)) for t in range(L.n)]
        assert (tuple(sum(xi * b[j] for xi, b in zip(x, L.basis)) for j in range(L.width))
                == tuple(sum(yt * s[j] for yt, s in zip(y, simple)) for j in range(L.width)))


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
        assert component_isometries(L, iter(c)) == (order, gram)
        orders.append(order)
        f2_orders.append(f2.isometry_order(f2.space_from_gram(gram)))
    assert orders == [2, 12]
    assert f2_orders == [1, 6]
    for bad in (comps[1][:3], None):
        with pytest.raises(errors.BadInput, match="not a root component"):
            component_isometries(L, bad)


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
    # bools are not ints here, as in intlinalg._hermite_normal_form
    assert not is_root(L, (False, True, -1, False))
    assert not is_root(L, None) and not is_root(L, 5)
    assert is_root(L, iter((0, 1, -1, 0)))
    with pytest.raises(errors.BadInput):
        root_reflection(L, (False, True, -1, False))


_CHECK_LATTICES = ([build_del_pezzo(n) for n in range(3, 9)]
                   + [build_plain_root_lattice(r) for r in (5, 10)])


@pytest.mark.parametrize("L", _CHECK_LATTICES, ids=lambda L: L.root_type)
def test_check_isometry_matches_pairing_oracle(L):
    """The stepwise check and the check of every pairing of the simple roots
    both accept -1, the Weyl reflections, every O(L) generator and every
    product of two of those generators."""
    gens = list(automorphism_group(L))
    for p in ([minus_one(L)] + list(weyl_generators(L)) + gens
              + [groups.gather(u, v) for u in gens for v in gens]):
        lattice.check_isometry(L, p)
        check_isometry_pairings(L, p)


def _swapped(p, i, j):
    p = list(p)
    p[i], p[j] = p[j], p[i]
    return p


@pytest.mark.parametrize("L", _CHECK_LATTICES, ids=lambda L: L.root_type)
def test_check_isometry_refuses_mutants(L):
    """Both checks refuse permutations near an isometry g: g with two
    entries swapped; g wrong only off the simple roots; and g with
    p[-s] != -p[s] for a simple root s."""
    simple = lattice._simple_indices(L)
    neg = minus_one(L)
    g = automorphism_group(L)[-1]
    off = [r for r in range(len(g)) if r not in simple]
    near = [_swapped(g, off[0], off[1]), _swapped(g, neg[simple[0]], neg[simple[1]])]
    assert all([p[s] for s in simple] == [g[s] for s in simple] for p in near)
    for p in [_swapped(g, 0, 1)] + near:
        for check in (lattice.check_isometry, check_isometry_pairings):
            with pytest.raises(errors.NotIsometry):
                check(L, p)


@pytest.mark.parametrize("n, order", [(4, 2), (5, 2), (6, 2), (7, 1), (8, 1)])
def test_diagram_automorphisms(n, order):
    """The root search over the simple roots alone counts the isometries
    that keep them, the Dynkin diagram's symmetries, as does the chain
    builder's own count of the permutations of the simple roots that keep
    their Gram matrix; with W it gives |O(L)| = |W| |Gamma|."""
    L = build_del_pezzo(n)
    mask = sum(1 << s for s in lattice._simple_indices(L))
    assert lattice._root_search(L, mask)[0] == lattice._diagram_automorphisms(L) == order
    assert WEYL_ORDERS[n] * order == AUT_ORDERS[n]


# the exponents of each root system (Bourbaki, Lie groups, ch. VI, plates)
EXPONENTS = {"A1xA2": (1, 1, 2), "D5": (1, 3, 4, 5, 7),
             "E6": (1, 4, 5, 7, 8, 11), "E7": (1, 5, 7, 9, 11, 13, 17),
             "E8": (1, 7, 11, 13, 17, 19, 23, 29),
             **{f"A{r}": tuple(range(1, r + 1)) for r in range(2, 11)}}


@pytest.mark.parametrize("L", [build_del_pezzo(n) for n in range(3, 9)]
                         + [build_plain_root_lattice(r) for r in range(2, 11)],
                         ids=lambda L: L.root_type)
def test_exponents_from_the_root_heights(L):
    """The heights along _root_steps give the textbook exponents, whose
    (m_i + 1) multiply to the Weyl chain's order."""
    exps = lattice.exponents(L)
    assert exps == EXPONENTS[L.root_type]
    assert len(exps) == L.n
    assert prod(m + 1 for m in exps) == _root_group(
        weyl_generators(L), enumerate_roots(L)).order()
