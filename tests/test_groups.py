"""Stabilizer-chain engine: brute-force closure is the independent oracle."""

import gc
import hashlib
import math
import random
import weakref
from array import array
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmod2 import bridge, errors, f2, groups, lattice
from dpmod2.groups import PermGroup, _bit_indices
from dpmod2.lattice import build_del_pezzo, build_plain_root_lattice
from oracles import (closure, completions_eager, f2_chain_of_permutations,
                     orbit_search_unpruned, searches)


def _tuple_mult(a, b):
    return tuple(a[i] for i in b)


def _closure_order(gens, degree):
    return len(closure([tuple(g) for g in gens], _tuple_mult,
                       tuple(range(degree))))


def test_symmetric_group_orders():
    for k in (3, 4, 5, 6, 7):
        t = [1, 0] + list(range(2, k))
        c = list(range(1, k)) + [0]
        assert PermGroup([t, c], k).order() == math.factorial(k)


def test_random_groups_against_bfs_closure():
    random.seed(42)
    for _ in range(60):
        k = random.choice([4, 5, 6, 7])
        gens = [random.sample(range(k), k)
                for _ in range(random.choice([1, 2, 3]))]
        assert PermGroup(gens, k).order() == _closure_order(gens, k)


def test_order_invariant_under_generator_shuffles():
    random.seed(9)
    gens = [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0], [0, 2, 1, 3, 5, 4]]
    ref = PermGroup(gens, 6).order()
    assert PermGroup(gens[::-1], 6).order() == ref
    for _ in range(8):
        shuffled = gens[:]
        random.shuffle(shuffled)
        assert PermGroup(shuffled, 6).order() == ref


def test_trivial_group():
    G = PermGroup([range(5)], 5)
    assert G.order() == 1
    assert G.contains(range(5))
    assert not G.contains([1, 0, 2, 3, 4])


def test_contains_products_of_generators():
    random.seed(17)
    gens = [(1, 2, 0, 4, 3, 5, 6), (0, 1, 3, 2, 5, 6, 4)]
    G = PermGroup(gens, 7)
    for _ in range(25):
        word = [random.choice(gens) for _ in range(random.randint(1, 3))]
        g = tuple(range(7))
        for w in word:
            g = _tuple_mult(w, g)
        assert G.contains(g)


def test_contains_rejects_non_members():
    # even permutations only: A4 from two 3-cycles
    gens = [[1, 2, 0, 3], [0, 2, 3, 1]]
    G = PermGroup(gens, 4)
    assert G.order() == 12
    transposition = [1, 0, 2, 3]
    assert not G.contains(transposition)


def test_order_divides_degree_factorial():
    random.seed(23)
    for _ in range(10):
        k = random.choice([5, 6, 8])
        gens = [random.sample(range(k), k) for _ in range(2)]
        assert math.factorial(k) % PermGroup(gens, k).order() == 0


def test_degree_mismatch():
    G = PermGroup([[1, 0, 2]], 3)
    with pytest.raises(errors.BadInput):
        G.contains([1, 0])


def test_rejects_non_permutations():
    with pytest.raises(ValueError):
        PermGroup([[1, 1, 2]], 3)
    with pytest.raises(errors.BadInput, match="generators must be iterable"):
        PermGroup(None, 3)


@pytest.mark.parametrize("bad", [
    [1.7, 0.2, 2.9],            # an int32 cast would truncate it to (0 1)
    [1.0, 0.0, 2.0],
    ["1", "0", "2"],
    [True, False, True],
    [2**40, 0, 1],              # an int32 cast would overflow
    [2**70, 0, 1],
    [-1, 0, 1],
    [3, 0, 1],
    [None, 0, 1],
    None,
    5,
], ids=["fractional", "float", "str", "bool", "2**40", "2**70", "negative",
        "degree", "None", "not-iterable", "int"])
def test_rejects_malformed_entries(bad):
    with pytest.raises(errors.BadInput):
        PermGroup([bad], 3)
    G = PermGroup([[1, 0, 2]], 3)
    with pytest.raises(errors.BadInput):
        G.contains(bad)
    with pytest.raises(errors.BadInput):
        G.extend(bad)
    assert G.order() == 2


def test_accepts_any_integer_dtype():
    """Lists, tuples, ranges and arrays of any integer type code."""
    for sequence in (list, tuple, *(partial(array, code) for code in "bHqQ")):
        G = PermGroup([sequence([1, 2, 0])], 3)
        assert G.order() == 3
        assert G.contains(sequence([2, 0, 1]))
    G = PermGroup([range(2, -1, -1)], 3)        # the transposition (0 2)
    assert G.order() == 2
    assert G.contains(range(3))


def test_contains_single_transposition():
    G = PermGroup([(1, 0, 2, 3, 4)], 5)
    assert G.order() == 2
    assert G.contains([1, 0, 2, 3, 4])


def test_every_generator_is_a_member():
    random.seed(31)
    gens = [random.sample(range(8), 8) for _ in range(3)]
    G = PermGroup(gens, 8)
    assert all(G.contains(g) for g in G.generators)


@pytest.mark.parametrize("gens, degree, members, others", [
    ([(1, 0)], 2, [(0, 1), (1, 0)], []),
    ([(1, 2, 0)], 3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)], [(1, 0, 2), (0, 2, 1)]),
], ids=["S2", "C3-regular"])
def test_one_point_known_base(gens, degree, members, others):
    """A one-point known base is allowed: the gather of one index must give
    a tuple, where itemgetter(x) alone gives a bare int."""
    G = PermGroup(gens, degree, known_base=[0])
    assert G.order() == len(members)
    assert all(G.contains(g) for g in members)
    assert not any(G.contains(g) for g in others)
    assert all(G._sifts([g[0]]) for g in members)
    assert groups.gather((5, 6, 7), [2]) == (7,)


def test_bit_indices_rejects_negative_masks():
    """A negative int has infinitely many set bits; it used to loop forever."""
    assert _bit_indices(0b10110) == [1, 2, 4]
    with pytest.raises(errors.BadInput, match="negative"):
        _bit_indices(-1)


def test_extend_reports_growth():
    G = PermGroup([], 4)
    assert G.order() == 1
    assert G.extend([1, 0, 2, 3])
    assert not G.extend((1, 0, 2, 3))
    assert G.extend([0, 1, 3, 2])
    assert G.order() == 4
    # only the generators that grew the group are recorded, as tuples
    assert G.generators == [(1, 0, 2, 3), (0, 1, 3, 2)]


@st.composite
def _group_and_elements(draw):
    """A generating set of degree <= 7, words in it, and random permutations."""
    k = draw(st.integers(1, 7))
    perm = st.permutations(range(k))
    gens = draw(st.lists(perm, max_size=3))
    words = draw(st.lists(st.lists(st.sampled_from(gens), min_size=1, max_size=4),
                          max_size=3)) if gens else []
    members = []
    for word in words:
        x = tuple(range(k))
        for g in word:
            x = _tuple_mult(g, x)
        members.append(x)
    others = draw(st.lists(perm.map(tuple), max_size=4))
    return k, gens, members + others


def _check_against_closure(k, gens, elements):
    G = PermGroup(gens, k)
    elems = closure([tuple(g) for g in gens], _tuple_mult, tuple(range(k)))
    assert math.prod(G.basic_orbit_lengths()) == len(elems) == G.order()
    for x in elements:
        assert G.contains(x) == (x in elems)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_group_and_elements())
def test_sift_matches_closure(case):
    """Membership by sifting equals membership in the brute-force closure."""
    _check_against_closure(*case)


@st.composite
def _involutions_and_elements(draw):
    """Products of disjoint transpositions of degree <= 7, one other
    permutation among them, and elements to test for membership."""
    k = draw(st.integers(2, 7))
    involutions = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(range(k)))
        g = list(range(k))
        for a, b in zip(order[0::2], order[1::2]):
            if draw(st.booleans()):
                g[a], g[b] = b, a
        involutions.append(tuple(g))
    other = tuple(draw(st.permutations(range(k))))
    gens = involutions[:]
    gens.insert(draw(st.integers(0, len(gens))), other)
    x = tuple(range(k))
    for g in draw(st.lists(st.sampled_from(gens), min_size=1, max_size=5)):
        x = _tuple_mult(g, x)
    elements = [x] + draw(st.lists(st.permutations(range(k)).map(tuple),
                                   max_size=4))
    return k, gens, elements


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_involutions_and_elements())
def test_involution_edges_match_closure(case):
    """Groups generated mostly by involutions, such as the reflection chains,
    have the order and the members of the brute-force closure."""
    _check_against_closure(*case)


@pytest.mark.parametrize("known_base, message", [
    ([0, 4], "out of range"),
    ([-1], "out of range"),
    ([1, 2, 1], "repeated"),
    ([1.0], "integers"),
    (["1"], "integers"),
    ([True], "integers"),
    ([None], "integers"),
    (5, "iterable"),
], ids=["degree", "negative", "repeated", "float", "str", "bool", "None", "int"])
def test_known_base_rejects_bad_points(known_base, message):
    with pytest.raises(errors.BadInput, match=message):
        PermGroup([[1, 0, 2, 3]], 4, known_base=known_base)


@pytest.mark.parametrize("gens, known_base", [
    ([[1, 2, 0, 3, 4], [0, 1, 2, 4, 3]], [0]),   # (3 4) fixes 0
    ([[1, 2, 0, 3, 4], [1, 0, 2, 3, 4]], []),    # S3 on an empty known base
], ids=["fixes-the-known-base", "empty"])
def test_known_base_that_misses_an_element_is_refused(gens, known_base):
    """A generator whose residue is not 1 but fixes the known base proves
    the known base wrong, and a chain on it would give a wrong order (the
    true orders here are 6)."""
    with pytest.raises(errors.BadInput, match="does not determine the group"):
        PermGroup(gens, 5, known_base=known_base)
    assert PermGroup(gens, 5).order() == 6


def _gl2_permutation(images):
    """The permutation of the nonzero vectors 1..2**n-1 of F2^n, at positions
    v - 1, of the linear map with these basis images."""
    def apply(v):
        m = 0
        for i, image in enumerate(images):
            if v >> i & 1:
                m ^= image
        return m
    return [apply(v) - 1 for v in range(1, 1 << len(images))]


def _invertible_images(draw, n):
    """The basis images, as masks, of a random invertible linear map of
    F2^n."""
    images, span = [], {0}
    for _ in range(n):      # each image outside the span of the others
        m = draw(st.sampled_from([v for v in range(1 << n) if v not in span]))
        images.append(m)
        span |= {v ^ m for v in span}
    return images


@st.composite
def _linear_groups(draw):
    """Generators of a random subgroup of GL(n, 2), n <= 4, on the nonzero
    vectors, or of a reflection subgroup of the Weyl group A2..A5 on the
    roots, with a known base: the basis vectors or the simple roots.  The
    points are relabelled at random, so that the chain's base points are
    not always the first basis vectors."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        gens = [_gl2_permutation(_invertible_images(draw, n))
                for _ in range(draw(st.integers(1, 3)))]
        degree, known_base = (1 << n) - 1, [(1 << i) - 1 for i in range(n)]
    else:
        L = build_plain_root_lattice(draw(st.integers(2, 5)))
        roots = lattice.enumerate_roots(L)
        chosen = draw(st.lists(st.sampled_from(roots), min_size=1, max_size=4))
        gens = [lattice.root_reflection(L, r) for r in chosen]
        degree, known_base = len(roots), list(lattice._simple_indices(L))
    label = draw(st.permutations(range(degree)))
    relabelled = []
    for g in gens:
        h = [0] * degree
        for x, y in enumerate(g):
            h[label[x]] = label[y]
        relabelled.append(h)
    return relabelled, degree, [label[b] for b in known_base]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_linear_groups())
def test_known_base_keeps_the_chain(case):
    """Sifting Schreier generators on the known base's images builds the
    same chain, with the same counts, as sifting them in full: the
    reference keeps every point after the known base, so its sifts are
    full and its base points the same."""
    gens, degree, known_base = case
    fast = PermGroup(gens, degree, known_base=known_base)
    rest = [p for p in range(degree) if p not in known_base]
    full = PermGroup(gens, degree, known_base=known_base + rest)
    assert _chain_digest(fast) == _chain_digest(full)
    assert (fast.schreier_tested, fast.full_sifts) == (
        full.schreier_tested, full.full_sifts)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_linear_groups())
def test_known_base_sift_is_membership(case):
    """For elements of a group the known base determines, sifting their
    known-base images alone decides membership: each generator against the
    group of all but the last."""
    gens, degree, known_base = case
    G = PermGroup(gens[:-1], degree, known_base=known_base)
    for g in gens:
        assert G._sifts([g[b] for b in known_base]) == G.contains(g)


def _placed(g, offset, degree):
    """g moved onto the points offset, offset + 1, ... of `degree` points,
    the other points fixed."""
    return (*range(offset), *(offset + x for x in g), *range(offset + len(g), degree))


@st.composite
def _placements(draw):
    """A group on k points, with or without a known base, elements to test,
    and a degree of 256, 257 or 300 to place it in."""
    if draw(st.booleans()):
        k, gens, elements = draw(_group_and_elements())
        known_base = None
    else:
        gens, k, known_base = draw(_linear_groups())
        elements = [*gens, _tuple_mult(gens[0], gens[-1]),
                    *draw(st.lists(st.permutations(range(k)), max_size=3))]
    return gens, k, known_base, elements, draw(st.sampled_from([256, 257, 300]))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_placements())
def test_byte_and_tuple_chains_agree(case):
    """A chain of at most 256 points keeps its permutations as byte strings,
    a larger one as tuples.  The same generators on k points and placed on
    the first or the last k of 256, 257 or 300 points, the rest fixed, give
    the same chain, level by level, the same counts and the same answers,
    and the counts stay as built after the membership tests."""
    gens, k, known_base, elements, degree = case
    G = PermGroup(gens, k, known_base=known_base)
    counts = (G.schreier_tested, G.full_sifts)
    for offset in (0, degree - k):
        H = PermGroup([_placed(g, offset, degree) for g in gens], degree,
                      known_base=known_base and [offset + b for b in known_base])
        assert isinstance(H._one, bytes) == (degree <= 256)
        assert H.base() == tuple(offset + b for b in G.base())
        assert H.basic_orbit_lengths() == G.basic_orbit_lengths()
        assert (H.schreier_tested, H.full_sifts) == counts
        assert H.generators == [_placed(g, offset, degree) for g in G.generators]
        for a, b in zip(G._levels, H._levels, strict=True):
            assert b.orbit_order == [offset + p for p in a.orbit_order]
            assert all(tuple(b.orbit[offset + p][:degree])
                       == _placed(a.orbit[p][:k], offset, degree) for p in a.orbit_order)
        for x in elements:
            y = _placed(x, offset, degree)
            assert H.contains(y) == G.contains(x)
            if known_base is not None:
                assert H._sifts([y[offset + b] for b in known_base]) == (
                    G._sifts([x[b] for b in known_base]))
        assert (H.schreier_tested, H.full_sifts) == counts
    assert (G.schreier_tested, G.full_sifts) == counts


@pytest.mark.parametrize("degree", [200, 300])
def test_chain_is_freed_without_the_collector(degree):
    """A chain holds no reference to itself, on the tuple path above 256
    points as on the byte path: it is freed as soon as its last holder
    drops it, without the cyclic garbage collector."""
    G = PermGroup([_placed((1, 2, 0), 0, degree), _placed((1, 0), 5, degree)], degree)
    assert G.order() == 6
    gc.disable()
    try:
        ref = weakref.ref(G)
        del G
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("gens, degree", [
    ([(0, 1, 2)], 3),
    ([(1, 0, 2, 3), (1, 2, 3, 0)], 4),
    (lattice.weyl_generators(build_del_pezzo(6)), 72),
], ids=["trivial", "S4", "W(E6)"])
def test_membership_tests_leave_the_counts(gens, degree):
    """schreier_tested and full_sifts count the build alone: contains and
    _sifts leave them as they were (the trivial group read
    full_sifts 1 when built and 3 after two contains calls, when contains
    counted its sift)."""
    G = PermGroup(gens, degree)
    counts = (G.schreier_tested, G.full_sifts)
    assert counts[1] >= 1
    for g in [*gens, tuple(range(degree)), (1, 0, *range(2, degree))]:
        G.contains(g)
        G._sifts(g)
    assert (G.schreier_tested, G.full_sifts) == counts


def test_generators_are_tuples_of_ints():
    """Whatever a chain stores, its generators are tuples of ints, on 240
    roots (bytes inside the chain) as on 1023 mod-2 vectors (tuples):
    lattice.check_isometry accepts nothing else."""
    for G in (lattice.automorphism_chain(build_del_pezzo(8))[0],
              bridge.oL2_group(build_del_pezzo(8)),
              bridge.oL2_group(build_plain_root_lattice(10))):
        assert G.generators
        assert all(type(g) is tuple and set(map(type, g)) == {int} for g in G.generators)
    assert all(set(map(type, g)) == {int}
               for g in lattice.automorphism_group(build_del_pezzo(8)))


def test_member_cache_skips_repeated_schreier_generators(monkeypatch):
    """A Schreier generator whose known-base images repeat those of one
    already handled at its level is in the next stabilizer, and is not
    sifted again: W(E8) forms 3,064 of them but sifts only the 36 distinct
    ones, level by level, and still counts all 3,064."""
    sifts = []
    sift = PermGroup._sifts_on_known_base
    monkeypatch.setattr(PermGroup, "_sifts_on_known_base", lambda self, cur, start: (
        sifts.append((start, cur)) or sift(self, cur, start)))
    L = build_del_pezzo(8)
    G = PermGroup(lattice.weyl_generators(L), len(lattice.enumerate_roots(L)),
                  known_base=lattice._simple_indices(L))
    assert (G.schreier_tested, G.full_sifts) == (3064, 36)
    assert len(sifts) == len(set(sifts)) == 36
    assert sum(len(lv.members) for lv in G._levels) == 36


# the package's rho chain: the reduced simple reflections, then the reduced
# O(L) generators, through one chain
_RHO = (lattice.weyl_generators, lattice.automorphism_group)


def _rho_inputs(n, isometries=_RHO):
    L = build_del_pezzo(n)
    return f2.reduce(L), [bridge.reduce_isometry(L, u)
                          for generators in isometries for u in generators(L)]


def _f2_chain_inputs(name):
    """The space and the maps of each mod-2 chain the package builds, and
    for a lattice those of the reflection chain oL2_group, the tests'
    oracle for |O(L2)|."""
    if name == "n7-SpH":
        _, H = f2.split_radical(f2.reduce(build_del_pezzo(7)))
        return [(H, [f2._transvection(H, v) for v in H.nonzero_vectors()])]
    if name == "n5-quotient":
        S = f2.reduce(build_del_pezzo(5))
        k, H = f2.split_radical(S)
        return [(H, [f2._induced(S, k, H, g) for g in f2.orthogonal_generators(S)])]
    if name.startswith("rho"):
        return [_rho_inputs(int(name[3:]))]
    L = (build_del_pezzo(int(name[2:])) if name.startswith("dP")
         else build_plain_root_lattice(int(name[1:])))
    S = f2.reduce(L)
    return [(S, f2.orthogonal_generators(S))]


def _sp7_chain():
    return f2._chain(*_f2_chain_inputs("n7-SpH")[0])


def _quotient5_chain():
    return f2._chain(*_f2_chain_inputs("n5-quotient")[0])


def _rho_chain(n, isometries=_RHO):
    return f2._chain(*_rho_inputs(n, isometries))


# the digest (_chain_digest) of each pinned chain
_CHAIN_DIGESTS = {
    "A10-OL2":
        "3f56a54c60b7f60290f78ec5c6ae4e0a866708749338ca826747b4411c7b5407",
    "E8-W":
        "cb6aea79d15761e63ad35ea239aaf5411ee353c15940422134a728a835fbec51",
    # O(L) grows from the W chain: -1 in W(E8) and every search solution
    # sift on it, so E8's O(L) chain is its W chain
    "E8-OL":
        "cb6aea79d15761e63ad35ea239aaf5411ee353c15940422134a728a835fbec51",
    "E8-OL2":
        "62ed5fe2b60004da3e6bf379522b0f5fe3c4fc08a7cbc6d3b2f5f8f0ba12ed8c",
    "n7-SpH":
        "7783a6ab5f890e921f4ef3c29ce5df0d1df34a0328d651197a456e0042ede746",
    "n5-quotient":
        "981b74071d3c0bca2ed48442dd2e84cb0643d099f0abe287d7186d48840cbb3e",
    "E8-rhoOL":
        "f07f719e9a2827ac2bfbaf5c5294f4f1ffa68f996f15a38536a67e055affbc9e",
    "E8-rhoW":
        "f07f719e9a2827ac2bfbaf5c5294f4f1ffa68f996f15a38536a67e055affbc9e",
    "E6-rhoOL":
        "270f45a23803e63592d520f43b562702073c222b7f37afdbe70488d960eb0549",
    "E6-rhoW":
        "270f45a23803e63592d520f43b562702073c222b7f37afdbe70488d960eb0549",
    # A10's W chain, grown by -1 alone, which is not in W(A10)
    "A10-OL":
        "d4e8412fe94147e5d8c815fda2c282c2ed0e305ab0da33925005159d55bd9573",
}


# a mod-2 chain acts on coordinate bits: its base point 1 << i is basis vector i
@pytest.mark.parametrize("chain, base, orbits, counts, digest", [
    # 10,835 Schreier generators formed on the 10 known-base points, 62
    # permutations (the 11 generators that grow the chain and 51 Schreier
    # generators) in full; the other 517 reflections sift on the known base
    (lambda: bridge.oL2_group(build_plain_root_lattice(10)),
     (256, 128, 64, 32, 16, 8, 4, 2, 1, 512),
     (528, 272, 135, 64, 28, 12, 5, 4, 3, 2), (10835, 62, 11),
     _CHAIN_DIGESTS["A10-OL2"]),
    (lambda: lattice.weyl_group(build_del_pezzo(8)),
     (91, 98, 109, 104, 113, 116, 118, 119), (240, 126, 32, 6, 5, 4, 3, 2), None,
     _CHAIN_DIGESTS["E8-W"]),
    # the W chain, which -1 and the 8 pruned search solutions leave as it
    # was: one more full sift, of -1, and no generator
    (lambda: lattice.automorphism_chain(build_del_pezzo(8))[0],
     (91, 98, 109, 104, 113, 116, 118, 119), (240, 126, 32, 6, 5, 4, 3, 2),
     (3064, 37, 8), _CHAIN_DIGESTS["E8-OL"]),
    (lambda: bridge.oL2_group(build_del_pezzo(8)),
     (32, 16, 8, 4, 2, 1, 64), (120, 56, 27, 16, 10, 6, 2), (1710, 35, 8),
     _CHAIN_DIGESTS["E8-OL2"]),
    (_sp7_chain, (16, 8, 4, 2, 1, 32), (63, 32, 15, 8, 3, 2), (780, 26, 7),
     _CHAIN_DIGESTS["n7-SpH"]),
    (_quotient5_chain, (2, 1, 4), (10, 6, 2), (60, 8, 4),
     _CHAIN_DIGESTS["n5-quotient"]),
    # the rho chain, where |rho(O(L))| is read: the O(L) generators all
    # sift on the chain of the simple reflections, where |rho(W)| is read
    (lambda: _rho_chain(8),
     (16, 32, 8, 4, 2, 1, 64), (120, 56, 27, 16, 10, 6, 2), (1710, 35, 8),
     _CHAIN_DIGESTS["E8-rhoOL"]),
    (lambda: _rho_chain(8, _RHO[:1]),
     (16, 32, 8, 4, 2, 1, 64), (120, 56, 27, 16, 10, 6, 2), (1710, 35, 8),
     _CHAIN_DIGESTS["E8-rhoW"]),
    (lambda: _rho_chain(6),
     (4, 8, 2, 1, 32), (36, 20, 9, 4, 2), (386, 20, 6),
     _CHAIN_DIGESTS["E6-rhoOL"]),
    (lambda: _rho_chain(6, _RHO[:1]),
     (4, 8, 2, 1, 32), (36, 20, 9, 4, 2), (386, 20, 6),
     _CHAIN_DIGESTS["E6-rhoW"]),
    # the 10 simple reflections, then -1, which doubles the second orbit;
    # the 10 pruned search solutions sift
    (lambda: lattice.automorphism_chain(build_plain_root_lattice(10))[0],
     (9, 18, 26, 33, 39, 44, 48, 51, 53), (110, 18, 8, 7, 6, 5, 4, 3, 2),
     (1540, 48, 11), _CHAIN_DIGESTS["A10-OL"]),
], ids=["A10-OL2", "E8-W", "E8-OL", "E8-OL2", "n7-SpH", "n5-quotient",
        "E8-rhoOL", "E8-rhoW", "E6-rhoOL", "E6-rhoW", "A10-OL"])
def test_chain_shape_pinned(chain, base, orbits, counts, digest):
    """The chains themselves, not only their orders, stay as they were:
    every level is bit-identical to the pinned digest; counts pins the
    Schreier generators tested, the full sifts and the generators kept, so
    that a chain fed more elements than the pruned search finds fails
    here."""
    G = chain()
    assert _chain_digest(G) == digest
    assert G.base() == base
    assert G.basic_orbit_lengths() == orbits
    assert G.order() == math.prod(orbits)
    if counts is not None:
        assert (G.schreier_tested, G.full_sifts, len(G.generators)) == counts


def _chain_digest(G):
    """sha256 over each level's base point, orbit order, generators and
    stored inverse coset representatives, on the group's points alone: a
    chain of at most 256 points stores each permutation as 256 bytes."""
    h = hashlib.sha256()
    for lv in G._levels:
        h.update(array("i", [lv.beta, len(lv.orbit_order), len(lv.gens),
                             *lv.orbit_order]).tobytes())
        for g in lv.gens + [lv.orbit[p] for p in lv.orbit_order]:
            h.update(array("i", list(g[:G.degree])).tobytes())
    return h.hexdigest()


# the chains the package hands out, each built anew on every call
_PACKAGE_CHAINS = {
    "A10-OL2": lambda: bridge.oL2_group(build_plain_root_lattice(10)),
    "E8-W": lambda: lattice.weyl_group(build_del_pezzo(8)),
    "E8-OL": lambda: bridge.aut_group(build_del_pezzo(8)),
    "E8-OL2": lambda: bridge.oL2_group(build_del_pezzo(8)),
    "n7-SpH": _sp7_chain,
    "n5-quotient": _quotient5_chain,
    "E8-rhoOL": lambda: _rho_chain(8),
    "E8-rhoW": lambda: _rho_chain(8, _RHO[:1]),
    "E6-rhoOL": lambda: _rho_chain(6),
    "E6-rhoW": lambda: _rho_chain(6, _RHO[:1]),
    "A10-OL": lambda: bridge.aut_group(build_plain_root_lattice(10)),
}


@pytest.mark.parametrize("name", list(_PACKAGE_CHAINS))
def test_chain_pinned(name):
    """Every level of each chain is bit-identical to the pinned one."""
    assert _chain_digest(_PACKAGE_CHAINS[name]()) == _CHAIN_DIGESTS[name]


def _basis_positions(S):
    return [S.coords(b) for b in S.basis]


def _package_chains(name):
    """Each chain the package builds for a case, and for a lattice the
    reflection oracle oL2_group, with the known base its caller means: the
    simple roots, or the basis vectors of the space."""
    if name.startswith("rho"):
        n = int(name[3:])
        return [(_rho_chain(n), _basis_positions(f2.reduce(build_del_pezzo(n))))]
    if name == "n7-SpH":
        _, H = f2.split_radical(f2.reduce(build_del_pezzo(7)))
        return [(_sp7_chain(), _basis_positions(H))]
    if name == "n5-quotient":
        _, H = f2.split_radical(f2.reduce(build_del_pezzo(5)))
        return [(_quotient5_chain(), _basis_positions(H))]
    L = (build_del_pezzo(int(name[2:])) if name.startswith("dP")
         else build_plain_root_lattice(int(name[1:])))
    simple = list(lattice._simple_indices(L))
    return [(lattice.weyl_group(L), simple), (bridge.aut_group(L), simple),
            (bridge.oL2_group(L), _basis_positions(f2.reduce(L)))]


@pytest.mark.parametrize("name", [f"dP{n}" for n in range(3, 9)]
                         + [f"A{n}" for n in range(5, 11)]
                         + ["rho6", "rho8", "n7-SpH", "n5-quotient"])
def test_base_lies_in_the_known_base(name):
    """Each base point is the first known-base point, in the order given,
    that its level's first generator moves, and each level keeps u on the
    known base alone."""
    for G, known in _package_chains(name):
        assert set(G.base()) <= set(known)
        for lv in G._levels:
            first = lv.gens[0]
            assert lv.beta == next(b for b in known if first[b] != b)
            assert len(lv.known[0]) == len(known)


@pytest.mark.parametrize("name", [f"dP{n}" for n in range(3, 9)]
                         + [f"A{n}" for n in range(5, 11)]
                         + [f"rho{n}" for n in range(3, 9)]
                         + ["n7-SpH", "n5-quotient"])
def test_f2_chain_matches_the_chain_of_every_permutation(name):
    """Converting only the maps that do not sift on the basis images keeps
    the chain, level by level, and its generators; the maps converted, each
    kept as a generator, are exactly those that grow it (11 of the 528
    reflections for A10)."""
    for S, maps in _f2_chain_inputs(name):
        ref = f2_chain_of_permutations(S, maps)
        G = f2._chain(S, maps)
        assert _chain_digest(G) == _chain_digest(ref)
        assert G.generators == ref.generators
    if name == "A10":
        assert len(G.generators) == 11


@st.composite
def _spaces_and_maps(draw):
    """A small intrinsic space and invertible linear maps of it, with the
    identity and repeats among them."""
    n = draw(st.integers(1, 4))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2 * draw(st.integers(0, 1))
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.integers(0, 1))
    S = f2.space_from_gram(gram)
    maps = [S.basis] + [tuple(_invertible_images(draw, n))
                        for _ in range(draw(st.integers(1, 5)))]
    maps += draw(st.lists(st.sampled_from(maps), max_size=3))
    return S, draw(st.permutations(maps))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_spaces_and_maps())
def test_f2_chain_matches_on_random_maps(case):
    """The same on random invertible maps, the identity and repeats among
    them."""
    S, maps = case
    G, ref = f2._chain(S, maps), f2_chain_of_permutations(S, maps)
    assert _chain_digest(G) == _chain_digest(ref)
    assert G.generators == ref.generators


# the hyperbolic plane: its points are the coordinate bits 0..3 of its
# vectors, 0 fixed; the map b0 -> 2, b1 -> 3 is a 3-cycle on 1, 2, 3
_PLANE = f2.space_from_gram([[0, 1], [1, 0]])


@pytest.mark.parametrize("before", [[], [(2, 3)]], ids=["first", "after-chain"])
@pytest.mark.parametrize("bad, match", [
    ((4, 1), "outside"),                # an image outside the space
    ((1,), "one image"),                # too few images
    ((1, 2, 3), "one image"),           # too many images
    ((2, 2), "dependent"),              # dependent images
    ((3, 3), "dependent"),
    ((1, 0), "dependent"),              # an image of 0
    ((0, 0), "dependent"),
    # the 3-cycle with b1 -> 0 in place of b1 -> 3, its last point: no
    # orbit holds the point 0, so these images never sift
    ((2, 0), "dependent"),
], ids=["outside", "too-few", "too-many", "repeated", "repeated-sum",
        "zero", "zeros", "zero-for-last"])
def test_f2_chain_refuses_malformed_maps(before, bad, match):
    """The basis-image sift never admits a malformed map, whether it comes
    first or after maps that built a nontrivial chain: each is NotIsometry,
    and dependent images, an image of 0 among them, are named as such."""
    assert f2._chain(_PLANE, before).order() == (3 if before else 1)
    with pytest.raises(errors.NotIsometry, match=match):
        f2._chain(_PLANE, before + [bad])


# -- the pruned isometry search ------------------------------------------------

def _searches_run_by(case):
    """What runs groups.orbit_search for a case "kind-lattice": the O(L)
    search over every root, the searches over the root components, or
    isometry_order."""
    kind, name = case.split("-")
    L = (build_del_pezzo(int(name[2:])) if name.startswith("dP")
         else build_plain_root_lattice(int(name[1:])))
    if kind == "OL":
        return lambda: lattice._root_search(L, (1 << len(lattice.enumerate_roots(L))) - 1)
    if kind == "components":
        return lambda: [lattice.component_isometries(L, c)
                        for c in lattice.root_components(L)]
    return lambda: f2.isometry_order.__wrapped__(f2.reduce(L))


@pytest.mark.parametrize(
    "case", [f"OL-dP{n}" for n in range(3, 9)] + [f"OL-A{n}" for n in range(5, 11)]
    + ["components-dP3"]
    + [f"f2-dP{n}" for n in range(3, 9)] + [f"f2-A{n}" for n in range(2, 11)])
def test_pruned_search_matches_unpruned(case):
    """Pruning by the automorphisms found keeps every level's count, and each
    solution it finds is the one the unpruned search finds for its
    candidate."""
    run = _searches_run_by(case)
    pruned, unpruned = searches(run), searches(run, orbit_search_unpruned)
    assert pruned and [c for c, _ in pruned] == [c for c, _ in unpruned]
    for (_, sols), (_, ref) in zip(pruned, unpruned, strict=True):
        assert all(set(s) <= set(r) for s, r in zip(sols, ref, strict=True))


@pytest.mark.parametrize("name", [f"dP{n}" for n in range(3, 9)]
                         + [f"A{r}" for r in range(2, 11)])
def test_completions_match_the_eager_reference_on_the_kernels(name, monkeypatch):
    """groups.completions, taking its candidates straight from the mask,
    yields the same assignments in the same order as the eager version that
    listed them first, on the inputs of bridge._kernel_elements."""
    L = (build_del_pezzo(int(name[2:])) if name.startswith("dP")
         else build_plain_root_lattice(int(name[1:])))
    inputs, completions = [], groups.completions

    def spy(rows, masks, target, images, keep=None):
        inputs.append((rows, list(masks), target, list(images), keep))
        return completions(rows, masks, target, images, keep)

    monkeypatch.setattr(groups, "completions", spy)
    bridge._kernel_elements(L)
    rows, masks, target, images, keep = inputs[0]     # the rest are its recursion
    new = list(completions(rows, masks, target, list(images), keep))
    assert new and new == list(completions_eager(rows, masks, target, images, keep))


def test_orbit_search_needs_the_base_as_a_solution():
    """The identity is never searched, so a base point that is not a
    candidate at its level is refused rather than counted."""
    L = build_del_pezzo(4)
    rows, simple, gram = lattice._root_pairings(L)
    with pytest.raises(errors.BadInput, match="not a candidate"):
        groups.orbit_search(rows, [1 << simple[1]] * len(simple), gram, simple,
                            act=lambda sol: sol)
