"""Stabilizer-chain engine: brute-force closure is the independent oracle."""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmod2 import bridge, errors, f2, lattice
from dpmod2.groups import PermGroup
from dpmod2.lattice import build_del_pezzo, build_plain_root_lattice
from oracles import closure


def _tuple_mult(a, b):
    return tuple(a[i] for i in b)


def _closure_order(gens, degree):
    return len(closure([tuple(g) for g in gens], _tuple_mult,
                       tuple(range(degree))))


def test_symmetric_group_orders():
    for k in (3, 4, 5, 6, 7):
        t = np.array([1, 0] + list(range(2, k)))
        c = np.array(list(range(1, k)) + [0])
        assert PermGroup([t, c], k).order() == math.factorial(k)


def test_random_groups_against_bfs_closure():
    random.seed(42)
    for _ in range(60):
        k = random.choice([4, 5, 6, 7])
        gens = [np.array(random.sample(range(k), k))
                for _ in range(random.choice([1, 2, 3]))]
        assert PermGroup(gens, k).order() == _closure_order(gens, k)


def test_order_invariant_under_generator_shuffles():
    random.seed(9)
    gens = [np.array([1, 0, 2, 3, 4, 5]), np.array([1, 2, 3, 4, 5, 0]),
            np.array([0, 2, 1, 3, 5, 4])]
    ref = PermGroup(gens, 6).order()
    assert PermGroup(gens[::-1], 6).order() == ref
    for _ in range(8):
        shuffled = gens[:]
        random.shuffle(shuffled)
        assert PermGroup(shuffled, 6).order() == ref


def test_trivial_group():
    G = PermGroup([np.arange(5)], 5)
    assert G.order() == 1
    assert G.contains(np.arange(5))
    assert not G.contains(np.array([1, 0, 2, 3, 4]))


def test_contains_products_of_generators():
    random.seed(17)
    gens = [np.array([1, 2, 0, 4, 3, 5, 6]), np.array([0, 1, 3, 2, 5, 6, 4])]
    G = PermGroup(gens, 7)
    for _ in range(25):
        word = [random.choice(gens) for _ in range(random.randint(1, 3))]
        g = np.arange(7)
        for w in word:
            g = w[g]
        assert G.contains(g)


def test_contains_rejects_non_members():
    # even permutations only: A4 from two 3-cycles
    gens = [np.array([1, 2, 0, 3]), np.array([0, 2, 3, 1])]
    G = PermGroup(gens, 4)
    assert G.order() == 12
    transposition = np.array([1, 0, 2, 3])
    assert not G.contains(transposition)


def test_order_divides_degree_factorial():
    random.seed(23)
    for _ in range(10):
        k = random.choice([5, 6, 8])
        gens = [np.array(random.sample(range(k), k)) for _ in range(2)]
        assert math.factorial(k) % PermGroup(gens, k).order() == 0


def test_degree_mismatch():
    G = PermGroup([np.array([1, 0, 2])], 3)
    with pytest.raises(errors.DegreeMismatch):
        G.contains(np.array([1, 0]))


def test_rejects_non_permutations():
    with pytest.raises(ValueError):
        PermGroup([[1, 1, 2]], 3)


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
], ids=["fractional", "float", "str", "bool", "2**40", "2**70", "negative",
        "degree", "None"])
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
    for dtype in (np.int8, np.uint16, np.int64, np.uint64):
        G = PermGroup([np.array([1, 2, 0], dtype=dtype)], 3)
        assert G.order() == 3
        assert G.contains(np.array([2, 0, 1], dtype=dtype))


def test_contains_single_transposition():
    G = PermGroup([np.array([1, 0, 2, 3, 4])], 5)
    assert G.order() == 2
    assert G.contains(np.array([1, 0, 2, 3, 4]))


def test_every_generator_is_a_member():
    random.seed(31)
    gens = [np.array(random.sample(range(8), 8)) for _ in range(3)]
    G = PermGroup(gens, 8)
    assert all(G.contains(g) for g in G.generators)


def test_extend_reports_growth():
    G = PermGroup([], 4)
    assert G.order() == 1
    assert G.extend(np.array([1, 0, 2, 3]))
    assert not G.extend(np.array([1, 0, 2, 3]))
    assert G.extend(np.array([0, 1, 3, 2]))
    assert G.order() == 4
    # only the generators that grew the group are recorded
    assert [g.tolist() for g in G.generators] == [[1, 0, 2, 3], [0, 1, 3, 2]]


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
    G = PermGroup([np.array(g) for g in gens], k)
    elems = closure([tuple(g) for g in gens], _tuple_mult, tuple(range(k)))
    assert math.prod(G.basic_orbit_lengths()) == len(elems) == G.order()
    for x in elements:
        assert G.contains(np.array(x)) == (x in elems)


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
    """Skipping the later Schreier generator of each inverse pair (p, g),
    (g(p), g) of an involution g keeps the chain exact."""
    _check_against_closure(*case)


@pytest.mark.parametrize("known_base, message", [
    ([0, 4], "out of range"),
    ([-1], "out of range"),
    ([1, 2, 1], "repeated"),
    ([1.0], "integers"),
    (["1"], "integers"),
    ([True], "integers"),
    ([None], "integers"),
], ids=["degree", "negative", "repeated", "float", "str", "bool", "None"])
def test_known_base_rejects_bad_points(known_base, message):
    with pytest.raises(errors.BadInput, match=message):
        PermGroup([[1, 0, 2, 3]], 4, known_base=known_base)


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


@st.composite
def _linear_groups(draw):
    """Generators of a random subgroup of GL(n, 2), n <= 4, on the nonzero
    vectors, or of a reflection subgroup of the Weyl group A2..A5 on the
    roots, with a known base: the basis vectors or the simple roots.  The
    points are relabelled at random, so that the chain's base points are
    not always the first basis vectors."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        gens = []
        for _ in range(draw(st.integers(1, 3))):
            images, span = [], {0}
            for _ in range(n):      # each image outside the span of the others
                m = draw(st.sampled_from([v for v in range(1 << n) if v not in span]))
                images.append(m)
                span |= {v ^ m for v in span}
            gens.append(_gl2_permutation(images))
        degree, known_base = (1 << n) - 1, [(1 << i) - 1 for i in range(n)]
    else:
        L = build_plain_root_lattice(draw(st.integers(2, 5)))
        roots = lattice.enumerate_roots(L)
        chosen = draw(st.lists(st.sampled_from(roots), min_size=1, max_size=4))
        gens = [lattice.root_reflection(L, r).tolist() for r in chosen]
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
    same chain, with the same counts, as sifting them in full."""
    gens, degree, known_base = case
    fast = PermGroup(gens, degree, known_base=known_base)
    full = PermGroup(gens, degree)
    assert _chain_digest(fast) == _chain_digest(full)
    assert (fast.schreier_tested, fast.full_sifts) == (
        full.schreier_tested, full.full_sifts)


def _sp7_chain():
    H = f2.sp_model(f2.reduce(build_del_pezzo(7))).hyperplane
    return bridge._f2_chain(H, [f2.transvection(H, v) for v in H.nonzero_vectors()])


def _quotient5_chain():
    S = f2.reduce(build_del_pezzo(5))
    quo = f2.quotient_by_radical(S)
    return bridge._f2_chain(quo.section,
                            [quo.project(g) for g in f2.orthogonal_generators(S)])


def _rho_chain(n, isometries):
    L = build_del_pezzo(n)
    return bridge._f2_chain(f2.reduce(L), [bridge.reduce_isometry(L, u)
                                           for u in isometries(L)])


# built afresh, so its counts are not shared with other tests
def _a10_ol2_chain():
    return bridge.oL2_group.__wrapped__(build_plain_root_lattice(10))


@pytest.mark.parametrize("chain, base, orbits, counts", [
    # 6,729 Schreier generators sifted on 19 tracked points, 577 permutations
    # (528 generators and 49 Schreier generators) in full
    (_a10_ol2_chain,
     (1, 0, 3, 7, 31, 15, 63, 127, 511, 255),
     (528, 272, 135, 64, 28, 12, 5, 4, 3, 2), (6729, 577)),
    (lambda: bridge.weyl_group(build_del_pezzo(8)),
     (5, 6, 4, 3, 2, 1, 0), (240, 56, 27, 16, 10, 6, 2), None),
    (lambda: bridge.aut_group(build_del_pezzo(8)),
     (0, 4, 1, 5, 3, 6, 2), (240, 56, 27, 16, 10, 6, 2), None),
    (lambda: bridge.oL2_group(build_del_pezzo(8)),
     (0, 1, 7, 3, 15, 31, 127, 63), (135, 64, 28, 12, 5, 4, 3, 2), None),
    (_sp7_chain, (1, 0, 7, 3, 31, 15), (63, 32, 15, 8, 3, 2), None),
    (_quotient5_chain, (0, 1, 7, 3), (5, 4, 3, 2), None),
    (lambda: _rho_chain(8, lattice.automorphism_group),
     (0, 3, 63, 1, 127, 7, 31, 15), (135, 64, 28, 12, 5, 4, 3, 2), None),
    (lambda: _rho_chain(8, lattice.weyl_generators),
     (7, 0, 1, 3, 15, 31, 127, 63), (135, 64, 28, 12, 5, 4, 3, 2), None),
    (lambda: _rho_chain(6, lattice.automorphism_group),
     (0, 1, 3, 7, 15), (27, 16, 10, 6, 2), None),
    (lambda: _rho_chain(6, lattice.weyl_generators),
     (7, 0, 1, 3, 15), (27, 16, 10, 6, 2), None),
    (lambda: bridge.aut_group(build_plain_root_lattice(10)),
     (0, 8, 1, 7, 2, 6, 3, 5, 4), (110, 18, 8, 7, 6, 5, 4, 3, 2), None),
], ids=["A10-OL2", "E8-W", "E8-OL", "E8-OL2", "n7-SpH", "n5-quotient",
        "E8-rhoOL", "E8-rhoW", "E6-rhoOL", "E6-rhoW", "A10-OL"])
def test_chain_shape_pinned(chain, base, orbits, counts):
    """The chains themselves, not only their orders, stay as they were;
    counts pins the Schreier generators tested and the full sifts."""
    G = chain()
    assert G.base() == base
    assert G.basic_orbit_lengths() == orbits
    assert G.order() == math.prod(orbits)
    if counts is not None:
        assert (G.schreier_tested, G.full_sifts) == counts


def _chain_digest(G):
    """sha256 over each level's base point, orbit order, generators and
    stored inverse coset representatives."""
    h = hashlib.sha256()
    for lv in G._levels:
        h.update(np.array([lv.beta, len(lv.orbit_order), len(lv.gens),
                           *lv.orbit_order], dtype=np.int32).tobytes())
        for g in lv.gens + [lv.orbit[p] for p in lv.orbit_order]:
            h.update(np.asarray(g, dtype=np.int32).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("chain, digest", [
    (lambda: bridge.oL2_group(build_plain_root_lattice(10)),
     "8e351a853c38d2ac7b51c16a704ecdd751a0a46685678c6b56ceefbe0e37f0d5"),
    (lambda: bridge.weyl_group(build_del_pezzo(8)),
     "2a884d35a6220d3dee03f32a783b832005d69f1214c1ee4e57d26f3b071e962a"),
    (lambda: bridge.aut_group(build_del_pezzo(8)),
     "14b7a160b9e2f8b3f241bce723a88f66ec69ce3c007a1133b8ab7a1c1ec2747d"),
    (lambda: bridge.oL2_group(build_del_pezzo(8)),
     "2a79a632928521f2bdfab020208147e8a18e1791ff59edd67b2c16abd0854786"),
    (_sp7_chain,
     "f080d2d38553d686cbf41f7bbfd1fac2bd69241739dced11c3ccd4904ab036ee"),
    (_quotient5_chain,
     "7c9e80f0d1db3da616025a632693598c02fc339a7e595327be5510cf622a4526"),
    (lambda: _rho_chain(8, lattice.automorphism_group),
     "941d0cde8a5370b00a6b351668e415dee343ee735f6da8b1c454ec12b74d8eb8"),
    (lambda: _rho_chain(8, lattice.weyl_generators),
     "561965caaad180f061424330a30b1483faac26379972d0da8065f6a0471b744b"),
    (lambda: _rho_chain(6, lattice.automorphism_group),
     "7385beac352835b0c8dab45b20912dcca7d8351d796e805d86fe84fd3b000459"),
    (lambda: _rho_chain(6, lattice.weyl_generators),
     "f33177628a3212874af5e4c3b8a5c005f2945ee69af0272b61dba1a08d1bec91"),
    (lambda: bridge.aut_group(build_plain_root_lattice(10)),
     "a16ab3aa2c16f124e04e0929c9ee624ddf90b538dc59f5705d3209f00ee582b0"),
], ids=["A10-OL2", "E8-W", "E8-OL", "E8-OL2", "n7-SpH", "n5-quotient",
        "E8-rhoOL", "E8-rhoW", "E6-rhoOL", "E6-rhoW", "A10-OL"])
def test_chain_pinned(chain, digest):
    """Every level of the chains is bit-identical to the pinned one."""
    assert _chain_digest(chain()) == digest
