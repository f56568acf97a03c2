"""Stabilizer-chain engine: brute-force closure is the independent oracle."""

import hashlib
import math
import random
from array import array
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmod2 import bridge, errors, f2, lattice
from dpmod2.groups import PermGroup, bit_indices
from dpmod2.lattice import build_del_pezzo, build_plain_root_lattice
from oracles import closure, f2_chain_of_permutations


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
    with pytest.raises(errors.DegreeMismatch):
        G.contains([1, 0])


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


def test_bit_indices_rejects_negative_masks():
    """A negative int has infinitely many set bits; it used to loop forever."""
    assert bit_indices(0b10110) == [1, 2, 4]
    with pytest.raises(errors.BadInput, match="negative"):
        bit_indices(-1)


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
        assert G.sifts_on_known_base([g[b] for b in known_base]) == G.contains(g)


@pytest.mark.parametrize("images", [[1, -1], [1, 3], [1], [1, 2, 0], [1, True],
                                    [1.0, 2]],
                         ids=["negative", "too-large", "too-few", "too-many",
                              "bool", "float"])
def test_sifts_on_known_base_checks_images(images):
    """One int point per known-base point, or BadInput: a negative image is
    not read as an index from the end, which made [1, -1] pass as the
    member [1, 2]."""
    G = PermGroup([(1, 2, 0)], 3, known_base=[0, 1])
    assert G.sifts_on_known_base([1, 2]) and not G.sifts_on_known_base([2, 1])
    with pytest.raises(errors.BadInput, match="per known-base point"):
        G.sifts_on_known_base(images)


def _rho_inputs(n, isometries):
    L = build_del_pezzo(n)
    return f2.reduce(L), [bridge.reduce_isometry(L, u) for u in isometries(L)]


def _f2_chain_inputs(name):
    """The space and the maps of each mod-2 chain the package builds."""
    if name == "n7-SpH":
        _, H = f2.split_radical(f2.reduce(build_del_pezzo(7)))
        return [(H, [f2.transvection(H, v) for v in H.nonzero_vectors()])]
    if name == "n5-quotient":
        S = f2.reduce(build_del_pezzo(5))
        k, H = f2.split_radical(S)
        return [(H, [f2.induced(S, k, H, g) for g in f2.orthogonal_generators(S)])]
    if name.startswith("rho"):
        return [_rho_inputs(int(name[3:]), isometries)
                for isometries in (lattice.automorphism_group, lattice.weyl_generators)]
    L = (build_del_pezzo(int(name[2:])) if name.startswith("dP")
         else build_plain_root_lattice(int(name[1:])))
    S = f2.reduce(L)
    return [(S, f2.orthogonal_generators(S))]


def _sp7_chain():
    return bridge._f2_chain(*_f2_chain_inputs("n7-SpH")[0])


def _quotient5_chain():
    return bridge._f2_chain(*_f2_chain_inputs("n5-quotient")[0])


def _rho_chain(n, isometries):
    return bridge._f2_chain(*_rho_inputs(n, isometries))


# built afresh, so its counts are not shared with other tests
def _a10_ol2_chain():
    return bridge.oL2_group.__wrapped__(build_plain_root_lattice(10))


@pytest.mark.parametrize("chain, base, orbits, counts", [
    # 6,920 Schreier generators sifted on the 10 known-base points, 62
    # permutations (the 11 generators that grow the chain and 51 Schreier
    # generators) in full; the other 517 reflections sift on the known base
    (_a10_ol2_chain,
     (512, 513, 515, 519, 527, 543, 575, 639, 767, 511),
     (528, 272, 135, 64, 28, 12, 5, 4, 3, 2), (6920, 62)),
    (lambda: bridge.weyl_group(build_del_pezzo(8)),
     (91, 98, 109, 104, 113, 116, 118, 119), (240, 126, 32, 6, 5, 4, 3, 2), None),
    (lambda: bridge.aut_group(build_del_pezzo(8)),
     (91, 118, 98, 109, 119, 104, 113), (240, 126, 60, 16, 4, 3, 2), None),
    (lambda: bridge.oL2_group(build_del_pezzo(8)),
     (129, 131, 135, 143, 159, 191, 128), (120, 56, 27, 16, 10, 6, 2), None),
    (_sp7_chain, (32, 33, 35, 39, 47, 31), (63, 32, 15, 8, 3, 2), None),
    (_quotient5_chain, (9, 11, 8), (10, 6, 2), None),
    (lambda: _rho_chain(8, lattice.automorphism_group),
     (191, 159, 135, 131, 143, 128, 129), (120, 56, 27, 16, 10, 6, 2), None),
    (lambda: _rho_chain(8, lattice.weyl_generators),
     (131, 129, 135, 143, 159, 191, 128), (120, 56, 27, 16, 10, 6, 2), None),
    (lambda: _rho_chain(6, lattice.automorphism_group),
     (47, 39, 35, 33, 31), (36, 20, 9, 4, 2), None),
    (lambda: _rho_chain(6, lattice.weyl_generators),
     (35, 33, 39, 47, 31), (36, 20, 9, 4, 2), None),
    (lambda: bridge.aut_group(build_plain_root_lattice(10)),
     (9, 53, 18, 26, 48, 33, 39), (110, 72, 14, 6, 20, 3, 2), None),
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
        h.update(array("i", [lv.beta, len(lv.orbit_order), len(lv.gens),
                             *lv.orbit_order]).tobytes())
        for g in lv.gens + [lv.orbit[p] for p in lv.orbit_order]:
            h.update(array("i", g).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("chain, digest", [
    (lambda: bridge.oL2_group(build_plain_root_lattice(10)),
     "cb1683d23bd443eeb93e7f5652462abddb1d28752d5123d36d8d245e94d374a9"),
    (lambda: bridge.weyl_group(build_del_pezzo(8)),
     "cb6aea79d15761e63ad35ea239aaf5411ee353c15940422134a728a835fbec51"),
    (lambda: bridge.aut_group(build_del_pezzo(8)),
     "2464bdf2ca956acc39fc36c365641c0c773019b7a3f6c01e0f1b5e6aa0fa8a4d"),
    (lambda: bridge.oL2_group(build_del_pezzo(8)),
     "6b91d11c2d6e168e66b7a6acbc20670726891e418562559cf48580f66dfafd5d"),
    (_sp7_chain,
     "ef4fbcd136e53dcdddb3e060681a2202532775ed95ade981d53ba3868d4bb153"),
    (_quotient5_chain,
     "706d1c7fe846311eb057fc39c551a2f9378f7ac98cf0904c1a305c01427ab088"),
    (lambda: _rho_chain(8, lattice.automorphism_group),
     "d93c4069563891ef527237e50e0d17ed7fc9479a9a4aad19c06528ad64e54086"),
    (lambda: _rho_chain(8, lattice.weyl_generators),
     "1f80be868b50e8dfb280815137c3a5d6e5ce97e06854a2a8e159569389698058"),
    (lambda: _rho_chain(6, lattice.automorphism_group),
     "dc6474727989402dadeeca1d9b336dbcd9f95f8f4f1552f03836bca8557f0384"),
    (lambda: _rho_chain(6, lattice.weyl_generators),
     "e6976dea5284b9fe6d3d1b0c921f0f414ad61a6f4174769acee24dfb67e368e3"),
    (lambda: bridge.aut_group(build_plain_root_lattice(10)),
     "14646d29a78f1982c0dfc33d7f44e71ee953c9fa5e25b91a01f7f3d6cab6fa3b"),
], ids=["A10-OL2", "E8-W", "E8-OL", "E8-OL2", "n7-SpH", "n5-quotient",
        "E8-rhoOL", "E8-rhoW", "E6-rhoOL", "E6-rhoW", "A10-OL"])
def test_chain_pinned(chain, digest):
    """Every level of the chains is bit-identical to the pinned one."""
    assert _chain_digest(chain()) == digest


def _basis_positions(S):
    return [S.nonzero_vectors().index(b) for b in S.basis]


def _package_chains(name):
    """Each chain the package builds for a case, with the known base its
    caller means: the simple roots, or the basis vectors of the space."""
    if name.startswith("rho"):
        n = int(name[3:])
        known = _basis_positions(f2.reduce(build_del_pezzo(n)))
        return [(_rho_chain(n, isometries), known)
                for isometries in (lattice.automorphism_group, lattice.weyl_generators)]
    if name == "n7-SpH":
        _, H = f2.split_radical(f2.reduce(build_del_pezzo(7)))
        return [(_sp7_chain(), _basis_positions(H))]
    if name == "n5-quotient":
        _, H = f2.split_radical(f2.reduce(build_del_pezzo(5)))
        return [(_quotient5_chain(), _basis_positions(H))]
    L = (build_del_pezzo(int(name[2:])) if name.startswith("dP")
         else build_plain_root_lattice(int(name[1:])))
    simple = list(lattice._simple_indices(L))
    return [(bridge.weyl_group(L), simple), (bridge.aut_group(L), simple),
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
def test_f2_chain_matches_the_chain_of_every_permutation(name, monkeypatch):
    """Converting only the maps that do not sift on the basis images keeps
    the chain, level by level, and its generators; the maps converted are
    exactly those that grow it (11 of the 528 reflections for A10)."""
    permutation = f2.permutation
    for S, maps in _f2_chain_inputs(name):
        ref = f2_chain_of_permutations(S, maps)
        converted = []

        def counted(S, images):
            converted.append(images)
            return permutation(S, images)

        with monkeypatch.context() as m:
            m.setattr(f2, "permutation", counted)
            G = bridge._f2_chain(S, maps)
        assert _chain_digest(G) == _chain_digest(ref)
        assert G.generators == ref.generators
        assert len(converted) == len(G.generators)
    if name == "A10":
        assert len(converted) == 11


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
    G, ref = bridge._f2_chain(S, maps), f2_chain_of_permutations(S, maps)
    assert _chain_digest(G) == _chain_digest(ref)
    assert G.generators == ref.generators


# the hyperbolic plane: nonzero vectors 1, 2, 3 at positions 0, 1, 2; the
# map b0 -> 2, b1 -> 3 is a 3-cycle on them
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
    # the 3-cycle with b1 -> 0 in place of b1 -> 3, the last point: a
    # position of -1 read as an index would make it a member
    ((2, 0), "dependent"),
], ids=["outside", "too-few", "too-many", "repeated", "repeated-sum",
        "zero", "zeros", "zero-for-last"])
def test_f2_chain_refuses_malformed_maps(before, bad, match):
    """The basis-image sift never admits a malformed map, whether it comes
    first or after maps that built a nontrivial chain: each is NotIsometry,
    and dependent images, an image of 0 among them, are named as such."""
    assert bridge._f2_chain(_PLANE, before).order() == (3 if before else 1)
    with pytest.raises(errors.NotIsometry, match=match):
        bridge._f2_chain(_PLANE, before + [bad])
