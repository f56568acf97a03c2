"""Mod-2 quadratic spaces: censuses are exhaustive, counts are the oracle."""

import random
import re
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmod2 import bridge, cli, errors, f2, groups, lattice
from dpmod2.lattice import build_del_pezzo, build_plain_root_lattice
from oracles import (completions_eager, isometry_count_bruteforce,
                     orbit_search_unpruned, radical_kernel_bruteforce, searches)

# (q0, q1) for n = 3..8; the q1 column is 4, 10, 20, 36, 64, 120
CENSUS = {3: (4, 4), 4: (6, 10), 5: (12, 20), 6: (28, 36), 7: (64, 64),
          8: (136, 120)}
OL2_ORDERS = {3: 6, 4: 120, 5: 1920, 6: 51840, 7: 1451520, 8: 348364800}
ARF = {4: 1, 6: 1, 8: 0}


def _f2_group(maps, space):
    return groups.PermGroup([f2.permutation(space, m) for m in maps],
                            2 ** space.dim)


def _space(n):
    return f2.reduce(build_del_pezzo(n))


@pytest.mark.parametrize("n", range(3, 9))
def test_reduce_shape(n):
    S = _space(n)
    assert S.dim == n
    assert S.width == n + 1
    # members are exactly the even-popcount masks
    assert all(v.bit_count() % 2 == 0 for v in S.vectors())
    assert len(S.vectors()) == 2 ** n


@pytest.mark.parametrize("n", range(3, 9))
def test_radicals(n):
    S = _space(n)
    rad = f2.radical(S)
    if n % 2 == 0:
        assert rad == [0]
    else:
        assert rad == [0, S.ambient_k]
        assert S.q(S.ambient_k) == {3: 1, 5: 0, 7: 1}[n]


def test_q_on_coordinate_pairs():
    """q(e0+ei) = 0 and q(ei+ej) = 1 for 0 < i < j, in every rank."""
    for n in range(3, 9):
        S = _space(n)
        for i in range(1, n + 1):
            assert S.q(1 | (1 << i)) == 0
            for j in range(i + 1, n + 1):
                assert S.q((1 << i) | (1 << j)) == 1
        assert S.q(0) == 0


def test_q_not_in_space():
    S = _space(4)
    with pytest.raises(errors.BadInput):
        S.q(1)  # odd popcount
    with pytest.raises(errors.BadInput):
        S.pair(1, 0)
    with pytest.raises(errors.BadInput):
        S.pair(0, 1)


@pytest.mark.parametrize("mask", [2.5, 3.0, [3], "3", None, True],
                         ids=["fractional", "float", "list", "str", "None", "bool"])
def test_lookup_rejects_non_int_masks(mask):
    S = _space(4)
    for lookup in (S.q, S.coords, lambda v: S.pair(v, 0), lambda v: S.pair(0, v)):
        with pytest.raises(errors.BadInput, match=re.escape(f"mask {mask!r} is not")):
            lookup(mask)


@pytest.mark.parametrize("call", [
    lambda S: S.contains([3]),
    lambda S: S.contains(3.0),
    lambda S: f2.transvection(S, [3]),
], ids=["contains-list", "contains-float", "transvection-list"])
def test_contains_and_from_coords_reject_bad_input(call):
    """Non-int masks are BadInput, not a bare TypeError or a float answer."""
    S = _space(4)
    assert S.dim == 4
    with pytest.raises(errors.BadInput):
        call(S)


def test_not_in_space_message_names_the_mask():
    S = _space(4)
    for mask in (1, -3, 1 << 40):
        for lookup in (S.q, S.coords):
            with pytest.raises(errors.BadInput, match=f"mask {mask} is not in"):
                lookup(mask)


@pytest.mark.parametrize("n", range(3, 9))
def test_value_census(n):
    S = _space(n)
    census = f2.value_census(S)
    assert census == CENSUS[n]
    assert sum(census) == 2 ** n


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_polarization_exhaustive(n):
    S = _space(n)
    vecs = S.vectors()
    for x in vecs:
        for y in vecs:
            assert S.q(x ^ y) == (S.q(x) ^ S.q(y) ^ S.pair(x, y))


@pytest.mark.parametrize("n", (7, 8))
def test_polarization_random(n):
    S = _space(n)
    vecs = S.vectors()
    rng = random.Random(n)
    for _ in range(10_000):
        x, y = rng.choice(vecs), rng.choice(vecs)
        assert S.q(x ^ y) == (S.q(x) ^ S.q(y) ^ S.pair(x, y))


@pytest.mark.parametrize("n", range(3, 9))
def test_q_well_defined_on_lifts(n):
    """Any two lifts differing by 2*(lattice vector) give the same q."""
    L = build_del_pezzo(n)
    S = _space(n)
    rng = random.Random(100 + n)
    for _ in range(20):
        x = [rng.randint(-2, 2) for _ in range(n)]
        lift = [sum(xi * b[j] for xi, b in zip(x, L.basis))
                for j in range(L.width)]
        y = [rng.randint(-2, 2) for _ in range(n)]
        other = [l + 2 * sum(yi * b[j] for yi, b in zip(y, L.basis))
                 for j, l in enumerate(lift)]
        q1 = (L.dot(tuple(lift), tuple(lift)) // 2) % 2
        q2 = (L.dot(tuple(other), tuple(other)) // 2) % 2
        assert q1 == q2 == S.q(f2._mask(lift))


@pytest.mark.parametrize("n", (4, 6, 8))
def test_symplectic_basis_and_arf(n):
    S = _space(n)
    sb = f2.symplectic_basis(S)
    m = n // 2
    assert len(sb) == m
    vecs = [v for xy in sb for v in xy]
    for i, (x, y) in enumerate(sb):
        assert S.pair(x, y) == 1
        for j, (x2, y2) in enumerate(sb):
            if i != j:
                assert S.pair(x, x2) == S.pair(x, y2) == S.pair(y, y2) == 0
    assert len({v for v in vecs}) == n
    a = f2.arf(S)
    assert a == ARF[n]
    # census identity: count_q1 = 2^(m-1) (2^m - (-1)^arf)
    q0, q1 = f2.value_census(S)
    assert q1 == 2 ** (m - 1) * (2 ** m - (-1) ** a)
    # arf equals the majority value
    assert a == (1 if q1 > q0 else 0)


def test_arf_disagreeing_with_the_census_is_a_failed_check(monkeypatch, capsys):
    """arf checks its symplectic-basis sum against the census identity, so
    every report that prints it fails when the two disagree.  arf is
    computed once per space, and the reports and table compute each
    lattice's census once, in bridge._census, so both caches are cleared
    around the perturbed run."""
    census = f2.value_census
    monkeypatch.setattr(f2, "value_census", lambda S: (census(S)[0] - 1,
                                                       census(S)[1] + 1))
    f2.arf.cache_clear()
    bridge._census.cache_clear()
    try:
        with pytest.raises(errors.CrossCheckFailed, match="census"):
            f2.arf(_space(4))
        assert cli.run(["table"]) == 1
    finally:
        f2.arf.cache_clear()
        bridge._census.cache_clear()
    assert "check failed with CrossCheckFailed" in capsys.readouterr().err


@pytest.mark.parametrize("n", (4, 6, 8))
def test_explicit_symplectic_basis(n):
    """The textbook vectors d_k = e_0+..+e_{2k-1}, eps_k = e_0+..+e_{2k-2}+e_{2k}
    form a symplectic basis with q = 0 for k odd and 1 for k even."""
    S = _space(n)
    m = n // 2
    deltas = [(1 << (2 * k)) - 1 for k in range(1, m + 1)]
    epsilons = [((1 << (2 * k - 1)) - 1) | (1 << (2 * k)) for k in range(1, m + 1)]
    # q alternates: 0 for k odd, 1 for k even
    for k in range(1, m + 1):
        expected = 0 if k % 2 else 1
        assert S.q(deltas[k - 1]) == expected
        assert S.q(epsilons[k - 1]) == expected
    for a in range(m):
        for b in range(m):
            assert S.pair(deltas[a], deltas[b]) == 0
            assert S.pair(epsilons[a], epsilons[b]) == 0
            assert S.pair(deltas[a], epsilons[b]) == (1 if a == b else 0)
    # the explicit basis gives the same Arf sum
    a_sum = sum(S.q(d) & S.q(e) for d, e in zip(deltas, epsilons)) & 1
    assert a_sum == ARF[n]


@pytest.mark.parametrize("n", (3, 5, 7))
def test_symplectic_basis_degenerate(n):
    with pytest.raises(errors.WrongShape):
        f2.symplectic_basis(_space(n))
    with pytest.raises(errors.WrongShape):
        f2.arf(_space(n))


@pytest.mark.parametrize("n", (4, 6, 8))
def test_arf_basis_independence(n):
    """Ten randomized symplectic bases (random isometry images) agree on arf."""
    S = _space(n)
    sb = f2.symplectic_basis(S)
    gens = f2.orthogonal_generators(S)
    rng = random.Random(n)
    for _ in range(10):
        g = S.basis
        for _ in range(rng.randint(1, 6)):
            g = f2._compose(S, g, rng.choice(gens))
        moved = [(f2._apply(S, g, x), f2._apply(S, g, y)) for x, y in sb]
        # isometry images form another symplectic basis
        for i, (x, y) in enumerate(moved):
            assert S.pair(x, y) == 1
        a = sum(S.q(x) & S.q(y) for x, y in moved) & 1
        assert a == ARF[n]


@pytest.mark.parametrize("n", (3, 7))
def test_involution_swaps_census(n):
    """v -> v + k exchanges q = 1 and q = 0 when q(k) = 1."""
    S = _space(n)
    k = S.ambient_k
    assert S.q(k) == 1
    for v in S.vectors():
        assert S.q(v ^ k) == S.q(v) ^ 1
    q0, q1 = f2.value_census(S)
    assert q0 == q1 == 2 ** (n - 1)


@pytest.mark.parametrize("n", range(3, 9))
def test_reflections(n):
    S = _space(n)
    rng = random.Random(n)
    ones = [v for v in S.vectors() if S.q(v) == 1]
    for v in rng.sample(ones, 3):
        r = f2.f2_reflection(S, v)
        assert f2._compose(S, r, r) == S.basis
        for x in S.vectors():
            y = f2._apply(S, r, x)
            assert S.q(y) == S.q(x)
            if S.pair(x, v) == 0:
                assert y == x
    zeros = [v for v in S.vectors() if S.q(v) == 0]
    with pytest.raises(errors.BadInput):
        f2.f2_reflection(S, zeros[0])


@pytest.mark.parametrize("n", (3, 7))
def test_reflection_in_k_is_identity(n):
    S = _space(n)
    assert f2.f2_reflection(S, S.ambient_k) == S.basis


@pytest.mark.parametrize("n", range(3, 9))
def test_orthogonal_generator_orders(n):
    S = _space(n)
    gens = f2.orthogonal_generators(S)
    G = _f2_group(gens, S)
    assert G.degree == 2 ** n
    assert G.order() == OL2_ORDERS[n]


def _sp_order(m):
    """|Sp_2m(F2)| = 2^(m^2) prod_{i=1..m} (4^i - 1)."""
    out = 2 ** (m * m)
    for i in range(1, m + 1):
        out *= 4 ** i - 1
    return out


def _go_order(m, eps):
    """|GO_2m^eps(F2)| = 2 * 2^(m(m-1)) (2^m - eps) prod_{i<m} (4^i - 1)."""
    out = 2 * 2 ** (m * (m - 1)) * (2 ** m - eps)
    for i in range(1, m):
        out *= 4 ** i - 1
    return out


def test_orders_match_classical_formulas():
    """Independent oracle: the chain orders equal the textbook group orders.

    For odd n with q(k) = 1 the group is Sp_{n-1}(F2); for even n it is the
    full orthogonal group of the type given by the census sign.
    """
    assert OL2_ORDERS[3] == _sp_order(1)
    assert OL2_ORDERS[7] == _sp_order(3)
    assert OL2_ORDERS[4] == _go_order(2, -1)   # minus type (arf majority 1)
    assert OL2_ORDERS[6] == _go_order(3, -1)
    assert OL2_ORDERS[8] == _go_order(4, +1)   # plus type (arf majority 0)
    # n = 5: radical with q(k) = 0, so the group is 2^4 x the quotient group
    assert OL2_ORDERS[5] == 2 ** 4 * _go_order(2, -1)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_reflection_group_is_full_isometry_group(n):
    """Brute-force isometry count (independent oracle) for dim <= 5."""
    S = _space(n)
    gens = f2.orthogonal_generators(S)
    G = _f2_group(gens, S)
    assert (G.order() == f2.isometry_order(S) == isometry_count_bruteforce(S)
            == OL2_ORDERS[n])


@pytest.mark.parametrize("n", range(3, 9))
def test_emitted_isometries_preserve_q_exhaustively(n):
    S = _space(n)
    for g in f2.orthogonal_generators(S):
        for v in S.vectors():
            assert S.q(f2._apply(S, g, v)) == S.q(v)


def test_exception_check_n4():
    """The rank-4 space has no totally singular plane: prop2's n = 4
    sub-checks pass on the five nonzero singular vectors k + e0, e0 + e_i."""
    L = build_del_pezzo(4)
    rep = bridge.verify_prop2(L)
    assert rep.passed
    assert rep.witnesses == ["nonzero singular vectors: 5"]
    S = f2.reduce(L)
    k = S.ambient_k
    sing = {v for v in S.vectors() if v and S.q(v) == 0}
    assert sing == {k ^ 1} | {1 | (1 << i) for i in range(1, 5)}


def test_sp_model_n7():
    """O(L2) = Sp(H) at n = 7, where q(k) = 1, through split_radical and
    induced."""
    S = _space(7)
    k, H = f2.split_radical(S)
    assert k == S.ambient_k and S.q(k) == 1
    assert H.dim == 6
    # L2 = H + F2 k: k outside H, together they span
    assert not H.contains(k)
    assert f2.radical(H) == [0]
    # the projection along k keeps the member with k's top bit clear
    assert all(H.contains(min(x, x ^ k)) for x in S.vectors())
    tgens = [f2.transvection(H, v) for v in H.nonzero_vectors()]
    SpG = _f2_group(tgens, H)
    assert SpG.order() == 1451520  # |Sp6(F2)|, matches the classical formula
    # the classical order formula: 2^(m^2) * prod (4^i - 1)
    m = 3
    formula = 2 ** (m * m)
    for i in range(1, m + 1):
        formula *= 4 ** i - 1
    assert SpG.order() == formula
    # induced is a homomorphism on reflection generator pairs
    gens = f2.orthogonal_generators(S)[:6]
    for u in gens:
        for v in gens:
            assert f2.induced(S, k, H, f2._compose(S, u, v)) == f2._compose(
                H, f2.induced(S, k, H, u), f2.induced(S, k, H, v))
    # transvection at v corresponds to the reflection at v + (1+q(v))k: the
    # reflection at v itself when q(v) = 1, at v + k when q(v) = 0
    assert {S.q(v) for v in H.nonzero_vectors()} == {0, 1}
    for v in H.nonzero_vectors():
        r = f2.f2_reflection(S, v if S.q(v) else v ^ k)
        assert f2.induced(S, k, H, r) == f2.transvection(H, v)


def test_sp_model_n3():
    S = _space(3)
    k, H = f2.split_radical(S)
    tgens = [f2.transvection(H, v) for v in H.nonzero_vectors()]
    SpG = _f2_group(tgens, H)
    assert SpG.order() == 6  # Sp2(F2) = S3


@pytest.mark.parametrize("n", (6, 8))
def test_split_radical_wrong_shape(n):
    """Even n has a trivial radical, so there is no k to split off."""
    with pytest.raises(errors.WrongShape):
        f2.split_radical(_space(n))


@pytest.mark.parametrize("n", (4, 5))
def test_sp_model_wrong_shape(n):
    """O(L2) = Sp(H) needs a radical {0, k} with q(k) = 1.  At n = 4 the
    radical is trivial.  At n = 5, q(k) = 0, so q descends along k: every
    induced reflection is an isometry of (H, q), and induced refuses a map
    that breaks q."""
    S = _space(n)
    if n == 4:
        with pytest.raises(errors.WrongShape):
            f2.split_radical(S)
        return
    k, H = f2.split_radical(S)
    assert S.q(k) == 0
    for g in f2.orthogonal_generators(S):
        m = f2.induced(S, k, H, g)
        assert f2.check_isometry(H, m) == m
    v = next(v for v in H.nonzero_vectors() if S.q(v) == 0)
    with pytest.raises(errors.NotIsometry, match="q is not preserved"):
        f2.induced(S, k, H, f2.transvection(S, v))


def test_quotient_model_n5():
    """O(L2) onto O(L2/k) at n = 5, where q(k) = 0: H represents the
    quotient and induced is the projection."""
    S = _space(5)
    k, N = f2.split_radical(S)
    assert k == S.ambient_k and S.q(k) == 0
    assert N.dim == 4
    # the section is spanned by e_i + e_j for i < j < 5 (top bit clear)
    assert all(v >> 5 == 0 for v in N.vectors())
    assert f2.value_census(N) == f2.value_census(_space(4)) == (6, 10)
    assert f2.radical(N) == [0]
    # 2 * quotient census = the full census
    assert f2.value_census(S)[1] == 2 * f2.value_census(N)[1] == 20
    kernel = radical_kernel_bruteforce(S, k)
    assert len(kernel) == 16
    for u in kernel:
        assert f2.induced(S, k, N, u) == N.basis
        for v in S.vectors():
            assert f2._apply(S, u, v) in (v, v ^ k)
    # induced is a homomorphism on reflection generator pairs
    gens = f2.orthogonal_generators(S)[:6]
    for u in gens:
        for v in gens:
            assert f2.induced(S, k, N, f2._compose(S, u, v)) == f2._compose(
                N, f2.induced(S, k, N, u), f2.induced(S, k, N, v))


@pytest.mark.parametrize("n", (4, 7))
def test_quotient_model_wrong_shape(n):
    """O(L2) onto O(L2/k) needs a radical {0, k} with q(k) = 0.  At n = 4
    the radical is trivial.  At n = 7, q(k) = 1, so q does not descend: every
    induced reflection keeps the pairing, and some fails check_isometry."""
    S = _space(n)
    if n == 4:
        with pytest.raises(errors.WrongShape):
            f2.split_radical(S)
        return
    k, H = f2.split_radical(S)
    assert S.q(k) == 1
    failures = 0
    for g in f2.orthogonal_generators(S):
        m = f2.induced(S, k, H, g)
        assert f2.check_symplectic(H, m) == m
        try:
            f2.check_isometry(H, m)
        except errors.NotIsometry:
            failures += 1
    assert failures > 0


def test_hyperbolic_plane_arf_zero():
    """A hyperbolic plane with q = 0 on both basis vectors has arf 0."""
    S = f2.space_from_gram(((4, 1), (1, 4)))  # q(b0) = q(b1) = 0, (b0|b1) = 1
    assert S.qdiag == (0, 0)
    assert len(f2.symplectic_basis(S)) == 1
    assert f2.arf(S) == 0
    assert f2.value_census(S) == (3, 1)


def test_space_from_gram_intrinsic_model():
    # A2: two singular-1 basis vectors pairing to 1; isometry group S3
    A2 = ((2, -1), (-1, 2))
    S = f2.space_from_gram(A2)
    assert f2.value_census(S) == (1, 3)
    assert isometry_count_bruteforce(S) == 6
    # A1: one-dimensional, only the identity preserves q
    S1 = f2.space_from_gram(((2,),))
    assert isometry_count_bruteforce(S1) == 1


@st.composite
def _even_gram(draw, max_dim=6):
    """A symmetric integer matrix of size <= max_dim with an even diagonal."""
    n = draw(st.integers(1, max_dim))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2 * draw(st.integers(-2, 3))
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    return gram


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_even_gram())
def test_space_from_gram_forms(gram):
    """q, the pairing and the radical against the integer Gram matrix."""
    S = f2.space_from_gram(gram)
    n = len(gram)
    vecs = S.vectors()
    assert vecs == list(range(1 << n))

    def form(x, y):  # x^T G y on coordinate bits, over the integers
        return sum(gram[i][j] for i in range(n) for j in range(n)
                   if x >> i & 1 and y >> j & 1)

    for x in vecs:
        assert S.q(x) == form(x, x) // 2 % 2
        assert S.pair(x, x) == 0
        for y in vecs:
            assert S.pair(x, y) == S.pair(y, x) == form(x, y) % 2
            assert S.q(x ^ y) == S.q(x) ^ S.q(y) ^ S.pair(x, y)
    rad = [x for x in vecs if all(form(x, y) % 2 == 0 for y in vecs)]
    assert f2.radical(S) == rad
    if rad == [0]:
        m = n // 2
        a = f2.arf(S)
        q0, q1 = f2.value_census(S)
        assert q1 == 2 ** (m - 1) * (2 ** m - (-1) ** a)
        assert a == (1 if q1 > q0 else 0)


@pytest.mark.parametrize("L", [build_del_pezzo(n) for n in range(3, 9)]
                         + [build_plain_root_lattice(r) for r in range(5, 11)],
                         ids=lambda L: L.root_type)
def test_isometry_order_equals_reflection_group_order(L):
    """The q = 1 reflections generate all of O(L2): the chain's order equals
    the backtracking count over basis images."""
    assert f2.isometry_order(f2.reduce(L)) == bridge.oL2_group(L).order()


@pytest.mark.parametrize("rank", (4, 5))
def test_isometry_order_equals_bruteforce(rank):
    """Plain A4 is nondegenerate mod 2, A5 has a radical."""
    S = f2.reduce(build_plain_root_lattice(rank))
    assert f2.isometry_order(S) == isometry_count_bruteforce(S)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_even_gram(max_dim=4))
def test_isometry_order_equals_bruteforce_on_random_forms(gram):
    """Degenerate forms included: their pairings do not force independence."""
    S = f2.space_from_gram(gram)
    assert f2.isometry_order(S) == isometry_count_bruteforce(S)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_even_gram(max_dim=5))
def test_isometry_order_pruned_matches_unpruned_on_random_forms(gram):
    """Pruning keeps every level's count on random forms, degenerate ones
    included."""
    S = f2.space_from_gram(gram)

    def run():
        return f2.isometry_order.__wrapped__(S)

    (pruned, _), = searches(run)
    (unpruned, _), = searches(run, orbit_search_unpruned)
    assert pruned == unpruned


def _isometry_search_inputs(S):
    """The rows and allowed masks isometry_order hands to
    groups.orbit_search, read after the search has run."""
    seen, search = [], groups.orbit_search

    def spy(rows, allowed, *args, **kwargs):
        seen.append((rows, allowed))
        return search(rows, allowed, *args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(groups, "orbit_search", spy)
        f2.isometry_order.__wrapped__(S)
    (inputs,) = seen
    return inputs


def test_isometry_order_work_pinned():
    """On A10 the pruned search finds 12 elements, against 1,053 without
    pruning, and builds 26 of the 1,024 pairing rows: a search that stops
    pruning, or tables built eagerly over every point, fail here, without
    timing anything."""
    S = f2.reduce(build_plain_root_lattice(10))
    (lengths, solutions), = searches(lambda: f2.isometry_order.__wrapped__(S))
    assert lengths == (528, 272, 135, 64, 28, 12, 5, 4, 3, 2)
    assert sum(map(len, solutions)) == 12
    rows, _ = _isometry_search_inputs(S)
    assert len(rows) == 26


def _check_search_tables(S, every_row):
    """isometry_order's candidates and pairing rows against S.q and S.pair,
    each vector at the point of its coordinate bits: the rows the search
    built, and with every_row all 2^dim of them."""
    rows, allowed = _isometry_search_inputs(S)
    vectors = S.vectors()
    point = {v: S._coords[v] for v in vectors}
    assert allowed == [sum(1 << point[v] for v in vectors if v and S.q(v) == qb)
                       for qb in S.qdiag]
    if every_row:
        for v in vectors:
            rows[point[v]]
        assert len(rows) == len(vectors)
    assert rows
    vector = {c: v for v, c in point.items()}
    for c, row in rows.items():
        assert row == {x: sum(1 << point[v] for v in vectors
                              if S.pair(vector[c], v) == x) for x in (0, 1)}


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_even_gram(max_dim=5))
def test_isometry_search_tables_on_random_forms(gram):
    """The q = 1 bitset and every pairing row, built on demand or not, on
    random forms, degenerate ones included."""
    _check_search_tables(f2.space_from_gram(gram), every_row=True)


@pytest.mark.parametrize(
    "L", [build_del_pezzo(n) for n in range(3, 9)]
    + [build_plain_root_lattice(r) for r in range(2, 11)],
    ids=[f"dP{n}" for n in range(3, 9)] + [f"A{r}" for r in range(2, 11)])
def test_isometry_search_tables_on_the_lattices(L):
    """The same on the 15 reductions, in the ambient model: the rows the
    search built, and all of them up to 2^7."""
    S = f2.reduce(L)
    _check_search_tables(S, every_row=S.dim <= 7)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_even_gram(max_dim=5), st.data())
def test_completions_match_the_eager_reference_on_random_forms(gram, data):
    """groups.completions takes its candidates straight from the mask and
    yields the same assignments, in the same order, as the eager version
    that listed them first: the basis-image assignments keeping q and the
    pairing (the first 200 of them: a degenerate form has up to 2^20), with
    and without the independence test, from no image or one fixed."""
    S = f2.space_from_gram(gram)
    vecs = S.vectors()
    rows = [{x: sum(1 << w for w in vecs if S.pair(v, w) == x) for x in (0, 1)}
            for v in vecs]
    allowed = [sum(1 << v for v in vecs if v and S.q(v) == qb) for qb in S.qdiag]
    images = [-1] * S.dim
    t = data.draw(st.integers(-1, S.dim - 1))
    if t >= 0 and allowed[t]:
        images[t] = data.draw(st.sampled_from(groups._bit_indices(allowed[t])))
    for keep in (None, lambda im: f2._independent(c for c in im if c >= 0)):
        new = groups.completions(rows, allowed, S.gram2, list(images), keep)
        ref = completions_eager(rows, allowed, S.gram2, list(images), keep)
        assert list(islice(new, 200)) == list(islice(ref, 200))


def test_isometry_order_tests_independence():
    """With q = 1 on both basis vectors and the zero pairing, only the
    identity and the swap are isometries; b0 -> b1, b1 -> b1 keeps every
    pairing and q on the basis but is not invertible."""
    assert f2.isometry_order(f2.space_from_gram([[2, 0], [0, 2]])) == 2


def _component_spaces():
    L = build_del_pezzo(3)
    return [f2.space_from_gram(lattice.component_isometries(L, comp)[1])
            for comp in lattice.root_components(L)]


@pytest.mark.parametrize(
    "S", [f2.reduce(build_del_pezzo(n)) for n in range(3, 9)]
    + [f2.reduce(build_plain_root_lattice(r)) for r in range(2, 11)]
    + _component_spaces(),
    ids=[f"dP{n}" for n in range(3, 9)] + [f"A{r}" for r in range(2, 11)]
    + ["A1-component", "A2-component"])
def test_orthogonal_order_equals_isometry_order(S):
    """The closed form against the basis-image count: nondegenerate spaces
    (dP4, dP6, dP8, A2, A4, ...), q(k) = 1 (dP3, dP7, A1 with dim H = 0, ...)
    and q(k) = 0 (dP5, A3, A7, ...)."""
    assert f2.orthogonal_order(S) == f2.isometry_order(S)


def test_orthogonal_order_wrong_shape():
    """A1 x A1 has the zero pairing mod 2: its radical has dimension 2."""
    with pytest.raises(errors.WrongShape):
        f2.orthogonal_order(f2.space_from_gram([[2, 0], [0, 2]]))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_even_gram(max_dim=5))
def test_orthogonal_order_on_random_forms(gram):
    """The closed form wherever the radical has at most two elements, and
    WrongShape wherever it has more."""
    S = f2.space_from_gram(gram)
    if len(f2.radical(S)) > 2:
        with pytest.raises(errors.WrongShape):
            f2.orthogonal_order(S)
    else:
        assert f2.orthogonal_order(S) == f2.isometry_order(S)


def test_intrinsic_and_ambient_models_agree():
    """coords() takes an ambient mask to the intrinsic mask of the same
    vector; the XOR of the ambient basis over its bits goes back."""
    L = build_del_pezzo(4)
    amb = f2.reduce(L)
    intr = f2.space_from_gram(L.gram)

    def ambient(bits):
        m = 0
        for i in groups._bit_indices(bits):
            m ^= amb.basis[i]
        return m

    for v in amb.vectors():
        bits = amb.coords(v)
        assert intr.q(bits) == amb.q(v)
        assert ambient(bits) == v
    for x in intr.vectors():
        for y in intr.vectors():
            assert intr.pair(x, y) == amb.pair(ambient(x), ambient(y))


def test_plain_lattice_reduction():
    """The A8 space has the same census as the E8 one (120 q=1 vectors)."""
    S = f2.reduce(build_plain_root_lattice(8))
    assert S.dim == 8
    assert f2.value_census(S) == (136, 120)


def test_space_json_dict():
    S = _space(4)
    d = S.to_json_dict()
    assert d["dim"] == 4 and d["width"] == 5
    assert len(d["bilinear"]) == 4 and len(d["qdiag"]) == 4


def test_isometry_validation_rejects_bad_maps():
    S = _space(4)
    b = S.basis
    # swapping two basis vectors with different q values breaks q (every
    # basis permutation keeps this pairing: gram2 is all ones off the diagonal)
    assert S.qdiag[0] != S.qdiag[3]
    swapped = (b[3], b[1], b[2], b[0])
    assert f2.check_symplectic(S, swapped) == swapped
    with pytest.raises(errors.NotIsometry, match="q is not preserved"):
        f2.check_isometry(S, swapped)
    # dependent images are rejected, repeated or not
    with pytest.raises(errors.NotIsometry, match="dependent"):
        f2.check_isometry(S, (b[0], b[0]) + b[2:])
    with pytest.raises(errors.NotIsometry, match="dependent"):
        f2.check_symplectic(S, (b[0], b[1], b[0] ^ b[1]) + b[3:])
    with pytest.raises(errors.NotIsometry, match="dependent"):
        f2.check_symplectic(S, (b[0] ^ b[1], b[1] ^ b[2], b[0] ^ b[2]) + b[3:])
    # one image per basis vector
    for images in (b[:-1], b + b[:1]):
        with pytest.raises(errors.NotIsometry, match="one image"):
            f2.check_symplectic(S, images)
    # image masks off the space: odd popcount, and at or beyond 2**width
    for m in (1, 1 << S.width, b[0] | 1 << S.width):
        with pytest.raises(errors.NotIsometry, match="outside"):
            f2.check_symplectic(S, (m,) + b[1:])
    # images are int masks: a float, str or bool is not coerced, also where
    # the int it would become is in the space (mask 1 of the plane)
    P = f2.space_from_gram([[0, 1], [1, 0]])
    assert f2.check_symplectic(P, (1, 2)) == (1, 2)
    for space, images in [(S, (m,) + b[1:])
                          for m in (b[0] + 0.7, float(b[0]), str(b[0]))] + [
                          (P, (True, 2))]:
        for check in (f2.check_symplectic, f2.check_isometry):
            with pytest.raises(errors.NotIsometry, match="not an int"):
                check(space, images)
    for check in (f2.check_symplectic, f2.check_isometry):
        with pytest.raises(errors.NotIsometry, match="not a sequence"):
            check(S, None)


def test_permutation_rejects_bad_images():
    """permutation checks the count, membership and independence of the
    images; the identity fixes every coordinate bits, 0 among them."""
    S = _space(4)
    b = S.basis
    assert f2.permutation(S, b) == tuple(range(2 ** S.dim))
    for images in (b + b[:1], b[:-1]):
        with pytest.raises(errors.NotIsometry, match="one image per basis vector"):
            f2.permutation(S, images)
    for m in (1, 1 << S.width, b[0] | 1 << S.width):
        with pytest.raises(errors.NotIsometry, match="image outside the space"):
            f2.permutation(S, (m,) + b[1:])
    P = f2.space_from_gram([[0, 1], [1, 0]])
    for space, images in [(S, (m,) + b[1:])
                          for m in (b[0] + 0.7, float(b[0]), str(b[0]))] + [
                          (P, (True, 2)), (P, (1, 2.0))]:
        with pytest.raises(errors.NotIsometry, match="not an int"):
            f2.permutation(space, images)
    with pytest.raises(errors.NotIsometry, match="not a sequence"):
        f2.permutation(S, None)
    # b[0] + b[0] = 0 would be the image of a nonzero vector
    with pytest.raises(errors.NotIsometry, match="images are linearly dependent"):
        f2.permutation(S, (b[0], b[0]) + b[2:])


def test_isometry_is_symplectic_map_with_q_check():
    """A transvection at a q = 0 vector keeps the pairing but not q."""
    S = _space(4)
    v = next(v for v in S.nonzero_vectors() if S.q(v) == 0)
    t = f2.transvection(S, v)
    assert f2.check_symplectic(S, t) == t
    with pytest.raises(errors.NotIsometry, match="q is not preserved"):
        f2.check_isometry(S, t)
    w = next(v for v in S.nonzero_vectors() if S.q(v) == 1)
    r = f2.f2_reflection(S, w)
    assert r == f2.transvection(S, w)
    assert f2.check_isometry(S, r) == r
    # independent images that break the pairing: (b1 | b3 + b0) = 0, not 1
    b = S.basis
    with pytest.raises(errors.NotIsometry, match="pairing"):
        f2.check_symplectic(S, b[:3] + (b[3] ^ b[0],))
