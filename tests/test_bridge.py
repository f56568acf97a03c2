"""Reduction maps and statement verifiers."""

import json

import pytest

from dpmod2 import bridge, errors, f2
from dpmod2.lattice import (automorphism_group, build_del_pezzo,
                            build_plain_root_lattice, enumerate_roots,
                            root_reflection, simple_roots, weyl_generators)
from oracles import report_from_json_dict


def _pointwise(points, image):
    """Reference permutation: the index of image(p) for each point, one by one."""
    index = {p: i for i, p in enumerate(points)}
    return [index[image(p)] for p in points]


@pytest.mark.parametrize("L", [build_del_pezzo(n) for n in range(3, 9)]
                         + [build_plain_root_lattice(8)],
                         ids=lambda L: L.root_type)
def test_batched_permutations_match_pointwise(L):
    """Every generator kind's batched permutation equals the per-point one.

    On the roots the references are the reflection formula on ambient tuples
    and negation; the other kept automorphisms have no formula and are
    checked against the full table of root pairings.
    """
    R = enumerate_roots(L)
    for g, alpha in zip(weyl_generators(L), simple_roots(L), strict=True):
        assert list(g) == _pointwise(R, lambda r: tuple(
            x - L.dot(r, alpha) * a for x, a in zip(r, alpha)))
    minus, *kept = automorphism_group(L)
    assert list(minus) == _pointwise(R, lambda r: tuple(-x for x in r))
    table = [[L.dot(a, b) for b in R] for a in R]
    for g in kept:
        assert sorted(g) == list(range(len(R)))
        assert all([table[g[i]][j] for j in g] == row for i, row in enumerate(table))
    isometries = weyl_generators(L) + automorphism_group(L)
    S = f2.reduce(L)
    maps = [(S, g) for g in f2.orthogonal_generators(S)]
    maps += [(S, bridge.reduce_isometry(L, u)) for u in isometries]
    if len(f2.radical(S)) == 2:
        k, H = f2.split_radical(S)
        if S.q(k) == 1:                          # Sp(H) transvections
            maps += [(H, f2.transvection(H, v)) for v in H.nonzero_vectors()]
        else:                                    # quotient projections
            maps += [(H, f2.induced(S, k, H, g)) for g in f2.orthogonal_generators(S)]
    for space, m in maps:
        assert list(f2.permutation(space, m)) == _pointwise(
            space.nonzero_vectors(), lambda v: f2.apply(space, m, v))


def test_reduce_root_examples():
    L = build_del_pezzo(4)
    # E1 - E2 reduces to e1 + e2
    assert bridge.reduce_root(L, (0, 1, -1, 0, 0)) == 0b00110
    # 2E0 - E0 - E1 - E2 - E3 = E0 - E1 - E2 - E3 reduces to e0+e1+e2+e3
    assert bridge.reduce_root(L, (1, -1, -1, -1, 0)) == 0b01111
    # mod 2 kills the sign
    for r in enumerate_roots(L)[:6]:
        assert bridge.reduce_root(L, r) == bridge.reduce_root(L, tuple(-c for c in r))
    with pytest.raises(errors.NotARoot):
        bridge.reduce_root(L, (1, 0, 0, 0, 0))


@pytest.mark.parametrize("n", range(3, 9))
def test_reduce_root_lands_in_q1(n):
    L = build_del_pezzo(n)
    S = f2.reduce(L)
    for r in enumerate_roots(L):
        assert S.q(bridge.reduce_root(L, r)) == 1


def test_root_preimage_examples():
    L = build_del_pezzo(4)
    assert bridge.root_preimage(L, 0b00110) == (0, 1, -1, 0, 0)
    L8 = build_del_pezzo(8)
    # support {0..8} minus {5}, size 8: 4E0 - E_I - 2E_5
    v = 0b111011111
    assert bridge.root_preimage(L8, v) == (3, -1, -1, -1, -1, -2, -1, -1, -1)
    # n=7: the all-ones vector k has no preimage
    L7 = build_del_pezzo(7)
    with pytest.raises(errors.NoPreimage):
        bridge.root_preimage(L7, 0b11111111)
    # q = 0 vectors are rejected
    with pytest.raises(errors.BadInput):
        bridge.root_preimage(L, 0b00011)  # e0 + e1 has q = 0
    with pytest.raises(errors.BadInput):
        bridge.root_preimage(L, 0b00001)  # odd popcount: not in the space


@pytest.mark.parametrize("n", range(3, 9))
def test_root_preimage_roundtrip(n):
    """reduce_root(root_preimage(v)) = v on all of q^-1(1) (minus k at n=7)."""
    L = build_del_pezzo(n)
    S = f2.reduce(L)
    targets = [v for v in S.vectors() if S.q(v) == 1]
    if n == 7:
        targets.remove(S.ambient_k)
    roots = set(enumerate_roots(L))
    for v in targets:
        r = bridge.root_preimage(L, v)
        assert r in roots
        assert bridge.reduce_root(L, r) == v


def test_root_preimage_plain_lattice():
    A8 = build_plain_root_lattice(8)
    S = f2.reduce(A8)
    assert bridge.root_preimage(A8, 0b011) == (1, -1, 0, 0, 0, 0, 0, 0, 0)
    # a q=1 vector of support size 6 has no preimage in the plain lattice
    v = 0b111111
    assert S.q(v) == 1
    with pytest.raises(errors.NoPreimage):
        bridge.root_preimage(A8, v)


@pytest.mark.parametrize("n", range(3, 9))
def test_reduce_isometry_properties(n):
    L = build_del_pezzo(n)
    S = f2.reduce(L)
    R = enumerate_roots(L)
    assert bridge.reduce_isometry(L, range(len(R))) == S.basis
    assert bridge.reduce_isometry(
        L, [R.index(tuple(-c for c in r)) for r in R]) == S.basis
    # compatibility: reducing the reflection in alpha gives the reflection
    # in the reduction of alpha
    for alpha in enumerate_roots(L):
        s = root_reflection(L, alpha)
        assert bridge.reduce_isometry(L, s) == f2.f2_reflection(S, bridge.reduce_root(L, alpha))


@pytest.mark.parametrize("n", range(3, 9))
def test_reduce_isometry_is_homomorphism(n):
    L = build_del_pezzo(n)
    S = f2.reduce(L)
    gens = automorphism_group(L)
    for u in gens:
        for v in gens:
            # u after v applies v first, like f2.compose
            assert bridge.reduce_isometry(L, tuple(u[i] for i in v)) == f2.compose(
                S, bridge.reduce_isometry(L, u), bridge.reduce_isometry(L, v))


def test_reduce_isometry_rejects_foreign_input():
    L = build_del_pezzo(4)
    with pytest.raises(errors.NotIsometry):
        bridge.reduce_isometry(L, range(40))         # the identity of rank 5
    with pytest.raises(errors.NotIsometry):
        bridge.reduce_isometry(L, "not an isometry")


def _transposition(L):
    p = list(range(len(enumerate_roots(L))))
    p[0], p[1] = p[1], p[0]
    return p


def _out_of_range(L):
    p = list(range(len(enumerate_roots(L))))
    p[-1] = len(p)
    return p


def _negative_entry(L):
    p = list(range(len(enumerate_roots(L))))
    p[0] = -len(p)          # indexing would wrap it to root 0
    return p


@pytest.mark.parametrize("bad", [
    _transposition,
    lambda L: list(range(len(enumerate_roots(L)) - 1)),                 # too short
    _out_of_range,
    _negative_entry,
    lambda L: weyl_generators(build_plain_root_lattice(4))[0],          # also 20 roots
    lambda L: "0123456789",
    lambda L: [float(i) for i in range(len(enumerate_roots(L)))],
], ids=["transposition", "wrong-length", "out-of-range", "negative",
        "A4-reflection", "string", "floats"])
def test_reduce_isometry_rejects_non_isometries(bad):
    """Only root permutations of isometries of this lattice get through."""
    L = build_del_pezzo(4)
    with pytest.raises(errors.NotIsometry):
        bridge.reduce_isometry(L, bad(L))


@pytest.mark.parametrize("n", range(3, 9))
def test_emitted_rho_images_preserve_q(n):
    L = build_del_pezzo(n)
    S = f2.reduce(L)
    for u in automorphism_group(L) + weyl_generators(L):
        g = bridge.reduce_isometry(L, u)
        for v in S.vectors():
            assert S.q(f2.apply(S, g, v)) == S.q(v)


# -- statement reports ---------------------------------------------------------

EXPECT_LEMMA_IMAGE = {3: 4, 4: 10, 5: 20, 6: 36, 7: 63, 8: 120}


@pytest.mark.parametrize("n", range(3, 9))
def test_verify_lemma(n):
    L = build_del_pezzo(n)
    a, b = bridge.verify_lemma(L)
    assert a.statement == "lemma1a" and a.passed
    assert a.numbers["root_image_size"] == EXPECT_LEMMA_IMAGE[n]
    assert b.statement == "lemma1b" and b.passed
    assert b.numbers["kernel_order"] == (4 if n == 3 else 2)
    assert b.numbers["rho_image_order"] == b.numbers["autL_order"] // b.numbers["kernel_order"]


@pytest.mark.parametrize("n", range(3, 9))
def test_verify_prop1(n):
    rep = bridge.verify_prop1(build_del_pezzo(n))
    assert rep.passed
    assert rep.numbers["q1_count"] == {3: 4, 4: 10, 5: 20, 6: 36, 7: 64, 8: 120}[n]


@pytest.mark.parametrize("n", range(4, 9))
def test_verify_prop2(n):
    rep = bridge.verify_prop2(build_del_pezzo(n))
    assert rep.passed
    assert rep.numbers["oL2_order"] == {4: 120, 5: 1920, 6: 51840,
                                        7: 1451520, 8: 348364800}[n]
    assert rep.numbers["rho_image_order"] == rep.numbers["oL2_order"]
    assert rep.numbers["autL_order"] == 2 * rep.numbers["oL2_order"]


def test_verify_prop2_wrong_range():
    with pytest.raises(errors.WrongRange):
        bridge.verify_prop2(build_del_pezzo(3))


@pytest.mark.parametrize("n", range(4, 9))
def test_verify_corollary(n):
    rep = bridge.verify_corollary(build_del_pezzo(n))
    assert rep.passed
    w, o = rep.numbers["weyl_order"], rep.numbers["oL2_order"]
    assert (w == 2 * o) if n in (7, 8) else (w == o)


@pytest.mark.parametrize("verify", [bridge.verify_prop2, bridge.verify_corollary])
def test_wrong_isometry_count_fails_the_report(verify, monkeypatch):
    """prop2 and the corollary compare O(L2) with its basis-image count."""
    monkeypatch.setattr(f2, "isometry_order", lambda S: 1)
    rep = verify(build_del_pezzo(4))
    assert not rep.passed
    assert ("FAIL: the reflections generate O(L2): its basis-image count agrees"
            in rep.witnesses)


def test_verify_corollary_wrong_range():
    with pytest.raises(errors.WrongRange):
        bridge.verify_corollary(build_del_pezzo(3))


def test_verify_remark1():
    rep = bridge.verify_remarks(3)
    assert rep.statement == "remark1" and rep.passed
    assert rep.numbers["autL_order"] == 24
    assert rep.numbers["oL2_order"] == rep.numbers["rho_image_order"] == 6
    assert rep.numbers["kernel_order"] == 4


@pytest.mark.parametrize("rank", (5, 6, 7, 8, 9))
def test_verify_remark2(rank):
    rep = bridge.verify_remarks(rank)
    assert rep.statement == "remark2" and rep.passed
    assert rep.numbers["roots"] == rank * (rank + 1)
    # the root/quadric census comparison fails strictly for every rank here
    assert rep.numbers["roots"] // 2 != rep.numbers["q1_count"]


def test_remark2_orders_match_classical_formulas():
    """A9/A10 reductions give Sp8(F2) and GO10^-(F2); chain orders agree."""
    sp8 = 2 ** 16 * 3 * 15 * 63 * 255
    assert bridge.verify_remarks(9).numbers["oL2_order"] == sp8
    go10 = 2 * 2 ** 20 * 33 * 3 * 15 * 63 * 255
    assert bridge.verify_remarks(10).numbers["oL2_order"] == go10


def test_verify_remark2_a8_numbers():
    rep = bridge.verify_remarks(8)
    assert rep.numbers["roots"] // 2 == 36
    assert rep.numbers["q1_count"] == 120
    assert rep.numbers["autL_order"] == 725760  # 2 * 9!
    assert rep.numbers["oL2_order"] == 348364800
    assert rep.numbers["oL2_order"] > rep.numbers["autL_order"]


@pytest.mark.parametrize("bad", (2, 4, 11))
def test_verify_remarks_out_of_range(bad):
    with pytest.raises(errors.OutOfRange):
        bridge.verify_remarks(bad)


def test_report_json_roundtrip():
    for rep in bridge.reports_for(4) + [bridge.verify_remarks(3)]:
        d = json.loads(json.dumps(rep.to_json_dict()))
        back = report_from_json_dict(d)
        assert back.to_json_dict() == rep.to_json_dict()
        assert back.passed == rep.passed


def test_reports_for_statement_lists():
    assert [r.statement for r in bridge.reports_for(3)] == [
        "lemma1a", "lemma1b", "prop1", "remark1"]
    assert [r.statement for r in bridge.reports_for(5)] == [
        "lemma1a", "lemma1b", "prop1", "prop2", "corollary"]


@pytest.mark.parametrize("n", range(3, 9))
def test_all_reports_pass(n):
    assert all(r.passed for r in bridge.reports_for(n))
