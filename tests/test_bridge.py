"""Reduction maps and statement verifiers."""

import hashlib
import json
import re

import pytest

from dpmod2 import bridge, cli, errors, f2, groups
from dpmod2 import lattice as lat
from dpmod2.lattice import (automorphism_group, build_del_pezzo,
                            build_plain_root_lattice, enumerate_roots,
                            minus_one, root_reflection, simple_roots,
                            weyl_generators)
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
    checked against the full table of root pairings.  On the mod-2 points
    the permutation is the generator that f2._chain adds for a map that is
    not the identity, and the reference is f2._apply, one vector at a time.
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
            maps += [(H, f2._transvection(H, v)) for v in H.nonzero_vectors()]
        else:                                    # quotient projections
            maps += [(H, f2.induced(S, k, H, g)) for g in f2.orthogonal_generators(S)]
    # the mod-2 points are the vectors in the order of their coordinate bits
    for space, m in maps:
        points = sorted(space.vectors(), key=space.coords)
        added = f2._chain(space, [m]).generators
        assert added == ([] if m == space.basis else [tuple(_pointwise(
            points, lambda v: f2._apply(space, m, v)))])


def test_reduce_root_examples():
    L = build_del_pezzo(4)
    # E1 - E2 reduces to e1 + e2
    assert bridge.reduce_root(L, (0, 1, -1, 0, 0)) == 0b00110
    # 2E0 - E0 - E1 - E2 - E3 = E0 - E1 - E2 - E3 reduces to e0+e1+e2+e3
    assert bridge.reduce_root(L, (1, -1, -1, -1, 0)) == 0b01111
    # mod 2 kills the sign
    for r in enumerate_roots(L)[:6]:
        assert bridge.reduce_root(L, r) == bridge.reduce_root(L, tuple(-c for c in r))
    # an iterator is read once, as the tuple it yields
    assert bridge.reduce_root(L, iter((0, 1, -1, 0, 0))) == 0b00110
    with pytest.raises(errors.BadInput):
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
        targets.remove(f2._mask(L.K))
    roots = set(enumerate_roots(L))
    for v in targets:
        r = bridge.root_preimage(L, v)
        assert r in roots
        assert bridge.reduce_root(L, r) == v


def test_root_preimage_checks_the_class_of_its_root(monkeypatch):
    """A case table that builds a root over another vector is refused: here
    every support reads as {1, 2}, so the q = 1 vector e3 + e4 of dP4 would
    get the root E1 - E2."""
    L = build_del_pezzo(4)
    assert bridge.root_preimage(L, 0b11000) == (0, 0, 0, 1, -1)
    monkeypatch.setattr(groups, "_bit_indices", lambda mask: [1, 2])
    with pytest.raises(errors.CrossCheckFailed, match="not a root over 0x18"):
        bridge.root_preimage(L, 0b11000)


def test_root_preimage_plain_lattice():
    A8 = build_plain_root_lattice(8)
    S = f2.reduce(A8)
    assert bridge.root_preimage(A8, 0b011) == (1, -1, 0, 0, 0, 0, 0, 0, 0)
    # a q=1 vector of support size 6 has no preimage in the plain lattice
    v = 0b111111
    assert S.q(v) == 1
    with pytest.raises(errors.NoPreimage):
        bridge.root_preimage(A8, v)


def test_root_preimage_pinned():
    """sha256 over (v, root or exception class name) for every q = 1 vector
    v in ascending order, on dP3..8 and A2..A10: the roundtrip tests accept
    any root over v, this pins which one the case table returns."""
    h = hashlib.sha256()
    for L in ([build_del_pezzo(n) for n in range(3, 9)]
              + [build_plain_root_lattice(r) for r in range(2, 11)]):
        S = f2.reduce(L)
        for v in sorted(v for v in S.vectors() if S.q(v) == 1):
            try:
                out = bridge.root_preimage(L, v)
            except errors.NoPreimage as exc:
                out = type(exc).__name__
            h.update(repr((L.root_type, v, out)).encode())
    assert h.hexdigest() == (
        "12fe7c3f6e6ea1429bcc6f5d73ae05b57833ed5d2ec1daac5076c32aee447339")


@pytest.mark.parametrize("n", range(3, 9))
def test_reduce_isometry_properties(n):
    L = build_del_pezzo(n)
    S = f2.reduce(L)
    R = enumerate_roots(L)
    assert bridge.reduce_isometry(L, range(len(R))) == S.basis
    assert bridge.reduce_isometry(L, iter(range(len(R)))) == S.basis
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
            # u after v applies v first, like f2._compose
            assert bridge.reduce_isometry(L, tuple(u[i] for i in v)) == f2._compose(
                S, bridge.reduce_isometry(L, u), bridge.reduce_isometry(L, v))


def _counting(monkeypatch, module, name, calls):
    """Patch module.name to append its arguments to calls, then run."""
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or fn(*args))


def test_isometry_generators_are_reduced_once(monkeypatch):
    """rho(O(L)) and lemma1b's homomorphism check share one reduction of
    the O(L) generators: each is reduced once, and then each product of
    two of them, without a lattice check, as automorphism_chain has checked
    each generator.  Only a generator's image is checked in O(L2); a
    product's is compared with the product of two checked images.  The
    rho chain starts from the 7 simple reflections, which reduce_isometry
    checks in L and in O(L2)."""
    L = build_del_pezzo(7)
    g = len(automorphism_group(L))      # builds and checks the chain
    reduced, lattice_checks, f2_checks = [], [], []
    _counting(monkeypatch, bridge, "_reduce_checked", reduced)
    _counting(monkeypatch, lat, "check_isometry", lattice_checks)
    _counting(monkeypatch, f2, "check_isometry", f2_checks)
    assert bridge.verify_lemma_isometries(L).passed
    assert len(reduced) == 7 + g + g * g
    assert [p for _, p in lattice_checks] == list(weyl_generators(L))
    assert len(f2_checks) == 7 + g


def test_automorphism_chain_checks_minus_one(monkeypatch):
    """The chain starts from -1, which is checked like every generator the
    search adds: a transposition in its place is refused, and the record
    of |O(L)| and the generators is not made."""
    L = build_del_pezzo(4)
    monkeypatch.setattr(lat, "minus_one", lambda L: _transposition(L))
    with pytest.raises(errors.NotIsometry):
        lat.automorphism_group(L)


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
    lambda L: None,
    lambda L: 5,
], ids=["transposition", "wrong-length", "out-of-range", "negative",
        "A4-reflection", "string", "floats", "None", "int"])
def test_reduce_isometry_rejects_non_isometries(bad):
    """Only root permutations of isometries of this lattice get through,
    here and in lattice.check_isometry."""
    L = build_del_pezzo(4)
    with pytest.raises(errors.NotIsometry):
        bridge.reduce_isometry(L, bad(L))
    with pytest.raises(errors.NotIsometry):
        lat.check_isometry(L, bad(L))


@pytest.mark.parametrize("n", range(3, 9))
def test_emitted_rho_images_preserve_q(n):
    L = build_del_pezzo(n)
    S = f2.reduce(L)
    for u in automorphism_group(L) + weyl_generators(L):
        g = bridge.reduce_isometry(L, u)
        for v in S.vectors():
            assert S.q(f2._apply(S, g, v)) == S.q(v)


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


def test_report_check_records_failures_where_they_run():
    """A passing check leaves the report as it is; a failing one fails it for
    good and lists its FAIL line after the witnesses recorded before it."""
    rep = bridge.VerificationReport("lemma1a", 4, True, {}, ["note"])
    rep.check(True, "quiet")
    assert rep.passed and rep.witnesses == ["note"]
    rep.check(0, "first")
    rep.witnesses.append("later note")
    rep.check(True, "quiet again")
    rep.check(False, "second")
    assert not rep.passed
    assert rep.witnesses == ["note", "FAIL: first", "later note", "FAIL: second"]


def test_prop2_fail_line_sits_where_its_check_runs(monkeypatch):
    """The |rho(W)| check runs before the n = 4 singular-vector scan, so
    its FAIL line comes before that scan's note."""
    monkeypatch.setattr(bridge, "rho_image_order_weyl", lambda L: 1)
    rep = bridge.verify_prop2(build_del_pezzo(4))
    assert not rep.passed
    assert rep.witnesses == [
        "FAIL: the reflections generate O(L2): |rho(W)| agrees",
        "nonzero singular vectors: 5"]


@pytest.mark.parametrize("n, preimages", [(8, 120), (7, 63)])
def test_enumerated_roots_are_not_checked_again(n, preimages, monkeypatch):
    """lemma1a and prop1 reduce the roots of enumerate_roots, which has
    checked each one, by their masks: lattice.is_root runs only inside
    root_preimage, once per constructed preimage (E8: the 120 q = 1
    vectors; E7: 63, all of them but k)."""
    L = build_del_pezzo(n)
    bridge.verify_lemma_roots(L), bridge.verify_prop1(L)    # kept on L
    calls = []
    is_root = lat.is_root
    monkeypatch.setattr(lat, "is_root", lambda L, v: calls.append(v) or is_root(L, v))
    assert bridge.verify_lemma_roots(L).passed and bridge.verify_prop1(L).passed
    assert len(calls) == len(set(calls)) == preimages


def _computing(monkeypatch, module, name, computed):
    """Patch the memoized module.name to append (args, value) to computed
    for each value it computes, one it has not returned before."""
    fn = getattr(module, name)

    def counted(*args):
        value = fn(*args)
        if all(value is not v for _, v in computed):
            computed.append((args, value))
        return value

    monkeypatch.setattr(module, name, counted)


def test_verify_all_checks_and_computes_each_value_once(monkeypatch, capsys):
    """verify --n all checks each lattice isometry once:
    the 26 O(L) chain generators of its seven lattices, -1 among them, in
    automorphism_chain, and the 33 Weyl generators of dP3..8 in
    reduce_isometry, before the rho chain compares each with its root's
    mod-2 reflection.  In O(L2) it checks the 22 reduced del Pezzo O(L)
    generators, the 33 reduced Weyl generators and prop2's 52 maps on dP5.
    It builds no reflection chain: of the 556 map reads that the chains
    and checks made with one, the 254 q = 1 reflections of dP3..8 go and
    dP3's 3 reduced Weyl generators add 6, which leaves 308.  Per lattice
    it masks each root once and computes the census once.  It computes
    the radical once per space (8 spaces), the radical split once per
    space with a radical (dP3, dP5, dP7), and arf, by a symplectic basis,
    once per nondegenerate space: dP4, dP6, dP8, A8 and dP5's
    quotient, the closed forms reading the same value.  Each lattice keeps
    its own values, so dP5's prop2, which builds a new dP4, reduces dP4
    again: 5 of the 814 masks.  prop1 on dP7 and prop2 on dP4 read k as
    K mod 2: 2 more.

    The values it has just built are not validated again: the chains sift
    the searches' 40 solutions and the 138 reduced maps on the known base
    unchecked, and extend without PermGroup's permutation check
    by the ones check_isometry or the independence test has just passed,
    so it runs only for the 30 Weyl generators of the W chains (dP4..8)
    and the 5 membership tests of -1; the mod-2 chains read each map's
    images once, and prop2 projects maps it has built or checked without
    reading them again (f2._induced).  prop2's dP5 quotient builds O(L2)'s
    reflections from q's table, so f2_reflection runs only for prop2's 63
    reflections on dP7, and checks each vector once.  Unchecked
    transvections build those 63, their 63 dP7 transvections, dP5's 20
    reflections and the 33 simple reflections that the rho chain compares
    with.  It builds the pairing rows that the searches and checks read and
    those they are added from: 296 of the 578 roots' rows."""
    counts = {"lat.check_isometry": 59, "f2.check_isometry": 107,
              "bridge.reduce_isometry": 33, "f2._mask": 814,
              "f2.symplectic_basis": 5, "f2.value_census": 14,
              "f2.f2_reflection": 63, "f2._transvection": 179, "PermGroup._sifts": 178,
              "PermGroup._check_perm": 35, "f2._basis_images": 308}
    computations = {"f2.radical": 8, "f2.split_radical": 3, "lat._root_pairings": 7}
    rows_built = {"A1xA2": 8, "A4": 15, "D5": 24, "E6": 43, "E7": 61, "E8": 100,
                  "A8": 45}
    modules = {"lat": lat, "f2": f2, "bridge": bridge, "PermGroup": groups.PermGroup}
    calls = {key: [] for key in counts}
    for key, c in calls.items():
        module, name = key.split(".")
        _counting(monkeypatch, modules[module], name, c)
    computed = {key: [] for key in computations}
    for key, c in computed.items():
        module, name = key.split(".")
        _computing(monkeypatch, modules[module], name, c)
    assert cli.run(["verify", "--n", "all", "--format", "json"]) == 0
    capsys.readouterr()
    assert {key: len(c) for key, c in calls.items()} == counts
    assert {key: len(c) for key, c in computed.items()} == computations
    built = {L.root_type: len(rows) for (L,), (rows, _, _) in computed["lat._root_pairings"]}
    assert built == rows_built


def test_verify_prop2_wrong_range():
    with pytest.raises(errors.BadInput):
        bridge.verify_prop2(build_del_pezzo(3))


@pytest.mark.parametrize("n", range(4, 9))
def test_verify_corollary(n):
    rep = bridge.verify_corollary(build_del_pezzo(n))
    assert rep.passed
    w, o = rep.numbers["weyl_order"], rep.numbers["oL2_order"]
    assert (w == 2 * o) if n in (7, 8) else (w == o)


@pytest.mark.parametrize("verify", [bridge.verify_prop2, bridge.verify_corollary])
def test_wrong_isometry_count_fails_the_report(verify, monkeypatch):
    """prop2 and the corollary print the basis-image count of O(L2), and
    stop unless its closed form agrees."""
    monkeypatch.setattr(f2, "isometry_order", lambda S: 1)
    with pytest.raises(errors.CrossCheckFailed,
                       match=r"A4: \|O\(L2\)\| 1 != its closed form 120"):
        verify(build_del_pezzo(4))


def test_verify_corollary_wrong_range():
    with pytest.raises(errors.BadInput):
        bridge.verify_corollary(build_del_pezzo(3))


def test_verify_remark1():
    rep = bridge.verify_remarks(3)
    assert rep.statement == "remark1" and rep.passed
    assert rep.numbers["autL_order"] == 24
    assert rep.numbers["oL2_order"] == rep.numbers["rho_image_order"] == 6
    assert rep.numbers["kernel_order"] == 4


@pytest.mark.parametrize("side, line", [
    ("lattice", "O(L) = O(A1) x O(A2)"),
    ("mod 2", "O(L2) = O(L2') x O(L2'')"),
])
def test_remark1_products_read_the_component_orders(side, line, monkeypatch):
    """remark1 compares |O(L)| and |O(L2)| with the products of the orders
    it computes on the two components: doubling the rank-1 component's
    order on one side fails that side's product line."""
    if side == "lattice":
        fn = lat.component_isometries

        def doubled(L, component):
            order, gram = fn(L, component)
            return 2 * order if len(gram) == 1 else order, gram
        monkeypatch.setattr(lat, "component_isometries", doubled)
    else:
        fn = f2.isometry_order
        monkeypatch.setattr(f2, "isometry_order",
                            lambda S: 2 * fn(S) if S.dim == 1 else fn(S))
    rep = bridge.verify_remarks(3)
    assert not rep.passed
    assert f"FAIL: {line}" in rep.witnesses


@pytest.mark.parametrize("rank", range(5, 11))
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


@pytest.mark.parametrize("bad", (2, 4, 11, "5"))
def test_verify_remarks_out_of_range(bad):
    with pytest.raises(errors.BadInput):
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


def test_corollary_cross_checks_the_weyl_order(monkeypatch):
    """|W| |Gamma| = |O(L)| is a raise, not a sub-check: a W chain of twice
    the order, here W x {+-1} on dP4, read into the record of |W| of a new
    dP4, stops the corollary."""
    L = build_del_pezzo(4)
    doubled = groups.PermGroup(weyl_generators(L) + (minus_one(L),),
                               len(enumerate_roots(L)))
    assert doubled.order() == 2 * bridge._weyl_numbers(L)[0]
    monkeypatch.setattr(bridge, "weyl_group", lambda L: doubled)
    with pytest.raises(errors.CrossCheckFailed, match="diagram automorphisms"):
        bridge.verify_corollary(build_del_pezzo(4))


def test_remark2_cross_checks_the_arf_invariant(monkeypatch):
    """A10 is nondegenerate mod 2: a flipped Arf invariant moves the closed
    form from O^-(10, 2) to O^+(10, 2), away from the basis-image count."""
    arf = f2.arf
    monkeypatch.setattr(f2, "arf", lambda S: 1 - arf(S))
    with pytest.raises(errors.CrossCheckFailed, match=r"A10: \|O\(L2\)\|"):
        bridge.verify_remarks(10)


@pytest.mark.parametrize("rank", (9, 7))
def test_remark2_cross_checks_the_isometry_count(rank, monkeypatch):
    """A9 has q(k) = 1 and A7 q(k) = 0: in both, a basis-image count one
    off its closed form stops remark2."""
    S = f2.reduce(build_plain_root_lattice(rank))
    k = f2.radical(S)[-1]
    assert S.q(k) == (rank == 9)
    count = f2.isometry_order
    monkeypatch.setattr(f2, "isometry_order", lambda S: count(S) + 1)
    with pytest.raises(errors.CrossCheckFailed, match=r"\|O\(L2\)\|"):
        bridge.verify_remarks(rank)


def _shift_an_exponent(monkeypatch):
    exponents = lat.exponents
    monkeypatch.setattr(lat, "exponents", lambda L: (2,) + exponents(L)[1:])


def _miscount_oL2(monkeypatch):
    """A closed form for |O(L2)| one more than the basis-image count."""
    closed = f2.orthogonal_order
    monkeypatch.setattr(f2, "orthogonal_order", lambda S: closed(S) + 1)


def test_corollary_cross_checks_the_exponents(monkeypatch):
    """E8's exponents give |W| = 696729600; with 1 shifted to 2 the Weyl
    chain's order disagrees and the corollary stops on a new E8."""
    assert bridge._weyl_numbers(build_del_pezzo(8))[0] == 696729600
    _shift_an_exponent(monkeypatch)
    with pytest.raises(errors.CrossCheckFailed, match=r"E8: \|W\|"):
        bridge.verify_corollary(build_del_pezzo(8))


@pytest.mark.parametrize("run", [
    lambda: bridge.verify_prop2(build_del_pezzo(4)),
    lambda: bridge.verify_corollary(build_del_pezzo(6)),
    lambda: bridge.verify_remarks(3),
], ids=["prop2", "corollary", "remark1"])
def test_reflection_chain_order_is_cross_checked(run, monkeypatch):
    """Each statement that prints |O(L2)| raises when its basis-image count
    is not the closed form; table is below.  No reflection chain is built:
    the reduced simple reflections and |rho(W)| stand for it."""
    _miscount_oL2(monkeypatch)
    with pytest.raises(errors.CrossCheckFailed,
                       match=r"\|O\(L2\)\| (\d+) != its closed form \d+"):
        run()


@pytest.mark.parametrize("perturb, match", [
    (_miscount_oL2, r"\|O\(L2\)\| 6 != its closed form 7"),
    (_shift_an_exponent, r"\|W\|"),
], ids=["reflection-chain", "exponent"])
def test_table_exits_1_on_a_failed_cross_check(perturb, match, monkeypatch, capsys):
    perturb(monkeypatch)
    assert cli.run(["table", "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search("check failed with CrossCheckFailed: A1xA2: " + match,
                     captured.err)


@pytest.mark.parametrize("rank", range(5, 11))
def test_remark2_builds_no_reflection_chain(rank, monkeypatch):
    """remark2 claims nothing of reflections: it passes with every way to
    build a chain on the mod-2 space refused."""
    def refuse(*args):
        raise AssertionError("remark2 built a mod-2 chain")

    for module, name in [(bridge, "oL2_group"), (f2, "_chain"),
                         (f2, "orthogonal_generators")]:
        monkeypatch.setattr(module, name, refuse)
    rep = bridge.verify_remarks(rank)
    assert rep.passed
    assert rep.numbers["oL2_order"] == f2.orthogonal_order(
        f2.reduce(build_plain_root_lattice(rank)))


@pytest.mark.parametrize("n", range(3, 9))
def test_reduced_simple_reflections_are_checked(n, monkeypatch):
    """The rho chain starts from the reduced simple reflections, each of
    which must be the mod-2 reflection in its root's class: that puts
    rho(W) inside the group the q = 1 reflections generate.  With the
    first one reduced as the second, rho is not read."""
    L = build_del_pezzo(n)
    first, second = weyl_generators(L)[:2]
    reduce_isometry = bridge.reduce_isometry
    monkeypatch.setattr(bridge, "reduce_isometry", lambda L, p: reduce_isometry(
        L, second if p == first else p))
    with pytest.raises(errors.CrossCheckFailed, match="reduced simple reflection"):
        bridge.rho_image_order_weyl(L)


def _refuse_reflection_chain(monkeypatch):
    def refuse(L):
        raise AssertionError("a statement built the reflection chain")

    monkeypatch.setattr(bridge, "oL2_group", refuse)


@pytest.mark.parametrize("n", range(3, 9))
def test_reports_build_no_reflection_chain(n, monkeypatch):
    """Every del Pezzo statement passes with the reflection chain refused:
    |O(L2)| is the basis-image count, checked against its closed form."""
    _refuse_reflection_chain(monkeypatch)
    assert all(r.passed for r in bridge.reports_for(n))


def test_table_builds_no_reflection_chain(monkeypatch, capsys):
    _refuse_reflection_chain(monkeypatch)
    assert cli.run(["table", "--format", "json"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("L", [build_del_pezzo(n) for n in range(3, 9)]
                         + [build_plain_root_lattice(r) for r in range(5, 11)],
                         ids=lambda L: L.root_type)
def test_no_reduced_aut_generator_extends_the_weyl_chain(L):
    """rho(O(L)) = rho(W): each reduced O(L) generator sifts on the chain of
    the reduced simple reflections, so the shared chain reads both orders
    from one chain that the O(L) generators leave as it was."""
    S = f2.reduce(L)
    W = f2._chain(S, [bridge.reduce_isometry(L, u) for u in weyl_generators(L)])
    assert all(W._sifts([S.coords(m) for m in images])
               for images in bridge._reduced_aut_generators(L))
    assert bridge.rho_image_order_weyl(L) == bridge.rho_image_order_aut(L) == W.order()


def test_reports_for_refuses_unhashable_ranks():
    with pytest.raises(errors.BadInput, match="must be an int"):
        bridge.reports_for([])
