"""Acceptance suite: every criterion is exact integer equality, no tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The whole suite is single-threaded and completes well inside the
two-minute budget.
"""

import contextlib
import json
import random

import pytest

from dpmod2 import bridge, cli, errors, f2, groups
from dpmod2.lattice import (automorphism_group, automorphism_order,
                            build_del_pezzo, build_plain_root_lattice,
                            enumerate_roots, minus_one, root_reflection,
                            weyl_generators)
from oracles import det_fraction, radical_kernel_bruteforce

NS = range(3, 9)


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def test_c01_root_counts():
    with criterion("1 root counts"):
        counts = [len(enumerate_roots(build_del_pezzo(n))) for n in NS]
        assert counts == [8, 20, 40, 72, 126, 240]


def test_c02_discriminants():
    with criterion("2 discriminants"):
        discs = [abs(det_fraction(build_del_pezzo(n).gram)) for n in NS]
        assert discs == [6, 5, 4, 3, 2, 1]


def test_c03_quadric_censuses():
    with criterion("3 quadric censuses"):
        for n, expected in zip(NS, [4, 10, 20, 36, 64, 120]):
            L = build_del_pezzo(n)
            S = f2.reduce(L)
            q0, q1 = f2.value_census(S)
            assert q1 == expected
            nroots = len(enumerate_roots(L))
            if n == 7:
                assert nroots // 2 == 63 == q1 - 1
                image = {bridge.reduce_root(L, r) for r in enumerate_roots(L)}
                missing = {v for v in S.vectors() if S.q(v) == 1} - image
                assert missing == {S.ambient_k}
                assert S.q(S.ambient_k) == 1
            else:
                assert q1 == nroots // 2


def test_c04_radicals():
    with criterion("4 radicals"):
        for n in NS:
            S = f2.reduce(build_del_pezzo(n))
            rad = f2.radical(S)
            if n % 2 == 0:
                assert rad == [0]
            else:
                assert rad == [0, S.ambient_k]
                assert S.q(S.ambient_k) == {3: 1, 5: 0, 7: 1}[n]


def test_c05_arf_cross_check():
    with criterion("5 arf cross-check"):
        for n, expected_arf, expected_q1 in [(4, 1, 10), (6, 1, 36), (8, 0, 120)]:
            S = f2.reduce(build_del_pezzo(n))
            m = n // 2
            a = f2.arf(S)
            q0, q1 = f2.value_census(S)
            assert a == expected_arf
            assert a == (1 if q1 > q0 else 0)          # majority value
            assert q1 == 2 ** (m - 1) * (2 ** m - (-1) ** a) == expected_q1
            # the explicit hyperbolic vectors pass the basis invariants
            deltas = [(1 << (2 * k)) - 1 for k in range(1, m + 1)]
            epsilons = [((1 << (2 * k - 1)) - 1) | (1 << (2 * k))
                        for k in range(1, m + 1)]
            for i in range(m):
                for j in range(m):
                    assert S.pair(deltas[i], deltas[j]) == 0
                    assert S.pair(epsilons[i], epsilons[j]) == 0
                    assert S.pair(deltas[i], epsilons[j]) == (i == j)
            assert sum(S.q(d) & S.q(e) for d, e in zip(deltas, epsilons)) & 1 == a


def test_c06_group_orders():
    with criterion("6 group orders"):
        weyl_expect = [12, 120, 1920, 51840, 2903040, 696729600]
        oL2_expect = [6, 120, 1920, 51840, 1451520, 348364800]
        aut_expect = [24, 240, 3840, 103680, 2903040, 696729600]
        for n, w_e, o_e, a_e in zip(NS, weyl_expect, oL2_expect, aut_expect):
            L = build_del_pezzo(n)
            w = bridge.weyl_group(L).order()
            o = bridge.oL2_group(L).order()
            a = bridge.aut_group(L).order()
            assert (w, o, a) == (w_e, o_e, a_e)
            assert a == automorphism_order(L)      # backtracking oracle
            assert o == a // (4 if n == 3 else 2)
            assert (w == o) if n in (4, 5, 6) else True
            assert (w == 2 * o) if n in (7, 8) else True
            assert bridge.weyl_group(L).contains(minus_one(L)) == (n in (7, 8))


def test_c07_constructive_bijection():
    with criterion("7 prop1 constructive bijection"):
        for n in NS:
            L = build_del_pezzo(n)
            S = f2.reduce(L)
            roots = set(enumerate_roots(L))
            targets = [v for v in S.vectors() if S.q(v) == 1]
            if n == 7:
                targets.remove(S.ambient_k)
                with pytest.raises(errors.NoPreimage):
                    bridge.root_preimage(L, S.ambient_k)
            for v in targets:
                r = bridge.root_preimage(L, v)
                assert r in roots and bridge.reduce_root(L, r) == v


def test_c08_prop2_structure():
    with criterion("8 prop2 structure checks"):
        # n = 4: exactly five nonzero singular vectors, k + e0 and e0 + e_i;
        # prop2's sub-checks (pairwise pairing 1, no totally singular plane
        # by an exhaustive scan) pass
        L4 = build_del_pezzo(4)
        rep = bridge.verify_prop2(L4)
        assert rep.passed and rep.witnesses == ["nonzero singular vectors: 5"]
        S4 = f2.reduce(L4)
        k = S4.ambient_k
        assert {v for v in S4.vectors() if v and S4.q(v) == 0} == (
            {k ^ 1} | {1 | 1 << i for i in range(1, 5)})
        # n = 7: O(L2) = Sp(H) by order and generator correspondence
        L7 = build_del_pezzo(7)
        S7 = f2.reduce(L7)
        k, H = f2.split_radical(S7)
        tgens = [f2.transvection(H, v) for v in H.nonzero_vectors()]
        sp_order = groups.PermGroup([f2.permutation(H, t) for t in tgens],
                                    2 ** H.dim).order()
        assert sp_order == bridge.oL2_group(L7).order() == 1451520
        for v in H.nonzero_vectors():
            r = f2.f2_reflection(S7, v if S7.q(v) else v ^ k)
            assert f2.induced(S7, k, H, r) == f2.transvection(H, v)
        # n = 5: kernel of the quotient map has order 16 and the quotient
        # census equals the n = 4 census
        S5 = f2.reduce(build_del_pezzo(5))
        k, N = f2.split_radical(S5)
        kernel = radical_kernel_bruteforce(S5, k)
        assert len(kernel) == 16
        assert all(f2.induced(S5, k, N, u) == N.basis for u in kernel)
        assert f2.value_census(N) == f2.value_census(S4) == (6, 10)


def test_c09_remark2_failure_witness():
    with criterion("9 remark2 failure witness"):
        A8 = build_plain_root_lattice(8)
        S = f2.reduce(A8)
        assert len(enumerate_roots(A8)) // 2 == 36
        q0, q1 = f2.value_census(S)
        assert q1 == 120 and 36 != q1
        aut = bridge.aut_group(A8).order()
        oL2 = bridge.oL2_group(A8).order()
        assert aut == 725760
        assert oL2 > aut


def test_c10_property_suites(capsys):
    with criterion("10 property suites"):
        # polarization: all pairs for n <= 6, 1e5 random pairs for n = 7, 8
        for n in (3, 4, 5, 6):
            S = f2.reduce(build_del_pezzo(n))
            for x in S.vectors():
                for y in S.vectors():
                    assert S.q(x ^ y) == S.q(x) ^ S.q(y) ^ S.pair(x, y)
        for n in (7, 8):
            S = f2.reduce(build_del_pezzo(n))
            vecs = S.vectors()
            rng = random.Random(n)
            for _ in range(100_000):
                x, y = rng.choice(vecs), rng.choice(vecs)
                assert S.q(x ^ y) == S.q(x) ^ S.q(y) ^ S.pair(x, y)
        # every emitted isometry preserves q exhaustively
        for n in NS:
            L = build_del_pezzo(n)
            S = f2.reduce(L)
            emitted = list(f2.orthogonal_generators(S))
            emitted += [bridge.reduce_isometry(L, u)
                        for u in automorphism_group(L) + weyl_generators(L)]
            for g in emitted:
                for v in S.vectors():
                    assert S.q(f2._apply(S, g, v)) == S.q(v)
        # reducing the reflection in alpha gives the reflection in its image
        for n in NS:
            L = build_del_pezzo(n)
            S = f2.reduce(L)
            for alpha in enumerate_roots(L):
                assert (bridge.reduce_isometry(L, root_reflection(L, alpha))
                        == f2.f2_reflection(S, bridge.reduce_root(L, alpha)))
        # determinism: two full runs (fresh processes) give byte-identical JSON
        import subprocess
        import sys
        cmd = [sys.executable, "-m", "dpmod2.cli", "verify", "--n", "all",
               "--format", "json"]
        r1 = subprocess.run(cmd, capture_output=True, text=True)
        r2 = subprocess.run(cmd, capture_output=True, text=True)
        assert r1.returncode == r2.returncode == 0
        assert r1.stdout == r2.stdout
        payload = json.loads(r1.stdout)
        assert payload["all_pass"] is True
        assert len(payload["reports"]) == 4 + 5 * 5 + 1
        # and an in-process rerun agrees byte for byte
        code = cli.run(["verify", "--n", "all", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0 and out == r1.stdout
