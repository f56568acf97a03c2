"""Brute-force oracles, independent of the package's searches and chains;
the mod-2 chain built the plain way, from every map's permutation; and a
reader for the reports' JSON form."""

from dpmod2 import f2
from dpmod2.bridge import VerificationReport
from dpmod2.groups import PermGroup


def report_from_json_dict(d):
    """The report that VerificationReport.to_json_dict turned into d."""
    numbers = {k: v for k, v in d["numbers"].items() if v is not None}
    return VerificationReport(d["statement"], d["n"], d["pass"], numbers,
                              list(d["witnesses"]))


def closure(generators, multiply, identity, limit=2_000_000):
    """All elements of the generated group, by breadth-first closure.

    Elements must be hashable.  Raises if the closure exceeds `limit`.
    """
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = multiply(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    if len(seen) > limit:
                        raise RuntimeError("closure exceeded limit")
        frontier = new
    return seen


def f2_chain_of_permutations(S, maps):
    """The stabilizer chain of linear maps of S on its nonzero vectors, built
    by turning every map into its permutation and extending by each one:
    every map is checked and sifted in full."""
    return PermGroup([f2.permutation(S, m) for m in maps], 2 ** S.dim - 1,
                     known_base=[S._position[1 << i] for i in range(S.dim)])


def isometry_count_bruteforce(S):
    """|O(S, q)| by trying every basis image, keeping the whole span of the
    images fixed so far to test independence; exponential, for dim <= 5."""
    vecs = S.vectors()
    count = 0

    def assign(i, images, span):
        nonlocal count
        if i == S.dim:
            count += 1
            return
        for v in vecs:
            if v in span or S.q(v) != S.qdiag[i]:
                continue
            if any(S.pair(v, images[j]) != S.gram2[i][j] for j in range(i)):
                continue
            assign(i + 1, images + [v], span | {s ^ v for s in span})

    assign(0, [], frozenset({0}))
    return count
