"""Exact finite-group computation for permutation groups.

Groups are given by generators acting on {0..degree-1}: each element is the
index map it induces on a fixed, sorted point set (root_permutation of a
lattice isometry, vector_permutation of a mod-2 map).  A deterministic
Schreier-Sims stabilizer chain provides exact order (arbitrary-precision,
never floating point) and membership tests.  Base points are always the
smallest moved point available, so the chain -- and hence every reported
number -- is reproducible across runs.
"""

from __future__ import annotations

import numpy as np

from . import errors


def _compose(p, q):
    """Permutation applying q first, then p."""
    return p[q]


def _inverse(p):
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p), dtype=p.dtype)
    return inv


class _Level:
    __slots__ = ("beta", "gens", "orbit", "orbit_order", "gen_done")

    def __init__(self, beta, identity):
        self.beta = beta
        self.gens = []
        self.orbit = {beta: identity}       # point -> u with u[beta] == point
        self.orbit_order = [beta]
        self.gen_done = []                  # per-gen count of processed orbit points


class PermGroup:
    """Permutation group with a deterministic stabilizer chain."""

    def __init__(self, generators, degree):
        self.degree = int(degree)
        if self.degree < 1:
            raise ValueError("degree must be positive")
        self._identity = np.arange(self.degree, dtype=np.int32)
        self.generators = []
        self._levels = []
        for g in generators:
            self.extend(g)

    def _check_perm(self, g):
        g = np.asarray(g, dtype=np.int32)
        if g.shape != (self.degree,):
            raise errors.DegreeMismatch(
                f"permutation of degree {g.shape} in group of degree {self.degree}")
        if not np.array_equal(np.sort(g), self._identity):
            raise ValueError("not a permutation")
        return g

    def extend(self, g):
        """Add a generator; returns True iff the group grew.

        Only generators that grow the group are recorded in `generators`.
        """
        g = self._check_perm(g)
        if self._sift(g, 0)[0] is None:
            return False
        self.generators.append(g)
        if not self._levels:
            beta = int(np.nonzero(g != self._identity)[0][0])
            self._levels.append(_Level(beta, self._identity))
        lv = self._levels[0]
        lv.gens.append(g)
        lv.gen_done.append(0)
        self._complete_level(0)
        return True

    def order(self):
        """Exact group order (product of the basic orbit lengths)."""
        n = 1
        for lv in self._levels:
            n *= len(lv.orbit)
        return n

    def contains(self, g):
        """Exact membership by sifting through the chain."""
        g = self._check_perm(g)
        residue, _ = self._sift(g, 0)
        return residue is None

    def base(self):
        return tuple(lv.beta for lv in self._levels)

    # -- chain construction -------------------------------------------------

    def _sift(self, g, start):
        """Strip g through levels >= start.

        Returns (None, len) if g reduces to the identity, otherwise the
        nontrivial residue and the level index where it belongs.
        """
        cur = g
        for idx in range(start, len(self._levels)):
            lv = self._levels[idx]
            img = int(cur[lv.beta])
            if img == lv.beta:
                continue
            u = lv.orbit.get(img)
            if u is None:
                return cur, idx
            cur = _compose(_inverse(u), cur)
        if np.array_equal(cur, self._identity):
            return None, len(self._levels)
        return cur, len(self._levels)

    def _complete_level(self, idx):
        """Close the orbit at level idx and verify all its Schreier generators.

        Invariant: when this is called, every level below idx is complete, so
        sifting through them is an exact membership test; a Schreier generator
        that does not sift to the identity is genuinely new and its residue is
        added to level idx+1, which is then re-completed before continuing.
        """
        lv = self._levels[idx]
        while True:
            i = 0
            while i < len(lv.orbit_order):
                p = lv.orbit_order[i]
                up = lv.orbit[p]
                for gen in lv.gens:
                    q = int(gen[p])
                    if q not in lv.orbit:
                        lv.orbit[q] = _compose(gen, up)
                        lv.orbit_order.append(q)
                i += 1
            pending = False
            for gi in range(len(lv.gens)):
                gen = lv.gens[gi]
                start, end = lv.gen_done[gi], len(lv.orbit_order)
                if start == end:
                    continue
                lv.gen_done[gi] = end
                pending = True
                for pi in range(start, end):
                    p = lv.orbit_order[pi]
                    s = _compose(_inverse(lv.orbit[int(gen[p])]),
                                 _compose(gen, lv.orbit[p]))
                    residue, _ = self._sift(s, idx + 1)
                    if residue is None:
                        continue
                    if idx + 1 == len(self._levels):
                        beta = int(np.nonzero(residue != self._identity)[0][0])
                        self._levels.append(_Level(beta, self._identity))
                    nxt = self._levels[idx + 1]
                    nxt.gens.append(residue)
                    nxt.gen_done.append(0)
                    self._complete_level(idx + 1)
            if not pending:
                return


def closure(generators, multiply, identity, limit=2_000_000):
    """All elements of the generated group, by breadth-first closure.

    Elements must be hashable.  Intended as an independent brute-force oracle
    for small groups; raises if the closure exceeds `limit`.
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
