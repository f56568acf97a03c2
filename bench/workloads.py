"""The benchmark's workloads, their pinned outputs and the output checker.

Each workload is one `dpmod2` command.  Its stdout is pinned by sha256 and its
`numbers` are checked against values written here by hand from the paper or
from closed forms, never copied from the program's output.  The trace plan of
a workload lists, in dependency order, the public functions its command
reaches on each lattice it builds, and the statement checks it runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from math import factorial, prod


def o_plus_minus_order(m, sign):
    """|O^+-(2m, 2)| = 2 * 2^(m(m-1)) * (2^m - +-1) * prod_{i<m} (2^(2i) - 1)."""
    return (2 * 2 ** (m * (m - 1)) * (2 ** m - sign)
            * prod(2 ** (2 * i) - 1 for i in range(1, m)))


def q1_count(m, sign):
    """Vectors with q = 1 in a nondegenerate space of type +-: 2^(m-1)(2^m - +-1)."""
    return 2 ** (m - 1) * (2 ** m - sign)


# root counts of A1xA2, A4, D5, E6, E7, E8 (n = 3..8)
DEL_PEZZO_ROOTS = {3: 2 + 6, 4: 4 * 5, 5: 2 * 5 * 4, 6: 72, 7: 126, 8: 240}
# |W| of A4, D5, E6, E7, E8; |W(E8)| = 696729600 is quoted in the paper
WEYL_ORDERS = {4: factorial(5), 5: 2 ** 4 * factorial(5), 6: 51840,
               7: 2903040, 8: 696729600}
DEL_PEZZO_LABELS = {3: "A1xA2", 4: "A4", 5: "D5", 6: "E6", 7: "E7", 8: "E8"}


def _plain_remark2(rank, sign):
    """Expected remark2 numbers for plain A_rank with rank + 1 odd."""
    return {("remark2", rank, "roots"): rank * (rank + 1),
            ("remark2", rank, "q1_count"): q1_count(rank // 2, sign),
            ("remark2", rank, "autL_order"): 2 * factorial(rank + 1),
            ("remark2", rank, "oL2_order"): o_plus_minus_order(rank // 2, sign)}


def _del_pezzo_expect(n):
    out = {("lemma1a", n, "roots"): DEL_PEZZO_ROOTS[n]}
    if n >= 4:
        out[("corollary", n, "weyl_order")] = WEYL_ORDERS[n]
    return out


# -- trace plan -------------------------------------------------------------------

# (module, function, argument) in dependency order: each cached function is
# called after everything it depends on, so its span is its own work.
# The argument is "L" (the lattice) or "S" (f2.reduce of the lattice).
LAYERS = (
    ("lattice", "enumerate_roots", "L"),
    ("lattice", "weyl_generators", "L"),
    ("lattice", "automorphism_order", "L"),
    ("lattice", "automorphism_group", "L"),
    ("f2", "reduce", "L"),
    ("f2", "value_census", "S"),
    ("f2", "orthogonal_generators", "S"),
    ("bridge", "weyl_group", "L"),
    ("bridge", "aut_group", "L"),
    ("bridge", "oL2_group", "L"),
    ("bridge", "rho_image_order_aut", "L"),
    ("bridge", "rho_image_order_weyl", "L"),
)
STATEMENTS = ("verify_lemma", "verify_prop1", "verify_prop2", "verify_corollary",
              "verify_remarks")
_WEYL = {"weyl_generators", "weyl_group", "rho_image_order_weyl"}


def _lattice(label, builder, arg, skip=frozenset()):
    layers = [list(layer) for layer in LAYERS if layer[1] not in skip]
    return {"label": label, "build": [builder, arg], "layers": layers}


def _del_pezzo_lattice(n):
    # n = 3 runs no corollary, so its command never touches the Weyl group
    skip = _WEYL if n == 3 else frozenset()
    return _lattice(DEL_PEZZO_LABELS[n], "build_del_pezzo", n, skip)


def _plain_lattice(rank):
    # remark2 builds only the O(L) and O(L2) chains
    return _lattice(f"A{rank}", "build_plain_root_lattice", rank,
                    _WEYL | {"rho_image_order_aut"})


def _del_pezzo_statements(n):
    """The statement checks `bridge.reports_for(n)` runs, in its order."""
    label = DEL_PEZZO_LABELS[n]
    tail = [["verify_remarks", 3]] if n == 3 else [["verify_prop2", label],
                                                   ["verify_corollary", label]]
    return [["verify_lemma", label], ["verify_prop1", label]] + tail


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    sha256: str           # of the command's stdout at the seed commit
    expect: dict          # (statement, n, numbers key) -> value
    lattices: tuple       # trace plan: lattices and the layers reached on each
    statements: tuple     # trace plan: statement checks, in command order

    def trace_plan(self):
        return {"lattices": list(self.lattices),
                "statements": list(self.statements),
                "cli_argv": list(self.argv)}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="verify-all",
        argv=("verify", "--n", "all", "--format", "json"),
        sha256="bc1831c7e81cc660f641691cd7f04bfefadd4ef49fecdb2dd927ec7421c39bb2",
        expect={k: v for n in range(3, 9) for k, v in _del_pezzo_expect(n).items()}
        | _plain_remark2(8, +1),
        lattices=tuple([_del_pezzo_lattice(n) for n in range(3, 9)]
                       + [_plain_lattice(8)]),
        statements=tuple([s for n in range(3, 9) for s in _del_pezzo_statements(n)]
                         + [["verify_remarks", 8]]),
    ),
    Workload(
        name="remark2-a10",
        argv=("remark2", "--rank", "10", "--format", "json"),
        sha256="88bba06710694ffd7f3e273614d6e5ca3184d6360d3049bd0c1f7de3b0907429",
        expect=_plain_remark2(10, -1),
        lattices=(_plain_lattice(10),),
        statements=(["verify_remarks", 10],),
    ),
    Workload(
        name="verify-n4",
        argv=("verify", "--n", "4", "--format", "json"),
        sha256="4453c275e12f3a3463afb068492195c395d7a6181ce727c976df3b5551e99b26",
        expect=_del_pezzo_expect(4) | {("lemma1b", 4, "autL_order"): 2 * factorial(5),
                                       ("prop2", 4, "oL2_order"): WEYL_ORDERS[4]},
        lattices=(_del_pezzo_lattice(4),),
        statements=tuple(_del_pezzo_statements(4)),
    ),
)}


def check_output(stdout, sha256, expect):
    """Mismatches between a command's stdout and its pinned hash and numbers.

    Returns a list of messages; an empty list means the output is correct.
    """
    errors = []
    if hashlib.sha256(stdout).hexdigest() != sha256:
        errors.append("stdout sha256 differs from the pinned hash")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return errors + ["stdout is not JSON"]
    if doc.get("all_pass") is not True:
        errors.append("all_pass is not true")
    numbers = {(r.get("statement"), r.get("n")): r.get("numbers") or {}
               for r in doc.get("reports", [])}
    for (statement, n, key), want in expect.items():
        got = numbers.get((statement, n), {}).get(key)
        if got != want:
            errors.append(f"{statement} n={n} {key}: got {got}, expected {want}")
    return errors
