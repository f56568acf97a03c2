"""Reduction maps between a lattice and its mod-2 space, and the verifiers.

reduce_root sends a root to its mod-2 class; root_preimage inverts it by an
explicit case table on the support; reduce_isometry sends the root
permutation of a lattice isometry to the basis images of the induced map
of the mod-2 space.  The verify_* functions check, by exhaustive finite
computation, the statements that the root classes biject with the q=1
vectors and that lattice isometries match the isometries of the mod-2
space, and return serializable reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import xor

from . import errors, f2, groups, lattice as lat

STATEMENTS = ("lemma1a", "lemma1b", "prop1", "prop2", "corollary",
              "remark1", "remark2")

NUMBER_KEYS = ("roots", "q1_count", "q0_count", "arf", "weyl_order",
               "autL_order", "oL2_order", "rho_image_order", "kernel_order")


def reduce_root(L, alpha):
    """Mod-2 class of a root, as an ambient mask (q of the image is 1)."""
    if not lat.is_root(L, alpha):
        raise errors.NotARoot(f"{alpha} is not a root")
    return f2._mask(alpha)


def root_preimage(L, v):
    """A root mapping to the given q=1 vector, by the support case table.

    For the del Pezzo families the constructive cases are: support I without
    e0 of size 2 -> E_i - E_j; size 6 -> 2E0 - E_I; support containing e0 of
    size 4 -> 2E0 - E_I; size 8 (n=8) -> 4E0 - E_I - 2E_l with l the unique
    missing index.  For n=7 the all-ones vector k has no preimage: a preimage
    would have all coordinates odd, so its square would be 6 mod 8, not 2.
    """
    S = f2.reduce(L)
    try:
        qv = S.q(v)
    except errors.NotInSpace:
        raise errors.BadInput(f"mask {v:#x} is not in the mod-2 space") from None
    if qv != 1:
        raise errors.BadInput("root preimages exist only for q(v) = 1")
    support = groups.bit_indices(v)
    m = len(support)
    width = L.width

    def e(i, c=1):
        return tuple(c if j == i else 0 for j in range(width))

    def combine(*terms):
        out = [0] * width
        for vec in terms:
            out = [a + b for a, b in zip(out, vec)]
        return tuple(out)

    if L.kind == "plain":
        if m == 2:
            i, j = support
            root = combine(e(i), e(j, -1))
        else:
            raise errors.NoPreimage(
                f"support of size {m} has no root preimage in a plain lattice")
    elif 0 not in support and m == 2:
        i, j = support
        root = combine(e(i), e(j, -1))
    elif 0 not in support and m == 6:
        root = combine(e(0, 2), *(e(i, -1) for i in support))
    elif 0 in support and m == 4:
        root = combine(e(0, 2), *(e(i, -1) for i in support))
    elif 0 in support and m == 8 and L.n == 8:
        missing = [i for i in range(width) if i not in support]
        if len(missing) != 1:
            raise errors.CrossCheckFailed(f"support misses {len(missing)} indices")
        root = combine(e(0, 4), *(e(i, -1) for i in support),
                       e(missing[0], -2))
    elif 0 in support and m == 8 and L.n == 7:
        raise errors.NoPreimage(
            "the all-ones vector has no root preimage (square 6 mod 8)")
    else:
        raise errors.CrossCheckFailed(f"q=1 vector with unhandled support size {m}")
    if not (lat.is_root(L, root) and reduce_root(L, root) == v):
        raise errors.CrossCheckFailed(f"case table gives {root}, not a root over {v:#x}")
    return root


def reduce_isometry(L, p):
    """The basis images of the induced isometry of the mod-2 space, for the
    root permutation p of an isometry of L (raises NotIsometry for anything
    else).

    Basis vector i is the sum over t of lat._basis_on_simple(L)[i][t] times
    simple root s_t, so its image is the same sum of the roots p[s_t], and
    its class mod 2 the sum of their classes with odd coefficients.
    """
    lat.check_isometry(L, p)
    moved = [f2._mask(lat.enumerate_roots(L)[p[s]]) for s in lat._simple_indices(L)]
    return f2.check_isometry(f2.reduce(L), [
        reduce(xor, (m for c, m in zip(row, moved) if c & 1), 0)
        for row in lat._basis_on_simple(L)])


# -- reports ----------------------------------------------------------------------

@dataclass
class VerificationReport:
    """Outcome of one verified statement for one lattice."""

    statement: str
    n: int
    passed: bool
    numbers: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "statement": self.statement,
            "n": self.n,
            "pass": self.passed,
            "numbers": {k: self.numbers.get(k) for k in NUMBER_KEYS},
            "witnesses": list(self.witnesses),
        }


class _Checks:
    """Collects named pass/fail sub-checks for one report."""

    def __init__(self):
        self.items = []

    def check(self, ok, description):
        self.items.append((bool(ok), description))
        return bool(ok)

    @property
    def passed(self):
        return all(ok for ok, _ in self.items)

    def witnesses(self):
        return [f"FAIL: {d}" for ok, d in self.items if not ok]


# -- cached heavy computations -----------------------------------------------------

@lru_cache(maxsize=None)
def weyl_group(L):
    """Stabilizer chain for the Weyl group acting on the roots."""
    return groups.PermGroup(lat.weyl_generators(L), len(lat.enumerate_roots(L)),
                            known_base=lat._simple_indices(L))


def aut_group(L):
    """Stabilizer chain for the full isometry group acting on the roots."""
    return lat.automorphism_chain(L)


def _f2_chain(S, maps):
    """Stabilizer chain of the given maps acting on the nonzero vectors of S.

    The maps are linear, so the basis vectors are a known base.  Between
    maps every level is complete, so a map whose basis images sift on it
    agrees on the basis with a member and is that member.  Only the other
    maps, and any map with an image of 0 (position -1, not a point), are
    made permutations and extend the chain; f2.permutation refuses a map
    with dependent images."""
    chain = groups.PermGroup([], 2 ** S.dim - 1,
                             known_base=[S._position[1 << i] for i in range(S.dim)])
    for m in maps:
        m = f2._basis_images(S, m)
        images = [S._position[S._coords[v]] for v in m]
        if -1 in images or not chain.sifts_on_known_base(images):
            chain.extend(f2.permutation(S, m))
    return chain


@lru_cache(maxsize=None)
def oL2_group(L):
    """Stabilizer chain for the reflection group of the mod-2 space."""
    S = f2.reduce(L)
    return _f2_chain(S, f2.orthogonal_generators(S))


@lru_cache(maxsize=None)
def rho_image_order_aut(L):
    """Order of the image of the full isometry group in the mod-2 space."""
    return _f2_chain(f2.reduce(L), [reduce_isometry(L, u)
                                    for u in lat.automorphism_group(L)]).order()


@lru_cache(maxsize=None)
def rho_image_order_weyl(L):
    return _f2_chain(f2.reduce(L), [reduce_isometry(L, u)
                                    for u in lat.weyl_generators(L)]).order()


def _census_numbers(L):
    S = f2.reduce(L)
    q0, q1 = f2.value_census(S)
    numbers = {"roots": len(lat.enumerate_roots(L)), "q1_count": q1,
               "q0_count": q0}
    if len(f2.radical(S)) == 1:
        numbers["arf"] = f2.arf(S)
    return numbers


# -- statement verifiers -----------------------------------------------------------

def verify_lemma(L):
    """Both injectivity statements; returns the (lemma1a, lemma1b) reports."""
    return verify_lemma_roots(L), verify_lemma_isometries(L)


def verify_lemma_roots(L):
    """lemma1a: roots inject into the mod-2 space up to sign."""
    c = _Checks()
    roots = lat.enumerate_roots(L)
    S = f2.reduce(L)
    fibers = {}
    for r in roots:
        fibers.setdefault(reduce_root(L, r), []).append(r)
    c.check(all(len(f) == 2 for f in fibers.values()),
            "every mod-2 class contains exactly one +-root pair")
    c.check(all(tuple(-x for x in f[0]) == f[1]
                for f in fibers.values() if len(f) == 2),
            "each fiber is {alpha, -alpha}")
    c.check(all(S.q(v) == 1 for v in fibers),
            "the image lies in q^-1(1)")
    c.check(len(fibers) == len(roots) // 2, "image size is half the root count")
    numbers = _census_numbers(L)
    numbers["root_image_size"] = len(fibers)
    return VerificationReport("lemma1a", L.n, c.passed, numbers, c.witnesses())


def verify_lemma_isometries(L):
    """lemma1b: the kernel of reduction on the isometry group is {+-1}.

    Verified by order counting: |image| = |O(L)| / |kernel|.  For n = 3 the
    root system is reducible and the kernel is {+-1}x{+-1} of order 4 (see
    remark1).  The kernel is also enumerated element by element, by
    backtracking and independently of the chains, for every n; its size is
    listed as a witness for n <= 4.
    """
    c = _Checks()
    gens = lat.automorphism_group(L)
    aut_order = aut_group(L).order()
    image = rho_image_order_aut(L)
    expected_kernel = 4 if (L.kind == "delpezzo" and L.n == 3) else 2
    c.check(aut_order == expected_kernel * image,
            f"|O(L)| = {expected_kernel} * |rho(O(L))|")
    # rho is a homomorphism on all generator pairs
    S = f2.reduce(L)
    reduced = [reduce_isometry(L, u) for u in gens]
    hom = all(reduce_isometry(L, groups.gather(u, v)) == f2.compose(S, ru, rv)
              for u, ru in zip(gens, reduced) for v, rv in zip(gens, reduced))
    c.check(hom, "reduction is multiplicative on generator pairs")
    numbers = _census_numbers(L)
    numbers.update(autL_order=aut_order, rho_image_order=image,
                   kernel_order=aut_order // image)
    kernel = _kernel_elements(L)
    c.check(len(kernel) == expected_kernel,
            "explicit kernel enumeration matches the order count")
    witnesses = c.witnesses()
    if L.n <= 4:
        witnesses.append(f"kernel enumerated: {len(kernel)} elements")
    if expected_kernel == 4:
        witnesses.append("n=3 kernel is {+-1}x{+-1}; decomposition checked in remark1")
    return VerificationReport("lemma1b", L.n, c.passed, numbers, witnesses)


def _kernel_elements(L):
    """Root permutations of all isometries reducing to the identity mod 2.

    An isometry is fixed by its images of the simple roots, which span L, and
    reduces to the identity exactly when each image has its simple root's
    mod-2 class: the root itself or its negative.  Every choice among these
    that keeps the simple roots' pairings is listed by groups.completions.
    """
    rows, simple, gram = lat._root_pairings(L)
    masks = [f2._mask(r) for r in lat.enumerate_roots(L)]
    allowed = [sum(1 << i for i, m in enumerate(masks) if m == masks[s])
               for s in simple]
    sols = groups.completions(rows, allowed, gram, [-1] * len(simple))
    return list(lat._solution_perms(L, list(sols)))


def verify_prop1(L):
    """prop1: roots/{+-1} biject with q^-1(1) (minus k for n=7)."""
    c = _Checks()
    S = f2.reduce(L)
    roots = lat.enumerate_roots(L)
    image = {reduce_root(L, r) for r in roots}
    q1 = {v for v in S.vectors() if S.q(v) == 1}
    k = S.ambient_k
    numbers = _census_numbers(L)
    numbers["root_image_size"] = len(image)
    if L.kind == "delpezzo" and L.n == 7:
        c.check(S.q(k) == 1, "q(k) = 1")
        c.check(k not in image, "k is not a root image")
        c.check(image == q1 - {k}, "image equals q^-1(1) minus {k}")
        try:
            root_preimage(L, k)
            c.check(False, "root_preimage(k) raises NoPreimage")
        except errors.NoPreimage:
            c.check(True, "root_preimage(k) raises NoPreimage")
        targets = q1 - {k}
    else:
        c.check(image == q1, "image equals q^-1(1)")
        targets = q1
    c.check(2 * len(image) == len(roots), "classes count half the roots")
    ok = True
    for v in sorted(targets):
        r = root_preimage(L, v)
        ok = ok and lat.is_root(L, r) and reduce_root(L, r) == v
    c.check(ok, "constructive preimages land on every target vector")
    return VerificationReport("prop1", L.n, c.passed, numbers, c.witnesses())


def verify_prop2(L):
    """prop2: reduction maps O(L)/{+-1} isomorphically onto O(L2), n >= 4."""
    if L.kind != "delpezzo" or L.n < 4:
        raise errors.WrongRange("prop2 applies to del Pezzo lattices of rank >= 4")
    c = _Checks()
    S = f2.reduce(L)
    aut_order = aut_group(L).order()
    oL2 = oL2_group(L).order()
    image = rho_image_order_aut(L)
    c.check(image * 2 == aut_order, "|rho(O(L))| = |O(L)| / 2")
    c.check(image == oL2, "|rho(O(L))| = |O(L2)|")
    c.check(f2.isometry_order(S) == oL2,
            "the reflections generate O(L2): its basis-image count agrees")
    numbers = _census_numbers(L)
    numbers.update(autL_order=aut_order, oL2_order=oL2,
                   rho_image_order=image, kernel_order=2)
    witnesses = []
    if L.n == 4:
        rep = f2.exception_check_n4(S)
        c.check(rep.matches_expected,
                "nonzero singular vectors are k+e0 and the e0+e_i")
        c.check(rep.pairings_all_one, "singular vectors pair to 1")
        c.check(rep.totally_singular_plane is None,
                "no totally singular 2-plane")
        witnesses.append(f"nonzero singular vectors: {len(rep.nonzero_singular)}")
    if L.n == 7:
        k, H = f2.split_radical(S)
        c.check(S.q(k) == 1, "q(k) = 1")
        tgens = [f2.transvection(H, v) for v in H.nonzero_vectors()]
        sp_order = _f2_chain(H, tgens).order()
        c.check(sp_order == oL2, "|Sp(H)| = |O(L2)|")
        corr = all(f2.induced(S, k, H, f2.f2_reflection(S, v if S.q(v) else v ^ k))
                   == f2.transvection(H, v) for v in H.nonzero_vectors())
        c.check(corr, "transvections correspond to reflections at v+(1+q(v))k")
        witnesses.append(f"|Sp(H)| = {sp_order}")
    if L.n == 5:
        k, H = f2.split_radical(S)
        c.check(S.q(k) == 0, "q(k) = 0")
        qgens = [f2.induced(S, k, H, g) for g in f2.orthogonal_generators(S)]
        image_q = _f2_chain(H, qgens).order()
        # the maps x -> x + l(x)k with l(k) = 0, l given by its basis bits
        kc = S.coords(k)
        kernel = [f2.check_isometry(S, [b ^ (k if lam >> i & 1 else 0)
                                        for i, b in enumerate(S.basis)])
                  for lam in range(1 << S.dim) if not (lam & kc).bit_count() & 1]
        c.check(len(kernel) == 16, "kernel of the quotient map has order 16")
        c.check(all(f2.induced(S, k, H, u) == H.basis for u in kernel),
                "kernel maps project to the identity")
        c.check(oL2 == 16 * image_q, "|O(L2)| = 16 * |O(quotient)|")
        L4 = lat.build_del_pezzo(4)
        c.check(f2.value_census(H) == f2.value_census(f2.reduce(L4)),
                "quotient census equals the rank-4 census")
        numbers["kernel_order"] = 16
        witnesses.append(f"quotient image order: {image_q}")
    return VerificationReport("prop2", L.n, c.passed, numbers,
                              witnesses + c.witnesses())


def verify_corollary(L):
    """corollary: W = O(L2) for n = 4,5,6 and W/{+-1} = O(L2) for n = 7,8."""
    if L.kind != "delpezzo" or not 4 <= L.n <= 8:
        raise errors.WrongRange("the corollary applies to del Pezzo n in [4, 8]")
    c = _Checks()
    weyl = weyl_group(L).order()
    oL2 = oL2_group(L).order()
    image = rho_image_order_weyl(L)
    minus1 = weyl_group(L).contains(lat.minus_one(L))
    if L.n in (7, 8):
        c.check(minus1, "-1 is in the Weyl group")
        c.check(weyl == 2 * oL2, "|W| = 2 |O(L2)|")
    else:
        c.check(not minus1, "-1 is outside the Weyl group")
        c.check(weyl == oL2, "|W| = |O(L2)|")
    c.check(image == oL2, "the Weyl group surjects onto O(L2)")
    c.check(f2.isometry_order(f2.reduce(L)) == oL2,
            "the reflections generate O(L2): its basis-image count agrees")
    numbers = _census_numbers(L)
    numbers.update(weyl_order=weyl, oL2_order=oL2, rho_image_order=image)
    witnesses = c.witnesses()
    witnesses.append(f"-1 in W: {minus1}")
    return VerificationReport("corollary", L.n, c.passed, numbers, witnesses)


def verify_remarks(n):
    """remark1 for n = 3; remark2 for a plain A_rank lattice, rank in [5, 10]."""
    if n == 3:
        return _verify_remark1()
    if 5 <= n <= 10:
        return _verify_remark2(n)
    raise errors.OutOfRange(
        "remarks cover n = 3 and plain ranks 5..10 (ranks <= 4 coincide "
        "with del Pezzo cases)")


def _verify_remark1():
    """n=3: reduction is onto with kernel {+-1}x{+-1}, via the A1 x A2 split."""
    L = lat.build_del_pezzo(3)
    c = _Checks()
    aut_order = aut_group(L).order()
    oL2 = oL2_group(L).order()
    image = rho_image_order_aut(L)
    c.check(aut_order == 24, "|O(L)| = 24")
    c.check(oL2 == 6 and image == 6, "reduction is onto O(L2) of order 6")
    kernel = _kernel_elements(L)
    c.check(len(kernel) == 4, "kernel has order 4")
    # kernel elements act as +-1 on each root component
    comps = lat.root_components(L)
    c.check(tuple(len(comp) for comp in comps) == (2, 6),
            "root components have sizes 2 and 6")
    points = [[lat.enumerate_roots(L).index(r) for r in comp] for comp in comps]
    neg = lat.minus_one(L)
    # 1 or -1 per component, 0 where an element is neither
    signs = {tuple(1 if all(perm[i] == i for i in p)
                   else -1 if all(perm[i] == neg[i] for i in p)
                   else 0 for p in points) for perm in kernel}
    c.check(signs == {(1, 1), (1, -1), (-1, 1), (-1, -1)},
            "kernel is {+-1} x {+-1} on the two components")
    # component lattices: A1 and A2, with isometry groups of orders 2 and 12
    comp_orders = []
    comp_f2_orders = []
    for comp in comps:
        order, gram = lat.component_isometries(L, comp)
        comp_orders.append(order)
        comp_f2_orders.append(f2.isometry_order(f2.space_from_gram(gram)))
    c.check(comp_orders == [2, 12], "component isometry groups have orders 2, 12")
    c.check(2 * 12 == aut_order, "O(L) = O(A1) x O(A2)")
    c.check(comp_f2_orders == [1, 6], "mod-2 component groups have orders 1, 6")
    c.check(1 * 6 == oL2, "O(L2) = O(L2') x O(L2'')")
    numbers = _census_numbers(L)
    numbers.update(autL_order=aut_order, oL2_order=oL2,
                   rho_image_order=image, kernel_order=len(kernel))
    witnesses = c.witnesses()
    witnesses.append(f"component isometry orders: {comp_orders}")
    return VerificationReport("remark1", 3, c.passed, numbers, witnesses)


def _verify_remark2(rank):
    """Plain A_rank: the root/quadric and group correspondences both fail."""
    L = lat.build_plain_root_lattice(rank)
    c = _Checks()
    S = f2.reduce(L)
    roots = lat.enumerate_roots(L)
    q0, q1 = f2.value_census(S)
    aut_order = aut_group(L).order()
    oL2 = oL2_group(L).order()
    c.check(len(roots) == rank * (rank + 1), "A_n has n(n+1) roots")
    root_classes = len(roots) // 2
    c.check(root_classes != q1 or aut_order != oL2,
            "at least one correspondence fails strictly")
    numbers = {"roots": len(roots), "q1_count": q1, "q0_count": q0,
               "autL_order": aut_order, "oL2_order": oL2}
    if len(f2.radical(S)) == 1:
        numbers["arf"] = f2.arf(S)
    witnesses = c.witnesses()
    witnesses.append(f"root classes {root_classes} vs q1 vectors {q1}")
    witnesses.append(f"|O(L)| {aut_order} vs |O(L2)| {oL2}")
    return VerificationReport("remark2", rank, c.passed, numbers, witnesses)


def reports_for(n):
    """All statement reports for del Pezzo rank n, in statement order."""
    L = lat.build_del_pezzo(n)
    a, b = verify_lemma(L)
    out = [a, b, verify_prop1(L)]
    if n == 3:
        out.append(verify_remarks(3))
    else:
        out.append(verify_prop2(L))
        out.append(verify_corollary(L))
    return out
