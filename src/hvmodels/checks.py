"""Executable law suites.

Each suite returns a CheckReport made of named families.  A family is an
`errors.Family`, the one report type for a single law: it counts its
checks and collects violations.  The preservation checkers of
`transfer` and the validators of `hset` return the same type, so a
suite appends or reads their families as they are.  The command line
prints and serializes these reports, and the test suite asserts on
them, so the laws live in exactly one place.
"""

from dataclasses import dataclass, field
from itertools import combinations, product as iproduct

import numpy as np

from . import hset as hs
from . import transfer as tr
from . import valuation as va
from .errors import (BudgetExceeded, Family, HvError, NotAFrame, NotJoinPreserving,
                     NotMeetPreserving)
from .formula import parse_formula
from .lattice import BUILTIN_ALGEBRAS, HeytingAlgebra, _row_blocks, make_chain
from .names import (
    NameStore,
    check_project,
    enumerate_names,
    function_predicate,
    hat_embed,
    pad_equivalent,
    pool_size,
)
from .valuation import (
    GRID_BUDGET,
    EvalContext,
    _code_fold,
    _eq_kernel,
    check_kernel_size,
    eval_grid,
)

DEFAULT_SEED = 1729
CORPUS_PER_ALGEBRA = 4  # seeded H-sets per algebra of the category families
EVAL_SAMPLES = 8  # pool names per axis of the parsed samples of families 10 and 11


@dataclass
class CheckReport:
    title: str
    config: dict = field(default_factory=dict)
    families: list = field(default_factory=list)

    def family(self, name):
        fam = Family(name)
        self.families.append(fam)
        return fam

    @property
    def ok(self):
        return all(f.ok for f in self.families)

    def summary_line(self):
        good = sum(1 for f in self.families if f.ok)
        return f"{good}/{len(self.families)} property families pass"

    def to_json_dict(self):
        return {
            "title": self.title,
            "config": self.config,
            "ok": self.ok,
            "summary": self.summary_line(),
            "families": [
                {
                    "name": f.name,
                    "checked": f.checked,
                    "ok": f.ok,
                    "violations": f.violations[:20],
                    "notes": f.notes,
                }
                for f in self.families
            ],
        }

    def render_text(self):
        lines = [f"== {self.title} =="]
        for f in self.families:
            status = "PASS" if f.ok else "FAIL"
            lines.append(f"  [{status}] {f.name} ({f.checked} checks)")
            for v in f.violations[:5]:
                lines.append(f"      violation: {v}")
            for k in sorted(f.notes):
                lines.append(f"      note: {k} = {f.notes[k]}")
        lines.append(self.summary_line())
        return "\n".join(lines)


def test_algebras():
    """The three standard algebras used across the suites."""
    return {name: BUILTIN_ALGEBRAS[name]() for name in ("chain2", "chain3", "four")}


def standard_morphisms(algebras=None):
    """The four standard locale morphisms used across the suites."""
    alg = algebras or test_algebras()
    two, three, four = alg["chain2"], alg["chain3"], alg["four"]
    return {
        "f": tr.validate_locale_morphism(four, two, [0, 0, 1, 1], name="f"),
        "i": tr.validate_locale_morphism(two, four, [0, 3], name="i"),
        "collapse0": tr.validate_locale_morphism(three, two, [0, 0, 1], name="collapse0"),
        "collapse1": tr.validate_locale_morphism(three, two, [0, 1, 1], name="collapse1"),
    }


def _config(algebra, **kw):
    cfg = {"algebra": algebra.name or "?", "algebra_hash": algebra.content_hash()}
    cfg.update(kw)
    return cfg


# -- the eleven laws of atomic valuation ---------------------------------------------


def valuation_property_suite(algebra, rank=2, max_domain=2, budget=None):
    """The eleven laws of the atomic/bounded valuation, exhaustive over
    the name pool of the given rank and domain caps.

    Families 10 and 11 additionally compare against the unbounded
    quantifier forms evaluated over the whole pool as fragment, plus an
    eval()-path subsample through the parser.

    The equality kernel covers the whole pool, so a pool whose
    enumeration or kernel is over its budget raises BudgetExceeded
    before any name is enumerated.
    """
    check_kernel_size(pool_size(algebra.n, rank, max_domain, budget), algebra.codes.width)
    store = NameStore(algebra)
    pool = enumerate_names(store, max_rank=rank, max_domain=max_domain, budget=budget)
    ctx = EvalContext(store, fragment=pool)
    rep = CheckReport(
        title=f"valuation laws over {algebra.name or algebra.n}",
        config=_config(algebra, rank=rank, max_domain=max_domain, pool=len(pool)),
    )
    return valuation_law_families(rep, ctx, _eq_kernel(ctx, pool))


def _count(A, B):
    """(A @ B)[i, j] for boolean planes: the number of k with A[i, k]
    and B[k, j].  float32 keeps the product in BLAS and is exact for
    counts below 2^24."""
    return A.astype(np.float32) @ B.astype(np.float32)


def _failing_middles(A, B, C):
    """Middles k of A[i, k] /\\ B[k, j] <= C[i, j] that fail for some
    i, j, on one plane: B[k, j] and (A^T @ ~C)[k, j] > 0."""
    return ((_count(A.T, ~C) > 0) & B).any(axis=1)


def _unequal_columns(E, F):
    """Columns k where E[i, j] holds but F[i, k] != F[j, k] for some
    i, j, on one plane.  Row i's E-neighbours j all have F[j, k] set iff
    their count in E @ F is the row degree of E, and none iff it is 0."""
    count = _count(E, F)
    degree = E.sum(axis=1)[:, None]
    return np.where(F, count != degree, count != 0).any(axis=0)


def _classes(E):
    """The first member of each row's class when the boolean plane E is
    an equivalence relation, else None.  E is an equivalence exactly when
    it relates the rows whose first members agree: such an E is the
    kernel of a map, and in an equivalence the first member of a row is
    the least member of its class."""
    first = E.argmax(axis=1)
    if np.array_equal(E, first[:, None] == first[None, :]):
        return first
    return None


def _plane_failures(E, M):
    """On one plane: the middles failing families 5, 6 and 7, and for
    family 9 one row of failing middles per substituted formula (w in z,
    z in w, w = z, whose value at (w, z) is M, M^T and E).

    When E is an equivalence relation the laws are decided on its
    classes; the products run only where they must name failing
    middles: for every family when E is not an equivalence, and for
    family 6 or 7 when it fails."""
    first = _classes(E)
    if first is None:
        return (_failing_middles(E, E, E), _failing_middles(E, M, M),
                _failing_middles(M, E, M),
                np.array([_unequal_columns(E, F) for F in (M, M.T, E)]))
    # a column of F is constant on the classes iff it equals F[first]
    # there; E's columns are, and the columns of M^T are the rows of M
    rows, cols = M != M[first], M != M[:, first]
    none = np.zeros(len(E), dtype=bool)
    return (none,
            _failing_middles(E, M, M) if rows.any() else none,
            _failing_middles(M, E, M) if cols.any() else none,
            np.array([rows.any(axis=0), cols.any(axis=1), none]))


def _distinct_rows(M):
    """The rows of a boolean plane, each distinct row once, found by
    hashing the packed rows."""
    packed = np.packbits(M, axis=1)
    last = {row.tobytes(): i for i, row in enumerate(packed)}
    return M[list(last.values())]


def _fragment_codes(codes, MEM):
    """The unbounded forms fex[x, z] = \\/_w [w in x] /\\ [w in z] and
    ffa[x, z] = /\\_w [w in x] -> [w in z] over the whole pool as
    fragment, on the Birkhoff codes of MEM, as codes.

    Bit p of fex is M_p^T @ M_p > 0 on the plane M_p of p, bit p of MEM.
    p <= a -> b iff q <= a implies q <= b for every join-irreducible
    q <= p, so ffa is the interior of the planes where no w has
    M_p[w, x] and not M_p[w, z].  Each product runs over the distinct
    rows w of the plane only: a repeated row changes no OR, so both
    forms stay exact on any MEM.
    """
    planes = [_distinct_rows(codes.plane(MEM, i)) for i in range(codes.size)]
    fex = codes.from_planes(MEM.shape[:2], (_count(U.T, U) > 0 for U in planes))
    ffa = codes.from_planes(MEM.shape[:2], (_count(U.T, ~U) == 0 for U in planes))
    return fex, codes.interior(ffa)


def valuation_law_families(rep, ctx, kernel):
    """Add the eleven law families over the pool `ctx.fragment` to the
    report `rep` and return it, given the context's kernel
    (pos, EQ, MEM, K, V, sizes) from `valuation._eq_kernel(ctx, pool)`,
    whose values are Birkhoff codes (`HeytingAlgebra.codes`: the
    join-irreducibles below a value, as bits).  The families compare
    codes, which are injective, and decode only the samples of 10 and
    11.  They run in the kernel's (rank, id) order, the order of a pool
    that `enumerate_names` builds on a fresh store; `ValueError` is
    raised before any of them runs when `ctx.fragment`, which the
    unbounded forms of 10 and 11 range over, is not the kernel's names
    in that order.

    The order laws 5, 6, 7 and 9 quantify over a middle name k, n^2
    checks per middle.  They are decided on join-irreducible bitplanes
    (Birkhoff): a /\\ b <= c holds iff for every join-irreducible p,
    p <= a and p <= b imply p <= c, and a = b iff they have the same
    join-irreducibles below.  The planes E_p = (p <= EQ) and
    M_p = (p <= MEM) are bit p of the codes, and the families are
    decided on the classes of E_p, in O(n^2) per p: when E_p is an
    equivalence relation, family 5 holds on it, family 6 holds iff every
    row of M_p is constant on the classes, family 7 iff every column is,
    and the columns k of M_p, M_p^T and E_p that are not constant on the
    classes are the middles failing family 9.  The 0/1 matrix products
    `_failing_middles` and `_unequal_columns` run only on a plane whose
    E_p is not an equivalence (all four families) or where family 6 or
    7 fails (that family), to name the failing middles.

    Families 2, 4 and 8 and the bounded forms of 10 and 11 are folds
    over the kernel's child slots K, V: families 4, 10 and 11 by
    `valuation._code_fold`, the fold the kernel builds EQ and MEM with,
    and family 8 in its row blocks; families 2 and 8 test a <= b as
    a & ~b == 0, which the padding code of bottom, 0, passes.

    Families 10 and 11 also compare `EVAL_SAMPLES` x `EVAL_SAMPLES`
    samples: the bounded form through `ctx.eval`, and the unbounded form
    over the pool as fragment through one `eval_grid`.
    """
    store, pool, codes = ctx.store, ctx.fragment, ctx.algebra.codes
    pos, EQ, MEM, K, V, sizes = kernel
    if tuple(pos) != pool:
        raise ValueError("the fragment is not the kernel's names in kernel order")
    n = len(pool)
    # one contiguous copy: the kernel's MEM is a transposed view, and the
    # families gather its rows
    MEM = np.ascontiguousarray(MEM)

    def lit(p):
        return store.to_literal(pool[p])

    fam = rep.family("1 reflexivity [x = x] = top")
    diagonal = EQ[np.arange(n), np.arange(n)]
    fam.bulk(n, (diagonal == codes.top).all(axis=1), "diagonal below top")

    fam = rep.family("2 entry value below membership")
    below = ~(V & ~MEM[K, np.arange(n)[:, None]]).any(axis=2)
    fam.checked += int(sizes.sum())
    fam.violations.extend({"y": lit(j), "u": lit(K[j, s])}
                          for j, s in np.argwhere(~below))

    fam = rep.family("3 symmetry [x = y] = [y = x]")
    fam.bulk(n * n, np.array_equal(EQ, EQ.transpose(1, 0, 2)), "asymmetric pair")

    fam = rep.family("4 mirrored membership [x in y] = [y ni x]")
    mirrored = (_code_fold(codes, K, V, EQ) == MEM.transpose(1, 0, 2)).all(axis=(1, 2))
    fam.checked += n * n
    fam.violations.extend({"x": lit(i)} for i in np.flatnonzero(~mirrored))

    # family 9 substitutes into w in z, z in w and w = z: on a plane the
    # value at (w, z) is M[w, z], M^T[w, z] and E[w, z]
    substituted = ("w in z", "z in w", "w = z")
    fail5, fail6, fail7 = (np.zeros(n, dtype=bool) for _ in range(3))
    fail9 = np.zeros((len(substituted), n), dtype=bool)
    for p in range(codes.size):
        f5, f6, f7, f9 = _plane_failures(codes.plane(EQ, p), codes.plane(MEM, p))
        fail5 |= f5
        fail6 |= f6
        fail7 |= f7
        fail9 |= f9

    for name, fail in (("5 equality transitive", fail5),
                       ("6 equality then membership", fail6),
                       ("7 membership then equality", fail7)):
        fam = rep.family(name)
        fam.checked += n * n * n
        fam.violations.extend({"middle": lit(k)} for k in np.flatnonzero(fail))

    fam = rep.family("8 equality carries entries")
    carried = np.ones(K.shape, dtype=bool)
    for rows in _row_blocks(n, EQ[:1].size, va.FOLD_CELLS):  # read when called
        for s in range(K.shape[1]):
            carried[rows, s] = ~(EQ[rows] & V[rows, s, None]
                                 & ~MEM[K[rows, s]]).any(axis=(1, 2))
    fam.checked += n * int(sizes.sum())
    fam.violations.extend({"x": lit(i), "u": lit(K[i, s])}
                          for i, s in np.argwhere(~carried))

    fam = rep.family("9 substitution under equality")
    fam.checked += len(substituted) * n * n * n
    fam.violations.extend({"family": substituted[t], "z": lit(k)}
                          for k, t in np.argwhere(fail9.T))

    # bounded-quantifier expansion over dom x, with the value of the
    # unbounded form over the full pool as fragment for comparison
    bex = _code_fold(codes, K, V, MEM)
    bfa = _code_fold(codes, K, V, MEM, implies=True)
    fex, ffa = _fragment_codes(codes, MEM)

    step = max(1, n // EVAL_SAMPLES)
    sample = pool[::step]
    for name, value, form, bounded, unbounded in (
        ("10 bounded exists expands over the domain", bex, fex,
         "exists u in X . u in Z", "exists u . u in X /\\ u in Z"),
        ("11 bounded forall expands over the domain", bfa, ffa,
         "forall u in X . u in Z", "forall u . u in X -> u in Z"),
    ):
        bounded = parse_formula(bounded, free=("X", "Z"))
        unbounded = eval_grid(ctx, parse_formula(unbounded, free=("X", "Z")),
                              {"X": sample, "Z": sample})
        fam = rep.family(name)
        fam.bulk(n * n, np.array_equal(value, form), "fragment form differs")
        value = codes.decode(value[::step, ::step])
        for (i, x), (j, z) in iproduct(enumerate(sample), repeat=2):
            b = ctx.eval(bounded, {"X": x, "Z": z})
            ok = b == value[i, j] == unbounded[i, j]
            fam.record(ok, None if ok else
                       {"x": store.to_literal(x), "z": store.to_literal(z)})

    return rep


# -- the pinned counterexample --------------------------------------------------------


def counterexample_names(store):
    """The pinned name over the four-element Boolean algebra whose strict
    image set is empty: its two children differ only in the value an atom
    assigns to the empty name, which no two-chain name can track."""
    four = store.algebra
    e = store.intern({})
    u1 = store.intern({e: four.index("0")})
    u2 = store.intern({e: four.index("a")})
    return store.intern({u1: four.index("0"), u2: four.index("1")})


def counterexample_suite():
    """Strict lifting has no image for the pinned name while the
    generalized lift succeeds through an equivalence pad."""
    alg = test_algebras()
    f = standard_morphisms(alg)["f"]
    sa, sb = NameStore(alg["four"]), NameStore(alg["chain2"])
    x = counterexample_names(sa)
    pool_b = enumerate_names(sb, max_rank=2)
    rep = CheckReport(
        title="strict lifting counterexample",
        config={
            "morphism": "f",
            "source_hash": alg["four"].content_hash(),
            "target_hash": alg["chain2"].content_hash(),
            "candidates": len(pool_b),
        },
    )

    fam = rep.family("strict relation yields no image")
    images = tr.first_proposal_images(f, x, pool_b, sa, sb)
    fam.record(images == [], {"images": [sb.to_literal(i) for i in images]})

    fam = rep.family("generalized lift succeeds")
    wl = tr.lift(f, x, sa, sb)
    ctx_b = EvalContext(sb)
    fam.record(tr.is_generalized_related(f, x, wl.image, sa, ctx_b),
               "lift image not related")
    e = sb.intern({})
    w = sb.intern({e: sb.algebra.index("0")})
    pinned = sb.intern({w: sb.algebra.index("0"),
                        pad_equivalent(sb, w, 1): sb.algebra.index("1")})
    fam.record(wl.image == pinned,
               {"image": sb.to_literal(wl.image), "expected": sb.to_literal(pinned)})

    fam = rep.family("witness passes through an equivalence pad")
    targets = [t for _, t in wl.witness]
    fam.record(pad_equivalent(sb, w, 1) in targets,
               {"witness_targets": [sb.to_literal(t) for t in targets]})
    fam.record(len(set(targets)) == len(targets), "witness not injective")
    return rep


def injective_suite(rank=2, budget=None):
    """Along an injective morphism the strict relation is already a total
    injective function whose values are the canonical lifts."""
    alg = test_algebras()
    i = standard_morphisms(alg)["i"]
    sa, sb = NameStore(alg["chain2"]), NameStore(alg["four"])
    pool_a = enumerate_names(sa, max_rank=rank, budget=budget)
    pool_b = enumerate_names(sb, max_rank=rank, budget=budget)
    rep = CheckReport(
        title="strict lifting along an injective morphism",
        config={"morphism": "i", "source_pool": len(pool_a),
                "candidate_pool": len(pool_b)},
    )
    fam_total = rep.family("every name has exactly one strict image")
    fam_intern = rep.family("strict image is the canonical lift, interned")
    images = []
    for x, imgs in zip(pool_a, tr.strict_images(i, pool_a, pool_b, sa, sb)):
        fam_total.record(len(imgs) == 1,
                         {"x": sa.to_literal(x), "image_count": len(imgs)})
        canon = tr.lift(i, x, sa, sb).image
        fam_intern.record(imgs == [canon], {"x": sa.to_literal(x)})
        images.append(canon)
    fam = rep.family("the strict function is injective")
    fam.bulk(len(pool_a), len(set(images)) == len(images), "image collision")
    return rep


# -- preservation sweeps --------------------------------------------------------------

POSITIVE_BOUNDED_FAMILY = (
    "X in Y",
    "X = Y",
    "exists u in X . u in Y",
    "forall u in X . u in Y",
    "exists u in X . forall v in Y . u = v",
    "forall u in X . exists v in Y . u = v",
)


def _sweep_cap(algebra, max_domain):
    # the two-chain pool stays uncapped (it is finite and small); the
    # larger algebras use the domain cap
    return None if algebra.n == 2 else max_domain


def _sweep_pool(store, rank, max_domain, budget=None):
    return enumerate_names(store, max_rank=rank,
                           max_domain=_sweep_cap(store.algebra, max_domain), budget=budget)


def preservation_suite(rank=2, max_domain=2, budget=None):
    """Atomic and positive-bounded preservation along the standard
    morphisms, over canonical lift pairs for the full pools.

    Each source pool gets an equality kernel, so a pool whose
    enumeration or kernel is over its budget raises BudgetExceeded
    before any name is enumerated."""
    alg = test_algebras()
    morphisms = standard_morphisms(alg)
    order = ("f", "collapse0", "collapse1", "i")
    for mname in order:
        source = morphisms[mname].source
        check_kernel_size(pool_size(source.n, rank, _sweep_cap(source, max_domain), budget))
    rep = CheckReport(
        title="preservation along standard morphisms",
        config={"rank": rank, "max_domain": max_domain,
                "morphisms": sorted(morphisms)},
    )
    for mname in order:
        m = morphisms[mname]
        sa, sb = NameStore(m.source), NameStore(m.target)
        ctx_a, ctx_b = EvalContext(sa), EvalContext(sb)
        pool = _sweep_pool(sa, rank, max_domain, budget)
        pairs = [(x, tr.lift(m, x, sa, sb).image) for x in pool]
        fam = tr.check_atomic_preservation(m, pairs, ctx_a, ctx_b)
        fam.notes["pairs"] = len(pairs)
        rep.families.append(fam)
        fam = rep.family(f"positive bounded preservation along {mname}")
        for text in POSITIVE_BOUNDED_FAMILY:
            phi = parse_formula(text, free=("X", "Y"))
            sub = tr.check_positive_bounded_preservation(
                m, phi, pairs, ctx_a, ctx_b, title=text)
            fam.checked += sub.checked
            if sub.violations:
                fam.violations.append({"formula": text, "first": sub.violations[0]})
    return rep


def functoriality_suite(rank=2, max_domain=2, budget=None):
    """Identity lifts are the identity (by internal equality, and in fact
    by interning) on every standard pool; lifting along i then f agrees
    with lifting along the composite."""
    alg = test_algebras()
    morphisms = standard_morphisms(alg)
    rep = CheckReport(
        title="functoriality of lifting",
        config={"rank": rank, "max_domain": max_domain},
    )
    for aname, algebra in alg.items():
        store = NameStore(algebra)
        ctx = EvalContext(store)
        pool = _sweep_pool(store, rank, max_domain, budget)
        ident = tr.identity_morphism(algebra)
        fam = rep.family(f"identity lift over {aname}")
        interned = True
        for x in pool:
            wl = tr.lift(ident, x, store, store)
            fam.record(ctx.atomic_eq(wl.image, x) == algebra.top,
                       {"x": store.to_literal(x)})
            interned &= wl.image == x
        fam.notes["images_interned_equal"] = interned
    i, f = morphisms["i"], morphisms["f"]
    sa = NameStore(alg["chain2"])
    sb = NameStore(alg["four"])
    sc = NameStore(alg["chain2"])
    ctx_c = EvalContext(sc)
    pool = enumerate_names(sa, max_rank=rank, budget=budget)
    gf = tr.compose_locale(f, i)
    fam = rep.family("composite lift i then f")
    for x in pool:
        via = tr.lift(f, tr.lift(i, x, sa, sb).image, sb, sc).image
        direct = tr.lift(gf, x, sa, sc).image
        fam.record(ctx_c.atomic_eq(via, direct) == alg["chain2"].top,
                   {"x": sa.to_literal(x)})
    return rep


# -- immersion of ordinary finite sets ------------------------------------------------


def small_hf_sets():
    """Hereditarily finite sets of depth at most 3 and width at most 3."""
    level = [frozenset()]
    for _ in range(3):
        seen = list(level)
        extra = []
        for r in range(1, min(3, len(seen)) + 1):
            extra.extend(frozenset(c) for c in combinations(seen, r))
        for x in extra:
            if x not in level:
                level.append(x)
    return level


def immersion_suite():
    """hat embeds ordinary finite sets rigidly over every test algebra:
    membership and equality valuate to top exactly on true instances and
    to bottom otherwise; over the two-chain, projecting back is exact."""
    rep = CheckReport(title="immersion of hereditarily finite sets")
    sets = small_hf_sets()
    rep.config["hf_sets"] = len(sets)
    for aname, algebra in test_algebras().items():
        store = NameStore(algebra)
        ctx = EvalContext(store)
        names = [hat_embed(store, x) for x in sets]
        top, bottom = algebra.top, algebra.bottom
        fam = rep.family(f"membership biconditional over {aname}")
        for a, na in zip(sets, names):
            for b, nb in zip(sets, names):
                want = top if a in b else bottom
                fam.record(ctx.atomic_mem(na, nb) == want, {"pair": (str(a), str(b))})
        fam = rep.family(f"equality biconditional over {aname}")
        for a, na in zip(sets, names):
            for b, nb in zip(sets, names):
                want = top if a == b else bottom
                fam.record(ctx.atomic_eq(na, nb) == want, {"pair": (str(a), str(b))})
    store2 = NameStore(make_chain(2))
    fam = rep.family("project after embed is the identity")
    for x in sets:
        fam.record(check_project(store2, hat_embed(store2, x)) == x, {"set": str(x)})
    return rep


# -- negative validators --------------------------------------------------------------


def m3_lattice_input():
    """The five-element diamond M3: bottom, three incomparable atoms, top.
    A lattice but not a frame."""
    labels = ["0", "a", "b", "c", "1"]
    n = 5
    leq = np.zeros((n, n), dtype=bool)
    for i in range(n):
        leq[i, i] = True
        leq[0, i] = True
        leq[i, 4] = True
    return labels, leq


def negative_validator_suite():
    """The adjoint-like maps l and r fail to be locale morphisms with the
    expected witnesses, and M3 fails frame validation."""
    alg = test_algebras()
    four, two = alg["four"], alg["chain2"]
    rep = CheckReport(title="validators reject non-morphisms and non-frames")

    fam = rep.family("l (left adjoint style) is not meet preserving")
    try:
        tr.validate_locale_morphism(four, two, [0, 1, 1, 1], name="l")
        fam.record(False, "l accepted")
    except NotMeetPreserving as ex:
        fam.record(sorted(ex.witness) == ["a", "na"], {"witness": ex.witness})
    except HvError as ex:
        fam.record(False, {"wrong error": type(ex).__name__})

    fam = rep.family("r (right adjoint style) is not join preserving")
    try:
        tr.validate_locale_morphism(four, two, [0, 0, 0, 1], name="r")
        fam.record(False, "r accepted")
    except NotJoinPreserving as ex:
        fam.record(sorted(ex.witness) == ["a", "na"], {"witness": ex.witness})
    except HvError as ex:
        fam.record(False, {"wrong error": type(ex).__name__})

    fam = rep.family("M3 is not a frame")
    labels, leq = m3_lattice_input()
    try:
        HeytingAlgebra(labels, leq, name="m3")
        fam.record(False, "M3 accepted")
    except NotAFrame as ex:
        fam.record(len(set(ex.witness)) == 3, {"witness": ex.witness})
    except HvError as ex:
        fam.record(False, {"wrong error": type(ex).__name__})
    return rep


# -- the H-set category ---------------------------------------------------------------


def _random_hset(algebra, rng, max_points=3):
    """A valid H-set: distances from random predicate vectors through
    biimplication, cut down by a random existence degree."""
    npts = rng.randrange(1, max_points + 1)
    mt, it = algebra.meet_table, algebra.impl_table
    delta = np.full((npts, npts), algebra.top, dtype=np.int64)
    for _ in range(2):
        row = np.array([rng.randrange(algebra.n) for _ in range(npts)])
        bii = mt[it[row[:, None], row[None, :]], it[row[None, :], row[:, None]]]
        delta = mt[delta, bii]
    e = np.array([rng.randrange(algebra.n) for _ in range(npts)])
    delta = mt[delta, mt[e[:, None], e[None, :]]]
    return hs.HSet(algebra, list(range(npts)), delta)


def _graph_morphisms(X, Y):
    """All valid morphisms X -> Y of graph shape phi(x, y') =
    delta_Y(g(x), y') for point maps g, in `iproduct` order of g.

    The G = ny^nx graph tables Y.delta[g] are one stack, decided whole
    by one `hset.morphism_law_masks`.  Above `GRID_BUDGET` cells for
    the slab it builds per source point, G*ny*max(nx, ny), which holds
    at least as many cells as the tables, `BudgetExceeded` is raised
    before any table is built."""
    nx, ny = len(X), len(Y)
    G = ny ** nx
    cells = G * ny * max(nx, ny)
    if cells > GRID_BUDGET:
        raise BudgetExceeded(
            f"{G} point maps of {nx} into {ny} points need {cells} cells, "
            f"over the {GRID_BUDGET}-cell budget",
            predicted=cells, budget=GRID_BUDGET)
    gs = np.arange(G)[:, None] // ny ** np.arange(nx - 1, -1, -1) % ny
    phis = Y.delta[gs]
    lawful = hs.morphism_law_masks(X.algebra, X.delta, Y.delta, phis)
    return [hs.HSetMorphism(X, Y, phi) for phi in phis[lawful]]


# -- the category families, one stack per algebra -------------------------------------


def _stack(A, tables):
    """`tables` over the algebra A as one stack, padded with bottom to the
    most rows and columns, padded points last, which `hset` reads as
    vacuous, as `transfer.epsilon_tables` pads."""
    shape = tuple(max((t.shape[k] for t in tables), default=0) for k in (0, 1))
    out = np.full((len(tables),) + shape, A.bottom, dtype=np.int64)
    for g, t in enumerate(tables):
        out[g, :t.shape[0], :t.shape[1]] = t
    return out


def _verdicts(A, checks):
    """For each (ms, laws) of `checks`, whether every morphism of ms is
    lawful and P ; Q (`hset.compose(Q, P)`) <= R for every triple of
    tables (P, Q, R) of laws, <= one-sided as in `hset.morphisms_equal`:
    one `morphism_law_masks` and one `compose_tables` on stacks."""
    ms = [m for mors, _ in checks for m in mors]
    lawful = iter(hs.morphism_law_masks(A, *(_stack(A, [t(m) for m in ms]) for t in (
        lambda m: m.source.delta, lambda m: m.target.delta, lambda m: m.phi))))
    P, Q, R = (_stack(A, [law[k] for _, laws in checks for law in laws]) for k in range(3))
    below = iter(A.leq[hs.compose_tables(A, P, Q), R].all(axis=(1, 2)))
    return [all([next(lawful) for _ in mors] + [next(below) for _ in laws])
            for mors, laws in checks]


def _category_families(rep, algebras, corpus, graphs):
    """Add the H-set category families, identity to equalizer, to `rep`,
    over the H-sets `corpus[aname]` of each algebra `algebras[aname]` and
    the morphisms `graphs[id(X), id(Y)]`.  Each is a fixed number of
    whole-array calls per algebra on stacks of its tables (the function
    predicate one `eval_grid` read on its diagonal); checks are recorded
    in the order of the per-morphism loops these replace."""
    fam_id = rep.family("identity is neutral for composition")
    fam_assoc = rep.family("composition is associative")
    fam_onesided = rep.family("one-sided comparison already implies equality")
    fam_dagger = rep.family("dagger roundtrip is an isomorphism")
    fam_fun = rep.family("dagger of the identity satisfies the function predicate")
    fam_comp = rep.family("completion is complete and idempotent")
    fam_prod = rep.family("product projections and pairing")
    fam_eq = rep.family("equalizer equalizes and includes")
    for aname, hsets in corpus.items():
        A = algebras[aname]
        pairs = list(iproduct(hsets, hsets))
        mors = [graphs[id(X), id(Y)][:6] for X, Y in pairs]
        # m . id_X <= m and id_Y . m <= m
        for ok in _verdicts(A, [((), [(m.source.delta, m.phi, m.phi),
                                      (m.phi, m.target.delta, m.phi)]) for ps in mors for m in ps]):
            fam_id.record(ok, {"algebra": aname})
        # m <= m2 implies m = m2, for the morphisms of one pair
        lo, hi = (_stack(A, [mm[k].phi for ps in mors for mm in iproduct(ps, ps)])
                  for k in (0, 1))
        for ok in (lo == hi).all(axis=(1, 2))[A.leq[lo, hi].all(axis=(1, 2))]:
            fam_onesided.record(bool(ok), {"algebra": aname})
        # (m ; m2) ; m3 <= m ; (m2 ; m3)
        triples = [(m, m2, m3) for X, Y, Z in iproduct(hsets, repeat=3)
                   for m in graphs[id(X), id(Y)][:2] for m2 in graphs[id(Y), id(Z)][:2]
                   for m3 in graphs[id(Z), id(X)][:2]]
        M1, M2, M3 = (_stack(A, [t[k].phi for t in triples]) for k in range(3))
        lhs = hs.compose_tables(A, hs.compose_tables(A, M1, M2), M3)
        rhs = hs.compose_tables(A, M1, hs.compose_tables(A, M2, M3))
        for ok in A.leq[lhs, rhs].all(axis=(1, 2)):
            fam_assoc.record(bool(ok), {"algebra": aname})
        # the dagger isos phi: X -> Y and psi: Y -> X are lawful and inverse
        store = NameStore(A)
        ctx = EvalContext(store)
        firsts = hsets[:2]
        isos = [(X,) + hs.dagger_iso(ctx, X) for X in firsts]
        roundtrips = [((phi, psi), [(phi.phi, psi.phi, X.delta),
                                    (psi.phi, phi.phi, phi.target.delta)]) for X, phi, psi in isos]
        for X, ok in zip(firsts, _verdicts(A, roundtrips)):
            fam_dagger.record(ok, {"algebra": aname, "points": len(X)})
        dots = [hs.dagger_hset(store, X) for X in firsts]
        fun = eval_grid(ctx, function_predicate(), {
            "H": [hs.dagger_morphism(store, hs.identity(X)) for X in firsts], "X": dots, "Y": dots})
        for k, X in enumerate(firsts):
            fam_fun.record(fun[k, k, k] == A.top, {"algebra": aname, "points": len(X)})
        # fwd: X -> C and bwd: C -> X are lawful and inverse, C is complete,
        # and so are the isos of C and its completion C2
        roundtrips = []
        for X in firsts:
            C, (f, b) = hs.completion(X)
            C2, (f2, b2) = hs.completion(C)
            roundtrips.append(((f, b), [(f.phi, b.phi, X.delta), (b.phi, f.phi, C.delta),
                                        (f2.phi, b2.phi, C.delta), (b2.phi, f2.phi, C2.delta)]))
        for ((f, _), _), ok in zip(roundtrips, _verdicts(A, roundtrips)):
            fam_comp.record(ok and hs.is_complete(f.target), {"algebra": aname})
        # the projections of X x Y, and the pairing W -> X x Y of the first
        # morphisms h1: W -> X and h2: W -> Y of the first W that has both
        products = [hs.product([X, Y]) for X, Y in pairs]
        pairings = {}
        for k, ((X, Y), (P, (p1, p2))) in enumerate(zip(pairs, products)):
            W = next((W for W in hsets if graphs[id(W), id(X)] and graphs[id(W), id(Y)]), None)
            if W is not None:
                h1, h2 = graphs[id(W), id(X)][0].phi, graphs[id(W), id(Y)][0].phi
                m = hs.HSetMorphism(W, P, A.meet_table[h1[:, :, None], h2[:, None, :]])
                pairings[k] = ([m], [(m.phi, p1.phi, h1), (m.phi, p2.phi, h2)])
        # stacked apart, as P -> X and W -> P padded together are |P| x |P|
        paired = dict(zip(pairings, _verdicts(A, list(pairings.values()))))
        for k, ok in enumerate(_verdicts(A, [(projs, []) for _, projs in products])):
            fam_prod.record(ok, {"algebra": aname, "kind": "projections"})
            if k in paired:
                fam_prod.record(paired[k], {"algebra": aname, "kind": "pairing"})
        # the inclusion incl of the equalizer of m and m2 is lawful, and
        # m . incl <= m2 . incl
        both = [mm for ps in mors for mm in iproduct(ps[:2], ps[:2])]
        D = _stack(A, [m.source.delta for m, _ in both])
        M, M2 = (_stack(A, [mm[k].phi for mm in both]) for k in (0, 1))
        tau, inc = hs.equalizer_tables(A, D, M, M2)
        for ok in hs.morphism_law_masks(A, tau, D, inc) & A.leq[
                hs.compose_tables(A, inc, M), hs.compose_tables(A, inc, M2)].all(axis=(1, 2)):
            fam_eq.record(bool(ok), {"algebra": aname})


def hset_law_suite(seed=DEFAULT_SEED, rank=2, max_domain=2, budget=None):
    """Category laws, equality from one-sided comparison, dagger and
    completion roundtrips, product/equalizer behavior, bridge coherence,
    and the induced morphism of a witnessed lift.

    The category families run on a seeded corpus of `CORPUS_PER_ALGEBRA`
    H-sets of up to 3 points per algebra and their graph morphisms, each
    family decided as one stack per algebra by `_category_families`.
    The induced morphisms of every name of the rank-`rank`, domain cap
    `max_domain` pool over `four`, lifted along `f`, are decided as one
    stack on the equality kernels of the pool and of its images, so a
    pool whose enumeration or kernel is over its budget raises
    BudgetExceeded before any work is done."""
    import random

    alg = test_algebras()
    check_kernel_size(pool_size(alg["four"].n, rank, max_domain, budget))
    rep = CheckReport(title="H-set category laws",
                      config={"seed": seed, "corpus_per_algebra": CORPUS_PER_ALGEBRA})
    rng = random.Random(seed)
    corpus = {}
    for aname, algebra in alg.items():
        corpus[aname] = [_random_hset(algebra, rng) for _ in range(CORPUS_PER_ALGEBRA)]
    # every call below takes a prefix of one ordered pair's morphisms
    graphs = {(id(X), id(Y)): _graph_morphisms(X, Y)
              for hsets in corpus.values() for X, Y in iproduct(hsets, hsets)}

    _category_families(rep, alg, corpus, graphs)

    fam = rep.family("name bridge coherence (identity and composition)")
    for aname, algebra in alg.items():
        store = NameStore(algebra)
        ctx = EvalContext(store)
        e = store.intern({})
        seeds = [store.intern({e: algebra.top}),
                 store.intern({e: algebra.bottom}),
                 store.intern({store.intern({e: algebra.top}): algebra.top})]
        for u in seeds:
            u1 = pad_equivalent(store, u, 1)
            u2 = pad_equivalent(store, u, 2)
            lam_uu = hs.lambda_iso(ctx, u, u)
            ident = hs.identity(hs.from_name(ctx, u))
            ok = hs.morphisms_equal(lam_uu, ident)
            a_b = hs.lambda_iso(ctx, u, u1)
            b_c = hs.lambda_iso(ctx, u1, u2)
            a_c = hs.lambda_iso(ctx, u, u2)
            ok = ok and hs.morphisms_equal(hs.compose(b_c, a_b), a_c)
            back = hs.lambda_iso(ctx, u1, u)
            ok = ok and hs.morphisms_equal(hs.compose(back, a_b), ident)
            fam.record(ok, {"algebra": aname, "u": store.to_literal(u)})

    fam = rep.family("induced morphism of a witnessed lift validates")
    fam_wi = rep.family("induced morphism is witness independent")
    f = standard_morphisms(alg)["f"]
    two = alg["chain2"]
    sa, sb = NameStore(alg["four"]), NameStore(two)
    ctx_a, ctx_b = EvalContext(sa), EvalContext(sb)
    pool = enumerate_names(sa, max_rank=rank, max_domain=max_domain, budget=budget)
    wls = [tr.lift(f, x, sa, sb) for x in pool]
    ds, dt, phis = tr.epsilon_tables(f, wls, ctx_a, ctx_b)
    lawful = hs.morphism_law_masks(two, ds, dt, phis)
    fam.checked += len(pool)
    fam.violations.extend(
        {"x": sa.to_literal(pool[g]), "violations": hs.validate_morphism(
            tr.epsilon_hset_morphism(f, wls[g], ctx_a, ctx_b)).violations[:2]}
        for g in np.flatnonzero(~lawful))
    mono, epi = tr.mono_epi_masks(two, ds, dt, phis)
    # a two-entry name whose witness targets are equal with value top and
    # whose values f identifies has a second witness: the swapped targets,
    # whose equality is a gather from the kernel epsilon_tables built
    pairs = [g for g, wl in enumerate(wls) if len(wl.witness) == 2]
    left, right = ([wls[g].witness[k][1] for g in pairs] for k in (0, 1))
    pos_b, EQ_b = _eq_kernel(ctx_b, left + right)[:2]
    top_equal = (EQ_b[[pos_b[u] for u in left], [pos_b[v] for v in right]]
                 == two.codes.top).all(axis=-1)
    swaps, alts = [], []
    for g, equal in zip(pairs, top_equal):
        (u, uv), (v, vv) = sa.entries(pool[g])
        if equal and f(uv) == f(vv):
            tau = dict(wls[g].witness)
            swaps.append(g)
            alts.append(tr.witnessed_lift_with(f, pool[g], {u: tau[v], v: tau[u]}, sa, ctx_b))
    if swaps:
        phis_alt = tr.epsilon_tables(f, alts, ctx_a, ctx_b)[2]
        for g, wl2, phi2 in zip(swaps, alts, phis_alt):
            same = wl2.image == wls[g].image and np.array_equal(phis[g, :2, :2], phi2)
            fam_wi.record(same, None if same else {"x": sa.to_literal(pool[g])})
    fam_wi.notes["alternate_witness_instances"] = len(swaps)
    fam.notes["mono_probe_passes"] = f"{mono.sum()}/{len(pool)} (experimental, not asserted)"
    fam.notes["epi_probe_passes"] = f"{epi.sum()}/{len(pool)} (experimental, not asserted)"
    return rep
