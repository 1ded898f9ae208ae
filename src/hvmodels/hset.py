"""The category of H-sets and its bridges to the name universe.

An H-set is a carrier of opaque points with an H-valued equality table
delta (symmetric, transitive).  Morphisms are H-valued functional
relations.  The bridges: from_name turns a name u into the H-set
(dom u, delta_u); the dagger constructions go back, turning an H-set
(or morphism) into a name; lambda tables give the canonical isomorphisms
between from_name images of equal names and the morphism induced by an
internal function name.  Each bridge takes the `EvalContext` of its
store and gathers its tables from the context's equality kernel
(`valuation._extents`); no table is filled one cell at a time.

The table kernels decide a whole stack of tables at once, and each
single-morphism operation is its kernel on a stack of one:
`compose_tables` (for `compose`) takes one step per middle over every
table of the stack, `equalizer_tables` (for `equalizer`) is one such
composition, and `morphism_law_masks` (for `validate_morphism`, which
returns an `errors.Family` with `{"law", "witness", "values"}`
violations) decides the four morphism laws with memory G*nt^2 per
source point (G*ns*nt for source congruence).  Tables of different
carriers are padded with bottom to one shape, padded points last; a
padded point, with bottom extent, row and column, composes to bottom
and satisfies every law vacuously.  `checks.hset_law_suite` decides its
category families this way, one stack per algebra and family."""

import math
import re
from dataclasses import dataclass
from itertools import islice, product as iproduct

import numpy as np

from .errors import (
    BudgetExceeded,
    CrossAlgebra,
    Family,
    NotAFunctionName,
    NotComposable,
    NotEquivalent,
    ParseError,
)
from . import names as names_mod
from .lattice import _row_blocks, split_arrow_header, text_lines
from .valuation import _bridge, _extents

SINGLETON_BUDGET = 1 << 16
PRODUCT_CAP = 4096
SLAB_CELLS = 1 << 16


class HSet:
    def __init__(self, algebra, points, delta):
        self.algebra = algebra
        self.points = list(points)
        self.index = {p: i for i, p in enumerate(self.points)}
        if len(self.index) != len(self.points):
            raise ParseError("duplicate carrier points")
        n = len(self.points)
        delta = np.asarray(delta, dtype=np.int64).reshape(n, n) if n else np.zeros((0, 0), dtype=np.int64)
        self.delta = delta
        self.delta.setflags(write=False)

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"HSet({len(self.points)} points over {self.algebra!r})"


class HSetMorphism:
    def __init__(self, source, target, phi):
        self.source = source
        self.target = target
        phi = np.asarray(phi, dtype=np.int64).reshape(len(source), len(target))
        self.phi = phi
        self.phi.setflags(write=False)

    def __repr__(self):
        return f"HSetMorphism({len(self.source)} -> {len(self.target)})"


@dataclass(frozen=True)
class Singleton:
    owner: object
    sigma: tuple


def hsets_equal(X, Y):
    return X is Y or (
        X.algebra is Y.algebra
        and X.points == Y.points
        and np.array_equal(X.delta, Y.delta)
    )


# -- validators -----------------------------------------------------------------


def _fail(rep, law, witness, values):
    rep.violations.append({"law": law, "witness": witness, "values": values})


def validate_hset(X):
    """Symmetry and transitivity of delta, one check per cell or triple;
    each law reports its first failure."""
    A = X.algebra
    d = X.delta
    n = len(X)
    rep = Family("H-set laws", checked=n * n + n * n * n)
    bad = np.argwhere(d != d.T)
    for i, j in bad[:1]:
        _fail(rep, "symmetry", (X.points[i], X.points[j]),
              (A.labels[d[i, j]], A.labels[d[j, i]]))
    mt, leq = A.meet_table, A.leq
    for y in range(n):
        lhs = mt[d[:, y][:, None], d[y, :][None, :]]
        viol = ~leq[lhs, d]
        if viol.any():
            i, k = map(int, np.argwhere(viol)[0])
            _fail(rep, "transitivity", (X.points[i], X.points[y], X.points[k]),
                  (A.labels[lhs[i, k]], A.labels[d[i, k]]))
            break
    return rep


# (law, kind of the middle witness point) in report order
_MORPHISM_LAWS = (("target congruence", "target"), ("source congruence", "source"),
                  ("single-valuedness", "target"), ("totality", None))


def morphism_law_masks(A, ds, dt, phis, first=None):
    """The four morphism laws for a stack of candidate tables `phis` of
    shape (G, ns, nt); returns the (G,) mask of candidates that satisfy
    all of them.

    The carriers' equality tables are ds, of shape (G, ns, ns), and dt,
    of shape (G, nt, nt), one pair per candidate, or (ns, ns) and
    (nt, nt), one pair shared by every candidate.  A padded point is
    vacuous, so each mask entry is the verdict on the unpadded table.

    One loop over blocks of source points x decides every candidate at
    once on (G, block, nt, nt) slabs (G, block, ns, nt for source
    congruence); a block holds as many x as fit in `SLAB_CELLS` cells,
    and at least one, so a step never needs more than
    max(SLAB_CELLS, G*nt*max(ns, nt)) cells beyond the G*(ns^2 + nt^2)
    cells of per-candidate carriers.  Given a dict `first`, it is filled
    with law -> (x, i, j, lhs, rhs) for the first failure of candidate
    0, lexicographic in (x, i, j); padding, which comes last and never
    fails, leaves it unchanged.
    """
    mt, leq = A.meet_table, A.leq
    G, ns, nt = phis.shape
    ds, dt = (d if d.ndim == 3 else d[None] for d in (ds, dt))
    ok = np.ones(G, dtype=bool)
    for xs in _row_blocks(ns, G * nt * max(ns, nt), SLAB_CELLS):
        px = phis[:, xs, None, :]      # phi(x, y') for the block
        slabs = (
            # 1. delta'(x',y') /\ phi(x,y') <= phi(x,x')
            (mt[dt[:, None], px], px.swapaxes(2, 3)),
            # 2. delta(x,y) /\ phi(x,y') <= phi(y,y')
            (mt[ds[:, xs, :, None], px], phis[:, None]),
            # 3. phi(x,x') /\ phi(x,y') <= delta'(x',y')
            (mt[px.swapaxes(2, 3), px], dt[:, None]),
        )
        for (law, _), (lhs, rhs) in zip(_MORPHISM_LAWS, slabs):
            holds = leq[lhs, rhs]
            good = holds.all(axis=(1, 2, 3))
            ok &= good
            if first is not None and not good[0] and law not in first:
                b, i, j = map(int, np.unravel_index(np.argmin(holds[0]), holds[0].shape))
                first[law] = (xs.start + b, i, j, lhs[0, b, i, j],
                              np.broadcast_to(rhs, lhs.shape)[0, b, i, j])
    # 4. \/_{z'} phi(x,z') = delta(x,x)
    total = compose_tables(A, phis, np.full((nt, 1), A.top))[..., 0]
    holds = total == ds.diagonal(axis1=1, axis2=2)
    good = holds.all(axis=1)
    ok &= good
    if first is not None and not good[0]:
        x = int(np.argmin(holds[0]))
        first["totality"] = (x, None, None, total[0, x], ds[0, x, x])
    return ok


def validate_morphism(m):
    """The four morphism laws, one check per cell they quantify over;
    each law reports its first failure.  This is `morphism_law_masks`
    on a stack of one candidate."""
    A = m.source.algebra
    if A is not m.target.algebra:
        raise CrossAlgebra("morphism endpoints live over different algebras")
    ns, nt = len(m.source), len(m.target)
    rep = Family("H-set morphism laws", checked=2 * ns * nt * nt + ns * ns * nt + ns)
    first = {}
    morphism_law_masks(A, m.source.delta, m.target.delta, m.phi[None], first)
    points = {"source": m.source.points, "target": m.target.points}
    for law, middle in _MORPHISM_LAWS:
        if law in first:
            x, i, j, lhs, rhs = first[law]
            witness = (m.source.points[x],) if middle is None else (
                m.source.points[x], points[middle][i], m.target.points[j])
            _fail(rep, law, witness, (A.labels[lhs], A.labels[rhs]))
    return rep


# -- category structure -----------------------------------------------------------


def identity(X):
    return HSetMorphism(X, X, X.delta.copy())


def compose_tables(A, P, Q):
    """The H-valued composite of two tables over the algebra A:
    (P ; Q)(i, k) = \\/_j P(i, j) /\\ Q(j, k), as an int64 array, one
    n^2 step per middle j.  A leading axis is a stack of tables: P of
    shape (G, n, m) or Q of shape (G, m, k) composes each of its tables
    with the other table, or with its own table of the same index when
    both are stacks."""
    lead = (P if P.ndim >= Q.ndim else Q).shape[:-2]
    out = np.full(lead + (P.shape[-2], Q.shape[-1]), A.bottom, dtype=np.int64)
    for j in range(P.shape[-1]):
        out = A.join_table[out, A.meet_table[P[..., :, j, None], Q[..., j, None, :]]]
    return out


def compose(psi, phi):
    """psi after phi; (psi . phi)(x, x'') = \\/_{x'} phi(x,x') /\\ psi(x',x'')."""
    if not hsets_equal(phi.target, psi.source):
        raise NotComposable("codomain of first factor differs from domain of second")
    return HSetMorphism(phi.source, psi.target,
                        compose_tables(phi.source.algebra, phi.phi, psi.phi))


def morphisms_equal(phi, psi):
    """Equality of parallel morphisms; one-sided pointwise <= suffices."""
    if not (hsets_equal(phi.source, psi.source) and hsets_equal(phi.target, psi.target)):
        return False
    A = phi.source.algebra
    return bool(A.leq[phi.phi, psi.phi].all())


# -- singletons and completion ------------------------------------------------------


def singletons(X):
    """All maps sigma: X -> H with sigma(x)/\\sigma(y) <= delta(x,y) and
    sigma(x)/\\delta(x,y) <= sigma(y).

    Backtracking over coordinates; a partial assignment survives only
    while every already-assigned pair satisfies both conditions, so the
    search stays near the (small) solution set instead of ranging over
    all |H|^|X| candidate maps.
    """
    A = X.algebra
    n = len(X)
    mt, leq, d = A.meet_table, A.leq, X.delta
    # sigma(x) <= delta(x,x) is forced (meet the two laws at y = x)
    options = [np.flatnonzero(leq[:, d[i, i]]) for i in range(n)]
    out = []
    visited = 0
    stack = [(0, ())]
    while stack:
        i, prefix = stack.pop()
        if i == n:
            out.append(Singleton(X, prefix))
            continue
        for v in options[i]:
            visited += 1
            if visited > SINGLETON_BUDGET:
                raise BudgetExceeded(
                    "singleton search exceeded the node budget",
                    predicted=visited, budget=SINGLETON_BUDGET,
                )
            ok = True
            for j in range(i):
                w = prefix[j]
                if not (leq[mt[v, w], d[i, j]]
                        and leq[mt[v, d[i, j]], w]
                        and leq[mt[w, d[j, i]], v]):
                    ok = False
                    break
            if ok:
                stack.append((i + 1, prefix + (int(v),)))
    out.sort(key=lambda s: s.sigma)
    return out


def is_complete(X):
    """Complete iff x -> delta(x, .) is a bijection onto the singletons."""
    sigs = {s.sigma for s in singletons(X)}
    rows = [tuple(int(v) for v in X.delta[i]) for i in range(len(X))]
    return len(set(rows)) == len(rows) and set(rows) == sigs


def completion(X):
    """The H-set of singletons with sigma(delta), plus the inverse isos."""
    A = X.algebra
    pts = [s.sigma for s in singletons(X)]
    # fwd(x, rho) = rho(x), and delta(rho, tau) = \/_x rho(x) /\ tau(x)
    fwd = np.array(pts, dtype=np.int64).reshape(len(pts), len(X)).T
    delta = compose_tables(A, fwd.T, fwd)
    comp = HSet(A, pts, delta)
    phi = HSetMorphism(X, comp, fwd)
    psi = HSetMorphism(comp, X, fwd.T.copy())
    return comp, (phi, psi)


# -- finite limits ---------------------------------------------------------------------


def product(hsets, algebra=None):
    """Cartesian-product H-set with pointwise meet delta and projections.

    The projection table is delta_P(p,p) /\\ delta_k(p_k, x'); without
    the diagonal cut, totality fails as soon as another factor gives p a
    smaller existence degree than the projected coordinate has.
    """
    if hsets:
        algebra = hsets[0].algebra
    if algebra is None:
        raise CrossAlgebra("empty product needs an explicit algebra")
    for X in hsets:
        if X.algebra is not algebra:
            raise CrossAlgebra("product factors live over different algebras")
    n = math.prod(len(X) for X in hsets)
    if n > PRODUCT_CAP:
        raise BudgetExceeded(
            f"product carrier of {n} points exceeds the {PRODUCT_CAP}-point cap",
            predicted=n, budget=PRODUCT_CAP)
    pts = list(iproduct(*(X.points for X in hsets)))
    mt = algebra.meet_table
    delta = np.full((n, n), algebra.top, dtype=np.int64)
    for k, X in enumerate(hsets):
        idx = np.array([X.index[p[k]] for p in pts], dtype=np.int64)
        delta = mt[delta, X.delta[idx[:, None], idx[None, :]]]
    P = HSet(algebra, pts, delta)
    diag = delta.diagonal()
    projections = []
    for k, X in enumerate(hsets):
        idx = np.array([X.index[p[k]] for p in pts], dtype=np.int64)
        table = mt[diag[:, None], X.delta[idx, :]]
        projections.append(HSetMorphism(P, X, table))
    return P, projections


def equalizer(phi, psi):
    """Equalizer of parallel morphisms: the source carrier with
    `equalizer_tables`' tau, and its inclusion."""
    if not (hsets_equal(phi.source, psi.source) and hsets_equal(phi.target, psi.target)):
        raise NotComposable("equalizer needs parallel morphisms")
    X = phi.source
    tau, inc = equalizer_tables(X.algebra, X.delta, phi.phi, psi.phi)
    E = HSet(X.algebra, X.points, tau)
    return E, HSetMorphism(E, X, inc)


def equalizer_tables(A, delta, phi, psi):
    """The equalizer of the parallel tables phi, psi out of the carrier
    delta, for one pair or, with a leading axis, a stack:
    tau(x, y) = delta(x, y) /\\ \\/_{x'} phi(x,x') /\\ psi(y,x'), which
    works out to delta(x, y) /\\ e(x) with e(x) = \\/_{x'} phi(x,x') /\\
    psi(x,x') the extent of agreement, and inc(x, y) = tau(x, x) /\\ delta(x, y)."""
    mt = A.meet_table
    tau = mt[delta, compose_tables(A, phi, psi.swapaxes(-1, -2))]
    return tau, mt[tau.diagonal(axis1=-2, axis2=-1)[..., :, None], delta]


# -- bridges to the name universe ----------------------------------------------------


def _images(ctx, owners, D):
    """The from_name image of each owner, its table decoded from the stack
    of codes D of `valuation._extents` with the padding cut off."""
    doms = [ctx.store.domain(u) for u in owners]
    return [HSet(ctx.algebra, dom, ctx.algebra.codes.decode(d[:len(dom), :len(dom)]))
            for dom, d in zip(doms, D)]


def from_name(ctx, u):
    """The H-set (dom u, delta_u) with
    delta_u(x, y) = [x in u] /\\ [x = y] /\\ [y in u]; its diagonal holds
    the extents [x in u], as [x = x] = top."""
    return _images(ctx, [u], _extents(ctx, [u])[3])[0]


def lambda_iso(ctx, u, uprime):
    """The canonical iso from_name(u) -> from_name(u') for names equal
    with value top, phi(x, y) = [x in u] /\\ [x = y] /\\ [y in u']; its
    inverse is lambda_iso(u', u)."""
    (pos, EQ, *_), K, E, D = _extents(ctx, [u, uprime])
    if (EQ[pos[u], pos[uprime]] != ctx.algebra.codes.top).any():
        raise NotEquivalent("[u = u'] < top")
    X, Y = _images(ctx, [u, uprime], D)
    phi = ctx.algebra.codes.decode(_bridge(E[0], EQ[K[0, :, None], K[1, None, :]], E[1]))
    return HSetMorphism(X, Y, phi[:len(X), :len(Y)])


def lambda_f(ctx, h, x, y):
    """The H-set morphism from_name(x) -> from_name(y) induced by an
    internal function name h, phi(u, v) = [u in x] /\\ [pair(u, v) in h]
    /\\ [v in y]; requires [fun(h: x -> y)] = top, the value of
    `names.function_predicate` at H = h, X = x, Y = y."""
    if not ctx.models(names_mod.function_predicate(), {"H": h, "X": x, "Y": y}):
        raise NotAFunctionName("[fun(h)] < top")
    store = ctx.store
    pairs = [names_mod.ordered_pair_h(store, u, v)
             for u in store.domain(x) for v in store.domain(y)]
    (pos, _, MEM, *_), _, E, D = _extents(ctx, [x, y], pairs + [h])
    X, Y = _images(ctx, [x, y], D)
    n, m = len(X), len(Y)
    in_h = MEM[np.array([pos[p] for p in pairs], dtype=np.intp).reshape(n, m), pos[h]]
    return HSetMorphism(X, Y, ctx.algebra.codes.decode(_bridge(E[0, :n], in_h, E[1, :m])))


def dagger_points(store, X):
    """The name x-dot for each carrier point: tag names are hat-images
    of the point's position ordinal, values are the delta row."""
    if X.algebra is not store.algebra:
        raise CrossAlgebra("H-set and store algebras differ")
    tags = list(islice(names_mod.ordinal_tags(store), len(X)))
    return [
        store.intern(tuple(zip(tags, (int(v) for v in X.delta[i]))))
        for i in range(len(X))
    ]


def dagger_hset(store, X):
    """The name whose domain is the x-dots, valued at the extents delta(x,x)."""
    dots = dagger_points(store, X)
    return store.intern(
        {dot: int(X.delta[i, i]) for i, dot in enumerate(dots)}
    )


def dagger_morphism(store, m):
    """The function name of a morphism: ordered pairs of dots mapped to
    the table values.  Colliding pairs always carry equal values."""
    sdots = dagger_points(store, m.source)
    tdots = dagger_points(store, m.target)
    entries = {}
    for i in range(len(m.source)):
        for j in range(len(m.target)):
            key = names_mod.ordered_pair_h(store, sdots[i], tdots[j])
            entries[key] = int(m.phi[i, j])
    return store.intern(entries)


def dagger_iso(ctx, X):
    """The inverse isomorphism pair between X and Y = from_name(u), where
    u = dagger_hset(X): phi(x, k) = delta(x,x) /\\ [x-dot = k] /\\ [k in u].
    The last factor changes nothing, as u(x-dot) is delta(x,x), so
    delta(x,x) /\\ [x-dot = k] <= [k in u].  The dots are u's children,
    so every table is one gather from the context's kernel over u."""
    dots = dagger_points(ctx.store, X)
    u = dagger_hset(ctx.store, X)
    (pos, EQ, *_), K, E, D = _extents(ctx, [u])
    (Y,) = _images(ctx, [u], D)
    rows = np.array([pos[d] for d in dots], dtype=np.intp)[:, None]
    codes = ctx.algebra.codes
    phi = codes.decode(_bridge(codes.encode(X.delta.diagonal()), EQ[rows, K[0]], E[0]))
    return HSetMorphism(X, Y, phi), HSetMorphism(Y, X, phi.T.copy())


# -- text format -------------------------------------------------------------------


def parse_hset_file(text, algebras):
    """Parse `hset NAME over ALGEBRA` blocks with points:/delta: lines and
    `morphism NAME : X -> Y` blocks with phi: lines.

    `algebras` maps identifiers to HeytingAlgebra values.  Returns
    (hsets, morphisms) dictionaries; tables must be total (delta up to
    symmetry).  Validation is the caller's job.
    """
    hsets = {}
    morphisms = {}
    current = None  # ('hset', name, algebra, points, {pairs}) | ('mor', name, X, Y, {pairs})

    def finish():
        nonlocal current
        if current is None:
            return
        if current[0] == "hset":
            _, hname, alg, pts, entries = current
            if pts is None:
                raise ParseError(f"hset {hname!r} has no points: line")
            n = len(pts)
            delta = np.full((n, n), -1, dtype=np.int64)
            for (p, q), v in entries.items():
                delta[pts.index(p), pts.index(q)] = v
                delta[pts.index(q), pts.index(p)] = v
            if (delta < 0).any():
                i, j = map(int, np.argwhere(delta < 0)[0])
                raise ParseError(f"hset {hname!r}: missing delta for ({pts[i]},{pts[j]})")
            hsets[hname] = HSet(alg, pts, delta)
        else:
            _, mname, src, tgt, entries = current
            X, Y = hsets[src], hsets[tgt]
            phi = np.full((len(X), len(Y)), -1, dtype=np.int64)
            for (p, q), v in entries.items():
                phi[X.index[p], Y.index[q]] = v
            if (phi < 0).any():
                i, j = map(int, np.argwhere(phi < 0)[0])
                raise ParseError(
                    f"morphism {mname!r}: missing phi for ({X.points[i]},{Y.points[j]})"
                )
            morphisms[mname] = HSetMorphism(X, Y, phi)
        current = None

    for lineno, line in text_lines(text):
        if line.startswith(("hset ", "morphism ")):
            finish()  # errors in the finished block carry no line
        with ParseError.on_line(lineno):
            if line.startswith("hset "):
                parts = line.split()
                if len(parts) != 4 or parts[2] != "over":
                    raise ParseError("expected 'hset NAME over ALGEBRA'")
                if parts[3] not in algebras:
                    raise ParseError(f"unknown algebra {parts[3]!r}")
                current = ("hset", parts[1], algebras[parts[3]], None, {})
                continue
            if line.startswith("morphism "):
                mname, src, tgt = split_arrow_header(
                    line[len("morphism "):], "morphism NAME : X -> Y")
                for hname in (src, tgt):
                    if hname not in hsets:
                        raise ParseError(f"unknown hset {hname!r}")
                current = ("mor", mname, src, tgt, {})
                continue
            if current is None:
                raise ParseError(f"unrecognized line {line!r}")
            if line.startswith("points:") and current[0] == "hset":
                pts = [s for s in re.split(r"[,\s]+", line[len("points:"):].strip()) if s]
                if len(set(pts)) != len(pts):
                    raise ParseError("duplicate point names")
                current = (current[0], current[1], current[2], pts, current[4])
                continue
            if line.startswith("delta:") and current[0] == "hset":
                body, kind = line[len("delta:"):], "delta"
            elif line.startswith("phi:") and current[0] == "mor":
                body, kind = line[len("phi:"):], "phi"
            else:
                raise ParseError(f"unrecognized line {line!r}")
            try:
                pair_part, val_part = body.split("=", 1)
                p, q = [s.strip() for s in pair_part.split(",", 1)]
            except ValueError:
                raise ParseError(f"expected '{kind}: p,q = label'")
            alg = current[2] if current[0] == "hset" else hsets[current[2]].algebra
            try:
                v = alg.index(val_part.strip())
            except KeyError:
                raise ParseError(f"unknown element label {val_part.strip()!r}")
            if current[0] == "hset":
                if current[3] is None or p not in current[3] or q not in current[3]:
                    raise ParseError(f"unknown point in {p!r},{q!r}")
                prev = current[4].get((p, q), current[4].get((q, p)))
                if prev is not None and prev != v:
                    raise ParseError(f"conflicting delta for ({p},{q})")
            else:
                X, Y = hsets[current[2]], hsets[current[3]]
                if p not in X.index or q not in Y.index:
                    raise ParseError(f"unknown point in {p!r},{q!r}")
            current[4][(p, q)] = v
    finish()
    return hsets, morphisms
