r"""Names, truth values, and the failure of excluded middle.

A name over H is a finite map from previously built names to elements
of H; the store hash-conses them so structurally equal names share one
id.  Equality and membership get H-values by mutual recursion, and
compound formulas evaluate through the Heyting operations.
"""

from hvmodels import (
    EvalContext,
    NameStore,
    enumerate_names,
    make_chain,
    parse_formula,
)

chain3 = make_chain(3)
store = NameStore(chain3)

e = store.intern({})                 # the empty name
u = store.intern({e: chain3.index("m")})   # contains {} to degree m
print("e:", store.to_literal(e), " rank", store.rank(e))
print("u:", store.to_literal(u), " rank", store.rank(u))

ctx = EvalContext(store)
print("[e in u] =", chain3.labels[ctx.atomic_mem(e, u)])
print("[u = u] =", chain3.labels[ctx.atomic_eq(u, u)])
print("[e = u] =", chain3.labels[ctx.atomic_eq(e, u)])

# excluded middle takes the middle value: u neither contains e outright
# nor provably omits it
consts = {"e": e, "u": u}
phi = parse_formula(r"e in u \/ ~(e in u)", constants=consts)
print("\n[e in u \\/ ~(e in u)] =", chain3.labels[ctx.eval(phi)])

# but double negation of membership is already top
psi = parse_formula("~~(e in u)", constants=consts)
print("[~~(e in u)] =", chain3.labels[ctx.eval(psi)])

# bounded quantifiers range over the literal domain of a name; the
# unbounded forms range over an explicit finite fragment of the universe
pool = enumerate_names(store, max_rank=2, max_domain=2)
print("\nnames of rank <= 2 with domains of size <= 2:", len(pool))
frag = EvalContext(store, fragment=pool)
chi = parse_formula("exists w . w in u", constants=consts)
print("[exists w . w in u] over the fragment =", chain3.labels[frag.eval(chi)])
