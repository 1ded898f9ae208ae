"""Why lifting a name along a locale morphism needs equivalence pads.

f collapses the 4-element Boolean algebra onto the 2-chain (a |-> 0,
na |-> 1).  The name x below has two children that differ only in the
degree to which they contain the empty name: one says 0, the other says
a.  Both children collapse to the same two-chain name, so no surjection
of domains can commute with f while keeping the child values distinct;
the strict relation assigns x no image at all.

The fix: allow child images to be replaced by names equal to them with
value top.  Padding the collided child with a fresh bottom-valued entry
gives a distinct-but-equal key, and the lift goes through.
"""

from hvmodels import (
    EvalContext,
    NameStore,
    enumerate_names,
    first_proposal_images,
    is_generalized_related,
    lift,
    make_boolean,
    make_chain,
    validate_locale_morphism,
)

four, two = make_boolean(2), make_chain(2)
f = validate_locale_morphism(four, two, [0, 0, 1, 1], name="f")
sa, sb = NameStore(four), NameStore(two)

e = sa.intern({})
u1 = sa.intern({e: four.index("0")})
u2 = sa.intern({e: four.index("a")})
x = sa.intern({u1: four.index("0"), u2: four.index("1")})
print("x =", sa.to_literal(x))

candidates = enumerate_names(sb, max_rank=2)
images = first_proposal_images(f, x, candidates, sa, sb)
print(f"strict images among all {len(candidates)} two-chain names of rank <= 2:",
      images or "none")

wl = lift(f, x, sa, sb)
print("\ncanonical lift image =", sb.to_literal(wl.image))
print("witness bijection:")
for u, t in wl.witness:
    print("  ", sa.to_literal(u), "->", sb.to_literal(t))

ctx_b = EvalContext(sb)
t1, t2 = (t for _, t in wl.witness)
print("the two witness targets are distinct ids:", t1 != t2)
print("but equal with value top: [t1 = t2] =",
      two.labels[ctx_b.atomic_eq(t1, t2)])
print("generalized related:",
      is_generalized_related(f, x, wl.image, sa, ctx_b))

# preservation: f([x = z]) <= [x' = z'] for lifted pairs, with equality
# because f also preserves implication
z = sa.intern({e: four.index("a")})
zl = lift(f, z, sa, sb)
ctx_a = EvalContext(sa)
lhs = f(ctx_a.atomic_eq(x, z))
rhs = ctx_b.atomic_eq(wl.image, zl.image)
print("\nf([x = z]) =", two.labels[lhs], " [x' = z'] =", two.labels[rhs])
