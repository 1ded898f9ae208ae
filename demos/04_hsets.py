"""H-sets: carriers with an H-valued equality, and their category.

delta(x, y) says to what degree x and y are the same point; the
diagonal delta(x, x) is the degree to which x exists at all.  Morphisms
are H-valued functional relations.  The demo walks singletons and
completion, products (note the diagonal cut in the projections), an
equalizer, and the roundtrip through the name universe.
"""

from hvmodels import (
    EvalContext,
    HSet,
    HSetMorphism,
    NameStore,
    completion,
    compose,
    dagger_hset,
    dagger_iso,
    equalizer,
    identity,
    is_complete,
    make_chain,
    morphisms_equal,
    product,
    singletons,
    validate_hset,
    validate_morphism,
)

chain3 = make_chain(3)
lab = chain3.labels

# one point that only half exists
X = HSet(chain3, ["x"], [[1]])
print("X: one point with existence degree m")
print("singletons:", [tuple(lab[v] for v in s.sigma) for s in singletons(X)])
print("complete?", is_complete(X))
comp, (fwd, bwd) = completion(X)
print("completion has", len(comp), "points, delta rows:",
      [tuple(lab[v] for v in row) for row in comp.delta])
print("completion complete?", is_complete(comp))
assert validate_morphism(fwd) and validate_morphism(bwd)
assert morphisms_equal(compose(bwd, fwd), identity(X))
print("X -> completion -> X is the identity on X")

# products meet the deltas pointwise.  A projection cannot simply copy
# the factor's equality: when the other factor shrinks a point's
# existence degree, the table needs a cut by the product diagonal.
Y = HSet(chain3, ["y"], [[2]])
P, (px, py) = product([X, Y])
print("\nproduct carrier:", P.points, " existence degree:", lab[P.delta[0, 0]])
bare = HSetMorphism(P, Y, [[2]])
print("bare projection validates?", bool(validate_morphism(bare)))
print("cut projection validates?", bool(validate_morphism(py)),
      " table entry:", lab[py.phi[0, 0]])

# an equalizer: where does the identity agree with the swap?
Z = HSet(chain3, ["p", "q"], [[2, 1], [1, 2]])
assert validate_hset(Z)
swap = HSetMorphism(Z, Z, [[1, 2], [2, 1]])
assert validate_morphism(swap)
E, inc = equalizer(identity(Z), swap)
print("\np equals its swap image only to degree",
      lab[Z.delta[0, 1]], "so in the equalizer p exists to degree",
      lab[E.delta[0, 0]])
assert validate_morphism(inc)

# and back through names: every H-set is isomorphic to the H-set of an
# interned name
store = NameStore(chain3)
u = dagger_hset(store, Z)
print("\nname of Z:", store.to_literal(u))
f, g = dagger_iso(EvalContext(store), Z)
assert morphisms_equal(compose(g, f), identity(Z))
print("roundtrip Z -> name -> Z is the identity: True")
