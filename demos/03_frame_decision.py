"""Deciding global consequence over a fixed finite frame.

The decision translates the question into pure propositional consequence.
With a fresh variable for each source variable at each world, a formula's
image at a world is its value in the model whose values are formulas, so a
box is the meet of its body's images at the successors.  Over the standard
MV algebra exact case-split linear programming settles the images; over
finite chains lexicographic backtracking settles the same fold, compiled to
a program over the algebra's tables.  The named copy printed
below, a fresh variable for each boxed/diamonded subformula at each world
pinned by a delta premise, is one fold of the template, made on its first
read: no backend reads it, and the finite search guard counts its variables
without building it unless a cheap bound cannot clear the guard.  Only the
names of each source variable's per-world variables are kept between
decisions, and no decision makes a formula of them: only the printed views
do.
"""

from mvmodal import (KripkeFrame, MVn, StdMV, decide_cardinality,
                     decide_on_frame, evaluate, globally_satisfies, parse,
                     render, translate_on_frame)
from mvmodal.decision import coenumerate_nonconsequences

frame = KripkeFrame(["w1", "w2"], [("w1", "w2")])
gamma = [parse("[] p")]
phi = parse("p")

print("== the translation for {[] p} |= p over w1 -> w2 ==")
tr = translate_on_frame(frame, gamma, phi)
print("starred premises:", [render(f) for f in tr.premises])
for w in frame.worlds:
    print(f"deltas at {w}:", [render(f) for f in tr.deltas[w]])
print("conclusion:", render(tr.conclusion))
premises, conclusion = tr.inlined()
print("inlined for the LP:", [render(f) for f in premises], "|-", render(conclusion))

print("\n== the verdict ==")
verdict = decide_on_frame(frame, gamma, phi, StdMV())
print("holds:", verdict.holds)
model = verdict.witness.model
print("countermodel:", {w: {v: str(model.value(w, v)) for v in model.variables}
                        for w in model.worlds})
print("re-checked: premises hold globally:",
      globally_satisfies(model, gamma).holds,
      "| conclusion at", verdict.witness.world, "=",
      str(evaluate(model, verdict.witness.world, phi)))

print("\n== sweeping every labeled frame of a given cardinality ==")
for j in (1, 2):
    v = decide_cardinality(j, [], parse("[] p -> p"), StdMV())
    print(f"cardinality {j}: [] p -> p holds: {v.holds}")

print("\n== co-enumerating refutable pairs from a seeded list ==")
pairs = [
    ((), parse("p \\/ ~p")),
    ((parse("p"),), parse("[] p")),
    ((), parse("[] p -> p")),
]
for e in coenumerate_nonconsequences(pairs, 2):
    print(f"pair #{e.index} refuted at cardinality {e.cardinality}; "
          f"witness world {e.verdict.witness.world}")
