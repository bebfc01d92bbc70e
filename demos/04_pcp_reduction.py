"""The correspondence-problem reduction, both directions, on a toy instance.

A solution of the instance yields a finite chain model that satisfies the
encoded premises everywhere while keeping the conclusion below 1 at the top
world; conversely, any such chain spells out a solution, which the extractor
reads off and certifies.
"""

from mvmodal import (ExpChain, Numeral, PCPInstance, StdMV,
                     build_chain_model, build_countermodel, encode, evaluate,
                     extract_solution, find_solutions, globally_satisfies,
                     render, verify_solution)
from mvmodal.formulas import postorder

# pairs ("1", "11") and ("11", "1") in base 2
instance = PCPInstance(2, ((Numeral(1, 1), Numeral(3, 2)),
                           (Numeral(3, 2), Numeral(1, 1))))

gamma, phi = encode(instance)
print("== the encoding, in exactly three variables ==")
for g in gamma:
    print("  ", render(g))
print("|- ", render(phi))

print("\nsolutions up to length 4:", find_solutions(instance, 4))
print("[1, 2] verifies:", verify_solution(instance, [1, 2]))

print("\n== countermodel from the solution [1, 2], rational side ==")
m = build_countermodel(instance, [1, 2], StdMV())
for w in m.worlds:
    print(f"  {w}: x={m.value(w, 'x')} y={m.value(w, 'y')} z={m.value(w, 'z')}")
print("premises hold everywhere:", globally_satisfies(m, gamma).holds)
print("conclusion at the top world:", evaluate(m, "v2", phi))

print("\n== same thing over the symbolic power chain ==")
me = build_countermodel(instance, [1, 2], ExpChain())
for w in me.worlds:
    print(f"  {w}: x={me.value(w, 'x')!r} y={me.value(w, 'y')!r}")
print("conclusion at the top world:", repr(evaluate(me, "v2", phi)))

print("\n== extraction reads the solution back off the chain ==")
print("std-mv   :", extract_solution(instance, m, "v2"))
print("exp-chain:", extract_solution(instance, me, "v2"))

print("\n== non-solutions cannot refute the conclusion ==")
for seq in ([1], [2, 2], [1, 1, 2]):
    mm = build_chain_model(instance, seq, StdMV())
    top = mm.worlds[-1]
    print(f"  {seq}: premises hold: {globally_satisfies(mm, gamma).holds}, "
          f"conclusion at top = {evaluate(mm, top, phi)}")

print("\n== the encoding grows with the digit count, not with 2^digits ==")
v = 2 ** 31 + 1  # one pair of equal 32-digit numerals: [1] is a solution
big = PCPInstance(2, ((Numeral(v, 32), Numeral(v, 32)),))
gamma, phi = encode(big)
print(f"32 digits: {len(postorder(gamma + (phi,)))} nodes, "
      f"{sum(len(render(f)) for f in gamma + (phi,))} characters printed")
print("  ", render(gamma[-1].left.left))
mb = build_countermodel(big, [1], ExpChain())
print("round trip:", extract_solution(big, mb, mb.worlds[-1]))
