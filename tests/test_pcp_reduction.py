"""The correspondence-problem reduction through the decision procedure.

On the one-world frame over standard MV, ``decide_on_frame`` must refute
the encoding of an instance exactly when the instance has a solution of
length 1, and every refutation's generated submodel must extract to
indices that ``verify_solution`` accepts.  The instances are the base-2
ones with one or two pairs over the numerals 1, 10 and 11: 9 and 81.  The
tests decide all 90 on one world, and the 9 one-pair instances also on
both 2-chains, ``v1 -> v2`` and ``v2 -> v1``, against the solutions of
length at most 2.  Run this file as a script to decide the 81 two-pair
instances on both 2-chains as well, 252 decisions in all:

    PYTHONPATH=src:tests python tests/test_pcp_reduction.py
"""

import itertools

import pytest

from mvmodal.algebras import StdMV
from mvmodal.decision import decide_on_frame
from mvmodal.kripke import KripkeFrame, generated_submodel
from mvmodal.pcp import (Numeral, PCPInstance, encode, extract_solution,
                         find_solutions, verify_solution)

NUMERALS = (Numeral(1, 1), Numeral(2, 2), Numeral(3, 2))  # 1, 10 and 11
PAIRS = list(itertools.product(NUMERALS, NUMERALS))
INSTANCES = [PCPInstance(2, pairs) for pairs in
             [(pair,) for pair in PAIRS] + list(itertools.product(PAIRS, PAIRS))]
CHAIN_EDGES = [("v1", "v2"), ("v2", "v1")]


def spelled(instance: PCPInstance) -> str:
    return ",".join(f"{x.value:0{x.length}b}/{y.value:0{y.length}b}"
                    for x, y in instance.pairs)


def check_on_one_world(instance: PCPInstance) -> None:
    check_on_frame(instance, KripkeFrame(["v1"], []), 1)


def check_on_frame(instance: PCPInstance, frame: KripkeFrame, length: int) -> None:
    verdict = decide_on_frame(frame, *encode(instance), StdMV())
    assert verdict.holds != bool(find_solutions(instance, length)), spelled(instance)
    if not verdict.holds:
        w = verdict.witness
        indices = extract_solution(instance, generated_submodel(w.model, w.world),
                                   w.world)
        assert verify_solution(instance, indices), (spelled(instance), indices)


@pytest.mark.parametrize("instance", INSTANCES, ids=spelled)
def test_pcp_reduction_on_one_world(instance):
    check_on_one_world(instance)


@pytest.mark.parametrize("edge", CHAIN_EDGES, ids="->".join)
@pytest.mark.parametrize("instance", [i for i in INSTANCES if len(i.pairs) == 1],
                         ids=spelled)
def test_pcp_reduction_one_pair_on_two_chains(instance, edge):
    check_on_frame(instance, KripkeFrame(["v1", "v2"], [edge]), 2)


if __name__ == "__main__":
    for instance in INSTANCES:
        check_on_one_world(instance)
    two_pairs = [i for i in INSTANCES if len(i.pairs) == 2]
    for instance in two_pairs:
        for edge in CHAIN_EDGES:
            check_on_frame(instance, KripkeFrame(["v1", "v2"], [edge]), 2)
    print(f"all {len(INSTANCES)} instances agree on one world, and the "
          f"{len(two_pairs)} two-pair ones on both 2-chains")
