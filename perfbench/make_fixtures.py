"""Write the structure documents the `cli` workload runs on.

    python3 perfbench/make_fixtures.py

The files are committed; this script documents how they were made and
rewrites them byte for byte.  Documents come in three groups: well-formed
(verify exits 0), failing verification (exit 1), and malformed (exit 2).
Groups, heaps and rings are checked while they load, so a table that
breaks their laws is malformed rather than failing.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracles as O

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def names(n):
    return [str(i) for i in range(n)]


def heap_doc(group_table, abelian):
    return {"kind": "heap", "names": names(len(group_table)), "abelian": abelian,
            "table": [[list(r) for r in p] for p in O.heap_table(group_table)]}


def truss_doc(n, mul):
    return {"kind": "truss", "heap": heap_doc(O.cyclic_table(n), True),
            "names": names(n), "mul": mul}


def documents():
    rng = random.Random(1909)
    bad_mul, _, _ = O.perturbed_with_witness(
        O.zn_mul(4), 2, rng, lambda m, cell: O.truss_witness(4, m, cell))
    bad_act, _, _ = O.perturbed_with_witness(
        O.zn_mul(4), 2, rng, lambda a, cell: O.module_witness(4, a, cell))
    bad_ring, _, _ = O.perturbed_with_witness(
        O.zn_mul(4), 2, rng, lambda m, cell: O.ring_witness(4, m, cell))
    bad_heap, _, _ = O.perturbed_with_witness(
        O.heap_table(O.cyclic_table(4)), 3, rng, O.heap_witness)
    return {
        # well-formed
        "group_z4": {"kind": "group", "names": names(4), "table": O.cyclic_table(4)},
        "heap_c4": heap_doc(O.cyclic_table(4), True),
        "heap_s3": heap_doc(O.dihedral_table(3), False),
        "heap_c20": heap_doc(O.cyclic_table(20), True),
        "subheap_c4": {"kind": "subheap", "members": [0, 2]},
        "ring_z4": {"kind": "ring", "names": names(4), "add": O.cyclic_table(4),
                    "mul": O.zn_mul(4)},
        "truss_tz4": truss_doc(4, O.zn_mul(4)),
        "truss_tz": {"kind": "truss", "builtin": "TZ"},
        "truss_zc3": {"kind": "truss", "builtin": "Zc", "c": 3},
        "truss_tc2": {"kind": "truss", "builtin": "TC2"},
        "truss_tz5": {"kind": "truss", "builtin": "TZn", "n": 5},
        "truss_t1_tz": {"kind": "truss", "extension": "one",
                        "base": {"kind": "truss", "builtin": "TZ"}},
        "module_tz4": {"kind": "module", "truss": truss_doc(4, O.zn_mul(4)),
                       "heap": heap_doc(O.cyclic_table(4), True), "action": O.zn_mul(4)},
        "module_ztrivial": {"kind": "module", "builtin": "ZTrivial"},
        "free_tz3": {"kind": "free-module", "truss": {"kind": "truss", "builtin": "TZn", "n": 3},
                     "generators": 2},
        # fail verification
        "truss_tz4_bad": truss_doc(4, bad_mul),
        "module_tz4_bad": {"kind": "module", "truss": truss_doc(4, O.zn_mul(4)),
                           "heap": heap_doc(O.cyclic_table(4), True), "action": bad_act},
        "truss_t1_bad": {"kind": "truss", "extension": "one", "base": truss_doc(4, bad_mul)},
        # malformed
        "group_table_int": {"kind": "group", "table": 5},
        "truss_zc_text": {"kind": "truss", "builtin": "Zc", "c": "x"},
        "heap_no_table": {"kind": "heap"},
        "ring_mul_text": {"kind": "ring", "add": O.cyclic_table(2), "mul": "x"},
        "unknown_kind": {"kind": "monoid"},
        "heap_ragged": {"kind": "heap", "table": [[[0, 1], [1]], [[1, 0], [0, 1]]]},
        "group_not_assoc": {"kind": "group", "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]},
        "heap_c4_bad": {"kind": "heap", "names": names(4), "abelian": True, "table": bad_heap},
        "ring_z4_bad": {"kind": "ring", "names": names(4), "add": O.cyclic_table(4),
                        "mul": bad_ring},
        "module_bad_shape": {"kind": "module", "truss": truss_doc(2, O.zn_mul(2)),
                             "heap": heap_doc(O.cyclic_table(2), True), "action": [[0], [1]]},
    }


def main():
    FIXTURES.mkdir(exist_ok=True)
    for name, doc in documents().items():
        (FIXTURES / f"{name}.json").write_text(json.dumps(doc, sort_keys=True) + "\n")
    (FIXTURES / "not_json.json").write_text("{kind: group\n")


if __name__ == "__main__":
    main()
