"""`tables`: exhaustive law checks on table-backed structures.

Table lookups (L0) and exhaustive sweeps (L2) do the work; no word
machinery runs.  Every clean structure is paired with a seeded one-entry
perturbation that must fail, so a faster pass path that slows down
enumerating findings shows here too.  Heaps of order 20, 24 and 32 are
heaps by construction; an exact validator decides them, a gated one does
not.
"""

from __future__ import annotations

import oracles as O
from harness import Case, verdict

SMALL_ORDERS = range(1, 17)
DIHEDRAL_HALF_ORDERS = range(2, 9)      # orders 4..16
LARGE_HEAPS = (("C20", O.cyclic_table, 20), ("D12", O.dihedral_table, 12),
               ("C32", O.cyclic_table, 32))


def _heap_cases(tk, label, group_table, rng):
    core = tk.core
    table = O.heap_table(group_table)
    abelian = O.is_abelian_table(group_table)
    cases = [Case(f"validate_heap {label}", lambda: core.validate_heap(table, abelian),
                  verdict(True))]
    if len(table) > 1:
        bad, _, _ = O.perturbed_with_witness(table, 3, rng, O.heap_witness)
        cases.append(Case(f"validate_heap {label} perturbed",
                          lambda: core.validate_heap(bad, abelian), verdict(False)))
    return cases


def build(tk, seed):
    core, rings, trusses, modules = tk.core, tk.rings, tk.trusses, tk.modules
    cases = []
    for label, g in core.small_groups(8):
        t = g.op_table()
        if not O.is_group_table(t):
            raise ValueError(f"catalog group {label} is not a group")
        cases += _heap_cases(tk, label, t, O.seeded(seed, "heap", label))
    for n in SMALL_ORDERS:
        cases += _heap_cases(tk, f"C{n}", O.cyclic_table(n), O.seeded(seed, "heap C", n))
    for k in DIHEDRAL_HALF_ORDERS:
        cases += _heap_cases(tk, f"D{k}", O.dihedral_table(k), O.seeded(seed, "heap D", k))
    for label, make, arg in LARGE_HEAPS:
        table = O.heap_table(make(arg))
        cases.append(Case(f"validate_heap {label}",
                          lambda table=table: core.validate_heap(table), verdict(True)))

    for n in SMALL_ORDERS:
        rng = O.seeded(seed, "Zn", n)
        add = O.cyclic_table(n)
        mul = O.zn_mul(n)
        ring = rings.FiniteRing.Zn(n)
        truss = trusses.truss_TZn(n)
        mod = modules.FiniteTModule.from_rmodule(rings.RModule.regular(ring))
        cases += [
            Case(f"validate_group_table Z{n}",
                 lambda add=add: core.validate_group_table(add), verdict(True)),
            Case(f"validate_ring Z{n}", lambda r=ring: rings.validate_ring(r), verdict(True)),
            Case(f"validate_truss TZ{n}",
                 lambda t=truss: trusses.validate_truss(t), verdict(True)),
            Case(f"validate_module T(Z{n})",
                 lambda m=mod: modules.validate_module(m), verdict(True)),
        ]
        if n < 2:
            continue
        bad_add, _ = O.perturb(add, rng, 2)
        if O.latin_witness(bad_add) is None:
            raise ValueError("a perturbed Cayley table stayed a Latin square")
        bad_mul, _, _ = O.perturbed_with_witness(
            mul, 2, rng, lambda m, cell: O.ring_witness(n, m, cell))
        bad_ring = rings.FiniteRing(ring.add, bad_mul, validate=False)
        # every one-entry change of the product of TZ2 is again a truss
        if n > 2:
            bad_tmul, _, _ = O.perturbed_with_witness(
                mul, 2, rng, lambda m, cell: O.truss_witness(n, m, cell))
            bad_truss = trusses.FiniteTruss(truss.heap, bad_tmul, names=truss.names)
            cases.append(Case(f"validate_truss TZ{n} perturbed",
                              lambda t=bad_truss: trusses.validate_truss(t), verdict(False)))
        bad_act, _, _ = O.perturbed_with_witness(
            mul, 2, rng, lambda a, cell: O.module_witness(n, a, cell))
        bad_mod = modules.FiniteTModule(mod.truss, mod.heap, bad_act)
        cases += [
            Case(f"validate_group_table Z{n} perturbed",
                 lambda t=bad_add: core.validate_group_table(t), verdict(False)),
            Case(f"validate_ring Z{n} perturbed",
                 lambda r=bad_ring: rings.validate_ring(r), verdict(False)),
            Case(f"validate_module T(Z{n}) perturbed",
                 lambda m=bad_mod: modules.validate_module(m), verdict(False)),
        ]
    return cases
