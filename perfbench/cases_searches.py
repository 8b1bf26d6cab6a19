"""`searches`: hom-sets, isomorphisms and freeness.

Brute-force candidate enumeration dominates `rmodule_homs` and
`tmodule_homs_to_TN` (|N|^|M| maps).  `find_isomorphism` already
backtracks over generator images and is the bypass.  Three cases are over
the 1 s limit at today's cost: rmodule_homs(Z4^2, Z4), rmodule_homs(Z8, Z8)
and tmodule_homs_to_TN(regular TZ7, Z7).

Isomorphism and freeness inputs are relabelled by a seeded permutation, so
the search cannot succeed on the identity map it tries first.
"""

from __future__ import annotations

import oracles as O
from harness import DECIDED, WRONG, Case, verdict

# (n, a, b): Hom_Zn(Zn^a, Zn^b)
RMODULE_HOMS = ((2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 1), (2, 2, 2), (2, 2, 3),
                (2, 3, 1), (2, 3, 2), (3, 1, 1), (3, 1, 2), (3, 2, 1), (4, 1, 1),
                (4, 1, 2), (5, 1, 1), (6, 1, 1), (4, 2, 1), (8, 1, 1))
# (n, a, b): Hom(T(Zn^a), T(Zn^b)); a = 0 stands for the regular module TZn
TMODULE_HOMS = ((2, 0, 1), (3, 0, 1), (4, 0, 1), (5, 0, 1), (2, 1, 2), (2, 2, 1),
                (2, 2, 2), (3, 1, 2), (3, 2, 1), (2, 3, 1), (7, 0, 1))
ADJUNCTION = ((2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 1, 1), (3, 1, 2),
              (4, 1, 1), (5, 1, 1))
RMODULE_ISO = ((2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (8, 1), (2, 2), (2, 3))
FREENESS = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (6, 1),
            (7, 1), (8, 1))
BASIS_ORDERS = (3, 4, 5, 6, 8, 12, 16)
FREE_SETS = ((3, 1), (2, 2), (3, 2), (2, 3))


def homs_judge(n, src, dst, expected, check):
    """The hom-set must have the formula's size and hold only module maps."""
    def judge(maps):
        if len(maps) != expected or len(set(map(tuple, maps))) != expected:
            return WRONG
        if not all(check(n, src, dst, m) for m in maps):
            return WRONG
        return DECIDED
    return judge


def relabelled_module(tk, n, k, rng):
    """Zn^k with its elements renamed by a seeded permutation."""
    add, act = O.zn_power_group(n, k)
    perm = O.random_permutation(len(add), rng)
    add2 = O.relabel_group(add, perm)
    act2 = [[0] * len(add) for _ in range(n)]
    for r in range(n):
        for x in range(len(add)):
            act2[r][perm[x]] = perm[act[r][x]]
    ring = tk.rings.FiniteRing.Zn(n)
    return tk.rings.RModule(ring, tk.core.FiniteGroup(add2), act2), (add2, act2)


def build(tk, seed):
    core, rings, modules, trusses = tk.core, tk.rings, tk.modules, tk.trusses
    cases = []
    power = rings.RModule.power

    for n, a, b in RMODULE_HOMS:
        ring = rings.FiniteRing.Zn(n)
        m1, m2 = power(ring, a), power(ring, b)
        cases.append(Case(
            f"rmodule_homs Z{n}^{a} -> Z{n}^{b}",
            lambda m1=m1, m2=m2: rings.rmodule_homs(m1, m2),
            homs_judge(n, O.zn_power_group(n, a), O.zn_power_group(n, b),
                       O.zn_hom_count(n, a, b), O.is_zn_module_map)))

    for n, a, b in TMODULE_HOMS:
        ring = rings.FiniteRing.Zn(n)
        if a == 0:
            m = modules.FiniteTModule.regular(trusses.truss_TZn(n))
            label, src, expected = f"regular TZ{n}", O.zn_power_group(n, 1), n ** b
        else:
            m = modules.FiniteTModule.from_rmodule(power(ring, a))
            label, src, expected = f"T(Z{n}^{a})", O.zn_power_group(n, a), O.zn_hom_count(n, a, b)
        target = power(ring, b)
        cases.append(Case(
            f"tmodule_homs_to_TN {label} -> Z{n}^{b}",
            lambda m=m, t=target: modules.tmodule_homs_to_TN(m, t),
            homs_judge(n, src, O.zn_power_group(n, b), expected, O.is_heap_module_map)))

    for n, a, b in ADJUNCTION:
        ring = rings.FiniteRing.Zn(n)
        m = modules.FiniteTModule.from_rmodule(power(ring, a))
        target = power(ring, b)

        def round_trip(m=m, target=target):
            quotient, _ = modules.abs_quotient(m)
            homs = rings.rmodule_homs(quotient, target)
            to_tn = {tuple(psi) for psi in modules.tmodule_homs_to_TN(m, target)}
            thetas = [modules.adjunction_theta(m, target, phi) for phi in homs]
            back = [modules.adjunction_theta_inv(m, target, psi) for psi in thetas]
            return len(homs), len(to_tn), set(thetas) == to_tn, \
                all(tuple(x) == tuple(y) for x, y in zip(back, homs))

        expected = O.zn_hom_count(n, a, b)
        cases.append(Case(
            f"adjunction theta round trip T(Z{n}^{a}) -> Z{n}^{b}", round_trip,
            lambda got, e=expected: DECIDED if got == (e, e, True, True) else WRONG))

    catalog = core.small_groups(8)
    rng = O.seeded(seed, "find_isomorphism")
    for la, ga in catalog:
        ta = O.heap_table(ga.op_table())
        ha = core.FiniteHeap(ga.size, table=ta)
        for lb, gb in catalog:
            if ga.size != gb.size:
                continue
            relabelled = O.relabel_group(gb.op_table(), O.random_permutation(gb.size, rng))
            tb = O.heap_table(relabelled)
            hb = core.FiniteHeap(gb.size, table=tb)

            def judge(iso, ta=ta, tb=tb, want=O.catalog_isomorphic(la, lb)):
                if iso is None:
                    return WRONG if want else DECIDED
                ok = want and O.is_heap_isomorphism(ta, tb, list(iso.mapping))
                return DECIDED if ok else WRONG

            cases.append(Case(f"find_isomorphism {la} {lb}",
                              lambda ha=ha, hb=hb: core.find_isomorphism(ha, hb), judge))

    rng = O.seeded(seed, "rmodule_isomorphism")
    for n, k in RMODULE_ISO:
        ring = rings.FiniteRing.Zn(n)
        plain = power(ring, k)
        relabelled, tables = relabelled_module(tk, n, k, rng)

        def judge(iso, src=O.zn_power_group(n, k), dst=tables, n=n):
            if iso is None or sorted(iso) != list(range(len(dst[0]))):
                return WRONG
            return DECIDED if O.is_zn_module_map(n, src, dst, list(iso)) else WRONG

        cases.append(Case(f"rmodule_isomorphism Z{n}^{k} relabelled",
                          lambda a=plain, b=relabelled: rings.rmodule_isomorphism(a, b),
                          judge))

    rng = O.seeded(seed, "freeness")
    for n, k in FREENESS:
        rm, _ = relabelled_module(tk, n, k, rng)
        cases.append(Case(f"freeness_of_TN Z{n}^{k} relabelled",
                          lambda rm=rm: modules.freeness_of_TN(rm),
                          verdict(O.tn_is_free(k))))

    for n in BASIS_ORDERS:
        m = modules.FiniteTModule.regular(trusses.truss_TZn(n))
        for u in (1, 2, 3):
            u %= n
            cases.append(Case(f"basis_check regular TZ{n} [{u}]",
                              lambda m=m, u=u: modules.basis_check(m, [u]),
                              verdict(O.is_unit(u, n))))
    for n in (2, 3):
        m = modules.FiniteTModule.from_rmodule(power(rings.FiniteRing.Zn(n), 2))
        # a finite module is never free on two or more generators
        cases.append(Case(f"basis_check T(Z{n}^2) [1,{n}]",
                          lambda m=m, n=n: modules.basis_check(m, [1, n]), verdict(False)))
    for n, k in FREE_SETS:
        fm = modules.free_module(trusses.truss_TZn(n), k)
        cases.append(Case(f"free_set_check free TZ{n}^{k} generators",
                          lambda fm=fm: modules.free_set_check(fm, fm.generators()),
                          verdict(True)))
    return cases
