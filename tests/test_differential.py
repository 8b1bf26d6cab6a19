"""The shared closure, quotient and group-map routines against brute-force
oracles.

``resweep_closure`` is the plain fixed point: it sweeps every triple of the
current set until a round adds nothing.  ``absorber_classes_oracle`` builds
the absorber classes of a finite module from their definition.  Both stay
here as references for ``core._closure`` and ``core._quotient_classes``.
``rmodule_homs_oracle`` and ``tmodule_homs_to_TN_oracle`` try all |N|^|M|
maps; they are the references for the hom-sets of ``rings._module_maps``.
``all_pairs_group_maps`` builds the same candidates and checks each on all
n^2 pairs; it is the reference for the maps ``core._group_maps`` yields, and
for their order.
``rmodule_isomorphism_oracle`` tries all n! bijections, and
``find_isomorphism_basepoint_loop`` tries every basepoint of the target; they
are the references for the isomorphism searches on the same engine.
``windowed_collision``, the collision search over windows of F(s) that
``free_set_check`` ran before it read the linear part of sigma, and the
orbit closure ``resweep_closure`` are the references for the free-set and
basis verdicts; ``sigma_oracle`` folds sigma over word forms.
``nested_loop_product``, the group product table filled pair by pair, and
``zn_power_table``, Z_m^n from its digits, are the references for products
on ``core.product``.  ``absorbs_oracle``, the two-sided scan of a product
table, is the reference for the absorber step of ``retract_ring``.
``symmetric_everywhere``, [a,b,c] = [c,b,a] on every triple, is the
reference for the ``abelian`` flag a heap decides.
"""

import functools
import itertools
import math
import random

import pytest

from trusskit import core, modules
from trusskit.core import (
    FiniteGroup,
    HeapMorphism,
    StructureError,
    find_isomorphism,
    generated_subheap,
    group_isomorphism,
    heap_from_group,
    retract,
    small_groups,
)
from trusskit.modules import (
    FiniteTModule,
    TrivialIntModule,
    empty_module,
    ModuleMorphism,
    abs_on_morphism,
    abs_quotient,
    absorber_classes,
    adjunction_theta,
    adjunction_theta_inv,
    basis_check,
    free_module,
    free_set_check,
    freeness_of_TN,
    tmodule_homs_to_TN,
    verify_abs_of_free,
)
from trusskit.rings import FiniteRing, RModule, rmodule_homs, rmodule_isomorphism
from trusskit.trusses import (FiniteTruss, integer_truss, retract_ring, tc2_brace_truss,
                              truss_from_ring, truss_TZn)
from trusskit.words import eval_word_in_heap

from test_trusses import not_a_heap


def resweep_closure(seed, ternary):
    members = set(seed)
    grew = True
    while grew:
        grew = False
        for a, b, c in itertools.product(sorted(members), repeat=3):
            v = ternary(a, b, c)
            if v not in members:
                members.add(v)
                grew = True
    return members


def subgroup_oracle(g, seed):
    """The subgroup generated by seed: closed under products, from the
    neutral element."""
    out = set(seed) | {g.neutral}
    grew = True
    while grew:
        grew = False
        for a, b in itertools.product(sorted(out), repeat=2):
            if g.op(a, b) not in out:
                out.add(g.op(a, b))
                grew = True
    return out


def small_seeds():
    for label, g in small_groups(8):
        for k in (1, 2):
            for seed in itertools.combinations(range(g.size), k):
                yield label, g, list(seed)


def test_generated_subheaps_match_the_resweep_on_every_small_seed():
    seeds = list(small_seeds())
    assert len(seeds) == 295
    for label, g, seed in seeds:
        h = heap_from_group(g)
        want = resweep_closure(seed, h.ternary)
        assert generated_subheap(h, seed).members == tuple(sorted(want)), (label, seed)


def test_closure_with_the_neutral_element_is_the_generated_subgroup():
    # what generated sub-heaps through the neutral element rely on
    for label, g, seed in small_seeds():
        heap = heap_from_group(g).ternary
        members = core._closure(seed + [g.neutral], heap)
        assert len(members) == len(set(members))
        distinct = list(dict.fromkeys(seed + [g.neutral]))
        assert members[:len(distinct)] == distinct, (label, seed)    # the seed first, in order
        assert set(members) == resweep_closure(seed + [g.neutral], heap) \
            == subgroup_oracle(g, seed), (label, seed)


def test_generating_sequences_are_greedy_and_generate():
    for label, g in small_groups(8):
        gens = core._generating_sequence(g.size, g.op, g.neutral)
        assert subgroup_oracle(g, gens) == set(range(g.size)), label
        for i, x in enumerate(gens):
            earlier = subgroup_oracle(g, gens[:i])
            assert x == min(set(range(g.size)) - earlier), label


@pytest.mark.parametrize("n", range(2, 17))
def test_orbit_spans_of_regular_TZn_match_the_resweep(n):
    m = FiniteTModule.regular(truss_TZn(n))
    for u in range(n):
        orbit = [m.act(a, u) for a in m.truss.heap.elements()]
        want = resweep_closure(orbit, m.heap.ternary)
        assert set(core._closure(orbit, m.heap.ternary)) == want
        # u is a basis exactly when sigma_u is injective and its span, the
        # orbit closure, is the whole carrier
        assert basis_check(m, [u]).ok == (len(set(orbit)) == n == len(want)), u


# ---------------------------------------------------------------------------
# free sets and bases


def sigma_oracle(ds, m, candidates, x):
    """The copaired sigma map F(s) = ds -> m at x, folded over the word form
    of x: each letter (i, a) has the value a.c_i."""
    word = ds.word_form(x)
    return eval_word_in_heap(word, {(i, a): m.act(a, candidates[i]) for i, a in word}, m.heap)


def windowed_collision(m, candidates, bound):
    """Two canonical forms of F(s) in the window of the given bound with one
    image, or None: the search that ``free_set_check`` ran, window by window,
    before it read the linear part of sigma."""
    ds = modules._source_sum(m.truss, len(candidates))
    seen = {}
    for w in range(bound + 1):
        for x in ds.sample(w):
            v = sigma_oracle(ds, m, candidates, x)
            if seen.setdefault(v, x) != x:
                return seen[v], x
    return None


def coords(m, y):
    """The integer coordinates of a point of m: the components over an
    infinite truss, then the tails; an integer of the integer module."""
    if m.heap.is_finite:
        return ()
    if isinstance(m, TrivialIntModule):
        return (y,)
    return (() if m.truss.heap.is_finite else y.components) + y.tails


def replays(m, candidates, finding):
    """Does a finding of ``basis_check`` hold, recomputed by the oracles?"""
    ds = modules._source_sum(m.truss, len(candidates))
    image = functools.partial(sigma_oracle, ds, m, candidates)
    if finding.law == "copaired map collision":
        x, x2 = finding.at
        return x != x2 and image(x) == image(x2) == finding.lhs == finding.rhs
    assert finding.law == "not spanning"
    near = [image(x) for x in ds.sample(2)]
    if len(finding.at) == 1:
        # a missed torsion point: no point with its integer coordinates is hit
        y, = finding.at
        hits = [v for v in near if coords(m, v) == coords(m, y)]
        return bool(hits) and y not in hits
    y, phi, d = finding.at
    origin = coords(m, near[0])

    def value(v):
        u = sum(f * (c - o) for f, c, o in zip(phi, coords(m, v), origin))
        return u % d if d else u

    return all(value(v) == 0 for v in near) and value(y) != 0


def evidence_modules():
    for label, t in (("TZ2", truss_TZn(2)), ("TZ3", truss_TZn(3)),
                     ("TZ", integer_truss()), ("TC2", tc2_brace_truss())):
        for n in (1, 2):
            yield f"F({n}) over {label}", free_module(t, n)
    yield "Z with t.m = m", TrivialIntModule()


def finite_modules():
    for n in (2, 3, 4, 6):
        ring = FiniteRing.Zn(n)
        yield f"T(Z{n})", FiniteTModule.regular(truss_TZn(n))
        yield f"T(Z{n}^2)", FiniteTModule.from_rmodule(RModule.power(ring, 2))


def families(m, most):
    """Every family of at most ``most`` window-1 elements, up to order."""
    elements = list(m.heap.sample(1))
    for s in range(1, most + 1):
        yield from map(list, itertools.combinations_with_replacement(elements, s))


EVIDENCE = list(evidence_modules())


@pytest.mark.parametrize("label, m", EVIDENCE, ids=[label for label, _ in EVIDENCE])
def test_windowed_collisions_are_exact_fails(label, m):
    for family in families(m, 2):
        report = free_set_check(m, family)
        assert report.status in ("pass", "fail")
        if windowed_collision(m, family, 1) is not None:
            assert report.status == "fail", family


@pytest.mark.parametrize("label, m", EVIDENCE, ids=[label for label, _ in EVIDENCE])
def test_every_fail_witness_replays(label, m):
    for family in families(m, 3):
        report = basis_check(m, family)
        assert report.ok or len(report.findings) == 1, family
        for finding in report.findings:
            assert replays(m, family, finding), (family, finding)


@pytest.mark.parametrize("label, m", EVIDENCE, ids=[label for label, _ in EVIDENCE])
def test_bases_reach_every_window_1_element(label, m):
    for family in families(m, 2):
        if basis_check(m, family).ok:
            ds = modules._source_sum(m.truss, len(family))
            reached = {sigma_oracle(ds, m, family, x) for x in ds.sample(4)}
            assert set(m.heap.sample(1)) <= reached, family


FINITE = list(finite_modules())


@pytest.mark.parametrize("label, m", FINITE, ids=[label for label, _ in FINITE])
def test_finite_verdicts_match_brute_force(label, m):
    for family in families(m, 2):
        if len(family) == 1:
            free = len({m.act(a, family[0]) for a in m.truss.heap.elements()}) == m.truss.size
        else:   # pigeonhole: F(s) has more forms than m has elements
            free = windowed_collision(m, family, m.size + 2) is None
        orbit = [m.act(a, c) for a in m.truss.heap.elements() for c in family]
        assert free_set_check(m, family).ok == free, family
        report = basis_check(m, family)
        assert report.ok == (free and len(resweep_closure(orbit, m.heap.ternary)) == m.size), family
        assert all(replays(m, family, finding) for finding in report.findings), family


# ---------------------------------------------------------------------------
# absorber quotients


def absorber_classes_oracle(m):
    ts = list(m.truss.heap.elements())
    absorbers = [x for x in range(m.size) if all(m.act(t, x) == x for t in ts)]
    cls = {a: frozenset(m.heap.ternary(x, y, a) for x in absorbers for y in absorbers)
           for a in range(m.size)}
    order = sorted(set(cls.values()), key=min)
    return absorbers, order, tuple(order.index(cls[a]) for a in range(m.size))


def quotient_modules():
    for q in range(2, 17):
        ring = FiniteRing.Zn(q)
        yield f"regular TZ{q}", FiniteTModule.regular(truss_TZn(q)), ring
        for k in range(1, 5):
            if q ** k <= 16:
                yield f"T(Z{q}^{k})", FiniteTModule.from_rmodule(RModule.power(ring, k)), ring
    trivial = FiniteTModule(truss_TZn(2), heap_from_group(FiniteGroup.cyclic(2)),
                            [[0, 1], [0, 1]])
    yield "trivial action TZ2 on Z2", trivial, FiniteRing.Zn(2)


@pytest.mark.parametrize("label, m, ring", list(quotient_modules()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_absorber_quotient_matches_the_classes_oracle(label, m, ring):
    absorbers, classes, proj = absorber_classes_oracle(m)
    assert absorber_classes(m) == (classes, proj)
    q, project = abs_quotient(m)
    assert [project(x) for x in range(m.size)] == list(proj)
    reps = [min(c) for c in classes]
    e = absorbers[0]
    assert q.group.op_table() == tuple(
        tuple(proj[m.heap.ternary(a, e, b)] for b in reps) for a in reps)
    assert q.action == tuple(tuple(proj[m.act(t, r)] for r in reps)
                             for t in m.truss.heap.elements())

    n_mod = RModule.regular(ring)
    phi = tuple((3 * i + 1) % n_mod.size for i in range(len(classes)))
    psi = adjunction_theta(m, n_mod, phi)
    assert psi == tuple(phi[proj[x]] for x in range(m.size))
    assert adjunction_theta_inv(m, n_mod, psi) == phi
    if len(classes) < m.size:
        with pytest.raises(StructureError, match="does not descend"):
            adjunction_theta_inv(m, n_mod, tuple(range(m.size)))

    for r in m.truss.heap.elements():
        scale = ModuleMorphism(m, m, tuple(m.act(r, x) for x in range(m.size)))
        _, _, mapping = abs_on_morphism(scale)
        assert mapping == tuple(proj[scale(r_)] for r_ in reps), r


# ---------------------------------------------------------------------------
# hom-sets and isomorphisms from generator images


def rmodule_homs_oracle(m1, m2):
    """All R-module maps m1 -> m2, from all |m2|^|m1| maps."""
    n, k = m1.size, m2.size
    out = []
    for mapping in itertools.product(range(k), repeat=n):
        if mapping[m1.zero] != m2.zero:
            continue
        if any(mapping[m1.plus(a, b)] != m2.plus(mapping[a], mapping[b])
               for a in range(n) for b in range(n)):
            continue
        if any(mapping[m1.act(r, x)] != m2.act(r, mapping[x])
               for r in range(m1.ring.size) for x in range(n)):
            continue
        out.append(mapping)
    return out


def tmodule_homs_to_TN_oracle(m, n_mod):
    """All module maps m -> T(N), from all |N|^|m| maps, each checked on all
    pairs: f[a,0,c] = f(a) - f(0) + f(c), with m's [a,0,c] and N's
    x - y + z tabulated once."""
    ids_m, ids_n = range(m.size), range(n_mod.size)
    src = [[m.heap.ternary(a, 0, c) for c in ids_m] for a in ids_m]
    tn = [[[n_mod.plus(n_mod.plus(x, n_mod.neg(y)), z) for z in ids_n] for y in ids_n]
          for x in ids_n]
    out = []
    for mapping in itertools.product(ids_n, repeat=m.size):
        if any(mapping[src[a][c]] != tn[mapping[a]][mapping[0]][mapping[c]]
               for a in ids_m for c in ids_m):
            continue
        if all(mapping[m.act(r, x)] == n_mod.act(r, mapping[x])
               for r in m.truss.heap.elements() for x in ids_m):
            out.append(mapping)
    return out


def group_homs_oracle(g, h):
    return [f for f in itertools.product(range(h.size), repeat=g.size)
            if all(f[g.op(a, b)] == h.op(f[a], f[b]) for a in range(g.size)
                   for b in range(g.size))]


def relabel_rmodule(m, perm):
    """m with element x renamed perm[x]."""
    n = m.size
    table = [[0] * n for _ in range(n)]
    action = [[0] * n for _ in range(m.ring.size)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[m.plus(a, b)]
        for r in range(m.ring.size):
            action[r][perm[a]] = perm[m.act(r, a)]
    return RModule(m.ring, FiniteGroup(table), action)


def small(n_mod, m, bound=10 ** 5):
    """Whether the oracle's |N|^|M| maps are few enough to try."""
    return n_mod.size ** m.size <= bound


def rmodule_pairs():
    rng = random.Random(20260)
    for n in range(2, 9):
        ring = FiniteRing.Zn(n)
        powers = {a: RModule.power(ring, a) for a in range(1, 5) if n ** a <= 16}
        for a, m1 in powers.items():
            for b, m2 in powers.items():
                if small(m2, m1):
                    yield f"Z{n}^{a} -> Z{n}^{b}", m1, m2
                if small(m2, m1, 10 ** 4):
                    perm = list(range(m1.size))
                    rng.shuffle(perm)
                    yield f"relabelled Z{n}^{a} -> Z{n}^{b}", relabel_rmodule(m1, perm), m2
                    perm = list(range(m2.size))
                    rng.shuffle(perm)
                    yield f"Z{n}^{a} -> relabelled Z{n}^{b}", m1, relabel_rmodule(m2, perm)
    z4 = FiniteRing.Zn(4)
    z2_over_z4 = RModule(z4, FiniteGroup.cyclic(2), [[r * a % 2 for a in range(2)]
                                                     for r in range(4)])
    mixed = RModule.product(z2_over_z4, RModule.regular(z4))
    yield "Z2 x Z4 -> Z4", mixed, RModule.regular(z4)
    yield "Z4 -> Z2 x Z4", RModule.regular(z4), mixed
    yield "Z2 -> Z2 x Z4", z2_over_z4, mixed


@pytest.mark.parametrize("label, m1, m2", list(rmodule_pairs()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_rmodule_homs_match_the_oracle(label, m1, m2):
    assert rmodule_homs(m1, m2) == rmodule_homs_oracle(m1, m2)


def two_absorber_module(n):
    """TZn acting trivially on the C2 factor of C2 x Zn and by multiplication
    on the Zn factor: the absorbers are (0, 0) and (1, 0)."""
    t = truss_TZn(n)
    heap = heap_from_group(FiniteGroup.product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(n)))
    action = [[(x // n) * n + r * (x % n) % n for x in range(2 * n)] for r in range(n)]
    return FiniteTModule(t, heap, action)


def tmodule_pairs():
    rng = random.Random(20261)
    for n in range(2, 9):
        ring = FiniteRing.Zn(n)
        powers = {b: RModule.power(ring, b) for b in range(1, 5) if n ** b <= 16}
        sources = {f"T(Z{n}^{a})": FiniteTModule.from_rmodule(rm) for a, rm in powers.items()}
        sources[f"regular TZ{n}"] = FiniteTModule.regular(truss_TZn(n))
        sources[f"trivial action TZ{n} on Z3"] = FiniteTModule(
            truss_TZn(n), heap_from_group(FiniteGroup.cyclic(3)), [[0, 1, 2]] * n)
        sources[f"two absorbers C2 x Z{n}"] = two_absorber_module(n)
        sources[f"empty over TZ{n}"] = empty_module(truss_TZn(n))
        for label, m in sources.items():
            for b, n_mod in powers.items():
                if small(n_mod, m):
                    yield f"{label} -> Z{n}^{b}", m, n_mod
                if small(n_mod, m, 10 ** 4):
                    perm = list(range(n_mod.size))
                    rng.shuffle(perm)
                    yield f"{label} -> relabelled Z{n}^{b}", m, relabel_rmodule(n_mod, perm)
        for a, rm in powers.items():
            perm = list(range(rm.size))
            rng.shuffle(perm)
            m = FiniteTModule.from_rmodule(relabel_rmodule(rm, perm))
            if small(rm, m, 10 ** 4):
                yield f"T(relabelled Z{n}^{a}) -> Z{n}^{a}", m, rm


@pytest.mark.parametrize("label, m, n_mod", list(tmodule_pairs()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_tmodule_homs_to_TN_match_the_oracle(label, m, n_mod):
    assert tmodule_homs_to_TN(m, n_mod) == tmodule_homs_to_TN_oracle(m, n_mod)


def test_edge_hom_sets():
    assert tmodule_homs_to_TN(empty_module(truss_TZn(3)), RModule.regular(FiniteRing.Zn(3))) \
        == [()]
    assert len(tmodule_homs_to_TN(two_absorber_module(2), RModule.regular(FiniteRing.Zn(2)))) == 2


def pointed(g):
    """The heap of a group, pointed at its neutral element."""
    return heap_from_group(g), g.neutral


def op_rows(g):
    """The table of a group and its neutral element, a target of ``_group_maps``."""
    return g.op_table(), g.neutral


def test_group_maps_match_the_oracle_on_small_groups():
    groups = small_groups(8)
    checked = 0
    for (la, ga), (lb, gb) in itertools.product(groups, repeat=2):
        if gb.size ** ga.size <= 10 ** 5:
            got = sorted(tuple(f) for f in core._group_maps(pointed(ga), op_rows(gb)))
            assert got == group_homs_oracle(ga, gb), (la, lb)
            checked += 1
    assert checked > 40


def element_order(g, a):
    """The least k >= 1 with a^k neutral, by repeated products."""
    x, k = a, 1
    while x != g.neutral:
        x, k = g.op(x, a), k + 1
    return k


def all_pairs_group_maps(g, h, iso=False):
    """The group maps (with ``iso``, isomorphisms) g -> h from the images of
    the greedy generators, in the order ``core._group_maps`` tries them,
    each candidate checked on all n^2 pairs of the group tables."""
    orders = [element_order(h, y) for y in h.elements()]
    if iso and sorted(orders) != sorted(element_order(g, x) for x in g.elements()):
        return
    gens = core._generating_sequence(g.size, g.op, g.neutral)
    recipe = core._bfs_recipe(g.op, g.neutral, gens)
    candidates = [[y for y in h.elements() if (orders[y] == k if iso else k % orders[y] == 0)]
                  for k in (element_order(g, s) for s in gens)]
    for imgs in itertools.product(*candidates):
        mapping = [None] * g.size
        mapping[g.neutral] = h.neutral
        for x, parent, gi in recipe:
            mapping[x] = h.op(mapping[parent], imgs[gi])
        if iso and len(set(mapping)) != g.size:
            continue
        if all(mapping[g.op(x, y)] == h.op(mapping[x], mapping[y])
               for x in g.elements() for y in g.elements()):
            yield mapping


def test_group_maps_decided_on_generators_match_the_all_pairs_engine():
    # every pair of small_groups(8), C12 and C4 x C4 with |G|.|H| <= 200,
    # as given and with both relabelled, so the neutral element moves off 0
    rng = random.Random(20265)
    c4 = FiniteGroup.cyclic(4)
    groups = small_groups(8) + [("C12", FiniteGroup.cyclic(12)),
                                ("C4xC4", FiniteGroup.product(c4, c4))]
    checked = 0
    for (la, ga), (lb, gb) in itertools.product(groups, repeat=2):
        if ga.size * gb.size > 200:
            continue
        perms = [list(range(g.size)) for g in (ga, gb)]
        for perm in perms:
            rng.shuffle(perm)
        for g, h in ((ga, gb), (relabel_group(ga, perms[0]), relabel_group(gb, perms[1]))):
            for iso in (False, True):
                got = list(core._group_maps(pointed(g), op_rows(h), iso=iso))
                assert got == list(all_pairs_group_maps(g, h, iso=iso)), (la, lb, iso)
            checked += 1
    assert checked == 2 * 255


@pytest.mark.parametrize("ring_order, a, b", [(2, 3, 2), (4, 2, 1), (3, 2, 2)])
def test_group_maps_make_at_most_nk_products_per_candidate(monkeypatch, ring_order, a, b):
    """Every group product and heap operation of one ``rmodule_homs`` call,
    counted.  Past the recipe the engine may spend n.k target products per
    candidate, for n = |M1| and k generators; tabulating the target, the
    orders and the source's products by the generators are paid once,
    within 2|M2|^2 + 2|M1|^2.  The all-pairs check spent 2n^2 per candidate."""
    calls = [0]

    def counted(method):
        def wrapper(self, *args):
            calls[0] += 1
            return method(self, *args)
        return wrapper

    monkeypatch.setattr(FiniteGroup, "op", counted(FiniteGroup.op))
    monkeypatch.setattr(core.FiniteHeap, "ternary", counted(core.FiniteHeap.ternary))
    ring = FiniteRing.Zn(ring_order)
    m1, m2 = RModule.power(ring, a), RModule.power(ring, b)
    # Zn^a has a greedy generators, each of order n, and each may go to any
    # element of Zn^b
    n, k = m1.size, a
    candidates = m2.size ** k
    calls[0] = 0
    homs = rmodule_homs(m1, m2)
    assert len(homs) == ring_order ** (a * b)
    assert calls[0] <= 2 * m2.size ** 2 + 2 * n * n + candidates * n * k


def is_isomorphism(g, h, f):
    return (sorted(f) == list(range(h.size))
            and all(f[g.op(a, b)] == h.op(f[a], f[b]) for a in g.elements() for b in g.elements()))


def relabel_group(g, perm):
    table = [[0] * g.size for _ in range(g.size)]
    for a in g.elements():
        for b in g.elements():
            table[perm[a]][perm[b]] = perm[g.op(a, b)]
    return FiniteGroup(table)


def test_group_isomorphism_verdicts_on_every_small_pair():
    # the catalog is pairwise non-isomorphic, so a pair is isomorphic exactly
    # when it is one group twice, relabelled or not
    rng = random.Random(20262)
    for (la, ga), (lb, gb) in itertools.product(small_groups(8), repeat=2):
        perm = list(range(gb.size))
        rng.shuffle(perm)
        for target in (gb, relabel_group(gb, perm)):
            f = group_isomorphism(ga, target)
            assert (f is not None) == (la == lb), (la, lb)
            assert f is None or is_isomorphism(ga, target, f), (la, lb)


def find_isomorphism_basepoint_loop(a, b):
    """A heap isomorphism from a group isomorphism of the retract of a at 0
    and the retract of b at each basepoint f in turn."""
    if a.size != b.size:
        return None
    if a.size == 0:
        return HeapMorphism(a, b, ())
    ga = retract(a, 0)
    for f in range(b.size):
        mapping = group_isomorphism(ga, retract(b, f))
        if mapping is not None:
            return HeapMorphism(a, b, tuple(mapping))
    return None


def test_find_isomorphism_matches_the_basepoint_loop_on_every_small_pair():
    rng = random.Random(20264)
    for (la, ga), (lb, gb) in itertools.product(small_groups(8), repeat=2):
        perm = list(range(gb.size))
        rng.shuffle(perm)
        a = heap_from_group(ga)
        for b in (heap_from_group(gb), heap_from_group(relabel_group(gb, perm))):
            got, want = find_isomorphism(a, b), find_isomorphism_basepoint_loop(a, b)
            assert (got is None) == (want is None) == (la != lb), (la, lb)
            assert got is None or got.mapping == want.mapping, (la, lb)


# ---------------------------------------------------------------------------
# module isomorphisms and the freeness of T(N)


def rmodule_isomorphism_oracle(m1, m2):
    """The first R-module isomorphism m1 -> m2 among all n! bijections."""
    if m1.ring != m2.ring or m1.size != m2.size:
        return None
    n = m1.size
    if n == 0:
        return []
    orders1 = sorted(element_order(m1.group, x) for x in range(n))
    orders2 = sorted(element_order(m2.group, x) for x in range(n))
    if orders1 != orders2:
        return None
    ids = list(range(n))
    for perm in itertools.permutations(ids):
        if perm[m1.zero] != m2.zero:
            continue
        if any(perm[m1.plus(a, b)] != m2.plus(perm[a], perm[b])
               for a in ids for b in ids):
            continue
        if any(perm[m1.act(r, x)] != m2.act(r, perm[x])
               for r in range(m1.ring.size) for x in ids):
            continue
        return list(perm)
    return None


def is_rmodule_isomorphism(m1, m2, f):
    ids = range(m1.size)
    return (sorted(f) == list(range(m2.size))
            and all(f[m1.plus(a, b)] == m2.plus(f[a], f[b]) for a in ids for b in ids)
            and all(f[m1.act(r, x)] == m2.act(r, f[x])
                    for r in range(m1.ring.size) for x in ids))


def cyclic_products(n, max_size):
    """(label, ds, N) for every Zn-module N = Z_d1 x ... x Z_dk, d1 >= ... >= dk > 1
    dividing n, with |N| <= max_size, plain and relabelled; ds = () is the
    zero module."""
    ring = FiniteRing.Zn(n)
    rng = random.Random(20265 + n)

    def cyclic(d):
        return RModule(ring, FiniteGroup.cyclic(d), [[r * a % d for a in range(d)]
                                                     for r in range(n)])

    divisors = [d for d in range(n, 1, -1) if n % d == 0]
    families = [()] + [ds for k in range(1, 5)
                       for ds in itertools.combinations_with_replacement(divisors, k)
                       if math.prod(ds) <= max_size]
    for ds in families:
        m = functools.reduce(RModule.product, map(cyclic, ds), cyclic(1))
        perm = list(range(m.size))
        rng.shuffle(perm)
        yield f"Z{n}: {ds}", ds, m
        yield f"Z{n}: relabelled {ds}", ds, relabel_rmodule(m, perm)


@pytest.mark.parametrize("n", range(2, 9))
def test_rmodule_isomorphism_matches_the_permutation_oracle(n):
    modules = list(cyclic_products(n, 8))
    for (la, _, m1), (lb, _, m2) in itertools.product(modules, repeat=2):
        got, want = rmodule_isomorphism(m1, m2), rmodule_isomorphism_oracle(m1, m2)
        assert (got is None) == (want is None), (la, lb)
        assert got is None or is_rmodule_isomorphism(m1, m2, got), (la, lb)


def test_rmodule_isomorphism_needs_one_ring():
    # Z2 over Z2 and Z2 over Z4: one additive group, two rings
    z2_over_z4 = RModule(FiniteRing.Zn(4), FiniteGroup.cyclic(2),
                         [[r * a % 2 for a in range(2)] for r in range(4)])
    assert rmodule_isomorphism(RModule.regular(FiniteRing.Zn(2)), z2_over_z4) is None


@pytest.mark.parametrize("n", range(2, 9))
def test_TN_is_free_exactly_when_N_is_Zn_on_every_small_module(n):
    # the paper's criterion: T(N) is free over T(Zn) iff N = Zn as modules,
    # and a product of cyclic groups is Zn iff it has n elements, one of
    # additive order lcm(ds) = n
    for label, ds, m in cyclic_products(n, 16):
        report = freeness_of_TN(m)
        assert report.ok == (math.prod(ds) == n == math.lcm(*ds)), label
        if report.ok:
            assert is_rmodule_isomorphism(m, RModule.regular(m.ring),
                                          report.stats["isomorphism"]), label


def powers_and_relabellings():
    """(label, N) for every Z_n^k with n <= 8 and n^k <= 64, plain and
    relabelled, and every module of ``cyclic_products`` up to 16 elements."""
    rng = random.Random(20263)
    for n in range(2, 9):
        for k in range(1, 7):
            if n ** k <= 64:
                m = RModule.power(FiniteRing.Zn(n), k)
                perm = list(range(m.size))
                rng.shuffle(perm)
                yield f"Z{n}^{k}", m
                yield f"relabelled Z{n}^{k}", relabel_rmodule(m, perm)
        for label, _, m in cyclic_products(n, 16):
            yield label, m


def test_absorbers_of_TN_are_the_points_every_scalar_fixes():
    for label, m in powers_and_relabellings():
        want = [m.names[x] for x in range(m.size)
                if all(m.act(r, x) == x for r in range(m.ring.size))]
        assert freeness_of_TN(m).stats["absorbers_of_TN"] == want, label


def is_normal_search(s):
    """(verdict, base, counterexample, witnesses) of normality at the least
    member e, each witness t of [t,e,a] = [a,e,s'] found by trying every
    member of S in order."""
    h, e = s.parent, s.members[0]
    witnesses = {}
    for a in range(h.size):
        for sp in s.members:
            lhs = h.ternary(a, e, sp)
            found = next((t for t in s.members if h.ternary(t, e, a) == lhs), None)
            if found is None:
                return False, e, (a, e, sp), None
            witnesses[(a, sp)] = found
    return True, e, None, witnesses


def quotient_classes_search(h, members):
    """The classes {[s,t,a] : s, t in S}, ordered by least member, and the
    class index of each element."""
    classes = [frozenset(h.ternary(x, y, a) for x in members for y in members)
               for a in range(h.size)]
    distinct = sorted(set(classes), key=min)
    return distinct, tuple(distinct.index(c) for c in classes)


def small_groups_and_relabellings():
    rng = random.Random(2323)
    for label, g in small_groups(8):
        perm = list(range(g.size))
        rng.shuffle(perm)
        yield label, g
        yield label + " relabelled", relabel_group(g, perm)


def test_a_group_is_its_heap_pointed_at_the_neutral_element():
    """Every group of ``small_groups(8)`` and its seeded relabellings, each
    retract of its heap and the group built from each table: == is op-table
    equality, equal groups hash alike, and the table, the inverses and the
    flag are those that scans of the table give, and those of the group
    built from it; the heap is x.y^-1.z of the table."""
    groups = []
    for label, g in small_groups_and_relabellings():
        for e in range(g.size):
            r = retract(g.heap, e)
            groups += [(f"{label} at {e}", r), (f"{label} at {e} rebuilt",
                                                  FiniteGroup(r.op_table(), r.names))]
    tables = []
    for label, g in groups:
        ids, e = range(g.size), g.neutral
        table = tuple(tuple(g.heap.ternary(a, e, b) for b in ids) for a in ids)
        rebuilt = FiniteGroup(table)
        inverses = tuple(table[a].index(e) for a in ids)
        assert g.op_table() == table == rebuilt.op_table(), label
        assert tuple(map(g.inv, ids)) == inverses == tuple(map(rebuilt.inv, ids)), label
        assert g.abelian == (table == tuple(zip(*table))) == rebuilt.abelian, label
        assert all(g.heap.ternary(x, y, z) == table[table[x][inverses[y]]][z]
                   for x in ids for y in ids for z in ids), label
        tables.append(table)
    equal = 0
    for (x, tx), (y, ty) in itertools.combinations(zip(groups, tables), 2):
        if x[1].size == y[1].size:
            assert (x[1] == y[1]) == (tx == ty), (x[0], y[0])
            if tx == ty:
                equal += 1
                assert hash(x[1]) == hash(y[1]), (x[0], y[0])
    assert equal >= len(groups) // 2


def test_closed_form_normality_and_classes_match_the_search_on_every_small_seed():
    non_normal = set()
    for label, g in small_groups_and_relabellings():
        h = heap_from_group(g)
        seeds = {tuple(generated_subheap(h, seed).members)
                 for k in (1, 2) for seed in itertools.combinations(range(g.size), k)}
        for members in sorted(seeds):
            s = core.SubHeap(h, members)
            got = core.is_normal(s)
            want = is_normal_search(s)
            assert (got.normal, got.base, got.counterexample, got.witnesses) == want, \
                (label, members)
            if got.normal:
                assert core._quotient_classes(h, s) == quotient_classes_search(h, members), \
                    (label, members)
            else:
                non_normal.add(label.split()[0])
    assert non_normal == {"S3", "D4"}   # every subgroup of Q8 is normal


def test_group_inverses_and_commutativity_match_the_scans():
    for label, g in small_groups_and_relabellings():
        ids = range(g.size)
        assert tuple(map(g.inv, ids)) == tuple(
            next(b for b in ids if g.op(a, b) == g.neutral == g.op(b, a)) for a in ids), label
        assert g.abelian == all(g.op(a, b) == g.op(b, a) for a in ids for b in ids), label
        rows = heap_from_group(g).table()
        assert core.FiniteHeap.from_table(rows).abelian == all(
            rows[a][b][c] == rows[c][b][a] for a in ids for b in ids for c in ids), label


def symmetric_everywhere(h):
    ids = range(h.size)
    return all(h.ternary(a, b, c) == h.ternary(c, b, a) for a in ids for b in ids for c in ids)


def heaps_to_flag():
    """Every small group heap as a group heap, read from its table, as a bare
    table and bare relabelled; each quotient by a normal sub-heap; pairwise
    products; the empty heap, a singleton and two non-heaps."""
    rng = random.Random(3636)
    group_heaps = []
    for label, g in small_groups(8):
        rows = g.heap.table()
        perm = list(range(g.size))
        rng.shuffle(perm)
        inv = {v: i for i, v in enumerate(perm)}
        group_heaps.append((label, g.heap))
        yield label, g.heap
        yield label + " read", core.FiniteHeap.from_table(rows)
        yield label + " bare", core.FiniteHeap(g.size, table=rows)
        yield label + " relabelled", core.FiniteHeap.from_function(
            g.size, lambda a, b, c, rows=rows, perm=perm, inv=inv:
            perm[rows[inv[a]][inv[b]][inv[c]]])
        subs = {tuple(generated_subheap(g.heap, seed).members)
                for k in (1, 2) for seed in itertools.combinations(range(g.size), k)}
        for members in sorted(subs):
            s = core.SubHeap(g.heap, members)
            if core.is_normal(s).normal:
                yield f"{label}/{members}", core.quotient(g.heap, s)[0]
    small = [(label, h) for label, h in group_heaps if h.size <= 6]
    for (la, a), (lb, b) in itertools.combinations_with_replacement(small, 2):
        yield f"{la} x {lb}", core.product(a, b)
    named = dict(group_heaps)
    bare_s3 = core.FiniteHeap(6, table=named["S3"].table())
    yield "C2 x bare S3", core.product(named["C2"], bare_s3)
    yield "empty", core.FiniteHeap.empty()
    yield "singleton", core.FiniteHeap.singleton()
    yield "not a heap", not_a_heap()
    malcev = [[[0, 1, 2], [2, 0, 1], [2, 0, 0]],    # Mal'cev, no heap
              [[1, 0, 2], [0, 1, 2], [2, 0, 1]],
              [[2, 2, 0], [1, 2, 0], [0, 1, 2]]]
    yield "Mal'cev", core.FiniteHeap(3, table=malcev)
    framed = core.FiniteHeap(3, table=malcev)
    assert framed.frame() is None
    yield "Mal'cev, frame found", framed


def test_the_abelian_flag_of_a_heap_is_its_definition():
    labels = set()
    for label, h in heaps_to_flag():
        labels.add(label)
        assert h.abelian == symmetric_everywhere(h), label
        assert h.abelian == symmetric_everywhere(h), label     # kept
    assert {"C4 bare", "S3 bare", "S3/(0, 1, 2)", "C2 x S3", "not a heap"} <= labels


def test_normality_and_classes_make_a_linear_number_of_heap_operations():
    """``is_normal`` makes at most 2.n.|S| ternary calls and
    ``_quotient_classes`` at most n.|S| more."""
    for label, g in small_groups(8):
        h = heap_from_group(g)
        calls = []
        counted = core.FiniteHeap.from_function(
            g.size, lambda a, b, c: calls.append(1) or h.ternary(a, b, c))
        for members in {tuple(generated_subheap(h, [x, y]).members)
                        for x, y in itertools.combinations(range(g.size), 2)}:
            s = core.SubHeap(counted, members)
            bound = g.size * len(members)
            calls.clear()
            normal = core.is_normal(s).normal
            assert len(calls) <= 2 * bound, (label, members)
            if normal:
                calls.clear()
                core._quotient_classes(counted, s)
                assert len(calls) <= 3 * bound, (label, members)


# ---------------------------------------------------------------------------
# products on the carrier heap


def nested_loop_product(g, h):
    """The direct product of two groups, its table filled pair by pair."""
    n2, size = h.size, g.size * h.size
    table = [[0] * size for _ in range(size)]
    for a1, a2 in itertools.product(range(g.size), range(h.size)):
        for b1, b2 in itertools.product(range(g.size), range(h.size)):
            table[a1 * n2 + a2][b1 * n2 + b2] = g.op(a1, b1) * n2 + h.op(a2, b2)
    names = tuple(f"({g.names[a]},{h.names[b]})" for a in range(g.size) for b in range(h.size))
    return FiniteGroup(table, names, validate=False)


def test_group_products_match_the_nested_loops():
    rng = random.Random(20263)
    groups = small_groups(8)
    c3 = relabel_group(FiniteGroup.cyclic(3), [2, 0, 1])    # neutral at id 2
    pairs = list(itertools.product(groups, repeat=2))
    for label, g in groups:
        perm = list(range(g.size))
        rng.shuffle(perm)
        relabelled = (label + " relabelled", relabel_group(g, perm))
        pairs += [(relabelled, ("C3 neutral 2", c3)), (("C3 neutral 2", c3), relabelled)]
    checked = 0
    for (la, g), (lb, h) in pairs:
        if g.size * h.size <= 64:
            got, want = FiniteGroup.product(g, h), nested_loop_product(g, h)
            assert (got, got.names, got.neutral, got.abelian) == \
                (want, want.names, want.neutral, want.abelian), (la, lb)
            checked += 1
    assert checked == 14 * 14 + 2 * 14


def zn_power_table(m, n):
    """Addition and action of Z_m^n on mixed-radix ids, the last digit
    fastest, from the digits of each id."""
    vectors = list(itertools.product(range(m), repeat=n))
    index = {v: i for i, v in enumerate(vectors)}
    add = tuple(tuple(index[tuple((a + b) % m for a, b in zip(x, y))] for y in vectors)
                for x in vectors)
    act = tuple(tuple(index[tuple(r * a % m for a in x)] for x in vectors) for r in range(m))
    return add, act


@pytest.mark.parametrize("m, n", list(itertools.product(range(1, 5), range(1, 4))))
def test_powers_of_Zm_match_their_digits(m, n):
    power = RModule.power(FiniteRing.Zn(m), n)
    add, act = zn_power_table(m, n)
    assert power.group.op_table() == add and power.action == act and power.zero == 0
    assert power.plus_table() == [list(row) for row in add]


def relabel_ring(ring, perm):
    """ring with element x renamed perm[x]."""
    n = ring.size
    add, mul = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        add[perm[a]][perm[b]] = perm[ring.plus(a, b)]
        mul[perm[a]][perm[b]] = perm[ring.mul(a, b)]
    return FiniteRing(FiniteGroup(add), mul)


def abs_of_free_rings():
    rings = {f"Z{m}": FiniteRing.Zn(m) for m in range(1, 7)}
    rings["Z2xZ2"] = FiniteRing.product(FiniteRing.Zn(2), FiniteRing.Zn(2))
    rings["Z2xZ3"] = FiniteRing.product(FiniteRing.Zn(2), FiniteRing.Zn(3))
    rings["Z3 zero at 2"] = relabel_ring(FiniteRing.Zn(3), [2, 0, 1])
    return rings


def test_retract_rings_of_finite_trusses_share_the_truss_heap():
    for label, ring in abs_of_free_rings().items():
        t = truss_from_ring(ring)
        r = retract_ring(t, ring.zero)
        assert r.heap is t.heap and r.zero == ring.zero, label
        assert r == ring == FiniteRing(retract(t.heap, ring.zero), t.mul_table), label


def absorbs_oracle(table, z):
    return all(table[z][x] == z == table[x][z] for x in range(len(table)))


def one_entry_changes(table):
    n = len(table)
    for a, b in itertools.product(range(n), repeat=2):
        for v in range(n):
            if v != table[a][b]:
                yield [[v if (x, y) == (a, b) else table[x][y] for y in range(n)]
                       for x in range(n)]


def test_the_absorber_step_matches_the_two_sided_scan_on_every_change_of_TZ4():
    tz4 = truss_TZn(4)
    tables = list(one_entry_changes(tz4.mul_table))
    assert len(tables) == 48
    refused = 0
    for table in tables:
        for z in range(4):
            try:
                retract_ring(FiniteTruss(tz4.heap, table), z)
                message = None
            except StructureError as e:
                message = str(e)
            assert (message == f"{z} is not a two-sided absorber") != absorbs_oracle(table, z), \
                (table, z, message)
            refused += message == f"{z} is not a two-sided absorber"
    # a change in row or column 0 (7 cells, 3 new values each) stops 0
    # absorbing, and no single change makes another element absorb
    assert refused == 7 * 3 + 48 * 3


# verify_abs_of_free's frame sizes and basis images for n = 1, 2, 3, as
# they were when R^n was built as nested group-table products
ABS_OF_FREE = {
    "Z1": ([1, 2, 3], [[0], [0, 0], [0, 0, 0]]),
    "Z2": ([2, 4, 6], [[1], [2, 1], [4, 2, 1]]),
    "Z2xZ2": ([3, 6, 9], [[3], [12, 3], [48, 12, 3]]),
    "Z2xZ3": ([3, 6, 9], [[4], [24, 4], [144, 24, 4]]),
    "Z3": ([2, 4, 6], [[1], [3, 1], [9, 3, 1]]),
    "Z3 zero at 2": ([2, 4, 6], [[0], [2, 6], [8, 20, 24]]),
    "Z4": ([2, 4, 6], [[1], [4, 1], [16, 4, 1]]),
    "Z5": ([2, 4, 6], [[1], [5, 1], [25, 5, 1]]),
    "Z6": ([2, 4, 6], [[1], [6, 1], [36, 6, 1]]),
}


def test_abs_of_free_reports_are_unchanged_on_small_ranks():
    rings = abs_of_free_rings()
    assert set(rings) == set(ABS_OF_FREE)
    for label, (frames, images) in ABS_OF_FREE.items():
        ring = rings[label]
        for n, frame, basis in zip((1, 2, 3), frames, images):
            report = verify_abs_of_free(ring, n)
            assert (report.status, report.findings) == ("pass", []), (label, n)
            assert report.stats == {
                "ring": ring.size, "generators": n, "frame": frame,
                "absorber_heap": f"H(Z^{n - 1})", "quotient": f"R^{n}",
                "basis_images": [str(i) for i in basis]}, (label, n)
