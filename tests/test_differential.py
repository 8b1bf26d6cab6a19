"""The shared closure and quotient routines against brute-force oracles.

``resweep_closure`` is the plain fixed point: it sweeps every triple of the
current set until a round adds nothing.  ``absorber_classes_oracle`` builds
the absorber classes of a finite module from their definition.  Both stay
here as references for ``core._closure`` and ``core._quotient_classes``.
"""

import itertools

import pytest

from trusskit import core
from trusskit.core import (
    FiniteGroup,
    StructureError,
    generated_subheap,
    heap_from_group,
    small_groups,
)
from trusskit.modules import (
    FiniteTModule,
    ModuleMorphism,
    abs_on_morphism,
    abs_quotient,
    absorber_classes,
    adjunction_theta,
    adjunction_theta_inv,
    basis_check,
)
from trusskit.rings import FiniteRing, RModule
from trusskit.trusses import truss_TZn


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
    # what the isomorphism search relies on in _generating_sequence
    for label, g, seed in small_seeds():
        heap = heap_from_group(g).ternary
        members = core._closure(seed + [g.neutral], heap)
        assert len(members) == len(set(members))
        assert set(members) == resweep_closure(seed + [g.neutral], heap) \
            == subgroup_oracle(g, seed), (label, seed)


def test_generating_sequences_are_greedy_and_generate():
    for label, g in small_groups(8):
        gens = core._generating_sequence(g)
        assert subgroup_oracle(g, gens) == set(range(g.size)), label
        for i, x in enumerate(gens):
            earlier = subgroup_oracle(g, gens[:i])
            assert x == min(set(range(g.size)) - earlier), label


@pytest.mark.parametrize("n", range(2, 17))
def test_orbit_spans_of_regular_TZn_match_the_resweep(n):
    m = FiniteTModule.regular(truss_TZn(n))
    for u in range(n):
        orbit = [m.act(a, u) for a in m.truss.elements()]
        want = resweep_closure(orbit, m.ternary)
        assert set(core._closure(orbit, m.ternary)) == want
        stats = basis_check(m, [u]).stats
        assert (stats["span"], stats["carrier"]) == (len(want), n), u


# ---------------------------------------------------------------------------
# absorber quotients


def absorber_classes_oracle(m):
    ts = list(m.truss.elements())
    absorbers = [x for x in range(m.size) if all(m.act(t, x) == x for t in ts)]
    cls = {a: frozenset(m.ternary(x, y, a) for x in absorbers for y in absorbers)
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
        tuple(proj[m.ternary(a, e, b)] for b in reps) for a in reps)
    assert q.action == tuple(tuple(proj[m.act(t, r)] for r in reps)
                             for t in m.truss.elements())

    n_mod = RModule.regular(ring)
    phi = tuple((3 * i + 1) % n_mod.size for i in range(len(classes)))
    psi = adjunction_theta(m, n_mod, phi)
    assert psi == tuple(phi[proj[x]] for x in range(m.size))
    assert adjunction_theta_inv(m, n_mod, psi) == phi
    if len(classes) < m.size:
        with pytest.raises(StructureError, match="does not descend"):
            adjunction_theta_inv(m, n_mod, tuple(range(m.size)))

    for r in m.truss.elements():
        scale = ModuleMorphism(m, m, tuple(m.act(r, x) for x in range(m.size)))
        _, _, mapping = abs_on_morphism(scale)
        assert mapping == tuple(proj[scale(r_)] for r_ in reps), r
