"""Modules over trusses: laws, absorbers, quotients, adjunction, freeness."""

import itertools
import random
import time

import pytest

from trusskit import core, modules
from trusskit.coproduct import CoproductElement, DirectSum
from trusskit.core import FiniteGroup, FiniteHeap, IntLineHeap, StructureError, heap_from_group
from trusskit.modules import (
    AbsorberSet,
    FiniteTModule,
    FreeTModule,
    ModuleMorphism,
    TrivialIntModule,
    abs_on_morphism,
    abs_quotient,
    absorber_classes,
    absorbers,
    adjunction_theta,
    adjunction_theta_inv,
    basis_check,
    empty_module,
    free_module,
    free_set_check,
    freeness_of_TN,
    is_ring_module,
    sigma,
    tmodule_homs_to_TN,
    to_ring_module,
    validate_module,
    verify_abs_of_free,
)
from trusskit.rings import (
    FiniteRing,
    RModule,
    rmodule_homs,
    rmodule_isomorphism,
    validate_ring,
    validate_rmodule,
)
from trusskit.reports import Finding
from trusskit.trusses import (
    ConstantTruss,
    ExtensionTruss,
    FiniteTruss,
    IntegerTruss,
    constant_truss,
    double_extension,
    integer_truss,
    ring_extension,
    tc2_brace_truss,
    truss_TZn,
    truss_from_ring,
    unital_extension,
    validate_truss,
)

from test_trusses import NO_FRAME, Frameless, FramelessSum, ListPool, sampled_laws

Z2 = FiniteRing.Zn(2)
Z3 = FiniteRing.Zn(3)


def trivial_action_module():
    t = truss_TZn(2)
    heap = heap_from_group(FiniteGroup.cyclic(2))
    return FiniteTModule(t, heap, [[0, 1], [0, 1]])


# ---------------------------------------------------------------------------
# validation


def test_regular_module_valid():
    for t in (truss_TZn(2), truss_TZn(3), tc2_brace_truss()):
        assert validate_module(FiniteTModule.regular(t)).ok


def test_trivial_integer_module_valid_but_not_ring():
    m = TrivialIntModule()
    assert validate_module(m).ok
    assert not is_ring_module(m)


def test_free_module_validates_sampled():
    assert validate_module(free_module(truss_TZn(2), 2)).ok
    assert validate_module(free_module(tc2_brace_truss(), 2)).ok


class OddPositiveC0Wrong(FreeTModule):
    """The free action, except that it also bumps the tail of an element
    with odd c0 > 0.  Every element of the first 4000 of the window at 50
    has c0 = -50, and products and heap combinations of them keep c0 even,
    so a prefix of the window never reaches the wrong elements.  The action
    is not affine, so its carrier withholds its frame: the validator refuses
    it, and only the sampled oracle sees its failures."""

    def __init__(self, truss, n):
        super().__init__(truss, n)
        self.heap = FramelessSum(self.heap.summands)

    def act(self, t, x):
        y = super().act(t, x)
        if x.components[0] > 0 and x.components[0] % 2:
            return CoproductElement(y.components, tuple(k + 1 for k in y.tails))
        return y


def sampled_module(m, samples, window, seed=2026):
    """The sampled oracle on a module: its law findings on seeded draws from
    the windows of the truss and of the carrier, then the first drawn x
    that breaks unitality."""
    t = m.truss
    found, drawn = sampled_laws(t, m.act, m, t.sample_elements(window), m.heap.sample(window),
                                samples, seed)
    findings = [Finding(*f) for f in found]
    bad = None if t.identity is None else next(
        (x for x in drawn if m.act(t.identity, x) != x), None)
    if bad is not None:
        findings.append(Finding("unitality 1m = m", (bad,), str(m.act(t.identity, bad)), str(bad)))
    return findings


def test_sampled_module_laws_draw_from_the_whole_window():
    fm = OddPositiveC0Wrong(integer_truss(), 2)
    assert {x.components[0] for x in itertools.islice(fm.heap.sample(50), 4000)} == {-50}
    with pytest.raises(StructureError, match=NO_FRAME):
        validate_module(fm)
    laws = {f.law for f in sampled_module(fm, 200, 50)}
    assert "unitality 1m = m" in laws and "action associativity t(t'm) = (tt')m" in laws
    assert not sampled_module(free_module(integer_truss(), 2), 200, 50)
    assert validate_module(free_module(integer_truss(), 2)).ok


def test_action_associativity_violation_located():
    # a swap action breaks t(t'm) = (tt')m on two elements
    t = truss_TZn(2)
    heap = heap_from_group(FiniteGroup.cyclic(2))
    m = FiniteTModule(t, heap, [[1, 0], [0, 1]])
    report = validate_module(m)
    assert not report.ok
    assert any("t(t'm)" in f.law for f in report.findings)


def test_distributivity_in_truss_slot_violation_located():
    # acting by multiplication-with-t^2 respects composition and each slot,
    # but is not heap-linear in t; a two-element example cannot break this
    # law, so the witness lives over three elements
    t = truss_TZn(3)
    heap = heap_from_group(FiniteGroup.cyclic(3))
    action = [[(t_ * t_ * m) % 3 for m in range(3)] for t_ in range(3)]
    m = FiniteTModule(t, heap, action)
    report = validate_module(m)
    assert not report.ok
    hit = [f for f in report.findings if "[t,t',t'']m" in f.law]
    assert hit
    a, b, c, x = hit[0].at  # the witness recomputes to a genuine violation
    assert m.act(t.heap.ternary(a, b, c), x) != \
        m.heap.ternary(m.act(a, x), m.act(b, x), m.act(c, x))


def test_empty_module_constructor():
    m = empty_module(truss_TZn(2))
    assert m.size == 0
    assert validate_module(m).ok
    with pytest.raises(StructureError):
        abs_quotient(m)


# ---------------------------------------------------------------------------
# absorbers


def test_absorbers_of_TN_is_zero():
    for rm in (RModule.regular(Z2), RModule.power(Z2, 2), RModule.regular(Z3)):
        tn = FiniteTModule.from_rmodule(rm)
        aset = absorbers(tn)
        assert aset.members == (rm.zero,)
        assert aset.is_singleton()


def test_absorbers_trivial_action_is_everything():
    m = trivial_action_module()
    assert absorbers(m).members == (0, 1)


def test_absorbers_trivial_integer_module():
    aset = absorbers(TrivialIntModule())
    assert aset.kind == "all"
    assert aset.contains(17) and aset.contains(-3)


def test_absorbers_free_module_are_tails():
    fm = free_module(truss_TZn(2), 3)
    aset = absorbers(fm)
    assert aset.kind == "tails"
    assert aset.contains(CoproductElement((0, 0, 0), (4, -1)))
    assert not aset.contains(CoproductElement((1, 0, 0), (0, 0)))
    for x in itertools.islice(fm.heap.sample(2), 300):
        assert aset.contains(fm.act(0, x))


def test_absorber_set_is_submodule():
    # closed under the heap operation and the action
    cases = [
        FiniteTModule.from_rmodule(RModule.power(Z2, 2)),
        trivial_action_module(),
        FiniteTModule.regular(truss_TZn(3)),
    ]
    for m in cases:
        aset = absorbers(m)
        mem = set(aset.members)
        for a, b, c in itertools.product(aset.members, repeat=3):
            assert m.heap.ternary(a, b, c) in mem
        for t in m.truss.heap.elements():
            for a in aset.members:
                assert m.act(t, a) in mem
    fm = free_module(truss_TZn(2), 2)
    tails = [CoproductElement((0, 0), (k,)) for k in range(-3, 4)]
    for a, b, c in itertools.product(tails, repeat=3):
        assert absorbers(fm).contains(fm.heap.ternary(a, b, c))
    for t in fm.truss.heap.elements():
        for a in tails:
            assert absorbers(fm).contains(fm.act(t, a))


def test_is_ring_module():
    assert is_ring_module(FiniteTModule.from_rmodule(RModule.power(Z2, 2)))
    assert not is_ring_module(trivial_action_module())
    assert not is_ring_module(free_module(truss_TZn(2), 2))
    assert is_ring_module(free_module(truss_TZn(2), 1))


def test_free_module_two_absorber_witness():
    fm = free_module(truss_TZn(2), 2)
    zx = fm.heap.inject(0, 0)
    zy = fm.heap.inject(1, 0)
    assert zx != zy
    aset = absorbers(fm)
    assert aset.contains(zx) and aset.contains(zy)


def test_to_ring_module_round_trip():
    rm = RModule.power(Z2, 2)
    back = to_ring_module(FiniteTModule.from_rmodule(rm))
    assert back.group.op_table() == rm.group.op_table()
    assert back.action == rm.action


def test_T_of_a_ring_and_of_its_modules_share_their_carrier_heaps():
    for r in (FiniteRing.Zn(4), FiniteRing.product(Z2, Z3)):
        assert truss_from_ring(r).heap is r.heap
        assert RModule.regular(r).heap is r.heap
        for rm in (RModule.regular(r), RModule.power(r, 2)):
            assert FiniteTModule.from_rmodule(rm).heap is rm.heap


def test_a_ring_frame_is_walked_once_by_its_validators(monkeypatch):
    walks, walk = [], core._generating_sequence

    def spy(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(core, "_generating_sequence", spy)
    r = FiniteRing.Zn(6)
    assert validate_ring(r).ok and validate_ring(r).ok
    assert validate_rmodule(RModule.regular(r)).ok
    assert len(walks) == 1


# ---------------------------------------------------------------------------
# the absorber quotient


def test_abs_quotient_of_TN_recovers_N():
    for rm in (RModule.regular(Z2), RModule.regular(Z3), RModule.power(Z2, 2)):
        q, proj = abs_quotient(FiniteTModule.from_rmodule(rm))
        # classes are singletons, ordered by least member, so tables agree
        assert q.group.op_table() == rm.group.op_table()
        assert q.action == rm.action
        assert [proj(x) for x in rm.heap.elements()] == list(rm.heap.elements())


def test_abs_quotient_all_absorbers_is_terminal():
    q, proj = abs_quotient(trivial_action_module())
    assert q.size == 1
    assert proj(0) == proj(1) == 0


def test_abs_quotient_free_module_is_power():
    fm = free_module(truss_TZn(2), 2)
    q, proj = abs_quotient(fm)
    power = RModule.power(Z2, 2)
    assert q.group.op_table() == power.group.op_table()
    assert q.action == power.action
    # the projection drops the tails
    assert proj(CoproductElement((1, 0), (7,))) == proj(CoproductElement((1, 0), (0,)))


def test_quotient_projection_respects_structure():
    fm = free_module(truss_TZn(2), 2)
    q, proj = abs_quotient(fm)
    xs = list(itertools.islice(fm.heap.sample(2), 100))
    rng = random.Random(67)
    for _ in range(300):
        x, y, z = (rng.choice(xs) for _ in range(3))
        lhs = proj(fm.heap.ternary(x, y, z))
        rhs = q.plus(q.plus(proj(x), q.neg(proj(y))), proj(z))
        assert lhs == rhs
    for t in fm.truss.heap.elements():
        for x in xs:
            assert proj(fm.act(t, x)) == q.act(t, proj(x))


# ---------------------------------------------------------------------------
# morphisms and the induced quotient maps


def all_module_morphisms(src: FiniteTModule, dst: FiniteTModule):
    out = []
    for mapping in itertools.product(range(dst.size), repeat=src.size):
        try:
            out.append(ModuleMorphism(src, dst, mapping))
        except StructureError:
            continue
    return out


def test_morphisms_send_absorbers_to_absorbers():
    src = FiniteTModule.from_rmodule(RModule.regular(Z2))
    dst = FiniteTModule.from_rmodule(RModule.power(Z2, 2))
    dst_abs = set(absorbers(dst).members)
    homs = all_module_morphisms(src, dst)
    assert homs
    for phi in homs:
        for a in absorbers(src).members:
            assert phi(a) in dst_abs


def test_abs_on_identity_is_identity():
    m = FiniteTModule.from_rmodule(RModule.power(Z2, 2))
    ident = ModuleMorphism(m, m, tuple(range(m.size)))
    _, _, mapping = abs_on_morphism(ident)
    assert mapping == tuple(range(m.size))


def test_abs_on_injective_morphism_stays_injective():
    src = FiniteTModule.from_rmodule(RModule.regular(Z2))
    dst = FiniteTModule.from_rmodule(RModule.power(Z2, 2))
    # r |-> (r, 0): ids in the product are row-major pairs
    phi = ModuleMorphism(src, dst, (0, 2))
    assert phi.is_injective()
    _, _, mapping = abs_on_morphism(phi)
    assert len(set(mapping)) == len(mapping)


def test_abs_preserves_injectivity_for_all_enumerated_morphisms():
    pairs = [
        (FiniteTModule.from_rmodule(RModule.regular(Z2)),
         FiniteTModule.from_rmodule(RModule.power(Z2, 2))),
        (FiniteTModule.from_rmodule(RModule.power(Z2, 2)),
         FiniteTModule.from_rmodule(RModule.power(Z2, 2))),
    ]
    for src, dst in pairs:
        for phi in all_module_morphisms(src, dst):
            if phi.is_injective():
                _, _, mapping = abs_on_morphism(phi)
                assert len(set(mapping)) == len(mapping)


def test_module_morphisms_need_one_truss_not_one_product_table():
    # the constant-0 product on the heaps of Z4 and of Z2^2: one product
    # table, two trusses
    zero = [[0] * 4] * 4
    t1 = FiniteTruss(heap_from_group(FiniteGroup.cyclic(4)), zero)
    t2 = FiniteTruss(heap_from_group(FiniteGroup.product(FiniteGroup.cyclic(2),
                                                         FiniteGroup.cyclic(2))), zero)
    assert t1 != t2
    with pytest.raises(StructureError, match="common truss"):
        ModuleMorphism(FiniteTModule.regular(t1), FiniteTModule.regular(t2), (0, 2, 0, 2))
    # equal trusses built twice are one truss
    ModuleMorphism(FiniteTModule.regular(truss_TZn(4)), FiniteTModule.regular(truss_TZn(4)),
                   (0, 2, 0, 2))


@pytest.mark.parametrize("mapping, message", [
    ((0,), "does not cover"),
    ((0, 5), "image 5 is not in the target"),
    ((0, 1.0), "image 1.0 is not in the target"),
])
def test_module_morphism_rejects_a_map_that_is_not_into_the_target(mapping, message):
    m = FiniteTModule.regular(truss_TZn(2))
    with pytest.raises(StructureError, match=message):
        ModuleMorphism(m, m, mapping)


def test_module_morphism_names_the_first_unequivariant_pair():
    src = trivial_action_module()
    dst = FiniteTModule.from_rmodule(RModule.regular(Z2))
    with pytest.raises(StructureError, match=r"^action not preserved at \(0,1\)$"):
        ModuleMorphism(src, dst, (0, 1))


def test_constant_to_absorber_becomes_zero_morphism():
    src = trivial_action_module()
    dst = FiniteTModule.from_rmodule(RModule.regular(Z2))
    phi = ModuleMorphism(src, dst, (0, 0))
    _, qdst, mapping = abs_on_morphism(phi)
    assert mapping == (0,)  # the single class lands on zero


# ---------------------------------------------------------------------------
# the adjunction


@pytest.mark.parametrize("rm, n_mod", [
    (RModule.regular(Z2), RModule.regular(Z2)),
    (RModule.power(Z2, 2), RModule.regular(Z2)),
    (RModule.regular(Z3), RModule.regular(Z3)),
])
def test_theta_bijection_on_enumerated_hom_sets(rm, n_mod):
    m = FiniteTModule.from_rmodule(rm)
    q, _ = abs_quotient(m)
    ring_homs = rmodule_homs(q, n_mod)
    truss_homs = tmodule_homs_to_TN(m, n_mod)
    assert len(ring_homs) == len(truss_homs)
    images = set()
    for phi in ring_homs:
        psi = adjunction_theta(m, n_mod, phi)
        assert psi in truss_homs
        assert adjunction_theta_inv(m, n_mod, psi) == phi
        images.add(psi)
    assert len(images) == len(truss_homs)


def test_theta_on_trivial_action_module():
    m = trivial_action_module()
    n_mod = RModule.regular(Z2)
    q, _ = abs_quotient(m)
    assert len(rmodule_homs(q, n_mod)) == len(tmodule_homs_to_TN(m, n_mod)) == 1


def test_theta_of_zero_morphism():
    m = FiniteTModule.from_rmodule(RModule.power(Z2, 2))
    n_mod = RModule.regular(Z2)
    q, _ = abs_quotient(m)
    zero_phi = tuple(n_mod.zero for _ in range(q.size))
    psi = adjunction_theta(m, n_mod, zero_phi)
    assert set(psi) == {n_mod.zero}


@pytest.mark.parametrize("n, q", [(5, 3), (2, 4)])
def test_hom_sets_into_TN_need_a_module_over_T_of_the_ring_of_N(n, q):
    m = FiniteTModule.regular(truss_TZn(n))
    with pytest.raises(StructureError, match=r"module over T\(R\) for N's ring"):
        tmodule_homs_to_TN(m, RModule.regular(FiniteRing.Zn(q)))


def test_hom_set_cardinality_example():
    # linear maps (Z2)^2 -> Z2: exactly four
    m = FiniteTModule.from_rmodule(RModule.power(Z2, 2))
    assert len(tmodule_homs_to_TN(m, RModule.regular(Z2))) == 4


# every (n, a, b) with n <= 8, n^a <= 16, n^b <= 16 and n^(ab) <= 256
SMALL_ADJUNCTIONS = [(n, a, b) for n in range(2, 9) for a in range(1, 5) for b in range(1, 5)
                     if n ** a <= 16 and n ** b <= 16 and n ** (a * b) <= 256]


def test_small_adjunction_triples_are_counted():
    assert len(SMALL_ADJUNCTIONS) == 24


@pytest.mark.parametrize("n, a, b", SMALL_ADJUNCTIONS)
def test_adjunction_over_every_small_pair(n, a, b):
    # Hom(M_Abs, N) = Hom(M, T(N)) for M = T(Zn^a), N = Zn^b: both are the
    # n^(ab) linear maps, and theta is a bijection with inverse theta_inv
    ring = FiniteRing.Zn(n)
    m = FiniteTModule.from_rmodule(RModule.power(ring, a))
    n_mod = RModule.power(ring, b)
    q, _ = abs_quotient(m)
    ring_homs = rmodule_homs(q, n_mod)
    truss_homs = tmodule_homs_to_TN(m, n_mod)
    assert len(ring_homs) == len(truss_homs) == n ** (a * b)
    thetas = [adjunction_theta(m, n_mod, phi) for phi in ring_homs]
    assert sorted(thetas) == truss_homs
    assert [adjunction_theta_inv(m, n_mod, psi) for psi in thetas] == ring_homs
    assert [adjunction_theta(m, n_mod, adjunction_theta_inv(m, n_mod, psi))
            for psi in truss_homs] == truss_homs


def test_absorber_classes_are_computed_once_per_module(monkeypatch):
    # absorber_classes, abs_quotient and both thetas read one computation of
    # the classes, made on first use and kept in the module; a fresh module
    # gives the same classes; a module with no finite absorber set raises
    # every time
    calls, classes = [], modules._quotient_classes
    monkeypatch.setattr(modules, "_quotient_classes",
                        lambda h, s: calls.append(h) or classes(h, s))
    ring = FiniteRing.Zn(3)
    m, fresh = (FiniteTModule.from_rmodule(RModule.power(ring, 2)) for _ in range(2))
    n_mod = RModule.regular(ring)
    q, proj = abs_quotient(m)
    ring_homs = rmodule_homs(q, n_mod)
    thetas = [adjunction_theta(m, n_mod, phi) for phi in ring_homs]
    assert [adjunction_theta_inv(m, n_mod, psi) for psi in thetas] == ring_homs
    assert abs_quotient(m)[1].mapping == proj.mapping
    assert calls == [m.heap]
    assert absorber_classes(m) == absorber_classes(fresh) and calls == [m.heap, fresh.heap]
    q_fresh, proj_fresh = abs_quotient(fresh)
    assert proj_fresh.mapping == proj.mapping and q_fresh.action == q.action
    assert q_fresh.group.op_table() == q.group.op_table()
    swap = FiniteTModule(truss_TZn(2), heap_from_group(FiniteGroup.cyclic(2)), [[1, 0], [1, 0]])
    with pytest.raises(StructureError, match="non-empty finite absorber set"):
        abs_quotient(swap)
    for bad in (swap, TrivialIntModule(), free_module(truss_TZn(3), 2)):
        for call in (absorber_classes, absorber_classes,
                     lambda x: adjunction_theta(x, RModule.regular(FiniteRing.Zn(2)), (0,))):
            with pytest.raises(StructureError, match="non-empty finite absorber set"):
                call(bad)
    assert len(calls) == 2


def test_rmodule_homs_of_z4_squared_to_z4_are_fast():
    z4 = FiniteRing.Zn(4)
    m1, m2 = RModule.power(z4, 2), RModule.regular(z4)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        homs = rmodule_homs(m1, m2)
        best = min(best, time.perf_counter() - t0)
    assert len(homs) == 16
    assert best < 0.1


# ---------------------------------------------------------------------------
# free modules


def test_rank_one_free_module_is_the_truss():
    t = truss_TZn(3)
    fm = free_module(t, 1)
    for a in t.heap.elements():
        for x in t.heap.elements():
            got = fm.act(a, CoproductElement((x,), ()))
            assert got == CoproductElement((t.mul(a, x),), ())
    (gen,) = fm.generators()
    assert gen == CoproductElement((t.identity,), ())


def test_finite_module_rejects_out_of_range_actions():
    t = truss_TZn(2)
    heap = heap_from_group(FiniteGroup.cyclic(3))
    FiniteTModule(t, heap, [[0, 0, 0], [0, 1, 2]])
    for bad in (3, -1, None):
        with pytest.raises(StructureError, match="table of ids in 0..2"):
            FiniteTModule(t, heap, [[0, 0, 0], [0, bad, 2]])
    for bad in ([[0, 1, 2]], [[0, 1, 2], [0, 1]], [[0, 1, 2]] * 3, [[0, 1], [0, 1, 2]], [0, 1]):
        with pytest.raises(StructureError, match="must be a 2 x 3 table of ids in 0..2"):
            FiniteTModule(t, heap, bad)


@pytest.mark.parametrize("table", [[[0]], [[0, 5], [0, 1]], [[0, 1], [0]], [[0, -1], [0, 1]],
                                   [0, 1]])
def test_ring_rejects_a_malformed_multiplication_table(table):
    with pytest.raises(StructureError, match="must be a 2 x 2 table of ids in 0..1"):
        FiniteRing(FiniteGroup.cyclic(2), table)


@pytest.mark.parametrize("action", [[[0]], [[0, 5], [0, 1]], [[0, 1]], [[0, 1], [0, 1], [0, 1]],
                                    [0, 1]])
def test_ring_module_rejects_a_malformed_action_table(action):
    with pytest.raises(StructureError, match="must be a 2 x 2 table of ids in 0..1"):
        RModule(FiniteRing.Zn(2), FiniteGroup.cyclic(2), action)


def test_free_module_requires_unital_truss():
    from trusskit.trusses import constant_truss
    with pytest.raises(StructureError):
        free_module(constant_truss(0), 2)
    with pytest.raises(StructureError):
        free_module(truss_TZn(2), 0)


def test_ring_truss_action_fixes_tails():
    fm = free_module(truss_TZn(3), 2)
    rng = random.Random(71)
    xs = list(itertools.islice(fm.heap.sample(4), 400))
    for _ in range(300):
        x = rng.choice(xs)
        t = rng.randrange(3)
        got = fm.act(t, x)
        assert got.tails == x.tails
        assert got.components == tuple((t * c) % 3 for c in x.components)


def act_letterwise(fm, t, x):
    """The defining action: multiply each letter of a word form, renormalize."""
    mapped = [(i, fm.truss.mul(t, u)) for i, u in fm.heap.word_form(x)]
    return fm.heap.normalize_word(mapped)


def test_action_matches_letterwise_oracle():
    rng = random.Random(73)
    for truss in (integer_truss(), truss_TZn(3), truss_TZn(5)):
        scalars = list(truss.sample_elements(4))
        for n in (1, 2, 3):
            for basepoint in (truss.absorber, truss.identity):
                fm = free_module(truss, n, basepoint)
                for _ in range(150):
                    x = CoproductElement(
                        tuple(rng.choice(scalars) for _ in range(n)),
                        tuple(rng.randint(-6, 6) for _ in range(n - 1)))
                    t = rng.choice(scalars)
                    assert fm.act(t, x) == act_letterwise(fm, t, x), (n, basepoint, t, x)


def test_two_summand_action_formula():
    # t(a + b + n) = t.a - n(t.e) + t.b + (n-1)(t.e) + n over the brace truss,
    # where e is the shared base point of both summands
    t = tc2_brace_truss()
    fm = free_module(t, 2)
    e = fm.basepoint

    def scal(k, v):  # the k-fold multiple in G(C2; 0)
        return v if k % 2 else 0

    for a, b in itertools.product(range(2), repeat=2):
        for n in range(-5, 6):
            for s in range(2):
                x = CoproductElement((a, b), (n,))
                te = t.mul(s, e)
                alpha = t.mul(s, a) ^ scal(n, te)
                beta = t.mul(s, b) ^ scal(n - 1, te)
                assert fm.act(s, x) == CoproductElement((alpha, beta), (n,))


def test_universal_lift():
    t = truss_TZn(2)
    fm = free_module(t, 2)
    target = FiniteTModule.from_rmodule(RModule.power(Z2, 2))
    images = [1, 2]
    lift = fm.universal_lift(target, images)
    for g, img in zip(fm.generators(), images):
        assert lift(g) == img
    xs = list(itertools.islice(fm.heap.sample(2), 200))
    rng = random.Random(79)
    for _ in range(200):
        x, y, z = (rng.choice(xs) for _ in range(3))
        assert lift(fm.heap.ternary(x, y, z)) == target.heap.ternary(lift(x), lift(y), lift(z))
        s = rng.randrange(2)
        assert lift(fm.act(s, x)) == target.act(s, lift(x))


def test_universal_lift_unique_under_perturbation():
    t = truss_TZn(2)
    fm = free_module(t, 2)
    target = FiniteTModule.from_rmodule(RModule.power(Z2, 2))
    lift = fm.universal_lift(target, [1, 2])
    other = fm.universal_lift(target, [1, 3])
    assert any(lift(x) != other(x) for x in itertools.islice(fm.heap.sample(1), 60))


# ---------------------------------------------------------------------------
# sigma maps


def test_sigma_of_identity_gives_the_element():
    m = FiniteTModule.from_rmodule(RModule.power(Z2, 2))
    for x in m.heap.elements():
        assert sigma(m, x)(m.truss.identity) == x


def test_sigma_one_is_identity_on_regular_module():
    t = truss_TZn(3)
    m = FiniteTModule.regular(t)
    s = sigma(m, t.identity)
    assert [s(a) for a in t.heap.elements()] == list(t.heap.elements())


def test_sigma_constant_iff_absorber():
    m = FiniteTModule.from_rmodule(RModule.power(Z2, 2))
    abs_members = set(absorbers(m).members)
    for x in m.heap.elements():
        assert (len(sigma(m, x).image()) == 1) == (x in abs_members)


# ---------------------------------------------------------------------------
# freeness checks


def test_free_set_singleton_identity():
    m = FiniteTModule.regular(truss_TZn(3))
    assert free_set_check(m, [m.truss.identity]).ok


def test_free_set_two_candidates_in_finite_module_fails_with_witness():
    m = FiniteTModule.from_rmodule(RModule.power(Z2, 2))
    report = free_set_check(m, [1, 2])
    assert report.status == "fail"
    assert any("collision" in f.law for f in report.findings)


def test_free_set_generators_of_free_module_pass():
    fm = free_module(truss_TZn(2), 2)
    report = free_set_check(fm, fm.generators())
    assert report.status == "pass" and not report.findings
    # F(2) over T(Z2) is Z2^2 + Z: one tail on each side, and the torsion
    # of the source is all four component pairs
    assert report.stats == {"candidates": 2, "linear_part": {"shape": [1, 1], "rank": 1},
                            "torsion": 4}


def test_free_set_intersection_nonempty_for_collapsing_candidates():
    m = FiniteTModule.from_rmodule(RModule.power(Z2, 2))
    report = free_set_check(m, [1, 1])
    assert report.status == "fail"
    # the two lines t |-> t.1 meet: two forms of F(2) share an image on them
    (x, y), value = report.findings[0].at, report.findings[0].lhs
    assert x != y and report.findings[0].rhs == value in sigma(m, 1).image()


def test_basis_regular_module():
    m = FiniteTModule.regular(truss_TZn(2))
    assert basis_check(m, [m.truss.identity]).ok


def test_no_basis_for_TZ2xZ2_up_to_size_4():
    m = FiniteTModule.from_rmodule(RModule.power(Z2, 2))
    for size in (1, 2, 3, 4):
        for candidates in itertools.combinations(range(4), size):
            assert basis_check(m, list(candidates)).status == "fail", candidates


def test_basis_check_free_module_generators():
    for truss in (truss_TZn(2), integer_truss()):
        fm = free_module(truss, 3)
        g0, g1, g2 = fm.generators()
        full = basis_check(fm, [g2, g0, g1])
        assert full.status == "pass" and full.stats["det"] == 1 and not full.findings
        # a sub-family is free but not spanning: a functional on the integer
        # coordinates vanishes on its span and not at a frame point y
        sub = basis_check(fm, [g0, g2])
        assert free_set_check(fm, [g0, g2]).ok and sub.status == "fail"
        [witness] = sub.findings
        y, _, d = witness.at
        assert witness.law == "not spanning" and d == 0 and y in fm.heap.frame()
        assert witness.lhs != 0 == witness.rhs
        # the endomorphism fixing g0 and g2 and sending g1 to g0 fixes their
        # span and moves g1, which is outside it
        phi = fm.universal_lift(fm, [g0, g0, g2])
        assert (phi(g0), phi(g2), phi(g1)) == (g0, g2, g0)
        x = fm.heap.ternary(g0, fm.act(fm.basepoint, g2), g2)
        assert phi(x) == x   # the span of the sub-family is fixed


def test_free_set_generator_families():
    fm = free_module(truss_TZn(3), 3)
    g0, g1, g2 = fm.generators()
    for family in ([g1], [g0, g2], [g2, g1, g0]):
        assert free_set_check(fm, family).status == "pass"
    repeated = free_set_check(fm, [g1, g1])
    assert repeated.status == "fail"
    assert [f.law for f in repeated.findings] == ["copaired map collision"]
    # g0 + g1 and g2 are free; with g1 they are not, since 0.(g0 + g1) =
    # 0.g1 and so the first tail of the source moves nothing
    other = fm.heap.ternary(g0, fm.heap.zero(), g1)
    assert free_set_check(fm, [other, g2]).status == "pass"
    assert basis_check(fm, [g0, g1, g1]).status == "fail"
    assert basis_check(fm, [other, g1, g2]).status == "fail"
    assert fm.act(0, other) == fm.act(0, g1)


def test_exact_verdicts_on_the_free_module_of_rank_two_over_TZ():
    fm = free_module(integer_truss(), 2)
    g0, g1 = fm.generators()
    # t |-> 2t is injective on Z, so 2.g0 is free; no window decides that
    assert free_set_check(fm, [fm.act(2, g0)]).ok
    alone = basis_check(fm, [g0])
    [witness] = alone.findings
    assert alone.status == "fail" and witness.law == "not spanning" and len(witness.at) == 3
    assert basis_check(fm, [g0, g1]).ok and basis_check(fm, [g1, g0]).ok
    # 2.g0 and g1 span an index-2 sub-heap: a functional mod 2 sees it
    doubled = basis_check(fm, [fm.act(2, g0), g1])
    assert doubled.stats["det"] == 2 and doubled.findings[0].at[2] == 2


def test_freeness_of_TN_positive():
    for ring in (Z2, Z3, FiniteRing.Zn(4)):
        assert freeness_of_TN(RModule.regular(ring)).ok


def test_freeness_of_TN_negative_with_witness():
    for ring in (Z2, Z3):
        report = freeness_of_TN(RModule.power(ring, 2))
        assert report.status == "fail"
        assert any("distinct absorbers" in f.law for f in report.findings)
        assert report.stats["absorbers_of_TN"] == [
            FiniteTModule.from_rmodule(RModule.power(ring, 2)).names[0]]


def test_verify_abs_of_free():
    assert verify_abs_of_free(Z2, 1).ok
    assert verify_abs_of_free(Z2, 2).ok
    assert verify_abs_of_free(Z3, 2).ok
    assert verify_abs_of_free(Z2, 3).ok


def _frame_replays(fm, power, project):
    """Each finding law of verify_abs_of_free recomputed at its location."""
    zero_comps = (0,) * fm.n
    return {
        "absorber not fixed by the action": lambda a, x: fm.act(a, x) != x,
        "0.m outside the tail sub-heap": lambda x: fm.act(0, x).components != zero_comps,
        "tails do not combine like integers": lambda x, y, z: fm.heap.ternary(x, y, z) != (
            CoproductElement(zero_comps, tuple(p - q + r for p, q, r in
                                               zip(x.tails, y.tails, z.tails)))),
        "projection is not a heap morphism": lambda x, y, z: project(fm.heap.ternary(x, y, z))
        != power.plus(power.plus(project(x), power.neg(project(y))), project(z)),
        "projection does not respect the action": lambda a, x:
        project(fm.act(a, x)) != power.act(a, project(x)),
    }


def _assert_fails_and_replays(fm):
    report = verify_abs_of_free(Z3, fm.n)
    assert report.status == "fail" and report.findings
    replay = _frame_replays(fm, *abs_quotient(fm))
    for finding in report.findings:
        assert replay[finding.law](*finding.at), finding


def _moved(y):
    """y with its first component moved off by one in Z3."""
    return CoproductElement(((y.components[0] + 1) % 3,) + y.components[1:], y.tails)


@pytest.mark.parametrize("t0", range(3))
def test_verify_abs_of_free_catches_an_action_wrong_at_one_frame_point(monkeypatch, t0):
    fm = free_module(truss_from_ring(Z3), 2)
    act = FreeTModule.act
    for x0 in fm.heap.frame():
        def wrong(self, t, x, x0=x0):
            y = act(self, t, x)
            return _moved(y) if (t, x) == (t0, x0) else y

        monkeypatch.setattr(FreeTModule, "act", wrong)
        _assert_fails_and_replays(fm)


def test_verify_abs_of_free_catches_a_heap_operation_wrong_at_one_frame_triple(monkeypatch):
    fm = free_module(truss_from_ring(Z3), 2)
    ternary, frame = DirectSum.ternary, fm.heap.frame()
    for a, c in itertools.product(frame, repeat=2):
        def wrong(self, x, y, z, at=(a, frame[0], c)):
            w = ternary(self, x, y, z)
            return _moved(w) if (x, y, z) == at else w

        monkeypatch.setattr(DirectSum, "ternary", wrong)
        _assert_fails_and_replays(fm)


def test_verify_abs_of_free_catches_generators_that_are_not_the_unit_vectors(monkeypatch):
    generators = FreeTModule.generators
    monkeypatch.setattr(FreeTModule, "generators", lambda self: generators(self)[::-1])
    report = verify_abs_of_free(Z3, 2)
    assert report.status == "fail"
    # g_0 lands on (0, 1) = 1 and g_1 on (1, 0) = 3 in the ids of Z3^2
    assert [(f.law, f.at, f.lhs, f.rhs) for f in report.findings] == [
        ("generator images are not a basis of R^n", (0,), 1, 3),
        ("generator images are not a basis of R^n", (1,), 3, 1)]


def test_abs_quotient_of_a_free_module_needs_a_finite_ring():
    with pytest.raises(StructureError, match="finite ring"):
        abs_quotient(free_module(integer_truss(), 2))


_RMODULE_REPLAY = {
    "module associativity r(sx) = (rs)x": lambda m, r, s, x:
    m.act(r, m.act(s, x)) != m.act(m.ring.mul(r, s), x),
    "module law (r+s)x = rx+sx": lambda m, r, s, x:
    m.act(m.ring.plus(r, s), x) != m.plus(m.act(r, x), m.act(s, x)),
    "module law r(x+y) = rx+ry": lambda m, r, x, y:
    m.act(r, m.plus(x, y)) != m.plus(m.act(r, x), m.act(r, y)),
    "unitality 1x = x": lambda m, x: m.act(m.ring.one, x) != x,
}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_one_entry_change_of_the_regular_action_fails_with_replayable_findings(n):
    # r.x = x + ... + x (r times) is forced by unitality and (r+s)x = rx+sx,
    # so every other action of Z_n on its own group breaks a law
    ring = FiniteRing.Zn(n)
    regular = RModule.regular(ring)
    assert validate_rmodule(regular).ok
    for r, x in itertools.product(range(n), repeat=2):
        for v in range(n):
            if v == regular.act(r, x):
                continue
            action = [list(row) for row in regular.action]
            action[r][x] = v
            m = RModule(ring, ring.add, action, validate=False)
            report = validate_rmodule(m)
            assert report.status == "fail" and report.findings, (r, x, v)
            for finding in report.findings:
                assert _RMODULE_REPLAY[finding.law](m, *finding.at), finding
            with pytest.raises(StructureError) as caught:
                RModule(ring, ring.add, action)
            assert str(caught.value) == f"not an R-module: {report.findings[0]}"


# ---------------------------------------------------------------------------
# linearity from morphism rows, replayable witnesses


def module_law_sweep(m):
    """Every finding of a finite module in the order of the plain
    O(|T||M|^3 + |T|^3|M|) sweep: the brute-force loop the morphism rows
    must agree with."""
    t = m.truss
    ts, ms = range(t.size), range(m.size)
    findings = []
    for a, b in itertools.product(ts, repeat=2):
        for x in ms:
            if m.act(a, m.act(b, x)) != m.act(t.mul(a, b), x):
                findings.append(Finding("action associativity t(t'm) = (tt')m", (a, b, x),
                                        m.act(a, m.act(b, x)), m.act(t.mul(a, b), x)))
    for a, b, c in itertools.product(ts, repeat=3):
        for x in ms:
            lhs = m.act(t.heap.ternary(a, b, c), x)
            rhs = m.heap.ternary(m.act(a, x), m.act(b, x), m.act(c, x))
            if lhs != rhs:
                findings.append(Finding("distributivity [t,t',t'']m", (a, b, c, x), lhs, rhs))
    for a in ts:
        for x, y, z in itertools.product(ms, repeat=3):
            lhs = m.act(a, m.heap.ternary(x, y, z))
            rhs = m.heap.ternary(m.act(a, x), m.act(a, y), m.act(a, z))
            if lhs != rhs:
                findings.append(Finding("distributivity t[m,m',m'']", (a, x, y, z), lhs, rhs))
    if t.identity is not None:
        for x in ms:
            if m.act(t.identity, x) != x:
                findings.append(Finding("unitality 1m = m", (x,), str(m.act(t.identity, x)),
                                        str(x)))
                break
    return findings


def not_a_heap():
    """[a,b,c] = a + b + c + ac (mod 3): symmetric in a and c, not a heap."""
    return FiniteHeap.from_function(3, lambda a, b, c: (a + b + c + a * c) % 3, abelian=True)


def test_morphism_rows_match_the_module_law_sweep():
    runs = fails = 0
    for n in range(1, 7):
        tz = truss_TZn(n)
        tables = [tz.mul_table]
        for a, b, v in itertools.product(range(n), repeat=3):
            if v != tz.mul(a, b):
                tables.append([list(row) for row in tz.mul_table])
                tables[-1][a][b] = v
        for table in tables:
            m = FiniteTModule(tz, tz.heap, table)
            report = validate_module(m)
            want = module_law_sweep(m)
            assert report.findings == want, (n, table)
            assert report.status == ("fail" if want else "pass")
            assert report.stats["checked"] == n ** 3 + 2 * n ** 4
            assert report.stats["distributivity"]["algorithm"] == "morphism rows"
            runs, fails = runs + 1, fails + bool(want)
    # 6 actions and 350 one-entry changes; only the trivial action of TZ2
    # on itself (0.1 = 1) is again a module
    assert (runs, fails) == (356, 349)


def test_a_module_over_a_carrier_that_is_not_a_heap_is_swept():
    tz3 = truss_TZn(3)
    odd = FiniteTruss(not_a_heap(), ((0, 0, 0), (0, 0, 0), (0, 0, 2)))
    for m in (FiniteTModule(tz3, not_a_heap(), tz3.mul_table),   # M is not a heap
              FiniteTModule(odd, tz3.heap, ((0, 0, 0),) * 3),    # T is not a heap
              FiniteTModule.regular(odd)):
        report = validate_module(m)
        assert report.findings == module_law_sweep(m)
        assert report.stats["distributivity"] == {
            "algorithm": "sweep",
            "swept": [("distributivity [t,t',t'']m", x) for x in range(3)]
            + [("distributivity t[m,m',m'']", a) for a in range(3)]}
    assert not validate_module(FiniteTModule(tz3, not_a_heap(), tz3.mul_table)).ok


def test_module_distributivity_stats_name_the_algorithm():
    tz4 = truss_TZn(4)
    assert validate_module(FiniteTModule.regular(tz4)).stats["distributivity"] == \
        {"algorithm": "morphism rows", "swept": []}
    table = [list(row) for row in tz4.mul_table]
    table[1][2] = 3
    report = validate_module(FiniteTModule(tz4, tz4.heap, table))
    assert report.stats["distributivity"] == {
        "algorithm": "morphism rows",
        "swept": [("distributivity [t,t',t'']m", 2), ("distributivity t[m,m',m'']", 1)]}
    assert report.to_obj()["stats"]["distributivity"]["swept"] == \
        [["distributivity [t,t',t'']m", 2], ["distributivity t[m,m',m'']", 1]]
    free = validate_module(free_module(truss_TZn(2), 2))
    assert free.stats["distributivity"] == {"algorithm": "morphism rows", "swept": []}
    with pytest.raises(StructureError, match=NO_FRAME):
        validate_module(OddPositiveC0Wrong(truss_TZn(2), 2))


def test_validating_a_function_backed_module_builds_no_table():
    m = FiniteTModule.from_rmodule(RModule.regular(Z3))
    assert validate_module(m).ok
    assert m.heap._table is None and m.truss.heap._table is None


def violated(m, f):
    """Whether a module finding (or a finding of its truss's product laws)
    is a genuine violation: its law fails at its witness."""
    t = m.truss
    return {
        "action associativity t(t'm) = (tt')m":
            lambda a, b, x: m.act(a, m.act(b, x)) != m.act(t.mul(a, b), x),
        "distributivity [t,t',t'']m":
            lambda a, b, c, x: m.act(t.heap.ternary(a, b, c), x)
            != m.heap.ternary(m.act(a, x), m.act(b, x), m.act(c, x)),
        "distributivity t[m,m',m'']":
            lambda a, x, y, z: m.act(a, m.heap.ternary(x, y, z))
            != m.heap.ternary(m.act(a, x), m.act(a, y), m.act(a, z)),
        "unitality 1m = m": lambda x: m.act(t.identity, x) != x,
        "product associativity":
            lambda a, b, c: t.mul(t.mul(a, b), c) != t.mul(a, t.mul(b, c)),
        "left distributivity over [,,]":
            lambda s, a, b, c: t.mul(s, t.heap.ternary(a, b, c))
            != t.heap.ternary(t.mul(s, a), t.mul(s, b), t.mul(s, c)),
        "right distributivity over [,,]":
            lambda s, a, b, c: t.mul(t.heap.ternary(a, b, c), s)
            != t.heap.ternary(t.mul(a, s), t.mul(b, s), t.mul(c, s)),
    }[f.law](*f.at)


def test_sampled_module_findings_replay_from_their_witnesses():
    fm = OddPositiveC0Wrong(integer_truss(), 2)
    findings = sampled_module(fm, 200, 50)
    assert len(findings) > 10
    for f in findings:
        assert violated(fm, f), f
    assert {f.law for f in findings} == {
        "action associativity t(t'm) = (tt')m", "distributivity t[m,m',m'']",
        "unitality 1m = m"}


def perturbed_tz3(a, b, v):
    table = [list(row) for row in truss_TZn(3).mul_table]
    table[a][b] = v
    return FiniteTruss(truss_TZn(3).heap, table)


def test_free_module_frame_verdicts_match_sampled_runs():
    """Free modules of rank 1-3 at two basepoints: the frame's verdict is
    that of the seeded sampled oracle, and every finding of the frame
    replays; with the frame switched off the validator refuses.  Over a
    truss that is no truss (TZ3 with 2.2 changed; 1 stays the identity) the
    truss decides, at its own laws."""
    trusses = {"TZ": integer_truss(), "TZ2": truss_TZn(2), "TZ5": truss_TZn(5),
               "TC2": tc2_brace_truss(), "TZ3 2.2=0": perturbed_tz3(2, 2, 0),
               "TZ3 2.2=2": perturbed_tz3(2, 2, 2)}
    verdicts = set()
    for name, truss in trusses.items():
        for n, basepoint in itertools.product((1, 2, 3), (0, 1)):
            fm = free_module(truss, n, basepoint)
            framed = validate_module(fm)
            assert framed.stats["frame"] == len(fm.heap.frame()) == 1 + n * 1 + n - 1, name
            assert all(violated(fm, f) for f in framed.findings), (name, n, basepoint)
            sampled = "fail" if sampled_module(fm, 200, 2, seed=11) else "pass"
            assert framed.status == sampled, (name, n, basepoint)
            fm.heap.frame = lambda: None    # the carrier withholds its frame
            with pytest.raises(StructureError, match=NO_FRAME):
                validate_module(fm)
            verdicts.add((framed.status, framed.stats["truss"]))
    assert verdicts == {("pass", "pass"), ("fail", "fail")}


def test_no_package_carrier_is_sampled(monkeypatch):
    def refuse(self, window):
        raise AssertionError(f"{self!r} was sampled")

    for cls in (IntegerTruss, ConstantTruss, FiniteTruss, ExtensionTruss):
        monkeypatch.setattr(cls, "sample_elements", refuse)
    for cls in (FiniteHeap, IntLineHeap, DirectSum):
        monkeypatch.setattr(cls, "sample", refuse)
    for t in (integer_truss(), constant_truss(3), unital_extension(truss_TZn(4)),
              ring_extension(tc2_brace_truss()), double_extension(constant_truss(2)),
              unital_extension(unital_extension(integer_truss()))):
        report = validate_truss(t)
        assert report.ok and report.stats["checked"]
        assert report.stats["frame"] == len(t.heap.frame())
    for m in (TrivialIntModule(), free_module(integer_truss(), 3, 1),
              free_module(unital_extension(truss_TZn(3)), 2)):
        report = validate_module(m)
        assert report.ok and report.stats["checked"]
        assert report.stats["frame"] == len(m.heap.frame())
    assert verify_abs_of_free(Z3, 2).ok


def package_structures():
    bases = {"TZ": integer_truss(), "Zc3": constant_truss(3), "TZ3": truss_TZn(3),
             "TC2": tc2_brace_truss()}
    for name, t in bases.items():
        yield name, t
        for kind, make in (("T1", unital_extension), ("T0", ring_extension),
                           ("T01", double_extension)):
            yield f"{kind}({name})", make(t)
    yield "regular TZ3", FiniteTModule.regular(truss_TZn(3))
    yield "T(Z2^2)", FiniteTModule.from_rmodule(RModule.power(Z2, 2))
    yield "Z with t.m = m", TrivialIntModule()
    for name in ("TZ", "TZ3", "TC2"):
        for basepoint in (None, 1):
            yield f"F(2) over {name} at {basepoint}", free_module(bases[name], 2, basepoint)
    yield "F(2) over T1(TZ3)", free_module(unital_extension(truss_TZn(3)), 2)


STRUCTURES = list(package_structures())


@pytest.mark.parametrize("name, s", STRUCTURES, ids=[name for name, _ in STRUCTURES])
def test_every_structure_holds_its_carrier_as_heap(name, s):
    assert isinstance(s.heap, (FiniteHeap, IntLineHeap, DirectSum))
    points = list(s.heap.frame())
    assert points and all(s.heap.contains(x) for x in points)


def test_no_structure_class_forwards_the_heap_protocol():
    for cls in (FiniteTruss, IntegerTruss, ConstantTruss, ExtensionTruss,
                FiniteTModule, TrivialIntModule, FreeTModule):
        assert not {"ternary", "contains", "carrier_heap", "elements", "__len__",
                    "is_finite", "frame"} & set(vars(cls)), cls


@pytest.mark.parametrize("make", [
    lambda: Frameless(truss_TZn(3), "one"),
    lambda: ListPool(integer_truss(), "zero"),
    lambda: OddPositiveC0Wrong(integer_truss(), 2),
], ids=["Frameless", "ListPool", "OddPositiveC0Wrong"])
def test_carriers_without_a_frame_raise(make):
    s = make()
    validate = validate_module if isinstance(s, FreeTModule) else validate_truss
    with pytest.raises(StructureError, match=NO_FRAME):
        validate(s, samples=20, window=2)


def test_verify_abs_of_free_acts_by_zero_and_one_on_the_whole_frame(monkeypatch):
    seen, recording = [], [True]
    act, quotient = FreeTModule.act, modules.abs_quotient

    def spy(self, t, x):
        if recording[0]:
            seen.append((t, x))
        return act(self, t, x)

    def quiet_quotient(m):
        # the quotient acts on every component vector itself; leave it out
        recording[0] = False
        try:
            return quotient(m)
        finally:
            recording[0] = True

    monkeypatch.setattr(FreeTModule, "act", spy)
    monkeypatch.setattr(modules, "abs_quotient", quiet_quotient)
    assert verify_abs_of_free(Z3, 3).ok
    # "0.m is a tail" and the projection are both decided on the free module's frame
    frame = free_module(truss_from_ring(Z3), 3).heap.frame()
    assert len(frame) == 6
    assert {x for t, x in seen if t == Z3.zero} >= set(frame)
    assert {x for t, x in seen if t == Z3.one} >= set(frame)


def test_verify_abs_of_free_draws_tail_triples_from_the_whole_pool(monkeypatch):
    triples = set()
    ternary = DirectSum.ternary

    def spy(self, x, y, z):
        if not any(c for w in (x, y, z) for c in w.components):
            triples.add((x.tails, y.tails, z.tails))
        return ternary(self, x, y, z)

    monkeypatch.setattr(DirectSum, "ternary", spy)
    assert verify_abs_of_free(Z3, 3).ok
    # the tail heap is checked on every triple from its frame: zero and each tail unit
    assert triples >= set(itertools.product([(0, 0), (1, 0), (0, 1)], repeat=3))


def read_tz16():
    """TZ16 on a heap given as a bare function, which only a scan can frame
    (a heap read with ``from_table`` is validated as it is read, and so
    framed with no scan)."""
    tz16 = truss_TZn(16)
    table = tz16.heap.table()
    heap = FiniteHeap.from_function(16, lambda a, b, c: table[a][b][c], abelian=True)
    return FiniteTruss(heap, tz16.mul_table)


def test_a_finite_base_is_scanned_once_for_its_frame(monkeypatch):
    """The first frame of a heap given as a bare function costs one
    ``_retract_defects`` scan; it is kept, and the law engine asks the heap,
    not a second scan.  (The adjoined singleton is a finite heap too,
    scanned once.)"""
    calls = []
    scan = core._retract_defects

    def counted(carrier, e):
        calls.append(carrier)
        return scan(carrier, e)

    t, base = unital_extension(read_tz16()), read_tz16()
    monkeypatch.setattr(core, "_retract_defects", counted)
    assert validate_truss(t).ok and [c.size for c in calls] == [16, 1]
    assert calls[0] is t.base.heap
    calls.clear()
    assert validate_truss(t).ok and calls == []
    fm = free_module(base, 2)
    assert validate_module(fm).ok and len(calls) == 1 and calls[0] is fm.truss.heap
    calls.clear()
    assert validate_module(fm).ok and calls == []


def test_group_heaps_by_construction_are_framed_with_no_scan(monkeypatch):
    """The heap of a group and a product of framed heaps are heaps by
    construction: their frames come from the group's generators and the
    factors' frames, so a cold validation scans nothing."""
    calls = []
    scan = core._retract_defects
    monkeypatch.setattr(core, "_retract_defects", lambda c, e: calls.append(c) or scan(c, e))
    assert validate_truss(truss_TZn(32)).ok and calls == []
    assert validate_module(FiniteTModule.regular(truss_TZn(32))).ok and calls == []
    assert validate_module(free_module(truss_TZn(16), 2)).ok and calls == []
    c4, c2 = heap_from_group(FiniteGroup.cyclic(4)), heap_from_group(FiniteGroup.cyclic(2))
    assert core.product(c4, c2).frame() == (0, 2, 1) and calls == []
    # a factor read from a table was validated as it was read, so it is
    # framed with no second scan; a bare function-backed factor is scanned,
    # once, and the product is not
    read = FiniteHeap.from_table(c2.table())
    calls.clear()           # reading the table scans it once, to validate it
    assert core.product(c4, read).frame() == (0, 2, 1) and calls == []
    bare = FiniteHeap.from_function(2, c2.ternary, abelian=True)
    assert core.product(c4, bare).frame() == (0, 2, 1) and calls == [bare]
    assert core.product(c4, FiniteHeap.empty()).frame() is None


def test_a_free_set_over_a_finite_truss_asks_no_frame(monkeypatch):
    """Every move of a finite summand is torsion, so a fresh free-set or
    basis check over a finite truss scans nothing: p sits at the basepoints
    and only the tails move.  A truss carrier that is no heap is no error."""
    calls = []
    scan = core._retract_defects
    monkeypatch.setattr(core, "_retract_defects", lambda c, e: calls.append(c) or scan(c, e))
    report = basis_check(FiniteTModule.regular(truss_TZn(16)), [1])
    assert report.ok and report.stats["torsion"] == 16
    odd = FiniteTModule.regular(FiniteTruss(not_a_heap(), ((0, 0, 0), (0, 0, 0), (0, 0, 2))))
    report = free_set_check(odd, [1, 2])
    p = CoproductElement((0, 0), (0,))
    assert report.findings[0].at == (p, CoproductElement((0, 0), (1,)))
    assert report.stats["linear_part"] == {"shape": [0, 1], "rank": 0}
    assert calls == []
