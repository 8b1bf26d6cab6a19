"""Heap/group kernel: axioms, retracts, sub-heaps, quotients, isomorphism."""

import itertools
import random

import pytest

from trusskit import core
from trusskit.coproduct import HeapSummand
from trusskit.core import (
    INT_LINE,
    FiniteGroup,
    FiniteHeap,
    FiniteTModule,
    FiniteTruss,
    HeapMorphism,
    IntLineHeap,
    StructureError,
    SubHeap,
    _closure,
    _first_unpreserved,
    find_isomorphism,
    generated_subheap,
    group_isomorphism,
    heap_from_group,
    is_normal,
    product,
    quotient,
    retract,
    small_groups,
    translation_iso,
    validate_heap,
    validate_group_table,
)
from trusskit.reports import Finding
from trusskit.rings import FiniteRing, RModule
from trusskit.trusses import truss_TZn

Z = FiniteGroup.cyclic


def mod_heap_table(n):
    # independent oracle: [a,b,c] = a - b + c mod n, written out directly
    return [[[(a - b + c) % n for c in range(n)] for b in range(n)] for a in range(n)]


# ---------------------------------------------------------------------------
# groups


def test_group_catalog_is_valid():
    for label, g in small_groups(8):
        report = validate_group_table(g.op_table())
        assert report.ok, (label, report)


def test_small_groups_pairwise_nonisomorphic():
    groups = small_groups(8)
    for (la, ga), (lb, gb) in itertools.combinations(groups, 2):
        if ga.size != gb.size:
            continue
        assert group_isomorphism(ga, gb) is None, (la, lb)


def test_group_isomorphism_c6_vs_c2xc3():
    g1 = Z(6)
    g2 = FiniteGroup.product(Z(2), Z(3))
    mapping = group_isomorphism(g1, g2)
    assert mapping is not None
    assert sorted(mapping) == list(range(6))
    for a in range(6):
        for b in range(6):
            assert mapping[g1.op(a, b)] == g2.op(mapping[a], mapping[b])


def test_bad_group_table_reported():
    report = validate_group_table([[0, 1], [1, 1]])
    assert not report.ok
    assert any("inverse" in f.law or "associativity" in f.law or "identity" in f.law
               for f in report.findings)


def test_the_empty_table_is_no_group():
    report = validate_group_table([])
    assert [f.law for f in report.findings] == ["two-sided identity"]
    with pytest.raises(StructureError, match="no identity"):
        FiniteGroup.cyclic(0)


def test_group_table_structural_error():
    with pytest.raises(StructureError):
        validate_group_table([[0, 1], [1]])
    with pytest.raises(StructureError):
        validate_group_table([[0, 5], [1, 0]])


# ---------------------------------------------------------------------------
# heap validation


def test_mod3_table_is_valid_abelian_heap():
    report = validate_heap(mod_heap_table(3), abelian=True)
    assert report.ok
    h = FiniteHeap.from_table(mod_heap_table(3))
    assert h.abelian


def test_malcev_violation_located():
    table = mod_heap_table(2)
    table = [[[v for v in lvl] for lvl in pl] for pl in table]
    table[0][0][0] = 1
    report = validate_heap(table)
    assert not report.ok
    # [b,b,a] = a forces [0,0,0] = 0, so the violation sits at (0,0)
    assert any(f.law.startswith("Mal'cev") and tuple(f.at) == (0, 0) for f in report.findings)


def test_non_total_table_is_structural_not_axiom():
    with pytest.raises(StructureError):
        validate_heap([[[0, 1], [1, 0]], [[1, 0]]])
    with pytest.raises(StructureError):
        validate_heap([[[0, 2], [1, 0]], [[1, 0], [0, 1]]])


def test_all_two_element_ternary_tables():
    # Exhaustive oracle over all 2^8 tables: exactly one passes, and it is
    # the table of the heap of the two-element group.
    valid = []
    for bits in itertools.product((0, 1), repeat=8):
        it = iter(bits)
        table = [[[next(it) for _ in range(2)] for _ in range(2)] for _ in range(2)]
        if validate_heap(table).ok:
            valid.append(tuple(tuple(tuple(l) for l in p) for p in table))
    assert len(valid) == 1
    assert valid[0] == heap_from_group(Z(2)).table()


def test_retract_test_uses_the_retract_inverse():
    # [a,b,c] = a + c (mod 2) is a.j(b).c for j(b) = [0,b,0], but not a heap,
    # so it has no frame
    table = [[[(a + c) % 2 for c in range(2)] for _ in range(2)] for a in range(2)]
    assert FiniteHeap(2, table=table).frame() is None
    assert FiniteHeap.from_table(mod_heap_table(2)).frame() == (0, 1)
    # only a non-empty group heap has one
    assert FiniteHeap.empty().frame() is None and FiniteHeap.singleton().frame() == (0,)


@pytest.mark.parametrize("label, g", small_groups(8), ids=[label for label, _ in small_groups(8)])
def test_heap_frame_is_zero_and_greedy_generators_of_the_retract(label, g):
    h = heap_from_group(g)
    frame = h.frame()
    assert frame[0] == 0 and isinstance(frame, tuple)
    # each generator is the least id outside the sub-heap the earlier ones generate
    for i, x in enumerate(frame[1:], 1):
        closed = _closure(frame[:i], h.ternary)
        assert x not in closed and all(y in closed for y in range(x))
    assert sorted(_closure(frame, h.ternary)) == list(range(g.size))
    # computed once: the same tuple on every call
    assert h.frame() is frame


def perturbed(table, cell, value):
    out = [[list(lvl) for lvl in pl] for pl in table]
    a, b, c = cell
    out[a][b][c] = value
    return out


def test_cyclic_heaps_pass_exactly_at_every_size():
    for n in (17, 64):
        report = validate_heap(mod_heap_table(n), abelian=True)
        assert report.status == "pass", n
        assert FiniteHeap.from_table(mod_heap_table(n)).abelian


def test_perturbed_c17_fails_with_a_replayable_associativity_witness():
    table = perturbed(mod_heap_table(17), (0, 1, 2), 0)  # [0,1,2] is 1
    report = validate_heap(table)
    assert report.status == "fail"
    assoc = [f for f in report.findings if f.law == "heap associativity"]
    assert assoc and len(assoc) == len(report.findings)
    a, b, c, d, e = assoc[0].at
    assert assoc[0].lhs == table[table[a][b][c]][d][e] != table[a][b][table[c][d][e]]
    assert assoc[0].rhs == table[a][b][table[c][d][e]]
    with pytest.raises(StructureError, match="not a heap: heap associativity"):
        FiniteHeap.from_table(table)


def sweep_findings(rows, abelian):
    """Oracle: every heap-law violation found by brute force, in the order
    Mal'cev pairs, associativity quintuples, Abelian symmetry triples."""
    n = len(rows)
    out = []
    for a in range(n):
        for b in range(n):
            if rows[a][b][b] != a:
                out.append(Finding("Mal'cev [a,b,b] = a", (a, b), rows[a][b][b], a))
            if rows[b][b][a] != a:
                out.append(Finding("Mal'cev [b,b,a] = a", (b, a), rows[b][b][a], a))
    for a, b, c, d, e in itertools.product(range(n), repeat=5):
        lhs, rhs = rows[rows[a][b][c]][d][e], rows[a][b][rows[c][d][e]]
        if lhs != rhs:
            out.append(Finding("heap associativity", (a, b, c, d, e), lhs, rhs))
    if abelian:
        for a in range(n):
            for b in range(n):
                for c in range(a):
                    if rows[a][b][c] != rows[c][b][a]:
                        out.append(Finding("Abelian symmetry [a,b,c] = [c,b,a]",
                                           (a, b, c), rows[a][b][c], rows[c][b][a]))
    return [f.to_obj() for f in out]


def perturbed_at(table, rng, middles):
    """The table with one entry changed per middle index (None: any index)."""
    n = len(table)
    for mid in middles:
        a, b, c = rng.randrange(n), rng.randrange(n) if mid is None else mid, rng.randrange(n)
        old = table[a][b][c]
        table = perturbed(table, (a, b, c), rng.choice([v for v in range(n) if v != old]))
    return table


def differential_tables():
    for bits in itertools.product((0, 1), repeat=8):
        it = iter(bits)
        yield [[[next(it) for _ in range(2)] for _ in range(2)] for _ in range(2)]
    rng = random.Random(2026)
    for _ in range(200):
        yield [[[rng.randrange(3) for _ in range(3)] for _ in range(3)] for _ in range(3)]
    for label, g in small_groups(8):
        if g.size == 1:  # no other value to perturb to
            continue
        table = heap_from_group(g).table()
        rng = random.Random(label)
        for _ in range(3):
            cell = tuple(rng.randrange(g.size) for _ in range(3))
            old = table[cell[0]][cell[1]][cell[2]]
            yield perturbed(table, cell, rng.choice([v for v in range(g.size) if v != old]))
    # one and two entries off every C_n and D_k of order up to 16; an entry
    # (a, e, b) breaks the retract at e, so middle indices 0 and 1 send the
    # dirty-entry lister to basepoints 1 and 2
    groups = [(f"C{n}", Z(n)) for n in range(2, 17)]
    groups += [(f"D{k}", FiniteGroup.dihedral(k)) for k in range(2, 9)]
    for label, g in groups:
        table = heap_from_group(g).table()
        rng = random.Random(label)
        for middles in ((None,), (None, None), (0,), (0, 1)):
            yield perturbed_at(table, rng, middles)
    yield perturbed_at(heap_from_group(Z(20)).table(), random.Random("C20"), (None,))
    # no tried retract is a group: the sweep
    yield perturbed_at(mod_heap_table(5), random.Random("C5"), (0, 1, 2))


def test_findings_match_the_brute_force_sweep():
    for table in differential_tables():
        want = sweep_findings(table, True)
        for abelian in (False, True):
            got = [f.to_obj() for f in validate_heap(table, abelian).findings]
            assert got == [f for f in want if abelian or not f["law"].startswith("Abelian")], \
                (table, abelian)
        if want and not want[0]["law"].startswith("Abelian"):
            first = want[0]
            first = Finding(first["law"], tuple(first["at"]), first["lhs"], first["rhs"])
            with pytest.raises(StructureError) as raised:
                FiniteHeap.from_table(table)
            assert str(raised.value) == f"not a heap: {first}"
        else:
            FiniteHeap.from_table(table)


def test_heap_stats_name_the_algorithm():
    def assoc(table):
        return validate_heap(table).stats["associativity"]

    c5 = mod_heap_table(5)
    assert assoc(c5) == {"algorithm": "retract", "basepoint": 0, "dirty": 0, "candidates": 0}
    for e, bad in enumerate([perturbed(c5, (1, 2, 3), 0), perturbed(c5, (1, 0, 3), 0),
                             perturbed(perturbed(c5, (1, 0, 3), 0), (2, 1, 4), 1)]):
        stats = assoc(bad)
        assert (stats["algorithm"], stats["basepoint"]) == ("dirty entries", e)
        assert stats["dirty"] >= 1 and 0 < stats["candidates"] < 5 ** 5
    swept = perturbed(perturbed(perturbed(c5, (1, 0, 3), 0), (2, 1, 4), 1), (3, 2, 0), 2)
    assert assoc(swept) == {"algorithm": "sweep", "basepoint": None, "dirty": None,
                            "candidates": 5 ** 5}
    # the retract at 0 is a group, but its |D| = 2 gives 4 |D| n^2 = n^5
    gated = perturbed(perturbed(mod_heap_table(2), (0, 1, 0), 0), (1, 1, 1), 0)
    assert assoc(gated)["algorithm"] == "sweep"


# ---------------------------------------------------------------------------
# heap <-> group bridge


def test_heap_from_group_c2_is_xor():
    h = heap_from_group(Z(2))
    for x, y, z in itertools.product(range(2), repeat=3):
        assert h.ternary(x, y, z) == x ^ y ^ z


def test_heap_from_group_z4_example():
    assert heap_from_group(Z(4)).ternary(1, 3, 2) == 0


def test_round_trip_all_small_groups_all_basepoints():
    for label, g in small_groups(8):
        h = heap_from_group(g)
        base = h.table()
        for e in range(h.size):
            again = heap_from_group(retract(h, e))
            assert again.table() == base, (label, e)


def test_a_group_shares_its_heap_and_a_retract_the_heap_it_is_handed():
    for label, g in small_groups(8):
        assert heap_from_group(g) is g.heap, label
        for h in (g.heap, FiniteHeap.from_table(g.heap.table())):
            for e in h.elements():
                r = retract(h, e)
                assert r.heap is h and r.neutral == e, (label, e)


def test_retract_at_neutral_recovers_group():
    g = Z(4)
    r = retract(heap_from_group(g), 0)
    assert r.op_table() == g.op_table()
    assert r.neutral == 0


def test_retract_shifted_basepoint():
    r = retract(heap_from_group(Z(4)), 1)
    assert r.neutral == 1
    assert group_isomorphism(r, Z(4)) is not None


def test_retract_inverse_example_z5():
    r = retract(heap_from_group(Z(5)), 1)
    assert r.inv(2) == 0  # [1,2,1] = 1 - 2 + 1 mod 5


def test_retract_rejects_foreign_basepoint():
    with pytest.raises(StructureError):
        retract(heap_from_group(Z(3)), 7)


def test_heap_validation_of_all_group_heaps():
    for label, g in small_groups(8):
        report = validate_heap(heap_from_group(g).table(), abelian=g.abelian)
        assert report.ok, label


def entrywise_equal(x, y):
    """The oracle for heap equality: every entry of the ternary operation."""
    ids = range(x.size)
    return all(x.ternary(a, b, c) == y.ternary(a, b, c) for a in ids for b in ids for c in ids)


def relabelled(h, perm):
    """h carried along the bijection perm, function-backed, frame scanned."""
    inv = {v: i for i, v in enumerate(perm)}
    return FiniteHeap.from_function(
        h.size, lambda a, b, c: perm[h.ternary(inv[a], inv[b], inv[c])])


def test_heap_equality_on_frames_matches_the_entrywise_comparison():
    # every group heap of order <= 8 as a function, as a table, translated
    # (an automorphism of the heap, so an equal heap with another frame) and
    # shuffled; and, at each order, tables that are no heap, which have no
    # frame and take the entry-by-entry path
    rng, by_size, functions = random.Random(89), {}, []
    for label, g in small_groups(8):
        h, n = heap_from_group(g), g.size
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        functions += [h, relabelled(h, [h.ternary(n - 1, 0, x) for x in range(n)]),
                      relabelled(h, shuffled)]
        # entry by entry: h is g's own heap, and its table() would be kept on it
        table = FiniteHeap.from_table(
            [[[h.ternary(a, b, c) for c in range(n)] for b in range(n)] for a in range(n)])
        by_size.setdefault(n, []).extend(functions[-3:] + [table])
    for n, heaps in by_size.items():
        non_heaps = [FiniteHeap.from_function(n, lambda a, b, c, n=n: (a + c) % n)]
        non_heaps += [FiniteHeap.from_function(n, lambda a, b, c, n=n: (a + b + c + a * c) % n)
                      for _ in range(2)]
        assert n == 1 or all(h.frame() is None for h in non_heaps)
        heaps += non_heaps
    pairs = framed = equal = 0
    for heaps in by_size.values():
        for x, y in itertools.product(heaps, repeat=2):
            assert (x == y) == entrywise_equal(x, y), (x, y)
            pairs += 1
            if x.frame() is not None and y.frame() is not None and None in (x._table, y._table):
                framed, equal = framed + 1, equal + (x == y)
    assert 0 < equal < framed < pairs
    assert all(h._table is None for h in functions)     # no comparison built a table


def test_a_heap_read_from_a_table_is_framed_with_no_second_scan(monkeypatch):
    # from_table validates its table exactly, so a table that passes is a
    # group heap: its first frame() is walked with no _retract_defects scan,
    # and equals the frame that scan gives; every group heap of order <= 8,
    # as the table of the group and relabelled (a translation moves 0, a
    # shuffle moves everything)
    rng, tables = random.Random(47), []
    for label, g in small_groups(8):
        h, n = heap_from_group(g), g.size
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        for source in (h, relabelled(h, [h.ternary(n - 1, 0, x) for x in range(n)]),
                       relabelled(h, shuffled)):
            tables.append((label, source.table()))
    calls, scan = [], core._retract_defects
    monkeypatch.setattr(core, "_retract_defects", lambda c, e: calls.append(c) or scan(c, e))
    for label, table in tables:
        read = FiniteHeap.from_table(table)
        calls.clear()           # reading the table scans it once, to validate it
        frame = read.frame()
        assert calls == [], label
        scanned = FiniteHeap(len(table), table=table)       # frame=None: scan
        assert frame == scanned.frame() and calls == [scanned], label
        assert read.frame() is frame
    assert FiniteHeap.from_table([]).frame() is None


# ---------------------------------------------------------------------------
# translations


def test_translation_identity():
    h = heap_from_group(Z(5))
    tau = translation_iso(h, 2, 2)
    assert tau.mapping == tuple(range(5))


def test_translation_on_z3_is_shift():
    h = heap_from_group(Z(3))
    tau = translation_iso(h, 0, 1)
    assert tau.mapping == tuple((a + 1) % 3 for a in range(3))


def test_translations_mutually_inverse_z6():
    h = heap_from_group(Z(6))
    for e in range(6):
        for f in range(6):
            fwd = translation_iso(h, e, f)
            back = translation_iso(h, f, e)
            assert back.compose(fwd).mapping == tuple(range(6))
            assert fwd.is_bijective()


def test_translation_is_group_isomorphism_of_retracts():
    h = heap_from_group(FiniteGroup.dihedral(3))
    for e, f in itertools.product(range(6), repeat=2):
        tau = translation_iso(h, e, f)
        ge, gf = retract(h, e), retract(h, f)
        for a, b in itertools.product(range(6), repeat=2):
            assert tau(ge.op(a, b)) == gf.op(tau(a), tau(b))


# ---------------------------------------------------------------------------
# sub-heaps, normality, quotients


def test_generated_singleton():
    h = heap_from_group(Z(5))
    assert generated_subheap(h, [3]).members == (3,)


def test_generated_subheap_z6():
    h = heap_from_group(Z(6))
    assert generated_subheap(h, [0, 2]).members == (0, 2, 4)


def test_generated_full_carrier():
    h = heap_from_group(Z(4))
    assert generated_subheap(h, range(4)).members == (0, 1, 2, 3)


def test_generated_matches_odd_fold_closure_in_abelian_case():
    # all odd-length fold values of sequences from the generating set
    h = heap_from_group(Z(8))
    gens = [1, 3]
    folds = set(gens)
    for _ in range(4):
        folds |= {h.ternary(a, b, c) for a in folds for b in folds for c in folds}
    assert set(generated_subheap(h, gens).members) == folds


def test_generated_rejects_empty():
    with pytest.raises(StructureError):
        generated_subheap(heap_from_group(Z(2)), [])


def test_subheap_closure_enforced():
    h = heap_from_group(Z(6))
    with pytest.raises(StructureError):
        SubHeap(h, (0, 1))  # [0,1,1] = 0 fine, [1,0,0] = 1 fine, [0,0,1]=1, [1,1,0]=0, but [1,0,1] = 2


def test_abelian_subheaps_always_normal():
    h = heap_from_group(Z(6))
    s = SubHeap(h, (0, 2, 4))
    res = is_normal(s)
    assert res.normal
    assert all(res.witnesses[(a, sp)] in (0, 2, 4) for a in range(6) for sp in (0, 2, 4))


def test_full_carrier_normal():
    h = heap_from_group(FiniteGroup.dihedral(3))
    assert is_normal(SubHeap(h, tuple(range(6)))).normal


def test_s3_reflection_subheap_not_normal():
    # {r0, s0} is closed (it is the heap of the subgroup {id,(12)}) but the
    # subgroup is not normal in S3.
    h = heap_from_group(FiniteGroup.dihedral(3))
    s = SubHeap(h, (0, 3))
    res = is_normal(s)
    assert not res.normal
    assert res.counterexample is not None


def test_is_normal_matches_group_normality_at_every_base():
    h = heap_from_group(FiniteGroup.dihedral(3))
    subsets = [(0, 3), (0, 1, 2), tuple(range(6))]
    for members in subsets:
        s = SubHeap(h, members)
        verdict = is_normal(s).normal
        for e in members:
            g = retract(h, e)
            sub = set(members)
            group_normal = all(g.op(g.op(a, m), g.inv(a)) in sub
                               for a in range(6) for m in members)
            assert group_normal == verdict, (members, e)


def test_quotient_z4_by_02():
    h = heap_from_group(Z(4))
    q, proj = quotient(h, SubHeap(h, (0, 2)))
    assert q.size == 2
    assert q == heap_from_group(Z(2))
    assert proj(0) == proj(2)
    assert proj(1) == proj(3)
    # class of any member of S is S itself
    assert q.names[proj(0)] == "{0,2}"


def coset_quotient(g, members):
    """Independent oracle: G/N from the right cosets Na of a normal subgroup
    N, ordered by least member, with the coset index of each element."""
    cosets = {a: frozenset(g.op(s, a) for s in members) for a in range(g.size)}
    distinct = sorted(set(cosets.values()), key=min)
    index = {c: i for i, c in enumerate(distinct)}
    proj = [index[cosets[a]] for a in range(g.size)]
    reps = [min(c) for c in distinct]
    table = [[proj[g.op(a, b)] for b in reps] for a in reps]
    names = tuple("{" + ",".join(g.names[m] for m in sorted(c)) + "}" for c in distinct)
    return FiniteGroup(table, names), proj


def group_quotient(g, members):
    """G/N as the retract of the heap quotient at the neutral element's class."""
    h = heap_from_group(g)
    q, proj = quotient(h, SubHeap(h, tuple(members)))
    return retract(q, proj(g.neutral)), list(proj.mapping)


def test_quotient_matches_group_quotient_lemma():
    # H/S agrees with the heap of G(H;e)/G(S;e) for every base e in S
    h = heap_from_group(Z(8))
    s = SubHeap(h, (0, 4))
    q, proj = quotient(h, s)
    for e in s.members:
        g = retract(h, e)
        qg, gproj = coset_quotient(g, s.members)
        assert heap_from_group(qg).table() == q.table()
        assert list(gproj) == list(proj.mapping)
        assert group_quotient(g, s.members) == (qg, gproj)


def test_retract_of_the_heap_quotient_matches_the_coset_oracle():
    cases = [(FiniteGroup.dihedral(3), (0, 1, 2)), (FiniteGroup.dihedral(4), (0, 2)),
             (FiniteGroup.quaternion(), (0, 1)), (Z(6), (0, 3)), (Z(6), (0, 2, 4)),
             (Z(5), tuple(range(5))), (Z(4), (0,))]
    for g, members in cases:
        qg, proj = group_quotient(g, members)
        want, want_proj = coset_quotient(g, members)
        assert (qg, proj) == (want, want_proj) and qg.names == want.names


def test_a_quotient_is_flagged_abelian_exactly_when_it_commutes():
    """The flag is decided on the quotient, not copied from the source heap:
    S3/A3, D4 by its centre and Q8 by {1, -1} are Abelian quotients of
    non-Abelian heaps, and the retract of every quotient of every small group
    heap, at every basepoint, is flagged as the commutativity scan says."""
    flags = {}
    for label, g in small_groups(8):
        h = heap_from_group(g)
        subs = {tuple(generated_subheap(h, seed).members)
                for k in (1, 2) for seed in itertools.combinations(range(g.size), k)}
        for members in sorted(subs):
            s = SubHeap(h, members)
            if not is_normal(s).normal:
                continue
            q, _ = quotient(h, s)
            for e in q.elements():
                assert retract(q, e).abelian == all(
                    q.ternary(a, e, b) == q.ternary(b, e, a)
                    for a in q.elements() for b in q.elements()), (label, members, e)
            flags[label, members] = q.abelian
    assert flags["S3", (0, 1, 2)] and flags["D4", (0, 2)] and flags["Q8", (0, 1)]
    assert not (flags["S3", (0,)] or flags["D4", (0,)] or flags["Q8", (0,)])


def bare_heaps(table):
    """A ternary table as a heap two ways, given no frame and no flag."""
    n = len(table)
    return (FiniteHeap(n, table=table),
            FiniteHeap.from_function(n, lambda a, b, c: table[a][b][c]))


S3_TABLE = heap_from_group(FiniteGroup.dihedral(3)).table()


def test_a_bare_c4_heap_is_abelian_and_carries_every_abelian_structure():
    mul = [[a * b % 4 for b in range(4)] for a in range(4)]
    for h in bare_heaps(mod_heap_table(4)):
        assert h.abelian and retract(h, 0).abelian
        assert FiniteTruss(h, mul).heap is h
        assert FiniteTModule(truss_TZn(4), h, mul).heap is h
        assert HeapSummand(h, 0).heap is h
        assert RModule(FiniteRing.Zn(4), (h, 0), mul).heap is h


def test_a_bare_s3_heap_is_not_abelian_and_carries_no_truss():
    for h in bare_heaps(S3_TABLE):
        assert not h.abelian and not retract(h, 0).abelian
        with pytest.raises(StructureError, match="a truss carrier must be an Abelian heap"):
            FiniteTruss(h, [[0] * 6] * 6)


def test_the_flag_of_a_bare_heap_is_decided_with_no_frame_scan(monkeypatch):
    calls = []
    scan = core._retract_defects
    monkeypatch.setattr(core, "_retract_defects", lambda c, e: calls.append(c) or scan(c, e))
    for table, flag in ((mod_heap_table(4), True), (S3_TABLE, False)):
        for h in bare_heaps(table):
            assert h.abelian is flag and calls == []
            assert h.frame() is not None and calls == [h]   # its first frame is a scan
            calls.clear()


def counted_ternaries(monkeypatch):
    count = []
    ternary = FiniteHeap.ternary
    monkeypatch.setattr(FiniteHeap, "ternary",
                        lambda h, a, b, c: count.append((a, b, c)) or ternary(h, a, b, c))
    return count


def test_a_framed_heap_decides_its_flag_on_its_generators(monkeypatch):
    """With the frame of k generators in hand, at most k(k-1) operations."""
    c8 = Z(8).heap
    heaps = [g.heap for _, g in small_groups(8)] + [
        product(Z(4).heap, FiniteGroup.dihedral(3).heap, Z(2).heap),
        product(*[Z(2).heap] * 6), FiniteHeap.from_table(mod_heap_table(6)),
        quotient(c8, SubHeap(c8, (0, 4)))[0]]
    count = counted_ternaries(monkeypatch)
    for h in heaps:
        k = len(h.frame()) - 1
        count.clear()
        assert repr(h).endswith("abelian=None)") and h.abelian in (True, False)
        assert len(count) <= k * (k - 1) and all(b == 0 for _, b, _ in count), h


def test_printing_a_heap_decides_nothing(monkeypatch):
    heaps = [*bare_heaps(mod_heap_table(4)), FiniteHeap.from_table(mod_heap_table(4)),
             Z(4).heap, product(Z(2).heap, Z(2).heap)]
    calls, count, scan = [], counted_ternaries(monkeypatch), core._retract_defects
    monkeypatch.setattr(core, "_retract_defects", lambda c, e: calls.append(c) or scan(c, e))
    for h in heaps:
        assert repr(h).endswith("abelian=None)") and count == [] and calls == []
    for h in heaps:
        assert h.abelian and repr(h).endswith("abelian=True)")


def test_heaps_of_different_kinds_are_unequal():
    assert IntLineHeap() == INT_LINE and hash(IntLineHeap()) == hash(INT_LINE)
    assert FiniteHeap.singleton().__eq__(INT_LINE) is NotImplemented
    assert (FiniteHeap.singleton() == INT_LINE) is False


def test_heap_quotient_rejects_a_non_normal_or_empty_subgroup():
    # <s0> is not normal in S3: its cosets give no homomorphism
    with pytest.raises(StructureError, match="not normal"):
        group_quotient(FiniteGroup.dihedral(3), [0, 3])
    with pytest.raises(StructureError):
        group_quotient(Z(4), [])


def test_quotient_by_full_carrier_is_terminal():
    h = heap_from_group(Z(5))
    q, _ = quotient(h, SubHeap(h, tuple(range(5))))
    assert q.size == 1


def test_quotient_rejects_non_normal():
    h = heap_from_group(FiniteGroup.dihedral(3))
    with pytest.raises(StructureError):
        quotient(h, SubHeap(h, (0, 3)))


def test_quotient_representative_independence():
    h = heap_from_group(Z(8))
    s = SubHeap(h, (0, 4))
    q, proj = quotient(h, s)
    classes = {}
    for a in range(8):
        classes.setdefault(proj(a), []).append(a)
    for i, j, k in itertools.product(range(q.size), repeat=3):
        expected = q.ternary(i, j, k)
        for a in classes[i]:
            for b in classes[j]:
                for c in classes[k]:
                    assert proj(h.ternary(a, b, c)) == expected


# ---------------------------------------------------------------------------
# products


def test_product_retract_is_product_group():
    h = product(heap_from_group(Z(2)), heap_from_group(Z(2)))
    assert h.size == 4
    r = retract(h, 0)
    assert group_isomorphism(r, FiniteGroup.product(Z(2), Z(2))) is not None


def test_product_with_terminal():
    h = heap_from_group(Z(5))
    p = product(h, FiniteHeap.singleton())
    assert p.table() == h.table()


def test_product_componentwise_example():
    h = product(heap_from_group(Z(2)), heap_from_group(Z(3)))
    # ids are pairs (a,b) -> 3a + b
    x, y, z = 1 * 3 + 0, 0 * 3 + 1, 1 * 3 + 1
    assert h.ternary(x, y, z) == ((1 - 0 + 1) % 2) * 3 + (0 - 1 + 1) % 3 == 0


# ---------------------------------------------------------------------------
# isomorphism search


def test_iso_of_heap_with_itself():
    h = heap_from_group(FiniteGroup.dihedral(4))
    iso = find_isomorphism(h, h)
    assert iso is not None and iso.is_bijective()


def test_no_iso_z4_vs_klein():
    a = heap_from_group(Z(4))
    b = heap_from_group(FiniteGroup.product(Z(2), Z(2)))
    assert find_isomorphism(a, b) is None


def test_iso_z6_vs_z2xz3():
    a = heap_from_group(Z(6))
    b = heap_from_group(FiniteGroup.product(Z(2), Z(3)))
    iso = find_isomorphism(a, b)
    assert iso is not None and iso.is_bijective()


def test_iso_empty_heaps():
    iso = find_isomorphism(FiniteHeap.empty(), FiniteHeap.empty())
    assert iso is not None and iso.mapping == ()


def test_empty_heap_is_valid():
    assert validate_heap(()).ok


def test_morphism_validation_rejects_non_morphism():
    h = heap_from_group(Z(3))
    with pytest.raises(StructureError):
        HeapMorphism(h, h, (0, 0, 1))


def test_morphism_refuses_a_carrier_that_is_not_a_heap():
    # T has [x,x,y] = y = [y,x,x] (Mal'cev) but is no heap, so no frame; the
    # map (0, 0, 1) preserves every [a,0,c] yet breaks [0,1,0] = 2:
    # f(2) = 1 while [f0, f1, f0] = [0, 0, 0] = 0
    T = [[[0, 1, 2], [2, 0, 1], [2, 0, 0]],
         [[1, 0, 2], [0, 1, 2], [2, 0, 1]],
         [[2, 2, 0], [1, 2, 0], [0, 1, 2]]]
    h = FiniteHeap(3, table=T)
    assert h.frame() is None and h.ternary(0, 1, 0) == 2
    assert all(T[x][x][y] == y == T[y][x][x] for x in range(3) for y in range(3))
    for source, target in ((h, h), (h, heap_from_group(Z(3))), (heap_from_group(Z(3)), h)):
        with pytest.raises(StructureError, match="not a heap"):
            HeapMorphism(source, target, (0, 0, 1))


def brute_force_is_morphism(h, m):
    n = h.size
    return all(m[h.ternary(a, b, c)] == h.ternary(m[a], m[b], m[c])
               for a in range(n) for b in range(n) for c in range(n))


@pytest.mark.parametrize("group, endomorphisms", [
    (Z(4), 4 * 4),                        # translations x End(C4)
    (FiniteGroup.dihedral(3), 6 * 10),    # translations x End(S3)
])
def test_pair_check_matches_brute_force_on_all_self_maps(group, endomorphisms):
    h = heap_from_group(group)
    accepted = 0
    for m in itertools.product(range(h.size), repeat=h.size):
        bad = _first_unpreserved(h.ternary, h.ternary, m, h.elements(), h.frame()[1:])
        assert (bad is None) == brute_force_is_morphism(h, m), m
        if bad is None:
            accepted += 1
            HeapMorphism(h, h, m)
        else:
            a, e, c = bad
            assert m[h.ternary(a, e, c)] != h.ternary(m[a], m[e], m[c])
    assert accepted == endomorphisms


# ---------------------------------------------------------------------------
# refusals: each with its exact message

_REFUSALS = {
    "group names that do not match the size": (
        lambda: FiniteGroup(Z(2).op_table(), names=["a"]),
        "names do not match the carrier size"),
    "heap names that do not match the size": (
        lambda: FiniteHeap.from_table(mod_heap_table(2), names=["a"]),
        "names do not match the carrier size"),
    "a translation at a basepoint outside the carrier": (
        lambda: translation_iso(heap_from_group(Z(3)), 0, 5), "basepoint 5 is not in the carrier"),
    "a sub-heap member outside the parent": (
        lambda: SubHeap(heap_from_group(Z(3)), (0, 7)), "member 7 is not in the parent carrier"),
    "a generator outside the carrier": (
        lambda: generated_subheap(heap_from_group(Z(3)), [9]),
        "generator 9 is not in the carrier"),
}


@pytest.mark.parametrize("label", list(_REFUSALS))
def test_each_refusal_of_the_kernel_states_its_reason(label):
    call, message = _REFUSALS[label]
    with pytest.raises(StructureError) as caught:
        call()
    assert str(caught.value) == message
