"""Heap/group kernel: axioms, retracts, sub-heaps, quotients, isomorphism."""

import itertools
import random

import pytest

from trusskit.core import (
    FiniteGroup,
    FiniteHeap,
    HeapMorphism,
    StructureError,
    SubHeap,
    _first_unpreserved,
    _is_group_heap,
    find_isomorphism,
    generated_subheap,
    group_isomorphism,
    heap_from_group,
    is_normal,
    product,
    quotient,
    quotient_group,
    retract,
    small_groups,
    translation_iso,
    validate_heap,
    validate_group_table,
)
from trusskit.reports import Finding

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
    # [a,b,c] = a + c (mod 2) is a.j(b).c for j(b) = [0,b,0], but not a heap
    assert not _is_group_heap([[[(a + c) % 2 for c in range(2)] for _ in range(2)]
                               for a in range(2)])
    assert _is_group_heap(mod_heap_table(2))


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


def test_quotient_matches_group_quotient_lemma():
    # H/S agrees with the heap of G(H;e)/G(S;e) for every base e in S
    h = heap_from_group(Z(8))
    s = SubHeap(h, (0, 4))
    q, proj = quotient(h, s)
    for e in s.members:
        g = retract(h, e)
        qg, gproj = quotient_group(g, s.members)
        assert heap_from_group(qg).table() == q.table()
        assert list(gproj) == list(proj.mapping)


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
        bad = _first_unpreserved(h.ternary, h.ternary, m)
        assert (bad is None) == brute_force_is_morphism(h, m), m
        if bad is None:
            accepted += 1
            HeapMorphism(h, h, m)
        else:
            a, e, c = bad
            assert m[h.ternary(a, e, c)] != h.ternary(m[a], m[e], m[c])
    assert accepted == endomorphisms
