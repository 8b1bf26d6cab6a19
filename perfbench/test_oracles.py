"""The benchmark's known answers, checked on small cases worked by hand.

These tests import no trusskit code: the oracles must stay independent of
the library they judge.
"""

import itertools
import random
import time

import pytest

import harness
import oracles as O


def test_heap_of_c3_by_hand():
    # [x, y, z] = x - y + z in Z3
    h = O.heap_table(O.cyclic_table(3))
    assert h[0][1][2] == 1
    assert h[2][2][0] == 0
    assert h[1][0][1] == 2
    assert O.heap_witness(h, (0, 1, 2)) is None


def test_heap_of_s3_is_not_abelian_but_a_heap():
    t = O.dihedral_table(3)
    assert O.is_group_table(t)
    assert not O.is_abelian_table(t)
    h = O.heap_table(t)
    assert all(O.heap_witness(h, cell) is None
               for cell in itertools.product(range(6), repeat=3))


def test_perturbation_changes_exactly_one_entry():
    table = O.heap_table(O.cyclic_table(4))
    bad, cell = O.perturb(table, random.Random(5), 3)
    diffs = [c for c in itertools.product(range(4), repeat=3)
             if bad[c[0]][c[1]][c[2]] != table[c[0]][c[1]][c[2]]]
    assert diffs == [cell]


def test_order_one_table_cannot_be_perturbed():
    with pytest.raises(ValueError):
        O.perturb(O.heap_table(O.cyclic_table(1)), random.Random(0), 3)


def test_perturbed_group_heap_has_a_witness():
    # [0,1,0] in the heap of Z2 is 0 - 1 + 0 = 1; make it 0
    h = O._to_lists(O.heap_table(O.cyclic_table(2)))
    h[0][1][0] = 0
    assert O.heap_witness(h, (0, 1, 0)) is not None


def test_every_one_entry_change_of_a_small_heap_is_caught():
    table = O.heap_table(O.cyclic_table(3))
    for cell in itertools.product(range(3), repeat=3):
        for shift in (1, 2):
            bad = O._to_lists(table)
            bad[cell[0]][cell[1]][cell[2]] = (table[cell[0]][cell[1]][cell[2]] + shift) % 3
            assert O.heap_witness(bad, cell) is not None


def test_perturbed_cayley_table_is_not_latin():
    t = O.cyclic_table(3)
    t[1][1] = 0            # 1 + 1 = 2 in Z3; row 1 now holds 0 twice
    assert O.latin_witness(t) == ("row", 1)
    assert O.latin_witness(O.cyclic_table(3)) is None


def test_ring_and_truss_witnesses():
    assert O.ring_witness(3, O.zn_mul(3), (1, 2)) is None
    assert O.truss_witness(3, O.zn_mul(3), (1, 2)) is None
    mul = O.zn_mul(3)
    mul[1][2] = 0          # 1 * 2 = 2 in Z3
    assert O.ring_witness(3, mul, (1, 2)) is not None
    assert O.truss_witness(3, mul, (1, 2)) is not None


def test_zero_product_on_z2_is_a_truss():
    # the one-entry change 1*1 = 0 of Z2 gives the zero product, a truss
    mul = O.zn_mul(2)
    mul[1][1] = 0
    assert O.truss_witness(2, mul, (1, 1)) is None


def test_module_witness():
    assert O.module_witness(4, O.zn_mul(4), (2, 3)) is None
    act = O.zn_mul(4)
    act[2][3] = 1          # 2 . 3 = 2 in Z4
    assert O.module_witness(4, act, (2, 3)) is not None


def test_perturbed_with_witness_redraws_until_broken():
    new, cell, found = O.perturbed_with_witness(
        O.zn_mul(3), 2, random.Random(1), lambda m, c: O.truss_witness(3, m, c))
    assert found is not None and new[cell[0]][cell[1]] != O.zn_mul(3)[cell[0]][cell[1]]


def _brute_force_homs(n, a, b):
    src, dst = O.zn_power_group(n, a), O.zn_power_group(n, b)
    size = len(src[0])
    return [m for m in itertools.product(range(len(dst[0])), repeat=size)
            if O.is_zn_module_map(n, src, dst, m)]


@pytest.mark.parametrize("n,a,b", [(2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1), (3, 2, 1)])
def test_hom_count_formula(n, a, b):
    assert len(_brute_force_homs(n, a, b)) == O.zn_hom_count(n, a, b)


def test_hom_count_by_hand():
    # Hom(Z2^2, Z2): a map is fixed by the images of (1,0) and (0,1): 4 maps
    assert O.zn_hom_count(2, 2, 1) == 4
    # ids in Z2^2 are 2*x0 + x1; the projection onto x0 is a module map
    src, dst = O.zn_power_group(2, 2), O.zn_power_group(2, 1)
    assert O.is_zn_module_map(2, src, dst, (0, 0, 1, 1))
    assert not O.is_zn_module_map(2, src, dst, (0, 1, 1, 1))


def test_heap_module_maps_agree_with_module_maps_into_tn():
    # |Hom(T(M), T(N))| = |Hom(M, N)| when M has the single absorber 0
    src, dst = O.zn_power_group(2, 2), O.zn_power_group(2, 1)
    heap_maps = [m for m in itertools.product(range(2), repeat=4)
                 if O.is_heap_module_map(2, src, dst, m)]
    assert len(heap_maps) == O.zn_hom_count(2, 2, 1)


def test_relabelled_heap_isomorphism():
    t = O.cyclic_table(4)
    perm = [2, 0, 3, 1]
    h1, h2 = O.heap_table(t), O.heap_table(O.relabel_group(t, perm))
    assert O.is_heap_isomorphism(h1, h2, perm)
    assert not O.is_heap_isomorphism(h1, h2, [0, 1, 2, 3])


def test_catalog_and_freeness_rules():
    assert O.catalog_isomorphic("C4", "C4")
    assert not O.catalog_isomorphic("C4", "C2xC2")
    assert O.tn_is_free(1) and not O.tn_is_free(2)
    assert O.is_unit(3, 8) and not O.is_unit(2, 8) and not O.is_unit(0, 5)


def test_reduce_oracles_by_hand():
    node = ("op", ("word", ("a", "b", "a")), ("word", ("a",)), ("word", ("b",)))
    assert O.render_expr(node) == "[a b a, a, b]"
    # a b a -> {a: 2, b: -1}; minus a; plus b
    assert O.abelian_coeffs(node) == {"a": 1}
    # graft a b a | a | b = a b a a b -> a b b -> a
    assert O.free_reduce(node) == ["a"]


def test_nested_expression_coefficients():
    text, coeffs = O.nested_expr(2)
    assert text == "[[a, b, c], b, c]"
    assert coeffs == {"a": 1, "b": -2, "c": 2}


def test_coproduct_form_by_hand():
    # A:1 (+), B:2 (-), A:3 (+) over Z4 (+) Z4: alpha = 1 + 3, beta = -2, n = -1
    assert O.coproduct_form(4, 4, [("A", 1), ("B", 2), ("A", 3)]) == (0, 2, -1)


def test_seeded_streams_repeat():
    assert O.seeded(7, "x").random() == O.seeded(7, "x").random()
    assert O.seeded(7, "x").random() != O.seeded(8, "x").random()


def _case(call, judge=lambda value: harness.DECIDED):
    return harness.Case("t", call, judge)


def test_time_limit_discards_the_call():
    harness.install_alarm()

    def spin():
        end = time.perf_counter() + 5
        while time.perf_counter() < end:
            pass
        return "late"

    outcome, seconds = harness.run_case(_case(spin), 0.05)
    assert outcome == harness.TIMEOUT and seconds == 0.05


@pytest.mark.parametrize("error", [RecursionError, TypeError, SystemExit])
def test_every_exception_counts_as_failed(error):
    def boom():
        raise error()

    outcome, _ = harness.run_case(_case(boom), 1.0)
    assert outcome == harness.ERROR and outcome in harness.FAILED


def test_charges():
    assert harness.charged(harness.DECIDED, 0.25) == 0.25
    for outcome in (harness.INCONCLUSIVE, harness.WRONG, harness.BREACH,
                    harness.ERROR, harness.TIMEOUT):
        assert harness.charged(outcome, 0.25) == harness.LIMIT_S
