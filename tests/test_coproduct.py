"""Direct sums of Abelian heaps: canonical forms, words, universal property."""

import itertools
import random

import pytest

from trusskit.core import (
    INT_LINE,
    FiniteGroup,
    FiniteHeap,
    StructureError,
    heap_from_group,
    retract,
    group_isomorphism,
)
from trusskit.coproduct import (
    CoproductElement,
    DirectSum,
    HeapSummand,
    direct_sum,
)

C2 = heap_from_group(FiniteGroup.cyclic(2))
C3 = heap_from_group(FiniteGroup.cyclic(3))


def c2_pair(base_a=0, base_b=0):
    return direct_sum(HeapSummand(C2, base_a), HeapSummand(C2, base_b))


# ---------------------------------------------------------------------------
# injections and canonical forms


def test_summand_requires_abelian():
    s3 = heap_from_group(FiniteGroup.dihedral(3))
    with pytest.raises(StructureError):
        HeapSummand(s3, 0)


def test_inject_left_base():
    ds = c2_pair()
    assert ds.inject_left(0) == CoproductElement((0, 0), (0,))


def test_inject_right_has_unit_tail():
    ds = c2_pair()
    assert ds.inject_right(1) == CoproductElement((0, 1), (1,))


def test_inject_left_one():
    ds = c2_pair()
    assert ds.inject_left(1) == CoproductElement((1, 0), (0,))


def test_make_validates():
    ds = c2_pair()
    with pytest.raises(StructureError):
        ds.make((0, 5), (0,))
    with pytest.raises(StructureError):
        ds.make((0, 1), ())


# ---------------------------------------------------------------------------
# word normalization


def test_normalize_a_b_eb():
    # <<a b e_B>> -> (a, -b, 0)
    ds = c2_pair()
    for a in range(2):
        for b in range(2):
            out = ds.normalize_word([(0, a), (1, b), (1, 0)])
            assert out == CoproductElement((a, (-b) % 2), (0,))


def test_normalize_b_a_ea():
    # <<b a e_A>> -> (-a, b, 1)
    ds = c2_pair()
    for a in range(2):
        for b in range(2):
            out = ds.normalize_word([(1, b), (0, a), (0, 0)])
            assert out == CoproductElement(((-a) % 2, b), (1,))


def test_normalize_malcev_inside_summand():
    ds = c2_pair()
    for a in range(2):
        for b in range(2):
            out = ds.normalize_word([(0, a), (1, b), (1, b)])
            assert out == ds.inject_left(a)


def test_normalize_tail_words():
    ds = c2_pair()
    # a b e_A e_B e_A: two e_A letters, one e_B -> integer coordinate -2
    word = [(0, 1), (1, 1), (0, 0), (1, 0), (0, 0)]
    out = ds.normalize_word(word)
    assert out.tails == (-2,)
    assert out.components == (1, 1)


def test_normalize_rejects_even_and_foreign():
    ds = c2_pair()
    with pytest.raises(StructureError):
        ds.normalize_word([(0, 0), (1, 1)])
    with pytest.raises(StructureError):
        ds.normalize_word([(2, 0)])
    with pytest.raises(StructureError):
        ds.normalize_word([(0, 9)])


def test_word_form_round_trips_window():
    ds = c2_pair()
    for x in ds.enumerate_elements(4):
        word = ds.word_form(x)
        assert len(word) % 2 == 1
        assert ds.normalize_word(word) == x


def test_word_form_round_trips_nary():
    ds = DirectSum([HeapSummand(C2, 0), HeapSummand(C3, 0), HeapSummand(C2, 1)])
    for x in ds.enumerate_elements(2):
        assert ds.normalize_word(ds.word_form(x)) == x


# ---------------------------------------------------------------------------
# the heap operation


def test_op_malcev():
    ds = c2_pair()
    xs = list(ds.enumerate_elements(2))
    for x, z in itertools.product(xs, repeat=2):
        assert ds.ternary(x, x, z) == z
        assert ds.ternary(z, x, x) == z


def test_op_example_c2():
    ds = c2_pair()
    x = ds.make((1, 0), (0,))
    y = ds.make((0, 1), (1,))
    z = ds.make((1, 1), (0,))
    assert ds.ternary(x, y, z) == CoproductElement((0, 0), (-1,))


def test_op_axioms_window():
    ds = direct_sum(HeapSummand(C2, 0), HeapSummand(C3, 0))
    xs = list(ds.enumerate_elements(1))
    for x, y, z in itertools.product(xs, repeat=3):
        assert ds.ternary(x, y, z) == ds.ternary(z, y, x)
    rng = random.Random(23)
    for _ in range(3000):
        a, b, c, d, e = (rng.choice(xs) for _ in range(5))
        assert ds.ternary(ds.ternary(a, b, c), d, e) == ds.ternary(a, b, ds.ternary(c, d, e))


def test_op_matches_word_level_oracle():
    ds = direct_sum(HeapSummand(C2, 0), HeapSummand(C3, 0))
    xs = list(ds.enumerate_elements(3))
    rng = random.Random(29)
    for _ in range(1000):
        x, y, z = (rng.choice(xs) for _ in range(3))
        concat = ds.word_form(x) + tuple(reversed(ds.word_form(y))) + ds.word_form(z)
        assert ds.normalize_word(concat) == ds.ternary(x, y, z)


# ---------------------------------------------------------------------------
# group form


def test_group_form_round_trip_window_8():
    ds = c2_pair()
    count = 0
    for a in range(2):
        for b in range(2):
            for n in range(-8, 9):
                x = ds.make((a, b), (n,))
                assert ds.from_group_form(ds.to_group_form(x)) == x
                count += 1
    assert count == 2 * 2 * 17


def test_group_form_is_heap_morphism():
    ds = c2_pair()
    xs = list(ds.enumerate_elements(2))
    for x, y, z in itertools.product(xs[:8], xs[:8], xs[:8]):
        gx, gy, gz = (ds.to_group_form(v) for v in (x, y, z))
        combined = (
            (gx[0] - gy[0] + gz[0]) % 2,
            (gx[1] - gy[1] + gz[1]) % 2,
            gx[2] - gy[2] + gz[2],
        )
        assert ds.to_group_form(ds.ternary(x, y, z)) == combined


def test_from_group_form_base_points():
    ds = c2_pair()
    assert ds.from_group_form((0, 0, 0)) == ds.inject_left(0)
    assert ds.from_group_form((0, 0, 1)) == ds.inject_right(0)
    assert ds.from_group_form((0, 1, 1)) == ds.inject_right(1)


def test_tail_words_match_group_form():
    # a word with k trailing e_A letters lands k below the plain a-b form
    ds = c2_pair()
    for k in (1, 2, 3):
        word = [(0, 1), (1, 1)]
        for _ in range(k - 1):
            word += [(0, 0), (1, 0)]
        word += [(0, 0)]
        x = ds.normalize_word(word)
        assert ds.to_group_form(x) == (1, 1, -k)


# ---------------------------------------------------------------------------
# copairing


def hom(h_src, h_dst, fn):
    return fn


def test_copair_restricts_to_injections():
    z6 = heap_from_group(FiniteGroup.cyclic(6))
    ds = c2_pair()
    phi = lambda a: (3 * a) % 6
    psi = lambda b: (3 * b + 2) % 6
    both = ds.copair((phi, psi), z6)
    for a in range(2):
        assert both(ds.inject_left(a)) == phi(a)
    for b in range(2):
        assert both(ds.inject_right(b)) == psi(b)


def test_copair_of_injections_is_identity():
    ds = c2_pair()
    ident = ds.copair((ds.inject_left, ds.inject_right), ds)
    for x in ds.enumerate_elements(5):
        assert ident(x) == x


def test_copair_folds_into_target():
    # copair(id, id): A + A -> A sends <<a b e_A>> to [a, b, e_A]
    ds = direct_sum(HeapSummand(C3, 0), HeapSummand(C3, 0))
    fold = ds.copair((lambda a: a, lambda b: b), C3)
    for a in range(3):
        for b in range(3):
            x = ds.normalize_word([(0, a), (1, b), (0, 0)])
            assert fold(x) == C3.ternary(a, b, 0)


def test_copair_is_heap_morphism():
    z6 = heap_from_group(FiniteGroup.cyclic(6))
    ds = c2_pair()
    both = ds.copair((lambda a: (3 * a) % 6, lambda b: (3 * b + 1) % 6), z6)
    xs = list(ds.enumerate_elements(2))
    rng = random.Random(31)
    for _ in range(500):
        x, y, z = (rng.choice(xs) for _ in range(3))
        assert both(ds.ternary(x, y, z)) == z6.ternary(both(x), both(y), both(z))


def test_copair_representative_independence():
    ds = c2_pair()
    z6 = heap_from_group(FiniteGroup.cyclic(6))
    both = ds.copair((lambda a: (3 * a) % 6, lambda b: (3 * b + 5) % 6), z6)
    rng = random.Random(37)
    letters = [(i, v) for i in range(2) for v in range(2)]
    for _ in range(2000):
        word = tuple(rng.choice(letters) for _ in range(rng.choice((1, 3, 5, 7, 9))))
        x = ds.normalize_word(word)
        values = [both.maps[i](a) for i, a in word]
        acc = values[0]
        for j in range(1, len(values), 2):
            acc = z6.ternary(acc, values[j], values[j + 1])
        assert both(x) == acc


def word_fold(ds, maps, target, x):
    """The copair by its definition: map each letter of a word form, fold."""
    values = [maps[i](a) for i, a in ds.word_form(x)]
    acc = values[0]
    for j in range(1, len(values), 2):
        acc = target.ternary(acc, values[j], values[j + 1])
    return acc


def test_copair_matches_word_fold_oracle():
    z12 = heap_from_group(FiniteGroup.cyclic(12))
    c4 = heap_from_group(FiniteGroup.cyclic(4))
    finite = (
        direct_sum(HeapSummand(C3, 1), HeapSummand(c4, 0), HeapSummand(C3, 2)),
        (lambda a: (4 * a + 5) % 12, lambda b: (3 * b + 1) % 12, lambda c: (8 * c) % 12),
        z12, 2)
    line = (
        direct_sum(HeapSummand(INT_LINE, 0), HeapSummand(INT_LINE, 3)),
        (lambda a: 2 * a - 7, lambda b: -5 * b + 4),
        INT_LINE, 4)
    single = (direct_sum(HeapSummand(C3, 2)), ((lambda a: (4 * a + 1) % 12),), z12, 3)
    for ds, maps, target, window in (finite, line, single):
        both = ds.copair(maps, target)
        for x in ds.enumerate_elements(window):
            assert both(x) == word_fold(ds, maps, target, x), x


def test_copair_separates_base_points():
    # the two injections need not collapse e_A and e_B to one element
    z6 = heap_from_group(FiniteGroup.cyclic(6))
    ds = c2_pair()
    both = ds.copair((lambda a: (3 * a + 1) % 6, lambda b: (3 * b) % 6), z6)
    assert both(ds.inject_left(0)) == 1
    assert both(ds.inject_right(0)) == 0
    assert both(ds.inject_left(0)) != both(ds.inject_right(0))


def test_copair_uniqueness_by_perturbation():
    # any letterwise evaluation differing from the copair on an injection
    # fails to restrict correctly, so the filler is pinned on the window
    ds = c2_pair()
    z6 = heap_from_group(FiniteGroup.cyclic(6))
    phi = lambda a: (3 * a) % 6
    psi = lambda b: (3 * b) % 6
    both = ds.copair((phi, psi), z6)
    wrong = ds.copair((phi, lambda b: (3 * b + 3) % 6), z6)
    assert any(both(x) != wrong(x) for x in ds.enumerate_elements(2))
    assert wrong(ds.inject_right(0)) != psi(0)


def test_copair_rejects_nonabelian_target():
    ds = c2_pair()
    s3 = heap_from_group(FiniteGroup.dihedral(3))
    with pytest.raises(StructureError):
        ds.copair((lambda a: 0, lambda b: 0), s3)


# ---------------------------------------------------------------------------
# n-ary sums and size


def test_nary_singleton_sum_is_integer_pairs():
    star = FiniteHeap.singleton()
    ds = DirectSum([HeapSummand(star, 0)] * 3)
    xs = list(ds.enumerate_elements(3))
    # components are forced, so elements are exactly the integer tail pairs
    assert len(xs) == 7 * 7
    for x, y, z in itertools.product(xs[:10], repeat=3):
        out = ds.ternary(x, y, z)
        assert out.tails == tuple(a - b + c for a, b, c in zip(x.tails, y.tails, z.tails))


def test_single_summand_sum_is_the_summand():
    ds = DirectSum([HeapSummand(C3, 0)])
    xs = list(ds.enumerate_elements(0))
    assert len(xs) == 3
    for x, y, z in itertools.product(xs, repeat=3):
        assert ds.ternary(x, y, z).components[0] == C3.ternary(
            x.components[0], y.components[0], z.components[0])


def test_direct_sum_of_two_points_is_infinite():
    ds = c2_pair()
    distinct = set(itertools.islice(ds.enumerate_elements(30), 0, 1000))
    assert len(distinct) >= 100


def test_empty_sum_rejected():
    with pytest.raises(StructureError):
        DirectSum([])


# ---------------------------------------------------------------------------
# the lazy window


def product_window(ds, window):
    """The window as an eager list in itertools.product order: the oracle."""
    axes = [list(s.heap.sample(window)) for s in ds.summands]
    axes += [list(range(-window, window + 1))] * (ds.k - 1)
    return [CoproductElement(tuple(c[:ds.k]), tuple(c[ds.k:]))
            for c in itertools.product(*axes)]


@pytest.mark.parametrize("window", [0, 1, 3])
def test_window_indexing_matches_iteration_order(window):
    inner = direct_sum(HeapSummand(INT_LINE, 0), HeapSummand(C2, 1))
    sums = [
        c2_pair(),
        DirectSum([HeapSummand(C3, 0), HeapSummand(INT_LINE, 2), HeapSummand(C2, 0)]),
        DirectSum([HeapSummand(FiniteHeap.singleton(), 0)] * 3),
        direct_sum(HeapSummand(inner, inner.zero()), HeapSummand(C3, 0)),   # nested
    ]
    for ds in sums:
        w = ds.enumerate_elements(window)
        want = product_window(ds, window)
        assert len(w) == w.size == len(want)
        assert list(w) == want
        assert [w[i] for i in range(len(w))] == want
        assert w[-1] == want[-1] and w[-len(w)] == want[0]
        with pytest.raises(IndexError):
            w[len(w)]
        assert ds.sample(window)[len(w) // 2] == want[len(w) // 2]


def test_window_size_at_zero_and_nested():
    ds = c2_pair()
    assert len(ds.enumerate_elements(0)) == 2 * 2 * 1
    nested = direct_sum(HeapSummand(ds, ds.zero()), HeapSummand(C3, 0))
    assert len(nested.enumerate_elements(2)) == (2 * 2 * 5) * 3 * 5


def test_window_draws_like_a_list():
    # random.choice is seq[randbelow(len(seq))], so a lazy window and its
    # list give the same draws from the same seed
    ds = DirectSum([HeapSummand(C3, 0), HeapSummand(INT_LINE, 0)])
    w = ds.enumerate_elements(4)
    a, b = random.Random(5), random.Random(5)
    assert [a.choice(w) for _ in range(50)] == [b.choice(list(w)) for _ in range(50)]


def test_window_beyond_sys_maxsize_is_indexable():
    ds = DirectSum([HeapSummand(INT_LINE, 0)] * 12)
    w = ds.enumerate_elements(4)
    assert w.size == 9 ** 23
    x = w[w.size - 1]
    assert x.components == (4,) * 12 and x.tails == (4,) * 11
    assert ds.contains(w[random.Random(1).randrange(w.size)])


# ---------------------------------------------------------------------------
# retract comparison: the binary sum is the heap of G(A) + G(B) + Z


def test_window_retract_matches_group_tables():
    # on a finite window the operation agrees with the direct sum group
    ds = c2_pair()
    window = [ds.make((a, b), (n,)) for a in range(2) for b in range(2) for n in (-1, 0, 1)]
    assert len(window) == 12
    zero = ds.inject_left(0)
    for x in window:
        for y in window:
            out = ds.ternary(x, zero, y)  # retract addition at the left base point
            gx, gy = ds.to_group_form(x), ds.to_group_form(y)
            assert ds.to_group_form(out) == ((gx[0] + gy[0]) % 2, (gx[1] + gy[1]) % 2, gx[2] + gy[2])
