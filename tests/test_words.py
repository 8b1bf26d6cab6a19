"""Free heap and free Abelian heap normal forms, with independent oracles."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trusskit.coproduct import DirectSum, HeapSummand
from trusskit.core import FiniteGroup, FiniteHeap, StructureError, heap_from_group
from trusskit.words import (
    FreeGroupWord,
    eval_expr_abelian,
    eval_expr_free,
    eval_word_in_heap,
    free_group_heap_op,
    free_group_inv,
    free_group_mul,
    free_heap_op,
    from_free_group,
    is_reduced,
    parse_word_expr,
    prune,
    shortest_word,
    to_free_group,
)

ABC = ("a", "b", "c")


def reduced_words(symbols, max_len):
    """All reduced words up to max_len (odd lengths only)."""
    out = []
    for length in range(1, max_len + 1, 2):
        for first in symbols:
            partials = [(first,)]
            for _ in range(length - 1):
                partials = [p + (s,) for p in partials for s in symbols if s != p[-1]]
            out.extend(partials)
    return out


def prune_random_order(letters, rng):
    """Oracle reducer: delete a randomly chosen adjacent equal pair each step."""
    word = list(letters)
    while True:
        sites = [i for i in range(len(word) - 1) if word[i] == word[i + 1]]
        if not sites:
            return tuple(word)
        i = rng.choice(sites)
        del word[i:i + 2]


# ---------------------------------------------------------------------------
# pruning


def test_prune_simple():
    assert prune(("a", "b", "b")) == ("a",)


def test_prune_chain_example():
    # u = a, w = bab: u w^o w collapses step by step to u
    assert prune(tuple("ababbab")) == ("a",)


def test_prune_unreduced_five_letter():
    assert prune(tuple("aacbd")) == ("c", "b", "d")


def test_prune_rejects_even_length():
    with pytest.raises(StructureError):
        prune(("a", "b"))


def test_prune_confluence_fuzz():
    rng = random.Random(20260810)
    for _ in range(10_000):
        length = rng.choice([1, 3, 5, 7, 9, 11, 13, 15])
        word = tuple(rng.choice(ABC) for _ in range(length))
        expected = prune(word)
        assert prune_random_order(word, rng) == expected
        assert is_reduced(expected)


@settings(max_examples=300)
@given(st.lists(st.sampled_from(ABC), min_size=1, max_size=15).filter(lambda w: len(w) % 2 == 1))
def test_prune_properties(word):
    out = prune(tuple(word))
    assert is_reduced(out)
    assert len(out) % 2 == 1
    assert prune(out) == out


# ---------------------------------------------------------------------------
# the free heap operation


def test_free_heap_op_malcev_example():
    assert free_heap_op(("a",), tuple("bab"), tuple("bab")) == ("a",)


def test_free_heap_op_distinct_letters():
    assert free_heap_op(("a",), ("b",), ("c",)) == ("a", "b", "c")


def test_free_heap_op_via_free_group_oracle():
    # [aba, a, b] evaluates to a under the free group bridge at basepoint a
    out = free_heap_op(tuple("aba"), ("a",), ("b",))
    assert out == ("a",)
    g = free_group_heap_op(
        to_free_group(tuple("aba"), "a"),
        to_free_group(("a",), "a"),
        to_free_group(("b",), "a"),
    )
    assert from_free_group(g, "a") == out


def test_free_heap_axioms_exhaustive_short_words():
    words = reduced_words(ABC, 3)  # 15 words; quintuples are exhaustive
    for u, v in itertools.product(words, repeat=2):
        assert free_heap_op(u, v, v) == u
        assert free_heap_op(v, v, u) == u
    for u, v, w, x, y in itertools.product(words, repeat=5):
        lhs = free_heap_op(free_heap_op(u, v, w), x, y)
        rhs = free_heap_op(u, v, free_heap_op(w, x, y))
        assert lhs == rhs


def test_free_heap_axioms_sampled_length_five():
    words = reduced_words(ABC, 5)
    assert len(words) == 63
    for u, v in itertools.product(words, repeat=2):
        assert free_heap_op(u, v, v) == u
        assert free_heap_op(v, v, u) == u
    rng = random.Random(5)
    for _ in range(20_000):
        u, v, w, x, y = (rng.choice(words) for _ in range(5))
        assert free_heap_op(free_heap_op(u, v, w), x, y) == free_heap_op(u, v, free_heap_op(w, x, y))


# ---------------------------------------------------------------------------
# free group bridge


def test_basepoint_letter_maps_to_neutral():
    assert to_free_group(("a",), "a").factors == ()


def test_a_free_group_word_prints_as_its_factors():
    assert str(FreeGroupWord(())) == "e"
    assert str(FreeGroupWord((("a", 1), ("b", -1)))) == "a b^-1"


def test_two_symbol_alphabet_alternating_evaluation():
    # over {0,1} with basepoint 0, the word 101 maps to the squared generator
    g = to_free_group(("1", "0", "1"), "0")
    assert g.factors == (("1", 1), ("1", 1))


def test_round_trip_exhaustive():
    words = reduced_words(ABC, 7)
    for w in words:
        for base in ABC:
            assert from_free_group(to_free_group(w, base), base) == w


def test_round_trip_other_direction():
    rng = random.Random(7)
    for _ in range(2000):
        length = rng.randrange(0, 9)
        factors = []
        for _ in range(length):
            factors.append((rng.choice(("b", "c")), rng.choice((1, -1))))
        g = FreeGroupWord(tuple(_reduce(factors)))
        assert to_free_group(from_free_group(g, "a"), "a") == g


def _reduce(factors):
    stack = []
    for s, e in factors:
        if stack and stack[-1][0] == s and stack[-1][1] == -e:
            stack.pop()
        else:
            stack.append((s, e))
    return stack


def test_bridge_is_heap_morphism_exhaustive():
    words = reduced_words(ABC, 5)
    images = {w: to_free_group(w, "a") for w in words}
    for u, v, w in itertools.product(words, repeat=3):
        lhs = to_free_group(free_heap_op(u, v, w), "a")
        rhs = free_group_heap_op(images[u], images[v], images[w])
        assert lhs == rhs


def test_from_free_group_rejects_basepoint_factor():
    with pytest.raises(StructureError):
        from_free_group(FreeGroupWord((("a", 1),)), "a")


def test_two_symbol_free_heap_is_integer_heap():
    # alternating-sign evaluation is a bijection onto an integer interval
    words = reduced_words(("0", "1"), 15)
    values = {}
    for w in words:
        g = to_free_group(w, "0")
        n = sum(e for _, e in g.factors)
        assert len(g.factors) == abs(n)  # powers of one generator only
        values[w] = n
    assert len(set(values.values())) == len(words)
    lo, hi = min(values.values()), max(values.values())
    assert set(values.values()) == set(range(lo, hi + 1))


# ---------------------------------------------------------------------------
# the free Abelian heap as signed letter counts


def abelian_normalize(letters):
    """The signed letter counts of one flat word."""
    return eval_expr_abelian(("word", tuple(letters)))


def abelian_op(u, v, w):
    """[u, v, w] = u - v + w on count maps, zeros dropped, sorted by symbol."""
    out = dict(u)
    for s, c in v.items():
        out[s] = out.get(s, 0) - c
    for s, c in w.items():
        out[s] = out.get(s, 0) + c
    return {s: c for s, c in sorted(out.items()) if c}


def test_abelian_normalize_prunes():
    assert abelian_normalize(tuple("abcad")) == {"c": 1, "d": 1, "b": -1}


def test_abelian_normalize_reduced_example():
    # odd positions a,a,d count +1, even positions b,c count -1
    assert abelian_normalize(tuple("abacd")) == {"a": 2, "d": 1, "b": -1, "c": -1}


def test_abelian_normalize_malcev():
    assert abelian_normalize(tuple("aaa")) == {"a": 1}


def test_symmetric_word_invariants():
    # a count map sums to 1, has no zero count, and lists its symbols sorted
    rng = random.Random(23)
    for _ in range(400):
        counts = eval_expr_abelian(random_node(rng, 4))
        assert sum(counts.values()) == 1
        assert 0 not in counts.values()
        assert list(counts) == sorted(counts)


def test_representative_word_is_reduced_and_round_trips():
    rng = random.Random(11)
    for _ in range(2000):
        length = rng.choice([1, 3, 5, 7, 9])
        word = tuple(rng.choice(ABC) for _ in range(length))
        counts = abelian_normalize(word)
        rep = shortest_word(counts)
        assert is_reduced(rep)
        assert abelian_normalize(rep) == counts
        assert len(rep) == sum(abs(c) for c in counts.values())


def cancel_multisets_oracle(letters):
    """Independent reducer: cancel one odd-position letter against one equal
    even-position letter until the two multisets are disjoint."""
    odd = sorted(letters[0::2])
    even = sorted(letters[1::2])
    changed = True
    while changed:
        changed = False
        for s in list(odd):
            if s in even:
                odd.remove(s)
                even.remove(s)
                changed = True
    return tuple(odd), tuple(even)


def rebuild(odd, even):
    """The count map of the multiset oracle's two cancelled multisets."""
    counts = {}
    for s in odd:
        counts[s] = counts.get(s, 0) + 1
    for s in even:
        counts[s] = counts.get(s, 0) - 1
    return counts


def permutation_prune_oracle(letters):
    """Ground-truth reducer for short words: explore all permuted words
    (odd and even positions permuted independently), delete adjacent equal
    pairs, recurse; return the set of shortest results' class signature."""
    best = {}

    def explore(word):
        odd = word[0::2]
        even = word[1::2]
        key = (tuple(sorted(odd)), tuple(sorted(even)))
        if key in best:
            return
        best[key] = len(word)
        for op in set(itertools.permutations(odd)):
            for ep in set(itertools.permutations(even)):
                merged = []
                for i, p in enumerate(op):
                    merged.append(p)
                    if i < len(ep):
                        merged.append(ep[i])
                for i in range(len(merged) - 1):
                    if merged[i] == merged[i + 1]:
                        explore(tuple(merged[:i] + merged[i + 2:]))

    explore(tuple(letters))
    shortest = min(best.values())
    keys = [k for k, v in best.items() if v == shortest]
    assert len(keys) == 1
    return keys[0]


def test_abelian_normalize_matches_multiset_oracle():
    rng = random.Random(13)
    for _ in range(3000):
        length = rng.choice([1, 3, 5, 7, 9, 11])
        word = tuple(rng.choice(ABC) for _ in range(length))
        assert abelian_normalize(word) == rebuild(*cancel_multisets_oracle(word))


def test_multiset_oracle_matches_permutation_rewriting():
    for length in (1, 3, 5, 7):
        for word in itertools.product(("a", "b"), repeat=length):
            assert cancel_multisets_oracle(word) == permutation_prune_oracle(word)


def test_abelian_op_cancels():
    u = abelian_normalize(tuple("aba"))
    w = abelian_normalize(("c",))
    assert abelian_op(u, u, w) == w


def test_abelian_op_single_letters():
    out = abelian_op({"a": 1}, {"b": 1}, {"c": 1})
    assert out == {"a": 1, "b": -1, "c": 1}
    assert out == abelian_normalize(("a", "b", "c"))


def all_count_maps(symbols, max_len):
    out = {}
    for length in range(1, max_len + 1, 2):
        for word in itertools.product(symbols, repeat=length):
            counts = abelian_normalize(word)
            out[tuple(counts.items())] = counts
    return [out[key] for key in sorted(out)]


def test_abelian_op_matches_word_level_oracle():
    # concatenate shortest words (middle reversed), then reduce by the
    # independent multiset oracle; length <= 5 over a three-symbol alphabet
    words = all_count_maps(ABC, 5)
    for u, v, w in itertools.product(words, repeat=3):
        concat = shortest_word(u) + tuple(reversed(shortest_word(v))) + shortest_word(w)
        assert abelian_op(u, v, w) == rebuild(*cancel_multisets_oracle(concat))


def test_abelian_heap_axioms_on_count_maps():
    words = all_count_maps(ABC, 3)
    for u, v in itertools.product(words, repeat=2):
        assert abelian_op(u, v, v) == u == abelian_op(v, v, u)
    for u, v, w in itertools.product(words, repeat=3):
        assert abelian_op(u, v, w) == abelian_op(w, v, u)
    for u, v, w, x, y in itertools.product(words[:8], repeat=5):
        assert abelian_op(abelian_op(u, v, w), x, y) == abelian_op(u, v, abelian_op(w, x, y))


def test_transposition_rule_support_two():
    words = [c for c in all_count_maps(("a", "b"), 5) if len(c) <= 2]
    for row in itertools.product(words, repeat=3):
        for col in itertools.product(words, repeat=3):
            a1, a2, a3 = row
            b1, b2, b3 = col
            # transposition: [[a1,a2,a3],[b1,b2,b3],[c1,c2,c3]] =
            #                [[a1,b1,c1],[a2,b2,c2],[a3,b3,c3]]
            c1, c2, c3 = a3, b2, a1  # third row drawn from the same pool
            lhs = abelian_op(
                abelian_op(a1, a2, a3),
                abelian_op(b1, b2, b3),
                abelian_op(c1, c2, c3),
            )
            rhs = abelian_op(
                abelian_op(a1, b1, c1),
                abelian_op(a2, b2, c2),
                abelian_op(a3, b3, c3),
            )
            assert lhs == rhs


# ---------------------------------------------------------------------------
# evaluation


def test_eval_single_letter():
    h = heap_from_group(FiniteGroup.cyclic(4))
    assert eval_word_in_heap(("x",), {"x": 3}, h) == 3


def test_eval_aba_in_z4():
    h = heap_from_group(FiniteGroup.cyclic(4))
    assert eval_word_in_heap(tuple("aba"), {"a": 1, "b": 3}, h) == 3


def test_eval_rejects_unassigned_symbol():
    h = heap_from_group(FiniteGroup.cyclic(4))
    with pytest.raises(StructureError):
        eval_word_in_heap(tuple("ab" "a"), {"a": 1}, h)


def test_eval_is_heap_morphism_random():
    h = heap_from_group(FiniteGroup.cyclic(6))
    assignment = {"a": 1, "b": 4, "c": 5}
    words = reduced_words(ABC, 5)
    rng = random.Random(17)
    for _ in range(200):
        u, v, w = (rng.choice(words) for _ in range(3))
        lhs = eval_word_in_heap(free_heap_op(u, v, w), assignment, h)
        rhs = h.ternary(
            eval_word_in_heap(u, assignment, h),
            eval_word_in_heap(v, assignment, h),
            eval_word_in_heap(w, assignment, h),
        )
        assert lhs == rhs


def test_eval_symmetric_word_representative_independent():
    # in an Abelian heap a word and the shortest word with its counts agree
    h = heap_from_group(FiniteGroup.cyclic(5))
    assignment = {"a": 2, "b": 3, "c": 4}
    rng = random.Random(19)
    for _ in range(500):
        word = tuple(rng.choice(ABC) for _ in range(7))
        rep = shortest_word(abelian_normalize(word))
        assert eval_word_in_heap(rep, assignment, h) == eval_word_in_heap(word, assignment, h)


def test_eval_left_fold_matches_any_bracketing():
    # in an Abelian heap every bracketing of an odd sequence agrees
    h = heap_from_group(FiniteGroup.cyclic(7))
    vals = (1, 4, 2, 6, 3)
    left = h.ternary(h.ternary(vals[0], vals[1], vals[2]), vals[3], vals[4])
    right = h.ternary(vals[0], vals[1], h.ternary(vals[2], vals[3], vals[4]))
    middle = h.ternary(vals[0], h.ternary(vals[3], vals[2], vals[1]), vals[4])
    assert left == right == middle


# ---------------------------------------------------------------------------
# expressions


def test_parse_flat_word():
    assert parse_word_expr("a b a") == ("word", ("a", "b", "a"))


def test_parse_nested():
    node = parse_word_expr("[a b a, a, b]")
    assert eval_expr_free(node) == ("a",)


def test_parse_unicode_brackets():
    node = parse_word_expr("⟨a b b, b, b⟩")
    assert eval_expr_free(node) == ("a",)


def test_eval_expr_abelian():
    node = parse_word_expr("[a, b, c]")
    assert eval_expr_abelian(node) == {"a": 1, "b": -1, "c": 1}


def test_parse_errors():
    for bad in ("[a, b]", "[a, b, c", "a ] b", ""):
        with pytest.raises(StructureError):
            parse_word_expr(bad)


def nested_text(depth):
    return "[" * depth + "a" + ", b, c]" * depth


def test_deep_nesting_parses_without_recursion():
    node = parse_word_expr(nested_text(5000))
    for _ in range(5000):
        assert node[0] == "op" and node[2:] == (("word", ("b",)), ("word", ("c",)))
        node = node[1]
    assert node == ("word", ("a",))


@pytest.mark.parametrize("depth", [1, 7, 5000])
def test_deep_nesting_matches_the_closed_form(depth):
    node = parse_word_expr(nested_text(depth))
    want = {"a": 1, "b": -depth, "c": depth}
    assert eval_expr_abelian(node) == want
    word = eval_expr_free(node)
    assert word == ("a",) + ("b", "c") * depth
    assert abelian_normalize(word) == want


def recursive_free(node):
    if node[0] == "word":
        return prune(node[1])
    return free_heap_op(*(recursive_free(part) for part in node[1:]))


def recursive_abelian(node):
    if node[0] == "word":
        return rebuild(*cancel_multisets_oracle(node[1]))
    return abelian_op(*(recursive_abelian(part) for part in node[1:]))


def random_node(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return ("word", tuple(rng.choice(ABC) for _ in range(rng.choice((1, 3, 5)))))
    return ("op", *(random_node(rng, depth - 1) for _ in range(3)))


def render(node):
    if node[0] == "word":
        return " ".join(node[1])
    return "[" + ", ".join(render(part) for part in node[1:]) + "]"


def test_iterative_evaluation_matches_the_recursive_definition():
    rng = random.Random(83)
    for _ in range(400):
        node = random_node(rng, 5)
        assert parse_word_expr(render(node)) == node
        assert eval_expr_free(node) == recursive_free(node)
        assert eval_expr_abelian(node) == recursive_abelian(node)


def test_even_leaf_is_rejected_in_both_modes():
    node = parse_word_expr("[a, b c, a]")
    for evaluate in (eval_expr_free, eval_expr_abelian):
        with pytest.raises(StructureError):
            evaluate(node)


# ---------------------------------------------------------------------------
# the paper's identification: the free Abelian heap on X is the abelianized
# free heap, and the direct sum of |X| one-point heaps

SYMBOLS = ("a", "b", "c", "d")

expressions = st.recursive(
    st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=7)
    .filter(lambda w: len(w) % 2 == 1)
    .map(lambda w: ("word", tuple(w))),
    lambda parts: st.tuples(st.just("op"), parts, parts, parts),
    max_leaves=12,
)


def flatten(node):
    if node[0] == "word":
        return node[1]
    _, u, v, w = node
    return flatten(u) + tuple(reversed(flatten(v))) + flatten(w)


@settings(max_examples=200)
@given(expressions)
def test_abelianization_is_a_heap_map(node):
    # pruning deletes a pair of equal letters at positions of opposite sign,
    # so the free value has the signed counts of the flattened word
    assert eval_expr_abelian(node) == rebuild(*cancel_multisets_oracle(eval_expr_free(node)))


@settings(max_examples=200)
@given(expressions)
def test_counts_are_the_direct_sum_of_singletons(node):
    letters = flatten(node)
    symbols = sorted(set(letters))
    ds = DirectSum(HeapSummand(FiniteHeap.singleton(s), 0) for s in symbols)
    x = ds.normalize_word([(symbols.index(s), 0) for s in letters])
    # tail i - 1 counts x_i, and x_0 takes the rest of the total 1
    counts = dict(zip(symbols, (1 - sum(x.tails),) + x.tails))
    assert eval_expr_abelian(node) == {s: c for s, c in counts.items() if c}


# ---------------------------------------------------------------------------
# refusals: each with its exact message

_REFUSALS = {
    "the free heap operation on an even-length word": (
        lambda: free_heap_op(("a", "b"), ("a",), ("a",)),
        "free heap operation needs three odd-length words"),
    "a free group word with exponent 2": (
        lambda: FreeGroupWord((("a", 2),)), "exponent must be +-1, got 2"),
    "a free group word that is not freely reduced": (
        lambda: FreeGroupWord((("a", 1), ("a", -1))), "word is not freely reduced"),
}


@pytest.mark.parametrize("label", list(_REFUSALS))
def test_each_refusal_of_words_states_its_reason(label):
    call, message = _REFUSALS[label]
    with pytest.raises(StructureError) as caught:
        call()
    assert str(caught.value) == message
