"""Normal forms for the free heap and the free Abelian heap.

Words are plain tuples of symbol strings.  A reduced word is an odd-length
tuple with no two equal consecutive letters; the free heap operation grafts
u, the reverse of v, and w, then prunes.  A free Abelian heap element is a
plain dict of signed letter counts summing to 1 (odd positions count +1,
even positions -1), which is the group form of the direct sum of one
singleton heap per letter; ``shortest_word`` prints it as a word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import StructureError


def check_word(letters) -> tuple:
    letters = tuple(letters)
    if len(letters) % 2 == 0:
        raise StructureError(f"word length must be odd, got {len(letters)}")
    return letters


def is_reduced(letters) -> bool:
    letters = tuple(letters)
    return len(letters) % 2 == 1 and all(
        letters[i] != letters[i + 1] for i in range(len(letters) - 1)
    )


def prune(letters) -> tuple:
    """Delete adjacent equal pairs until none remain.

    The deletion system is confluent, so the single left-to-right stack pass
    lands on the unique normal form; parity is preserved, hence the result
    is again odd and non-empty.
    """
    letters = check_word(letters)
    stack = []
    for s in letters:
        if stack and stack[-1] == s:
            stack.pop()
        else:
            stack.append(s)
    return tuple(stack)


def reverse(letters) -> tuple:
    return tuple(reversed(letters))


def free_heap_op(u, v, w) -> tuple:
    """[u, v, w] in the free heap: prune the grafting of u, reverse(v), w."""
    if len(u) % 2 == 0 or len(v) % 2 == 0 or len(w) % 2 == 0:
        raise StructureError("free heap operation needs three odd-length words")
    stack = []
    for seq in (u, reversed(v), w):
        for s in seq:
            if stack and stack[-1] == s:
                stack.pop()
            else:
                stack.append(s)
    return tuple(stack)


# ---------------------------------------------------------------------------
# free group bridge


@dataclass(frozen=True)
class FreeGroupWord:
    """A freely reduced word: factors (symbol, +1|-1), no adjacent cancellation."""

    factors: tuple

    def __post_init__(self):
        for s, e in self.factors:
            if e not in (1, -1):
                raise StructureError(f"exponent must be +-1, got {e!r}")
        for (s1, e1), (s2, e2) in zip(self.factors, self.factors[1:]):
            if s1 == s2 and e1 == -e2:
                raise StructureError("word is not freely reduced")

    def __str__(self):
        if not self.factors:
            return "e"
        return " ".join(s if e == 1 else f"{s}^-1" for s, e in self.factors)


def _reduce_factors(factors) -> tuple:
    stack = []
    for s, e in factors:
        if stack and stack[-1][0] == s and stack[-1][1] == -e:
            stack.pop()
        else:
            stack.append((s, e))
    return tuple(stack)


def free_group_mul(x: FreeGroupWord, y: FreeGroupWord) -> FreeGroupWord:
    return FreeGroupWord(_reduce_factors(x.factors + y.factors))


def free_group_inv(x: FreeGroupWord) -> FreeGroupWord:
    return FreeGroupWord(tuple((s, -e) for s, e in reversed(x.factors)))


def free_group_heap_op(g, h, k) -> FreeGroupWord:
    """[g,h,k] = g h^{-1} k in the heap of the free group."""
    return free_group_mul(free_group_mul(g, free_group_inv(h)), k)


def to_free_group(w, basepoint) -> FreeGroupWord:
    """Evaluate a heap word in the free group on the alphabet minus basepoint.

    Letters at odd positions map to generators, letters at even positions to
    inverse generators, and the basepoint maps to the neutral word.
    """
    w = check_word(w)
    factors = []
    sign = 1
    for s in w:
        if s != basepoint:
            factors.append((s, sign))
        sign = -sign
    return FreeGroupWord(_reduce_factors(factors))


def from_free_group(g: FreeGroupWord, basepoint) -> tuple:
    """The reduced heap word mapping onto g; inverse to ``to_free_group``.

    Walks the factors with an alternating expected sign and inserts the
    basepoint wherever the sign fails to alternate, then pads to odd length.
    """
    letters = []
    expected = 1
    for s, e in g.factors:
        if s == basepoint:
            raise StructureError("free group word may not contain the basepoint symbol")
        if e != expected:
            letters.append(basepoint)
            expected = -expected
        letters.append(s)
        expected = -expected
    if len(letters) % 2 == 0:
        letters.append(basepoint)
    return tuple(letters)


# ---------------------------------------------------------------------------
# evaluation into a concrete heap


def eval_word_in_heap(word, assignment, heap):
    """Left fold of the ternary operation over a word under an assignment.

    Unassigned symbols are an error rather than silently extended.
    """
    values = []
    for s in check_word(word):
        if s not in assignment:
            raise StructureError(f"symbol {s!r} has no assigned value")
        values.append(assignment[s])
    acc = values[0]
    for i in range(1, len(values), 2):
        acc = heap.ternary(acc, values[i], values[i + 1])
    return acc


# ---------------------------------------------------------------------------
# word expressions ("a b a", "[u, v, w]", arbitrarily nested)

_OPEN = {"[": "[", "⟨": "["}
_CLOSE = {"]": "]", "⟩": "]"}


def _tokenize(text):
    tokens = []
    buf = []
    for ch in text:
        if ch in _OPEN or ch in _CLOSE or ch == ",":
            if buf:
                tokens.append("".join(buf))
                buf = []
            tokens.append("[" if ch in _OPEN else ("]" if ch in _CLOSE else ","))
        elif ch.isspace():
            if buf:
                tokens.append("".join(buf))
                buf = []
        else:
            buf.append(ch)
    if buf:
        tokens.append("".join(buf))
    return tokens


def parse_word_expr(text):
    """Parse a word expression into nested ('word', letters) / ('op', u, v, w).

    Accepts ASCII and unicode heap brackets on input; ASCII is canonical on
    output everywhere in this package.  The parser keeps the open ternary
    literals on an explicit stack, so nesting depth is not bounded by the
    interpreter's recursion limit.
    """
    tokens = _tokenize(text)
    pos = 0
    open_parts = []     # one list of parsed parts per open "[ ... ]"
    while True:
        if pos < len(tokens) and tokens[pos] == "[":
            pos += 1
            open_parts.append([])
            continue
        letters = []
        while pos < len(tokens) and tokens[pos] not in ("[", "]", ","):
            letters.append(tokens[pos])
            pos += 1
        if not letters:
            raise StructureError("empty word in expression")
        node = ("word", tuple(letters))
        while open_parts:
            parts = open_parts[-1]
            parts.append(node)
            if len(parts) < 3:
                if pos >= len(tokens) or tokens[pos] != ",":
                    raise StructureError("ternary literal needs three comma-separated parts")
                pos += 1
                break
            if pos >= len(tokens) or tokens[pos] != "]":
                raise StructureError("unclosed ternary literal")
            pos += 1
            open_parts.pop()
            node = ("op", *parts)
        else:
            break
    if pos != len(tokens):
        raise StructureError(f"trailing tokens in word expression: {tokens[pos:]}")
    return node


def _leaves(node):
    """The leaf words of an expression in the order of its flattened word,
    each with whether it is read backwards: [u, v, w] reads u, then v
    backwards, then w; reversing it reads w, v, u with the flags flipped."""
    stack = [(node, False)]
    while stack:
        node, backwards = stack.pop()
        if node[0] == "word":
            yield node[1], backwards
            continue
        _, u, v, w = node
        parts = [(w, backwards), (v, not backwards), (u, backwards)]
        stack.extend(reversed(parts) if backwards else parts)


def eval_expr_free(node) -> tuple:
    """The free heap value.  [u, v, w] prunes u, reversed v, w, and pruning
    is confluent, so the value is the prune of the flattened word."""
    word = []
    for letters, backwards in _leaves(node):
        letters = check_word(letters)
        word.extend(reversed(letters) if backwards else letters)
    return prune(word)


def eval_expr_abelian(node) -> dict:
    """The free Abelian heap value as signed letter counts, sorted by symbol
    with zeros dropped: +1 per odd position of the flattened word, -1 per
    even one.  A leaf read backwards has the same parity at both ends, so it
    counts with its signs flipped."""
    counts = {}
    for letters, backwards in _leaves(node):
        sign = -1 if backwards else 1
        for s in check_word(letters):
            counts[s] = counts.get(s, 0) + sign
            sign = -sign
    return {s: c for s, c in sorted(counts.items()) if c}


def shortest_word(counts) -> tuple:
    """The shortest word with the given signed letter counts: sorted
    positives interleaved with sorted negatives, reduced because no symbol
    has both signs."""
    pos, neg = [], []
    for s, c in sorted(counts.items()):
        (pos if c > 0 else neg).extend([s] * abs(c))
    out = [pos[0]]
    for m, p in zip(neg, pos[1:]):
        out += (m, p)
    return tuple(out)
