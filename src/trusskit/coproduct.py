"""Direct sums (coproducts) of Abelian heaps with canonical element forms.

The canonical store for an element of a k-fold direct sum is one carrier
element per summand plus k-1 integer tail coordinates; the direct sum is the
heap of the direct sum of the summand retracts and Z^{k-1}, combined
component-wise.  Injections follow the binary convention iterated on the
left: the first summand lands with zero tails, summand i >= 1 carries a unit
in tail i-1.

Arithmetic never builds words.  In an Abelian heap a - b + c is [a, b, c],
so ``shift`` computes acc + k(p - q) by doubling in O(log|k|) operations,
and a heap morphism out of the direct sum is affine, which gives the copair
of maps f_i on x = (c; t) in closed form:

    f(x) = f_0(c_0) + sum_{i>=1} [(f_i(c_i) - f_i(e_i)) + t_{i-1}(f_i(e_i) - f_0(e_0))]

(``CopairMorphism``).  Word forms over the disjoint union of the summands
remain for display and parsing; a word's value is the one fold of words
into Abelian heaps, ``words.eval_word_in_heap``, over its injected letters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .core import StructureError
from .words import eval_word_in_heap


@dataclass(frozen=True)
class HeapSummand:
    """An Abelian heap with a chosen base element."""

    heap: object
    base: object

    def __post_init__(self):
        if not self.heap.abelian:
            raise StructureError("direct sums are built from Abelian heaps only")
        if not self.heap.contains(self.base):
            raise StructureError(f"base element {self.base!r} is not in the carrier")


class CoproductElement(NamedTuple):
    """Canonical form: one component per summand, plus integer tails.  A
    named tuple, so hashing, equality and field access run in C; it equals
    the bare (components, tails) pair, so tests check the result type."""

    components: tuple
    tails: tuple

    @property
    def alpha(self):
        return self.components[0]

    @property
    def beta(self):
        return self.components[1]

    @property
    def n(self) -> int:
        return self.tails[0]

    def __str__(self):
        comps = ", ".join(str(c) for c in self.components)
        tails = ", ".join(str(t) for t in self.tails)
        return f"({comps}; {tails})" if self.tails else f"({comps})"


class DirectSum:
    """The direct sum of one or more Abelian heap summands.

    Satisfies the same carrier protocol as the finite heaps and the integer
    line (ternary, contains, sample, frame, abelian, is_finite), so direct
    sums can themselves be summands, and they are the carrier ``heap`` of
    the extension trusses and the free modules.
    """

    is_finite = False

    def __init__(self, summands):
        summands = tuple(summands)
        if not summands:
            raise StructureError("a direct sum needs at least one summand")
        self.summands = summands
        self.heaps = tuple(s.heap for s in summands)
        self.k = len(summands)
        self.abelian = True
        self.size = None

    def _neg(self, i, a):
        e = self.summands[i].base
        return self.heaps[i].ternary(e, a, e)

    # -- elements ----------------------------------------------------------

    def make(self, components, tails) -> CoproductElement:
        components = tuple(components)
        tails = tuple(tails)
        if len(components) != self.k or len(tails) != self.k - 1:
            raise StructureError("component/tail shape does not match the summands")
        for i, c in enumerate(components):
            if not self.summands[i].heap.contains(c):
                raise StructureError(f"component {c!r} is not in summand {i}")
        for t in tails:
            if not isinstance(t, int):
                raise StructureError("tails must be integers")
        return CoproductElement(components, tails)

    def zero(self) -> CoproductElement:
        return CoproductElement(tuple(s.base for s in self.summands), (0,) * (self.k - 1))

    def inject(self, i, a) -> CoproductElement:
        if not 0 <= i < self.k:
            raise StructureError(f"no summand {i}")
        if not self.summands[i].heap.contains(a):
            raise StructureError(f"element {a!r} is not in summand {i}")
        components = tuple(
            a if j == i else s.base for j, s in enumerate(self.summands)
        )
        tails = tuple(1 if i >= 1 and j == i - 1 else 0 for j in range(self.k - 1))
        return CoproductElement(components, tails)

    def inject_left(self, a) -> CoproductElement:
        return self.inject(0, a)

    def inject_right(self, b) -> CoproductElement:
        if self.k != 2:
            raise StructureError("inject_right needs a binary direct sum")
        return self.inject(1, b)

    def contains(self, x) -> bool:
        if not (isinstance(x, CoproductElement) and len(x.components) == self.k
                and len(x.tails) == self.k - 1):
            return False
        for s, c in zip(self.summands, x.components):
            if not s.heap.contains(c):
                return False
        return all(isinstance(t, int) for t in x.tails)

    # -- the heap operation -------------------------------------------------

    def ternary(self, x, y, z) -> CoproductElement:
        """[x, y, z] slot by slot: each summand heap's ternary on the
        components, x - y + z on the tails; one pass over each."""
        (xc, xt), (yc, yt), (zc, zt) = x, y, z
        return CoproductElement(
            tuple([h.ternary(a, b, c) for h, a, b, c in zip(self.heaps, xc, yc, zc)]),
            tuple([a - b + c for a, b, c in zip(xt, yt, zt)]))

    # -- words over the disjoint union --------------------------------------

    def normalize_word(self, letters) -> CoproductElement:
        """Canonical form of a word: the alternating signed sum of its letters.

        A letter is a pair (summand index, carrier element); positions count
        +1, -1, +1, ...  Letters from summand i >= 1 also move tail i-1.
        The value is ``words.eval_word_in_heap``, the left fold of
        ``ternary``, over the injected letters.
        """
        letters = tuple(letters)
        if len(letters) % 2 == 0:
            raise StructureError(f"word length must be odd, got {len(letters)}")
        word = []
        for letter in letters:
            try:
                i, a = letter
            except (TypeError, ValueError):
                raise StructureError(f"letter {letter!r} is not (summand, element)") from None
            if not isinstance(i, int) or not 0 <= i < self.k:
                raise StructureError(f"letter {letter!r} names no summand")
            if not self.summands[i].heap.contains(a):
                raise StructureError(f"letter {letter!r} is outside its summand")
            word.append((i, a))
        return eval_word_in_heap(word, {x: self.inject(*x) for x in word}, self)

    def word_form(self, x) -> tuple:
        """A representative word for a canonical element.

        Binary sums emit the tail convention (a single letter for injected
        elements, ``a b e_B`` / ``b a e_A`` three-letter forms, and
        alternating base-element tails); larger sums use a generic balanced
        construction.  Either way ``normalize_word`` returns x.
        """
        if self.k == 2:
            return self._binary_word(x)
        plus = [(0, x.components[0])]
        minus = []
        for i in range(1, self.k):
            plus.append((i, x.components[i]))
            delta = x.tails[i - 1] - 1
            if delta > 0:
                plus.extend([(i, self.summands[i].base)] * delta)
            elif delta < 0:
                minus.extend([(i, self.summands[i].base)] * (-delta))
        d = len(plus) - len(minus) - 1
        if d > 0:
            minus.extend([(0, self.summands[0].base)] * d)
        elif d < 0:
            plus.extend([(0, self.summands[0].base)] * (-d))
        word = []
        for j, p in enumerate(plus):
            word.append(p)
            if j < len(minus):
                word.append(minus[j])
        return tuple(word)

    def _binary_word(self, x) -> tuple:
        ea, eb = self.summands[0].base, self.summands[1].base
        alpha, beta = x.components
        m = x.tails[0]
        if m == 0 and beta == eb:
            return ((0, alpha),)
        if m == 1 and alpha == ea:
            return ((1, beta),)
        if m == 0:
            return ((0, alpha), (1, self._neg(1, beta)), (1, eb))
        if m == 1:
            return ((1, beta), (0, self._neg(0, alpha)), (0, ea))
        if m <= -1:
            n = -m
            word = [(0, alpha), (1, self._neg(1, beta))]
            word.extend([(0, ea), (1, eb)] * (n - 1))
            word.append((0, ea))
            return tuple(word)
        n = m - 1
        word = [(1, beta), (0, self._neg(0, alpha))]
        word.extend([(1, eb), (0, ea)] * (n - 1))
        word.append((1, eb))
        return tuple(word)

    # -- the explicit direct-sum group ---------------------------------------

    def to_group_form(self, x) -> tuple:
        """The element of G(A_0;e_0) + ... + Z^{k-1} behind a canonical form."""
        return x.components + x.tails

    def from_group_form(self, coords) -> CoproductElement:
        coords = tuple(coords)
        if len(coords) != 2 * self.k - 1:
            raise StructureError("group form needs one coordinate per summand and tail")
        return self.make(coords[:self.k], coords[self.k:])

    # -- universal property ----------------------------------------------------

    def copair(self, maps, target) -> "CopairMorphism":
        return CopairMorphism(self, tuple(maps), target)

    # -- enumeration -------------------------------------------------------------

    def sample(self, window):
        """All canonical elements with components in each summand's window and
        tails in [-window, window], as a lazy iterator in ``itertools.product``
        order (the last tail varies fastest)."""
        axes = [s.heap.sample(window) for s in self.summands]
        axes += [range(-window, window + 1)] * (self.k - 1)
        k = self.k
        return (CoproductElement(c[:k], c[k:]) for c in itertools.product(*axes))

    def frame(self):
        """A frame of the group form (retracts plus Z^{k-1}), a point and
        that point moved by each generator, from each summand heap's
        ``frame()``: the points with tails 0, then one component moved, then
        one tail 1.  None when a summand has no frame."""
        frames = [s.heap.frame() for s in self.summands]
        if any(f is None for f in frames):
            return None
        point, tails = tuple(f[0] for f in frames), (0,) * (self.k - 1)
        return ([CoproductElement(point, tails)]
                + [CoproductElement(point[:i] + (g,) + point[i + 1:], tails)
                   for i, f in enumerate(frames) for g in f[1:]]
                + [CoproductElement(point, tails[:j] + (1,) + tails[j + 1:])
                   for j in range(self.k - 1)])

    def __repr__(self):
        return f"DirectSum(k={self.k})"


def shift(heap, acc, k: int, p, q):
    """acc + k(p - q) in an Abelian heap, by doubling: O(log|k|) ternary
    operations.  Every step is acc + (p - q) = [acc, q, p], so p = q adds
    nothing."""
    if k < 0:
        k, p, q = -k, q, p
    if p == q:
        return acc
    while k:
        if k & 1:
            acc = heap.ternary(acc, q, p)
        k >>= 1
        if k:
            p = heap.ternary(p, q, p)   # p - q doubles
    return acc


@dataclass(frozen=True)
class CopairMorphism:
    """The unique filler through a direct sum of the maps f_i from summand i
    into a common Abelian target; it restricts to f_i along the i-th injection."""

    coproduct: DirectSum
    maps: tuple
    target: object

    def __post_init__(self):
        if len(self.maps) != self.coproduct.k:
            raise StructureError("one map per summand is required")
        if not self.target.abelian:
            raise StructureError("the copair target must be an Abelian heap")

    def __call__(self, x):
        """The copair at the canonical form x = (c; t), in closed form:

            f_0(c_0) + sum_{i>=1} [(f_i(c_i) - f_i(e_i)) + t_{i-1}(f_i(e_i) - f_0(e_0))]

        One call of each map per component and base element; no word is built.
        """
        ds, maps, target = self.coproduct, self.maps, self.target
        f0e0 = maps[0](ds.summands[0].base)
        acc = maps[0](x.components[0])
        for i in range(1, ds.k):
            fe = maps[i](ds.summands[i].base)
            acc = shift(target, acc, 1, maps[i](x.components[i]), fe)
            acc = shift(target, acc, x.tails[i - 1], fe, f0e0)
        return acc


def direct_sum(*summands) -> DirectSum:
    return DirectSum(summands)
