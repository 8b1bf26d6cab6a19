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

(``copair_value``).  Word forms over the disjoint union of the summands and
their alternating signed normalization remain for display and parsing.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

from .core import StructureError


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


@dataclass(frozen=True)
class CoproductElement:
    """Canonical form: one component per summand, plus integer tails."""

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

    Satisfies the same carrier protocol as the finite heaps (ternary,
    contains, sample, abelian), so direct sums can themselves be summands.
    """

    is_finite = False

    def __init__(self, summands):
        summands = tuple(summands)
        if not summands:
            raise StructureError("a direct sum needs at least one summand")
        self.summands = summands
        self.k = len(summands)
        self.abelian = True
        self.size = None

    # -- per-slot retract arithmetic --------------------------------------

    def _tern(self, i, a, b, c):
        return self.summands[i].heap.ternary(a, b, c)

    def _add(self, i, a, b):
        return self._tern(i, a, self.summands[i].base, b)

    def _neg(self, i, a):
        e = self.summands[i].base
        return self._tern(i, e, a, e)

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
        components = tuple(
            self._tern(i, x.components[i], y.components[i], z.components[i])
            for i in range(self.k)
        )
        tails = tuple(a - b + c for a, b, c in zip(x.tails, y.tails, z.tails))
        return CoproductElement(components, tails)

    # -- words over the disjoint union --------------------------------------

    def normalize_word(self, letters) -> CoproductElement:
        """Canonical form of a word: the alternating signed sum of its letters.

        A letter is a pair (summand index, carrier element); positions count
        +1, -1, +1, ...  Letters from summand i >= 1 also move tail i-1.
        """
        letters = tuple(letters)
        if len(letters) % 2 == 0:
            raise StructureError(f"word length must be odd, got {len(letters)}")
        components = list(s.base for s in self.summands)
        tails = [0] * (self.k - 1)
        sign = 1
        for letter in letters:
            try:
                i, a = letter
            except (TypeError, ValueError):
                raise StructureError(f"letter {letter!r} is not (summand, element)") from None
            if not isinstance(i, int) or not 0 <= i < self.k:
                raise StructureError(f"letter {letter!r} names no summand")
            if not self.summands[i].heap.contains(a):
                raise StructureError(f"letter {letter!r} is outside its summand")
            if sign == 1:
                components[i] = self._add(i, components[i], a)
            else:
                components[i] = self._add(i, components[i], self._neg(i, a))
            if i >= 1:
                tails[i - 1] += sign
            sign = -sign
        return CoproductElement(tuple(components), tuple(tails))

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

    def enumerate_elements(self, window) -> "Window":
        """All canonical elements with components in each summand's window and
        tails in [-window, window], as a lazy ``Window`` in
        ``itertools.product`` order (the last tail varies fastest).

        Nothing is built up front: ``len`` is the product of the axis
        lengths and indexing decodes a mixed-radix index, so ``rng.choice``
        draws from the window directly.  Where a law is affine in each tail
        (the unit laws of ``trusses.ExtensionTruss``), its values at tails
        {0, 1} fix it on the whole window; ``ExtensionTruss.tail_frame`` is
        that restriction.
        """
        axes = [s.heap.sample(window) for s in self.summands]
        axes += [range(-window, window + 1)] * (self.k - 1)
        return Window(self.k, axes)

    def sample(self, window):
        return self.enumerate_elements(window)

    def __repr__(self):
        return f"DirectSum(k={self.k})"


class Window(Sequence):
    """Canonical elements whose k components and tails range over ``axes``
    (one indexable axis per coordinate, components first), in
    ``itertools.product`` order, without materialising them.

    Item i decodes i in mixed radix, the last axis fastest, so
    ``list(w)[i] == w[i]``.  ``size`` is the exact count; ``len`` gives the
    same number but, like ``len`` of a range, fails beyond ``sys.maxsize``.
    """

    __slots__ = ("k", "axes", "radices", "size")

    def __init__(self, k: int, axes):
        self.k = k
        self.axes = tuple(axes)
        self.radices = tuple(a.size if isinstance(a, Window) else len(a) for a in self.axes)
        self.size = math.prod(self.radices)

    def __len__(self):
        return self.size

    def __getitem__(self, i):
        if i < 0:
            i += self.size
        if not 0 <= i < self.size:
            raise IndexError("window index out of range")
        coords = [None] * len(self.axes)
        for j in range(len(self.axes) - 1, -1, -1):
            i, r = divmod(i, self.radices[j])
            coords[j] = self.axes[j][r]
        return CoproductElement(tuple(coords[:self.k]), tuple(coords[self.k:]))

    def __iter__(self):
        k = self.k
        for coords in itertools.product(*self.axes):
            yield CoproductElement(coords[:k], coords[k:])

    def __repr__(self):
        return f"Window(k={self.k}, size={self.size})"


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


def copair_value(ds: DirectSum, maps, target, x):
    """The copair of ``maps`` (summand i into the Abelian ``target``) at the
    canonical form x = (c; t), in closed form:

        f_0(c_0) + sum_{i>=1} [(f_i(c_i) - f_i(e_i)) + t_{i-1}(f_i(e_i) - f_0(e_0))]

    One call of each map per component and base element; no word is built.
    """
    f0e0 = maps[0](ds.summands[0].base)
    acc = maps[0](x.components[0])
    for i in range(1, ds.k):
        fe = maps[i](ds.summands[i].base)
        acc = shift(target, acc, 1, maps[i](x.components[i]), fe)
        acc = shift(target, acc, x.tails[i - 1], fe, f0e0)
    return acc


@dataclass(frozen=True)
class CopairMorphism:
    """The unique filler through a direct sum of the maps f_i from summand i
    into a common Abelian target; it is affine, so ``copair_value`` gives it
    in closed form and it restricts to f_i along the i-th injection.
    """

    coproduct: DirectSum
    maps: tuple
    target: object

    def __post_init__(self):
        if len(self.maps) != self.coproduct.k:
            raise StructureError("one map per summand is required")
        if not self.target.abelian:
            raise StructureError("the copair target must be an Abelian heap")

    def __call__(self, x):
        return copair_value(self.coproduct, self.maps, self.target, x)


def direct_sum(*summands) -> DirectSum:
    return DirectSum(summands)
