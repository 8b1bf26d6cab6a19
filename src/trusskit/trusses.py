"""Trusses: Abelian heaps with an associative, two-sided distributive product.

Finite trusses are table-backed; the built-in symbolic trusses (the integer
truss, the constant-product trusses on the integer heap, the C2 brace truss)
never materialise their carriers.  Unital and ring extensions adjoin a new
identity or absorber by forming the direct sum with a singleton.  Their
product distributes over the heap operation in each argument, so it is the
bi-affine closed form of ``ExtensionTruss`` in four base products; the
letter-wise product over word forms and the closed formulas of the worked
examples live in the tests as oracles, not here.  Being affine in each tail,
an extension's identity and absorber laws are decided on the {0, 1}-tail
frame of a window (``ExtensionTruss.tail_frame``), and sampled laws draw
from the lazy window itself (``coproduct.Window``).
"""

from __future__ import annotations

import itertools
import random

from .coproduct import CoproductElement, DirectSum, HeapSummand, Window, shift
from .core import (
    INT_LINE,
    FiniteHeap,
    StructureError,
    _first_unpreserved,
    _is_group_heap,
    heap_from_group,
    retract,
)
from .reports import FAIL, PASS, Finding, Report
from .rings import FiniteRing


class FiniteTruss:
    """A truss on a finite Abelian heap, with an explicit product table."""

    __slots__ = ("heap", "mul_table", "size", "names", "identity", "absorber")

    is_finite = True

    def __init__(self, heap: FiniteHeap, mul_table, names=None):
        if not heap.abelian:
            raise StructureError("a truss carrier must be an Abelian heap")
        self.heap = heap
        self.size = heap.size
        self.mul_table = tuple(tuple(row) for row in mul_table)
        if len(self.mul_table) != self.size or any(len(r) != self.size for r in self.mul_table):
            raise StructureError("product table does not match the carrier")
        ids = range(self.size)
        if not all(v in ids for r in self.mul_table for v in r):
            raise StructureError(f"product table entries must be element ids 0..{self.size - 1}")
        self.names = tuple(names) if names is not None else heap.names
        self.identity = next(
            (e for e in range(self.size)
             if all(self.mul_table[e][x] == x == self.mul_table[x][e]
                    for x in range(self.size))),
            None,
        )
        self.absorber = next(
            (z for z in range(self.size)
             if all(self.mul_table[z][x] == z == self.mul_table[x][z]
                    for x in range(self.size))),
            None,
        )

    @property
    def unital(self):
        return self.identity is not None

    @property
    def ring_type(self):
        return self.absorber is not None

    def ternary(self, a, b, c):
        return self.heap.ternary(a, b, c)

    def mul(self, a, b):
        return self.mul_table[a][b]

    def elements(self):
        return range(self.size)

    def sample_elements(self, window):
        return range(self.size)

    def contains(self, x):
        return self.heap.contains(x)

    def carrier_heap(self):
        return self.heap

    def format_element(self, x) -> str:
        return self.names[x]

    def __len__(self):
        return self.size

    def __eq__(self, other):
        return (isinstance(other, FiniteTruss)
                and self.heap == other.heap and self.mul_table == other.mul_table)

    def __repr__(self):
        return f"FiniteTruss(order={self.size}, unital={self.unital}, ring_type={self.ring_type})"


class IntegerTruss:
    """The truss of the ring of integers: integer heap, ordinary product."""

    is_finite = False
    size = None
    identity = 1
    absorber = 0
    unital = True
    ring_type = True

    def ternary(self, a, b, c):
        return a - b + c

    def mul(self, a, b):
        return a * b

    def contains(self, x):
        return isinstance(x, int)

    def sample_elements(self, window):
        return range(-window, window + 1)

    def carrier_heap(self):
        return INT_LINE

    def format_element(self, x) -> str:
        return str(x)

    def __eq__(self, other):
        return isinstance(other, IntegerTruss)

    def __repr__(self):
        return "IntegerTruss()"


class ConstantTruss:
    """The integer heap with the constant product i_m i_n = i_c.

    The constant c is the absorber; there is no identity.
    """

    is_finite = False
    size = None
    identity = None
    unital = False
    ring_type = True

    def __init__(self, c: int):
        self.c = c
        self.absorber = c

    def ternary(self, a, b, c):
        return a - b + c

    def mul(self, a, b):
        return self.c

    def contains(self, x):
        return isinstance(x, int)

    def sample_elements(self, window):
        return range(self.c - window, self.c + window + 1)

    def carrier_heap(self):
        return INT_LINE

    def format_element(self, x) -> str:
        return f"i{x}"

    def __eq__(self, other):
        return isinstance(other, ConstantTruss) and self.c == other.c

    def __repr__(self):
        return f"ConstantTruss(c={self.c})"


def truss_from_ring(ring) -> FiniteTruss | IntegerTruss:
    """T(R): the heap of the additive group with the ring multiplication."""
    if ring == "Z" or isinstance(ring, IntegerTruss):
        return IntegerTruss()
    if not isinstance(ring, FiniteRing):
        raise StructureError("expected a FiniteRing or the symbolic ring 'Z'")
    return FiniteTruss(heap_from_group(ring.add), ring.mul_table, names=ring.names)


def truss_TZn(n: int) -> FiniteTruss:
    names = tuple(f"i{k}" for k in range(n))
    ring = FiniteRing.Zn(n)
    return FiniteTruss(heap_from_group(ring.add), ring.mul_table, names=names)


def tc2_brace_truss() -> FiniteTruss:
    """The truss of the two-element brace: heap of C2, product x.y = x+y."""
    heap = FiniteHeap.from_function(
        2, lambda x, y, z: x ^ y ^ z, names=("a", "b"), abelian=True)
    return FiniteTruss(heap, ((0, 1), (1, 0)))


def terminal_truss() -> FiniteTruss:
    return FiniteTruss(FiniteHeap.singleton(), ((0,),))


def integer_truss() -> IntegerTruss:
    return IntegerTruss()


def constant_truss(c: int) -> ConstantTruss:
    return ConstantTruss(c)


# ---------------------------------------------------------------------------
# extensions


def _default_basepoint(truss):
    if truss.absorber is not None:
        return truss.absorber
    if truss.identity is not None:
        return truss.identity
    return 0


class ExtensionTruss:
    """T with a singleton truss adjoined: the unital extension T1 (new
    identity) or the ring extension T0 (new absorber).

    Elements are canonical direct-sum forms (g; m): a base-carrier
    component and an integer tail, the singleton component suppressed.  In
    the retract of the base carrier at the basepoint e, (g; m) is
    g + m(adjoined - e), and the product is bi-affine in four base products:

        T1: (g; m)(h; n) = (gh + n(g - ge) + m(h - eh) + mn.ee;  mn)
        T0: (g; m)(h; n) = (gh - n.ge - m.eh + mn.ee;  n + m - mn)

    Over the integer truss with e = 0, T1 is the Dorroh product.  A base
    product outside the carrier raises StructureError.

    The base products gh, ge, eh and ee never see a tail.  So for fixed u
    and fixed base components of x, u.x and x.u are affine in each integer
    tail of x, the inner tail of a nested extension included; so are x and
    u.  A map into an Abelian group that is affine in each tail separately
    is fixed by its values at tails {0, 1}, hence the identity and absorber
    laws (and "z absorbs") hold on a window exactly when they hold on its
    ``tail_frame``.
    """

    is_finite = False
    size = None

    def __init__(self, base, adjoined: str, basepoint=None):
        if adjoined not in ("one", "zero"):
            raise StructureError("adjoined element must be 'one' or 'zero'")
        self.base = base
        self.adjoined = adjoined
        self.basepoint = _default_basepoint(base) if basepoint is None else basepoint
        symbol = "1" if adjoined == "one" else "0"
        self.base_heap = base.carrier_heap()
        self._ee = self._base_mul(self.basepoint, self.basepoint)
        self.ds = DirectSum((
            HeapSummand(self.base_heap, self.basepoint),
            HeapSummand(FiniteHeap.singleton(symbol), 0),
        ))
        self.adjoined_element = self.ds.inject(1, 0)
        if adjoined == "one":
            self.identity = self.adjoined_element
            self.absorber = None if base.absorber is None else self.inject(base.absorber)
        else:
            self.absorber = self.adjoined_element
            self.identity = None if base.identity is None else self.inject(base.identity)

    @property
    def unital(self):
        return self.identity is not None

    @property
    def ring_type(self):
        return self.absorber is not None

    def inject(self, t) -> CoproductElement:
        return self.ds.inject(0, t)

    def element(self, g, n: int) -> CoproductElement:
        """The canonical element with base-carrier component g and tail n."""
        return self.ds.make((g, 0), (n,))

    def ternary(self, x, y, z):
        return self.ds.ternary(x, y, z)

    def contains(self, x):
        return self.ds.contains(x)

    def carrier_heap(self):
        return self.ds

    def sample_elements(self, window):
        return self.ds.enumerate_elements(window)

    def tail_frame(self, window):
        """The window's base components with every tail restricted to
        {0, 1} (to {0} at window 0), a nested extension restricted the same
        way: a subset of ``sample_elements(window)`` on which the unit laws
        are decided for the whole window (see the class docstring)."""
        base = (self.base.tail_frame(window) if isinstance(self.base, ExtensionTruss)
                else self.base_heap.sample(window))
        tails = [k for k in (0, 1) if k <= window]
        return Window(2, (base, self.ds.summands[1].heap.sample(window), tails))

    def elements(self):
        return None

    def _base_mul(self, a, b):
        v = self.base.mul(a, b)
        if not self.base_heap.contains(v):
            raise StructureError(f"base product {a!r}.{b!r} = {v!r} is outside the carrier")
        return v

    def mul(self, x, y) -> CoproductElement:
        (g, _), (m,) = x.components, x.tails
        (h, _), (n,) = y.components, y.tails
        e, heap, times = self.basepoint, self.base_heap, self._base_mul
        gh, ge, eh, ee = times(g, h), times(g, e), times(e, h), self._ee
        if self.adjoined == "one":
            c = shift(heap, shift(heap, gh, n, g, ge), m, h, eh)
            tail = m * n
        else:
            c = shift(heap, shift(heap, gh, -n, ge, e), -m, eh, e)
            tail = n + m - m * n
        return CoproductElement((shift(heap, c, m * n, ee, e), 0), (tail,))

    def format_element(self, x) -> str:
        return f"({self.base.format_element(x.components[0])}; {x.tails[0]})"

    def __eq__(self, other):
        return (isinstance(other, ExtensionTruss)
                and self.adjoined == other.adjoined and self.base == other.base
                and self.basepoint == other.basepoint)

    def __repr__(self):
        return f"ExtensionTruss({self.base!r}, adjoined={self.adjoined})"


def unital_extension(t) -> ExtensionTruss:
    """Adjoin a new multiplicative identity; an existing absorber survives,
    an existing identity is demoted to an ordinary element."""
    return ExtensionTruss(t, "one")


def ring_extension(t) -> ExtensionTruss:
    """Adjoin a new absorber; an existing identity survives, an existing
    absorber stops absorbing."""
    return ExtensionTruss(t, "zero")


def double_extension(t) -> ExtensionTruss:
    """Ring extension of the unital extension: unital and ring-type."""
    return ring_extension(unital_extension(t))


# ---------------------------------------------------------------------------
# validation


def _unit_frame(t, window):
    """(algorithm, elements) on which the identity and absorber laws are
    decided for the whole window: every element of a finite truss, the tail
    frame of an extension (exact by the lemma of ``ExtensionTruss``), the
    window itself otherwise."""
    if t.is_finite:
        return "exhaustive", t.elements()
    if isinstance(t, ExtensionTruss):
        return "tail frame", t.tail_frame(window)
    return "window", t.sample_elements(window)


def _unit_law_findings(t, pool):
    findings = []
    if t.identity is not None:
        for x in pool:
            if t.mul(t.identity, x) != x or t.mul(x, t.identity) != x:
                findings.append(Finding("identity law", (x,),
                                        t.mul(t.identity, x), x))
    if t.absorber is not None:
        for x in pool:
            if t.mul(t.absorber, x) != t.absorber or t.mul(x, t.absorber) != t.absorber:
                findings.append(Finding("absorber law", (x,),
                                        t.mul(t.absorber, x), t.absorber))
    return findings


def validate_truss(t, *, samples=10_000, window=5, seed=2026) -> Report:
    """Associativity and both distributive laws, then the identity and
    absorber laws.

    Finite trusses are checked exhaustively; symbolic carriers are sampled on
    a deterministic window, drawn lazily from ``sample_elements(window)``.
    The identity/absorber elements (scanned for finite trusses, declared by
    construction otherwise) are decided for every element of the window.
    On an extension they are evaluated on the tail frame only (164 elements
    where the window of T01(TZ) at window 20 has 68 921): its values at
    tails {0, 1} fix each law on the whole window.  Only when the frame
    shows a violation is the full window swept, so the findings are those
    of the sweep.  ``checked`` counts the instances of the three product
    laws; ``checked_by_law`` counts every law, the unit laws by the window
    elements they are decided for; ``unit_laws`` names the algorithm
    ("exhaustive", "tail frame" or "window", the last also after a frame
    violation) and how many elements it evaluated.

    On a finite truss the distributive laws say that every left
    multiplication x |-> s.x and every right multiplication x |-> x.s is a
    heap endomorphism.  On a heap, a map that preserves [x,0,y] is a group
    map from the retract at 0 to the retract at f(0), so it preserves every
    [x,y,z] (Certaine 1943; ``core._first_unpreserved``).  When the carrier
    passes the retract test (``core._is_group_heap``), each row and column
    is decided in O(n^2) and the (a, b, c) sweep of both laws runs only for
    an s whose row or column fails: a pass is O(n^3), and the findings are
    the sweep's, in its order.  A carrier that is not a heap is swept for
    every s.  ``distributivity`` names the algorithm ("morphism rows" or
    "sweep") and lists the swept s.  ``checked`` counts the instances
    decided either way.
    """
    findings = []
    distributivity = None
    if t.is_finite:
        n = t.size
        ids = range(n)
        rows = [[t.mul(s, x) for x in ids] for s in ids]
        for a, b, c in itertools.product(ids, repeat=3):
            if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                findings.append(Finding("product associativity", (a, b, c),
                                        rows[rows[a][b]][c], rows[a][rows[b][c]]))
        if _is_group_heap(t):
            swept = [s for s in ids
                     if _first_unpreserved(t.ternary, t.ternary, rows[s]) is not None
                     or _first_unpreserved(t.ternary, t.ternary,
                                           [row[s] for row in rows]) is not None]
            distributivity = {"algorithm": "morphism rows", "swept": swept}
        else:
            swept = list(ids)
            distributivity = {"algorithm": "sweep", "swept": swept}
        for s in swept:
            row = rows[s]
            for a, b, c in itertools.product(ids, repeat=3):
                abc = t.ternary(a, b, c)
                lhs, rhs = row[abc], t.ternary(row[a], row[b], row[c])
                if lhs != rhs:
                    findings.append(Finding("left distributivity over [,,]",
                                            (s, a, b, c), lhs, rhs))
                lhs, rhs = rows[abc][s], t.ternary(rows[a][s], rows[b][s], rows[c][s])
                if lhs != rhs:
                    findings.append(Finding("right distributivity over [,,]",
                                            (s, a, b, c), lhs, rhs))
        per_law = (n ** 3, n ** 4)
        pool = t.elements()
    else:
        rng = random.Random(seed)
        pool = t.sample_elements(window)
        for _ in range(samples):
            a, b, c, s = (rng.choice(pool) for _ in range(4))
            if t.mul(t.mul(a, b), c) != t.mul(a, t.mul(b, c)):
                findings.append(Finding("product associativity", (a, b, c),
                                        t.mul(t.mul(a, b), c), t.mul(a, t.mul(b, c))))
            lhs = t.mul(s, t.ternary(a, b, c))
            rhs = t.ternary(t.mul(s, a), t.mul(s, b), t.mul(s, c))
            if lhs != rhs:
                findings.append(Finding("left distributivity over [,,]", (s, a, b, c), lhs, rhs))
            lhs = t.mul(t.ternary(a, b, c), s)
            rhs = t.ternary(t.mul(a, s), t.mul(b, s), t.mul(c, s))
            if lhs != rhs:
                findings.append(Finding("right distributivity over [,,]", (s, a, b, c), lhs, rhs))
        per_law = (samples, samples)
    has_units = t.identity is not None or t.absorber is not None
    algorithm, frame = _unit_frame(t, window)
    unit_findings = _unit_law_findings(t, frame)
    evaluated = len(frame) if has_units else 0
    if unit_findings and algorithm == "tail frame":
        # the frame decides that the laws hold; a violation is listed in full
        unit_findings = _unit_law_findings(t, pool)
        algorithm, evaluated = "window", evaluated + len(pool)
    findings += unit_findings
    by_law = {
        "product associativity": per_law[0],
        "left distributivity over [,,]": per_law[1],
        "right distributivity over [,,]": per_law[1],
        "identity law": 0 if t.identity is None else len(pool),
        "absorber law": 0 if t.absorber is None else len(pool),
    }
    stats = {
        "checked": per_law[0] + 2 * per_law[1],
        "checked_by_law": by_law,
        "unital": t.identity is not None,
        "ring_type": t.absorber is not None,
        "identity": None if t.identity is None else t.format_element(t.identity),
        "absorber": None if t.absorber is None else t.format_element(t.absorber),
        "exhaustive": t.is_finite,
        "unit_laws": {"algorithm": algorithm, "evaluated": evaluated},
    }
    if distributivity is not None:
        stats["distributivity"] = distributivity
    return Report("truss", FAIL if findings else PASS, findings, stats)


# ---------------------------------------------------------------------------
# retract rings


class RetractRing:
    """The ring living on a (possibly symbolic) ring-type truss: addition is
    the retract group at the absorber, multiplication is the truss product."""

    __slots__ = ("truss", "zero")

    def __init__(self, truss, zero):
        self.truss = truss
        self.zero = zero

    @property
    def one(self):
        return self.truss.identity

    def plus(self, a, b):
        return self.truss.ternary(a, self.zero, b)

    def neg(self, a):
        return self.truss.ternary(self.zero, a, self.zero)

    def mul(self, a, b):
        return self.truss.mul(a, b)

    def scale(self, k: int, a):
        return shift(self.truss, self.zero, k, a, self.zero)

    def sample_elements(self, window):
        return self.truss.sample_elements(window)

    def __repr__(self):
        return f"RetractRing({self.truss!r})"


def _check_absorber(t, zero, window=4):
    """Raise unless zero absorbs on both sides over the window, decided on
    the unit-law frame (exact for every tail of an extension)."""
    if t.absorber is not None and zero == t.absorber:
        return
    for x in _unit_frame(t, window)[1]:
        if t.mul(zero, x) != zero or t.mul(x, zero) != zero:
            raise StructureError(f"{zero!r} is not a two-sided absorber")


def retract_ring(t, zero):
    """The ring on a ring-type truss with the given absorber as its zero."""
    if not t.contains(zero):
        raise StructureError(f"{zero!r} is not in the carrier")
    _check_absorber(t, zero)
    if t.is_finite:
        add = retract(t.heap, zero)
        return FiniteRing(add, t.mul_table, names=t.names)
    return RetractRing(t, zero)


def dorroh_compare(ring: FiniteRing, window: int = 3) -> Report:
    """Check the unital-extension retract of T(R) against the Dorroh product
    (r+n)(r'+n') = rr' + rn' + nr' + nn' on the full window; stops at the
    first mismatch."""
    if window <= 0:
        raise StructureError("window must be positive")
    t1 = unital_extension(truss_from_ring(ring))
    checked = 0
    for r, rp in itertools.product(range(ring.size), repeat=2):
        for n, np_ in itertools.product(range(-window, window + 1), repeat=2):
            x = t1.element(r, n)
            y = t1.element(rp, np_)
            got = t1.mul(x, y)
            r_part = ring.plus(ring.plus(ring.mul(r, rp), ring.scale(np_, r)),
                               ring.scale(n, rp))
            want = t1.element(r_part, n * np_)
            checked += 1
            if got != want:
                return Report("dorroh comparison", FAIL,
                              [Finding("Dorroh product", (r, n, rp, np_), str(got), str(want))],
                              {"ring": ring.size, "window": window, "checked": checked})
    return Report("dorroh comparison", PASS, [],
                  {"ring": ring.size, "window": window, "checked": checked})
