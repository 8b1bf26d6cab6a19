"""Trusses: Abelian heaps with an associative, two-sided distributive product.

A truss holds its carrier as ``heap`` and adds only the product: finite
trusses have a table over a ``FiniteHeap``, the symbolic ones (the integer
truss, the constant-product trusses) live on the integer line ``INT_LINE``,
and unital and ring extensions adjoin a new identity or absorber by forming
the ``DirectSum`` with a singleton.  An extension's product distributes over
the heap operation in each argument, so it is the bi-affine closed form of
``ExtensionTruss`` in four base products; the letter-wise product over word
forms and the closed formulas of the worked examples live in the tests as
oracles, not here.  One law engine decides trusses and modules exactly, on
every element or on a ``frame()``: a point and that point moved by each
generator of the group form.
"""

from __future__ import annotations

import functools
import itertools
import random

from .coproduct import CoproductElement, DirectSum, HeapSummand, Window, shift
from .core import (
    INT_LINE,
    FiniteHeap,
    StructureError,
    _first_unpreserved,
    _generating_sequence,
    _is_group_heap,
    heap_from_group,
    retract,
)
from .reports import FAIL, PASS, Finding, Report
from .rings import FiniteRing


class FiniteTruss:
    """A truss on a finite Abelian heap, with an explicit product table."""

    __slots__ = ("heap", "mul_table", "size", "names", "identity", "absorber")

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

    def mul(self, a, b):
        return self.mul_table[a][b]

    def sample_elements(self, window):
        return self.heap.elements()

    def frame(self):
        """The basepoint and the greedy generators of the retract there
        (``core._generating_sequence``); None when the carrier is no heap."""
        e = _default_basepoint(self)
        return ([e] + _generating_sequence(retract(self.heap, e))
                if _is_group_heap(self.heap) else None)

    def format_element(self, x) -> str:
        return self.names[x]

    def __eq__(self, other):
        return (isinstance(other, FiniteTruss)
                and self.heap == other.heap and self.mul_table == other.mul_table)

    def __repr__(self):
        return f"FiniteTruss(order={self.size}, unital={self.unital}, ring_type={self.ring_type})"


class IntegerTruss:
    """The truss of the ring of integers: integer heap, ordinary product."""

    heap = INT_LINE
    identity = 1
    absorber = 0
    unital = True
    ring_type = True

    def mul(self, a, b):
        return a * b

    def sample_elements(self, window):
        return range(-window, window + 1)

    def frame(self):
        return [0, 1]

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

    heap = INT_LINE
    identity = None
    unital = False
    ring_type = True

    def __init__(self, c: int):
        self.c = c
        self.absorber = c

    def mul(self, a, b):
        return self.c

    def sample_elements(self, window):
        return range(self.c - window, self.c + window + 1)

    def frame(self):
        return [self.c, self.c + 1]

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

    The base products never see a tail and, over a base truss, are affine
    in g and in h.  So every truss law equates maps affine in each
    argument, which are fixed on a frame of the group form (retract + Z):
    a point and that point moved by each generator.  Once the base's
    product laws hold (``validate_truss`` decides them first), ``frame``
    decides every law exactly.
    """

    def __init__(self, base, adjoined: str, basepoint=None):
        if adjoined not in ("one", "zero"):
            raise StructureError("adjoined element must be 'one' or 'zero'")
        self.base = base
        self.adjoined = adjoined
        self.basepoint = _default_basepoint(base) if basepoint is None else basepoint
        symbol = "1" if adjoined == "one" else "0"
        self.base_heap = base.heap
        self.heap = DirectSum((     # checks the basepoint before it is multiplied
            HeapSummand(self.base_heap, self.basepoint),
            HeapSummand(FiniteHeap.singleton(symbol), 0),
        ))
        self._ee = self._base_mul(self.basepoint, self.basepoint)
        self.adjoined_element = self.heap.inject(1, 0)
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
        return self.heap.inject(0, t)

    def element(self, g, n: int) -> CoproductElement:
        """The canonical element with base-carrier component g and tail n."""
        return self.heap.make((g, 0), (n,))

    def sample_elements(self, window):
        return self.heap.sample(window)

    def frame(self):
        """The base's frame at tail 0 and its first point at tail 1; None
        when the base has no frame."""
        base = _frame(self.base)
        return None if base is None else self.heap.frame((base, (0,)))

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
        """(g; m) as g + m*1 in T1 at an absorber, in T0 as a multiple of the
        constant, absorber or identity basepoint e plus u(g) = g - e when g
        != e, else as the pair (g; m); distinct elements get distinct labels."""
        base, e = self.base, self.basepoint
        g, m = x.components[0], x.tails[0]
        if self.adjoined == "one" and e == base.absorber:
            return f"{base.format_element(g)} + {m}*1"
        if self.adjoined == "zero":
            if isinstance(base, ConstantTruss):
                return f"{1 - m}*i{g}" if g == base.c else f"i{g} + {-m}*i{base.c}"
            if e in (base.absorber, base.identity):
                head = "" if g == e else f"u({base.format_element(g)}) + "
                return f"{head}{1 - m}*{base.format_element(e)}"
        return f"({base.format_element(g)}; {m})"

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
# validation: one law engine over finite pools


ASSOCIATIVE = "action associativity t(t'm) = (tt')m"
LINEAR_IN_T = "distributivity [t,t',t'']m"
LINEAR_IN_M = "distributivity t[m,m',m'']"


def _frame(c):
    return c.frame() if getattr(c, "frame", None) else None


def _pool(c):
    """Every element of a finite carrier, else its frame (None without one)."""
    return c.heap.elements() if c.heap.is_finite else _frame(c)


def _draw(rng, pool):
    """A uniform element of an indexable pool: the draw of ``rng.choice``,
    but a ``Window`` gives its exact size, where len() stops at sys.maxsize."""
    return pool[rng.randrange(pool.size if isinstance(pool, Window) else len(pool))]


class _Memo(dict):
    """x |-> f(x), each value computed once, on first use."""

    def __init__(self, f):
        self.f = f

    def __missing__(self, x):
        self[x] = value = self.f(x)
        return value


def _action_laws(t, act, m, pools, *, samples=None, window=None, seed=None, sweep=True):
    """The three laws of an action ``act`` of the truss t on m (of t on
    itself, for a truss): (law, at, lhs, rhs) findings, the instances per
    law, the swept maps and the pool for the unit laws.

    On pools (ts, ms), every element of a finite carrier or the frame of a
    symbolic one, every instance is decided.  Distributivity says that
    t |-> t.x (T -> M) and x |-> a.x (M -> M) are heap maps, which a map
    is once it preserves [u,e,v] for u, v in the pool (Certaine 1943,
    ``core._first_unpreserved``; both sides are affine in u and in v).
    Only a failing map is swept ("morphism rows"), and every map when a
    finite carrier is no heap ("sweep").  Without ``sweep``, a failing law
    decides: failing associativity returns at once, a failing map is listed
    at its first failure.  Without pools, each of ``samples`` seeded draws
    takes a, b, c and x, y, z from the windows, the drawn x the unit pool.
    """
    found = []
    tern_t, tern_m = t.heap.ternary, m.heap.ternary
    if pools is None:
        rng, drawn = random.Random(seed), []
        tw, mw = t.sample_elements(window), m.sample_elements(window)
        for _ in range(samples):
            a, b, c, x, y, z = (_draw(rng, w) for w in (tw, tw, tw, mw, mw, mw))
            found += [f for f in (
                (ASSOCIATIVE, (a, b, x), act(a, act(b, x)), act(t.mul(a, b), x)),
                (LINEAR_IN_T, (a, b, c, x), act(tern_t(a, b, c), x),
                 tern_m(act(a, x), act(b, x), act(c, x))),
                (LINEAR_IN_M, (a, x, y, z), act(a, tern_m(x, y, z)),
                 tern_m(act(a, x), act(a, y), act(a, z)))) if f[2] != f[3]]
            drawn.append(x)
        return found, dict.fromkeys((ASSOCIATIVE, LINEAR_IN_T, LINEAR_IN_M), samples), None, drawn
    ts, ms = pools
    if t.heap.is_finite and m.heap.is_finite:   # rows[a][x] = a.x, precomputed
        rows = [[act(a, x) for x in ms] for a in ts]
    else:                                       # or computed once, on first use
        rows = _Memo(lambda a: _Memo(functools.partial(act, a)))
    for a, b in itertools.product(ts, repeat=2):
        ra, rb, rab = rows[a], rows[b], rows[t.mul(a, b)]
        found += [(ASSOCIATIVE, (a, b, x), ra[rb[x]], rab[x]) for x in ms if ra[rb[x]] != rab[x]]
    nt, nm = len(ts), len(ms)
    checked = {ASSOCIATIVE: nt * nt * nm, LINEAR_IN_T: nt ** 3 * nm, LINEAR_IN_M: nt * nm ** 3}
    if found and not sweep:
        return found, checked, ("unchecked", [], []), ms
    if all(_is_group_heap(h) for h in ((t.heap,) if m.heap is t.heap else (t.heap, m.heap))
           if h.is_finite):
        algorithm = "morphism rows"
        first_m = {x: w for x in ms if (w := _first_unpreserved(
            tern_t, tern_m, _Memo(lambda u: rows[u][x]), ts))}
        first_t = {a: w for a in ts if (w := _first_unpreserved(tern_m, tern_m, rows[a], ms))}
        swept_m, swept_t = list(first_m), list(first_t)
    else:
        algorithm, swept_m, swept_t = "sweep", list(ms), list(ts)
    if sweep or algorithm == "sweep":
        at_t = ((abc, swept_m) for abc in itertools.product(ts, repeat=3)) if swept_m else ()
        at_m = ((a, itertools.product(ms, repeat=3)) for a in swept_t)
    else:
        at_t, at_m = ([(w, (x,)) for x, w in first_m.items()],
                      [(a, (w,)) for a, w in first_t.items()])
    for (a, b, c), xs in at_t:
        ra, rb, rc, rabc = rows[a], rows[b], rows[c], rows[tern_t(a, b, c)]
        for x in xs:
            lhs, rhs = rabc[x], tern_m(ra[x], rb[x], rc[x])
            if lhs != rhs:
                found.append((LINEAR_IN_T, (a, b, c, x), lhs, rhs))
    for a, xyzs in at_m:
        ra = rows[a]
        for x, y, z in xyzs:
            lhs, rhs = ra[tern_m(x, y, z)], tern_m(ra[x], ra[y], ra[z])
            if lhs != rhs:
                found.append((LINEAR_IN_M, (a, x, y, z), lhs, rhs))
    return found, checked, (algorithm, swept_m, swept_t), ms


def _product_laws(t, pool, sweep=True, **draws):
    """Associativity and both distributive laws of t acting on itself:
    (findings in the order of the (s, a, b, c) sweep, instances per law,
    distributivity, unit pool, base status).  A framed extension decides
    its base first, recursively (the base's unit laws do not matter); a
    base finding decides, lifted to tail 0, where the base embeds (``sweep``
    as in ``_action_laws``)."""
    base = None
    if isinstance(t, ExtensionTruss) and pool is not None:
        found, per_law, rows, _, _ = _product_laws(t.base, _pool(t.base), sweep=sweep)
        if found:
            up = t.inject
            return ([Finding(f.law, tuple(map(up, f.at)), up(f.lhs), up(f.rhs)) for f in found],
                    per_law, {**rows, "swept": list(map(up, rows["swept"]))}, [], FAIL)
        base = PASS
    found, per_law, rows, units = _action_laws(
        t, t.mul, t, None if pool is None else (pool, pool), sweep=sweep, **draws)
    findings = [Finding("product associativity", at, rhs, lhs) if law == ASSOCIATIVE  # (ab)c first
                else Finding("left distributivity over [,,]", at, lhs, rhs) if law == LINEAR_IN_M
                else Finding("right distributivity over [,,]", at[3:] + at[:3], lhs, rhs)
                for law, at, lhs, rhs in found]
    if rows is not None:    # in the order of the (s, a, b, c) sweep, left law first
        index = {x: i for i, x in enumerate(pool)}
        findings.sort(key=lambda f: (f.law != "product associativity",
                                     [index[x] for x in f.at], f.law.startswith("right")))
        rows = {"algorithm": rows[0], "swept": [s for s in pool if s in rows[1] or s in rows[2]]}
    per_law = (per_law[ASSOCIATIVE], per_law[LINEAR_IN_M])
    return findings, per_law, rows, units, base


def validate_truss(t, *, samples=10_000, window=5, seed=2026) -> Report:
    """Associativity and both distributive laws, then the identity and
    absorber laws (scanned for finite trusses, declared otherwise), on the
    law engine (``_action_laws``) over every element of a finite truss or
    the ``frame()`` of a symbolic one; an extension decides its base first.
    Only a carrier with no frame is sampled: ``samples`` seeded draws from
    ``sample_elements(window)``, the unit laws on the drawn elements.

    ``checked`` counts the product-law instances; ``checked_by_law`` every
    law, the unit laws by their pool; ``unit_laws`` names the pool
    ("exhaustive", "frame" or "sampled") and its size; ``distributivity``
    the algorithm and the swept s.  A symbolic truss reports ``frame`` (its
    size) or ``sampled``, an extension whether its ``base`` passed.
    """
    pool = _pool(t)
    findings, per_law, distributivity, units, base = _product_laws(
        t, pool, samples=samples, window=window, seed=seed)
    one, zero, mul = t.identity, t.absorber, t.mul
    findings += [Finding("identity law", (x,), mul(one, x), x) for x in units
                 if one is not None and (mul(one, x) != x or mul(x, one) != x)]
    findings += [Finding("absorber law", (x,), mul(zero, x), zero) for x in units
                 if zero is not None and (mul(zero, x) != zero or mul(x, zero) != zero)]
    finite = t.heap.is_finite
    algorithm = "exhaustive" if finite else "sampled" if pool is None else "frame"
    stats = {
        "checked": per_law[0] + 2 * per_law[1],
        "checked_by_law": {
            "product associativity": per_law[0],
            "left distributivity over [,,]": per_law[1],
            "right distributivity over [,,]": per_law[1],
            "identity law": 0 if one is None else len(units),
            "absorber law": 0 if zero is None else len(units),
        },
        "unital": one is not None,
        "ring_type": zero is not None,
        "identity": None if one is None else t.format_element(one),
        "absorber": None if zero is None else t.format_element(zero),
        "exhaustive": finite,
        "unit_laws": {"algorithm": algorithm,
                      "evaluated": 0 if one is None and zero is None else len(units)},
    }
    if distributivity is not None:
        stats["distributivity"] = distributivity
    if pool is None:
        stats["sampled"] = {"samples": samples, "window": window, "seed": seed}
    elif not finite:
        stats["frame"] = len(pool)
    if base is not None:
        stats["base"] = base
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
        return self.truss.heap.ternary(a, self.zero, b)

    def neg(self, a):
        return self.truss.heap.ternary(self.zero, a, self.zero)

    def mul(self, a, b):
        return self.truss.mul(a, b)

    def scale(self, k: int, a):
        return shift(self.truss.heap, self.zero, k, a, self.zero)

    def __repr__(self):
        return f"RetractRing({self.truss!r})"


def _check_absorber(t, zero):
    """Raise unless zero absorbs on both sides, decided on the pool of t:
    every element, or the frame once a symbolic t is a truss; a first failing law decides."""
    if t.absorber is not None and zero == t.absorber:
        return
    pool = _pool(t)
    if pool is not None and any(t.mul(zero, x) != zero or t.mul(x, zero) != zero for x in pool):
        raise StructureError(f"{zero!r} is not a two-sided absorber")
    if pool is None or not t.heap.is_finite and _product_laws(t, pool, sweep=False)[0]:
        raise StructureError(f"cannot decide that {zero!r} absorbs: not a truss with a frame")


def retract_ring(t, zero):
    """The ring on a ring-type truss with the given absorber as its zero."""
    if not t.heap.contains(zero):
        raise StructureError(f"{zero!r} is not in the carrier")
    _check_absorber(t, zero)
    if t.heap.is_finite:
        add = retract(t.heap, zero)
        return FiniteRing(add, t.mul_table, names=t.names)
    return RetractRing(t, zero)


def dorroh_compare(ring: FiniteRing, window: int = 3) -> Report:
    """Check the unital-extension retract of T(R) against the Dorroh product
    (r+n)(r'+n') = rr' + rn' + nr' + nn' on every tail pair in Z^2, up to the
    first mismatch, at (r, n, r', n').  Both sides are a + n.b + n'.c + nn'.d
    with tail nn', so the 4|R|^2 products at tails {0, 1}^2 decide ("frame");
    ``window`` decides nothing and is only checked and echoed, for the CLI."""
    if window <= 0:
        raise StructureError("window must be positive")
    t1 = unital_extension(truss_from_ring(ring))
    stats = {"ring": ring.size, "window": window, "algorithm": "frame"}
    frame = itertools.product(range(ring.size), range(ring.size), (0, 1), (0, 1))
    for checked, (r, rp, n, np_) in enumerate(frame, 1):
        got = t1.mul(t1.element(r, n), t1.element(rp, np_))
        r_part = ring.plus(ring.plus(ring.mul(r, rp), ring.scale(np_, r)), ring.scale(n, rp))
        want = t1.element(r_part, n * np_)
        if got != want:
            return Report("dorroh comparison", FAIL,
                          [Finding("Dorroh product", (r, n, rp, np_), str(got), str(want))],
                          {**stats, "checked": checked})
    return Report("dorroh comparison", PASS, [], {**stats, "checked": checked})
