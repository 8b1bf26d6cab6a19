"""Trusses: Abelian heaps with an associative, two-sided distributive product.

A truss holds its carrier as ``heap`` and adds only the product: finite
trusses have a table over a ``FiniteHeap`` (``FiniteTruss``, from ``core``),
the symbolic ones (the integer truss, the constant-product trusses) live on
the integer line ``INT_LINE``, and unital and ring extensions adjoin a new
identity or absorber by forming the ``DirectSum`` with a singleton.  T(R)
is ``ring.truss``, and ``retract_ring`` points a truss, shared, at an
absorber (``rings.Ring``).  An extension's product distributes over
the heap operation in each argument, so it is the bi-affine closed form of
``ExtensionTruss`` in four base products; the letter-wise product over word
forms and the closed formulas of the worked examples live in the tests as
oracles, not here.  That form has two halves: A reads the right factor
only through its component and M only through its tail.
``ExtensionTruss.mul`` applies M to A by shifts, making only the base
products they read (ge and eh only against a non-zero tail), and
``product_table`` is its row form: each distinct base product once, A once
per row and distinct component, M once per row and distinct tail, each
cell the sum of the two; both check that a base product lies in the
carrier.  ``validate_truss`` decides the product laws on the law engine of
``laws`` (``_action_laws``), the truss acting on itself, exactly and on
generators; ``_product_laws`` stays here, as an extension decides its base
first.  Frames belong to the carrier, so no truss defines one.
"""

from __future__ import annotations

import functools
import itertools

from .coproduct import CoproductElement, DirectSum, HeapSummand, shift
from .core import INT_LINE, FiniteHeap, FiniteTruss, StructureError
from .laws import ASSOCIATIVE, LINEAR_IN_M, _action_laws, _pool
from .reports import FAIL, PASS, Finding, Report
from .rings import FiniteRing, Ring, _finite


class IntegerTruss:
    """The truss of the ring of integers: integer heap, ordinary product."""

    heap = INT_LINE
    identity = 1
    absorber = 0

    def mul(self, a, b):
        return a * b

    def sample_elements(self, window):
        return range(-window, window + 1)

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

    def __init__(self, c: int):
        self.c = c
        self.absorber = c

    def mul(self, a, b):
        return self.c

    def sample_elements(self, window):
        return range(self.c - window, self.c + window + 1)

    def format_element(self, x) -> str:
        return f"i{x}"

    def __eq__(self, other):
        return isinstance(other, ConstantTruss) and self.c == other.c

    def __repr__(self):
        return f"ConstantTruss(c={self.c})"


def truss_from_ring(ring) -> FiniteTruss | IntegerTruss:
    """T(R): the truss the ring is pointed on, ``ring.truss``, itself."""
    if ring == "Z" or isinstance(ring, IntegerTruss):
        return IntegerTruss()
    if not isinstance(ring, Ring):
        raise StructureError("expected a ring or the symbolic ring 'Z'")
    return ring.truss


def truss_TZn(n: int) -> FiniteTruss:
    """T(Z_n), its elements named i0, ..., i(n-1)."""
    return FiniteRing.Zn(n, names=[f"i{k}" for k in range(n)]).truss


def tc2_brace_truss() -> FiniteTruss:
    """The truss of the two-element brace: heap of C2, product x.y = x+y."""
    heap = FiniteHeap.from_function(2, lambda x, y, z: x ^ y ^ z, names=("a", "b"))
    return FiniteTruss(heap, ((0, 1), (1, 0)))


def terminal_truss() -> FiniteTruss:
    return FiniteTruss(FiniteHeap.singleton(), ((0,),))


def integer_truss() -> IntegerTruss:
    return IntegerTruss()


def constant_truss(c: int) -> ConstantTruss:
    return ConstantTruss(c)


# every builtin truss by its document name; TZn takes n and Zc takes c
BUILTIN_TRUSSES = {"TZ": integer_truss, "TZn": truss_TZn, "Zc": constant_truss,
                   "TC2": tc2_brace_truss, "star": terminal_truss}


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
    for x = (g; m) and y = (h; n), xy = (A_x(h) + M_x(n); tail), where A
    reads y only through h and M only through n:

        T1: A_x(h) = gh + m(h - eh),  M_x(n) = n(g - ge) + mn(ee - e),  tail mn
        T0: A_x(h) = gh - m(eh - e),  M_x(n) = -n(ge - e) + mn(ee - e), tail n + m - mn

    Over the integer truss with e = 0, T1 is the Dorroh product.  ``mul``
    makes gh always, ge only when n != 0 and eh only when m != 0 (ee is made
    once, when the extension is built), and applies M to A by shifts, 3 per
    product; ``product_table`` runs the same halves, ``_by_component`` and
    ``_by_tail``, in row form.  Both raise StructureError where a base
    product they make is outside the carrier, which a nested extension's
    products never are (they are built in its carrier, so not checked).

    The base products never see a tail and, over a base truss, are affine
    in g and in h.  So every truss law equates maps affine in each
    argument, which are fixed on a frame of the group form (retract + Z):
    a point and that point moved by each generator.  The frame comes from
    the carrier, ``heap.frame()``, and combines the base heap's frame with
    tail 1.  Once the base's product laws hold (``validate_truss`` decides
    them first), it decides every law exactly.
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
        if isinstance(base, ExtensionTruss):    # its products lie in its carrier
            self._base_mul = base.mul
        self._ee = self._base_mul(self.basepoint, self.basepoint)
        self.adjoined_element = self.heap.inject(1, 0)
        if adjoined == "one":
            self.identity = self.adjoined_element
            self.absorber = None if base.absorber is None else self.inject(base.absorber)
        else:
            self.absorber = self.adjoined_element
            self.identity = None if base.identity is None else self.inject(base.identity)

    def inject(self, t) -> CoproductElement:
        return self.heap.inject(0, t)

    def element(self, g, n: int) -> CoproductElement:
        """The canonical element with base-carrier component g and tail n."""
        return self.heap.make((g, 0), (n,))

    def sample_elements(self, window):
        return [self.element(g, m) for g in self.base.sample_elements(window)
                for m in range(-window, window + 1)]

    def _in_carrier(self, a, b, v):
        """The base product v = ab, once it is checked to lie in the carrier."""
        if not self.base_heap.contains(v):
            raise StructureError(f"base product {a!r}.{b!r} = {v!r} is outside the carrier")
        return v

    def _base_mul(self, a, b):
        return self._in_carrier(a, b, self.base.mul(a, b))

    def mul(self, x, y) -> CoproductElement:
        (g, _), (m,) = x
        (h, _), (n,) = y
        e, times = self.basepoint, self._base_mul
        a = self._by_component(g, m, h, times(g, h), times(e, h) if m else None)
        c, tail = self._by_tail(a, g, m, n, times(g, e) if n else None)
        return CoproductElement((c, 0), (tail,))

    def _by_component(self, g, m, h, gh, eh):
        """A_x(h) for x = (g; m), from gh and eh (read only when m != 0)."""
        if self.adjoined == "one":
            return shift(self.base_heap, gh, m, h, eh)
        return shift(self.base_heap, gh, -m, eh, self.basepoint)

    def _by_tail(self, acc, g, m, n, ge):
        """(acc + M_x(n), xy's tail) for x = (g; m), from ge (read only when n != 0)."""
        heap, e = self.base_heap, self.basepoint
        if self.adjoined == "one":
            acc, tail = shift(heap, acc, n, g, ge), m * n
        else:
            acc, tail = shift(heap, acc, -n, ge, e), n + m - m * n
        return shift(heap, acc, m * n, self._ee, e), tail

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


def product_table(t, xs, ys):
    """[[t.mul(x, y) for y in ys] for x in xs], in row form.

    An extension product reads the base products gh, ge and eh of the
    components g of x and h of y, ge only when y's tail is not 0 and eh only
    when x's tail is not 0, as ``mul`` does.  So the base is tabulated once,
    by recursion, on the distinct components of xs and of ys, with the
    basepoint e as a column when some y has a tail and as a row when some x
    has one: every product made is one that ``mul`` makes on some cell, so
    the table raises exactly when ``mul`` raises on some cell.  Each is
    checked to lie in the carrier (a nested extension's always does).  Each
    row x then makes the two halves of ``mul``'s closed form once per
    distinct entry of ys, A_x(h) per component h and M_x(n) per tail n, M
    as an element of the base carrier, and each cell is [A, e, M], each
    distinct sum made once per call.  Nothing assumes that the base is a
    truss.  Any other truss multiplies cell by cell.
    """
    if not isinstance(t, ExtensionTruss):
        return [[t.mul(x, y) for y in ys] for x in xs]
    e = t.basepoint
    gs = [x.components[0] for x in xs] + [e] * any(x.tails[0] for x in xs)    # eh is read
    hs = [y.components[0] for y in ys] + [e] * any(y.tails[0] for y in ys)    # ge is read
    rows = {g: i for i, g in enumerate(dict.fromkeys(gs))}
    cols = {h: j for j, h in enumerate(dict.fromkeys(hs))}
    base = [[t._in_carrier(g, h, v) for h, v in zip(cols, row)] + [None]
            for g, row in zip(rows, product_table(t.base, list(rows), list(cols)))]
    eh = base[rows[e]] if e in rows else [None] * len(cols)
    je = cols.get(e, -1)    # else the None past each row: no y has a tail
    ycols = [(cols[h], n) for (h, _), (n,) in ys]
    js, ns = {cols[h]: h for (h, _), _ in ys}, dict.fromkeys(n for _, n in ycols)
    plus, table = functools.cache(lambda a, c: t.base_heap.ternary(a, e, c)), []
    for (g, _), (m,) in xs:
        row = base[rows[g]]
        a = {j: t._by_component(g, m, h, row[j], eh[j]) for j, h in js.items()}
        mt = {n: t._by_tail(e, g, m, n, row[je] if n else None) for n in ns}
        table.append([CoproductElement((plus(a[j], mt[n][0]), 0), (mt[n][1],)) for j, n in ycols])
    return table


# ---------------------------------------------------------------------------
# validation


def _product_laws(t, pool, sweep=True):
    """Associativity and both distributive laws of t acting on itself:
    (findings in the order of the (s, a, b, c) sweep, instances per law,
    how distributivity and associativity were decided, unit pool, base
    status).  A framed extension decides its base first, recursively (the
    base's unit laws do not matter); a base finding decides, lifted to tail
    0, where the base embeds (``sweep`` as in ``_action_laws``)."""
    base = None
    if isinstance(t, ExtensionTruss):
        found, per_law, how, _, _ = _product_laws(t.base, _pool(t.base), sweep=sweep)
        if found:
            up, rows = t.inject, how["distributivity"]
            how = {**how, "distributivity": {**rows, "swept": list(map(up, rows["swept"]))}}
            return ([Finding(f.law, tuple(map(up, f.at)), up(f.lhs), up(f.rhs)) for f in found],
                    per_law, how, [], FAIL)
        base = PASS
    found, per_law, rows, associativity = _action_laws(t, t.mul, t, (pool, pool), sweep=sweep)
    findings = [Finding("product associativity", at, rhs, lhs)   # (ab)c first
                for law, at, lhs, rhs in found if law == ASSOCIATIVE]
    laws = [Finding("left distributivity over [,,]", at, lhs, rhs) if law == LINEAR_IN_M
            else Finding("right distributivity over [,,]", at[3:] + at[:3], lhs, rhs)
            for law, at, lhs, rhs in found if law != ASSOCIATIVE]
    index = {x: i for i, x in enumerate(pool)}    # the (s, a, b, c) sweep, left law first
    laws.sort(key=lambda f: ([index[x] for x in f.at], f.law.startswith("right")))
    how = {"distributivity": {"algorithm": rows[0],
                              "swept": [s for s in pool if s in rows[1] or s in rows[2]]},
           "associativity": associativity}
    per_law = (per_law[ASSOCIATIVE], per_law[LINEAR_IN_M])
    return findings + laws, per_law, how, pool, base


def validate_truss(t, *, samples=None, window=None, seed=None) -> Report:
    """Associativity and both distributive laws, then the identity and
    absorber laws (scanned for finite trusses, declared otherwise), on the
    law engine (``_action_laws``) over every element of a finite truss or
    the ``heap.frame()`` of a symbolic one; an extension decides its base
    first.  On a group heap the engine decides on generators: each row and
    column of the product is a heap map once it preserves [x, e, g] for the
    frame's generators g, and then the frame triples decide associativity
    (Certaine's lemma: an affine map is fixed by its values on a frame).  A
    failing map, a failing frame triple or a carrier that is no heap falls
    back to the sweep, so a fail lists every finding.  A symbolic truss
    whose carrier has no frame raises StructureError.  ``samples``,
    ``window`` and ``seed`` are accepted and ignored: every verdict is exact.

    ``checked`` counts the product-law instances decided; ``checked_by_law``
    every law, the unit laws by their pool; ``unit_laws`` names the pool
    ("exhaustive" or "frame") and its size; ``distributivity`` the
    algorithm and the swept s; ``associativity`` the algorithm ("frame
    triples" or "sweep") and the instances evaluated.  A symbolic truss
    reports ``frame`` (its size), an extension whether its ``base`` passed.
    """
    pool = _pool(t)
    if pool is None:
        raise StructureError("cannot decide the truss laws: the carrier heap has no frame()")
    findings, per_law, how, units, base = _product_laws(t, pool)
    one, zero, mul = t.identity, t.absorber, t.mul
    findings += [Finding("identity law", (x,), mul(one, x), x) for x in units
                 if one is not None and (mul(one, x) != x or mul(x, one) != x)]
    findings += [Finding("absorber law", (x,), mul(zero, x), zero) for x in units
                 if zero is not None and (mul(zero, x) != zero or mul(x, zero) != zero)]
    finite = t.heap.is_finite
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
        "unit_laws": {"algorithm": "exhaustive" if finite else "frame",
                      "evaluated": 0 if one is None and zero is None else len(units)},
    }
    stats.update(how)
    if not finite:
        stats["frame"] = len(pool)
    if base is not None:
        stats["base"] = base
    return Report("truss", FAIL if findings else PASS, findings, stats)


# ---------------------------------------------------------------------------
# retract rings


def _check_absorber(t, zero):
    """Raise unless zero absorbs on both sides: a finite t holds its one absorber
    (``core._unit``); a symbolic t is decided on its frame once it is a truss."""
    if zero == t.absorber:
        return
    pool = _pool(t)
    if t.heap.is_finite or pool is not None and any(
            t.mul(zero, x) != zero or t.mul(x, zero) != zero for x in pool):
        raise StructureError(f"{zero!r} is not a two-sided absorber")
    if pool is None or _product_laws(t, pool, sweep=False)[0]:
        raise StructureError(f"cannot decide that {zero!r} absorbs: not a truss with a frame")


def retract_ring(t, zero) -> Ring:
    """The ring on a ring-type truss t, shared, with the absorber zero as its
    zero; on a finite t the ring laws are decided, as by ``FiniteRing``."""
    if not t.heap.contains(zero):
        raise StructureError(f"{zero!r} is not in the carrier")
    _check_absorber(t, zero)
    return Ring(t, zero, validate=t.heap.is_finite)


def dorroh_compare(ring: Ring, window: int = 3) -> Report:
    """Check the unital-extension retract of T(R) against the Dorroh product
    (r+n)(r'+n') = rr' + rn' + nr' + nn' on every tail pair in Z^2, up to the
    first mismatch, at (r, n, r', n').  Both sides are a + n.b + n'.c + nn'.d
    with tail nn', so the 4|R|^2 products at tails {0, 1}^2 decide ("frame");
    ``window`` decides nothing and is only checked and echoed, for the CLI."""
    if window <= 0:
        raise StructureError("window must be positive")
    t1 = unital_extension(_finite(ring).truss)
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
