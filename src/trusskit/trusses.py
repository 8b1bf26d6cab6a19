"""Trusses: Abelian heaps with an associative, two-sided distributive product.

A truss holds its carrier as ``heap`` and adds only the product: finite
trusses have a table over a ``FiniteHeap``, the symbolic ones (the integer
truss, the constant-product trusses) live on the integer line ``INT_LINE``,
and unital and ring extensions adjoin a new identity or absorber by forming
the ``DirectSum`` with a singleton.  An extension's product distributes over
the heap operation in each argument, so it is the bi-affine closed form of
``ExtensionTruss`` in four base products; the letter-wise product over word
forms and the closed formulas of the worked examples live in the tests as
oracles, not here.  ``product_table`` makes each distinct base product of a
table once, not three per cell, and checks it lies in the carrier as
``ExtensionTruss.mul`` does.  One law engine decides trusses, modules, rings
and ring modules exactly, on generators: on the ``frame()`` of the carrier
heap, a point and that point moved by each generator of its group form, and
on every element only where a law fails.  Frames belong to the carrier, so
no truss defines one.
"""

from __future__ import annotations

import functools
import itertools

from .coproduct import CoproductElement, DirectSum, HeapSummand, shift
from .core import (
    INT_LINE,
    FiniteHeap,
    StructureError,
    _bfs_recipe,
    _first_unpreserved,
    _id_table,
    _unit,
    retract,
)
from .reports import FAIL, PASS, Finding, Report
from .rings import FiniteRing, _Additive


class FiniteTruss:
    """A truss on a finite Abelian heap, with an explicit product table."""

    __slots__ = ("heap", "mul_table", "size", "names", "identity", "absorber")

    def __init__(self, heap: FiniteHeap, mul_table, names=None):
        if not heap.abelian:
            raise StructureError("a truss carrier must be an Abelian heap")
        self.heap = heap
        self.size = heap.size
        self.mul_table = _id_table(mul_table, self.size, self.size, "the product table")
        self.names = tuple(names) if names is not None else heap.names
        self.identity = _unit(self.mul_table)
        self.absorber = _unit(self.mul_table, absorbing=True)

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

    def format_element(self, x) -> str:
        return f"i{x}"

    def __eq__(self, other):
        return isinstance(other, ConstantTruss) and self.c == other.c

    def __repr__(self):
        return f"ConstantTruss(c={self.c})"


def truss_from_ring(ring) -> FiniteTruss | IntegerTruss:
    """T(R): the ring's carrier heap, shared, with the ring multiplication."""
    if ring == "Z" or isinstance(ring, IntegerTruss):
        return IntegerTruss()
    if not isinstance(ring, FiniteRing):
        raise StructureError("expected a FiniteRing or the symbolic ring 'Z'")
    return FiniteTruss(ring.heap, ring.mul_table, names=ring.names)


def truss_TZn(n: int) -> FiniteTruss:
    ring = FiniteRing.Zn(n)
    return FiniteTruss(ring.heap, ring.mul_table, names=tuple(f"i{k}" for k in range(n)))


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

    Over the integer truss with e = 0, T1 is the Dorroh product.  ``mul``
    makes gh, ge and eh (ee is made once, when the extension is built), and
    ``product_table`` makes each distinct base product of a table once; both
    raise StructureError where a base product they make is outside the
    carrier, and both combine by ``_combine``.

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

    def _in_carrier(self, a, b, v):
        """The base product v = ab, once it is checked to lie in the carrier."""
        if not self.base_heap.contains(v):
            raise StructureError(f"base product {a!r}.{b!r} = {v!r} is outside the carrier")
        return v

    def _base_mul(self, a, b):
        return self._in_carrier(a, b, self.base.mul(a, b))

    def mul(self, x, y) -> CoproductElement:
        g, h, e, times = x.components[0], y.components[0], self.basepoint, self._base_mul
        return self._combine(x, y, times(g, h), times(g, e), times(e, h))

    def _combine(self, x, y, gh, ge, eh) -> CoproductElement:
        """xy from the base products gh, ge and eh of the components g of x
        and h of y (and the kept ee): the closed form of the class docstring."""
        (g, _), (m,) = x.components, x.tails
        (h, _), (n,) = y.components, y.tails
        e, heap, ee = self.basepoint, self.base_heap, self._ee
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


def product_table(t, xs, ys):
    """[[t.mul(x, y) for y in ys] for x in xs], each distinct base product
    made once.

    An extension product needs the base products gh, ge and eh of the
    components g of x and h of y.  So the base is tabulated once, by
    recursion, on the distinct components of xs and of ys, each with the
    basepoint e; each of those products is checked to lie in the carrier;
    and ``ExtensionTruss._combine``, the closed form that ``mul`` uses,
    makes every cell from the table.  Nothing assumes that the base is a
    truss.  Any other truss multiplies cell by cell.
    """
    if not isinstance(t, ExtensionTruss):
        return [[t.mul(x, y) for y in ys] for x in xs]
    e = t.basepoint
    rows = {g: i for i, g in enumerate(dict.fromkeys([x.components[0] for x in xs] + [e]))}
    cols = {h: j for j, h in enumerate(dict.fromkeys([y.components[0] for y in ys] + [e]))}
    base = [[t._in_carrier(g, h, v) for h, v in zip(cols, row)]
            for g, row in zip(rows, product_table(t.base, list(rows), list(cols)))]
    eh, je = base[rows[e]], cols[e]
    xrows = [(x, base[rows[x.components[0]]]) for x in xs]
    ycols = [(y, cols[y.components[0]]) for y in ys]
    return [[t._combine(x, y, row[j], row[je], eh[j]) for y, j in ycols] for x, row in xrows]


# ---------------------------------------------------------------------------
# validation: one law engine over finite pools


ASSOCIATIVE = "action associativity t(t'm) = (tt')m"
LINEAR_IN_T = "distributivity [t,t',t'']m"
LINEAR_IN_M = "distributivity t[m,m',m'']"


def _pool(c):
    """Every element of a finite carrier, else its frame (None without one)."""
    return c.heap.elements() if c.heap.is_finite else c.heap.frame()


class _Memo(dict):
    """x |-> f(x), each value computed once, on first use."""

    def __init__(self, f):
        self.f = f

    def __missing__(self, x):
        self[x] = value = self.f(x)
        return value


def _rows_and_columns(f, ts, ms, finite):
    """rows[a][x] = f(a, x) and cols[x][a] = f(a, x): tables over finite
    pools of ids, else computed once, on first use."""
    if finite:
        rows = [[f(a, x) for x in ms] for a in ts]
        return rows, [[row[x] for row in rows] for x in ms]
    rows = _Memo(lambda a: _Memo(functools.partial(f, a)))
    return rows, _Memo(lambda x: _Memo(lambda a: rows[a][x]))


def _unpreserved(f, source_ternary, target_ternary, triples):
    """((x, y, z), lhs, rhs) for each triple where f[x,y,z] = lhs differs
    from [fx,fy,fz] = rhs, in the order of ``triples``."""
    for x, y, z in triples:
        lhs, rhs = f[source_ternary(x, y, z)], target_ternary(f[x], f[y], f[z])
        if lhs != rhs:
            yield (x, y, z), lhs, rhs


class _Frame:
    """The ``frame()`` of a carrier heap over its pool: the frame's points,
    its point e and generators, and [x, e, g] for each x in the pool and
    generator g, computed once for every map out of the carrier."""

    def __init__(self, heap, pool):
        self.heap, self.pool, self.points = heap, pool, heap.frame()
        self.e, self.gens = self.points[0], self.points[1:]
        self.steps = {(x, g): heap.ternary(x, self.e, g) for x in pool for g in self.gens}
        self.walk = None

    def step(self, x, e, g):
        return self.steps[x, g]

    def first_unpreserved(self, target_ternary, f):
        """The frame form of ``core._first_unpreserved``: the first
        (x, e, g) where f[x,e,g] != [fx,fe,fg], x in the pool."""
        return _first_unpreserved(self.step, target_ternary, f, self.pool, self.gens)

    def suspects(self, f, target_ternary):
        """The triples of a finite carrier, in sweep order, at which the map
        f can break f[x,y,z] = [fx,fy,fz]; None for all of them.

        The heap map f^ that agrees with f on the frame is fitted along the
        generator walk (``core._bfs_recipe``), f^(x.g) = f^(x) + f^(g) - f^(e),
        and D is where f differs from it.  Where none of x, y, z and [x,y,z]
        is in D, f[x,y,z] = f^[x,y,z] = [fx,fy,fz], so only the <= 4|D|n^2
        triples with x, y or z in D, or z = [y,x,d] for d in D, can fail.
        None when f^ is no heap map or the triples are no fewer than n^3.
        """
        e, gens, ids = self.e, self.gens, self.pool
        if self.walk is None:
            self.walk = _bfs_recipe(lambda x, g: self.steps[x, g], e, gens)
        fit = {e: f[e]}
        for y, parent, i in self.walk:
            fit[y] = target_ternary(fit[parent], fit[e], f[gens[i]])
        if any(fit[self.steps[x, g]] != target_ternary(fit[x], fit[e], fit[g])
               for x in ids for g in gens):
            return None
        dirty, n = [x for x in ids if f[x] != fit[x]], len(ids)
        if 4 * len(dirty) * n * n >= n ** 3:
            return None
        ternary, triples = self.heap.ternary, set()
        for d in dirty:
            for x, y in itertools.product(ids, repeat=2):
                triples.update(((d, x, y), (x, d, y), (x, y, d), (x, y, ternary(y, x, d))))
        return sorted(triples)


def _action_laws(t, act, m, pools, *, sweep=True):
    """The three laws of an action ``act`` of the truss t on m (of t on
    itself, for a truss): (law, at, lhs, rhs) findings, the instances per
    law, the swept maps, and how associativity was decided.

    On pools (ts, ms), every element of a finite carrier or the frame of a
    symbolic one, every instance is decided; there is no other mode.
    Distributivity says that t |-> t.x (T -> M) and x |-> a.x (M -> M) are
    heap maps, which a map out of a group heap is once it preserves [u,e,g]
    for u in the pool and g a generator of the frame (Certaine 1943; the
    frame form of ``core._first_unpreserved``).  Only a failing map is
    swept ("morphism rows"): a map out of a finite carrier on the triples
    that its ``_Frame.suspects`` names, else on every triple.  Every map is
    swept when a finite carrier is no heap ("sweep").

    Associativity a(bx) = (ab)x: once every row and column is a heap map and
    the product of t is one in each argument (checked on the frame for a
    module), both sides are affine in a, in b and in x, so the frame
    triples decide it ("frame triples"; a symbolic carrier's pool is its
    frame).  Otherwise, or when a frame triple fails, all of ts x ts x ms
    are swept ("sweep"), so a fail lists every finding, in sweep order.

    Without ``sweep``, a failing law decides: failing associativity returns
    at once, a failing map is listed at its first failure.
    """
    tern_t, tern_m = t.heap.ternary, m.heap.ternary
    ts, ms = pools
    finite = t.heap.is_finite and m.heap.is_finite
    rows, cols = _rows_and_columns(act, ts, ms, finite)
    nt, nm = len(ts), len(ms)
    checked = {ASSOCIATIVE: nt * nt * nm, LINEAR_IN_T: nt ** 3 * nm, LINEAR_IN_M: nt * nm ** 3}
    ft = fm = None
    if all(h.frame() for h in (t.heap, m.heap) if h.is_finite):
        algorithm = "morphism rows"
        ft = _Frame(t.heap, ts)
        fm = ft if m is t else _Frame(m.heap, ms)
        first_m = {x: w for x in ms if (w := ft.first_unpreserved(tern_m, cols[x]))}
        first_t = {a: w for a in ts if (w := fm.first_unpreserved(tern_m, rows[a]))}
        affine = not first_m and not first_t and (m is t or not any(
            ft.first_unpreserved(tern_t, f) for f in _product_maps(t, ts)))
    else:
        algorithm, first_m, first_t, affine = "sweep", dict.fromkeys(ms), dict.fromkeys(ts), False

    def associativity(us, xs):
        out = []
        for a, b in itertools.product(us, repeat=2):
            ra, rb, rab = rows[a], rows[b], rows[t.mul(a, b)]
            out += [(ASSOCIATIVE, (a, b, x), ra[rb[x]], rab[x]) for x in xs if ra[rb[x]] != rab[x]]
        return out, len(us) ** 2 * len(xs)

    found, evaluated = associativity(ft.points, fm.points) if affine else ([], 0)
    on_frame = affine and not found
    if not on_frame and (not evaluated or t.heap.is_finite or m.heap.is_finite):
        found, swept = associativity(ts, ms)
        evaluated += swept
    decided = {"algorithm": "frame triples" if on_frame else "sweep", "evaluated": evaluated}
    swept_m, swept_t = list(first_m), list(first_t)
    if found and not sweep:
        return found, checked, ("unchecked", [], []), decided

    def triples(frame, pool, f, witness):
        if not sweep and frame:
            return [witness]
        suspects = frame.suspects(f, tern_m) if frame and frame.heap.is_finite else None
        return itertools.product(pool, repeat=3) if suspects is None else suspects

    in_t = [(LINEAR_IN_T, abc + (x,), lhs, rhs) for x in swept_m for abc, lhs, rhs in
            _unpreserved(cols[x], tern_t, tern_m, triples(ft, ts, cols[x], first_m[x]))]
    if len(swept_m) > 1:    # in the order of the sweep: (a, b, c) first, then x
        index_t, index_m = {u: i for i, u in enumerate(ts)}, {x: i for i, x in enumerate(swept_m)}
        in_t.sort(key=lambda f: ([index_t[u] for u in f[1][:3]], index_m[f[1][3]]))
    found += in_t
    for a in swept_t:
        found += [(LINEAR_IN_M, (a,) + xyz, lhs, rhs) for xyz, lhs, rhs in _unpreserved(
            rows[a], tern_m, tern_m, triples(fm, ms, rows[a], first_t[a]))]
    return found, checked, (algorithm, swept_m, swept_t), decided


def _product_maps(t, ts):
    """The maps u |-> au and u |-> ua of the product of t, for a in ts."""
    prow, pcol = _rows_and_columns(t.mul, ts, ts, t.heap.is_finite)
    return itertools.chain((prow[a] for a in ts), (pcol[a] for a in ts))


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


class RetractRing(_Additive):
    """The ring living on a (possibly symbolic) ring-type truss: addition is
    the retract group of its carrier at the absorber, multiplication is the
    truss product."""

    __slots__ = ("truss", "zero")

    def __init__(self, truss, zero):
        self.truss = truss
        self.zero = zero

    @property
    def heap(self):
        return self.truss.heap

    @property
    def one(self):
        return self.truss.identity

    def mul(self, a, b):
        return self.truss.mul(a, b)

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
