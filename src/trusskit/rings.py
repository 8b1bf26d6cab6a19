"""Rings and modules over them.  A ring is a ring-type truss pointed at an
absorber, its zero (Brzezinski, Trans. AMS 2019): ``Ring`` holds the truss
and the zero, and T(R) is that truss, ``ring.truss``, so a ring and its T(R)
share one product table and one heap.  An R-module N is, in the same way,
a T(R)-module pointed at its one absorber, its zero: ``RModule`` holds its
``FiniteTModule`` over ``ring.truss`` and the zero, and T(N) is that module,
``rm.module``, so N and T(N) share one heap, one action table and one
absorber cache.  A group is a pointed heap, a + b = [a, 0, b] (Certaine
1943): ``ring.add`` and ``module.group`` are views, the carrier heap pointed
at zero, shared, and a ``FiniteGroup`` carrier is its heap.  ``FiniteRing``
only builds a finite ring's truss from tables, once (``Zn``, ``product``,
documents); an ``RModule`` constructor takes a ``FiniteGroup`` or (heap,
zero) and an action table, and R^n is ``core.product``.  A ring on a
symbolic truss has no tables, and whatever needs them refuses it (``_finite``).

These are the classical structures that trusses and truss modules are
compared against: ring retracts, the quotient-by-absorbers module, and the
hom-sets and isomorphisms behind the adjunction, all found by one search,
``_module_maps``, on generators and frames.  Ring and ring-module laws are
decided on the ring and the module themselves, on generators, by the law
engine of ``laws``, which reads only their ``heap`` and ``mul`` or ``act``,
and swept only when they fail.  ``FiniteTruss`` and ``FiniteTModule`` sit
in ``core``, so ``rings`` imports neither ``trusses`` nor ``modules``, which
are built on it.
"""

from __future__ import annotations

import itertools

from .coproduct import shift
from .core import (FiniteGroup, FiniteHeap, FiniteTModule, FiniteTruss, StructureError,
                   _first_unequivariant, _group_maps, _rows, _walked_frame, product, retract)
from .laws import _action_laws, _pool
from .reports import FAIL, PASS, Finding, Report


class _Additive:
    """The additive group of the carrier ``heap`` at ``zero``: a + b is
    [a, 0, b], -a is [0, a, 0] and k.a is ``coproduct.shift``, in
    O(log |k|) heap operations."""

    __slots__ = ()

    def plus(self, a, b):
        return self.heap.ternary(a, self.zero, b)

    def neg(self, a):
        return self.heap.ternary(self.zero, a, self.zero)

    def scale(self, k: int, a):
        return shift(self.heap, self.zero, k, a, self.zero)

    @property
    def group(self):
        """The additive group of a finite carrier, a view: the retract at zero."""
        return retract(_finite(self).heap, self.zero)

    def plus_table(self):
        """a + b for every pair of ids of a finite carrier, read off the heap."""
        return _rows(_finite(self).heap, self.zero)


def _finite(x):
    """x once its carrier heap is finite, as every table of a ring needs;
    StructureError otherwise (a ring on a symbolic truss)."""
    if not x.heap.is_finite:
        raise StructureError(f"a finite ring is needed, not {x!r}")
    return x


def _pointed(carrier, message):
    """A finite carrier, a ``FiniteGroup`` (its heap, shared) or (heap,
    zero), as (heap, zero); StructureError(message) unless it is Abelian."""
    heap, zero = ((carrier.heap, carrier.neutral)
                  if isinstance(carrier, FiniteGroup) else carrier)
    if not heap.abelian:
        raise StructureError(message)
    if not heap.contains(zero):
        raise StructureError(f"the zero {zero!r} is not in the carrier")
    return heap, zero


def _product(parts, rows):
    """The product heap of the parts' carriers (``core.product``) pointed at
    their zeros, and one row per tuple in ``rows``, its entry at (x1, ..., xk)
    the id of (rows[0][x1], ..., rows[k-1][xk]), read digit by digit."""
    sizes = [p.size for p in parts]

    def digitwise(rows):
        out = [0]
        for row, n in zip(rows, sizes):
            out = [v * n + c for v in out for c in row]
        return out
    zero = digitwise([(p.zero,) for p in parts])[0]
    return (product(*(p.heap for p in parts)), zero), [digitwise(r) for r in rows]


class Ring(_Additive):
    """A ring-type truss pointed at an absorber, its ``zero``: the sum is
    [a, 0, b] on the truss's heap and the product is the truss's own ``mul``,
    bound once.  The truss is finite (a ``FiniteTruss``) or symbolic;
    ``validate`` decides the laws of a finite ring, raising on the first
    finding."""

    __slots__ = ("truss", "heap", "zero", "size", "one", "mul")

    def __init__(self, truss, zero, validate=False):
        self.truss, self.heap, self.zero = truss, truss.heap, zero
        self.size, self.one, self.mul = truss.heap.size, truss.identity, truss.mul
        if validate:
            report = validate_ring(self)
            if not report.ok:
                raise StructureError(f"not a ring: {report.findings[0]}")

    add = _Additive.group
    mul_table = property(lambda self: _finite(self).truss.mul_table)
    names = property(lambda self: _finite(self).truss.names)

    def __eq__(self, other):
        return self is other or (isinstance(other, Ring) and self.zero == other.zero
                                 and self.truss == other.truss)

    def __repr__(self):
        return f"Ring({self.truss!r}, zero={self.zero!r})"


class FiniteRing(Ring):
    """The table constructors of a finite ring: a pointed Abelian heap and a
    multiplication table, held as their ``FiniteTruss``, built once."""

    __slots__ = ()

    def __init__(self, add, mul_table, names=None, validate=True):
        heap, zero = _pointed(add, "ring addition must be Abelian")
        super().__init__(FiniteTruss(heap, mul_table, names), zero, validate)

    @classmethod
    def Zn(cls, n, names=None) -> "FiniteRing":
        if n < 1:
            raise StructureError(f"Z_n needs n >= 1, got {n}")
        heap = FiniteHeap.from_function(n, lambda a, b, c: (a - b + c) % n, frame=_walked_frame)
        return cls((heap, 0), [[(a * b) % n for b in range(n)] for a in range(n)], names,
                   validate=False)

    @classmethod
    def product(cls, *rings: Ring) -> "FiniteRing":
        """R1 x ... x Rk on the product heap, multiplied digit by digit."""
        return cls(*_product(rings, itertools.product(*(r.mul_table for r in rings))),
                   validate=False)


def validate_ring(r: Ring) -> Report:
    """Associativity of multiplication and both distributive laws, exactly.

    An affine map that fixes zero is additive, so r is a ring exactly when 0
    is the truss's absorber (a two-sided one is unique) and r, acting on
    itself by its product, passes the law engine (``laws._action_laws``),
    which decides on generators (Certaine's lemma: an affine map is fixed by
    its values on a frame).  Otherwise the n^3 sweep lists every violated instance."""
    n, zero, mul = r.size, r.zero, r.mul_table
    pool = _pool(r)
    if zero == r.truss.absorber and not _action_laws(r, r.mul, r, (pool, pool), sweep=False)[0]:
        return Report("ring", PASS, [], {"size": n})
    add, findings = r.plus_table(), []
    for a, b, c in itertools.product(range(n), repeat=3):
        ab, ac, bc = mul[a][b], mul[a][c], mul[b][c]
        for law, lhs, rhs in (("ring multiplication associativity", mul[ab][c], mul[a][bc]),
                              ("left distributivity", mul[a][add[b][c]], add[ab][ac]),
                              ("right distributivity", mul[add[a][b]][c], add[ac][bc])):
            if lhs != rhs:
                findings.append(Finding(law, (a, b, c), lhs, rhs))
    return Report("ring", FAIL if findings else PASS, findings, {"size": n})


class RModule(_Additive):
    """A left module over a finite ring: its T(R)-module ``module``, the
    ring's truss acting on the carrier heap by the action table, pointed at
    ``zero``; T(N) is that module.  The carrier heap, the action table, the
    size and the names are the module's, bound once.  The regular module
    shares its ring's heap."""

    __slots__ = ("ring", "module", "heap", "zero", "action", "size", "names")

    def __init__(self, ring: Ring, group, action, validate=True):
        heap, self.zero = _pointed(group, "a module's additive group must be Abelian")
        self.ring = ring
        m = self.module = FiniteTModule(ring.truss, heap, action)
        self.heap, self.action, self.size, self.names = m.heap, m.action, m.size, m.names
        if validate:
            report = validate_rmodule(self)
            if not report.ok:
                raise StructureError(f"not an R-module: {report.findings[0]}")

    def act(self, r, m):
        return self.action[r][m]

    def __eq__(self, other):
        return self is other or (isinstance(other, RModule) and self.zero == other.zero
                                 and self.ring == other.ring and self.module == other.module)

    def __repr__(self):
        return f"RModule(order={self.size} over ring of order {self.ring.size})"

    @classmethod
    def regular(cls, ring: Ring) -> "RModule":
        return cls(ring, (ring.heap, ring.zero), ring.mul_table, validate=False)

    @classmethod
    def product(cls, *modules: "RModule") -> "RModule":
        """M1 x ... x Mk over their common ring, acting digit by digit; k >= 1."""
        if not modules:
            raise StructureError("a module product needs at least one factor")
        ring = modules[0].ring
        if any(m.ring != ring for m in modules):
            raise StructureError("module product needs one common ring")
        return cls(ring, *_product(modules, zip(*(m.action for m in modules))), validate=False)

    @classmethod
    def power(cls, ring: Ring, n: int) -> "RModule":
        """R^n, the n-fold product of the regular module (R itself for n = 1), n >= 1."""
        regular = cls.regular(ring)
        return regular if n == 1 else cls.product(*[regular] * n)


def validate_rmodule(m: RModule) -> Report:
    """Unital module laws over the ring, exactly.

    An affine map that fixes zero is additive, so m is a module exactly
    when r.0 = 0 and 0.x = 0 for every r and x, 1 acts as the identity, and
    the action of the ring on m passes the law engine
    (``laws._action_laws``), on generators (Certaine's lemma, as in
    ``validate_ring``).  Otherwise the sweep lists every violated
    instance."""
    R, n, zero = m.ring, m.size, m.zero
    if (all(m.act(r, zero) == zero for r in range(R.size))
            and all(m.act(R.zero, x) == zero and (R.one is None or m.act(R.one, x) == x)
                    for x in range(n))
            and not _action_laws(R, m.act, m, (_pool(R), _pool(m)), sweep=False)[0]):
        return Report("R-module", PASS, [], {"size": n, "ring": R.size})
    act, times, plus, add = m.action, R.mul_table, R.plus_table(), m.plus_table()
    findings = []
    for r, s, x in itertools.product(range(R.size), range(R.size), range(n)):
        for law, lhs, rhs in (("module associativity r(sx) = (rs)x",
                               act[r][act[s][x]], act[times[r][s]][x]),
                              ("module law (r+s)x = rx+sx",
                               act[plus[r][s]][x], add[act[r][x]][act[s][x]])):
            if lhs != rhs:
                findings.append(Finding(law, (r, s, x), lhs, rhs))
    for r, x, y in itertools.product(range(R.size), range(n), range(n)):
        lhs, rhs = act[r][add[x][y]], add[act[r][x]][act[r][y]]
        if lhs != rhs:
            findings.append(Finding("module law r(x+y) = rx+ry", (r, x, y), lhs, rhs))
    findings += [Finding("unitality 1x = x", (x,), act[R.one][x], x)
                 for x in range(n) if R.one is not None and act[R.one][x] != x]
    return Report("R-module", FAIL if findings else PASS, findings,
                  {"size": n, "ring": R.size})


def _module_maps(m, e, target, iso=False, translate=False):
    """Every module map from m, pointed at e, into the R-module target,
    lazily: m is acted on by the target's ring R or by T(R), whose heap is
    R's, so the scalars are ``target.ring.heap``.  Each group map phi at e
    and zero (``core._group_maps``; with ``iso`` the isomorphisms), with
    ``translate`` (into T(N)) each phi + c read off the same table, is kept
    when it commutes with the action on frames
    (``core._first_unequivariant``)."""
    rows = _rows(target.heap, target.zero)
    ts, xs = (h.frame() or h.elements() for h in (target.ring.heap, m.heap))
    for phi in _group_maps((m.heap, e), (rows, target.zero), iso=iso):
        # c + y = y + c: the target is Abelian
        for f in (tuple(map(row.__getitem__, phi)) for row in rows) if translate else (phi,):
            if _first_unequivariant(f, m.act, target.act, ts, xs) is None:
                yield f


def rmodule_isomorphism(m1: RModule, m2: RModule):
    """An R-module isomorphism m1 -> m2 as an id mapping, or None: the first
    that ``_module_maps`` finds; m1 and m2 must be modules."""
    if m1.ring != m2.ring:
        return None
    return next(_module_maps(m1, m1.zero, m2, iso=True), None)


def rmodule_homs(m1: RModule, m2: RModule):
    """All R-module homomorphisms m1 -> m2 as mapping tuples, in
    lexicographic order (``_module_maps``); m1 and m2 must be modules."""
    if m1.ring != m2.ring:
        raise StructureError("hom-sets need one common ring")
    return sorted(map(tuple, _module_maps(m1, m1.zero, m2)))
