"""Finite rings and modules over them, as exact id-indexed tables that hold
their carrier as ``heap``, the heap of the additive group, wrapped once when
built (``core.heap_from_group``) and shared with T(R) and T(N).  Addition,
negation and integer multiples are ``_Additive``'s, on (heap, zero), here
and in the retract rings of ``trusses``.

These are the classical (binary-operation) structures that trusses and
truss modules are compared against: ring retracts, the quotient-by-absorbers
module, and the hom-sets and isomorphisms behind the adjunction and freeness
checks, built from generator images of the additive group
(``core._group_maps``) and kept when they commute with the action
(``core._first_unequivariant``).  Ring and ring-module laws are decided on
generators by the law engine of the trusses, on T(R) and T(M), and swept
only when they fail.
"""

from __future__ import annotations

import itertools

from .coproduct import shift
from .core import (FiniteGroup, StructureError, _first_unequivariant, _group_maps, _id_table,
                   _unit, heap_from_group)
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


class FiniteRing(_Additive):
    """Ring on ids 0..n-1: an Abelian group table plus a multiplication table."""

    __slots__ = ("add", "heap", "mul_table", "size", "zero", "one", "names")

    def __init__(self, add: FiniteGroup, mul_table, names=None, validate=True):
        if not add.abelian:
            raise StructureError("ring addition must be Abelian")
        self.add = add
        self.heap = heap_from_group(add)
        self.size = add.size
        self.zero = add.neutral
        self.mul_table = _id_table(mul_table, self.size, self.size, "the multiplication table")
        self.names = tuple(names) if names is not None else add.names
        self.one = _unit(self.mul_table)
        if validate:
            report = validate_ring(self)
            if not report.ok:
                raise StructureError(f"not a ring: {report.findings[0]}")

    def mul(self, a, b):
        return self.mul_table[a][b]

    def __eq__(self, other):
        return (isinstance(other, FiniteRing)
                and self.add == other.add and self.mul_table == other.mul_table)

    def __repr__(self):
        one = self.names[self.one] if self.one is not None else "-"
        return f"FiniteRing(order={self.size}, one={one})"

    @classmethod
    def Zn(cls, n) -> "FiniteRing":
        if n < 1:
            raise StructureError(f"Z_n needs n >= 1, got {n}")
        add = FiniteGroup.cyclic(n)
        mul = [[(a * b) % n for b in range(n)] for a in range(n)]
        return cls(add, mul, validate=False)

    @classmethod
    def product(cls, r1: "FiniteRing", r2: "FiniteRing") -> "FiniteRing":
        add = FiniteGroup.product(r1.add, r2.add)
        n2 = r2.size
        size = r1.size * n2
        mul = [[0] * size for _ in range(size)]
        for a1, a2 in itertools.product(range(r1.size), range(r2.size)):
            for b1, b2 in itertools.product(range(r1.size), range(r2.size)):
                mul[a1 * n2 + a2][b1 * n2 + b2] = r1.mul(a1, b1) * n2 + r2.mul(a2, b2)
        return cls(add, mul, names=add.names, validate=False)


def _on_generators(truss, act, module) -> bool:
    """Whether the truss law engine (``trusses._action_laws``) passes the
    action of the truss on the module, deciding on generators."""
    from .trusses import _action_laws    # trusses is built on rings
    pools = (truss.heap.elements(), module.heap.elements())
    return not _action_laws(truss, act, module, pools, sweep=False)[0]


def validate_ring(r: FiniteRing) -> Report:
    """Associativity of multiplication and both distributive laws, exactly.

    An affine map that fixes zero is additive, so r is a ring exactly when
    its truss T(r) passes the law engine, which decides on generators
    (Certaine's lemma: an affine map is fixed by its values on a frame),
    and 0 absorbs on both sides.  Otherwise the n^3 sweep lists every
    violated instance."""
    from .trusses import truss_from_ring
    n = r.size
    t = truss_from_ring(r)
    if t.absorber == r.zero and _on_generators(t, t.mul, t):
        return Report("ring", PASS, [], {"size": n})
    mul, add, findings = r.mul_table, r.add.op_table(), []
    for a, b, c in itertools.product(range(n), repeat=3):
        ab, ac, bc = mul[a][b], mul[a][c], mul[b][c]
        for law, lhs, rhs in (("ring multiplication associativity", mul[ab][c], mul[a][bc]),
                              ("left distributivity", mul[a][add[b][c]], add[ab][ac]),
                              ("right distributivity", mul[add[a][b]][c], add[ac][bc])):
            if lhs != rhs:
                findings.append(Finding(law, (a, b, c), lhs, rhs))
    return Report("ring", FAIL if findings else PASS, findings, {"size": n})


class RModule(_Additive):
    """A left module over a finite ring, with an explicit action table; the
    regular module shares its ring's carrier heap."""

    __slots__ = ("ring", "group", "heap", "zero", "action", "size", "names")

    def __init__(self, ring: FiniteRing, group: FiniteGroup, action, validate=True):
        if not group.abelian:
            raise StructureError("a module's additive group must be Abelian")
        self.ring = ring
        self.group = group
        self.heap = ring.heap if group is ring.add else heap_from_group(group)
        self.zero = group.neutral
        self.size = group.size
        self.action = _id_table(action, ring.size, group.size, "the action table")
        self.names = group.names
        if validate:
            report = validate_rmodule(self)
            if not report.ok:
                raise StructureError(f"not an R-module: {report.findings[0]}")

    def act(self, r, m):
        return self.action[r][m]

    def __eq__(self, other):
        return (isinstance(other, RModule) and self.ring == other.ring
                and self.group == other.group and self.action == other.action)

    def __repr__(self):
        return f"RModule(order={self.size} over ring of order {self.ring.size})"

    @classmethod
    def regular(cls, ring: FiniteRing) -> "RModule":
        return cls(ring, ring.add, ring.mul_table, validate=False)

    @classmethod
    def product(cls, m1: "RModule", m2: "RModule") -> "RModule":
        if m1.ring != m2.ring:
            raise StructureError("module product needs one common ring")
        group = FiniteGroup.product(m1.group, m2.group)
        n2 = m2.size
        action = [
            [m1.act(r, x // n2) * n2 + m2.act(r, x % n2) for x in range(group.size)]
            for r in range(m1.ring.size)
        ]
        return cls(m1.ring, group, action, validate=False)

    @classmethod
    def power(cls, ring: FiniteRing, n: int) -> "RModule":
        out = cls.regular(ring)
        for _ in range(n - 1):
            out = cls.product(out, cls.regular(ring))
        return out


def validate_rmodule(m: RModule) -> Report:
    """Unital module laws over the ring, exactly.

    An affine map that fixes zero is additive, so m is a module exactly
    when T(m) passes the law engine as a module over T(R), on generators
    (Certaine's lemma, as in ``validate_ring``), r.0 = 0 and 0.x = 0 for
    every r and x, and 1 acts as the identity.  Otherwise the sweep lists
    every violated instance."""
    from .modules import FiniteTModule
    R, n = m.ring, m.size
    tm = FiniteTModule.from_rmodule(m)
    zero = m.zero
    if (all(m.act(r, zero) == zero for r in range(R.size))
            and all(m.act(R.zero, x) == zero and (R.one is None or m.act(R.one, x) == x)
                    for x in range(n))
            and _on_generators(tm.truss, tm.act, tm)):
        return Report("R-module", PASS, [], {"size": n, "ring": R.size})
    act, times, plus, add = m.action, R.mul_table, R.add.op_table(), m.group.op_table()
    findings = []
    for r, s in itertools.product(range(R.size), repeat=2):
        for x in range(n):
            lhs, rhs = act[r][act[s][x]], act[times[r][s]][x]
            if lhs != rhs:
                findings.append(Finding("module associativity r(sx) = (rs)x", (r, s, x), lhs, rhs))
            lhs, rhs = act[plus[r][s]][x], add[act[r][x]][act[s][x]]
            if lhs != rhs:
                findings.append(Finding("module law (r+s)x = rx+sx", (r, s, x), lhs, rhs))
    for r in range(R.size):
        ar = act[r]
        for x, y in itertools.product(range(n), repeat=2):
            lhs, rhs = ar[add[x][y]], add[ar[x]][ar[y]]
            if lhs != rhs:
                findings.append(Finding("module law r(x+y) = rx+ry", (r, x, y), lhs, rhs))
    if R.one is not None:
        for x in range(n):
            if m.act(R.one, x) != x:
                findings.append(Finding("unitality 1x = x", (x,), m.act(R.one, x), x))
    return Report("R-module", FAIL if findings else PASS, findings,
                  {"size": n, "ring": R.size})


def rmodule_isomorphism(m1: RModule, m2: RModule):
    """An R-module isomorphism m1 -> m2 as an id mapping, or None: the first
    isomorphism of the additive groups from ``core._group_maps`` that
    commutes with the action of every r (``core._first_unequivariant``)."""
    if m1.ring != m2.ring:
        return None
    rs = range(m1.ring.size)
    return next((f for f in _group_maps(m1.group, m2.group, iso=True)
                 if _first_unequivariant(f, m1.act, m2.act, rs, range(m1.size)) is None), None)


def rmodule_homs(m1: RModule, m2: RModule):
    """All R-module homomorphisms m1 -> m2 as mapping tuples, in
    lexicographic order: the maps of the additive groups from
    ``core._group_maps`` that commute with the action of every r
    (``core._first_unequivariant``)."""
    if m1.ring != m2.ring:
        raise StructureError("hom-sets need one common ring")
    rs = range(m1.ring.size)
    return sorted(tuple(f) for f in _group_maps(m1.group, m2.group)
                  if _first_unequivariant(f, m1.act, m2.act, rs, range(m1.size)) is None)
