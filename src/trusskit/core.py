"""Finite heaps and finite groups as exact, integer-indexed operation tables.

Element ids are dense integers ``0..n-1``; display names live in a separate
tuple.  A heap either stores its full ternary table or computes the operation
on demand from a backing function (e.g. a group), behind one interface.  All
values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .reports import FAIL, PASS, Finding, Report


class StructureError(ValueError):
    """Malformed table, unknown element, or an operation used out of domain."""


# ---------------------------------------------------------------------------
# groups


def validate_group_table(op_table) -> Report:
    """Check a Cayley table for associativity, identity and inverses.

    Structural problems (ragged rows, ids out of range) raise StructureError;
    broken axioms are collected as findings, one per violated instance.
    """
    rows = tuple(tuple(row) for row in op_table)
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise StructureError(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise StructureError(f"entry ({i},{j}) = {v!r} is not an id in 0..{n - 1}")
    findings = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    findings.append(Finding("group associativity", (a, b, c),
                                            rows[rows[a][b]][c], rows[a][rows[b][c]]))
    neutral = None
    for e in range(n):
        if all(rows[e][x] == x == rows[x][e] for x in range(n)):
            neutral = e
            break
    if neutral is None and n > 0:
        findings.append(Finding("two-sided identity", (), note="no identity element"))
    elif neutral is not None:
        for a in range(n):
            if not any(rows[a][b] == neutral == rows[b][a] for b in range(n)):
                findings.append(Finding("two-sided inverse", (a,), note="no inverse"))
    status = FAIL if findings else PASS
    return Report("group table", status, findings, {"size": n, "identity": neutral})


class FiniteGroup:
    """Group on ids ``0..n-1`` with an explicit Cayley table."""

    __slots__ = ("size", "names", "neutral", "abelian", "_op", "_inv")

    def __init__(self, op_table, names=None, validate=True):
        rows = tuple(tuple(row) for row in op_table)
        if validate:
            report = validate_group_table(rows)
            if not report.ok:
                raise StructureError(f"not a group: {report.findings[0]}")
        self.size = len(rows)
        self._op = rows
        names = tuple(names) if names is not None else tuple(str(i) for i in range(self.size))
        if len(names) != self.size:
            raise StructureError("names do not match the carrier size")
        self.names = names
        self.neutral = next(
            (e for e in range(self.size)
             if all(rows[e][x] == x == rows[x][e] for x in range(self.size))),
            None,
        )
        if self.neutral is None and self.size > 0:
            raise StructureError("no identity element")
        self._inv = tuple(
            next(b for b in range(self.size) if rows[a][b] == self.neutral == rows[b][a])
            for a in range(self.size)
        )
        self.abelian = all(
            rows[a][b] == rows[b][a] for a in range(self.size) for b in range(a)
        )

    def op(self, a, b):
        return self._op[a][b]

    def inv(self, a):
        return self._inv[a]

    def elements(self):
        return range(self.size)

    def element_order(self, a) -> int:
        x, k = a, 1
        while x != self.neutral:
            x = self._op[x][a]
            k += 1
        return k

    def op_table(self):
        return self._op

    def __len__(self):
        return self.size

    def __eq__(self, other):
        return (isinstance(other, FiniteGroup)
                and self._op == other._op and self.neutral == other.neutral)

    def __hash__(self):
        return hash((self._op, self.neutral))

    def __repr__(self):
        return f"FiniteGroup(order={self.size}, neutral={self.names[self.neutral] if self.size else '-'})"

    # -- standard constructions ------------------------------------------

    @classmethod
    def cyclic(cls, n) -> "FiniteGroup":
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return cls(table, validate=False)

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls.cyclic(1)

    @classmethod
    def product(cls, g, h) -> "FiniteGroup":
        n2 = h.size
        size = g.size * h.size
        table = [[0] * size for _ in range(size)]
        for a1, a2 in itertools.product(range(g.size), range(h.size)):
            for b1, b2 in itertools.product(range(g.size), range(h.size)):
                table[a1 * n2 + a2][b1 * n2 + b2] = g.op(a1, b1) * n2 + h.op(a2, b2)
        names = tuple(f"({g.names[a]},{h.names[b]})"
                      for a in range(g.size) for b in range(h.size))
        return cls(table, names, validate=False)

    @classmethod
    def dihedral(cls, n) -> "FiniteGroup":
        """Dihedral group of order 2n (``dihedral(3)`` is S3)."""
        size = 2 * n
        table = [[0] * size for _ in range(size)]
        for i in range(n):
            for j in range(n):
                table[i][j] = (i + j) % n
                table[i][j + n] = (i + j) % n + n
                table[i + n][j] = (i - j) % n + n
                table[i + n][j + n] = (i - j) % n
        names = tuple(f"r{i}" for i in range(n)) + tuple(f"s{i}" for i in range(n))
        return cls(table, names, validate=False)

    @classmethod
    def quaternion(cls) -> "FiniteGroup":
        units = ("1", "i", "j", "k")
        rules = {
            ("1", "1"): (0, "1"), ("1", "i"): (0, "i"), ("1", "j"): (0, "j"), ("1", "k"): (0, "k"),
            ("i", "1"): (0, "i"), ("j", "1"): (0, "j"), ("k", "1"): (0, "k"),
            ("i", "i"): (1, "1"), ("j", "j"): (1, "1"), ("k", "k"): (1, "1"),
            ("i", "j"): (0, "k"), ("j", "i"): (1, "k"),
            ("j", "k"): (0, "i"), ("k", "j"): (1, "i"),
            ("k", "i"): (0, "j"), ("i", "k"): (1, "j"),
        }
        idx = {(u, s): 2 * units.index(u) + s for u in units for s in (0, 1)}
        size = 8
        table = [[0] * size for _ in range(size)]
        for (u1, s1), a in idx.items():
            for (u2, s2), b in idx.items():
                s, u = rules[(u1, u2)]
                table[a][b] = idx[(u, (s + s1 + s2) % 2)]
        names = tuple(("" if s == 0 else "-") + u for u in units for s in (0, 1))
        return cls(table, names, validate=False)


def small_groups(max_order=8):
    """All groups of order <= max_order (up to isomorphism), with labels."""
    catalog = [
        ("C1", FiniteGroup.trivial()),
        ("C2", FiniteGroup.cyclic(2)),
        ("C3", FiniteGroup.cyclic(3)),
        ("C4", FiniteGroup.cyclic(4)),
        ("C2xC2", FiniteGroup.product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))),
        ("C5", FiniteGroup.cyclic(5)),
        ("C6", FiniteGroup.cyclic(6)),
        ("S3", FiniteGroup.dihedral(3)),
        ("C7", FiniteGroup.cyclic(7)),
        ("C8", FiniteGroup.cyclic(8)),
        ("C4xC2", FiniteGroup.product(FiniteGroup.cyclic(4), FiniteGroup.cyclic(2))),
        ("C2xC2xC2", FiniteGroup.product(
            FiniteGroup.cyclic(2),
            FiniteGroup.product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)))),
        ("D4", FiniteGroup.dihedral(4)),
        ("Q8", FiniteGroup.quaternion()),
    ]
    return [(label, g) for label, g in catalog if g.size <= max_order]


def _closure(g: FiniteGroup, seed) -> set:
    out = set(seed) | {g.neutral}
    frontier = list(out)
    while frontier:
        x = frontier.pop()
        for y in list(out):
            for z in (g.op(x, y), g.op(y, x)):
                if z not in out:
                    out.add(z)
                    frontier.append(z)
    return out


def _generating_sequence(g: FiniteGroup):
    gens, closed = [], {g.neutral}
    for x in range(g.size):
        if x not in closed:
            gens.append(x)
            closed = _closure(g, closed | {x})
    return gens


def _bfs_recipe(g: FiniteGroup, gens):
    """Each non-neutral element as (element, parent, gen index), parent-first."""
    seen = {g.neutral}
    recipe = []
    frontier = [g.neutral]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, gen in enumerate(gens):
                y = g.op(x, gen)
                if y not in seen:
                    seen.add(y)
                    recipe.append((y, x, gi))
                    nxt.append(y)
        frontier = nxt
    return recipe


def group_isomorphism(g1: FiniteGroup, g2: FiniteGroup):
    """An isomorphism g1 -> g2 as an id mapping, or None.

    Backtracks over generator images (matched by element order) instead of
    trying all n! bijections.
    """
    if g1.size != g2.size:
        return None
    orders1 = sorted(g1.element_order(x) for x in range(g1.size))
    orders2 = sorted(g2.element_order(x) for x in range(g2.size))
    if orders1 != orders2:
        return None
    if g1.size == 0:
        return []
    gens = _generating_sequence(g1)
    recipe = _bfs_recipe(g1, gens)
    pairs = list(itertools.product(range(g1.size), repeat=2))
    candidates = [
        [y for y in range(g2.size) if g2.element_order(y) == g1.element_order(x)]
        for x in gens
    ]
    for imgs in itertools.product(*candidates):
        mapping = [None] * g1.size
        mapping[g1.neutral] = g2.neutral
        for x, parent, gi in recipe:
            mapping[x] = g2.op(mapping[parent], imgs[gi])
        if len(set(mapping)) != g1.size:
            continue
        if all(mapping[g1.op(x, y)] == g2.op(mapping[x], mapping[y]) for x, y in pairs):
            return mapping
    return None


def quotient_group(g: FiniteGroup, members):
    """Quotient of g by the (normal) subgroup on ``members``.

    Returns the quotient group and the coset index of each element; cosets
    are ordered by their least member so labelling is deterministic.
    """
    members = sorted(set(members))
    cosets = {}
    for a in range(g.size):
        cosets[a] = frozenset(g.op(s, a) for s in members)
    distinct = sorted(set(cosets.values()), key=min)
    index = {c: i for i, c in enumerate(distinct)}
    proj = [index[cosets[a]] for a in range(g.size)]
    reps = [min(c) for c in distinct]
    table = [[proj[g.op(a, b)] for b in reps] for a in reps]
    names = tuple("{" + ",".join(g.names[m] for m in sorted(c)) + "}" for c in distinct)
    return FiniteGroup(table, names), proj


# ---------------------------------------------------------------------------
# heaps


def _normalize_ternary(table):
    # tuples built from lists, not from generators: CPython 3.11 resizes a
    # tuple grown from a generator, and the freed tuple then sits in the free
    # list of its final size instead of being reused
    rows = tuple([tuple([tuple(level) for level in plane]) for plane in table])
    n = len(rows)
    for a, plane in enumerate(rows):
        if len(plane) != n:
            raise StructureError(f"plane {a} has {len(plane)} rows, expected {n}")
        for b, level in enumerate(plane):
            if len(level) != n:
                raise StructureError(f"row ({a},{b}) has length {len(level)}, expected {n}")
            for c, v in enumerate(level):
                if not isinstance(v, int) or not 0 <= v < n:
                    raise StructureError(f"entry ({a},{b},{c}) = {v!r} is not an id in 0..{n - 1}")
    return rows


def _assoc_violations(rows):
    """Every violated [[a,b,c],d,e] = [a,b,[c,d,e]], in sweep order; O(n^5)."""
    n = len(rows)
    for a in range(n):
        ta = rows[a]
        for b in range(n):
            tab = ta[b]
            for c in range(n):
                left = rows[tab[c]]
                for d in range(n):
                    ld = left[d]
                    td = rows[c][d]
                    for e in range(n):
                        if ld[e] != tab[td[e]]:
                            yield Finding("heap associativity", (a, b, c, d, e),
                                          ld[e], tab[td[e]])


def _retract_defects(carrier, e):
    """The entries where a finite ternary operation differs from the heap of
    its retract at e, in (a, b, c) order, or None if that retract is not a
    group; O(n^3).

    ``carrier`` is a ternary table or a finite structure with ``size`` and
    ``ternary`` (a heap, truss or module).  The latter is evaluated entry by
    entry, so a function-backed heap never builds and caches its table.

    A ternary operation is a heap exactly when [a,e,b] is a group and
    [a,b,c] = a.b^-1.c in it (Certaine 1943), i.e. when the list is empty.
    The inverse is the retract's own, not [e,b,e]: with that,
    [a,b,c] = a + c (mod 2) would pass.
    """
    if hasattr(carrier, "ternary"):
        n, ternary = carrier.size, carrier.ternary

        def row(a, b):
            return [ternary(a, b, c) for c in range(n)]
    else:
        n = len(carrier)

        def row(a, b):
            return carrier[a][b]
    op = [row(a, e) for a in range(n)]
    if not validate_group_table(op).ok:
        return None
    g = FiniteGroup(op, validate=False)
    inv = [g.inv(b) for b in range(n)]
    dirty = []
    for a in range(n):
        op_a = op[a]
        for b in range(n):
            got, want = row(a, b), op[op_a[inv[b]]]
            if got != want:
                dirty += [(a, b, c) for c in range(n) if got[c] != want[c]]
    return dirty


def _is_group_heap(carrier) -> bool:
    """Whether a finite ternary operation is the heap of its retract at 0,
    i.e. a heap; O(n^3).  See ``_retract_defects``."""
    return _retract_defects(carrier, 0) == []


def _dirty_candidates(rows, dirty):
    """Every quintuple (a, b, c, d, x) whose associativity instance reads a
    dirty entry, sorted: at (a,b,c), at (c,d,x), at ([a,b,c],d,x) or at
    (a,b,[c,d,x]).  The last two come from the preimages of the first and
    third coordinates of the dirty entries, collected in one O(n^3) scan and
    only for those values, so memory stays O(|D| n^2)."""
    n = len(rows)
    ids = range(n)
    preimage = {v: [] for p, _, r in dirty for v in (p, r)}
    for a in ids:
        for b in ids:
            for c, v in enumerate(rows[a][b]):
                if v in preimage:
                    preimage[v].append((a, b, c))
    candidates = set()
    for p, q, r in dirty:
        candidates.update([(p, q, r, d, x) for d in ids for x in ids])
        candidates.update([(a, b, p, q, r) for a in ids for b in ids])
        candidates.update([(a, b, c, q, r) for a, b, c in preimage[p]])
        candidates.update([(p, q, c, d, x) for c, d, x in preimage[r]])
    return sorted(candidates)


def _associativity(rows):
    """``(stats, findings)``: how associativity is decided (see validate_heap)
    and a lazy iterator over its violations, in sweep order.

    The first basepoint e in 0, 1, 2 whose retract is a group and whose D
    is small enough is used; an entry (a, e, b) that differs from a group
    heap breaks the retract at e.
    """
    n = len(rows)
    for e in range(min(n, 3)):
        dirty = _retract_defects(rows, e)
        if dirty is None:
            continue
        if not dirty:
            return {"algorithm": "retract", "basepoint": e, "dirty": 0, "candidates": 0}, iter(())
        if 4 * len(dirty) * n * n < n ** 5:
            candidates = _dirty_candidates(rows, dirty)
            stats = {"algorithm": "dirty entries", "basepoint": e, "dirty": len(dirty),
                     "candidates": len(candidates)}
            return stats, _violated(rows, candidates)
    stats = {"algorithm": "sweep", "basepoint": None, "dirty": None, "candidates": n ** 5}
    return stats, _assoc_violations(rows)


def _violated(rows, candidates):
    for a, b, c, d, x in candidates:
        lhs, rhs = rows[rows[a][b][c]][d][x], rows[a][b][rows[c][d][x]]
        if lhs != rhs:
            yield Finding("heap associativity", (a, b, c, d, x), lhs, rhs)


def _heap_violations(rows, abelian, stats):
    """Every violated heap law, lazily, in the order validate_heap lists them.

    ``stats["associativity"]`` is set once the Mal'cev pairs are done."""
    n = len(rows)
    for a in range(n):
        for b in range(n):
            if rows[a][b][b] != a:
                yield Finding("Mal'cev [a,b,b] = a", (a, b), rows[a][b][b], a)
            if rows[b][b][a] != a:
                yield Finding("Mal'cev [b,b,a] = a", (b, a), rows[b][b][a], a)
    stats["associativity"], violations = _associativity(rows)
    yield from violations
    if abelian:
        for a in range(n):
            for b in range(n):
                for c in range(a):
                    if rows[a][b][c] != rows[c][b][a]:
                        yield Finding("Abelian symmetry [a,b,c] = [c,b,a]",
                                      (a, b, c), rows[a][b][c], rows[c][b][a])


def validate_heap(table, abelian=False) -> Report:
    """Check a ternary table against the heap axioms, exactly at every size.

    A fail reports every violated instance: the Mal'cev identities over all
    pairs, associativity over all quintuples, and (when ``abelian`` is set)
    the symmetry over all triples, in that order.

    Associativity comes from a retract (Certaine 1943).  If the retract at
    a basepoint e is a group, let H = a.b^-1.c be its heap and D the entries
    where the table differs from H, found in O(n^3).  D empty: a heap
    ("retract").  Otherwise, as H is associative, every violated instance
    (a, b, c, d, x) reads an entry of D at (a,b,c), ([a,b,c],d,x), (c,d,x)
    or (a,b,[c,d,x]), so only those O(|D| n^2) candidates are checked
    ("dirty entries").  Basepoints 0, 1 and 2 are tried.  The O(n^5) sweep
    runs when none of their retracts is a group, or when 4 |D| n^2 reaches
    n^5.  ``stats["associativity"]`` names the algorithm, the basepoint,
    |D| and the number of candidate quintuples checked.
    """
    rows = _normalize_ternary(table)
    stats = {"size": len(rows)}
    findings = list(_heap_violations(rows, abelian, stats))
    return Report("heap table", FAIL if findings else PASS, findings, stats)


def _first_unpreserved(source_ternary, target_ternary, mapping):
    """The first (a, e, c) with e = 0 where f[a,e,c] != [fa,fe,fc], or None.

    For heaps this decides whether f is a heap morphism in O(n^2): preserving
    [a,e,c] makes f a group map from the retract at e to the retract at f(e),
    and [a,b,c] = a.b^-1.c in both.
    """
    e = 0
    for a in range(len(mapping)):
        for c in range(len(mapping)):
            if mapping[source_ternary(a, e, c)] != target_ternary(mapping[a], mapping[e],
                                                                   mapping[c]):
                return (a, e, c)
    return None


class FiniteHeap:
    """Heap on ids ``0..n-1``.

    Either table-backed (``from_table``) or computed on demand from a backing
    function (``from_function``), e.g. a group via ``heap_from_group``.  Full
    O(n^3) tables are wasteful above a few dozen elements, so derived heaps
    stay function-backed until ``table()`` is asked for.
    """

    __slots__ = ("size", "names", "abelian", "_fn", "_table")

    is_finite = True

    def __init__(self, size, *, table=None, fn=None, names=None, abelian=False):
        self.size = size
        self._table = table
        self._fn = fn
        names = tuple(names) if names is not None else tuple(str(i) for i in range(size))
        if len(names) != size:
            raise StructureError("names do not match the carrier size")
        self.names = names
        self.abelian = abelian

    @classmethod
    def from_table(cls, table, names=None):
        """Build a heap from a full ternary table, exactly validated at every
        size; a non-heap raises StructureError naming its first violation."""
        rows = _normalize_ternary(table)
        first = next(_heap_violations(rows, False, {}), None)
        if first is not None:
            raise StructureError(f"not a heap: {first}")
        n = len(rows)
        abelian = all(rows[a][b][c] == rows[c][b][a]
                      for a in range(n) for b in range(n) for c in range(a + 1))
        return cls(n, table=rows, names=names, abelian=abelian)

    @classmethod
    def from_function(cls, size, fn, names=None, abelian=False):
        """Wrap a trusted ternary function (group-backed, products, ...)."""
        return cls(size, fn=fn, names=names, abelian=abelian)

    @classmethod
    def empty(cls):
        return cls(0, table=(), abelian=True)

    @classmethod
    def singleton(cls, name="*"):
        return cls(1, table=(((0,),),), names=(name,), abelian=True)

    def ternary(self, a, b, c):
        if self._table is not None:
            return self._table[a][b][c]
        return self._fn(a, b, c)

    def table(self):
        if self._table is None:
            fn = self._fn
            n = self.size
            self._table = tuple([
                tuple([tuple([fn(a, b, c) for c in range(n)]) for b in range(n)])
                for a in range(n)
            ])
        return self._table

    def elements(self):
        return range(self.size)

    def contains(self, x) -> bool:
        return isinstance(x, int) and 0 <= x < self.size

    def sample(self, window):
        return range(self.size)

    def __len__(self):
        return self.size

    def __eq__(self, other):
        if not isinstance(other, FiniteHeap):
            return NotImplemented
        if self.size != other.size:
            return False
        if self._table is not None and other._table is not None:
            return self._table == other._table
        # entry by entry, so a function-backed heap builds no table
        ids = range(self.size)
        return all(self.ternary(a, b, c) == other.ternary(a, b, c)
                   for a in ids for b in ids for c in ids)

    def __repr__(self):
        kind = "table" if self._table is not None else "fn"
        return f"FiniteHeap(order={self.size}, {kind}-backed, abelian={self.abelian})"


class IntLineHeap:
    """The heap of the additive integers: [a,b,c] = a - b + c."""

    size = None
    abelian = True
    is_finite = False

    def ternary(self, a, b, c):
        return a - b + c

    def contains(self, x) -> bool:
        return isinstance(x, int)

    def sample(self, window):
        return range(-window, window + 1)

    def __eq__(self, other):
        return isinstance(other, IntLineHeap)

    def __hash__(self):
        return hash(IntLineHeap)

    def __repr__(self):
        return "IntLineHeap()"


INT_LINE = IntLineHeap()


def heap_from_group(g: FiniteGroup) -> FiniteHeap:
    """The heap of a group: [x,y,z] = x y^{-1} z."""
    return FiniteHeap.from_function(
        g.size,
        lambda a, b, c: g.op(g.op(a, g.inv(b)), c),
        names=g.names,
        abelian=g.abelian,
    )


def retract(h: FiniteHeap, e: int) -> FiniteGroup:
    """The group on h with product a . b = [a,e,b], neutral e, inverse [e,a,e]."""
    if not h.contains(e):
        raise StructureError(f"basepoint {e!r} is not in the carrier")
    table = [[h.ternary(a, e, b) for b in range(h.size)] for a in range(h.size)]
    return FiniteGroup(table, h.names, validate=False)


@dataclass(frozen=True)
class HeapMorphism:
    """A ternary-operation-preserving map between finite heaps.

    Checked in O(n^2) at construction: a map that preserves [a,0,c] for all
    a, c is a group map of retracts and so preserves every [a,b,c].
    """

    source: FiniteHeap
    target: FiniteHeap
    mapping: tuple

    def __post_init__(self):
        if len(self.mapping) != self.source.size:
            raise StructureError("mapping does not cover the source carrier")
        for v in self.mapping:
            if not self.target.contains(v):
                raise StructureError(f"image {v!r} is not in the target carrier")
        bad = _first_unpreserved(self.source.ternary, self.target.ternary, self.mapping)
        if bad is not None:
            raise StructureError(f"ternary operation not preserved at {bad}")

    def __call__(self, a):
        return self.mapping[a]

    def is_bijective(self) -> bool:
        return (self.source.size == self.target.size
                and len(set(self.mapping)) == self.source.size)

    def compose(self, other: "HeapMorphism") -> "HeapMorphism":
        """self after other."""
        return HeapMorphism(other.source, self.target,
                            tuple(self.mapping[v] for v in other.mapping))


def translation_iso(h: FiniteHeap, e: int, f: int) -> HeapMorphism:
    """The swap automorphism a -> [a,e,f]; inverse to translation_iso(h, f, e).

    It is also a group isomorphism from the retract at e to the retract at f.
    """
    for x in (e, f):
        if not h.contains(x):
            raise StructureError(f"basepoint {x!r} is not in the carrier")
    return HeapMorphism(h, h, tuple(h.ternary(a, e, f) for a in range(h.size)))


@dataclass(frozen=True)
class SubHeap:
    """A subset closed under the parent's ternary operation.

    The default constructor rejects the empty subset; use ``SubHeap.empty``
    when the empty sub-heap is genuinely wanted.
    """

    parent: FiniteHeap
    members: tuple

    def __post_init__(self):
        members = tuple(sorted(set(self.members)))
        object.__setattr__(self, "members", members)
        if not members:
            raise StructureError("empty sub-heap: use SubHeap.empty explicitly")
        for m in members:
            if not self.parent.contains(m):
                raise StructureError(f"member {m!r} is not in the parent carrier")
        mset = set(members)
        for a in members:
            for b in members:
                for c in members:
                    v = self.parent.ternary(a, b, c)
                    if v not in mset:
                        raise StructureError(
                            f"not closed: [{a},{b},{c}] = {v} falls outside the subset")

    @classmethod
    def empty(cls, parent: FiniteHeap) -> "SubHeap":
        obj = object.__new__(cls)
        object.__setattr__(obj, "parent", parent)
        object.__setattr__(obj, "members", ())
        return obj

    def as_heap(self) -> FiniteHeap:
        index = {m: i for i, m in enumerate(self.members)}
        table = tuple(
            tuple(tuple(index[self.parent.ternary(a, b, c)] for c in self.members)
                  for b in self.members)
            for a in self.members
        )
        names = tuple(self.parent.names[m] for m in self.members)
        return FiniteHeap(len(self.members), table=table, names=names,
                          abelian=self.parent.abelian)

    def __len__(self):
        return len(self.members)


def generated_subheap(h: FiniteHeap, xs) -> SubHeap:
    """The least sub-heap of h containing xs (xs must be non-empty)."""
    xs = sorted(set(xs))
    if not xs:
        raise StructureError("cannot generate a sub-heap from the empty set")
    for x in xs:
        if not h.contains(x):
            raise StructureError(f"generator {x!r} is not in the carrier")
    members = set(xs)
    grew = True
    while grew:
        grew = False
        snapshot = sorted(members)
        for a in snapshot:
            for b in snapshot:
                for c in snapshot:
                    v = h.ternary(a, b, c)
                    if v not in members:
                        members.add(v)
                        grew = True
    return SubHeap(h, tuple(sorted(members)))


@dataclass(frozen=True)
class NormalityReport:
    normal: bool
    base: object = None
    witnesses: dict = None
    counterexample: tuple = None


def is_normal(s: SubHeap) -> NormalityReport:
    """Decide normality of a sub-heap: every [a,e,s'] equals some [t,e,a].

    The existential-over-e and universal-over-e formulations agree, so the
    flag is decided at one base element; the witness table maps (a, s') to a
    witness t for that base.  Sub-heaps of Abelian heaps are always normal.
    """
    if not s.members:
        return NormalityReport(False, counterexample=())
    h = s.parent
    e = s.members[0]
    member_set = set(s.members)
    witnesses = {}
    for a in range(h.size):
        for sp in s.members:
            lhs = h.ternary(a, e, sp)
            found = None
            for t in s.members:
                if h.ternary(t, e, a) == lhs:
                    found = t
                    break
            if found is None:
                return NormalityReport(False, base=e, counterexample=(a, e, sp))
            witnesses[(a, sp)] = found
    return NormalityReport(True, base=e, witnesses=witnesses)


def quotient(h: FiniteHeap, s: SubHeap):
    """Quotient heap h/S for a normal sub-heap, with the projection map.

    Classes are the sets {[s,t,a] : s,t in S}, ordered by least member; the
    class of any member of S is S itself.
    """
    check = is_normal(s)
    if not check.normal:
        raise StructureError(f"sub-heap is not normal (counterexample {check.counterexample})")
    classes = {}
    for a in range(h.size):
        classes[a] = frozenset(h.ternary(x, y, a) for x in s.members for y in s.members)
    distinct = sorted(set(classes.values()), key=min)
    index = {c: i for i, c in enumerate(distinct)}
    proj = tuple(index[classes[a]] for a in range(h.size))
    reps = [min(c) for c in distinct]
    table = tuple(
        tuple(tuple(proj[h.ternary(a, b, c)] for c in reps) for b in reps)
        for a in reps
    )
    names = tuple("{" + ",".join(h.names[m] for m in sorted(c)) + "}" for c in distinct)
    qheap = FiniteHeap(len(distinct), table=table, names=names, abelian=h.abelian)
    return qheap, HeapMorphism(h, qheap, proj)


def product(h1: FiniteHeap, h2: FiniteHeap) -> FiniteHeap:
    """Direct product: pairs with the component-wise ternary operation."""
    n2 = h2.size
    names = tuple(f"({h1.names[a]},{h2.names[b]})"
                  for a in range(h1.size) for b in range(h2.size))

    def fn(x, y, z):
        return (h1.ternary(x // n2, y // n2, z // n2) * n2
                + h2.ternary(x % n2, y % n2, z % n2))

    return FiniteHeap.from_function(h1.size * n2, fn, names=names,
                                    abelian=h1.abelian and h2.abelian)


def find_isomorphism(a: FiniteHeap, b: FiniteHeap):
    """A heap isomorphism a -> b, or None if there is none.

    Two heaps are isomorphic exactly when their retracts are isomorphic as
    groups, so the search fixes a basepoint in a and tries each basepoint in
    b with a generator-image group isomorphism search.
    """
    if a.size != b.size:
        return None
    if a.size == 0:
        return HeapMorphism(a, b, ())
    ga = retract(a, 0)
    for f in range(b.size):
        mapping = group_isomorphism(ga, retract(b, f))
        if mapping is not None:
            return HeapMorphism(a, b, tuple(mapping))
    return None
