"""Finite heaps and finite groups as exact, integer-indexed operation tables.

Element ids are dense integers ``0..n-1``; display names live in a separate
tuple.  A heap either stores its full ternary table or computes the operation
on demand from a backing function (e.g. a group), behind one interface.  All
values are immutable after construction and every operation is pure.

These routines are the only ones of their kind in the package:
``_closure`` closes a finite set under a ternary operation (generated
sub-heaps and spans); ``_quotient_classes`` builds the classes and
projection of a quotient by a normal sub-heap (``quotient``, absorber
quotients of modules), and ``_descend`` turns a map on elements into the
map on those classes; ``_group_maps`` yields the group maps or
isomorphisms from generator images (``group_isomorphism``, and the module
hom-sets and isomorphisms of ``rings`` and ``modules``);
``_first_unequivariant`` checks that a map of modules commutes with the
action (every module hom-set, isomorphism and morphism, and the projection
of a free module onto R^n); ``frame()`` of a carrier heap (``FiniteHeap``,
``IntLineHeap``, ``coproduct.DirectSum``) is a point and that point moved
by each generator of its group form, on which every truss, module, ring and
ring-module law is decided, and ``_id_table`` checks every product and
action table.  Every structure holds its carrier as ``heap``: trusses and
modules their own, rings and ring modules the ``heap_from_group`` of their
additive group, wrapped once when they are built and shared with T(R) and
T(N), so each frame is walked once.  ``_unit`` finds every identity and
absorber of a table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .reports import FAIL, PASS, Finding, Report


class StructureError(ValueError):
    """Malformed table, unknown element, or an operation used out of domain."""


def _id_table(table, rows, n, what):
    """``table`` as a tuple of ``rows`` tuples of n ids in 0..n-1 (products
    and actions); StructureError naming ``what`` otherwise."""
    try:
        table = tuple(tuple(row) for row in table)
    except TypeError:       # the table or a row is no sequence
        table = None
    if table is None or len(table) != rows or not all(
            len(r) == n and all(isinstance(v, int) and 0 <= v < n for v in r) for r in table):
        raise StructureError(f"{what} must be a {rows} x {n} table of ids in 0..{n - 1}")
    return table


def _unit(rows, absorbing=False):
    """The least e of a square table with e.x = x = x.e for every x (an
    identity), or with ``absorbing`` e.x = e = x.e (an absorber); None if
    there is none."""
    ids = range(len(rows))
    return next((e for e in ids
                 if all(rows[e][x] == (e if absorbing else x) == rows[x][e] for x in ids)), None)


# ---------------------------------------------------------------------------
# groups


def validate_group_table(op_table) -> Report:
    """Check a Cayley table for associativity, identity and inverses.

    Structural problems (ragged rows, ids out of range) raise StructureError;
    broken axioms are collected as findings, one per violated instance.

    With an identity and inverses, associativity is Light's test (Clifford
    and Preston, *The Algebraic Theory of Semigroups* I, 1961): for the
    greedy generators S of ``_generating_sequence``, (x.s).y = x.(s.y) for
    every x, y and s in S, n^2 |S| checks.  The s that pass are closed under
    products and every element is e or a left-nested product of S, so every
    element passes.  Otherwise, or when a generator fails, the n^3 sweep
    lists every violated instance.
    """
    rows = tuple(tuple(row) for row in op_table)
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise StructureError(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise StructureError(f"entry ({i},{j}) = {v!r} is not an id in 0..{n - 1}")
    ids = range(n)
    neutral = _unit(rows)
    if neutral is None:
        units = [Finding("two-sided identity", (), note="no identity element")]
    else:
        units = [Finding("two-sided inverse", (a,), note="no inverse") for a in ids
                 if not any(rows[a][b] == neutral == rows[b][a] for b in ids)]
    light = not units and all(
        rows[rows[x][s]][y] == rows[x][rows[s][y]]
        for s in _generating_sequence(n, lambda a, b: rows[a][b], neutral)
        for x in ids for y in ids)
    findings = [] if light else [
        Finding("group associativity", (a, b, c), rows[rows[a][b]][c], rows[a][rows[b][c]])
        for a in ids for b in ids for c in ids if rows[rows[a][b]][c] != rows[a][rows[b][c]]]
    findings += units
    return Report("group table", FAIL if findings else PASS, findings,
                  {"size": n, "identity": neutral})


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
        self.neutral = _unit(rows)
        if self.neutral is None:
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
        return f"FiniteGroup(order={self.size}, neutral={self.names[self.neutral]})"

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


def _closure(seed, ternary) -> list:
    """The least superset of a finite seed closed under ``ternary``: the
    seed's distinct members in order, then each new member as it is found.

    A worklist: when the i-th member arrives, only the triples whose newest
    member is the i-th are evaluated, so each triple of members is evaluated
    once, O(k^3) for a closure of k members.
    """
    members = list(dict.fromkeys(seed))
    found = set(members)
    for i, x in enumerate(members):     # members grows while it is walked
        upto = members[:i + 1]
        for a in upto:
            for b in upto:
                for c in upto if x in (a, b) else (x,):
                    v = ternary(a, b, c)
                    if v not in found:
                        found.add(v)
                        members.append(v)
    return members


def _generating_sequence(n, op, neutral):
    """Greedy generators of the group (0..n-1, op, neutral): each is the least
    element outside the subgroup the earlier ones generate.  In a finite
    group that is the closure of the neutral element under right products
    with them, walked in O(n.k^2) products for k generators."""
    gens, members, found = [], [neutral], {neutral}
    for x in range(n):
        if x not in found:
            gens.append(x)
            for y in members:       # members grows while it is walked
                for s in gens:
                    z = op(y, s)
                    if z not in found:
                        found.add(z)
                        members.append(z)
    return gens


def _bfs_recipe(op, neutral, gens):
    """Each element of the group (op, neutral) that the generators reach,
    other than the neutral one, as (element, parent, gen index) with
    element = op(parent, gens[gen index]), parent-first."""
    seen = {neutral}
    recipe = []
    frontier = [neutral]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, gen in enumerate(gens):
                y = op(x, gen)
                if y not in seen:
                    seen.add(y)
                    recipe.append((y, x, gi))
                    nxt.append(y)
        frontier = nxt
    return recipe


def _group_maps(g: FiniteGroup, h: FiniteGroup, iso=False):
    """Every group map g -> h as an id mapping, lazily; with ``iso``, every
    isomorphism.

    A map is fixed by its images of g's ``_generating_sequence`` and follows
    them along ``_bfs_recipe``.  A generator of order k is sent, in id order,
    to each element of h of order dividing k (equal to k with ``iso``).
    Each candidate is verified on all n^2 pairs: the recipe is not trusted.
    With ``iso`` nothing is tried unless g and h have the same multiset of
    element orders, which also tells groups of different orders apart.
    """
    orders = [h.element_order(y) for y in range(h.size)]
    if iso and sorted(orders) != sorted(map(g.element_order, range(g.size))):
        return
    gens = _generating_sequence(g.size, g.op, g.neutral)
    recipe = _bfs_recipe(g.op, g.neutral, gens)
    pairs = list(itertools.product(range(g.size), repeat=2))
    candidates = [[y for y in range(h.size) if (orders[y] == k if iso else k % orders[y] == 0)]
                  for k in map(g.element_order, gens)]
    for imgs in itertools.product(*candidates):
        mapping = [None] * g.size
        mapping[g.neutral] = h.neutral
        for x, parent, gi in recipe:
            mapping[x] = h.op(mapping[parent], imgs[gi])
        if iso and len(set(mapping)) != g.size:
            continue
        if all(mapping[g.op(x, y)] == h.op(mapping[x], mapping[y]) for x, y in pairs):
            yield mapping


def group_isomorphism(g1: FiniteGroup, g2: FiniteGroup):
    """An isomorphism g1 -> g2 as an id mapping, or None: the first that
    ``_group_maps`` finds."""
    return next(_group_maps(g1, g2, iso=True), None)


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

    ``carrier`` is a ternary table or a ``FiniteHeap``; a heap is evaluated
    entry by entry, so a function-backed heap never builds and caches its
    table.  A truss or module passes its carrier, ``heap``.

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


def _first_unpreserved(source_ternary, target_ternary, mapping, pool=None, gens=None):
    """The first (a, e, c), a in the pool, c in ``gens`` (by default the
    pool) and e the pool's first element, where f[a,e,c] != [fa,fe,fc], or
    None.  f(x) is ``mapping[x]``; the pool defaults to the ids 0..n-1 of a
    sequence.

    For heaps this decides whether f is a heap morphism in O(n^2): preserving
    [a,e,c] makes f a group map from the retract at e to the retract at f(e),
    and [a,b,c] = a.b^-1.c in both.  The frame form decides it in O(n.k),
    with the pool every element of a finite group heap, starting at the
    point of its ``frame()``, and ``gens`` the k generators of that frame.
    Put L(x) = f(x) - f(e) in the retracts: L(x.g) = L(x) + L(g) for each
    generator g, and the y with L(x.y) = L(x) + L(y) for every x are closed
    under products, so they are every y (Certaine's lemma: an affine map is
    fixed by its values on a frame).
    """
    pool = range(len(mapping)) if pool is None else pool
    e = pool[0] if pool else None
    for a in pool:
        for c in pool if gens is None else gens:
            if mapping[source_ternary(a, e, c)] != target_ternary(mapping[a], mapping[e],
                                                                   mapping[c]):
                return (a, e, c)
    return None


def _first_unequivariant(mapping, src_act, dst_act, scalars, pool):
    """The first (t, x), t in ``scalars`` and x in ``pool``, where
    f(t.x) != t.f(x), or None; f(x) is ``mapping[x]``.

    Over every element of a finite module this decides whether f commutes
    with the action.  Both sides are affine in t and in x when f is a heap
    map, so a frame of a symbolic module (and of its truss) decides it too.
    """
    return next(((t, x) for t in scalars for x in pool
                 if mapping[src_act(t, x)] != dst_act(t, mapping[x])), None)


class FiniteHeap:
    """Heap on ids ``0..n-1``.

    Either table-backed (``from_table``) or computed on demand from a backing
    function (``from_function``), e.g. a group via ``heap_from_group``.  Full
    O(n^3) tables are wasteful above a few dozen elements, so derived heaps
    stay function-backed until ``table()`` is asked for.
    """

    __slots__ = ("size", "names", "abelian", "_fn", "_table", "_frame")

    is_finite = True

    def __init__(self, size, *, table=None, fn=None, names=None, abelian=False,
                 frame=None):
        self.size = size
        self._table = table
        self._fn = fn
        # the function of the heap that computes its frame on first use (a
        # scan, unless the caller builds a group heap), then the frame or None
        self._frame = _scanned_frame if frame is None else frame
        names = tuple(names) if names is not None else tuple(str(i) for i in range(size))
        if len(names) != size:
            raise StructureError("names do not match the carrier size")
        self.names = names
        self.abelian = abelian

    @classmethod
    def from_table(cls, table, names=None):
        """Build a heap from a full ternary table, exactly validated at every
        size; a non-heap raises StructureError naming its first violation.
        A table that passes is a group heap, so its frame is walked with no
        second scan (the empty heap has none)."""
        rows = _normalize_ternary(table)
        first = next(_heap_violations(rows, False, {}), None)
        if first is not None:
            raise StructureError(f"not a heap: {first}")
        n = len(rows)
        abelian = all(rows[a][b][c] == rows[c][b][a]
                      for a in range(n) for b in range(n) for c in range(a + 1))
        return cls(n, table=rows, names=names, abelian=abelian,
                   frame=_walked_frame if n else _no_frame)

    @classmethod
    def from_function(cls, size, fn, names=None, abelian=False, frame=None):
        """Wrap a trusted ternary function (group-backed, products, ...);
        ``frame``, a function of the heap, gives a group heap's frame with no
        scan."""
        return cls(size, fn=fn, names=names, abelian=abelian, frame=frame)

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

    def frame(self):
        """(0,) and generators of the retract at 0: a point and that point
        moved by each generator; None unless this is a non-empty group heap,
        which is exactly when the laws of its trusses and modules may be
        decided on generators.  Computed once, on first use, as ``table()``
        is: an O(n^3) scan and the greedy generators (``_walked_frame``),
        or, for a group heap by construction, as its constructor says."""
        if callable(self._frame):
            self._frame = self._frame(self)
        return self._frame

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
        ids = range(self.size)
        frame, other_frame = self.frame(), other.frame()
        if frame is not None and other_frame is not None:
            # two group heaps are equal when their retracts at 0 are, and the
            # y with [a,0,y] alike in both for every a are closed under
            # products, so the generators of one frame decide: n.k checks
            return all(self.ternary(a, 0, g) == other.ternary(a, 0, g)
                       for a in ids for g in frame[1:])
        # entry by entry, so a function-backed heap builds no table
        return all(self.ternary(a, b, c) == other.ternary(a, b, c)
                   for a in ids for b in ids for c in ids)

    def __repr__(self):
        kind = "table" if self._table is not None else "fn"
        return f"FiniteHeap(order={self.size}, {kind}-backed, abelian={self.abelian})"


def _walked_frame(h):
    """(0,) and the greedy generators of the retract of h at 0
    (``_generating_sequence``), in O(n log^2 n) products."""
    return (0,) + tuple(_generating_sequence(h.size, lambda a, b: h.ternary(a, 0, b), 0))


def _no_frame(h):
    return None


def _scanned_frame(h):
    """``_walked_frame`` of h once the O(n^3) ``_retract_defects`` scan finds
    a group heap, else None."""
    return _walked_frame(h) if _retract_defects(h, 0) == [] else None


class IntLineHeap:
    """The heap of the additive integers: [a,b,c] = a - b + c."""

    size = None
    abelian = True
    is_finite = False

    def ternary(self, a, b, c):
        return a - b + c

    def frame(self):
        return (0, 1)

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
    """The heap of a group: [x,y,z] = x y^{-1} z.  It is a heap by
    construction, so its frame is walked with no scan."""
    op, inv = g._op, g._inv
    return FiniteHeap.from_function(
        g.size,
        lambda a, b, c: op[op[a][inv[b]]][c],
        names=g.names,
        abelian=g.abelian,
        frame=_walked_frame,
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
    """A non-empty subset closed under the parent's ternary operation."""

    parent: FiniteHeap
    members: tuple

    def __post_init__(self):
        members = tuple(sorted(set(self.members)))
        object.__setattr__(self, "members", members)
        if not members:
            raise StructureError("a sub-heap needs at least one member")
        for m in members:
            if not self.parent.contains(m):
                raise StructureError(f"member {m!r} is not in the parent carrier")
        # closed under [a,e,c] and [e,a,e], e least: a subgroup of the retract at
        # e, so closed under all [a,b,c]; a failure sweeps for the first witness
        mset, e, ternary = set(members), members[0], self.parent.ternary
        if all(ternary(a, e, c) in mset for a in members for c in members) and \
                all(ternary(e, a, e) in mset for a in members):
            return
        for a, b, c in itertools.product(members, repeat=3):
            v = ternary(a, b, c)
            if v not in mset:
                raise StructureError(f"not closed: [{a},{b},{c}] = {v} falls outside the subset")

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
    return SubHeap(h, tuple(sorted(_closure(xs, h.ternary))))


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
    h = s.parent
    e = s.members[0]
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


def _quotient_classes(h: FiniteHeap, s: SubHeap):
    """The classes of h/S for a normal sub-heap S and the projection: the
    sets {[s,t,a] : s,t in S}, ordered by least member, and the index of the
    class of each element.  The class of any member of S is S itself."""
    check = is_normal(s)
    if not check.normal:
        raise StructureError(f"sub-heap is not normal (counterexample {check.counterexample})")
    classes = {}
    for a in range(h.size):
        classes[a] = frozenset(h.ternary(x, y, a) for x in s.members for y in s.members)
    distinct = sorted(set(classes.values()), key=min)
    index = {c: i for i, c in enumerate(distinct)}
    return distinct, tuple(index[classes[a]] for a in range(h.size))


def _descend(proj, images, message):
    """The map on classes that sends class proj[x] to images[x], indexed by
    class; StructureError(message) when two members of a class disagree."""
    out = {}
    for x, c in enumerate(proj):
        if out.setdefault(c, images[x]) != images[x]:
            raise StructureError(message)
    return tuple(out[c] for c in range(len(out)))


def quotient(h: FiniteHeap, s: SubHeap):
    """Quotient heap h/S for a normal sub-heap, with the projection map.

    The classes and the projection are ``_quotient_classes``; the heap on
    them is ``_quotient_heap``.
    """
    return _quotient_heap(h, *_quotient_classes(h, s))


def _quotient_heap(h: FiniteHeap, distinct, proj):
    """The heap on the classes ``distinct`` of h with projection ``proj``, as
    ``_quotient_classes`` gives them, and the projection map.  The table is
    taken on the least member of each class, which names the class."""
    reps = [min(c) for c in distinct]
    table = tuple(
        tuple(tuple(proj[h.ternary(a, b, c)] for c in reps) for b in reps)
        for a in reps
    )
    names = tuple("{" + ",".join(h.names[m] for m in sorted(c)) + "}" for c in distinct)
    qheap = FiniteHeap(len(distinct), table=table, names=names, abelian=h.abelian)
    return qheap, HeapMorphism(h, qheap, proj)


def product(h1: FiniteHeap, h2: FiniteHeap) -> FiniteHeap:
    """Direct product: pairs with the component-wise ternary operation.  Its
    frame is the factors' frames side by side, (0, 0) and each factor's
    generators paired with the other's 0, with no scan of the product."""
    n2 = h2.size
    names = tuple(f"({h1.names[a]},{h2.names[b]})"
                  for a in range(h1.size) for b in range(h2.size))

    def fn(x, y, z):
        return (h1.ternary(x // n2, y // n2, z // n2) * n2
                + h2.ternary(x % n2, y % n2, z % n2))

    def frame(_):
        f1, f2 = h1.frame(), h2.frame()
        return None if f1 is None or f2 is None else (
            (0,) + tuple(g * n2 for g in f1[1:]) + f2[1:])

    return FiniteHeap.from_function(h1.size * n2, fn, names=names,
                                    abelian=h1.abelian and h2.abelian, frame=frame)


def find_isomorphism(a: FiniteHeap, b: FiniteHeap):
    """A heap isomorphism a -> b, or None if there is none.

    Two heaps are isomorphic exactly when their retracts are isomorphic as
    groups.  The retracts of b at different basepoints are isomorphic to each
    other (``translation_iso``), so the retracts at 0 decide, and the
    mapping is the group isomorphism ``group_isomorphism`` finds between them.
    """
    if a.size != b.size:
        return None
    if a.size == 0:
        return HeapMorphism(a, b, ())
    mapping = group_isomorphism(retract(a, 0), retract(b, 0))
    return None if mapping is None else HeapMorphism(a, b, tuple(mapping))
