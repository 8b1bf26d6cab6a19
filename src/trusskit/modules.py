"""Modules over trusses: validation, absorbers, the quotient-to-ring functor,
free modules, and freeness tests.

A module holds its carrier as ``heap`` and adds only the action: finite
modules have a table over a ``FiniteHeap``, the trivial integer module lives
on the integer line ``INT_LINE``, and a free module's carrier is the
``DirectSum`` of copies of the truss's heap.  Heap operations go through
``heap``.  The free action is the closed form of ``FreeTModule.act`` in
canonical coordinates, and maps out of a free module (universal lifts,
copaired sigma maps) are direct-sum copairs into the target's carrier
(``DirectSum.copair``), so no word is built.  The quotient by the
absorber sub-heap turns a module over the truss of a ring back into a module
over that ring, the truss pointed at its absorber, unchecked (``Ring``); its
classes and projection come from ``core._quotient_classes``, once per
module, its heap is the view ``core._quotient_heap``, with no table, and
maps descend to it through ``core._descend``; the quotient of a free module
is R^n by construction, and ``verify_abs_of_free`` decides on a frame that
it is right.  ``FiniteTModule`` lives in ``core``, below ``rings``, and is
exported here.  T(R) is the ring's own truss, ``ring.truss``, and T(N) is
the T(R)-module that N holds, ``rm.module``, so no truss and no module is
rebuilt from a ring or an R-module.  Maps are checked on frames and maps
into T(N) found by ``rings._module_maps``; ``freeness_of_TN`` is a scan of
r |-> r.x; absorbers are read off the action table in hand.  The module
laws run on the law engine of ``laws`` (``_action_laws``), exactly, as the
truss laws do.  Free sets and bases are decided exactly from the linear
part of the copaired sigma map.  Frames come from the carrier,
``heap.frame()``, so no module defines one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .coproduct import CoproductElement, DirectSum, HeapSummand, shift
from .core import (
    FiniteHeap,
    FiniteTModule,
    HeapMorphism,
    INT_LINE,
    StructureError,
    _descend,
    _first_unequivariant,
    _first_unpreserved,
    _quotient_classes,
    _quotient_heap,
    SubHeap,
)
from .laws import LINEAR_IN_M, LINEAR_IN_T, _Memo, _action_laws, _pool
from .reports import FAIL, PASS, Finding, Report
from .rings import RModule, Ring, _finite, _module_maps
from .trusses import IntegerTruss, _default_basepoint, _product_laws


def empty_module(truss) -> FiniteTModule:
    """The empty module, the initial object; most operations reject it."""
    if not truss.heap.is_finite:
        raise StructureError("the empty module constructor needs a finite truss")
    return FiniteTModule(truss, FiniteHeap.empty(), [[] for _ in range(truss.size)])


class TrivialIntModule:
    """The integer heap as a module over the integer truss with m . n = n.

    Every element is an absorber, so this is a module over the truss of the
    integers but not a module over the ring of integers.
    """

    heap = INT_LINE

    def __init__(self):
        self.truss = IntegerTruss()

    def act(self, t, m):
        return m

    def __eq__(self, other):
        return isinstance(other, TrivialIntModule)

    def __repr__(self):
        return "TrivialIntModule()"


class FreeTModule:
    """The free unital module on n generators: the n-fold direct sum of the
    truss acting on itself, in canonical component/tail coordinates.

    The generator x_i is the injected multiplicative identity of summand i.
    The action of t is the copair of the maps u |-> t.u into each summand;
    with e the base point, in the retract of the truss carrier at e:

        c_0 |-> t.c_0 - sum_i t_{i-1}(te - e)
        c_i |-> t.c_i + (t_{i-1} - 1)(te - e)      (i >= 1)

    and the tails do not change.  When e is an absorber, te = e and the
    action just multiplies the components.
    """

    def __init__(self, truss, n: int, basepoint=None):
        if n < 1:
            raise StructureError("a free module needs at least one generator"
                                 " (the empty module has its own constructor)")
        if truss.identity is None:
            raise StructureError("free modules are built over unital trusses")
        self.truss = truss
        self.n = n
        self.heap = _source_sum(truss, n, basepoint)
        self.basepoint = self.heap.summands[0].base

    def generators(self):
        return [self.heap.inject(i, self.truss.identity) for i in range(self.n)]

    def act(self, t, x) -> CoproductElement:
        e, heap, mul = self.basepoint, self.truss.heap, self.truss.mul
        te = mul(t, e)
        comps = [mul(t, c) for c in x.components]
        comps[0] = shift(heap, comps[0], -sum(x.tails), te, e)
        for i in range(1, self.n):
            comps[i] = shift(heap, comps[i], x.tails[i - 1] - 1, te, e)
        return CoproductElement(tuple(comps), x.tails)

    def __eq__(self, other):
        return (isinstance(other, FreeTModule) and self.truss == other.truss
                and self.n == other.n and self.basepoint == other.basepoint)

    def universal_lift(self, target, images):
        """The unique module map sending generator i to images[i]: the
        copair of the maps t |-> t.images[i]."""
        if len(images) != self.n:
            raise StructureError("one image per generator is required")
        return self.heap.copair([SigmaMorphism(target, c) for c in images], target.heap)

    def __repr__(self):
        return f"FreeTModule(n={self.n} over {self.truss!r})"


def free_module(truss, n: int, basepoint=None) -> FreeTModule:
    return FreeTModule(truss, n, basepoint)


# ---------------------------------------------------------------------------
# validation


def validate_module(m, *, samples=None, window=None, seed=None) -> Report:
    """The three module laws, and unitality when the truss has an
    identity, on the law engine of ``validate_truss`` over every element of
    a finite carrier or the ``heap.frame()`` of a symbolic one.  t.m is
    affine in t and in m over a truss, so a symbolic module decides its
    truss's product laws first (``truss``).  On group heaps the engine
    decides on generators: each row x |-> a.x and column t |-> t.x is a
    heap map once it preserves [u, e, g] for the frame's generators g, and
    once the truss's product is affine in each argument too (checked on
    the frame, as a finite truss is not validated when it is built) the
    frame triples decide associativity (Certaine's lemma).  A failing map,
    a failing frame triple or a non-affine product falls back to the sweep,
    so a fail lists every finding.  A symbolic module whose carrier, or whose
    truss's carrier, has no frame raises StructureError.  ``samples``,
    ``window`` and ``seed`` are accepted and ignored: every verdict is exact.

    Findings are located at (a, b, x), (a, b, c, x), (a, x, y, z) or the
    first (x,) that breaks unitality; ``distributivity`` names the algorithm
    and the swept (law, element) pairs, ``associativity`` the algorithm
    ("frame triples" or "sweep") and the instances evaluated.  A symbolic
    module reports ``frame`` (its size)."""
    t = m.truss
    ts, ms = _pool(t), _pool(m)
    for name, pool in (("truss", ts), ("module", ms)):
        if pool is None:
            raise StructureError(f"cannot decide the module laws: the {name} carrier"
                                 " heap has no frame()")
    stats = {"exhaustive": m.heap.is_finite}
    if not m.heap.is_finite:
        stats["frame"] = len(ms)
        found, per_law, *_ = _product_laws(t, ts)
        stats["truss"] = FAIL if found else PASS
        if found:
            stats.update(checked=per_law[0] + 2 * per_law[1], unital=None)
            return Report("T-module", FAIL, found, stats)
    found, per_law, rows, associativity = _action_laws(t, m.act, m, (ts, ms))
    findings = [Finding(*f) for f in found]
    bad = None if t.identity is None else next(
        (x for x in ms if m.act(t.identity, x) != x), None)
    if bad is not None:
        findings.append(Finding("unitality 1m = m", (bad,), str(m.act(t.identity, bad)), str(bad)))
    stats.update(checked=sum(per_law.values()), unital=None if t.identity is None else bad is None)
    algorithm, swept_m, swept_t = rows
    stats["distributivity"] = {
        "algorithm": algorithm,
        "swept": [(LINEAR_IN_T, x) for x in swept_m] + [(LINEAR_IN_M, a) for a in swept_t],
    }
    stats["associativity"] = associativity
    return Report("T-module", FAIL if findings else PASS, findings, stats)


# ---------------------------------------------------------------------------
# absorbers


@dataclass(frozen=True)
class AbsorberSet:
    """The invariant elements of a module: an explicit finite set, the whole
    carrier, or the tail sub-heap of a free module over a ring truss."""

    module: object
    kind: str           # "finite" | "all" | "tails"
    members: tuple = None

    def is_singleton(self) -> bool:
        if self.kind == "finite":
            return len(self.members) == 1
        if self.kind == "tails":
            return self.module.n == 1
        return False

    def contains(self, x) -> bool:
        if self.kind == "finite":
            return x in self.members
        if self.kind == "all":
            return self.module.heap.contains(x)
        zero = self.module.truss.absorber
        return (self.module.heap.contains(x)
                and all(c == zero for c in x.components))


def absorbers(m) -> AbsorberSet:
    """The absorber set of a module of this package: the x that every row of
    a finite module's action table fixes, in id order, {0.m} over the truss
    of a ring; for a free module at the absorber of a ring truss, the
    sub-heap of tails."""
    if isinstance(m, FreeTModule):
        if m.basepoint != m.truss.absorber:
            raise StructureError("absorbers of a free module are computed over"
                                 " ring trusses with the zero as base point")
        return AbsorberSet(m, "tails")
    if isinstance(m, TrivialIntModule):
        return AbsorberSet(m, "all")
    if isinstance(m, FiniteTModule):
        return AbsorberSet(m, "finite", tuple(
            x for x in range(m.size) if all(row[x] == x for row in m.action)))
    raise StructureError("cannot decide the absorber set for this module")


def is_ring_module(m) -> bool:
    """Over the truss of a ring: is this the module of a ring module?
    True exactly when the absorber set is a singleton."""
    if m.truss.absorber is None:
        raise StructureError("the ring-module test needs a ring-type truss")
    return absorbers(m).is_singleton()


def to_ring_module(m: FiniteTModule) -> RModule:
    """The ring module on the carrier heap pointed at the unique absorber."""
    aset = absorbers(m)
    if not aset.is_singleton():
        raise StructureError("not a ring module: the absorber is not unique")
    if aset.members is None:        # F(1): the tails of a direct sum
        raise StructureError("a ring module needs an action table, not a direct-sum carrier")
    return RModule(Ring(m.truss, m.truss.absorber), (m.heap, *aset.members), m.action)


# ---------------------------------------------------------------------------
# the quotient-by-absorbers functor


def _absorber_quotient(m: FiniteTModule):
    """(absorbers, classes, projection) of a finite module, computed once, on
    first use, and kept in the module, as ``FiniteHeap.frame()`` is.  Any
    other module raises, having no finite absorber set."""
    kept = getattr(m, "_absorbers", None)
    if kept is None:
        aset = absorbers(m)
        if aset.kind != "finite" or not aset.members:
            raise StructureError("absorber classes need a non-empty finite absorber set")
        sub = SubHeap(m.heap, aset.members)
        kept = m._absorbers = (aset.members, *_quotient_classes(m.heap, sub))
    return kept


def absorber_classes(m: FiniteTModule):
    """Equivalence classes of the absorber sub-heap relation, ordered by
    least member, with the projection of each element."""
    return _absorber_quotient(m)[1:]


def abs_quotient(m):
    """M_Abs: the quotient by the absorbers, pointed at the absorber class.

    For a finite module over the truss of a ring this is an R-module on the
    quotient heap with the action descended from each class's least member.
    For a free module over the truss of a finite ring R it is R^n on the
    product heap by construction, projecting x to the id of its component
    vector (``verify_abs_of_free`` decides that this is right).  Returns
    (module, projection).
    """
    if isinstance(m, FreeTModule):
        absorbers(m)    # raises unless the base point is the zero of a ring truss
        ring = Ring(m.truss, m.truss.absorber)

        def project(x):
            out = 0
            for c in x.components:
                out = out * ring.size + c
            return out

        return RModule.power(ring, m.n), project    # R^n raises unless R is finite
    if not (m.heap.is_finite and m.truss.heap.is_finite):
        raise StructureError("the absorber quotient needs a finite carrier"
                             " or a canonical free module")
    if m.size == 0:
        raise StructureError("the empty module has no absorber quotient")
    members, distinct, proj = _absorber_quotient(m)
    qheap, proj = _quotient_heap(m.heap, distinct, proj)
    action = tuple(
        tuple(proj(m.act(t, min(c))) for c in distinct)
        for t in m.truss.heap.elements()
    )
    if m.truss.absorber is not None:
        ring = Ring(m.truss, m.truss.absorber)
        return RModule(ring, (qheap, proj(members[0])), action), proj
    return FiniteTModule(m.truss, qheap, action), proj


@dataclass(frozen=True)
class ModuleMorphism:
    """A heap morphism between finite modules that respects the action, on
    frames of the truss and the source; both must be modules."""

    source: FiniteTModule
    target: FiniteTModule
    mapping: tuple

    def __post_init__(self):
        src, dst = self.source, self.target
        if src.truss is not dst.truss and src.truss != dst.truss:
            raise StructureError("module morphisms need a common truss")
        HeapMorphism(src.heap, dst.heap, self.mapping)
        ts, xs = (h.frame() or h.elements() for h in (src.truss.heap, src.heap))
        bad = _first_unequivariant(self.mapping, src.act, dst.act, ts, xs)
        if bad is not None:
            raise StructureError("action not preserved at ({},{})".format(*bad))

    def __call__(self, a):
        return self.mapping[a]

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == self.source.size


def abs_on_morphism(phi: ModuleMorphism):
    """The induced map between absorber quotients (well defined because
    morphisms send absorbers to absorbers).  Returns (source quotient,
    target quotient, class mapping)."""
    qsrc, src_proj = abs_quotient(phi.source)
    qdst, dst_proj = abs_quotient(phi.target)
    images = [dst_proj(y) for y in phi.mapping]
    return qsrc, qdst, _descend(src_proj.mapping, images, "quotient map is not well defined")


# ---------------------------------------------------------------------------
# the adjunction between (-)_Abs and T


def tmodule_homs_to_TN(m: FiniteTModule, n_mod: RModule):
    """All module maps from m into T(N), as mapping tuples in lexicographic
    order.  m must be a module over T(R), ``ring.truss``, for the ring R of
    N.  A heap map into T(N) is x |-> phi(x) + c for c = f(0) in N and a
    group map phi of the heaps pointed at 0 and zero, which is how
    ``rings._module_maps`` with translations finds them."""
    if m.truss != n_mod.ring.truss:
        raise StructureError("hom-sets into T(N) need a module over T(R) for N's ring R")
    if m.size == 0:
        return [()]
    return sorted(_module_maps(m, 0, n_mod, translate=True))


def adjunction_theta(m: FiniteTModule, n_mod: RModule, phi):
    """Turn an R-module map M_Abs -> N into the module map M -> T(N),
    m |-> phi(class of m)."""
    distinct, proj = absorber_classes(m)
    if len(phi) != len(distinct):
        raise StructureError(f"phi needs one image per absorber class, {len(distinct)},"
                             f" not {len(phi)}")
    return tuple(phi[proj[x]] for x in m.heap.elements())


def adjunction_theta_inv(m: FiniteTModule, n_mod: RModule, psi):
    """Turn a module map M -> T(N) into the R-module map M_Abs -> N on
    class representatives; representative independence is re-checked."""
    _, proj = absorber_classes(m)
    if len(psi) != m.size:
        raise StructureError(f"psi needs one image per element, {m.size}, not {len(psi)}")
    return _descend(proj, psi, "map does not descend to the absorber quotient")


# ---------------------------------------------------------------------------
# sigma maps and freeness


@dataclass(frozen=True)
class SigmaMorphism:
    """The module map T -> M, t |-> t.x, for a fixed element x."""

    module: object
    x: object

    def __call__(self, t):
        return self.module.act(t, self.x)

    def image(self):
        t = self.module.truss
        if not t.heap.is_finite:
            raise StructureError("enumerating the image needs a finite truss")
        return list(dict.fromkeys(map(self, t.heap.elements())))


def sigma(m, x) -> SigmaMorphism:
    if not m.heap.contains(x):
        raise StructureError(f"{x!r} is not in the module carrier")
    return SigmaMorphism(m, x)


def _source_sum(truss, count, base=None):
    """count copies of the truss heap, each at base (by default the truss's)."""
    base = _default_basepoint(truss) if base is None else base
    return DirectSum(tuple(HeapSummand(truss.heap, base) for _ in range(count)))


def _ints(heap, x) -> tuple:
    """The integer coordinates of x in the group form of an Abelian heap:
    none on a finite heap (all torsion), x on the integer line, and on a
    direct sum its summands' coordinates, then its tails."""
    if heap.is_finite:
        return ()
    if isinstance(heap, DirectSum):
        return sum(map(_ints, heap.heaps, x.components), ()) + x.tails
    return (x,)


def _torsion(heap, x) -> list:
    """The points with x's integer coordinates: every element of each finite
    summand, the rest fixed."""
    if heap.is_finite:
        return list(heap.elements())
    if not isinstance(heap, DirectSum):
        return [x]
    axes = map(_torsion, heap.heaps, x.components)
    return [CoproductElement(c, x.tails) for c in itertools.product(*axes)]


def _reduce(rows, n):
    """Gauss-Jordan elimination over the rationals on the first n columns:
    (rows, pivot columns, signed pivot product: det A for an invertible square A)."""
    rows, pivots, det = [[Fraction(v) for v in row] for row in rows], [], Fraction(1)
    for c in range(n):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is not None:
            rows[r], rows[i], det = rows[i], rows[r], det * rows[i][c] * (1 if i == r else -1)
            rows[r] = [v / rows[r][c] for v in rows[r]]
            rows = [row if k == r or not row[c] else [v - row[c] * w for v, w in zip(row, rows[r])]
                    for k, row in enumerate(rows)]
            pivots.append(c)
    return rows, pivots, det


def _integral(v):
    """A rational vector scaled to integers by its common denominator."""
    scale = math.lcm(*(x.denominator for x in v))
    return [int(x * scale) for x in v]


def _free_set(m, candidates):
    """The free-set report and, on a pass, what ``basis_check`` needs: sigma(p),
    [A | I] reduced on A's columns, det A, ``offset`` and the torsion images."""
    candidates = list(candidates)
    if not candidates:
        raise StructureError("free-set check needs at least one candidate")
    for x in candidates:
        if not m.heap.contains(x):
            raise StructureError(f"candidate {x!r} is not in the module")
    ds = _source_sum(m.truss, len(candidates))
    sigma = ds.copair([SigmaMorphism(m, c) for c in candidates], m.heap)
    if m.truss.heap.is_finite:      # every summand move is torsion: only the tails move
        p, moves = ds.zero(), [ds.inject(i, s.base) for i, s in enumerate(ds.summands) if i]
    elif (frame := ds.frame()) is None:
        raise StructureError("the truss carrier has no group form to decide freeness on")
    else:
        p, *moves = frame
        moves = [q for q in moves if _ints(ds, q) != _ints(ds, p)]     # the p + e_j
    carrier, y0 = m.heap, sigma(p)
    origin = _ints(carrier, y0)

    def offset(y):
        return [c - o for c, o in zip(_ints(carrier, y), origin)]

    columns, a, b = [offset(sigma(q)) for q in moves], len(moves), len(origin)
    rows, pivots, det = _reduce([[col[i] for col in columns] + [int(i == j) for j in range(b)]
                                 for i in range(b)], a)
    stats = {"candidates": ds.k, "linear_part": {"shape": [b, a], "rank": len(pivots)}}
    kernel = next((c for c in range(a) if c not in pivots), None)
    images, collision = {}, None
    if kernel is not None:
        v = [Fraction(c == kernel) for c in range(a)]
        for row, c in zip(rows, pivots):
            v[c] = -row[kernel]
        v, x1 = _integral(v), p     # x1 = p + v
        for q, c in zip(moves, v):
            x1 = shift(ds, x1, c, q, p)
        # A.v = 0, so sigma(p + v) - sigma(p) is torsion, of some order k
        y1 = sigma(x1)
        k = next(k for k in itertools.count(1) if shift(carrier, y0, k, y1, y0) == y0)
        collision = (p, shift(ds, p, k, x1, p), f"p and p + {k}v, A.v = 0 for v = {v}")
    else:
        torsion = _torsion(ds, p)
        stats["torsion"] = len(torsion)
        for x in torsion:
            if images.setdefault(sigma(x), x) != x:
                collision = (images[sigma(x)], x, "sigma identifies two torsion points at p")
                break
    if collision is None:
        return Report("free-set check", PASS, [], stats), (y0, rows, det, offset, images)
    x, x2, note = collision
    finding = Finding("copaired map collision", (x, x2), sigma(x), sigma(x2), note=note)
    return Report("free-set check", FAIL, [finding], stats), None


def free_set_check(m, candidates) -> Report:
    """Is the family free: is the copaired sigma map F(s) -> m, t |-> t.c on
    the summand of c, injective?  m must be a module, as for frames.

    sigma is affine between groups finite torsion + Z^r (``_ints``).  Column
    j of the integer matrix A of its linear part L is ints(sigma(p + e_j)) -
    ints(sigma(p)), for p and the free moves p + e_j of a frame of F(s).  L
    is injective iff rank A = a and sigma is injective on the torsion points
    at p: L(tau, v) = 0 gives A.v = 0, so v = 0, so tau = 0.  Else A.v = 0
    for an integer v, L(v) is torsion of some order k, and p, p + k.v
    collide: the finding, with both images.  ``linear_part`` gives the shape
    (b, a) of A and its rank, ``torsion`` the torsion points evaluated."""
    return _free_set(m, candidates)[0]


def basis_check(m, candidates) -> Report:
    """Free and spanning: is sigma bijective?  m must be a module, as for
    frames.  An injective sigma is onto iff a = b, |det A| = 1 and m has as
    many torsion points at sigma(p) as F(s) at p.  A failure to span is
    located at a point y outside the span: (y,) for a torsion point that
    sigma misses, (y, phi, d) for a functional phi that vanishes mod d (d =
    0: exactly) on the span but not at y, a point of ``m.heap.frame()``.
    phi is a left kernel vector of A if rank A < b, else a row of adj(A) =
    d.A^-1 for d = |det A| > 1.  On a finite m this is "sigma is injective
    and |T| = |m|"."""
    free, witness = _free_set(m, candidates)
    stats = free.stats
    if witness is None:
        return Report("basis check", FAIL, free.findings, stats)
    y0, rows, det, offset, images = witness
    b, a = stats["linear_part"]["shape"]
    if a < b:       # row a of [A | I] reduced: its right part sends A to 0
        phi, d = _integral(rows[a][a:]), 0
    else:
        d = stats["det"] = abs(int(det))
        phi = next((r for r in ([int(det * v) for v in row[a:]] for row in rows)
                    if any(v % d for v in r)), None)
    if phi is not None:
        def value(y):
            u = sum(f * c for f, c in zip(phi, offset(y)))
            return u % d if d else u

        y = next(y for y in m.heap.frame() if value(y))
        return Report("basis check", FAIL, [Finding(
            "not spanning", (y, tuple(phi), d), value(y), 0,
            note="phi vanishes mod d on the span, not at y")], stats)
    target = _torsion(m.heap, y0)
    stats["target_torsion"] = len(target)
    y = next((y for y in target if y not in images), None)
    if y is None:
        return Report("basis check", PASS, [], stats)
    return Report("basis check", FAIL, [Finding(
        "not spanning", (y,), note="a torsion point at sigma(p) that sigma misses")], stats)


def freeness_of_TN(rm: RModule) -> Report:
    """Is T(N) free over T(R)?  Exactly when N and R are isomorphic modules.
    Free modules are built over unital trusses, so a ring with no identity
    raises StructureError before anything is decided.

    Each r |-> r.x is a module map R -> N, so they are isomorphic exactly
    when one is a bijection (its inverse is ``isomorphism``): a scan, no
    search.  ``absorbers_of_TN`` are the ``absorbers`` of T(N), the module
    that N holds, read off the action table they share: no T(N) is built.  A
    negative verdict carries the structural witness, F(2) over T(R), the
    ring's own truss: T(N) has a unique absorber, while a free module on two
    or more generators has the distinct absorbers 0x != 0y.
    """
    ring = rm.ring
    if ring.one is None:
        raise StructureError("free modules are built over unital trusses")
    column = next((c for c in zip(*rm.action) if len(set(c)) == rm.size == ring.size), None)
    stats = {"module": rm.size, "ring": ring.size,
             "absorbers_of_TN": [rm.names[x] for x in absorbers(rm.module).members]}
    if column is not None:
        stats["isomorphism"] = [column.index(y) for y in range(rm.size)]
        return Report("freeness of T(N)", PASS, [], stats)
    fm = free_module(ring.truss, 2)
    zx = fm.heap.inject(0, ring.zero)
    zy = fm.heap.inject(1, ring.zero)
    return Report("freeness of T(N)", FAIL, [
        Finding("no module isomorphism between N and R", ()),
        Finding("rank >= 2 free modules have distinct absorbers", (str(zx), str(zy)),
                note="0x != 0y, but T(N) has a unique absorber")], stats)


def verify_abs_of_free(ring: Ring, n: int) -> Report:
    """Decide, for the rank-n free module F(n) over T(R), that its absorbers
    are the tail sub-heap H(Z^{n-1}) and that ``abs_quotient`` (R^n and the
    component projection, by construction) is its quotient by them.

    Each check equates maps affine in every argument, so a frame decides it
    for all of F(n): every tail point of ``fm.heap.frame()`` is fixed by
    every t; 0.m is a tail at every frame point (m |-> the components of
    0.m is a heap map), and an absorber x is 0.x; the tails combine like
    Z^{n-1} on every triple of zero and the tail units; the projection
    preserves the heap operation (``core._first_unpreserved``) and the
    action (``core._first_unequivariant``) on that frame, and sends the
    generators to the unit vectors of R^n.  Findings are located at scalars
    and elements of F(n), so each one replays."""
    findings = []
    t = _finite(ring).truss
    fm = free_module(t, n)
    frame = fm.heap.frame()
    zero_comps = (ring.zero,) * n
    tails = [x for x in frame if x.components == zero_comps]
    findings += [Finding("absorber not fixed by the action", (a, x), fm.act(a, x), x)
                 for x in tails for a in t.heap.elements() if fm.act(a, x) != x]
    for x, y, z in itertools.product(tails, repeat=3):
        got = fm.heap.ternary(x, y, z)
        want = CoproductElement(zero_comps, tuple(
            p - q + r for p, q, r in zip(x.tails, y.tails, z.tails)))
        if got != want:
            findings.append(Finding("tails do not combine like integers", (x, y, z), got, want))
    findings += [Finding("0.m outside the tail sub-heap", (x,), fm.act(ring.zero, x))
                 for x in frame if fm.act(ring.zero, x).components != zero_comps]

    power, project = abs_quotient(fm)
    f, ternary = _Memo(project), power.heap.ternary
    bad = _first_unpreserved(fm.heap.ternary, ternary, f, frame, frame)
    if bad is not None:
        x, y, z = bad
        findings.append(Finding("projection is not a heap morphism", bad,
                                f[fm.heap.ternary(x, y, z)], ternary(f[x], f[y], f[z])))
    bad = _first_unequivariant(f, fm.act, power.act, t.heap.elements(), frame)
    if bad is not None:
        a, x = bad
        findings.append(Finding("projection does not respect the action", bad,
                                f[fm.act(a, x)], power.act(a, f[x])))

    images = [project(g) for g in fm.generators()]
    # e_i is the zero vector with 1 in place i, in the mixed-radix ids of R^n
    units = [power.zero + (ring.one - ring.zero) * ring.size ** (n - 1 - i) for i in range(n)]
    findings += [Finding("generator images are not a basis of R^n", (i,), got, want)
                 for i, (got, want) in enumerate(zip(images, units)) if got != want]

    stats = {"ring": ring.size, "generators": n, "frame": len(frame),
             "absorber_heap": f"H(Z^{n - 1})",
             "quotient": f"R^{n}",
             "basis_images": [str(i) for i in images]}
    return Report("absorber quotient of a free module", FAIL if findings else PASS,
                  findings, stats)
