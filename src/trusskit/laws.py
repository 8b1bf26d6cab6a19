"""The law engine: the laws of an action of a truss-like structure on a
module-like one, decided exactly over finite pools.

An action ``act`` of t on m (t on itself for a product) obeys three laws:
associativity a(bx) = (ab)x and distributivity over the heap operation in
each argument.  ``_action_laws`` decides them on generators: on the
``frame()`` of each carrier heap, a point and that point moved by each
generator of its group form, and on every element only where a law fails.
Besides the action it is given, it reads only the ``heap`` of both sides
(``ternary``, ``frame()``, ``is_finite``) and the ``mul`` of t, so every
structure is decided on itself: trusses and truss modules by
``validate_truss`` and ``validate_module``, finite rings and ring modules
by ``validate_ring`` and ``validate_rmodule``, with no truss and no truss
module built (a ring holds T(R), and a ring module T(N)).  It sits below
``rings``, which ``trusses`` and ``modules`` are built on, so every
validator imports it at module level and the import graph has no cycle.
"""

from __future__ import annotations

import functools
import itertools

from .core import _bfs_recipe, _first_unpreserved

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
        """``core._first_unpreserved`` on this frame: the first
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
    for u in the pool and g a generator of the frame (Certaine 1943;
    ``core._first_unpreserved``).  Only a failing map is
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
