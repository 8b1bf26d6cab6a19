"""The law engine, deciding on generators, against the sweeps it replaced.

Each oracle here is the exhaustive sweep that the package ran before it
decided finite laws on generators, kept as the reference: every
associativity instance, every row and column checked on all pairs
[x, 0, y] (Certaine 1943) and each failing one swept on every triple
(``truss_sweep``, ``module_sweep``), and the plain O(n^3) loops of
``ring_sweep``, ``rmodule_sweep`` and ``group_sweep``.  The carriers are
the heaps of Z_n, so the oracles read the closed form (a - b + c) mod n,
not the package's heaps.  A validator must give the oracle's verdict, its
findings in its order and its ``checked`` counts.
"""

import functools
import itertools

import pytest

from trusskit import core
from trusskit.core import FiniteGroup, heap_from_group, small_groups, validate_group_table
from trusskit.modules import FiniteTModule, validate_module
from trusskit.reports import Finding
from trusskit.rings import FiniteRing, RModule, validate_ring, validate_rmodule
from trusskit.trusses import FiniteTruss, truss_TZn, validate_truss

ASSOCIATIVE = "action associativity t(t'm) = (tt')m"
LINEAR_IN_T = "distributivity [t,t',t'']m"
LINEAR_IN_M = "distributivity t[m,m',m'']"


@functools.lru_cache(maxsize=None)
def zn_ternary(n):
    """[a, b, c] = a - b + c in Z_n, as a table."""
    return [[[(a - b + c) % n for c in range(n)] for b in range(n)] for a in range(n)]


def affine(f, source, target):
    """Whether u |-> f[u] preserves every [x, 0, y]: a heap map of group
    heaps (Certaine 1943), checked on all pairs."""
    ids = range(len(source))
    return all(f[source[x][0][y]] == target[f[x]][f[0]][f[y]] for x in ids for y in ids)


def truss_sweep(t):
    """(findings as (law, at, lhs, rhs), checked, swept s) of
    ``validate_truss`` on a truss over the heap of Z_n: every associativity
    triple, then every (s, a, b, c) of a failing row s or column s, the left
    law first."""
    n, mul = t.size, t.mul_table
    tern, ids = zn_ternary(n), range(n)
    found = [("product associativity", (a, b, c), mul[mul[a][b]][c], mul[a][mul[b][c]])
             for a, b, c in itertools.product(ids, repeat=3)
             if mul[mul[a][b]][c] != mul[a][mul[b][c]]]
    left = {s for s in ids if not affine(mul[s], tern, tern)}
    right = {s for s in ids if not affine([mul[u][s] for u in ids], tern, tern)}
    for s in sorted(left | right):
        for a, b, c in itertools.product(ids, repeat=3):
            lhs, rhs = mul[s][tern[a][b][c]], tern[mul[s][a]][mul[s][b]][mul[s][c]]
            if s in left and lhs != rhs:
                found.append(("left distributivity over [,,]", (s, a, b, c), lhs, rhs))
            lhs, rhs = mul[tern[a][b][c]][s], tern[mul[a][s]][mul[b][s]][mul[c][s]]
            if s in right and lhs != rhs:
                found.append(("right distributivity over [,,]", (s, a, b, c), lhs, rhs))
    return found, n ** 3 + 2 * n ** 4, sorted(left | right)


def module_sweep(m):
    """(findings as (law, at, lhs, rhs), checked, swept maps) of
    ``validate_module`` on a module over a truss, both on heaps of cyclic
    groups: every associativity instance, each failing column x swept on
    every (a, b, c), then each failing row a on every (x, y, z), then the
    first x that breaks unitality."""
    t, act = m.truss, m.action
    nt, nm, mul = t.size, m.size, t.mul_table
    tern_t, tern_m = zn_ternary(nt), zn_ternary(nm)
    ts, ms = range(nt), range(nm)
    found = [(ASSOCIATIVE, (a, b, x), act[a][act[b][x]], act[mul[a][b]][x])
             for a, b in itertools.product(ts, repeat=2) for x in ms
             if act[a][act[b][x]] != act[mul[a][b]][x]]
    cols = [x for x in ms if not affine([act[u][x] for u in ts], tern_t, tern_m)]
    rows = [a for a in ts if not affine(act[a], tern_m, tern_m)]
    for a, b, c in itertools.product(ts, repeat=3):
        for x in cols:
            lhs, rhs = act[tern_t[a][b][c]][x], tern_m[act[a][x]][act[b][x]][act[c][x]]
            if lhs != rhs:
                found.append((LINEAR_IN_T, (a, b, c, x), lhs, rhs))
    for a in rows:
        for x, y, z in itertools.product(ms, repeat=3):
            lhs, rhs = act[a][tern_m[x][y][z]], tern_m[act[a][x]][act[a][y]][act[a][z]]
            if lhs != rhs:
                found.append((LINEAR_IN_M, (a, x, y, z), lhs, rhs))
    bad = next((x for x in ms if t.identity is not None and act[t.identity][x] != x), None)
    if bad is not None:
        found.append(("unitality 1m = m", (bad,), str(act[t.identity][bad]), str(bad)))
    checked = nt * nt * nm + nt ** 3 * nm + nt * nm ** 3
    return found, checked, [(LINEAR_IN_T, x) for x in cols] + [(LINEAR_IN_M, a) for a in rows]


def ring_sweep(r):
    """Every violated ring law, in the order of the (a, b, c) sweep."""
    n, findings = r.size, []
    for a, b, c in itertools.product(range(n), repeat=3):
        if r.mul(r.mul(a, b), c) != r.mul(a, r.mul(b, c)):
            findings.append(Finding("ring multiplication associativity", (a, b, c),
                                    r.mul(r.mul(a, b), c), r.mul(a, r.mul(b, c))))
        if r.mul(a, r.plus(b, c)) != r.plus(r.mul(a, b), r.mul(a, c)):
            findings.append(Finding("left distributivity", (a, b, c),
                                    r.mul(a, r.plus(b, c)), r.plus(r.mul(a, b), r.mul(a, c))))
        if r.mul(r.plus(a, b), c) != r.plus(r.mul(a, c), r.mul(b, c)):
            findings.append(Finding("right distributivity", (a, b, c),
                                    r.mul(r.plus(a, b), c), r.plus(r.mul(a, c), r.mul(b, c))))
    return findings


def rmodule_sweep(m):
    """Every violated R-module law: (r, s, x), then (r, x, y), then each x
    that breaks unitality."""
    findings = []
    R, n = m.ring, m.size
    for r, s in itertools.product(range(R.size), repeat=2):
        for x in range(n):
            if m.act(r, m.act(s, x)) != m.act(R.mul(r, s), x):
                findings.append(Finding("module associativity r(sx) = (rs)x", (r, s, x),
                                        m.act(r, m.act(s, x)), m.act(R.mul(r, s), x)))
            if m.act(R.plus(r, s), x) != m.plus(m.act(r, x), m.act(s, x)):
                findings.append(Finding("module law (r+s)x = rx+sx", (r, s, x),
                                        m.act(R.plus(r, s), x), m.plus(m.act(r, x), m.act(s, x))))
    for r in range(R.size):
        for x, y in itertools.product(range(n), repeat=2):
            if m.act(r, m.plus(x, y)) != m.plus(m.act(r, x), m.act(r, y)):
                findings.append(Finding("module law r(x+y) = rx+ry", (r, x, y),
                                        m.act(r, m.plus(x, y)), m.plus(m.act(r, x), m.act(r, y))))
    if R.one is not None:
        findings += [Finding("unitality 1x = x", (x,), m.act(R.one, x), x)
                     for x in range(n) if m.act(R.one, x) != x]
    return findings


def group_sweep(rows):
    """Every violated group axiom of a Cayley table: associativity on every
    triple, then the identity or each missing inverse."""
    n = len(rows)
    findings = [Finding("group associativity", (a, b, c), rows[rows[a][b]][c], rows[a][rows[b][c]])
                for a, b, c in itertools.product(range(n), repeat=3)
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]]
    neutral = next((e for e in range(n) if all(rows[e][x] == x == rows[x][e] for x in range(n))),
                   None)
    if neutral is None:
        return findings + [Finding("two-sided identity", (), note="no identity element")]
    return findings + [Finding("two-sided inverse", (a,), note="no inverse") for a in range(n)
                       if not any(rows[a][b] == neutral == rows[b][a] for b in range(n))]


def one_entry_changes(table, values):
    """Every table that differs from ``table`` in exactly one entry."""
    for i, row in enumerate(table):
        for j, old in enumerate(row):
            for v in range(values):
                if v != old:
                    out = [list(r) for r in table]
                    out[i][j] = v
                    yield out


def zn_products(n):
    """The TZn product and each of its one-entry changes."""
    tz = truss_TZn(n)
    return [tz.mul_table] + list(one_entry_changes(tz.mul_table, n))


def biaffine_products(n):
    """Every bi-affine product a.b = p.ab + q.a + r.b + s on Z_n."""
    ids = range(n)
    for p, q, r, s in itertools.product(ids, repeat=4):
        yield [[(p * a * b + q * a + r * b + s) % n for b in ids] for a in ids]


# ---------------------------------------------------------------------------
# trusses and modules


def plain(findings):
    return [(f.law, f.at, f.lhs, f.rhs) for f in findings]


def check_truss(t):
    report = validate_truss(t)
    want, checked, swept = truss_sweep(t)
    assert plain(report.findings) == want
    assert report.status == ("fail" if want else "pass")
    assert report.stats["checked"] == checked
    assert report.stats["distributivity"] == {"algorithm": "morphism rows", "swept": swept}
    on_frame = report.stats["associativity"]["algorithm"] == "frame triples"
    assert on_frame == (not swept and not any(f[0] == "product associativity" for f in want))
    return bool(want)


@pytest.mark.parametrize("n", range(2, 9))
def test_truss_products_on_Zn_match_the_sweep(n):
    """The one-entry changes of TZ2-TZ6 and all n^4 bi-affine products on
    Z_2-Z_8: 9 121 tables."""
    heap = truss_TZn(n).heap
    tables = list(biaffine_products(n)) + (zn_products(n)[1:] if n <= 6 else [])
    fails = sum(check_truss(FiniteTruss(heap, table)) for table in tables)
    assert (len(tables), fails) == {2: (20, 8), 3: (99, 85), 4: (304, 278), 5: (725, 693),
                                    6: (1476, 1364), 7: (2401, 2343), 8: (4096, 3998)}[n]


def check_module(m, fallback=False):
    report = validate_module(m)
    want, checked, swept = module_sweep(m)
    assert plain(report.findings) == want
    assert report.status == ("fail" if want else "pass")
    assert report.stats["checked"] == checked
    assert report.stats["distributivity"] == {"algorithm": "morphism rows", "swept": swept}
    if fallback:
        assert report.stats["associativity"] == {
            "algorithm": "sweep", "evaluated": m.truss.size ** 2 * m.size}
    return bool(want)


@pytest.mark.parametrize("n", range(2, 7))
def test_regular_module_actions_on_Zn_match_the_sweep(n):
    """T(Z_n) acting on itself, and every one-entry change of the action."""
    tz = truss_TZn(n)
    actions = zn_products(n)
    fails = sum(check_module(FiniteTModule(tz, tz.heap, action)) for action in actions)
    # only the trivial action of TZ2 on itself (0.1 = 1) is again a module
    assert (len(actions), fails) == (1 + n * n * (n - 1), n * n * (n - 1) - (n == 2))


@pytest.mark.parametrize("n", range(2, 6))
def test_a_module_over_a_non_affine_truss_falls_back_to_the_sweep(n):
    """The regular action of T(Z_n) is affine in each argument, but over a
    truss whose product is one entry off it is not a module over that
    truss: associativity fails at that entry only.  A product that is no
    heap map in each argument voids the frame triples, so the sweep
    decides, even where every frame triple passes."""
    tz, hidden = truss_TZn(n), 0
    for table in zn_products(n)[1:]:
        truss = FiniteTruss(tz.heap, table)
        affine_product = not truss_sweep(truss)[2]
        assert check_module(FiniteTModule(truss, tz.heap, tz.mul_table),
                            fallback=not affine_product)
        (a, b), = [(a, b) for a in range(n) for b in range(n) if table[a][b] != tz.mul(a, b)]
        hidden += not affine_product and not {a, b} <= set(tz.heap.frame())
    # the tables where every frame triple passes and only the sweep fails
    assert hidden == {2: 0, 3: 10, 4: 36, 5: 84}[n]


# ---------------------------------------------------------------------------
# rings, ring modules and groups


@pytest.mark.parametrize("n", range(2, 7))
def test_ring_tables_on_Zn_match_the_sweep(n):
    ring = FiniteRing.Zn(n)
    tables = [ring.mul_table] + list(one_entry_changes(ring.mul_table, n))
    for table in tables:
        r = FiniteRing(ring.add, table, validate=False)
        report = validate_ring(r)
        want = ring_sweep(r)
        assert report.findings == want and report.status == ("fail" if want else "pass")
        assert report.stats == {"size": n}
    assert len(tables) == 1 + n * n * (n - 1)


@pytest.mark.parametrize("n", range(2, 7))
def test_regular_ring_module_tables_on_Zn_match_the_sweep(n):
    ring = FiniteRing.Zn(n)
    actions = [ring.mul_table] + list(one_entry_changes(ring.mul_table, n))
    fails = 0
    for action in actions:
        m = RModule(ring, ring.add, action, validate=False)
        report = validate_rmodule(m)
        want = rmodule_sweep(m)
        assert report.findings == want and report.status == ("fail" if want else "pass")
        assert report.stats == {"size": n, "ring": n}
        fails += bool(want)
    assert fails == len(actions) - 1


GROUPS = [(f"Z{n}", FiniteGroup.cyclic(n)) for n in range(2, 7)] + [
    (label, g) for label, g in small_groups(6) if label in ("C2xC2", "S3")]


@pytest.mark.parametrize("label, g", GROUPS, ids=[label for label, _ in GROUPS])
def test_cayley_tables_match_the_sweep(label, g):
    tables = [g.op_table()] + list(one_entry_changes(g.op_table(), g.size))
    for table in tables:
        report = validate_group_table(table)
        want = group_sweep(table)
        assert report.findings == want and report.status == ("fail" if want else "pass")
    assert validate_group_table(g.op_table()).ok


# ---------------------------------------------------------------------------
# operation counts


def ternary_calls(monkeypatch, run):
    """The carrier ``ternary`` calls that ``run()`` makes."""
    calls = [0]
    ternary = core.FiniteHeap.ternary

    def counted(self, a, b, c):
        calls[0] += 1
        return ternary(self, a, b, c)

    with monkeypatch.context() as patch:
        patch.setattr(core.FiniteHeap, "ternary", counted)
        assert run().ok
    return calls[0]


def test_clean_validation_grows_as_the_table(monkeypatch):
    """Cold, clean TZn and its regular module: each doubling of n at most
    quintuples the carrier ternaries, as n^2 k does; an O(n^3) law check
    would multiply them by eight."""
    for make in (lambda n: validate_truss(truss_TZn(n)),
                 lambda n: validate_module(FiniteTModule.regular(truss_TZn(n)))):
        counts = [ternary_calls(monkeypatch, lambda: make(n)) for n in (16, 32, 64)]
        assert all(big <= 5 * small for small, big in zip(counts, counts[1:])), counts


def test_a_group_heap_frame_is_its_groups_generators():
    # the frame of the heap of a group is the greedy generators of its
    # retract at 0, as a scan would find them
    for label, g in small_groups(8):
        h = heap_from_group(g)
        assert h.frame() == core._scanned_frame(h), label
