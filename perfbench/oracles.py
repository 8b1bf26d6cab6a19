"""Known answers computed without trusskit.

Every function here works on plain nested lists/tuples of integer ids and
on plain strings, so a defect in trusskit cannot leak into the answer a
case is checked against.  Structures built "by construction" (the heap of
a group, the ring Zn, T(Zn) as a module over itself) are known to satisfy
their laws; a perturbed table is known to break them only once
``*_witness`` has found a concrete violated instance that uses the
perturbed cell.
"""

from __future__ import annotations

import itertools
import math
import random


# ---------------------------------------------------------------------------
# groups and heaps


def cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def dihedral_table(k):
    """Dihedral group of order 2k: r_i = i, s_i = k + i."""
    n = 2 * k
    t = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            t[i][j] = (i + j) % k
            t[i][j + k] = (i + j) % k + k
            t[i + k][j] = (i - j) % k + k
            t[i + k][j + k] = (i - j) % k
    return t


def is_group_table(t):
    """Associativity, a two-sided identity and two-sided inverses."""
    n = len(t)
    if any(len(row) != n for row in t):
        return False
    if any(t[t[a][b]][c] != t[a][t[b][c]]
           for a in range(n) for b in range(n) for c in range(n)):
        return False
    ids = [e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))]
    if not ids:
        return n == 0
    e = ids[0]
    return all(any(t[a][b] == e == t[b][a] for b in range(n)) for a in range(n))


def inverses(t):
    n = len(t)
    e = next(e for e in range(n) if all(t[e][x] == x for x in range(n)))
    return [next(b for b in range(n) if t[a][b] == e) for a in range(n)]


def heap_table(t):
    """The heap of a group: [x, y, z] = x y^-1 z, as nested tuples."""
    inv = inverses(t)
    n = len(t)
    return tuple(tuple(tuple(t[t[x][inv[y]]][z] for z in range(n)) for y in range(n))
                 for x in range(n))


def is_abelian_table(t):
    n = len(t)
    return all(t[a][b] == t[b][a] for a in range(n) for b in range(a))


def relabel_group(t, perm):
    """The table of the same group with element x renamed perm[x]."""
    n = len(t)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[t[a][b]]
    return out


def is_heap_isomorphism(h1, h2, mapping):
    """A bijection preserving the ternary operation, checked in full."""
    n = len(h1)
    if len(h2) != n or sorted(mapping) != list(range(n)):
        return False
    return all(mapping[h1[a][b][c]] == h2[mapping[a]][mapping[b]][mapping[c]]
               for a in range(n) for b in range(n) for c in range(n))


# ---------------------------------------------------------------------------
# perturbation and located witnesses


def perturb(table, rng, depth):
    """Copy of a nested table with one entry changed to a different id.

    ``depth`` is the nesting depth of the entries (2 for binary tables,
    3 for ternary ones).  Returns (new table, cell).  An order-1 table has
    no second id to move to, so it raises ValueError instead of returning
    an unchanged copy.
    """
    n = len(table)
    if n < 2:
        raise ValueError("a table on one element cannot be perturbed")
    cell = tuple(rng.randrange(len(table)) for _ in range(depth))
    old = _get(table, cell)
    new = (old + rng.randrange(1, n)) % n
    out = _to_lists(table)
    _set(out, cell, new)
    return out, cell


def _get(table, cell):
    for i in cell:
        table = table[i]
    return table


def _set(table, cell, value):
    for i in cell[:-1]:
        table = table[i]
    table[cell[-1]] = value


def _to_lists(table):
    if isinstance(table, (list, tuple)):
        return [_to_lists(x) for x in table]
    return table


def heap_witness(h, cell):
    """A violated heap identity in ternary table h, using the given cell.

    Checks the Mal'cev identities everywhere and associativity
    [[a,b,c],d,e] = [a,b,[c,d,e]] with the cell as either inner triple.
    """
    n = len(h)
    for a in range(n):
        for b in range(n):
            if h[a][b][b] != a:
                return ("malcev", a, b, b)
            if h[b][b][a] != a:
                return ("malcev", b, b, a)
    a, b, c = cell
    for d in range(n):
        for e in range(n):
            if h[h[a][b][c]][d][e] != h[a][b][h[c][d][e]]:
                return ("assoc", a, b, c, d, e)
            if h[h[d][e][a]][b][c] != h[d][e][h[a][b][c]]:
                return ("assoc", d, e, a, b, c)
    return None


def latin_witness(t):
    """A repeated entry in a row or column: no group table has one."""
    n = len(t)
    for a in range(n):
        if len(set(t[a])) != n:
            return ("row", a)
        if len({t[x][a] for x in range(n)}) != n:
            return ("column", a)
    return None


def zn_mul(n):
    return [[(a * b) % n for b in range(n)] for a in range(n)]


def _assoc_witness(n, mul, cell):
    """A violated (xy)z = x(yz) with the cell's row or column as a factor."""
    for s in cell:
        for x in range(n):
            for y in range(n):
                for p, q, r in ((s, x, y), (x, s, y), (x, y, s)):
                    if mul[mul[p][q]][r] != mul[p][mul[q][r]]:
                        return ("associativity", p, q, r)
    return None


def ring_witness(n, mul, cell):
    """A violated ring law of (Zn, +, mul) through the perturbed cell."""
    for s in cell:
        for x in range(n):
            for y in range(n):
                if mul[s][(x + y) % n] != (mul[s][x] + mul[s][y]) % n:
                    return ("left distributivity", s, x, y)
                if mul[(x + y) % n][s] != (mul[x][s] + mul[y][s]) % n:
                    return ("right distributivity", x, y, s)
    return _assoc_witness(n, mul, cell)


def truss_witness(n, mul, cell):
    """A violated truss law of (H(Zn), mul): distributivity over
    [x, y, z] = x - y + z, or associativity, through the perturbed cell."""
    for s in cell:
        for x, y, z in itertools.product(range(n), repeat=3):
            t = (x - y + z) % n
            if mul[s][t] != (mul[s][x] - mul[s][y] + mul[s][z]) % n:
                return ("left distributivity", s, x, y, z)
            if mul[t][s] != (mul[x][s] - mul[y][s] + mul[z][s]) % n:
                return ("right distributivity", x, y, z, s)
    return _assoc_witness(n, mul, cell)


def module_witness(n, act, cell):
    """A violated law of T(Zn) acting on H(Zn) by ``act`` (a table indexed
    [t][m]), through the perturbed cell."""
    t0, m0 = cell
    rng = range(n)
    for a in rng:
        for x in rng:
            for t, u, m in ((t0, a, x), (a, t0, x), (a, x, m0), (x, a, m0)):
                if act[t][act[u][m]] != act[(t * u) % n][m]:
                    return ("t(t'm) = (tt')m", t, u, m)
            for y in rng:
                for t in (t0, a):
                    for m1, m2, m3 in ((m0, x, y), (x, m0, y), (x, y, m0)):
                        lhs = act[t][(m1 - m2 + m3) % n]
                        rhs = (act[t][m1] - act[t][m2] + act[t][m3]) % n
                        if lhs != rhs:
                            return ("t[m,m',m'']", t, m1, m2, m3)
                for t1, t2, t3 in ((t0, x, y), (x, t0, y), (x, y, t0)):
                    lhs = act[(t1 - t2 + t3) % n][m0]
                    rhs = (act[t1][m0] - act[t2][m0] + act[t3][m0]) % n
                    if lhs != rhs:
                        return ("[t,t',t'']m", t1, t2, t3, m0)
    if act[1 % n][m0] != m0:
        return ("1m = m", m0)
    return None


def perturbed_with_witness(table, depth, rng, witness):
    """Seeded perturbations until ``witness(new, cell)`` finds a violation.

    Some single-entry changes land on another valid structure (the zero
    product on Z2 is a truss); those are redrawn so that a perturbed case
    always has a known ``fail`` answer backed by a located instance.
    """
    for _ in range(64):
        new, cell = perturb(table, rng, depth)
        found = witness(new, cell)
        if found is not None:
            return new, cell, found
    raise ValueError("no perturbation with a witness in 64 draws")


# ---------------------------------------------------------------------------
# modules over Zn, hom-sets, freeness


def zn_hom_count(n, a, b):
    """|Hom_Zn(Zn^a, Zn^b)| = n^(ab): a map is fixed by the images of the a
    basis vectors, each free in Zn^b."""
    return n ** (a * b)


def zn_power_group(n, k):
    """Addition on Zn^k with mixed-radix ids (first coordinate most
    significant), the id layout of an iterated product of Zn."""
    vecs = list(itertools.product(range(n), repeat=k))
    index = {v: i for i, v in enumerate(vecs)}
    add = [[index[tuple((p + q) % n for p, q in zip(u, v))] for v in vecs] for u in vecs]
    act = [[index[tuple((r * p) % n for p in u)] for u in vecs] for r in range(n)]
    return add, act


def is_zn_module_map(n, src, dst, mapping):
    """Additive and Zn-linear, on (add, act) table pairs."""
    add1, act1 = src
    add2, act2 = dst
    size = len(add1)
    return (all(mapping[add1[x][y]] == add2[mapping[x]][mapping[y]]
                for x in range(size) for y in range(size))
            and all(mapping[act1[r][x]] == act2[r][mapping[x]]
                    for r in range(n) for x in range(size)))


def is_heap_module_map(n, src, dst, mapping):
    """A map from T(src) to T(dst): preserves x - y + z and the action."""
    add1, act1 = src
    add2, act2 = dst
    size = len(add1)
    neg1 = inverses(add1)
    neg2 = inverses(add2)
    return (all(mapping[add1[add1[x][neg1[y]]][z]]
                == add2[add2[mapping[x]][neg2[mapping[y]]]][mapping[z]]
                for x in range(size) for y in range(size) for z in range(size))
            and all(mapping[act1[r][x]] == act2[r][mapping[x]]
                    for r in range(n) for x in range(size)))


def tn_is_free(k):
    """T(Zn^k) is free over T(Zn) exactly when Zn^k is isomorphic to Zn,
    that is when k = 1."""
    return k == 1


def is_unit(u, n):
    return math.gcd(u, n) == 1


def catalog_isomorphic(label_a, label_b):
    """Catalog groups are pairwise non-isomorphic, so two catalog heaps are
    isomorphic exactly when their labels match."""
    return label_a == label_b


def random_permutation(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# ---------------------------------------------------------------------------
# word expressions


LETTERS = "abcd"


def random_expr(rng, depth):
    """A seeded word-expression tree: ('word', letters) or ('op', u, v, w)."""
    if depth == 0 or rng.random() < 0.25:
        length = rng.choice((1, 3, 5))
        return ("word", tuple(rng.choice(LETTERS) for _ in range(length)))
    return ("op",) + tuple(random_expr(rng, depth - 1) for _ in range(3))


def render_expr(node):
    if node[0] == "word":
        return " ".join(node[1])
    return "[" + ", ".join(render_expr(x) for x in node[1:]) + "]"


def abelian_coeffs(node):
    """Signed letter counts: odd positions +1, even positions -1, and
    [u, v, w] = u - v + w.  Zero coefficients are dropped."""
    if node[0] == "word":
        out = {}
        for i, s in enumerate(node[1]):
            out[s] = out.get(s, 0) + (1 if i % 2 == 0 else -1)
    else:
        out = {}
        for sign, part in zip((1, -1, 1), node[1:]):
            for s, c in abelian_coeffs(part).items():
                out[s] = out.get(s, 0) + sign * c
    return {s: c for s, c in sorted(out.items()) if c != 0}


def _cancel(letters):
    stack = []
    for s in letters:
        if stack and stack[-1] == s:
            stack.pop()
        else:
            stack.append(s)
    return stack


def free_reduce(node):
    """Free heap normal form: [u, v, w] cancels adjacent equal letters in
    u, reversed v, w."""
    if node[0] == "word":
        return _cancel(node[1])
    u, v, w = (free_reduce(x) for x in node[1:])
    return _cancel(u + v[::-1] + w)


def nested_expr(depth):
    """'[[[a, b, c], b, c], b, c]' nested ``depth`` times, built without
    recursion, with its coefficients a:1, b:-depth, c:depth."""
    text = "[" * depth + "a" + ", b, c]" * depth
    return text, {"a": 1, "b": -depth, "c": depth} if depth else {"a": 1}


def coproduct_form(n_left, n_right, letters):
    """Canonical (alpha, beta, n) of a word over Zn_left (+) Zn_right with
    base points 0: the alternating signed sum per summand, and n counts the
    signed letters of the right summand."""
    alpha = beta = tail = 0
    for i, (side, x) in enumerate(letters):
        sign = 1 if i % 2 == 0 else -1
        if side == "A":
            alpha = (alpha + sign * x) % n_left
        else:
            beta = (beta + sign * x) % n_right
            tail += sign
    return alpha, beta, tail


def seeded(seed, *tags):
    """An independent Random for one case family of one workload seed."""
    return random.Random(f"{seed}:" + ":".join(str(t) for t in tags))
