"""Trusses, built-ins, unital/ring extensions, retract rings, Dorroh."""

import hashlib
import itertools
import random
from pathlib import Path

import pytest

from trusskit import laws, trusses
from trusskit.cli import parse_ring_spec
from trusskit.coproduct import DirectSum
from trusskit.core import INT_LINE, StructureError, heap_from_group, FiniteGroup, FiniteHeap
from trusskit.reports import Finding
from trusskit.rings import FiniteRing
from trusskit.trusses import (
    ConstantTruss,
    ExtensionTruss,
    FiniteTruss,
    IntegerTruss,
    constant_truss,
    dorroh_compare,
    double_extension,
    integer_truss,
    product_table,
    retract_ring,
    ring_extension,
    tc2_brace_truss,
    terminal_truss,
    truss_TZn,
    truss_from_ring,
    unital_extension,
    validate_truss,
)

# ---------------------------------------------------------------------------
# validation and built-ins


def test_tz4_valid_unital_ring_type():
    t = truss_TZn(4)
    report = validate_truss(t)
    assert report.ok
    assert report.stats["unital"] and report.stats["ring_type"]
    assert t.identity == 1 and t.absorber == 0
    assert report.stats["checked"] == 4 ** 3 + 2 * 4 ** 4
    assert report.stats["checked_by_law"] == {
        "product associativity": 4 ** 3,
        "left distributivity over [,,]": 4 ** 4,
        "right distributivity over [,,]": 4 ** 4,
        "identity law": 4,
        "absorber law": 4,
    }


def test_constant_truss_flags():
    t = constant_truss(0)
    report = validate_truss(t)
    assert report.ok
    assert t.absorber == 0 and t.identity is None


def test_integer_truss_valid():
    t = integer_truss()
    assert validate_truss(t).ok
    assert t.identity == 1 and t.absorber == 0


def test_distributivity_violation_located():
    # no 2-element product can break distributivity (every unary map on the
    # 2-element heap is an endomorphism), so the witness lives on 3 elements
    heap = heap_from_group(FiniteGroup.cyclic(3))
    t = FiniteTruss(heap, [[max(a, b) for b in range(3)] for a in range(3)])
    report = validate_truss(t)
    assert not report.ok
    assert any("distributivity" in f.law for f in report.findings)
    # frozen witness: 1.[0,1,2] = 1 but [1.0, 1.1, 1.2] = [1,1,2] = 2
    assert any(f.at == (1, 0, 1, 2) for f in report.findings if "left" in f.law)


def test_truss_from_ring_z2():
    t = truss_from_ring(FiniteRing.Zn(2))
    assert t.size == 2
    assert validate_truss(t).ok


def test_truss_from_symbolic_integers():
    assert isinstance(truss_from_ring("Z"), IntegerTruss)


def test_zero_ring_gives_terminal_truss():
    t = truss_from_ring(FiniteRing(FiniteGroup.trivial(), ((0,),), validate=False))
    assert t.size == 1
    assert t.identity == 0 and t.absorber == 0


def test_brace_truss():
    t = tc2_brace_truss()
    assert validate_truss(t).ok
    assert t.identity == 0  # a, the brace identity
    assert t.absorber is None


def test_truss_rejects_out_of_range_products():
    heap = truss_TZn(3).heap
    for bad in (7, -1, "i1"):
        with pytest.raises(StructureError, match="table of ids in 0..2"):
            FiniteTruss(heap, [[0, 1, bad], [0, 0, 0], [0, 0, 0]])
    for bad in ([[0]], [[0, 1, 2], [0]], [[0, 1, 2]] * 4, [[0, 1], [0, 1, 2], [0, 1, 2]],
                [0, 1, 2]):
        with pytest.raises(StructureError, match="must be a 3 x 3 table of ids in 0..2"):
            FiniteTruss(heap, bad)


def test_truss_rejects_nonabelian_carrier():
    heap = heap_from_group(FiniteGroup.dihedral(3))
    with pytest.raises(StructureError):
        FiniteTruss(heap, [[0] * 6 for _ in range(6)])


def test_equality_of_function_backed_heaps_builds_no_table():
    s, t = truss_TZn(6), truss_TZn(6)
    assert s == t
    assert s.heap._table is None and t.heap._table is None
    c6, s3 = heap_from_group(FiniteGroup.cyclic(6)), heap_from_group(FiniteGroup.dihedral(3))
    assert c6 != s3 and c6._table is None and s3._table is None
    assert c6 == FiniteHeap.from_table(heap_from_group(FiniteGroup.cyclic(6)).table())
    assert c6._table is None


# ---------------------------------------------------------------------------
# unital extension


def test_unital_extension_identity_law():
    t1 = unital_extension(truss_TZn(2))
    one = t1.identity
    rng = random.Random(41)
    for _ in range(50):
        x = t1.element(rng.randrange(2), rng.randrange(-5, 6))
        assert t1.mul(one, x) == x
        assert t1.mul(x, one) == x


def test_unital_extension_demotes_old_identity():
    t = truss_TZn(2)
    t1 = unital_extension(t)
    u = t1.inject(t.identity)
    assert t1.mul(u, t1.identity) == u
    assert u != t1.identity


def test_unital_extension_keeps_absorber():
    t = truss_TZn(2)
    t1 = unital_extension(t)
    assert t1.absorber == t1.inject(t.absorber)
    rng = random.Random(43)
    for _ in range(50):
        x = t1.element(rng.randrange(2), rng.randrange(-5, 6))
        assert t1.mul(t1.absorber, x) == t1.absorber
        assert t1.mul(x, t1.absorber) == t1.absorber


class FramelessSum(DirectSum):
    """A direct sum that withholds its group form: it has no frame."""

    def frame(self):
        return None


class Frameless(ExtensionTruss):
    """An extension on a carrier without a frame: the validators refuse it."""

    def __init__(self, base, adjoined):
        super().__init__(base, adjoined)
        self.heap = FramelessSum(self.heap.summands)


NO_FRAME = r"has no frame\(\)"


def sampled_laws(t, act, m, tw, mw, samples, seed):
    """The sampled mode the law engine once had, kept as an oracle that needs
    no frame: ``samples`` seeded draws of a, b, c from the window ``tw`` of
    t and x, y, z from the window ``mw`` of m.  The (law, at, lhs, rhs)
    findings of the three action laws in draw order, and the drawn x."""
    rng, tw, mw = random.Random(seed), list(tw), list(mw)
    tern_t, tern_m = t.heap.ternary, m.heap.ternary
    found, drawn = [], []
    for _ in range(samples):
        a, b, c, x, y, z = (rng.choice(w) for w in (tw, tw, tw, mw, mw, mw))
        found += [f for f in (
            (laws.ASSOCIATIVE, (a, b, x), act(a, act(b, x)), act(t.mul(a, b), x)),
            (laws.LINEAR_IN_T, (a, b, c, x), act(tern_t(a, b, c), x),
             tern_m(act(a, x), act(b, x), act(c, x))),
            (laws.LINEAR_IN_M, (a, x, y, z), act(a, tern_m(x, y, z)),
             tern_m(act(a, x), act(a, y), act(a, z)))) if f[2] != f[3]]
        drawn.append(x)
    return found, drawn


def sampled_truss_status(t, samples, window, seed=2026):
    """The sampled oracle's verdict on a truss: its product laws on seeded
    draws from ``sample_elements(window)``, the unit laws at the drawn x."""
    pool = list(t.sample_elements(window))
    found, drawn = sampled_laws(t, t.mul, t, pool, pool, samples, seed)
    one, zero, mul = t.identity, t.absorber, t.mul
    units_fail = any(one is not None and (mul(one, x) != x or mul(x, one) != x)
                     or zero is not None and (mul(zero, x) != zero or mul(x, zero) != zero)
                     for x in drawn)
    return "fail" if found or units_fail else "pass"


def test_unital_extension_validates_sampled():
    # without a frame the validator refuses; the seeded oracle passes it on
    # 3000 draws from the window, identity and absorber laws included
    for base in (truss_TZn(3), tc2_brace_truss()):
        with pytest.raises(StructureError, match=NO_FRAME):
            validate_truss(Frameless(base, "one"))
        assert sampled_truss_status(Frameless(base, "one"), 3000, 3) == "pass"
        assert validate_truss(unital_extension(base)).ok


def test_extensions_validate_on_their_frames():
    # TZ3 contributes its basepoint 0 and the generator 1, the tail one more
    report = validate_truss(unital_extension(truss_TZn(3)))
    assert report.ok and report.stats["frame"] == 3 and report.stats["base"] == "pass"
    assert report.stats["checked"] == 3 ** 3 + 2 * 3 ** 4
    report = validate_truss(double_extension(integer_truss()))
    assert report.ok and report.stats["checked_by_law"] == {
        "product associativity": 4 ** 3,
        "left distributivity over [,,]": 4 ** 4,
        "right distributivity over [,,]": 4 ** 4,
        "identity law": 4,
        "absorber law": 4,
    }
    assert validate_truss(unital_extension(tc2_brace_truss())).ok


def test_star_unital_extension_is_integer_ring():
    # the unital extension of the terminal truss, retracted at its absorber,
    # is the ring of integers: n |-> tail coordinate
    s1 = unital_extension(terminal_truss())
    assert s1.identity is not None and s1.absorber is not None
    ring = retract_ring(s1, s1.absorber)
    def enc(n):
        return s1.element(0, n)
    for a in range(-6, 7):
        for b in range(-6, 7):
            assert ring.plus(enc(a), enc(b)) == enc(a + b)
            assert ring.mul(enc(a), enc(b)) == enc(a * b)
    assert ring.one == enc(1)


# ---------------------------------------------------------------------------
# ring extension and the worked closed forms


def tz2_ext0():
    return ring_extension(truss_TZn(2))


def sk(t0, sigma, k):
    # presentation of sigma.u + k.i0 in canonical coordinates
    return t0.element(sigma, 1 - k)


def test_ring_extension_new_absorber():
    t0 = tz2_ext0()
    assert t0.absorber == t0.adjoined_element
    rng = random.Random(47)
    for _ in range(50):
        x = t0.element(rng.randrange(2), rng.randrange(-5, 6))
        assert t0.mul(t0.absorber, x) == t0.absorber
        assert t0.mul(x, t0.absorber) == t0.absorber


def test_tz2_ext0_closed_form_full_window():
    # (sigma u + k i0)(sigma' u + k' i0) = sigma sigma' u + k k' i0
    t0 = tz2_ext0()
    for s, sp in itertools.product((0, 1), repeat=2):
        for k, kp in itertools.product(range(-5, 6), repeat=2):
            assert t0.mul(sk(t0, s, k), sk(t0, sp, kp)) == sk(t0, s * sp, k * kp)


def test_tz2_ext0_addition_closed_form():
    t0 = tz2_ext0()
    ring = retract_ring(t0, t0.absorber)
    for s, sp in itertools.product((0, 1), repeat=2):
        for k, kp in itertools.product(range(-4, 5), repeat=2):
            assert ring.plus(sk(t0, s, k), sk(t0, sp, kp)) == sk(t0, (s + sp) % 2, k + kp)


def test_tz2_ext0_identity_is_u_plus_i0():
    t0 = tz2_ext0()
    ring = retract_ring(t0, t0.absorber)
    u = sk(t0, 1, 0)
    i0 = t0.inject(0)
    assert ring.plus(u, i0) == t0.inject(1)  # i1 = u + i0
    assert t0.identity == t0.inject(1)


def test_ring_extension_keeps_identity():
    t0 = tz2_ext0()
    one = t0.identity
    rng = random.Random(53)
    for _ in range(50):
        x = t0.element(rng.randrange(2), rng.randrange(-5, 6))
        assert t0.mul(one, x) == x == t0.mul(x, one)


def zc_elem(z0, sigma, k, n):
    # sigma.i_n + k.i_c in canonical coordinates (base point is i_c)
    c = z0.base.c
    return z0.element(c + sigma * (n - c), 1 - sigma - k)


def test_zc_ext0_closed_form_full_window():
    # (s i_n + k i_c)(s' i_n' + k' i_c) = (ss' + sk' + s'k + kk') i_c
    for c in (0, 2):
        z0 = ring_extension(constant_truss(c))
        ns = [n for n in range(c - 5, c + 6) if n != c]
        for s, sp in itertools.product((0, 1), repeat=2):
            for k, kp in itertools.product(range(-5, 6), repeat=2):
                for n, np_ in ((ns[0], ns[-1]), (ns[2], ns[5]), (ns[7], ns[1])):
                    got = z0.mul(zc_elem(z0, s, k, n), zc_elem(z0, sp, kp, np_))
                    K = s * sp + s * kp + sp * k + k * kp
                    assert got == zc_elem(z0, 0, K, c + 1)


def test_zc_ext0_sample_value():
    # sigma = sigma' = 1, k = 1, k' = 2 gives (1 + 2 + 1 + 2) i_c = 6 i_c
    z0 = ring_extension(constant_truss(0))
    got = z0.mul(zc_elem(z0, 1, 1, 3), zc_elem(z0, 1, 2, -2))
    assert got == zc_elem(z0, 0, 6, 1)


def test_zc_ext0_flags():
    z0 = ring_extension(constant_truss(0))
    assert z0.absorber is not None and z0.identity is None
    assert validate_truss(z0).ok


def test_zc_old_absorber_demoted():
    # i_c (sigma i_n + k i_c) = (sigma + k) i_c, so i_c only absorbs when
    # sigma + k = 1
    z0 = ring_extension(constant_truss(0))
    ic = z0.inject(0)
    for s in (0, 1):
        for k in range(-4, 5):
            got = z0.mul(ic, zc_elem(z0, s, k, 2))
            assert got == zc_elem(z0, 0, s + k, 1)
    assert z0.mul(ic, zc_elem(z0, 1, 1, 2)) != ic


def test_zc_ext0_addition_matches_displayed_form():
    # the sigma sigma' coefficient folds as i_{n-c+n'} + i_c
    c = 0
    z0 = ring_extension(constant_truss(c))
    ring = retract_ring(z0, z0.absorber)
    for n, np_ in ((1, 3), (2, -4), (-1, 5)):
        lhs = ring.plus(zc_elem(z0, 1, 0, n), zc_elem(z0, 1, 0, np_))
        rhs = ring.plus(zc_elem(z0, 1, 0, n - c + np_), zc_elem(z0, 0, 1, 1))
        assert lhs == rhs


def c2_elem(b0, sigma, n):
    # sigma.t + n.a in canonical coordinates (base point is the brace identity a)
    return b0.element(sigma, 1 - n)


def test_tc2_ext0_closed_form_full_window():
    # (s t + n a)(s' t + n' a) = ((1 - (-1)^{s'n + sn'})/2) t + nn' a
    b0 = ring_extension(tc2_brace_truss())
    for s, sp in itertools.product((0, 1), repeat=2):
        for n, np_ in itertools.product(range(-5, 6), repeat=2):
            got = b0.mul(c2_elem(b0, s, n), c2_elem(b0, sp, np_))
            sign = 1 if (sp * n + s * np_) % 2 == 0 else -1  # (-1)^m, exactly
            parity = (1 - sign) // 2
            assert got == c2_elem(b0, parity, n * np_)


def test_tc2_ext0_sample_value():
    # sigma=1, n=1, sigma'=0, n'=1 lands on t + a
    b0 = ring_extension(tc2_brace_truss())
    got = b0.mul(c2_elem(b0, 1, 1), c2_elem(b0, 0, 1))
    assert got == c2_elem(b0, 1, 1)


def test_tc2_ext0_identity_is_a():
    b0 = ring_extension(tc2_brace_truss())
    assert b0.identity == b0.inject(0)


def test_tc2_relation_b_plus_b_is_a_plus_a():
    b0 = ring_extension(tc2_brace_truss())
    ring = retract_ring(b0, b0.absorber)
    a, b = b0.inject(0), b0.inject(1)
    assert ring.plus(b, b) == ring.plus(a, a)


def test_star_ring_extension_is_integer_ring():
    s0 = ring_extension(terminal_truss())
    ring = retract_ring(s0, s0.absorber)
    def enc(n):
        return s0.element(0, 1 - n)
    for a in range(-6, 7):
        for b in range(-6, 7):
            assert ring.plus(enc(a), enc(b)) == enc(a + b)
            assert ring.mul(enc(a), enc(b)) == enc(a * b)


# ---------------------------------------------------------------------------
# lambda multiplication is representative-independent


def heap_fold(heap, values):
    """Left fold of the ternary operation over an odd list of elements."""
    acc = values[0]
    for j in range(1, len(values), 2):
        acc = heap.ternary(acc, values[j], values[j + 1])
    return acc


def base_times(t: ExtensionTruss):
    """The base product; letter-wise again when the base is an extension."""
    if isinstance(t.base, ExtensionTruss):
        inner = t.base
        return lambda u, v: mul_via_words(inner, inner.heap.word_form(u), inner.heap.word_form(v))
    return t.base.mul


def mul_via_words(t: ExtensionTruss, word_x, word_y):
    """Recompute the product from arbitrary word representatives, letter by
    letter: t.(letters of y) for each base letter t of x, folded."""
    times = base_times(t)

    def letter_times(u):
        mapped = []
        for j, v in word_y:
            if j == 0:
                mapped.append((0, times(u, v)))
            elif t.adjoined == "one":
                mapped.append((0, u))
            else:
                mapped.append((1, 0))
        return t.heap.normalize_word(mapped)

    values = []
    for i, u in word_x:
        if i == 1:
            values.append(t.heap.normalize_word(word_y) if t.adjoined == "one"
                          else t.adjoined_element)
        else:
            values.append(letter_times(u))
    return heap_fold(t.heap, values)


@pytest.mark.parametrize("make", [
    lambda: unital_extension(truss_TZn(2)),
    lambda: ring_extension(truss_TZn(2)),
    lambda: ring_extension(tc2_brace_truss()),
    lambda: unital_extension(truss_TZn(3)),
])
def test_lambda_well_defined_on_representatives(make):
    t = make()
    rng = random.Random(59)
    letters = [(0, v) for v in range(t.base.size)] + [(1, 0)]
    for _ in range(300):
        wx = tuple(rng.choice(letters) for _ in range(rng.choice((1, 3, 5, 7))))
        wy = tuple(rng.choice(letters) for _ in range(rng.choice((1, 3, 5, 7))))
        x = t.heap.normalize_word(wx)
        y = t.heap.normalize_word(wy)
        assert mul_via_words(t, wx, wy) == t.mul(x, y)


EXTENSION_BASES = {
    "TZ": integer_truss,
    "Zc3": lambda: constant_truss(3),
    "TZ5": lambda: truss_TZn(5),
    "TC2": tc2_brace_truss,
    "TZ3": lambda: truss_TZn(3),
}


@pytest.mark.parametrize("base", sorted(EXTENSION_BASES))
@pytest.mark.parametrize("kind", ["T1", "T0", "T01"])
def test_closed_form_product_matches_letterwise_oracle(kind, base):
    make = {"T1": unital_extension, "T0": ring_extension, "T01": double_extension}[kind]
    t = make(EXTENSION_BASES[base]())
    pool = list(t.sample_elements(2 if kind == "T01" else 4))
    rng = random.Random(f"{kind} {base}")
    for _ in range(120):
        x, y = rng.choice(pool), rng.choice(pool)
        assert t.mul(x, y) == mul_via_words(t, t.heap.word_form(x), t.heap.word_form(y)), (x, y)


@pytest.mark.parametrize("adjoined, basepoint", [("one", 1), ("zero", 2)])
def test_closed_form_product_off_the_default_basepoint(adjoined, basepoint):
    t = ExtensionTruss(integer_truss(), adjoined, basepoint)
    pool = list(t.sample_elements(4))
    rng = random.Random(67 + basepoint)
    for _ in range(200):
        x, y = rng.choice(pool), rng.choice(pool)
        assert t.mul(x, y) == mul_via_words(t, t.heap.word_form(x), t.heap.word_form(y)), (x, y)
    assert validate_truss(t).ok


def test_closed_form_product_rejects_products_outside_the_carrier():
    class Escaping(IntegerTruss):
        def mul(self, a, b):
            return "out" if (a, b) == (2, 3) else a * b

    t1 = unital_extension(Escaping())
    assert t1.mul(t1.element(2, 0), t1.element(4, 5)) == t1.element(8 + 5 * 2 + 0, 0)
    for x, y in ((t1.element(2, 0), t1.element(3, 0)),      # gh
                 (t1.element(2, 1), t1.element(3, -1))):    # gh, with tails
        with pytest.raises(StructureError):
            t1.mul(x, y)
    # a table raises where a base product it makes leaves the carrier, also
    # from inside a nested extension, and is made when it needs no 2.3
    outside = r"base product 2\.3 = 'out' is outside the carrier"
    for kind in ("T1", "T0", "T01"):
        t = EXTEND[kind](Escaping())
        lift = t.base.inject if kind == "T01" else (lambda g: g)
        x, y = t.element(lift(2), 1), t.element(lift(3), -1)
        with pytest.raises(StructureError, match=outside):
            t.mul(x, y)
        for xs, ys in (([x], [y]), (window_pool(t, 1) + [x, y], window_pool(t, 1) + [y, x])):
            with pytest.raises(StructureError, match=outside):
                product_table(t, xs, ys)
        pool = window_pool(t, 1) + [x, t.element(lift(3), 0)]
        assert product_table(t, pool, pool[:-1]) == cell_by_cell(t, pool, pool[:-1])


class EscapingAtTheBasepoint(IntegerTruss):
    """The integer truss but for 2.0 and 0.3, which leave the carrier: with
    the basepoint e = 0 they are the ge of g = 2 and the eh of h = 3."""

    def mul(self, a, b):
        return "out" if (a, b) in ((2, 0), (0, 3)) else a * b


def raises(f, *args):
    try:
        f(*args)
    except StructureError:
        return True
    return False


def test_extension_products_make_ge_only_for_a_tail_of_y_and_eh_only_for_one_of_x():
    # over Z with e = 0 every ge, eh and ee is 0: T1 is the Dorroh product
    # (gh + n.g + m.h; mn) and T0 is (gh; n + m - mn)
    closed = {"T1": lambda g, m, h, n: (g * h + n * g + m * h, m * n),
              "T0": lambda g, m, h, n: (g * h, n + m - m * n)}
    for kind, form in closed.items():
        t = EXTEND[kind](EscapingAtTheBasepoint())
        for m, n in itertools.product((-1, 0, 2), repeat=2):
            for (g, h), read in (((2, 4), n), ((5, 3), m)):   # 2.0 is read for n, 0.3 for m
                x, y = t.element(g, m), t.element(h, n)
                if read:
                    with pytest.raises(StructureError, match="is outside the carrier"):
                        t.mul(x, y)
                else:
                    assert t.mul(x, y) == t.element(*form(g, m, h, n))


@pytest.mark.parametrize("kind", ["T1", "T0", "T01"])
def test_product_table_raises_exactly_when_mul_raises_on_some_cell(kind):
    t = EXTEND[kind](EscapingAtTheBasepoint())
    if kind == "T01":    # the T1 components, with their own tails
        pool = [t.element(t.base.element(g, k), m)
                for g in (0, 2, 3) for k in (0, 1) for m in (-1, 0, 1)]
    else:
        pool = [t.element(g, m) for g in (0, 2, 3, 4) for m in (-1, 0, 1)]
    rng, seen = random.Random(27), set()
    for _ in range(80):
        xs, ys = (rng.sample(pool, rng.randint(1, 4)) for _ in range(2))
        want = any(raises(t.mul, x, y) for x in xs for y in ys)
        assert raises(product_table, t, xs, ys) == want, (xs, ys)
        if not want:
            assert product_table(t, xs, ys) == cell_by_cell(t, xs, ys)
        seen.add(want)
    assert seen == {True, False}


def test_double_extension_validation_makes_at_most_341_base_products(monkeypatch):
    # 1 005 when every extension product made gh, ge and eh
    calls, mul = [], FiniteTruss.mul
    monkeypatch.setattr(FiniteTruss, "mul", lambda self, a, b: calls.append(1) or mul(self, a, b))
    assert validate_truss(double_extension(truss_TZn(5))).ok
    assert len(calls) <= 341


def test_an_extension_product_makes_three_shifts(monkeypatch):
    # mul applies M_x(n) to A_x(h) by shifts; the row form of a table is no
    # detour for a single product
    calls, shift = [], trusses.shift
    monkeypatch.setattr(trusses, "shift", lambda *a: calls.append(1) or shift(*a))
    for kind in ("T1", "T0"):
        t = EXTEND[kind](truss_TZn(5))
        calls.clear()
        t.mul(t.element(2, 3), t.element(4, -2))
        assert len(calls) == 3


# sha256 of the reprs of t.mul(x, y) over the window-2 pool squared, computed
# with the closed form making every gh, ge and eh; the pool is window_pool(t,
# 2), but over an extension base its window is drawn from the base's heap
PRODUCT_DIGESTS = {
    ("T1", "TZ"): "3dec4bc1929b5cc9", ("T1", "TZ5"): "0bf7db1534ac9210",
    ("T1", "Zc3"): "ed84e96bf81d5391", ("T1", "TC2"): "5b5f4b79d7977467",
    ("T0", "TZ"): "e5ded71369dcce0d", ("T0", "TZ5"): "e7bcc774737260ee",
    ("T0", "Zc3"): "14bddb2365c62b4a", ("T0", "TC2"): "9f2b28775f479013",
    ("T01", "TZ"): "dea4ecfcab0a049e", ("T01", "TZ5"): "cdb2fdf18a63e505",
    ("T01", "Zc3"): "728e912526ebfde2", ("T01", "TC2"): "610d820cc8b255f9",
}


@pytest.mark.parametrize("kind, name", sorted(PRODUCT_DIGESTS))
def test_extension_products_are_unchanged_on_window_2_pools(kind, name):
    t = EXTEND[kind](EXTENSION_BASES[name]())
    base = t.base.heap.sample(2) if kind == "T01" else t.base.sample_elements(2)
    pool = [t.element(g, m) for g in base for m in range(-2, 3)]
    text = "\n".join(repr(t.mul(x, y)) for x in pool for y in pool)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PRODUCT_DIGESTS[kind, name]


# ---------------------------------------------------------------------------
# double extension


def test_double_extension_flags():
    for base in (truss_TZn(2), constant_truss(0), tc2_brace_truss()):
        d = double_extension(base)
        assert d.identity is not None and d.absorber is not None
        rng = random.Random(61)
        pool = list(d.sample_elements(2))
        for _ in range(40):
            x = rng.choice(pool)
            assert d.mul(d.identity, x) == x == d.mul(x, d.identity)
            assert d.mul(d.absorber, x) == d.absorber == d.mul(x, d.absorber)


def test_double_extension_of_star_retract_is_z_times_z():
    # G(star_1; *) is the integers; adjoining a fresh absorber to a ring-type
    # truss T(R) retracts to the product ring R x Z (the old zero z = i(0_R)
    # is a central idempotent with z.i(r) = z, giving (r,j)(r',j') = (rr',jj')
    # in the coordinates r + (j-1).z relative to the new zero)
    d = double_extension(terminal_truss())
    ring = retract_ring(d, d.absorber)
    def enc(x, j):
        # x lives in the star_1 = Z part, j in the fresh integer factor
        inner = d.base.element(0, x)
        return d.element(inner, 1 - j)
    for x, j, y, jp in itertools.product(range(-3, 4), repeat=4):
        assert ring.plus(enc(x, j), enc(y, jp)) == enc(x + y, j + jp)
        assert ring.mul(enc(x, j), enc(y, jp)) == enc(x * y, j * jp)


def zc01_elem(ext, sigma, n, k, l):
    """sigma.i_n + k.i_c + l.1 inside {0} + Z^c + {1} (ring then unital)."""
    c = ext.base.base.c
    inner = ext.base.element(c + sigma * (n - c), 1 - sigma - k)
    return ext.element(inner, l)


def test_zc_double_extension_two_tail_closed_forms():
    # the worked two-tail formulas for the unital extension of Z^c_0
    c = 0
    ext = unital_extension(ring_extension(constant_truss(c)))
    ring = retract_ring(ext, ext.inject(ext.base.absorber))
    ns = (1, 2, -3)

    def rhs_product(s, n, k, l, sp, np_, kp, lp):
        K = s * sp + s * kp + sp * k + k * kp + k * lp + l * kp
        out = ring.scale(K, zc01_elem(ext, 0, 1, 1, 0))          # K . i_c
        out = ring.plus(out, ring.scale(s * lp, zc01_elem(ext, 1, n, 0, 0)))
        out = ring.plus(out, ring.scale(sp * l, zc01_elem(ext, 1, np_, 0, 0)))
        out = ring.plus(out, ring.scale(l * lp, zc01_elem(ext, 0, 1, 0, 1)))
        return out

    for s, sp in itertools.product((0, 1), repeat=2):
        for k, kp, l, lp in itertools.product((-2, 0, 1, 3), repeat=4):
            for n, np_ in ((ns[0], ns[1]), (ns[2], ns[0])):
                x = zc01_elem(ext, s, n, k, l)
                y = zc01_elem(ext, sp, np_, kp, lp)
                assert ring.mul(x, y) == rhs_product(s, n, k, l, sp, np_, kp, lp)


def test_zc_double_extension_spec_order_sample():
    # same formula through the ring-extension-of-unital-extension ordering;
    # the (1,0,1) x (0,1,0) sample evaluates to 2.i_c
    c = 0
    d = double_extension(constant_truss(c))
    ring = retract_ring(d, d.absorber)

    def elem(sigma, n, k, l):
        inner = d.base.element(c + sigma * (n - c), l)
        return d.element(inner, 1 - sigma - k - l)

    ic = elem(0, 1, 1, 0)
    one = elem(0, 1, 0, 1)

    def rhs(s, n, k, l, sp, np_, kp, lp):
        K = s * sp + s * kp + sp * k + k * kp + k * lp + l * kp
        out = ring.scale(K, ic)
        out = ring.plus(out, ring.scale(s * lp, elem(1, n, 0, 0)))
        out = ring.plus(out, ring.scale(sp * l, elem(1, np_, 0, 0)))
        out = ring.plus(out, ring.scale(l * lp, one))
        return out

    got = ring.mul(elem(1, 2, 0, 1), elem(0, 3, 1, 0))
    assert got == rhs(1, 2, 0, 1, 0, 3, 1, 0)
    assert got == ring.scale(2, ic)
    for s, sp in itertools.product((0, 1), repeat=2):
        for k, kp, l, lp in itertools.product((-1, 0, 2), repeat=4):
            x, y = elem(s, 2, k, l), elem(sp, -1, kp, lp)
            assert ring.mul(x, y) == rhs(s, 2, k, l, sp, -1, kp, lp)


# ---------------------------------------------------------------------------
# retract rings and Dorroh


def test_retract_ring_tz4_is_z4():
    ring = retract_ring(truss_TZn(4), 0)
    assert ring == FiniteRing(FiniteRing.Zn(4).add, FiniteRing.Zn(4).mul_table,
                              names=ring.names)


def test_retract_ring_rejects_non_absorber():
    with pytest.raises(StructureError):
        retract_ring(truss_TZn(4), 1)


def by_repeated_addition(add, zero, k, a):
    """k.a over an addition table: |k| additions of a, or of its negative."""
    step = a if k >= 0 else next(b for b in range(len(add)) if add[a][b] == zero)
    out = zero
    for _ in range(abs(k)):
        out = add[out][step]
    return out


@pytest.mark.parametrize("ring", [FiniteRing.Zn(n) for n in range(1, 9)]
                         + [FiniteRing.product(FiniteRing.Zn(2), FiniteRing.Zn(3))],
                         ids=[f"Z{n}" for n in range(1, 9)] + ["Z2xZ3"])
def test_finite_ring_arithmetic_matches_its_addition_table(ring):
    add, ids = ring.add.op_table(), range(ring.size)
    for a in ids:
        assert add[a][ring.neg(a)] == ring.zero
        assert [ring.plus(a, b) for b in ids] == list(add[a])
        assert [ring.scale(k, a) for k in range(-6, 7)] == \
            [by_repeated_addition(add, ring.zero, k, a) for k in range(-6, 7)]


@pytest.mark.parametrize("truss, zero", [(integer_truss(), 0), (constant_truss(3), 3)],
                         ids=["TZ", "Zc3"])
def test_symbolic_retract_ring_arithmetic_is_the_integers_moved_to_zero(truss, zero):
    ring, ks = retract_ring(truss, zero), range(-6, 7)
    for a in range(-5, 6):
        assert ring.neg(a) == zero - (a - zero)
        assert [ring.plus(a, b) for b in range(-5, 6)] == [a + b - zero for b in range(-5, 6)]
        assert [ring.scale(k, a) for k in ks] == [zero + k * (a - zero) for k in ks]


def test_retract_ring_tc2_ext0_closed_form():
    b0 = ring_extension(tc2_brace_truss())
    ring = retract_ring(b0, b0.absorber)
    got = ring.mul(c2_elem(b0, 1, 1), c2_elem(b0, 0, 1))
    assert got == c2_elem(b0, 1, 1)


def test_dorroh_full_agreement():
    for n in (2, 4, 6):
        report = dorroh_compare(FiniteRing.Zn(n), window=3)
        assert report.ok, report
        assert report.stats["checked"] == 4 * n * n
        assert report.stats["algorithm"] == "frame" and report.stats["window"] == 3


def dorroh_window_sweep(ring, window):
    """The first (r, n, r', n'), tails in [-window, window], where the
    unital extension of T(R) and the Dorroh product (r+n)(r'+n') =
    rr' + n'r + nr' + nn' differ (None if nowhere), and the number of
    products compared: every pair of the window, as a brute-force oracle."""
    t1 = trusses.unital_extension(truss_from_ring(ring))
    checked = 0
    for r, rp in itertools.product(range(ring.size), repeat=2):
        for n, np_ in itertools.product(range(-window, window + 1), repeat=2):
            checked += 1
            r_part = ring.plus(ring.plus(ring.mul(r, rp), ring.scale(np_, r)),
                               ring.scale(n, rp))
            if t1.mul(t1.element(r, n), t1.element(rp, np_)) != t1.element(r_part, n * np_):
                return (r, n, rp, np_), checked
    return None, checked


RING_Z4 = str(Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "ring_z4.json")


@pytest.mark.parametrize("spec", [f"Z{n}" for n in range(1, 9)] + [RING_Z4],
                         ids=lambda spec: Path(spec).name)
def test_dorroh_frame_agrees_with_the_window_sweep(spec):
    ring = parse_ring_spec(spec)
    for window in range(1, 5):
        report = dorroh_compare(ring, window)
        assert report.stats == {"ring": ring.size, "window": window, "algorithm": "frame",
                                "checked": 4 * ring.size ** 2}
        witness, checked = dorroh_window_sweep(ring, window)
        assert checked == ring.size ** 2 * (2 * window + 1) ** 2
        assert report.ok and witness is None


def test_dorroh_frame_catches_a_wrong_unital_extension_at_a_replayable_witness(monkeypatch):
    # adjoining 1 at the basepoint 1 of T(Z3) instead of at its absorber 0 is
    # still bi-affine in the tails, and agrees with Dorroh at tails 0 only
    def wrong(t):
        return ExtensionTruss(t, "one", basepoint=1)

    monkeypatch.setattr(trusses, "unital_extension", wrong)
    ring = FiniteRing.Zn(3)
    report = dorroh_compare(ring, window=3)
    assert not report.ok and len(report.findings) == 1
    for window in range(1, 5):
        assert dorroh_window_sweep(ring, window)[0] is not None
    (finding,) = report.findings
    r, n, rp, np_ = finding.at
    assert {n, np_} <= {0, 1} and (n, np_) != (0, 0)
    t1 = wrong(truss_from_ring(ring))
    got = t1.mul(t1.element(r, n), t1.element(rp, np_))
    r_part = ring.plus(ring.plus(ring.mul(r, rp), ring.scale(np_, r)), ring.scale(n, rp))
    assert finding.lhs == str(got) != finding.rhs == str(t1.element(r_part, n * np_))
    frame = list(itertools.product(range(3), range(3), (0, 1), (0, 1)))
    assert report.stats["checked"] == frame.index((r, rp, n, np_)) + 1


def test_dorroh_zero_tails_reduce_to_ring_product():
    ring = FiniteRing.Zn(4)
    t1 = unital_extension(truss_from_ring(ring))
    for r, rp in itertools.product(range(4), repeat=2):
        assert t1.mul(t1.element(r, 0), t1.element(rp, 0)) == t1.element(ring.mul(r, rp), 0)


def test_dorroh_z2_coordinate_example():
    # (i1 + 1)(i1 + 1) = (1+1+1, 1) = (1, 1) in Z2 + Z coordinates
    t1 = unital_extension(truss_TZn(2))
    assert t1.mul(t1.element(1, 1), t1.element(1, 1)) == t1.element(1, 1)


def test_dorroh_window_validation():
    with pytest.raises(StructureError):
        dorroh_compare(FiniteRing.Zn(2), window=0)


# ---------------------------------------------------------------------------
# frames: exact verdicts on symbolic trusses


class MisdeclaredIdentity(IntegerTruss):
    identity = 2


class MisdeclaredAbsorber(IntegerTruss):
    absorber = 1


class ConstantWithIdentity(ConstantTruss):
    identity = 3


def tz3_perturbations():
    """All 18 one-entry changes of the TZ3 product table."""
    tz3 = truss_TZn(3)
    out = {}
    for a, b, v in itertools.product(range(3), range(3), range(3)):
        if v != tz3.mul(a, b):
            table = [list(row) for row in tz3.mul_table]
            table[a][b] = v
            out[f"TZ3 {a}.{b}={v}"] = lambda table=table: FiniteTruss(tz3.heap, table)
    return out


UNIT_LAW_BASES = {
    **EXTENSION_BASES,
    **tz3_perturbations(),
    "misdeclared identity": MisdeclaredIdentity,
    "misdeclared absorber": MisdeclaredAbsorber,
    "constant with identity": lambda: ConstantWithIdentity(3),
}
EXTEND = {
    "T1": unital_extension,
    "T0": ring_extension,
    "T01": double_extension,
    # nested extensions that inherit the base's units, so a misdeclared
    # unit reaches the inner tail
    "T11": lambda t: unital_extension(unital_extension(t)),
    "T00": lambda t: ring_extension(ring_extension(t)),
}


@pytest.mark.parametrize("name", ["TZ", "Zc3", "TZ3", "TC2"])
@pytest.mark.parametrize("kind", ["T1", "T0", "T01"])
def test_extension_labels_are_distinct(kind, name):
    t = EXTEND[kind](EXTENSION_BASES[name]())
    window = list(t.base.sample_elements(2))
    pool = {t.element(g, m) for g in window for m in range(-2, 3)}
    assert len({t.format_element(x) for x in pool}) == len(pool) == len(window) * 5


# ---------------------------------------------------------------------------
# product tables: each distinct base product once


def window_pool(t, window):
    """The elements that ``trusskit extend ... table`` shows: each base
    element of the window with each tail in [-window, window]."""
    return [t.element(g, m) for g in t.base.sample_elements(window)
            for m in range(-window, window + 1)]


def cell_by_cell(t, xs, ys):
    return [[t.mul(x, y) for y in ys] for x in xs]


TABLE_BASES = {
    "TZ": integer_truss,
    "TZ3": lambda: truss_TZn(3),
    "TZ4": lambda: truss_TZn(4),
    "Zc3": lambda: constant_truss(3),
    "Zc-2": lambda: constant_truss(-2),
    "TC2": tc2_brace_truss,
    "star": terminal_truss,
}


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("kind", ["T1", "T0", "T01"])
@pytest.mark.parametrize("base", sorted(TABLE_BASES))
def test_product_table_is_the_product_cell_by_cell(base, kind, window):
    t = EXTEND[kind](TABLE_BASES[base]())
    pool = window_pool(t, window)
    assert product_table(t, pool[:30], pool[:30]) == cell_by_cell(t, pool[:30], pool[:30])
    # rectangles: every row against a reversed stride of the columns
    cols = pool[::-1][::max(1, len(pool) // 20)]
    assert product_table(t, pool, cols) == cell_by_cell(t, pool, cols)
    assert product_table(t, cols, pool) == cell_by_cell(t, cols, pool)
    assert product_table(t, [], pool) == [] and product_table(t, pool, []) == [[]] * len(pool)


@pytest.mark.parametrize("name", sorted(tz3_perturbations()))
@pytest.mark.parametrize("kind", ["T1", "T0"])
def test_product_table_over_a_base_that_is_no_truss(kind, name):
    # nothing is inferred from the base's laws: a one-entry change of the
    # TZ3 product is tabulated as it stands
    t = EXTEND[kind](UNIT_LAW_BASES[name]())
    pool = window_pool(t, 2)
    assert product_table(t, pool, pool) == cell_by_cell(t, pool, pool)
    assert product_table(t.base, range(3), range(3)) == [list(row) for row in t.base.mul_table]


NESTED = {
    "T0(T1(T0(TC2)))": lambda: ring_extension(unital_extension(ring_extension(tc2_brace_truss()))),
    "T1(T0(TZ3))": lambda: unital_extension(ring_extension(truss_TZn(3))),
}


@pytest.mark.parametrize("window", [1, 2])
@pytest.mark.parametrize("name", sorted(NESTED))
def test_product_table_in_row_form_over_a_nested_carrier(name, window):
    # the outer rows and columns sum A and M on a direct sum whose base
    # carrier is itself a direct sum (or, for T1(T0(TZ3)), a finite heap)
    t = NESTED[name]()
    pool = window_pool(t, window)
    cols = pool[::-1][::max(1, len(pool) // 40)]
    assert isinstance(t.base_heap, DirectSum)
    assert product_table(t, pool, cols) == cell_by_cell(t, pool, cols)
    assert product_table(t, cols, pool) == cell_by_cell(t, cols, pool)
    if window == 1:
        assert product_table(t, pool, pool) == cell_by_cell(t, pool, pool)


def violated(t, f):
    """Whether a truss finding is a genuine violation: its law fails at its
    witness, recomputed with the truss's own operations."""
    mul, tern = t.mul, t.heap.ternary
    return {
        "product associativity":
            lambda a, b, c: mul(mul(a, b), c) != mul(a, mul(b, c)),
        "left distributivity over [,,]":
            lambda s, a, b, c: mul(s, tern(a, b, c)) != tern(mul(s, a), mul(s, b), mul(s, c)),
        "right distributivity over [,,]":
            lambda s, a, b, c: mul(tern(a, b, c), s) != tern(mul(a, s), mul(b, s), mul(c, s)),
        "identity law":
            lambda x: mul(t.identity, x) != x or mul(x, t.identity) != x,
        "absorber law":
            lambda x: mul(t.absorber, x) != t.absorber or mul(x, t.absorber) != t.absorber,
    }[f.law](*f.at)


def test_frame_verdicts_match_sampled_runs():
    """Every extension of every base: the frame's verdict is that of the
    seeded sampled oracle, and every finding of the frame replays.  With
    the frame switched off the validator refuses.  A base that is no truss
    fails at tail 0."""
    assert len(UNIT_LAW_BASES) == 5 + 18 + 3
    verdicts = set()
    for name, make in UNIT_LAW_BASES.items():
        for kind, extend in EXTEND.items():
            t = extend(make())
            framed = validate_truss(t)
            assert framed.stats["frame"] == len(t.heap.frame()), (name, kind)
            assert all(violated(t, f) for f in framed.findings), (name, kind)
            if framed.stats["base"] == "fail":
                assert all(x.tails == (0,) for f in framed.findings for x in f.at)
            assert framed.status == sampled_truss_status(t, 100, 2, seed=7), (name, kind)
            t.heap.frame = lambda: None     # the carrier withholds its frame
            with pytest.raises(StructureError, match=NO_FRAME):
                validate_truss(t)
            verdicts.add((framed.status, framed.stats["base"]))
    assert verdicts == {("pass", "pass"), ("fail", "pass"), ("fail", "fail")}


def test_frames_are_a_point_and_that_point_moved_by_each_generator():
    # the frame is the carrier's: a constant truss starts at the origin 0
    assert integer_truss().heap.frame() == (0, 1) == INT_LINE.frame()
    assert constant_truss(3).heap.frame() == (0, 1)
    assert truss_TZn(6).heap.frame() == (0, 1) and terminal_truss().heap.frame() == (0,)
    c2 = FiniteGroup.cyclic(2)
    klein = FiniteTruss(heap_from_group(FiniteGroup.product(c2, c2)), [[0] * 4] * 4)
    assert klein.heap.frame() == (0, 1, 2)
    t = double_extension(integer_truss())
    inner = t.base.element
    assert t.heap.frame() == [t.element(inner(0, 0), 0), t.element(inner(1, 0), 0),
                              t.element(inner(0, 1), 0), t.element(inner(0, 0), 1)]
    # a finite base starts at id 0, whatever the extension's basepoint
    t1 = ExtensionTruss(truss_TZn(3), "one", basepoint=2)
    assert t1.heap.frame() == [t1.element(0, 0), t1.element(1, 0), t1.element(0, 1)]
    # a carrier that is no heap has no group form, so no frame
    odd = FiniteTruss(not_a_heap(), ((0, 0, 0),) * 3)
    assert odd.heap.frame() is None and unital_extension(odd).heap.frame() is None
    with pytest.raises(StructureError, match=NO_FRAME):
        validate_truss(unital_extension(odd))


class ListPool(Frameless):
    """An extension whose window is a materialised list, not a lazy one."""

    reads = 0

    def sample_elements(self, window):
        ListPool.reads += 1
        return list(super().sample_elements(window))


@pytest.mark.parametrize("name", ["TZ", "Zc3", "TC2", "TZ3 2.2=2", "misdeclared identity"])
@pytest.mark.parametrize("kind", ["T1", "T0", "T01"])
def test_reports_match_for_lazy_and_list_windows(kind, name):
    # no verdict is drawn from a window: lazy or listed, a carrier without a
    # frame gets the same StructureError, and its window is never read
    def make(cls):
        base = UNIT_LAW_BASES[name]()
        if kind == "T01":
            return cls(unital_extension(base), "zero")
        return cls(base, "one" if kind == "T1" else "zero")

    ListPool.reads = 0
    for window in (1, 3):
        errors = []
        for cls in (Frameless, ListPool):
            with pytest.raises(StructureError, match=NO_FRAME) as refused:
                validate_truss(make(cls), samples=150, window=window, seed=11)
            errors.append(str(refused.value))
        assert errors[0] == errors[1]
    assert ListPool.reads == 0


def test_unit_law_stats_name_the_algorithm():
    assert validate_truss(truss_TZn(4)).stats["unit_laws"] == \
        {"algorithm": "exhaustive", "evaluated": 4}
    assert validate_truss(integer_truss()).stats["unit_laws"] == \
        {"algorithm": "frame", "evaluated": 2}
    report = validate_truss(double_extension(integer_truss()))
    assert report.ok and report.stats["unit_laws"] == {"algorithm": "frame", "evaluated": 4}
    assert report.stats["checked_by_law"]["identity law"] == 4
    with pytest.raises(StructureError, match=NO_FRAME):
        validate_truss(Frameless(integer_truss(), "one"))
    # no identity and no absorber: nothing to evaluate
    no_units = unital_extension(constant_truss(0))
    no_units.identity = no_units.absorber = None
    assert validate_truss(no_units).stats["unit_laws"] == \
        {"algorithm": "frame", "evaluated": 0}


def test_sampling_keywords_are_accepted_and_ignored():
    for t in (truss_TZn(4), integer_truss(), double_extension(constant_truss(2))):
        report = validate_truss(t, samples=5, window=3 * 10 ** 9, seed=1)
        assert report.to_obj() == validate_truss(t).to_obj()
        assert "sampled" not in report.stats


def test_retract_ring_decides_the_absorber_on_every_tail():
    # every product is 0 except 0.59 = 59.0 = 1, so (0; 0) absorbs every
    # element of T1 except those with base component 59, which come after
    # the first 500 of the 540 window elements
    heap = heap_from_group(FiniteGroup.cyclic(60))
    table = [[0] * 60 for _ in range(60)]
    table[0][59] = table[59][0] = 1
    t1 = unital_extension(FiniteTruss(heap, table))
    zero = t1.inject(0)
    window = list(t1.sample_elements(4))
    assert len(window) == 540
    assert all(t1.mul(zero, x) == zero == t1.mul(x, zero) for x in window[:500])
    with pytest.raises(StructureError):
        retract_ring(t1, zero)


# ---------------------------------------------------------------------------
# distributivity from morphism rows


def product_law_sweep(t):
    """Every product-law finding of a finite truss in the order of the plain
    O(n^4) sweep: the brute-force loop the morphism rows must agree with."""
    n = t.size
    findings = []
    for a, b, c in itertools.product(range(n), repeat=3):
        if t.mul(t.mul(a, b), c) != t.mul(a, t.mul(b, c)):
            findings.append(Finding("product associativity", (a, b, c),
                                    t.mul(t.mul(a, b), c), t.mul(a, t.mul(b, c))))
    for s, a, b, c in itertools.product(range(n), repeat=4):
        lhs = t.mul(s, t.heap.ternary(a, b, c))
        rhs = t.heap.ternary(t.mul(s, a), t.mul(s, b), t.mul(s, c))
        if lhs != rhs:
            findings.append(Finding("left distributivity over [,,]", (s, a, b, c), lhs, rhs))
        lhs = t.mul(t.heap.ternary(a, b, c), s)
        rhs = t.heap.ternary(t.mul(a, s), t.mul(b, s), t.mul(c, s))
        if lhs != rhs:
            findings.append(Finding("right distributivity over [,,]", (s, a, b, c), lhs, rhs))
    return findings


def tzn_product_tables(max_n):
    """(n, label, table): the TZn product and each of its one-entry changes."""
    for n in range(1, max_n + 1):
        tz = truss_TZn(n)
        yield n, f"TZ{n}", tz.mul_table
        for a, b, v in itertools.product(range(n), repeat=3):
            if v != tz.mul(a, b):
                table = [list(row) for row in tz.mul_table]
                table[a][b] = v
                yield n, f"TZ{n} {a}.{b}={v}", table


def not_a_heap():
    """[a,b,c] = a + b + c + ac (mod 3): symmetric in a and c, not a heap."""
    return FiniteHeap.from_function(3, lambda a, b, c: (a + b + c + a * c) % 3)


def test_morphism_rows_match_the_product_law_sweep():
    runs = fails = 0
    for n, label, table in tzn_product_tables(6):
        t = FiniteTruss(truss_TZn(n).heap, table)
        report = validate_truss(t)
        want = product_law_sweep(t)
        assert report.findings == want, label
        assert report.status == ("fail" if want else "pass")
        assert report.stats["checked"] == n ** 3 + 2 * n ** 4
        assert report.stats["distributivity"]["algorithm"] == "morphism rows"
        runs, fails = runs + 1, fails + bool(want)
    # 6 products and 350 one-entry changes, of which only the 4 of TZ2 pass
    assert (runs, fails) == (356, 346)


def test_deciding_without_a_sweep_agrees_with_the_sweep():
    # a failing law decides without a sweep (``retract_ring`` of a symbolic
    # truss): some of the sweep's findings, present exactly when it has any
    cases = [(label, FiniteTruss(truss_TZn(n).heap, table))
             for n, label, table in tzn_product_tables(4)]
    cases.append(("not a heap", FiniteTruss(not_a_heap(), ((0, 0, 0), (0, 0, 0), (0, 0, 2)))))
    decided = {}
    for label, t in cases:
        want = product_law_sweep(t)
        got = trusses._product_laws(t, t.heap.elements(), sweep=False)[0]
        assert bool(got) == bool(want) and all(f in want for f in got), label
        if got and "product associativity" not in {f.law for f in want}:
            decided[label] = (len(got), len(want))
    # four products fail only distributivity, each decided by the first
    # failure of one row and one column; the non-heap is swept as before
    assert decided == {"TZ3 2.2=0": (2, 24), "TZ3 2.2=2": (2, 24), "TZ4 2.2=2": (2, 48),
                       "TZ4 3.3=3": (2, 48), "not a heap": (28, 28)}


def test_a_carrier_that_is_not_a_heap_is_swept():
    # every row and column of this product preserves [x,0,y], and yet
    # distributivity fails: the lemma alone would pass it
    t = FiniteTruss(not_a_heap(), ((0, 0, 0), (0, 0, 0), (0, 0, 2)))
    report = validate_truss(t)
    assert report.stats["distributivity"] == {"algorithm": "sweep", "swept": [0, 1, 2]}
    assert report.findings == product_law_sweep(t)
    assert Finding("left distributivity over [,,]", (2, 0, 1, 1), 2, 0) in report.findings


def test_distributivity_stats_name_the_algorithm():
    assert validate_truss(truss_TZn(4)).stats["distributivity"] == \
        {"algorithm": "morphism rows", "swept": []}
    table = [list(row) for row in truss_TZn(4).mul_table]
    table[1][2] = 3
    report = validate_truss(FiniteTruss(truss_TZn(4).heap, table))
    assert report.stats["distributivity"] == {"algorithm": "morphism rows", "swept": [1, 2]}
    assert validate_truss(integer_truss()).stats["distributivity"] == \
        {"algorithm": "morphism rows", "swept": []}


def test_validating_a_function_backed_carrier_builds_no_table():
    t = truss_TZn(5)
    assert validate_truss(t).ok
    assert t.heap._table is None


# ---------------------------------------------------------------------------
# refusals: each with its exact message

_REFUSALS = {
    "an extension adjoining neither one nor zero": (
        lambda: ExtensionTruss(truss_TZn(3), "two"), "adjoined element must be 'one' or 'zero'"),
}


@pytest.mark.parametrize("label", list(_REFUSALS))
def test_each_refusal_of_trusses_states_its_reason(label):
    call, message = _REFUSALS[label]
    with pytest.raises(StructureError) as caught:
        call()
    assert str(caught.value) == message
