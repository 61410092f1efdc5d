"""Differential oracle for the table-driven GF(q) arithmetic.

The reference below is the straightforward tuple arithmetic: elements are
coefficient tuples over GF(r), products are convolutions reduced by trial
division, polynomials over GF(q) are tuples of elements. It is slow and
obviously correct; the fast code, which works on integer codes, must agree
with it exactly once each code i is read as the tuple ``RefField.element(i)``.
"""

import numpy as np
import pytest

from expander_cs import GF, find_irreducible, poly_eval, poly_mod_pow, pv_expander
from expander_cs.errors import CapacityError
from expander_cs.fields import _poly_rem, is_prime
from expander_cs.rng import Stream

# ---------------------------------------------------------------------------
# reference: polynomials over GF(r) as int tuples, no trailing zeros
# ---------------------------------------------------------------------------


def _pr_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pr_mul(a, b, r):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % r
    return _pr_trim(out)


def _pr_mod(a, m, r):
    """Remainder of a modulo the monic m."""
    a = list(a)
    dm = len(m) - 1
    while a and len(a) - 1 >= dm:
        lead = a[-1]
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - lead * mi) % r
        a.pop()
    return _pr_trim(a)


def _pr_monic_polys(r, degree):
    for code in range(r**degree):
        yield tuple((code // r**i) % r for i in range(degree)) + (1,)


def _pr_is_irreducible(m, r):
    return all(_pr_mod(m, div, r) for t in range(1, (len(m) - 1) // 2 + 1)
               for div in _pr_monic_polys(r, t))


def ref_modulus(r, k):
    if k == 1:
        return (0, 1)
    return next(c for c in _pr_monic_polys(r, k) if _pr_is_irreducible(c, r))


class RefField:
    """GF(r^k) on coefficient tuples, with the same element coding as GF."""

    def __init__(self, r, k):
        self.r, self.k, self.q = r, k, r**k
        self.modulus = ref_modulus(r, k)
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)

    def element(self, i):
        return tuple((i // self.r**j) % self.r for j in range(self.k))

    def add(self, a, b):
        return tuple((x + y) % self.r for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.r for x, y in zip(a, b))

    def mul(self, a, b):
        red = _pr_mod(_pr_mul(_pr_trim(a), _pr_trim(b), self.r), self.modulus, self.r)
        return red + (0,) * (self.k - len(red))

    def pow(self, a, e):
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def inv(self, a):
        return self.pow(a, self.q - 2)


# ---------------------------------------------------------------------------
# reference: polynomials over GF(q) as tuples of elements
# ---------------------------------------------------------------------------


def ref_trim(F, f):
    f = list(f)
    while f and f[-1] == F.zero:
        f.pop()
    return tuple(f)


def ref_poly_mul(F, f, g):
    if not f or not g:
        return ()
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return ref_trim(F, out)


def ref_poly_mod(F, f, m):
    """Remainder of f modulo the monic m."""
    work = list(f)
    dm = len(m) - 1
    while work and len(work) - 1 >= dm:
        factor = work[-1]
        shift = len(work) - 1 - dm
        for i, mi in enumerate(m):
            work[shift + i] = F.sub(work[shift + i], F.mul(factor, mi))
        work.pop()
    return ref_trim(F, work)


def ref_poly_mod_pow(F, f, e, m):
    out = (F.one,)
    for _ in range(e):
        out = ref_poly_mod(F, ref_poly_mul(F, out, f), m)
    return out


def ref_poly_eval(F, f, y):
    acc = F.zero
    for c in reversed(f):
        acc = F.add(F.mul(acc, y), c)
    return acc


def ref_monic_polys(F, degree):
    for code in range(F.q**degree):
        yield tuple(F.element((code // F.q**i) % F.q) for i in range(degree)) + (F.one,)


def ref_find_irreducible(F, degree):
    for cand in ref_monic_polys(F, degree):
        if all(ref_poly_mod(F, cand, div) for t in range(1, degree // 2 + 1)
               for div in ref_monic_polys(F, t)):
            return cand
    raise AssertionError("no irreducible polynomial")


def ref_pv_neighbors(F, l, m, h):
    """The pv construction written out directly; see graphs.pv_expander."""
    q = F.q
    modulus = ref_find_irreducible(F, l)
    out = []
    for code in range(q**l):
        f = ref_trim(F, [F.element((code // q**i) % q) for i in range(l)])
        powers = [ref_poly_mod_pow(F, f, h**i, modulus) for i in range(m)]
        row = []
        for y_idx in range(q):
            enc = y_idx
            for fi in powers:
                val = ref_poly_eval(F, fi, F.element(y_idx))
                enc = enc * q + sum(c * F.r**j for j, c in enumerate(val))
            row.append(enc)
        out.append(tuple(sorted(row)))
    return tuple(out)


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------

PRIME_POWERS = [(r, k) for r in range(2, 65) if is_prime(r)
                for k in range(1, 7) if r**k <= 64]


@pytest.mark.parametrize("r,k", PRIME_POWERS)
def test_field_tables_match_reference(r, k):
    gf, ref = GF(r, k), RefField(r, k)
    assert tuple(gf.modulus) == ref.modulus
    els = [ref.element(i) for i in range(ref.q)]
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            assert els[gf.add[i][j]] == ref.add(a, b)
            assert els[gf.mul[i][j]] == ref.mul(a, b)
        assert els[gf.neg[i]] == ref.sub(ref.zero, a)
        if i:
            assert els[gf.inv[i]] == ref.inv(a)


@pytest.mark.parametrize("r,k", PRIME_POWERS)
def test_find_irreducible_matches_reference(r, k):
    gf, ref = GF(r, k), RefField(r, k)
    # degree 4 tries divisors of two degrees; over GF(2) the field tables
    # check that already
    for degree in (2, 3, 4) if gf.q in (3, 4, 5) else (2, 3):
        f = find_irreducible(gf, degree)
        assert tuple(ref.element(c) for c in f) == ref_find_irreducible(ref, degree)


@pytest.mark.parametrize("r,k", PRIME_POWERS)
def test_poly_routines_match_reference(r, k):
    # seeded random polynomials (trailing zero codes allowed) and random
    # monic moduli of degree 1..3
    gf, ref = GF(r, k), RefField(r, k)
    rng = Stream(1000 * r + k)

    def as_ref(f):
        return tuple(ref.element(c) for c in f)

    for _ in range(8):
        f = [rng.below(gf.q) for _ in range(rng.below(5))]
        modulus = [rng.below(gf.q) for _ in range(1 + rng.below(3))] + [1]
        e = rng.below(25)
        got = poly_mod_pow(gf, f, e, modulus)
        assert got.shape == (len(modulus) - 1,)
        assert ref_trim(ref, as_ref(got)) == ref_poly_mod_pow(ref, as_ref(f), e, as_ref(modulus))
        assert [ref.element(v) for v in poly_eval(gf, f)] == [
            ref_poly_eval(ref, as_ref(f), y) for y in map(ref.element, range(gf.q))]


@pytest.mark.parametrize("r,k", PRIME_POWERS)
def test_poly_routines_on_stacks_match_reference(r, k):
    # an (N, L) stack of seeded random polynomials goes through each routine
    # in one call and must agree with the reference row by row
    gf, ref = GF(r, k), RefField(r, k)
    rng = Stream(7000 * r + k)
    for width in (1, 3, 5):
        stack = np.array([[rng.below(gf.q) for _ in range(width)] for _ in range(6)])
        modulus = [rng.below(gf.q) for _ in range(1 + rng.below(3))] + [1]
        e = rng.below(25)
        powers, values = poly_mod_pow(gf, stack, e, modulus), poly_eval(gf, stack)
        assert powers.shape == (6, len(modulus) - 1) and values.shape == (6, gf.q)
        m = tuple(map(ref.element, modulus))
        for f, got_pow, got_val in zip(stack.tolist(), powers.tolist(), values.tolist()):
            f = tuple(map(ref.element, f))
            assert ref_trim(ref, map(ref.element, got_pow)) == ref_poly_mod_pow(ref, f, e, m)
            assert [ref.element(v) for v in got_val] == [
                ref_poly_eval(ref, f, y) for y in map(ref.element, range(gf.q))]


@pytest.mark.parametrize("r,k", PRIME_POWERS)
def test_remainder_by_divisor_stack_matches_reference(r, k):
    # one polynomial against a stack of monic divisors of one degree, the
    # irreducible search's use of the remainder routine
    gf, ref = GF(r, k), RefField(r, k)
    rng = Stream(9000 * r + k)
    for t in (1, 2, 3):
        f = [rng.below(gf.q) for _ in range(rng.below(7))]
        divisors = np.array([[rng.below(gf.q) for _ in range(t)] + [1] for _ in range(8)])
        rem = _poly_rem(gf, np.array(f, dtype=np.intp), gf.neg[divisors[:, :-1]])
        assert rem.shape == (8, t)
        for div, got in zip(divisors.tolist(), rem.tolist()):
            assert ref_trim(ref, map(ref.element, got)) == ref_poly_mod(
                ref, tuple(map(ref.element, f)), tuple(map(ref.element, div)))


@pytest.mark.parametrize("r,k,l,m,h", [
    (7, 1, 2, 2, 2), (2, 3, 2, 2, 2), (3, 2, 2, 2, 2), (11, 1, 2, 2, 2),
    (13, 1, 2, 2, 2), (2, 4, 2, 2, 2), (7, 1, 3, 2, 2),
    (2, 2, 3, 2, 3), (5, 1, 2, 3, 2),
    # the GF(17) design certified at order 4, and odd or large h, where the
    # square-and-multiply and the reduction mod E take more steps; l = 1 has
    # constant polynomials
    (17, 1, 2, 2, 2), (3, 1, 3, 3, 3), (2, 1, 5, 3, 2), (5, 1, 2, 2, 3),
    (3, 1, 2, 2, 4), (7, 1, 1, 2, 3),
])
def test_pv_expander_matches_reference(r, k, l, m, h):
    g = pv_expander(GF(r, k), l, m, h)
    assert g.neighbors.tolist() == list(map(list, ref_pv_neighbors(RefField(r, k), l, m, h)))


# ---------------------------------------------------------------------------
# capacity checks on huge exponents
# ---------------------------------------------------------------------------

def test_field_order_capacity_with_huge_degree():
    with pytest.raises(CapacityError, match=r"r\*\*k = 2\*\*3000000 exceeds limit 512"):
        GF(2, 3_000_000)


def test_pv_capacity_with_huge_exponents():
    with pytest.raises(CapacityError, match=r"q\*\*l = 2\*\*3000000 exceeds"):
        pv_expander(GF(2), 3_000_000, 1, 2)
    with pytest.raises(CapacityError, match=r"q\*\*\(m\+1\) = 2\*\*3000001 exceeds"):
        pv_expander(GF(2), 1, 3_000_000, 2)
