"""Exact arithmetic in GF(q) for prime and prime-power q.

Representation
--------------
Inside this module an element of GF(r^k) is an integer code in [0, q):
the base-r number whose digits c0 (least significant) .. c_{k-1} are the
coefficients of its polynomial-basis representative, lowest degree first.
Each ``GF`` instance builds, once and in O(q^2) vectorised work, its q x q
addition and multiplication tables and its negation and inversion maps,
and keeps them as lists indexed by code. A prime field's tables are
arithmetic mod r. An extension field's modulus is the monic irreducible
polynomial of degree k over GF(r) that comes first in the base-r counting
order of its non-leading coefficients, so identical parameters always give
identical arithmetic; it is found, and the tables built, by this module's
polynomial routines running over GF(r). For k = 1 the modulus is the
placeholder ``x``.

Polynomials are lists of codes, lowest degree first, without trailing zero
codes; the zero polynomial is empty. Graph construction calls the
``ipoly_*`` routines on them directly. Element tuples, and polynomials as
tuples of elements, appear only at the public boundary: ``element`` and
``index``, ``GF.add``/``mul``/``pow``/``inv``, the ``poly_*`` functions and
``find_irreducible`` convert on the way in and out.

Field orders are capped (default 512) and irreducibility is decided by
exhaustive trial division, which is plenty at that size and trivially
auditable.
"""

from __future__ import annotations

from itertools import zip_longest

import numpy as np

from .errors import check_power

MAX_FIELD_ORDER = 512

Element = tuple[int, ...]
Poly = tuple[Element, ...]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class GF:
    """The finite field GF(r^k) in polynomial basis over GF(r).

    Parameters
    ----------
    r : prime characteristic.
    k : extension degree (1 for a prime field).
    modulus : optional monic irreducible int-polynomial of degree k over
        GF(r), lowest degree first including the leading 1. When omitted,
        the deterministic default is used.
    """

    def __init__(self, r: int, k: int = 1, modulus: tuple[int, ...] | None = None):
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        q = check_power("field order r**k", r, k, MAX_FIELD_ORDER)
        if not is_prime(r):
            raise ValueError(f"characteristic {r} is not prime")
        self.r, self.k, self.q = r, k, q
        prime = GF(r) if k > 1 else None     # the field the modulus lives over
        if modulus is None:
            modulus = (0, 1) if k == 1 else tuple(c for (c,) in find_irreducible(prime, k))
        else:
            modulus = tuple(_trim([c % r for c in modulus]))
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
            if k > 1 and not _is_irreducible(prime, modulus):
                raise ValueError("modulus is reducible over the prime field")
        self.modulus = modulus
        self.zero: Element = (0,) * k
        self.one: Element = (1,) + (0,) * (k - 1)

        codes = np.arange(q)
        weights = r ** np.arange(k)
        digits = codes[:, None] // weights % r
        self._elements = [tuple(d) for d in digits.tolist()]
        self._neg = (-digits % r @ weights).tolist()
        # scale[c, a]: the code of c a for c in GF(r)
        scale = np.arange(r)[:, None, None] * digits % r @ weights
        times_x = np.array([self.index(_pmod(prime, [0, *d], modulus))
                            for d in self._elements]) if k > 1 else codes
        # Column b = low + c r^j of either table follows from column low:
        # a + b = (a + low) + c x^j and a b = a low + c (a x^j). Each column
        # is built once from an earlier one, so a table costs O(q^2).
        add = np.zeros((q, q), dtype=np.intp)
        add[:, 0] = codes
        for j in range(k):
            w = r**j
            for c in range(1, r):
                plus = codes + ((digits[:, j] + c) % r - digits[:, j]) * w
                add[:, c * w:(c + 1) * w] = plus[add[:, :w]]
        mul = np.zeros((q, q), dtype=np.intp)
        power = codes                               # a x^j for every a
        for j in range(k):
            w = r**j
            for c in range(1, r):
                mul[:, c * w:(c + 1) * w] = add[mul[:, :w], scale[c, power][:, None]]
            power = times_x[power]
        self._add = add.tolist()
        self._mul = mul.tolist()
        self._inv = np.argmax(mul == 1, axis=1).tolist()   # entry 0 is unused

    def __repr__(self):
        return f"GF({self.r}^{self.k})" if self.k > 1 else f"GF({self.r})"

    def __eq__(self, other):
        return (isinstance(other, GF)
                and (self.r, self.k, self.modulus) == (other.r, other.k, other.modulus))

    def __hash__(self):
        return hash((self.r, self.k, self.modulus))

    # -- element encoding ---------------------------------------------------

    def element(self, index: int) -> Element:
        """Element with base-r digit expansion ``index`` (c0 least significant)."""
        if not 0 <= index < self.q:
            raise ValueError(f"element index {index} outside [0, {self.q})")
        return self._elements[index]

    def index(self, a) -> int:
        """Inverse of :meth:`element`."""
        out = 0
        for c in reversed(a):
            out = out * self.r + c
        return out

    def elements(self):
        return iter(self._elements)

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        return self._elements[self._add[self.index(a)][self.index(b)]]

    def sub(self, a: Element, b: Element) -> Element:
        return self._elements[self._add[self.index(a)][self._neg[self.index(b)]]]

    def neg(self, a: Element) -> Element:
        return self._elements[self._neg[self.index(a)]]

    def mul(self, a: Element, b: Element) -> Element:
        return self._elements[self._mul[self.index(a)][self.index(b)]]

    def pow(self, a: Element, e: int) -> Element:
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        mul = self._mul
        out, base = 1, self.index(a)
        while e:
            if e & 1:
                out = mul[out][base]
            base = mul[base][base]
            e >>= 1
        return self._elements[out]

    def inv(self, a: Element) -> Element:
        code = self.index(a)
        if code == 0:
            raise ValueError("inverse of zero")
        return self._elements[self._inv[code]]


# ---------------------------------------------------------------------------
# polynomials over GF(q) as lists of element codes
# ---------------------------------------------------------------------------

def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(gf: GF, f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    add, mul = gf._add, gf._mul
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            row = mul[a]
            for j, b in enumerate(g):
                out[i + j] = add[out[i + j]][row[b]]
    return _trim(out)


def _pmod(gf: GF, f: list[int], m: list[int]) -> list[int]:
    """Remainder of f modulo m; m must have a nonzero leading code."""
    add, mul = gf._add, gf._mul
    lead_inv = gf._inv[m[-1]]
    work = list(f)
    dm = len(m) - 1
    while len(work) > dm:
        lead = work.pop()
        if lead:
            row = mul[gf._neg[mul[lead][lead_inv]]]     # -(lead / m_dm) m_i
            shift = len(work) - dm
            for i in range(dm):
                work[shift + i] = add[work[shift + i]][row[m[i]]]
    return _trim(work)


def ipoly_mod_pow(gf: GF, f: list[int], e: int, modulus: list[int]) -> list[int]:
    """f**e reduced modulo ``modulus``, square-and-multiply, on code lists.

    The modulus must be monic of degree >= 1; the exponent may be any
    nonnegative integer (reduction happens at every step, so towers like
    h**i stay cheap). ``f`` may carry trailing zero codes.
    """
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if len(modulus) < 2 or modulus[-1] != 1:
        raise ValueError("modulus must be monic of degree >= 1")
    out = [1]
    base = _pmod(gf, f, modulus)
    while e:
        if e & 1:
            out = _pmod(gf, _pmul(gf, out, base), modulus)
        e >>= 1
        if e:
            base = _pmod(gf, _pmul(gf, base, base), modulus)
    return out


def ipoly_values(gf: GF, f: list[int]) -> list[int]:
    """Codes of f(y) for every element code y = 0 .. q-1 (Horner at all points)."""
    acc = [0] * gf.q
    for c in reversed(f):
        add_c = gf._add[c]
        acc = [add_c[row[a]] for row, a in zip(gf._mul, acc)]
    return acc


def _monic_polys(q: int, degree: int):
    """Monic degree-``degree`` code polynomials, base-q counting order."""
    for code in range(q**degree):
        coeffs = []
        for _ in range(degree):
            coeffs.append(code % q)
            code //= q
        yield coeffs + [1]


def _is_irreducible(gf: GF, f: list[int]) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(f)//2."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    return all(_pmod(gf, f, div) for t in range(1, deg // 2 + 1)
               for div in _monic_polys(gf.q, t))


# ---------------------------------------------------------------------------
# tuple polynomials: the public boundary
# ---------------------------------------------------------------------------

def _codes(gf: GF, f: Poly) -> list[int]:
    return [gf.index(c) for c in f]


def _poly(gf: GF, codes: list[int]) -> Poly:
    return tuple(gf.element(c) for c in codes)


def poly_trim(gf: GF, coeffs) -> Poly:
    return _poly(gf, _trim(_codes(gf, coeffs)))


def poly_from_indices(gf: GF, indices) -> Poly:
    return _poly(gf, _trim(list(indices)))


def poly_add(gf: GF, f: Poly, g: Poly) -> Poly:
    pairs = zip_longest(_codes(gf, f), _codes(gf, g), fillvalue=0)
    return _poly(gf, _trim([gf._add[a][b] for a, b in pairs]))


def poly_mul(gf: GF, f: Poly, g: Poly) -> Poly:
    return _poly(gf, _pmul(gf, _codes(gf, f), _codes(gf, g)))


def poly_mod(gf: GF, f: Poly, m: Poly) -> Poly:
    """Remainder of f modulo m (any nonzero m; leading coefficient inverted)."""
    if not m or m[-1] == gf.zero:
        raise ValueError("modulus is zero or has a zero leading coefficient")
    return _poly(gf, _pmod(gf, _codes(gf, f), _codes(gf, m)))


def poly_eval(gf: GF, f: Poly, y: Element) -> Element:
    """Horner evaluation of f at y."""
    return gf.element(ipoly_values(gf, _codes(gf, f))[gf.index(y)])


def poly_mod_pow(gf: GF, f: Poly, e: int, modulus: Poly) -> Poly:
    """f**e reduced modulo ``modulus``; see :func:`ipoly_mod_pow`."""
    return _poly(gf, ipoly_mod_pow(gf, _codes(gf, f), e, _codes(gf, modulus)))


def poly_is_irreducible(gf: GF, f: Poly) -> bool:
    return _is_irreducible(gf, _codes(gf, f))


def find_irreducible(gf: GF, degree: int, limit: int = 1 << 20) -> Poly:
    """Deterministic monic irreducible polynomial of the given degree.

    Candidates are scanned in base-q counting order of the non-leading
    coefficients, so identical inputs always give the identical modulus.
    Raises CapacityError when the candidate space exceeds ``limit``.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    check_power("irreducible search space q**degree", gf.q, degree, limit)
    for cand in _monic_polys(gf.q, degree):
        if _is_irreducible(gf, cand):
            return _poly(gf, cand)
    raise AssertionError(f"no irreducible polynomial of degree {degree} over {gf!r}")
