"""Exact arithmetic in GF(q) for prime and prime-power q, on integer codes.

Representation
--------------
An element of GF(r^k) is an integer code in [0, q): the base-r number
whose digits c0 (least significant) .. c_{k-1} are the coefficients of its
polynomial-basis representative, lowest degree first. Codes are the whole
API. Each ``GF`` instance builds, once and in O(q^2) vectorised work, four
public tables indexed by code: ``add[a][b]``, ``mul[a][b]``, ``neg[a]`` and
``inv[a]`` (``inv[0]`` is a placeholder 0). A prime field's tables are
arithmetic mod r. An extension field's ``modulus`` is the monic irreducible
polynomial of degree k over GF(r) that comes first in the base-r counting
order of its non-leading coefficients, so identical parameters always give
identical arithmetic; it is found, and the tables built, by this module's
polynomial routines running over GF(r). For k = 1 the modulus is the
placeholder ``x``.

Polynomials over GF(q) are lists of codes, lowest degree first, without
trailing zero codes; the zero polynomial is empty. ``poly_mod_pow`` raises
a polynomial to a power modulo a monic one, ``poly_eval`` evaluates one at
all q field elements, and ``find_irreducible`` returns the deterministic
monic irreducible polynomial of a given degree.

Field orders are capped (default 512) and irreducibility is decided by
exhaustive trial division, which is plenty at that size and trivially
auditable.
"""

from __future__ import annotations

import numpy as np

from .errors import check_power

MAX_FIELD_ORDER = 512


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


class GF:
    """The finite field GF(r^k) in polynomial basis over GF(r).

    Parameters
    ----------
    r : prime characteristic.
    k : extension degree (1 for a prime field).
    """

    def __init__(self, r: int, k: int = 1):
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        q = check_power("field order r**k", r, k, MAX_FIELD_ORDER)
        if not is_prime(r):
            raise ValueError(f"characteristic {r} is not prime")
        self.r, self.k, self.q = r, k, q
        codes = np.arange(q)
        weights = r ** np.arange(k)
        digits = codes[:, None] // weights % r
        # scale[c, a]: the code of c a for c in GF(r)
        scale = np.arange(r)[:, None, None] * digits % r @ weights
        self.modulus = [0, 1]
        times_x = codes                             # times_x[a]: the code of x a
        if k > 1:
            prime = GF(r)                           # the field the modulus lives over
            self.modulus = find_irreducible(prime, k)
            shifted = (_pmod(prime, [0, *d], self.modulus) for d in digits.tolist())
            times_x = np.array([sum(c * r**i for i, c in enumerate(f)) for f in shifted])
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
        self.add: list[list[int]] = add.tolist()
        self.mul: list[list[int]] = mul.tolist()
        self.neg: list[int] = (-digits % r @ weights).tolist()
        self.inv: list[int] = np.argmax(mul == 1, axis=1).tolist()

    def __repr__(self):
        return f"GF({self.r}^{self.k})" if self.k > 1 else f"GF({self.r})"


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
    add, mul = gf.add, gf.mul
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            row = mul[a]
            for j, b in enumerate(g):
                out[i + j] = add[out[i + j]][row[b]]
    return _trim(out)


def _pmod(gf: GF, f: list[int], m: list[int]) -> list[int]:
    """Remainder of f modulo m; m must have a nonzero leading code."""
    add, mul = gf.add, gf.mul
    lead_inv = gf.inv[m[-1]]
    work = list(f)
    dm = len(m) - 1
    while len(work) > dm:
        lead = work.pop()
        if lead:
            row = mul[gf.neg[mul[lead][lead_inv]]]      # -(lead / m_dm) m_i
            shift = len(work) - dm
            for i in range(dm):
                work[shift + i] = add[work[shift + i]][row[m[i]]]
    return _trim(work)


def poly_mod_pow(gf: GF, f: list[int], e: int, modulus: list[int]) -> list[int]:
    """f**e reduced modulo ``modulus``, by square-and-multiply.

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


def poly_eval(gf: GF, f: list[int]) -> list[int]:
    """Codes of f(y) for every element code y = 0 .. q-1 (Horner at all points)."""
    acc = [0] * gf.q
    for c in reversed(f):
        add_c = gf.add[c]
        acc = [add_c[row[a]] for row, a in zip(gf.mul, acc)]
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
    return all(_pmod(gf, f, div) for t in range(1, (len(f) - 1) // 2 + 1)
               for div in _monic_polys(gf.q, t))


def find_irreducible(gf: GF, degree: int, limit: int = 1 << 20) -> list[int]:
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
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {degree} over {gf!r}")
