"""Exact arithmetic in GF(q) for prime and prime-power q, on integer codes.

Representation
--------------
An element of GF(r^k) is an integer code in [0, q): the base-r number
whose digits c0 (least significant) .. c_{k-1} are the coefficients of its
polynomial-basis representative, lowest degree first. Codes are the whole
API. Each ``GF`` instance builds, once and in O(q^2) vectorised work, four
public read-only numpy tables indexed by code: ``add[a, b]``,
``mul[a, b]``, ``neg[a]`` and ``inv[a]`` (``inv[0]`` is a placeholder 0).
A prime field's tables are arithmetic mod r, by formula: ``add`` is
(a + b) mod r and ``mul`` is a b mod r, one broadcast each. An extension
field's ``modulus`` is the monic irreducible polynomial of degree k over
GF(r) that comes first in the base-r counting order of its non-leading
coefficients, so identical parameters always give identical arithmetic;
it is found, and the tables built column by column, by this module's
polynomial routines running over GF(r). For k = 1 the modulus is the
placeholder ``x``.

A polynomial over GF(q) is an integer array of codes, lowest degree first
along the last axis. It has a fixed width and is never trimmed, so the
zero polynomial is all zeros. Other axes broadcast: one call works on a
stack of polynomials at once. ``poly_mod_pow`` raises polynomials to a
power modulo a monic one, ``poly_eval`` evaluates them at all q field
elements, and ``find_irreducible`` returns the deterministic monic
irreducible polynomial of a given degree.

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
        self.modulus = [0, 1]
        if k == 1:
            # a prime field's tables are arithmetic mod r, one broadcast each
            add = (codes[:, None] + codes) % r
            mul = codes[:, None] * codes % r
            self.neg = -codes % r
        else:
            weights = r ** np.arange(k)
            digits = codes[:, None] // weights % r
            # scale[c, a]: the code of c a for c in GF(r)
            scale = np.arange(r)[:, None, None] * digits % r @ weights
            prime = GF(r)                           # the field the modulus lives over
            self.modulus = find_irreducible(prime, k)
            shifted = np.zeros((q, k + 1), dtype=np.intp)
            shifted[:, 1:] = digits
            # times_x[a]: the code of x a
            times_x = _poly_rem(prime, shifted, prime.neg[self.modulus[:-1]]) @ weights
            # Column b = low + c r^j of either table follows from column low:
            # a + b = (a + low) + c x^j and a b = a low + c (a x^j). Each
            # column is built once from an earlier one, so a table costs O(q^2).
            add = np.zeros((q, q), dtype=np.intp)
            add[:, 0] = codes
            for j in range(k):
                w = r**j
                for c in range(1, r):
                    plus = codes + ((digits[:, j] + c) % r - digits[:, j]) * w
                    add[:, c * w:(c + 1) * w] = plus[add[:, :w]]
            mul = np.zeros((q, q), dtype=np.intp)
            power = codes                           # a x^j for every a
            for j in range(k):
                w = r**j
                for c in range(1, r):
                    mul[:, c * w:(c + 1) * w] = add[mul[:, :w], scale[c, power][:, None]]
                power = times_x[power]
            self.neg = -digits % r @ weights
        self.add, self.mul = add, mul
        self.inv = np.argmax(mul == 1, axis=1)
        for table in (add, mul, self.neg, self.inv):
            table.flags.writeable = False

    def __repr__(self):
        return f"GF({self.r}^{self.k})" if self.k > 1 else f"GF({self.r})"


# ---------------------------------------------------------------------------
# polynomials over GF(q) as fixed-width code arrays
# ---------------------------------------------------------------------------

def _poly_rem(gf: GF, f: np.ndarray, neg_low: np.ndarray) -> np.ndarray:
    """Remainder of f modulo the monic m of degree t whose lower codes
    m_0 .. m_{t-1} negate to ``neg_low`` (last axis t >= 1), width t.

    Leading axes of f and neg_low broadcast: many polynomials by one
    modulus, or one polynomial by many divisors.
    """
    t, width = neg_low.shape[-1], f.shape[-1]
    work = f + np.zeros_like(neg_low[..., :1])      # a copy in the broadcast shape
    if width < t:
        return np.concatenate((work, np.zeros(work.shape[:-1] + (t - width,), np.intp)), -1)
    add, mul = gf.add, gf.mul
    # x**t = -(m_0 + ... + m_{t-1} x**(t-1)) mod m, so the code c at
    # degree k >= t adds c neg_low to the t codes from degree k - t up
    for k in range(width - 1, t - 1, -1):
        work[..., k - t:k] = add[work[..., k - t:k], mul[work[..., k:k + 1], neg_low]]
    return work[..., :t]


def _mul_mod(gf: GF, a: np.ndarray, b: np.ndarray, neg_low: np.ndarray) -> np.ndarray:
    """a b modulo the monic m of ``_poly_rem``, for a and b of width t."""
    add, mul = gf.add, gf.mul
    t = a.shape[-1]
    prod = np.zeros(a.shape[:-1] + (2 * t - 1,), dtype=np.intp)
    prod[..., :t] = mul[a[..., :1], b]
    for i in range(1, t):
        prod[..., i:i + t] = add[prod[..., i:i + t], mul[a[..., i:i + 1], b]]
    return _poly_rem(gf, prod, neg_low)


def poly_mod_pow(gf: GF, f, e: int, modulus) -> np.ndarray:
    """f**e reduced modulo ``modulus``, by square-and-multiply.

    ``f`` is a code array whose leading axes are a stack of polynomials;
    the result has their shape with the last axis deg(modulus) wide. The
    modulus must be monic of degree >= 1; the exponent may be any
    nonnegative integer (reduction happens at every step, so towers like
    h**i stay cheap).
    """
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if len(modulus) < 2 or modulus[-1] != 1:
        raise ValueError("modulus must be monic of degree >= 1")
    neg_low = gf.neg[np.asarray(modulus[:-1], dtype=np.intp)]
    out = _poly_rem(gf, np.asarray(f, dtype=np.intp), neg_low)
    if e == 0:
        out = np.zeros_like(out)
        out[..., 0] = 1
        return out
    base = out
    for bit in bin(e)[3:]:                          # the bits after the first set one
        out = _mul_mod(gf, out, out, neg_low)
        if bit == "1":
            out = _mul_mod(gf, out, base, neg_low)
    return out


def poly_eval(gf: GF, f) -> np.ndarray:
    """Codes of f(y) at every element code y = 0 .. q-1, by Horner's rule:
    the last axis of f, its coefficients, becomes a last axis of q values."""
    f = np.asarray(f, dtype=np.intp)
    add, mul, ys = gf.add, gf.mul, np.arange(gf.q)
    acc = np.zeros(f.shape[:-1] + (gf.q,), dtype=np.intp)
    if f.shape[-1]:
        acc[...] = f[..., -1:]
    for c in range(f.shape[-1] - 2, -1, -1):
        acc = add[mul[acc, ys], f[..., c:c + 1]]
    return acc


def find_irreducible(gf: GF, degree: int, limit: int = 1 << 20) -> list[int]:
    """Deterministic monic irreducible polynomial of the given degree.

    Candidates are scanned in base-q counting order of the non-leading
    coefficients, so identical inputs always give the identical modulus.
    They are tested q at a time, one value of the upper coefficients with
    every constant term, by trial division against all monic divisors of
    each degree 1 .. degree//2 at once. Raises CapacityError when the
    candidate space exceeds ``limit``.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    check_power("irreducible search space q**degree", gf.q, degree, limit)
    q = gf.q
    # the negated lower codes of every monic divisor of degree t, counting order
    divisors = [gf.neg[np.arange(q**t)[:, None] // q ** np.arange(t) % q]
                for t in range(1, degree // 2 + 1)]
    weights = q ** np.arange(degree - 1)
    g = np.zeros(degree + 1, dtype=np.intp)
    g[-1] = 1
    for upper in range(q ** (degree - 1)):
        # the q candidates c + g, c = 0 .. q-1, where g has these upper codes
        # and constant term 0; rem(c + g) = c + rem(g), so a divisor divides
        # c + g exactly when rem(g) is the constant -c
        g[1:-1] = upper // weights % q
        ok = np.ones(q, dtype=bool)
        for neg_low in divisors:
            rem = _poly_rem(gf, g, neg_low)
            ok[gf.neg[rem[~rem[:, 1:].any(axis=1), 0]]] = False
            if not ok.any():
                break
        else:
            return [int(ok.argmax()), *g[1:].tolist()]
    raise AssertionError(f"no irreducible polynomial of degree {degree} over {gf!r}")
