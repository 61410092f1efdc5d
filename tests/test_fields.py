import pytest

from expander_cs import GF, find_irreducible, poly_eval, poly_mod_pow
from expander_cs.errors import CapacityError
from expander_cs.rng import Stream


def power(gf, a, e):
    """a**e by square-and-multiply on the mul table."""
    out = 1
    while e:
        if e & 1:
            out = gf.mul[out][a]
        a = gf.mul[a][a]
        e >>= 1
    return out


def test_prime_field_mul_inv():
    gf = GF(7)
    assert gf.mul[3][5] == 1            # 15 mod 7
    assert gf.inv[3] == 5               # 3 * 5 = 1 mod 7


def test_extension_field_square():
    gf = GF(3, 2)
    assert gf.modulus == [1, 0, 1]      # x^2 + 1
    x = 3                               # digits (0, 1)
    assert gf.mul[x][x] == 2            # x^2 = -1 = 2 mod (x^2 + 1)


@pytest.mark.parametrize("r,k", [(2, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (2, 9)])
def test_inverse_and_frobenius_exhaustive(r, k):
    gf = GF(r, k)
    for a in range(gf.q):
        assert power(gf, a, gf.q) == a
        if a:
            assert gf.mul[a][gf.inv[a]] == 1


def test_add_mul_commute_small():
    gf = GF(2, 3)
    for a in range(gf.q):
        for b in range(gf.q):
            assert gf.add[a][b] == gf.add[b][a]
            assert gf.mul[a][b] == gf.mul[b][a]


def test_element_index_roundtrip():
    # code i is sum_j c_j x^j for its base-r digits c_j; x^j has code r**j
    gf = GF(3, 2)
    for i in range(gf.q):
        acc = 0
        for j in range(gf.k):
            acc = gf.add[acc][gf.mul[i // gf.r**j % gf.r][gf.r**j]]
        assert acc == i


def test_find_irreducible_known_values():
    assert GF(3, 2).modulus == [1, 0, 1]        # x^2 + 1
    assert GF(2, 2).modulus == [1, 1, 1]        # the unique quadratic
    assert GF(2, 1).modulus == [0, 1]           # x, placeholder for k=1
    assert find_irreducible(GF(2), 1) == [0, 1]


def test_find_irreducible_has_no_roots():
    for r, k in [(2, 2), (2, 3), (3, 2), (5, 2), (2, 5)]:
        gf = GF(r)
        f = find_irreducible(gf, k)
        assert len(f) == k + 1 and f[-1] == 1
        assert 0 not in poly_eval(gf, f)


def test_find_irreducible_over_extension_field():
    # a quadratic without roots is irreducible
    gf9 = GF(3, 2)
    f = find_irreducible(gf9, 2)
    assert len(f) == 3 and f[-1] == 1
    assert 0 not in poly_eval(gf9, f)


def test_find_irreducible_capacity():
    with pytest.raises(CapacityError):
        find_irreducible(GF(2, 8), 10, limit=1000)


def test_field_order_capacity():
    with pytest.raises(CapacityError):
        GF(2, 10)


def test_poly_eval_examples():
    gf = GF(3)
    assert poly_eval(gf, [1, 1])[2] == 0        # x + 1 at 2: 2 + 1 = 0 mod 3
    assert poly_eval(gf, [2]).tolist() == [2, 2, 2]     # constant
    assert poly_eval(gf, []).tolist() == [0, 0, 0]      # zero polynomial


def test_poly_mod_pow_examples():
    gf = GF(3)
    x, modulus = [0, 1], [1, 0, 1]              # x^2 + 1
    assert poly_mod_pow(gf, x, 2, modulus).tolist() == [2, 0]
    f = [2, 1]
    assert poly_mod_pow(gf, f, 1, modulus).tolist() == f   # identity exponent
    assert poly_mod_pow(gf, [1], 12345, modulus).tolist() == [1, 0]


def test_poly_mod_pow_rejects_bad_modulus():
    gf = GF(3)
    with pytest.raises(ValueError):
        poly_mod_pow(gf, [0, 1], 2, [2])        # constant
    with pytest.raises(ValueError):
        poly_mod_pow(gf, [0, 1], 2, [1, 2])     # non-monic


def test_poly_mod_pow_exponent_composition():
    gf = GF(5)
    modulus = find_irreducible(gf, 3)
    rng = Stream(9)
    for _ in range(25):
        f = [rng.below(5) for _ in range(3)]
        e1, e2 = 1 + rng.below(20), 1 + rng.below(20)
        once = poly_mod_pow(gf, f, e1 * e2, modulus)
        twice = poly_mod_pow(gf, poly_mod_pow(gf, f, e1, modulus), e2, modulus)
        assert once.tolist() == twice.tolist()


def test_characteristic_must_be_prime():
    with pytest.raises(ValueError):
        GF(4)                              # not prime
