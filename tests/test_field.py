"""Field arithmetic: axioms on full tables, pinned moduli, error paths."""

import random
import tracemalloc

import pytest

from crcodes import field as field_module
from crcodes.field import (
    GF,
    Field,
    IncompatibleModulusTable,
    NotPrime,
    OrderTooLarge,
    ReducibleModulus,
    _from_base,
    default_modulus,
    factor_prime_power,
)
from crcodes.matio import parse_matrix

SMALL_ORDERS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)


def test_factor_prime_power():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(16384) == (2, 14)
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(NotPrime):
            factor_prime_power(bad)


def test_constructor_rejections():
    with pytest.raises(NotPrime):
        Field(6)
    with pytest.raises(OrderTooLarge):
        GF(2**15)
    with pytest.raises(ReducibleModulus):
        Field(2, 2, (1, 0, 1))  # x^2 + 1 = (x + 1)^2 over GF(2)
    with pytest.raises(ReducibleModulus):
        Field(2, 2, (1, 1, 1, 0))  # not monic of degree 2
    with pytest.raises(ValueError):
        Field(3, 0)


def test_order_is_checked_before_it_is_factored(monkeypatch):
    # trial division of an order far above the ceiling would not end
    def refuse(n):
        raise AssertionError(f"trial division of {n}")

    monkeypatch.setattr(field_module, "_prime_factors", refuse)
    for make in (lambda: GF(2**61 - 1), lambda: Field(2**61 - 1), lambda: GF(20000)):
        with pytest.raises(OrderTooLarge):
            make()


def test_pinned_default_moduli():
    # Frozen so encodings (and every file on disk) stay reproducible.
    assert GF(4).modulus == (1, 1, 1)
    assert GF(8).modulus == (1, 1, 0, 1)
    assert GF(9).modulus == (2, 2, 1)
    assert GF(16).modulus == (1, 1, 0, 0, 1)
    # Outside the pinned table the search is deterministic: smallest
    # encoding wins, where the encoding of a monic polynomial is
    # sum(c_i * p^i) over the lower coefficients.
    assert default_modulus(7, 3) == min(
        _all_irreducible(7, 3),
        key=lambda t: sum(c * 7**i for i, c in enumerate(t[:-1])),
    )


def _all_irreducible(p, r):
    """Brute-force oracle: all monic irreducible degree-r moduli, as the
    low-first coefficient tuples, checked by root-free trial division."""
    from itertools import product

    from crcodes.field import _poly_is_irreducible

    out = []
    for lower in product(range(p), repeat=r):
        coeffs = tuple(lower) + (1,)
        if _poly_is_irreducible(coeffs, p):
            out.append(coeffs)
    return out


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms(q):
    f = GF(q)
    els = f.elements()
    assert els == list(range(q))
    rng = random.Random(q)
    triples = [tuple(rng.choice(els) for _ in range(3)) for _ in range(200)]
    for a, b, c in triples:
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(a, a) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert f._raw_pow(a, q - 1) == 1
            s = 3 % q if 3 % q else 1
            assert f.mul(f.mul(s, a), f.inv(a)) == s
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("q", (4, 8, 9, 16, 27))
def test_frobenius_is_additive(q):
    f = GF(q)
    p = f.p
    for a in f.elements():
        for b in f.elements():
            frobenius = f._raw_pow(f.add(a, b), p)
            assert frobenius == f.add(f._raw_pow(a, p), f._raw_pow(b, p))


def test_digit_round_trip():
    f = GF(27)
    for a in f.elements():
        d = f.digits(a)
        assert len(d) == 3
        assert _from_base(d, 3) == a
    assert GF(5).digits(3) == (3,)


def test_embed_table_gf2_into_gf4():
    f2, f4 = GF(2), GF(4)
    t = f2.embed_table(f4)
    assert t == [0, 1]


def test_embed_table_gf4_into_gf16():
    f4, f16 = GF(4), GF(16)
    t = f4.embed_table(f16)
    assert t[0] == 0 and t[1] == 1
    assert len(set(t)) == 4
    # Field homomorphism on every pair.
    for a in range(4):
        for b in range(4):
            assert t[f4.add(a, b)] == f16.add(t[a], t[b])
            assert t[f4.mul(a, b)] == f16.mul(t[a], t[b])


def test_embed_table_rejects_bad_pairs():
    with pytest.raises(IncompatibleModulusTable):
        GF(4).embed_table(GF(9))
    with pytest.raises(IncompatibleModulusTable):
        GF(4).embed_table(GF(8))


def test_field_identity_and_cache():
    assert GF(9) is GF(9)
    # one object per order and reduced modulus, however the modulus is given
    assert GF(9, (2, 2, 1)) is GF(9)
    assert GF(9, [5, 5, 1]) is GF(9)
    assert parse_matrix("q=9 poly=2,2,1\nrows=1 cols=1\n1\n").field is GF(9)
    assert GF(9, (1, 0, 1)) is not GF(9)
    assert GF(9, (1, 0, 1)) == Field(3, 2, (1, 0, 1))
    assert GF(9) == Field(3, 2)
    assert GF(9) != GF(3)
    assert repr(GF(3)) == "GF(3)"
    assert "poly" in repr(GF(4))


# The largest fields of each kind under the ceiling: characteristic 2, odd
# extensions of small and of large characteristic, and a prime field.
LARGE_ORDERS = (2**14, 3**8, 5**6, 127**2, 16381)


@pytest.mark.parametrize("q", LARGE_ORDERS)
def test_large_fields_negate_and_encode_every_element(q):
    f = GF(q)
    p, r = f.p, f.r
    for a in range(q):
        assert f.add(a, f.neg(a)) == 0
        d = f.digits(a)
        assert list(d) == _poly(a, p, r)
        assert _from_base(d, p) == a
    rng = random.Random(q)
    for _ in range(2000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert f.sub(a, b) == f.add(a, f.neg(b))
        assert f.sub(a, 0) == a and f.sub(a, a) == 0


def test_largest_binary_field_retains_only_its_log_tables():
    # the log and antilog tables hold about 1.3 MB; per-element digit or
    # negation tables would add as much again or more
    tracemalloc.start()
    try:
        f = Field(2, 14)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.q == 2**14
    assert retained < 2 * 2**20


# -- reference oracle: schoolbook arithmetic, independent of the tables ------

PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _check_against_integers(f, p, pairs):
    for a, b in pairs:
        assert f.add(a, b) == (a + b) % p
        assert f.sub(a, b) == (a - b) % p
        assert f.mul(a, b) == a * b % p
    for a in {a for pair in pairs for a in pair}:
        assert f.neg(a) == -a % p
        if a:
            assert f.inv(a) == pow(a, -1, p)
            for e in (0, 1, 2, p - 1, p, 3 * p + 2):
                assert f._raw_pow(a, e) == pow(a, e, p), (a, e)


@pytest.mark.parametrize("p", PRIMES_TO_31)
def test_prime_fields_against_integers_mod_p(p):
    f = GF(p)
    pairs = [(a, b) for a in range(p) for b in range(p)]
    _check_against_integers(f, p, pairs)


def test_largest_prime_field_against_integers_mod_p():
    p = 16381
    f = GF(p)
    rng = random.Random(p)
    pairs = [(rng.randrange(p), rng.randrange(p)) for _ in range(2000)]
    _check_against_integers(f, p, pairs + [(0, p - 1), (p - 1, p - 1), (1, 0)])


# The pinned moduli the encodings depend on, low-order first.
PINNED = {
    4: (2, (1, 1, 1)),
    8: (2, (1, 1, 0, 1)),
    9: (3, (2, 2, 1)),
    16: (2, (1, 1, 0, 0, 1)),
    25: (5, (2, 4, 1)),
    27: (3, (1, 2, 0, 1)),
    32: (2, (1, 0, 1, 0, 0, 1)),
}


def _poly(e, p, r):
    out = []
    for _ in range(r):
        e, d = divmod(e, p)
        out.append(d)
    return out


def _unpoly(c, p):
    return sum(d * p**i for i, d in enumerate(c))


def _schoolbook_mul(a, b, p, modulus):
    r = len(modulus) - 1
    prod = [0] * (2 * r - 1)
    for i, x in enumerate(_poly(a, p, r)):
        for j, y in enumerate(_poly(b, p, r)):
            prod[i + j] += x * y
    for top in range(2 * r - 2, r - 1, -1):
        lead = prod[top]
        for i, c in enumerate(modulus):
            prod[top - r + i] -= lead * c
    return _unpoly([c % p for c in prod[:r]], p)


@pytest.mark.parametrize("q", sorted(PINNED))
def test_extension_fields_against_schoolbook_polynomials(q):
    p, modulus = PINNED[q]
    r = len(modulus) - 1
    f = GF(q)
    assert f.modulus == modulus
    digits = {a: _poly(a, p, r) for a in range(q)}
    for a in range(q):
        assert list(f.digits(a)) == digits[a]
        assert f.neg(a) == _unpoly([-d % p for d in digits[a]], p)
        for b in range(q):
            pair = zip(digits[a], digits[b])
            assert f.add(a, b) == _unpoly([(x + y) % p for x, y in pair], p)
            pair = zip(digits[a], digits[b])
            assert f.sub(a, b) == _unpoly([(x - y) % p for x, y in pair], p)
            assert f.mul(a, b) == _schoolbook_mul(a, b, p, modulus)
    for a in range(1, q):
        inverse = [b for b in range(1, q) if _schoolbook_mul(a, b, p, modulus) == 1]
        assert [f.inv(a)] == inverse
        power = 1
        for e in range(2 * q + 1):
            assert f._raw_pow(a, e) == power, (a, e)
            power = _schoolbook_mul(power, a, p, modulus)
