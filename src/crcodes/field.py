"""Exact arithmetic in GF(p^r) for prime powers q = p^r up to 2**14.

Element encoding: the integer e in 0..q-1 stands for the polynomial whose
coefficient of x^i is the i-th base-p digit of e, least significant digit
first.  0 and 1 therefore always encode the additive and multiplicative
identities; for r = 1 the encoding is the residue itself.

A field, prime or extension, is its modulus and two tables built once
(O(q) memory): the log table and the antilog table, stored twice over,
so that multiplication, inversion and negation are one lookup each.
Negation is multiplication by -1, whose log is 0 when p = 2 and
(q - 1)/2 otherwise.  Addition is (a + b) mod p when r = 1, XOR in
characteristic 2 and digitwise mod p otherwise.  The base-p codec
(`_base_digits`, `_from_base`) and the digitwise adder (`_add_digitwise`)
here are the only copies; element digits are read with the codec, and
regularity.py encodes and adds syndromes with them too.

Fields are immutable after construction.  ``GF(q, modulus)`` is the way
to get a field of order q: it keeps one instance per order and reduced
modulus, so equal fields are identical objects.
"""

from __future__ import annotations

from functools import cache

ORDER_CEILING = 1 << 14


class NotPrime(ValueError):
    pass


class OrderTooLarge(ValueError):
    pass


class ReducibleModulus(ValueError):
    pass


class IncompatibleModulusTable(ValueError):
    """No subfield embedding is available between the pinned moduli."""


# Pinned default moduli, one per (p, r); coefficient lists are low-order
# first and monic.  Every extension field the test corpus touches is listed
# here.  Pairs not in the table fall back to the irreducible polynomial
# with the smallest integer encoding, found by deterministic search, so
# element encodings are reproducible run to run either way.
_DEFAULT_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),                    # 1 + x + x^2
    (2, 3): (1, 1, 0, 1),                 # 1 + x + x^3
    (2, 4): (1, 1, 0, 0, 1),              # 1 + x + x^4
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 2): (2, 2, 1),                    # 2 + 2x + x^2
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (7, 2): (3, 6, 1),
    (11, 2): (2, 7, 1),
    (13, 2): (2, 12, 1),
}


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, ascending, by trial division;
    none for n <= 1."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num by den over GF(p); coefficients low-order first."""
    num = _poly_trim(list(num))
    dd = len(den) - 1
    lead_inv = pow(den[-1], p - 2, p)
    while len(num) - 1 >= dd:
        offset = len(num) - 1 - dd
        factor = (num[-1] * lead_inv) % p
        for i, c in enumerate(den):
            num[offset + i] = (num[offset + i] - factor * c) % p
        _poly_trim(num)
    return num


def _base_digits(e: int, p: int, length: int) -> tuple[int, ...]:
    """The lowest `length` base-p digits of e, least significant first."""
    out = []
    for _ in range(length):
        e, d = divmod(e, p)
        out.append(d)
    return tuple(out)


def _from_base(digits, radix: int) -> int:
    """The integer whose base-`radix` digits, least significant first, are
    the sequence `digits`; the inverse of _base_digits."""
    e = 0
    for d in reversed(digits):
        e = e * radix + d
    return e


def _add_digitwise(x: int, y: int, p: int) -> int:
    """Digitwise mod-p sum of two base-p encodings."""
    acc = 0
    mult = 1
    while x or y:
        acc += ((x + y) % p) * mult
        x //= p
        y //= p
        mult *= p
    return acc


def _poly_is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg//2."""
    deg = len(coeffs) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        # iterate all monic polynomials of degree d over GF(p)
        for code in range(p**d):
            den = [*_base_digits(code, p, d), 1]
            if not _poly_trim(_poly_mod(list(coeffs), den, p)):
                return False
    return True


@cache  # GF resolves the default modulus on every call
def _search_default_modulus(p: int, r: int) -> tuple[int, ...]:
    # smallest encoding wins; encoding of a monic degree-r polynomial is
    # sum(c_i * p^i) including the leading 1
    for code in range(p**r):
        coeffs = (*_base_digits(code, p, r), 1)
        if _poly_is_irreducible(coeffs, p):
            return coeffs
    raise ReducibleModulus(f"no irreducible polynomial of degree {r} over GF({p})")


def default_modulus(p: int, r: int) -> tuple[int, ...]:
    if r == 1:
        return (0, 1)
    got = _DEFAULT_MODULI.get((p, r))
    if got is None:
        got = _search_default_modulus(p, r)
    return got


def _resolve_modulus(p: int, r: int, modulus) -> tuple[int, ...]:
    """The given modulus reduced mod p, or the default for (p, r)."""
    if modulus is None:
        return default_modulus(p, r)
    return tuple(int(c) % p for c in modulus)


class Field:
    """GF(p^r) with a fixed modulus polynomial.

    Parameters
    ----------
    p : prime characteristic
    r : extension degree (default 1)
    modulus : optional coefficient list (low-order first, monic, length
        r + 1).  When omitted the pinned default for (p, r) is used.

    Raises NotPrime, OrderTooLarge or ReducibleModulus on bad input.
    Division by zero raises ZeroDivisionError.
    """

    __slots__ = ("p", "r", "q", "modulus", "_exp", "_log", "_log_minus1", "_hash")

    def __init__(self, p: int, r: int = 1, modulus=None):
        if r < 1:
            raise ValueError(f"extension degree must be >= 1, got {r}")
        q = p**r
        if q > ORDER_CEILING:
            raise OrderTooLarge(f"q = {q} exceeds the ceiling {ORDER_CEILING}")
        if _prime_factors(p) != [p]:
            raise NotPrime(f"{p} is not prime")
        modulus = _resolve_modulus(p, r, modulus)
        if len(modulus) != r + 1 or modulus[-1] != 1:
            raise ReducibleModulus(
                f"modulus must be monic of degree {r}, got {list(modulus)}"
            )
        if r > 1 and not _poly_is_irreducible(modulus, p):
            raise ReducibleModulus(
                f"{list(modulus)} is reducible over GF({p})"
            )
        self.p = p
        self.r = r
        self.q = q
        self.modulus = modulus
        self._build_log_tables()
        # -1 is the one element of order 2, or 1 itself when p = 2
        self._log_minus1 = 0 if p == 2 else (q - 1) // 2
        self._hash = hash((p, r, modulus))

    # -- encoding helpers ------------------------------------------------

    def digits(self, a: int) -> tuple[int, ...]:
        """Base-p digits of a, least significant first (the coefficients)."""
        return _base_digits(a, self.p, self.r)

    # -- table construction ----------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        # polynomial product of the digit vectors, reduced mod (p, modulus)
        p, r = self.p, self.r
        da, db = _base_digits(a, p, r), _base_digits(b, p, r)
        prod = [0] * (2 * r - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        return _from_base(_poly_mod(prod, list(self.modulus), p), p)

    def _raw_pow(self, a: int, e: int) -> int:
        # a^e by square and multiply on _raw_mul
        out = 1
        while e:
            if e & 1:
                out = self._raw_mul(out, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return out

    def _build_log_tables(self):
        # The generator is the smallest g of order q - 1: the first with
        # g^((q-1)/l) != 1 for every prime l dividing q - 1 (g = 1 for
        # GF(2)).  Multiplying by g is GF(p)-linear, so it is tabulated
        # once from the images g*x^i of the basis: on a = a' + d*p^i with
        # a' < p^i it is g*a' + d*(g*x^i).  The antilog table follows
        # that map from 1 and is stored twice over, so that a sum of two
        # logs indexes it without reduction.
        q, p = self.q, self.p
        cofactors = [(q - 1) // l for l in _prime_factors(q - 1)]
        g = next(
            g for g in range(1, q)
            if all(self._raw_pow(g, e) != 1 for e in cofactors)
        )
        images = [g]
        for _ in range(self.r - 1):
            images.append(self._raw_mul(images[-1], p))  # times x
        times_g = [0]
        for image in images:
            block = times_g
            for _ in range(1, p):
                block = [self.add(t, image) for t in block]
                times_g += block
        exp = [1]
        for _ in range(q - 2):
            exp.append(times_g[exp[-1]])
        log = [0] * q
        for i, e in enumerate(exp):
            log[e] = i
        self._exp = exp + exp
        self._log = log

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return _add_digitwise(a, b, self.p)

    def neg(self, a: int) -> int:
        return self._exp[self._log[a] + self._log_minus1] if a else 0

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[self.q - 1 - self._log[a]]

    def elements(self) -> list[int]:
        """All field elements in encoding order."""
        return list(range(self.q))

    # -- subfield embedding -------------------------------------------------

    def embed_table(self, target: "Field") -> list[int]:
        """Embedding of this field into target, as an encoding-lookup list.

        Requires the same characteristic and self.r | target.r.  The image
        of x is the root of this field's modulus in target with the
        smallest encoding, which makes the embedding canonical for fixed
        moduli on both sides.
        """
        if target.p != self.p or target.r % self.r != 0:
            raise IncompatibleModulusTable(
                f"GF({self.q}) does not embed into GF({target.q})"
            )
        root = None
        for e in range(target.q):
            acc = 0
            for c in reversed(self.modulus):
                acc = target.add(target.mul(acc, e), c)
            if acc == 0:
                root = e
                break
        if root is None:
            raise IncompatibleModulusTable(
                f"modulus of GF({self.q}) has no root in GF({target.q})"
            )
        table = []
        for a in range(self.q):
            acc = 0
            power = 1
            for c in self.digits(a):
                if c:
                    acc = target.add(acc, target.mul(c, power))
                power = target.mul(power, root)
            table.append(acc)
        if len(set(table)) != self.q:
            raise IncompatibleModulusTable("embedding is not injective")
        return table

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.r == other.r
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.r == 1:
            return f"GF({self.p})"
        return f"GF({self.q}, poly={list(self.modulus)})"


_GF_CACHE: dict[tuple, Field] = {}


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, r) with q = p^r, or raise NotPrime."""
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise NotPrime(f"{q} is not a prime power")
    p, r = primes[0], 1
    while p**r != q:
        r += 1
    return p, r


def GF(q: int, modulus=None) -> Field:
    """The field of order q = p^r with the given or the default modulus,
    built once per order and reduced modulus.  The order is checked
    against the ceiling before it is factored."""
    if q > ORDER_CEILING:
        raise OrderTooLarge(f"q = {q} exceeds the ceiling {ORDER_CEILING}")
    p, r = factor_prime_power(q)
    key = (q, _resolve_modulus(p, r, modulus))
    field = _GF_CACHE.get(key)
    if field is None:
        field = _GF_CACHE[key] = Field(p, r, key[1])
    return field
