"""Constructions of the code families under study: Hamming parity
matrices, zero-column padding, scaled concatenation, difference
matrices, latin-square codes, the antipodal length-4 family, plane
arcs (hyperovals and Denniston-style maximal arcs), external-line
codes, lifted codes, and FAMILIES: one table of the catalog's
families, each with its parameters, builder, expected parameters and
intersection array, and the members the catalog tries under a bound.

All column orderings are pinned lexicographic, so every construction
is bit-reproducible.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from itertools import product
from math import isqrt
from typing import NamedTuple

from .codes import LinearCode, canonical_column, num_pg_points, pg_points
from .field import GF, Field, NotPrime, factor_prime_power
from .matrix import MatrixGF, rank
from .regularity import IntersectionArray


class ParameterRange(ValueError):
    pass


class ZeroScalar(ValueError):
    pass


class ConstraintViolated(ValueError):
    pass


class NotCharacteristicTwo(ValueError):
    pass


class ArcPropertyFailed(AssertionError):
    """The pinned geometric realization misses its line-intersection
    profile; the realization, not the checker, is suspect."""


def hamming_parity(q: int, m: int) -> MatrixGF:
    """m x (q^m-1)/(q-1) matrix whose columns are the canonical
    representatives of all projective points, in lexicographic order."""
    if m < 1:
        raise ParameterRange(f"Hamming redundancy must be >= 1, got {m}")
    f = GF(q)
    return MatrixGF.from_columns(f, pg_points(f, m))


def hamming_code(q: int, m: int) -> LinearCode:
    return LinearCode.from_parity(hamming_parity(q, m))


def construction_I(H: MatrixGF, u: int) -> MatrixGF:
    """Append u > 0 zero columns; [n,k] becomes [n+u, k+u] with d = 1."""
    if u < 1:
        raise ParameterRange(f"zero-column count must be >= 1, got {u}")
    return H.hstack(MatrixGF.zeros(H.field, H.nrows, u))


def construction_II(H: MatrixGF, scalars) -> MatrixGF:
    """Concatenate nonzero scalar multiples of H side by side."""
    scalars = list(scalars)
    if not scalars:
        raise ParameterRange("at least one scalar is required")
    if any(s == 0 for s in scalars):
        raise ZeroScalar("scalars must be nonzero")
    out = H.scale(scalars[0])
    for s in scalars[1:]:
        out = out.hstack(H.scale(s))
    return out


def difference_matrix(q: int, m: int) -> MatrixGF:
    """(m+1) x q^m matrix: all length-m vectors as columns, in
    lexicographic order, each with an extra final coordinate 1."""
    if m < 1:
        raise ParameterRange(f"difference matrix needs m >= 1, got {m}")
    f = GF(q)  # refuses an order above the ceiling before q^m columns
    cols = [vec + (1,) for vec in product(range(q), repeat=m)]
    return MatrixGF.from_columns(f, cols)


def difference_matrix_code(q: int, m: int) -> LinearCode:
    if q < 3:
        raise ParameterRange(f"difference-matrix code needs q >= 3, got {q}")
    return LinearCode.from_parity(difference_matrix(q, m))


def latin_square_code(q: int, n: int) -> LinearCode:
    """[n, n-2, 3]_q code: the difference matrix D_1 with its last
    q - n columns removed."""
    if q < 3:
        raise ParameterRange(f"latin-square code needs q >= 3, got {q}")
    if not 3 <= n <= q:
        raise ParameterRange(f"length must satisfy 3 <= n <= q, got n={n}, q={q}")
    D1 = difference_matrix(q, 1)
    H = MatrixGF.from_columns(D1.field, [D1.column(j) for j in range(n)])
    return LinearCode.from_parity(H)


def antipodal_d1(q: int, xi_i: int, xi_j: int) -> LinearCode:
    """The [4,2,3]_q code with parity check [[1,1,1,1],[0,1,xi_i,xi_j]],
    where xi_i, xi_j are distinct, outside {0,1}, and xi_i+xi_j+1 = 0."""
    if q < 4:
        raise ParameterRange(f"needs q >= 4, got {q}")
    f = GF(q)
    if xi_i == xi_j:
        raise ConstraintViolated("the two elements must be distinct")
    if xi_i in (0, 1) or xi_j in (0, 1):
        raise ConstraintViolated("the two elements must avoid 0 and 1")
    if not 0 <= xi_i < q or not 0 <= xi_j < q:
        raise ConstraintViolated(f"elements must lie in 0..{q - 1}")
    if f.add(f.add(xi_i, xi_j), 1) != 0:
        raise ConstraintViolated("the two elements must sum with 1 to zero")
    return LinearCode.from_parity(MatrixGF(f, [[1, 1, 1, 1], [0, 1, xi_i, xi_j]]))


def antipodal_d1_pair(q: int) -> tuple[int, int] | None:
    """Smallest valid element pair for antipodal_d1, or None when the
    field has no such pair (q = 5 is the one small case)."""
    f = GF(q)
    for a in range(2, q):
        for b in range(a + 1, q):
            if f.add(f.add(a, b), 1) == 0:
                return (a, b)
    return None


def d1_antipodal_code(q: int) -> LinearCode:
    """The length-4 member of the latin-square family, presented with
    the summing-to-zero column pair when one exists."""
    if q < 4:
        raise ParameterRange("the antipodal length-4 family needs q >= 4")
    pair = antipodal_d1_pair(q)
    if pair is None:
        return latin_square_code(q, 4)
    return antipodal_d1(q, *pair)


# -- plane point sets ------------------------------------------------------


def _dot(f: Field, a, b) -> int:
    acc = 0
    for x, y in zip(a, b):
        acc = f.add(acc, f.mul(x, y))
    return acc


class _PointSetFields(NamedTuple):
    field: Field
    dim: int
    points: tuple[tuple[int, ...], ...]


class ProjectivePointSet(_PointSetFields):
    """Pairwise-distinct canonical points of PG(dim, q); its length is
    the number of points."""

    __slots__ = ()

    def __new__(cls, field: Field, dim: int, points):
        seen = set()
        for pt in points:
            if len(pt) != dim + 1:
                raise ValueError(f"point {pt} has wrong length")
            if canonical_column(field, pt) != tuple(pt):
                raise ValueError(f"point {pt} is not in canonical form")
            if pt in seen:
                raise ValueError(f"duplicate point {pt}")
            seen.add(pt)
        return super().__new__(cls, field, dim, points)

    @classmethod
    def _make(cls, fields):  # so that _replace checks its fields too
        return cls(*fields)

    def __len__(self):
        return len(self.points)

    def line_profile(self) -> dict[int, int]:
        """How many lines meet the set in 0, 1, 2, ... points (dim 2)."""
        if self.dim != 2:
            raise ValueError("line profiles are defined for plane point sets")
        f = self.field
        prof: dict[int, int] = {}
        for line in pg_points(f, 3):
            c = sum(1 for pt in self.points if _dot(f, line, pt) == 0)
            prof[c] = prof.get(c, 0) + 1
        return prof


def _check_arc_profile(s: ProjectivePointSet, allowed: set[int], what: str):
    prof = s.line_profile()
    if not set(prof) <= allowed:
        raise ArcPropertyFailed(
            f"{what}: line intersections {sorted(prof)} not within {sorted(allowed)}"
        )


def hyperoval(q: int) -> ProjectivePointSet:
    """The q+2 points (1,t,t^2) plus (0,1,0) and (0,0,1) in PG(2,q) for
    q = 2^r >= 4; every line meets the set in 0 or 2 points."""
    f = GF(q)
    if f.p != 2 or q < 4:
        raise NotCharacteristicTwo(f"hyperovals need q = 2^r >= 4, got {q}")
    pts = [(1, t, f.mul(t, t)) for t in f.elements()]
    pts.extend([(0, 1, 0), (0, 0, 1)])
    s = ProjectivePointSet(f, 2, tuple(pts))
    _check_arc_profile(s, {0, 2}, f"hyperoval over GF({q})")
    return s


def _irreducible_form_coeff(f: Field) -> int:
    # smallest c with x^2 + xy + c*y^2 vanishing only at the origin,
    # i.e. t^2 + t + c without roots
    for c in f.elements():
        if all(f.add(f.add(f.mul(t, t), t), c) != 0 for t in f.elements()):
            return c
    raise ArcPropertyFailed(f"no irreducible quadratic form over GF({f.q})")


def denniston_arc(q: int, h: int) -> ProjectivePointSet:
    """Degree-h maximal arc in PG(2,q): the points (1,x,y) with
    x^2 + xy + c*y^2 inside the order-h additive subgroup {0..h-1},
    for q = 2^r >= 4 and h = 2^s with 0 < s < r.  Every line meets the
    set in 0 or h points."""
    f = GF(q)
    if f.p != 2 or q < 4:
        raise ParameterRange(f"needs q = 2^r >= 4, got {q}")
    if h < 1 or h & (h - 1):
        raise ParameterRange(f"degree must be a power of 2, got {h}")
    if not 0 < h.bit_length() - 1 < f.r:
        raise ParameterRange(f"degree must be 2^s with 0 < s < {f.r}, got {h}")
    c = _irreducible_form_coeff(f)
    pts = []
    for x in f.elements():
        for y in f.elements():
            val = f.add(f.add(f.mul(x, x), f.mul(x, y)), f.mul(c, f.mul(y, y)))
            if val < h:
                pts.append((1, x, y))
    s = ProjectivePointSet(f, 2, tuple(pts))
    if len(pts) != q * (h - 1) + h:
        raise ArcPropertyFailed(
            f"arc size {len(pts)} differs from {q * (h - 1) + h}"
        )
    _check_arc_profile(s, {0, h}, f"degree-{h} arc over GF({q})")
    return s


def point_set_code(s: ProjectivePointSet) -> LinearCode:
    """The code whose parity-check columns are the given points."""
    return LinearCode.from_parity(MatrixGF.from_columns(s.field, s.points))


def external_lines(s: ProjectivePointSet) -> ProjectivePointSet:
    """Lines of PG(2,q) meeting the set in no point, as dual points."""
    f = s.field
    ext = tuple(
        line
        for line in pg_points(f, 3)
        if all(_dot(f, line, pt) != 0 for pt in s.points)
    )
    return ProjectivePointSet(f, 2, ext)


def external_lines_code(s: ProjectivePointSet) -> LinearCode:
    return point_set_code(external_lines(s))


def extendable_hamming_code(q: int) -> LinearCode:
    """A [q+1, q-1, 3]_q Hamming-code presentation whose overall parity
    extension has minimum distance 4 (q = 2^r >= 4 only; extension is
    sensitive to the scaling of parity columns, and the lexicographic
    canonical presentation does not extend to distance 4).

    Derived from the hyperoval: move one of its external lines to the
    x0 = 0 line, normalize, and translate one point to the origin; the
    remaining columns are nonzero representatives of every point of
    PG(1,q) in the scaling a hyperoval demands.
    """
    f = GF(q)
    s = hyperoval(q)
    rows = [list(external_lines(s).points[0])]
    for i in range(3):
        unit = [0, 0, 0]
        unit[i] = 1
        if rank(MatrixGF(f, rows + [unit])) == len(rows) + 1:
            rows.append(unit)
        if len(rows) == 3:
            break
    T = MatrixGF(f, rows)
    moved = [T.mul_vector(pt) for pt in s.points]
    norm = sorted(
        tuple(f.mul(f.inv(v[0]), x) for x in v)[1:] for v in moved
    )
    origin = norm[0]
    translated = sorted(
        tuple(f.sub(a, b) for a, b in zip(v, origin)) for v in norm
    )
    assert translated[0] == (0, 0) and all(any(v) for v in translated[1:])
    return LinearCode.from_parity(MatrixGF.from_columns(f, translated[1:]))


# -- the catalog -----------------------------------------------------------


class FamilyDescriptor(NamedTuple):
    """One catalog instance: family id, parameters, and the expected
    code parameters and intersection array."""

    family: str
    params: tuple[tuple[str, int], ...]
    n: int
    k: int
    d: int
    rho: int
    array: IntersectionArray

    @property
    def slug(self) -> str:
        tail = "-".join(f"{key}{val}" for key, val in self.params)
        return f"{self.family}-{tail}" if tail else self.family

    def params_dict(self) -> dict[str, int]:
        return dict(self.params)


def _exact_div(a: int, b: int) -> int:
    quot, rem = divmod(a, b)
    if rem:
        raise ParameterRange(f"{a} is not divisible by {b}")
    return quot


def _prime_powers(lo: int, hi: int) -> list[int]:
    out = []
    for q in range(max(lo, 2), hi + 1):
        try:
            factor_prime_power(q)
        except NotPrime:
            continue
        out.append(q)
    return out


def _two_powers(hi: int) -> list[int]:
    """The q = 2^r with 4 <= q <= hi."""
    return [1 << r for r in range(2, hi.bit_length())]


def _expect_i(m):
    n = 2**m
    return 2, n, n - m - 1, 4, (n, n - 1), (1, n)


def _expect_ii(q):
    return q, q + 2, q - 1, 4, ((q + 2) * (q - 1), q * q - 1), (1, q + 2)


def _expect_iii(q, m):
    n = q**m
    return q, n, n - m - 1, 3, (n * (q - 1), n - 1), (1, n * (q - 1))


def _expect_iv(q, n):
    return q, n, n - 2, 3, (n * (q - 1), (q - n + 1) * (n - 1)), (1, n * (n - 1))


def _arc_distance(per_line: int) -> int:
    """Minimum distance of a code whose parity-check columns are points of
    PG(2, q), when the most of them on one line is per_line: three
    collinear columns are dependent, and with at most two on any line
    every three are independent.  A maximal arc of degree h meets every
    line in 0 or h points, and each point off it lies on q/h lines that
    miss it (Denniston 1969), so the arc's points have per_line = h and
    its external lines, as points of the dual plane, per_line = q/h."""
    return 3 if per_line >= 3 else 4


def _expect_v(q):
    n = _exact_div(q * (q - 1), 2)
    b1 = _exact_div((q - 2) * (q + 1) * (q + 2), 4)
    c2 = _exact_div(q * (q - 1) * (q - 2), 4)
    return q, n, n - 3, _arc_distance(q // 2), ((q - 1) * n, b1), (1, c2)


def _expect_vi(q, h):
    n = q * (h - 1) + h
    b1 = (q + 1) * (h - 1) * (q - h + 1)
    return q, n, n - 3, _arc_distance(h), ((q - 1) * n, b1), (1, (h - 1) * n)


def _expect_vii(q, h):
    n = _exact_div(q * (q - h + 1), h)
    b1 = _exact_div((q + 1) * (q - h) * (q * (h - 1) + h), h * h)
    c2 = _exact_div(q * (q - h) * (q - h + 1), h * h)
    return q, n, n - 3, _arc_distance(q // h), ((q - 1) * n, b1), (1, c2)


def _expect_lifted(q, r):
    big = q**r
    b = ((q + 1) * (big - 1), q * q * (q ** (r - 1) - 1))
    return big, q + 1, q - 1, 3, b, (1, q * (q + 1))


def _expect_d1antipodal(q):
    return q, 4, 2, 3, (4 * (q - 1), 3 * (q - 3)), (1, 12)


def _extended_hamming(m: int) -> LinearCode:
    if m < 2:
        raise ParameterRange("family i needs m >= 2")
    return hamming_code(2, m).extended()


def _lifted_hamming(q: int, r: int) -> LinearCode:
    if r < 2:
        raise ParameterRange("lifted family needs r >= 2")
    return hamming_code(q, 2).lifted(r)


def _arc_degrees(bound: int) -> list[tuple[int, int]]:
    """(q, h) for q = 2^r <= bound and h = 2^s with 0 < s < r."""
    return [
        (q, 1 << s) for q in _two_powers(bound) for s in range(1, q.bit_length() - 1)
    ]


class Family(NamedTuple):
    """One catalog family.  names: its parameters in slug order; build
    and expect take them in that order, and expect returns the member's
    (q, n, k, d, b, c), with q the field order and (b; c) the
    intersection array.  candidates(bound): in catalog order, a superset
    of the parameters of the members whose expected q*n is at most
    bound.  Every n is at least 3, so no q above bound // 3 is tried,
    and for iii and lifted, whose q*n is at least q^2, none above
    isqrt(bound)."""

    names: tuple[str, ...]
    build: Callable[..., LinearCode]
    expect: Callable[..., tuple]
    candidates: Callable[[int], Iterable[tuple[int, ...]]]


FAMILIES: dict[str, Family] = {
    "i": Family(
        ("m",), _extended_hamming, _expect_i,
        lambda bound: [(m,) for m in range(2, bound.bit_length())],
    ),
    "ii": Family(
        ("q",), lambda q: point_set_code(hyperoval(q)), _expect_ii,
        lambda bound: [(q,) for q in _two_powers(bound // 3)],
    ),
    "iii": Family(
        ("q", "m"), difference_matrix_code, _expect_iii,
        lambda bound: product(
            _prime_powers(3, isqrt(bound)), range(1, bound.bit_length())
        ),
    ),
    "iv": Family(
        ("q", "n"), latin_square_code, _expect_iv,
        lambda bound: [
            (q, n) for q in _prime_powers(4, bound // 3) for n in range(3, q)
        ],
    ),
    "v": Family(
        ("q",), lambda q: external_lines_code(hyperoval(q)), _expect_v,
        lambda bound: [(q,) for q in _two_powers(bound // 3)],
    ),
    "vi": Family(
        ("q", "h"), lambda q, h: point_set_code(denniston_arc(q, h)), _expect_vi,
        lambda bound: _arc_degrees(bound // 3),
    ),
    "vii": Family(
        ("q", "h"), lambda q, h: external_lines_code(denniston_arc(q, h)),
        _expect_vii, lambda bound: _arc_degrees(bound // 3),
    ),
    "lifted": Family(
        ("q", "r"), _lifted_hamming, _expect_lifted,
        lambda bound: product(
            _prime_powers(2, isqrt(bound)), range(2, bound.bit_length())
        ),
    ),
    "d1antipodal": Family(
        ("q",), d1_antipodal_code, _expect_d1antipodal,
        lambda bound: [(q,) for q in _prime_powers(4, bound // 3)],
    ),
}


def build_family(family: str, **params) -> tuple[FamilyDescriptor, LinearCode]:
    """Instantiate one member of a family in FAMILIES; parameters given
    as None count as absent.  Raises ParameterRange on an unknown family
    and on missing, extra or out-of-range parameters."""
    entry = FAMILIES.get(family)
    if entry is None:
        known = ", ".join(FAMILIES)
        raise ParameterRange(f"unknown family {family!r}; choose from {known}")
    values = []
    for name in entry.names:
        if params.get(name) is None:
            raise ParameterRange(f"family {family!r} needs parameter {name!r}")
        values.append(int(params[name]))
    extra = {name for name, val in params.items() if val is not None} - set(entry.names)
    if extra:
        raise ParameterRange(f"family {family!r} does not take {sorted(extra)}")
    code = entry.build(*values)
    q, n, k, d, b, c = entry.expect(*values)
    desc = FamilyDescriptor(
        family, tuple(zip(entry.names, values)), n, k, d, len(b),
        IntersectionArray.from_levels(q, n, b, c),
    )
    if (code.n, code.k) != (desc.n, desc.k):
        raise ArcPropertyFailed(
            f"{desc.slug}: built [{code.n},{code.k}], expected [{desc.n},{desc.k}]"
        )
    return desc, code


def family_catalog(qn_bound: int) -> list[tuple[FamilyDescriptor, LinearCode]]:
    """Every member of the families in FAMILIES whose expected q*n (q
    the field order the code lives over) is at most qn_bound, in table
    order."""
    if qn_bound < 4:
        raise ParameterRange(f"bound must be >= 4, got {qn_bound}")
    out = []
    for family, entry in FAMILIES.items():
        for values in entry.candidates(qn_bound):
            q, n = entry.expect(*values)[:2]
            if q * n <= qn_bound:
                out.append(build_family(family, **dict(zip(entry.names, values))))
    return out
