"""Linear codes over GF(q): construction, duality, weight analysis and the
projective transformations used throughout the package.

A LinearCode is its parity-check matrix H in reduced row echelon form,
so two equal codes (same codeword set over the same field) always hold
identical matrices and compare equal.  The canonical generator is built
from H on first use; the dual's weights are walked on H itself.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product

from .budgets import DEFAULT_BUDGETS, Budgets
from .field import GF, Field
from .matrix import MatrixGF, kernel_basis, rank, row_space_basis


class EmptyMatrix(ValueError):
    pass


class NotProjective(ValueError):
    pass


class AlreadyFullPointSet(ValueError):
    pass


class NonIntegerResult(ArithmeticError):
    """A weight-distribution transform produced a non-integral count."""


class LowerBound(int):
    """A minimum distance known only to be at least this value."""

    exact = False

    def __repr__(self):
        return f"LowerBound({int(self)})"


# ---------------------------------------------------------------------------
# projective helpers


def canonical_column(field: Field, col) -> tuple[int, ...]:
    """Scale a column so its first nonzero entry is 1 (zero stays zero)."""
    col = tuple(col)
    for x in col:
        if x:
            if x == 1:
                return col
            inv = field.inv(x)
            return tuple(field.mul(inv, y) for y in col)
    return col


def _column_points(field: Field, columns) -> tuple[int, Counter]:
    """The number of zero columns, and how often each canonical point
    occurs among the nonzero ones."""
    zeros = 0
    points: Counter = Counter()
    for col in columns:
        if any(col):
            points[canonical_column(field, col)] += 1
        else:
            zeros += 1
    return zeros, points


def pg_points(field: Field, m: int) -> list[tuple[int, ...]]:
    """The points of PG(m-1, q) as canonical length-m columns, ordered
    lexicographically by their coordinate tuples."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return list(iter_pg_points(field, m))


def iter_pg_points(field: Field, m: int):
    """Yield the points of pg_points(field, m) one at a time, in the same
    order, so a caller that stops early never builds the rest: points
    with more leading zeros come first, and behind the leading 1 the
    tail runs through every q-ary word in lexicographic order."""
    for lead in range(m - 1, -1, -1):
        head = (0,) * lead + (1,)
        for tail in product(range(field.q), repeat=m - 1 - lead):
            yield head + tail


def num_pg_points(q: int, m: int) -> int:
    return (q**m - 1) // (q - 1)


# ---------------------------------------------------------------------------
# the code object


class LinearCode:
    """An [n, k] linear code over GF(q), held as its canonical parity check.

    H is the dual code's basis in reduced row echelon form, and k is
    n - H.nrows.  G, the code's own basis in the same form, is built from
    H when first read.  The constructor trusts its arguments; from_parity
    and from_generator canonicalize a matrix.
    """

    __slots__ = ("field", "n", "k", "H", "_G")

    def __init__(self, H: MatrixGF, G: MatrixGF | None = None):
        self.field = H.field
        self.n = H.ncols
        self.k = H.ncols - H.nrows
        self.H = H
        self._G = G

    @classmethod
    def from_parity(cls, H: MatrixGF) -> "LinearCode":
        if H.ncols == 0:
            raise EmptyMatrix("a code needs at least one coordinate")
        return cls(row_space_basis(H))

    @classmethod
    def from_generator(cls, G: MatrixGF) -> "LinearCode":
        return cls.from_parity(G).dual()

    @property
    def G(self) -> MatrixGF:
        if self._G is None:
            self._G = row_space_basis(kernel_basis(self.H))
        return self._G

    @property
    def redundancy(self) -> int:
        return self.n - self.k

    def dual(self) -> "LinearCode":
        return LinearCode(self.G, self.H)

    def punctured(self, pos: int) -> "LinearCode":
        """Delete coordinate pos from every codeword."""
        if not 0 <= pos < self.n:
            raise ValueError(f"position {pos} out of range")
        if self.n == 1:
            raise ValueError("cannot puncture a length-1 code")
        return LinearCode.from_generator(self.G.drop_column(pos))

    def extended(self) -> "LinearCode":
        """Append an overall parity coordinate (coordinates sum to zero):
        the parity check is [H | 0] with an all-ones row below it."""
        rows = [row + (0,) for row in self.H.data] + [(1,) * (self.n + 1)]
        return LinearCode.from_parity(MatrixGF(self.field, rows, self.n + 1))

    def complementary(self) -> "LinearCode":
        """Code whose parity columns are the projective points missed by H.

        Requires H to be projective: no zero columns, no two columns that
        are scalar multiples of each other.  The resulting parity check is
        rank-reduced, so the complementary code's redundancy can be lower
        than n - k.
        """
        if self.redundancy == 0:
            raise NotProjective("the whole space has no projective parity check")
        zeros, points = _column_points(self.field, self.H.columns())
        if zeros:
            raise NotProjective("parity check has a zero column")
        if len(points) < self.n:
            raise NotProjective("parity check has projectively equal columns")
        H = complementary_parity_columns(self)
        if H.ncols == 0:
            raise AlreadyFullPointSet(
                "parity check already uses every projective point"
            )
        return LinearCode.from_parity(H)

    def lifted(self, r: int) -> "LinearCode":
        """Reinterpret the parity-check entries over GF(q^r), r >= 2."""
        if r < 2:
            raise ValueError("lifting degree must be >= 2")
        f = self.field
        target = GF(f.q**r)
        table = f.embed_table(target)
        rows = [[table[x] for x in row] for row in self.H.data]
        return LinearCode.from_parity(MatrixGF(target, rows, self.n))

    def __eq__(self, other):
        return isinstance(other, LinearCode) and self.H == other.H

    def __hash__(self):
        return hash(self.H)

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}] over GF({self.field.q}))"


# ---------------------------------------------------------------------------
# enumeration and weight analysis


def odometer(start, inc, add):
    """Yield start + sum_j a_j * x_j for every digit vector a in
    range(q)^k, with k = len(inc) and q = len(inc[j]), in odometer order
    (digit 0 fastest), with one add per digit that changes.  inc[j][a]
    is the element that turns digit j from a into (a + 1) % q, so a step
    adds inc[j][q - 1] for every digit that wraps and inc[j][a] for the
    one that moves on from a."""
    cur = start
    yield cur
    if not inc:
        return
    q = len(inc[0])
    digits = [0] * len(inc)
    for _ in range(q ** len(inc) - 1):
        j = 0
        while digits[j] == q - 1:
            cur = add(cur, inc[j][q - 1])
            digits[j] = 0
            j += 1
        a = digits[j]
        cur = add(cur, inc[j][a])
        digits[j] = a + 1
        yield cur


def iter_projective(M: MatrixGF):
    """Yield one word of each class {c*w : c != 0} of nonzero words in the
    row space of M, of full row rank: the one whose top nonzero message
    digit is 1.  These are the words of the odometer walk over all
    messages (digit 0 fastest) that have that form, in the same order."""
    f = M.field
    fadd, mul = f.add, f.mul
    # digit j moving from a to a + 1 adds (a + 1 - a) * row_j.  In the
    # base-p encoding that increment depends only on how many low digits
    # carry, so GF(p^r) has r distinct ones, and each row builds one
    # tuple per distinct increment
    deltas = [f.sub((a + 1) % f.q, a) for a in range(f.q)]
    inc = []
    for row in M.data:
        by_delta = {d: tuple([mul(d, x) for x in row]) for d in set(deltas)}
        inc.append([by_delta[d] for d in deltas])
    # a tuple built from a list reuses a freed word of its length;
    # tuple(map(...)) resizes a guessed one instead, so the freed words
    # would pile up on the interpreter's tuple free list
    for i, row in enumerate(M.data):
        yield from odometer(row, inc[:i], lambda u, v: tuple([*map(fadd, u, v)]))


def _rowspace_weights(M: MatrixGF, budget: Budgets) -> list[int]:
    """Counts [A_0, ..., A_n] of the row space of M, of full row rank:
    q - 1 words per class of iter_projective, and the zero word.  Raises
    BudgetExceeded when its q^rows words are over max_codewords.

    A binary class is one nonzero word, so for q = 2 every word is
    walked instead, each as one int, in Gray-code order: step i adds
    the row of the lowest set bit of i."""
    q, n = M.field.q, M.ncols
    budget.require("max_codewords", q**M.nrows)
    counts = [1] + [0] * n
    if q == 2:
        rows = [sum(x << j for j, x in enumerate(row)) for row in M.data]
        word = 0
        for i in range(1, 1 << len(rows)):
            word ^= rows[(i & -i).bit_length() - 1]
            counts[word.bit_count()] += 1
        return counts
    for word in iter_projective(M):
        counts[n - word.count(0)] += q - 1
    return counts


def weight_distribution(
    code: LinearCode, budget: Budgets = DEFAULT_BUDGETS
) -> list[int]:
    """Counts [A_0, ..., A_n] of the code, from one word per projective
    class of its q^k words; weight_pair reaches the distribution through
    the smaller of the code and its dual."""
    budget.require("max_codewords", code.field.q**code.k)  # refuse before building G
    return _rowspace_weights(code.G, budget)


def weight_pair(
    code: LinearCode, budget: Budgets = DEFAULT_BUDGETS
) -> tuple[list[int], list[int]]:
    """Primal and dual weight distributions.  Enumerates whichever of the
    code (q^k words) and its dual (q^(n-k) words) is smaller, the code on
    a tie, and reaches the other side by macwilliams_transform; raises
    BudgetExceeded only when both sides are over max_codewords."""
    if code.k <= code.redundancy:
        counts = weight_distribution(code, budget)
        return counts, macwilliams_transform(counts, code.field.q)
    dual_counts = _rowspace_weights(code.H, budget)
    return macwilliams_transform(dual_counts, code.field.q), dual_counts


def _krawtchouk_values(q: int, n: int, i: int, top: int) -> list[int]:
    """[K_0(i), ..., K_top(i)], the Krawtchouk polynomials of GF(q)^n at
    i, by the three-term recurrence
    (j+1) K_{j+1}(i) = ((n-j)(q-1) + j - q*i) K_j(i) - (q-1)(n-j+1) K_{j-1}(i),
    in which every division is exact, each K_j(i) being an integer."""
    values = [1]
    prev, cur = 0, 1
    for j in range(top):
        prev, cur = cur, (
            ((n - j) * (q - 1) + j - q * i) * cur - (q - 1) * (n - j + 1) * prev
        ) // (j + 1)
        values.append(cur)
    return values


def macwilliams_transform(counts: list[int], q: int) -> list[int]:
    """Weight distribution of the dual code, computed exactly.

    counts must be a full distribution [A_0..A_n] with sum q^k; the result
    is [B_0..B_n] with B_j = (1/q^k) * sum_i A_i K_j(i).  A non-integral
    B_j raises NonIntegerResult, which means the input was not the weight
    distribution of a linear code over GF(q).
    """
    n = len(counts) - 1
    size = sum(counts)
    if counts[0] != 1 or size <= 0:
        raise ValueError("counts must describe a code containing only one zero word")
    sums = [0] * (n + 1)
    for i, a in enumerate(counts):
        if a:
            for j, k in enumerate(_krawtchouk_values(q, n, i, n)):
                sums[j] += a * k
    out = []
    for j, acc in enumerate(sums):
        b, rem = divmod(acc, size)
        if rem:
            raise NonIntegerResult(f"B_{j} = {acc}/{size} is not an integer")
        out.append(b)
    return out


def nonzero_weights(counts: list[int]) -> list[int]:
    return [w for w in range(1, len(counts)) if counts[w]]


def is_equidistant(code: LinearCode, budget: Budgets = DEFAULT_BUDGETS) -> bool:
    """True when all nonzero codewords share one weight (k >= 1)."""
    if code.k < 1:
        raise ValueError("the zero code has no nonzero weights")
    return len(nonzero_weights(weight_distribution(code, budget))) == 1


def is_antipodal(code: LinearCode, budget: Budgets = DEFAULT_BUDGETS) -> bool:
    """True when the code contains a word of full weight n."""
    return weight_pair(code, budget)[0][code.n] > 0


def external_distance(code: LinearCode, budget: Budgets = DEFAULT_BUDGETS) -> int:
    """Number of distinct nonzero weights in the dual code."""
    return len(nonzero_weights(weight_pair(code, budget)[1]))


def min_distance(code: LinearCode, budget: Budgets = DEFAULT_BUDGETS) -> int:
    """Exact minimum distance, or LowerBound(6) when it exceeds 5 and the
    codeword space is over budget.

    Strategy: d=1 iff H has a zero column, d=2 iff two columns are
    projectively equal, then search dependent column subsets of sizes
    3..5, and finally fall back to the weight distribution.
    """
    if code.k < 1:
        raise ValueError("minimum distance needs k >= 1")
    f = code.field
    if code.redundancy == 0:
        return 1
    cols = code.H.columns()
    zeros, points = _column_points(f, cols)
    if zeros:
        return 1
    if len(points) < len(cols):
        return 2
    for t in (3, 4, 5):
        if t > code.n:
            break
        for subset in combinations(cols, t):
            if rank(MatrixGF.from_columns(f, subset, code.redundancy)) < t:
                return t
    if f.q**code.k <= budget.max_codewords:
        counts = weight_distribution(code, budget)
        return nonzero_weights(counts)[0]
    return LowerBound(6)


# ---------------------------------------------------------------------------
# weight relation between a projective code and its complementary code


def complementary_parity_columns(code: LinearCode) -> MatrixGF:
    """The unreduced (n-k)-row parity check of the complementary code:
    every projective point H misses, in lexicographic order."""
    f = code.field
    m = code.redundancy
    seen = _column_points(f, code.H.columns())[1]
    missing = [pt for pt in pg_points(f, m) if pt not in seen]
    return MatrixGF.from_columns(f, missing, m)
