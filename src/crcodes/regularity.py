"""Coset geometry of a linear code: syndrome table, covering radius,
complete regularity, and the wide-sense uniform packing test.

CodeAnalysis holds what several of these checks read about one code (the
weight pair, the syndrome table and the regularity report), so that an
analysis that passes it along computes each of them once.

Syndromes are encoded as mixed-radix integers with coordinate 0 least
significant.  Since field elements are themselves base-p encodings, the
whole syndrome code is the base-p encoding of the concatenated digit
vector, and syndrome addition is digitwise mod p (XOR when p = 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import comb

from .budgets import DEFAULT_BUDGETS, BudgetExceeded, Budgets
from .codes import LinearCode, nonzero_weights, weight_pair
from .matrix import solve_rational


def encode_vector(q: int, vec) -> int:
    acc = 0
    for x in reversed(tuple(vec)):
        acc = acc * q + x
    return acc


def decode_vector(q: int, code: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        code, d = divmod(code, q)
        out.append(d)
    return tuple(out)


def _add_codes(x: int, y: int, p: int) -> int:
    """Digitwise base-p addition of two encoded vectors."""
    if p == 2:
        return x ^ y
    acc = 0
    mult = 1
    while x or y:
        acc += ((x + y) % p) * mult
        x //= p
        y //= p
        mult *= p
    return acc


class SyndromeTable:
    """BFS over the syndrome graph of a code.

    leader_weight[s] is the weight of a coset leader for syndrome s (the
    distance of the coset from the code), and rho is the covering radius.
    shift[j][beta - 1][s] gives the syndrome of v + beta*e_j when v has
    syndrome s, for beta in 1..q-1.
    """

    __slots__ = ("code", "size", "leader_weight", "rho", "shift", "column_syndrome")

    def __init__(self, code: LinearCode, budget: Budgets = DEFAULT_BUDGETS):
        f = code.field
        q = f.q
        m = code.redundancy
        size = q**m
        if size > budget.max_syndromes:
            raise BudgetExceeded("max_syndromes", size, budget.max_syndromes)
        self.code = code
        self.size = size

        self.column_syndrome = [
            encode_vector(q, code.H.column(j)) for j in range(code.n)
        ]
        p = f.p
        shift_cache: dict[int, list[int]] = {}
        self.shift = []
        for j in range(code.n):
            col = code.H.column(j)
            per_beta = []
            for beta in range(1, q):
                delta = encode_vector(q, [f.mul(beta, x) for x in col])
                table = shift_cache.get(delta)
                if table is None:
                    table = [_add_codes(s, delta, p) for s in range(size)]
                    shift_cache[delta] = table
                per_beta.append(table)
            self.shift.append(per_beta)

        lw = [-1] * size
        lw[0] = 0
        frontier = [0]
        level = 0
        reached = 1
        while frontier and reached < size:
            level += 1
            nxt = []
            for s in frontier:
                for per_beta in self.shift:
                    for table in per_beta:
                        t = table[s]
                        if lw[t] < 0:
                            lw[t] = level
                            nxt.append(t)
                            reached += 1
            frontier = nxt
        if reached < size:
            # cannot happen for a full-rank parity check
            raise AssertionError("syndrome graph is not connected")
        self.leader_weight = lw
        self.rho = max(lw)


def covering_radius(code: LinearCode, budget: Budgets = DEFAULT_BUDGETS) -> int:
    return SyndromeTable(code, budget).rho


class CodeAnalysis:
    """The facts about one code that several checks read, each computed
    on first use and then kept: the weight pair, the syndrome table and
    the regularity report.  Passing one along as `analysis=` is what
    shares the work: a function given none computes what it needs
    afresh.  `budget` caps every computation made through it.
    """

    def __init__(self, code: LinearCode, budget: Budgets = DEFAULT_BUDGETS):
        self.code = code
        self.budget = budget

    @cached_property
    def weight_pair(self) -> tuple[list[int], list[int]]:
        """Primal and dual weight distributions, from the smaller side."""
        return weight_pair(self.code, self.budget)

    @cached_property
    def table(self) -> SyndromeTable:
        return SyndromeTable(self.code, self.budget)

    @cached_property
    def report(self) -> RegularityReport:
        return complete_regularity(self.code, self.budget, self)


@dataclass(frozen=True)
class IntersectionArray:
    """The numbers (b_0..b_{rho-1}; c_1..c_rho) plus the derived a_l."""

    b: tuple[int, ...]
    c: tuple[int, ...]
    a: tuple[int, ...]

    @classmethod
    def from_levels(cls, q: int, n: int, b, c) -> "IntersectionArray":
        b = tuple(b)
        c = tuple(c)
        if len(b) != len(c):
            raise ValueError("b and c must both have rho entries")
        degree = (q - 1) * n
        full_b = b + (0,)
        full_c = (0,) + c
        a = tuple(degree - bb - cc for bb, cc in zip(full_b, full_c))
        arr = cls(b, c, a)
        if any(x < 0 for x in a) or any(x <= 0 for x in b) or any(x <= 0 for x in c):
            raise ValueError(f"inconsistent intersection numbers {arr}")
        return arr

    @property
    def rho(self) -> int:
        return len(self.b)

    def __str__(self):
        bs = ",".join(str(x) for x in self.b)
        cs = ",".join(str(x) for x in self.c)
        return f"({bs};{cs})"


@dataclass(frozen=True)
class Witness:
    """Two cosets at the same distance from the code whose neighbor
    profiles (c, b) differ; the smallest such pair at the lowest level."""

    level: int
    syndrome_a: int
    syndrome_b: int
    profile_a: tuple[int, int]
    profile_b: tuple[int, int]


@dataclass(frozen=True)
class RegularityReport:
    is_completely_regular: bool
    rho: int
    array: IntersectionArray | None
    witness: Witness | None


def _report_from_profiles(q, n, rho, first, conflicts) -> RegularityReport:
    bad_levels = [l for l in range(rho + 1) if conflicts[l] is not None]
    if bad_levels:
        level = min(bad_levels)
        ref_s, ref_profile = first[level][1], first[level][0]
        bad_s, bad_profile = conflicts[level]
        return RegularityReport(
            False,
            rho,
            None,
            Witness(level, ref_s, bad_s, ref_profile, bad_profile),
        )
    b = [first[l][0][1] for l in range(rho)]
    c = [first[l][0][0] for l in range(1, rho + 1)]
    return RegularityReport(
        True, rho, IntersectionArray.from_levels(q, n, b, c), None
    )


def complete_regularity(
    code: LinearCode,
    budget: Budgets = DEFAULT_BUDGETS,
    analysis: CodeAnalysis | None = None,
) -> RegularityReport:
    """Decide complete regularity by scanning each coset's (c, b) profile.

    Distances come from the syndrome table, and the profile of a coset is
    computed once per syndrome; constancy across each level is exactly
    the defining condition.  Callers holding a CodeAnalysis read its
    cached `report` rather than scanning again.
    """
    st = analysis.table if analysis else SyndromeTable(code, budget)
    lw = st.leader_weight
    rho = st.rho
    flat = [t for per_beta in st.shift for t in per_beta]
    first: list = [None] * (rho + 1)
    conflicts: list = [None] * (rho + 1)
    for s in range(st.size):
        level = lw[s]
        c = b = 0
        down = level - 1
        up = level + 1
        for tbl in flat:
            lv = lw[tbl[s]]
            if lv == down:
                c += 1
            elif lv == up:
                b += 1
        profile = (c, b)
        if first[level] is None:
            first[level] = (profile, s)
        elif conflicts[level] is None and profile != first[level][0]:
            conflicts[level] = (s, profile)
    return _report_from_profiles(code.field.q, code.n, rho, first, conflicts)


def complete_regularity_bruteforce(
    code: LinearCode,
    budget: Budgets = DEFAULT_BUDGETS,
    analysis: CodeAnalysis | None = None,
) -> RegularityReport:
    """Independent check: walk every vector of the ambient space, compute
    its distance via syndrome lookup, and count the levels of its actual
    n(q-1) neighbors, verifying constancy vector by vector."""
    f = code.field
    q, n = f.q, code.n
    total = q**n
    if total > budget.max_vectors:
        raise BudgetExceeded("max_vectors", total, budget.max_vectors)
    st = analysis.table if analysis else SyndromeTable(code, budget)
    lw = st.leader_weight
    rho = st.rho
    sub = [[f.sub(a2, a1) for a2 in range(q)] for a1 in range(q)]
    shift = st.shift

    first: list = [None] * (rho + 1)
    conflicts: list = [None] * (rho + 1)

    digits = [0] * n
    s = 0
    count = 0
    while True:
        level = lw[s]
        c = b = 0
        down = level - 1
        up = level + 1
        for j in range(n):
            a = digits[j]
            per_beta = shift[j]
            row = sub[a]
            for a2 in range(q):
                if a2 == a:
                    continue
                lv = lw[per_beta[row[a2] - 1][s]]
                if lv == down:
                    c += 1
                elif lv == up:
                    b += 1
        profile = (c, b)
        if first[level] is None:
            first[level] = (profile, s)
        elif conflicts[level] is None and profile != first[level][0]:
            conflicts[level] = (s, profile)

        count += 1
        if count == total:
            break
        j = 0
        while digits[j] == q - 1:
            s = shift[j][sub[q - 1][0] - 1][s]
            digits[j] = 0
            j += 1
        a = digits[j]
        s = shift[j][sub[a][a + 1] - 1][s]
        digits[j] = a + 1
    return _report_from_profiles(q, n, rho, first, conflicts)


def coset_weight_counts(
    code: LinearCode, budget: Budgets = DEFAULT_BUDGETS
) -> list[list[int]]:
    """counts[s][w] = number of ambient vectors of weight w with syndrome
    s, accumulated in one pass over all q^n vectors.  Row s is also the
    distance distribution of any vector in coset s to the code."""
    f = code.field
    q, n = f.q, code.n
    total = q**n
    if total > budget.max_vectors:
        raise BudgetExceeded("max_vectors", total, budget.max_vectors)
    st = SyndromeTable(code, budget)
    shift = st.shift
    sub = [[f.sub(a2, a1) for a2 in range(q)] for a1 in range(q)]
    counts = [[0] * (n + 1) for _ in range(st.size)]
    digits = [0] * n
    s = 0
    w = 0
    count = 0
    while True:
        counts[s][w] += 1
        count += 1
        if count == total:
            break
        j = 0
        while digits[j] == q - 1:
            s = shift[j][sub[q - 1][0] - 1][s]
            digits[j] = 0
            w -= 1
            j += 1
        a = digits[j]
        s = shift[j][sub[a][a + 1] - 1][s]
        digits[j] = a + 1
        if a == 0:
            w += 1
    return counts


def coset_low_weight_counts(
    code: LinearCode,
    wmax: int,
    budget: Budgets = DEFAULT_BUDGETS,
    analysis: CodeAnalysis | None = None,
) -> list[list[int]]:
    """counts[s][w] for w <= wmax only, by enumerating supports instead
    of the whole space; touches sum_{w<=wmax} C(n,w)(q-1)^w vectors."""
    f = code.field
    q, n = f.q, code.n
    total = sum(comb(n, w) * (q - 1) ** w for w in range(wmax + 1))
    if total > budget.max_vectors:
        raise BudgetExceeded("max_vectors", total, budget.max_vectors)
    st = analysis.table if analysis else SyndromeTable(code, budget)
    shift = st.shift
    counts = [[0] * (wmax + 1) for _ in range(st.size)]
    counts[0][0] = 1
    for w in range(1, wmax + 1):
        for support in combinations(range(n), w):
            for values in product(range(1, q), repeat=w):
                s = 0
                for j, beta in zip(support, values):
                    s = shift[j][beta - 1][s]
                counts[s][w] += 1
    return counts


def beta_solve(
    code: LinearCode,
    budget: Budgets = DEFAULT_BUDGETS,
    analysis: CodeAnalysis | None = None,
) -> list[Fraction] | None:
    """Rational coefficients beta_0..beta_rho with
    sum_k beta_k * alpha_k(v) = 1 for every ambient vector v, where
    alpha_k(v) counts codewords at distance k from v; None when no such
    coefficients exist.  Solvability is equivalent to the code being
    uniformly packed in the wide sense.

    Only distances up to rho enter the system, so the per-coset counts
    come from the low-weight enumeration and long codes stay feasible.
    """
    analysis = analysis or CodeAnalysis(code, budget)
    counts = coset_low_weight_counts(code, analysis.table.rho, budget, analysis)
    rows = sorted({tuple(row) for row in counts})
    return solve_rational(rows, [1] * len(rows))


def uniformly_packed_wide(code: LinearCode, budget: Budgets = DEFAULT_BUDGETS) -> bool:
    """True iff the covering radius equals the external distance."""
    analysis = CodeAnalysis(code, budget)
    return analysis.table.rho == len(nonzero_weights(analysis.weight_pair[1]))

