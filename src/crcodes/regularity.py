"""Coset geometry of a linear code: syndrome table, covering radius,
complete regularity, and the wide-sense uniform packing test.

CodeAnalysis holds what several of these checks read about one code (the
weight pair, the syndrome table and the regularity report), so that an
analysis that passes it along computes each of them once.

Syndromes are encoded as mixed-radix integers with coordinate 0 least
significant.  Since field elements are themselves base-p encodings, the
whole syndrome code is the base-p encoding of the concatenated digit
vector, and syndrome addition is digitwise mod p; the codec and the
digitwise adder are the ones field.py uses for field elements.
SyndromeTable adds a step (the syndrome of beta*e_j) as XOR when p = 2,
and for odd p through a pair of split-half translation tables per
distinct step, each of q^ceil(m/2) entries, built with that adder.
Nothing of length q^m is kept per step: the table holds five bytes per
syndrome, its leader weight and its (c, b) profile, which one BFS finds
together.

The exhaustive passes over all q^n ambient vectors walk syndromes only,
with the odometer of codes.py stepping by one table addition per
vector.  complete_regularity and its brute-force check differ only in
where each coset's profile comes from; both hand (syndrome, level,
profile) triples to one scan that picks each level's reference profile
and the first conflict.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import comb
from operator import xor

from .budgets import DEFAULT_BUDGETS, Budgets
from .codes import LinearCode, nonzero_weights, odometer, weight_pair
from .field import _add_digitwise, _base_digits, _from_base
from .matrix import solve_rational


def encode_vector(q: int, vec) -> int:
    """The base-q code of vec, coordinate 0 least significant."""
    return _from_base(tuple(vec), q)


def decode_vector(q: int, code: int, length: int) -> tuple[int, ...]:
    return _base_digits(code, q, length)


_UNSEEN = 0xFF  # leader_weight of a syndrome the BFS has not reached


class SyndromeTable:
    """Leader weights and coset profiles of a code, from one BFS over its
    syndrome graph.

    step[j][beta] is the syndrome of beta*e_j (step[j][0] is 0).
    leader_weight[s] is the weight of a coset leader for syndrome s (the
    distance of the coset from the code), and rho is the covering
    radius.  c[s] and b[s] count, with multiplicity, the steps beta*e_j
    (beta != 0) that take s one level down and one level up: the (c, b)
    profile of coset s.

    add(s, d) is s + d for a step d.  In characteristic 2 that is s ^ d.
    Otherwise every distinct step d keeps a pair of split-half
    translation tables of q^ceil(m/2) entries, so that s + d is
    lo[s % Q] + hi[s // Q] with Q = q^ceil(m/2).  Nothing of length q^m
    is kept per step: a syndrome costs one byte of leader weight and two
    profile counts (two bytes each while n(q-1) < 2^16), five bytes in
    all, and the BFS walks each level by searching leader_weight, so it
    keeps no frontier list.
    """

    __slots__ = (
        "code", "size", "step", "add", "_halves", "_split",
        "leader_weight", "c", "b", "rho",
    )

    def __init__(self, code: LinearCode, budget: Budgets = DEFAULT_BUDGETS):
        f = code.field
        q, n = f.q, code.n
        m = code.redundancy
        size = q**m
        budget.require("max_syndromes", size)
        self.code = code
        self.size = size
        mul = f.mul
        self.step = [
            [0]
            + [_from_base([mul(beta, x) for x in col], q) for beta in range(1, q)]
            for col in code.H.columns()
        ]
        if f.p == 2:
            self.add = xor
            self._halves = None
        else:
            p = f.p
            Q = self._split = q ** ((m + 1) // 2)
            hi_size = size // Q
            halves = self._halves = {}
            for row in self.step:
                for d in row:
                    if d not in halves:
                        lo, hi = d % Q, d // Q
                        halves[d] = (
                            [_add_digitwise(x, lo, p) for x in range(Q)],
                            [_add_digitwise(y, hi, p) * Q for y in range(hi_size)],
                        )

            def add(s: int, d: int) -> int:
                lo, hi = halves[d]
                return lo[s % Q] + hi[s // Q]

            self.add = add

        mult = Counter(d for row in self.step for d in row[1:] if d)
        moves = list(mult)
        weights = list(mult.values())
        targets = self.translator(moves)
        counts = array("H" if n * (q - 1) < 1 << 16 else "I", [0])
        lw = bytearray([_UNSEEN]) * size
        c = counts * size
        b = counts * size
        lw[0] = 0
        level = 0
        reached = 1
        while reached < size:
            up = level + 1
            found = 0
            s = lw.find(level)
            while s >= 0:
                out = 0
                for t, k in zip(targets(s), weights):
                    lv = lw[t]
                    if lv == _UNSEEN:
                        lw[t] = up
                        found += 1
                    elif lv != up:
                        continue
                    c[t] += k
                    out += k
                b[s] = out
                s = lw.find(level, s + 1)
            if not found:
                # cannot happen for a full-rank parity check
                raise AssertionError("syndrome graph is not connected")
            reached += found
            level = up
        self.leader_weight = lw
        self.c = c
        self.b = b
        self.rho = level

    def translator(self, steps):
        """A function taking a syndrome s to the list [s + d for d in steps]."""
        if self._halves is None:
            return lambda s: [s ^ d for d in steps]
        Q = self._split
        pairs = [self._halves[d] for d in steps]

        def translate(s):
            s_lo, s_hi = s % Q, s // Q
            return [lo[s_lo] + hi[s_hi] for lo, hi in pairs]

        return translate


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


def _scan_cosets(q, n, rho, cosets) -> RegularityReport:
    """The report from (syndrome, level, profile) triples in visiting
    order.  Each level's first profile is its reference; the witness
    pairs it with the first differing profile at the lowest level that
    has one, and with none the references give the array."""
    first: list = [None] * (rho + 1)
    conflicts: list = [None] * (rho + 1)
    for s, level, profile in cosets:
        ref = first[level]
        if ref is None:
            first[level] = (s, profile)
        elif conflicts[level] is None and profile != ref[1]:
            conflicts[level] = (s, profile)
    for level, bad in enumerate(conflicts):
        if bad is not None:
            (ref_s, ref_profile), (bad_s, bad_profile) = first[level], bad
            return RegularityReport(
                False,
                rho,
                None,
                Witness(level, ref_s, bad_s, ref_profile, bad_profile),
            )
    b = [first[l][1][1] for l in range(rho)]
    c = [first[l][1][0] for l in range(1, rho + 1)]
    return RegularityReport(
        True, rho, IntersectionArray.from_levels(q, n, b, c), None
    )


def complete_regularity(
    code: LinearCode,
    budget: Budgets = DEFAULT_BUDGETS,
    analysis: CodeAnalysis | None = None,
) -> RegularityReport:
    """Decide complete regularity from each coset's (c, b) profile.

    The syndrome table counts the profiles during its BFS, so this is one
    pass over them in increasing syndrome order; constancy across each
    level is exactly the defining condition.  Callers holding a
    CodeAnalysis read its cached `report` rather than scanning again.
    """
    st = analysis.table if analysis else SyndromeTable(code, budget)
    cosets = zip(range(st.size), st.leader_weight, zip(st.c, st.b))
    return _scan_cosets(code.field.q, code.n, st.rho, cosets)


def _ambient_steps(st: SyndromeTable) -> list[list[int]]:
    """The odometer increments that walk the ambient space by syndrome:
    entry [j][a] turns coordinate j from a into (a + 1) % q."""
    f = st.code.field
    q = f.q
    deltas = [f.sub((a + 1) % q, a) for a in range(q)]
    return [[row[d] for d in deltas] for row in st.step]


def complete_regularity_bruteforce(
    code: LinearCode,
    budget: Budgets = DEFAULT_BUDGETS,
    analysis: CodeAnalysis | None = None,
) -> RegularityReport:
    """Independent check of the definition: every vector v at distance i
    from the code has the same number c_i of neighbors v + beta*e_j at
    distance i - 1 and b_i at distance i + 1.

    The walk visits the syndromes of all q^n vectors in odometer order
    (coordinate 0 fastest) and takes each one's distance as the leader
    weight of its syndrome.  The profile is recounted from those leader
    weights over the n(q-1) neighbor syndromes s + step[j][beta]; the
    (c, b) counts the table's BFS keeps are never read, so this checks
    them.

    The neighbor syndromes of v depend only on the syndrome s of v, so
    the profile is counted once per syndrome, at the first vector that
    reaches it: q^m profiles for q^n vectors.  Skipping a later vector
    of the same coset is exact, because its level's first profile was
    taken at or before that first visit, and comparing the same profile
    against the same reference again can add neither a first profile
    nor a conflict.  The report, witness syndromes included, is the one
    a count at every vector gives.
    """
    q, n = code.field.q, code.n
    total = q**n
    budget.require("max_vectors", total)
    st = analysis.table if analysis else SyndromeTable(code, budget)
    lw = st.leader_weight
    neighbors = st.translator([d for row in st.step for d in row[1:]])
    seen = bytearray(st.size)

    def first_visits():
        for s in odometer(0, _ambient_steps(st), st.add):
            if not seen[s]:
                seen[s] = 1
                level = lw[s]
                levels = [lw[t] for t in neighbors(s)]
                yield s, level, (levels.count(level - 1), levels.count(level + 1))

    return _scan_cosets(q, n, st.rho, first_visits())


def coset_weight_counts(
    code: LinearCode, budget: Budgets = DEFAULT_BUDGETS
) -> list[list[int]]:
    """counts[s][w] = number of ambient vectors of weight w with syndrome
    s, accumulated in one pass over all q^n vectors.  Row s is also the
    distance distribution of any vector in coset s to the code."""
    q, n = code.field.q, code.n
    total = q**n
    budget.require("max_vectors", total)
    st = SyndromeTable(code, budget)
    # a coordinate's weight rises as its digit leaves 0 and falls as it wraps
    weight_steps = [[1] + [0] * (q - 2) + [-1]] * n
    counts = [[0] * (n + 1) for _ in range(st.size)]
    syndromes = odometer(0, _ambient_steps(st), st.add)
    for s, w in zip(syndromes, odometer(0, weight_steps, int.__add__)):
        counts[s][w] += 1
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
    budget.require("max_vectors", total)
    st = analysis.table if analysis else SyndromeTable(code, budget)
    add = st.add
    step = st.step
    counts = [[0] * (wmax + 1) for _ in range(st.size)]
    counts[0][0] = 1
    for w in range(1, wmax + 1):
        for support in combinations(range(n), w):
            for values in product(range(1, q), repeat=w):
                s = 0
                for j, beta in zip(support, values):
                    s = add(s, step[j][beta])
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

