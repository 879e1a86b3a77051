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

SyndromeTable finds each syndrome's leader weight in one BFS,
_word_bfs, which moves whole levels at a time as bit sets and keeps only
the level sets and the leader weights, bit-sliced until it writes them
out one byte per syndrome.  It also keeps the covering radius rho and
the size of the top level.

complete_regularity reads the weight pair first.  By Delsarte's theorem
a code with no nonzero word, or whose minimum weight d is at least
2s - 1 for s nonzero dual weights, is completely regular with rho = s,
and spectral_array reads its intersection array off the dual weights:
no table is built.  Any other code is decided from the table's rho and
top level and the dual weights: it is completely regular exactly when
rho = s and the top level is as large as the spectrum allows, and the
same recurrence gives the array.  It stops at the verdict: no profile
is recounted.

_scan_cosets takes each syndrome's (c, b) profile from a function and
decides from them: a code is completely regular exactly when every
level holds one profile, and then those profiles are its array.  Both
callers, the brute-force check and the radius-1 census, hand it
_recount, which recounts a profile from the leader weights when the
scan asks for it.

The uniform packing coefficients need no vector or coset enumeration:
at rho = s they are the Krawtchouk coordinates of the annihilator
polynomial q^m prod_w (1 - x/w) of the s nonzero dual weights, and
beta_solve reads them off in closed form; at rho < s there are none.
"""

from __future__ import annotations

from functools import cached_property
from math import comb
from typing import NamedTuple

from .budgets import DEFAULT_BUDGETS, Budgets
from .codes import LinearCode, _krawtchouk_values, nonzero_weights, weight_pair
from .field import _add_digitwise, _base_digits, _from_base


def _column_steps(field, columns):
    """Yield the step row [0] + [the syndrome of beta*col for beta != 0]
    of each parity column col, built once per distinct column."""
    q, mul = field.q, field.mul
    rows = {}
    for col in columns:
        if col not in rows:
            steps = [_from_base([mul(b, x) for x in col], q) for b in range(1, q)]
            rows[col] = [0] + steps
        yield rows[col]


# The word-parallel BFS holds a set of syndromes as chunk ints of about
# this many bits, so that the masks and every temporary are one chunk
# long however large the table.  A chunk is the largest power of p that
# fits (at least p), so the digits above a chunk only permute the chunks.
_CHUNK_BITS = 1 << 16


class SyndromeTable:
    """Leader weights of a code's cosets, from one BFS.

    step[j][beta] is the syndrome of beta*e_j (step[j][0] is 0).
    leader_weight[s] is the weight of a coset leader for syndrome s (the
    distance of the coset from the code), rho is the covering radius and
    top_level_size the number of syndromes at distance rho.

    SyndromeTable(code) reads the field, m = n - k and the step rows off
    the code's parity check; from_steps(field, m, step) is given them.
    Both run one build.  The leader weights depend only on the set of
    steps of the syndrome graph Cay(GF(q)^m, {beta*h_j}), so the BFS
    takes each distinct step once, and step rows of any parity check
    with the same steps give the same table.

    The BFS is _word_bfs.  The table keeps one byte of leader weight per
    syndrome; while the BFS runs it holds three level sets and the
    leader weights bit-sliced, a bit per syndrome for each bit of a
    level number.  It keeps what the build produces and nothing else.
    """

    __slots__ = (
        "field", "m", "size", "step", "leader_weight", "rho", "top_level_size",
    )

    def __init__(self, code: LinearCode, budget: Budgets = DEFAULT_BUDGETS):
        f = code.field
        self._build(f, code.redundancy, _column_steps(f, code.H.columns()), budget)

    @classmethod
    def from_steps(
        cls, field, m: int, step, budget: Budgets = DEFAULT_BUDGETS
    ) -> "SyndromeTable":
        """The table whose step rows are `step`, syndromes of length m."""
        table = cls.__new__(cls)
        table._build(field, m, step, budget)
        return table

    def _build(self, f, m: int, step, budget: Budgets) -> None:
        """The one build: the step rows are read only once the table's
        q^m syndromes are within budget."""
        size = f.q**m
        budget.require("max_syndromes", size)
        self.field = f
        self.m = m
        self.size = size
        self.step = step = list(step)
        steps = {d for row in step for d in row[1:] if d}
        self.leader_weight, self.rho, self.top_level_size = _word_bfs(
            f.p, m * f.r, steps
        )


def _word_bfs(p: int, digits: int, steps):
    """The syndrome BFS on whole levels: (leader_weight, rho,
    top_level_size), as SyndromeTable keeps them, for the syndromes
    0..p^digits - 1 under the set of steps.

    A set of syndromes is a list of chunk ints: bit s % C of chunk s // C
    is set for each member s, with C = p^low.  Adding a step d to every
    member goes one nonzero base-p digit a of d at a time.  Inside a
    chunk, the members whose digit h (of weight w = p^h) is below p - a
    move up by a*w and the rest wrap down by (p - a)*w: two masked
    shifts, read from the table shifts[h][a].  The digits from `low` on
    name the chunk, so they only reorder the list.  One code path serves
    every p.

    Each level is translated once by every step, and what the
    translates reach outside the levels so far is the next level.  The
    level numbers (at most m <= digits) are bit-sliced, planes[i][j]
    holding bit j of the values in chunk i, and _unpacked writes them
    into one bytearray once the level sets are dropped.
    """
    low = digits
    while low > 1 and p**low > _CHUNK_BITS:
        low -= 1
    C = p**low
    chunks = p ** (digits - low)
    size = C * chunks
    full = (1 << C) - 1
    # shifts[h][a]: the two masked shifts that add a to digit h
    shifts = []
    for h in range(low):
        w = p**h
        below = [0]  # below[t]: the positions in a chunk whose digit h is below t
        for t in range(1, p):
            mask = (1 << t * w) - 1
            span = p * w
            # by doubling: dividing a C-bit int would take quadratic time
            while span < C:
                mask |= mask << span
                span <<= 1
            below.append(mask & full)
        shifts.append(
            [None] + [(below[p - a], a * w, (p - a) * w, below[a]) for a in range(1, p)]
        )

    def plan(d: int):
        # the digit shifts and the chunk order that add d to a set
        digits_of_d = _base_digits(d, p, low)
        # the digits above the chunk name chunks: chunk i moves to i + d // C
        src = [0] * chunks
        for i in range(chunks):
            src[_add_digitwise(i, d // C, p)] = i
        return [shifts[h][a] for h, a in enumerate(digits_of_d) if a], src

    moves = [plan(d) for d in steps]
    lw_planes = [[0] * digits.bit_length() for _ in range(chunks)]
    level = [1] + [0] * (chunks - 1)
    unseen = [full ^ 1] + [full] * (chunks - 1)
    rho, top = 0, 1
    while True:
        nxt = [0] * chunks
        for digit_shifts, src in moves:
            # one chunk of L + d at a time, into chunk j
            for j, i in enumerate(src):
                x = level[i]
                if x:
                    for keep, up, down, wrap in digit_shifts:
                        x = ((x & keep) << up) | ((x >> down) & wrap)
                    nxt[j] |= x
        nxt = [x & y for x, y in zip(nxt, unseen)]
        found = sum(x.bit_count() for x in nxt)
        if not found:
            break
        rho += 1
        for planes, x in zip(lw_planes, nxt):
            for j in range(rho.bit_length()):
                if rho >> j & 1:
                    planes[j] |= x
        unseen = [x ^ y for x, y in zip(unseen, nxt)]
        level = nxt
        top = found
    if any(unseen):
        # cannot happen for a full-rank parity check
        raise RuntimeError("syndrome graph is not connected")
    # free the level sets and the shift table before the output array
    del level, nxt, unseen, moves, shifts
    return _unpacked(lw_planes, C, bytearray(size)), rho, top


def _unpacked(planes: list, C: int, out: bytearray) -> bytearray:
    """out, zeroed and of one byte per value, with the bit-sliced values
    of planes (planes[i][j] holding bit j of the C values of chunk i, at
    most 8 planes) written into it, each chunk's planes dropped once
    written.

    format() expands a plane to one ASCII "0" or "1" per value, top value
    first.  Read as a big-endian int, less "0" in every byte, that holds
    the bit of value s in byte s, and a shift moves it to the plane's
    bit in its output byte.  The planes of a chunk are OR-ed and written
    with one slice, so no temporary is longer than a chunk's values."""
    zeros = int.from_bytes(b"0" * C, "big")
    for i, chunk in enumerate(planes):
        acc = 0
        for j, plane in enumerate(chunk):
            if plane:
                chars = int.from_bytes(format(plane, f"0{C}b").encode(), "big")
                acc |= (chars - zeros) << j
        planes[i] = None
        if acc:
            out[i * C:(i + 1) * C] = acc.to_bytes(C, "little")
    return out


def covering_radius(code: LinearCode, budget: Budgets = DEFAULT_BUDGETS) -> int:
    return SyndromeTable(code, budget).rho


class CodeAnalysis:
    """The facts about one code that several checks read, each computed
    on first use and then kept: the weight pair, the syndrome table and
    the regularity report.  The report reads the weight pair first, the
    table only outside Delsarte's bound d >= 2s - 1, and no profile.
    Passing one along as `analysis=` is what shares the work: a function
    given none computes what it needs afresh.  `budget` caps every
    computation made through it.
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


def _analysis_of(code: LinearCode, budget: Budgets, analysis) -> CodeAnalysis:
    """`analysis` when it is one of `code`, or a fresh CodeAnalysis of
    `code` under `budget` when none is given."""
    if analysis is None:
        return CodeAnalysis(code, budget)
    if analysis.code != code:
        raise ValueError("the analysis given is of another code")
    return analysis


class IntersectionArray(NamedTuple):
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


class RegularityReport(NamedTuple):
    """The verdict, rho and, on a completely regular code, the array."""

    is_completely_regular: bool
    rho: int
    array: IntersectionArray | None


def _scan_cosets(q, n, leader_weight, profile) -> RegularityReport:
    """The report from each syndrome's leader weight and its (c, b)
    profile, profile(s).  The syndromes are walked in increasing order,
    each profile asked for once, and the walk stops at the first one
    whose profile differs from the first one met at its level.  If none
    does, each level's one profile gives the array."""
    rho = max(leader_weight)
    first = {}  # level -> the profile of its first syndrome
    for s, level in enumerate(leader_weight):
        got = profile(s)
        if first.setdefault(level, got) != got:
            return RegularityReport(False, rho, None)
    b = [first[i][1] for i in range(rho)]
    c = [first[i][0] for i in range(1, rho + 1)]
    return RegularityReport(True, rho, IntersectionArray.from_levels(q, n, b, c))


def _exact(num: int, den: int) -> int | None:
    """num / den when den divides num, else None."""
    quotient, rest = divmod(num, den)
    return None if rest else quotient


def spectral_array(q: int, n: int, m: int, dual_weights: list[int]):
    """(s, k_s, b, c) of the coset graph of a code with redundancy m and
    dual weight counts [B_0..B_n]: each number an int, or None where it
    is not an integer.

    The coset graph Cay(GF(q)^m, {beta*h_j}) has the eigenvalue
    theta_w = n(q-1) - q*w with multiplicity B_w, so its s + 1 distinct
    eigenvalues are those of the weights w with B_w != 0, s the number
    of nonzero dual weights.  Under <f, g> = sum_w B_w f(theta_w)
    g(theta_w) the Stieltjes recurrence
    r_{i+1} = (x - alpha_i) r_i - beta_i r_{i-1} gives the monic
    orthogonal polynomials r_0..r_s.  With lambda_i = r_i(theta_0) /
    <r_i, r_i>, the predistance polynomials are q^m lambda_i r_i, and
    k_i = q^m lambda_i r_i(theta_0).  By the spectral excess theorem
    (Fiol and Garriga, JCTB 71, 1997; van Dam, Koolen and Tanaka, EJC
    DS22, 2016, section 2) the graph is distance regular, so the code
    completely regular, exactly when its diameter rho is s (Delsarte:
    rho <= s always) and k_s vertices lie at distance s from 0.  Then
    c_{i+1} = lambda_i / lambda_{i+1} and b_i = k_{i+1} c_{i+1} / k_i,
    for i < s, all of them integers.

    The recurrence runs in integers, free of fractions as in Bareiss's
    elimination: with Delta_i the Hankel determinant of the moments
    sum_w B_w theta_w^j (Delta_{-1} = 1), u_i = Delta_{i-1} r_i has
    integer values, Delta_i = <u_i, u_i> / Delta_{i-1}, and
    u_{i+1} = ((Delta_{i-1} Delta_i x - <x u_i, u_i>) u_i
               - Delta_i^2 u_{i-1}) / Delta_{i-1}^2,
    every division exact.  With a_i = u_i(theta_0), which is positive,
    k_s = q^m a_s^2 / (Delta_{s-1} Delta_s),
    b_i = a_{i+1} Delta_{i-1} / (a_i Delta_i) and
    c_{i+1} = a_i Delta_{i+1} / (a_{i+1} Delta_i), each quotient
    checked by _exact.
    """
    points = [
        (n * (q - 1) - q * w, count) for w, count in enumerate(dual_weights) if count
    ]
    s = len(points) - 1
    prev, u = [0] * (s + 1), [1] * (s + 1)
    deltas, a = [1], []  # deltas[i + 1] is Delta_i
    for i in range(s + 1):
        a.append(u[0])  # points[0] is theta_0, of the weight 0
        deltas.append(sum(mu * v * v for (_, mu), v in zip(points, u)) // deltas[i])
        if i < s:
            moment = sum(th * mu * v * v for (th, mu), v in zip(points, u))
            d0, d1 = deltas[i], deltas[i + 1]
            u, prev = [
                ((d0 * d1 * th - moment) * v - d1 * d1 * w) // (d0 * d0)
                for (th, _), v, w in zip(points, u, prev)
            ], u
    b = tuple(
        _exact(a[i + 1] * deltas[i], a[i] * deltas[i + 1]) for i in range(s)
    )
    c = tuple(
        _exact(a[i] * deltas[i + 2], a[i + 1] * deltas[i + 1]) for i in range(s)
    )
    return s, _exact(q**m * a[s] * a[s], deltas[s] * deltas[s + 1]), b, c


def complete_regularity(
    code: LinearCode,
    budget: Budgets = DEFAULT_BUDGETS,
    analysis: CodeAnalysis | None = None,
) -> RegularityReport:
    """Decide complete regularity from the weight pair first.

    A code with no nonzero word, or whose minimum weight d is at least
    2s - 1 for s nonzero dual weights, is completely regular with
    rho = s (Delsarte, "Four fundamental parameters of a code and their
    combinatorial significance", Inform. Control 23, 1973), and its
    array is spectral_array's: no syndrome table is built.  Any other
    code is decided as spectral_array states it: completely regular
    exactly when the table's rho is s and its top level holds k_s
    syndromes; the recurrence, whose cost grows with s, runs only at
    rho = s.  No profile is recounted: complete_regularity_bruteforce
    does that.

    The weight pair and the table come from `analysis` (a fresh
    CodeAnalysis when none is given).  Callers holding a CodeAnalysis
    read its cached `report` rather than deciding again.
    """
    analysis = _analysis_of(code, budget, analysis)
    counts, dual_counts = analysis.weight_pair
    q, n = code.field.q, code.n
    s = len(nonzero_weights(dual_counts))
    weights = nonzero_weights(counts)
    st = analysis.table if weights and weights[0] < 2 * s - 1 else None
    if st is None or st.rho == s:
        _, k_s, b, c = spectral_array(q, n, code.redundancy, dual_counts)
        if st is None or st.top_level_size == k_s:
            if None in b + c:
                raise RuntimeError(f"non-integral intersection numbers {b}; {c}")
            array = IntersectionArray.from_levels(q, n, b, c)
            return RegularityReport(True, s, array)
    return RegularityReport(False, st.rho, None)


def _recount(st: SyndromeTable, steps):
    """The function taking a syndrome s to its (c, b) profile under
    `steps`, recounted from the table's leader weights: how many s + d
    lie one level below s, and how many one level above.

    In characteristic 2, s + d is s ^ d.  Otherwise each distinct step d
    gets a pair of split-half translation tables, so that s + d is
    lo[s % Q] + hi[s // Q] with Q = q^ceil(m/2): two lists of about
    q^(m/2) ints instead of one of q^m."""
    lw, p = st.leader_weight, st.field.p
    if p == 2:
        def profile(s: int) -> tuple[int, int]:
            level = lw[s]
            levels = [lw[s ^ d] for d in steps]
            return levels.count(level - 1), levels.count(level + 1)

        return profile
    Q = st.field.q ** ((st.m + 1) // 2)
    halves = {}
    for d in steps:
        if d not in halves:
            lo, hi = d % Q, d // Q
            halves[d] = (
                [_add_digitwise(x, lo, p) for x in range(Q)],
                [_add_digitwise(y, hi, p) * Q for y in range(st.size // Q)],
            )
    pairs = [halves[d] for d in steps]

    def profile(s: int) -> tuple[int, int]:
        level = lw[s]
        s_hi, s_lo = divmod(s, Q)
        levels = [lw[lo[s_lo] + hi[s_hi]] for lo, hi in pairs]
        return levels.count(level - 1), levels.count(level + 1)

    return profile


def complete_regularity_bruteforce(
    code: LinearCode,
    budget: Budgets = DEFAULT_BUDGETS,
    analysis: CodeAnalysis | None = None,
) -> RegularityReport:
    """Independent check of the definition: every vector v at distance i
    from the code has the same number c_i of neighbors v + beta*e_j at
    distance i - 1 and b_i at distance i + 1.

    The distance of v and the syndromes s + step[j][beta] of its n(q-1)
    neighbors depend only on the syndrome s of v, so the vectors of one
    coset share one profile, and every syndrome is some vector's.  The
    profiles are recounted from the leader weights by _recount and
    compared by _scan_cosets in increasing syndrome order, every one of
    them on a completely regular code.  Neither the dual weights nor the
    spectral verdict of complete_regularity is read, so this checks it.
    The max_vectors budget counts the q^m * n(q-1) neighbours recounted.
    """
    q, n = code.field.q, code.n
    budget.require("max_vectors", q**code.redundancy * n * (q - 1))
    st = _analysis_of(code, budget, analysis).table
    profile = _recount(st, [d for row in st.step for d in row[1:]])
    return _scan_cosets(q, n, st.leader_weight, profile)


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

    They are read off the dual weights and rho, from the regularity
    report (so from the weight pair alone, with no table, on a code
    within Delsarte's bound).  alpha_k is the
    convolution of the code's indicator with that of the weight-k
    sphere.  Over the characters u of GF(q)^n the first transforms to
    |C| on the dual code and 0 off it, the second to K_k(wt u), the
    Krawtchouk polynomial, and the constant 1 to q^n at u = 0 only.
    Divided by |C| = q^(n-m), the condition holds exactly when
    P = sum_k beta_k K_k has P(0) = q^m and P(w) = 0 at each of the s
    nonzero dual weights w.
    K_k has degree k in w, so P has degree at most rho.  If rho < s, P
    vanishes at s distinct points, so P = 0 and P(0) = q^m fails: there
    is no solution.  At rho = s (Delsarte: rho <= s) P is the
    annihilator polynomial q^m prod_w (1 - x/w), and by the
    orthogonality of the K_k under the weights C(n,i)(q-1)^i
    beta_k = sum_i C(n,i)(q-1)^i P(i) K_k(i) / (q^n C(n,k)(q-1)^k).
    The sums run in integers on P(i) prod_w w = q^m prod_w (w - i).
    """
    analysis = _analysis_of(code, budget, analysis)
    rho = analysis.report.rho
    q, n, m = code.field.q, code.n, code.redundancy
    dual_weights = nonzero_weights(analysis.weight_pair[1])
    if rho < len(dual_weights):
        return None
    from fractions import Fraction  # on first use, not with the package

    sums = [0] * (rho + 1)
    for i in range(n + 1):
        scaled = comb(n, i) * (q - 1) ** i * q**m
        for w in dual_weights:
            scaled *= w - i
        if scaled:
            for k, value in enumerate(_krawtchouk_values(q, n, i, rho)):
                sums[k] += scaled * value
    annihilator = 1
    for w in dual_weights:
        annihilator *= w
    return [
        Fraction(total, annihilator * q**n * comb(n, k) * (q - 1) ** k)
        for k, total in enumerate(sums)
    ]
