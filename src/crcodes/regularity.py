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
_word_bfs, which moves whole levels at a time as bit sets.  The BFS
counts every coset's (c, b) profile as bit planes too, and decides
complete regularity on them level by level before it drops them, so
the table keeps one byte per syndrome.

The brute-force check and the radius-1 census recount every syndrome's
profile from the leader weights, through the table's translator (the
split-half tables outside characteristic 2, which only these two
build), and hand the profiles in syndrome order to _scan_cosets, which
picks each level's reference profile and the first conflict in
increasing syndrome order, as the BFS's scan does: all three name the
same witness.

The uniform packing coefficients need no vector or coset enumeration:
beta_solve solves for them from rho and the dual weights alone.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import NamedTuple

from .budgets import DEFAULT_BUDGETS, Budgets
from .codes import LinearCode, _krawtchouk, nonzero_weights, weight_pair
from .field import _add_digitwise, _base_digits, _from_base
from .matrix import solve_rational


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
    """Leader weights of a code's cosets, and whether every level of its
    syndrome graph has one (c, b) profile, from one BFS.

    step[j][beta] is the syndrome of beta*e_j (step[j][0] is 0).
    leader_weight[s] is the weight of a coset leader for syndrome s (the
    distance of the coset from the code), and rho is the covering
    radius.  The (c, b) profile of coset s counts, with multiplicity,
    the steps beta*e_j (beta != 0) that take s one level down and one
    level up.  witness is the first pair of cosets at one level whose
    profiles differ, taken as _scan_cosets takes it.  When there is
    none, witness is None and level_profiles[l] is the one profile of
    level l; otherwise level_profiles is None.

    SyndromeTable(code) reads the field, m = n - k and the step rows off
    the code's parity check; from_steps(field, m, step) is given them.
    Both run one build.  The leader weights and rho depend only on the
    set of steps of the syndrome graph Cay(GF(q)^m, {beta*h_j}), and the
    profiles only on their multiset: the BFS adds each distinct step
    once per row that holds it, so the counts are linear in the
    multiplicities.  Step rows of any parity check with the same steps
    give the same table.

    The BFS is _word_bfs.  The table keeps one byte of leader weight per
    syndrome; while the BFS runs it holds about two more, the profiles
    and the levels bit-sliced and three level sets.

    translator(steps) gives s + d for every step d at once.  In
    characteristic 2 that is s ^ d.  Otherwise every distinct step d has
    a pair of split-half translation tables of q^ceil(m/2) entries, so
    that s + d is lo[s % Q] + hi[s // Q] with Q = q^ceil(m/2).  They are
    built the first time translator is called, which only the brute
    force and the radius-1 census's recount do; the build never reads
    them.
    """

    __slots__ = (
        "field", "m", "size", "step", "_halves", "leader_weight", "rho",
        "level_profiles", "witness",
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
        self._halves = None
        mult = Counter(d for row in step for d in row[1:] if d)
        (self.leader_weight, self.rho, self.level_profiles,
         self.witness) = _word_bfs(f.p, m * f.r, mult)

    def _split_halves(self):
        """(Q, {d: (lo, hi)}) for every distinct step d, built on first use."""
        if self._halves is None:
            p = self.field.p
            Q = self.field.q ** ((self.m + 1) // 2)
            hi_size = self.size // Q
            halves = {}
            for row in self.step:
                for d in row:
                    if d not in halves:
                        lo, hi = d % Q, d // Q
                        halves[d] = (
                            [_add_digitwise(x, lo, p) for x in range(Q)],
                            [_add_digitwise(y, hi, p) * Q for y in range(hi_size)],
                        )
            self._halves = Q, halves
        return self._halves

    def translator(self, steps):
        """A function taking a syndrome s to the list [s + d for d in steps]."""
        if self.field.p == 2:
            return lambda s: [s ^ d for d in steps]
        Q, halves = self._split_halves()
        pairs = [halves[d] for d in steps]

        def translate(s):
            s_lo, s_hi = s % Q, s // Q
            return [lo[s_lo] + hi[s_hi] for lo, hi in pairs]

        return translate


def _word_bfs(p: int, digits: int, mult: Counter):
    """The syndrome BFS on whole levels: (leader_weight, rho,
    level_profiles, witness), as SyndromeTable keeps them, for the
    syndromes 0..p^digits - 1 under the steps d of mult, each taken
    mult[d] times.

    A set of syndromes is a list of chunk ints: bit s % C of chunk s // C
    is set for each member s, with C = p^low.  Adding a step d to every
    member goes one nonzero base-p digit a of d at a time.  Inside a
    chunk, the members whose digit h (of weight w = p^h) is below p - a
    move up by a*w and the rest wrap down by (p - a)*w: two masked
    shifts, read from the table shifts[h][a].  The digits from `low` on
    name the chunk, so they only reorder the list.  One code path serves
    every p.

    Each level L is translated once by every step d.  With `seen` the
    levels up to L and `before` the level below L:

        (L + d) - seen is where d leads up from L: it joins the next
            level, and mult[d] is added to c there;
        (L + d) & before is where -d leads up into L: -d is a step as
            often as d, so mult[d] is added to b there.

    A last pass over the top level finishes b on the level below it.
    The level numbers (at most m <= digits) and the counts are
    bit-sliced, planes[i][j] holding bit j of the values in chunk i.

    Once a level's counts are final, _level_witness scans them on the
    planes, until a level has two profiles.  Then the count planes are
    dropped and _unpacked writes the leader weights into one bytearray.
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

    moves = [(k, *plan(d)) for d, k in mult.items()]
    count_bits = sum(mult.values()).bit_length()
    c_planes = [[0] * count_bits for _ in range(chunks)]
    b_planes = [[0] * count_bits for _ in range(chunks)]
    lw_planes = [[0] * digits.bit_length() for _ in range(chunks)]
    level = [1] + [0] * (chunks - 1)
    seen = level
    before = [0] * chunks
    reached = 1
    rho = 0
    profiles = []  # each scanned level's reference profile
    witness = None
    while True:
        nxt = [0] * chunks
        for k, digit_shifts, src in moves:
            # one chunk of L + d at a time, into chunk j
            for j, i in enumerate(src):
                x = level[i]
                if not x:
                    continue
                for keep, up, down, wrap in digit_shifts:
                    x = ((x & keep) << up) | ((x >> down) & wrap)
                new = x & ~seen[j]
                if new:
                    nxt[j] |= new
                    _add_bitsliced(c_planes[j], new, k)
                x &= before[j]
                if x:
                    _add_bitsliced(b_planes[j], x, k)
        if rho and witness is None:
            # c and b are final on the level below L
            witness = _level_witness(
                before, rho - 1, C, c_planes, b_planes, profiles
            )
        found = sum(x.bit_count() for x in nxt)
        if not found:
            break
        rho += 1
        for planes, x in zip(lw_planes, nxt):
            for j in range(rho.bit_length()):
                if rho >> j & 1:
                    planes[j] |= x
        seen = [x | y for x, y in zip(seen, nxt)]
        before, level = level, nxt
        reached += found
    if reached < size:
        # cannot happen for a full-rank parity check
        raise RuntimeError("syndrome graph is not connected")
    if witness is None:
        witness = _level_witness(level, rho, C, c_planes, b_planes, profiles)
    # free the level sets, the shift table and the count planes before
    # the output array
    del level, before, seen, moves, shifts, c_planes, b_planes
    lw = _unpacked(lw_planes, C, bytearray(size))
    return lw, rho, None if witness else profiles, witness


def _level_witness(
    members: list, level: int, C: int, c_planes, b_planes, profiles: list
):
    """The witness of a level, read off the count planes, or None after
    its reference profile is appended to profiles.

    members is the level's set of syndromes, as chunk ints.  Its lowest
    syndrome is the reference, and the (c, b) profiles of a chunk's
    members differ from the reference's exactly where some plane's bit
    differs from the reference's bit j: members & plane where that bit
    is 0, and members & ~plane where it is 1.  The lowest set bit of
    the OR of these, in the first chunk that has one, is the lowest
    syndrome at the level that differs, the one _scan_cosets takes."""

    def profile(i: int, bit: int) -> tuple[int, int]:
        return tuple(
            sum((plane >> bit & 1) << j for j, plane in enumerate(planes[i]))
            for planes in (c_planes, b_planes)
        )

    first = next(i for i, x in enumerate(members) if x)
    ref_bit = (members[first] & -members[first]).bit_length() - 1
    ref = profile(first, ref_bit)
    for i in range(first, len(members)):
        x = members[i]
        if not x:
            continue
        bad = 0
        for planes, value in zip((c_planes[i], b_planes[i]), ref):
            for j, plane in enumerate(planes):
                bad |= x & ~plane if value >> j & 1 else x & plane
        if bad:
            bit = (bad & -bad).bit_length() - 1
            return Witness(
                level, first * C + ref_bit, i * C + bit, ref, profile(i, bit)
            )
    profiles.append(ref)
    return None


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


def _add_bitsliced(planes: list[int], members: int, k: int) -> None:
    """Add k to the bit-sliced counts of one chunk (planes[j] is bit j)
    at every member of the set, by ripple carry.  No count outgrows the
    planes: each is at most the total multiplicity they were sized for."""
    j = 0
    while k:
        if k & 1:
            carry = members
            i = j
            while carry:
                plane = planes[i]
                planes[i] = plane ^ carry
                carry &= plane
                i += 1
        k >>= 1
        j += 1


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


class Witness(NamedTuple):
    """Two cosets at the same distance from the code whose neighbor
    profiles (c, b) differ; the smallest such pair at the lowest level."""

    level: int
    syndrome_a: int
    syndrome_b: int
    profile_a: tuple[int, int]
    profile_b: tuple[int, int]


class RegularityReport(NamedTuple):
    is_completely_regular: bool
    rho: int
    array: IntersectionArray | None
    witness: Witness | None


def _scan_cosets(q, n, leader_weight, profiles) -> RegularityReport:
    """The report from each syndrome's leader weight and (c, b) profile,
    both indexed by syndrome.  Each level's profile at its lowest
    syndrome is its reference; the witness pairs it with the lowest
    syndrome whose profile differs, at the lowest level that has one,
    and with none the references give the array."""
    rho = max(leader_weight)
    first: list = [None] * (rho + 1)
    conflicts: list = [None] * (rho + 1)
    for s, (level, profile) in enumerate(zip(leader_weight, profiles)):
        ref = first[level]
        if ref is None:
            first[level] = (s, profile)
        elif conflicts[level] is None and profile != ref[1]:
            conflicts[level] = (s, profile)
    for level, bad in enumerate(conflicts):
        if bad is not None:
            (ref_s, ref_profile), (bad_s, bad_profile) = first[level], bad
            witness = Witness(level, ref_s, bad_s, ref_profile, bad_profile)
            return _report(q, n, rho, None, witness)
    return _report(q, n, rho, [profile for _, profile in first], None)


def _report(q, n, rho, profiles, witness) -> RegularityReport:
    """The report of a scan: the witness if there is one, and otherwise
    the array read off each level's profile."""
    if witness is not None:
        return RegularityReport(False, rho, None, witness)
    b = [b for _, b in profiles[:-1]]
    c = [c for c, _ in profiles[1:]]
    return RegularityReport(
        True, rho, IntersectionArray.from_levels(q, n, b, c), None
    )


def complete_regularity(
    code: LinearCode,
    budget: Budgets = DEFAULT_BUDGETS,
    analysis: CodeAnalysis | None = None,
) -> RegularityReport:
    """Decide complete regularity from each coset's (c, b) profile.

    The syndrome table's BFS counts the profiles and, level by level,
    compares each with its level's lowest syndrome's, which is exactly
    the defining condition; this reads the outcome off the table.
    Callers holding a CodeAnalysis read its cached `report` rather than
    deciding again.
    """
    st = analysis.table if analysis else SyndromeTable(code, budget)
    return _report(code.field.q, code.n, st.rho, st.level_profiles, st.witness)


def _recount(st: SyndromeTable, steps):
    """The function taking a syndrome s to its (c, b) profile under
    `steps`, recounted from the table's leader weights: how many s + d
    lie one level below s, and how many one level above."""
    lw = st.leader_weight
    neighbors = st.translator(steps)

    def profile(s: int) -> tuple[int, int]:
        level = lw[s]
        levels = [lw[t] for t in neighbors(s)]
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
    coset share one profile, and every syndrome is some vector's.  Each
    of the q^m profiles is recounted from the leader weights by _recount,
    the one recount, which the radius-1 census shares, and _scan_cosets
    compares them in increasing syndrome order.  The table's own verdict,
    which its BFS reached on its (c, b) counts, is never read, so this
    checks it.  The max_vectors budget counts the q^n vectors the check
    covers.
    """
    q, n = code.field.q, code.n
    budget.require("max_vectors", q**n)
    st = analysis.table if analysis else SyndromeTable(code, budget)
    profile = _recount(st, [d for row in st.step for d in row[1:]])
    return _scan_cosets(q, n, st.leader_weight, map(profile, range(st.size)))


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

    The system is solved from the dual weights.  alpha_k is the
    convolution of the code's indicator with that of the weight-k
    sphere.  Over the characters u of GF(q)^n the first transforms to
    |C| on the dual code and 0 off it, the second to K_k(wt u), the
    Krawtchouk polynomial, and the constant 1 to q^n at u = 0 only.
    Divided by |C| = q^(n-m), the condition holds exactly when
    sum_k beta_k K_k(0) = q^m and sum_k beta_k K_k(w) = 0 at each of
    the s nonzero dual weights w.
    K_k has degree k in w, so P = sum_k beta_k K_k has degree at most
    rho.  If rho < s, P vanishes at s distinct points, so P = 0 and
    P(0) = q^m fails: there is no solution.  At rho = s (Delsarte:
    rho <= s) the s + 1 rows, at distinct w, form a nonsingular square
    system, which has exactly one solution.
    """
    analysis = analysis or CodeAnalysis(code, budget)
    rho = analysis.table.rho
    q, n = code.field.q, code.n
    dual_weights = nonzero_weights(analysis.weight_pair[1])
    rows = [
        [_krawtchouk(q, n, k, w) for k in range(rho + 1)]
        for w in (0, *dual_weights)
    ]
    return solve_rational(rows, [q**code.redundancy] + [0] * len(dual_weights))
