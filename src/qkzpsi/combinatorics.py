"""Diagram and tableau combinatorics of the weight data (k, lambda, m).

Entries of Psi are labelled by subset sequences (S_1, ..., S_N) with
|S_i| = m_i, and irreducible components by the column-strict tableaux of
shape lambda.  One depth-first walk over subset sequences lists both:
``content_labels`` prunes it by the slots left, ``enumerate_tableaux`` by
the rule that the rows filled so far form a partition shape, and reads
row r of the tableau off the S_i that contain r; ``phi_map`` is the
inverse of that reading.  The module also holds tableau promotion and the
rotation operators, and the Jordan-chain labelling of points.
``gauss_jordan`` is the package's one elimination over Q: the ranks of the
labelling and the exchange solve of ``rmatrix`` go through it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, combinations
from math import lcm


class CombinatoricsError(Exception):
    pass


def inversions(seq):
    """Number of pairs i < j with seq[i] > seq[j].

    Its parity is the sign of the permutation that sorts seq:
    ``(-1) ** inversions(seq)``.
    """
    return sum(x > y for i, x in enumerate(seq) for y in seq[i + 1:])


def gauss_jordan(rows, n):
    """Reduce rows of rationals in place on their first n columns.

    Returns (pivots, det): pivots[j] indexes the row that pivots column j,
    None for a column with no pivot, so the rank is the number of pivots.
    Each pivot row is scaled to 1 at its pivot and cleared from every other
    row, so with n rows that all pivot, row pivots[j] ends up holding x_j of
    each right-hand side in the columns after n.  det is the determinant of
    the first n columns of n rows, signed by the inversions of pivots; it
    is 0 unless every column pivots.
    """
    pivots = []
    det = Fraction(1)
    free = list(range(len(rows)))
    for j in range(n):
        p = next((r for r in free if rows[r][j]), None)
        pivots.append(p)
        if p is None:
            det = 0
            continue
        free.remove(p)
        piv = Fraction(rows[p][j])
        det *= piv
        rows[p] = prow = [x / piv for x in rows[p]]
        for r, row in enumerate(rows):
            f = row[j]
            if f and r != p:
                rows[r] = [a - f * b for a, b in zip(row, prow)]
    return pivots, -det if det and inversions(pivots) % 2 else det


# -- subset sequences and tableaux ------------------------------------------


class Tableau(namedtuple("Tableau", "rows")):
    """Filling of the diagram of lam, one letter per box; ``rows`` is a
    tuple of tuples of letters.

    Rows are strictly increasing left to right, columns weakly increasing
    top to bottom (the conjugate of a semistandard tableau); letter i is
    used m_i times.
    """

    __slots__ = ()

    def __new__(cls, rows):
        for r in rows:
            for a, b in zip(r, r[1:]):
                if a >= b:
                    raise CombinatoricsError(f"row {r} is not strictly increasing")
        for ri in range(1, len(rows)):
            upper, lower = rows[ri - 1], rows[ri]
            if len(lower) > len(upper):
                raise CombinatoricsError("row lengths must weakly decrease")
            for c, x in enumerate(lower):
                if upper[c] > x:
                    raise CombinatoricsError(
                        f"column {c + 1} not weakly increasing at rows {ri},{ri + 1}"
                    )
        return super().__new__(cls, rows)

    @property
    def shape(self):
        return tuple(len(r) for r in self.rows)

    def reading_word(self):
        return tuple(x for r in self.rows for x in r)

    def transpose(self):
        """Rows of the conjugate filling (a genuine semistandard tableau)."""
        shape = self.shape
        if not shape:
            return ()
        cols = []
        for c in range(shape[0]):
            cols.append(tuple(r[c] for r in self.rows if len(r) > c))
        return tuple(cols)

    @staticmethod
    def from_transpose(cols):
        nrows = max((len(c) for c in cols), default=0)
        rows = []
        for r in range(nrows):
            rows.append(tuple(c[r] for c in cols if len(c) > r))
        return Tableau(tuple(rows))

    def __str__(self):
        return " / ".join("".join(str(x) for x in r) for r in self.rows)


def _subset_sequences(lam, m, fits):
    """Every (S_1, ..., S_N) with |S_i| = m_i and letter a in lam_a of the
    S_i, in increasing order.

    A depth-first walk: each S_i is picked by ``combinations`` from the
    letters with uses left, and a prefix is extended only while
    ``fits(remaining, slots_left)`` holds, where remaining[a - 1] counts the
    uses of letter a still left and slots_left the S_i still to pick.
    """
    out, acc = [], []

    def walk(remaining, slot):
        if slot == len(m):
            out.append(tuple(acc))
            return
        left = len(m) - slot - 1
        letters = [a for a, r in enumerate(remaining, start=1) if r]
        for S in combinations(letters, m[slot]):
            rest = remaining[:]
            for a in S:
                rest[a - 1] -= 1
            if fits(rest, left):
                acc.append(S)
                walk(rest, slot + 1)
                acc.pop()

    walk(list(lam), 0)
    return out


def content_labels(lam, m):
    """All subset sequences with |S_i| = m_i and letter a used lam_a times,
    in increasing order: the labels of the entries of Psi."""
    if sum(lam) != sum(m):
        return []
    # no letter may need more slots than remain
    return _subset_sequences(lam, m, lambda rest, slots: max(rest) <= slots)


def enumerate_tableaux(lam, m):
    """All tableaux of shape lam with letter i used m_i times, sorted by
    reading word.

    The walk picks S_i, the set of rows that hold letter i, from the rows
    with boxes left; a subset sequence is a tableau exactly when the rows
    filled by letters 1..i have weakly decreasing lengths after every i.
    """
    lam = tuple(x for x in lam if x > 0)
    if sum(lam) != sum(m):
        raise CombinatoricsError("box counts of lam and m differ")
    seqs = _subset_sequences(lam, m, lambda rest, _: all(
        a - x >= b - y for a, x, b, y in zip(lam, rest, lam[1:], rest[1:])))
    tabs = [Tableau(tuple(tuple(i for i, S in enumerate(seq, start=1) if r in S)
                          for r in range(1, len(lam) + 1))) for seq in seqs]
    return sorted(tabs, key=Tableau.reading_word)


def phi_map(t, n):
    """Subset sequence of a tableau in the letters 1..n, the inverse of the
    row reading of ``enumerate_tableaux``: alpha_i = rows containing letter
    i, empty for a letter the tableau does not use."""
    return tuple(tuple(r for r, row in enumerate(t.rows, start=1) if i in row)
                 for i in range(1, n + 1))


# -- promotion and the rotation operator --------------------------------------


def _bender_knuth(cols, i):
    """Bender-Knuth involution t_i on a semistandard tableau (given as rows).

    Swaps the number of free i's and (i+1)'s in every row; an i is bound to
    an i+1 directly below it in the same column and bound pairs stay put.
    """
    rows = [list(r) for r in cols]
    nr = len(rows)
    for ri in range(nr):
        row = rows[ri]
        below = rows[ri + 1] if ri + 1 < nr else []
        above = rows[ri - 1] if ri > 0 else []
        free = []
        for ci, x in enumerate(row):
            if x == i:
                if ci < len(below) and below[ci] == i + 1:
                    continue
                free.append(ci)
            elif x == i + 1:
                if ci < len(above) and above[ci] == i:
                    continue
                free.append(ci)
        if not free:
            continue
        r_count = sum(1 for ci in free if row[ci] == i)
        s_count = len(free) - r_count
        for pos, ci in enumerate(free):
            row[ci] = i if pos < s_count else i + 1
    return tuple(tuple(r) for r in rows)


def promotion(t, m):
    """Tableau promotion for rectangular shapes of full height.

    Realized as the composite of Bender-Knuth involutions t_1, ..., t_{N-1}
    on the conjugate (semistandard) filling; the content rotates from
    (m_1, ..., m_N) to (m_2, ..., m_N, m_1).  Non-rectangular shapes are
    not supported (there is no combinatorial rotation operator for them).
    """
    shape = t.shape
    if len(set(shape)) > 1:
        raise CombinatoricsError("promotion implemented for rectangular shapes only")
    n = len(m)
    cols = t.transpose()
    for i in range(1, n):
        cols = _bender_knuth(cols, i)
    return Tableau.from_transpose(cols)


class SignedPermutationOp:
    """A constant operator: basis label -> (image label, sign)."""

    def __init__(self, basis, mapping, sign=1):
        self.basis = tuple(basis)
        self.mapping = dict(mapping)  # label -> label (the permutation p)
        self.sign = sign
        if set(self.mapping) != set(self.basis) or set(self.mapping.values()) != set(self.basis):
            raise CombinatoricsError("mapping is not a permutation of the basis")

    def apply(self, entries):
        """Apply to a vector given as {label: value}: (rho v)_{p(b)} = sign * v_b."""
        out = {}
        for b_lab, val in entries.items():
            out[self.mapping[b_lab]] = val * self.sign if self.sign != 1 else val
        return out

    def inverse(self):
        inv = {v: k for k, v in self.mapping.items()}
        return SignedPermutationOp(self.basis, inv, self.sign)

    def compose(self, other):
        mapping = {lab: self.mapping[other.mapping[lab]] for lab in self.basis}
        return SignedPermutationOp(self.basis, mapping, self.sign * other.sign)

    def is_identity(self):
        return self.sign == 1 and all(self.mapping[lab] == lab for lab in self.basis)


def epsilon_sign(M, k):
    """The sign (-1)^(M/k - 1) entering the rotation operator for full rectangles."""
    if M % k:
        raise CombinatoricsError("M must be divisible by k for the rectangular case")
    return -1 if (M // k - 1) % 2 else 1


def rho_matrix(basis, m, k):
    """Rotation operator on a component (tableau) basis via promotion.

    rho[a][b] = eps^{m_1} * delta(a, promotion(b)) with eps = (-1)^(M/k-1),
    M = sum(m).
    """
    eps = epsilon_sign(sum(m), k)
    sign = eps if m[0] % 2 else 1
    mapping = {}
    for t in basis:
        mapping[t] = promotion(t, m)
    return SignedPermutationOp(tuple(basis), mapping, sign)


def sequence_rotation(basis, m, k):
    """Rotation operator on the standard (subset-sequence) basis.

    Acts by (rho v)_{(S_1..S_N)} = sign * v_{(S_N, S_1, ..., S_{N-1})}, the
    direction of the identity Psi(z_2, ..., z_N, z_1 + (k+1) hb) = rho Psi(z).
    The scalar is s^{m_1}, where s = eps * (-1)^(M - M/k) is the sign of the
    fundamental case m = (1, ..., 1), in the convention in which the vectors
    are built by exchange propagation: a first group of m_1 fused factors
    rotates as m_1 fundamental ones.  Defined for full-height rectangles
    only: raises CombinatoricsError unless every label of the basis uses
    each of the k letters M/k times, M = sum(m).
    """
    M = sum(m)
    word = [a for a in range(1, k + 1) for _ in range(M // k)]
    if M % k or any(sorted(a for S in lab for a in S) != word for lab in basis):
        raise CombinatoricsError(f"no rotation: the labels are not of a full-height "
                                 f"rectangle, each of the {k} letters used M/k times")
    s = epsilon_sign(M, k) * (-1 if (M - M // k) % 2 else 1)
    sign = s ** m[0]
    mapping = {}
    for lab in basis:
        mapping[lab] = lab[1:] + (lab[0],)
    return SignedPermutationOp(tuple(basis), mapping, sign)


# -- Jordan chains and point labelling -----------------------------------------


def jordan_type(mat):
    """Jordan type of a nilpotent rational matrix, as a decreasing partition.

    With r_p the rank of mat^p, r_{p-1} - r_p Jordan blocks have size at
    least p, so those differences are the conjugate Jordan type.  The
    matrix is scaled to integer entries first, which keeps every rank, so
    the powers are products of ints.
    """
    n = len(mat)
    scale = lcm(*(Fraction(x).denominator for row in mat for x in row))
    a = [[int(x * scale) for x in row] for row in mat]
    cols = list(zip(*a))
    power, ranks = a, [n]
    while ranks[-1]:
        if len(ranks) > n:
            raise CombinatoricsError("matrix is not nilpotent")
        pivots, _ = gauss_jordan([row[:] for row in power], n)
        ranks.append(n - pivots.count(None))
        power = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in power]
    return conjugate_partition([r - s for r, s in zip(ranks, ranks[1:])])


def conjugate_partition(p):
    p = tuple(x for x in p if x > 0)
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= c) for c in range(1, p[0] + 1))


def partition_dominance_leq(p, q):
    """p <= q in dominance order (partial sums)."""
    if sum(p) != sum(q):
        return False
    sp = sq = 0
    for t in range(max(len(p), len(q))):
        sp += p[t] if t < len(p) else 0
        sq += q[t] if t < len(q) else 0
        if sp > sq:
            return False
    return True


def chain_dominance_leq(a, b):
    """Chainwise dominance: every Jordan type of chain a at or below b's."""
    return len(a) == len(b) and all(map(partition_dominance_leq, a, b))


def label_of_tableau(t, n):
    """The chain of Jordan types, a tuple of partitions, that a generic point
    of the tableau's component has, in the letters 1..n: its h-th entry is
    the conjugate of the shape that letters 1..h fill, so a letter the
    tableau does not use repeats the entry before it."""
    return tuple(conjugate_partition([sum(x <= h for x in r) for r in t.rows])
                 for h in range(1, n + 1))


def spaltenstein_label(X, m):
    """Label a nilpotent M x M matrix by its chain of principal Jordan types.

    The chain is a tuple of partitions; its h-th entry is the Jordan type
    of the upper-left block of size m_1 + ... + m_h.  For a generic point
    of a component it equals ``label_of_tableau`` of the component's
    tableau.
    """
    if sum(m) != len(X):
        raise CombinatoricsError("matrix size must equal sum(m)")
    return tuple(jordan_type([row[:size] for row in X[:size]]) for size in accumulate(m))
