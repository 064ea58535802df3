"""The one Gauss-Jordan elimination over Q and its three users.

``gauss_jordan`` and ``jordan_type`` are checked against sympy, an
independent implementation: ranks, determinants, reduced rows and solutions
of hypothesis-drawn rational systems (rank-deficient and non-square ones
included), and the ranks of the powers of nilpotent matrices.  The exchange
solves and the label chains of sampled appendix points are pinned to
digests and chains recorded before the solve's interpolation and the
Jordan types went through ``gauss_jordan``.
"""

import hashlib
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qkzpsi.appendix import check_labelling, fixture_psi, sample_component_point
from qkzpsi.combinatorics import (
    CombinatoricsError,
    Tableau,
    gauss_jordan,
    jordan_type,
    label_of_tableau,
    spaltenstein_label,
)
from qkzpsi.qkz import build_psi_fundamental
from qkzpsi.rmatrix import _interpolate, solve_rmatrix_from_exchange

rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.builds(Fraction, st.integers(-5, 5), st.sampled_from([2, 3, 7])),
)


def matrix(draw, nrows, ncols):
    return [[draw(rationals) for _ in range(ncols)] for _ in range(nrows)]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def systems(draw):
    """(rows, n): a nrows x (n + rhs) matrix of rank at most r, the product
    of a nrows x r and an r x (n + rhs) matrix; square systems and the
    largest r are drawn about half the time."""
    n, rhs = draw(st.integers(1, 5)), draw(st.integers(0, 2))
    nrows = draw(st.one_of(st.just(n), st.integers(1, 5)))
    top = min(nrows, n + rhs)
    r = draw(st.one_of(st.just(top), st.integers(0, top)))
    if r == 0:
        return [[Fraction(0)] * (n + rhs) for _ in range(nrows)], n
    return mat_mul(matrix(draw, nrows, r), matrix(draw, r, n + rhs)), n


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in rows])


def to_fraction(x):
    return Fraction(int(x.p), int(x.q))


@settings(max_examples=300, deadline=None)
@given(systems())
def test_gauss_jordan_matches_sympy(case):
    rows, n = case
    M = to_sympy(rows)
    A, B = M[:, :n], M[:, n:]
    reduced = [row[:] for row in rows]
    pivots, det = gauss_jordan(reduced, n)
    pivoted = [j for j, p in enumerate(pivots) if p is not None]
    rref, sympy_pivots = A.rref()
    # rank, the pivot columns and the reduced rows of the first n columns
    assert len(pivoted) == A.rank()
    assert tuple(pivoted) == sympy_pivots
    for t, j in enumerate(pivoted):
        assert reduced[pivots[j]][:n] == [to_fraction(x) for x in rref.row(t)]
    # the determinant of a square system, 0 unless every column pivots
    if len(pivoted) < n:
        assert det == 0
    elif len(rows) == n:
        assert det == to_fraction(A.det())
    # the solution of each right-hand side, when it is unique
    if len(pivoted) == n and B.cols and sympy.Matrix.hstack(A, B).rank() == n:
        solution, _ = A.gauss_jordan_solve(B)
        for j, p in enumerate(pivots):
            assert reduced[p][n:] == [to_fraction(x) for x in solution.row(j)]


@st.composite
def unimodular(draw, size):
    """An integer matrix of determinant 1, and its integer inverse: a
    product of a unit lower and a unit upper triangular matrix."""
    small = st.integers(-2, 2)
    lower = [[draw(small) if j < i else int(i == j) for j in range(size)] for i in range(size)]
    upper = [[draw(small) if j > i else int(i == j) for j in range(size)] for i in range(size)]
    P = sympy.Matrix(lower) * sympy.Matrix(upper)
    return P, P.inv()


@st.composite
def conjugated_triangular(draw, shift=False):
    """P U P^-1 for a strictly upper-triangular rational U (with a nonzero
    diagonal entry when ``shift``) and a unimodular integer P."""
    size = draw(st.integers(1, 6))
    U = [[draw(rationals) if j > i else Fraction(0) for j in range(size)] for i in range(size)]
    if shift:
        i = draw(st.integers(0, size - 1))
        U[i][i] = draw(rationals.filter(bool))
    P, P_inv = draw(unimodular(size))
    X = P * to_sympy(U) * P_inv
    return [[to_fraction(x) for x in X.row(i)] for i in range(size)]


def jordan_type_from_sympy_ranks(X):
    """Block sizes of a nilpotent X: r_{p-1} - 2 r_p + r_{p+1} blocks have
    size exactly p, with r_p the sympy rank of X^p."""
    M = to_sympy(X)
    n = M.rows
    ranks = [n] + [(M ** p).rank() for p in range(1, n + 2)]
    sizes = []
    for p in range(1, n + 1):
        sizes += [p] * (ranks[p - 1] - 2 * ranks[p] + ranks[p + 1])
    return tuple(sorted(sizes, reverse=True))


@settings(max_examples=150, deadline=None)
@given(conjugated_triangular())
def test_jordan_type_matches_sympy_ranks(X):
    got = jordan_type(X)
    assert got == jordan_type_from_sympy_ranks(X)
    assert sum(got) == len(X) and 0 not in got


@settings(max_examples=60, deadline=None)
@given(conjugated_triangular(shift=True))
def test_jordan_type_refuses_a_matrix_that_is_not_nilpotent(X):
    with pytest.raises(CombinatoricsError, match="not nilpotent"):
        jordan_type(X)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(rationals, min_size=1, max_size=6), min_size=1, max_size=3),
       st.integers(-4, 4))
def test_interpolate_recovers_every_polynomial(polys, start):
    n = max(map(len, polys))
    points = list(range(start, start + n))
    values = [[sum(c * x ** e for e, c in enumerate(p)) for x in points] for p in polys]
    want = []
    for p in polys:
        p = list(p)
        while p and not p[-1]:
            p.pop()
        want.append(p)
    assert _interpolate(points, values) == want


def solve_digest(rop):
    """Entry order, numerator terms and denominator of every entry, and the
    text layout."""
    rows = [(key, sorted(rf.num.terms.items()), list(rf.den.items()))
            for key, rf in rop.entries.items()]
    return hashlib.sha256(repr((rows, rop.text_matrix())).encode()).hexdigest()[:16]


# Recorded with the Lagrange interpolator and the elimination that returned
# at the first column with no pivot.
SOLVE_DIGESTS = {
    (2, (2, 1), 1): "67901bee7b5951b8",
    (2, (2, 1), 2): "e1585d97fdc4b277",
    (3, (2, 1), 1): "67901bee7b5951b8",
    (3, (2, 1), 2): "e1585d97fdc4b277",
    (2, (2, 2), 1): "2d1db3b883bd2f5e",
    (2, (2, 2), 2): "9a6ecff193e5c158",
    (2, (2, 2), 3): "a4251c83a75d10ed",
    (2, (3, 2), 1): "2d1db3b883bd2f5e",
    (2, (3, 2), 2): "2d1db3b883bd2f5e",
    (2, (3, 2), 3): "9a6ecff193e5c158",
    (2, (3, 2), 4): "a4251c83a75d10ed",
    (3, (2, 2, 1), 1): "810b68141b72883a",
    (3, (2, 2, 1), 2): "4630e26efb4cbd67",
    (3, (2, 2, 1), 3): "da9ca98bc6e39832",
    (3, (2, 2, 1), 4): "90b44d63597023d5",
    (3, (2, 2, 2), 1): "6a265c8176b4b86a",
    (3, (2, 2, 2), 2): "bd9f4a35cb04c773",
    (3, (2, 2, 2), 3): "fc88c2297db15e6b",
    (3, (2, 2, 2), 4): "def29fe58f39cfef",
    (3, (2, 2, 2), 5): "bc5e3142215fc8ad",
}
APPENDIX_SOLVE_DIGESTS = {1: "3fd485ebab252a5c", 2: "3858503028a0b6cb", 3: "3fd485ebab252a5c"}


@pytest.mark.parametrize("slot", sorted(APPENDIX_SOLVE_DIGESTS))
def test_appendix_solve_is_pinned(appendix_doc, slot):
    rop = solve_rmatrix_from_exchange(fixture_psi(appendix_doc), slot)
    assert solve_digest(rop) == APPENDIX_SOLVE_DIGESTS[slot]


@pytest.mark.parametrize("k, lam, slot", list(SOLVE_DIGESTS), ids=str)
def test_slotwise_solve_is_pinned(k, lam, slot):
    rop = solve_rmatrix_from_exchange(build_psi_fundamental(k, lam), slot)
    assert solve_digest(rop) == SOLVE_DIGESTS[(k, lam, slot)]


# The chain of spaltenstein_label at sample_component_point(doc, ci,
# Random(s)), recorded for ci = 0..2 and s = 0..9: the same for every seed.
LABEL_CHAINS = {
    0: ((2,), (2, 2), (4, 2), (4, 4)),
    1: ((2,), (3, 1), (4, 2), (4, 4)),
    2: ((2,), (4,), (4, 2), (4, 4)),
}


@pytest.mark.parametrize("ci", sorted(LABEL_CHAINS))
def test_sampled_label_chains_are_pinned(appendix_doc, ci):
    for seed in range(10):
        X = sample_component_point(appendix_doc, ci, random.Random(seed))
        assert spaltenstein_label(X, (2, 2, 2, 2)) == LABEL_CHAINS[ci], seed


def test_labelling_hits_are_pinned(appendix_doc):
    # the draws of check_labelling: 10 samples per component from one
    # generator seeded with 1; two components have one degenerate sample
    rng = random.Random(1)
    hits = []
    for ci, comp in enumerate(appendix_doc["components"]):
        printed = label_of_tableau(Tableau(tuple(map(tuple, comp["tableau"]))), 4)
        hits.append(sum(spaltenstein_label(sample_component_point(appendix_doc, ci, rng),
                                           (2, 2, 2, 2)) == printed for _ in range(10)))
    assert hits == [10, 9, 9]
    assert check_labelling(appendix_doc).passed
