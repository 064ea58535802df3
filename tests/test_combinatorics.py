import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from qkzpsi.combinatorics import (
    CombinatoricsError,
    Tableau,
    chain_dominance_leq,
    content_labels,
    enumerate_tableaux,
    epsilon_sign,
    jordan_type,
    label_of_tableau,
    partition_dominance_leq,
    phi_map,
    promotion,
    rho_matrix,
    sequence_rotation,
    spaltenstein_label,
)

from oracles import brute_content_labels, count_triples, partitions, tensor_multiplicity


def _ballot_count(n_pairs):
    """Brute-force oracle: lattice words in {1,2}^(2 n_pairs) with balanced content."""
    count = 0
    for word in product((1, 2), repeat=2 * n_pairs):
        if word.count(1) != n_pairs:
            continue
        ones = twos = 0
        good = True
        for x in word:
            if x == 1:
                ones += 1
            else:
                twos += 1
            if twos > ones:
                good = False
                break
        if good:
            count += 1
    return count


def test_enumerate_tableaux_catalan():
    tabs = enumerate_tableaux((2, 2), (1, 1, 1, 1))
    assert len(tabs) == _ballot_count(2) == 2


def test_enumerate_tableaux_single_column():
    tabs = enumerate_tableaux((1, 1, 1), (3,))
    assert len(tabs) == 1
    assert tabs[0].rows == ((1,), (1,), (1,))


def test_enumerate_tableaux_worked_example():
    tabs = enumerate_tableaux((2, 2, 2, 2), (2, 2, 2, 2))
    assert len(tabs) == 3
    rows = {t.rows for t in tabs}
    assert ((1, 2), (1, 2), (3, 4), (3, 4)) in rows
    assert ((1, 2), (1, 3), (2, 4), (3, 4)) in rows
    assert ((1, 3), (1, 3), (2, 4), (2, 4)) in rows


def test_phi_map_examples():
    t = Tableau(((1, 2), (1, 2), (3, 4), (3, 4)))
    assert phi_map(t, 4) == ((1, 2), (1, 2), (3, 4), (3, 4))
    t2 = Tableau(((1, 2), (1, 3), (2, 4), (3, 4)))
    assert phi_map(t2, 4) == ((1, 2), (1, 3), (2, 4), (3, 4))
    col = Tableau(((1,), (1,), (1,)))
    assert phi_map(col, 1) == ((1, 2, 3),)


def test_phi_subset_sizes():
    for lam, m in (((2, 2), (1, 1, 1, 1)), ((2, 2, 2, 2), (2, 2, 2, 2))):
        for t in enumerate_tableaux(lam, m):
            alpha = phi_map(t, len(m))
            assert tuple(len(s) for s in alpha) == tuple(m)
            lam_rows = [0] * (max(max(s) for s in alpha))
            for s in alpha:
                for a in s:
                    lam_rows[a - 1] += 1
            assert tuple(x for x in lam_rows if x) == tuple(x for x in lam if x)


def label_sweep():
    """(lambda, m) for k <= 4 and M <= 7: every partition lambda of M with
    at most k rows, every weakly decreasing m of M with parts at most k,
    and the reverse of each m that is not a palindrome (864 cases)."""
    return [(lam, mm) for k in range(1, 5) for M in range(1, 8)
            for lam in partitions(M, M, k) for m in partitions(M, k, M)
            for mm in sorted({m, m[::-1]})]


def test_content_labels_match_brute_force():
    cases = label_sweep()
    assert len(cases) == 864
    for lam, m in cases:
        assert content_labels(lam, m) == sorted(brute_content_labels(lam, m)), (lam, m)


def test_enumerate_tableaux_digest():
    """The rows of every tableau over criterion 11's 1,230 triples, in order,
    as the enumerator listed them before it shared the walk of
    ``content_labels``: SHA-256 of their repr, first 16 hex digits."""
    rows = [[t.rows for t in enumerate_tableaux(lam, m)] for _, lam, m in count_triples()]
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == "e89d78665a1bf909"


def test_subset_sequence_edge_cases():
    with pytest.raises(CombinatoricsError):
        enumerate_tableaux((2, 1), (2,))
    assert content_labels((2, 1), (2,)) == []
    # a zero part of lambda is no row and no letter; a zero part of m, an empty S_i
    assert [t.rows for t in enumerate_tableaux((2, 0, 1), (1, 0, 2))] == [((1, 3), (3,))]
    assert content_labels((2, 0, 1), (1, 0, 2)) == [((1,), (), (1, 3))]
    assert enumerate_tableaux((), ()) == [Tableau(())]
    assert content_labels((), ()) == [()]


def rows_of(seq, nrows):
    """Row r holds the i with r in S_i."""
    return tuple(tuple(i for i, S in enumerate(seq, start=1) if r in S)
                 for r in range(1, nrows + 1))


def is_tableau(rows):
    try:
        Tableau(rows)
    except CombinatoricsError:
        return False
    return True


def test_phi_map_inverts_the_row_reading():
    """phi_map of each tableau is its subset sequence, and the tableaux are
    exactly the subset sequences whose rows make a Tableau."""
    for _, lam, m in count_triples(max_M=7):
        tabs = enumerate_tableaux(lam, m)
        seqs = [seq for seq in content_labels(lam, m) if is_tableau(rows_of(seq, len(lam)))]
        assert sorted(phi_map(t, len(m)) for t in tabs) == seqs
        assert all(rows_of(phi_map(t, len(m)), len(lam)) == t.rows for t in tabs)


@pytest.mark.parametrize("lam, m", [((1,), (1, 0)), ((2, 1), (1, 2, 0, 0)), ((1, 1), (0, 2, 0))])
def test_phi_map_keeps_the_letters_a_tableau_does_not_use(lam, m):
    """A zero part of m is an empty S_i, at the end of m too: the round trip
    through the tableau holds because phi_map is told the number of letters."""
    tabs = enumerate_tableaux(lam, m)
    assert [phi_map(t, len(m)) for t in tabs] == content_labels(lam, m)
    assert phi_map(Tableau(((1,),)), 2) == ((1,), ())


def test_multiplicity_worked_example():
    # the worked example: lambda = m = (2,2,2,2), k = 4
    lam = m = (2, 2, 2, 2)
    assert tensor_multiplicity(lam, m, 4) == len(enumerate_tableaux(lam, m)) == 3


def test_multiplicity_highest_weight():
    # lambda = mu, the highest weight of omega_2 (x) omega_1 in k = 3: one
    # tableau, and likewise one for the single column (3,) of k = 2
    assert tensor_multiplicity((2, 1), (2, 1), 3) == len(enumerate_tableaux((2, 1), (2, 1))) == 1
    assert tensor_multiplicity((3,), (1, 1, 1), 2) == len(enumerate_tableaux((3,), (1, 1, 1))) == 1


def test_multiplicity_matches_ballot_oracle():
    assert tensor_multiplicity((2, 2), (1, 1, 1, 1), 2) == _ballot_count(2)
    assert tensor_multiplicity((3, 3), (1,) * 6, 2) == _ballot_count(3)


def test_count_invariant_under_m_reordering():
    a = len(enumerate_tableaux((2, 2, 1), (2, 1, 1, 1)))
    b = len(enumerate_tableaux((2, 2, 1), (1, 1, 2, 1)))
    c = len(enumerate_tableaux((2, 2, 1), (1, 1, 1, 2)))
    assert a == b == c > 0


def test_promotion_worked_example():
    t1 = Tableau(((1, 2), (1, 2), (3, 4), (3, 4)))
    t2 = Tableau(((1, 2), (1, 3), (2, 4), (3, 4)))
    t3 = Tableau(((1, 3), (1, 3), (2, 4), (2, 4)))
    m = (2, 2, 2, 2)
    assert promotion(t1, m) == t3
    assert promotion(t2, m) == t2
    assert promotion(t3, m) == t1


def test_promotion_order_four():
    m = (2, 2, 2, 2)
    for t in enumerate_tableaux((2, 2, 2, 2), m):
        cur = t
        for _ in range(4):
            cur = promotion(cur, m)
        assert cur == t


def test_promotion_rejects_nonrectangular():
    t = Tableau(((1, 2), (1,)))
    with pytest.raises(CombinatoricsError):
        promotion(t, (2, 1, 1))


def test_promotion_content_rotates():
    # content (1,2,1) rotates to (2,1,1)
    t = Tableau(((1, 2), (2, 3)))
    out = promotion(t, (1, 2, 1))
    word = out.reading_word()
    assert tuple(word.count(x) for x in (1, 2, 3)) == (2, 1, 1)


def test_epsilon_and_rho_matrix():
    assert epsilon_sign(8, 4) == -1
    assert epsilon_sign(4, 2) == -1
    assert epsilon_sign(2, 2) == 1
    tabs = enumerate_tableaux((2, 2, 2, 2), (2, 2, 2, 2))
    rho = rho_matrix(tabs, (2, 2, 2, 2), 4)
    assert rho.sign == 1  # eps^2
    # promotion swaps the first and last tableaux and fixes the middle one
    assert [tabs.index(rho.mapping[t]) for t in tabs] == [2, 1, 0]
    assert rho.compose(rho).is_identity()


def test_sequence_rotation_refuses_a_shape_that_is_not_a_full_rectangle():
    for k, lam in ((2, (3, 1)), (4, (2, 2)), (2, (4, 3))):
        m = (1,) * sum(lam)
        with pytest.raises(CombinatoricsError):
            sequence_rotation(content_labels(lam, m), m, k)


def test_sequence_rotation_shape():
    basis = [((1,), (2,)), ((2,), (1,))]
    rho = sequence_rotation(basis, (1, 1), 2)
    assert rho.sign == -1
    assert rho.mapping[((1,), (2,))] == ((2,), (1,))


def test_jordan_type_basics():
    zero2 = [[Fraction(0)] * 2 for _ in range(2)]
    assert jordan_type(zero2) == (1, 1)
    nilp = [[0, 1], [0, 0]]
    assert jordan_type([[Fraction(x) for x in r] for r in nilp]) == (2,)
    with pytest.raises(CombinatoricsError):
        jordan_type([[Fraction(1)]])


def test_spaltenstein_zero_matrix():
    # the zero matrix is the (single) point of the zero-orbit slice, whose
    # shape is the conjugate of the Jordan type (1,1): one row with 1, 2
    X = [[Fraction(0)] * 2 for _ in range(2)]
    label = spaltenstein_label(X, (1, 1))
    assert label == ((1,), (1, 1))
    assert label == label_of_tableau(Tableau(((1, 2),)), 2)


def test_a_letter_the_tableau_does_not_use_keeps_its_place_in_the_label():
    # m = (1, 0): the second block is empty, so the chain has two equal entries
    printed = label_of_tableau(Tableau(((1,),)), 2)
    sampled = spaltenstein_label([[Fraction(0)]], (1, 0))
    assert printed == sampled == ((1,), (1,))
    assert chain_dominance_leq(sampled, printed)


def test_spaltenstein_base_point():
    # the base nilpotent itself: chain of Jordan types of its truncations
    m = (2, 2)
    X = [[Fraction(0)] * 4 for _ in range(4)]
    X[0][1] = Fraction(1)
    X[2][3] = Fraction(1)
    label = spaltenstein_label(X, m)
    assert label == ((2,), (2, 2))


def test_dominance_order():
    assert partition_dominance_leq((2, 2), (3, 1))
    assert not partition_dominance_leq((3, 1), (2, 2))
    assert partition_dominance_leq((2, 1), (2, 1))
    a = ((1,), (1, 1))
    b = ((1,), (2,))
    assert chain_dominance_leq(a, b)
    assert not chain_dominance_leq(b, a)
