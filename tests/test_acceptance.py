"""Acceptance suite: every criterion is an exact identity at desk scale.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
The tolerances are exact equality of polynomials or rational functions;
nothing here is numerical.
"""

import random

import pytest

from qkzpsi.algebra import parse_polynomial, spectral_context
from qkzpsi.appendix import (
    check_components,
    check_cyclicity_fixture,
    check_deformed,
    check_equations,
    check_labelling,
    check_multidegrees,
    fixture_psi,
    fixture_rho,
    fixture_rmatrices,
    load_fixture,
)
from qkzpsi.combinatorics import enumerate_tableaux, epsilon_sign, sequence_rotation
from qkzpsi.qkz import (
    build_psi_fundamental,
    check_cyclicity,
    check_exchange,
    check_recurrence,
    check_wheel,
    fuse_psi,
    qkz_step,
    wheel_positions,
)
from qkzpsi.rmatrix import (
    fundamental_rcheck,
    pair_operator,
    product_basis,
    slot_applicator,
    solve_rmatrix_from_exchange,
    verify_commutation,
    verify_unitarity,
    verify_ybe,
)

from oracles import count_triples, degree_witness, tensor_multiplicity

CTX3 = spectral_context(3)


def _accept(number, description, ok):
    print(f"ACCEPTANCE {number:>2}: {'PASS' if ok else 'FAIL'}  {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_1_fixture_exchange(appendix_doc):
    psi = fixture_psi(appendix_doc)
    printed = fixture_rmatrices(appendix_doc)
    ops = {1: printed["R1"], 2: printed["R2"], 3: printed["R3"]}
    ok = all(check_exchange(psi, i, operator=ops[i]).passed for i in (1, 2, 3))
    _accept(1, "printed vector satisfies the exchange relation with the printed matrices", ok)


def test_criterion_2_rmatrix_solve(appendix_doc):
    psi = fixture_psi(appendix_doc)
    printed = fixture_rmatrices(appendix_doc)
    ok = True
    for i, key in ((1, "R1"), (2, "R2"), (3, "R3")):
        solved = solve_rmatrix_from_exchange(psi, i)
        ok = ok and solved.equals(printed[key])
    _accept(2, "exchange relation solves back to the printed matrices, entry for entry", ok)


def test_criterion_3_ybe_unitarity_commutation(appendix_doc):
    ok = True
    for k in (2, 3, 4):
        R = fundamental_rcheck(k)
        letters = [(a,) for a in range(1, k + 1)]
        b3 = product_basis(letters, 3)
        ok = ok and verify_ybe(
            slot_applicator(R, 0), slot_applicator(R, 1), b3, CTX3, f"fund k={k}"
        ).passed
        b2 = product_basis(letters, 2)
        ok = ok and verify_unitarity(slot_applicator(R, 0), b2, CTX3).passed
        b4 = product_basis(letters, 4)
        ok = ok and verify_commutation(
            slot_applicator(R, 0), slot_applicator(R, 2), b4, CTX3
        ).passed
    # the printed matrices act on the whole component basis
    from qkzpsi.appendix import check_rmatrix_relations

    ok = ok and check_rmatrix_relations(appendix_doc).passed
    _accept(3, "YBE, unitarity, far-commutation for fundamental k=2,3,4 and printed matrices", ok)


def test_criterion_4_wheel(appendix_doc):
    psi = fixture_psi(appendix_doc)
    ok = all(check_wheel(psi, pos).passed for pos in wheel_positions(psi.m, psi.k))
    fund = build_psi_fundamental(2, (2, 2))
    for pos in ((1, 2, 3), (2, 3, 4), (1, 2, 4), (1, 3, 4)):
        ok = ok and check_wheel(fund, pos).passed
    _accept(4, "wheel vanishing, all placements, printed and fundamental vectors", ok)


def test_criterion_5_cyclicity(appendix_doc):
    rep = check_cyclicity_fixture(appendix_doc)
    eps = epsilon_sign(8, 4)
    ok = rep.passed and eps == -1 and eps ** 2 == 1
    _accept(5, "cyclicity with the printed rotation; sign bookkeeping eps^(m_1) = +1", ok)


def test_criterion_6_qkz_step(appendix_doc):
    psi = fixture_psi(appendix_doc)
    printed = fixture_rmatrices(appendix_doc)
    rho = fixture_rho(appendix_doc)
    full_ops = {1: printed["R1"], 2: printed["R2"], 3: printed["R3"]}
    ok = qkz_step(psi, rho, full_ops=full_ops).passed
    fund = build_psi_fundamental(2, (2, 2))
    rho2 = sequence_rotation(fund.basis, fund.m, 2)
    ok = ok and qkz_step(fund, rho2).passed
    _accept(6, "difference step with s=(k+1)hb on both instances, route independent", ok)


def test_criterion_7_fusion(psi_m8, fused_example):
    printed = parse_polynomial(
        "(hb+z1-z2)*(hb+z3-z4)*(2*hb+z1-z2)*(2*hb+z3-z4)", fused_example.ctx
    )
    extreme = fused_example.entries[((1, 2), (1, 2), (3, 4), (3, 4))]
    ok = extreme == printed  # the conventional global sign is +1
    R22 = pair_operator(4, 2, 2)
    for i in (1, 2, 3):
        ok = ok and check_exchange(fused_example, i, operator=R22).passed
    _accept(7, "fusion reproduces the printed multidegree and satisfies fused exchange", ok)


DEGREE_SWEEP = (
    (2, (1, 1), None),
    (2, (2, 1), None),
    (2, (2, 2), None),
    (2, (3, 1), None),
    (2, (3, 2), None),
    (2, (3, 3), None),
    (2, (4, 3), None),
    (3, (1, 1, 1), None),
    (3, (2, 1, 1), None),
    (3, (2, 2, 1), None),
    (3, (2, 2, 2), None),
    (3, (3, 2, 1), None),
    (4, (1, 1, 1, 1), None),
    (4, (2, 1, 1), None),
    (4, (2, 2, 1, 1), None),
    (4, (2, 2, 2, 1), None),
    (3, (1, 1, 1), (2, 1)),
    (3, (2, 2, 2), (2, 2, 1, 1)),
    (4, (2, 2, 1, 1), (2, 1, 1, 2)),
)


def test_criterion_8_degrees(psi_m8, fused_example):
    ok = degree_witness(psi_m8) is None and degree_witness(fused_example) is None
    for k, lam, m in DEGREE_SWEEP:
        psi = build_psi_fundamental(k, lam)
        if m is not None:
            psi = fuse_psi(psi, m)
        ok = ok and degree_witness(psi) is None
    _accept(8, "every built entry homogeneous of degree sum lam_a(lam_a-1)/2 (k<=4, M<=8)", ok)


def test_criterion_9_slice(appendix_doc):
    ok = (
        check_equations(appendix_doc).passed
        and check_deformed(appendix_doc).passed
        and check_components(appendix_doc).passed
        and check_multidegrees(appendix_doc).passed
    )
    _accept(9, "slice equations, deformed equations, membership, printed multidegree", ok)


def test_criterion_10_labelling(appendix_doc):
    rep = check_labelling(appendix_doc)
    _accept(10, "point labels match the printed subscripts in >= 9/10 seeded samples", rep.passed)


def test_criterion_11_counts():
    mismatches = [(k, lam, m) for k, lam, m in count_triples()
                  if len(enumerate_tableaux(lam, m)) != tensor_multiplicity(lam, m, k)]
    worked = (2, 2, 2, 2)
    ok = not mismatches and (
        len(enumerate_tableaux(worked, worked)) == tensor_multiplicity(worked, worked, 4) == 3)
    _accept(11, "tableau counts equal Pieri multiplicities on every (k, lambda, m), "
                "k<=4, M<=10", ok)


def test_criterion_12_recurrence():
    big = build_psi_fundamental(2, (2, 2))
    small = build_psi_fundamental(2, (1, 1))
    ok = check_recurrence(big, small, 1).passed
    ok = ok and check_recurrence(big, small, 2).passed
    # the vanishing branch is populated: repeated-row insertions exist
    ok = ok and any(lab[0] == lab[1] for lab in big.basis)
    _accept(12, "insertion recurrence, including the vanishing branch, for k=2 M=4 -> 2", ok)
