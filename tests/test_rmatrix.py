from fractions import Fraction
from itertools import combinations

import pytest
import sympy

from qkzpsi import rmatrix
from qkzpsi.algebra import (
    ContextError,
    LinearForm,
    Polynomial,
    RationalFunction,
    spectral_context,
)
from qkzpsi.combinatorics import sequence_rotation
from qkzpsi.qkz import build_psi_fundamental, check_cyclicity, check_exchange, closure_witness
from qkzpsi.rmatrix import (
    CTX1,
    RMatrixError,
    family_slot_applicator,
    first_difference,
    fundamental_rcheck,
    fused_rcheck,
    normalization_factor,
    pair_operator,
    product_basis,
    slot_applicator,
    solve_rmatrix_from_exchange,
    verify_commutation,
    verify_unitarity,
    verify_ybe,
)

from oracles import evaluate

CTX3 = spectral_context(3)


def entry(op, t, s):
    """The operator's (t, s) entry, zero where it stores none."""
    return op.entries.get((t, s), RationalFunction.from_poly(op.ctx.zero()))


def _letters(k):
    return [(a,) for a in range(1, k + 1)]


def at_zero(R):
    """Every entry of R at z = 0, hb = 1 (the h slot holds hb/2)."""
    return {key: evaluate(rf, [Fraction(0), Fraction(1, 2)]) for key, rf in R.entries.items()}


def test_fundamental_at_zero_is_identity():
    R = fundamental_rcheck(3)
    vals = at_zero(R)
    for (t, s), v in vals.items():
        assert v == (1 if t == s else 0)


def test_fundamental_diagonal_eigenvector():
    R = fundamental_rcheck(2)
    z, hb = CTX1.z(1), CTX1.hbar()
    plus, _ = LinearForm.make(2, 1)
    want = RationalFunction(hb - z, {plus: 1})
    assert entry(R, ((1,), (1,)), ((1,), (1,))).equals(want)


def test_fundamental_unitarity_k3():
    basis = product_basis(_letters(3), 2)
    app = slot_applicator(fundamental_rcheck(3), 0)
    rep = verify_unitarity(app, basis, CTX3, "fund k=3")
    assert rep.passed


def test_fundamental_ybe_k2():
    basis = product_basis(_letters(2), 3)
    R = fundamental_rcheck(2)
    rep = verify_ybe(slot_applicator(R, 0), slot_applicator(R, 1), basis, CTX3)
    assert rep.passed


def test_fundamental_commutation():
    basis = product_basis(_letters(2), 4)
    R = fundamental_rcheck(2)
    rep = verify_commutation(slot_applicator(R, 0), slot_applicator(R, 2), basis, CTX3)
    assert rep.passed


def test_normalization_factor_values():
    z, hb = CTX1.z(1), CTX1.hbar()
    f1 = normalization_factor(1, 1)
    plus, _ = LinearForm.make(2, 1)
    assert f1.equals(RationalFunction(hb - z, {plus: 1}))
    f2 = normalization_factor(2, 2)
    plus2, _ = LinearForm.make(4, 1)
    want = RationalFunction((hb - z) * (2 * hb - z), {plus: 1, plus2: 1})
    assert f2.equals(want)
    # unitarity of the scalar
    flip = f2.substitute_z({1: -z})
    assert (f2 * flip).equals(CTX1.one())


def test_fused_reduces_to_fundamental():
    assert fused_rcheck(3, 1, 1).equals(fundamental_rcheck(3))


def test_fused_k4_22_normalization_and_weights():
    R = pair_operator(4, 2, 2)
    # extreme diagonal matches the normalization scalar
    top = ((1, 2), (1, 2))
    assert entry(R, top, top).equals(normalization_factor(2, 2))
    # weight preservation: matching letter content on each entry
    for (t, s) in R.entries:
        content_t = sorted(x for part in t for x in part)
        content_s = sorted(x for part in s for x in part)
        assert content_t == content_s
    vals = at_zero(R)
    for (t, s), v in vals.items():
        assert v == (1 if t == s else 0)


def test_fused_rcheck_refuses_an_extreme_entry_that_is_not_unitary(monkeypatch):
    # twice the braid has the extreme eigenvalue 2 raw(z), whose product with its
    # z -> -z image is 4: normalizing by that image would be wrong, so it raises
    real = rmatrix._braid_column
    monkeypatch.setattr(rmatrix, "_braid_column",
                        lambda *args: {key: rf * 2 for key, rf in real(*args).items()})
    with pytest.raises(RMatrixError, match="not unitary"):
        fused_rcheck(4, 2, 2)


def test_fused_k4_22_unitarity():
    wedges = [tuple(c) for c in combinations(range(1, 5), 2)]
    basis = product_basis(wedges, 2)
    app = slot_applicator(pair_operator(4, 2, 2), 0)
    rep = verify_unitarity(app, basis, CTX3, "fused k=4 a=b=2")
    assert rep.passed


def test_fused_k3_22_ybe():
    wedges = [tuple(c) for c in combinations(range(1, 4), 2)]
    basis = product_basis(wedges, 3)
    R = pair_operator(3, 2, 2)
    rep = verify_ybe(slot_applicator(R, 0), slot_applicator(R, 1), basis, CTX3)
    assert rep.passed


@pytest.fixture
def count_divisions(monkeypatch):
    """Counts the calls of ``Polynomial.exact_div`` from the moment it is requested."""
    exact_div = Polynomial.exact_div
    calls = []

    def counted(self, form):
        calls.append(form)
        return exact_div(self, form)

    monkeypatch.setattr(Polynomial, "exact_div", counted)
    return calls


def test_passing_checks_divide_nothing(request, fused_example, fresh_unitarity):
    # the checks compare by cross-multiplying; only building an operator
    # (here before counting) brings rational functions to lowest terms
    psi = fused_example
    rho = sequence_rotation(psi.basis, psi.m, psi.k)
    R = pair_operator(3, 2, 2)
    pair_operator(psi.k, 2, 2)
    wedges = [tuple(c) for c in combinations(range(1, 4), 2)]
    basis = product_basis(wedges, 3)
    calls = request.getfixturevalue("count_divisions")
    for slot in range(1, psi.N):
        assert check_exchange(psi, slot).passed
        assert calls == [], slot
    assert check_cyclicity(psi, rho).passed and calls == []
    assert closure_witness(psi) is None and calls == []
    assert verify_ybe(slot_applicator(R, 0), slot_applicator(R, 1), basis, CTX3).passed
    assert verify_unitarity(slot_applicator(R, 0), basis, CTX3).passed
    assert calls == []


def test_a_corrupted_operator_names_the_remainder_in_lowest_terms(fused_example):
    # the witness reduces lhs - rhs, so it reads as when every value was reduced
    real = pair_operator(4, 2, 2)
    entries = dict(real.entries)
    key = list(entries)[7]
    entries[key] = entries[key] * 2
    bad = rmatrix.ROperator(real.ctx, real.source, real.target, entries)
    rep = check_exchange(fused_example, 2, operator=bad)
    assert (rep.status, rep.witness) == (
        "fail", "first offending label ({1,3},{1,2},{2,4},{3,4}): lhs - rhs = "
        "z1^2*z2*z3*hb - z1^2*z2*z4*hb + 2*z1^2*z2*hb^2 ... (46 terms)")


def test_substitute_spectral_refuses_a_pure_h_argument():
    # z -> c*h is not injective, so the entries could need reducing
    with pytest.raises(RMatrixError, match="z-part"):
        fundamental_rcheck(2).substitute_spectral(LinearForm(2), 1, CTX3)


def test_fused_k6_22_ybe_on_one_weight_space():
    # letters 2 and 4 twice: adjacent pairs with |S & T| = 0, 1 and 2 all
    # occur, and none is a braided representative (those all hold letter 1)
    wedges = [tuple(c) for c in combinations(range(1, 7), 2)]
    content = [2, 2, 4, 4, 5, 6]
    basis = [w for w in product_basis(wedges, 3) if sorted(x for lab in w for x in lab) == content]
    R = pair_operator(6, 2, 2)
    rep = verify_ybe(slot_applicator(R, 0), slot_applicator(R, 1), basis, CTX3)
    assert rep.passed


def test_fused_mixed_sizes_ybe():
    # factors of sizes (2, 1, 1) in k=3: the operators change label shapes
    wedge2 = [tuple(c) for c in combinations(range(1, 4), 2)]
    wedge1 = _letters(3)
    basis = [(a, b, c) for a in wedge2 for b in wedge1 for c in wedge1]
    app1 = family_slot_applicator(3, 0)
    app2 = family_slot_applicator(3, 1)
    rep = verify_ybe(app1, app2, basis, CTX3, "mixed (2,1,1)")
    assert rep.passed


def test_fused_mixed_unitarity():
    wedge2 = [tuple(c) for c in combinations(range(1, 4), 2)]
    wedge1 = _letters(3)
    basis = [(a, b) for a in wedge2 for b in wedge1]
    app = family_slot_applicator(3, 0)
    rep = verify_unitarity(app, basis, CTX3, "mixed (2,1)")
    assert rep.passed


def test_solve_fundamental_matches_flip_form():
    # the solved pair operator agrees with the flip form on every pair
    # occurring in the weight space (the (2,2) pair does not occur here)
    psi = build_psi_fundamental(2, (2, 1))
    F = fundamental_rcheck(2)
    for slot in (1, 2):
        R = solve_rmatrix_from_exchange(psi, slot)
        assert R.source == tuple(sorted({lab[slot - 1:slot + 1] for lab in psi.basis}))
        assert set(R.source) < set(F.source)
        for t in R.target:
            for s in R.source:
                assert entry(R, t, s).equals(entry(F, t, s)), (t, s)


@pytest.mark.parametrize("lam, slot", [((2, 2, 1), s) for s in range(1, 5)]
                         + [((2, 2, 2), s) for s in range(1, 6)], ids=str)
def test_solve_three_letters_matches_flip_form(lam, slot):
    # all but slot 3 of (2,2,1) and slot 4 of (2,2,2) once stopped at a
    # falsely singular subsystem
    psi = build_psi_fundamental(3, lam)
    F = fundamental_rcheck(3)
    R = solve_rmatrix_from_exchange(psi, slot)
    assert R.source == tuple(sorted({lab[slot - 1:slot + 1] for lab in psi.basis}))
    assert set(R.source) <= set(F.source)
    for t in R.target:
        for s in R.source:
            assert entry(R, t, s).equals(entry(F, t, s)), (t, s)


def test_solve_rejects_perturbed_family():
    # adding a non-symmetric linear term makes the exchange system insoluble
    psi = build_psi_fundamental(2, (2, 1))
    bad = dict(psi.entries)
    lab = ((1,), (1,), (2,))
    bad[lab] = bad[lab] + psi.ctx.z(1)
    from qkzpsi.qkz import PsiVector

    broken = PsiVector(psi.k, psi.lam, psi.m, psi.ctx, bad)
    with pytest.raises(RMatrixError):
        solve_rmatrix_from_exchange(broken, 1)


def test_apply_refuses_a_vector_from_another_context():
    R = fundamental_rcheck(2)
    with pytest.raises(ContextError):
        R.apply({((1,), (2,)): CTX3.one()})


def test_first_difference_walks_lhs_then_rhs_and_reads_missing_as_zero():
    z, hb = CTX1.z(1), CTX1.hbar()
    half = RationalFunction(z * z - hb * hb, {LinearForm.make(2, 1)[0]: 1})  # z - hb
    assert first_difference({"a": z - hb, "b": z}, {"b": z, "a": half}) is None
    # lhs's keys in order, then the keys only rhs has
    assert first_difference({"c": z, "b": hb, "a": z}, {"a": hb, "b": z}) == "c"
    assert first_difference({"b": z, "a": z}, {"a": hb, "b": hb}) == "b"
    assert first_difference({"a": z}, {"a": z, "y": hb, "x": z}) == "y"
    # a zero entry and a missing one agree, on either side
    zero_rf = RationalFunction.from_poly(CTX1.zero())
    assert first_difference({"a": CTX1.zero(), "b": z}, {"b": z, "c": zero_rf}) is None
    assert first_difference({"a": z}, {}) == "a"
    assert first_difference({}, {"a": RationalFunction.from_poly(z)}) == "a"
    # a Polynomial against a RationalFunction, both ways round
    assert first_difference({"a": half}, {"a": z}) == "a"
    assert first_difference({"a": z + hb}, {"a": half}) == "a"


def test_cached_pair_operator_entries_are_read_only():
    rop = pair_operator(3, 1, 1)
    key = next(iter(rop.entries))
    with pytest.raises(TypeError):
        rop.entries[key] = RationalFunction.from_poly(CTX1.zero())
    with pytest.raises(TypeError):
        del rop.entries[key]
    assert pair_operator(3, 1, 1) is rop
    assert rop.entries[key] is pair_operator(3, 1, 1).entries[key]


@pytest.mark.parametrize("k, a, b", [(3, 1, 1), (4, 1, 1), (4, 2, 2)])
def test_sympy_unitarity_from_entry_text(k, a, b):
    """R(u) R(-u) = 1 in sympy, rebuilt from the printed entries alone."""
    z, hb = sympy.symbols("z hb")
    R = pair_operator(k, a, b)
    assert R.source == R.target
    index = {lab: n for n, lab in enumerate(R.source)}
    M = sympy.zeros(len(index))
    for (t, s), rf in R.entries.items():
        M[index[t], index[s]] = sympy.sympify(rf.text(), locals={"z": z, "hb": hb})
    product = (M * M.subs(z, -z)).applyfunc(sympy.cancel)
    assert product == sympy.eye(len(index))
