import hashlib
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


# SHA-256 of fused_rcheck(k, a, b).text_matrix() for every k <= 6, as the
# operators were built by braiding a*b fundamental steps, projecting and
# normalizing by the extreme entry
FUSED_DIGESTS = {
    (2, 1, 1): "ef63f34dc731c52ed4c563978b0ccf7fb3fe258e0b51f55ab45140a79daa0399",
    (3, 1, 1): "779a40dc53b31bc53fa864795bfb5be1bc87a60c663646e1268d1aeb25f8532a",
    (3, 1, 2): "a88df70030168891110c9070176c72762fe88a66e22535d24b69e6aa071ba72c",
    (3, 2, 1): "a88df70030168891110c9070176c72762fe88a66e22535d24b69e6aa071ba72c",
    (3, 2, 2): "c418bed1f111cf1aedbfde48c4a1463c9317f58cba0223001ad1dfb5de275db1",
    (4, 1, 1): "58012bb1ccb2034a5d64752f66cdee4d0fa73f094ff76c7a9872271ba056e3dd",
    (4, 1, 2): "ba6c67a46f9e145ac784be218f74be95cb8f554c2adc963a92cab5ba6b08e7a8",
    (4, 1, 3): "583d8b3fa22047fb90bb0cd031f95b5c20ff7ed36552ad5ba6a1bbadc37f8207",
    (4, 2, 1): "adcecbc0dbae688b3c558c5a336aaf1fff6f922ebd0436884e030170225d379a",
    (4, 2, 2): "d72fcdbf3d0aa4f09f417942d97ebd852e308bbdc5448d08ee63bdca68a4bbef",
    (4, 2, 3): "2539c2d3fd028a920a0728bbc7283d262bd7d607f65bfcbd27c0356c54c5ec5c",
    (4, 3, 1): "583d8b3fa22047fb90bb0cd031f95b5c20ff7ed36552ad5ba6a1bbadc37f8207",
    (4, 3, 2): "bbff9810fc8f431aa0d1dc94bf2e0f7507d820a474e226688404a2d543dc6fd7",
    (4, 3, 3): "6af3b8e03b1daee0ac94c9dd2411bce046e47bbb04d7803edde4a40910f94fdf",
    (5, 1, 1): "56d149808d09b8efcbc143879490492db87931972f1987cf4210160a9f858832",
    (5, 1, 2): "9b87e9ad5b6086b313dc449c09706bd8259059a18832e003771662bebec9d2e6",
    (5, 1, 3): "ff5b0a15750e7d86c2cb4c0ea8c53efd02dbda36fc4bd71f13f0308e935fbef9",
    (5, 1, 4): "e828782b20004d2ec816af613be31fb77dc2dd5f2aa415050a2ca5c8bff22685",
    (5, 2, 1): "d624446556789b12485d219555b4ff30caa9e5e526010ea7a9f08663d751af2e",
    (5, 2, 2): "d7215661afbe9246d1c58a6da57882e9bceda783b9dd945ce89bff36169bc4ae",
    (5, 2, 3): "f455120df8ebed46b4ec0867c8d449e67609a4a46219d5076162b334b395fe82",
    (5, 2, 4): "1ff69ccb0cb5b72139a0b471af2c9e9799c61a3cad32c572e8cae8eca91cb447",
    (5, 3, 1): "4f68cfc47ba41eb3898adc857ee94e622a26ef1bc126aed452b34f897842b4e3",
    (5, 3, 2): "a535dec5d7f7e1e91aae57f6128a9dc07e0cd6177079d634cba3f2eb5d69b5f6",
    (5, 3, 3): "a63a467c9487f55f8774c00cf6c23460ae4849414d4431e3b09f0566a8acdd71",
    (5, 3, 4): "4355f32769b305d18f0f8cc40ef17692fe6d0f5fc073ea3348f356c87787c668",
    (5, 4, 1): "e828782b20004d2ec816af613be31fb77dc2dd5f2aa415050a2ca5c8bff22685",
    (5, 4, 2): "66db5f473d0176d964d3e49c8c99ebf77216585b81823ff67949029e505fee67",
    (5, 4, 3): "95c76d38a20b64f75fb072f038e6526e0f2dd12f4bc8424d3c0df1162f283a1a",
    (5, 4, 4): "ffde42d4ca988eb87d69cdddc6d0758a686fb6e6e6ffcd894aa5fbed0529ead5",
    (6, 1, 1): "7bfbf907822310e2e700ca94a89b3c22b1d9483d9df60defce76a75daa25119f",
    (6, 1, 2): "52db577ef156e7a9b746edf192c0784d099e1fc26878f296c59d8de094d2a8de",
    (6, 1, 3): "69a8111c06479df9fbf8e5d1f1c2369d87883bcac64b51a50465d45edbe883c2",
    (6, 1, 4): "6ae7f1ea7c40e2cb4eb9b65d5bea4403a30269a13b80d254b41dc8fce00b46fc",
    (6, 1, 5): "829720457a6d5aea31220b009fe428652dfa4c7fe9ccf04e9a0318c3583f3ed0",
    (6, 2, 1): "6a9bbe919fec21d19d9bf8115f8a9201e7b1b3cab9e5c201997022b7ae24b0ae",
    (6, 2, 2): "5b283fcb626f3519fc523fff70217252eed810b0d05be8dc4adefccf467a0c92",
    (6, 2, 3): "bb72ffa9a3b6fcd6b352c60fbd79ba7ba64a6b51f614c11da6cd3d045ac5be54",
    (6, 2, 4): "78462fc855bbdfb652665b65ff1d303b34a6c5a2dd0dc9b36b24ce0068b4b61c",
    (6, 2, 5): "4e8361296e2079e96f23be6dc1c70b1c724152d8ecc047099bc27d571ee02c2e",
    (6, 3, 1): "b2890b10482017d975c12c7f76cce0350294aed5f56e26e8def53076e9330a27",
    (6, 3, 2): "90b7ca7c9f2563586fdaa0589a982fec24df7f671a37c1b5f64cfde4341c8bbf",
    (6, 3, 3): "56473bb11ff948964ad5b82eeab214f505de41ce2f133d2e06cedadcc1d40c3d",
    (6, 3, 4): "36d81378a7148e6f5b3e1f9488298c58440ea37e20d770e36c2d3a5195c8173e",
    (6, 3, 5): "c779f5d09c4fd6b818c5b24cab0da528aa06f704e7f9e75489db3c5688aa0d68",
    (6, 4, 1): "fd9ca4c75e56fc02d99dbeb450484baff51cf15181846bb9b37d31ec6a5a7016",
    (6, 4, 2): "d05aaf0b9dbb0ec0d739a4c0353280c8de7a0e85281d3515341a90268af091ac",
    (6, 4, 3): "55f05c93407b24e4a608b9d0ef0a55bc8f3d2089e0ae4866b7d43ec901e284df",
    (6, 4, 4): "9692c2129460707f1c068f96de4a74162c88790a76f0f66df36604dd10739b3f",
    (6, 4, 5): "d9069ddb8155ee725f0050c9d8a7aa07bc891ff58025bd8986972636876f2053",
    (6, 5, 1): "829720457a6d5aea31220b009fe428652dfa4c7fe9ccf04e9a0318c3583f3ed0",
    (6, 5, 2): "bed788a8b25685156c6e15f91bcdab4c4240e9f76d0103ecb304eb8867794a78",
    (6, 5, 3): "509b33087d48fa2704383427ca7dd3b47a74d7a8dffb2e0fe58880f583054a91",
    (6, 5, 4): "2f2deaa2bcd0a82307ead0093104b32c21d604f1d6de9dcef1bfc2a97ae598bd",
    (6, 5, 5): "2583890ad11e5a776d18426b17662471d3e350f3931ef319e3c56c0137c1f776",
}


def text_digest(op):
    return hashlib.sha256(op.text_matrix().encode()).hexdigest()


def test_fused_rcheck_prints_the_pinned_operators():
    assert {case: text_digest(fused_rcheck(*case)) for case in FUSED_DIGESTS} == FUSED_DIGESTS


def pair_vectors(k, a, b):
    """Every unit vector of wedge_a x wedge_b, as {(P, Q): Fraction}."""
    return [{lab: Fraction(1)} for lab in rmatrix._pair_labels(k, a, b)]


def omegas(k, a, b):
    return [rmatrix._omega(a, b, r) for r in range(max(0, a + b - k), min(a, b) + 1)]


def project(vec, w, omega):
    """prod over v != w in omega of (Omega - v)/(w - v), applied to vec."""
    for v in omega:
        if v != w:
            image = rmatrix._casimir(vec)
            vec = {key: (image.get(key, 0) - v * vec.get(key, 0)) / (w - v)
                   for key in image.keys() | vec.keys()}
    return {key: c for key, c in vec.items() if c}


def add(*vecs):
    out = {}
    for vec in vecs:
        for key, c in vec.items():
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


SMALL_PAIRS = [(k, a, b) for k in range(2, 6) for a in range(1, k) for b in range(1, k)]


@pytest.mark.parametrize("k, a, b", SMALL_PAIRS)
def test_the_projectors_split_every_weight_space_into_casimir_eigenvectors(k, a, b):
    omega = omegas(k, a, b)
    assert len(set(omega)) == len(omega)
    reached = set()
    for e in pair_vectors(k, a, b):
        parts = [project(e, w, omega) for w in omega]
        assert add(*parts) == e
        for w, part in zip(omega, parts):
            assert add(rmatrix._casimir(part), {key: -w * c for key, c in part.items()}) == {}
        reached.update(w for w, part in zip(omega, parts) if part)
    assert reached == set(omega)  # every component of wedge_a x wedge_b occurs


@pytest.mark.parametrize("k, a, b", SMALL_PAIRS)
def test_every_eigenvalue_of_the_fused_operator_is_unitary(k, a, b):
    z = CTX1.z(1)
    for r in range(max(0, a + b - k), min(a, b) + 1):
        rho = rmatrix._rho(a, b, r)
        assert (rho * rho.substitute_z({1: -z})).equals(CTX1.one())


def rho_with_a_wrong_shift(a, b, r):
    """rho_r with A_s + 2 in place of A_s at s = min(a, b)."""
    rho = normalization_factor(a, b)
    for s in range(r + 1, min(a, b) + 1):
        A = a + b + 2 - 2 * s + 2 * (s == min(a, b))
        rho = rho * RationalFunction(LinearForm(A, 1).to_poly(CTX1), {LinearForm(-A, 1): 1})
    return rho


@pytest.mark.parametrize("seam", ["omega", "rho"], ids=["swapped-omega", "wrong-A_s"])
def test_a_wrong_eigenvalue_or_shift_changes_the_operator(monkeypatch, seam):
    real = rmatrix._omega
    wrong = {"omega": lambda a, b, r: real(a, b, {1: 2, 2: 1}.get(r, r)),
             "rho": rho_with_a_wrong_shift}
    monkeypatch.setattr(rmatrix, f"_{seam}", wrong[seam])
    cases = [(4, 2, 2), (5, 2, 3), (5, 3, 2)]
    assert [case for case in cases
            if text_digest(fused_rcheck(*case)) != FUSED_DIGESTS[case]] == cases


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
