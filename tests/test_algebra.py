import random
import sys
from fractions import Fraction

import pytest

from qkzpsi.algebra import (
    AlgebraError,
    ContextError,
    ExactDivisionError,
    LinearForm,
    Polynomial,
    RationalFunction,
    over_one_den,
    parse_polynomial,
    spectral_context,
    sum_of_products,
)
from qkzpsi.rmatrix import ROperator

CTX4 = spectral_context(4)
Z = [None] + [CTX4.z(i) for i in range(1, 5)]
HB = CTX4.hbar()


def test_addition_cancels():
    half = HB * Fraction(1, 2)
    assert (Z[1] + half) + (Z[1] - half) == 2 * Z[1]


def test_a_sum_that_cancels_holds_no_larger_dict_than_its_terms():
    # a dict does not shrink when items are deleted, so a sum in which terms
    # cancel is copied without its zeros
    p = (Z[1] + Z[2] + Z[3] + Z[4] + HB) ** 6
    q = p.swap_z(1, 2) * Z[1]
    assert len(p.terms) == 210
    assert sys.getsizeof((p - p).terms) == sys.getsizeof({})
    assert (p + q - q).terms == p.terms
    assert sys.getsizeof((p + q - q).terms) == sys.getsizeof({e: c for e, c in p.terms.items()})


def test_sum_of_products_drops_zeros_and_collapses_integral_fractions():
    ctx = Z[1].ctx
    # integer factors whose products cancel: the clean path keeps no zero
    p = sum_of_products(ctx, [(Z[1], Z[2]), (Z[2], -Z[1]), (Z[1], Z[1])])
    assert p.terms == (Z[1] * Z[1]).terms
    # Fraction factors with an integral sum still collapse to int coefficients
    half = Z[1] * Fraction(1, 2)
    assert any(type(c) is Fraction for c in half.terms.values())
    q = sum_of_products(ctx, [(half, Z[2] * 2), (Z[1], Z[2])])
    assert q == Z[1] * Z[2] * 2
    assert all(type(c) is int for c in q.terms.values())


def test_difference_of_squares():
    assert (Z[1] - Z[2]) * (Z[1] + Z[2]) == Z[1] ** 2 - Z[2] ** 2


def test_shifted_product_has_six_monomials():
    # oracle: expand (hb + z1 - z2)(2 hb + z1 - z2) by a naive double loop
    # over the factor term lists, in internal half-units (hb = 2h)
    f1 = {(1, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0): -1, (0, 0, 0, 0, 1): 2}
    f2 = {(1, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0): -1, (0, 0, 0, 0, 1): 4}
    expected = {}
    for e1, c1 in f1.items():
        for e2, c2 in f2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            expected[e] = expected.get(e, 0) + c1 * c2
    expected = {e: c for e, c in expected.items() if c}
    product = (HB + Z[1] - Z[2]) * (2 * HB + Z[1] - Z[2])
    assert {CTX4.unpack(e): c for e, c in product.terms.items()} == expected
    assert product.terms == {CTX4.pack(e): c for e, c in expected.items()}
    assert len(product.terms) == 6


def test_exact_division_by_difference():
    f, sign = LinearForm.make(0, 1, 2)
    assert sign == 1
    assert (Z[1] ** 2 - Z[2] ** 2).exact_div(f) == Z[1] + Z[2]


def test_nondivisible_reports_remainder():
    f, _ = LinearForm.make(0, 1, 2)
    with pytest.raises(ExactDivisionError) as err:
        (HB + Z[1] - Z[2]).exact_div(f)
    assert err.value.remainder == HB


def test_substitute_shift():
    assert (Z[1] - Z[2]).substitute({1: Z[1] + HB}) == -HB


def test_substitute_forced_cancellation():
    half = HB * Fraction(1, 2)
    p = HB + Z[1] - Z[2]
    assert p.substitute({0: Z[1] - half, 1: Z[1] + half}).is_zero()


def test_substitute_into_a_new_context_must_map_every_variable():
    target = spectral_context(2)
    mapping = {0: target.z(1), 1: target.z(2), 2: target.z(1), 4: target.hbar()}
    with pytest.raises(ContextError, match="must map 'z4'"):
        (Z[1] + Z[4]).substitute(mapping, target)
    mapping[3] = target.z(2)
    assert (Z[1] + Z[4]).substitute(mapping, target) == target.z(1) + target.z(2)


def test_swap_involution_and_fixed_points():
    assert (Z[1] - Z[2]).swap_z(1, 2) == Z[2] - Z[1]
    assert (Z[1] + Z[2]).swap_z(1, 2) == Z[1] + Z[2]
    p = (HB + Z[1] - Z[3]) * (Z[2] + Z[4])
    assert p.swap_z(1, 3).swap_z(1, 3) == p


def test_context_mismatch_raises():
    other = spectral_context(3)
    with pytest.raises(ContextError):
        Z[1] + other.z(1)


def _random_poly(rng, ctx, nterms=4, deg=4):
    terms = {}
    for _ in range(nterms):
        e = [0] * ctx.nvars
        for _ in range(rng.randrange(deg + 1)):
            e[rng.randrange(ctx.nvars)] += 1
        key = ctx.pack(e)
        terms[key] = terms.get(key, 0) + rng.randrange(-6, 7)
    return Polynomial(ctx, terms)


def test_ring_axioms_random():
    rng = random.Random(20240817)
    ctx = spectral_context(4)
    for _ in range(40):
        p, q, r = (_random_poly(rng, ctx) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p


def test_exact_div_roundtrip_random():
    rng = random.Random(97)
    ctx = spectral_context(4)
    for _ in range(40):
        p = _random_poly(rng, ctx)
        i = rng.randrange(1, 5)
        j = rng.randrange(1, 5)
        while j == i:
            j = rng.randrange(1, 5)
        f, sign = LinearForm.make(rng.randrange(-4, 5), i, j)
        prod = p * (f.to_poly(ctx) * sign)
        assert prod.exact_div(f) == p * sign


def test_substitute_then_swap_commutes():
    # shifting a spectator variable commutes with swapping two others
    rng = random.Random(5)
    ctx = spectral_context(4)
    for _ in range(20):
        p = _random_poly(rng, ctx)
        shifted = p.substitute({3: Z[4] + HB})
        assert shifted.swap_z(1, 2) == p.swap_z(1, 2).substitute({3: Z[4] + HB})


def test_homogeneity_preserved():
    rng = random.Random(11)
    ctx = spectral_context(4)
    for _ in range(20):
        p = ctx.one()
        for _ in range(3):
            a = rng.randrange(-2, 3)
            i = rng.randrange(1, 5)
            j = rng.randrange(1, 5)
            if i == j:
                continue
            form, sign = LinearForm.make(2 * a, i, j)
            p = p * (form.to_poly(ctx) * sign)
        d = p.homogeneous_degree()
        assert d is not None
        assert p.swap_z(1, 3).homogeneous_degree() == d
        assert p.substitute({1: ctx.z(2) + 2 * HB}).homogeneous_degree() in (d, None)


def test_text_roundtrip_random():
    rng = random.Random(23)
    ctx = spectral_context(3)
    for _ in range(30):
        p = _random_poly(rng, ctx)
        assert parse_polynomial(p.text(), ctx) == p


def test_json_roundtrip_random():
    rng = random.Random(29)
    ctx = spectral_context(3)
    for _ in range(30):
        p = _random_poly(rng, ctx)
        assert Polynomial.from_json(p.to_json(), ctx) == p


def test_half_integer_display():
    half = HB * Fraction(1, 2)
    assert half.text() == "1/2*hb"
    assert parse_polynomial("1/2*hb", CTX4) == half


def test_parse_rejects_garbage():
    with pytest.raises(AlgebraError):
        parse_polynomial("z1 +* z2", CTX4)
    with pytest.raises(ContextError):
        parse_polynomial("nope", CTX4)


@pytest.mark.parametrize("text", ["2 z1", "z1^-1", "z1^z2", "f(z1)", "z1[0]", "", "  ",
                                  "z1/0", "z1/z2", "1.5*z1", "z1 if z2 else z3", "z1 % 2",
                                  "2^(1/2)", "z1 == z2"])
def test_parse_rejects_what_the_grammar_leaves_out(text):
    with pytest.raises(AlgebraError):
        parse_polynomial(text, CTX4)


def test_parse_reads_python_precedence():
    # / by an int applies to the factor on its left: -1/2*z1 is ((-1)/2)*z1
    assert parse_polynomial("-1/2*z1", CTX4) == Z[1] * Fraction(-1, 2)
    assert parse_polynomial("(z1 - z2)/2 + +hb", CTX4) == (Z[1] - Z[2]) * Fraction(1, 2) + HB
    assert parse_polynomial("-z1^2", CTX4) == -(Z[1] ** 2)
    assert parse_polynomial(" 3*z1**2 - - z2 ", CTX4) == 3 * Z[1] ** 2 + Z[2]


def test_parse_reads_a_sum_longer_than_pythons_parser_nests():
    # ast.parse alone gives up on a sum of about 3,000 terms
    p = Polynomial(CTX4, {CTX4.pack((i, j, 1, 0, 1)): (-1) ** i * (i + j + 1)
                          for i in range(100) for j in range(60)})
    assert parse_polynomial(p.text(), CTX4) == p
    with pytest.raises(AlgebraError):
        parse_polynomial("*".join(["z1"] * 5000), CTX4)


def test_over_one_den_lifts_to_the_lcm_and_leaves_a_value_over_it_alone():
    f, g = LinearForm.make(2, 1, 2)[0], LinearForm.make(0, 3, 4)[0]
    x = RationalFunction(Z[1], {f: 1, g: 1})
    y = RationalFunction(Z[2], {g: 2})
    den, nums = over_one_den({"x": x, "y": y, "p": Z[3]})
    assert den == {f: 1, g: 2}
    assert list(den) == [f, g]  # forms in order of first appearance
    assert nums == {"x": Z[1] * g.to_poly(CTX4), "y": Z[2] * f.to_poly(CTX4),
                    "p": Z[3] * f.to_poly(CTX4) * g.to_poly(CTX4) ** 2}
    same = RationalFunction(Z[4], den)
    den2, nums2 = over_one_den([same, RationalFunction(Z[1], {f: 1})])
    assert den2 == den and nums2[0] is Z[4]
    assert over_one_den([Z[1], 3 * Z[2]]) == ({}, [Z[1], 3 * Z[2]])


def test_canonical_form_sign():
    form, sign = LinearForm.make(2, None, 1)  # hb - z1
    assert sign == -1
    assert form == LinearForm(-2, 1, None)
    form2, sign2 = LinearForm.make(0, 3, 1)
    assert (form2.i, form2.j, sign2) == (1, 3, -1)


def test_degree_guard_raises_instead_of_carrying():
    x = CTX4.z(1)
    half = x ** 32768
    with pytest.raises(AlgebraError):
        half * half
    with pytest.raises(AlgebraError):
        x ** 65536
    with pytest.raises(AlgebraError):
        (x * Z[2]) ** 40000
    with pytest.raises(AlgebraError):
        half.substitute({0: x * x})
    op = ROperator(CTX4, [("a",)], [("a",)], {(("a",), ("a",)): RationalFunction(half)})
    with pytest.raises(AlgebraError):
        op.apply({("a",): half})
    with pytest.raises(AlgebraError):
        parse_polynomial("z1^65536", CTX4)


def test_highest_exponent_packs_and_unpacks():
    top = (65535, 0, 0, 0, 0)
    p = Z[1] ** 65535
    assert p.degree() == 65535
    assert p.terms == {CTX4.pack(top): 1}
    assert CTX4.unpack(CTX4.pack(top)) == top
    assert p.to_json()["terms"] == [[1, 1, *top]]
    assert Polynomial.from_json(p.to_json(), CTX4) == p
    assert p.text() == "z1^65535"
    assert parse_polynomial("z1^65535", CTX4) == p
    q = Z[1] ** 65534
    assert (q * (Z[1] - Z[2])).exact_div(LinearForm.make(0, 1, 2)[0]) == q
    assert p.swap_z(1, 3) == Z[3] ** 65535


@pytest.mark.parametrize("exps", [
    (65536, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0),
    (40000, 30000, 0, 0, 0),  # each field fits, the degree does not
    (1, 0, 0, 0),  # too few fields
])
def test_pack_and_from_json_reject_what_does_not_fit(exps):
    with pytest.raises(AlgebraError):
        CTX4.pack(exps)
    with pytest.raises(AlgebraError):
        Polynomial.from_json({"terms": [[1, 1, *exps]]}, CTX4)


def test_packed_order_is_grlex():
    rng = random.Random(5)
    exps = [tuple(rng.randrange(4) for _ in range(5)) for _ in range(200)]
    by_int = sorted(exps, key=CTX4.pack)
    assert by_int == sorted(exps, key=lambda e: (sum(e), e))


def test_polynomials_pickle_and_deepcopy():
    import copy
    import pickle

    p = (HB + Z[1] - Z[2]) * Z[4] ** 3
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert q == p and q.ctx == CTX4
        assert q.ctx.unpack(max(q.terms)) == CTX4.unpack(max(p.terms))
    form = LinearForm(2, 1, 3)
    for f in (pickle.loads(pickle.dumps(form)), copy.deepcopy(form)):
        assert type(f) is LinearForm and (f.hcoef, f.i, f.j) == (2, 1, 3)
