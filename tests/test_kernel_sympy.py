"""The polynomial kernel against sympy, on small random 4-variable polynomials.

Products, substitution of linear images and exact division by a linear form
are recomputed in sympy from the terms alone.  One sympy symbol stands for
each packed field of the context (z1, z2, z3 and the h slot), so the check
does not depend on how h is displayed.  ``parse_polynomial`` is checked
against sympy's own parser on generated expression texts, hb read as 2*h.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from qkzpsi.algebra import (
    ExactDivisionError,
    LinearForm,
    Polynomial,
    parse_polynomial,
    spectral_context,
)

CTX = spectral_context(3)
GENS = sympy.symbols("z1 z2 z3 h")

coefficients = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.builds(Fraction, st.integers(-6, 6).filter(bool), st.sampled_from([2, 3, 4])),
)


@st.composite
def polys(draw, max_terms=4, max_exp=2):
    exps = st.tuples(*[st.integers(0, max_exp)] * CTX.nvars)
    terms = draw(st.dictionaries(exps, coefficients, max_size=max_terms))
    return Polynomial(CTX, {CTX.pack(e): c for e, c in terms.items()})


@st.composite
def linear_forms(draw):
    """A LinearForm hc*h + z_i - z_j (either z may be absent, not both with hc = 0)."""
    i = draw(st.sampled_from([None, 1, 2, 3]))
    j = draw(st.sampled_from([None] + [x for x in (1, 2, 3) if x != i]))
    hcoef = draw(st.integers(-4, 4).filter(lambda c: c or i or j))
    return LinearForm.make(hcoef, i, j)[0]


def to_sympy(p):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(g ** e for g, e in zip(GENS, CTX.unpack(m))))
        for m, c in p.terms.items()
    ))


def same(p, expr):
    return sympy.expand(to_sympy(p) - expr) == 0


@settings(max_examples=120, deadline=None)
@given(polys(), polys())
def test_product_matches_sympy(p, q):
    assert same(p * q, to_sympy(p) * to_sympy(q))


@settings(max_examples=120, deadline=None)
@given(polys(), st.dictionaries(
    st.integers(0, CTX.nvars - 1),
    polys(max_terms=3, max_exp=1).filter(lambda p: p.degree() <= 1), max_size=3))
def test_substitute_of_linear_images_matches_sympy(p, images):
    want = to_sympy(p).xreplace({GENS[idx]: to_sympy(img) for idx, img in images.items()})
    assert same(p.substitute(images), want)


@settings(max_examples=120, deadline=None)
@given(polys(), linear_forms())
def test_exact_div_of_a_planted_product_matches_sympy(p, form):
    L = form.to_poly(CTX)
    quotient, remainder = sympy.div(to_sympy(p * L), to_sympy(L), *GENS)
    assert remainder == 0
    got = (p * L).exact_div(form)
    assert got == p and same(got, quotient)


@settings(max_examples=200, deadline=None)
@given(polys(), polys(max_terms=2), linear_forms(), st.booleans())
def test_exact_div_raises_exactly_when_sympy_leaves_a_remainder(q, r, form, planted):
    # p is q*L, or q*L + r; {L} is a Groebner basis of the ideal (L), so the
    # remainder of the division in sympy is 0 exactly when L divides p
    L = form.to_poly(CTX)
    p = q * L if planted else q * L + r
    _, remainder = sympy.div(to_sympy(p), to_sympy(L), *GENS)
    try:
        p.exact_div(form)
        divides = True
    except ExactDivisionError:
        divides = False
    assert divides == (sympy.expand(remainder) == 0)


def _binary(children):
    ops = st.sampled_from(["+", " + ", "-", " - ", "*", " * "])
    return st.tuples(children, ops, children).map("".join)


def _unary(children):
    return st.tuples(st.sampled_from(["-", "+", "- "]), children).map("".join)


def _power(children):
    return st.tuples(children, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}")


def _quotient(children):
    return st.tuples(children, st.integers(1, 6)).map(lambda t: f"{t[0]}/{t[1]}")


def _grouped(children):
    return children.map(lambda text: f"({text})")


# texts in parse_polynomial's grammar, left to Python's precedence where unparenthesized
expression_texts = st.recursive(
    st.one_of(st.integers(0, 12).map(str), st.sampled_from(["z1", "z2", "z3", "hb"])),
    lambda children: st.one_of(_binary(children), _unary(children), _power(children),
                               _quotient(children), _grouped(children)),
    max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(expression_texts)
def test_parse_polynomial_matches_sympy(text):
    z1, z2, z3, h = GENS
    want = sympy.parse_expr(text.replace("^", "**"),
                            local_dict={"z1": z1, "z2": z2, "z3": z3, "hb": 2 * h})
    assert same(parse_polynomial(text, CTX), want)
