"""Property tests of the polynomial kernel: exact division and substitution."""

from hypothesis import given, settings, strategies as st

from qkzpsi.algebra import (
    ExactDivisionError,
    LinearForm,
    Polynomial,
    spectral_context,
)

CTX = spectral_context(3)    # z1, z2, z3, h
TARGET = spectral_context(2)  # z1, z2, h

coeffs = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
)


def polys(ctx, max_terms=5, max_exp=3):
    exps = st.tuples(*[st.integers(0, max_exp)] * ctx.nvars)
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda terms: Polynomial(ctx, terms))


@st.composite
def forms(draw):
    """A canonical LinearForm over CTX: hb + z_i - z_j, c*h + z_i, or c*h."""
    hc = draw(st.integers(-4, 4))
    shape = draw(st.sampled_from(("ij", "i", "j", "h")))
    i, j = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2, unique=True))
    if shape == "h":
        return LinearForm.make(hc or 1)[0]
    return LinearForm.make(hc, i if shape != "j" else None, j if shape != "i" else None)[0]


def lead_index(form):
    return CTX.h_index if form.i is None else form.i - 1


def free_of(p, idx):
    return all(e[idx] == 0 for e in p.terms)


@settings(max_examples=200, deadline=None)
@given(polys(CTX), forms())
def test_exact_div_inverts_multiplication(p, form):
    assert (p * form.to_poly(CTX)).exact_div(form) == p


@settings(max_examples=200, deadline=None)
@given(polys(CTX), polys(CTX).filter(bool), forms())
def test_exact_div_reports_its_remainder(p, r, form):
    lead = lead_index(form)
    # set the lead variable of r to 1: then r is the remainder of q by the form
    dropped = {}
    for e, c in r.terms.items():
        e = e[:lead] + (0,) + e[lead + 1:]
        dropped[e] = dropped.get(e, 0) + c
    r = Polynomial(CTX, dropped) or CTX.one()
    q = p * form.to_poly(CTX) + r
    try:
        q.exact_div(form)
    except ExactDivisionError as err:
        rem = err.remainder
    else:
        raise AssertionError("a non-divisible input was divided")
    assert free_of(rem, lead)
    assert rem == r
    assert (q - rem).exact_div(form) == p


def mappings(source, target, full):
    """Images for every variable of source (full) or for a subset of them."""
    keys = st.just(list(range(source.nvars))) if full else st.lists(
        st.integers(0, source.nvars - 1), unique=True, max_size=source.nvars)
    return keys.flatmap(lambda ks: st.fixed_dictionaries(
        {k: polys(target, max_terms=3, max_exp=1) for k in ks}))


@settings(max_examples=100, deadline=None)
@given(polys(CTX, max_terms=4, max_exp=2), polys(CTX, max_terms=4, max_exp=2),
       mappings(CTX, CTX, full=False))
def test_substitute_is_a_ring_homomorphism_in_place(p, q, mapping):
    def s(x):
        return x.substitute(mapping)
    assert s(p * q) == s(p) * s(q)
    assert s(p + q) == s(p) + s(q)


@settings(max_examples=100, deadline=None)
@given(polys(CTX, max_terms=4, max_exp=2), polys(CTX, max_terms=4, max_exp=2),
       mappings(CTX, TARGET, full=True))
def test_substitute_is_a_ring_homomorphism_into_a_new_context(p, q, mapping):
    def s(x):
        return x.substitute(mapping, TARGET)
    assert s(p * q) == s(p) * s(q)
    assert s(p + q) == s(p) + s(q)
    assert s(CTX.one()) == TARGET.one()

