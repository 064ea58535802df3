"""The closed-form builder, fusion, operator sums and the packed polynomial
kernel against the algorithms they replaced.

``oracle_fundamental`` propagates the exchange relation by multiplying out
the numerator and dividing it exactly by z_i - z_{i+1};
``all_descents_fundamental`` derives every label from every descent and
checks every entry, as ``build_psi_fundamental`` did before it built one
entry per orbit of the letter symmetry;
``oracle_fuse`` specializes every fundamental entry first and sums the
signed specializations afterwards.  ``stepwise_accumulate``,
``stepwise_apply`` and ``stepwise_matmul`` reduce after every product and
every partial sum, the sums brought to the lcm of two denominators by
``lcm_add``, as operator sums were formed before ``ROperator.apply`` took
each one over a single common denominator;
``multipass_reduce`` repeats its reduction pass until nothing divides.
The ``tuple_*`` functions are the polynomial kernel on exponent tuples,
{(e_1, ..., e_n): coeff}, as it was before monomials were packed into ints;
``tuple_text`` and ``tuple_to_json`` also render terms one by one, as
``Polynomial.text`` and ``to_json`` did before the cached ``TermWriter``.
``braid_every_source`` builds a fused R-matrix by braiding every source, as
``fused_rcheck`` did before it braided one source per S_k-orbit, with
``apply_fundamental_slot`` for each step, as the braid did before it went
through ``ROperator.apply``, and normalizes it by ``oracle_inverse``, which
inverts the extreme entry by factoring its numerator into linear forms
(``oracle_factor_linear_forms``) as ``fused_rcheck`` did before it
substituted z -> -z.
``route_chains`` runs both routes of the qKZ step in z_i on Psi, route A
through rho and route B through its inverse, one slot operator at a time,
as ``qkz_step`` did before it reduced the step to the exchange relation at
every slot, cyclicity and unitarity; ``built_closure`` certifies that the
two routes agree by building both route composites and multiplying them,
as ``qkz_step`` did before it certified the unitarity of each slot operator;
``substitute_cyclic_shift`` substitutes every argument of the cyclic shift,
as ``check_cyclicity`` did before it rotated the packed fields.
``oracle_solve_block`` solves the exchange relation's blocks by
fraction-free elimination over univariate coefficient lists and Cramer's
rule, as ``solve_rmatrix_from_exchange`` did before it sampled at integers;
``half_sum_images`` are the coordinates z_i = (u+w)/2, z_{i+1} = (u-w)/2
it substituted before it took u + w and u.
``exact_div_reduce`` reduces a rational function by trying exact division
by every denominator form, in one pass, as ``RationalFunction.reduced``
does; ``substitute_then_reduce`` substitutes every entry of an operator
through ``RationalFunction.substitute_z`` and reduces it by
``exact_div_reduce``, so ``ROperator.substitute_spectral``, which expands
over one table of powers and does not reduce, is seen to carry a reduced
operator to reduced entries.
``oracles.restrict_at_once`` evaluates polynomials on a component locus
by substituting every solution at once (``oracles.eval_rational``), as the
membership check did before ``slice.solve_locus`` eliminated the solutions
in order; on an order where no solution involves a variable solved after
it, both see the same polynomials vanish.
All of them live only here, as references.
"""

import contextlib
import json
from fractions import Fraction
from itertools import permutations, product, zip_longest
from math import factorial

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from qkzpsi import appendix, cli, rmatrix
from qkzpsi import slice as slicemod
from qkzpsi.algebra import (
    AlgebraError,
    ExactDivisionError,
    LinearForm,
    Polynomial,
    RationalFunction,
    TermWriter,
    coordinate_context,
    spectral_context,
    sum_of_products,
)
from qkzpsi.appendix import fixture_psi, fixture_rho, fixture_rmatrices
from qkzpsi.combinatorics import (
    SignedPermutationOp,
    content_labels,
    inversions,
    sequence_rotation,
)
from qkzpsi.qkz import (
    PsiError,
    PsiVector,
    _difference,
    _exchange_step,
    _offending,
    build_psi_fundamental,
    check_shape,
    closure_witness,
    cyclic_shift,
    extreme_component,
    fuse_psi,
    label_text,
    qkz_step,
)
from qkzpsi.reporting import json_parts
from qkzpsi.rmatrix import fused_rcheck
from qkzpsi.slice import SliceModel, emit_deformed_equations

from oracles import den_poly, evaluate, monomial_weight, restrict_at_once


def walk_order(base):
    """The distinct rearrangements of base, by (inversions, word)."""
    return sorted(set(permutations(base)), key=lambda s: (inversions(s), s))


def oracle_fundamental(lam):
    """Entries by multiply-then-divide along the first descent of each label."""
    lam = tuple(lam)
    M = sum(lam)
    ctx = spectral_context(M)
    hb = ctx.hbar()
    base = tuple(a for a, la in enumerate(lam, start=1) for _ in range(la))
    seqs = walk_order(base)
    entries = {base: extreme_component(lam)[1]}
    for seq in seqs:
        if seq in entries:
            continue
        i = next(i for i in range(1, M) if seq[i - 1] > seq[i])
        f = entries[seq[:i - 1] + (seq[i], seq[i - 1]) + seq[i + 1:]]
        shifted = LinearForm(2, i, i + 1).to_poly(ctx)  # hb + z_i - z_{i+1}
        num = hb * f - shifted * f.swap_z(i, i + 1)
        entries[seq] = num.exact_div(LinearForm.make(0, i, i + 1)[0])
    return {tuple((a,) for a in seq): p for seq, p in entries.items()}


def all_descents_fundamental(k, lam):
    """Every label derived from every descent, every entry checked."""
    lam = tuple(lam)
    check_shape(k, lam)
    M = sum(lam)
    ctx = spectral_context(M)
    base = []
    for a, la in enumerate(lam, start=1):
        base.extend([a] * la)
    seqs = walk_order(base)
    entries_seq = {}
    _, extreme = extreme_component(lam)
    entries_seq[tuple(base)] = extreme

    for seq in seqs:
        if seq in entries_seq:
            continue
        descents = [i for i in range(1, M) if seq[i - 1] > seq[i]]
        if not descents:
            raise PsiError(f"no descent and no seed for {seq}")
        value = None
        for i in descents:
            partner = seq[:i - 1] + (seq[i], seq[i - 1]) + seq[i + 1:]
            cand = _exchange_step(entries_seq[partner], i)
            if value is None:
                value = cand
            elif cand != value:
                raise PsiError(f"propagation path mismatch at {seq}, slot {i}")
        entries_seq[seq] = value

    want = sum(a * (a - 1) // 2 for a in lam)
    for seq, p in entries_seq.items():
        if p.homogeneous_degree() != want:
            raise PsiError(f"entry {seq} is not homogeneous of degree {want}")
    for seq, p in entries_seq.items():
        for i in range(1, M):
            if seq[i - 1] == seq[i]:
                form = LinearForm(2, i, i + 1)
                try:
                    q = p.exact_div(form)
                except ExactDivisionError:
                    raise PsiError(
                        f"entry {seq} not divisible by hb + z_{i} - z_{i+1}"
                    ) from None
                if q.swap_z(i, i + 1) != q:
                    raise PsiError(f"quotient at {seq}, slot {i} not symmetric")

    entries = {tuple((a,) for a in seq): p for seq, p in entries_seq.items()}
    return PsiVector(k, lam, (1,) * M, ctx, entries)


def oracle_fuse(psi1, m):
    """Fused entries by specialize-then-sum."""
    ctx = spectral_context(len(m))
    half = ctx.hbar() * Fraction(1, 2)
    mapping = {psi1.ctx.h_index: half}
    pos = 0
    for gi, mi in enumerate(m, start=1):
        for t in range(mi):
            mapping[pos] = ctx.z(gi) + half * (2 * t - mi + 1)
            pos += 1
    scale = Fraction(1)
    for mi in m:
        scale /= factorial(mi)
    entries = {}
    for lab in content_labels(psi1.lam, m):
        total = ctx.zero()
        for orderings in product(*[list(permutations(S)) for S in lab]):
            sign = 1
            for block in orderings:
                sign *= perm_sign(block)
            seq = tuple((x,) for block in orderings for x in block)
            total = total + psi1.entries[seq].substitute(mapping, ctx) * sign
        entries[lab] = total * scale
    return entries


def perm_sign(perm):
    """The sign of the permutation that sorts perm, by flipping once per inversion."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def assert_same_terms(got, want):
    assert sorted(got) == sorted(want)
    for lab in want:
        assert got[lab].terms == want[lab].terms, lab


@pytest.mark.parametrize("k, lam", [
    (3, (2, 2, 2)), (4, (2, 2, 2, 1)), (2, (4, 3)),
    (4, (2, 2, 1, 1)), (3, (2, 1, 1)), (2, (3, 3)), (4, (1, 1, 1, 1)), (2, (1, 1)),
])
def test_builder_matches_multiply_then_divide(k, lam):
    # and the builder that derived every label from every descent
    psi = build_psi_fundamental(k, lam)
    assert_same_terms(psi.entries, oracle_fundamental(lam))
    assert_same_terms(psi.entries, all_descents_fundamental(k, lam).entries)


def test_builder_m8_matches_both_oracles(psi_m8):
    assert_same_terms(psi_m8.entries, oracle_fundamental((2, 2, 2, 2)))
    assert_same_terms(psi_m8.entries, all_descents_fundamental(4, (2, 2, 2, 2)).entries)


@pytest.mark.parametrize("k, lam, m", [
    (3, (2, 2, 1), (2, 2, 1)),
    (2, (3, 3), (2, 2, 2)),
    (3, (3, 2, 1), (2, 2, 1, 1)),
    (2, (4, 3), (2, 2, 2, 1)),
    (4, (2, 2, 2, 1), (3, 2, 2)),
    (3, (2, 2, 2), (1, 2, 3)),
])
def test_fusion_matches_specialize_then_sum(k, lam, m):
    psi1 = build_psi_fundamental(k, lam)
    assert_same_terms(fuse_psi(psi1, m).entries, oracle_fuse(psi1, m))


def test_fusion_m8_matches_specialize_then_sum(psi_m8, fused_example):
    assert_same_terms(fused_example.entries, oracle_fuse(psi_m8, (2, 2, 2, 2)))


def lcm_add(x, y):
    """x + y over the lcm of their denominators, reduced."""
    lcm = dict(x.den)
    for f, m in y.den.items():
        lcm[f] = max(lcm.get(f, 0), m)

    def lift(r):
        num = r.num
        for f, m in lcm.items():
            num = num * f.to_poly(r.ctx) ** (m - r.den.get(f, 0))
        return num
    return RationalFunction(lift(x) + lift(y), lcm).reduced()


def stepwise_accumulate(ctx, products):
    """{key: sum of a*b}, reducing after every product and every partial sum."""
    out = {}
    for key, a, b in products:
        term = (a * b).reduced()
        out[key] = lcm_add(out[key], term) if key in out else term
    return out


def stepwise_apply(rop, vec, slot=None):
    """``ROperator.apply`` from the operator's entries as stored, each image
    value summed stepwise; image labels in order of first appearance."""
    products = []
    for label, val in vec.items():
        if val.is_zero():
            continue
        lo, hi = (0, len(label)) if slot is None else (slot, slot + 2)
        for (t, s), rf in rop.entries.items():
            if s == label[lo:hi]:
                products.append((label[:lo] + t + label[hi:], rf, val))
    return stepwise_accumulate(rop.ctx, products)


def stepwise_matmul(left, right):
    """left o right, entry sums accumulated stepwise in right's entry order."""
    entries = {}
    den, mid = left.by_source()
    for (m, s), rf1 in right.entries.items():
        for t, num in mid.get(m, ()):
            key = (t, s)
            term = (RationalFunction(num, den) * rf1).reduced()
            entries[key] = lcm_add(entries[key], term) if key in entries else term
    return rmatrix.ROperator(left.ctx, right.source, left.target, entries)


def multipass_reduce(rf):
    """rf in lowest terms: divide once by every form per pass; repeat while a pass divided."""
    num, den = rf.num, dict(rf.den)
    changed = True
    while changed and den:
        changed = False
        for f in list(den):
            try:
                num = num.exact_div(f)
            except ExactDivisionError:
                continue
            if den[f] == 1:
                del den[f]
            else:
                den[f] -= 1
            changed = True
    return RationalFunction(num, den)


@pytest.fixture
def stepwise(monkeypatch):
    """Within the block, the package sums and reduces the old way."""
    @contextlib.contextmanager
    def block():
        with monkeypatch.context() as mp:
            mp.setattr(rmatrix.ROperator, "apply", stepwise_apply)
            mp.setattr(RationalFunction, "reduced", multipass_reduce)
            yield
    return block


def assert_same_operator(got, want):
    """Same entries in the same order, each with the same (num.terms, den)."""
    assert list(got.entries) == list(want.entries)
    for key, rf in want.entries.items():
        assert got.entries[key].num.terms == rf.num.terms, key
        assert got.entries[key].den == rf.den, key


@pytest.mark.parametrize("k, a, b", [(4, 2, 2), (5, 2, 3)])
def test_fused_rcheck_matches_stepwise_sums(stepwise, k, a, b):
    with stepwise():
        want = fused_rcheck(k, a, b)
    assert_same_operator(fused_rcheck(k, a, b), want)


def oracle_factor_linear_forms(p):
    """(constant, [forms]) with p = constant * prod(forms), by trial division.

    Tries forms hc*h + z_i - z_j over the z-support, then hc*h + z_i, then
    h, with |hc| up to twice the largest coefficient (at least 16).
    """
    ctx = p.ctx
    if p.is_zero():
        raise AlgebraError("cannot factor zero")
    factors = []
    cur = p
    progress = True
    while cur.degree() > 0 and progress:
        progress = False
        support = sorted({idx + 1 for e in cur.terms for idx, exp in enumerate(ctx.unpack(e))
                          if exp and idx != ctx.h_index})
        bound = max([8] + [int(abs(Fraction(c))) for c in cur.terms.values()])
        hcoefs = [0] + [c * s for c in range(1, 2 * bound + 1) for s in (1, -1)]
        candidates = [(i, j) for n, i in enumerate(support) for j in support[n + 1:]]
        candidates += [(i, None) for i in support]
        trials = [LinearForm.make(hc, i, j)[0] for i, j in candidates for hc in hcoefs]
        for f in trials + [LinearForm(1)]:
            try:
                cur = cur.exact_div(f)
            except ExactDivisionError:
                continue
            factors.append(f)
            progress = True
            break
    if cur.degree() > 0:
        raise AlgebraError("polynomial does not split into supported linear forms")
    return next(iter(cur.terms.values())), factors


def oracle_inverse(rf):
    """1/rf, its numerator factored into the new denominator."""
    if rf.is_zero():
        raise AlgebraError("inversion of the zero function")
    const, factors = oracle_factor_linear_forms(rf.num)
    den = {}
    for f in factors:
        den[f] = den.get(f, 0) + 1
    return RationalFunction(den_poly(rf) * (Fraction(1) / Fraction(const)), den)


def test_oracle_inverse_pair():
    ctx = spectral_context(1)
    z, hb = ctx.z(1), ctx.hbar()
    plus, _ = LinearForm.make(2, 1)
    r1 = RationalFunction(hb - z, {plus: 1})
    assert (r1 * oracle_inverse(r1)).equals(ctx.one())
    assert evaluate(r1, [Fraction(0), Fraction(1, 2)]) == 1  # z = 0, hb = 1


def test_oracle_inverse_of_zero():
    with pytest.raises(AlgebraError):
        oracle_inverse(RationalFunction.from_poly(spectral_context(1).zero()))


def test_oracle_factor_linear_forms():
    ctx = spectral_context(4)
    z, hb = [None] + [ctx.z(i) for i in range(1, 5)], ctx.hbar()
    p = (hb + z[1] - z[2]) * (2 * hb + z[3] - z[4]) * 3
    const, forms = oracle_factor_linear_forms(p)
    assert const == 3
    rebuilt = ctx.const(const)
    for f in forms:
        rebuilt = rebuilt * f.to_poly(ctx)
    assert rebuilt == p


def apply_fundamental_slot(vec, slot, arg_hcoef, ctx):
    """The fundamental operator at word positions (slot, slot+1) and argument
    z + arg_hcoef * h, on words of letters, with the equal and unequal letter
    cases written out, as ``_braid_column`` applied it before it went
    through ``ROperator.apply``; terms that cancel are dropped."""
    z = ctx.z(1)
    hb = ctx.hbar()
    arg = z + hb * Fraction(arg_hcoef, 2)
    den_form, den_sign = LinearForm.make(2 + arg_hcoef, 1)  # hb + z + c*h
    eq = RationalFunction((hb - arg) * den_sign, {den_form: 1})
    stay = RationalFunction(hb * den_sign, {den_form: 1})
    swap = RationalFunction(-arg * den_sign, {den_form: 1})
    products = []
    for word, coeff in vec.items():
        x, y = word[slot], word[slot + 1]
        if x == y:
            products.append((word, coeff, eq))
        else:
            products.append((word, coeff, stay))
            products.append((word[:slot] + (y, x) + word[slot + 2:], coeff, swap))
    return {w: v for w, v in stepwise_accumulate(ctx, products).items() if not v.is_zero()}


def braid_every_source(k, a, b):
    """The fused operator with every source braided, projected and checked."""
    if a == 1 and b == 1:
        return rmatrix.fundamental_rcheck(k)
    ctx = rmatrix.CTX1
    source = rmatrix._pair_labels(k, a, b)
    target = rmatrix._pair_labels(k, b, a)

    def embed(S):
        return {perm: perm_sign(perm) for perm in permutations(S)}

    entries = {}
    raw_extreme = None
    for (S, T) in source:
        vec = {ws + wt: RationalFunction.from_poly(ctx.const(cs * ct))
               for ws, cs in embed(S).items() for wt, ct in embed(T).items()}
        for p in range(a, 0, -1):
            for q in range(1, b + 1):
                vec = apply_fundamental_slot(vec, p + q - 2, 2 * p - 2 * q + b - a, ctx)
        coeffs = {(P, Q): vec[P + Q] for (P, Q) in target
                  if P + Q in vec and not vec[P + Q].is_zero()}
        rebuilt = stepwise_accumulate(ctx, [
            (wp + wq, c, cp * cq)
            for (P, Q), c in coeffs.items()
            for wp, cp in embed(P).items()
            for wq, cq in embed(Q).items()
        ])
        assert rmatrix.first_difference(vec, rebuilt) is None, (S, T)
        for key, c in coeffs.items():
            entries[(key, (S, T))] = c
        if S == tuple(range(1, a + 1)) and T == tuple(range(1, b + 1)):
            raw_extreme = coeffs[(T, S)]
    scalar = rmatrix.normalization_factor(a, b) * oracle_inverse(raw_extreme)
    entries = {key: (scalar * rf).reduced() for key, rf in entries.items()}
    return rmatrix.ROperator(ctx, source, target, entries)


ORBIT_CASES = [(k, a, b) for k in (2, 3, 4) for a in range(1, k) for b in range(1, k)] + [
    (5, 1, 3), (5, 2, 2), (5, 2, 3), (5, 3, 2)]


@pytest.fixture(scope="module")
def braided_every_source():
    return {case: braid_every_source(*case) for case in ORBIT_CASES}


@pytest.mark.parametrize("k, a, b", ORBIT_CASES)
def test_fused_rcheck_matches_braiding_every_source(braided_every_source, k, a, b):
    assert_same_operator(fused_rcheck(k, a, b), braided_every_source[(k, a, b)])


@pytest.mark.parametrize("position", range(4), ids=["e(S0)", "e(T0)", "e(P)", "e(Q)"])
def test_one_flipped_transport_sign_is_caught(braided_every_source, monkeypatch, position):
    """Leaving one factor out of the sign rule flips it wherever it is -1."""
    real = rmatrix._transport_parity

    def parity(sigma, *tuples):
        return real(sigma, *tuples[:position], *tuples[position + 1:])

    monkeypatch.setattr(rmatrix, "_transport_parity", parity)
    failed = []
    for case in [(4, 2, 2), (5, 2, 3), (5, 3, 2)]:
        try:
            assert_same_operator(fused_rcheck(*case), braided_every_source[case])
        except AssertionError:
            failed.append(case)
    assert failed == [(4, 2, 2), (5, 2, 3), (5, 3, 2)]


# -- the route chains of the qKZ step --------------------------------------------


def applicators(psi, full_ops=None):
    """Per-slot applicators: apply(vec, form, sign) for slots 1..N-1."""
    if full_ops is not None:
        return {j: rmatrix.matrix_applicator(op) for j, op in full_ops.items()}
    return {j: rmatrix.slot_applicator(rmatrix.pair_operator(psi.k, psi.m[j - 1], psi.m[j]),
                                       j - 1)
            for j in range(1, psi.N)}


def route_steps(N, k, i):
    """Steps (slot, hcoef, a, b) of both routes of the step in z_i.

    Route A applies steps_pre, rho, steps_post; route B applies
    steps_right, the inverse rotation, steps_back.  A step applies the slot
    operator at argument hcoef*h + z_a - z_b.
    """
    s_h = 2 * (k + 1)
    steps_pre = [(j, 0, j, i) for j in range(i - 1, 0, -1)]
    steps_post = [(j, -s_h, j + 1, i) for j in range(N - 1, i - 1, -1)]
    steps_right = [(j, 0, i, j + 1) for j in range(i, N)]
    steps_back = [(j, -s_h, i, j) for j in range(1, i)]
    return steps_pre, steps_post, steps_right, steps_back


def run_chain(apply_at, vec, steps):
    """vec through the steps.  No step reduces its values: the denominators
    grow along the chain, and ``rmatrix.first_difference`` and
    ``RationalFunction.equals`` compare by cross-multiplying."""
    for (j, hcoef, a, b) in steps:
        form, sign = LinearForm.make(hcoef, a, b)
        vec = apply_at[j](vec, form, sign)
    return vec


def route_chains(psi, i, rho, full_ops=None):
    """None if both routes of the step in z_i hold on Psi, else the witness.

    Route A checks Psi(..., z_i + s, ...) = S_i Psi and route B
    Psi(..., z_i - s, ...) = C_i Psi, s = (k+1) hb, by running each chain
    of operators on Psi itself, as ``qkz_step`` did before it reduced the
    step to exchange, cyclicity and unitarity.
    """
    ctx = psi.ctx
    apply_at = applicators(psi, full_ops)
    pre, post, right, back = route_steps(psi.N, psi.k, i)
    s = ctx.hbar() * (psi.k + 1)
    for route, first, wrap, then, shift in (("A", pre, rho, post, s),
                                            ("B", right, rho.inverse(), back, -s)):
        v = run_chain(apply_at, wrap.apply(run_chain(apply_at, dict(psi.entries), first)), then)
        lhs = {lab: p.substitute({i - 1: ctx.z(i) + shift}) for lab, p in psi.entries.items()}
        where = rmatrix.first_difference(lhs, v)
        if where is not None:
            return f"route {route}: {_offending(where, _difference(lhs[where], v.get(where)))}"
    return None


def materialize(psi, apply_at, steps1, rho_op, steps2):
    """The composite operator of a route, built column by column on the basis."""
    one = RationalFunction.from_poly(psi.ctx.one())
    entries = {}
    for src in psi.basis:
        vec = run_chain(apply_at, {src: one}, steps1)
        vec = run_chain(apply_at, rho_op.apply(vec), steps2)
        for tgt, rf in vec.items():
            entries[(tgt, src)] = rf
    return rmatrix.ROperator(psi.ctx, psi.basis, psi.basis, entries)


def reduced_operator(rop):
    """rop with every entry in lowest terms."""
    return rmatrix.ROperator(rop.ctx, rop.source, rop.target,
                             {key: rf.reduced() for key, rf in rop.entries.items()})


def substitute_operator(rop, zmapping):
    entries = {key: rf.substitute_z(zmapping) for key, rf in rop.entries.items()}
    return rmatrix.ROperator(rop.ctx, rop.source, rop.target, entries)


def is_identity(rop):
    """1 on the diagonal and 0 elsewhere (``entries`` holds no zeros)."""
    one = rop.ctx.one()
    return (rop.source == rop.target
            and set(rop.entries) == {(s, s) for s in rop.source}
            and all(rf.equals(one) for rf in rop.entries.values()))


def qkz_composites(psi, i, rho, full_ops=None):
    """The route composites S_i and C_i of the step in z_i, and S_i(z_i -> z_i - s)."""
    ctx = psi.ctx
    apply_at = applicators(psi, full_ops)
    pre, post, right, back = route_steps(psi.N, psi.k, i)
    S = materialize(psi, apply_at, pre, rho, post)
    C = materialize(psi, apply_at, right, rho.inverse(), back)
    shift = {i: ctx.z(i) - ctx.hbar() * Fraction(psi.k + 1)}
    return S, C, substitute_operator(S, shift)


def built_closure(psi, i, rho, full_ops=None):
    """S_i(z_i -> z_i - s) C_i = 1, by building both composites and multiplying."""
    _, C, shifted = qkz_composites(psi, i, rho, full_ops)
    return is_identity(shifted.matmul(C))


def rotation(psi):
    return sequence_rotation(psi.basis, psi.m, sum(psi.lam), psi.k)


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_qkz_composites_match_stepwise_sums(stepwise, i):
    psi = build_psi_fundamental(4, (1, 1, 1, 1))
    rho = rotation(psi)
    with stepwise():
        S0, C0, shifted0 = qkz_composites(psi, i, rho)
        prod0 = stepwise_matmul(shifted0, C0)
    S, C, shifted = qkz_composites(psi, i, rho)
    assert_same_operator(S, S0)
    assert_same_operator(C, C0)
    prod = shifted.matmul(C)
    assert_same_operator(reduced_operator(prod), prod0)
    assert is_identity(prod)


@pytest.mark.parametrize("k, lam", [(2, (2, 2)), (2, (3, 3)), (4, (1, 1, 1, 1))], ids=str)
def test_unitarity_certificate_agrees_with_built_closure(fresh_unitarity, k, lam):
    psi = build_psi_fundamental(k, lam)
    rho = rotation(psi)
    assert closure_witness(psi) is None
    assert [built_closure(psi, i, rho) for i in range(1, psi.N + 1)] == [True] * psi.N


@pytest.fixture(scope="module")
def appendix_case(appendix_doc):
    printed = fixture_rmatrices(appendix_doc)
    full_ops = {j: printed[f"R{j}"] for j in (1, 2, 3)}
    return fixture_psi(appendix_doc), fixture_rho(appendix_doc), full_ops


def test_unitarity_certificate_agrees_with_built_closure_on_full_ops(appendix_case):
    psi, rho, full_ops = appendix_case
    assert closure_witness(psi, full_ops) is None
    assert [built_closure(psi, i, rho, full_ops) for i in range(1, 5)] == [True] * 4


def scaled_entry(rop, key):
    """rop with the entry at key doubled: no longer unitary."""
    entries = dict(rop.entries)
    entries[key] = entries[key] * 2
    return rmatrix.ROperator(rop.ctx, rop.source, rop.target, entries)


def test_a_non_unitary_pair_operator_fails_both(fresh_unitarity, monkeypatch):
    psi = build_psi_fundamental(2, (2, 2))
    rho = rotation(psi)
    real = rmatrix.pair_operator(2, 1, 1)
    key = (((1,), (1,)), ((1,), (1,)))
    bad = scaled_entry(real, key)
    monkeypatch.setattr(rmatrix, "pair_operator", lambda k, a, b: bad)
    assert closure_witness(psi) == (
        "slot 1 pair (1,1) is not unitary: column ((1,), (1,)), entry ((1,), (1,))")
    assert [built_closure(psi, i, rho) for i in range(1, 5)] == [False] * 4


def test_a_non_unitary_full_operator_fails_both(appendix_case):
    psi, rho, full_ops = appendix_case
    bad_ops = {**full_ops, 2: scaled_entry(full_ops[2], next(iter(full_ops[2].entries)))}
    witness = closure_witness(psi, bad_ops)
    assert witness.startswith("slot 2 operator is not unitary: column "), witness
    assert [built_closure(psi, i, rho, bad_ops) for i in range(1, 5)] == [False] * 4


def oracle_qkz_status(psi, i, rho, full_ops=None, closure=built_closure):
    """'pass' when both route chains hold and ``closure`` certifies that they close."""
    ok = route_chains(psi, i, rho, full_ops) is None and closure(psi, i, rho, full_ops)
    return "pass" if ok else "fail"


def unitary_slots(psi, i, rho, full_ops=None):
    """The closure by ``closure_witness``, which the tests above tie to ``built_closure``."""
    return closure_witness(psi, full_ops) is None


def fundamental_case(k, lam, m=None):
    def make(request):
        psi = build_psi_fundamental(k, lam)
        psi = psi if m is None else fuse_psi(psi, m)
        return psi, rotation(psi), None
    return make


def fused_m8_case(request):
    psi = request.getfixturevalue("fused_example")
    return psi, rotation(psi), None


def appendix_qkz_case(request):
    return request.getfixturevalue("appendix_case")


# built_closure takes about 3.3 s per i on (3,(2,2,2)) and 22 s per i on
# fused M=8 (2 cores, CPython 3.11.7), so those two close by unitary_slots
QKZ_CASES = {
    "(2,(2,2))": (fundamental_case(2, (2, 2)), built_closure),
    "(2,(3,3))": (fundamental_case(2, (3, 3)), built_closure),
    "(3,(2,2,2))": (fundamental_case(3, (2, 2, 2)), unitary_slots),
    "(4,(1,1,1,1))": (fundamental_case(4, (1, 1, 1, 1)), built_closure),
    "fused M=8": (fused_m8_case, unitary_slots),
    "(3,(2,2,2))->(2,2,2)": (fundamental_case(3, (2, 2, 2), (2, 2, 2)), built_closure),
    "appendix": (appendix_qkz_case, built_closure),
}


@pytest.mark.parametrize("case", QKZ_CASES)
def test_qkz_step_matches_the_route_chains(request, case):
    make, closure = QKZ_CASES[case]
    psi, rho, full_ops = make(request)
    rep = qkz_step(psi, rho, full_ops)
    assert rep.passed, rep.witness
    for i in range(1, psi.N + 1):
        assert oracle_qkz_status(psi, i, rho, full_ops, closure) == "pass", i


def test_qkz_step_and_the_route_chains_refuse_wedges_of_size_k():
    # (2,(3,3)) fused to m = (2,2,2): every slot is the k-th wedge power, where
    # no fused R-matrix is defined; the chains raise, and the step skips
    psi = fuse_psi(build_psi_fundamental(2, (3, 3)), (2, 2, 2))
    rho = rotation(psi)
    with pytest.raises(rmatrix.RMatrixError, match="wedge sizes must lie in 1..k-1"):
        route_chains(psi, 1, rho)
    rep = qkz_step(psi, rho)
    assert (rep.status, rep.witness) == (
        "skipped", "exchange at slot 1: m_1 = k = 2: the k-th wedge power has no fused R-matrix")


class FlippedInverse:
    """rho whose inverse carries the wrong sign; only route B of the chains uses it."""

    def __init__(self, rho):
        self.rho = rho

    def apply(self, vec):
        return self.rho.apply(vec)

    def inverse(self):
        inv = self.rho.inverse()
        return SignedPermutationOp(inv.basis, inv.mapping, -inv.sign)


def inverse_rotation(rho):
    """rho with the label map reversed: (rho v)_S = sign * v_(S_2..S_N, S_1)."""
    return SignedPermutationOp(
        rho.basis, {lab: (lab[-1],) + lab[:-1] for lab in rho.basis}, rho.sign)


def sign_flipped(rho):
    return SignedPermutationOp(rho.basis, rho.mapping, -rho.sign)


def times_z1_plus_z2(psi):
    g = psi.ctx.z(1) + psi.ctx.z(2)
    return PsiVector(psi.k, psi.lam, psi.m, psi.ctx,
                     {lab: p * g for lab, p in psi.entries.items()})


@pytest.fixture(scope="module", params=[(2, (1, 1)), (2, (3, 3)), (3, (2, 2, 2))], ids=str)
def control_case(request):
    k, lam = request.param
    psi = build_psi_fundamental(k, lam)
    return psi, rotation(psi)


def statuses(psi, rho):
    """(qkz_step, oracle) status at every i; the operators stay unitary.  The
    step's one certificate covers every i."""
    step = qkz_step(psi, rho).status
    return [(step, oracle_qkz_status(psi, i, rho, closure=unitary_slots))
            for i in range(1, psi.N + 1)]


def test_a_scaled_vector_fails_the_step_where_the_chains_cannot_see_it(control_case):
    # g = z1 + z2 commutes with every route operator, so the chains of the step
    # in z_i compare g(z) with g(..., z_i + s, ...): they tell them apart at
    # i = 1, 2 only.  The step fails at every i, by cyclicity when N = 2 and
    # by exchange at slot 2 otherwise (g is not symmetric in z2, z3).
    psi, rho = control_case
    got = statuses(times_z1_plus_z2(psi), rho)
    assert all(oracle == "pass" for new, oracle in got if new == "pass"), got
    assert got == [("fail", "fail")] * 2 + [("fail", "pass")] * (psi.N - 2)


@pytest.mark.parametrize("wrong", [inverse_rotation, sign_flipped])
def test_a_wrong_rotation_fails_the_step_and_the_chains_everywhere(control_case, wrong):
    psi, rho = control_case
    bad = wrong(rho)
    if psi.N == 2 and wrong is inverse_rotation:
        # a rotation of two slots is its own inverse: nothing is wrong
        assert bad.mapping == rho.mapping
        assert statuses(psi, bad) == [("pass", "pass")] * 2
    else:
        assert statuses(psi, bad) == [("fail", "fail")] * psi.N


def test_the_step_is_stronger_than_the_chains_on_a_scaled_k2_33():
    # the documented strengthening: at i = 3..6 the chains pass g*Psi (above),
    # and the step names exchange at slot 2, where lhs - rhs at the first label
    # is (tau_2 g - g) tau_2 Psi = (z3 - z2) tau_2 Psi
    psi = build_psi_fundamental(2, (3, 3))
    lab = ((1,), (1,), (1,), (2,), (2,), (2,))
    remainder = (psi.ctx.z(3) - psi.ctx.z(2)) * psi.entries[lab].swap_z(2, 3)
    want = "exchange at slot 2: " + _offending(lab, remainder)
    scaled, rho = times_z1_plus_z2(psi), rotation(psi)
    assert qkz_step(scaled, rho).witness == want


def test_the_chains_name_the_route_that_fails():
    # Psi for (2,(1,1)) is 1 at ({1},{2}) and -1 at ({2},{1})
    psi = build_psi_fundamental(2, (1, 1))
    rho = rotation(psi)
    sign = {((1,), (2,)): "", ((2,), (1,)): "-"}

    def witnesses(route, value):
        return {f"route {route}: first offending label {label_text(lab)}: "
                f"lhs - rhs = {s}{value} (1 terms)" for lab, s in sign.items()}

    # g = z1 + z2 commutes with every route operator, so for g*Psi both sides of
    # route A differ by (g(z_i + 3 hb) - g) Psi = 3 hb Psi at every label
    for i in (1, 2):
        assert route_chains(times_z1_plus_z2(psi), i, rho) in witnesses("A", "3*hb")
    # a sign-flipped inverse rotation negates route B's right side: lhs - rhs = 2 Psi,
    # and qkz_step, which never inverts rho, still passes
    for i in (1, 2):
        assert route_chains(psi, i, FlippedInverse(rho)) in witnesses("B", "2")
    assert qkz_step(psi, FlippedInverse(rho)).passed


def substitute_cyclic_shift(p, k):
    """p(z_2, ..., z_N, z_1 + (k+1) hb), by substituting an image for every z."""
    ctx = p.ctx
    mapping = {t - 1: ctx.z(t + 1) for t in range(1, ctx.nz)}
    mapping[ctx.nz - 1] = ctx.z(1) + ctx.hbar() * (k + 1)
    return p.substitute(mapping)


@pytest.mark.parametrize("k, lam", [(2, (3, 3)), (3, (2, 2, 2))], ids=str)
def test_rotated_cyclic_shift_matches_substituting_every_image(k, lam):
    psi = build_psi_fundamental(k, lam)
    for lab, p in psi.entries.items():
        assert cyclic_shift(p, k).terms == substitute_cyclic_shift(p, k).terms, lab


def test_rotated_cyclic_shift_matches_substituting_every_image_m8(fused_example):
    for lab, p in fused_example.entries.items():
        assert cyclic_shift(p, 4).terms == substitute_cyclic_shift(p, 4).terms, lab


# -- the tuple-keyed polynomial kernel ------------------------------------------


def tuple_terms(p):
    return {p.ctx.unpack(e): c for e, c in p.terms.items()}


def tuple_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def tuple_mul(a, b):
    out = {}
    for eb, cb in b.items():
        for ea, ca in a.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def tuple_substitute(terms, images, nvars):
    """images[idx] is the tuple-keyed image of variable idx over nvars variables."""
    acc = {}
    for e, c in terms.items():
        cur = {(0,) * nvars: c}
        for idx, exp in enumerate(e):
            for _ in range(exp):
                cur = tuple_mul(cur, images[idx])
        for m, cm in cur.items():
            acc[m] = acc.get(m, 0) + cm
    return {m: c for m, c in acc.items() if c}


def tuple_swap(terms, i, j):
    out = {}
    for e, c in terms.items():
        le = list(e)
        le[i - 1], le[j - 1] = le[j - 1], le[i - 1]
        out[tuple(le)] = c
    return out


def tuple_exact_div(terms, form, h):
    """(quotient, remainder) of synthetic division by a LinearForm; h is the h slot."""
    if not terms:
        return {}, {}
    if form.i is None and form.j is None:
        rem = {e: c for e, c in terms.items() if e[h] == 0}
        quo = {}
        for e, c in terms.items():
            if e[h]:
                le = list(e)
                le[h] -= 1
                quo[tuple(le)] = Fraction(c, form.hcoef)
        return quo, rem
    lead = form.i - 1
    j = None if form.j is None else form.j - 1
    layers = {}
    for e, c in terms.items():
        le = list(e)
        le[lead] = 0
        layers.setdefault(e[lead], {})[tuple(le)] = c
    carry, quotient = {}, {}
    for d in range(max(layers), 0, -1):
        cur = tuple_add(layers.get(d, {}), carry)
        carry = {}
        for e, c in cur.items():
            le = list(e)
            le[lead] = d - 1
            quotient[tuple(le)] = c
            le[lead] = 0
            if j is not None:
                le[j] += 1
                carry = tuple_add(carry, {tuple(le): c})
                le[j] -= 1
            if form.hcoef:
                le[h] += 1
                carry = tuple_add(carry, {tuple(le): -form.hcoef * c})
    return quotient, tuple_add(layers.get(0, {}), carry)


def tuple_display(e, c, h):
    disp = Fraction(c) / 2 ** (0 if h is None else e[h])
    return disp.numerator, disp.denominator


def tuple_sorted(terms):
    return sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)


def tuple_text(terms, names, h):
    if not terms:
        return "0"
    parts = []
    for e, c in tuple_sorted(terms):
        num, den = tuple_display(e, c, h)
        factors = [n if x == 1 else f"{n}^{x}" for n, x in zip(names, e) if x]
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        body = "*".join(factors)
        piece = mag if not factors else body if mag == "1" else f"{mag}*{body}"
        parts.append(("-" if num < 0 else "+", piece))
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, piece in parts[1:]:
        out += f" {sign} {piece}"
    return out


def tuple_to_json(terms, ctx):
    rows = [[*tuple_display(e, c, ctx.h_index), *e] for e, c in tuple_sorted(terms)]
    return {"terms": rows, "vars": ctx.nz if ctx.h_index is not None else list(ctx.names)}


SPECTRAL = (spectral_context(3), spectral_context(9))  # 4 and 10 variables
COORDINATE = (
    SliceModel((2,) * 5).context(extra=tuple(f"t{a}" for a in range(1, 6))),  # 55
    SliceModel((2,) * 6).context(),  # 72
)
assert [c.nvars for c in SPECTRAL + COORDINATE] == [4, 10, 55, 72]

coefficients = st.one_of(
    st.integers(-50, 50).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool),
)


def tuple_polys(ctx, max_terms=4, max_exp=3, support=4):
    """Tuple-keyed term dicts over ctx with at most ``support`` variables per term."""
    n = ctx.nvars
    monomials = st.dictionaries(st.integers(0, n - 1), st.integers(1, max_exp),
                                max_size=support).map(
        lambda d: tuple(d.get(i, 0) for i in range(n)))
    return st.dictionaries(monomials, coefficients, max_size=max_terms)


def packed(ctx, terms):
    return Polynomial(ctx, {ctx.pack(e): c for e, c in terms.items()})


contexts = st.sampled_from(SPECTRAL + COORDINATE)
spectral = st.sampled_from(SPECTRAL)


@settings(max_examples=150, deadline=None)
@given(contexts.flatmap(lambda ctx: st.tuples(st.just(ctx), tuple_polys(ctx), tuple_polys(ctx))))
def test_packed_mul_and_add_match_tuples(case):
    ctx, a, b = case
    pa, pb = packed(ctx, a), packed(ctx, b)
    assert tuple_terms(pa) == {e: c for e, c in a.items() if c}
    assert tuple_terms(pa * pb) == tuple_mul(a, b)
    assert tuple_terms(pa + pb) == tuple_add(a, b)


@settings(max_examples=150, deadline=None)
@given(contexts.flatmap(lambda ctx: st.tuples(st.just(ctx), tuple_polys(ctx, max_terms=6))))
def test_packed_text_and_json_match_tuples(case):
    ctx, a = case
    p = packed(ctx, a)
    assert p.text() == tuple_text(a, ctx.names, ctx.h_index)
    assert p.to_json() == tuple_to_json(a, ctx)


def edge_polys(ctx):
    """Zero, constants, a Fraction coefficient, exponents above 1 and, in a
    spectral context, h powers that fold into the displayed coefficient."""
    n, h = ctx.nvars, ctx.h_index
    one = tuple(int(i == 0) for i in range(n))
    top = tuple(3 if i in (0, n - 1) else 0 for i in range(n))
    polys = [{}, {(0,) * n: 1}, {(0,) * n: Fraction(-1, 2), one: -1},
             {top: Fraction(3, 4), one: 2, (0,) * n: -3}]
    if h is not None:
        polys.append({tuple(2 * (i == h) for i in range(n)): 6, one: Fraction(5, 2)})
    return polys


def dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(contexts.flatmap(lambda ctx: st.tuples(
    st.just(ctx), st.lists(tuple_polys(ctx, max_terms=8), min_size=1, max_size=8))))
def test_one_writer_renders_a_sequence_like_tuples(case):
    ctx, seq = case
    writer = TermWriter(ctx)
    for a in edge_polys(ctx) + seq + seq:
        p = packed(ctx, a)
        assert p.text(writer) == tuple_text(a, ctx.names, ctx.h_index)
        want = tuple_to_json(a, ctx)
        # rows at two depths: the writer rebuilds its row caches when the indent changes
        assert "".join(json_parts(p.to_json(writer))) == dumps(want)
        assert "".join(json_parts({"x": [p.to_json(writer)]})) == dumps({"x": [want]})


def psi_json(build):
    """The streamed JSON text of a built vector, and its plain document."""
    def texts(tmp_path):
        psi = build()
        return "".join(json_parts(psi.to_json(TermWriter(psi.ctx)))), psi.to_json()
    return texts


def slice_json(tmp_path):
    """The JSON that ``slice emit`` streams as it builds each relation, and
    the plain document of the relations that ``emit_deformed_equations`` holds."""
    out = tmp_path / "slice.json"
    assert cli.main(["slice", "emit", "--m", "2,2,2", "--ell", "3,3", "--deform",
                     "--format", "json", "--out", str(out)]) == 0
    eqs = emit_deformed_equations((2, 2, 2), (3, 3))
    doc = {"schema": 1, "m": [2, 2, 2], "ell": [3, 3], "deformed": True,
           "coordinates": list(eqs.ctx.names),
           "relations": [{"name": n, "poly": p.to_json()} for n, p in eqs.relations]}
    return out.read_text().removesuffix("\n"), doc


STREAMED = {
    "fundamental": psi_json(lambda: build_psi_fundamental(3, (2, 2, 1))),
    "fused": psi_json(lambda: fuse_psi(build_psi_fundamental(3, (2, 2, 2)), (2, 2, 2))),
    "slice": slice_json,
}


@pytest.mark.parametrize("name", sorted(STREAMED))
def test_streamed_json_matches_json_dumps(name, tmp_path):
    streamed, doc = STREAMED[name](tmp_path)
    assert streamed == dumps(doc)


# a target ring whose variables come in another order than every source's
REORDERED = coordinate_context(tuple(reversed(COORDINATE[0].names)))


def variable_images(target):
    """The image of one variable over target: a rename, a rename scaled by
    1/2 or -1, a constant, zero, or a polynomial of at most three terms."""
    n = target.nvars
    var = st.integers(0, n - 1).map(lambda j: tuple(int(i == j) for i in range(n)))
    return st.one_of(
        var.map(lambda e: {e: 1}),
        var.map(lambda e: {e: Fraction(1, 2)}),
        var.map(lambda e: {e: -1}),
        coefficients.map(lambda c: {(0,) * n: c}),
        st.just({}),
        tuple_polys(target, max_terms=3, max_exp=1, support=2),
    )


@st.composite
def substitutions(draw, ctx):
    """A term dict over ctx, images of its variables over a target ring, and
    the variables left out of the mapping.

    The target is a ring of the same kind as ctx, or ``REORDERED``.
    Variables that the terms do not use map to zero.  When the target is
    ctx itself, some used variables may be left out; their images are the
    variables themselves.
    """
    target = draw(st.sampled_from(
        (SPECTRAL[0] if ctx.h_index is not None else COORDINATE[0], REORDERED)))
    terms = draw(tuple_polys(ctx, max_terms=3, max_exp=2, support=3))
    used = sorted({idx for e in terms for idx, x in enumerate(e) if x})
    dropped = draw(st.sets(st.sampled_from(used))) if used and target is ctx else set()
    image = variable_images(target)
    return ctx, target, terms, [
        {tuple(int(j == idx) for j in range(ctx.nvars)): 1} if idx in dropped
        else draw(image) if idx in used else {} for idx in range(ctx.nvars)], dropped


@settings(max_examples=200, deadline=None)
@given(contexts.flatmap(substitutions))
def test_packed_substitute_matches_tuples(case):
    ctx, target, terms, images, dropped = case
    mapping = {idx: packed(target, img) for idx, img in enumerate(images) if idx not in dropped}
    got = packed(ctx, terms).substitute(mapping, target)
    assert tuple_terms(got) == tuple_substitute(terms, images, target.nvars)


BENCH_SLICES = {  # the slices that the benchmark's appendix workload emits
    "5x2_55": ((2,) * 5, (5, 5), False),
    "5x2_55_deformed": ((2,) * 5, (5, 5), True),
    "6x2_444": ((2,) * 6, (4, 4, 4), False),
}


@pytest.fixture(scope="module", params=sorted(BENCH_SLICES))
def bench_slice(request):
    m, ell, deform = BENCH_SLICES[request.param]
    eqs = (emit_deformed_equations if deform else slicemod.emit_equations)(m, ell)
    return SliceModel(m), eqs, ell[0]


def test_t_zero_substitutions_match_tuples_on_the_bench_slices(bench_slice):
    # the two shapes of appendix.check_deformed's t = 0 limit: a deformed
    # relation with every t_a mapped to zero, an undeformed one embedded by
    # renaming into the ring with t_1..t_L
    model, eqs, L = bench_slice
    ctx, n = eqs.ctx, eqs.ctx.nvars
    tnames = tuple(f"t{a}" for a in range(1, L + 1))
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    if tnames[0] in ctx.names:
        target = ctx
        mapping = {ctx.index(t): ctx.zero() for t in tnames}
        images = [{} if name in tnames else {unit[idx]: 1} for idx, name in enumerate(ctx.names)]
    else:
        target = model.context(extra=tnames)
        mapping = {idx: target.var(name) for idx, name in enumerate(ctx.names)}
        images = [{tuple(int(i == target.index(name)) for i in range(target.nvars)): 1}
                  for name in ctx.names]
    for name, p in eqs.relations:
        got = p.substitute(mapping, target)
        assert tuple_terms(got) == tuple_substitute(tuple_terms(p), images, target.nvars), name


def test_grading_matches_the_unpacked_weights_on_the_bench_slices(bench_slice):
    model, eqs, _ = bench_slice
    ctx = eqs.ctx
    for name, p in eqs.relations:
        want = len({monomial_weight(model, ctx, e) for e in p.terms}) <= 1
        assert model.relation_is_homogeneous(ctx, p) == want, name
    # a relation plus itself times a coordinate has two weights or more
    p = next(p for _, p in eqs.relations if p.terms)
    mixed = p + p * ctx.var(model.coords[0].name)
    assert len({monomial_weight(model, ctx, e) for e in mixed.terms}) >= 2
    assert not model.relation_is_homogeneous(ctx, mixed)


@st.composite
def spectral_forms(draw, ctx):
    hc = draw(st.integers(-4, 4))
    shape = draw(st.sampled_from(("ij", "i", "j", "h")))
    i, j = draw(st.lists(st.integers(1, ctx.nz), min_size=2, max_size=2, unique=True))
    if shape == "h":
        return LinearForm.make(hc or 1)[0]
    return LinearForm.make(hc, i if shape != "j" else None, j if shape != "i" else None)[0]


@settings(max_examples=200, deadline=None)
@given(spectral.flatmap(lambda ctx: st.tuples(
    st.just(ctx), tuple_polys(ctx), spectral_forms(ctx), st.booleans())))
def test_packed_exact_div_matches_tuples(case):
    ctx, a, form, multiply = case
    p = packed(ctx, a)
    if multiply:
        p = p * form.to_poly(ctx)
    quotient, remainder = tuple_exact_div(tuple_terms(p), form, ctx.h_index)
    try:
        got = p.exact_div(form)
    except ExactDivisionError as err:
        assert remainder
        assert tuple_terms(err.remainder) == remainder
    else:
        assert not remainder
        assert tuple_terms(got) == quotient
    if multiply:
        assert not remainder


@settings(max_examples=150, deadline=None)
@given(spectral.flatmap(lambda ctx: st.tuples(
    st.just(ctx), tuple_polys(ctx), st.integers(1, ctx.nz), st.integers(1, ctx.nz))))
def test_packed_swap_matches_tuples(case):
    ctx, a, i, j = case
    assert tuple_terms(packed(ctx, a).swap_z(i, j)) == tuple_swap(a, i, j)


def neg(terms):
    return {e: -c for e, c in terms.items()}


def assert_clean(p):
    """No zero coefficient is stored, and an integral one is an int."""
    assert all(c != 0 and (type(c) is int or c.denominator != 1) for c in p.terms.values())


@st.composite
def cancelling_pairs(draw, ctx):
    """Tuple-keyed factor pairs whose products partly cancel: each pair may
    come back with one factor negated, and with ``total`` every pair does,
    so the whole sum is zero."""
    pairs = draw(st.lists(st.tuples(tuple_polys(ctx), tuple_polys(ctx)), min_size=1, max_size=4))
    total = draw(st.booleans())
    flips = [total or draw(st.booleans()) for _ in pairs]
    pairs += [(neg(a), b) if draw(st.booleans()) else (a, neg(b))
              for (a, b), flip in zip(pairs, flips) if flip]
    return ctx, draw(st.permutations(pairs)), total


@settings(max_examples=150, deadline=None)
@given(contexts.flatmap(cancelling_pairs))
def test_sum_of_products_drops_what_cancels_like_the_stepwise_sum(case):
    ctx, pairs, total = case
    got = sum_of_products(ctx, [(packed(ctx, a), packed(ctx, b)) for a, b in pairs])
    stepwise = ctx.zero()
    want = {}
    for a, b in pairs:
        stepwise = stepwise + packed(ctx, a) * packed(ctx, b)
        want = tuple_add(want, tuple_mul(a, b))
    assert got == stepwise
    assert tuple_terms(got) == want
    assert_clean(got)
    if total:
        assert got.terms == {}


def tuple_exchange_step(terms, i, ctx):
    """hb * (f - s_i f)/(z_i - z_{i+1}) - s_i f on tuple-keyed terms."""
    swapped = tuple_swap(terms, i, i + 1)
    quotient, remainder = tuple_exact_div(tuple_add(terms, neg(swapped)), LinearForm(0, i, i + 1),
                                          ctx.h_index)
    assert not remainder
    hb = {tuple(int(k == ctx.h_index) for k in range(ctx.nvars)): 2}  # hb = 2h
    return tuple_add(tuple_mul(quotient, hb), neg(swapped))


@settings(max_examples=150, deadline=None)
@given(spectral.flatmap(lambda ctx: st.tuples(
    st.just(ctx), tuple_polys(ctx), tuple_polys(ctx, max_terms=2), st.integers(1, ctx.nz - 1))))
def test_exchange_step_drops_what_cancels_like_tuples(case):
    # g + s_i g is symmetric in z_i, z_{i+1}: its divided-difference terms
    # all cancel, and the rest of f cancels some of its swapped terms
    ctx, g, rest, i = case
    f = tuple_add(tuple_add(g, tuple_swap(g, i, i + 1)), rest)
    got = _exchange_step(packed(ctx, f), i)
    assert tuple_terms(got) == tuple_exchange_step(f, i, ctx)
    assert_clean(got)


# -- the univariate exchange solver ---------------------------------------------


def uni_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def uni_sub(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    return uni_trim(out)


def uni_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return uni_trim(out)


def uni_divmod(a, b):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    a = [Fraction(x) for x in a]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = Fraction(b[-1])
    while len(a) >= len(b) and uni_trim(a):
        if len(a) < len(b):
            break
        coef = a[-1] / lead
        deg = len(a) - len(b)
        q[deg] = coef
        for i, x in enumerate(b):
            a[deg + i] -= coef * Fraction(x)
        uni_trim(a)
    return uni_trim(q), a


def uni_exact_div(a, b):
    q, r = uni_divmod(list(a), list(b))
    if r:
        raise rmatrix.RMatrixError("inexact univariate division during elimination")
    return q


def uni_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        _, r = uni_divmod([Fraction(x) for x in a], b)
        a, b = b, r
    if not a:
        return []
    lead = Fraction(a[-1])
    return [Fraction(x) / lead for x in a]


def uni_integer_roots(poly):
    """Integer roots with multiplicity, by trial of the divisors of the constant."""
    p = [Fraction(x) for x in poly]
    roots = []
    while len(p) > 1:
        const = p[0]
        if const == 0:
            roots.append(0)
            p = p[1:]
            continue
        num = abs((const / p[-1]).numerator) or 1
        found = None
        for r in sorted({s * d for d in range(1, num + 1) if num % d == 0 for s in (1, -1)},
                        key=abs):
            val = Fraction(0)
            for c in reversed(p):
                val = val * r + c
            if val == 0:
                found = r
                break
        if found is None:
            return roots, p
        roots.append(found)
        q, rem = uni_divmod(p, [-found, 1])
        if rem:
            raise rmatrix.RMatrixError("root deflation failed")
        p = q
    return roots, p


def uni_det(M):
    n = len(M)
    M = [row[:] for row in M]
    sign = 1
    prev = [1]
    for kk in range(n - 1):
        piv = None
        for r in range(kk, n):
            if uni_trim(list(M[r][kk])):
                piv = r
                break
        if piv is None:
            return []
        if piv != kk:
            M[kk], M[piv] = M[piv], M[kk]
            sign = -sign
        for r in range(kk + 1, n):
            for c in range(kk + 1, n):
                num = uni_sub(uni_mul(M[kk][kk], M[r][c]), uni_mul(M[r][kk], M[kk][c]))
                M[r][c] = uni_exact_div(num, prev)
            M[r][kk] = []
        prev = M[kk][kk]
    det = M[n - 1][n - 1]
    return [x * sign for x in det] if sign < 0 else det


def uni_ratio_to_rf(num, den):
    """Rehomogenize num/den in (w, h) and express with linear-form denominator."""
    if not num:
        return None
    g = uni_gcd(num, den)
    if len(g) > 1:
        num = uni_exact_div(num, g)
        den = uni_exact_div(den, g)
    roots, resid = uni_integer_roots(den)
    if len(resid) > 1:
        raise rmatrix.RMatrixError("solved denominator is not a product of integer linear forms")
    lead = Fraction(resid[0]) if resid else Fraction(1)
    ctx = rmatrix.CTX1
    deg = max(len(num) - 1, len(roots))
    h = ctx.hbar() * Fraction(1, 2)
    z = ctx.z(1)
    npoly = ctx.zero()
    for e, c in enumerate(num):
        if c:
            npoly = npoly + ctx.const(Fraction(c) / lead) * (z ** e) * (h ** (deg - e))
    den_forms = {}
    for r in roots:
        f, s = LinearForm.make(-r, 1)  # w - r*h
        if s < 0:
            npoly = -npoly
        den_forms[f] = den_forms.get(f, 0) + 1
        deg -= 1
    if deg > 0:
        f = LinearForm(1)
        den_forms[f] = den_forms.get(f, 0) + deg
        npoly = npoly * (2 ** deg)
    return RationalFunction(npoly, den_forms).reduced()


def solve_uni_system(A, b, ncols):
    """Fraction-free elimination picks the pivot rows, Cramer's rule on them."""
    rows = [list(r) + [rhs] for r, rhs in zip(A, b)]
    rows = [r for r in rows if any(uni_trim(list(c)) for c in r)]
    work = [r[:] for r in rows]
    piv_rows = []
    prev = [1]
    used = set()
    for col in range(ncols):
        piv = None
        for ri in range(len(work)):
            if ri not in used and uni_trim(list(work[ri][col])):
                piv = ri
                break
        if piv is None:
            raise rmatrix.RMatrixError("exchange system underdetermined (too few independent rows)")
        used.add(piv)
        piv_rows.append(piv)
        prow = work[piv]
        for ri in range(len(work)):
            if ri in used:
                continue
            row = work[ri]
            if not uni_trim(list(row[col])):
                for cj in range(ncols + 1):
                    row[cj] = uni_exact_div(uni_mul(prow[col], row[cj]), prev)
                continue
            for cj in range(ncols + 1):
                num = uni_sub(uni_mul(prow[col], row[cj]), uni_mul(row[col], prow[cj]))
                row[cj] = uni_exact_div(num, prev)
        prev = prow[col]
    square = [rows[ri] for ri in piv_rows]
    det = uni_det([r[:ncols] for r in square])
    if not det:
        raise rmatrix.RMatrixError("exchange system underdetermined (singular subsystem)")
    out = []
    for j in range(ncols):
        mod = [r[:ncols] for r in square]
        for ri in range(ncols):
            mod[ri][j] = square[ri][ncols]
        out.append(uni_ratio_to_rf(uni_det(mod), det))
    return out


def uni_list(p):
    """{w-exponent: coefficient} as a trimmed coefficient list, low first."""
    return uni_trim([p.get(e, 0) for e in range(max(p, default=-1) + 1)])


def oracle_solve_block(A, B, n):
    """``rmatrix._solve_block`` by univariate elimination, one target at a time."""
    A = [[uni_list(p) for p in row] for row in A]
    out = []
    for t in range(len(B[0])):
        out += solve_uni_system(A, [uni_list(row[t]) for row in B], n)
    return out


def operator_digest(rop):
    """Entry order, numerator terms and denominator of every entry."""
    return [(key, rf.num.terms, rf.den) for key, rf in rop.entries.items()]


SLOTWISE_SOLVES = [(k, lam, slot)
                   for k, lam in [(2, (2, 1)), (3, (2, 1)), (2, (2, 2)), (2, (3, 2))]
                   for slot in range(1, sum(lam))]


def slot_pairs(psi, slot):
    """The pairs of factors (slot, slot+1) that occur in the labels of psi."""
    return tuple(sorted({lab[slot - 1:slot + 1] for lab in psi.basis}))


def assert_same_solve(monkeypatch, psi, slot):
    got = rmatrix.solve_rmatrix_from_exchange(psi, slot)
    with monkeypatch.context() as patch:
        patch.setattr(rmatrix, "_solve_block", oracle_solve_block)
        want = rmatrix.solve_rmatrix_from_exchange(psi, slot)
    assert operator_digest(got) == operator_digest(want)
    assert got.text_matrix() == want.text_matrix()
    return got


@pytest.mark.parametrize("slot", [1, 2, 3])
def test_sampled_solve_matches_univariate_elimination_on_appendix(monkeypatch, appendix_doc, slot):
    psi = fixture_psi(appendix_doc)
    assert assert_same_solve(monkeypatch, psi, slot).source == psi.basis


@pytest.mark.parametrize("k, lam, slot", SLOTWISE_SOLVES, ids=str)
def test_sampled_solve_matches_univariate_elimination_slotwise(monkeypatch, k, lam, slot):
    # slot 3 of (2,(3,2)): the determinant carries z^2 - 20 hb^2, which
    # does not split and cancels against every Cramer numerator
    psi = build_psi_fundamental(k, lam)
    assert assert_same_solve(monkeypatch, psi, slot).source == slot_pairs(psi, slot)


def evaluate_list(coeffs, w):
    return sum(c * w ** e for e, c in enumerate(coeffs))


def planted_system(A, numerators, denominators):
    """The block system whose solution for target t is numerators[t][j] / denominators[t][j].

    ``A`` holds coefficient lists and ``denominators`` {root: multiplicity};
    every equation is multiplied by the lcm L of the denominators, so the
    matrix is A L and the right-hand side of target t is sum_j A_j x_tj L.
    """
    lcm = {}
    for dens in denominators:
        for den in dens:
            for r, m in den.items():
                lcm[r] = max(lcm.get(r, 0), m)

    def poly(roots):
        out = [1]
        for r, m in roots.items():
            for _ in range(m):
                out = uni_mul(out, [-r, 1])
        return out

    L = poly(lcm)
    rhs = []
    for nums, dens in zip(numerators, denominators):
        cofactors = [uni_mul(a, poly({r: m - d.get(r, 0) for r, m in lcm.items()}))
                     for a, d in zip(nums, dens)]
        rhs.append([sum_lists(uni_mul(p, c) for p, c in zip(row, cofactors)) for row in A])
    matrix = [[as_dict(uni_mul(p, L)) for p in row] for row in A]
    right = [[as_dict(rhs[t][r]) for t in range(len(numerators))] for r in range(len(A))]
    return matrix, right


def sum_lists(polys):
    out = []
    for p in polys:
        out = [x + y for x, y in zip_longest(out, p, fillvalue=0)]
    return uni_trim(out)


def as_dict(coeffs):
    return {e: c for e, c in enumerate(coeffs) if c}


def planted_rf(a, roots):
    """a(w) / prod (w - r)^m at h = 1, rehomogenized over CTX1 (h = hb/2)."""
    ctx = rmatrix.CTX1
    z, h = ctx.z(1), ctx.hbar() * Fraction(1, 2)
    den_degree = sum(roots.values())
    degree = max(len(a) - 1, den_degree)
    num = ctx.zero()
    for e, c in enumerate(a):
        num = num + ctx.const(c) * z ** e * h ** (degree - e)
    den = {LinearForm(-r, 1): m for r, m in roots.items()}
    if degree > den_degree:
        den[LinearForm(1)] = degree - den_degree
    return RationalFunction(num, den)


small_polys = st.lists(st.integers(-4, 4), max_size=3).map(lambda c: uni_trim(list(c)))
pole_sets = st.dictionaries(st.integers(-60, 60), st.integers(1, 2), max_size=2)


@st.composite
def planted_blocks(draw):
    n = draw(st.integers(1, 3))
    rows = n + draw(st.integers(0, 2))
    A = [[draw(small_polys) for _ in range(n)] for _ in range(rows)]
    # full rank over Q(w) when the top n x n block is invertible at w = 1000
    top = sympy.Matrix([[evaluate_list(p, 1000) for p in row] for row in A[:n]])
    assume(top.det() != 0)
    targets = draw(st.integers(1, 2))
    numerators = [[draw(small_polys) for _ in range(n)] for _ in range(targets)]
    denominators = [[draw(pole_sets) for _ in range(n)] for _ in range(targets)]
    return A, numerators, denominators


@settings(max_examples=60, deadline=None)
@given(planted_blocks())
def test_sampled_solve_recovers_planted_integer_poles(case):
    A, numerators, denominators = case
    matrix, right = planted_system(A, numerators, denominators)
    got = rmatrix._solve_block(matrix, right, len(A[0]))
    want = [planted_rf(a, d) if a else None
            for nums, dens in zip(numerators, denominators) for a, d in zip(nums, dens)]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert g.equals(w)
            assert set(g.den) <= set(w.den) | {LinearForm(1)}


def test_sampled_solve_recovers_poles_beyond_the_sample_range():
    # the solve samples w = 0..9 (D = 9); the poles sit at w = -50 and w = 75
    A = [[[1, 1], [2]], [[0, 3], [1, 0, 1]], [[5], [1, -1]]]
    numerators = [[[3, 1], [0, 0, 2]]]
    denominators = [[{-50: 1}, {75: 2, -50: 1}]]
    matrix, right = planted_system(A, numerators, denominators)
    got = rmatrix._solve_block(matrix, right, 2)
    assert got[0].equals(planted_rf([3, 1], {-50: 1}))
    assert got[1].equals(planted_rf([0, 0, 2], {75: 2, -50: 1}))
    assert set(got[1].den) == {LinearForm(50, 1), LinearForm(-75, 1)}


def test_sampled_solve_rejects_a_denominator_that_does_not_split():
    # (w^2 - 2) x = 1 and w (w^2 - 2) x = w: x = 1 / (w^2 - 2)
    matrix = [[{0: -2, 2: 1}], [{1: -2, 3: 1}]]
    right = [[{0: 1}], [{1: 1}]]
    with pytest.raises(rmatrix.RMatrixError, match="not a product of integer linear forms"):
        rmatrix._solve_block(matrix, right, 1)


def test_sampled_solve_rejects_an_underdetermined_block():
    matrix = [[{0: 1}, {0: 2}], [{1: 1}, {1: 2}]]
    right = [[{0: 1}], [{1: 1}]]
    with pytest.raises(rmatrix.RMatrixError, match="underdetermined"):
        rmatrix._solve_block(matrix, right, 2)


def exact_div_reduce(rf):
    """rf in lowest terms: num divided by each form until exact division
    fails, in one pass, the forms of den left in their order."""
    num, den = rf.num, dict(rf.den)
    for f in list(den):
        m = den[f]
        while m:
            try:
                num = num.exact_div(f)
            except ExactDivisionError:
                break
            m -= 1
        if m:
            den[f] = m
        else:
            del den[f]
    return RationalFunction(num, den)


CTX3 = spectral_context(3)
FORM_POOL = [LinearForm.make(hc, i, j)[0] for hc, i, j in [
    (0, 1, 2), (2, 1, 2), (-2, 1, 3), (4, 2, 3), (0, 2, None), (3, 3, None), (1, None, None)]]


@st.composite
def unreduced_rfs(draw):
    """q * (planted forms) / (den forms) over CTX3, left unreduced; the only
    pure-h form is h, so the reduced form is unique."""
    exps = st.tuples(*[st.integers(0, 2)] * CTX3.nvars)
    coeffs = st.one_of(st.integers(-5, 5).filter(bool),
                       st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool))
    terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=3))
    num = Polynomial(CTX3, {CTX3.pack(e): c for e, c in terms.items()})
    for f in draw(st.lists(st.sampled_from(FORM_POOL), max_size=3)):
        num = num * f.to_poly(CTX3)
    den = draw(st.dictionaries(st.sampled_from(FORM_POOL), st.integers(1, 2), max_size=3))
    return RationalFunction(num, den)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(unreduced_rfs(), unreduced_rfs()), min_size=1, max_size=3))
def test_reduction_matches_exact_division(pairs):
    total = sum((a * b for a, b in pairs), RationalFunction.from_poly(CTX3.zero()))
    got = total.reduced()
    want = exact_div_reduce(total)
    assert got.num.terms == want.num.terms
    assert list(got.den.items()) == list(want.den.items())


WINDOWS = [("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")]


@st.composite
def apply_cases(draw):
    """(operator, vector, slot, cancelling label or None) over CTX3.

    The operator acts on the windows of WINDOWS, on whole labels (slot None)
    or at slot 1 of labels with one leading letter.  Vector values are
    unreduced rational functions with mixed denominators, Polynomials and
    zeros.  Optionally the window ("c", "c") receives c*v from ("p", "q")
    and -c*v from ("q", "p"), so its image value cancels.
    """
    slot = draw(st.sampled_from([None, 1]))
    rests = [()] if slot is None else [("x",), ("y",)]
    keys = st.tuples(st.sampled_from(WINDOWS), st.sampled_from(WINDOWS))
    entries = draw(st.dictionaries(keys, unreduced_rfs(), max_size=6))
    vec = {}
    for rest in rests:
        for w in WINDOWS:
            kind = draw(st.sampled_from(["rf", "poly", "zero", "absent"]))
            if kind == "rf":
                vec[rest + w] = draw(unreduced_rfs())
            elif kind == "poly":
                vec[rest + w] = draw(unreduced_rfs()).num
            elif kind == "zero":
                vec[rest + w] = RationalFunction.from_poly(CTX3.zero())
    cancel = None
    if draw(st.booleans()):
        c, v = draw(unreduced_rfs()), draw(unreduced_rfs())
        entries[(("c", "c"), ("p", "q"))], entries[(("c", "c"), ("q", "p"))] = c, -c
        for rest in rests:
            vec[rest + ("p", "q")] = vec[rest + ("q", "p")] = v
        cancel = rests[0] + ("c", "c")
    labels = WINDOWS + [("c", "c"), ("p", "q"), ("q", "p")]
    return rmatrix.ROperator(CTX3, labels, labels, entries), vec, slot, cancel


@settings(max_examples=150, deadline=None)
@given(apply_cases())
def test_apply_over_one_denominator_matches_the_stepwise_sums(case):
    op, vec, slot, cancel = case
    got = op.apply(vec, slot)
    want = stepwise_apply(op, vec, slot)
    assert list(got) == list(want)  # the same labels in the same order, cancelled ones too
    for key, rf in want.items():
        reduced = got[key].reduced()
        assert (reduced.num.terms, reduced.den) == (rf.num.terms, rf.den), key
    assert cancel is None or got[cancel].is_zero()
    dens = [rf.den for rf in got.values() if not rf.is_zero()]
    assert all(den == dens[0] for den in dens)


def substitute_then_reduce(rop, form, sign, ctx):
    """``ROperator.substitute_spectral`` by substituting each entry through
    ``RationalFunction.substitute_z`` and reducing it by exact division."""
    image = form.to_poly(ctx) * sign
    entries = {key: exact_div_reduce(rf.substitute_z({1: image}, ctx))
               for key, rf in rop.entries.items()}
    return rmatrix.ROperator(ctx, rop.source, rop.target, entries)


# (hcoef, i, j, sign) of the argument sign*(hcoef*h + z_i - z_j) over CTX3;
# the last two are qKZ-style shifts
SPECTRAL_ARGUMENTS = [(0, 1, 2, 1), (0, 1, 2, -1), (0, 1, 3, 1), (0, 2, 3, -1),
                      (-8, 2, 3, 1), (6, 3, 1, -1)]
PAIRS_UP_TO_5 = [(k, a, b) for k in range(2, 6) for a in range(1, k) for b in range(1, k)]


def assert_substitutes_as_reduced(rop):
    for hc, i, j, sign in SPECTRAL_ARGUMENTS:
        form, s = LinearForm.make(hc, i, j)
        got = rop.substitute_spectral(form, sign * s, CTX3)
        assert_same_operator(got, substitute_then_reduce(rop, form, sign * s, CTX3))


@pytest.mark.parametrize("k, a, b", PAIRS_UP_TO_5, ids=str)
def test_substitute_spectral_matches_substituting_then_reducing(k, a, b):
    assert_substitutes_as_reduced(rmatrix.pair_operator(k, a, b))


def test_substitute_spectral_matches_substituting_then_reducing_on_appendix(appendix_doc):
    for rop in fixture_rmatrices(appendix_doc).values():
        assert_substitutes_as_reduced(rop)


def half_sum_images(u, w):
    """z_i -> (u + w)/2 and z_{i+1} -> (u - w)/2, the images the exchange
    solve substituted before it took u + w and u."""
    return (u + w) * Fraction(1, 2), (u - w) * Fraction(1, 2)


def assert_solve_matches_half_sums(monkeypatch, psi, slot):
    got = rmatrix.solve_rmatrix_from_exchange(psi, slot)
    with monkeypatch.context() as patch:
        patch.setattr(rmatrix, "_pair_images", half_sum_images)
        want = rmatrix.solve_rmatrix_from_exchange(psi, slot)
    assert operator_digest(got) == operator_digest(want)
    return got


@pytest.mark.parametrize("slot", [1, 2, 3])
def test_integral_solve_coordinates_match_half_sums_on_appendix(monkeypatch, appendix_doc, slot):
    psi = fixture_psi(appendix_doc)
    assert assert_solve_matches_half_sums(monkeypatch, psi, slot).source == psi.basis


@pytest.mark.parametrize("k, lam, slot", SLOTWISE_SOLVES, ids=str)
def test_integral_solve_coordinates_match_half_sums_slotwise(monkeypatch, k, lam, slot):
    psi = build_psi_fundamental(k, lam)
    assert assert_solve_matches_half_sums(monkeypatch, psi, slot).source == slot_pairs(psi, slot)


def fixture_loci(doc):
    """(instance, ctx, vanishing, polys, solve_order) of each membership check
    of the appendix suite, its constraints then its relations in ``polys``."""
    loci = []
    verify = slicemod.verify_component_membership

    def record(ctx, n_coords, vanishing, constraints, solve_order, relations, *args, **kw):
        loci.append((kw["instance"], ctx, list(vanishing), list(constraints) + list(relations),
                     [tuple(step) for step in solve_order]))
        return verify(ctx, n_coords, vanishing, constraints, solve_order, relations, *args, **kw)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slicemod, "verify_component_membership", record)
        assert appendix.check_components(doc).passed and appendix.check_deformed(doc).passed
    return loci


def assert_same_zeros(ctx, vanishing, polys, solve_order):
    """solve_locus and restrict_at_once see the same polynomials vanish; returns
    how many do."""
    values, _ = slicemod.solve_locus(ctx, vanishing, polys, solve_order)
    at_once = restrict_at_once(ctx, vanishing, polys, solve_order)
    assert [v.is_zero() for v in values] == [v.is_zero() for v in at_once]
    return sum(v.is_zero() for v in values)


def test_ordered_elimination_matches_substituting_at_once_on_the_fixture(appendix_doc):
    loci = fixture_loci(appendix_doc)
    assert [instance for instance, *_ in loci] == [
        "component 1", "component 2", "component 3", "deformed component"]
    for _, ctx, vanishing, polys, solve_order in loci:
        # every constraint and relation vanishes; the bare coordinates tell
        # the vanishing and solved-to-zero ones from the rest
        probes = polys + [ctx.var(name) for name in ctx.names]
        assert assert_same_zeros(ctx, vanishing, probes, solve_order) >= len(polys)


LOCUS = coordinate_context(("w", "f1", "f2", "v1", "v2", "v3"))


def locus_polys(names, min_terms=0, max_terms=3):
    """Small integer polynomials of LOCUS in the named variables."""
    slots = [LOCUS.index(name) for name in names]
    monomials = st.dictionaries(st.sampled_from(slots), st.integers(1, 2), max_size=2).map(
        lambda d: LOCUS.pack([d.get(i, 0) for i in range(LOCUS.nvars)]))
    return st.dictionaries(monomials, st.integers(-3, 3).filter(bool), min_size=min_terms,
                           max_size=max_terms).map(lambda terms: Polynomial(LOCUS, terms))


@st.composite
def triangular_loci(draw):
    """A locus where w vanishes and each solved v is D v - n with D a nonzero
    polynomial in f1, f2 and n free of the v solved after it; the polys are
    its constraints, random probes, and combinations of the constraints and
    w, which vanish on the locus."""
    order = draw(st.permutations(["v1", "v2", "v3"]))[:draw(st.integers(1, 3))]
    constraints = [draw(locus_polys(["f1", "f2"], min_terms=1)) * LOCUS.var(var)
                   - draw(locus_polys(["w", "f1", "f2", *order[:k]]))
                   for k, var in enumerate(order)]
    every = locus_polys(LOCUS.names)
    probes = draw(st.lists(every, max_size=3))
    vanishing = [sum((draw(every) * c for c in constraints), draw(every) * LOCUS.var("w"))
                 for _ in range(2)]
    polys = constraints + probes + vanishing + [p + q for p in vanishing for q in probes[:1]]
    return polys, [(var, k) for k, var in enumerate(order)]


@settings(max_examples=100, deadline=None)
@given(triangular_loci())
def test_ordered_elimination_matches_substituting_at_once_on_triangular_orders(case):
    polys, solve_order = case
    assert assert_same_zeros(LOCUS, ["w"], polys, solve_order) >= len(solve_order) + 2
