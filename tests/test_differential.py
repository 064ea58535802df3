"""The closed-form builder, fusion and operator sums against the algorithms they replaced.

``oracle_fundamental`` propagates the exchange relation by multiplying out
the numerator and dividing it exactly by z_i - z_{i+1};
``oracle_fuse`` specializes every fundamental entry first and sums the
signed specializations afterwards.  ``stepwise_accumulate`` and
``stepwise_matmul`` reduce after every product and every partial sum, the
sums brought to the lcm of two denominators by ``lcm_add``;
``multipass_reduce`` repeats its reduction pass until nothing divides.
All of them live only here, as references.
"""

import contextlib
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest

from qkzpsi import rmatrix
from qkzpsi.algebra import ExactDivisionError, LinearForm, RationalFunction, spectral_context
from qkzpsi.combinatorics import sequence_rotation
from qkzpsi.qkz import (
    _applicators,
    _inversions,
    _materialize,
    _multiset_permutations,
    _route_steps,
    _substitute_operator,
    build_psi_fundamental,
    content_labels,
    extreme_component,
    fuse_psi,
)
from qkzpsi.rmatrix import _perm_sign, fused_rcheck


def oracle_fundamental(lam):
    """Entries by multiply-then-divide along the first descent of each label."""
    lam = tuple(lam)
    M = sum(lam)
    ctx = spectral_context(M)
    hb = ctx.hbar()
    base = tuple(a for a, la in enumerate(lam, start=1) for _ in range(la))
    seqs = sorted(_multiset_permutations(base), key=lambda s: (_inversions(s), s))
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
    for lab in content_labels(psi1.k, psi1.lam, m):
        total = ctx.zero()
        for orderings in product(*[list(permutations(S)) for S in lab]):
            sign = 1
            for block in orderings:
                sign *= _perm_sign(block)
            seq = tuple((x,) for block in orderings for x in block)
            total = total + psi1.entries[seq].substitute(mapping, ctx) * sign
        entries[lab] = total * scale
    return entries


def assert_same_terms(got, want):
    assert sorted(got) == sorted(want)
    for lab in want:
        assert got[lab].terms == want[lab].terms, lab


@pytest.mark.parametrize("k, lam", [(3, (2, 2, 2)), (4, (2, 2, 2, 1)), (2, (4, 3))])
def test_builder_matches_multiply_then_divide(k, lam):
    psi = build_psi_fundamental(k, lam)
    assert_same_terms(psi.entries, oracle_fundamental(lam))


@pytest.mark.parametrize("k, lam, m", [
    (3, (2, 2, 1), (2, 2, 1)),
    (2, (3, 3), (2, 2, 2)),
    (3, (3, 2, 1), (2, 2, 1, 1)),
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
    return RationalFunction(lift(x) + lift(y), lcm)


def stepwise_accumulate(ctx, products):
    """{key: sum of a*b}, reducing after every product and every partial sum."""
    out = {}
    for key, a, b in products:
        term = a * b
        out[key] = lcm_add(out[key], term) if key in out else term
    return out


def stepwise_matmul(left, right):
    """left o right, entry sums accumulated stepwise in right's entry order."""
    entries = {}
    mid = left.by_source()
    for (m, s), rf1 in right.entries.items():
        for t, rf2 in mid.get(m, ()):
            key = (t, s)
            term = rf2 * rf1
            entries[key] = lcm_add(entries[key], term) if key in entries else term
    return rmatrix.ROperator(left.ctx, right.source, left.target, entries)


def multipass_reduce(self):
    """Divide once by every form per pass; repeat while a pass divided."""
    changed = True
    while changed and self.den:
        changed = False
        for f in list(self.den):
            try:
                self.num = self.num.exact_div(f)
            except ExactDivisionError:
                continue
            if self.den[f] == 1:
                del self.den[f]
            else:
                self.den[f] -= 1
            changed = True


@pytest.fixture
def stepwise(monkeypatch):
    """Within the block, the package sums and reduces the old way."""
    @contextlib.contextmanager
    def block():
        with monkeypatch.context() as mp:
            mp.setattr(rmatrix, "_accumulate", stepwise_accumulate)
            mp.setattr(RationalFunction, "_reduce", multipass_reduce)
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


def qkz_composites(psi, i):
    """The route composites S_i and C_i of the step in z_i, and S_i(z_i -> z_i - s)."""
    ctx = psi.ctx
    rho = sequence_rotation(psi.basis, psi.m, sum(psi.lam), psi.k)
    apply_at = _applicators(psi)
    pre, post, right, back = _route_steps(psi.N, psi.k, i)
    S = _materialize(psi, apply_at, pre, rho, post, ctx)
    C = _materialize(psi, apply_at, right, rho.inverse(), back, ctx)
    shift = {i: ctx.z(i) - ctx.hbar() * Fraction(psi.k + 1)}
    return S, C, _substitute_operator(S, shift, ctx)


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_qkz_composites_match_stepwise_sums(stepwise, i):
    psi = build_psi_fundamental(4, (1, 1, 1, 1))
    with stepwise():
        S0, C0, shifted0 = qkz_composites(psi, i)
        prod0 = stepwise_matmul(shifted0, C0)
    S, C, shifted = qkz_composites(psi, i)
    assert_same_operator(S, S0)
    assert_same_operator(C, C0)
    prod = shifted.matmul(C)
    assert_same_operator(prod, prod0)
    assert prod.is_identity()
