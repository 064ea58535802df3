"""The closed-form builder and fusion against the algorithms they replaced.

``oracle_fundamental`` propagates the exchange relation by multiplying out
the numerator and dividing it exactly by z_i - z_{i+1};
``oracle_fuse`` specializes every fundamental entry first and sums the
signed specializations afterwards.  Both live only here, as references.
"""

from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest

from qkzpsi.algebra import LinearForm, spectral_context
from qkzpsi.qkz import (
    _inversions,
    _multiset_permutations,
    build_psi_fundamental,
    content_labels,
    extreme_component,
    fuse_psi,
)
from qkzpsi.rmatrix import _perm_sign


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
