from fractions import Fraction

import pytest

from qkzpsi.algebra import LinearForm, Polynomial, parse_polynomial, spectral_context
from qkzpsi.combinatorics import SignedPermutationOp, content_labels, sequence_rotation
from qkzpsi.qkz import (
    PsiError,
    PsiVector,
    build_psi_fundamental,
    check_cyclicity,
    check_exchange,
    check_recurrence,
    check_wheel,
    cyclic_shift,
    extreme_component,
    fuse_psi,
    label_text,
    qkz_step,
    wheel_positions,
)

from oracles import degree_witness


def test_extreme_component_cases():
    lab, p = extreme_component((1, 1))
    assert lab == ((1,), (2,))
    assert p == spectral_context(2).one()

    lab, p = extreme_component((2,))
    ctx = p.ctx
    assert lab == ((1,), (1,))
    assert p == ctx.hbar() + ctx.z(1) - ctx.z(2)

    lab, p = extreme_component((2, 2, 2, 2))
    ctx = p.ctx
    want = ctx.one()
    for i, j in ((1, 2), (3, 4), (5, 6), (7, 8)):
        want = want * (ctx.hbar() + ctx.z(i) - ctx.z(j))
    assert lab == tuple((a,) for a in (1, 1, 2, 2, 3, 3, 4, 4))
    assert p == want


def test_build_two_letters():
    psi = build_psi_fundamental(2, (1, 1))
    assert psi.entries[((1,), (2,))] == psi.ctx.one()
    assert psi.entries[((2,), (1,))] == -psi.ctx.one()


def test_build_k2_m4():
    psi = build_psi_fundamental(2, (2, 2))
    ctx = psi.ctx
    want = (ctx.hbar() + ctx.z(1) - ctx.z(2)) * (ctx.hbar() + ctx.z(3) - ctx.z(4))
    assert psi.entries[((1,), (1,), (2,), (2,))] == want
    assert len(psi.basis) == 6
    assert degree_witness(psi) is None


def test_adjacent_equal_divisibility():
    psi = build_psi_fundamental(2, (2, 2))
    for lab in psi.basis:
        seq = tuple(s[0] for s in lab)
        for i in range(1, 4):
            if seq[i - 1] == seq[i]:
                q = psi.entries[lab].exact_div(LinearForm(2, i, i + 1))
                assert q.swap_z(i, i + 1) == q


def test_exchange_regression_small():
    psi = build_psi_fundamental(2, (2, 1))
    for i in (1, 2):
        assert check_exchange(psi, i).passed


def test_exchange_negative_control():
    psi = build_psi_fundamental(2, (2, 1))
    bad = dict(psi.entries)
    bad[((2,), (1,), (1,))] = bad[((2,), (1,), (1,))] + psi.ctx.hbar()
    broken = PsiVector(psi.k, psi.lam, psi.m, psi.ctx, bad)
    rep = check_exchange(broken, 1)
    assert rep.status == "fail"
    assert rep.witness


def test_failing_checks_name_the_remainder():
    psi = build_psi_fundamental(2, (2, 2))
    ctx = psi.ctx
    rho = sequence_rotation(psi.basis, psi.m, 2)
    assert check_exchange(psi, 1).witness is None
    assert check_cyclicity(psi, rho).witness is None
    lab = ((1,), (1,), (2,), (2,))

    def perturbed(delta):
        entries = {**psi.entries, lab: psi.entries[lab] + delta}
        return PsiVector(psi.k, psi.lam, psi.m, ctx, entries)

    # equal letters at slots 1, 2: R = (hb - u)/(hb + u) there, u = z1 - z2, so adding
    # hb^2 leaves hb^2 (1 - R) = 2 hb^2 u / (hb + u) as lhs - rhs
    assert check_exchange(perturbed(ctx.hbar() ** 2), 1).witness == (
        "first offending label ({1},{1},{2},{2}): lhs - rhs = 2*z1*hb^2 - 2*z2*hb^2 (2 terms)")
    # rho moves the label, so lhs - rhs is the cyclic shift of the symmetric s^2: (s + 3 hb)^2
    s = sum(ctx.z(i) for i in range(1, 5))
    assert check_cyclicity(perturbed(s ** 2), rho).witness == (
        "first offending label ({1},{1},{2},{2}): lhs - rhs = z1^2 + 2*z1*z2 + 2*z1*z3 ..."
        " (15 terms)")


def test_failing_wheel_and_qkz_routes_name_the_remainder():
    # Psi for (2,(1,1)) is 1 at ({1},{2}) and -1 at ({2},{1}); rho maps Psi to
    # its cyclic shift, 1 at ({1},{2})
    psi = build_psi_fundamental(2, (1, 1))
    ctx = psi.ctx
    rho = sequence_rotation(psi.basis, psi.m, 2)
    assert qkz_step(psi, rho).witness is None
    first = "cyclicity: first offending label ({1},{2}): lhs - rhs ="
    # g = z1 + z2 is symmetric, so g*Psi keeps the exchange relation; its cyclic
    # shift is (g + 3 hb) Psi-shifted, and rho(g Psi) = g rho Psi: lhs - rhs = 3 hb * 1
    g = ctx.z(1) + ctx.z(2)
    scaled = PsiVector(psi.k, psi.lam, psi.m, ctx, {lab: p * g for lab, p in psi.entries.items()})
    assert qkz_step(scaled, rho).witness == f"{first} 3*hb (1 terms)"
    # a sign-flipped rotation negates the right side: lhs - rhs = 1 - (-1)
    flipped = SignedPermutationOp(rho.basis, rho.mapping, -rho.sign)
    assert qkz_step(psi, flipped).witness == f"{first} 2 (1 terms)"
    # adding hb^2 to one entry of (2,(2,2)) breaks exchange at slot 1 first, with the
    # remainder that test_failing_checks_name_the_remainder derives
    psi = build_psi_fundamental(2, (2, 2))
    lab = ((1,), (1,), (2,), (2,))
    bad = PsiVector(psi.k, psi.lam, psi.m, psi.ctx,
                    {**psi.entries, lab: psi.entries[lab] + psi.ctx.hbar() ** 2})
    assert qkz_step(bad, sequence_rotation(psi.basis, psi.m, 2)).witness == (
        "exchange at slot 1: first offending label ({1},{1},{2},{2}): "
        "lhs - rhs = 2*z1*hb^2 - 2*z2*hb^2 (2 terms)")
    # the wheel z2 = z1 + hb, z3 = z1 + 2 hb kills Psi (2,(2,2)) but not an added hb^2
    lab = ((1,), (2,), (1,), (2,))
    assert check_wheel(psi, (1, 2, 3)).witness is None
    bad = PsiVector(psi.k, psi.lam, psi.m, psi.ctx,
                    {**psi.entries, lab: psi.entries[lab] + psi.ctx.hbar() ** 2})
    assert check_wheel(bad, (1, 2, 3)).witness == (
        "first offending label ({1},{2},{1},{2}): lhs - rhs = hb^2 (1 terms)")


def test_qkz_step_is_exchange_at_every_slot_and_one_cyclicity(monkeypatch):
    import qkzpsi.qkz as qkz

    psi = build_psi_fundamental(4, (1, 1, 1, 1))
    rho = sequence_rotation(psi.basis, psi.m, 4)
    calls = []

    def counted(name):
        real = getattr(qkz, name)

        def check(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return check

    for name in ("check_exchange", "check_cyclicity"):
        monkeypatch.setattr(qkz, name, counted(name))

    def no_inverse(self):
        raise AssertionError("qkz_step inverted the rotation")

    monkeypatch.setattr(SignedPermutationOp, "inverse", no_inverse)
    assert qkz_step(psi, rho).passed
    assert calls == ["check_exchange"] * 3 + ["check_cyclicity"]


def test_a_non_unitary_operator_that_keeps_exchange_fails_the_closure():
    # R + P on the weight space of (2,(1,1)), P = [[1, 1], [1, 1]]: P kills
    # Psi = (1, -1), so exchange and cyclicity hold, but (R + P)(u) is not unitary
    from qkzpsi.algebra import RationalFunction
    from qkzpsi.rmatrix import ROperator, pair_operator

    psi = build_psi_fundamental(2, (1, 1))
    rho = sequence_rotation(psi.basis, psi.m, 2)
    R = pair_operator(2, 1, 1)
    one, zero = (RationalFunction.from_poly(p) for p in (R.ctx.one(), R.ctx.zero()))
    op = ROperator(R.ctx, psi.basis, psi.basis, {
        (t, s): R.entries.get((t, s), zero) + one for t in psi.basis for s in psi.basis})
    assert check_exchange(psi, 1, op).passed
    assert qkz_step(psi, rho, {1: op}).witness == (
        "slot 1 operator is not unitary: column ((1,), (2,)), entry ((1,), (2,))")


def test_cyclicity_without_rotation_is_skipped():
    psi = build_psi_fundamental(2, (2, 2))
    rep = check_cyclicity(psi, None)
    assert (rep.status, rep.witness) == ("skipped", "no rotation")


def test_fuse_identity_on_fundamental():
    psi = build_psi_fundamental(2, (2, 1))
    assert fuse_psi(psi, (1, 1, 1)) is psi


def test_fuse_small_mixed():
    # one wedge pair in k=3: single label, entry of degree 0
    psi = build_psi_fundamental(3, (1, 1))
    fused = fuse_psi(psi, (2,))
    assert fused.basis == (((1, 2),),)
    assert fused.entries[((1, 2),)] == fused.ctx.one()


def test_fused_appendix_extreme_entry(fused_example):
    printed = parse_polynomial(
        "(hb+z1-z2)*(hb+z3-z4)*(2*hb+z1-z2)*(2*hb+z3-z4)", fused_example.ctx
    )
    assert fused_example.entries[((1, 2), (1, 2), (3, 4), (3, 4))] == printed


def test_fused_appendix_basis_size(fused_example):
    assert len(fused_example.basis) == 90
    assert degree_witness(fused_example) is None


def test_fused_exchange(fused_example):
    for i in (1, 2, 3):
        assert check_exchange(fused_example, i).passed


def test_content_labels_counts():
    labs = content_labels((2, 2, 2, 2), (2, 2, 2, 2))
    assert len(labs) == 90
    labs2 = content_labels((2, 2), (1, 1, 1, 1))
    assert len(labs2) == 6


def test_wheel_fundamental():
    psi = build_psi_fundamental(2, (2, 2))
    for pos in wheel_positions(psi.m, psi.k):
        assert check_wheel(psi, pos).passed


def test_wheel_boundary_guard():
    psi = build_psi_fundamental(2, (2, 2))
    with pytest.raises(PsiError, match="sum"):
        check_wheel(psi, (1, 2))


def test_wheel_fused(fused_example):
    for pos in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
        assert check_wheel(fused_example, pos).passed


def test_recurrence_fundamental():
    big = build_psi_fundamental(2, (2, 2))
    small = build_psi_fundamental(2, (1, 1))
    for p in (1, 2, 3):
        assert check_recurrence(big, small, p).passed


def test_recurrence_has_vanishing_branch():
    # repeated-row labels exist and are checked to vanish inside the report
    big = build_psi_fundamental(2, (2, 2))
    small = build_psi_fundamental(2, (1, 1))
    labels_with_repeat = [
        lab for lab in big.basis if lab[0] == lab[1]
    ]
    assert labels_with_repeat  # the branch is exercised
    assert check_recurrence(big, small, 1).passed


def test_recurrence_single_tableau():
    big = build_psi_fundamental(2, (3, 1))
    small = build_psi_fundamental(2, (2,))
    assert check_recurrence(big, small, 1).passed


@pytest.mark.parametrize("label, case", [
    (((1,), (1,), (2,), (2,)), "repeated-row entry does not vanish"),
    (((2,), (1,), (1,), (2,)), "no collapse onto ({1},{2},{1},{2}) with sign -1"),
    (((1,), (2,), (1,), (2,)), "no global sign matches, nearest sign -1"),
    (((1,), (2,), (2,), (1,)), "sign-inconsistent, global sign -1"),
], ids=["vanishing", "collapse", "no-global-sign", "sign-inconsistent"])
def test_recurrence_witness_names_the_remainder(label, case):
    # Inserting n = (1, 1) at p = 1 maps hb to hb, and the global sign of
    # (2,(2,2)) against (2,(1,1)) is -1, read off the first surviving label
    # ({1},{2},{1},{2}).  Adding 5*hb^2 to one entry moves that entry's
    # specialization by 5*hb^2, so in each case lhs - rhs is exactly 5*hb^2.
    big = build_psi_fundamental(2, (2, 2))
    small = build_psi_fundamental(2, (1, 1))
    entries = dict(big.entries)
    entries[label] = entries[label] + big.ctx.hbar() ** 2 * 5
    corrupted = PsiVector(2, (2, 2), (1, 1, 1, 1), big.ctx, entries)
    rep = check_recurrence(corrupted, small, 1)
    assert rep.status == "fail"
    assert rep.witness == (f"{case}: first offending label {label_text(label)}: "
                           "lhs - rhs = 5*hb^2 (1 terms)")


# (check, instance, status, witness) of recurrence reports, recorded when the
# check still took the insertion shape n = (1,) * k as an argument, so that
# dropping it is seen to change no report.  The last row adds 7*hb^2 to the
# out-of-order entry ({3},{1},{2},{1},{2},{3}), which must collapse.
RECURRENCE_GOLDEN = [
    ('recurrence', 'k=2 insert n=(1, 1) at p=1: m=(1, 1, 1, 1) -> m=(1, 1)', 'pass', None),
    ('recurrence', 'k=2 insert n=(1, 1) at p=2: m=(1, 1, 1, 1) -> m=(1, 1)', 'pass', None),
    ('recurrence', 'k=2 insert n=(1, 1) at p=3: m=(1, 1, 1, 1) -> m=(1, 1)', 'pass', None),
    ('recurrence', 'k=2 insert n=(1, 1) at p=1: m=(1, 1, 1, 1, 1, 1) -> m=(1, 1, 1, 1)', 'pass', None),
    ('recurrence', 'k=2 insert n=(1, 1) at p=2: m=(1, 1, 1, 1, 1, 1) -> m=(1, 1, 1, 1)', 'pass', None),
    ('recurrence', 'k=2 insert n=(1, 1) at p=3: m=(1, 1, 1, 1, 1, 1) -> m=(1, 1, 1, 1)', 'pass', None),
    ('recurrence', 'k=2 insert n=(1, 1) at p=4: m=(1, 1, 1, 1, 1, 1) -> m=(1, 1, 1, 1)', 'pass', None),
    ('recurrence', 'k=2 insert n=(1, 1) at p=5: m=(1, 1, 1, 1, 1, 1) -> m=(1, 1, 1, 1)', 'pass', None),
    ('recurrence', 'k=3 insert n=(1, 1, 1) at p=1: m=(1, 1, 1, 1, 1, 1) -> m=(1, 1, 1)', 'pass', None),
    ('recurrence', 'k=3 insert n=(1, 1, 1) at p=2: m=(1, 1, 1, 1, 1, 1) -> m=(1, 1, 1)', 'pass', None),
    ('recurrence', 'k=3 insert n=(1, 1, 1) at p=3: m=(1, 1, 1, 1, 1, 1) -> m=(1, 1, 1)', 'pass', None),
    ('recurrence', 'k=3 insert n=(1, 1, 1) at p=4: m=(1, 1, 1, 1, 1, 1) -> m=(1, 1, 1)', 'pass', None),
    ('recurrence', 'k=3 insert n=(1, 1, 1) at p=1: m=(1, 1, 1, 1, 1, 1) -> m=(1, 1, 1)', 'fail',
     'no collapse onto ({1},{2},{3},{1},{2},{3}) with sign 1: first offending label '
     '({3},{1},{2},{1},{2},{3}): lhs - rhs = 7*hb^2 (1 terms)'),
]


def test_recurrence_reports_match_the_recorded_ones():
    got = []
    for k, lam, places in ((2, (2, 2), 3), (2, (3, 3), 5), (3, (2, 2, 2), 4)):
        big = build_psi_fundamental(k, lam)
        small = build_psi_fundamental(k, tuple(x - 1 for x in lam))
        got.extend(check_recurrence(big, small, p) for p in range(1, places + 1))
    entries = dict(big.entries)
    lab = ((3,), (1,), (2,), (1,), (2,), (3,))
    entries[lab] = entries[lab] + big.ctx.hbar() ** 2 * 7
    got.append(check_recurrence(PsiVector(3, (2, 2, 2), (1,) * 6, big.ctx, entries), small, 1))
    assert [(r.check, r.instance, r.status, r.witness) for r in got] == RECURRENCE_GOLDEN


def test_cyclicity_fundamental():
    for lam in ((1, 1), (2, 2)):
        psi = build_psi_fundamental(2, lam)
        rho = sequence_rotation(psi.basis, psi.m, 2)
        assert check_cyclicity(psi, rho).passed


def test_cyclicity_negative_control():
    psi = build_psi_fundamental(2, (2, 2))
    rho = sequence_rotation(psi.basis, psi.m, 2)
    wrong = sequence_rotation(psi.basis, psi.m, 2)
    wrong.sign = -wrong.sign
    assert check_cyclicity(psi, rho).passed
    assert check_cyclicity(psi, wrong).status == "fail"


def test_cyclicity_iterated_closure():
    # applying the rotation N times returns the vector with all arguments
    # shifted, which equals the vector itself by translation invariance
    psi = build_psi_fundamental(2, (2, 2))
    rho = sequence_rotation(psi.basis, psi.m, 2)
    comp = rho
    for _ in range(3):
        comp = comp.compose(rho)
    assert comp.is_identity()
    ctx = psi.ctx
    shift = 2 * (psi.k + 1)
    half = ctx.hbar() * Fraction(1, 2)
    full_shift = {t: ctx.z(t + 1) + half * shift for t in range(ctx.nz)}
    cur = dict(psi.entries)
    for _ in range(psi.N):
        cur = {lab: cyclic_shift(p, psi.k) for lab, p in cur.items()}
    rotated = {}
    for lab, p in psi.entries.items():
        img, sgn = lab, 1
        for _ in range(psi.N):
            img, sgn = comp.mapping.get(img, img), sgn
        rotated[img] = p
    for lab in psi.basis:
        assert cur[lab] == psi.entries[lab].substitute(full_shift)
        assert cur[lab] == psi.entries[lab]  # translation invariance


def test_qkz_step_fundamental():
    psi = build_psi_fundamental(2, (2, 2))
    rho = sequence_rotation(psi.basis, psi.m, 2)
    assert qkz_step(psi, rho).passed


def inverse_rotation(rho):
    """rho with the label map reversed: (rho v)_S = sign * v_(S_2..S_N, S_1)."""
    return SignedPermutationOp(
        rho.basis, {lab: (lab[-1],) + lab[:-1] for lab in rho.basis}, rho.sign)


@pytest.fixture(scope="module", params=[(2, (3, 3)), (3, (2, 2, 2))], ids=str)
def rotated(request):
    """A vector whose entries tell the rotation from its inverse, and its rho."""
    k, lam = request.param
    psi = build_psi_fundamental(k, lam)
    return psi, sequence_rotation(psi.basis, psi.m, k)


def test_cyclicity_and_both_qkz_routes(rotated):
    psi, rho = rotated
    assert check_cyclicity(psi, rho).passed
    rep = qkz_step(psi, rho)
    assert rep.passed, rep.witness


def test_inverse_rotation_fails_cyclicity_and_both_qkz_routes(rotated):
    psi, rho = rotated
    wrong = inverse_rotation(rho)
    assert check_cyclicity(psi, wrong).status == "fail"
    assert qkz_step(psi, wrong).status == "fail"


@pytest.mark.parametrize("method, run", [
    ("swap_z", lambda psi, rho: [check_exchange(psi, i) for i in range(1, psi.N)]),
    ("rotate_z", lambda psi, rho: [check_cyclicity(psi, inverse_rotation(rho))]),
    ("substitute", lambda psi, rho: [check_wheel(psi, wheel_positions(psi.m, psi.k)[0])]),
], ids=["exchange", "cyclicity", "wheel"])
def test_the_checks_map_each_shared_entry_once(monkeypatch, method, run):
    # (3,(2,2,2)) holds its 90 labels in 15 objects; a copy of each label's
    # entry gives the same reports, the failing cyclicity's witness included
    psi = build_psi_fundamental(3, (2, 2, 2))
    copies = PsiVector(psi.k, psi.lam, psi.m, psi.ctx,
                       {lab: Polynomial(psi.ctx, dict(p.terms)) for lab, p in psi.entries.items()})
    rho = sequence_rotation(psi.basis, psi.m, psi.k)
    run(psi, rho)  # builds the cached pair operators before counting
    real = getattr(Polynomial, method)
    calls = []

    def counted(self, *args):
        calls.append(self)
        return real(self, *args)

    monkeypatch.setattr(Polynomial, method, counted)
    seen = []
    for vec in (psi, copies):
        calls.clear()
        reports = run(vec, rho)
        seen.append((len(calls) / len(reports),
                     [(r.check, r.instance, r.status, r.witness) for r in reports]))
    (shared, got), (copied, want) = seen
    assert (shared, copied) == (15, 90)
    assert got == want


def test_qkz_step_fused_m8(fused_example):
    rho = sequence_rotation(fused_example.basis, fused_example.m, 4)
    rep = qkz_step(fused_example, rho)
    assert rep.passed, rep.witness


@pytest.mark.parametrize("k, lam, m, status", [
    (3, (1, 1, 1), None, "pass"),
    (5, (1, 1, 1, 1, 1), None, "pass"),
    (6, (1, 1, 1, 1, 1, 1), (3, 3), "pass"),
    # constant vectors, with m_1 even and M - M/k odd in the rotation's sign
    (4, (1, 1, 1, 1), (2, 2), "pass"),
    (6, (1, 1, 1, 1, 1, 1), (2, 2, 2), "pass"),
], ids=str)
def test_qkz_step_scope(k, lam, m, status):
    # rows of the table in the qkz module docstring that no other test covers
    psi = build_psi_fundamental(k, lam)
    psi = fuse_psi(psi, m) if m else psi
    rho = sequence_rotation(psi.basis, psi.m, k)
    rep = qkz_step(psi, rho)
    assert rep.status == status
    assert rep.passed or rep.witness.startswith("cyclicity: ")


def test_qkz_route_composites_are_inverse_k2_33():
    psi = build_psi_fundamental(2, (3, 3))
    assert qkz_step(psi, sequence_rotation(psi.basis, psi.m, 2)).passed


def test_cyclicity_k2_44():
    # 64 of its 70 labels fail under the inverse rotation; its qKZ step is
    # left out, as the exchange checks at its 7 slots take about 50 s
    psi = build_psi_fundamental(2, (4, 4))
    assert check_cyclicity(psi, sequence_rotation(psi.basis, psi.m, 2)).passed


def test_degree_invariant_selection():
    for k, lam in ((2, (2, 1)), (3, (2, 1, 1)), (3, (2, 2, 2)), (4, (2, 1, 1))):
        psi = build_psi_fundamental(k, lam)
        assert degree_witness(psi) is None


def test_psi_json_roundtrip():
    psi = build_psi_fundamental(2, (2, 1))
    doc = psi.to_json()
    back = PsiVector.from_json(doc)
    assert back.basis == psi.basis
    for lab in psi.basis:
        assert back.entries[lab] == psi.entries[lab]


def test_build_returns_a_vector_the_caller_owns():
    first = build_psi_fundamental(2, (2, 2))
    first.entries.clear()
    second = build_psi_fundamental(2, (2, 2))
    assert second is not first
    assert len(second.entries) == 6


@pytest.mark.parametrize("k, lam, slot, perturb, message", [
    # a step that depends on the derivation path
    (3, (2, 1, 1), 2, lambda f, step: -step, "path mismatch"),
    # a step whose error breaks the factor hb + z_2 - z_3 before any path disagrees
    (2, (2, 2), 2, lambda f, step: step + f.swap_z(2, 3), "not divisible"),
])
def test_build_checks_fire(monkeypatch, k, lam, slot, perturb, message):
    import qkzpsi.qkz as qkz

    real = qkz.exchange_step

    def step(f, i):
        out = real(f, i)
        return perturb(f, out) if i == slot else out

    monkeypatch.setattr(qkz, "exchange_step", step)
    with pytest.raises(PsiError, match=message):
        build_psi_fundamental(k, lam)


@pytest.mark.parametrize("g, message", [
    # z_1 hb is not symmetric in z_1, z_2: the quotient at slot 1 is not either
    (lambda ctx: ctx.z(1) * ctx.hbar(), r"quotient at \(1, 1, 2, 1\), slot 1 not symmetric"),
    # (z_1 + z_2) hb is: the entry passes its own checks, and a later one fails
    (lambda ctx: (ctx.z(1) + ctx.z(2)) * ctx.hbar(), r"entry \(1, 2, 1, 1\) not divisible"),
], ids=["asymmetric", "symmetric"])
def test_build_refuses_a_divisible_quotient_that_is_not_symmetric(monkeypatch, g, message):
    # (2,(3,1)): the first step derives (1,1,2,1), whose letters at slots 1, 2
    # are equal; adding (hb + z_1 - z_2) g keeps it homogeneous and divisible
    import qkzpsi.qkz as qkz

    real, calls = qkz.exchange_step, []

    def step(f, i):
        out = real(f, i)
        calls.append(i)
        if len(calls) == 1:
            out = out + LinearForm(2, 1, 2).to_poly(f.ctx) * g(f.ctx)
        return out

    monkeypatch.setattr(qkz, "exchange_step", step)
    with pytest.raises(PsiError, match=message):
        build_psi_fundamental(2, (3, 1))
    assert calls[0] == 3


def held_objects(psi):
    """(distinct key values, key objects, coefficient values, coefficient
    objects, entry objects) over the entries of psi."""
    keys, coefficients = {}, {}
    for p in psi.entries.values():
        for e, c in p.terms.items():
            keys.setdefault(e, set()).add(id(e))
            coefficients.setdefault(c, set()).add(id(c))
    return (len(keys), sum(map(len, keys.values())), len(coefficients),
            sum(map(len, coefficients.values())), len({id(p) for p in psi.entries.values()}))


@pytest.mark.parametrize("k, lam, monomials, entries", [
    (2, (4, 3), 4250, 35),
    (3, (2, 2, 2), 42, 15),    # 90 labels; its chi is +1 on every label
    (2, (3, 3), 378, 20),      # 20 labels, in 10 orbits of a label and its chi = -1 mate
    (3, (1, 1, 1), 1, 2),      # 6 labels in one orbit, three of them chi = -1
])
def test_built_entries_hold_each_monomial_and_coefficient_once(k, lam, monomials, entries):
    psi = build_psi_fundamental(k, lam)
    nkeys, key_objects, ncoefficients, coefficient_objects, entry_objects = held_objects(psi)
    assert nkeys == key_objects == monomials
    assert ncoefficients == coefficient_objects
    assert entry_objects == entries


def test_loaded_entries_share_their_monomials_and_coefficients():
    psi = build_psi_fundamental(2, (3, 3))
    back = PsiVector.from_json(psi.to_json())
    nkeys, key_objects, ncoefficients, coefficient_objects, _ = held_objects(back)
    assert nkeys == key_objects == 378
    assert ncoefficients == coefficient_objects
    assert all(back.entries[lab] == psi.entries[lab] for lab in psi.basis)


@pytest.mark.parametrize("lam", [(1, 1), (3, 3)])
def test_build_checks_the_letter_symmetry_it_uses(monkeypatch, lam):
    # chi(swap of letters 1, 2) is (-1)^3 = -1 here; forcing +1 must break an edge
    import qkzpsi.qkz as qkz

    real = qkz._orbit_key
    monkeypatch.setattr(qkz, "_orbit_key", lambda seq, classes: (real(seq, classes)[0], 1))
    with pytest.raises(PsiError, match="path mismatch"):
        build_psi_fundamental(2, lam)


def test_build_m8_does_the_work_of_one_label_per_orbit(monkeypatch):
    # (4,(2,2,2,2)): 2,520 labels, 7,560 edges, and S_4 acts freely on both.
    # Deriving and checking every label took 7,560 steps and 2,520 divisions.
    import qkzpsi.qkz as qkz
    from qkzpsi.algebra import Polynomial

    calls = {"step": 0, "exact_div": 0}
    step, exact_div = qkz.exchange_step, Polynomial.exact_div

    def counted_step(f, i):
        calls["step"] += 1
        return step(f, i)

    def counted_div(self, form):
        calls["exact_div"] += 1
        return exact_div(self, form)

    monkeypatch.setattr(qkz, "exchange_step", counted_step)
    monkeypatch.setattr(Polynomial, "exact_div", counted_div)
    build_psi_fundamental(4, (2, 2, 2, 2))
    assert calls == {"step": 315, "exact_div": 105}


@pytest.mark.parametrize("lam, predicted", [
    ((2, 2, 2, 2), 204_120), ((4, 3), 64_575), ((4, 4), 1_059_030), ((3, 3, 3), 5_670_000),
])
def test_predicted_terms_is_the_extreme_entry_times_the_entries(lam, predicted):
    from qkzpsi.qkz import MAX_PREDICTED_TERMS, predicted_terms

    entries = len(content_labels(lam, (1,) * sum(lam)))
    assert predicted_terms(lam) == len(extreme_component(lam)[1].terms) * entries == predicted
    assert predicted <= MAX_PREDICTED_TERMS


def test_build_refuses_above_the_term_limit(monkeypatch):
    import qkzpsi.qkz as qkz

    def built(*args):
        raise AssertionError("the instance was built")

    monkeypatch.setattr(qkz, "extreme_component", built)
    assert qkz.predicted_terms((5, 5)) > qkz.MAX_PREDICTED_TERMS
    with pytest.raises(PsiError, match="MAX_PREDICTED_TERMS"):
        build_psi_fundamental(2, (5, 5))
