import hashlib
import random
from fractions import Fraction

import pytest

from oracles import eval_rational, full_power_relations, restrict_at_once
from qkzpsi import slice as slicemod
from qkzpsi.algebra import LinearForm, TermWriter, parse_polynomial, spectral_context
from qkzpsi.appendix import check_deformed
from qkzpsi.combinatorics import Tableau, label_of_tableau, spaltenstein_label
from qkzpsi.slice import (
    SliceError,
    SliceModel,
    elementary_symmetric,
    emit_deformed_equations,
    emit_equations,
    equation_stream,
    linear_component_multidegree,
    linear_solve,
    solve_locus,
    verify_component_membership,
)


def test_build_slice_block_structure():
    model = SliceModel((2, 2, 2, 2))
    assert model.M == 8 and model.N == 4
    assert len(model.coords) == 32  # sum over 16 blocks of min = 2
    c = model.by_name["B12"]
    assert (c.i, c.j, c.col, c.weight_h) == (1, 2, 1, 4)  # scales as t^4, i.e. 2 hb
    a = model.by_name["A12"]
    assert (a.col, a.weight_h) == (2, 2)  # scales as t^2, i.e. hb
    # coordinates sit on the last row of their block
    assert c.row_abs == 1 and c.col_abs == 2
    assert a.row_abs == 1 and a.col_abs == 3


def test_coordinate_names_stay_distinct_from_eleven_blocks_on():
    assert [c.name for c in SliceModel((1,) * 10).coords][9:11] == ["A110", "A21"]
    model = SliceModel((1,) * 11)
    names = [c.name for c in model.coords]
    assert len(set(names)) == 121 and names[10] == "A1_11" and names[110] == "A11_1"
    ctx = model.context()
    assert parse_polynomial("A1_11 - 2*A11_1", ctx) == ctx.var("A1_11") - 2 * ctx.var("A11_1")


def test_slice_weights_single_boxes():
    n_model = SliceModel((1, 1), restricted=True)
    ctx = spectral_context(2)
    p = linear_component_multidegree(n_model, ["A12"])
    assert p == ctx.hbar() + ctx.z(1) - ctx.z(2)


def test_slice_weight_perimeter_rule():
    # formula (m_i + m_j)/2 hb + z_i - z_j vs the perimeter count 2*2 = 4 half-units
    model = SliceModel((3, 1))
    c = model.by_name["A12"]
    perimeter = 3 + 1
    assert c.weight_h == perimeter - 2 * (c.col - 1) == 4  # = 2 hb
    ctx = spectral_context(2)
    n_model = SliceModel(model.m, restricted=True)
    assert linear_component_multidegree(n_model, ["A12"]) == (
        2 * ctx.hbar() + ctx.z(1) - ctx.z(2)
    )


def test_intersect_with_n_counts():
    restricted = SliceModel((2, 2, 2, 2), restricted=True)
    names = {c.name for c in restricted.coords}
    assert len(names) == 12
    assert names == {
        f"{letter}{i}{j}" for letter in "AB" for i in range(1, 5) for j in range(i + 1, 5)
    }
    m = (3, 1, 2)
    want = sum(min(m[i], m[j]) for i in range(3) for j in range(3) if i < j)
    assert len(SliceModel(m, restricted=True).coords) == want


def test_emit_single_box():
    eqs = emit_equations((1,), (1,))
    nz = eqs.nonzero()
    assert len(nz) == 1
    ctx = eqs.ctx
    assert nz[0][1] == ctx.var("A11")


def test_emit_rectangular_vs_matrix_power():
    # m=(2,2), ell=(2,2): X^2 entries over 8 coordinates
    eqs = emit_equations((2, 2), (2, 2))
    assert len(eqs.relations) == 16
    assert any(not p.is_zero() for _, p in eqs.relations)
    model = SliceModel((2, 2))
    for name, p in eqs.relations:
        assert model.relation_is_homogeneous(eqs.ctx, p)


def test_emit_minors_for_general_type():
    eqs = emit_equations((1, 1, 1), (2, 1, 0))
    # rank(X) <= 1 gives 2x2 minors; X^2 = 0 gives 1x1 minors of the square
    names = [n for n, _ in eqs.relations]
    assert any(n.startswith("X^1 minor") for n in names)
    assert any(n.startswith("X^2 minor") for n in names)
    # a rank-1 nilpotent point satisfies everything: X = E_13
    ctx = eqs.ctx
    point = {name: Fraction(0) for name in ctx.names}
    point["A13"] = Fraction(7)
    values = [point[n] for n in ctx.names]
    for _, p in eqs.relations:
        assert p.evaluate(values) == 0


def test_deformed_t_zero_recovers():
    m, ell = (2, 2), (2, 2)
    deformed = emit_deformed_equations(m, ell)
    plain = emit_equations(m, ell)
    ctx = deformed.ctx
    tzero = {ctx.index(f"t{a}"): ctx.zero() for a in (1, 2)}
    lift = {plain.ctx.index(nm): ctx.var(nm) for nm in plain.ctx.names}
    for (nd, pd), (np_, pp) in zip(deformed.relations, plain.relations):
        assert pd.substitute(tzero) == pp.substitute(lift, ctx)


def test_t_zero_check_fails_when_a_relation_has_no_partner(appendix_doc, monkeypatch):
    # zip would pair the 64 deformed relations with the first 63 undeformed
    # ones and never compare the last deformed one
    emit = slicemod.emit_equations
    monkeypatch.setattr(slicemod, "emit_equations",
                        lambda m, ell: emit(m, ell)._replace(relations=emit(m, ell).relations[:-1]))
    rep = check_deformed(appendix_doc)
    assert (rep.status, rep.witness) == ("fail", "t=0 limit has no match for prod(X-t)[8,8]")


def test_t_zero_check_fails_when_the_entries_do_not_line_up(appendix_doc, monkeypatch):
    emit = slicemod.emit_equations

    def swapped(m, ell):
        eqs = emit(m, ell)
        first, second, *rest = eqs.relations
        return eqs._replace(relations=(second, first, *rest))

    monkeypatch.setattr(slicemod, "emit_equations", swapped)
    rep = check_deformed(appendix_doc)
    assert (rep.status, rep.witness) == ("fail", "t=0 limit has no match for prod(X-t)[1,1]")


def test_deformed_diagonalizable_point():
    # block-diagonal slice point with eigenvalue pairs (t1,t2),(t3,t4):
    # A_ii = sum of the pair, B_ii = -product, everything else zero
    m, ell = (2, 2), (2, 2)
    eqs = emit_deformed_equations(m, ell)
    ctx = eqs.ctx
    rng = random.Random(7)
    t = {a: Fraction(rng.randrange(-9, 9)) for a in (1, 2, 3, 4)}
    point = {name: Fraction(0) for name in ctx.names}
    point["t1"], point["t2"] = t[1], t[2]
    point["A11"], point["B11"] = t[1] + t[2], -t[1] * t[2]
    # second diagonal block uses the same eigenvalues here (ell rectangular, k=2)
    point["A22"], point["B22"] = t[1] + t[2], -t[1] * t[2]
    values = [point[n] for n in ctx.names]
    for _, p in eqs.relations:
        assert p.evaluate(values) == 0


def test_linear_component_multidegree_trivial_cases():
    model = SliceModel((2, 2, 2, 2), restricted=True)
    ctx = spectral_context(4)
    assert linear_component_multidegree(model, []) == ctx.one()
    full = linear_component_multidegree(model, [c.name for c in model.coords])
    assert full.homogeneous_degree() == len(model.coords)


def test_linear_component_multidegree_appendix():
    model = SliceModel((2, 2, 2, 2), restricted=True)
    ctx = spectral_context(4)
    got = linear_component_multidegree(model, ["A12", "A34", "B12", "B34"])
    want = parse_polynomial("(hb+z1-z2)*(2*hb+z1-z2)*(hb+z3-z4)*(2*hb+z3-z4)", ctx)
    assert got == want


def test_linear_solve_and_eval_rational():
    from qkzpsi.algebra import coordinate_context

    ctx = coordinate_context(("x", "y", "z"))
    x, y, z = ctx.var("x"), ctx.var("y"), ctx.var("z")
    constraint = x * y + z  # solve: y = -z / x
    num, den = linear_solve(constraint, "y")
    assert num == -z and den == x
    # substitute back: x*(-z/x) + z = 0
    val, _ = eval_rational(constraint, {"y": (num, den)}, ctx)
    assert val.is_zero()
    (restricted,), solutions = solve_locus(ctx, [], [constraint], [("y", 0)])
    assert restricted.is_zero() and solutions == [("y", num, den)]
    with pytest.raises(SliceError, match="not linear in x"):
        linear_solve(x * x + y, "x")
    with pytest.raises(SliceError, match="does not involve z"):
        linear_solve(x * y, "z")


def test_elementary_symmetric():
    from qkzpsi.algebra import coordinate_context

    ctx = coordinate_context(("t1", "t2", "t3"))
    es = elementary_symmetric(ctx, ("t1", "t2", "t3"))
    t1, t2, t3 = (ctx.var(n) for n in ("t1", "t2", "t3"))
    assert es[1] == t1 + t2 + t3
    assert es[2] == t1 * t2 + t1 * t3 + t2 * t3
    assert es[3] == t1 * t2 * t3


@pytest.mark.parametrize("m, ell, deform", [
    ((1,), (1,), False), ((2, 2), (2, 2), False), ((1, 2, 1), (2, 2), False),
    ((2, 2, 2), (3, 3), True), ((1, 1, 1), (1, 1, 1), True), ((3, 1), (4,), True),
    ((1, 1, 1, 1), (2, 1, 1, 0), False), ((2, 1, 1), (2, 1, 1), False),
    ((1, 1, 1), (2, 1, 0), False),
])
def test_streamed_relations_equal_the_full_power_oracle(m, ell, deform):
    """Row by row (or power by power for minors) gives the relations of whole
    matrix powers: names, polynomials and order, streamed and held."""
    want = full_power_relations(m, ell, deform)
    ctx, relations = equation_stream(m, ell, deform)
    assert list(relations) == want
    held = (emit_deformed_equations if deform else emit_equations)(m, ell)
    assert (held.ctx, held.relations) == (ctx, tuple(want))


def relations_digest(ctx, relations):
    """SHA-256 of "name : text" lines over every relation, zero ones included,
    first 16 hex digits."""
    writer = TermWriter(ctx)
    text = "".join(f"{name} : {p.text(writer)}\n" for name, p in relations)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# The three slice jobs of the benchmark's appendix workload and a
# non-rectangular ell, digested from full_power_relations.
@pytest.mark.parametrize("m, ell, deform, digest", [
    ((2,) * 5, (5, 5), False, "878b3794d5d93b26"),
    ((2,) * 5, (5, 5), True, "be89107e7622d0b1"),
    ((2,) * 6, (4, 4, 4), False, "fb30f72f6db7b513"),
    ((1, 1, 1, 1), (2, 1, 1, 0), False, "c25d3cd1193779e9"),
])
def test_streamed_relations_match_the_full_power_digest(m, ell, deform, digest):
    assert relations_digest(*equation_stream(m, ell, deform)) == digest


@pytest.mark.parametrize("m, ell, deform, fragment", [
    ((1,) * 6, (4, 2), False, "symbolic minors above size 4"),
    ((1,) * 8, (2, 2, 2, 1, 1), False, "minor system too large"),
    ((2, 2), (2, 1, 1), True, "rectangular ell only"),
    # the orbit closure of ell misses x_m: the slice is empty
    ((3,), (1, 1, 1), False, r"sorted m \(3,\) is not below ell"),
    ((2, 1), (1, 1, 1), False, r"sorted m \(2, 1\) is not below ell"),
    ((3, 1), (2, 2), True, r"sorted m \(3, 1\) is not below ell"),
    ((1, 3), (2, 2), False, r"sorted m \(3, 1\) is not below ell"),
])
def test_equation_stream_refuses_before_building(m, ell, deform, fragment):
    # raised by the call itself, not when the first relation is taken
    with pytest.raises(SliceError, match=fragment):
        equation_stream(m, ell, deform)


def test_the_benchmark_and_appendix_slices_meet_the_orbit_closure(appendix_doc):
    # the closure of the orbit of ell contains x_m on every slice that is emitted
    slices = [((2,) * 5, (5, 5), False), ((2,) * 5, (5, 5), True), ((2,) * 6, (4, 4, 4), False),
              (tuple(appendix_doc["m"]), tuple(appendix_doc["ell"]), False),
              (tuple(appendix_doc["m"]), tuple(appendix_doc["ell"]), True)]
    for m, ell, deform in slices:
        _, relations = equation_stream(m, ell, deform)
        name, p = next(relations)
        assert name.endswith("[1,1]") and not p.is_zero(), (m, ell, deform)


def test_oversize_guard():
    with pytest.raises(SliceError):
        emit_equations((4, 4, 4, 4), (4,) * 4)


def inserted_block_weight_product(m, p, block_size, ctx):
    """Weight product of the coordinates wiped out by a full-block insertion.

    Inserting a Jordan block of size ``block_size`` at position p pins the
    coordinates of the enlarged slice that sit in the new block's row and
    column strips; their torus weights multiply to the linear-factor
    prefactor of the insertion recurrence.  ``ctx`` must carry z_1..z_N and
    a ``zeta`` variable for the inserted spectral parameter.
    """
    m_big = tuple(m[:p - 1]) + (block_size,) + tuple(m[p - 1:])
    model = SliceModel(m_big, restricted=True)
    zeta_idx = ctx.index("zeta") + 1  # 1-based for linear forms

    def zvar(block):
        # block p is the inserted one; the blocks after it shift down by one
        if block == p:
            return zeta_idx
        return block if block < p else block - 1

    product = ctx.one()
    for c in model.coords:
        if p in (c.i, c.j):
            form, sign = LinearForm.make(c.weight_h, zvar(c.i), zvar(c.j))
            product = product * (form.to_poly(ctx) * sign)
    return product


def test_inserted_block_weight_product_matches_formula():
    # the coordinates pinned by inserting a full block carry exactly the
    # torus weights of the recurrence prefactor (the one check_recurrence
    # multiplies by); two independent routes
    for m, p, K in (((1, 1), 1, 2), ((1, 1), 2, 2), ((2, 1, 2), 2, 4), ((2, 2), 1, 3)):
        N = len(m)
        ctx = spectral_context(N, zeta=True)
        got = inserted_block_weight_product(m, p, K, ctx)
        half = ctx.hbar() * Fraction(1, 2)
        zeta = ctx.var("zeta")
        want = ctx.one()
        for i in range(1, p):
            for a in range(m[i - 1]):
                want = want * (half * (m[i - 1] + K - 2 * a) + ctx.z(i) - zeta)
        for i in range(p, N + 1):
            for a in range(m[i - 1]):
                want = want * (half * (m[i - 1] + K - 2 * a) + zeta - ctx.z(i))
        assert got == want


def test_verify_component_membership_reports_failure():
    from qkzpsi.algebra import coordinate_context

    ctx = coordinate_context(("x", "y"))
    x, y = ctx.var("x"), ctx.var("y")
    ok = verify_component_membership(ctx, 2, ["x"], [], [], [x * y], 1, instance="toy")
    assert ok.passed  # x = 0 kills x*y
    bad = verify_component_membership(ctx, 2, ["x"], [], [], [y], 1, instance="toy")
    assert bad.status == "fail"


def test_a_solution_in_a_later_variable_is_eliminated():
    # v1 = v2 is solved first and v2 = 1 second, so the point is v1 = v2 = 1
    # and v1 - 1 vanishes on it; substituting both solutions at once leaves
    # v1 - 1 at v1 = v2, which is v2 - 1, not zero
    from qkzpsi.algebra import coordinate_context

    ctx = coordinate_context(("v1", "v2"))
    v1, v2 = ctx.var("v1"), ctx.var("v2")
    constraints, order, relations = [v1 - v2, v2 - 1], [("v1", 0), ("v2", 1)], [v1 - 1]
    rep = verify_component_membership(ctx, 2, [], constraints, order, relations, 0)
    assert rep.passed, rep.witness
    values, solutions = solve_locus(ctx, [], constraints + relations, order)
    assert all(v.is_zero() for v in values)
    assert [var for var, _, _ in solutions] == ["v1", "v2"]
    assert not restrict_at_once(ctx, [], constraints + relations, order)[2].is_zero()
    # and a locus that misses the relation still fails
    rep = verify_component_membership(ctx, 2, [], constraints, order, [v1 - 2], 0)
    assert rep.witness == "relation 0 does not vanish"


def test_component_three_lies_in_the_slice_variety_in_either_solve_order(appendix_doc):
    # reversed, the order solves A24 first, from an entry that holds B24,
    # which is solved second: membership and sampling must both see it
    import copy

    from qkzpsi.appendix import check_components, sample_component_point

    doc = copy.deepcopy(appendix_doc)
    doc["components"][2]["solve_order"].reverse()
    assert check_components(doc).passed
    X = sample_component_point(doc, 2, random.Random(3))
    power = X
    for _ in range(3):
        power = [[sum(p * x for p, x in zip(row, col)) for col in zip(*X)] for row in power]
    assert all(v == 0 for row in power for v in row)


def test_spaltenstein_sample_component1():
    from qkzpsi.appendix import load_fixture, sample_component_point

    doc = load_fixture()
    rng = random.Random(20240817)
    X = sample_component_point(doc, 0, rng)
    label = spaltenstein_label(X, (2, 2, 2, 2))
    assert label == label_of_tableau(Tableau(((1, 2), (1, 2), (3, 4), (3, 4))), 4)


def test_sampled_points_satisfy_relations():
    # membership double-check at rational points: the three matrix relations
    # vanish numerically on every sampled component point
    from qkzpsi.appendix import load_fixture, sample_component_point
    from qkzpsi.combinatorics import jordan_type

    doc = load_fixture()
    rng = random.Random(3)
    for ci in range(3):
        X = sample_component_point(doc, ci, rng)
        X2 = [[sum(X[i][t] * X[t][j] for t in range(8)) for j in range(8)] for i in range(8)]
        X4 = [[sum(X2[i][t] * X2[t][j] for t in range(8)) for j in range(8)] for i in range(8)]
        assert all(v == 0 for row in X4 for v in row)
        assert jordan_type(X) in {(4, 4), (4, 3, 1), (4, 2, 2), (3, 3, 2)}


def test_sampling_refuses_a_constraint_without_its_variable(appendix_doc):
    # A14 occurs in no entry (1,4) of A^3 + AB + BA, so there is nothing to solve
    # for; the sampler must say so rather than resample forever
    import copy

    from qkzpsi.appendix import sample_component_point

    doc = copy.deepcopy(appendix_doc)
    doc["components"][1]["solve_order"] = [["A14", 0]]
    with pytest.raises(SliceError, match="does not involve A14"):
        sample_component_point(doc, 1, random.Random(1))
