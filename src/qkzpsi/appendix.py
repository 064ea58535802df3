"""The fully worked rank-4 example, embedded as data and verified end to end.

All the printed objects of the example (component constraints, multidegrees,
R-matrices, the rotation matrix, the deformed equations and one deformed
component) live in ``data/appendix.json`` in their printed shapes; this
module parses them and checks every identity against the package's own
constructions.  Nothing here is re-derived by hand: the point is that the
fixture and the code agree.

The suite's eight checks: slice equations, component membership,
multidegrees, R-matrix solve, YBE/unitarity/commutation, cyclicity, wheel
conditions, deformed equations.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from itertools import zip_longest
from pathlib import Path

from .algebra import LinearForm, RationalFunction, parse_polynomial, spectral_context
from .combinatorics import (
    SignedPermutationOp,
    Tableau,
    epsilon_sign,
    phi_map,
    rho_matrix,
)
from .qkz import PsiVector, check_cyclicity, check_wheel, label_text, wheel_positions
from .reporting import Report, checking, run_reports
from .rmatrix import (
    CTX1,
    ROperator,
    matrix_applicator,
    solve_rmatrix_from_exchange,
    verify_commutation,
    verify_unitarity,
    verify_ybe,
)
from . import slice as slicemod

DATA = Path(__file__).parent / "data" / "appendix.json"


def load_fixture():
    """Parsed fixture dictionary, read afresh on every call."""
    with open(DATA) as fh:
        return json.load(fh)


def fixture_labels(doc):
    N = len(doc["m"])
    return [phi_map(Tableau(tuple(map(tuple, c["tableau"]))), N) for c in doc["components"]]


def fixture_psi(doc):
    """The printed multidegree vector over the component basis."""
    ctx = spectral_context(len(doc["m"]))
    entries = {}
    for comp, lab in zip(doc["components"], fixture_labels(doc)):
        p = ctx.one()
        for a, i, j in comp["multidegree_factors"]:
            form, sign = LinearForm.make(2 * a, i, j)
            p = p * (form.to_poly(ctx) * sign)
        entries[lab] = p
    return PsiVector(4, tuple(doc["quiver"]["k"] * [2]), tuple(doc["m"]), ctx, entries)


def _parse_entry(cell):
    num = parse_polynomial(cell["num"], CTX1)
    den = {}
    for a in cell["den"]:
        f, _ = LinearForm.make(2 * a, 1)
        den[f] = den.get(f, 0) + 1
    return RationalFunction(num, den)


def fixture_rmatrices(doc):
    """The printed matrices as full-basis operators on the component labels."""
    labels = fixture_labels(doc)
    out = {}
    for name, key in (("R1", "R1_equals_R3"), ("R2", "R2")):
        rows = doc["rmatrices"][key]
        entries = {}
        for a, row in enumerate(rows):
            for b, cell in enumerate(row):
                rf = _parse_entry(cell)
                if not rf.is_zero():
                    entries[(labels[a], labels[b])] = rf
        out[name] = ROperator(CTX1, tuple(labels), tuple(labels), entries)
    out["R3"] = out["R1"]
    return out


def fixture_rho(doc):
    labels = fixture_labels(doc)
    mat = doc["rho"]
    mapping = {}
    sign = None
    for b in range(len(labels)):
        hits = [(a, mat[a][b]) for a in range(len(labels)) if mat[a][b]]
        if len(hits) != 1:
            raise ValueError("rotation fixture is not a signed permutation")
        a, val = hits[0]
        if sign is None:
            sign = 1 if val > 0 else -1
        if (1 if val > 0 else -1) != sign:
            raise ValueError("rotation fixture has mixed signs")
        mapping[labels[b]] = labels[a]
    return SignedPermutationOp(tuple(labels), mapping, sign)


# -- the eight checks ------------------------------------------------------------


def _full_matrices(ctx, N):
    """The full N x N matrices of the slice variables Aij and Bij."""
    return slicemod.letter_matrices(N, lambda letter, i, j: ctx.var(f"{letter}{i}{j}"))


def _upper_entry(ctx, diagonal, letter, i, j):
    """The slice variable Lij above the diagonal, ``diagonal[(L, i)]`` (zero
    when absent) on it, zero below."""
    if i < j:
        return ctx.var(f"{letter}{i}{j}")
    return diagonal.get((letter, i), ctx.zero()) if i == j else ctx.zero()


def _block_witness(eqs, m, prefix, mats, top, corner, combined):
    """Where the emitted relations of the slice of m miss the printed block
    structure, or None.

    At the first or last row and column of the Jordan blocks i, j, the
    relation named ``prefix[r,c]`` must equal top, corner, corner*B and
    top + corner*A (first/first, first/last, last/first, last/last); and
    the printed ``combined`` relation must be top + corner*A - A*corner.
    """
    model = slicemod.SliceModel(m)
    corner_B = slicemod.mat_mul(corner, mats["B"])
    corner_A = slicemod.mat_mul(corner, mats["A"])
    A_corner = slicemod.mat_mul(mats["A"], corner)
    X = dict(eqs.relations)
    ends = [(s + 1, s + mi) for s, mi in zip(model.block_start, model.m)]  # 1-based
    pairs = [(i, j) for i in range(model.N) for j in range(model.N)]
    for i, j in pairs:
        corners = [(0, 0, top[i][j], "upper-left"), (0, 1, corner[i][j], "upper-right"),
                   (1, 0, corner_B[i][j], "lower-left"),
                   (1, 1, top[i][j] + corner_A[i][j], "lower-right")]
        for a, b, want, where in corners:
            if X[f"{prefix}[{ends[i][a]},{ends[j][b]}]"] != want:
                return f"{where} block entry ({i + 1},{j + 1})"
    for i, j in pairs:
        if combined[i][j] != top[i][j] + corner_A[i][j] - A_corner[i][j]:
            return f"combined relation differs at ({i + 1},{j + 1})"
    return None


def check_equations(doc):
    """X^4 on the slice carries exactly the printed matrix relations."""
    with checking("equations", "appendix") as outcome:
        m = tuple(doc["m"])
        eqs = slicemod.emit_equations(m, tuple(doc["ell"]))
        ctx = eqs.ctx
        mats = _full_matrices(ctx, len(m))
        by_name = {r["name"]: r["terms"] for r in doc["relations"]}
        r_left, r_right, r_cubic = (
            slicemod.matrix_relation_value(by_name[name], mats)
            for name in ("B(A^2+B)", "(A^2+B)B", "A^3+AB+BA"))
        # B(A^2+B) is the explicit combination of the other two relations
        witness = _block_witness(eqs, m, "X^4", mats, r_right, r_cubic, r_left)
        if witness is not None:
            outcome.fail(witness)
        # torus homogeneity of every emitted relation
        model = slicemod.SliceModel(m)
        for name, p in eqs.relations:
            if not model.relation_is_homogeneous(ctx, p):
                outcome.fail(f"inhomogeneous relation {name}")
    return outcome.report


def _restricted_slice(doc):
    """The restricted slice model of the fixture, its context and its
    strictly upper-triangular A, B matrices."""
    model_n = slicemod.SliceModel(tuple(doc["m"]), restricted=True)
    ctx = model_n.context()
    return model_n, ctx, slicemod.letter_matrices(model_n.N, partial(_upper_entry, ctx, {}))


def _constraint_values(comp, mats):
    """The printed matrix constraints of a component, as polynomials."""
    values = []
    for constraint in comp["matrix_constraints"]:
        r, c = constraint["entry"]
        values.append(slicemod.matrix_relation_value(constraint["word_terms"], mats)[r - 1][c - 1])
    return values


def check_components(doc):
    """The three printed loci satisfy the matrix relations identically."""
    with checking("components", "appendix") as outcome:
        model_n, ctx, mats = _restricted_slice(doc)
        relations = [
            entry
            for r in doc["relations"]
            for row in slicemod.matrix_relation_value(r["terms"], mats)
            for entry in row
        ]
        half_dim = len(model_n.coords) - 4  # codim = sum lam_a(lam_a-1)/2 = 4
        for ci, comp in enumerate(doc["components"], start=1):
            rep = slicemod.verify_component_membership(
                ctx,
                len(model_n.coords),
                comp["vanishing"],
                _constraint_values(comp, mats),
                comp["solve_order"],
                relations,
                free_expected=half_dim,
                instance=f"component {ci}",
            )
            if not rep.passed:
                outcome.fail(f"component {ci}: {rep.witness}")
    return outcome.report


def check_multidegrees(doc):
    """The linear component's weight product equals its printed multidegree."""
    with checking("multidegrees", "appendix") as outcome:
        m = tuple(doc["m"])
        model_n = slicemod.SliceModel(m, restricted=True)
        psi = fixture_psi(doc)
        comp1 = doc["components"][0]
        labels = fixture_labels(doc)
        product = slicemod.linear_component_multidegree(model_n, comp1["vanishing"])
        if product != psi.entries[labels[0]]:
            outcome.fail("weight product differs from the printed polynomial")
        want = psi.expected_degree()
        for lab in labels:
            if psi.entries[lab].homogeneous_degree() != want:
                outcome.fail(f"printed entry {label_text(lab)} not of degree {want}")
        # translation invariance: only differences of z's occur
        ctx = psi.ctx
        shift = {t: ctx.z(t + 1) + ctx.hbar() for t in range(ctx.nz)}
        for lab in labels:
            if psi.entries[lab].substitute(shift) != psi.entries[lab]:
                outcome.fail(f"entry {label_text(lab)} not translation invariant")
    return outcome.report


def check_rmatrix_solve(doc):
    """Solving the exchange relation returns the printed matrices."""
    with checking("rmatrix-solve", "appendix") as outcome:
        psi = fixture_psi(doc)
        printed = fixture_rmatrices(doc)
        want = {1: printed["R1"], 2: printed["R2"], 3: printed["R3"]}
        for i in (1, 2, 3):
            solved = solve_rmatrix_from_exchange(psi, i)
            if not solved.equals(want[i]):
                outcome.fail(f"solved matrix at slot {i} differs")
    return outcome.report


def check_rmatrix_relations(doc):
    """YBE, unitarity and far commutation for the printed matrices."""
    with checking("ybe-unitarity", "appendix") as outcome:
        printed = fixture_rmatrices(doc)
        labels = tuple(fixture_labels(doc))
        ctx3 = spectral_context(3)
        a1 = matrix_applicator(printed["R1"])
        a2 = matrix_applicator(printed["R2"])
        a3 = matrix_applicator(printed["R3"])
        checks = [
            verify_ybe(a1, a2, labels, ctx3, "appendix R1,R2"),
            verify_ybe(a2, a3, labels, ctx3, "appendix R2,R3"),
            verify_unitarity(a1, labels, ctx3, "appendix R1"),
            verify_unitarity(a2, labels, ctx3, "appendix R2"),
            verify_commutation(a1, a3, labels, ctx3, "appendix R1,R3"),
        ]
        for rep in checks:
            if not rep.passed:
                outcome.fail(f"{rep.instance}: {rep.witness}")
    return outcome.report


def check_cyclicity_fixture(doc):
    """Printed rotation: cyclicity holds, the matrix is promotion, sign is +1."""
    with checking("cyclicity", "appendix") as outcome:
        psi = fixture_psi(doc)
        rho = fixture_rho(doc)
        rep = check_cyclicity(psi, rho, instance="appendix")
        if not rep.passed:
            outcome.fail(rep.witness)
        # promotion-derived operator matches the printed matrix
        tabs = [Tableau(tuple(tuple(r) for r in c["tableau"])) for c in doc["components"]]
        labels = fixture_labels(doc)
        m = tuple(doc["m"])
        M = sum(m)
        derived = rho_matrix(tabs, m, M, 4)
        tab_of = dict(zip(labels, tabs))
        lab_of = {t: lab for lab, t in tab_of.items()}
        for lab in labels:
            want = rho.mapping[lab]
            got = lab_of[derived.mapping[tab_of[lab]]]
            if want != got:
                outcome.fail("promotion disagrees with the printed matrix")
        eps = epsilon_sign(M, 4)
        if eps != -1 or derived.sign != 1 or rho.sign != 1:
            outcome.fail(f"sign bookkeeping: eps={eps}, derived={derived.sign}")
        # closure: four applications of the printed rotation give the identity
        comp = rho
        for _ in range(3):
            comp = comp.compose(rho)
        if not comp.is_identity():
            outcome.fail("rho^4 is not the identity")
    return outcome.report


def check_wheel_fixture(doc):
    with checking("wheel", "appendix") as outcome:
        psi = fixture_psi(doc)
        placements = wheel_positions(psi.m, psi.k)
        if len(placements) != 4:
            outcome.fail(f"expected 4 placements, found {len(placements)}")
        for pos in placements:
            rep = check_wheel(psi, pos, instance=f"appendix positions={pos}")
            if not rep.passed:
                outcome.fail(f"positions {pos}: {rep.witness}")
    return outcome.report


def check_deformed(doc):
    """Deformed relations: printed shape, t = 0 limit, component membership."""
    with checking("deformed-equations", "appendix") as outcome:
        m = tuple(doc["m"])
        ell = tuple(doc["ell"])
        eqs = slicemod.emit_deformed_equations(m, ell)
        ctx = eqs.ctx
        tnames = tuple(f"t{a}" for a in range(1, 5))
        es = slicemod.elementary_symmetric(ctx, tnames)
        mats = _full_matrices(ctx, len(m))
        r1d, r0d, r2d = [
            slicemod.matrix_relation_value(r["terms"], mats, e_polys=es)
            for r in doc["deformed_relations"]
        ]
        # the second printed relation is the explicit combination of the others
        witness = _block_witness(eqs, m, "prod(X-t)", mats, r1d, r2d, r0d)
        if witness is not None:
            outcome.fail(witness)
        # t = 0 recovers the undeformed equations relation by relation, each
        # deformed [r,c] entry paired with the undeformed one at [r,c]
        zero_map = {ctx.index(t): ctx.zero() for t in tnames}
        undeformed = slicemod.emit_equations(m, ell)
        embed = {undeformed.ctx.index(nm): ctx.var(nm) for nm in undeformed.ctx.names}
        for deformed, plain in zip_longest(eqs.relations, undeformed.relations):
            if (deformed is None or plain is None
                    or deformed[0].partition("[")[2] != plain[0].partition("[")[2]):
                outcome.fail(f"t=0 limit has no match for {(deformed or plain)[0]}")
            if deformed[1].substitute(zero_map) != plain[1].substitute(embed, ctx):
                outcome.fail(f"t=0 limit differs at {deformed[0]}")
        # membership of the printed deformed component
        rep = _check_deformed_component(doc, printed_relations=doc["deformed_relations"])
        if not rep.passed:
            outcome.fail(rep.witness)
    return outcome.report


def _check_deformed_component(doc, printed_relations):
    """Generic point of the printed deformed component satisfies the relations.

    The printed constraints select the component inside the deformed
    variety, so two coordinates are additionally pinned by (linear-in-them)
    entries of the relations themselves; afterwards every relation entry
    and every printed quadratic must vanish identically and the number of
    free coordinates must equal half the ambient dimension.
    """
    with checking("deformed-component", "appendix") as outcome:
        dc = doc["deformed_component"]
        model_n = slicemod.SliceModel(tuple(doc["m"]), restricted=True)
        tnames = tuple(f"t{a}" for a in range(1, 5))
        ctx = model_n.context(extra=tnames)
        es = slicemod.elementary_symmetric(ctx, tnames)
        diagonal = {}  # A_ii the sum, B_ii minus the product of the t_a, a in alpha_i
        for i, letters in enumerate(dc["alpha"], start=1):
            e = slicemod.elementary_symmetric(ctx, [f"t{a}" for a in letters])
            diagonal["A", i], diagonal["B", i] = e[1], -e[-1]
        mats = slicemod.letter_matrices(model_n.N, partial(_upper_entry, ctx, diagonal))
        quadratics = [parse_polynomial(q, ctx) for q in dc["quadratics"]]
        rel_values = [
            slicemod.matrix_relation_value(rel["terms"], mats, e_polys=es)
            for rel in printed_relations
        ]
        constraints = list(quadratics)
        solve_order = list(dc["solve_order"])
        for var, ri, r, c in dc["relation_solve"]:
            constraints.append(rel_values[ri][r - 1][c - 1])
            solve_order.append((var, len(constraints) - 1))
        relations = [entry for val in rel_values for row in val for entry in row]
        rep = slicemod.verify_component_membership(
            ctx,
            len(model_n.coords),
            [],
            constraints,
            solve_order,
            relations,
            free_expected=8,
            instance="deformed component",
        )
        if not rep.passed:
            outcome.fail(rep.witness)
    return outcome.report


def sample_component_point(doc, comp_index, rng):
    """Random rational point of a printed component.

    Free coordinates are integers in [-9, 9]; the vanishing ones are zero,
    and the solved ones are filled from the last solution of ``solve_locus``
    back, each solution being free of the variables solved before it
    (resampling if a pivot degenerates).  Returns the full 8 x 8 slice
    matrix.
    """
    comp = doc["components"][comp_index]
    model_n, ctx, mats = _restricted_slice(doc)
    _, solutions = slicemod.solve_locus(ctx, comp["vanishing"], _constraint_values(comp, mats),
                                        comp["solve_order"])
    while True:
        point = {c.name: Fraction(rng.randrange(-9, 10)) for c in model_n.coords}
        for name in comp["vanishing"]:
            point[name] = Fraction(0)
        for var, num, den in reversed(solutions):
            values = [point[name] for name in ctx.names]
            pivot = den.evaluate(values)
            if pivot == 0:
                break
            point[var] = num.evaluate(values) / pivot
        else:
            break
    M = model_n.M
    X = [[Fraction(0)] * M for _ in range(M)]
    for s, mi in zip(model_n.block_start, model_n.m):
        for r in range(mi - 1):
            X[s + r][s + r + 1] = Fraction(1)
    for c in model_n.coords:
        X[c.row_abs][c.col_abs] = point[c.name]
    return X


def check_labelling(doc):
    """Jordan-chain labels of sampled component points match the subscripts.

    At least 9 of 10 samples per component, drawn from a generator seeded
    with 1, must reproduce the printed tableau; any minority label must be
    strictly smaller chainwise in dominance order (a non-generic
    degeneration).
    """
    import random as _random

    from .combinatorics import chain_dominance_leq, label_of_tableau, spaltenstein_label

    samples = 10
    with checking("labelling", "appendix") as outcome:
        m = tuple(doc["m"])
        rng = _random.Random(1)
        for ci, comp in enumerate(doc["components"]):
            printed_tab = Tableau(tuple(tuple(r) for r in comp["tableau"]))
            printed = label_of_tableau(printed_tab, len(m))
            hits = 0
            minority = []
            for _ in range(samples):
                X = sample_component_point(doc, ci, rng)
                label = spaltenstein_label(X, m)
                if label == printed:
                    hits += 1
                else:
                    minority.append(label)
            if hits < samples - 1:
                outcome.fail(f"component {ci + 1}: only {hits}/{samples} generic")
            for label in minority:
                if not (chain_dominance_leq(label, printed) and label != printed):
                    outcome.fail(f"component {ci + 1}: minority label not below the printed one")
    return outcome.report


SUITE = (
    ("equations", check_equations),
    ("components", check_components),
    ("multidegrees", check_multidegrees),
    ("rmatrix-solve", check_rmatrix_solve),
    ("ybe-unitarity", check_rmatrix_relations),
    ("cyclicity", check_cyclicity_fixture),
    ("wheel", check_wheel_fixture),
    ("deformed-equations", check_deformed),
)


# The checks of ``slice verify-appendix``, in SUITE order.
SLICE_CHECKS = ("equations", "components", "multidegrees", "deformed-equations")


def guarded_jobs(doc, names):
    """One job per SUITE check named in ``names``, in SUITE order; a check
    that raises gives a failing report."""
    return [partial(_run_guarded, name, fn, doc) for name, fn in SUITE if name in names]


def cmd_appendix_suite():
    """Run all eight checks; returns the list of reports."""
    return run_reports(guarded_jobs(load_fixture(), dict(SUITE)))


def _run_guarded(name, fn, doc):
    try:
        return fn(doc)
    except Exception as exc:  # a failure inside a check is a failing report
        return Report(name, "appendix", "fail", witness=f"{type(exc).__name__}: {exc}")
