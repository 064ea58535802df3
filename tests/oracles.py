"""Reference code that tests compare the package against.

Nothing in ``src/`` calls these: each is an independent route to a number
or property that the package computes, or guarantees, another way, or a
reading of a package object that only tests need (``den_poly``,
``evaluate``).  ``full_power_relations`` builds the slice equations from
whole matrix powers, all held at once: the reference for the row-by-row
stream of ``slice.equation_stream``.  ``eval_rational`` substitutes every
solution of a component locus at once, and ``restrict_at_once`` restricts
polynomials to a locus through it, as the membership check did before
``slice.solve_locus`` eliminated the solutions in order.
"""

from itertools import combinations, permutations, product

from qkzpsi.algebra import FIELD_MASK, Polynomial, sum_of_products
from qkzpsi.combinatorics import inversions
from qkzpsi.qkz import label_text
from qkzpsi.slice import SliceModel, elementary_symmetric, linear_solve


def _add_vertical_strip(p, a, k):
    """All partitions (length <= k) obtained from p by adding a vertical a-strip."""
    p = tuple(p) + (0,) * (k - len(p))
    out = []
    for rows in combinations(range(k), a):
        q = list(p)
        for r in rows:
            q[r] += 1
        if all(q[i] >= q[i + 1] for i in range(k - 1)):
            out.append(tuple(q))
    return out


def tensor_multiplicity(lam, m, k):
    """Multiplicity of the weight lam in the product of column reps omega_{m_i}.

    Iterated Pieri rule for elementary symmetric functions: tensoring with a
    column of height a adds a vertical a-strip in all possible ways.  It
    counts the tableaux that ``combinatorics.enumerate_tableaux`` lists.
    """
    lam = tuple(lam) + (0,) * (k - len(lam))
    state = {(0,) * k: 1}
    for a in m:
        new = {}
        for p, mult in state.items():
            for q in _add_vertical_strip(p, a, k):
                new[q] = new.get(q, 0) + mult
        state = new
    return state.get(lam, 0)


def partitions(n, max_part, max_len):
    """Every partition of n (weakly decreasing, positive parts) with parts at
    most max_part and at most max_len parts."""
    if n == 0:
        return [()]
    if max_len == 0:
        return []
    return [(first,) + rest for first in range(min(n, max_part), 0, -1)
            for rest in partitions(n - first, first, max_len - 1)]


def count_triples(max_k=4, max_M=10):
    """(k, lambda, m) for k = 2..max_k and M = 1..max_M: every partition
    lambda of M with at most k rows, and every weakly decreasing m of M with
    parts in 1..k-1 (1,230 triples at the defaults)."""
    return [(k, lam, m) for k in range(2, max_k + 1) for M in range(1, max_M + 1)
            for lam in partitions(M, M, k) for m in partitions(M, k - 1, M)]


def brute_content_labels(lam, m):
    """The subset sequences (S_1, ..., S_N), |S_i| = m_i, that use letter a
    lam_a times: every sequence of subsets of the letters, filtered."""
    letters = range(1, len(lam) + 1)
    return [seq for seq in product(*(combinations(letters, x) for x in m))
            if all(sum(a in S for S in seq) == n for a, n in zip(letters, lam))]


def degree_witness(psi):
    """None if every non-zero entry of psi is homogeneous of degree
    sum lam_a (lam_a - 1)/2, else the first label (in basis order) that is
    not, with its degree (None when the entry is inhomogeneous)."""
    want = psi.expected_degree()
    for lab in psi.basis:
        p = psi.entries[lab]
        if not p.is_zero() and p.homogeneous_degree() != want:
            return f"label {label_text(lab)} has degree {p.homogeneous_degree()}, want {want}"
    return None


def den_poly(rf):
    """The denominator of a RationalFunction, multiplied out."""
    p = rf.ctx.one()
    for f, m in rf.den.items():
        p = p * (f.to_poly(rf.ctx) ** m)
    return p


def evaluate(rf, values):
    """A RationalFunction at a point, one value per variable of its context."""
    d = den_poly(rf).evaluate(values)
    if d == 0:
        raise ZeroDivisionError("denominator vanishes at the point")
    return rf.num.evaluate(values) / d


def _mat_mul(A, B):
    ctx = A[0][0].ctx
    cols = list(zip(*B))
    return [[sum_of_products(ctx, zip(row, col)) for col in cols] for row in A]


def _det(sub):
    """Determinant by the Leibniz sum, one product per permutation."""
    ctx = sub[0][0].ctx
    total = ctx.zero()
    for perm in permutations(range(len(sub))):
        term = ctx.const((-1) ** inversions(perm))
        for i, j in enumerate(perm):
            term = term * sub[i][j]
        total = total + term
    return total


def full_power_relations(m, ell, deform):
    """The (name, Polynomial) relations of the slice of m for Jordan type at
    most ell, from whole M x M matrix powers.

    Rectangular ell (nonzero parts all L): the entries of X^L = X^(L-1) X,
    or with ``deform`` those of sum_s (-1)^s e_s X^(L-s), the powers built
    from the identity up.  General ell: for s = 1..max(ell) every minor of
    X^s of size sum_i max(ell_i - s, 0) + 1, rows and columns in
    lexicographic order.
    """
    model = SliceModel(m)
    M = model.M
    parts = [x for x in ell if x > 0]
    L = max(parts)
    if deform:
        tnames = tuple(f"t{a}" for a in range(1, L + 1))
        ctx, X = model.generic_matrix(model.context(extra=tnames))
    else:
        ctx, X = model.generic_matrix()
    if len(set(parts)) > 1:
        out = []
        power = X
        for s in range(1, L + 1):
            if s > 1:
                power = _mat_mul(power, X)
            size = sum(max(x - s, 0) for x in parts) + 1
            for rows in combinations(range(M), size):
                for cols in combinations(range(M), size):
                    name = f"X^{s} minor {tuple(r + 1 for r in rows)}x{tuple(c + 1 for c in cols)}"
                    out.append((name, _det([[power[r][c] for c in cols] for r in rows])))
        return out
    if not deform:
        P = X
        for _ in range(L - 1):
            P = _mat_mul(P, X)
        return [(f"X^{L}[{r + 1},{c + 1}]", P[r][c]) for r in range(M) for c in range(M)]
    powers = [[[ctx.one() if r == c else ctx.zero() for c in range(M)] for r in range(M)]]
    for _ in range(L):
        powers.append(_mat_mul(powers[-1], X))
    es = elementary_symmetric(ctx, tnames)
    return [(f"prod(X-t)[{r + 1},{c + 1}]",
             sum_of_products(ctx, ((es[s] * (-1) ** s, powers[L - s][r][c])
                                   for s in range(L + 1))))
            for r in range(M) for c in range(M)]


def eval_rational(poly, assignment, ctx):
    """Evaluate with some variables set to num/den pairs; returns (num, den).

    Unassigned variables stay symbolic, and so do assigned ones inside the
    images of others: no image is substituted into another.  The result
    denominator is the product of the assignment denominators raised to the
    maximal exponents, so a value vanishes when ``num == 0``.
    """
    offsets = {name: ctx.offset(ctx.index(name)) for name in assignment}
    units = {name: ctx.units[ctx.index(name)] for name in assignment}
    maxdeg = {}
    for e in poly.terms:
        for name, off in offsets.items():
            exp = e >> off & FIELD_MASK
            if exp > maxdeg.get(name, 0):
                maxdeg[name] = exp
    den_total = ctx.one()
    for name, d in maxdeg.items():
        den_total = den_total * (assignment[name][1] ** d)
    total = {}
    get = total.get
    for e, coeff in poly.terms.items():
        # the unassigned variables stay as they are: take the others out
        rest = e
        exps = {}
        for name in maxdeg:
            exp = exps[name] = e >> offsets[name] & FIELD_MASK
            rest -= exp * units[name]
        factor = Polynomial(ctx, {rest: coeff}, _clean=True)
        for name, exp in exps.items():
            num, den = assignment[name]
            if exp:
                factor = factor * (num ** exp)
            pad = maxdeg[name] - exp
            if pad:
                factor = factor * (den ** pad)
        for mono, c in factor.terms.items():
            total[mono] = get(mono, 0) + c
    return Polynomial(ctx, total), den_total


def restrict_at_once(ctx, vanishing, polys, solve_order):
    """The numerators of ``polys`` on a locus, by ``eval_rational``: the
    vanishing coordinates map to 0, and each (var, cidx) of ``solve_order``
    solves ``polys[cidx]`` at the solutions before it; then every
    polynomial is evaluated at all the solutions at once."""
    zero, one = ctx.zero(), ctx.one()
    assignment = {name: (zero, one) for name in vanishing}
    for var, cidx in solve_order:
        num, _ = eval_rational(polys[cidx], assignment, ctx)
        assignment[var] = linear_solve(num, var)
    return [eval_rational(p, assignment, ctx)[0] for p in polys]
