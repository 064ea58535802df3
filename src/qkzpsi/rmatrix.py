"""R-matrices: the fundamental one, fused ones, and their defining relations.

The fundamental operator on a pair of vector factors is
(hb - z P) / (hb + z) with P the flip.  The fused one on wedge_a x wedge_b
is its spectral decomposition (Kulish-Reshetikhin-Sklyanin; MacKay's
tensor-product graph).  Component r of wedge_a x wedge_b, of shape
(2^r, 1^(a+b-2r)) for r in max(0, a+b-k)..min(a, b), is where the Casimir
Omega = sum_{x,y} E_xy (x) E_yx takes the value omega_r = r(a+b+1-r) - ab
(the shape's content sum minus those of (1^a) and (1^b)).  These are
distinct, so Pi_r = prod_{s != r} (Omega - omega_s)/(omega_r - omega_s)
projects onto it, and R(z) = sum_r rho_r(z) flip o Pi_r, flip mapping
(S, T) to (T, S), with rho_r(z) = prod_{c=1}^{min(a,b)} (c hb - z)/(c hb + z)
prod_{s=r+1}^{min(a,b)} (z + A_s hb/2)/(z - A_s hb/2), A_s = a+b+2-2s.
``ROperator.apply`` is the one loop that applies an operator to a labelled
vector, and ``first_difference`` the one comparison of two labelled vectors.

Both work over one common denominator (``algebra.over_one_den``).  An
operator's entries are brought to theirs, D, once; a vector's values to
theirs, d, once per application; and every value of the image is one sum
of products over D + d.  So the images of ``apply`` share one denominator
and feed the next application without a lift.  ``first_difference``
takes one denominator for both vectors and compares numerators over it,
one key's pair at a time.

Omega commutes with every relabelling sigma in S_k of the letters, and so
does the fused operator.  Relabelling a wedge vector gives
e_{sort sigma(S)} times e(S), the sign of sorting sigma(S); hence
R[(sigma P, sigma Q), (sigma S, sigma T)] = e(S) e(T) e(P) e(Q) R[(P, Q), (S, T)],
and the S_k-orbit of a source (S, T) is fixed by r = |S & T|.  The fused
operator is therefore built on one source per r and transported to the
rest.

The module also solves for an R-matrix directly from the exchange relation
satisfied by a vector of polynomials.  The solved operator acts on a window
of each label that follows from the basis: the factors (i, i+1) on the
standard basis, the whole label on any other (such as the appendix's
component basis).  The unknowns are rational functions of
w = z_i - z_{i+1} and hb; each block of n of them is solved over
Fraction at integers w and interpolated.  If column j of a block has
w-degree at most c_j and the right-hand sides at most c_b, no Cramer
determinant has degree above D = sum c_j + max(0, c_b - min c_j), so D+1
samples where the determinant does not vanish fix every entry.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from math import comb, lcm, prod
from types import MappingProxyType

from .algebra import (
    ContextError,
    LinearForm,
    Polynomial,
    RationalFunction,
    TermWriter,
    common_denominator,
    coordinate_context,
    numerator_over,
    over_one_den,
    spectral_context,
    substitute_all,
    substitute_z_all,
    sum_of_products,
)
from .combinatorics import content_labels, gauss_jordan, inversions
from .reporting import checking


class RMatrixError(Exception):
    pass


CTX1 = spectral_context(1)
CTX2 = spectral_context(2)


class ROperator:
    """Weight-preserving matrix of rational functions between labelled bases.

    Labels are arbitrary hashables; for the fused operators they are pairs
    (S, T) of sorted letter tuples.  Entries are stored sparsely as
    {(target_label, source_label): RationalFunction}, behind a read-only
    view: ``pair_operator`` hands one cached operator to every caller.
    """

    def __init__(self, ctx, source, target, entries):
        self.ctx = ctx
        self.source = tuple(source)
        self.target = tuple(target)
        self.entries = MappingProxyType(
            {k: v for k, v in entries.items() if not v.is_zero()})
        self._by_source = None

    def by_source(self):
        """(D, {source: [(target, numerator over D)]}), D the entries' common
        denominator; built once per operator."""
        if self._by_source is None:
            den, nums = over_one_den(self.entries)
            idx = {}
            for (t, s), num in nums.items():
                idx.setdefault(s, []).append((t, num))
            self._by_source = den, idx
        return self._by_source

    def apply(self, vec, slot=None):
        """Matrix-vector product; vec maps labels to Polynomial/RF.

        Without ``slot`` the operator acts on whole labels.  With ``slot`` it
        is a pair operator acting on the factors (slot, slot+1), 0-based, of
        every label, so the rest of the label rides along.  Zero values of
        vec contribute nothing and are skipped; the rest are brought to
        their common denominator d.  Each image value is one sum of
        products of numerators, over D + d for the operator's common
        denominator D, so every nonzero value of the image has that
        denominator.  Image labels come out in order of first appearance,
        including labels whose sum cancels to zero.
        """
        ctx = self.ctx
        den, by_source = self.by_source()
        vec_den, nums = over_one_den({k: v for k, v in vec.items() if not v.is_zero()})
        pairs = {}  # image label -> its (entry, numerator) products
        for label, num in nums.items():
            if num.ctx is not ctx and num.ctx != ctx:
                raise ContextError("operator and vector from different contexts")
            lo, hi = (0, len(label)) if slot is None else (slot, slot + 2)
            for t, entry in by_source.get(label[lo:hi], ()):
                pairs.setdefault(label[:lo] + t + label[hi:], []).append((entry, num))
        den = dict(den)
        for f, m in vec_den.items():
            den[f] = den.get(f, 0) + m
        return {key: RationalFunction(sum_of_products(ctx, products), den)
                for key, products in pairs.items()}

    def matmul(self, other):
        """self o other (apply other first), one result column at a time."""
        if self.ctx != other.ctx:
            raise RMatrixError("context mismatch in composition")
        columns = {}
        for (t, s), rf in other.entries.items():
            columns.setdefault(s, {})[t] = rf
        entries = {}
        for s, column in columns.items():
            for t, rf in self.apply(column).items():
                entries[(t, s)] = rf
        return ROperator(self.ctx, other.source, self.target, entries)

    def substitute_spectral(self, form, sign, target_ctx):
        """Reinterpret a one-variable operator at argument sign*(form).

        ``form`` is a LinearForm over ``target_ctx`` with a z-part; entries
        become rational functions over that context, all substituted in one
        ``algebra.substitute_z_all``.  A pure-h argument is refused: it can
        send a denominator form to zero (hb + z at z = -hb).
        """
        ctx = self.ctx
        if ctx.nz != 1:
            raise RMatrixError("substitution applies to one-variable operators")
        if form[1] is None and form[2] is None:
            raise RMatrixError("the spectral argument needs a z-part")
        image = form.to_poly(target_ctx) * sign
        values = substitute_z_all(ctx, list(self.entries.values()), {1: image}, target_ctx)
        return ROperator(target_ctx, self.source, self.target, dict(zip(self.entries, values)))

    def equals(self, other):
        return (self.source == other.source and self.target == other.target
                and first_difference(self.entries, other.entries) is None)

    def to_json(self):
        writer = TermWriter(self.ctx)
        rows = []
        for (t, s), rf in sorted(self.entries.items()):
            rows.append(
                {
                    "target": [list(x) for x in t],
                    "source": [list(x) for x in s],
                    "num": rf.num.text(writer),
                    "den": [
                        {"form": f.text(self.ctx), "mult": m}
                        for f, m in sorted(rf.den.items(), key=lambda kv: kv[0].sort_key())
                    ],
                }
            )
        return {
            "schema": 1,
            "source": [[list(x) for x in lab] for lab in self.source],
            "target": [[list(x) for x in lab] for lab in self.target],
            "entries": rows,
        }

    def text_matrix(self):
        """Dense text layout, rows = targets, columns = sources."""
        writer = TermWriter(self.ctx)
        lines = []
        for t in self.target:
            row = []
            for s in self.source:
                rf = self.entries.get((t, s))
                row.append("0" if rf is None else rf.text(writer))
            lines.append("[ " + " , ".join(row) + " ]")
        return "\n".join(lines)


# -- fundamental and fused construction ---------------------------------------


def _pair_labels(k, a, b):
    lefts = [tuple(c) for c in combinations(range(1, k + 1), a)]
    rights = [tuple(c) for c in combinations(range(1, k + 1), b)]
    return [(S, T) for S in lefts for T in rights]


def fundamental_rcheck(k):
    """(hb - z P)/(hb + z) on pairs of vector factors, k letters."""
    ctx = CTX1
    z = ctx.z(1)
    hb = ctx.hbar()
    den_form, _ = LinearForm.make(2, 1)  # hb + z
    labels = _pair_labels(k, 1, 1)
    entries = {}
    for (S, T) in labels:
        a, b = S[0], T[0]
        if a == b:
            entries[((S, T), (S, T))] = RationalFunction(hb - z, {den_form: 1})
        else:
            entries[((S, T), (S, T))] = RationalFunction(hb, {den_form: 1})
            entries[((T, S), (S, T))] = RationalFunction(-z, {den_form: 1})
    return ROperator(ctx, labels, labels, entries)


def normalization_factor(mi, mj):
    """prod_{c=1}^{min(mi,mj)} (c*hb - z)/(c*hb + z), as a rational function."""
    cs = range(1, min(mi, mj) + 1)
    num = prod((CTX1.hbar() * c - CTX1.z(1) for c in cs), start=CTX1.one())
    return RationalFunction(num, {LinearForm(2 * c, 1): 1 for c in cs})


def _move(S, y, x):
    """E_xy on the wedge label S, for y in S and x not in S: the sorted label
    of S - y + x, and the sign (-1)^(number of elements of S strictly
    between x and y)."""
    lo, hi = sorted((x, y))
    return tuple(sorted(x if s == y else s for s in S)), (-1) ** sum(lo < s < hi for s in S)


def _casimir(vec):
    """Omega on a vector {(P, Q): Fraction}: the terms x = y of the sum give
    |P & Q|, the others run over y in P - Q and x in Q - P."""
    out = {}
    for (P, Q), c in vec.items():
        out[(P, Q)] = out.get((P, Q), 0) + c * len(set(P) & set(Q))
        for y, x in product(P, Q):
            if y not in Q and x not in P:
                (P2, s), (Q2, t) = _move(P, y, x), _move(Q, x, y)
                out[(P2, Q2)] = out.get((P2, Q2), 0) + s * t * c
    return out


def _omega(a, b, r):
    """The eigenvalue of Omega on component r of wedge_a x wedge_b."""
    return r * (a + b + 1 - r) - a * b


def _rho(a, b, r):
    """The eigenvalue rho_r of flip o R on component r of wedge_a x wedge_b."""
    rho = normalization_factor(a, b)
    for s in range(r + 1, min(a, b) + 1):
        A = a + b + 2 - 2 * s
        rho = rho * RationalFunction(LinearForm(A, 1).to_poly(CTX1), {LinearForm(-A, 1): 1})
    return rho


def _transport_parity(sigma, *tuples):
    """Parity of the product of e(X), the sign of sorting sigma(X), over tuples."""
    return sum(inversions([sigma[x] for x in X]) for X in tuples) % 2


def fused_rcheck(k, a, b):
    """Fused operator on wedge_a x wedge_b: decompose, then transport.

    One source per S_k-orbit is built (see the module docstring): for
    r = |S & T| in max(0, a+b-k)..min(a, b), the representative is
    S0 = (1..a), T0 = (1..r, a+1..a+b-r).  Entry (Q, P) of its column is
    sum_r c_r rho_r, c_r the coefficient of (P, Q) in Pi_r e_(S0, T0), as one
    sum of products over the rho_r's common denominator in lowest terms.
    A source (S, T) is reached by the relabelling sigma that maps the blocks
    1..r, r+1..a, a+1..a+b-r, a+b-r+1..k of the representative in order
    onto S & T, S - T, T - S and the rest, and
        R[(sigma P, sigma Q), (S, T)] = e(S0) e(T0) e(P) e(Q) R[(P, Q), (S0, T0)],
    e(X) being the sign of sorting sigma(X).  Entries come out column by
    column in the order of ``source``, each column in the order of ``target``.
    """
    if not (1 <= a <= k - 1 and 1 <= b <= k - 1):
        raise RMatrixError("wedge sizes must lie in 1..k-1")
    if a == 1 and b == 1:
        return fundamental_rcheck(k)
    ctx = CTX1
    source = _pair_labels(k, a, b)
    target = _pair_labels(k, b, a)
    S0 = tuple(range(1, a + 1))
    rs = range(max(0, a + b - k), min(a, b) + 1)
    omega = [_omega(a, b, r) for r in rs]
    den, nums = over_one_den([_rho(a, b, r) for r in rs])
    reps = {}
    for r in rs:
        T0 = tuple(range(1, r + 1)) + tuple(range(a + 1, a + b - r + 1))
        projections = []  # Pi_r e_(S0, T0) for each r, as {(P, Q): Fraction}
        for w in omega:
            vec = {(S0, T0): Fraction(1)}
            for v in omega:
                if v != w:
                    image = _casimir(vec)
                    vec = {key: (c - v * vec.get(key, 0)) / (w - v) for key, c in image.items()}
            projections.append({key: c for key, c in vec.items() if c})
        # rho_r / rho_min(a,b) have distinct poles: no entry some Pi_r e reaches cancels
        col = {}
        reps[r] = T0, col
        for P, Q in dict.fromkeys(key for vec in projections for key in vec):
            products = [(ctx.const(vec[(P, Q)]), num)
                        for vec, num in zip(projections, nums) if (P, Q) in vec]
            col[(Q, P)] = RationalFunction(sum_of_products(ctx, products), den).reduced()
    row = {lab: n for n, lab in enumerate(target)}
    entries = {}
    for (S, T) in source:
        both = [x for x in S if x in T]
        # sigma[x] is the image of letter x; index 0 is unused
        sigma = (0, *both, *(x for x in S if x not in T), *(x for x in T if x not in S),
                 *(x for x in range(1, k + 1) if x not in S and x not in T))
        T0, col = reps[len(both)]
        column = []
        for (P, Q), rf in col.items():
            key = (tuple(sorted(sigma[x] for x in P)), tuple(sorted(sigma[x] for x in Q)))
            odd = _transport_parity(sigma, S0, T0, P, Q)
            column.append((row[key], key, -rf if odd else rf))
        for _, key, rf in sorted(column):  # rows are distinct: rf is never compared
            entries[(key, (S, T))] = rf
    return ROperator(ctx, source, target, entries)


# -- relation verification -----------------------------------------------------


def first_difference(lhs, rhs):
    """The first key at which two labelled vectors differ, or None.

    Values are Polynomials or RationalFunctions, mixed; a missing key reads
    as zero.  The common denominator of both vectors is taken first
    (``algebra.common_denominator``); then at each key the two values are
    lifted to it and compared, and the lifted pair is dropped before the
    next key, so no more than one pair is held.  The keys of lhs are walked
    in order, then the keys only rhs has, so the key a failure names does
    not depend on hashing.
    """
    den = common_denominator(chain(lhs.values(), rhs.values()))
    for key, a in lhs.items():
        b = rhs.get(key)
        if (not a.is_zero() if b is None
                else numerator_over(a, den) != numerator_over(b, den)):
            return key
    return next((key for key, b in rhs.items() if key not in lhs and not b.is_zero()), None)


def _check_columns(check, instance, basis, ctx, lhs, rhs):
    """Report whether lhs(e) = rhs(e) for every unit vector e of the basis; a
    failure names the column and its first differing entry."""
    with checking(check, instance) as outcome:
        for lab in basis:
            e = {lab: ctx.one()}
            where = first_difference(lhs(e), rhs(e))
            if where is not None:
                outcome.fail(f"column {lab}, entry {where}")
    return outcome.report


def verify_ybe(apply_i, apply_j, basis, ctx, instance=""):
    """Check A_i(u) A_j(u+v) A_i(v) = A_j(v) A_i(u+v) A_j(u) on every basis vector.

    ``apply_X(vec, form, sign)`` applies the operator at spectral argument
    sign*form; u = z1 - z2 and v = z2 - z3 in a three-variable context, so
    that u + v = z1 - z3 stays an integer linear form.
    """
    fu, _ = LinearForm.make(0, 1, 2)
    fv, _ = LinearForm.make(0, 2, 3)
    fuv, _ = LinearForm.make(0, 1, 3)
    return _check_columns(
        "ybe", instance, basis, ctx,
        lambda e: apply_i(apply_j(apply_i(e, fv, 1), fuv, 1), fu, 1),
        lambda e: apply_j(apply_i(apply_j(e, fu, 1), fuv, 1), fv, 1))


def verify_unitarity(apply_i, basis, ctx, instance=""):
    """Check A_i(u) A_i(-u) = identity."""
    fu, _ = LinearForm.make(0, 1, 2)
    return _check_columns("unitarity", instance, basis, ctx,
                          lambda e: apply_i(apply_i(e, fu, -1), fu, 1), lambda e: e)


def verify_commutation(apply_i, apply_j, basis, ctx, instance=""):
    """Far-commutation for |i-j| > 1: A_i(u) A_j(v) = A_j(v) A_i(u).

    When the two slots carry the same one-parameter family (as for the
    worked example's equal first and third matrices) this is literally the
    argument-swap identity A(u)A(v) = A(v)A(u)."""
    fu, _ = LinearForm.make(0, 1, 2)
    fv, _ = LinearForm.make(0, 2, 3)
    return _check_columns("commutation", instance, basis, ctx,
                          lambda e: apply_i(apply_j(e, fv, 1), fu, 1),
                          lambda e: apply_j(apply_i(e, fu, 1), fv, 1))


@lru_cache(maxsize=None)
def pair_operator(k, a, b):
    """Cached fused operator for a pair of wedge factors."""
    return fused_rcheck(k, a, b)


@lru_cache(maxsize=None)
def pair_unitarity(k, a, b):
    """(passed, witness) of R_ba(u) R_ab(-u) = 1 on the two-factor basis.

    The operators are ``pair_operator``'s; the result is cached like them,
    as an immutable pair.
    """
    rep = verify_unitarity(family_slot_applicator(k, 0), _pair_labels(k, a, b), CTX2)
    return rep.passed, rep.witness


def _applicator(pick, slot=None):
    """apply(vec, form, sign): each label's operator at argument sign*form.

    ``pick(label)`` names the one-variable operator that acts on a label,
    at ``slot`` (see ``ROperator.apply``).  Labels are grouped by operator
    and each group is applied on its own: the images of two groups do not
    overlap, since a family's operator maps the wedge sizes (a, b) at the
    slot to (b, a).  Substituted operators are cached by (operator, form,
    sign).
    """
    cache = {}

    def apply(vec, form, sign):
        groups = {}
        for label, val in vec.items():
            groups.setdefault(pick(label), {})[label] = val
        out = {}
        for rop, part in groups.items():
            key = (rop, form, sign)
            sub = cache.get(key)
            if sub is None:
                ctx = next(iter(part.values())).ctx
                sub = cache[key] = rop.substitute_spectral(form, sign, ctx)
            out.update(sub.apply(part, slot))
        return out

    return apply


def family_slot_applicator(k, slot):
    """Applicator picking the fused operator from the pair sizes at the slot;
    adjacent factors of different wedge sizes swap shape under it."""
    return _applicator(
        lambda label: pair_operator(k, len(label[slot]), len(label[slot + 1])), slot)


def slot_applicator(rop, slot):
    """Applicator embedding a pair operator at (slot, slot+1), 0-based."""
    return _applicator(lambda label: rop, slot)


def matrix_applicator(rop_onevar):
    """Applicator for an operator acting on the whole labelled basis."""
    return _applicator(lambda label: rop_onevar)


def product_basis(letters_or_labels, nslots):
    """All words of single-factor labels of given length."""
    return list(product(letters_or_labels, repeat=nslots))


# -- solving the exchange relation for the matrix -------------------------------
#
# The unknown entries are rational functions of the single difference
# w = z_i - z_{i+1} and hb.  Substituting z_i = u + w, z_{i+1} = u
# makes every other monomial a formal "row" whose coefficient is a
# homogeneous polynomial in (w, h); each row gives one linear equation over
# Q(w, h).  Homogeneity lets the solve set h = 1 in the same substitution: a
# coefficient is kept as {w-exponent: coefficient}, read from the layers in
# w, and the solution is rehomogenized at the end.  tau_i Psi is the same
# substitution with the images of z_i and z_{i+1} swapped.
#
# A block is sampled at integers w as the module docstring describes, with
# the degree bound D: at each w, ``combinatorics.gauss_jordan`` gives the
# determinant and the solution for every right-hand side at once.  The
# interpolation is the same elimination on the Vandermonde system of the
# sample points, with one right-hand side per polynomial (``_interpolate``):
# once for the determinant, then once for every numerator together.  The
# determinant's integer roots r, with multiplicity m, give
# P = prod (w - r)^m, and x_j P is interpolated from the same samples.  The
# interpolant has degree at most D - deg(det / P) exactly when it is x_j P,
# that is when the reduced denominator of x_j splits into the forms
# w - r*h: the part of det that does not split must cancel against every
# Cramer numerator.


def _at(p, w):
    """Value at w of a polynomial held as {w-exponent: coefficient}."""
    return sum(c * w ** e for e, c in p.items())


def _degree(p):
    return max(p, default=-1)


def _interpolate(points, columns):
    """Coefficients, low first and trimmed, of the polynomial of degree
    < len(points) through the values of each column at the points: one
    Vandermonde elimination for every column at once."""
    n = len(points)
    rows = [[x ** e for e in range(n)] + list(values)
            for x, values in zip(points, zip(*columns))]
    pivots, _ = gauss_jordan(rows, n)
    out = []
    for t in range(n, n + len(columns)):
        coeffs = [rows[p][t] for p in pivots]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        out.append(coeffs)
    return out


def _integer_roots(coeffs):
    """{r: multiplicity} of the integer roots of a polynomial (coefficients low first).

    Scaled to integer coefficients, a root r != 0 divides the lowest nonzero
    coefficient, and every root has |r| at most Fujiwara's bound
    2 max_i |c_i / c_n|^(1/(n-i)).  The multiplicity of r is the number of
    its vanishing Taylor coefficients.
    """
    scale = lcm(*(Fraction(c).denominator for c in coeffs))
    coeffs = [int(c * scale) for c in coeffs]
    n = len(coeffs) - 1
    low = next(c for c in coeffs if c)
    bound = 0
    for i, c in enumerate(coeffs[:n]):
        ratio = Fraction(abs(c), abs(coeffs[n]))
        t = int(float(ratio) ** (1 / (n - i)))
        while t ** (n - i) < ratio:
            t += 1
        bound = max(bound, 2 * t)
    roots = {}
    for r in range(-bound, bound + 1):
        if r and low % r:
            continue
        m = 0
        while not sum(c * comb(i, m) * r ** (i - m) for i, c in enumerate(coeffs[m:], m)):
            m += 1
        if m:
            roots[r] = m
    return roots


def _solve_block(A, B, n):
    """Solve A x = b over Q(w) for every column b of B, by sampling.

    A has n columns and B one per target, their entries polynomials
    {w-exponent: coefficient}.  Returns x_j for each target in turn (t-major)
    as a RationalFunction over CTX1 with z for w, in lowest terms, or None
    for zero.
    """
    col = [max(_degree(row[j]) for row in A) for j in range(n)]
    for w in range(sum(col) + 1):
        pivots, _ = gauss_jordan([[_at(p, w) for p in row] for row in A], n)
        if None not in pivots:
            break
    else:
        raise RMatrixError("exchange system underdetermined (too few independent rows)")
    chosen = sorted(pivots)
    A = [A[r] for r in chosen]
    B = [B[r] for r in chosen]
    col = [max(_degree(row[j]) for row in A) for j in range(n)]
    rhs = max(_degree(p) for row in B for p in row)
    D = sum(col) + max(0, rhs - min(col))
    points, dets, samples = [], [], []
    w = 0
    while len(points) <= D:
        rows = [[_at(p, w) for p in a + b] for a, b in zip(A, B)]
        pivots, det = gauss_jordan(rows, n)
        if det:
            points.append(w)
            dets.append(det)
            samples.append([rows[p][n + t] for t in range(len(B[0])) for p in pivots])
        w += 1
    [det] = _interpolate(points, [dets])
    roots = _integer_roots(det)
    split = sum(roots.values())
    bound = D - (len(det) - 1 - split)
    P = [prod((x - r) ** m for r, m in roots.items()) for x in points]
    out = []
    for q in _interpolate(points, [[v * p for v, p in zip(values, P)]
                                   for values in zip(*samples)]):
        if not q:
            out.append(None)
            continue
        if len(q) - 1 > bound:
            raise RMatrixError("solved denominator is not a product of integer linear forms")
        degree = max(len(q) - 1, split)
        den = {LinearForm(-r, 1): m for r, m in roots.items()}  # w - r*h
        if degree > split:
            den[LinearForm(1)] = degree - split
        num = Polynomial(CTX1, {CTX1.pack((e, degree - e)): c for e, c in enumerate(q)})
        out.append(RationalFunction(num, den).reduced())
    return out


def _content(label):
    """The letters of a label as a sorted tuple: equal for labels of one weight."""
    return tuple(sorted(x for part in label for x in part))


def _pair_images(u, w):
    """The images u + w and u of z_i and z_{i+1}: their difference is w, and
    integer coefficients stay integers."""
    return u + w, u


def solve_rmatrix_from_exchange(psi, slot):
    """Solve tau_i Psi = R(z_i - z_{i+1}) Psi for the matrix R, exactly.

    The unknown operator acts on a window of each label, as in
    ``ROperator.apply``: on the standard basis (``content_labels``) the
    window is the factors (i, i+1), which is what makes the fundamental-case
    system determined (full weight-space entries can satisfy linear
    relations); on any other basis, such as the appendix's component basis,
    it is the whole label.  Windows of one content share the rests of their
    labels, so each content gives one block, with rows (rest, monomial) and
    one right-hand side per target window.  Raises if the system is
    underdetermined; the solution is verified against the full relation
    before returning.
    """
    from .qkz import check_exchange  # qkz imports this module

    ctx = psi.ctx
    N = ctx.nz
    i = slot
    if not (1 <= i <= N - 1):
        raise RMatrixError("slot out of range")
    labels = list(psi.basis)

    # z_i -> u + w, z_{i+1} -> u (for tau_i Psi the other way round), the
    # other z's renamed and h -> 1, into the ring of (w, u, other z's)
    rest = [t for t in range(1, N + 1) if t not in (i, i + 1)]
    sctx = coordinate_context(("w", "u", *[f"r{t}" for t in rest]))
    zi, zj = _pair_images(sctx.var("u"), sctx.var("w"))
    fixed = {ctx.h_index: 1} | {t - 1: sctx.var(f"r{t}") for t in rest}
    values = [psi.entries[lab] for lab in labels]

    def split(a, b):
        """label -> {rest-monomial: its coefficient, as {w-exponent: c}} of
        each entry at z_i -> a, z_{i+1} -> b."""
        out = {}
        for lab, p in zip(labels, substitute_all(ctx, values, fixed | {i - 1: a, i: b}, sctx)):
            out[lab] = coeffs = {}
            for d, layer in enumerate(p.layers(0)):
                for key, c in layer.terms.items():
                    coeffs.setdefault(key, {})[d] = c
        return out

    sub_cache, tau_cache = split(zi, zj), split(zj, zi)
    standard = psi.basis == tuple(content_labels(psi.lam, psi.m))
    lo, hi = (i - 1, i + 1) if standard else (0, N)
    blocks = {}  # content -> (its windows, the rests of their labels)
    for lab in labels:
        windows, rests = blocks.setdefault(_content(lab[lo:hi]), (set(), set()))
        windows.add(lab[lo:hi])
        rests.add(lab[:lo] + lab[hi:])
    entries = {}
    for windows, rests in blocks.values():
        block = sorted(windows)
        empty = [{}] * len(block)
        rows, rhs = {}, {}
        for rest_lab in rests:
            for col, win in enumerate(block):
                lab = rest_lab[:lo] + win + rest_lab[lo:]
                for cache, out in ((sub_cache, rows), (tau_cache, rhs)):
                    for key, uni in cache.get(lab, {}).items():
                        out.setdefault((rest_lab, key), list(empty))[col] = uni
        row_keys = sorted(set(rows) | set(rhs))
        x = iter(_solve_block([rows.get(k, empty) for k in row_keys],
                              [rhs.get(k, empty) for k in row_keys], len(block)))
        for target in block:
            for src in block:
                sol = next(x)
                if sol is not None:
                    entries[(target, src)] = sol
    windows = sorted({lab[lo:hi] for lab in labels})
    rop = ROperator(CTX1, windows, windows, entries)
    rep = check_exchange(psi, i, operator=rop)
    if not rep.passed:
        raise RMatrixError(f"exchange system inconsistent: {rep.witness}")
    return rop
