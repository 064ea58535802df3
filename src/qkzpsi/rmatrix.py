"""R-matrices: the fundamental one, fused ones, and their defining relations.

The fundamental operator on a pair of vector factors is
(hb - z P) / (hb + z) with P the flip.  Higher ones act on wedge powers and
are produced by the fusion procedure: embed the wedge factors into tensor
powers of the vector representation with spectral parameters shifted along
an arithmetic progression of step hb, braid the two groups past each other
with fundamental operators, project back, and normalize so that the
eigenvalue on the extreme weight vector is prod_c (c*hb - z)/(c*hb + z)
(equivalently so that unitarity holds).

The fundamental operator sees letters only through whether two are equal,
so the braid commutes with every relabelling sigma in S_k of the letters,
applied letter by letter to words.  Relabelling a wedge vector gives
e_{sort sigma(S)} times e(S), the sign of sorting sigma(S); hence
R[(sigma P, sigma Q), (sigma S, sigma T)] = e(S) e(T) e(P) e(Q) R[(P, Q), (S, T)],
and the S_k-orbit of a source (S, T) is fixed by r = |S & T|.  The fused
operator is therefore braided on one source per r and transported to the
rest.  The projection check transports too: sigma maps the span of the
sorted wedge words onto itself, so an image that lies in it for the
representative lies in it for every source of the orbit.

The module also solves for an R-matrix directly from the exchange relation
satisfied by a vector of polynomials, by exact linear algebra over the
field of rational functions in the single difference variable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from types import MappingProxyType

from .algebra import (
    FIELD_MASK,
    AlgebraError,
    ExactDivisionError,
    LinearForm,
    Polynomial,
    RationalFunction,
    RFSum,
    factor_linear_forms,
    spectral_context,
)
from .combinatorics import inversions
from .reporting import report, timer


class RMatrixError(Exception):
    pass


CTX1 = spectral_context(1)
CTX2 = spectral_context(2)


def _rf(num, den=None):
    return RationalFunction(num, den or {})


def _accumulate(ctx, products):
    """Sum products (key, a, b) into {key: sum of a*b}, each sum reduced once.

    Keys come out in order of first appearance, including keys whose sum
    cancels to zero.
    """
    sums = {}
    for key, a, b in products:
        acc = sums.get(key)
        if acc is None:
            acc = sums[key] = RFSum(ctx)
        acc.add_product(a, b)
    return {key: acc.result() for key, acc in sums.items()}


def apply_at_slot(pair_op, vec, slot):
    """Apply a pair operator to the factors (slot, slot+1), 0-based, of every label."""
    by_source = pair_op.by_source()

    def products():
        for label, val in vec.items():
            for (P, Q), rf in by_source.get((label[slot], label[slot + 1]), ()):
                yield label[:slot] + (P, Q) + label[slot + 2:], rf, val

    return _accumulate(pair_op.ctx, products())


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
        if self._by_source is None:
            idx = {}
            for (t, s), rf in self.entries.items():
                idx.setdefault(s, []).append((t, rf))
            self._by_source = idx
        return self._by_source

    def entry(self, t, s):
        rf = self.entries.get((t, s))
        if rf is None:
            return _rf(self.ctx.zero())
        return rf

    def apply(self, vec):
        """Matrix-vector product; vec maps source labels to Polynomial/RF."""
        by_source = self.by_source()
        return _accumulate(self.ctx, (
            (t, rf, val)
            for s, val in vec.items() if not val.is_zero()
            for t, rf in by_source.get(s, ())
        ))

    def matmul(self, other):
        """self o other (apply other first), one result column at a time."""
        if self.ctx != other.ctx:
            raise RMatrixError("context mismatch in composition")
        entries = {}
        mid = self.by_source()
        for s, column in other.by_source().items():
            col = _accumulate(self.ctx, (
                (t, rf2, rf1) for m, rf1 in column for t, rf2 in mid.get(m, ())
            ))
            for t, rf in col.items():
                entries[(t, s)] = rf
        return ROperator(self.ctx, other.source, self.target, entries)

    def substitute_spectral(self, form, sign, target_ctx):
        """Reinterpret a one-variable operator at argument sign*(form).

        ``form`` is a LinearForm over ``target_ctx``; entries become
        rational functions over that context.
        """
        if self.ctx.nz != 1:
            raise RMatrixError("substitution applies to one-variable operators")
        image = form.to_poly(target_ctx) * sign
        mapping = {1: image}
        entries = {}
        for key, rf in self.entries.items():
            entries[key] = rf.substitute_z(mapping, target_ctx)
        return ROperator(target_ctx, self.source, self.target, entries)

    def equals(self, other):
        if self.source != other.source or self.target != other.target:
            return False
        keys = set(self.entries) | set(other.entries)
        for k in keys:
            if not self.entry(*k).equals(other.entry(*k)):
                return False
        return True

    def evaluate_at_zero(self):
        """Evaluate every entry at z = 0 (numeric matrix as nested dict)."""
        point = [Fraction(0)] * self.ctx.nvars
        point[self.ctx.h_index] = Fraction(1, 2)  # hb = 1
        out = {}
        for (t, s), rf in self.entries.items():
            out[(t, s)] = rf.evaluate(point)
        return out

    def to_json(self):
        rows = []
        for (t, s), rf in sorted(self.entries.items()):
            rows.append(
                {
                    "target": [list(x) for x in t],
                    "source": [list(x) for x in s],
                    "num": rf.num.text(),
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
        lines = []
        for t in self.target:
            row = []
            for s in self.source:
                rf = self.entries.get((t, s))
                row.append("0" if rf is None else rf.text())
            lines.append("[ " + " , ".join(row) + " ]")
        return "\n".join(lines)


# -- fundamental and fused construction ---------------------------------------


def _pair_labels(k, a, b):
    from itertools import combinations

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
    ctx = CTX1
    z = ctx.z(1)
    num = ctx.one()
    den = {}
    for c in range(1, min(mi, mj) + 1):
        num = num * (ctx.hbar() * c - z)
        f, _ = LinearForm.make(2 * c, 1)
        den[f] = den.get(f, 0) + 1
    return RationalFunction(num, den)


def _wedge_embed(S):
    """Unnormalized antisymmetrizer image of the wedge vector of S."""
    return {perm: (-1) ** inversions(perm) for perm in permutations(S)}


def _apply_fundamental_slot(vec, slot, arg_hcoef, ctx):
    """Apply the fundamental operator at word positions (slot, slot+1).

    The argument is z + arg_hcoef * h; entries over words keep a common
    handling of the equal/unequal letter cases.
    """
    z = ctx.z(1)
    hb = ctx.hbar()
    half = ctx.hbar() * Fraction(1, 2)
    arg = z + half * arg_hcoef
    den_form, den_sign = LinearForm.make(2 + arg_hcoef, 1)  # hb + z + c*h
    eq = RationalFunction((hb - arg) * den_sign, {den_form: 1})
    stay = RationalFunction(hb * den_sign, {den_form: 1})
    swap = RationalFunction(-arg * den_sign, {den_form: 1})

    def products():
        for word, coeff in vec.items():
            x, y = word[slot], word[slot + 1]
            if x == y:
                yield word, coeff, eq
            else:
                yield word, coeff, stay
                yield word[:slot] + (y, x) + word[slot + 2:], coeff, swap

    out = _accumulate(ctx, products())
    return {w: v for w, v in out.items() if not v.is_zero()}


def _braid_column(S, T, target, ctx):
    """Column (S, T) of the unnormalized fused operator: {(P, Q): entry}.

    Embeds e_S x e_T into words, braids the a = |S| left letters past the
    b = |T| right ones (factor arguments u_p - v_q = z + (2p - 2q + b - a) h),
    reads the coefficients of the sorted target words, and checks that the
    image is the wedge vector those coefficients rebuild.
    """
    a, b = len(S), len(T)
    vec = {ws + wt: _rf(ctx.const(cs * ct))
           for ws, cs in _wedge_embed(S).items() for wt, ct in _wedge_embed(T).items()}
    for p in range(a, 0, -1):
        for q in range(1, b + 1):
            vec = _apply_fundamental_slot(vec, p + q - 2, 2 * p - 2 * q + b - a, ctx)
    coeffs = {(P, Q): vec[P + Q] for (P, Q) in target if P + Q in vec}
    rebuilt = _accumulate(ctx, (
        (wp + wq, c, cp * cq)
        for (P, Q), c in coeffs.items()
        for wp, cp in _wedge_embed(P).items()
        for wq, cq in _wedge_embed(Q).items()
    ))
    ok, w = _vec_equal(vec, rebuilt)
    if not ok:
        raise RMatrixError(f"projection failure at word {w} (source {S},{T})")
    return coeffs


def _transport_parity(sigma, *tuples):
    """Parity of the product of e(X), the sign of sorting sigma(X), over tuples."""
    return sum(inversions([sigma[x] for x in X]) for X in tuples) % 2


def fused_rcheck(k, a, b):
    """Fused operator on wedge_a x wedge_b: braid, project, rescale, transport.

    One source per S_k-orbit is braided (see the module docstring): for
    r = |S & T| in max(0, a+b-k)..min(a, b), the representative is
    S0 = (1..a), T0 = (1..r, a+1..a+b-r).  At r = min(a, b) it is the
    extreme pair ((1..a), (1..b)), whose (T0, S0) entry fixes the
    normalization.  A source (S, T) is reached by the relabelling sigma
    that maps the blocks 1..r, r+1..a, a+1..a+b-r, a+b-r+1..k of the
    representative in order onto S & T, S - T, T - S and the rest, and
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
    reps = {}
    for r in range(max(0, a + b - k), min(a, b) + 1):
        T0 = tuple(range(1, r + 1)) + tuple(range(a + 1, a + b - r + 1))
        reps[r] = T0, _braid_column(S0, T0, target, ctx)
    T0, top = reps[min(a, b)]
    raw_extreme = top.get((T0, S0))
    if raw_extreme is None or raw_extreme.is_zero():
        raise RMatrixError("extreme matrix element vanished; cannot normalize")
    scalar = normalization_factor(a, b) * raw_extreme.inverse()
    for _, col in reps.values():
        for key, rf in col.items():
            col[key] = scalar * rf
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


def _unit_vectors(basis, ctx):
    one = ctx.one()
    return [(lab, {lab: _rf(one)}) for lab in basis]


def _vec_equal(v1, v2):
    """Compare two sparse vectors of Polynomials or RationalFunctions.

    A missing key reads as zero.  Returns (True, None), or (False, key) for
    the first differing key in the iteration order of set(v1) | set(v2).
    """
    for key in set(v1) | set(v2):
        a = v1.get(key)
        b = v2.get(key)
        if a is None or b is None:
            if not (b if a is None else a).is_zero():
                return False, key
        elif isinstance(a, Polynomial):
            if not (a == b if isinstance(b, Polynomial) else b.equals(a)):
                return False, key
        elif not a.equals(b):
            return False, key
    return True, None


def verify_ybe(apply_i, apply_j, basis, ctx, instance=""):
    """Check A_i(u) A_j(u+v) A_i(v) = A_j(v) A_i(u+v) A_j(u) on every basis vector.

    ``apply_X(vec, form, sign)`` applies the operator at spectral argument
    sign*form; u = z1 - z2 and v = z2 - z3 in a three-variable context, so
    that u + v = z1 - z3 stays an integer linear form.
    """
    fu, _ = LinearForm.make(0, 1, 2)
    fv, _ = LinearForm.make(0, 2, 3)
    fuv, _ = LinearForm.make(0, 1, 3)
    with timer() as tm:
        for lab, e in _unit_vectors(basis, ctx):
            lhs = apply_i(apply_j(apply_i(e, fv, 1), fuv, 1), fu, 1)
            rhs = apply_j(apply_i(apply_j(e, fu, 1), fuv, 1), fv, 1)
            ok, where = _vec_equal(lhs, rhs)
            if not ok:
                return report(
                    "ybe", instance, False,
                    witness=f"column {lab}, entry {where}", elapsed=tm.elapsed,
                )
    return report("ybe", instance, True, elapsed=tm.elapsed)


def verify_unitarity(apply_i, basis, ctx, instance=""):
    """Check A_i(u) A_i(-u) = identity."""
    fu, _ = LinearForm.make(0, 1, 2)
    one = ctx.one()
    with timer() as tm:
        for lab, e in _unit_vectors(basis, ctx):
            out = apply_i(apply_i(e, fu, -1), fu, 1)
            for t, rf in out.items():
                want = one if t == lab else ctx.zero()
                if not rf.equals(want):
                    return report(
                        "unitarity", instance, False,
                        witness=f"column {lab}, entry {t}", elapsed=tm.elapsed,
                    )
            if lab not in out:
                return report(
                    "unitarity", instance, False,
                    witness=f"column {lab} lost", elapsed=tm.elapsed,
                )
    return report("unitarity", instance, True, elapsed=tm.elapsed)


def verify_commutation(apply_i, apply_j, basis, ctx, instance=""):
    """Far-commutation for |i-j| > 1: A_i(u) A_j(v) = A_j(v) A_i(u).

    When the two slots carry the same one-parameter family (as for the
    worked example's equal first and third matrices) this is literally the
    argument-swap identity A(u)A(v) = A(v)A(u)."""
    fu, _ = LinearForm.make(0, 1, 2)
    fv, _ = LinearForm.make(0, 2, 3)
    with timer() as tm:
        for lab, e in _unit_vectors(basis, ctx):
            lhs = apply_i(apply_j(e, fv, 1), fu, 1)
            rhs = apply_j(apply_i(e, fu, 1), fv, 1)
            ok, where = _vec_equal(lhs, rhs)
            if not ok:
                return report(
                    "commutation", instance, False,
                    witness=f"column {lab}, entry {where}", elapsed=tm.elapsed,
                )
    return report("commutation", instance, True, elapsed=tm.elapsed)


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


def family_slot_applicator(k, slot):
    """Applicator picking the fused operator from the current pair sizes.

    Needed when adjacent factors have different wedge sizes (the operator
    then changes the label shape at the slot)."""

    cache = {}

    def apply(vec, form, sign):
        if not vec:
            return {}
        ctx = next(iter(vec.values())).ctx

        def products():
            for label, val in vec.items():
                a, b = len(label[slot]), len(label[slot + 1])
                key = (a, b, form, sign)
                sub = cache.get(key)
                if sub is None:
                    sub = pair_operator(k, a, b).substitute_spectral(form, sign, ctx)
                    cache[key] = sub
                pair = (label[slot], label[slot + 1])
                for (P, Q), rf in sub.by_source().get(pair, ()):
                    yield label[:slot] + (P, Q) + label[slot + 2:], rf, val

        return _accumulate(ctx, products())

    return apply


def slot_applicator(rop, slot, nslots):
    """Make an applicator embedding a pair operator at (slot, slot+1), 0-based."""

    cache = {}

    def apply(vec, form, sign, _rop=rop, _slot=slot):
        key = (form, sign)
        sub = cache.get(key)
        if sub is None:
            ctx = next(iter(vec.values())).ctx if vec else None
            sub = _rop.substitute_spectral(form, sign, ctx)
            cache[key] = sub
        return apply_at_slot(sub, vec, _slot)

    return apply


def matrix_applicator(rop_onevar):
    """Applicator for an operator acting on the whole labelled basis."""

    cache = {}

    def apply(vec, form, sign, _rop=rop_onevar):
        key = (form, sign)
        sub = cache.get(key)
        if sub is None:
            ctx = next(iter(vec.values())).ctx
            sub = _rop.substitute_spectral(form, sign, ctx)
            cache[key] = sub
        return sub.apply(vec)

    return apply


def product_basis(letters_or_labels, nslots, content=None):
    """All words of single-factor labels of given length (optionally fixed content)."""
    from itertools import product as iproduct

    out = []
    for word in iproduct(letters_or_labels, repeat=nslots):
        if content is not None:
            counts = {}
            for lab in word:
                for x in lab:
                    counts[x] = counts.get(x, 0) + 1
            if counts != content:
                continue
        out.append(tuple(word))
    return out


# -- solving the exchange relation for the matrix -------------------------------
#
# The unknown entries are rational functions of the single difference
# w = z_i - z_{i+1} and hb.  Substituting z_i = (u+w)/2, z_{i+1} = (u-w)/2
# makes every other monomial a formal "row" whose coefficient is a
# homogeneous bivariate polynomial in (w, h); each row gives one linear
# equation over Q(w, h).  Homogeneity lets the whole solve run on univariate
# coefficient lists (the z-exponent grading), with fraction-free elimination
# and a final gcd reduction.


def _uni_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _uni_sub(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    return _uni_trim(out)


def _uni_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return _uni_trim(out)


def _uni_divmod(a, b):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    a = [Fraction(x) for x in a]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = Fraction(b[-1])
    while len(a) >= len(b) and _uni_trim(a):
        if len(a) < len(b):
            break
        coef = a[-1] / lead
        deg = len(a) - len(b)
        q[deg] = coef
        for i, x in enumerate(b):
            a[deg + i] -= coef * Fraction(x)
        _uni_trim(a)
    return _uni_trim(q), a


def _uni_exact_div(a, b):
    q, r = _uni_divmod(list(a), list(b))
    if r:
        raise RMatrixError("inexact univariate division during elimination")
    return q


def _uni_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        _, r = _uni_divmod([Fraction(x) for x in a], b)
        a, b = b, r
    if not a:
        return []
    lead = Fraction(a[-1])
    return [Fraction(x) / lead for x in a]


def _uni_integer_roots(poly):
    """Roots of a monic-able integer-rooted polynomial, with multiplicity."""
    p = [Fraction(x) for x in poly]
    roots = []
    while len(p) > 1:
        const = p[0]
        if const == 0:
            roots.append(0)
            p = p[1:]
            continue
        lead = p[-1]
        found = None
        num = abs((const / lead).numerator) or 1
        den_ = abs((const / lead).denominator)
        cands = set()
        for d in range(1, num + 1):
            if num % d == 0:
                cands.add(d)
                cands.add(-d)
        for r in sorted(cands, key=abs):
            if den_ != 1 and (Fraction(r) * den_).denominator != 1:
                pass
            val = Fraction(0)
            for c in reversed(p):
                val = val * r + Fraction(c)
            if val == 0:
                found = r
                break
        if found is None:
            return roots, p
        roots.append(found)
        q, rem = _uni_divmod(p, [-found, 1])
        if rem:
            raise RMatrixError("root deflation failed")
        p = q
    return roots, p


def _pair_content(pair):
    counts = {}
    for part in pair:
        for x in part:
            counts[x] = counts.get(x, 0) + 1
    return tuple(sorted(counts.items()))


def solve_rmatrix_from_exchange(psi, slot, slotwise=False):
    """Solve tau_i Psi = R(z_i - z_{i+1}) Psi for the matrix R, exactly.

    With ``slotwise`` the unknown operator acts on the two factors at
    (slot, slot+1) only, which is what makes the fundamental-case system
    determined (full weight-space entries can satisfy linear relations);
    otherwise the matrix acts on the whole basis, as appropriate for a
    component-basis vector.  Raises if the system is underdetermined; the
    solution is verified against the full relation before returning.
    """
    ctx = psi.ctx
    N = ctx.nz
    i = slot
    if not (1 <= i <= N - 1):
        raise RMatrixError("slot out of range")
    labels = list(psi.basis)

    # substitution z_i -> (u + w)/2, z_{i+1} -> (u - w)/2 into a context
    # (w, u, other z's, hb)
    rest = [t for t in range(1, N + 1) if t not in (i, i + 1)]
    names = ("w", "u", *[f"r{t}" for t in rest], "hb")
    sctx = type(ctx)(names, h_index=len(names) - 1)
    half = Fraction(1, 2)
    mapping = {}
    mapping[i - 1] = (sctx.var("u") + sctx.var("w")) * half
    mapping[i] = (sctx.var("u") - sctx.var("w")) * half
    for pos, t in enumerate(rest):
        mapping[t - 1] = sctx.var(f"r{t}")
    mapping[ctx.h_index] = sctx.var("hb")
    w_off = sctx.offset(sctx.index("w"))
    # a rest-monomial keeps the fields of u and the r's: no w, h or degree,
    # so its integer order is the lex order of those exponents
    rest_mask = sctx.mask ^ (FIELD_MASK << w_off) ^ FIELD_MASK

    def split(p):
        """rest-monomial -> univariate coefficient list in the w-grading."""
        rows = {}
        for e, c in p.terms.items():
            ew = e >> w_off & FIELD_MASK
            coeffs = rows.setdefault(e & rest_mask, {})
            coeffs[ew] = coeffs.get(ew, 0) + c
        out = {}
        for key, coeffs in rows.items():
            top = max(coeffs)
            out[key] = _uni_trim([coeffs.get(t, 0) for t in range(top + 1)])
        return out

    sub_cache = {lab: psi.entries[lab].substitute(mapping, sctx) for lab in labels}
    tau_cache = {
        lab: split(psi.entries[lab].swap_z(i, i + 1).substitute(mapping, sctx))
        for lab in labels
    }
    entries = {}
    if slotwise:
        pairs = sorted({(lab[i - 1], lab[i]) for lab in labels})
        by_content = {}
        for pair in pairs:
            by_content.setdefault(_pair_content(pair), []).append(pair)
        rest_of = {}
        for lab in labels:
            rest_of.setdefault((lab[i - 1], lab[i]), []).append(lab[:i - 1] + lab[i + 1:])
        for target_pair in pairs:
            block = by_content[_pair_content(target_pair)]
            rows = {}
            rhs = {}
            for rest_lab in rest_of[target_pair]:
                target = rest_lab[:i - 1] + target_pair + rest_lab[i - 1:]
                for key, uni in tau_cache[target].items():
                    rhs[(rest_lab, key)] = uni
                for col, src_pair in enumerate(block):
                    src = rest_lab[:i - 1] + src_pair + rest_lab[i - 1:]
                    if src not in psi.entries:
                        continue
                    for key, uni in split(sub_cache[src]).items():
                        rows.setdefault((rest_lab, key), [[] for _ in block])[col] = uni
            row_keys = sorted(set(rows) | set(rhs))
            A = [rows.get(k, [[] for _ in block]) for k in row_keys]
            bvec = [rhs.get(k, []) for k in row_keys]
            x = _solve_uni_system(A, bvec, len(block))
            for src_pair, sol in zip(block, x):
                if sol is not None:
                    entries[(target_pair, src_pair)] = sol
        rop = ROperator(CTX1, tuple(pairs), tuple(pairs), entries)
    else:
        blocks = {}
        for lab in labels:
            blocks.setdefault(_pair_content(lab), []).append(lab)
        for content, block in blocks.items():
            cols = {lab: split(sub_cache[lab]) for lab in block}
            row_keys = sorted({k for col in cols.values() for k in col})
            for target in block:
                lhs = tau_cache[target]
                A = [[cols[lab].get(k, []) for lab in block] for k in row_keys]
                bvec = [lhs.get(k, []) for k in row_keys]
                x = _solve_uni_system(A, bvec, len(block))
                for lab, sol in zip(block, x):
                    if sol is not None:
                        entries[(target, lab)] = sol
        rop = ROperator(CTX1, tuple(labels), tuple(labels), entries)
    # full verification of the relation
    rep = _verify_exchange_solution(psi, rop, i, slotwise)
    if not rep.passed:
        raise RMatrixError(f"exchange system inconsistent: {rep.witness}")
    return rop


def _solve_uni_system(A, b, ncols):
    """Solve an overdetermined linear system with univariate-poly entries.

    Returns a list of RationalFunction in CTX1 (None for zero).  Raises on
    rank deficiency.  Column j of A corresponds to unknown j.
    """
    rows = [list(r) + [rhs] for r, rhs in zip(A, b)]
    rows = [r for r in rows if any(_uni_trim(list(c)) for c in r)]
    # fraction-free elimination to pick pivot rows and compute determinants
    work = [r[:] for r in rows]
    piv_rows = []
    col = 0
    prev = [1]
    used = set()
    for col in range(ncols):
        piv = None
        for ri in range(len(work)):
            if ri in used:
                continue
            if _uni_trim(list(work[ri][col])):
                piv = ri
                break
        if piv is None:
            raise RMatrixError("exchange system underdetermined (too few independent rows)")
        used.add(piv)
        piv_rows.append(piv)
        prow = work[piv]
        for ri in range(len(work)):
            if ri in used:
                continue
            row = work[ri]
            if not _uni_trim(list(row[col])):
                # still must scale for fraction-free consistency
                for cj in range(ncols + 1):
                    row[cj] = _uni_exact_div(_uni_mul(prow[col], row[cj]), prev)
                continue
            for cj in range(ncols + 1):
                num = _uni_sub(_uni_mul(prow[col], row[cj]), _uni_mul(row[col], prow[cj]))
                row[cj] = _uni_exact_div(num, prev)
        prev = prow[col]
    # Cramer on the selected square subsystem
    square = [rows[ri] for ri in piv_rows]
    det = _uni_det([r[:ncols] for r in square])
    if not det:
        raise RMatrixError("exchange system underdetermined (singular subsystem)")
    out = []
    for j in range(ncols):
        mod = [r[:ncols] for r in square]
        for ri in range(ncols):
            mod[ri][j] = square[ri][ncols]
        numer = _uni_det(mod)
        out.append(_uni_ratio_to_rf(numer, det))
    return out


def _uni_det(M):
    n = len(M)
    M = [row[:] for row in M]
    sign = 1
    prev = [1]
    for kk in range(n - 1):
        piv = None
        for r in range(kk, n):
            if _uni_trim(list(M[r][kk])):
                piv = r
                break
        if piv is None:
            return []
        if piv != kk:
            M[kk], M[piv] = M[piv], M[kk]
            sign = -sign
        for r in range(kk + 1, n):
            for c in range(kk + 1, n):
                num = _uni_sub(_uni_mul(M[kk][kk], M[r][c]), _uni_mul(M[r][kk], M[kk][c]))
                M[r][c] = _uni_exact_div(num, prev)
            M[r][kk] = []
        prev = M[kk][kk]
    det = M[n - 1][n - 1]
    return [x * sign for x in det] if sign < 0 else det


def _uni_ratio_to_rf(num, den):
    """Rehomogenize num/den in (w, h) and express with linear-form denominator."""
    if not num:
        return None
    g = _uni_gcd(num, den)
    if len(g) > 1:
        num = _uni_exact_div(num, g)
        den = _uni_exact_div(den, g)
    roots, resid = _uni_integer_roots(den)
    if len(resid) > 1:
        raise RMatrixError("solved denominator is not a product of integer linear forms")
    lead = Fraction(resid[0]) if resid else Fraction(1)
    ctx = CTX1
    # rehomogenize: pad with h so numerator and denominator have equal degree
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
    # remaining h powers on the denominator side, if any
    if deg > 0:
        f = LinearForm(1)
        den_forms[f] = den_forms.get(f, 0) + deg
        npoly = npoly * (2 ** deg)  # hb/2 units: dividing by h^deg = (hb/2)^deg
    return RationalFunction(npoly, den_forms)


def _verify_exchange_solution(psi, rop, slot, slotwise):
    from .qkz import check_exchange

    return check_exchange(psi, slot, operator=rop, slotwise=slotwise)
