"""Construction of the multidegree vectors and their functional identities.

The vector for the fundamental sequence m = (1,...,1) is built from its
extreme entry (the product of hb + z_i - z_j over equal-letter pairs) by
repeated use of the exchange relation, one inversion at a time.  Solved
for the entry with a descent at i, the exchange relation reads

    (hb*f - (hb + z_i - z_{i+1}) * tau_i f) / (z_i - z_{i+1})
        = hb * d_i f - tau_i f,

where f is the entry of the ascent partner, tau_i swaps z_i and z_{i+1},
and d_i f = (f - tau_i f)/(z_i - z_{i+1}) is the Newton divided difference
(Lascoux-Schuetzenberger).  On a monomial it has the closed form

    (x^a y^b - x^b y^a)/(x - y) = sign(a-b) x^min y^min sum_t x^t y^(|a-b|-1-t),

so each step is written down term by term, with no multiplication and no
division (``algebra.exchange_step``, on the packed exponent fields).  The
division by z_i - z_{i+1} on the left is exact for every f, so exactness
certifies nothing.  The step T_i f = hb*d_i f - tau_i f is an involution
(d_i tau_i = -d_i, tau_i d_i = d_i and d_i^2 = 0 give T_i^2 f = f), so the
relation on an edge {beta, s_i beta} of labels reads the same from either
end.

Letters with equal parts of lambda are interchangeable.  Let G be the
product of the symmetric groups on the classes of letters a with equal
lambda_a; it acts on labels by relabelling letters, and it acts freely,
because every letter occurs in every label.  Relabelling a, b with
lambda_a = lambda_b maps the weight-lambda space to itself and commutes
with the gl_k-invariant R-matrix, so

    entry(sigma beta) = chi(sigma) * entry(beta),
    chi(sigma) = prod over classes of sign(sigma on the class) ** part,

where part is the common lambda_a of the class.  The builder computes one
entry per G-orbit and the rest by chi, and checks the exchange relation
once per G-orbit of edges; see ``build_psi_fundamental`` for why that is
the whole certificate.  It also checks that the entries are homogeneous and
divisible by hb + z_i - z_{i+1} at adjacent equal letters with a symmetric
quotient.

Vectors for general m are produced from the fundamental one by the fusion
specialization: group the variables into arithmetic progressions of step
hb and contract with antisymmetrizers.  Within a group consecutive
variables differ by z_p - z_{p+1} = -hb, where the exchange relation
specializes to entry(s_p beta) = -entry(beta); so the normalized
antisymmetrizer acts as the identity, and each fused entry is the one
specialization of the entry whose blocks are increasing.

Verification operations cover the exchange relation, wheel conditions,
the insertion recurrence, cyclicity under rotation of the factors, and the
level-1 difference (qKZ) step in each z_i, which reduces to the others:
route A moves z_i to slot 1 by exchanges, wraps once by cyclicity at the
permuted point and moves z_i + (k+1) hb back by exchanges, route B is the
same argument in the other direction, and the unitarity R(u) R(-u) = 1 of
every slot operator makes the routes agree (see ``qkz_step``).  So the
step holds at every i or at none.  The paper has the qKZ equation hold
"in some cases"; for homogeneous m the checks give

    instance                                     qkz_step
    (2,(1,1)), (2,(2,2)), (2,(3,3)), (2,(4,4))   pass
    (3,(1,1,1)), (3,(2,2,2))                     pass
    (4,(1,1,1,1)), (4,(2,2,2,2))                 pass
    (5,(1,1,1,1,1))                              pass
    (3,(2,2,2)) fused to m = (2,2,2)             pass
    (4,(2,2,2,2)) fused to m = (2,2,2,2)         pass
    (6,(1^6)) fused to m = (3,3), (2,2,2)        pass
    (4,(1^4)) fused to m = (2,2)                 pass
    the appendix, with its printed R1, R2, R3    pass
    (2,(3,3)) fused to m = (2,2,2)               skipped: exchange

A slot with m_i = k has no fused R-matrix (the k-th wedge power is
one-dimensional), so ``check_exchange`` and the step skip there; the
cyclicity of that vector passes.  Inhomogeneous m is out of scope: the
exchange at slot j then relates Psi_m to Psi_{s_j m}, and cyclicity
relates Psi_m to the vector of the rotated m.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .algebra import (
    AlgebraError,
    ExactDivisionError,
    LinearForm,
    Polynomial,
    RationalFunction,
    exchange_step,
    share_terms,
    spectral_context,
)
from .combinatorics import content_labels, inversions
from .reporting import checking
from . import rmatrix as _rm


class PsiError(Exception):
    pass


class PsiVector:
    """Basis-labelled vector of polynomials in z_1..z_N, hb.

    Labels are tuples of sorted letter tuples (subset sequences); in the
    fundamental case every subset is a singleton.  Entries may be zero but
    every label of ``combinatorics.content_labels(lam, m)`` is present.
    """

    def __init__(self, k, lam, m, ctx, entries):
        self.k = k
        self.lam = tuple(lam)
        self.m = tuple(m)
        self.ctx = ctx
        self.entries = dict(entries)
        self.basis = tuple(sorted(self.entries))

    @property
    def N(self):
        return len(self.m)

    def expected_degree(self):
        return sum(a * (a - 1) // 2 for a in self.lam)

    def instance_name(self):
        lam = ",".join(str(x) for x in self.lam)
        m = ",".join(str(x) for x in self.m)
        return f"k={self.k} lambda=({lam}) m=({m})"

    def to_json(self, writer=None):
        return {
            "schema": 1,
            "k": self.k,
            "lambda": list(self.lam),
            "m": list(self.m),
            "vars": self.ctx.nz,
            "entries": [
                {"label": [list(S) for S in lab], "poly": self.entries[lab].to_json(writer)}
                for lab in self.basis
            ],
        }

    @staticmethod
    def from_json(doc):
        """Read ``to_json`` output; PsiError names what does not fit."""
        try:
            k, lam, m = doc["k"], tuple(doc["lambda"]), tuple(doc["m"])
            if not m:
                raise PsiError("psi JSON has no slots: m is empty")
            check_shape(k, lam, m)
            if doc["vars"] != len(m):
                raise PsiError(f"psi JSON has vars = {doc['vars']!r}, want {len(m)}")
            ctx = spectral_context(len(m))
            entries, table = {}, {}  # the entries share their keys and coefficients
            for row in doc["entries"]:
                lab = tuple(tuple(S) for S in row["label"])
                if lab in entries:
                    raise PsiError(f"psi JSON gives the label {label_text(lab)} twice")
                entries[lab] = Polynomial.from_json(row["poly"], ctx, table)
        except KeyError as err:
            raise PsiError(f"psi JSON lacks the field {err}") from None
        except (TypeError, ValueError, ZeroDivisionError, AlgebraError) as err:
            raise PsiError(f"malformed psi JSON: {err}") from None
        if sorted(entries) != content_labels(lam, m):
            raise PsiError("psi JSON labels are not the content labels of (k, lambda, m)")
        return PsiVector(k, lam, m, ctx, entries)


def label_text(lab):
    return "(" + ",".join("{" + ",".join(str(x) for x in S) + "}" for S in lab) + ")"


def _difference(lhs, rhs):
    """The numerator of lhs - rhs in lowest terms, for a Polynomial lhs and a
    Polynomial or RationalFunction rhs; a missing rhs is zero."""
    return lhs if rhs is None else (RationalFunction.from_poly(lhs) - rhs).reduced().num


def _offending(lab, diff):
    """The witness of a failed identity at lab: the leading terms of diff = lhs - rhs."""
    terms = diff.sorted_terms()
    head = Polynomial(diff.ctx, dict(terms[:3])).text() + " ..." * (len(terms) > 3)
    return f"first offending label {label_text(lab)}: lhs - rhs = {head} ({len(terms)} terms)"


def _map_entries(psi, fn):
    """{label: fn(entry)} over ``psi.basis`` in order, fn called once per
    distinct entry object: labels of one orbit share theirs."""
    distinct = {id(psi.entries[lab]): psi.entries[lab] for lab in psi.basis}
    images = {key: fn(entry) for key, entry in distinct.items()}
    return {lab: images[id(psi.entries[lab])] for lab in psi.basis}


def _require_equal(outcome, lhs, rhs, zero):
    """Fail the check with the ``_offending`` witness at the first difference
    of the labelled vectors lhs (of Polynomials) and rhs, if they differ."""
    lab = _rm.first_difference(lhs, rhs)
    if lab is not None:
        outcome.fail(_offending(lab, _difference(lhs.get(lab, zero), rhs.get(lab))))


def check_shape(k, lam, m=None):
    """Raise PsiError unless lam is a partition with at most k rows and m
    (if given) is a sequence of wedge sizes 1 <= m_i <= k summing to |lam|."""
    if k < 1:
        raise PsiError(f"k must be positive, got {k}")
    if any(x <= 0 for x in lam):
        raise PsiError("lambda rows must be positive")
    if list(lam) != sorted(lam, reverse=True):
        raise PsiError("lambda must be weakly decreasing")
    if len(lam) > k:
        raise PsiError(f"lambda has {len(lam)} rows, more than k = {k}")
    if m is None:
        return
    if any(not 1 <= x <= k for x in m):
        raise PsiError(f"every m_i must satisfy 1 <= m_i <= k = {k}")
    if sum(m) != sum(lam):
        raise PsiError(f"sum(m) = {sum(m)} differs from sum(lambda) = {sum(lam)}")


# -- fundamental construction ---------------------------------------------------


def extreme_component(lam):
    """The weakly increasing label and its product-form entry.

    The label reads (1^{lam_1}, 2^{lam_2}, ...); the polynomial is the
    product of hb + z_i - z_j over pairs i < j carrying the same letter.
    """
    lam = tuple(x for x in lam if x > 0)
    M = sum(lam)
    seq = []
    for a, la in enumerate(lam, start=1):
        seq.extend([a] * la)
    ctx = spectral_context(M)
    p = ctx.one()
    for i in range(M):
        for j in range(i + 1, M):
            if seq[i] == seq[j]:
                p = p * LinearForm(2, i + 1, j + 1).to_poly(ctx)
    label = tuple((a,) for a in seq)
    return label, p


MAX_PREDICTED_TERMS = 10_000_000
"""The largest ``predicted_terms`` that ``build_psi_fundamental`` builds.

Measured on the ladder: (2,(4,4)) is predicted at 1.06M terms and has
1.31M; (3,(3,3,3)) is predicted at 5.67M and has 7.67M, built in 99 MB
peak RSS (CPython 3.11), as its 1,680 labels hold 560 objects, 2.56M terms
over 9,529 distinct monomials (about 32 bytes a held term, 11 a label's
term); (2,(5,4)) is predicted at 20.6M and (2,(5,5)) at 445M, and both
are refused.
"""


def _factor_terms(n, cap):
    """Terms of prod_{i<j<=n} (hb + z_i - z_j), or cap + 1 as soon as a
    partial product has more than cap terms."""
    ctx = spectral_context(n)
    p = ctx.one()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            p = p * LinearForm(2, i, j).to_poly(ctx)
            if len(p.terms) > cap:
                return cap + 1
    return len(p.terms)


def predicted_terms(lam):
    """The term count of the extreme entry times the number of entries.

    The extreme entry is a product over letters a of the factor
    prod_{i<j}(hb + z_i - z_j) in the lam_a positions of a.  It is
    homogeneous, so a term is fixed by its z-part, and the z-parts of the
    factors live in disjoint variables: its term count is the product of
    the factors' counts, each taken in lam_a variables, so nothing of size
    M is multiplied out.  A factor stops counting once the prediction
    already passes ``MAX_PREDICTED_TERMS``.  On the instances measured the
    prediction is at most the built term count (see the limit's note).
    """
    lam = tuple(lam)
    count = factorial(sum(lam))
    for part in lam:
        count //= factorial(part)
    cap = MAX_PREDICTED_TERMS // count
    for part in lam:
        count *= _factor_terms(part, cap)
        if count > MAX_PREDICTED_TERMS:
            break
    return count


def _letter_classes(lam):
    """The letters with equal parts: (part, letters) for classes of two or more."""
    classes = {}
    for a, part in enumerate(lam, start=1):
        classes.setdefault(part, []).append(a)
    return tuple((part, tuple(letters)) for part, letters in classes.items() if len(letters) > 1)


def _orbit_key(seq, classes):
    """(key, chi): key = sigma seq, where sigma relabels each class of
    letters in their order of first occurrence in seq, and chi = chi(sigma)."""
    rename = {}
    chi = 1
    for part, letters in classes:
        first = sorted(letters, key=seq.index)
        rename.update(zip(first, letters))
        if part % 2 and inversions(first) % 2:
            chi = -chi
    return tuple(rename.get(x, x) for x in seq), chi


def build_psi_fundamental(k, lam):
    """Fundamental-case vector, seeded at the extreme entry and propagated.

    Each label beta with a descent at position i can be derived from its
    ascent partner beta' = s_i beta via the exchange relation,

        entry(beta) = (hb*entry(beta') - (hb + z_i - z_{i+1}) * tau_i entry(beta'))
                      / (z_i - z_{i+1})
                    = hb * d_i entry(beta') - tau_i entry(beta') = T_i entry(beta'),

    computed in closed form by ``algebra.exchange_step``.  The numerator equals
    hb*(f - tau_i f) - (z_i - z_{i+1}) tau_i f, which z_i - z_{i+1} always
    divides, so the division is exact for every f and checking it would
    certify nothing.

    Labels are walked by (inversions, label).  G, the product of the
    symmetric groups on letters with equal parts, acts freely on labels, as
    every letter occurs.  ``_orbit_key`` names the orbit of each label and
    the relabelling sigma that takes it to the key; the first label of an
    orbit gets T_i of its partner at its first descent, and every later
    label gets chi(sigma_rep) chi(sigma) times that entry, the same object
    when the sign is +1.  So entry(sigma beta) = chi(sigma) entry(beta)
    holds for every sigma in G by construction, chi being a character.

    The checks that can fail, each raising PsiError at once, run on orbit
    representatives: every entry is homogeneous of degree
    sum lam_a (lam_a - 1)/2, and at adjacent equal letters (i, i+1) it is
    divisible by hb + z_i - z_{i+1}, with a quotient symmetric in z_i,
    z_{i+1}; relabelling keeps the degree and the positions of equal
    letters.  Then the exchange relation is checked once per G-orbit of
    edges {beta, s_i beta}, by applying T_i to the ascent end; an edge
    used to derive an entry holds by definition.  This is the whole
    certificate that every edge holds: G commutes with s_i, T_i is linear,
    and when sigma takes the descent end of one edge to the ascent end of
    another, T_i^2 = 1 turns the relation around.  The symmetry is checked,
    not assumed: edges join every label to the seed, so only one vector
    satisfies them all, and with a wrong chi some checked edge fails.

    The entries share their term objects: every entry passes through one
    table of the call (``algebra.share_terms``), so the vector holds each
    distinct monomial and coefficient once, and a label whose chi differs
    from its representative's holds the one negated copy of its orbit.

    Before building, an instance whose ``predicted_terms`` exceeds
    ``MAX_PREDICTED_TERMS`` is refused with PsiError.  Every call builds a
    new vector; callers own what they get.
    """
    lam = tuple(lam)
    check_shape(k, lam)
    terms = predicted_terms(lam)
    if terms > MAX_PREDICTED_TERMS:
        raise PsiError(
            f"lambda {','.join(map(str, lam))} is predicted at {terms:,} terms or more, "
            f"above the limit of {MAX_PREDICTED_TERMS:,} (qkz.MAX_PREDICTED_TERMS)"
        )
    M = sum(lam)
    ctx = spectral_context(M)
    label, extreme = extreme_component(lam)
    base = tuple(a for (a,) in label)
    classes = _letter_classes(lam)
    seqs = sorted((tuple(a for (a,) in lab) for lab in content_labels(lam, (1,) * M)),
                  key=lambda s: (inversions(s), s))

    def swap(seq, i):
        return seq[:i - 1] + (seq[i], seq[i - 1]) + seq[i + 1:]

    keys = {}      # label -> (orbit key, chi)
    reps = {}      # orbit key -> (first label of the orbit, its chi)
    negated = {}   # orbit key -> the negated entry of its first label
    entries = {}
    table = {}     # the one object of each key and coefficient of the entries
    held = set()   # (slot, least orbit key of the two ends): edge orbits that hold
    for seq in seqs:
        key, chi = keys[seq] = _orbit_key(seq, classes)
        if key in reps:
            rep, rep_chi = reps[key]
            if chi != rep_chi and key not in negated:
                negated[key] = share_terms(-entries[rep], table)
            entries[seq] = entries[rep] if chi == rep_chi else negated[key]
            continue
        reps[key] = seq, chi
        if seq == base:
            entries[seq] = share_terms(extreme, table)
            continue
        i = next(i for i in range(1, M) if seq[i - 1] > seq[i])
        partner = swap(seq, i)
        entries[seq] = share_terms(exchange_step(entries[partner], i), table)
        held.add((i, min(key, keys[partner][0])))

    want = sum(a * (a - 1) // 2 for a in lam)
    for seq, _ in reps.values():
        if entries[seq].homogeneous_degree() != want:
            raise PsiError(f"entry {seq} is not homogeneous of degree {want}")
    for seq, _ in reps.values():
        p = entries[seq]
        for i in range(1, M):
            if seq[i - 1] == seq[i]:
                form = LinearForm(2, i, i + 1)
                try:
                    q = p.exact_div(form)
                except ExactDivisionError:
                    raise PsiError(
                        f"entry {seq} not divisible by hb + z_{i} - z_{i+1}"
                    ) from None
                if not q.is_symmetric(i, i + 1):
                    raise PsiError(f"quotient at {seq}, slot {i} not symmetric")
    for seq in seqs:
        for i in range(1, M):
            if seq[i - 1] > seq[i]:
                partner = swap(seq, i)
                edge = (i, min(keys[seq][0], keys[partner][0]))
                if edge in held:
                    continue
                held.add(edge)
                if exchange_step(entries[partner], i) != entries[seq]:
                    raise PsiError(f"propagation path mismatch at {seq}, slot {i}")

    return PsiVector(k, lam, (1,) * M, ctx,
                     {tuple((a,) for a in seq): p for seq, p in entries.items()})


# -- fusion ----------------------------------------------------------------------


def fuse_psi(psi1, m):
    """Contract a fundamental vector to the sequence m by specialization.

    Group i of the variables is set to the progression
    z_i - (m_i-1)/2 hb, ..., z_i + (m_i-1)/2 hb, and the groups are
    contracted with idempotent-normalized antisymmetrizers: the entry at
    (S_1, ..., S_N) is 1/prod(m_i!) times the signed sum over orderings of
    each S_i of the specialized fundamental entries.  This scale makes the
    extreme entry a monic product of linear forms.

    Inside a group, positions p, p+1 specialize to z_p - z_{p+1} = -hb.
    There the exchange relation entry(beta) = T_p entry(s_p beta), for the
    distinct letters of a block, reads

        -hb * entry(beta) = hb * g - (hb + z_p - z_{p+1}) * tau_p g = hb * g,

    with g = entry(s_p beta): reordering a block flips the sign of the
    specialized entry.  Every ordering in the signed sum therefore
    contributes the specialized entry of the increasing blocks, prod(m_i!)
    times over, and the normalized antisymmetrizer acts as the identity.
    Each fused entry is the one specialization of the fundamental entry
    whose blocks are increasing.  This needs psi1 to satisfy the exchange
    relation, which ``build_psi_fundamental`` certifies.
    """
    m = tuple(m)
    M = sum(m)
    if psi1.m != (1,) * M:
        raise PsiError("fuse_psi expects a fundamental vector matching sum(m)")
    check_shape(psi1.k, psi1.lam, m)
    if m == psi1.m:
        return psi1
    ctx = spectral_context(len(m))
    # variable mapping: big position (0-based) -> z_group + offset*h
    half = ctx.hbar() * Fraction(1, 2)
    mapping = {}
    pos = 0
    for gi, mi in enumerate(m, start=1):
        for t in range(mi):
            mapping[pos] = ctx.z(gi) + half * (2 * t - mi + 1)
            pos += 1
    mapping[psi1.ctx.h_index] = half
    entries = {
        lab: psi1.entries[tuple((x,) for S in lab for x in S)].substitute(mapping, ctx)
        for lab in content_labels(psi1.lam, m)
    }
    return PsiVector(psi1.k, psi1.lam, m, ctx, entries)


# -- checks ----------------------------------------------------------------------


def check_exchange(psi, i, operator=None):
    """Verify tau_i Psi = R_i(z_i - z_{i+1}) Psi, exactly.

    An ``operator`` whose source is the basis of psi acts on the whole
    basis; any other operator, and the pair operator for (m_i, m_{i+1})
    used when none is given, acts on factors i, i+1.  Skips unless
    m_i == m_{i+1}, so that both sides live in the same space, and, with no
    operator given, when m_i = k, since the k-th wedge power has no fused
    R-matrix.
    """
    m = psi.m
    with checking("exchange", f"{psi.instance_name()} i={i}") as outcome:
        if m[i - 1] != m[i]:
            outcome.skip("inhomogeneous adjacent m")
        if operator is None:
            if m[i - 1] == psi.k:
                outcome.skip(f"m_{i} = k = {psi.k}: the k-th wedge power has no fused R-matrix")
            operator = _rm.pair_operator(psi.k, m[i - 1], m[i])
        slotwise = tuple(operator.source) != tuple(psi.basis)
        form, sign = LinearForm.make(0, i, i + 1)
        sub = operator.substitute_spectral(form, sign, psi.ctx)
        applied = sub.apply(psi.entries, i - 1 if slotwise else None)
        lhs = _map_entries(psi, lambda entry: entry.swap_z(i, i + 1))
        _require_equal(outcome, lhs, applied, psi.ctx.zero())
    return outcome.report


def wheel_positions(m, k):
    """Minimal-length ordered position tuples with sum of m-entries > k."""
    from itertools import combinations

    N = len(m)
    for r in range(1, N + 1):
        tuples = [c for c in combinations(range(1, N + 1), r) if sum(m[p - 1] for p in c) > k]
        if tuples:
            return tuples
    return []


def check_wheel(psi, positions, instance=None):
    """Vanishing under zeta_{t+1} - zeta_t = (n_t + n_{t+1})/2 hb at the positions.

    The positions are arbitrary but must be increasing; the entries of m
    there play the role of the n_t and must satisfy sum n_t > k, otherwise
    the specialization is not a wheel and the check refuses to run.
    """
    positions = tuple(positions)
    if list(positions) != sorted(set(positions)):
        raise PsiError("wheel positions must be strictly increasing")
    if positions and not 1 <= positions[0] <= positions[-1] <= psi.N:
        raise PsiError(f"wheel positions must lie in 1..{psi.N}, got {positions}")
    n = [psi.m[p - 1] for p in positions]
    if sum(n) <= psi.k:
        raise PsiError(
            f"wheel requires sum(n) > k, got sum{tuple(n)} = {sum(n)} <= k = {psi.k}"
        )
    name = instance or f"{psi.instance_name()} positions={positions}"
    ctx = psi.ctx
    half = ctx.hbar() * Fraction(1, 2)
    base = ctx.z(positions[0])
    mapping = {}
    offset = 0
    for t in range(1, len(positions)):
        offset += n[t - 1] + n[t]  # in h-units
        mapping[positions[t] - 1] = base + half * offset
    with checking("wheel", name) as outcome:
        values = _map_entries(psi, lambda entry: entry.substitute(mapping))
        _require_equal(outcome, values, {}, ctx.zero())
    return outcome.report


def check_recurrence(psi_big, psi_small, p):
    """Insertion recurrence: specializing the inserted column reproduces psi_small.

    The big vector has m-sequence (m_1..m_{p-1}, 1^k, m_p..m_N): a column
    of k boxes, one letter to a slot, inserted at place p.  The
    specialization sets inserted slot t (1-based) to zeta + (t-1) hb.
    Entrywise on the standard basis this forces:

    * entries whose inserted letters repeat vanish identically;
    * entries whose inserted letters are distinct but out of order collapse,
      with the sign of the sorting permutation, onto the sorted arrangement
      (the exchange relation at the specialized point has a vanishing
      prefactor, which pairs the two entries);
    * entries with sorted inserted letters equal the matching small entry
      times an explicit product of linear factors.

    A single global sign relating the two constructions is allowed and must
    be consistent across all surviving entries.  A failing case names its
    label and remainder lhs - rhs (``_offending``); when no sign matches,
    the remainder is the one of the sign that leaves fewer terms.
    """
    k = psi_big.k
    m_small = psi_small.m
    N = len(m_small)
    if not 1 <= p <= N + 1:
        raise PsiError(f"insertion position must lie in 1..{N + 1}, got {p}")
    expect_big = m_small[:p - 1] + (1,) * k + m_small[p - 1:]
    if psi_big.m != expect_big:
        raise PsiError(f"big m-sequence {psi_big.m} does not match insertion {expect_big}")
    name = f"k={k} insert n={(1,) * k} at p={p}: m={psi_big.m} -> m={m_small}"
    ctx = spectral_context(N, zeta=True)
    zeta = ctx.var("zeta")
    hb = ctx.hbar()
    half = hb * Fraction(1, 2)
    # variable mapping from the big context; small slot pos >= p is big slot pos + k
    mapping = {psi_big.ctx.h_index: half}
    for pos in range(1, N + 1):
        mapping[pos - 1 if pos < p else pos - 1 + k] = ctx.z(pos)
    for t in range(k):
        mapping[p - 1 + t] = zeta + hb * t
    # the prefactor of the surviving entries
    pref = ctx.one()
    for i, mi in enumerate(m_small, start=1):
        gap = ctx.z(i) - zeta if i < p else zeta + hb * (k - 1) - ctx.z(i)
        for a in range(mi):
            pref = pref * (half * (mi + 1 - 2 * a) + gap)
    small_map = {t: ctx.z(t + 1) for t in range(N)} | {psi_small.ctx.h_index: half}

    with checking("recurrence", name) as outcome:
        sigma = seen_survive = 0
        specialized = _map_entries(psi_big, lambda entry: entry.substitute(mapping, ctx))
        for lab in psi_big.basis:
            inserted = lab[p - 1:p - 1 + k]
            lhs = specialized[lab]
            srt = tuple(sorted(inserted))
            if len(set(inserted)) < k:
                if not lhs.is_zero():
                    outcome.fail(f"repeated-row entry does not vanish: {_offending(lab, lhs)}")
                continue
            if inserted != srt:
                sign = (-1) ** inversions(inserted)
                partner = lab[:p - 1] + srt + lab[p - 1 + k:]
                diff = lhs - specialized[partner] * sign
                if diff:
                    outcome.fail(f"no collapse onto {label_text(partner)} with sign {sign}: "
                                 f"{_offending(lab, diff)}")
                continue
            seen_survive += 1
            small_lab = lab[:p - 1] + lab[p - 1 + k:]
            rhs = pref * psi_small.entries[small_lab].substitute(small_map, ctx)
            if lhs.is_zero() and rhs.is_zero():
                continue
            if sigma == 0:
                diffs = [(lhs - rhs * s, s) for s in (1, -1)]
                sigma = next((s for diff, s in diffs if not diff), 0)
                if sigma == 0:
                    diff, s = min(diffs, key=lambda d: len(d[0].terms))
                    outcome.fail(f"no global sign matches, nearest sign {s}: "
                                 f"{_offending(lab, diff)}")
            elif lhs != rhs * sigma:
                outcome.fail(f"sign-inconsistent, global sign {sigma}: "
                             f"{_offending(lab, lhs - rhs * sigma)}")
        if seen_survive == 0:
            outcome.fail("no surviving entries at all")
    return outcome.report


def cyclic_shift(p, k):
    """p(z_2, ..., z_N, z_1 + (k+1) hb): a field rotation, then z_1 -> z_1 + (k+1) hb."""
    ctx = p.ctx
    return p.rotate_z().substitute({0: ctx.z(1) + ctx.hbar() * (k + 1)})


def check_cyclicity(psi, rho_op, instance=None):
    """Psi(z_2, ..., z_N, z_1 + (k+1) hb) = rho Psi(z_1, ..., z_N), exactly."""
    with checking("cyclicity", instance or psi.instance_name()) as outcome:
        if len(set(psi.m)) > 1:
            outcome.skip("m not homogeneous")
        if rho_op is None:
            outcome.skip("no rotation")
        lhs = _map_entries(psi, lambda entry: cyclic_shift(entry, psi.k))
        _require_equal(outcome, lhs, rho_op.apply(psi.entries), psi.ctx.zero())
    return outcome.report


# -- the difference step ----------------------------------------------------------


def qkz_step(psi, rho_op, full_ops=None):
    """The difference step in every z_i, certified by exchange, cyclicity and unitarity.

    With s = (k+1) hb, route A of the step is Psi(..., z_i + s, ...) = S_i Psi,

        S_i = R_i(z_{i+1} - z_i - s) ... R_{N-1}(z_N - z_i - s) rho
                  R_1(z_1 - z_i) ... R_{i-1}(z_{i-1} - z_i)

    applied right to left, and route B is Psi(..., z_i - s, ...) = C_i Psi
    through rho^-1.  Both follow from two identities (Frenkel-Reshetikhin,
    CMP 146, 1992; Di Francesco-Zinn-Justin, J. Phys. A 38, 2005).  The
    exchange relation at slot j is a polynomial identity, so it holds at
    every permuted point: R_j(a - b) takes Psi with a, b in slots j, j+1 to
    Psi with them swapped.  Route A moves z_i to slot 1 by such exchanges,
    wraps once by cyclicity at the permuted point w,
    rho Psi(w) = Psi(w_2, ..., w_N, w_1 + s), and moves z_i + s back from
    slot N by exchanges.  Route B is the same argument in the other
    direction, with cyclicity read at (w_N - s, w_1, ..., w_{N-1}) to
    unwrap through rho^-1.  The routes' report also required
    S_i(z_i - s) C_i = 1 as an operator identity; that product telescopes
    to 1 once every slot operator satisfies R(u) R(-u) = 1, which
    ``closure_witness`` checks.

    So the report runs ``check_exchange`` at slots 1..N-1 (slot j's
    operator is ``full_ops[j]`` when given), ``check_cyclicity`` and
    ``closure_witness``, and its witness is the first failure's: the
    sub-check's after ``exchange at slot j: `` or ``cyclicity: ``, or the
    closure witness.  The certificate does not depend on i, so one report
    covers the step in every z_i.  An inhomogeneous m is skipped, with or without ``full_ops``; so is a step
    whose ``check_exchange`` skips at some slot (a slot with m_j = k),
    after ``exchange at slot j: ``, or whose ``check_cyclicity`` skips, with
    its witness.
    """
    with checking("qkz", psi.instance_name()) as outcome:
        if len(set(psi.m)) > 1:
            outcome.skip("m not homogeneous")
        for j in range(1, psi.N):
            rep = check_exchange(psi, j, None if full_ops is None else full_ops[j])
            if rep.status == "skipped":
                outcome.skip(f"exchange at slot {j}: {rep.witness}")
            if not rep.passed:
                outcome.fail(f"exchange at slot {j}: {rep.witness}")
        rep = check_cyclicity(psi, rho_op)
        if rep.status == "skipped":
            outcome.skip(rep.witness)
        if not rep.passed:
            outcome.fail(f"cyclicity: {rep.witness}")
        witness = closure_witness(psi, full_ops)
        if witness is not None:
            outcome.fail(witness)
    return outcome.report


def closure_witness(psi, full_ops=None):
    """None if every slot operator of the routes satisfies R(u) R(-u) = 1, else
    the first slot that fails, with its unitarity witness (column, entry).

    A pair operator is checked once per (k, m_j, m_{j+1}) on the two-factor
    basis (``rmatrix.pair_unitarity``), a full operator on the basis of psi.
    """
    if full_ops is not None:
        for j, op in sorted(full_ops.items()):
            rep = _rm.verify_unitarity(_rm.matrix_applicator(op), psi.basis, psi.ctx)
            if not rep.passed:
                return f"slot {j} operator is not unitary: {rep.witness}"
        return None
    for j in range(1, psi.N):
        a, b = psi.m[j - 1], psi.m[j]
        passed, witness = _rm.pair_unitarity(psi.k, a, b)
        if not passed:
            return f"slot {j} pair ({a},{b}) is not unitary: {witness}"
    return None
