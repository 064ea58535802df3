"""Symbolic slice models: transverse-slice matrices, orbit equations, weights.

A slice model for a composition m packages the block structure of the
base nilpotent x_m (Jordan blocks of sizes m_1, ..., m_N, ones right above
the diagonal), the free coordinates (in each block (i, j): the last row,
the min(m_i, m_j) leftmost columns), and the torus weight of every
coordinate: (z_i - z_j) plus (m_i + m_j - 2(col-1)) half-units of hb,
the "perimeter" rule.

Equations come from the orbit-closure conditions: X^L = 0 entrywise in the
rectangular case, rank conditions on powers in general, and the regular
deformation prod_a (X - t_a) = 0 with coefficients written through the
elementary symmetric polynomials of the t_a.  ``equation_stream`` checks
its input and then builds the relations as they are taken: one matrix row
of powers at a time (row r of X^p is row r of X^(p-1) times X), with the
entries of the top power built one by one, or, for the rank conditions,
the minors of one power before the next is formed.
``slice emit`` writes each relation as it comes; ``emit_equations`` and
``emit_deformed_equations`` hold them all in an ``EquationSet``.

The worked example's component loci go through one elimination,
``solve_locus``: its vanishing coordinates are set to zero, then the
solutions of its constraints are eliminated in order, each from every
polynomial, so the membership check (``verify_component_membership``) sees
polynomials free of every solved variable, and a sampled point is filled
from the last solution back.  ``letter_matrices`` builds the example's
matrices A and B, whose words ``matrix_relation_value`` evaluates.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, permutations
from math import comb

from .algebra import (
    FIELD_BITS,
    FIELD_MASK,
    LinearForm,
    Polynomial,
    coordinate_context,
    spectral_context,
    sum_of_products,
)
from .combinatorics import inversions
from .reporting import checking


class SliceError(Exception):
    pass


# A free coordinate: its name; its block row i and block column j (1-based);
# its column within the allowed strip (1-based); its absolute matrix row and
# column (0-based); its torus weight in h-units, the z-part being z_i - z_j.
SliceCoordinate = namedtuple("SliceCoordinate", "name i j col row_abs col_abs weight_h")


def _coord_name(i, j, col, width, N):
    """The coordinate of block (i, j) in column ``col`` of a ``width``-wide
    strip: a letter counting back from the last column (A), then the block
    indices, joined by an underscore from N = 11 blocks on (A1_11), where
    plain juxtaposition would give (1,11) and (11,1) the same name."""
    pair = f"{i}_{j}" if N > 10 else f"{i}{j}"
    return chr(ord("A") + width - col) + pair


class SliceModel:
    """x_m plus free coordinates, with torus weights; optionally cut to n.

    With ``restricted`` only the coordinates strictly above the block
    diagonal are kept; within-block coordinates (and everything below) are
    forced to zero.  That strictly block-upper span is the ambient space for
    multidegrees, of dimension sum_{i<j} min(m_i, m_j).
    """

    def __init__(self, m, restricted=False):
        self.m = tuple(int(x) for x in m)
        if not self.m or any(x < 1 for x in self.m):
            raise SliceError("m must be a non-empty list of positive block sizes")
        self.N = len(self.m)
        self.M = sum(self.m)
        self.restricted = restricted
        starts = []
        pos = 0
        for mi in self.m:
            starts.append(pos)
            pos += mi
        self.block_start = tuple(starts)
        coords = []
        for i in range(1, self.N + 1):
            for j in range(1, self.N + 1):
                if restricted and not (i < j):
                    continue
                mi, mj = self.m[i - 1], self.m[j - 1]
                width = min(mi, mj)
                row_abs = self.block_start[i - 1] + mi - 1  # last row of block i
                for col in range(1, width + 1):
                    col_abs = self.block_start[j - 1] + (col - 1)
                    coords.append(
                        SliceCoordinate(
                            name=_coord_name(i, j, col, width, self.N),
                            i=i,
                            j=j,
                            col=col,
                            row_abs=row_abs,
                            col_abs=col_abs,
                            weight_h=mi + mj - 2 * (col - 1),
                        )
                    )
        self.coords = tuple(coords)
        self.by_name = {c.name: c for c in self.coords}

    def context(self, extra=()):
        return coordinate_context(tuple(c.name for c in self.coords) + tuple(extra))

    def generic_matrix(self, ctx=None):
        """x_m plus the coordinate symbols, as an M x M matrix of polynomials."""
        if ctx is None:
            ctx = self.context()
        X = [[ctx.zero() for _ in range(self.M)] for _ in range(self.M)]
        for bi, mi in enumerate(self.m):
            s = self.block_start[bi]
            for r in range(mi - 1):
                X[s + r][s + r + 1] = ctx.one()
        for c in self.coords:
            X[c.row_abs][c.col_abs] = X[c.row_abs][c.col_abs] + ctx.var(c.name)
        return ctx, X

    def weight_form(self, coord):
        """Torus weight as a linear form over the N-variable spectral context."""
        if coord.i == coord.j:
            return LinearForm.make(coord.weight_h)[0], 1
        return LinearForm.make(coord.weight_h, coord.i, coord.j)

    def relation_is_homogeneous(self, ctx, poly):
        """Whether every term of ``poly`` (over ``ctx``) has one torus weight.

        A coordinate's weight, z_i - z_j plus ``weight_h`` half-units of hb,
        is packed once per call as one int with a 64-bit slot for each of
        z_1..z_N and h: linear in the weight vector, and one-to-one while a
        term's weights stay below 2**63 in size.  A term walks only its
        non-zero coordinate fields, from the top down, as
        ``Polynomial.substitute`` does; other variables (deformation
        parameters and such) carry weight 0 here.
        """
        slot = [1 << 64 * t for t in range(self.N + 1)]
        weights = {ctx.offset(i): slot[c.i - 1] - slot[c.j - 1] + c.weight_h * slot[-1]
                   for i, c in enumerate(map(self.by_name.get, ctx.names)) if c}
        mask = sum(FIELD_MASK << off for off in weights)
        graded = set()
        for e in poly.terms:
            x, total = e & mask, 0
            while x:
                at = (x.bit_length() - 1) // FIELD_BITS * FIELD_BITS
                exp = x >> at
                x ^= exp << at
                total += exp * weights[at]
            graded.add(total)
        return len(graded) <= 1


class EquationSet(namedtuple("EquationSet", "ctx relations")):
    """The relations of one slice, held: (name, Polynomial) pairs in emission
    order, over their context."""

    __slots__ = ()

    def nonzero(self):
        return [(n, p) for n, p in self.relations if not p.is_zero()]


def mat_mul(A, B):
    """A*B, each entry accumulated in one dict."""
    ctx = A[0][0].ctx
    cols = list(zip(*B))
    return [[sum_of_products(ctx, zip(Ai, col)) for col in cols] for Ai in A]


def _check_ell(ell, M):
    """ell as a tuple of non-negative ints summing to the matrix size M."""
    ell = tuple(int(x) for x in ell)
    if any(x < 0 for x in ell):
        raise SliceError("ell entries must be non-negative")
    if sum(ell) != M:
        raise SliceError(f"ell must sum to the matrix size {M}, got {sum(ell)}")
    return ell


# The desk-scale limit on the matrix size M = sum(m) of an emitted slice.
MAX_SLICE_SIZE = 12


def _desk_model(m):
    """The (unrestricted) slice model of m, refused above ``MAX_SLICE_SIZE``."""
    model = SliceModel(m)
    if model.M > MAX_SLICE_SIZE:
        raise SliceError(f"slice size {model.M} exceeds the desk-scale limit {MAX_SLICE_SIZE}")
    return model


def equation_stream(m, ell, deform):
    """Check (m, ell) and return (ctx, relations), ``relations`` a generator
    of (name, Polynomial) pairs in a fixed order, built as they are taken.

    Rectangular ell (all nonzero parts equal L): the entries of X^L, or
    with ``deform`` those of prod_a (X - t_a), row by row.  General ell:
    the rank conditions rank(X^s) <= sum_i max(ell_i - s, 0), as vanishing
    minors of each power in turn.  Every input error is raised here, before
    the first relation is built.
    """
    model = _desk_model(m)
    ell = _check_ell(ell, model.M)
    parts = [x for x in ell if x > 0]
    if len(set(parts)) > 1:
        if deform:
            raise SliceError("deformed equations are modeled for rectangular ell only")
        sizes = [sum(max(x - s, 0) for x in parts) + 1 for s in range(1, max(parts) + 1)]
        for size in sizes:
            if comb(model.M, size) ** 2 > 4000:
                raise SliceError("minor system too large for desk scale")
            if size > 4:
                raise SliceError("symbolic minors above size 4 are out of desk scale")
        ctx, X = model.generic_matrix()
        return ctx, _minor_relations(X, sizes)
    L = parts[0]
    if not deform:
        ctx, X = model.generic_matrix()
        return ctx, _power_relations(X, L, None, f"X^{L}")
    tnames = tuple(f"t{a}" for a in range(1, L + 1))
    ctx, X = model.generic_matrix(model.context(extra=tnames))
    signed = [e * (-1) ** s for s, e in enumerate(elementary_symmetric(ctx, tnames))]
    return ctx, _power_relations(X, L, signed, "prod(X-t)")


def _power_relations(X, L, signed, tag):
    """``tag[r,c]`` = X^L[r][c], or with ``signed`` the sum over s of
    signed[s] * X^(L-s)[r][c], one row r at a time: row r of X^p is row r
    of X^(p-1) times X.  Only row r of X^0..X^(L-1) is held; each entry of
    row r of X^L is built when its relation is taken, and dropped after."""
    ctx = X[0][0].ctx
    M = len(X)
    cols = list(zip(*X))
    for r in range(M):
        rows = [[ctx.one() if c == r else ctx.zero() for c in range(M)], X[r]]
        for _ in range(L - 2):
            rows.append([sum_of_products(ctx, zip(rows[-1], col)) for col in cols])
        for c, col in enumerate(cols):
            top = sum_of_products(ctx, zip(rows[L - 1], col))
            if signed is None:
                value = top
            else:
                value = sum_of_products(ctx, ((a, rows[L - s][c] if s else top)
                                              for s, a in enumerate(signed)))
            yield f"{tag}[{r + 1},{c + 1}]", value


def _minor_relations(X, sizes):
    """The minors of size ``sizes[s-1]`` of X^s, s = 1, 2, ...: those of X^s
    are built before X^(s+1) is formed, so X and one power are held."""
    idx = range(len(X))
    power = X
    for s, size in enumerate(sizes, start=1):
        if s > 1:
            power = mat_mul(power, X)
        for rows in combinations(idx, size):
            for cols in combinations(idx, size):
                sub = [[power[r][c] for c in cols] for r in rows]
                yield (f"X^{s} minor {tuple(r + 1 for r in rows)}x{tuple(c + 1 for c in cols)}",
                       _poly_det(sub))


def _poly_det(sub):
    n = len(sub)
    ctx = sub[0][0].ctx

    def products():
        """(sign * first n-1 factors, last factor) for every permutation."""
        for perm in permutations(range(n)):
            head = ctx.const((-1) ** inversions(perm))
            for i in range(n - 1):
                head = head * sub[i][perm[i]]
                if head.is_zero():
                    break
            else:
                yield head, sub[n - 1][perm[n - 1]]

    return sum_of_products(ctx, products())


def elementary_symmetric(ctx, tnames):
    """e_0..e_k of the named deformation parameters, as polynomials.

    e_a is the sum of the packed monomials of the a-element subsets, each
    with coefficient 1.
    """
    units = [ctx.units[ctx.index(name)] for name in tnames]
    return [
        Polynomial(ctx, {sum(subset): 1 for subset in combinations(units, a)}, _clean=True)
        for a in range(len(units) + 1)
    ]


def emit_equations(m, ell):
    """The relations of ``equation_stream`` without deformation, held."""
    ctx, relations = equation_stream(m, ell, False)
    return EquationSet(ctx, tuple(relations))


def emit_deformed_equations(m, ell):
    """Entries of prod_a (X - t_a) on the slice, held; rectangular ell only.

    The deformation moves the nilpotent orbit to the regular orbit with
    eigenvalues t_1..t_k; at t = 0 this reproduces emit_equations exactly.
    """
    ctx, relations = equation_stream(m, ell, True)
    return EquationSet(ctx, tuple(relations))


def linear_component_multidegree(model, vanishing):
    """Product of the torus weights of the vanishing coordinates.

    The ambient is the restricted slice (inside the strict block-upper
    part); the multidegree of a coordinate subspace is just this product,
    a polynomial in z_1..z_N and hb.
    """
    if not model.restricted:
        raise SliceError("multidegrees live in the restricted (block-upper) model")
    ctx = spectral_context(model.N)
    p = ctx.one()
    for name in vanishing:
        c = model.by_name.get(name)
        if c is None:
            raise SliceError(f"unknown coordinate {name}")
        form, sign = model.weight_form(c)
        p = p * (form.to_poly(ctx) * sign)
    return p


# -- component loci: letter matrices, words, ordered elimination -----------------


def letter_matrices(N, entry):
    """{"A": A, "B": B}, the N x N matrices whose (i, j) entry (1-based) is
    ``entry(letter, i, j)``."""
    return {letter: [[entry(letter, i, j) for j in range(1, N + 1)] for i in range(1, N + 1)]
            for letter in ("A", "B")}


def word_value(word, mats):
    """Product of the matrices named by ``word`` ("" means the identity)."""
    if not word:
        A = mats["A"]
        ctx = A[0][0].ctx
        return [[ctx.one() if r == c else ctx.zero() for c in range(len(A))]
                for r in range(len(A))]
    out = mats[word[0]]
    for letter in word[1:]:
        out = mat_mul(out, mats[letter])
    return out


def matrix_relation_value(terms, mats, e_polys=None):
    """Evaluate a sum of scalar-weighted matrix words as an N x N matrix."""
    ctx = mats["A"][0][0].ctx
    weighted = []
    for term in terms:
        scalar = ctx.const(term.get("c", 1))
        if "e" in term:
            if e_polys is None:
                raise SliceError("relation uses deformation coefficients but none given")
            scalar = scalar * e_polys[term["e"]]
        weighted.append((scalar, word_value(term.get("word", ""), mats)))
    N = len(mats["A"])
    return [[sum_of_products(ctx, ((a, val[r][c]) for a, val in weighted)) for c in range(N)]
            for r in range(N)]


def _layers(poly, var):
    """The coefficients of var^0, var^1, ... in ``poly``, free of ``var``."""
    ctx = poly.ctx
    vidx = ctx.index(var)
    off, unit = ctx.offset(vidx), ctx.units[vidx]
    layers = []
    for e, coeff in poly.terms.items():
        d = e >> off & FIELD_MASK
        while len(layers) <= d:
            layers.append({})
        layers[d][e - d * unit] = coeff
    return [Polynomial(ctx, terms, _clean=True) for terms in layers]


def linear_solve(poly, var):
    """Solve a polynomial linear in ``var``: returns (num, den) with var = num/den."""
    layers = _layers(poly, var)
    if len(layers) > 2:
        raise SliceError(f"constraint is not linear in {var}")
    if len(layers) < 2:
        raise SliceError(f"constraint does not involve {var}")
    return -layers[0], layers[1]


def solve_locus(ctx, vanishing, polys, solve_order):
    """Restrict ``polys`` to a locus by ordered elimination.

    The ``vanishing`` coordinates are set to zero.  Then, for each
    (var, cidx) of ``solve_order`` in turn, ``polys[cidx]`` is solved
    linearly for var = num/den, and the solution is eliminated from every
    polynomial: p of degree d in var becomes den**d * p(num/den), so each
    later solve and every result is free of the variables solved before it.
    Returns (the restricted polynomials, [(var, num, den), ...]).  A
    solution may still involve the variables solved after it, so a point of
    the locus is filled from the last solution back.  A polynomial vanishes
    on the locus exactly when its restriction is zero; the solved ones
    restrict to zero.
    """
    mask = 0
    for name in vanishing:
        mask |= FIELD_MASK << ctx.offset(ctx.index(name))
    polys = [Polynomial(ctx, {e: c for e, c in p.terms.items() if not e & mask}, _clean=True)
             for p in polys]
    solutions = []
    for var, cidx in solve_order:
        num, den = linear_solve(polys[cidx], var)
        solutions.append((var, num, den))
        for pi, p in enumerate(polys):
            layers = _layers(p, var)
            d = len(layers) - 1
            if d > 0:
                polys[pi] = sum_of_products(ctx, ((layer, num ** k * den ** (d - k))
                                                  for k, layer in enumerate(layers)))
    return polys, solutions


def verify_component_membership(
    ctx, n_coords, vanishing, constraints, solve_order, relations,
    free_expected, instance="",
):
    """Generic-point membership: a constrained locus sits inside a variety.

    ``vanishing`` names coordinates set to zero; ``constraints`` are
    polynomial conditions, of which those named in ``solve_order`` (pairs
    of variable name and constraint index) are solved linearly and
    eliminated in that order (``solve_locus``), each solution from every
    constraint and relation, so a solution may use a variable solved after
    it (a point of the locus is filled from the last solution back); the
    remaining constraints are identities to verify, and ``relations`` must
    then vanish identically in the remaining free symbols, of which there
    must be ``free_expected`` (``n_coords`` less the assigned ones).  Exact
    throughout: the generic point uses fresh symbols, not random numbers.
    """
    with checking("membership", instance) as outcome:
        values, _ = solve_locus(ctx, vanishing, list(constraints) + list(relations), solve_order)
        for cidx, value in enumerate(values[:len(constraints)]):
            if not value.is_zero():
                outcome.fail(f"constraint {cidx} does not vanish on the locus")
        free = n_coords - len(set(vanishing) | {var for var, _ in solve_order})
        if free != free_expected:
            outcome.fail(f"dimension {free}, want {free_expected}")
        for ri, value in enumerate(values[len(constraints):]):
            if not value.is_zero():
                outcome.fail(f"relation {ri} does not vanish")
    return outcome.report
