"""Exact sparse multivariate polynomial and rational-function arithmetic.

Everything downstream works in the ring Z[z_1..z_N, hb/2] where hb is the
equivariant parameter (printed ``hb``).  Internally we use the half-unit
h = hb/2 as the last exponent slot, so that all the half-integer shifts
showing up in fusion and recurrence formulas (e.g. z - (m-1)/2*hb) have
integer exponents.  Coefficients are arbitrary-precision rationals, stored
as plain ints whenever possible (the propagation and multidegree
computations stay integral, and int arithmetic is much faster than
Fraction).

Monomials are packed exponent vectors (Monagan-Pearce, CASC 2007): each
monomial is one int, and ``Polynomial.terms`` maps these ints to
coefficients.

* Layout.  In a context of n variables, variable i owns the 16-bit field
  at bit ``16*(n-1-i)``: names[0] is the most significant field and the h
  slot, always the last name, the least significant.  The total degree
  sits in an unbounded field above them, from bit ``16*n`` (``ctx.shift``).
  The monomial of variable i is ``ctx.units[i]``, its field bit plus the
  degree bit.  ``ctx.pack`` and ``ctx.unpack`` convert from and to
  exponent tuples; only input and output do.
* Order.  Integers compare the degree field first and then the exponent
  fields from names[0] down, which is graded lexicographic order with
  z_1 > ... > z_N > h.  So ``sorted_terms`` sorts the keys themselves.
* Linearity.  Packing is linear in the exponent vector, so unit arithmetic
  whose result has every field in [0, 2**16) is exact: a monomial product
  is one integer ``+``; swapping z_i and z_j adds (b - a)*(U_i - U_j) for
  the field units U; ``substitute_all`` adds exp*(K - U_i) for z_i^exp
  whose image is the one term of key K; ``exchange_step`` (the divided
  difference of the fundamental builder), ``Polynomial.layers`` and the
  carry of ``exact_div`` add and subtract units (with their degree bit
  where the degree changes).  Code subtracts a unit only from a field it
  has read as positive, so no field ever borrows.  A kernel that reads
  fields walks the non-zero ones alone, from the top set bit down:
  ``substitute_all`` and ``term_weights`` those their mapping touches.
  No other module reads a field: none imports ``FIELD_BITS`` or
  ``FIELD_MASK``.
* Degree guard.  No exponent exceeds the total degree, so no field can
  carry while every degree stays below 2**16 (``DEGREE_LIMIT``).
  ``_mul_into`` (every product of two polynomials), ``__pow__`` and
  ``substitute_all`` bound the degree of their result before their loop (the
  top field of the largest key is the degree) and raise AlgebraError
  instead of carrying.
  ``ctx.pack``, and through it ``from_json``, rejects exponents outside
  [0, 2**16) and degrees of 2**16 or more; ``parse_polynomial`` reaches
  the guard of ``__pow__``.  Every other operation keeps or lowers degrees.

Display.  ``Polynomial.text`` and ``to_json`` render terms through a
``TermWriter``, which caches the text of each distinct coefficient and each
distinct span of the exponent fields.  An output passes one writer to all
of its polynomials, as most reuse is across them; the caches die with it.
The cache of a span wider than four fields is emptied before a polynomial
with fewer terms than it holds, so it holds at most twice the terms of the
polynomial being written: it grows with the largest polynomial of the
output, not with the output.

Rational functions are kept in the restricted form used throughout:
a polynomial numerator over a multiset of integer linear forms
a*hb + z_i - z_j, which matches every denominator that can occur.  A value
is kept as built: products, sums and substitutions collect denominators
and never divide (a sum is taken over the lcm of its terms' denominators,
``over_one_den``), and ``RationalFunction.equals`` decides an identity by
cross-multiplying, with no value in lowest terms.  Only code that builds
an operator (and a failed check, for its witness) calls ``reduced()``; the
restriction makes that exact and cheap (repeated exact division).
"""

from __future__ import annotations

import ast
import struct
from fractions import Fraction
from functools import cache, partial
from itertools import chain, repeat
from operator import itemgetter

FIELD_BITS = 16
DEGREE_LIMIT = 1 << FIELD_BITS
FIELD_MASK = DEGREE_LIMIT - 1


class AlgebraError(Exception):
    """Base class for algebra failures."""


class ContextError(AlgebraError):
    """Operands built over different variable contexts."""


class ExactDivisionError(AlgebraError):
    """Division was not exact.  Carries the offending remainder.

    Two callers catch it, and neither hides it: ``RationalFunction.reduced``
    stops dividing by a form at the first inexact division (that is its
    stopping rule), and ``qkz.build_psi_fundamental`` turns it into a
    PsiError naming the entry that an equal-letter form does not divide.
    """

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


def _norm_coeff(c):
    """Collapse integral Fractions to int; drop nothing else."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _degree_overflow(deg):
    return AlgebraError(
        f"degree {deg} does not fit the packed exponent fields (limit {DEGREE_LIMIT - 1})"
    )


class PolyContext:
    """A fixed tuple of variable names, optionally with a distinguished h slot.

    Spectral contexts (``spectral_context``) carry z-variables plus the
    half-unit h as the last slot; coordinate contexts (slice rings) have no
    h variable and no swap/linear-form structure.  The context owns the
    packed monomial encoding described in the module docstring.
    """

    __slots__ = ("names", "h_index", "nz", "_index", "shift", "mask", "units", "_fields")

    def __init__(self, names, h_index=None):
        self.names = tuple(names)
        n = len(self.names)
        if h_index is not None and h_index != n - 1:
            raise ContextError("the h slot must be the last variable")
        self.h_index = h_index
        self.nz = n - (0 if h_index is None else 1)
        self._index = {name: i for i, name in enumerate(self.names)}
        if len(self._index) != n:
            raise ContextError("duplicate variable names")
        self.shift = FIELD_BITS * n
        self.mask = (1 << self.shift) - 1
        self.units = tuple((1 << self.shift) | (1 << self.offset(i)) for i in range(n))
        self._fields = struct.Struct(f">{n}H")

    @property
    def nvars(self):
        return len(self.names)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ContextError(f"unknown variable {name!r}") from None

    def offset(self, idx):
        """Bit position of the exponent field of variable ``idx``."""
        return FIELD_BITS * (len(self.names) - 1 - idx)

    def pack(self, exps):
        """The packed monomial of an exponent sequence ordered as ``names``."""
        try:
            fields = int.from_bytes(self._fields.pack(*exps), "big")
        except struct.error:
            raise AlgebraError(
                f"exponents {list(exps)!r} are not {self.nvars} integers in [0, {DEGREE_LIMIT})"
            ) from None
        deg = sum(exps)
        if deg >= DEGREE_LIMIT:
            raise _degree_overflow(deg)
        return deg << self.shift | fields

    def unpack(self, mono):
        """The exponent tuple of a packed monomial, ordered as ``names``."""
        return self._fields.unpack((mono & self.mask).to_bytes(2 * len(self.names), "big"))

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = _norm_coeff(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
        if c == 0:
            return Polynomial(self, {})
        return Polynomial(self, {0: c})

    def var(self, name_or_index):
        i = name_or_index if isinstance(name_or_index, int) else self.index(name_or_index)
        return Polynomial(self, {self.units[i]: 1})

    def z(self, i):
        """The i-th spectral variable, 1-based."""
        if self.h_index is None or not (1 <= i <= self.nz):
            raise ContextError(f"no spectral variable z_{i} in this context")
        return self.var(i - 1)

    def hbar(self):
        """The displayed parameter hb, i.e. twice the internal half-unit."""
        if self.h_index is None:
            raise ContextError("context has no h variable")
        return Polynomial(self, {self.units[self.h_index]: 2})

    def __eq__(self, other):
        return (
            isinstance(other, PolyContext)
            and self.names == other.names
            and self.h_index == other.h_index
        )

    def __hash__(self):
        return hash((self.names, self.h_index))

    def __reduce__(self):
        # rebuild from the names: the compiled field Struct does not pickle
        return PolyContext, (self.names, self.h_index)

    def __repr__(self):
        return f"PolyContext({self.names!r}, h_index={self.h_index})"


def spectral_context(n, zeta=False):
    """Context with z_1..z_n (plus one ``zeta`` if requested) and the h slot.

    For n == 1 the single spectral variable is called plain ``z``, which is
    how one-variable R-matrix entries are displayed.
    """
    if n == 1 and not zeta:
        names = ("z",)
    else:
        names = tuple(f"z{i}" for i in range(1, n + 1))
    if zeta:
        names = names + ("zeta",)
    names = names + ("hb",)
    return PolyContext(names, h_index=len(names) - 1)


def coordinate_context(names):
    """Context over arbitrary named coordinates, with no h variable."""
    return PolyContext(tuple(names), h_index=None)


def _mul_into(acc, a, b, shift):
    """acc += a*b over packed term dicts a, b (both non-empty), in place."""
    deg = (max(a) >> shift) + (max(b) >> shift)
    if deg >= DEGREE_LIMIT:
        raise _degree_overflow(deg)
    if len(a) < len(b):
        a, b = b, a
    get = acc.get
    for eb, cb in b.items():
        for ea, ca in a.items():
            e = ea + eb
            acc[e] = get(e, 0) + ca * cb


_is_int = int.__instancecheck__


def sum_of_products(ctx, pairs):
    """The polynomial sum of a*b over the pairs (a, b), accumulated in one
    dict, which becomes the result's terms unless a term cancelled: then the
    terms are copied without the zeros, as a dict does not shrink when items
    are deleted."""
    acc = {}
    shift = ctx.shift
    for a, b in pairs:
        if (a.ctx is not ctx and a.ctx != ctx) or (b.ctx is not ctx and b.ctx != ctx):
            raise ContextError("polynomials from different contexts")
        if a.terms and b.terms:
            _mul_into(acc, a.terms, b.terms, shift)
    if 0 in acc.values():
        acc = {e: c for e, c in acc.items() if c}
    return Polynomial(ctx, acc, _clean=all(map(_is_int, acc.values())))


def substitute_all(ctx, polys, mapping, target_ctx):
    """Substitute polynomials for variables in each of ``polys``, over ctx.

    ``mapping`` maps variable indices (or names) of ctx to Polynomials (or
    numbers) over ``target_ctx``; with None for it, over ctx, unmapped
    variables passing through unchanged.  Into another context every
    variable must be mapped.

    A term walks only its non-zero mapped fields, from the top down.  Each
    field value exp << offset gets one move, made on first use and shared
    by the batch.  For z^exp whose image power is one term (a rename, hb/2,
    -z, a constant) the key moves by exp*(image key - unit) and the
    coefficient scales; a longer power (from the one before it) expands the
    term; a zero image drops it.
    """
    tctx = target_ctx if target_ctx is not None else ctx
    by_offset, deg = {}, 0  # the unit of each mapped field and the powers of its image
    for k, v in mapping.items():
        idx = k if isinstance(k, int) else ctx.index(k)
        if isinstance(v, (int, Fraction)):
            v = tctx.const(v)
        if v.ctx is not tctx and v.ctx != tctx:
            raise ContextError("substitution image in wrong context")
        by_offset[ctx.offset(idx)] = ctx.units[idx], [None, v]  # powers[exp] = v**exp
        deg = max(deg, v.degree())
    if tctx != ctx and len(by_offset) < ctx.nvars:
        name = next(n for i, n in enumerate(ctx.names) if ctx.offset(i) not in by_offset)
        raise ContextError(f"substitution into a new context must map {name!r}")
    deg *= max((p.degree() for p in polys), default=0)
    if deg >= DEGREE_LIMIT:
        raise _degree_overflow(deg)
    # moves by field value exp << offset: a (key shift, coefficient) pair
    # for a one-term power, else the power's terms with exp*unit off the keys
    mask, shifts, expands, out = sum(FIELD_MASK << off for off in by_offset), {}, {}, []
    for p in polys:
        if p.ctx is not ctx and p.ctx != ctx:
            raise ContextError("polynomials from different contexts")
        acc = {}
        get = acc.get
        for e, c in p.terms.items():
            x, cur = e & mask, None
            while x:
                at = x.bit_length() - 1 & -FIELD_BITS  # the top non-zero field
                f = x >> at << at
                x ^= f
                move = shifts.get(f)
                if move is not None:
                    e += move[0]
                    c *= move[1]
                    continue
                move = expands.get(f)
                if move is None:  # made on first use, then read again
                    (unit, powers), exp = by_offset[at], f >> at
                    if len(powers[1].terms) == 1:
                        (k, a), = powers[1].terms.items()
                        shifts[f] = exp * (k - unit), a ** exp
                    else:
                        while len(powers) <= exp:
                            powers.append(powers[-1] * powers[1])
                        expands[f] = {k - exp * unit: a for k, a in powers[exp].terms.items()}
                    x |= f
                elif cur is None:
                    cur = move
                else:
                    nxt = {}
                    nget = nxt.get
                    for e1, c1 in cur.items():
                        for e2, c2 in move.items():
                            mon = e1 + e2
                            nxt[mon] = nget(mon, 0) + c1 * c2
                    cur = nxt
            if cur is None:
                acc[e] = get(e, 0) + c
            else:
                for mon, cm in cur.items():
                    mon += e
                    acc[mon] = get(mon, 0) + c * cm
        if 0 in acc.values():  # copied without its zeros: a dict does not shrink
            acc = {e: c for e, c in acc.items() if c}
        out.append(Polynomial(tctx, acc, _clean=all(map(_is_int, acc.values()))))
    return out


def exchange_step(f, i):
    """hb * d_i f - tau_i f, emitted term by term (see the ``qkz`` docstring).

    With x = z_i, y = z_{i+1} and hb = 2h internally, a term c x^a y^b
    contributes -c x^b y^a, and for a != b also
    2c * sign(a-b) * h * x^min y^min * x^t y^(|a-b|-1-t) for each t.
    On packed monomials with field units X, Y of x, y the swap adds
    (b-a)*(X-Y), and the divided-difference terms start at
    x^lo y^top h^(e_h+1) and step by X - Y.  The degree never changes, and
    the h field is the lowest, with unit 1.
    """
    ctx = f.ctx
    x_off, y_off = ctx.offset(i - 1), ctx.offset(i)
    X, Y = 1 << x_off, 1 << y_off
    step = X - Y
    out = {}
    get = out.get
    for e, c in f.terms.items():
        a, b = e >> x_off & FIELD_MASK, e >> y_off & FIELD_MASK
        if a == b:
            out[e] = get(e, 0) - c
            continue
        t = e + (b - a) * step
        out[t] = get(t, 0) - c
        lo, top, cc = (b, a - 1, 2 * c) if a > b else (a, b - 1, -2 * c)
        t = e - a * X - b * Y + lo * X + top * Y + 1
        for _ in range(top - lo + 1):
            out[t] = get(t, 0) + cc
            t += step
    for e in [e for e, c in out.items() if not c]:
        del out[e]
    # 2c of a Fraction c may be integral, and then Polynomial normalizes it
    return Polynomial(ctx, out, _clean=all(map(_is_int, out.values())))


def share_terms(p, table):
    """p with each key and coefficient replaced by the equal object of
    ``table``, entered there on first sight (``table.setdefault(x, x)``).
    Polynomials passed through one table hold each distinct monomial and
    coefficient once; ints and Fractions are immutable, so sharing is safe."""
    put = table.setdefault
    return Polynomial(p.ctx, {put(e, e): put(c, c) for e, c in p.terms.items()}, _clean=True)


def _layers(terms, off, unit):
    """The terms of var^0, var^1, ..., var^degree of the variable whose field
    sits at bit ``off`` and whose unit is ``unit``, as dicts free of it."""
    layers = []
    for e, c in terms.items():
        d = e >> off & FIELD_MASK
        while len(layers) <= d:
            layers.append({})
        layers[d][e - d * unit] = c
    return layers


class Polynomial:
    """Sparse exact polynomial: map from packed monomials to rational coeffs.

    Instances are treated as immutable; no method mutates ``terms`` after
    construction.  Zero coefficients are never stored: ``__init__`` copies
    its terms without them (normalizing coefficients unless all are ints),
    but not with ``_clean``, which the kernels that own their accumulator
    pass for all-int terms without zeros: ``sum_of_products`` copies only a
    sum in which a term cancelled, and ``exchange_step`` deletes the
    few terms that cancel in place.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms, _clean=False):
        self.ctx = ctx
        if _clean:
            self.terms = terms
        elif all(map(_is_int, terms.values())):
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = {e: _norm_coeff(c) for e, c in terms.items() if c != 0}

    # -- basics ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    def _check(self, other):
        if self.ctx != other.ctx:
            raise ContextError("polynomials from different contexts")

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.terms) >> self.ctx.shift

    def homogeneous_degree(self):
        """The common total degree of all terms, or None if inhomogeneous."""
        shift = self.ctx.shift
        degs = {e >> shift for e in self.terms}
        if not degs:
            return 0
        if len(degs) > 1:
            return None
        return degs.pop()

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented  # a RationalFunction adds itself
        self._check(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            out[e] = _norm_coeff(get(e, 0) + c)
        if 0 in out.values():  # copied without its zeros: a dict does not shrink
            out = {e: c for e, c in out.items() if c}
        return Polynomial(self.ctx, out, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ctx, {e: -c for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        if isinstance(other, (Polynomial, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.ctx.zero()
            if other == 1:
                return self
            return Polynomial(
                self.ctx, {e: _norm_coeff(c * other) for e, c in self.terms.items()}, _clean=True
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        return sum_of_products(self.ctx, ((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise AlgebraError("negative polynomial power")
        deg = self.degree() * n
        if deg >= DEGREE_LIMIT:
            raise _degree_overflow(deg)
        result = self.ctx.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structural operations --------------------------------------------

    def _swap_fields(self, i, j):
        """The field offsets of z_i and z_j (1-based) and the key step X - Y of
        their field units: swapping moves key e by (e_j - e_i) * (X - Y)."""
        ctx = self.ctx
        if ctx.h_index is None:
            raise ContextError("swap requires a spectral context")
        if not (1 <= i <= ctx.nz and 1 <= j <= ctx.nz):
            raise ContextError("swap index out of range")
        si, sj = ctx.offset(i - 1), ctx.offset(j - 1)
        return si, sj, (1 << si) - (1 << sj)

    def swap_z(self, i, j):
        """Exchange the spectral variables z_i and z_j (1-based).  Involution."""
        si, sj, step = self._swap_fields(i, j)
        if i == j:
            return self
        out = {}
        for e, c in self.terms.items():
            out[e + ((e >> sj & FIELD_MASK) - (e >> si & FIELD_MASK)) * step] = c
        return Polynomial(self.ctx, out, _clean=True)

    def is_symmetric(self, i, j):
        """Whether ``swap_z(i, j)`` leaves self unchanged: one lookup a term,
        of the swapped key, and no swapped copy."""
        si, sj, step = self._swap_fields(i, j)
        get = self.terms.get
        for e, c in self.terms.items():
            if get(e + ((e >> sj & FIELD_MASK) - (e >> si & FIELD_MASK)) * step) != c:
                return False
        return True

    def rotate_z(self):
        """Rename z_t -> z_{t+1} (t < nz) and z_nz -> z_1 by shifting the packed
        z fields one field down and the lowest to the top."""
        ctx = self.ctx
        if ctx.h_index is None:
            raise ContextError("rotation requires a spectral context")
        low, top = ctx.offset(ctx.nz - 1), ctx.offset(0)
        zmask = (1 << top + FIELD_BITS) - (1 << low)
        out = {}
        for e, c in self.terms.items():
            z = e & zmask
            out[e ^ z | z >> FIELD_BITS & zmask | (z >> low & FIELD_MASK) << top] = c
        return Polynomial(ctx, out, _clean=True)

    def substitute(self, mapping, target_ctx=None):
        """Substitute polynomials for variables: ``substitute_all`` of this one."""
        return substitute_all(self.ctx, (self,), mapping, target_ctx)[0]

    def layers(self, idx):
        """The coefficients of var^0, var^1, ..., var^degree of the variable
        ``idx`` (an index or name), each free of it, with terms of its own."""
        ctx = self.ctx
        idx = idx if isinstance(idx, int) else ctx.index(idx)
        return [Polynomial(ctx, terms, _clean=True)
                for terms in _layers(self.terms, ctx.offset(idx), ctx.units[idx])]

    def term_weights(self, weights):
        """The set of the weights of the terms: a term weighs the sum of
        exp * weights[i] over the variables i (indices) that ``weights``
        maps to ints, read from its non-zero mapped fields, the top first."""
        by_offset = {self.ctx.offset(i): w for i, w in weights.items()}
        mask, graded = sum(FIELD_MASK << off for off in by_offset), set()
        for e in self.terms:
            x, total = e & mask, 0
            while x:
                at = x.bit_length() - 1 & -FIELD_BITS
                exp = x >> at
                x ^= exp << at
                total += exp * by_offset[at]
            graded.add(total)
        return graded

    def evaluate(self, values):
        """Evaluate at a full rational point (sequence ordered as ctx.names),
        as a Fraction: the substitution of its values into the ring of no
        variables."""
        if len(values) != self.ctx.nvars:
            raise ContextError("wrong number of values")
        point = dict(enumerate(map(Fraction, values)))
        value, = substitute_all(self.ctx, (self,), point, coordinate_context(()))
        return Fraction(value.terms.get(0, 0))

    def exact_div(self, form):
        """Divide exactly by a LinearForm; raise ExactDivisionError otherwise.

        Division is synthetic elimination of the form's leading spectral
        variable (or of h for pure-h forms), so no term ordering ambiguity
        arises.
        """
        ctx = self.ctx
        if ctx.h_index is None:
            raise ContextError("exact_div requires a spectral context")
        if not self.terms:
            return self
        units = ctx.units
        uh = units[ctx.h_index]
        if form.i is None and form.j is None:
            # pure c*h; the h field is the lowest
            c = form.hcoef
            if c == 0:
                raise AlgebraError("division by the zero form")
            out = {}
            for e, coeff in self.terms.items():
                if not e & FIELD_MASK:
                    rem = {e2: c2 for e2, c2 in self.terms.items() if not e2 & FIELD_MASK}
                    raise ExactDivisionError(
                        "not divisible by pure-h form",
                        remainder=Polynomial(ctx, rem, _clean=True),
                    )
                out[e - uh] = _norm_coeff(Fraction(coeff, c) if coeff % c else coeff // c)
            return Polynomial(ctx, out, _clean=True)
        # The canonical form z_lead - rest has +z_i as its leading variable,
        # and rest = z_j - c*h (maybe no z_j).  The layers in z_lead are
        # carried down in place: the top layer, with the carries of the layers
        # above it, is the quotient's coefficient of z_lead^(d-1), and its
        # product with rest is added into the layer below.
        lead = form.i - 1
        ulead, hc = units[lead], form.hcoef
        uj = None if form.j is None else units[form.j - 1]
        layers = _layers(self.terms, ctx.offset(lead), ulead)
        quotient = {}
        while len(layers) > 1:
            top, below = layers.pop(), layers[-1]
            get = below.get
            up = (len(layers) - 1) * ulead
            for e, c in top.items():
                if not c:  # a carry cancelled the layer's term
                    continue
                quotient[e + up] = c
                if uj is not None:
                    t = e + uj
                    below[t] = get(t, 0) + c
                if hc:
                    t = e + uh
                    below[t] = get(t, 0) - hc * c
        rem, = layers
        if any(rem.values()):
            raise ExactDivisionError("division not exact", remainder=Polynomial(ctx, rem))
        # a sum of Fractions may be integral, and then Polynomial normalizes it
        return Polynomial(ctx, quotient, _clean=all(map(_is_int, quotient.values())))

    # -- ordering, display, serialization ---------------------------------

    def sorted_terms(self):
        """Terms in the canonical order: graded lex, z_1 > ... > z_N > h, descending."""
        terms = self.terms
        return [(e, terms[e]) for e in sorted(terms, reverse=True)]

    def text(self, writer=None):
        """Canonical text form, hb denoting the equivariant parameter."""
        return (writer or TermWriter(self.ctx)).text(self)

    def __repr__(self):
        return f"<Poly {self.text()}>"

    def to_json(self, writer=None):
        """The JSON document; with a ``TermWriter`` the term rows are a callable (json_parts)."""
        ctx, hmask = self.ctx, 0 if self.ctx.h_index is None else FIELD_MASK
        terms = partial(writer.json_rows, self) if writer else [
            [*_display(c, e & hmask), *ctx.unpack(e)] for e, c in self.sorted_terms()]
        return {"terms": terms, "vars": ctx.nz if ctx.h_index is not None else list(ctx.names)}

    @staticmethod
    def from_json(doc, ctx, table=None):
        """Read ``to_json`` output; AlgebraError for exponents that cannot be
        packed and for a monomial given twice.  Keys and coefficients are
        shared through ``table`` as by ``share_terms`` (through a table of
        this polynomial's own when none is given)."""
        h = ctx.h_index
        pack = ctx.pack
        put = ({} if table is None else table).setdefault
        terms = {}
        for row in doc["terms"]:
            num, den, *e = row
            mono = pack(e)
            if mono in terms:
                raise AlgebraError(f"the monomial with exponents {e} is given twice")
            eh = 0 if h is None else e[h]
            if den == 1 and type(num) is int:
                c = num << eh
            else:
                c = _norm_coeff(Fraction(num, den) * 2 ** eh)
            terms[put(mono, mono)] = put(c, c)
        return Polynomial(ctx, terms)


def _display(c, eh):
    """The displayed coefficient c / 2**eh of a term with h exponent eh, as a
    reduced (numerator, denominator)."""
    disp = Fraction(c, 1 << eh) if type(c) is int else c / (1 << eh)
    return disp.numerator, disp.denominator


def _factors(star_names, fields, count, offset):
    """'*z1*z2^2*hb' for packed exponent fields, the lowest of them field ``offset``
    (``star_names`` lowest field first), read from the top nonzero field down."""
    out = []
    while fields:
        at = (fields.bit_length() - 1) // FIELD_BITS * FIELD_BITS
        exp = fields >> at
        fields ^= exp << at
        name = star_names[offset + at // FIELD_BITS]
        out.append(name if exp == 1 else f"{name}^{exp}")
    return "".join(out)


class _Spans(dict):
    """The texts of a span of exponent fields, each joined on first use
    from the texts of the span's two halves."""

    __slots__ = ("high", "low", "bits", "mask")

    def __init__(self, high, low, bits):
        self.high, self.low, self.bits, self.mask = high, low, bits, (1 << bits) - 1

    def __missing__(self, x):
        text = self[x] = self.high(x >> self.bits) + self.low(x & self.mask)
        return text


class TermWriter:
    """Text and JSON term rows of the polynomials of one output, over one context.

    A term is its displayed coefficient and the exponent fields of its packed
    monomial, split into a high half (the top n//2 fields) and a low half.
    Each distinct coefficient (with its h exponent) and half is rendered once
    and cached, so a term costs three lookups and a join.  A half is joined
    from the cached texts of its own halves, down to spans of four fields.
    The caches of coefficients and of spans of at most four fields live with
    the writer; they stay small.  The cache of a wider span (in 9 or more
    variables) is emptied before a polynomial with fewer terms than it
    holds: held for the whole output, the two halves' caches would grow with
    it (25.7k entries on the deformed (2^5),(5,5) emit), while on the psi
    vectors, whose halves take at most a few hundred values, they are
    seldom emptied.
    No cache refers back to the writer, so they are freed with it.
    ``json_rows`` streams a polynomial's rows, one part a row, so an output
    never holds the JSON text of a whole entry.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self._split = FIELD_BITS * (ctx.nvars - ctx.nvars // 2)
        names = tuple("*" + name for name in reversed(ctx.names))
        self._text = self._caches(lambda num, den: ("- " if num < 0 else "+ ") + (
            str(abs(num)) if den == 1 else f"{abs(num)}/{den}"), partial(_factors, names))
        self._rows_nl = None

    def _caches(self, coefficient, half):
        """A cached function from a term's coefficient (and h exponent) to
        ``coefficient(num, den)``, a cached function from each half of its
        fields to ``half(fields, count, index of the lowest field)``, and
        the caches of its spans wider than four fields."""
        spans = []

        def fields(count, offset):
            if count > 4:
                nlow = count - count // 2
                spans.append(_Spans(fields(count // 2, offset + nlow), fields(nlow, offset),
                                    FIELD_BITS * nlow))
                return spans[-1].__getitem__
            mask = (1 << FIELD_BITS * count) - 1  # drops the degree above the high half
            return cache(lambda x: half(x & mask, count, offset))
        n = self.ctx.nvars
        return (cache(lambda c, eh=0: coefficient(*_display(c, eh))),
                fields(n // 2, n - n // 2), fields(n - n // 2, 0), spans)

    def _pieces(self, p, caches, *lead):
        """The texts of p's terms in canonical order, from the caches, each
        after its item of the iterables ``lead``; a cache of spans that holds
        more entries than p has terms is emptied first."""
        if p.ctx is not self.ctx and p.ctx != self.ctx:
            raise ContextError("polynomial and writer from different contexts")
        coefficient, high, low, spans = caches
        terms = p.terms
        for texts in spans:
            if len(texts) > len(terms):
                texts.clear()
        keys = sorted(terms, reverse=True)
        ehs = () if self.ctx.h_index is None else (map(FIELD_MASK.__and__, keys),)
        coefficients = map(coefficient, map(terms.__getitem__, keys), *ehs)
        return map("".join, zip(*lead, coefficients, map(high, map(self._split.__rrshift__, keys)),
                                map(low, map(((1 << self._split) - 1).__and__, keys))))

    def text(self, p):
        """The canonical text of p (``Polynomial.text``)."""
        if not p.terms:
            return "0"
        # a piece is sign, magnitude and '*'-led factors: drop the factor 1
        text = " ".join(self._pieces(p, self._text)).replace(" 1*", " ")
        return "-" + text[2:] if text[0] == "-" else text[2:]

    def json_rows(self, p, nl):
        """The JSON text of p's term rows, as ``json.dumps(rows, indent=2)``
        writes a list value that sits after the newline-and-indent ``nl``,
        as an iterable of parts: one a row, joined from the caches after the
        separator before it, then the closing bracket."""
        if not p.terms:
            return ("[]",)
        inner = nl + "  "
        if nl != self._rows_nl:
            sep = "," + inner + "  "
            self._rows_nl, self._rows = nl, self._caches(
                lambda num, den: f"[{sep[1:]}{num}{sep}{den}",
                lambda x, count, offset: "".join(sep + str(x >> FIELD_BITS * i & FIELD_MASK)
                                                 for i in range(count - 1, -1, -1)))
        close = inner + "]"
        seps = chain(("[" + inner,), repeat(close + "," + inner))
        return chain(self._pieces(p, self._rows, seps), (close + nl + "]",))


def _frac_str(f):
    f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# -- linear forms ----------------------------------------------------------


class LinearForm(tuple):
    """An integer linear form  (hcoef/2)*hb [+ z_i [- z_j]].

    ``hcoef`` counts internal half-units h = hb/2, so the paper-style form
    a*hb + z_i - z_j has hcoef = 2a.  The canonical representative keeps the
    z-part with a positive leading variable (i < j when both are present);
    ``make`` returns the representative together with the sign that
    relates it to the requested form.

    A form is the immutable tuple (hcoef, i, j), so that denominator dicts
    hash and compare it at C speed.
    """

    __slots__ = ()

    def __new__(cls, hcoef, i=None, j=None):
        if i is None and j is None and hcoef == 0:
            raise AlgebraError("zero linear form")
        if i is not None and i == j:
            raise AlgebraError("linear form needs distinct indices")
        return tuple.__new__(cls, (hcoef, i, j))

    hcoef = property(itemgetter(0))
    i = property(itemgetter(1))
    j = property(itemgetter(2))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"LinearForm(hcoef={self[0]!r}, i={self[1]!r}, j={self[2]!r})"

    @staticmethod
    def make(hcoef, i=None, j=None):
        """Canonicalize; returns (form, sign) with sign in {+1, -1}."""
        if i is None and j is None:
            if hcoef == 0:
                raise AlgebraError("zero linear form")
            return (LinearForm(hcoef), 1) if hcoef > 0 else (LinearForm(-hcoef), -1)
        if i is None:  # c*h - z_j
            return LinearForm(-hcoef, j, None), -1
        if j is None:
            return LinearForm(hcoef, i, None), 1
        if i < j:
            return LinearForm(hcoef, i, j), 1
        return LinearForm(-hcoef, j, i), -1

    def to_poly(self, ctx):
        if ctx.h_index is None:
            raise ContextError("linear forms need a spectral context")
        units = ctx.units
        terms = {}
        if self.hcoef:
            terms[units[ctx.h_index]] = self.hcoef
        if self.i is not None:
            terms[units[self.i - 1]] = 1
        if self.j is not None:
            terms[units[self.j - 1]] = -1
        return Polynomial(ctx, terms)

    def text(self, ctx=None):
        def zname(idx):
            if ctx is not None:
                return ctx.names[idx - 1]
            return f"z{idx}"

        a = Fraction(self.hcoef, 2)
        parts = []
        if a:
            if a == 1:
                parts.append("hb")
            elif a == -1:
                parts.append("-hb")
            else:
                parts.append(f"{_frac_str(a)}*hb")
        if self.i is not None:
            parts.append(f"+ {zname(self.i)}" if parts else zname(self.i))
        if self.j is not None:
            parts.append(f"- {zname(self.j)}")
        return " ".join(parts) if parts else "0"

    def sort_key(self):
        return (self.i or 0, self.j or 0, self.hcoef)


# -- rational functions ------------------------------------------------------


class RationalFunction:
    """num / prod(forms), kept as built.

    ``den`` maps canonical LinearForms to multiplicities.  The constructor,
    the arithmetic and ``substitute_z`` never divide: a value keeps the
    denominator its construction gave it, and ``equals`` compares two
    values by cross-multiplying.  ``reduced()`` returns the function in
    lowest terms, num / prod(forms) with no denominator form dividing num;
    only code that builds an operator calls it.  Distinct canonical forms
    are coprime irreducibles of Q[z, h], so that form is unique: two
    reduced representations of one function have the same ``den`` and the
    same ``num``, term for term.  Hence reduction needs one pass (dividing
    by one form never makes num divisible by another), and a value reduced
    once at the end comes out byte-identical to the same computation
    reduced after every step.

    One caveat: the pure-h forms LinearForm(c) for different c are
    associates (c*h and c'*h differ by a unit).  A denominator holding two
    of them, say h and 2h, has more than one reduced representation, and
    which one comes out depends on the order in which ``den`` is divided.
    No computation of the package builds such a denominator; ``reduced``
    divides the forms of ``den`` in insertion order.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, num, den=None):
        self.ctx = num.ctx
        self.num = num
        den = dict(den or {})
        for f, m in den.items():
            if m <= 0:
                raise AlgebraError("denominator multiplicities must be positive")
        self.den = {} if num.is_zero() else den

    def reduced(self):
        """The same function in lowest terms: num divided by each form of
        ``den``, in insertion order, until exact division fails."""
        num, den = self.num, {}
        for f, m in self.den.items():
            while m:
                try:
                    num = num.exact_div(f)
                except ExactDivisionError:
                    break
                m -= 1
            if m:
                den[f] = m
        return RationalFunction(num, den)

    @staticmethod
    def from_poly(p):
        return RationalFunction(p)

    def is_zero(self):
        return self.num.is_zero()

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __add__(self, other):
        den, (a, b) = over_one_den((self, _as_rf(other, self.ctx)))
        return RationalFunction(a + b, den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_rf(other, self.ctx))

    def __rsub__(self, other):
        return _as_rf(other, self.ctx) - self

    def __mul__(self, other):
        other = _as_rf(other, self.ctx)
        if self.ctx != other.ctx:
            raise ContextError("rational functions from different contexts")
        den = dict(self.den)
        for f, m in other.den.items():
            den[f] = den.get(f, 0) + m
        return RationalFunction(self.num * other.num, den)

    __rmul__ = __mul__

    def equals(self, other):
        """Equality as functions, by cross-multiplying: each numerator times
        the forms the other denominator has more of, so equal denominators
        compare numerators alone."""
        other = _as_rf(other, self.ctx)
        return _lift(self.num, self.den, other.den) == _lift(other.num, other.den, self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Polynomial, RationalFunction)):
            return self.equals(other)
        return NotImplemented

    def __hash__(self):
        raise TypeError("RationalFunction is unhashable")

    def substitute_z(self, mapping, target_ctx=None):
        """Substitute z-variables by Polynomials of degree <= 1.

        ``mapping`` maps 1-based z indices to their images, over
        ``target_ctx`` when given; denominator forms must stay linear.
        """
        return substitute_z_all(self.ctx, (self,), mapping, target_ctx)[0]

    def text(self, writer=None):
        if not self.den:
            return self.num.text(writer)
        den = "*".join(
            f"({f.text(self.ctx)})" + (f"^{m}" if m > 1 else "")
            for f, m in sorted(self.den.items(), key=lambda t: t[0].sort_key())
        )
        return f"({self.num.text(writer)}) / ({den})"

    def __repr__(self):
        return f"<RatFun {self.text()}>"


def substitute_z_all(ctx, values, mapping, target_ctx):
    """``RationalFunction.substitute_z`` of each of ``values``, over ctx: the
    numerators and each distinct denominator form go through one
    ``substitute_all``, and each form's image is written as a form once."""
    poly_map = {zi - 1: image for zi, image in mapping.items()}
    if target_ctx is not None:  # h passes through; every z must be mapped
        poly_map[ctx.h_index] = target_ctx.var(target_ctx.h_index)
    forms = {}  # the distinct denominator forms, in order of first appearance
    for v in values:
        forms.update(v.den)
    polys = substitute_all(ctx, [v.num for v in values] + [f.to_poly(ctx) for f in forms],
                           poly_map, target_ctx)
    images = dict(zip(forms, map(_poly_to_form, polys[len(values):])))
    out = []
    for v, num in zip(values, polys):
        den = {}
        for f, m in v.den.items():
            form, sign = images[f]
            if sign < 0 and m % 2:
                num = -num
            den[form] = den.get(form, 0) + m
        out.append(RationalFunction(num, den))
    return out


def _lift(num, den, target):
    """The numerator of num / den over lcm(den, target): num times
    f**(target[f] - den[f]) for each form f that target has more of.  No
    product is formed when target has more of none."""
    cofactor = None
    for f, m in target.items():
        extra = m - den.get(f, 0)
        if extra > 0:
            power = f.to_poly(num.ctx) ** extra
            cofactor = power if cofactor is None else cofactor * power
    return num if cofactor is None else num * cofactor


def common_denominator(values):
    """The lcm of the denominators of values (Polynomials and
    RationalFunctions), its forms in order of first appearance."""
    den = {}
    for v in values:
        if isinstance(v, RationalFunction):
            for f, m in v.den.items():
                if den.get(f, 0) < m:
                    den[f] = m
    return den


def numerator_over(value, den):
    """The numerator of value (a Polynomial or RationalFunction) over ``den``,
    a multiple of its denominator; a value already over den keeps its own."""
    if isinstance(value, RationalFunction):
        return _lift(value.num, value.den, den)
    return _lift(value, {}, den)


def over_one_den(values):
    """(den, numerators) of values over den, the lcm of their denominators.

    ``values`` holds Polynomials and RationalFunctions, as a mapping (the
    numerators come as a dict with its keys) or a sequence (as a list in its
    order).  ``den`` is their ``common_denominator``, and each numerator
    their ``numerator_over`` it.
    """
    keyed = hasattr(values, "values")
    listed = list(values.values() if keyed else values)
    den = common_denominator(listed)
    nums = [numerator_over(v, den) for v in listed]
    return den, dict(zip(values, nums)) if keyed else nums


def _as_rf(x, ctx):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, Polynomial):
        return RationalFunction.from_poly(x)
    if isinstance(x, (int, Fraction)):
        return RationalFunction.from_poly(ctx.const(x))
    raise TypeError(f"cannot coerce {x!r} to a rational function")


def _poly_to_form(p):
    """Write a degree-1 polynomial with z-coefficients +-1 as (LinearForm, sign)."""
    ctx = p.ctx
    h = ctx.h_index
    hc = 0
    pos = None
    neg = None
    for e, c in p.terms.items():
        if e not in ctx.units:
            raise AlgebraError("not a linear form")
        idx = ctx.units.index(e)
        if idx == h:
            hc = c
        elif c == 1 and pos is None:
            pos = idx + 1
        elif c == -1 and neg is None:
            neg = idx + 1
        else:
            raise AlgebraError("not a unit-coefficient linear form")
    if hc != int(hc):
        raise AlgebraError("non-integral h coefficient in linear form")
    return LinearForm.make(int(hc), pos, neg)


# -- parsing -----------------------------------------------------------------

_BINARY = {ast.Add: Polynomial.__add__, ast.Sub: Polynomial.__sub__,
           ast.Mult: Polynomial.__mul__}


def parse_polynomial(text, ctx):
    """Parse a polynomial written in Python's expression grammar, ``^`` for ``**``.

    The grammar accepts int constants and the variable names of ctx, the
    name ``hb`` denoting the displayed equivariant parameter (two internal
    half-units); binary ``+ - *`` and unary ``+ -``; ``**`` by an int
    constant; and ``/`` by a nonzero int constant, which Python applies to
    the factor on its left (``-1/2*z`` reads as ``((-1)/2)*z``).  So the
    canonical text form parses, and explicit ``*`` is required between
    factors.  Anything else raises AlgebraError.

    Python's parser nests one level per binary operator, which would cap a
    sum at a few thousand terms; so the top-level sum is cut before each
    + or - outside brackets that follows an operand, and each summand is
    parsed on its own.
    """
    text = text.replace("^", "**")
    cuts, depth, prev = [0], 0, ""
    for i, ch in enumerate(text):
        depth += (ch in "([{") - (ch in ")]}")
        if ch in "+-" and not depth and (prev.isalnum() or prev in ("_", ")")):
            cuts.append(i)
        prev = prev if ch.isspace() else ch
    acc = {}
    for start, end in zip(cuts, cuts[1:] + [len(text)]):
        summand = text[start:end].strip()
        try:
            p = _polynomial(ast.parse(summand, mode="eval").body, ctx)
        except (SyntaxError, RecursionError):
            raise AlgebraError(f"cannot parse {summand!r} as a polynomial") from None
        for e, c in p.terms.items():
            acc[e] = acc.get(e, 0) + c
    return Polynomial(ctx, acc)


def _polynomial(node, ctx):
    """The polynomial of one node of ``parse_polynomial``'s grammar."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return ctx.const(node.value)
    if isinstance(node, ast.Name):
        return ctx.hbar() if node.id == "hb" else ctx.var(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        p = _polynomial(node.operand, ctx)
        return -p if isinstance(node.op, ast.USub) else p
    if isinstance(node, ast.BinOp):
        op, right = type(node.op), node.right
        if op in _BINARY:
            return _BINARY[op](_polynomial(node.left, ctx), _polynomial(right, ctx))
        if isinstance(right, ast.Constant) and type(right.value) is int:
            if op is ast.Pow:
                return _polynomial(node.left, ctx) ** right.value
            if op is ast.Div:
                if not right.value:
                    raise AlgebraError("division by zero")
                return _polynomial(node.left, ctx) * Fraction(1, right.value)
    raise AlgebraError(f"unsupported polynomial syntax {ast.unparse(node)!r}")
