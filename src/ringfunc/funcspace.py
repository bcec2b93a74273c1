"""Function tables over enumerated rings.

A FunctionTable is the explicit value list of an induced function [f], indexed
by the ring's canonical element order.  This module carries the pointwise ring
structure on tables, the predicates (null, unit-valued, permutation) in both
brute-force and criterion form, Lagrange interpolation over fields, the
pair-realization construction for dual permutations, and the exhaustive
enumeration core used by the counting and group modules.

The brute-force predicates are the oracles; the criteria are the products.
Keeping both first-class means every fast path can be cross-checked against
plain evaluation at any time.
"""

from __future__ import annotations

from functools import lru_cache

from .poly import Polynomial
from .rings import PrimePowerRing, Ring, check_cap


class FunctionTable:
    """Value table of a function on an enumerated ring."""

    __slots__ = ("ring", "values")

    def __init__(self, ring: Ring, values):
        values = tuple(values)
        if len(values) != ring.size:
            raise ValueError(
                f"table length {len(values)} does not match |{ring.descriptor}| = {ring.size}"
            )
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("FunctionTable is immutable")

    @classmethod
    def identity(cls, ring: Ring) -> "FunctionTable":
        return cls(ring, ring.elements)

    @classmethod
    def constant(cls, ring: Ring, value) -> "FunctionTable":
        return cls(ring, (value,) * ring.size)

    @classmethod
    def zero(cls, ring: Ring) -> "FunctionTable":
        return cls.constant(ring, ring.zero)

    @classmethod
    def one(cls, ring: Ring) -> "FunctionTable":
        return cls.constant(ring, ring.one)

    def value_at(self, x):
        return self.values[self.ring.index(getattr(x, "encoding", x))]

    def is_zero(self) -> bool:
        return all(v == self.ring.zero for v in self.values)

    def is_bijection(self) -> bool:
        return len(set(self.values)) == self.ring.size

    def is_unit_valued(self) -> bool:
        ring = self.ring
        return all(ring.is_unit(v) for v in self.values)

    def _require_same_ring(self, other: "FunctionTable"):
        if self.ring != other.ring:
            raise ValueError(
                f"tables over different rings: {self.ring.descriptor} vs {other.ring.descriptor}"
            )

    def pointwise_add(self, other: "FunctionTable") -> "FunctionTable":
        self._require_same_ring(other)
        add = self.ring.add
        return FunctionTable(self.ring, (add(a, b) for a, b in zip(self.values, other.values)))

    def pointwise_mul(self, other: "FunctionTable") -> "FunctionTable":
        self._require_same_ring(other)
        mul = self.ring.mul
        return FunctionTable(self.ring, (mul(a, b) for a, b in zip(self.values, other.values)))

    def compose(self, inner: "FunctionTable") -> "FunctionTable":
        """self after inner: r -> self(inner(r))."""
        self._require_same_ring(inner)
        index = self.ring.index
        return FunctionTable(self.ring, (self.values[index(v)] for v in inner.values))

    def inverse_permutation(self) -> "FunctionTable":
        if not self.is_bijection():
            raise ValueError("table is not a bijection")
        ring = self.ring
        out = [None] * ring.size
        for i, v in enumerate(self.values):
            out[ring.index(v)] = ring.elements[i]
        return FunctionTable(ring, out)

    def __eq__(self, other):
        if not isinstance(other, FunctionTable):
            return NotImplemented
        return self.ring == other.ring and self.values == other.values

    def __hash__(self):
        return hash((self.ring, self.values))

    def __repr__(self):
        return f"FunctionTable({self.ring.descriptor}, {self.values!r})"

    def to_json_dict(self) -> dict:
        return {"ring": self.ring.descriptor, "values": [render_value(self.ring, v) for v in self.values]}


def render_value(ring: Ring, v) -> object:
    """JSON rendering of one element: residue int, field index, or 'a+b*al'."""
    base = getattr(ring, "base", None)
    if base is not None:
        a, b = v
        return f"{base.index(a)}+{base.index(b)}*al"
    return ring.index(v)


def induce(f: Polynomial, ring: Ring) -> FunctionTable:
    """The table of [f] on the ring, by Horner evaluation at every element."""
    coeffs = f._coeffs_for(ring)
    add, mul = ring.add, ring.mul
    rev = coeffs[::-1]
    values = []
    for r in ring.elements:
        acc = ring.zero
        for c in rev:
            acc = add(mul(acc, r), c)
        values.append(acc)
    return FunctionTable(ring, values)


def is_null(f: Polynomial, ring: Ring) -> bool:
    """Whether f induces the zero function on the ring."""
    return induce(f, ring).is_zero()


def is_unit_valued(f: Polynomial, ring: Ring) -> bool:
    """Whether every value of [f] is a unit."""
    return induce(f, ring).is_unit_valued()


def is_permutation(f: Polynomial, ring: Ring) -> bool:
    """Brute-force permutation test: the induced table is a bijection.

    This is the oracle the criterion implementations are validated against.
    """
    return induce(f, ring).is_bijection()


@lru_cache(maxsize=None)
def _zpn(p: int, n: int) -> PrimePowerRing:
    return PrimePowerRing(p, n)


def permutes_prime_power(
    f: Polynomial, p: int, n: int, *, derivative_on_ideal_only: bool = False
) -> bool:
    """Local criterion: does f permute Z_{p^n}, decided from mod-p data only.

    True iff the residue table [f]_p permutes Z_p and (for n >= 2) the
    derivative is nonzero mod p at every point.  For n = 1 the residue check
    is the whole story; a derivative condition would wrongly reject
    permutations like x^2 on Z_2.

    derivative_on_ideal_only restricts the derivative check to the points of
    the maximal ideal (residue 0).  That reading is demonstrably weaker: it
    accepts x^3 + x^2 + x mod 4, which does not permute Z_4.  It is exposed
    so the discrepancy can be shown, not used.
    """
    zp = _zpn(p, 1)
    if not induce(f, zp).is_bijection():
        return False
    if n == 1:
        return True
    df = f.derive()
    points = (zp.zero,) if derivative_on_ideal_only else zp.elements
    return all(df.eval(zp, a) != zp.zero for a in points)


def permutes_dual(f: Polynomial, base: Ring) -> bool:
    """Criterion: a base-coefficient f permutes the dual ring iff it permutes
    the base and its derivative is unit-valued on the base."""
    return is_permutation(f, base) and is_unit_valued(f.derive(), base)


def pointwise_add(F: FunctionTable, G: FunctionTable) -> FunctionTable:
    return F.pointwise_add(G)


def pointwise_mul(F: FunctionTable, G: FunctionTable) -> FunctionTable:
    return F.pointwise_mul(G)


def invert_unit_table(F: FunctionTable) -> FunctionTable:
    """Pointwise multiplicative inverse; fails if any value is a non-unit."""
    ring = F.ring
    out = []
    for v in F.values:
        if not ring.is_unit(v):
            raise ValueError(f"non-unit value {v!r}: table is not in the unit group")
        out.append(ring.inverse(v))
    return FunctionTable(ring, out)


def lagrange(F: FunctionTable) -> Polynomial:
    """The unique polynomial of degree <= q-1 inducing F over a field.

    Over a prime field the result has integer coefficients in [0, p-1]; over
    an extension field the coefficients are field elements.
    """
    ring = F.ring
    if not ring.is_field:
        raise ValueError(f"{ring.descriptor} is not a field")
    if ring.integer_encoded:
        p = ring.size
        result = Polynomial.zero()
        for a in ring.elements:
            y = F.values[a]
            if y == 0:
                continue
            basis = Polynomial((1,))
            denom = 1
            for b in ring.elements:
                if b != a:
                    basis = basis * Polynomial((-b, 1))
                    denom *= a - b
            result = result + basis * (y * pow(denom % p, -1, p))
        return result.reduced_mod(p)
    result = Polynomial.zero(ring)
    xs = ring.elements
    for i, a in enumerate(xs):
        y = F.values[i]
        if y == ring.zero:
            continue
        basis = Polynomial((ring.one,), ring)
        denom = ring.one
        for b in xs:
            if b != a:
                basis = basis * Polynomial((ring.neg(b), ring.one), ring)
                denom = ring.mul(denom, ring.sub(a, b))
        scale = ring.mul(y, ring.inverse(denom))
        result = result + basis * Polynomial((scale,), ring)
    return result


def realize_pair(G: FunctionTable, F: FunctionTable) -> Polynomial:
    """A polynomial g over a field with [g] = G and [g'] = F, degree <= 2q-1.

    Interpolate f0 for G and f1 for F, then correct with a multiple of the
    vanishing polynomial x^q - x: g = f0 + (f0' - f1)(x^q - x).  On field
    points the correction term vanishes and its derivative contributes
    f1 - f0', so the pair comes out exactly.
    """
    ring = G.ring
    G._require_same_ring(F)
    if not ring.is_field:
        raise ValueError(f"{ring.descriptor} is not a field")
    if not G.is_bijection():
        raise ValueError("first table must be a bijection")
    if not F.is_unit_valued():
        raise ValueError("second table must be unit-valued")
    q = ring.size
    f0 = lagrange(G)
    f1 = lagrange(F)
    if ring.integer_encoded:
        vanish = Polynomial.monomial(1, q) - Polynomial.x()
        g = (f0 + (f0.derive() - f1) * vanish).reduced_mod(q)
    else:
        xpoly = Polynomial((ring.zero, ring.one), ring)
        g = f0 + (f0.derive() - f1) * (xpoly ** q - xpoly)
    if induce(g, ring) != G or induce(g.derive(), ring) != F:
        raise RuntimeError("pair realization failed its postcondition")
    return g


def null_degree_bound(ring: Ring) -> int:
    """Least degree D with a monic null polynomial of degree D on the ring,
    so that every polynomial function is induced by some f of degree < D.

    Fields: D = q (x^q - x).  Z_m: the least k with m | k!, since the degree-k
    falling factorial has all values divisible by k!.  Dual rings inherit the
    base's null-pair bound: a monic base polynomial with [g] = 0 and [g'] = 0
    stays monic and null after embedding.
    """
    base = getattr(ring, "base", None)
    if base is not None:
        from .groups import dual_degree_bound

        return dual_degree_bound(base)
    if ring.is_field:
        return ring.size
    m = ring.size
    k, fact = 1, 1
    while fact % m:
        k += 1
        fact *= k
    return k


def induced_tables(
    ring: Ring,
    degree_bound: int | None = None,
    *,
    coeff_elements=None,
    cap: int | None = None,
) -> frozenset:
    """All distinct value tables induced by polynomials of degree < D.

    Candidates range over coefficient vectors from coeff_elements (default:
    the whole ring).  Adding a constant c translates a table by c, so the
    sweep steps only the coefficients of degree 1 .. D-1 with the constant
    term zero (whether or not zero is in the domain), and the distinct
    tables found are then translated by each constant of the domain.
    Stepping one coefficient adjusts every table entry by a precomputed
    delta row, so a table costs O(|ring|) lookups and no ring arithmetic.
    The cap counts every candidate, |domain|^D.
    """
    D = null_degree_bound(ring) if degree_bound is None else degree_bound
    domain = list(ring.elements if coeff_elements is None else coeff_elements)
    if not domain:
        raise ValueError("empty coefficient domain")
    check_cap(len(domain) ** D, cap, "polynomial enumeration")
    size = ring.size
    if D <= 0:
        return frozenset({(ring.zero,) * size})
    add_t, mul_t = ring.index_op_tables()
    pw = ring.power_index_table(D - 1)
    dom_idx = [ring.index(e) for e in domain]
    ndom = len(dom_idx)
    els = ring.elements
    zero_idx = ring.index(ring.zero)

    def delta_row(d: int, from_idx: int, to_idx: int) -> list[int]:
        diff = ring.index(ring.sub(els[to_idx], els[from_idx]))
        row = mul_t[diff]
        return [row[pw[d][pt]] for pt in range(size)]

    # step[d - 1][k]: coefficient d moves from domain[k] to the next, cyclically
    step = [
        [delta_row(d, dom_idx[k], dom_idx[(k + 1) % ndom]) for k in range(ndom)]
        for d in range(1, D)
    ]

    # start with every coefficient of degree >= 1 equal to domain[0]
    table = [zero_idx] * size
    for d in range(1, D):
        term = delta_row(d, zero_idx, dom_idx[0])
        table = [add_t[a][b] for a, b in zip(table, term)]

    digits = [0] * (D - 1)
    found = set()
    while True:
        found.add(tuple(table))
        for pos, k in enumerate(digits):
            term = step[pos][k]
            table = [add_t[a][b] for a, b in zip(table, term)]
            digits[pos] = (k + 1) % ndom
            if digits[pos]:
                break
        else:
            break
    shifts = [add_t[i].__getitem__ for i in dom_idx]
    tables = {tuple(map(shift, t)) for t in found for shift in shifts}
    if ring.integer_encoded:
        return frozenset(tables)
    return frozenset(tuple(els[i] for i in t) for t in tables)


def permutation_tables(
    ring: Ring, degree_bound: int | None = None, cap: int | None = None
) -> frozenset:
    """Distinct bijective tables induced by polynomials of degree < D."""
    size = ring.size
    return frozenset(
        t for t in induced_tables(ring, degree_bound, cap=cap) if len(set(t)) == size
    )


def unit_valued_tables(
    ring: Ring, degree_bound: int | None = None, cap: int | None = None
) -> frozenset:
    """Distinct unit-valued tables induced by polynomials of degree < D."""
    unit_set = frozenset(ring.units())
    return frozenset(
        t
        for t in induced_tables(ring, degree_bound, cap=cap)
        if all(v in unit_set for v in t)
    )
