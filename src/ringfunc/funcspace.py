"""Function tables over enumerated rings.

A FunctionTable is the explicit value list of an induced function [f], indexed
by the ring's canonical element order.  This module carries the pointwise ring
structure on tables, the predicates (null, unit-valued, permutation) in both
brute-force and criterion form, Lagrange interpolation over fields, the
pair-realization construction for dual permutations, and the enumeration
engine, distinct coefficient sums built degree by degree, used by the
counting and group modules.

The brute-force predicates are the oracles; the criteria are the products.
Keeping both first-class means every fast path can be cross-checked against
plain evaluation at any time.
"""

from __future__ import annotations

from functools import lru_cache
from operator import getitem

from .dual import DualRing, format_dual_element
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
        return self.values[self.ring.index(x)]

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
    if isinstance(ring, DualRing):
        return format_dual_element(ring, v)
    return ring.index(v)


def induce(f: Polynomial, ring: Ring) -> FunctionTable:
    """The table of [f] on the ring, by Horner evaluation at every element."""
    return FunctionTable(ring, ring.horner(f._coeffs_for(ring), ring.elements))


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


def permutes_prime_power(f: Polynomial, p: int, n: int) -> bool:
    """Local criterion: does f permute Z_{p^n}, decided from mod-p data only.

    True iff the residue table [f]_p permutes Z_p and (for n >= 2) the
    derivative is nonzero mod p at every point.  For n = 1 the residue check
    is the whole story; a derivative condition would wrongly reject
    permutations like x^2 on Z_2.  Checking the derivative at 0 alone is not
    enough: x^3 + x^2 + x has f'(0) = 1 and permutes Z_2, yet not Z_4.
    """
    zp = _zpn(p, 1)
    if not induce(f, zp).is_bijection():
        return False
    if n == 1:
        return True
    df = f.derive()
    return all(df.eval(zp, a) != zp.zero for a in zp.elements)


def permutes_dual(f: Polynomial, base: Ring) -> bool:
    """Criterion: a base-coefficient f permutes the dual ring iff it permutes
    the base and its derivative is unit-valued on the base."""
    return is_permutation(f, base) and is_unit_valued(f.derive(), base)


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


def monomial_stages(
    ring: Ring,
    degree_bound: int,
    domain,
    *,
    derivative_points=(),
    derivative_scale=None,
) -> list[list[tuple]]:
    """The stages of coefficient_sums for the degrees 1 .. D-1.

    Stage d - 1 lists, for each c of the domain in order, (c, term): term is
    the index table of [c x^d] on the whole ring, followed by the values of
    s * d * c x^(d-1) at the element indices derivative_points, s being
    derivative_scale (default one).  With every point there, the term is the
    pair ([c x^d], [(c x^d)']); with none, it is [c x^d] alone.
    """
    _, mul_t = ring.index_op_tables()
    pw = ring.power_index_table(max(degree_bound - 1, 0))
    points = range(ring.size)
    scale = ring.one if derivative_scale is None else derivative_scale
    stages = []
    for d in range(1, degree_bound):
        power, dpower = pw[d], pw[d - 1]
        dscale = ring.mul(scale, ring.from_int(d))
        terms = []
        for c in domain:
            row = mul_t[ring.index(c)]
            drow = mul_t[ring.index(ring.mul(dscale, c))]
            terms.append((c, tuple(
                [row[power[pt]] for pt in points]
                + [drow[dpower[pt]] for pt in derivative_points]
            )))
        stages.append(terms)
    return stages


def coefficient_sums(add_t, zero_table, stages):
    """Distinct sums of one term from each stage, with the first coefficient
    vector reaching each, in the order of a sweep that steps stage 0 fastest.

    stages[i] lists (coefficient, term table) for degree i + 1 in domain
    order (see monomial_stages); tables are index tuples added entrywise by
    the index addition table add_t.  A table is additive in the
    coefficients, [sum c_d x^d] = sum [c_d x^d], so the sums of the first k
    stages are the tables of the coefficient vectors of degree 1 .. k.

    Each stage is built with the new coefficient in domain order as the
    outer loop and the stored sums, in the order they were first reached, as
    the inner loop; the first write wins.  The first vector reaching s + t,
    for t the term of c, is then c after the first vector reaching s, for
    the first c for which s is reached: the same witness a per-candidate
    sweep keeps, and sums come out in the order it first reaches them.

    Every stage but the last is deduplicated.  The last is streamed as
    (table, coefficients) in sweep order, repeats included, so a consumer
    keeping the first of each sees the per-candidate sweep's witnesses,
    without holding the last stage's sums as well.  With no stages the
    zero table is yielded once, with no coefficients.
    """
    sums = {tuple(zero_table): ()}
    if not stages:
        yield from sums.items()
        return
    for terms in stages[:-1]:
        grown = {}
        for c, term in terms:
            rows = [add_t[b] for b in term]
            for s, coeffs in sums.items():
                t = tuple(map(getitem, rows, s))
                if t not in grown:
                    grown[t] = coeffs + (c,)
        sums = grown
    for c, term in stages[-1]:
        rows = [add_t[b] for b in term]
        for s, coeffs in sums.items():
            yield tuple(map(getitem, rows, s)), coeffs + (c,)


def induced_index_tables(
    ring: Ring, degree_bound: int | None = None, *, coeff_elements=None, cap: int | None = None
) -> set:
    """All distinct value tables induced by polynomials of degree < D, as
    index tuples.

    Candidates range over coefficient vectors from coeff_elements (default:
    the whole ring).  Adding a constant c translates a table by c, so the
    tables with constant term zero (whether or not zero is in the domain)
    are built first, degree by degree from their distinct partial sums by
    coefficient_sums, and then translated by each constant of the domain.
    The cap counts every candidate, |domain|^D.
    """
    D = null_degree_bound(ring) if degree_bound is None else degree_bound
    domain = list(ring.elements if coeff_elements is None else coeff_elements)
    if not domain:
        raise ValueError("empty coefficient domain")
    check_cap(len(domain) ** D, cap, "polynomial enumeration")
    zero = (ring.index(ring.zero),) * ring.size
    if D <= 0:
        return {zero}
    add_t = ring.index_op_tables()[0]
    found = {
        t for t, _ in coefficient_sums(add_t, zero, monomial_stages(ring, D, domain))
    }
    shifts = [add_t[ring.index(c)].__getitem__ for c in domain]
    return {tuple(map(shift, t)) for t in found for shift in shifts}


def induced_tables(
    ring: Ring, degree_bound: int | None = None, *, coeff_elements=None, cap: int | None = None
) -> frozenset:
    """All distinct value tables induced by polynomials of degree < D, as
    tuples of encodings: the tables of induced_index_tables."""
    tables = induced_index_tables(ring, degree_bound, coeff_elements=coeff_elements, cap=cap)
    if ring.integer_encoded:
        return frozenset(tables)
    els = ring.elements
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
