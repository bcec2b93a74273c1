"""Function tables over enumerated rings.

A FunctionTable is the explicit value list of an induced function [f], indexed
by the ring's canonical element order.  This module carries the pointwise ring
structure on tables, the predicates (null, unit-valued, permutation) in both
brute-force and criterion form, Lagrange interpolation over F_q by the basis
L_a = 1 - (x - a)^(q-1) = 1 - sum_k a^(q-1-k) x^k ([L_a] is the indicator of
a, as c^(q-1) = 1 for c != 0, and (x - a)^q = x^q - a = (x - a) sum_k
a^(q-1-k) x^k), the Hermite basis over fields and the pair module over Z/m
that realize pairs ([f], [f']), and the induced tables of polynomials of
degree < D: the additive span of the monomial tables [c x^d]
(coefficient_sums), translated by the constants, from which the counts and
the semidirect product's factors are read.

The brute-force predicates are the oracles; the criteria are the products.
Keeping both first-class means every fast path can be cross-checked against
plain evaluation at any time.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from math import gcd
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

    def is_zero(self) -> bool:
        return all(v == self.ring.zero for v in self.values)

    def is_bijection(self) -> bool:
        return len(set(self.values)) == self.ring.size

    def is_unit_valued(self) -> bool:
        return self.ring.unit_set.issuperset(self.values)

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

    def __eq__(self, other):
        if not isinstance(other, FunctionTable):
            return NotImplemented
        return self.ring == other.ring and self.values == other.values

    def __hash__(self):
        return hash((self.ring, self.values))

    def __repr__(self):
        return f"FunctionTable({self.ring.descriptor}, {self.values!r})"

    def to_json_dict(self) -> dict:
        values = [render_value(self.ring, v) for v in self.values]
        return {"ring": self.ring.descriptor, "values": values}


def render_value(ring: Ring, v) -> object:
    """JSON rendering of one element: residue int, field index, or 'a+b*al'."""
    if isinstance(ring, DualRing):
        return format_dual_element(ring, v)
    return ring.index(v)


def induce(f: Polynomial, ring: Ring) -> FunctionTable:
    """The table of [f] on the ring, by Ring.evaluate_everywhere: on a
    residue ring one multiply-add of packed power rows per coefficient, and
    elsewhere Horner at every element."""
    return FunctionTable(ring, ring.evaluate_everywhere(f._coeffs_for(ring)))


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
    """The unique polynomial of degree <= q-1 inducing F over a field, the
    sum of F(a) L_a over the closed-form basis L_a = 1 - (x - a)^(q-1).

    Over a prime field the result has integer coefficients in [0, p-1]; over
    an extension field the coefficients are field elements.
    """
    ring = F.ring
    coeffs = hermite_sum(ring, _lagrange_basis(ring), map(ring.index, F.values))
    return index_polynomial(ring, coeffs)


def _lagrange_basis(ring: Ring) -> list[list[int]]:
    """The Lagrange basis L_a = 1 - (x - a)^(q-1) of a field F_q, one
    vector of q coefficient indices per element index a, constant term
    first: 1 - a^(q-1), then -a^(q-1-k) for k = 1 .. q-1 (0^0 = 1)."""
    if not ring.is_field:
        raise ValueError(f"{ring.descriptor} is not a field")
    q = ring.size
    add_t = ring.index_op_tables()[0]
    zero, one = ring.index(ring.zero), ring.index(ring.one)
    neg = [row.index(zero) for row in add_t]
    pw = ring.power_index_table(q - 1)[q - 1 :: -1]  # pw[k][a]: a^(q-1-k)
    return [[add_t[one][neg[pw[0][a]]]] + [neg[row[a]] for row in pw[1:]] for a in range(q)]


def hermite_basis(ring: Ring) -> tuple[list[list[int]], list[list[int]]]:
    """The Hermite basis (H, K) of a field F_q, as index vectors of the 2q
    coefficients, constant term first, one H_a and one K_a per element
    index a.

    From the Lagrange basis L_a: H_a = L_a + L_a'(x^q - x) and
    K_a = -L_a (x^q - x).  On the field x^q - x vanishes and its derivative
    is -1, so [H_a] = [K_a'] is the indicator of a and [H_a'] = [K_a] = 0.
    Then g = sum_a G(a) H_a + F(a) K_a has [g] = G and [g'] = F, and it is
    the only such g of degree < 2q: (x^q - x)^2 divides the difference of
    two.  Built on each call from L_a = 1 - (x - a)^(q-1) (_lagrange_basis).
    """
    q = ring.size
    add_t, mul_t = ring.index_op_tables()
    zero = ring.index(ring.zero)
    neg = [row.index(zero) for row in add_t]
    scales = [ring.index(ring.from_int(k)) for k in range(1, q)]

    def times_vanishing(v):
        # v * (x^q - x) for v of degree < q: +v shifted up by q, -v by one
        out = [zero] + [neg[c] for c in v] + [zero] * (q - 1)
        for k, c in enumerate(v):
            out[q + k] = add_t[out[q + k]][c]
        return out

    H, K = [], []
    for la in _lagrange_basis(ring):
        dla = [mul_t[s][c] for s, c in zip(scales, la[1:])] + [zero]
        H.append([add_t[u][v] for u, v in zip(la + [zero] * q, times_vanishing(dla))])
        K.append([neg[v] for v in times_vanishing(la)])
    return H, K


def hermite_sum(ring: Ring, basis, table) -> list[int]:
    """sum_a table[a] * basis[a] on index vectors, table an index table."""
    add_t, mul_t = ring.index_op_tables()
    acc = [ring.index(ring.zero)] * len(basis[0])
    for t, vec in zip(table, basis):
        row = mul_t[t]
        acc = [add_t[s][row[v]] for s, v in zip(acc, vec)]
    return acc


def ring_polynomial(ring: Ring, coeffs) -> Polynomial:
    """The polynomial over the ring with the element encodings coeffs,
    constant term first: integer coefficients on a residue ring, whose
    encodings are integers, and ring-tagged elsewhere."""
    return Polynomial(coeffs, None if ring.integer_encoded else ring)


def index_polynomial(ring: Ring, vec) -> Polynomial:
    """ring_polynomial of the elements with the indices vec."""
    return ring_polynomial(ring, map(ring.elements.__getitem__, vec))


def hermite_preimage(base: Ring):
    """The function (G, F) -> the index vector, 2q coefficients, constant
    term first, of the only g of degree < 2q over F_q with [g] = G and
    [g'] = F, G and F index tuples: A_G + B_F, A_G = sum_a G(a) H_a and
    B_F = sum_a F(a) K_a (hermite_basis, built on the first call).  A_G
    plus B_F below the point h = q // 2 is kept for G and F there, and B_F
    from h on for F there, so the items of a listing share them: the
    stabilizer's (q - 1)^q null parts have at most 2 (q - 1)^(q - h)."""
    add_t, h = base.index_op_tables()[0], base.size // 2
    built = lru_cache(maxsize=None)(lambda: hermite_basis(base))

    @lru_cache(maxsize=None)
    def part(i, table, a=0):
        # the sum of table(k) times basis i (H, then K) at the points k from a
        return hermite_sum(base, built()[i][a:a + len(table)], table)

    low = lru_cache(maxsize=None)(  # as the rows of add_t at its coefficients
        lambda G, F: [add_t[add_t[u][v]] for u, v in zip(part(0, G), part(1, F))])
    return lambda G, F: list(map(getitem, low(G, F[:h]), part(1, F[h:], h)))


def realize_pair(G: FunctionTable, F: FunctionTable) -> Polynomial:
    """The polynomial g over a field with [g] = G and [g'] = F of degree
    <= 2q-1, the Hermite form sum_a G(a) H_a + F(a) K_a (hermite_preimage)
    that the group listings and the embedding's witnesses read too."""
    ring = G.ring
    G._require_same_ring(F)
    if not ring.is_field:
        raise ValueError(f"{ring.descriptor} is not a field")
    if not G.is_bijection():
        raise ValueError("first table must be a bijection")
    if not F.is_unit_valued():
        raise ValueError("second table must be unit-valued")
    pair = (tuple(map(ring.index, t.values)) for t in (G, F))
    g = index_polynomial(ring, hermite_preimage(ring)(*pair))
    if induce(g, ring) != G or induce(g.derive(), ring) != F:
        raise RuntimeError("pair realization failed its postcondition")
    return g


def null_degree_bound(ring: Ring) -> int:
    """Least degree D with a monic null polynomial of degree D on the ring,
    so that every polynomial function is induced by some f of degree < D.

    Fields: D = q (x^q - x).  Z_m: the least k with m | k!, since the degree-k
    falling factorial has all values divisible by k!.  Dual rings inherit the
    base's null-pair bound (dual_degree_bound, found by span membership with
    no search): a monic base polynomial with [g] = 0 and [g'] = 0 stays monic
    and null after embedding.
    """
    base = getattr(ring, "base", None)
    if base is not None:
        return dual_degree_bound(base)
    if ring.is_field:
        return ring.size
    m = ring.size
    k, fact = 1, 1
    while fact % m:
        k += 1
        fact *= k
    return k


def dual_degree_bound(base: Ring) -> int:
    """Least degree D of a monic base polynomial g null on base[al], that is
    with [g] = 0 and [g'] = 0 on the base; reduction by g shows that every
    dual permutation comes from a polynomial of degree < D.

    Fields give 2q, by (x^q - x)^2.  Over Z/m, D is the first degree whose
    pair ([x^D], [D x^(D-1)]) in (Z/m)^(2m) lies in the span of the pairs of
    x^0 .. x^(D-1) (_merge): x^D minus that combination is a monic null
    pair, and a monic null g of degree D puts it there.  Nothing is searched.
    """
    if base.is_field:
        return 2 * base.size
    m = base.size
    rows = [[m * (i == j) for i in range(2 * m)] for j in range(2 * m)]
    return next(D for D, v in enumerate(_monomial_pairs(m)) if _merge(rows, v, m))


def _monomial_pairs(m: int):
    """The pairs ([x^k], [k x^(k-1)]) over Z/m, for k = 0, 1, 2, ..."""
    power, lower = [1] * m, [0] * m
    for k in count():
        yield power + [k * p % m for p in lower]
        power, lower = [p * x % m for x, p in enumerate(power)], power


def _merge(rows, v, m: int) -> bool:
    """Add v to the span over Z/m of the triangular rows, rows m e_j to
    start; whether it was there already.  v reduces column by column, each
    pivot a dividing its entry b; where it does not, v merges into the row
    by a Bezout step g = s a + t b: the row becomes s row + t v, and
    (b/g) row - (a/g) v goes on.  The steps are unimodular and reduce mod m
    by lattice vectors only, so the rows stay a basis of the lattice they
    span with m Z^n: whatever of the span is zero before a column is spanned
    by the rows from that column on (the Howell property; Howell, "Spans in
    the module (Z_m)^s", 1986).
    """
    member = True
    for j, row in enumerate(rows):
        a, b = row[j], v[j]
        if not b:
            continue
        if b % a == 0:
            v = [(x - b // a * y) % m for x, y in zip(v, row)]
            continue
        member = False
        g = gcd(a, b)
        t = pow(b // g, -1, a // g)
        s = (g - t * b) // a
        rows[j] = [(s * y + t * x) % m for x, y in zip(v, row)]
        v = [(b // g * y - a // g * x) % m for x, y in zip(v, row)]
    return member


def pair_module(base: Ring) -> list[list[int]]:
    """The triangular basis over Z/m (_merge) of the rows
    [([x^k], [x^k']) | e_k] for k < D, the dual degree bound: the pair, then
    the coefficients from x^(D-1) down to x^0.  It spans the graph of
    f -> ([f], [f']) on degree < D, which reaches every pair; rows m .. 2m-1
    span the [g'] of [g] = 0, and the rows from 2m on the null pairs."""
    m, D = base.size, dual_degree_bound(base)
    rows = [[m * (i == j) for i in range(2 * m + D)] for j in range(2 * m + D)]
    for k, v in zip(range(D), _monomial_pairs(m)):
        _merge(rows, v + [int(i == D - 1 - k) for i in range(D)], m)
    return rows


def least_member(rows, head, m: int, x=None, start: int = 0, stop=None) -> list[int]:
    """The member of the span of the triangular rows (pair_module) that
    begins with head, which must begin one, each later entry the least
    given the earlier ones: back-substitution, then greedy reduction.
    Rows start .. stop - 1 only, from x, the state the rows before start
    left for a head with the same entries there."""
    x = [0] * len(rows) if x is None else list(x)
    for i in range(start, len(rows) if stop is None else stop):
        row = rows[i]
        c = (head[i] - x[i]) % m // row[i] if i < len(head) else -(x[i] // row[i])
        if c:  # the row is zero before column i
            x[i:] = [(u + c * w) % m for u, w in zip(x[i:], row[i:])]
    return x


def monomial_stages(ring: Ring, degree_bound: int) -> list[list[tuple]]:
    """The stages of coefficient_sums for the degrees 1 .. D-1: stage d - 1
    lists [c x^d], the index table of c x^d on the whole ring, for each c
    of the ring."""
    _, mul_t = ring.index_op_tables()
    pw = ring.power_index_table(max(degree_bound - 1, 0))
    return [[tuple(map(row.__getitem__, pw[d])) for row in mul_t] for d in range(1, degree_bound)]


def coefficient_sums(add_t, zero_table, stages) -> set:
    """The distinct sums of one term from each stage: the zero table alone
    with no stages.

    stages[i] lists the term tables of degree i + 1 (see monomial_stages),
    index tuples added entrywise by the index addition table add_t, closed
    under addition, as the tables of c x^d over every c are.  A table is
    additive in the coefficients, [sum c_d x^d] = sum [c_d x^d], so the sums
    of the first k stages are the tables of the polynomials of degree 1 .. k
    with no constant term, and they form a group S.  One term per coset of
    S is stepped: t is skipped if t - r is in S for an earlier kept term r,
    as then S + t = S + r.  Each distinct sum is then built once.
    """
    sums = {tuple(zero_table)}
    neg = [row.index(zero_table[0]) for row in add_t]
    for terms in stages:
        grown, kept = set(), []
        for term in terms:
            rows = [add_t[b] for b in term]
            if any(tuple(map(getitem, rows, r)) in sums for r in kept):
                continue
            kept.append([neg[b] for b in term])
            grown.update(tuple(map(getitem, rows, s)) for s in sums)
        sums = grown
    return sums


def induced_index_tables(
    ring: Ring, degree_bound: int | None = None, *, cap: int | None = None
) -> set:
    """All distinct value tables induced by polynomials of degree < D, as
    index tuples.

    Adding a constant c translates a table by c, so the tables with
    constant term zero are built first, as the span of the monomial tables
    (coefficient_sums), and then translated by each constant.  The cap
    counts every candidate, |R|^D.
    """
    D = null_degree_bound(ring) if degree_bound is None else degree_bound
    check_cap(ring.size ** D, cap, "polynomial enumeration")
    zero = (ring.index(ring.zero),) * ring.size
    if D <= 0:
        return {zero}
    add_t = ring.index_op_tables()[0]
    found = coefficient_sums(add_t, zero, monomial_stages(ring, D))
    return {tuple(map(row.__getitem__, t)) for t in found for row in add_t}


def induced_tables(
    ring: Ring, degree_bound: int | None = None, *, cap: int | None = None
) -> frozenset:
    """All distinct value tables induced by polynomials of degree < D, as
    tuples of encodings: the tables of induced_index_tables."""
    tables = induced_index_tables(ring, degree_bound, cap=cap)
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
    return frozenset(
        t for t in induced_tables(ring, degree_bound, cap=cap) if ring.unit_set.issuperset(t)
    )
