"""Permutation groups of dual rings and the semidirect product they embed in.

Every group element here is one kind of object: a DualPermutation, the
permutation of R[al] it is, stored as a table on dual element indices
(a * |R| + b for a + b*al).  A pair of base tables (G, F), G a bijection
and F unit-valued, acts on R[al] as (a, b) -> (G(a), F(a) * b).  The image
of (a, 1) is then (G(a), F(a)), so the row b = 1 of the table reads the pair
back.  Composing two such tables gives the table of the twisted product
(G1, F1) * (G2, F2) = (G1 o G2, (F1 o G2) . F2), the semidirect product of
the induced permutations with the pointwise unit group acting by
precomposition.  Products are compositions of tables, so associativity holds
by construction.

Three sets of elements come out of this module:
- the semidirect product F(R)^x ⋊ P(R): every pair of an induced permutation
  and an induced unit-valued table;
- the dual permutations: a base-coefficient polynomial f permutes R[al]
  exactly when it permutes R and f' is unit-valued, and it acts by the pair
  ([f], [f']);
- the stabilizer of the base points: the dual permutations with G = id,
  x + g for a null polynomial g, acting by the pair (id, [1 + g']).

verify_group_axioms checks closure exactly from a greedy generating set S,
with |G| * |S| products instead of |G|^2, and the identity and inverses on
every element.  verify_embedding sweeps the coefficients once for both the
dual permutations and the stabilizer.  It checks the homomorphism law by
comparing the pair read back from d * s with the twisted product of the
pairs of d and s, for every d and every generator s.  It decides membership
of the image in the semidirect product per element: G among the induced
permutations and F among the induced unit-valued tables.  Surjectivity then
is |image| = |P(R)| * |F(R)^x|; the product itself is never built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import getitem, itemgetter

from .dual import DualRing, dual_ring
from .funcspace import (
    FunctionTable,
    coefficient_sums,
    induced_index_tables,
    monomial_stages,
    null_degree_bound,
)
from .poly import Polynomial
from .rings import Ring, check_cap


class DualPermutation:
    """A permutation of R[al] of the form (a, b) -> (G(a), F(a) * b).

    table maps dual element index to dual element index.  witness is a
    polynomial inducing the permutation when one is known; products and
    inverses drop it, and equality ignores it.
    """

    __slots__ = ("dual", "table", "witness")

    def __init__(self, dual: DualRing, table, witness: Polynomial | None = None):
        table = tuple(table)
        if len(table) != dual.size or set(table) != set(range(dual.size)):
            raise ValueError("not a permutation table of the dual ring")
        self.dual = dual
        self.table = table
        self.witness = witness

    @classmethod
    def _make(cls, dual, table, witness=None):
        el = object.__new__(cls)
        el.dual = dual
        el.table = table
        el.witness = witness
        return el

    @classmethod
    def identity(cls, dual: DualRing) -> "DualPermutation":
        return cls._make(dual, tuple(range(dual.size)), Polynomial.x())

    @classmethod
    def from_pair(cls, dual: DualRing, G, F) -> "DualPermutation":
        """The element of the base pair (G, F), both index tables over the
        base: G must be a bijection and F unit-valued."""
        base = dual.base
        G, F = tuple(G), tuple(F)
        if len(G) != base.size or len(F) != base.size:
            raise ValueError("tables must cover the whole ring")
        if set(G) != set(range(base.size)):
            raise ValueError("first component is not a permutation")
        mask = base.unit_index_mask()
        if not all(mask[i] for i in F):
            raise ValueError("second component is not unit-valued")
        return cls._make(dual, _pair_table(base, G, F))

    def __mul__(self, other: "DualPermutation") -> "DualPermutation":
        if self.dual is not other.dual and self.dual != other.dual:
            raise ValueError("permutations live over different dual rings")
        return DualPermutation._make(self.dual, itemgetter(*other.table)(self.table))

    def inverse(self) -> "DualPermutation":
        out = [0] * len(self.table)
        for i, j in enumerate(self.table):
            out[j] = i
        return DualPermutation._make(self.dual, tuple(out))

    def base_pair(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Index tables (G, F) on the base, read off the row b = 1, whose
        entry a is the index G(a) * |R| + F(a) of (G(a), F(a))."""
        base = self.dual.base
        nb = base.size
        row = self.table[base.index(base.one)::nb]
        return tuple(map(nb.__rfloordiv__, row)), tuple(map(nb.__rmod__, row))

    def __eq__(self, other):
        if not isinstance(other, DualPermutation):
            return NotImplemented
        return self.table == other.table and self.dual == other.dual

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"DualPermutation({self.dual.descriptor}, {self.table})"


def _pair_table(base: Ring, G, F) -> tuple[int, ...]:
    """Dual table of the base pair: (a, b) -> (G(a), F(a) * b)."""
    nb = base.size
    mul_t = base.index_op_tables()[1]
    out = []
    for g, f in zip(G, F):
        shift = g * nb
        out += [shift + v for v in mul_t[f]]
    return tuple(out)


def precompose_units(F: FunctionTable, G: FunctionTable) -> FunctionTable:
    """Action of a permutation G on a unit table F: the table F o G."""
    if not G.is_bijection():
        raise ValueError("action requires a bijection")
    return F.compose(G)


def semidirect_pairs(ring: Ring, *, cap: int | None = None) -> tuple[list, list]:
    """The induced permutations and the induced unit-valued tables of the
    ring, each as sorted index tables: the two factors of the semidirect
    product, filtered from one pass of induced_index_tables.  The cap also
    bounds the product's size."""
    tables = induced_index_tables(ring, cap=cap)
    size = ring.size
    mask = ring.unit_index_mask()
    perms = sorted(t for t in tables if len(set(t)) == size)
    units = sorted(t for t in tables if all(map(mask.__getitem__, t)))
    check_cap(len(perms) * len(units), cap, "semidirect product")
    return perms, units


def semidirect_group(ring: Ring, *, cap: int | None = None) -> list[DualPermutation]:
    """Every (induced permutation, induced unit table) pair over the ring,
    as a permutation of R[al]; permutation-major, each factor in table order."""
    perms, units = semidirect_pairs(ring, cap=cap)
    dual = dual_ring(ring)
    return [
        DualPermutation._make(dual, _pair_table(ring, G, F)) for G in perms for F in units
    ]


def pair_table_sweep(
    base: Ring, degree_bound: int, *, coeff_elements=None, cap: int | None = None
):
    """The per-candidate oracle: sweep the coefficient vectors of degree <
    degree_bound over the base ring, yielding (f_table, derivative_table,
    coefficients) for each.

    Tables are index tuples over the base, from straight Horner evaluation
    of f and f' at every point; coefficients come back as a tuple of base
    encodings, constant term first, and the constant term steps fastest, in
    domain order.  A degree bound of 0 or less yields the zero polynomial
    alone.  The cap counts every candidate, |domain|^D.

    No library code sweeps this way: coefficient_sums is the engine.  This
    stays in the package because perfbench/test_perfbench.py and
    perfbench/spans.py call and trace it by name.
    """
    domain = list(base.elements if coeff_elements is None else coeff_elements)
    if not domain:
        raise ValueError("empty coefficient domain")
    D = max(degree_bound, 0)
    check_cap(len(domain) ** D, cap, "pair sweep")
    els = base.elements
    scales = [base.from_int(k) for k in range(1, D)]
    for vec in product(domain, repeat=D):
        coeffs = vec[::-1]
        dcoeffs = list(map(base.mul, scales, coeffs[1:]))
        yield (
            tuple(map(base.index, base.horner(coeffs, els))),
            tuple(map(base.index, base.horner(dcoeffs, els))),
            coeffs,
        )


def _pair_sums(base: Ring, degree_bound: int, *, cap: int | None = None):
    """The pairs ([f0], [f0']) of the polynomials f0 of degree < D with
    constant term zero and base coefficients, by coefficient_sums.

    Yields (f0_table + derivative_table, rest), both tables as index tuples
    and rest the coefficients of degree 1 .. D-1.  Every pair comes at least
    once, and its first occurrence carries the first candidate of
    pair_table_sweep with constant term zero and that pair.  The cap counts
    every candidate, |base|^D, and is checked before any work.
    """
    check_cap(base.size ** degree_bound, cap, "pair sweep")
    add_t = base.index_op_tables()[0]
    stages = monomial_stages(
        base, degree_bound, base.elements, derivative_points=range(base.size)
    )
    zero = (base.index(base.zero),) * (2 * base.size)
    return coefficient_sums(add_t, zero, stages)


_BOUND_CACHE: dict[str, int] = {}


def dual_degree_bound(base: Ring, *, cap: int | None = None) -> int:
    """Least degree of a monic base polynomial that is null on base[al].

    Such a polynomial has [g] = 0 and [g'] = 0 on the base, so reduction by
    it shows every dual permutation comes from a polynomial of smaller
    degree.  Fields give exactly 2q via (x^q - x)^2.  Modular bases are
    searched exhaustively (constant and linear coefficients are forced to
    zero by nullity at 0); the square of the least monic null polynomial
    caps the search at twice the plain null degree bound.
    """
    key = base.descriptor
    if key in _BOUND_CACHE:
        return _BOUND_CACHE[key]
    if base.is_field:
        bound = 2 * base.size
    else:
        m = base.size
        limit = 2 * null_degree_bound(base)
        total = sum(m ** max(D - 2, 0) for D in range(2, limit + 1))
        check_cap(total, cap, "monic null search")
        bound = limit
        found = False
        for D in range(2, limit + 1):
            for tail in product(range(m), repeat=D - 2):
                coeffs = (0, 0) + tail + (1,)
                if _is_null_pair(coeffs, m):
                    bound = D
                    found = True
                    break
            if found:
                break
    _BOUND_CACHE[key] = bound
    return bound


def _is_null_pair(coeffs, m: int) -> bool:
    """Whether the integer polynomial and its derivative both vanish mod m."""
    for a in range(m):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * a + c) % m
        if acc:
            return False
        dacc = 0
        top = len(coeffs) - 1
        for k in range(top, 0, -1):
            dacc = (dacc * a + k * coeffs[k]) % m
        if dacc:
            return False
    return True


def _dual_sweep(base: Ring, *, cap: int | None = None) -> tuple[dict, dict]:
    """One _pair_sums pass at the dual degree bound, for the dual
    permutations and the stabilizer together.

    Returns (passing, units), each mapping to the coefficients rest, of
    degree 1 .. D-1, of the first candidate with constant term zero that
    reaches it, in first-seen order.  passing holds the pairs ([f0], [f0'])
    with [f0] a bijection and [f0'] unit-valued.  units holds the
    unit-valued tables [1 + g'] of the null g, that is of the pairs with a
    zero first table.  Both tests are invariant under adding a constant c,
    which translates [f0] by c and leaves [f0'] unchanged, so f0 decides
    for every f0 + c.
    """
    D = dual_degree_bound(base, cap=cap)
    size = base.size
    mask = base.unit_index_mask()
    one_row = base.index_op_tables()[0][base.index(base.one)]
    zero_tab = (base.index(base.zero),) * size
    passing: dict[tuple, tuple] = {}
    units: dict[tuple, tuple] = {}
    for pair, rest in _pair_sums(base, D, cap=cap):
        ftab = pair[:size]
        if ftab == zero_tab:
            unit = tuple(map(one_row.__getitem__, pair[size:]))
            if all(map(mask.__getitem__, unit)):
                units.setdefault(unit, rest)
        elif len(set(ftab)) == size and all(map(mask.__getitem__, pair[size:])):
            passing.setdefault(pair, rest)
    return passing, units


def _dual_elements(base: Ring, passing: dict) -> list[DualPermutation]:
    """The dual permutations of the passing pairs of _dual_sweep.

    Each pair is translated by every constant c, by the row of c in the
    addition table, which gives the pairs of the f0 + c; no two translations
    meet, since f0 vanishes at 0 and c is the value of the translated table
    there.  The witness is f0 + c for the first f0 reaching the pair.
    Sorted by table.
    """
    dual = dual_ring(base)
    size = base.size
    add_t = base.index_op_tables()[0]
    ring_arg = None if base.integer_encoded else base
    out = []
    for pair, rest in passing.items():
        ftab, dtab = pair[:size], pair[size:]
        for c, row in zip(base.elements, add_t):
            table = _pair_table(base, map(row.__getitem__, ftab), dtab)
            out.append(DualPermutation._make(dual, table, Polynomial((c,) + rest, ring_arg)))
    out.sort(key=lambda dp: dp.table)
    return out


def enumerate_dual_permutations(
    base: Ring, *, cap: int | None = None
) -> list[DualPermutation]:
    """All permutations of base[al] induced by base-coefficient polynomials.

    Covers every coefficient vector below the dual degree bound, keeps the
    ones whose base table is a bijection and whose derivative table is
    unit-valued, and dedups by the pair, recording the first witness in
    sweep order for each.  Sorted by table for deterministic output.
    """
    return _dual_elements(base, _dual_sweep(base, cap=cap)[0])


def _stabilizer_elements(base: Ring, units: dict) -> list[DualPermutation]:
    """The elements (id, unit) of the stabilizer units of _dual_sweep,
    sorted by unit table; the witness is x + g for the first null g."""
    dual = dual_ring(base)
    ident = range(base.size)
    ring_arg = None if base.integer_encoded else base
    return [
        DualPermutation._make(
            dual,
            _pair_table(base, ident, unit),
            Polynomial((base.zero,) + rest, ring_arg) + Polynomial.x(),
        )
        for unit, rest in sorted(units.items())
    ]


def enumerate_stabilizer(base: Ring, *, cap: int | None = None) -> list[DualPermutation]:
    """The pointwise stabilizer of the base inside the dual permutations.

    Elements come from x + g with g null on the base; the dual action scales
    the infinitesimal part by 1 + g'(a), so the element is the pair
    (id, [1 + g']) and only null parts with that table unit-valued qualify.
    The witness is x + g for the first null g in sweep order, and the
    elements are sorted by unit table.
    """
    return _stabilizer_elements(base, _dual_sweep(base, cap=cap)[1])


def null_polynomials(
    base: Ring, degree_bound: int | None = None, *, cap: int | None = None
) -> list[Polynomial]:
    """Polynomials of degree < bound inducing the zero function on the base.

    The default bound is the dual degree bound, deep enough that the listed
    polynomials realize every derivative table a null polynomial can have.
    Every null candidate is listed, not one per table, in the order of
    pair_table_sweep.  A null f has f(0) = c0 = 0, so only the vectors with
    constant term zero are evaluated.  The cap counts every candidate,
    |base|^D.
    """
    D = dual_degree_bound(base, cap=cap) if degree_bound is None else degree_bound
    ring_arg = None if base.integer_encoded else base
    if D <= 0:
        return [Polynomial((), ring_arg)]
    check_cap(base.size ** D, cap, "pair sweep")
    els, zero = base.elements, base.zero
    out = []
    for vec in product(els, repeat=D - 1):
        coeffs = (zero,) + vec[::-1]
        if all(v == zero for v in base.horner(coeffs, els)):
            out.append(Polynomial(coeffs, ring_arg))
    return out


def _generate(elements, visit=None) -> tuple[list, bool]:
    """Greedy generating set of a finite pool, and whether the pool is closed.

    Walks the pool in order and makes each element not yet reached a new
    generator; the breadth-first closure under right multiplication by the
    generators then forms x * s exactly once for every reached x and every
    generator s, calling visit(x, s, x * s) on each.  A product outside the
    pool marks it not closed and is not expanded further, so every pool
    element ends up reached and inside the group the generators generate.

    The identity is never made a generator unless it is the whole pool: it
    would cost |G| products and add nothing, and a closed pool reaches it
    as a power of any generator.  For compositions of permutations the
    idempotents are exactly the identity, so g * g == g detects it.  A pool
    that never reaches its identity is not closed.

    For associative products a closed pool is the group generated: each
    element is a product of generators, so right multiplication by the
    generators alone keeps every product in the pool.  A group of order n
    needs at most log2(n) + 1 greedy generators (each new one at least
    doubles the subgroup reached), so the walk costs O(n log n) products.
    """
    pool = set(elements)
    gens: list = []
    reached: set = set()
    closed = True
    for g in elements:
        if g in reached or (len(pool) > 1 and g * g == g):
            continue
        queue = [(x, (g,)) for x in reached]
        gens.append(g)
        reached.add(g)
        queue.append((g, tuple(gens)))
        for x, ss in queue:
            for s in ss:
                y = x * s
                if visit is not None:
                    visit(x, s, y)
                if y in reached:
                    continue
                if y in pool:
                    reached.add(y)
                    queue.append((y, tuple(gens)))
                else:
                    closed = False
    return gens, closed


@dataclass(frozen=True)
class GroupAxiomsReport:
    size: int
    closed: bool
    has_identity: bool
    inverses_ok: bool
    associative: bool
    associativity_mode: str
    abelian: bool
    abelian_mode: str

    @property
    def passed(self) -> bool:
        return self.closed and self.has_identity and self.inverses_ok and self.associative


def verify_group_axioms(elements) -> GroupAxiomsReport:
    """Check the group axioms on a finite list of elements, exactly.

    The elements must multiply as compositions of permutations, as
    DualPermutation does, so associativity holds by construction and is reported with mode "composition".  Closure is
    decided from a greedy generating set S of the list: the list is closed
    under all products iff right multiplication by S never leaves it.  The
    identity and inverse axioms are checked on every element.  The list is
    abelian iff the elements of S commute pairwise, since every element lies
    in the group S generates; abelian_mode is "generators:<|S|>".
    """
    els = list(elements)
    n = len(els)
    if n == 0:
        return GroupAxiomsReport(
            0, False, False, False, False, "composition", True, "generators:0"
        )
    pool = set(els)
    gens, closed = _generate(els)

    identity = None
    probe = els[0]
    for e in els:
        if e * probe == probe and probe * e == probe:
            identity = e
            break
    has_identity = identity is not None and all(
        identity * x == x and x * identity == x for x in els
    )

    inverses_ok = has_identity and all(
        (inv := x.inverse()) in pool and x * inv == identity and inv * x == identity
        for x in els
    )

    abelian = all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1:])

    return GroupAxiomsReport(
        n, closed, has_identity, inverses_ok, True, "composition",
        abelian, f"generators:{len(gens)}",
    )


@dataclass(frozen=True)
class EmbeddingReport:
    base: str
    dual_perm_count: int
    image_size: int
    ambient_size: int
    perm_count: int
    unit_table_count: int
    stabilizer_size: int
    injective: bool
    homomorphism_ok: bool
    homomorphism_mode: str
    image_in_ambient: bool
    surjective: bool
    factorization_ok: bool

    @property
    def passed(self) -> bool:
        ok = self.injective and self.homomorphism_ok and self.image_in_ambient
        return ok and self.factorization_ok


def verify_embedding(base: Ring, *, cap: int | None = None) -> EmbeddingReport:
    """Check that reading off base pairs embeds the dual permutations into
    the semidirect product.

    One coefficient sweep yields the dual permutations and the stabilizer.
    Injectivity and membership of the image are exhaustive; membership is
    decided per element, G among the induced permutations and F among the
    induced unit-valued tables.  The homomorphism law
    pair(d * s) = pair(d) * pair(s) compares the pair read back from the
    composed table with the twisted product (G1 o G2, (F1 o G2) . F2) of the
    pairs, for every dual permutation d and every s in a greedy generating
    set S of them, while the closure from S is built; the enumerated set
    must be closed under those products, or homomorphism_ok is False.  This
    is exact: with d * g = d * s1 * ... * sk the law for all pairs follows by
    induction on k, since both products are compositions and hence
    associative.  The mode is "generators:<|S|>".  The image is onto iff it
    lies in the product and has its size |P(R)| * |F(R)^x|; its size is
    also compared against the stabilizer-permutation factorization.
    """
    passing, units = _dual_sweep(base, cap=cap)
    perms = _dual_elements(base, passing)
    pairs = {dp: dp.base_pair() for dp in perms}
    image = set(pairs.values())
    injective = len(image) == len(perms)

    perm_tables, unit_tables = semidirect_pairs(base, cap=cap)
    perm_set, unit_set = set(perm_tables), set(unit_tables)
    image_in_ambient = all(G in perm_set and F in unit_set for G, F in image)

    # the law reads pairs packed as the row b = 1 of a table, entry a being
    # G(a) * nb + F(a); scale[v][f] multiplies the F part of packed v by f
    nb = base.size
    i1 = base.index(base.one)
    mul_t = base.index_op_tables()[1]
    scale = [[v - v % nb + mul_t[v % nb][f] for f in range(nb)] for v in range(nb * nb)]
    law_ok = True

    def law(d, s, ds):
        # the pair read back from d * s against the twisted product
        # (G1 o G2, (F1 o G2) . F2): at a, the pair of d at G2(a) with its
        # F part multiplied by F2(a)
        nonlocal law_ok
        G2, F2 = pairs[s]
        row1 = d.table[i1::nb]
        twisted = tuple(map(getitem, map(scale.__getitem__, map(row1.__getitem__, G2)), F2))
        if ds.table[i1::nb] != twisted:
            law_ok = False

    gens, closed = _generate(perms, law)

    ambient_size = len(perm_set) * len(unit_set)
    return EmbeddingReport(
        base=base.descriptor,
        dual_perm_count=len(perms),
        image_size=len(image),
        ambient_size=ambient_size,
        perm_count=len(perm_set),
        unit_table_count=len(unit_set),
        stabilizer_size=len(units),
        injective=injective,
        homomorphism_ok=law_ok and closed,
        homomorphism_mode=f"generators:{len(gens)}",
        image_in_ambient=image_in_ambient,
        surjective=image_in_ambient and len(image) == ambient_size,
        factorization_ok=len(image) == len(units) * len(perm_set),
    )
