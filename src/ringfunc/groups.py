"""Permutation groups of dual rings and the semidirect product they embed in.

A base-coefficient polynomial permutes R[al] exactly when it permutes R and
its derivative is unit-valued, so each dual permutation is pinned down by the
pair of base tables ([f], [f']).  Pairs multiply by the twisted law
(G1, F1) * (G2, F2) = (G1 o G2, (F1 o G2) . F2), which is the semidirect
product of the induced permutation group with the pointwise unit group acting
by precomposition.  This module enumerates the dual permutations, the
stabilizer of the base points, and the ambient product, and ships the
verification routines that check the group axioms and the embedding.

Group elements here hold index tables (tuples of element indices) rather than
raw encodings; composition is then pure integer indexing.  Every element type
multiplies as a composition of permutations of R[al] (a pair (G, F) acts as
(a, b) -> (G(a), F(a) * b)), so associativity holds by construction, and the
verification routines check closure and the homomorphism law exactly from a
greedy generating set S with |G| * |S| products instead of |G|^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .dual import DualRing, dual_ring
from .funcspace import (
    FunctionTable,
    null_degree_bound,
    permutation_tables,
    unit_valued_tables,
)
from .poly import Polynomial
from .rings import Ring, check_cap


def _index_table(F: FunctionTable) -> tuple[int, ...]:
    ring = F.ring
    return tuple(ring.index(v) for v in F.values)


def _unit_inverse_row(ring: Ring) -> dict[int, int]:
    key = "unit_inverse_row"
    tables = ring._tables
    if key not in tables:
        tables[key] = {
            ring.index(u): ring.index(ring.inverse(u)) for u in ring.units()
        }
    return tables[key]


class SemidirectElement:
    """Pair (permutation, unit table) over one ring, in index form.

    perm maps element index to element index and must be a bijection; unit
    maps element index to the index of a unit.  The product twists the second
    unit table by precomposition with the first permutation's partner.
    """

    __slots__ = ("ring", "perm", "unit")

    def __init__(self, ring: Ring, perm, unit):
        perm = tuple(perm)
        unit = tuple(unit)
        size = ring.size
        if len(perm) != size or len(unit) != size:
            raise ValueError("tables must cover the whole ring")
        if set(perm) != set(range(size)):
            raise ValueError("first component is not a permutation")
        mask = ring.unit_index_mask()
        if not all(mask[i] for i in unit):
            raise ValueError("second component is not unit-valued")
        self.ring = ring
        self.perm = perm
        self.unit = unit

    @classmethod
    def _make(cls, ring, perm, unit):
        el = object.__new__(cls)
        el.ring = ring
        el.perm = perm
        el.unit = unit
        return el

    @classmethod
    def identity(cls, ring: Ring) -> "SemidirectElement":
        one = ring.index(ring.one)
        return cls._make(ring, tuple(range(ring.size)), (one,) * ring.size)

    @classmethod
    def from_tables(cls, G: FunctionTable, F: FunctionTable) -> "SemidirectElement":
        if G.ring != F.ring:
            raise ValueError("components live over different rings")
        return cls(G.ring, _index_table(G), _index_table(F))

    def __mul__(self, other: "SemidirectElement") -> "SemidirectElement":
        if self.ring != other.ring:
            raise ValueError("elements live over different rings")
        mul_t = self.ring.index_op_tables()[1]
        p1, p2 = self.perm, other.perm
        f1, f2 = self.unit, other.unit
        perm = tuple(p1[j] for j in p2)
        unit = tuple(mul_t[f1[j]][b] for j, b in zip(p2, f2))
        return SemidirectElement._make(self.ring, perm, unit)

    def inverse(self) -> "SemidirectElement":
        size = self.ring.size
        inv_perm = [0] * size
        for i, j in enumerate(self.perm):
            inv_perm[j] = i
        inv_row = _unit_inverse_row(self.ring)
        unit = tuple(inv_row[self.unit[inv_perm[a]]] for a in range(size))
        return SemidirectElement._make(self.ring, tuple(inv_perm), unit)

    def perm_table(self) -> FunctionTable:
        els = self.ring.elements
        return FunctionTable(self.ring, (els[i] for i in self.perm))

    def unit_table(self) -> FunctionTable:
        els = self.ring.elements
        return FunctionTable(self.ring, (els[i] for i in self.unit))

    def __eq__(self, other):
        if not isinstance(other, SemidirectElement):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.perm == other.perm
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.perm, self.unit))

    def __repr__(self):
        return f"SemidirectElement({self.ring.descriptor}, {self.perm}, {self.unit})"


def precompose_units(F: FunctionTable, G: FunctionTable) -> FunctionTable:
    """Action of a permutation G on a unit table F: the table F o G."""
    if not G.is_bijection():
        raise ValueError("action requires a bijection")
    return F.compose(G)


def semidirect_group(ring: Ring, *, cap: int | None = None) -> list[SemidirectElement]:
    """Every (induced permutation, induced unit table) pair over the ring."""
    perms = sorted(
        _index_table(FunctionTable(ring, t)) for t in permutation_tables(ring, cap=cap)
    )
    units = sorted(
        _index_table(FunctionTable(ring, t)) for t in unit_valued_tables(ring, cap=cap)
    )
    check_cap(len(perms) * len(units), cap, "semidirect product")
    return [
        SemidirectElement._make(ring, p, u) for p in perms for u in units
    ]


class DualPermutation:
    """A permutation of R[al] induced by a base-coefficient polynomial.

    table maps dual element index to dual element index.  witness is a
    polynomial inducing the permutation when one is known; products and
    inverses drop it since composition leaves the polynomial implicit.
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
    def _make(cls, dual, table, witness):
        el = object.__new__(cls)
        el.dual = dual
        el.table = table
        el.witness = witness
        return el

    @classmethod
    def identity(cls, dual: DualRing) -> "DualPermutation":
        return cls._make(dual, tuple(range(dual.size)), Polynomial.x())

    def __mul__(self, other: "DualPermutation") -> "DualPermutation":
        if self.dual != other.dual:
            raise ValueError("permutations live over different dual rings")
        t1 = self.table
        return DualPermutation._make(self.dual, tuple(t1[j] for j in other.table), None)

    def inverse(self) -> "DualPermutation":
        out = [0] * len(self.table)
        for i, j in enumerate(self.table):
            out[j] = i
        return DualPermutation._make(self.dual, tuple(out), None)

    def base_pair(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Index tables of ([f], [f']) on the base, read off the dual table.

        The image of (a, 1) is (f(a), f'(a)), so one row recovers both.
        """
        base = self.dual.base
        nb = base.size
        ib1 = base.index(base.one)
        G = []
        F = []
        for ia in range(nb):
            va, vb = divmod(self.table[ia * nb + ib1], nb)
            G.append(va)
            F.append(vb)
        return tuple(G), tuple(F)

    def __eq__(self, other):
        if not isinstance(other, DualPermutation):
            return NotImplemented
        return self.dual == other.dual and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"DualPermutation({self.dual.descriptor}, {self.table})"


def embed_dual_permutation(dp: DualPermutation) -> SemidirectElement:
    """The pair ([f], [f']) of a dual permutation, as a semidirect element."""
    G, F = dp.base_pair()
    return SemidirectElement(dp.dual.base, G, F)


def _pair_to_dual_table(dual: DualRing, G, F) -> tuple[int, ...]:
    """Dual permutation table of the pair: (a, b) -> (G(a), F(a) * b)."""
    base = dual.base
    nb = base.size
    mul_t = base.index_op_tables()[1]
    out = []
    for ia in range(nb):
        row = mul_t[F[ia]]
        shift = G[ia] * nb
        for ib in range(nb):
            out.append(shift + row[ib])
    return tuple(out)


def _translations(base: Ring, domain) -> list:
    """(c, i -> index of elements[i] + c) for each constant c of the domain."""
    add_t = base.index_op_tables()[0]
    els = base.elements
    return [(els[i], add_t[i].__getitem__) for i in map(base.index, domain)]


def pair_table_blocks(
    base: Ring,
    degree_bound: int,
    *,
    coeff_elements=None,
    cap: int | None = None,
):
    """Sweep coefficient vectors of degree < degree_bound over the base ring
    by blocks, yielding (f0_table, derivative_table, rest) once per block.

    A block is the candidates that share rest, the coefficients of degree
    1 .. D-1 as base encodings; f0_table is the table of its member with
    constant term zero, which need not be in the domain.  Adding a constant c
    translates [f] by c and leaves [f'] unchanged, so the member with
    constant c has the table f0_table + c and the same derivative table, and
    a verdict invariant under translation holds for the whole block or for
    none of it.  Blocks come in sweep order, degree 1 fastest and each digit
    in domain order; tables are index tuples over the base.  Both tables are
    stepped incrementally, so one block costs O(|base|) table lookups.  The
    cap counts every candidate, |domain|^D.  Needs D >= 1.
    """
    D = degree_bound
    domain = list(base.elements if coeff_elements is None else coeff_elements)
    if not domain:
        raise ValueError("empty coefficient domain")
    if D < 1:
        raise ValueError("a block sweep needs a degree bound of at least 1")
    check_cap(len(domain) ** D, cap, "pair sweep")
    size = base.size
    zero_idx = base.index(base.zero)
    add_t, mul_t = base.index_op_tables()
    pw = base.power_index_table(D - 1)
    els = base.elements
    dom_idx = [base.index(e) for e in domain]
    ndom = len(dom_idx)
    points = range(size)

    def value_rows(d: int, from_idx: int, to_idx: int):
        # the change of [c x^d] and of [d c x^(d-1)] when c steps
        delta = base.sub(els[to_idx], els[from_idx])
        drow = mul_t[base.index(delta)]
        srow = mul_t[base.index(base.mul(base.from_int(d), delta))]
        return [drow[pw[d][pt]] for pt in points], [srow[pw[d - 1][pt]] for pt in points]

    # step[d - 1][k]: coefficient d moves from domain[k] to the next, cyclically
    step = [
        [value_rows(d, dom_idx[k], dom_idx[(k + 1) % ndom]) for k in range(ndom)]
        for d in range(1, D)
    ]

    ftab = [zero_idx] * size
    dtab = [zero_idx] * size
    for d in range(1, D):
        frow, drow = value_rows(d, zero_idx, dom_idx[0])
        ftab = [add_t[a][b] for a, b in zip(ftab, frow)]
        dtab = [add_t[a][b] for a, b in zip(dtab, drow)]

    digits = [0] * (D - 1)
    dom_els = [els[i] for i in dom_idx]
    rest = [dom_els[0]] * (D - 1)
    while True:
        yield tuple(ftab), tuple(dtab), tuple(rest)
        for pos, k in enumerate(digits):
            frow, drow = step[pos][k]
            ftab = [add_t[a][b] for a, b in zip(ftab, frow)]
            dtab = [add_t[a][b] for a, b in zip(dtab, drow)]
            k = digits[pos] = (k + 1) % ndom
            rest[pos] = dom_els[k]
            if k:
                break
        else:
            return


def pair_table_sweep(
    base: Ring,
    degree_bound: int,
    *,
    coeff_elements=None,
    cap: int | None = None,
):
    """Sweep coefficient vectors of degree < degree_bound over the base ring,
    yielding (f_table, derivative_table, coefficients) per candidate.

    Tables are index tuples over the base; coefficients come back as a tuple
    of base encodings, constant term first, and the constant term steps
    fastest, in domain order.  Each candidate is one translation of its
    block's table from pair_table_blocks: O(|base|) table lookups and no
    ring arithmetic.
    """
    domain = list(base.elements if coeff_elements is None else coeff_elements)
    if degree_bound <= 0:
        # no coefficients at all: the one candidate is the zero polynomial
        if not domain:
            raise ValueError("empty coefficient domain")
        check_cap(1, cap, "pair sweep")
        zero_tab = (base.index(base.zero),) * base.size
        yield zero_tab, zero_tab, ()
        return
    shifts = _translations(base, domain)
    for ftab0, dtab, rest in pair_table_blocks(
        base, degree_bound, coeff_elements=coeff_elements, cap=cap
    ):
        for c, shift in shifts:
            yield tuple(map(shift, ftab0)), dtab, (c,) + rest


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


def enumerate_dual_permutations(
    base: Ring, *, cap: int | None = None
) -> list[DualPermutation]:
    """All permutations of base[al] induced by base-coefficient polynomials.

    Sweeps every coefficient vector below the dual degree bound, keeps the
    ones whose base table is a bijection and whose derivative table is
    unit-valued, and dedups by the pair, recording the first witness for
    each.  Both conditions are invariant under adding a constant, so they
    are tested once per block of pair_table_blocks, and only the blocks that
    pass are expanded, in sweep order.  Sorted by table for deterministic
    output.
    """
    D = dual_degree_bound(base, cap=cap)
    dual = dual_ring(base)
    size = base.size
    mask = base.unit_index_mask()
    shifts = _translations(base, base.elements)
    seen: dict[tuple, tuple] = {}
    for ftab0, dtab, rest in pair_table_blocks(base, D, cap=cap):
        if not all(mask[i] for i in dtab):
            continue
        if len(set(ftab0)) != size:
            continue
        for c, shift in shifts:
            key = (tuple(map(shift, ftab0)), dtab)
            if key not in seen:
                seen[key] = (c,) + rest
    out = []
    for (ftab, dtab), coeffs in seen.items():
        table = _pair_to_dual_table(dual, ftab, dtab)
        witness = Polynomial(coeffs, None if base.integer_encoded else base)
        out.append(DualPermutation._make(dual, table, witness))
    out.sort(key=lambda dp: dp.table)
    return out


class StabilizerElement:
    """A dual permutation fixing every base point: x + g with [g] = 0.

    Determined by the unit table [1 + g']; null_part records the first null
    polynomial found inducing it.
    """

    __slots__ = ("ring", "unit", "null_part")

    def __init__(self, ring: Ring, unit, null_part: Polynomial):
        self.ring = ring
        self.unit = tuple(unit)
        self.null_part = null_part

    def unit_table(self) -> FunctionTable:
        els = self.ring.elements
        return FunctionTable(self.ring, (els[i] for i in self.unit))

    def as_semidirect(self) -> SemidirectElement:
        return SemidirectElement(self.ring, tuple(range(self.ring.size)), self.unit)

    def dual_permutation(self) -> DualPermutation:
        dual = dual_ring(self.ring)
        table = _pair_to_dual_table(dual, tuple(range(self.ring.size)), self.unit)
        return DualPermutation(dual, table, self.null_part + Polynomial.x())

    def __eq__(self, other):
        if not isinstance(other, StabilizerElement):
            return NotImplemented
        return self.ring == other.ring and self.unit == other.unit

    def __hash__(self):
        return hash(self.unit)

    def __repr__(self):
        return f"StabilizerElement({self.ring.descriptor}, {self.unit})"


def null_polynomials(
    base: Ring, degree_bound: int | None = None, *, cap: int | None = None
) -> list[Polynomial]:
    """Polynomials of degree < bound inducing the zero function on the base.

    The default bound is the dual degree bound, deep enough that the listed
    polynomials realize every derivative table a null polynomial can have.
    A block of pair_table_blocks has at most one null member: its table
    f0 + c vanishes only if f0 is the constant -c, and f0 vanishes at 0, so
    c = 0 and f0 is the zero table.
    """
    D = dual_degree_bound(base, cap=cap) if degree_bound is None else degree_bound
    ring_arg = None if base.integer_encoded else base
    if D <= 0:
        return [Polynomial((), ring_arg)]
    zero_tab = (base.index(base.zero),) * base.size
    return [
        Polynomial((base.zero,) + rest, ring_arg)
        for ftab0, _, rest in pair_table_blocks(base, D, cap=cap)
        if ftab0 == zero_tab
    ]


def enumerate_stabilizer(base: Ring, *, cap: int | None = None) -> list[StabilizerElement]:
    """The pointwise stabilizer of the base inside the dual permutations.

    Elements come from x + g with g null on the base; the dual action scales
    the infinitesimal part by 1 + g'(a), so the element is the unit table
    [1 + g'] and only null parts with that table unit-valued qualify.  The
    null parts have constant term 0 (see null_polynomials), so one member
    per block of pair_table_blocks is looked at.
    """
    D = dual_degree_bound(base, cap=cap)
    add_t = base.index_op_tables()[0]
    mask = base.unit_index_mask()
    one_idx = base.index(base.one)
    zero_tab = (base.index(base.zero),) * base.size
    seen: dict[tuple, tuple] = {}
    for ftab0, dtab, rest in pair_table_blocks(base, D, cap=cap):
        if ftab0 != zero_tab:
            continue
        unit = tuple(add_t[one_idx][i] for i in dtab)
        if all(mask[i] for i in unit) and unit not in seen:
            seen[unit] = (base.zero,) + rest
    out = [
        StabilizerElement(base, unit, Polynomial(coeffs, None if base.integer_encoded else base))
        for unit, coeffs in seen.items()
    ]
    out.sort(key=lambda st: st.unit)
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

    The elements must multiply as compositions of permutations of R[al]
    (semidirect elements, dual permutations), so associativity holds by
    construction and is reported with mode "composition".  Closure is
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

    Injectivity and membership of the image are exhaustive.  The
    homomorphism law pair(d * s) = pair(d) * pair(s) is checked for every
    dual permutation d and every s in a greedy generating set S of them,
    while the closure from S is built; the enumerated set must be closed
    under those products, or homomorphism_ok is False.  This is exact: with
    d * g = d * s1 * ... * sk the law for all pairs follows by induction on
    k, since both products are compositions and hence associative.  The
    mode is "generators:<|S|>".  Surjectivity is the set comparison of the
    image with the ambient product; the image size is also compared against
    the stabilizer-permutation factorization.
    """
    perms = enumerate_dual_permutations(base, cap=cap)
    pairs = {dp: dp.base_pair() for dp in perms}
    image = {SemidirectElement(base, G, F) for G, F in pairs.values()}
    injective = len(image) == len(perms)

    ambient = semidirect_group(base, cap=cap)
    ambient_set = set(ambient)
    image_in_ambient = image <= ambient_set

    mul_t = base.index_op_tables()[1]
    law_ok = True

    def law(d, s, ds):
        # compare the pair of the composed dual permutation against the
        # twisted product of the pairs, all on raw index tuples
        nonlocal law_ok
        G1, F1 = pairs[d]
        G2, F2 = pairs[s]
        Gc, Fc = ds.base_pair()
        if Gc != tuple(G1[a] for a in G2) or Fc != tuple(
            mul_t[F1[a]][b] for a, b in zip(G2, F2)
        ):
            law_ok = False

    gens, closed = _generate(perms, law)
    homomorphism_ok = law_ok and closed

    stab = enumerate_stabilizer(base, cap=cap)
    perm_count = len(permutation_tables(base, cap=cap))
    unit_count = len(unit_valued_tables(base, cap=cap))
    surjective = image == ambient_set
    factorization_ok = (
        len(image) == len(stab) * perm_count
        and len(ambient) == unit_count * perm_count
    )

    return EmbeddingReport(
        base=base.descriptor,
        dual_perm_count=len(perms),
        image_size=len(image),
        ambient_size=len(ambient),
        perm_count=perm_count,
        unit_table_count=unit_count,
        stabilizer_size=len(stab),
        injective=injective,
        homomorphism_ok=homomorphism_ok,
        homomorphism_mode=f"generators:{len(gens)}",
        image_in_ambient=image_in_ambient,
        surjective=surjective,
        factorization_ok=factorization_ok,
    )
