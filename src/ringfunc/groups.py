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

A pair is held as that row, its packed row, entry a being G(a) * |R| + F(a);
packed rows sort as their tables do (packed_rows).

Three sets of elements come out of this module:
- the semidirect product F(R)^x ⋊ P(R): every pair of an induced permutation
  and an induced unit-valued table;
- the dual permutations: a base-coefficient polynomial f permutes R[al]
  exactly when it permutes R and f' is unit-valued, and it acts by the pair
  ([f], [f']);
- the stabilizer of the base points: the dual permutations with G = id,
  x + g for a null polynomial g, acting by the pair (id, [1 + g']).

dual_pairs and stabilizer_pairs list the last two as sorted packed rows,
with a witness on request, and alone decide how: over a field from the
factors by the field theorem, over Z/m from the pair module (pair_module).

verify_group_axioms checks closure exactly from a greedy generating set S,
with |G| * |S| products instead of |G|^2, one batch per generator over the
columns of the elements' index tables; on fq:4, of order 1944, |S| is 3.  A
closed set is a group, so only a set that is not closed has its identity
and inverses looked up.  verify_embedding takes the dual permutations from
dual_pairs, the whole image by the 2q Hermite basis evaluations over F_q and
by the module over Z/m.  It checks the homomorphism law by comparing the
pair read back from d * s with the twisted product of the pairs of d and s,
for every d at once, one column per generator s and point, and membership
of the image in the semidirect product on packed rows.
Surjectivity then is |image| = |P(R)| * |F(R)^x|; the product's elements are
never built, and the same closure decides the image's group axioms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, islice, permutations, product, repeat
from math import factorial, gcd, prod
from operator import add, getitem, itemgetter

from .dual import DualRing, dual_ring
from .funcspace import (
    FunctionTable,
    coefficient_sums,
    dual_degree_bound,
    hermite_basis,
    hermite_sum,
    induced_index_tables,
    least_member,
    pair_module,
    ring_polynomial,
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
        return pair_elements(dual, packed_rows(base, [G], [F]))[0]

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


def _pair_blocks(base: Ring) -> list[tuple[int, ...]]:
    """The block of each packed entry v = g * |R| + f: the images
    g * |R| + f * b of the dual elements (a, b) of a point a with
    (G(a), F(a)) = (g, f), for each b.  Cached with the ring's other index
    tables."""
    blocks = base._tables.get("pair_blocks")
    if blocks is None:
        nb = base.size
        mul_t = base.index_op_tables()[1]
        blocks = base._tables["pair_blocks"] = [
            tuple(g * nb + v for v in row) for g in range(nb) for row in mul_t
        ]
    return blocks


def packed_rows(base: Ring, perms, units) -> list[tuple[int, ...]]:
    """The packed rows of the pairs (G, F), G in perms and F in units, both
    index tables, permutation-major: entry a is G(a) * |R| + F(a), the row
    b = 1 of the pair's dual table.

    On a base whose element index 0 is zero and index 1 is one, as on every
    ring here, packed rows sort as the tables do: the entries (a, 0) and
    (a, 1) of the table are G(a) * |R| and G(a) * |R| + F(a), and the rest
    of the block of a follows from them.
    """
    nb = base.size
    high = [[g * nb for g in G] for G in perms]
    return [tuple(map(add, h, F)) for h in high for F in units]


def precompose_units(F: FunctionTable, G: FunctionTable) -> FunctionTable:
    """Action of a permutation G on a unit table F: the table F o G."""
    if not G.is_bijection():
        raise ValueError("action requires a bijection")
    return F.compose(G)


def semidirect_factors(ring: Ring, *, cap: int | None = None) -> tuple[list, list]:
    """The induced permutations and the induced unit-valued tables of the
    ring, each as sorted index tables, filtered from one pass of
    induced_index_tables; the cap bounds that pass only.

    Over a field every function is induced (Lagrange), so the factors are
    all q! permutations and all tables into the units, listed directly, in
    sorted order, under the cap of the pass they replace."""
    size = ring.size
    mask = ring.unit_index_mask()
    if ring.is_field:
        check_cap(size**size, cap, "polynomial enumeration")
        unit_idx = [i for i in range(size) if mask[i]]
        return list(permutations(range(size))), list(product(unit_idx, repeat=size))
    tables = induced_index_tables(ring, cap=cap)
    perms = sorted(t for t in tables if len(set(t)) == size)
    units = sorted(t for t in tables if all(map(mask.__getitem__, t)))
    return perms, units


def field_group_order(base: Ring, what: str, *, cap: int | None = None) -> int:
    """The order over F_q of the dual group, q! (q - 1)^q, or of the
    stabilizer, (q - 1)^q, after the caps their listings check first."""
    q, stabilizer = base.size, what == "stabilizer"
    count = (q - 1) ** q * (1 if stabilizer else factorial(q))
    check_cap(count, cap, "stabilizer" if stabilizer else "semidirect product")
    check_cap(q**q, cap, "polynomial enumeration")
    return count


def semidirect_pairs(ring: Ring, *, cap: int | None = None) -> tuple[list, list]:
    """The two factors of the semidirect product (semidirect_factors), with
    the cap also bounding the product's size, over a field before they are
    listed (field_group_order)."""
    if ring.is_field:
        field_group_order(ring, "group", cap=cap)
    perms, units = semidirect_factors(ring, cap=cap)
    check_cap(len(perms) * len(units), cap, "semidirect product")
    return perms, units


def pair_elements(dual: DualRing, rows, witness=None) -> list[DualPermutation]:
    """The elements of the packed rows over the dual ring's base, in the
    given order, each with the polynomial witness(row) when a witness
    function is given.  The table of a row is the blocks of its entries
    joined (_pair_blocks)."""
    block = _pair_blocks(dual.base).__getitem__
    return [
        DualPermutation._make(
            dual, tuple(chain.from_iterable(map(block, row))), witness and witness(row)
        )
        for row in rows
    ]


def semidirect_group(ring: Ring, *, cap: int | None = None) -> list[DualPermutation]:
    """Every (induced permutation, induced unit table) pair over the ring,
    as a permutation of R[al]; permutation-major, each factor in table order."""
    return pair_elements(dual_ring(ring), packed_rows(ring, *semidirect_pairs(ring, cap=cap)))


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


def split_sweep(add_t, zero_table, stages, first: slice):
    """The sums of coefficient_sums over the stages, split at the middle
    stage, k = len(stages) // 2, into the distinct low sums (stages[:k]) and
    high sums (stages[k:]), each with the first coefficients reaching it.

    Yields (rows, coeffs, bijective) for each distinct high sum h, in
    first-reached order: rows are the rows of add_t at the entries of h, so
    tuple(map(getitem, rows, t)) is h + t, and coeffs are those of h.
    bijective lists the low (t, coeffs) whose first table t[first], added to
    h[first], makes a bijection, in first-reached order.  It depends on
    h[first] alone and is found once for each: the low sums are grouped by
    first table, and each group is tested once.
    """
    k = len(stages) // 2
    low: dict[tuple, tuple] = {}
    high: dict[tuple, tuple] = {}
    for sums, part in ((low, stages[:k]), (high, stages[k:])):
        for t, coeffs in coefficient_sums(add_t, zero_table, part):
            sums.setdefault(t, coeffs)
    by_first: dict[tuple, list] = {}
    for pos, (t, coeffs) in enumerate(low.items()):
        by_first.setdefault(t[first], []).append((pos, t, coeffs))
    slices: dict[tuple, list] = {}
    for h, coeffs in high.items():
        h1 = h[first]
        if h1 not in slices:
            rows = [add_t[b] for b in h1]
            bijective = sorted(
                item for a1, items in by_first.items()
                if len(set(map(getitem, rows, a1))) == len(h1) for item in items
            )
            slices[h1] = [item[1:] for item in bijective]
        yield [add_t[b] for b in h], coeffs, slices[h1]


def _module_parts(base: Ring, *, times: int, cap: int | None, what: str):
    """The pair module of Z/m (pair_module), unit_coset(F), the unit-valued
    tables of the coset F + H, and preimage(pair), the least f of degree < D
    with ([f], [f']) = pair, the first a coefficient sweep reaches: the
    coefficient part of the member beginning with the pair, reduced from
    x^(D-1) down (least_member).  H, the [g'] of [g] = 0, is the span of the
    rows m .. 2m-1 on their columns; by the Howell property each h in H is
    sum c_j row_j for one choice of c_j in range(m // pivot_j), so times |H|
    is capped as what before H is built.
    """
    module, nb = pair_module(base), base.size
    check_cap(times * prod(nb // module[j][j] for j in range(nb, 2 * nb)), cap, what)
    add_t, mask = base.index_op_tables()[0], base.unit_index_mask()
    H = [(0,) * nb]
    for j, row in enumerate(module[nb:2 * nb], nb):
        # the rows of add_t at the entries of c * row_j, for c = 1, 2, ...
        steps = [[add_t[c * w % nb] for w in row[nb:2 * nb]] for c in range(1, nb // row[j])]
        H += [tuple(map(getitem, rows, h)) for rows in steps for h in H]

    @lru_cache(maxsize=None)
    def unit_coset(F):
        adds = [add_t[f] for f in F]
        coset = (tuple(map(getitem, adds, h)) for h in H)
        return [u for u in coset if all(map(mask.__getitem__, u))]

    def preimage(pair):
        return ring_polynomial(base, least_member(module, pair, nb)[2 * nb:][::-1])

    return module, unit_coset, preimage


def dual_pairs(base: Ring, *, cap: int | None = None):
    """The dual permutations as (rows, witness): their packed rows, sorted,
    so in table order, and witness(row), a polynomial inducing the element
    of a row.

    Over a field F_q they are every pair (G, F) of P(F_q) x F(F_q)^x (the
    field theorem), capped as the semidirect product, and the witness is
    the only polynomial of degree < 2q with the pair, the Hermite form
    A_G + B_F, A_G = sum_a G(a) H_a and B_F = sum_a F(a) K_a, all built on
    the first call.  Over Z/m each G of P(R) lifts to a pair (G, F) of the
    pair module, and the pairs over G are the unit-valued tables of F + H,
    |P(R)| |H| pairs capped as "dual pairs"; the witness is the least
    preimage (_module_parts).
    """
    _, rows, witness = _dual_listing(base, cap)
    return rows(), witness


def _dual_listing(base: Ring, cap: int | None):
    """dual_pairs as (order, rows, witness): rows() lists the rows, counted
    by order before any is packed, so that a cap on them can refuse first."""
    nb, add_t = base.size, base.index_op_tables()[0]
    if base.is_field:
        perms, units = semidirect_pairs(base, cap=cap)
        rows = packed_rows(base, perms, units)

        @lru_cache(maxsize=None)
        def parts():
            # row -> (A_G, B_F); entry b of row d of A_G is the element
            # A_G[d] + b, so a coefficient of A_G + B_F is one lookup
            H, K = hermite_basis(base)
            A = [[[base.elements[s] for s in add_t[a]] for a in hermite_sum(base, H, G)]
                 for G in perms]
            B = [hermite_sum(base, K, F) for F in units]
            return dict(zip(rows, product(A, B)))

        def witness(row):
            return ring_polynomial(base, list(map(getitem, *parts()[row])))

        return len(rows), partial(sorted, rows), witness
    perms = semidirect_factors(base, cap=cap)[0]
    module, unit_coset, preimage = _module_parts(base, times=len(perms), cap=cap, what="dual pairs")
    # the lift reduces F to the least of its coset, a key for unit_coset
    lifts = [(G, unit_coset(tuple(least_member(module, G, nb)[nb:2 * nb]))) for G in perms]

    def rows():
        return sorted(chain.from_iterable(packed_rows(base, [G], units) for G, units in lifts))

    order = sum(len(units) for _, units in lifts)
    return order, rows, lambda row: preimage([v // nb for v in row] + [v % nb for v in row])


def stabilizer_pairs(base: Ring, *, cap: int | None = None):
    """The stabilizer as (rows, null_part), as dual_pairs: the packed rows
    of its pairs (id, F), sorted, so by unit table F, and null_part(row), a
    null g with [1 + g'] = F, the element being x + g.

    Over a field F_q every unit table occurs, capped at (q - 1)^q, and g is
    the Hermite form of the pair (0, F - 1), sum_a (F(a) - 1) K_a: the only
    g of degree < 2q with [g] = 0 and [g'] = F - 1.  Over Z/m the unit
    tables are those of the coset 1 + H, capped at |H|, and g is the least
    preimage of (0, F - 1) (_module_parts).
    """
    nb = base.size
    less_one = base.index_op_tables()[0][base.index(base.neg(base.one))]
    if base.is_field:
        field_group_order(base, "stabilizer", cap=cap)
        units = semidirect_factors(base, cap=cap)[1]
        K = hermite_basis(base)[1]

        def null_part(row):
            g = hermite_sum(base, K, [less_one[v % nb] for v in row])
            return ring_polynomial(base, [base.elements[i] for i in g])
    else:
        _, unit_coset, preimage = _module_parts(base, times=1, cap=cap, what="stabilizer")
        units = sorted(unit_coset((base.index(base.one),) * nb))

        def null_part(row):
            return preimage([0] * nb + [less_one[v % nb] for v in row])
    return packed_rows(base, [range(nb)], units), null_part


def enumerate_dual_permutations(
    base: Ring, *, cap: int | None = None
) -> list[DualPermutation]:
    """All permutations of base[al] induced by base-coefficient polynomials,
    sorted by table, each with its witness (dual_pairs)."""
    return pair_elements(dual_ring(base), *dual_pairs(base, cap=cap))


def enumerate_stabilizer(base: Ring, *, cap: int | None = None) -> list[DualPermutation]:
    """The pointwise stabilizer of the base inside the dual permutations.

    Elements come from x + g with g null on the base; the dual action scales
    the infinitesimal part by 1 + g'(a), so the element is the pair
    (id, [1 + g']) and only null parts with that table unit-valued qualify.
    Sorted by unit table, each with its witness x + g (stabilizer_pairs).
    """
    rows, null_part = stabilizer_pairs(base, cap=cap)
    return pair_elements(dual_ring(base), rows, lambda row: null_part(row) + Polynomial.x())


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
    D = dual_degree_bound(base) if degree_bound is None else degree_bound
    if D <= 0:
        return [ring_polynomial(base, ())]
    check_cap(base.size ** D, cap, "pair sweep")
    els, zero = base.elements, base.zero
    out = []
    for vec in product(els, repeat=D - 1):
        coeffs = (zero,) + vec[::-1]
        if all(v == zero for v in base.horner(coeffs, els)):
            out.append(ring_polynomial(base, coeffs))
    return out


def _products_by(cols, s):
    """The tables x * s of the pool's elements x, in pool order, from cols,
    the pool's tables transposed: column k of x * s is column s[k]."""
    return zip(*map(cols.__getitem__, s))


def _generate(elements, cols=None) -> tuple[list, bool]:
    """Greedy generating set of a finite pool, and whether the pool is closed.

    Works on the elements' index tables.  The walk visits the pool at
    positions i * step mod n, step the first of r, r + 1, r - 1, r + 2, ...
    coprime to n for r nearest 0.618 * n, and makes each element not yet
    reached a new generator.  The sorted enumerations begin with the
    identity and elements fixing most points, which lie in small subgroups;
    a few elements spread over the pool usually generate a permutation group
    (Seress, Permutation Group Algorithms, 2003).  On the fq:4 semidirect
    group and dual permutations (order 1944) that is 3 generators, where the
    sorted walk takes 7.

    A new generator s forms x * s once for every pool element x, |G| * |S|
    products in all, as one batch over the pool's columns (_products_by;
    cols, the tables transposed, may be passed in), and each product is
    mapped to its pool position.  The pool is closed iff no product leaves
    it.  Reaching then walks positions over each generator's map; a product
    outside the pool is not expanded, so every pool element ends up reached
    and inside the group the generators generate.  The identity is never
    made a generator unless it is the whole pool: it would cost |G| products
    and add nothing, and a closed pool reaches it as a power of any
    generator.  Raises ValueError unless every element acts on one dual
    ring.

    For associative products a closed pool is the group generated: each
    element is a product of generators, so right multiplication by the
    generators alone keeps every product in the pool.  A group of order n
    needs at most log2(n) + 1 greedy generators (each new one at least
    doubles the subgroup reached), so the walk costs O(n log n) products.
    """
    els = list(elements)
    n = len(els)
    if n == 0:
        return [], True
    dual = els[0].dual
    if any(e.dual is not dual and e.dual != dual for e in els):
        raise ValueError("permutations live over different dual rings")
    tables = [e.table for e in els]
    index = {t: i for i, t in enumerate(tables)}
    cols = list(zip(*tables)) if cols is None else cols
    ident = tuple(range(dual.size))
    r = round(0.618 * n)
    step = next(k for d in range(n) for k in (r + d, r - d) if 0 < k <= n and gcd(k, n) == 1)
    gens: list = []
    maps: list = []
    done: list[int] = []
    # position n stands for every product outside the pool: reached already
    reached = bytearray(n + 1)
    reached[n] = 1
    order: list[int] = []
    for i in range(n):
        g = els[i * step % n]
        k = index[g.table]
        if reached[k] or (len(index) > 1 and g.table == ident):
            continue
        gens.append(g)
        maps.append(list(map(index.get, _products_by(cols, g.table), repeat(n))))
        done.append(0)
        reached[k] = 1
        order.append(k)
        while any(j < len(order) for j in done):
            for j, m in enumerate(maps):
                # a list iterator also yields what is appended while it runs
                for y in map(m.__getitem__, islice(order, done[j], None)):
                    if not reached[y]:
                        reached[y] = 1
                        order.append(y)
                done[j] = len(order)
    return gens, all(n not in m for m in maps)


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
    DualPermutation does, so associativity holds by construction and is
    reported with mode "composition".  Every check works on the index
    tables.  Closure is decided from a greedy generating set S (_generate):
    the list is closed under all products iff right multiplication by S
    never leaves it.  A closed list holds the identity and every inverse,
    g^k = id for some k > 0 making g^(k-1) that of g.  A list that is not
    closed must hold the identity table, and each element's inverse table,
    composing with it to the identity on both sides.  The list is abelian
    iff the elements of S commute pairwise, since every element lies in the
    group S generates; abelian_mode is "generators:<|S|>".  Raises
    ValueError unless every element acts on one dual ring.
    """
    els = list(elements)
    if not els:
        return GroupAxiomsReport(
            0, False, False, False, False, "composition", True, "generators:0"
        )
    return _axioms_report(els, *_generate(els))


def _axioms_report(els, gens, closed) -> GroupAxiomsReport:
    """verify_group_axioms on nonempty els from (gens, closed) = _generate(els)."""
    has_identity = inverses_ok = closed
    if not closed:
        tables = [e.table for e in els]
        pool = set(tables)
        ident = tuple(range(len(tables[0])))
        has_identity = ident in pool
        # a permutation table sorts the positions into its inverse
        inverses_ok = has_identity and all(
            (inv := tuple(sorted(ident, key=t.__getitem__))) in pool
            and itemgetter(*inv)(t) == ident == itemgetter(*t)(inv)
            for t in tables
        )
    abelian = all(
        itemgetter(*b.table)(a.table) == itemgetter(*a.table)(b.table)
        for i, a in enumerate(gens) for b in gens[i + 1:]
    )
    return GroupAxiomsReport(
        len(els), closed, has_identity, inverses_ok, True, "composition",
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
    image_mode: str
    over_field: bool = False
    product_axioms: GroupAxiomsReport | None = None

    @property
    def passed(self) -> bool:
        ok = self.injective and self.homomorphism_ok and self.image_in_ambient
        return ok and self.factorization_ok

    @property
    def image_consistent(self) -> bool:
        """Onto over every field; in general onto exactly when the
        stabilizer holds every unit table (image = stabilizer x permutations)."""
        full = self.stabilizer_size == self.unit_table_count
        return (self.surjective or not self.over_field) and self.surjective == full


def _hermite_basis_evaluates(base: Ring) -> bool:
    """Whether [H_a] = [K_a'] = e_a and [H_a'] = [K_a] = 0 for every a, by Horner on
    the coefficients and the formal derivative: the rows ([v], [v']) of H_0 .. H_q-1,
    K_0 .. K_q-1 make the identity, so f -> ([f], [f']) is onto every pair."""
    els, n = base.elements, 2 * base.size
    scales = [base.from_int(k) for k in range(1, n)]
    H, K = hermite_basis(base)
    return [
        base.horner(c, els) + base.horner(list(map(base.mul, scales, c[1:])), els)
        for c in ([els[i] for i in vec] for vec in H + K)
    ] == [[base.one if i == j else base.zero for i in range(n)] for j in range(n)]


def verify_embedding(base: Ring, *, cap: int | None = None) -> EmbeddingReport:
    """Check that reading off base pairs embeds the dual permutations into
    the semidirect product.

    The elements are the rows of dual_pairs, their tables capped at
    |image| |R|^2 entries before any row is listed.  Over F_q the 2q Hermite
    basis evaluations prove them the image and the stabilizer every unit
    table, image_mode "basis:<2q>"; if they fail, neither surjective nor
    factorization_ok holds.  Over Z/m the pair module lists the image, image_mode "module",
    and the stabilizer is the image over G = id.  Injectivity and membership
    in the product are exhaustive, on the packed rows read off the tables.
    The homomorphism law pair(d * s) = pair(d) * pair(s) compares the pair
    read back from the composed table with the twisted product
    (G1 o G2, (F1 o G2) . F2), for every d and every s in a greedy
    generating set S of them, after the closure from S: for each s and point
    a, the column of entry a of the row b = 1 of d * s, over every d,
    against the column of the twisted product.  The set must be closed
    under those products, or homomorphism_ok is False.  By
    induction on k the law then holds for d * s1 * ... * sk, both products
    being associative: mode "generators:<|S|>".  The image is onto iff it
    lies in the product and has its size |P(R)| * |F(R)^x|, which must
    factor as |Stab| * |P(R)|.  When the image is the whole product, each
    packed row once, the two have the same elements (pair_elements), and
    product_axioms is the product's verify_group_axioms report, from the
    same closure; otherwise it is None.
    """
    nb, i1 = base.size, base.index(base.one)
    order, rows, _ = _dual_listing(base, cap)
    check_cap(order * nb * nb, cap, "dual tables")
    proved = _hermite_basis_evaluates(base) if base.is_field else True
    image_mode = f"basis:{2 * nb}" if base.is_field else "module"
    perms = pair_elements(dual_ring(base), rows())
    # column k holds entry k of every table; the image is the rows b = 1
    cols = list(zip(*[dp.table for dp in perms]))
    image = set(zip(*cols[i1::nb]))
    injective = len(image) == len(perms)

    perm_tables, unit_tables = semidirect_pairs(base, cap=cap)
    image_in_ambient = image <= set(packed_rows(base, perm_tables, unit_tables))
    stabilizer_size = len(unit_tables) if base.is_field else sum(
        all(v // nb == a for a, v in enumerate(row)) for row in image)

    # the law on the columns of the pool: entry a of the row b = 1 of d * s
    # is entry v = s[i1 + nb * a] = G2(a) * nb + F2(a) of d, and the twisted
    # product's is the packed pair of d at G2(a), entry i1 + nb * G2(a) of
    # d, with its F part multiplied by F2(a) (scale[f][w] does that to w)
    mul_t = base.index_op_tables()[1]
    scale = [[w - w % nb + mul_t[w % nb][f] for w in range(nb * nb)] for f in range(nb)]
    gens, closed = _generate(perms, cols)
    law_ok = all(
        cols[v] == tuple(map(scale[v % nb].__getitem__, cols[v - v % nb + i1]))
        for s in gens for v in s.table[i1::nb]
    )

    ambient_size = len(perm_tables) * len(unit_tables)
    whole = injective and image_in_ambient and len(image) == ambient_size
    return EmbeddingReport(
        base=base.descriptor,
        dual_perm_count=len(perms),
        image_size=len(image),
        ambient_size=ambient_size,
        perm_count=len(perm_tables),
        unit_table_count=len(unit_tables),
        stabilizer_size=stabilizer_size,
        injective=injective,
        homomorphism_ok=law_ok and closed,
        homomorphism_mode=f"generators:{len(gens)}",
        image_in_ambient=image_in_ambient,
        surjective=proved and image_in_ambient and len(image) == ambient_size,
        factorization_ok=proved and len(image) == stabilizer_size * len(perm_tables),
        image_mode=image_mode,
        over_field=base.is_field,
        product_axioms=_axioms_report(perms, gens, closed) if whole else None,
    )
