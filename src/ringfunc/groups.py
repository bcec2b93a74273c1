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

A pair is held as its two index tables (G, F), and pair_tables builds its
table, for the listings, the product and the embedding alike.

Three sets of elements come out of this module:
- the semidirect product F(R)^x ⋊ P(R): every pair of an induced permutation
  and an induced unit-valued table;
- the dual permutations: a base-coefficient polynomial f permutes R[al]
  exactly when it permutes R and f' is unit-valued, and it acts by the pair
  ([f], [f']);
- the stabilizer of the base points: the dual permutations with G = id,
  x + g for a null polynomial g, acting by the pair (id, [1 + g']).

dual_pairs and stabilizer_pairs list the last two as (G, F) pairs in the
order of their tables, with the witness (a coefficient index vector) of a
pair on request: over a field from the factors and the Hermite form, each
pair built as it is read (Listing), over Z/m from the pair module
(_pair_parts).

verify_embedding lists no group, and verify_group_axioms sifts the pool it
is given: both build a Schreier-Sims chain (_Chain).  The embedding is
proved from a few dual permutations whose tables, built from their
witnesses, must be their pair forms, and whose chain must reach the dual
group's order, known in closed form over F_q and Z/p^e: every verdict,
onto and the factorization too, is read off that order.  The same chain,
extended by unit-valued pairs (id, [u]), reaches the product's.  Over other
Z/m the reports are joined from the prime-power factors' (Chinese remainder
theorem).  A listed pool is a group iff its chain has its size.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import accumulate, chain, compress, count, permutations, product, repeat
from math import factorial, gcd, prod
from operator import add, getitem, itemgetter
from typing import NamedTuple

from .canonical import count_polynomial_functions, count_unit_valued_functions
from .dual import DualRing, dual_ring
from .funcspace import (
    FunctionTable,
    dual_degree_bound,
    hermite_preimage,
    index_polynomial,
    induced_index_tables,
    least_member,
    pair_module,
)
from .poly import Polynomial
from .rings import ModularRing, Ring, check_cap, is_prime, resolve_cap


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

    def __mul__(self, other: "DualPermutation") -> "DualPermutation":
        if self.dual is not other.dual and self.dual != other.dual:
            raise ValueError("permutations live over different dual rings")
        return DualPermutation._make(self.dual, itemgetter(*other.table)(self.table))

    def inverse(self) -> "DualPermutation":
        return DualPermutation._make(self.dual, _inverse(self.table))

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


def _pair_blocks(base: Ring) -> list[list[tuple[int, ...]]]:
    """blocks[g][f]: the images g * |R| + f * b of the dual elements (a, b)
    of a point a with (G(a), F(a)) = (g, f), for each b.  Cached with the
    ring's other index tables."""
    blocks = base._tables.get("pair_blocks")
    if blocks is None:
        nb = base.size
        mul_t = base.index_op_tables()[1]
        blocks = base._tables["pair_blocks"] = [
            [tuple(g * nb + v for v in row) for row in mul_t] for g in range(nb)
        ]
    return blocks


def pair_tables(base: Ring, pairs):
    """The dual table of each pair (G, F) of index tables over the base, in
    the given order, lazily: the blocks of (G(a), F(a)) joined, a in order
    (_pair_blocks)."""
    rows = _pair_blocks(base).__getitem__
    return (tuple(chain.from_iterable(map(getitem, map(rows, G), F))) for G, F in pairs)


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
    if ring.is_field:
        check_cap(size**size, cap, "polynomial enumeration")
        return list(permutations(range(size))), _unit_tables(ring)
    mask = ring.unit_index_mask()
    tables = induced_index_tables(ring, cap=cap)
    perms = sorted(t for t in tables if len(set(t)) == size)
    units = sorted(t for t in tables if all(map(mask.__getitem__, t)))
    return perms, units


def _unit_tables(ring: Ring) -> list[tuple[int, ...]]:
    """Every table into the units, as sorted index tables."""
    mask = ring.unit_index_mask()
    return list(product([i for i in range(ring.size) if mask[i]], repeat=ring.size))


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


def pair_elements(dual: DualRing, pairs, witnesses=None) -> list[DualPermutation]:
    """The elements of the pairs (G, F) over the dual ring's base, in the
    given order (pair_tables), each with its polynomial from witnesses, in
    the same order, when they are given."""
    make, tables = partial(DualPermutation._make, dual), pair_tables(dual.base, pairs)
    return list(map(make, tables, repeat(None) if witnesses is None else witnesses))


def semidirect_group(ring: Ring, *, cap: int | None = None) -> list[DualPermutation]:
    """Every (induced permutation, induced unit table) pair over the ring,
    as a permutation of R[al]; permutation-major, each factor in table order."""
    return pair_elements(dual_ring(ring), product(*semidirect_pairs(ring, cap=cap)))


def pair_table_sweep(base: Ring, degree_bound: int, *, cap: int | None = None):
    """The per-candidate oracle: sweep the coefficient vectors of degree <
    degree_bound over the base ring, yielding (f_table, derivative_table,
    coefficients) for each.

    Tables are index tuples over the base, from straight Horner evaluation
    of f and f' at every point; coefficients come back as a tuple of base
    encodings, constant term first, and the constant term steps fastest, in
    element order.  A degree bound of 0 or less yields the zero polynomial
    alone.  The cap counts every candidate, |R|^D.

    No library code sweeps this way: the induced tables are the span that
    funcspace.coefficient_sums builds, with no witness or order.  This
    stays in the package because perfbench/test_perfbench.py and
    perfbench/spans.py call and trace it by name.
    """
    D = max(degree_bound, 0)
    check_cap(base.size ** D, cap, "pair sweep")
    els = base.elements
    scales = [base.from_int(k) for k in range(1, D)]
    for vec in product(els, repeat=D):
        coeffs = vec[::-1]
        dcoeffs = list(map(base.mul, scales, coeffs[1:]))
        yield (
            tuple(map(base.index, base.horner(coeffs, els))),
            tuple(map(base.index, base.horner(dcoeffs, els))),
            coeffs,
        )


def _pair_parts(base: Ring, *, times: int, cap: int | None, what: str):
    """The dual pairs over Z/m as (over, unit_coset, preimage): unit_coset(F),
    the unit-valued tables of F + H, H the [g'] of the null g; over(G),
    those F with (G, F) a pair, or none; and preimage(G, F), the index
    vector of the least f of degree < D with ([f], [f']) = (G, F), the first
    a coefficient sweep reaches.  They come from the pair module
    (pair_module): over(G) is unit_coset of the least F, and f is the
    coefficient part of the member beginning with the pair, reduced from
    x^(D-1) down (least_member), the reduction by the rows of G kept for
    each G.  Each h in H is sum c_j row_j, rows m .. 2m-1, for one choice of
    c_j in range(m // pivot_j) (_null_count), so times |H| is capped as
    what before H is built.  (Over F_q, H is every table, and f is the
    Hermite form, hermite_preimage.)
    """
    module, nb = pair_module(base), base.size
    check_cap(times * _null_count(module, nb), cap, what)
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

    @lru_cache(maxsize=None)
    def reduced(G):
        return least_member(module, G, nb, stop=nb)

    def member(G, F=()):
        return least_member(module, (*G, *F), nb, reduced(tuple(G)), nb)

    def over(G):
        x = member(G)
        return unit_coset(tuple(x[nb:2 * nb])) if tuple(x[:nb]) == tuple(G) else []

    def preimage(G, F):
        return member(G, F)[2 * nb:][::-1]

    return over, unit_coset, preimage


def _null_count(module, nb: int) -> int:
    """|H|, H the [g'] of the null g over Z/m, m = nb: each h in H is
    sum c_j row_j over the pair module's rows m .. 2m-1, for one choice of
    c_j in range(m // pivot_j) (the Howell property)."""
    return prod(nb // module[j][j] for j in range(nb, 2 * nb))


def dual_pairs(base: Ring, *, cap: int | None = None):
    """The dual permutations as (pairs, witness): their pairs (G, F) in
    table order, and witness(G, F), the coefficient index vector of a
    polynomial inducing the element of the pair (hermite_preimage over a
    field, _pair_parts over Z/m).

    Each G of P(R) lifts to the pairs (G, F) with F unit-valued.  Over a
    field F_q that is every pair of P(F_q) x F(F_q)^x (the field theorem),
    capped as the semidirect product; over Z/m the pairs of the pair
    module, |P(R)| |H| pairs capped as "dual pairs".

    The pairs sort by their packed rows, entry a = G(a) * |R| + F(a), the
    row b = 1 of the table, so by G(0), F(0), G(1), F(1), ...  On a base
    whose element index 0 is zero and index 1 is one, as on every ring
    here, that is the order of the tables: the entries (a, 0) and (a, 1) of
    a table are G(a) * |R| and G(a) * |R| + F(a), and the rest of the block
    of a follows from them.  Over a field the pairs are a Listing, each
    built in that order as it is read (_field_pairs); over Z/m they are a
    sorted list.
    """
    if base.is_field:
        field_group_order(base, "group", cap=cap)
        return _field_pairs(base.size, *semidirect_factors(base, cap=cap)), hermite_preimage(base)
    perms, _ = semidirect_factors(base, cap=cap)
    over, _, preimage = _pair_parts(base, times=len(perms), cap=cap, what="dual pairs")
    nb = base.size
    high = {G: [g * nb for g in G] for G in perms}
    pairs = [(G, F) for G in perms for F in over(G)]
    pairs.sort(key=lambda pair: tuple(map(add, high[pair[0]], pair[1])))
    return pairs, preimage


class Listing:
    """A listing of count pairs, each built when it is read: walk() yields
    them all in order."""

    def __init__(self, count: int, walk):
        self._count, self._walk = count, walk

    def __len__(self):
        return self._count

    def __iter__(self):
        return self._walk()


def _field_pairs(q: int, perms: list, units: list) -> Listing:
    """Every pair (G, F) of the two sorted factors over F_q, in the order of
    G(0), F(0), G(1), F(1), ...  That order is mixed radix: the entries
    (G(a), F(a)) are digits (d, e) of radix (q - a)(q - 1), d the rank of
    G(a) among the values G has not taken yet, e that of F(a) among the
    units, and after a digit at a there are (q - a - 1)! (q - 1)^(q - a - 1)
    completions.  The digit adds d (q - a - 1)! to the position of G in
    perms (its Lehmer code) and e (q - 1)^(q - a - 1) to that of F in
    units, so the walk steps the digits in order: it adds the offsets of
    the last three entries, listed once, to those of each prefix."""
    steps = [[(d * factorial(q - 1 - a), e * (q - 1) ** (q - 1 - a))
              for d in range(q - a) for e in range(q - 1)] for a in range(q)]

    def ranks(digits):
        g, f = map(sum, zip((0, 0), *digits))
        return g, f

    def walk():
        tail = [ranks(digits) for digits in product(*steps[-3:])]
        for g, f in map(ranks, product(*steps[:-3])):
            yield from ((perms[g + x], units[f + y]) for x, y in tail)

    return Listing(len(perms) * len(units), walk)


def stabilizer_pairs(base: Ring, *, cap: int | None = None):
    """The stabilizer as (pairs, null_part), as dual_pairs: its pairs
    (id, F), sorted, so by unit table F, and null_part(F), the index vector
    of the preimage g of (0, F - 1), so null with [1 + g'] = F, the element
    being x + g.  The unit tables are those of the coset 1 + H: over F_q
    every one, capped at (q - 1)^q, in the order of the words of length q
    over the units, each built when read (Listing); over Z/m capped at |H|
    (_pair_parts).
    """
    nb, add_t = base.size, base.index_op_tables()[0]
    less_one, zero = add_t[base.index(base.neg(base.one))], (base.index(base.zero),) * nb
    ident = tuple(range(nb))
    if base.is_field:
        field_group_order(base, "stabilizer", cap=cap)
        digits = list(compress(ident, base.unit_index_mask()))
        preimage = hermite_preimage(base)
        pairs = Listing(len(digits) ** nb, lambda: zip(repeat(ident), product(digits, repeat=nb)))
    else:
        _, unit_coset, preimage = _pair_parts(base, times=1, cap=cap, what="stabilizer")
        pairs = [(ident, F) for F in sorted(unit_coset((base.index(base.one),) * nb))]
    return pairs, lambda F: preimage(zero, tuple(map(less_one.__getitem__, F)))


def enumerate_dual_permutations(
    base: Ring, *, cap: int | None = None
) -> list[DualPermutation]:
    """All permutations of base[al] induced by base-coefficient polynomials,
    sorted by table, each with its witness (dual_pairs)."""
    pairs, witness = dual_pairs(base, cap=cap)
    return pair_elements(dual_ring(base), pairs, [
        index_polynomial(base, witness(G, F)) for G, F in pairs])


def enumerate_stabilizer(base: Ring, *, cap: int | None = None) -> list[DualPermutation]:
    """The pointwise stabilizer of the base inside the dual permutations.

    Elements come from x + g with g null on the base; the dual action scales
    the infinitesimal part by 1 + g'(a), so the element is the pair
    (id, [1 + g']) and only null parts with that table unit-valued qualify.
    Sorted by unit table, each with its witness x + g (stabilizer_pairs).
    """
    pairs, null_part = stabilizer_pairs(base, cap=cap)
    x = Polynomial.x()
    return pair_elements(dual_ring(base), pairs, [
        index_polynomial(base, null_part(F)) + x for _, F in pairs])


def _inverse(t) -> tuple[int, ...]:
    # a permutation table sorts the positions into its inverse
    return tuple(sorted(range(len(t)), key=t.__getitem__))


class _Chain:
    """A base and strong generating set of a permutation group on range(n),
    extended in place (Sims 1970; Seress, Permutation Group Algorithms, 2003).

    Level i holds a base point b, strong generators fixing the earlier base
    points, and u[p] taking b to each p of its orbit, v[p] = u[p]^-1.  A
    generator added to a level extends the orbit breadth-first, and each
    Schreier generator v[s(p)] s u[p] off that tree that does not sift from
    the next level is added there.  So the levels from each i on stay a base
    and strong generating set of the group of the level-i generators, of
    order the product of the orbit lengths.  Tables compose as
    DualPermutation products do: (a b)[k] = a[b[k]].
    """

    def __init__(self, n: int):
        self.ident = tuple(range(n))
        self.levels: list[tuple] = []

    @property
    def order(self) -> int:
        return prod(len(u) for _, _, u, _ in self.levels)

    def sift(self, g, start: int = 0):
        for b, _, _, v in self.levels[start:]:
            if g[b] != b:
                if (w := v.get(g[b])) is None:
                    break
                g = itemgetter(*g)(w)
        return g

    def extend(self, g) -> bool:
        """Add g unless it sifts; whether it was added."""
        if added := self.sift(g) != self.ident:
            self._add(0, g)
        return added

    def _add(self, i: int, g) -> None:
        ident = self.ident
        if i == len(self.levels):
            b = next(k for k, x in enumerate(g) if k != x)
            self.levels.append((b, [], {b: ident}, {b: ident}))
        _, gens, u, v = self.levels[i]
        gens.append((g, _inverse(g)))
        # (point, generator) pairs still to visit; the list grows as it runs
        todo = [(p, len(gens) - 1) for p in u]
        for p, j in todo:
            s, s_inv = gens[j]
            t = itemgetter(*u[p])(s)
            w = v.get(s[p])
            if w is None:
                u[s[p]], v[s[p]] = t, itemgetter(*s_inv)(v[p])
                todo += [(s[p], k) for k in range(len(gens))]
            elif (h := itemgetter(*t)(w)) != ident and (r := self.sift(h, i + 1)) != ident:
                self._add(i + 1, r)


def _generated(tables, n: int) -> tuple[_Chain, list]:
    """The chain of the group the tables generate, and the tables it was
    extended by: each sifts once, walked (_walk) so that a few generate."""
    group = _Chain(n)
    return group, [t for t in _walk(tables) if group.extend(t)]


class GroupAxiomsReport(NamedTuple):
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


def _axioms_report(size, closed, has_identity, inverses_ok, gens) -> GroupAxiomsReport:
    """The report on a set inside the group the tables gens generate, which
    is abelian iff they commute pairwise."""
    abelian = all(
        itemgetter(*b)(a) == itemgetter(*a)(b) for i, a in enumerate(gens) for b in gens[i + 1:]
    )
    return GroupAxiomsReport(
        size, closed, has_identity, inverses_ok, True, "composition",
        abelian, f"generators:{len(gens)}",
    )


def verify_group_axioms(elements) -> GroupAxiomsReport:
    """Check the group axioms on a finite list of elements, exactly.

    The elements must multiply as compositions of permutations, as
    DualPermutation does, so associativity holds by construction (mode
    "composition").  Each element sifts into a chain extended by those that
    do not (_generated), ending with the group G the list generates.  The
    list is closed iff |G| is its number of distinct tables; then it holds
    the identity and every inverse, else they are looked up.  It is abelian
    iff the generators S of the chain commute pairwise (abelian_mode
    "generators:<|S|>").  Raises ValueError unless every element acts on
    one dual ring.
    """
    els = list(elements)
    if not els:
        return GroupAxiomsReport(
            0, False, False, False, False, "composition", True, "generators:0"
        )
    dual = els[0].dual
    if any(e.dual is not dual and e.dual != dual for e in els):
        raise ValueError("permutations live over different dual rings")
    tables = [e.table for e in els]
    pool = set(tables)
    group, gens = _generated(tables, dual.size)
    closed = group.order == len(pool)
    has_identity = closed or group.ident in pool
    inverses_ok = closed or has_identity and all(_inverse(t) in pool for t in tables)
    return _axioms_report(len(els), closed, has_identity, inverses_ok, gens)


class EmbeddingReport(NamedTuple):
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
    over_field: bool
    product_axioms: GroupAxiomsReport

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


def _field_generators(base: Ring) -> list[tuple]:
    """(tau, 1), (sigma, 1) and (id, g at 0 and 1 elsewhere) over F_q: the
    transposition tau and the q-cycle sigma of the element indices generate
    Sym(q), and g generates F_q^x.  Conjugating the third by Sym(q) puts g
    at every point, so the three generate the whole product."""
    q, one = base.size, base.index(base.one)
    mask, mul_t = base.unit_index_mask(), base.index_op_tables()[1]
    g = next(x for x in range(q) if mask[x] and len(
        set(accumulate(repeat(x, q - 1), lambda y, z: mul_t[y][z]))) == q - 1)
    ident, ones = tuple(range(q)), (one,) * q
    return [((1, 0) + ident[2:], ones), (ident[1:] + (0,), ones), (ident, (g,) + ones[1:])]


def _stride(n: int) -> int:
    """The first of r, r + 1, r - 1, ... coprime to n, r nearest 0.618 n:
    k * step mod n, k < n, visits every place once, the first few spread."""
    r = round(0.618 * n)
    return next(k for d in count() for k in (r + d, r - d) if 0 < k <= n and gcd(k, n) == 1)


def _walk(items):
    """Each item once, the k-th at k * step mod n (_stride)."""
    step = _stride(n := len(items))
    return (items[k * step % n] for k in range(n))


def _vectors(nb: int, D: int, cap: int | None):
    """The coefficient index vectors of degree < D over nb elements, constant
    term first, the k-th the digits of k * step mod nb^D (_stride), on plain
    ints: nb^D passes sys.maxsize on Z/25, where a range has no len().  A
    walk that reads past the cap's number of vectors is refused as
    "generator walk"."""
    n, weights = nb**D, [nb**i for i in range(D)]
    step = _stride(n)
    for k in range(min(n, resolve_cap(cap))):
        yield [k * step % n // w % nb for w in weights]
    check_cap(n, cap, "generator walk")


def _base_pair(base: Ring, vec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """([f], [f']) over Z/m as index tables, f the index vector vec."""
    ev = base.evaluate_everywhere
    return tuple(ev(vec)), tuple(ev([k * c for k, c in enumerate(vec)][1:]))


def _dual_candidates(base: Ring, vectors):
    """(G, F, f) for each f of the vectors over Z/m with [f] = G a bijection
    and [f'] = F unit-valued, so permuting R[al]: f is its own witness.
    [f'] is evaluated only where [f] is a bijection."""
    nb, mask, ev = base.size, base.unit_index_mask(), base.evaluate_everywhere
    for vec in vectors:
        if len(set(G := ev(vec))) == nb:
            F = tuple(ev([k * c for k, c in enumerate(vec)][1:]))
            if all(map(mask.__getitem__, F)):
                yield tuple(G), F, vec


def _unit_candidates(base: Ring, vectors):
    """[u] for each u of the vectors over Z/m that is unit-valued."""
    mask, tables = base.unit_index_mask(), map(tuple, map(base.evaluate_everywhere, vectors))
    return (U for U in tables if all(map(mask.__getitem__, U)))


def _dual_table(base: Ring, g: Polynomial) -> tuple[int, ...]:
    """The table of g on R[al] as dual element indices, by Horner in R[al]
    at every point at once, on the base's index tables:
    (u + v al)(a + b al) + c = (u a + c) + (u b + v a) al."""
    nb, (add_t, mul_t) = base.size, base.index_op_tables()
    rows, bs = [mul_t[k // nb] for k in range(nb * nb)], [k % nb for k in range(nb * nb)]
    U = V = [base.index(base.zero)] * (nb * nb)
    for c in map(base.index, reversed(g._coeffs_for(base))):
        U, V = [add_t[a[u]][c] for u, a in zip(U, rows)], [
            add_t[mul_t[u][b]][a[v]] for u, v, a, b in zip(U, V, rows, bs)]
    return tuple([u * nb + v for u, v in zip(U, V)])


def _crt_lemma(base: Ring, factors: list[Ring]) -> bool:
    """Whether a -> (a mod q) over the factors Z/q is a bijection from Z/m
    taking its add and mul tables onto theirs: Z/m is their product ring."""
    idx, qs = range(base.size), [ring.size for ring in factors]
    return len(set(zip(*([a % q for a in idx] for q in qs)))) == base.size and all(
        [[v % q for v in row] for row in t] == [[ft[a % q][b % q] for b in idx] for a in idx]
        for ring, q in zip(factors, qs)
        for t, ft in zip(base.index_op_tables(), ring.index_op_tables()))


def _joined(reports, lemma: bool, **fixed):
    """The report on a direct product from its factors': counts multiply, a
    verdict holds iff it does on every factor and lemma holds, fixed given."""
    cls = type(reports[0])
    return cls(*(fixed[f] if f in fixed else lemma and all(col) if isinstance(col[0], bool)
                 else prod(col) for f, col in zip(cls._fields, zip(*reports))))


def verify_embedding(base: Ring, *, cap: int | None = None) -> EmbeddingReport:
    """Check that reading off base pairs embeds the dual permutations into
    the semidirect product, by Schreier-Sims from a few of them.

    The pair-form permutations of R[al] make a group, on which the read-off
    is an isomorphism onto the twisted product.  The chain (_Chain) is built
    on the pair forms of generators S, so its order is the image's size:
    the read-off is injective iff that is the dual group's order.  Each
    generator's table, by Horner in R[al] (_dual_table) from its witness,
    must be its pair form: then S are dual permutations, and with the order
    reached the law holds on the group they generate (mode
    "schreier-sims:<|S|>").  The chain's group then lies in the dual
    group, so every verdict rests on its order: reached, the image is the
    whole dual group, which factors as stabilizer times P, and it is onto
    iff it lies in the product and has the product's order.  The same
    chain, extended by (id, [u]) for unit-valued u, shows the product
    closed iff it reaches |P| |F^x| with every generator in the product,
    which holds the identity ([x], [1]) and, finite, each inverse.

    Over F_q, |P| = q!, and the stabilizer is F^x, of order (q - 1)^q
    (image_mode "closed form"): S is _field_generators with Hermite
    witnesses (hermite_preimage), and S alone generates the product.  Over
    Z/p^e, e >= 2, nothing is listed: |P| = |F| p! (p - 1)^p / p^(2p) (the
    local criterion; |F|, Kempner), |F^x| is the paper's count, and the
    stabilizer H (image_mode "module") has the pair module's Howell count
    (_null_count).  The dual group lies in the |P| |H| pairs (G, F_G + h),
    so a chain that reaches |P| |H| makes each of them a dual permutation.
    S and the u are walked vectors below the dual degree bound (_vectors),
    each its own witness, whose pair on the base must be its pair for it to
    lie in the product; a walk past the cap's number of vectors is refused
    as "generator walk".  A chain of order at most the product's holds at
    most 2 n^2 k table entries, n = |R|^2 and n^k at least that order,
    capped as "stabilizer chain" before the module or any generator is
    built.

    Over Z/m with two or more primes dividing m, each group here is the
    direct product of those over the prime-power factors Z/q (Chinese
    remainder theorem).  Each factor is verified as above, its caps first,
    then the lemma (_crt_lemma) on Z/m's tables, 2 |R|^2 entries capped as
    "operation tables", and the reports are joined (_joined), all modes but
    associativity_mode ("composition") reading "crt".
    """
    if isinstance(base, ModularRing) and base.prime_power is None:
        m = base.m  # Z/q for q the largest power of each prime p | m
        qs = [gcd(m, p ** m.bit_length()) for p in range(2, m) if m % p == 0 and is_prime(p)]
        factors = list(map(ModularRing, qs))
        reports = [verify_embedding(ring, cap=cap) for ring in factors]
        check_cap(2 * m * m, cap, "operation tables")  # the lemma's, built next
        lemma = _crt_lemma(base, factors)
        axioms = _joined([r.product_axioms for r in reports], lemma,
                         associativity_mode="composition", abelian_mode="crt")
        return _joined(reports, lemma, base=base.descriptor, homomorphism_mode="crt",
                       image_mode="crt", over_field=False, product_axioms=axioms)
    nb, n, field = base.size, base.size ** 2, base.is_field
    if field:
        perm_count, unit_count = factorial(nb), (nb - 1) ** nb
    else:
        p, e = base.prime_power
        perm_count = count_polynomial_functions(p, e) * factorial(p) * (p - 1) ** p // p ** (2 * p)
        unit_count = count_unit_valued_functions(p, e)
    ambient_size = perm_count * unit_count
    check_cap(2 * n * n * next(k for k in count(1) if n ** k >= ambient_size), cap,
              "stabilizer chain")
    if field:
        stabilizer_size, image_mode, units = unit_count, "closed form", ()
        preimage = hermite_preimage(base)
        candidates = ((G, F, preimage(G, F)) for G, F in _field_generators(base))
    else:
        module = pair_module(base)
        D = len(module) - 2 * nb  # its columns past the pair: dual_degree_bound
        stabilizer_size, image_mode = _null_count(module, nb), "module"
        candidates = _dual_candidates(base, _vectors(nb, D, cap))
        units = _unit_candidates(base, _vectors(nb, D, cap))
    order = perm_count * stabilizer_size
    group, gens, tables_ok, in_product = _Chain(n), [], True, True
    for G, F, vec in candidates:
        [table] = pair_tables(base, [(G, F)])
        if group.extend(table):
            gens.append(table)
            tables_ok = _dual_table(base, index_polynomial(base, vec)) == table and tables_ok
            in_product = (field or _base_pair(base, vec) == (G, F)) and in_product
            if group.order >= order:
                break
    image_size, image_gens, ident = group.order, len(gens), tuple(range(nb))
    for U in units if image_size < ambient_size else ():
        [table] = pair_tables(base, [(ident, U)])
        if group.extend(table):
            gens.append(table)
            if group.order >= ambient_size:
                break
    closed = in_product and group.order == ambient_size
    homomorphism_ok = tables_ok and image_size == order
    return EmbeddingReport(
        base=base.descriptor,
        dual_perm_count=order,
        image_size=image_size,
        ambient_size=ambient_size,
        perm_count=perm_count,
        unit_table_count=unit_count,
        stabilizer_size=stabilizer_size,
        injective=image_size == order,
        homomorphism_ok=homomorphism_ok,
        homomorphism_mode=f"schreier-sims:{image_gens}",
        image_in_ambient=in_product,
        surjective=homomorphism_ok and in_product and image_size == ambient_size,
        factorization_ok=homomorphism_ok and image_size == stabilizer_size * perm_count,
        image_mode=image_mode,
        over_field=field,
        product_axioms=_axioms_report(ambient_size, closed, True, True, gens),
    )
