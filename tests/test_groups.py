"""Semidirect products, dual permutations, the stabilizer, verification reports."""

import itertools
import operator
import random
import sys
from bisect import bisect_right
from collections import Counter
from functools import partial, reduce
from math import factorial, gcd, prod

import pytest

from ringfunc import funcspace, groups
from ringfunc.canonical import falling_factorial
from ringfunc.dual import dual_ring, horner_dual
from ringfunc.funcspace import (
    FunctionTable,
    induce,
    null_degree_bound,
    permutation_tables,
    unit_valued_tables,
)
from ringfunc.groups import (
    DualPermutation,
    dual_degree_bound,
    enumerate_dual_permutations,
    enumerate_stabilizer,
    pair_table_sweep,
    precompose_units,
    semidirect_group,
    semidirect_pairs,
    verify_embedding,
    verify_group_axioms,
)
from ringfunc.poly import Polynomial, X, format_polynomial, parse
from ringfunc.rings import SizeCapError, check_cap, is_prime, make_ring
import reference_sweep


def _dp_from_poly(base, f):
    """Dual permutation table of f computed point by point in the dual ring."""
    d = dual_ring(base)
    table = [d.index(v) for v in horner_dual(f, d, d.elements)]
    return DualPermutation(d, table, f)


def from_pair(dual, G, F):
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
    return groups.pair_elements(dual, [(G, F)])[0]


def inverse_permutation(table):
    """The inverse of a bijective FunctionTable."""
    if not table.is_bijection():
        raise ValueError("table is not a bijection")
    ring = table.ring
    out = [None] * ring.size
    for i, v in enumerate(table.values):
        out[ring.index(v)] = ring.elements[i]
    return FunctionTable(ring, out)


def _pair_of(ring, el):
    """The base pair of an element as FunctionTables of ring encodings."""
    els = ring.elements
    G, F = el.base_pair()
    return FunctionTable(ring, (els[i] for i in G)), FunctionTable(ring, (els[i] for i in F))


def _twisted(ring, pair1, pair2):
    """(G1 o G2, (F1 o G2) . F2) by FunctionTable arithmetic, as index tables."""
    (G1, F1), (G2, F2) = pair1, pair2
    G = G1.compose(G2)
    F = precompose_units(F1, G2).pointwise_mul(F2)
    return tuple(map(ring.index, G.values)), tuple(map(ring.index, F.values))


# ---------------------------------------------------------------------------
# the action of permutations on unit tables


def test_action_example():
    f3 = make_ring("fq:3")
    F = FunctionTable(f3, (1, 1, 2))
    G = FunctionTable(f3, (1, 2, 0))
    assert precompose_units(F, G).values == (1, 2, 1)


def test_action_requires_a_bijection():
    f3 = make_ring("fq:3")
    with pytest.raises(ValueError):
        precompose_units(FunctionTable.one(f3), FunctionTable.constant(f3, 0))


@pytest.mark.parametrize("desc", ["fq:2", "fq:3"])
def test_action_composition_order_exhaustive(desc):
    ring = make_ring(desc)
    uvs = [FunctionTable(ring, t) for t in sorted(unit_valued_tables(ring))]
    perms = [FunctionTable(ring, t) for t in sorted(permutation_tables(ring))]
    for F in uvs:
        for G1 in perms:
            for G2 in perms:
                twice = precompose_units(precompose_units(F, G1), G2)
                assert twice == precompose_units(F, G1.compose(G2))


def test_action_is_multiplicative_in_the_table():
    z4 = make_ring("zpn:2,2")
    uvs = [FunctionTable(z4, t) for t in sorted(unit_valued_tables(z4))]
    perms = [FunctionTable(z4, t) for t in sorted(permutation_tables(z4))]
    for G in perms:
        for F1 in uvs[:4]:
            for F2 in uvs[:4]:
                lhs = precompose_units(F1.pointwise_mul(F2), G)
                rhs = precompose_units(F1, G).pointwise_mul(precompose_units(F2, G))
                assert lhs == rhs


@pytest.mark.parametrize("desc", ["fq:3", "zpn:2,2"])
def test_action_permutes_the_unit_tables(desc):
    ring = make_ring(desc)
    uvs = {FunctionTable(ring, t) for t in unit_valued_tables(ring)}
    ident = FunctionTable.identity(ring)
    for t in permutation_tables(ring):
        G = FunctionTable(ring, t)
        assert {precompose_units(F, G) for F in uvs} == uvs
        back = inverse_permutation(G)
        for F in uvs:
            assert precompose_units(precompose_units(F, G), back) == F
    for F in uvs:
        assert precompose_units(F, ident) == F


# ---------------------------------------------------------------------------
# the semidirect product


def test_semidirect_element_validation():
    d4 = dual_ring(make_ring("zpn:2,2"))
    from_pair(d4, (0, 1, 2, 3), (1, 3, 1, 3))
    with pytest.raises(ValueError):
        from_pair(d4, (0, 0, 2, 3), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        from_pair(d4, (0, 1, 2, 3), (1, 2, 1, 1))  # 2 is not a unit
    with pytest.raises(ValueError):
        from_pair(d4, (0, 1, 2), (1, 1, 1, 1))


def test_semidirect_product_example():
    d3 = dual_ring(make_ring("fq:3"))
    e1 = from_pair(d3, (0, 1, 2), (1, 1, 2))
    e2 = from_pair(d3, (1, 0, 2), (1, 1, 1))
    assert (e1 * e2).base_pair() == ((1, 0, 2), (1, 1, 2))


def test_pair_table_is_the_action_on_the_dual_ring():
    # (a, b) -> (G(a), F(a) * b), entry by entry in the dual ring, on an
    # integer-encoded ring and on an extension field
    for desc in ("zm:6", "fq:4"):
        base = make_ring(desc)
        d = dual_ring(base)
        perms, units = semidirect_pairs(base)
        for G, F in ((perms[3], units[5]), (perms[-1], units[-1])):
            el = from_pair(d, G, F)
            assert el.base_pair() == (G, F)
            for (a, b), image in zip(d.elements, el.table):
                ia = base.index(a)
                expected = (base.elements[G[ia]], base.mul(base.elements[F[ia]], b))
                assert d.elements[image] == expected


def test_product_law_matches_table_construction():
    # every pair of the semidirect product: the pair read back from the
    # composed table is the twisted product of FunctionTable arithmetic
    for desc in ("fq:3", "zpn:2,2", "zm:6"):
        ring = make_ring(desc)
        group = semidirect_group(ring)
        pairs = [_pair_of(ring, el) for el in group]
        for e1, p1 in zip(group, pairs):
            for e2, p2 in zip(group, pairs):
                assert (e1 * e2).base_pair() == _twisted(ring, p1, p2)


@pytest.mark.parametrize("desc,order", [("fq:2", 2), ("fq:3", 48), ("zpn:2,2", 128)])
def test_group_order_and_inverses(desc, order):
    ring = make_ring(desc)
    group = semidirect_group(ring)
    assert len(group) == order
    assert len(set(group)) == order
    ident = DualPermutation.identity(dual_ring(ring))
    assert group[0] == ident
    for el in group:
        assert el * el.inverse() == ident
        assert el.inverse() * el == ident


@pytest.mark.parametrize("desc", ["fq:3", "zpn:2,2", "zm:6"])
def test_inverse_matches_a_brute_force_inverse_table(desc):
    base = make_ring(desc)
    for el in semidirect_group(base) + enumerate_dual_permutations(base):
        table = el.table
        brute = tuple(table.index(j) for j in range(len(table)))
        assert el.inverse().table == brute


def test_dual_rings_beyond_256_elements():
    # zm:17 has a dual ring of 289 elements: tables are not capped at 256
    base = make_ring("zm:17")
    d = dual_ring(base)
    assert d.size == 289
    units = [i for i in range(17) if base.unit_index_mask()[i]]
    rng = random.Random(17)
    els = []
    for _ in range(4):
        G = list(range(17))
        rng.shuffle(G)
        F = [rng.choice(units) for _ in range(17)]
        els.append(from_pair(d, G, F))
    ident = DualPermutation.identity(d)
    for e1 in els:
        assert e1 * e1.inverse() == ident == e1.inverse() * e1
        for e2 in els:
            prod = e1 * e2
            assert prod.table == tuple(e1.table[j] for j in e2.table)
            assert prod.base_pair() == _twisted(
                base, _pair_of(base, e1), _pair_of(base, e2)
            )


def test_mixed_ring_products_are_rejected():
    a = DualPermutation.identity(dual_ring(make_ring("fq:2")))
    b = DualPermutation.identity(dual_ring(make_ring("fq:3")))
    with pytest.raises(ValueError):
        a * b


@pytest.mark.parametrize("desc", ["fq:2", "fq:3", "zpn:2,2"])
def test_every_element_splits_into_permutation_and_unit_parts(desc):
    ring = make_ring(desc)
    d = dual_ring(ring)
    one = (ring.index(ring.one),) * ring.size
    ident_perm = tuple(range(ring.size))
    for el in semidirect_group(ring):
        G, F = el.base_pair()
        g_part = from_pair(d, G, one)
        f_part = from_pair(d, ident_perm, F)
        assert g_part * f_part == el


@pytest.mark.parametrize("desc", ["fq:2", "fq:3", "zpn:2,2"])
def test_unit_tables_form_a_normal_complement(desc):
    ring = make_ring(desc)
    one = (ring.index(ring.one),) * ring.size
    ident_perm = tuple(range(ring.size))
    group = semidirect_group(ring)
    unit_subgroup = {el for el in group if el.base_pair()[0] == ident_perm}
    perm_subgroup = {el for el in group if el.base_pair()[1] == one}
    assert unit_subgroup & perm_subgroup == {DualPermutation.identity(dual_ring(ring))}
    for h in group:
        hinv = h.inverse()
        for u in unit_subgroup:
            assert h * u * hinv in unit_subgroup


# Brute-force oracles: all pairs for closure and commutativity, all triples
# for associativity, all pairs for the homomorphism law.


def _cayley(els):
    """Index of a * b in els for every pair, None where a product leaves it."""
    index = {el: i for i, el in enumerate(els)}
    return [[index.get(a * b) for b in els] for a in els]


def _brute_axioms(els):
    """(closed, associative, abelian) from every pair and every triple;
    associativity is None for a set that is not closed."""
    table = _cayley(els)
    r = range(len(els))
    abelian = all(els[a] * els[b] == els[b] * els[a] for a in r for b in r)
    if any(None in row for row in table):
        return False, None, abelian
    associative = all(
        table[table[a][b]][c] == table[a][table[b][c]] for a in r for b in r for c in r
    )
    return True, associative, abelian


def _brute_identity_inverses(els):
    """(has_identity, inverses_ok) by search over the elements: some e with
    e * x == x == x * e for every x, and for every x some y with
    x * y == e == y * x."""
    e = next((e for e in els if all(e * x == x == x * e for x in els)), None)
    if e is None:
        return False, False
    return True, all(any(x * y == e == y * x for y in els) for x in els)


def _brute_homomorphism(base, dps):
    """Whether the dual permutations are closed under products and the pair
    of d1 * d2 is the twisted product of the pairs, for all pairs."""
    if not _brute_axioms(dps)[0]:
        return False
    mul_t = base.index_op_tables()[1]
    for d1 in dps:
        G1, F1 = d1.base_pair()
        for d2 in dps:
            G2, F2 = d2.base_pair()
            Gc, Fc = (d1 * d2).base_pair()
            if Gc != tuple(G1[a] for a in G2):
                return False
            if Fc != tuple(mul_t[F1[a]][b] for a, b in zip(G2, F2)):
                return False
    return True


def _foreign_perm(ring):
    """A bijection of the ring that no polynomial induces."""
    induced = permutation_tables(ring)
    return next(
        p for p in itertools.permutations(range(ring.size))
        if tuple(ring.elements[i] for i in p) not in induced
    )


def test_axiom_report_on_small_groups():
    f3 = make_ring("fq:3")
    rep = verify_group_axioms(semidirect_group(f3))
    assert rep.passed
    assert rep.size == 48
    assert rep.associativity_mode == "composition"
    assert not rep.abelian
    assert rep.abelian_mode.startswith("generators:")

    z4 = make_ring("zpn:2,2")
    rep4 = verify_group_axioms(semidirect_group(z4))
    assert rep4.passed
    assert not rep4.abelian
    assert rep4.associativity_mode == "composition"


def test_axiom_report_uses_few_generators():
    # a greedy generating set of a group of order n has at most log2(n) + 1
    # elements, so the closure costs O(n log n) products
    for desc in ("fq:3", "zpn:2,2", "fq:4"):
        group = semidirect_group(make_ring(desc))
        k = int(verify_group_axioms(group).abelian_mode.split(":")[1])
        assert 2 <= k <= len(group).bit_length()


def _spy_batches(monkeypatch):
    """Record each batch of products _generate forms, as (s, [(x, y)]): the
    generator's table s and, for each pool table x in pool order, the
    product table y, the products being taken through the real helper."""
    batches = []
    real = _products_by

    def spy(cols, s):
        products = list(real(cols, s))
        batches.append((s, list(zip(zip(*cols), products))))
        return iter(products)

    monkeypatch.setattr(sys.modules[__name__], "_products_by", spy)
    return batches


def test_generating_set_leaves_out_the_identity(monkeypatch):
    # the sorted enumerations list the identity first; making it a generator
    # would cost |G| products and generate nothing
    f3 = make_ring("fq:3")
    d3 = dual_ring(f3)
    dps = enumerate_dual_permutations(f3)
    for pool, identity in (
        (semidirect_group(f3), DualPermutation.identity(d3)),
        (semidirect_group(make_ring("zpn:2,2")),
         DualPermutation.identity(dual_ring(make_ring("zpn:2,2")))),
        (dps, DualPermutation.identity(d3)),
    ):
        assert pool[0] == identity
        batches = _spy_batches(monkeypatch)
        gens, closed = _generate(pool)
        monkeypatch.undo()
        assert closed
        assert identity not in gens
        assert sum(len(products) for _, products in batches) == len(pool) * len(gens)
    # a one-element pool still takes its element as the generator
    e = DualPermutation.identity(d3)
    assert _generate([e]) == ([e], True)
    # the identity and an involution: the involution generates both
    swap = from_pair(d3, (1, 0, 2), (1, 1, 1))
    assert _generate([e, swap]) == ([swap], True)


@pytest.mark.parametrize("desc", ["fq:3", "zpn:2,2", "fq:4", "zm:6"])
def test_generating_set_pins_the_product_count(desc, monkeypatch):
    # the walk picks at most 3 generators, and each forms x * s once for
    # every pool table x, one batch per generator: |G| * |S| products
    base = make_ring(desc)
    for pool in (semidirect_group(base), enumerate_dual_permutations(base)):
        batches = _spy_batches(monkeypatch)
        gens, closed = _generate(pool)
        monkeypatch.undo()
        assert closed
        assert len(gens) <= 3
        assert [s for s, _ in batches] == [g.table for g in gens]
        products = [(x, s, y) for s, batch in batches for x, y in batch]
        assert len(products) == len(pool) * len(gens)
        assert all([x for x, _ in batch] == [el.table for el in pool] for _, batch in batches)
        assert len({(x, s) for x, s, _ in products}) == len(products)
        assert all(y == tuple(x[i] for i in s) for x, s, y in products)


def _most_python_calls(fn, *args):
    """fn(*args) and the most Python-level calls that any one function,
    comprehension or generator makes under it, generator resumptions
    included."""
    calls = Counter()

    def count(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(count)
    try:
        out = fn(*args)
    finally:
        sys.setprofile(None)
    return out, max(calls.values())


@pytest.mark.parametrize("desc", ["fq:4", "zpn:2,3"])
def test_closure_and_law_make_no_python_call_per_product(desc):
    # the oracle's products by a generator are one batch over the pool's
    # columns: its closure runs Python code at most once per element.  The
    # embedding, by Schreier-Sims from a few generators, runs no function,
    # comprehension or generator as often as the closure makes products x * s
    base = make_ring(desc)
    pool = enumerate_dual_permutations(base)
    (gens, closed), most = _most_python_calls(_generate, pool)
    assert closed and len(gens) >= 3
    assert most <= len(pool) + 1
    rep, most = _most_python_calls(verify_embedding, base)
    assert rep.homomorphism_ok and rep.homomorphism_mode.startswith("schreier-sims:")
    assert most < len(pool) * len(gens)


def _axiom_pools():
    f3 = make_ring("fq:3")
    z4 = make_ring("zpn:2,2")
    d4 = dual_ring(z4)
    f3_group = semidirect_group(f3)
    z4_group = semidirect_group(z4)
    z4_stab = enumerate_stabilizer(z4)
    one = (z4.index(z4.one),) * z4.size
    return {
        "fq:3": f3_group,
        "zpn:2,2": z4_group,
        "zpn:2,2-stabilizer": z4_stab,
        "fq:3-permutations": [el for el in f3_group if el.base_pair()[1] == (1, 1, 1)],
        "fq:3-no-identity": f3_group[1:],
        "fq:3-truncated": f3_group[:10],
        # the stabilizer plus a unit table outside the induced [1 + g'] set
        "zpn:2,2-stabilizer-foreign-unit": z4_stab + [
            from_pair(d4, tuple(range(4)), (1, 1, 1, 3))
        ],
        # the whole product plus a permutation no polynomial induces
        "zpn:2,2-foreign-perm": z4_group + [
            from_pair(d4, _foreign_perm(z4), one)
        ],
    }


@pytest.mark.parametrize("name", [
    "fq:3", "zpn:2,2", "zpn:2,2-stabilizer", "fq:3-permutations",
    "fq:3-no-identity", "fq:3-truncated",
    "zpn:2,2-stabilizer-foreign-unit", "zpn:2,2-foreign-perm",
])
def test_axiom_report_matches_brute_force(name):
    pool = _axiom_pools()[name]
    rep = verify_group_axioms(pool)
    closed, associative, abelian = _brute_axioms(pool)
    assert (rep.closed, rep.abelian) == (closed, abelian)
    assert (rep.has_identity, rep.inverses_ok) == _brute_identity_inverses(pool)
    if associative is not None:
        assert rep.associative == associative
    assert rep.associativity_mode == "composition"


def test_axiom_report_flags_broken_sets():
    f3 = make_ring("fq:3")
    group = semidirect_group(f3)
    assert not verify_group_axioms(group[1:]).passed
    truncated = verify_group_axioms(group[:10])
    assert not truncated.closed
    assert not truncated.passed
    assert verify_group_axioms([]).size == 0
    singleton = verify_group_axioms([DualPermutation.identity(dual_ring(f3))])
    assert singleton.passed
    assert singleton.abelian


@pytest.mark.parametrize("name", [
    "zpn:2,2-stabilizer-foreign-unit", "zpn:2,2-foreign-perm",
])
def test_axiom_report_rejects_a_foreign_pair(name):
    rep = verify_group_axioms(_axiom_pools()[name])
    assert not rep.closed
    assert not rep.passed


def test_group_checks_reject_a_pool_over_two_dual_rings():
    # the identity of dual:zm:4 has the same table as that of dual:zpn:2,2,
    # so only the ring tells the pool apart from a group
    z4 = make_ring("zpn:2,2")
    mixed = semidirect_group(z4)[1:] + [DualPermutation.identity(dual_ring(make_ring("zm:4")))]
    assert _brute_axioms([DualPermutation(dual_ring(z4), el.table) for el in mixed])[0]
    with pytest.raises(ValueError):
        verify_group_axioms(mixed)
    with pytest.raises(ValueError):
        _generate(mixed)


# ---------------------------------------------------------------------------
# the listing oracle: a listed group closed from a greedy generating set,
# the reference for the verdicts the library reaches by Schreier-Sims


def _products_by(cols, s):
    """The tables x * s of the pool's elements x, in pool order, from cols,
    the pool's tables transposed: column k of x * s is column s[k]."""
    return zip(*map(cols.__getitem__, s))


def _generate(elements, cols=None):
    """Greedy generating set of a finite pool, and whether the pool is closed.

    The walk visits the pool at positions i * step mod n, step the first of
    r, r + 1, r - 1, r + 2, ... coprime to n for r nearest 0.618 * n, and
    makes each element not yet reached a new generator.  A new generator s
    forms x * s once for every pool element x, |G| * |S| products in all,
    as one batch over the pool's columns (_products_by), and each product is
    mapped to its pool position.  The pool is closed iff no product leaves
    it.  Reaching then walks positions over each generator's map.  The
    identity is never made a generator unless it is the whole pool.  Raises
    ValueError unless every element acts on one dual ring.
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
    gens, maps, done = [], [], []
    # position n stands for every product outside the pool: reached already
    reached = bytearray(n + 1)
    reached[n] = 1
    order = []
    for i in range(n):
        g = els[i * step % n]
        k = index[g.table]
        if reached[k] or (len(index) > 1 and g.table == ident):
            continue
        gens.append(g)
        maps.append(list(map(index.get, _products_by(cols, g.table), itertools.repeat(n))))
        done.append(0)
        reached[k] = 1
        order.append(k)
        while any(j < len(order) for j in done):
            for j, m in enumerate(maps):
                # a list iterator also yields what is appended while it runs
                for y in map(m.__getitem__, itertools.islice(order, done[j], None)):
                    if not reached[y]:
                        reached[y] = 1
                        order.append(y)
                done[j] = len(order)
    return gens, all(n not in m for m in maps)


def _oracle_axioms_report(els, gens, closed):
    """The axioms report of nonempty els from (gens, closed) = _generate(els),
    the identity and inverses looked up where the pool is not closed."""
    has_identity = inverses_ok = closed
    if not closed:
        tables = [e.table for e in els]
        pool = set(tables)
        ident = tuple(range(len(tables[0])))
        has_identity = ident in pool
        inverses_ok = has_identity and all(
            (inv := tuple(sorted(ident, key=t.__getitem__))) in pool
            and operator.itemgetter(*inv)(t) == ident == operator.itemgetter(*t)(inv)
            for t in tables
        )
    abelian = all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1:])
    return groups.GroupAxiomsReport(
        len(els), closed, has_identity, inverses_ok, True, "composition",
        abelian, f"generators:{len(gens)}",
    )


def _oracle_axioms(elements):
    els = list(elements)
    return _oracle_axioms_report(els, *_generate(els))


def _oracle_embedding(base):
    """The embedding report from the listing: every pair of dual_pairs as
    an element, closed by _generate, the law pair(d * s) = pair(d) * pair(s)
    compared for every d and generator s on columns, membership in the
    product and onto (the image is the product) on the pairs decoded from
    the row b = 1 of each table, and the
    product's axioms from the same closure when the image is the product,
    else from the listed product."""
    nb, i1 = base.size, base.index(base.one)
    pairs = groups.dual_pairs(base)[0]
    perms = groups.pair_elements(dual_ring(base), pairs)
    cols = list(zip(*[dp.table for dp in perms]))
    image = {_decoded(row, nb) for row in zip(*cols[i1::nb])}
    perm_tables, unit_tables = semidirect_pairs(base)
    ambient = set(itertools.product(perm_tables, unit_tables))
    stabilizer_size = sum(G == tuple(range(nb)) for G, _ in image)
    mul_t = base.index_op_tables()[1]
    scale = [[w - w % nb + mul_t[w % nb][f] for w in range(nb * nb)] for f in range(nb)]
    gens, closed = _generate(perms, cols)
    law_ok = all(
        cols[v] == tuple(map(scale[v % nb].__getitem__, cols[v - v % nb + i1]))
        for s in gens for v in s.table[i1::nb]
    )
    ambient_size = len(perm_tables) * len(unit_tables)
    whole = len(image) == len(perms) and image == ambient
    return groups.EmbeddingReport(
        base=base.descriptor,
        dual_perm_count=len(perms),
        image_size=len(image),
        ambient_size=ambient_size,
        perm_count=len(perm_tables),
        unit_table_count=len(unit_tables),
        stabilizer_size=stabilizer_size,
        injective=len(image) == len(perms),
        homomorphism_ok=law_ok and closed,
        homomorphism_mode=f"generators:{len(gens)}",
        image_in_ambient=image <= ambient,
        surjective=image == ambient,
        factorization_ok=len(image) == stabilizer_size * len(perm_tables),
        image_mode="closed form" if base.is_field
        else "crt" if getattr(base, "prime_power", 0) is None else "module",
        over_field=base.is_field,
        product_axioms=_oracle_axioms_report(perms, gens, closed) if whole
        else _oracle_axioms(semidirect_group(base)),
    )


def _listed_embedding(base, cap=None):
    """The report over Z/p^e from the listings, as verify_embedding once
    made it: F(R) listed (semidirect_factors) and each G lifted to its pairs
    by the pair module (_pair_parts), whose count is the dual group's order
    and those over id the stabilizer's; a chain from the pairs walked
    G-major at the golden stride, each new generator's table built from
    its least preimage; and the product's axioms from sifting (G, 1) and
    (id, F) for every listed G and F, the image in the product iff that is
    closed and holds the generators."""
    nb, n, one = base.size, base.size ** 2, base.index(base.one)
    ident, ones = tuple(range(nb)), (one,) * nb
    perms, units = groups.semidirect_factors(base, cap=cap)
    over, _, preimage = groups._pair_parts(base, times=len(perms), cap=cap, what="dual pairs")
    lifts = [(G, over(G)) for G in perms]
    ends = list(itertools.accumulate(len(Fs) for _, Fs in lifts))
    order, group, gens, tables_ok = ends[-1], groups._Chain(n), [], True
    step = groups._stride(order)
    for k in range(order):
        G, Fs = lifts[j := bisect_right(ends, k * step % order)]
        F = Fs[k * step % order - ends[j]]  # from the end of the G's pairs
        [table] = groups.pair_tables(base, [(G, F)])
        if group.extend(table):
            gens.append((G, F))
            witness = funcspace.index_polynomial(base, preimage(G, F))
            tables_ok = groups._dual_table(base, witness) == table and tables_ok
            if group.order >= order:
                break
    pset, uset, ambient = set(perms), set(units), len(perms) * len(units)
    product, pgens = groups._generated(list(groups.pair_tables(
        base, [(G, ones) for G in perms] + [(ident, F) for F in units])), n)
    closed, has_identity = product.order == ambient, ident in pset and ones in uset
    inverses = (_inverse_pair(base, G, F) for G in perms for F in units)
    inverses_ok = closed or has_identity and all(G in pset and F in uset for G, F in inverses)
    in_product = closed and all(G in pset and F in uset for G, F in gens)
    stabilizer_size = len(over(ident))
    return groups.EmbeddingReport(
        base.descriptor, order, group.order, ambient, len(perms), len(units), stabilizer_size,
        group.order == order, tables_ok and group.order == order, f"schreier-sims:{len(gens)}",
        in_product, in_product and group.order == ambient,
        group.order == stabilizer_size * len(perms), "module", False,
        groups._axioms_report(ambient, closed, has_identity, inverses_ok, pgens))


def _inverse_pair(base, G, F):
    """(G, F)^-1 = (G^-1, (F o G^-1)^-1) in the twisted product."""
    one = base.index(base.one)
    inv = [row.index(one) if one in row else 0 for row in base.index_op_tables()[1]]
    G_inv = tuple(sorted(range(base.size), key=G.__getitem__))
    return G_inv, tuple(inv[F[a]] for a in G_inv)


def _without_modes(report):
    """The report's fields as a dict, the modes and the nested report's
    modes left out."""
    fields = report._asdict()
    if "product_axioms" in fields:
        fields["product_axioms"] = fields["product_axioms"]._asdict()
    for doc in (fields, fields.get("product_axioms") or {}):
        for mode in ("homomorphism_mode", "associativity_mode", "abelian_mode"):
            doc.pop(mode, None)
    return fields


def _oracle_generate(elements, visit=None):
    """The greedy walk of _generate one product at a time: each reached
    table x times each generator s by one itemgetter call, visit(x, s, y)
    on each, and a product outside the pool marks it not closed."""
    els = list(elements)
    n = len(els)
    if n == 0:
        return [], True
    pool = {e.table for e in els}
    ident = tuple(range(els[0].dual.size))
    r = round(0.618 * n)
    step = next(k for d in range(n) for k in (r + d, r - d) if 0 < k <= n and gcd(k, n) == 1)
    gens, muls, done, reached, order = [], [], [], set(), []
    closed = True
    for i in range(n):
        g = els[i * step % n]
        if g.table in reached or (len(pool) > 1 and g.table == ident):
            continue
        gens.append(g)
        muls.append(operator.itemgetter(*g.table))
        done.append(0)
        reached.add(g.table)
        order.append(g.table)
        while any(k < len(order) for k in done):
            for j, (s, mul) in enumerate(zip(gens, muls)):
                for x in itertools.islice(order, done[j], None):
                    y = mul(x)
                    if visit is not None:
                        visit(x, s, y)
                    if y not in reached:
                        if y in pool:
                            reached.add(y)
                            order.append(y)
                        else:
                            closed = False
                done[j] = len(order)
    return gens, closed


def _permutations_and_a_coset():
    """The 6 pure permutations (pi, 1) of fq:3 and their coset g H, g the unit
    pair (id, (1, 1, 2)): a pool that only some products leave."""
    f3 = make_ring("fq:3")
    H = [el for el in semidirect_group(f3) if el.base_pair()[1] == (1, 1, 1)]
    g = from_pair(dual_ring(f3), (0, 1, 2), (1, 1, 2))
    return H + [g * h for h in H]


ORACLE_RINGS = ("fq:2", "fq:3", "fq:4", "zpn:2,2", "zm:6")


@pytest.mark.parametrize("name", [
    "fq:3", "zpn:2,2", "zpn:2,2-stabilizer", "fq:3-permutations",
    "fq:3-no-identity", "fq:3-truncated",
    "zpn:2,2-stabilizer-foreign-unit", "zpn:2,2-foreign-perm",
    "fq:3-permutations-and-a-coset",
] + [f"{desc}-{group}" for desc in ORACLE_RINGS for group in ("dual", "product")])
def test_generating_set_matches_the_per_product_walk(name):
    # the same generators, as tables and in order, and the same closure
    desc, _, group = name.rpartition("-")
    if group in ("dual", "product") and desc in ORACLE_RINGS:
        base = make_ring(desc)
        pool = enumerate_dual_permutations(base) if group == "dual" else semidirect_group(base)
    elif name == "fq:3-permutations-and-a-coset":
        pool = _permutations_and_a_coset()
    else:
        pool = _axiom_pools()[name]
    gens, closed = _generate(pool)
    want_gens, want_closed = _oracle_generate(pool)
    assert [g.table for g in gens] == [g.table for g in want_gens]
    assert closed == want_closed


def test_generating_set_of_a_pool_left_by_some_products(monkeypatch):
    # H + gH is not closed: of the 12 products by the first generator 8 leave
    # it, and none by the other two.  Every element is still reached, the
    # generators are the per-product walk's, and the identity and inverses
    # are looked up: the identity is there, the inverse of g is not
    pool = _permutations_and_a_coset()
    tables = {el.table for el in pool}
    batches = _spy_batches(monkeypatch)
    gens, closed = _generate(pool)
    monkeypatch.undo()
    assert not closed
    assert [sum(y not in tables for _, y in batch) for _, batch in batches] == [8, 0, 0]
    visited = set()
    want = _oracle_generate(pool, lambda x, s, y: visited.add(x))
    assert visited == tables
    assert ([g.table for g in gens], closed) == ([g.table for g in want[0]], want[1])
    reached = {g.table for g in gens}
    frontier = list(reached)
    while frontier:
        x = frontier.pop()
        for y in (tuple(x[i] for i in g.table) for g in gens):
            if y in tables and y not in reached:
                reached.add(y)
                frontier.append(y)
    assert reached == tables
    rep = _oracle_axioms_report(pool, gens, closed)
    assert (rep.has_identity, rep.inverses_ok) == (True, False)
    assert (rep.has_identity, rep.inverses_ok) == _brute_identity_inverses(pool)
    rep = verify_group_axioms(pool)
    assert (rep.closed, rep.has_identity, rep.inverses_ok) == (False, True, False)


# ---------------------------------------------------------------------------
# dual permutations and their base pairs


def test_dual_permutation_validation_and_identity():
    d = make_ring("dual:zpn:2,2")
    ident = DualPermutation.identity(d)
    assert ident.table == tuple(range(16))
    assert ident.witness == X
    with pytest.raises(ValueError):
        DualPermutation(d, (0,) * 16)
    with pytest.raises(ValueError):
        DualPermutation(d, (0, 1))


def test_base_pair_example_over_the_four_element_ring():
    z4 = make_ring("zpn:2,2")
    dp = _dp_from_poly(z4, parse("x + 2x^2"))
    G, F = dp.base_pair()
    assert G == (0, 3, 2, 1)
    assert F == (1, 1, 1, 1)
    # the pair determines the whole table
    assert from_pair(dp.dual, G, F) == dp


def test_base_pair_example_over_the_three_element_field():
    f3 = make_ring("fq:3")
    dp = _dp_from_poly(f3, parse("2x^3 + 2x"))
    assert dp.base_pair() == ((0, 1, 2), (2, 2, 2))


def test_products_compose_tables_and_drop_witnesses():
    z4 = make_ring("zpn:2,2")
    dp1 = _dp_from_poly(z4, parse("x + 2x^2"))
    dp2 = _dp_from_poly(z4, parse("3x"))
    prod = dp1 * dp2
    assert prod.table == tuple(dp1.table[j] for j in dp2.table)
    assert prod.witness is None
    assert prod.inverse() * prod == DualPermutation.identity(dual_ring(z4))


def test_equality_ignores_the_witness():
    z4 = make_ring("zpn:2,2")
    a = _dp_from_poly(z4, X)
    b = DualPermutation.identity(dual_ring(z4))
    assert a == b
    assert hash(a) == hash(b)
    assert a.witness == X


def test_composition_matches_polynomial_composition():
    f3 = make_ring("fq:3")
    f, g = parse("2x^3 + 2x"), parse("x + 1")
    dpf, dpg = _dp_from_poly(f3, f), _dp_from_poly(f3, g)
    assert dpf * dpg == _dp_from_poly(f3, f.compose(g))


# ---------------------------------------------------------------------------
# degree bounds and enumeration of dual permutations


def test_dual_degree_bound_values():
    assert dual_degree_bound(make_ring("fq:2")) == 4
    assert dual_degree_bound(make_ring("fq:3")) == 6
    assert dual_degree_bound(make_ring("fq:4")) == 8
    assert dual_degree_bound(make_ring("zpn:2,2")) == 4
    assert dual_degree_bound(make_ring("zpn:2,3")) == 8
    assert dual_degree_bound(make_ring("zm:9")) == 9
    assert dual_degree_bound(make_ring("zm:10")) == 10
    assert dual_degree_bound(make_ring("zpn:2,4")) == 8
    assert dual_degree_bound(make_ring("zpn:7,2")) == 21


def _is_null_pair(coeffs, m):
    """Whether the integer polynomial and its derivative both vanish mod m."""
    for a in range(m):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * a + c) % m
        if acc:
            return False
        dacc = 0
        for k in range(len(coeffs) - 1, 0, -1):
            dacc = (dacc * a + k * coeffs[k]) % m
        if dacc:
            return False
    return True


def _monic_null_degree(m):
    """The oracle of dual_degree_bound over Z/m: the least degree of a monic
    null pair by exhaustive search.  Nullity at 0 forces the constant and
    linear coefficients to zero, and the square of a monic null polynomial
    of the plain null degree bound is one, so the search stops at twice it."""
    limit = 2 * null_degree_bound(make_ring(f"zm:{m}"))
    for D in range(2, limit + 1):
        for tail in itertools.product(range(m), repeat=D - 2):
            if _is_null_pair((0, 0) + tail + (1,), m):
                return D
    return limit


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 12])
def test_dual_degree_bound_matches_the_monic_search(m):
    assert dual_degree_bound(make_ring(f"zm:{m}")) == _monic_null_degree(m)


@pytest.mark.parametrize("desc,bound", [
    ("zm:9", 9), ("zpn:3,2", 9), ("zm:10", 10), ("zm:18", 9), ("zm:36", 9),
    ("zpn:2,4", 8), ("zpn:3,3", 9), ("zpn:5,2", 15), ("zpn:7,2", 21), ("zm:81", 12),
])
def test_dual_degree_bound_beyond_the_monic_search(desc, bound):
    assert dual_degree_bound(make_ring(desc)) == bound


def test_dual_degree_bound_lies_between_the_null_bound_and_its_double():
    # a monic null polynomial g of the null bound gives the null pair g^2
    for m in range(2, 61):
        ring = make_ring(f"zm:{m}")
        assert null_degree_bound(ring) <= dual_degree_bound(ring) <= 2 * null_degree_bound(ring)


def test_dual_degree_bound_of_a_product_is_the_larger_factor_bound():
    # a monic null pair on Z/a times x^k stays one, and CRT joins the two
    bound = {m: dual_degree_bound(make_ring(f"zm:{m}")) for m in range(2, 61)}
    pairs = [(a, b) for a in range(2, 61) for b in range(a + 1, 60 // a + 1) if gcd(a, b) == 1]
    assert len(pairs) > 10
    for a, b in pairs:
        assert bound[a * b] == max(bound[a], bound[b])


def test_pair_counts_stabilize_at_the_bound():
    z4 = make_ring("zpn:2,2")
    mask = z4.unit_index_mask()

    def count(D):
        pairs = set()
        for ftab, dtab, _ in pair_table_sweep(z4, D):
            if len(set(ftab)) == 4 and all(mask[i] for i in dtab):
                pairs.add((ftab, dtab))
        return len(pairs)

    assert count(3) == 16
    assert count(4) == 32
    assert count(5) == 32


def test_sweep_tables_match_direct_induction():
    z4 = make_ring("zpn:2,2")
    for ftab, dtab, coeffs in pair_table_sweep(z4, 3):
        f = Polynomial(coeffs)
        assert ftab == induce(f, z4).values
        assert dtab == induce(f.derive(), z4).values


# per-candidate oracles for the sweeps: every coefficient vector in turn

ORACLE_RINGS = ("fq:2", "fq:3", "fq:4", "zpn:2,2", "zpn:2,3", "zm:6")


def _candidates(base, D):
    """Coefficient vectors of degree < D, constant term fastest, each
    coefficient in element order."""
    return [tuple(reversed(t)) for t in itertools.product(base.elements, repeat=D)]


def _poly(base, coeffs):
    return Polynomial(coeffs, None if base.integer_encoded else base)


def _index_table(base, f):
    return tuple(base.index(v) for v in induce(f, base).values)


@pytest.mark.parametrize("desc", ORACLE_RINGS)
def test_pair_sweep_matches_per_candidate_induction(desc):
    base = make_ring(desc)
    for D in range(4):
        expected = []
        for coeffs in _candidates(base, D):
            f = _poly(base, coeffs)
            expected.append((_index_table(base, f), _index_table(base, f.derive()), coeffs))
        assert list(pair_table_sweep(base, D)) == expected


def test_pair_sweeps_reject_bad_arguments():
    z4 = make_ring("zpn:2,2")
    with pytest.raises(SizeCapError, match="pair sweep: 64 exceeds cap 63"):
        list(pair_table_sweep(z4, 3, cap=63))
    assert len(list(pair_table_sweep(z4, 3, cap=64))) == 64


@pytest.mark.parametrize("D", [0, -1])
def test_pair_sweep_below_degree_one_yields_the_zero_candidate(D):
    z4 = make_ring("zpn:2,2")
    zero = (0, 0, 0, 0)
    assert list(pair_table_sweep(z4, D, cap=1)) == [(zero, zero, ())]


def derivative_stages(ring, degree_bound, domain, points, scale=None):
    """The stages of reference_sweep.monomial_stages with the derivative
    columns the sweep oracles key on: each term [c x^d] followed by s d c a^(d-1) at each
    element index a of points, s being scale (default one).  With every
    point there, the term is the pair ([c x^d], [(c x^d)'])."""
    _, mul_t = ring.index_op_tables()
    pw = ring.power_index_table(max(degree_bound - 1, 0))
    s = ring.one if scale is None else scale
    stages = []
    for d, stage in enumerate(reference_sweep.monomial_stages(ring, degree_bound, domain), 1):
        ds = ring.mul(s, ring.from_int(d))
        stages.append([
            (c, t + tuple(mul_t[ring.index(ring.mul(ds, c))][pw[d - 1][a]] for a in points))
            for c, t in stage
        ])
    return stages


def table_sum(add_t, tables, zero) -> tuple:
    # the entrywise sum of index tables, by the index addition table
    return reduce(lambda s, t: tuple(map(operator.getitem, map(add_t.__getitem__, s), t)),
                  tables, zero)


def split_keys(add_t, zero, low, rest, on, admits, null, cap):
    """The keys l + r of each low sum l that admits and each rest sum r;
    None unless every rest term is null on the filter's points (the entries
    on) and the low sweep there merges no two combinations of terms.  So the
    filter sees the low part alone, on the points, and each admitted low
    sum is summed in full from its coefficients.  The cap, checked before
    each sweep, counts the low sums and the rest sums, since the low sum x
    admits on every ring, then the keys: the admitted low sums times the
    distinct terms of each rest stage (exact if independent)."""
    if not all(null(t[on]) for st in rest for _, t in st):
        return None
    count = lambda stages: prod(len({t for _, t in st}) for st in stages)
    check_cap(count(low), cap, "pair sweep")
    check_cap(count(rest), cap, "pair sweep")
    admitted, points = [], [[(c, t[on]) for c, t in st] for st in low]
    for swept, (t, w) in enumerate(reference_sweep.coefficient_sums(add_t, zero[on], points), 1):
        if admits(t):
            admitted.append(w)
    if swept != count(low):  # two low combinations were merged
        return None
    check_cap(len(admitted) * count(rest), cap, "pair sweep")
    terms = [dict(st) for st in low]
    lows = [
        [add_t[b] for b in table_sum(add_t, map(operator.getitem, terms, w), zero)]
        for w in admitted
    ]
    rests = reference_sweep.coefficient_sums(add_t, zero, rest)
    return (tuple(map(operator.getitem, rows, r)) for r, _ in rests for rows in lows)


def _pair_sums(base, degree_bound, *, cap=None):
    """The pairs ([f0], [f0']) of the polynomials f0 of degree < D with
    constant term zero, streamed by the reference sweep over every stage: each
    pair at least once, its first occurrence with the first candidate of
    pair_table_sweep with constant term zero.  Yields (f0_table +
    derivative_table, rest), rest the coefficients of degree 1 .. D-1.  The
    cap counts every candidate, |base|^D, and is checked before any work."""
    check_cap(base.size ** degree_bound, cap, "pair sweep")
    stages = derivative_stages(base, degree_bound, base.elements, range(base.size))
    zero = (base.index(base.zero),) * (2 * base.size)
    return reference_sweep.coefficient_sums(base.index_op_tables()[0], zero, stages)


def _streamed_dual_sweep(base, *, cap=None):
    """The coefficient sweep oracle of the dual listings: every pair of
    _pair_sums at the dual degree bound, filtered one by one.  Returns
    (passing, units): the pairs ([f0], [f0']) with [f0] a bijection and
    [f0'] unit-valued, and the unit-valued [1 + g'] of the null g, each
    mapping to the coefficients rest of its first candidate."""
    size = base.size
    mask = base.unit_index_mask()
    one_row = base.index_op_tables()[0][base.index(base.one)]
    zero_tab = (base.index(base.zero),) * size
    passing, units = {}, {}
    for pair, rest in _pair_sums(base, dual_degree_bound(base), cap=cap):
        ftab = pair[:size]
        if ftab == zero_tab:
            unit = tuple(one_row[i] for i in pair[size:])
            if all(mask[i] for i in unit):
                units.setdefault(unit, rest)
        elif len(set(ftab)) == size and all(mask[i] for i in pair[size:]):
            passing.setdefault(pair, rest)
    return passing, units


@pytest.mark.parametrize(
    "desc,cap",
    [("fq:2", None), ("fq:3", None), ("zpn:2,2", None), ("zm:6", None), ("fq:4", None),
     ("zm:8", 10**9), ("zm:12", 10**9)],
)
def test_split_dual_sweep_matches_the_streamed_filter(desc, cap):
    # the listings of dual_pairs and stabilizer_pairs, from the pair module
    # over Z/m, against the streamed sweep: rows, witnesses, null parts
    base = make_ring(desc)
    nb = base.size
    dual, stabilizer = sweep_dual_listing(base, cap=cap), sweep_stabilizer_listing(base, cap=cap)
    pairs, witness = groups.dual_pairs(base, cap=cap)
    assert list(pairs) == [pair for _, pair, _ in dual]
    poly = partial(funcspace.index_polynomial, base)
    assert [poly(witness(G, F)) for G, F in pairs] == [w for _, _, w in dual]
    pairs, null_part = groups.stabilizer_pairs(base, cap=cap)
    assert list(pairs) == [(tuple(range(nb)), unit) for _, unit, _ in stabilizer]
    assert [poly(null_part(F)) + X for _, F in pairs] == [w for _, _, w in stabilizer]


def _dual_verdicts(key, base):
    """(brute force, criterion) on the key of a base-coefficient f: the
    table of f on R[al] as dual element indices, then f'(a) at each a of R.
    Brute force: the table is a bijection.  Criterion: the table on the
    points (a, 0) is a bijection and f' is unit-valued."""
    nb = base.size
    size = nb * nb
    mask = base.unit_index_mask()
    brute = len(set(key[:size])) == size
    on_base = key[base.index(base.zero):size:nb]
    criterion = len(set(on_base)) == nb and all(mask[v // nb] for v in key[size:])
    return brute, criterion


def _dual_null_split(dual, base, zero, stages):
    """(low, rest): the f0 of degree < D with constant term 0 over R[al] as
    stages of reference_sweep.coefficient_sums, split at the part null on
    R x 0, each term a sum of those of stages (derivative_stages on dual,
    over the base in element order).  Field: low c x^d, rest c (x^q - x) x^d, for d < q.
    Z/m (Kempner 1921; Singmaster 1974): low c (x)_j for
    c < s = m / gcd(m, j!), rest s c (x)_j for c < m / s.  Stages of one
    term are dropped."""
    add_t = dual.index_op_tables()[0]

    def term(coeffs):  # base coefficients from degree 1 up
        tables = (stages[d][base.index(c)][1] for d, c in enumerate(coeffs) if c != base.zero)
        return table_sum(add_t, tables, zero)

    if base.is_field:
        q, z = base.size, base.zero
        low = stages[: q - 1]
        rest = [
            [(c, term((z,) * d + (base.neg(c),) + (z,) * (q - 2) + (c,))) for c in base.elements]
            for d in range(q)
        ]
    else:
        m = base.size
        low, rest = [], []
        for j in range(1, len(stages) + 1):
            s = m // gcd(m, factorial(j))
            ff = falling_factorial(j).coeffs[1:]
            for part, cs in ((low, range(s)), (rest, range(0, m, s))):
                part.append([(c, term([base.from_int(c * a) for a in ff])) for c in cs])
    return [st for st in low if len(st) > 1], [st for st in rest if len(st) > 1]


def sweep_dual_criterion(base, *, cap=None):
    """The key sweep oracle of dual[criterion:R], which the CLI decides from
    the law and the unit-row lemma: the criterion against brute force on
    every f0 of degree < D, the dual degree bound, with constant term zero,
    on the dual ring's own tables.  True iff they agree on every key.

    Adding a constant translates the table on R[al] and keeps f0', so it
    changes neither verdict.  Both verdicts depend only on the key, which is
    additive in the coefficients.  f0 maps R x 0 into itself, so a bijection
    of R[al] restricts to one of R x 0.  Both verdicts are then False unless
    the table on R x 0, that of the low part, is a bijection, and only those
    keys are built (split_keys), each once: 1,536 on fq:4, 216 on zm:6.
    """
    dual = dual_ring(base, size_cap=cap)
    nb = base.size
    domain = [dual.embed(c) for c in base.elements]
    on_base = range(base.index(base.zero), dual.size, nb)
    stages = derivative_stages(dual, dual_degree_bound(base), domain, on_base)
    zero = (dual.index(dual.zero),) * (dual.size + nb)
    keys = split_keys(
        dual.index_op_tables()[0], zero, *_dual_null_split(dual, base, zero, stages),
        slice(on_base.start, dual.size, nb), lambda t: len(set(t)) == nb,
        lambda t: set(t) == {zero[0]}, cap,
    )
    return keys is not None and all(operator.eq(*_dual_verdicts(key, base)) for key in keys)


def test_split_dual_sweep_checks_the_cap_before_any_work(monkeypatch):
    # the criterion oracle's cap counts what each sweep builds, its low sums
    # and then its keys: zm:6 has 18 low sums and 216 keys, 2 admitted low
    # sums times 108 rest sums; fq:4 has 64 low sums
    def refuse(*args, **kwargs):
        raise AssertionError("built")

    monkeypatch.setattr(sys.modules[__name__], "_dual_verdicts", refuse)
    with pytest.raises(SizeCapError, match="pair sweep: 216 exceeds cap 215"):
        sweep_dual_criterion(make_ring("zm:6"), cap=215)
    monkeypatch.setattr(reference_sweep, "coefficient_sums", refuse)
    with pytest.raises(SizeCapError, match="pair sweep: 64 exceeds cap 63"):
        sweep_dual_criterion(make_ring("fq:4"), cap=63)
    monkeypatch.undo()
    assert sweep_dual_criterion(make_ring("zm:6"), cap=216) is True


@pytest.mark.parametrize("m", list(range(2, 65)) + [81, 121, 125, 128, 243, 343])
def test_null_derivative_count_is_the_pair_modules_howell_count(m):
    # |H| from m alone against the module's pivots: Z/m by its prime-power
    # factors, p^n for n >= p from the small module on beta(p, n)
    # differences, and n < p (25, 49, 121, 125, 343) from p^(n p)
    base = make_ring(f"zm:{m}")
    assert groups._null_derivative_count(m) == groups._null_count(funcspace.pair_module(base), m)
    assert groups._prime_powers(m) == [
        (p, e) for p in range(2, m + 1) if m % p == 0 and is_prime(p)
        for e in [next(e for e in range(m) if m % p ** (e + 1))]]


def test_module_listings_check_their_caps_before_any_work(monkeypatch):
    # zm:6: |P(R)| = 12 and |H| = 108; nothing is lifted or reduced before
    # the caps pass
    def no_lift(*args, **kwargs):
        raise AssertionError("lifted")

    base = make_ring("zm:6")
    monkeypatch.setattr(groups, "least_member", no_lift)
    with pytest.raises(SizeCapError, match="dual pairs: 1296 exceeds cap 1295"):
        groups.dual_pairs(base, cap=1295)
    with pytest.raises(SizeCapError, match="stabilizer: 108 exceeds cap 107"):
        groups.stabilizer_pairs(base, cap=107)
    with pytest.raises(AssertionError):
        groups.dual_pairs(base, cap=1296)
    assert len(groups.stabilizer_pairs(base, cap=108)[0]) == 8


@pytest.mark.parametrize("desc", ["zpn:2,2", "zm:6"])
def test_module_listings_do_not_sweep_pairs(desc, monkeypatch):
    # over Z/m no sum of coefficient terms carries a derivative: only the
    # tables of P(R) are enumerated, and the pairs come from the module
    base = make_ring(desc)
    widths = []
    real = funcspace.coefficient_sums

    def spy(add_t, zero_table, stages):
        widths.append(len(zero_table))
        return real(add_t, zero_table, stages)

    def refuse(*args, **kwargs):
        raise AssertionError("swept")

    monkeypatch.setattr(funcspace, "coefficient_sums", spy)
    monkeypatch.setattr(groups, "pair_table_sweep", refuse)
    assert groups.dual_pairs(base)[0] and groups.stabilizer_pairs(base)[0]
    assert verify_embedding(base).passed
    assert set(widths) == {base.size}


def test_listing_orders_multiply_by_the_chinese_remainder_theorem():
    # Z/6 = Z/2 x Z/3 and Z/12 = Z/4 x Z/3, the factors listed over a field
    # from the Hermite basis or over Z/4 from the module
    def orders(desc):
        base = make_ring(desc)
        return len(groups.dual_pairs(base)[0]), len(groups.stabilizer_pairs(base)[0])

    assert [orders(d) for d in ("zm:2", "zm:3", "zm:4")] == [(2, 1), (48, 8), (32, 4)]
    assert orders("zm:6") == (2 * 48, 1 * 8)
    assert orders("zm:12") == (32 * 48, 4 * 8)


@pytest.mark.parametrize("desc", ["fq:3", "fq:4", "zm:6", "zpn:2,2"])
def test_pair_sums_keep_the_first_block_of_every_pair(desc):
    # at the dual bound: the distinct pairs, their witnesses and their
    # first-seen order, against every candidate with constant term zero
    base = make_ring(desc)
    D = dual_degree_bound(base)
    expected = {}
    for rest in _candidates(base, D - 1):
        f = _poly(base, (base.zero,) + rest)
        expected.setdefault(_index_table(base, f) + _index_table(base, f.derive()), rest)
    got = {}
    for pair, rest in _pair_sums(base, D):
        got.setdefault(pair, rest)
    assert list(got.items()) == list(expected.items())


def test_pair_sums_check_the_cap_before_any_work():
    z4 = make_ring("zpn:2,2")
    with pytest.raises(SizeCapError):
        _pair_sums(z4, 3, cap=63)
    assert len(dict(_pair_sums(z4, 3, cap=64))) == 16


@pytest.mark.parametrize("desc", ["fq:2", "fq:3", "zpn:2,2", "zm:6"])
def test_enumerations_match_a_per_candidate_filter(desc):
    # the filters on every candidate of the per-candidate oracle
    base = make_ring(desc)
    mask = base.unit_index_mask()
    add_t = base.index_op_tables()[0]
    one = base.index(base.one)
    zero_tab = (base.index(base.zero),) * base.size
    pairs, units = {}, {}
    for ftab, dtab, coeffs in pair_table_sweep(base, dual_degree_bound(base)):
        if len(set(ftab)) == base.size and all(mask[i] for i in dtab):
            pairs.setdefault((ftab, dtab), coeffs)
        if ftab == zero_tab:
            unit = tuple(add_t[one][i] for i in dtab)
            if all(mask[i] for i in unit):
                units.setdefault(unit, coeffs)
    dps = enumerate_dual_permutations(base)
    assert [(dp.base_pair(), dp.witness) for dp in dps] == sorted(
        ((k, _poly(base, c)) for k, c in pairs.items()),
        key=lambda item: _oracle_table(base, *item[0]),
    )
    stab = enumerate_stabilizer(base)
    assert [(st.base_pair()[1], st.witness - X) for st in stab] == sorted(
        (u, _poly(base, c)) for u, c in units.items()
    )


def _oracle_table(base, G, F):
    """The dual table of the pair (G, F), entry by entry: (a, b) goes to
    (G(a), F(a) * b), dual element index a * |R| + b."""
    nb = base.size
    mul_t = base.index_op_tables()[1]
    return tuple(G[a] * nb + mul_t[F[a]][b] for a in range(nb) for b in range(nb))


def _packed_row(nb, G, F):
    """The packed row of the pair (G, F): entry a is G(a) * |R| + F(a), the
    row b = 1 of the pair's dual table."""
    return tuple(g * nb + f for g, f in zip(G, F))


def _decoded(row, nb):
    """The pair (G, F) of a packed row."""
    return tuple(v // nb for v in row), tuple(v % nb for v in row)


def _packed_listings(base):
    """The dual and stabilizer listings as they were once held: the packed
    rows of every dual pair and of every stabilizer pair (id, F), each
    sorted, then decoded back into pairs."""
    nb, one = base.size, base.index(base.one)
    perms, units = groups.semidirect_factors(base)
    if base.is_field:  # every pair of the factors, and every unit table over id
        over = unit_coset = lambda _: units
    else:
        over, unit_coset, _ = groups._pair_parts(
            base, times=len(perms), cap=None, what="dual pairs")
    dual = sorted(_packed_row(nb, G, F) for G in perms for F in over(G))
    stabilizer = sorted(_packed_row(nb, range(nb), F) for F in unit_coset((one,) * nb))
    return [_decoded(r, nb) for r in dual], [_decoded(r, nb) for r in stabilizer]


def _interleaved(perms: list, units: list) -> list:
    """Every pair (G, F) of the two sorted lists of index tables, in the
    order of G(0), F(0), G(1), F(1), ..., with no sort key: the oracle of
    the field listings' decoder (groups._field_pairs).  The pairs whose G
    and F agree with a run of each on entries below a are that run's
    product, split by G(a), then by F(a); once one run holds a single
    table, the other's order is the pairs' order."""
    out = []

    def runs(rows, lo, hi, a):
        key = operator.itemgetter(a)
        while lo < hi:
            end = bisect_right(rows, key(rows[lo]), lo, hi, key=key)
            yield lo, end
            lo = end

    def walk(g0, g1, f0, f1, a):
        if g1 - g0 == 1:
            out.extend(zip(itertools.repeat(perms[g0]), units[f0:f1]))
        elif f1 - f0 == 1:
            out.extend(zip(perms[g0:g1], itertools.repeat(units[f0])))
        else:
            f_runs = list(runs(units, f0, f1, a))
            for ga, gb in runs(perms, g0, g1, a):
                for fa, fb in f_runs:
                    walk(ga, gb, fa, fb, a + 1)

    walk(0, len(perms), 0, len(units), 0)
    return out


@pytest.mark.parametrize("seed", range(6))
def test_interleaved_pairs_are_the_product_sorted_by_packed_row(seed):
    # on sorted samples of tables of any shape, singletons and empty lists
    # included, the pairs come out as sorting the product by packed row does
    rng = random.Random(seed)
    nb = rng.randrange(1, 5)
    tables = list(itertools.product(range(nb), repeat=nb))
    perms = sorted(rng.sample(tables, rng.randrange(min(len(tables), 12) + 1)))
    units = sorted(rng.sample(tables, rng.randrange(1, min(len(tables), 12) + 1)))
    want = sorted(itertools.product(perms, units), key=lambda pair: _packed_row(nb, *pair))
    assert _interleaved(perms, units) == want


@pytest.mark.parametrize("desc", ["fq:2", "fq:3", "fq:4", "fq:5"])
def test_field_listings_decode_every_position(desc):
    # over F_q the walk yields the dual pairs in mixed radix, in the order
    # the interleaved product of the factors lists them, and the stabilizer
    # pairs (id, F) with F in the order of the words over the units
    base = make_ring(desc)
    perms, units = groups.semidirect_factors(base)
    want = _interleaved(perms, units)
    pairs = groups.dual_pairs(base)[0]
    assert isinstance(pairs, groups.Listing) and len(pairs) == len(want)
    assert list(pairs) == want
    stabilizer = groups.stabilizer_pairs(base)[0]
    ident = tuple(range(base.size))
    assert len(stabilizer) == len(units)
    assert list(stabilizer) == [(ident, F) for F in units]


@pytest.mark.parametrize(
    "desc", ["fq:2", "fq:3", "fq:4", "fq:5", "zpn:2,2", "zpn:2,3", "zm:6", "zm:12"]
)
def test_listings_hand_out_the_sorted_packed_rows_decoded(desc):
    # the pairs of dual_pairs and stabilizer_pairs are the sorted packed
    # rows the listings once held, decoded, and pair_elements builds their
    # tables strictly increasing (in slices, so that fq:5's 122,880 tables
    # are never all held at once)
    base = make_ring(desc)
    dual = dual_ring(base)
    listings = groups.dual_pairs(base)[0], groups.stabilizer_pairs(base)[0]
    assert tuple(map(list, listings)) == _packed_listings(base)
    for pairs in listings:
        last, walk = (), iter(pairs)
        for _ in range(0, len(pairs), 4096):
            chunk = itertools.islice(walk, 4096)
            tables = [el.table for el in groups.pair_elements(dual, chunk)]
            assert all(map(operator.lt, [last] + tables, tables))
            last = tables[-1]


def sweep_dual_listing(base, *, cap=None):
    """The oracle of the dual permutation listing, from the coefficient
    sweep on every ring: (table, (G, F), witness) for each element, sorted
    by table.  Each passing pair ([f0], [f0']) of _streamed_dual_sweep is
    translated by every constant c, the pair of f0 + c, and f0 + c is the
    witness."""
    passing = _streamed_dual_sweep(base, cap=cap)[0]
    nb = base.size
    out = []
    for pair, rest in passing.items():
        ftab, F = pair[:nb], pair[nb:]
        for c, row in enumerate(base.index_op_tables()[0]):
            G = tuple(row[v] for v in ftab)
            witness = _poly(base, (base.elements[c],) + rest)
            out.append((_oracle_table(base, G, F), (G, F), witness))
    return sorted(out, key=lambda item: item[0])


def sweep_stabilizer_listing(base, *, cap=None):
    """The oracle of the stabilizer listing, from the coefficient sweep:
    (table, unit, witness) for each element (id, unit), sorted by unit
    table, the witness x + g for the first null g in sweep order."""
    units = _streamed_dual_sweep(base, cap=cap)[1]
    ident = tuple(range(base.size))
    return [
        (_oracle_table(base, ident, unit), unit, _poly(base, (base.zero,) + rest) + X)
        for unit, rest in sorted(units.items())
    ]


LISTING_RINGS = ("fq:2", "fq:3", "fq:4", "zpn:2,2", "zm:3", "zm:4", "zm:6", "zm:12")


@pytest.mark.parametrize("desc", LISTING_RINGS)
def test_dual_listing_matches_the_sweep(desc):
    # over a field from the factors with Hermite witnesses, elsewhere from
    # the pair module: order, pairs, witness strings and element tables.  A
    # witness is an index vector of the dual degree bound's length, at most
    # 2|R| as the CLI renders it: (x^q - x)^2 over F_q, (x)_m^2 over Z/m
    base = make_ring(desc)
    nb = base.size
    expected = sweep_dual_listing(base)
    pairs, witness = groups.dual_pairs(base)
    assert list(pairs) == [pair for _, pair, _ in expected]
    vecs = [witness(G, F) for G, F in pairs]
    assert {len(v) for v in vecs} == {dual_degree_bound(base)}
    assert dual_degree_bound(base) <= 2 * nb
    assert [format_polynomial(funcspace.index_polynomial(base, v)) for v in vecs] == [
        format_polynomial(w) for _, _, w in expected
    ]
    dps = enumerate_dual_permutations(base)
    assert [(dp.table, dp.witness) for dp in dps] == [(t, w) for t, _, w in expected]


@pytest.mark.parametrize("desc", LISTING_RINGS)
def test_stabilizer_listing_matches_the_sweep(desc):
    base = make_ring(desc)
    nb = base.size
    expected = sweep_stabilizer_listing(base)
    pairs, null_part = groups.stabilizer_pairs(base)
    assert list(pairs) == [(tuple(range(nb)), unit) for _, unit, _ in expected]
    vecs = [null_part(F) for _, F in pairs]
    assert {len(v) for v in vecs} == {dual_degree_bound(base)}
    assert [format_polynomial(funcspace.index_polynomial(base, v)) for v in vecs] == [
        format_polynomial(w - X) for _, _, w in expected
    ]
    sts = enumerate_stabilizer(base)
    assert [(st.table, st.witness) for st in sts] == [(t, w) for t, _, w in expected]


@pytest.mark.parametrize("desc", ["fq:3", "zpn:2,2", "zpn:2,3"])
def test_witnesses_are_attached_by_the_enumeration_only(desc, monkeypatch):
    # verify_embedding builds no element, and a witness only for each of its
    # generators, whose table _dual_table evaluates once
    base = make_ring(desc)
    built, evaluated = [], []
    real_elements, real_table = groups.pair_elements, groups._dual_table

    def spy(*args):
        built.append(real_elements(*args))
        return built[-1]

    def table(ring, g):
        evaluated.append(g)
        return real_table(ring, g)

    monkeypatch.setattr(groups, "pair_elements", spy)
    monkeypatch.setattr(groups, "_dual_table", table)
    rep = verify_embedding(base)
    monkeypatch.undo()
    assert rep.passed and built == []
    assert len(evaluated) == int(rep.homomorphism_mode.split(":")[1])
    dps = enumerate_dual_permutations(base)
    assert {_dp_from_poly(base, g) for g in evaluated} <= set(dps)
    assert all(_dp_from_poly(base, dp.witness) == dp for dp in dps)


@pytest.mark.parametrize("desc", ["fq:2", "fq:3", "fq:4", "fq:5", "zpn:2,2", "zm:6"])
def test_dual_table_order_sorts_by_the_table(desc):
    # pair_tables builds each pair's table, and packed rows, dual_pairs' sort
    # key, sort as the tables do, on fields and residue rings alike
    base = make_ring(desc)
    perms, units = groups.semidirect_factors(base)
    if len(perms) * len(units) > 5000:  # a seeded sample of the factors
        rng = random.Random(3)
        perms, units = rng.sample(perms, 6), rng.sample(units, 40)
    pairs = list(itertools.product(perms, units))
    tables = [_oracle_table(base, G, F) for G, F in pairs]
    assert list(groups.pair_tables(base, pairs)) == tables
    rows = [_packed_row(base.size, G, F) for G, F in pairs]
    # each row is the row b = 1 of its table
    assert rows == [t[base.index(base.one)::base.size] for t in tables]
    assert sorted(rows) == [rows[k] for k in sorted(range(len(rows)), key=tables.__getitem__)]


@pytest.mark.parametrize("desc", ["fq:3", "fq:4"])
def test_field_listings_list_each_factor_once(desc, monkeypatch):
    # dual_pairs lists the q! permutations and the (q - 1)^q unit tables
    # once each, and stabilizer_pairs lists no factor: it decodes each unit
    # table from its position, in the order of the listed ones
    calls = []
    real_perms, real_units = groups.permutations, groups._unit_tables
    monkeypatch.setattr(groups, "permutations",
                        lambda *args: calls.append("perms") or real_perms(*args))
    monkeypatch.setattr(groups, "_unit_tables",
                        lambda ring: calls.append("units") or real_units(ring))
    groups.dual_pairs(make_ring(desc))
    assert calls == ["perms", "units"]
    calls.clear()
    pairs = groups.stabilizer_pairs(make_ring(desc))[0]
    assert [F for _, F in pairs] == real_units(make_ring(desc))
    assert calls == []


def test_field_product_is_capped_before_the_sweep(monkeypatch):
    # q! (q - 1)^q on fq:5 is 122880: refused without listing a table
    def no_listing(*args, **kwargs):
        raise AssertionError("listed")

    monkeypatch.setattr(groups, "semidirect_factors", no_listing)
    with pytest.raises(SizeCapError, match="semidirect product: 122880 exceeds cap 122879"):
        semidirect_pairs(make_ring("fq:5"), cap=122879)
    with pytest.raises(AssertionError):
        semidirect_pairs(make_ring("fq:5"), cap=122880)


@pytest.mark.parametrize("desc", ["fq:2", "fq:3", "fq:4", "fq:5"])
def test_field_factors_are_listed_without_a_sweep(desc, monkeypatch):
    # every function over F_q is induced: all permutations and all unit
    # tables, sorted, equal to the filters of the swept tables
    base = make_ring(desc)
    size = base.size
    mask = base.unit_index_mask()
    tables = groups.induced_index_tables(base)
    expected = (
        sorted(t for t in tables if len(set(t)) == size),
        sorted(t for t in tables if all(mask[i] for i in t)),
    )

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept")

    monkeypatch.setattr(groups, "induced_index_tables", no_sweep)
    assert groups.semidirect_factors(base) == expected
    # the cap of the sweep it replaces, q^q
    with pytest.raises(SizeCapError, match=f"polynomial enumeration: {size**size} exceeds"):
        groups.semidirect_factors(base, cap=size**size - 1)


def test_factors_carry_no_product_cap():
    perms, units = groups.semidirect_factors(make_ring("fq:4"), cap=256)
    assert (len(perms), len(units)) == (24, 81)
    with pytest.raises(SizeCapError, match="semidirect product: 1944 exceeds cap 1943"):
        semidirect_pairs(make_ring("fq:4"), cap=1943)


@pytest.mark.parametrize("desc,count", [("fq:2", 2), ("fq:3", 48), ("zpn:2,2", 32)])
def test_dual_permutation_enumeration(desc, count):
    base = make_ring(desc)
    dps = enumerate_dual_permutations(base)
    assert len(dps) == count
    assert len({dp.table for dp in dps}) == count
    assert [dp.table for dp in dps] == sorted(dp.table for dp in dps)
    for dp in dps:
        assert _dp_from_poly(base, dp.witness) == dp


# ---------------------------------------------------------------------------
# the stabilizer of the base points


def test_stabilizer_of_the_four_element_ring():
    z4 = make_ring("zpn:2,2")
    stab = enumerate_stabilizer(z4)
    assert [st.base_pair() for st in stab] == [
        ((0, 1, 2, 3), unit)
        for unit in [(1, 1, 1, 1), (1, 3, 1, 3), (3, 1, 3, 1), (3, 3, 3, 3)]
    ]
    # each element is x + g for its null part g
    by_unit = {st.base_pair()[1]: (st.witness - X).coeffs for st in stab}
    assert by_unit[(1, 1, 1, 1)] == ()
    assert by_unit[(1, 3, 1, 3)] == (0, 0, 2, 2)  # 2x^3 + 2x^2
    assert by_unit[(3, 1, 3, 1)] == (0, 2, 0, 2)  # 2x^3 + 2x
    assert by_unit[(3, 3, 3, 3)] == (0, 2, 2)  # 2x^2 + 2x


def test_stabilizer_orders():
    assert len(enumerate_stabilizer(make_ring("fq:2"))) == 1
    assert len(enumerate_stabilizer(make_ring("fq:3"))) == 8
    f3 = make_ring("fq:3")
    units = {st.base_pair()[1] for st in enumerate_stabilizer(f3)}
    assert units == {tuple(t) for t in unit_valued_tables(f3)}


def test_stabilizer_null_parts_really_stabilize():
    for desc in ("zpn:2,2", "fq:3"):
        base = make_ring(desc)
        d = dual_ring(base)
        for st in enumerate_stabilizer(base):
            g = st.witness - X
            assert induce(g, base).is_zero()
            assert _dp_from_poly(base, st.witness) == st
            for a in base.elements:
                i = d.index((a, base.zero))
                assert st.table[i] == i  # fixes every embedded base point
            expected_unit = induce(g.derive() + 1, base).values
            assert st.base_pair()[1] == tuple(map(base.index, expected_unit))


def test_stabilizer_products_multiply_unit_tables_pointwise():
    for desc in ("zpn:2,2", "fq:3"):
        base = make_ring(desc)
        stab = enumerate_stabilizer(base)
        mul_t = base.index_op_tables()[1]
        for s1 in stab:
            for s2 in stab:
                (_, u1), (_, u2) = s1.base_pair(), s2.base_pair()
                assert (s1 * s2).base_pair() == (
                    tuple(range(base.size)),
                    tuple(mul_t[a][b] for a, b in zip(u1, u2)),
                )


def test_stabilizer_of_the_four_element_ring_is_elementary_abelian():
    z4 = make_ring("zpn:2,2")
    stab = enumerate_stabilizer(z4)
    rep = verify_group_axioms(stab)
    assert rep.passed
    assert rep.abelian
    ident = DualPermutation.identity(dual_ring(z4))
    for el in stab:
        assert el * el == ident


def test_stabilizer_equality_is_by_unit_table():
    # the same unit table from two null parts: the witness does not count
    d4 = dual_ring(make_ring("zpn:2,2"))
    table = from_pair(d4, range(4), (1, 1, 1, 1)).table
    a = DualPermutation(d4, table, X)
    b = DualPermutation(d4, table, X + parse("(x^2-x)^2"))
    assert a == b
    assert hash(a) == hash(b)


# ---------------------------------------------------------------------------
# the embedding of dual permutations into the semidirect product


def test_embedding_report_over_fields():
    rep2 = verify_embedding(make_ring("fq:2"))
    assert rep2.passed
    assert rep2.surjective
    assert (rep2.dual_perm_count, rep2.image_size, rep2.ambient_size) == (2, 2, 2)
    assert rep2.homomorphism_mode == "schreier-sims:1"

    rep3 = verify_embedding(make_ring("fq:3"))
    assert rep3.passed
    assert rep3.surjective
    assert (rep3.dual_perm_count, rep3.image_size, rep3.ambient_size) == (48, 48, 48)
    assert (rep3.perm_count, rep3.unit_table_count, rep3.stabilizer_size) == (6, 8, 8)

    rep4 = verify_embedding(make_ring("fq:4"))
    assert rep4.passed
    assert rep4.surjective
    assert (rep4.dual_perm_count, rep4.image_size, rep4.ambient_size) == (1944, 1944, 1944)
    assert (rep4.perm_count, rep4.unit_table_count, rep4.stabilizer_size) == (24, 81, 81)

    # the stabilizer's order is (q - 1)^q in closed form over a field and
    # the pair module's count over Z/p^e; over Z/6 = F_2 x F_3 the report
    # is joined from the factors' by the Chinese remainder theorem
    assert [rep.image_mode for rep in (rep2, rep3, rep4)] == ["closed form"] * 3
    assert verify_embedding(make_ring("zpn:2,2")).image_mode == "module"
    assert verify_embedding(make_ring("zm:6")).image_mode == "crt"


@pytest.mark.parametrize("desc", ["fq:2", "fq:3", "fq:4"])
def test_field_embedding_does_not_sweep(monkeypatch, desc):
    # the sweep stays the oracle: its image and stabilizer sizes are the
    # report's, though the report never sweeps
    base = make_ring(desc)
    passing, units = _streamed_dual_sweep(base)

    def refuse(*args, **kwargs):
        raise AssertionError("swept")

    monkeypatch.setattr(groups, "pair_table_sweep", refuse)
    monkeypatch.setattr(funcspace, "coefficient_sums", refuse)
    rep = verify_embedding(base)
    assert rep.passed and rep.surjective and rep.image_consistent
    assert (rep.image_size, rep.stabilizer_size) == (len(passing) * base.size, len(units))


def corrupt_hermite_basis(monkeypatch):
    """Make funcspace.hermite_basis return K_1 with its top coefficient moved to
    the next element index: K_1 then differs by c * x^(2q - 1), c nonzero,
    whose values are those of c * x, so [K_1] is no longer zero."""
    real = funcspace.hermite_basis

    def corrupted(ring):
        H, K = real(ring)
        K[1] = K[1][:-1] + [(K[1][-1] + 1) % ring.size]
        return H, K

    monkeypatch.setattr(funcspace, "hermite_basis", corrupted)


def test_embedding_report_fails_a_corrupted_hermite_basis(monkeypatch):
    base = make_ring("fq:3")
    corrupt_hermite_basis(monkeypatch)
    rep = verify_embedding(base)
    assert rep.injective and not rep.homomorphism_ok and rep.image_in_ambient
    assert not rep.surjective and not rep.factorization_ok
    assert not rep.passed
    assert not rep.image_consistent


@pytest.mark.parametrize("desc", ["fq:2", "fq:3", "fq:4"])
def test_embedding_over_a_field_builds_the_hermite_basis_once(monkeypatch, desc):
    # the three generators' witnesses share one basis
    built = []
    real = funcspace.hermite_basis
    monkeypatch.setattr(funcspace, "hermite_basis", lambda ring: built.append(ring) or real(ring))
    assert verify_embedding(make_ring(desc)).passed
    assert len(built) == 1


def test_embedding_report_over_the_four_element_ring():
    rep = verify_embedding(make_ring("zpn:2,2"))
    assert rep.passed
    assert not rep.surjective
    assert rep.injective
    assert rep.homomorphism_ok
    assert rep.homomorphism_mode.startswith("schreier-sims:")
    assert (rep.dual_perm_count, rep.image_size, rep.ambient_size) == (32, 32, 128)
    assert (rep.perm_count, rep.unit_table_count, rep.stabilizer_size) == (8, 16, 4)
    assert rep.image_size == rep.stabilizer_size * rep.perm_count
    assert rep.ambient_size == rep.unit_table_count * rep.perm_count


def test_embedding_respects_products_directly():
    # every pair of dual permutations: the pair read back from the product
    # is the twisted product of FunctionTable arithmetic
    for desc in ("fq:3", "zpn:2,2", "zm:6"):
        base = make_ring(desc)
        dps = enumerate_dual_permutations(base)
        pairs = [_pair_of(base, dp) for dp in dps]
        for d1, p1 in zip(dps, pairs):
            for d2, p2 in zip(dps, pairs):
                assert (d1 * d2).base_pair() == _twisted(base, p1, p2)


@pytest.mark.parametrize("desc", ["fq:3", "zpn:2,2", "zm:6"])
def test_embedding_report_matches_brute_force(desc):
    base = make_ring(desc)
    rep = verify_embedding(base)
    assert rep.homomorphism_ok == _brute_homomorphism(base, enumerate_dual_permutations(base))
    assert rep.homomorphism_ok
    assert rep.passed


@pytest.mark.parametrize("desc", ["fq:2", "fq:3", "zpn:2,2"])
def test_pair_forms_make_a_group_isomorphic_to_the_twisted_product(desc):
    # the lemma behind the chain's verdict, over every pair-form permutation
    # (a, b) -> (G(a), F(a) b), G any bijection and F any unit-valued map:
    # they are closed under composition, and reading off the pair is a
    # bijection onto Sym(R) x Maps(R, R^x) that takes composition to the
    # twisted product (G1 o G2, (F1 o G2) . F2)
    base = make_ring(desc)
    nb, mul_t = base.size, base.index_op_tables()[1]
    units = [i for i in range(nb) if base.unit_index_mask()[i]]
    perms = list(itertools.permutations(range(nb)))
    maps = list(itertools.product(units, repeat=nb))
    els = groups.pair_elements(dual_ring(base), itertools.product(perms, maps))
    pairs = [el.base_pair() for el in els]
    assert pairs == [(G, F) for G in perms for F in maps]
    assert len({el.table for el in els}) == len(els) == {"fq:2": 2, "fq:3": 48}.get(desc, 384)
    index = {el.table: k for k, el in enumerate(els)}
    for x, (G1, F1) in zip(els, pairs):
        for y, (G2, F2) in zip(els, pairs):
            k = index[(x * y).table]
            assert pairs[k] == (
                tuple(G1[a] for a in G2), tuple(mul_t[F1[a]][f] for a, f in zip(G2, F2))
            )


def _closure_order(tables):
    """The order of the group the permutation tables generate, by
    breadth-first search over right products by them."""
    seen = set(tables)
    frontier = list(seen)
    while frontier:
        frontier = [y for x in frontier for s in tables
                    if (y := tuple(x[i] for i in s)) not in seen and not seen.add(y)]
    return len(seen)


@pytest.mark.parametrize("desc,copies", [
    ("fq:3", 1), ("zm:9", 1), ("zpn:2,2", 1), ("zpn:2,3", 1),
    # the unit-valued count taken 3 times: |P| |U| = 384 passes 16^2, the
    # dual group's order 32 does not
    ("zpn:2,2", 3),
])
def test_chain_cap_takes_k_from_the_product_order(monkeypatch, desc, copies):
    # the embedding's chain, extended to the product, has order at most
    # |P| |U|, so the cap on its transversals, 2 n^2 k entries, takes k
    # from it, n^k >= |P| |U|; the one chain built keeps within the bound
    base = make_ring(desc)
    n, counts, chains = base.size ** 2, [], []
    real_cap, real_count, real_chain = (
        groups.check_cap, groups.count_unit_valued_functions, groups._Chain)

    def spy_cap(count, cap, what):
        counts.append((what, count))
        return real_cap(count, cap, what)

    def spy_chain(size):
        chains.append(real_chain(size))
        return chains[-1]

    monkeypatch.setattr(groups, "check_cap", spy_cap)
    monkeypatch.setattr(groups, "count_unit_valued_functions",
                        lambda p, e: copies * real_count(p, e))
    monkeypatch.setattr(groups, "_Chain", spy_chain)
    rep = verify_embedding(base)
    k = next(k for k in itertools.count(1) if n ** k >= rep.ambient_size)
    assert rep.ambient_size == rep.perm_count * rep.unit_table_count
    assert ("stabilizer chain", 2 * n * n * k) in counts
    if copies > 1:
        # a k taken from the dual group's order would be smaller
        assert n ** (k - 1) >= rep.dual_perm_count
    assert len(chains) == 1
    assert all(2 * n * sum(len(u) for _, _, u, _ in c.levels) <= 2 * n * n * k for c in chains)


@pytest.mark.parametrize("desc", ["fq:3", "fq:4", "zpn:2,2", "zm:6", "zm:12", "zpn:2,3"])
def test_chain_order_matches_the_closure(desc):
    # 3, 5 and 8 seeded random dual permutations: the chain extended by each
    # in turn has the order of the group their closure lists, and every
    # table of that closure sifts through it
    pairs = groups.dual_pairs(make_ring(desc))[0]
    dual = dual_ring(make_ring(desc))
    rng = random.Random(desc)
    for k in (3, 5, 8):
        tables = [el.table for el in groups.pair_elements(dual, rng.sample(list(pairs), k))]
        chain = groups._Chain(dual.size)
        for t in tables:
            chain.extend(t)
        assert chain.order == _closure_order(tables)
        assert all(chain.sift(tuple(x[i] for i in y)) == chain.ident
                   for x in tables for y in tables)


@pytest.mark.parametrize("desc", [
    "fq:2", "fq:3", "fq:4", "fq:5", "zpn:2,2", "zm:6", "zm:8", "zm:12", "zpn:2,3",
])
def test_embedding_report_matches_the_listing_oracle(desc):
    # every field of the report but the modes, the product's axioms too, is
    # what listing and closing the groups gives; and the axioms of a listed
    # product by sifting are those of its closure
    base = make_ring(desc)
    assert _without_modes(verify_embedding(base)) == _without_modes(_oracle_embedding(base))
    if desc in ("fq:2", "fq:3", "fq:4", "zpn:2,2", "zm:6", "zm:12"):
        product = semidirect_group(base)
        got, want = verify_group_axioms(product), _oracle_axioms(product)
        assert got._replace(abelian_mode="") == want._replace(abelian_mode="")


@pytest.mark.parametrize("desc", ["zpn:2,2", "zpn:2,3", "zpn:3,2", "zm:16", "zm:48"])
def test_prime_power_embedding_lists_no_function(monkeypatch, desc):
    # from closed forms and walked generators: with the listing of F(R),
    # the lifts and the module's reduction made to fail, the report is the
    # listing path's, modes aside (zm:16's lists 16^6 candidates, past the
    # default cap); zm:48 = Z/16 x F_3 is joined from its factors
    base = make_ring(desc)
    want = None if desc == "zm:48" else _listed_embedding(base, cap=10**8)

    def fail(*args, **kwargs):
        raise AssertionError("listed")

    for name in ("induced_index_tables", "semidirect_factors", "_pair_parts", "least_member"):
        monkeypatch.setattr(groups, name, fail)
    rep = verify_embedding(base)
    assert rep.passed and rep.product_axioms.passed
    if want is None:
        assert rep.dual_perm_count == CRT_ORDERS[desc]
    else:
        assert _without_modes(rep) == _without_modes(want)


@pytest.mark.parametrize("desc,message", [
    ("zm:32", "stabilizer chain: 10485760 exceeds cap 10000000"),
    ("zpn:5,5", "stabilizer chain: 2861022949218750 exceeds cap 10000000"),
])
def test_prime_power_chain_cap_comes_before_the_pair_module(monkeypatch, desc, message):
    # the chain's bound is taken from |P| |F^x| in closed form, so a refused
    # ring never builds its pair module
    def fail(*args, **kwargs):
        raise AssertionError("pair module built")

    monkeypatch.setattr(groups, "pair_module", fail)
    with pytest.raises(SizeCapError, match=f"^{message}$"):
        verify_embedding(make_ring(desc), cap=10_000_000)


def _corrupt_pair_module(monkeypatch, column):
    """Make groups.pair_module set the entry of H's first spanning row (row
    m) at the column to 1: past its pivot (column m + 1) or at it (m)."""
    real = groups.pair_module

    def faulty(ring):
        rows = real(ring)
        rows[ring.size][ring.size + column] = 1
        return rows

    monkeypatch.setattr(groups, "pair_module", faulty)


@pytest.mark.parametrize("desc", ["zpn:2,2", "zpn:2,3", "zpn:3,2"])
def test_embedding_report_ignores_an_h_row_entry_past_its_pivot(monkeypatch, desc):
    # the report reads the module's pivots (|H|) and width (D) only, and
    # every verdict rests on the chain reaching |P| |H|: an entry of H's
    # first spanning row past its pivot, set to 1, changes nothing
    base = make_ring(desc)
    good = verify_embedding(base)
    _corrupt_pair_module(monkeypatch, 1)
    assert good.passed and verify_embedding(base) == good


@pytest.mark.parametrize("desc", ["zpn:2,3", "zpn:3,2"])
def test_embedding_refuses_the_walk_when_a_pivot_enlarges_h(monkeypatch, desc):
    # H's first pivot, p, set to 1 makes |H| p times too large: no chain
    # of dual permutations reaches |P| |H|, and the walk for generators is
    # refused after the cap's number of vectors, not after |R|^D of them
    base = make_ring(desc)
    _corrupt_pair_module(monkeypatch, 0)
    vectors = base.size ** funcspace.dual_degree_bound(base)
    with pytest.raises(SizeCapError, match=f"^generator walk: {vectors} exceeds cap 60000$"):
        verify_embedding(base, cap=60_000)


@pytest.mark.parametrize("desc", ["zpn:2,3", "zpn:3,2"])
def test_embedding_refuses_the_walk_when_the_closed_form_is_wrong(monkeypatch, desc):
    # |P| doubled: the chain cannot reach the order, and the walk stops at
    # the cap (60,000 of zpn:2,3's 8^8 and zpn:3,2's 9^9 vectors)
    base = make_ring(desc)
    real = groups.count_polynomial_functions
    monkeypatch.setattr(groups, "count_polynomial_functions", lambda p, e: 2 * real(p, e))
    with pytest.raises(SizeCapError, match="^generator walk: "):
        verify_embedding(base, cap=60_000)


def test_embedding_walk_under_the_cap_ends_in_a_failing_report(monkeypatch):
    # zpn:2,2 has 4^4 vectors, fewer than its chain's cap admits: with |P|
    # doubled the whole walk ends, and the report fails
    real = groups.count_polynomial_functions
    monkeypatch.setattr(groups, "count_polynomial_functions", lambda p, e: 2 * real(p, e))
    rep = verify_embedding(make_ring("zpn:2,2"), cap=1024)
    assert rep.image_size == 32 and rep.dual_perm_count == 64
    assert not rep.injective and not rep.homomorphism_ok and not rep.passed
    assert not rep.surjective and not rep.factorization_ok


@pytest.mark.parametrize("desc", ["zpn:2,2", "zm:6"])
def test_module_witnesses_reduce_each_permutation_once(desc, monkeypatch):
    # every pair over one G shares least_member's reduction by the rows of
    # G, so it runs once per G, and each witness is the least preimage the
    # whole reduction gives
    base = make_ring(desc)
    nb, module = base.size, funcspace.pair_module(base)
    real = groups.least_member
    heads = []

    def spy(rows, head, m, x=None, start=0, stop=None):
        heads.append((tuple(head[:nb]), stop))
        return real(rows, head, m, x, start, stop)

    monkeypatch.setattr(groups, "least_member", spy)
    pairs, witness = groups.dual_pairs(base)
    vecs = [witness(G, F) for G, F in pairs]
    monkeypatch.undo()
    reduced = [G for G, stop in heads if stop == nb]
    assert len(reduced) == len(set(reduced)) == len(groups.semidirect_factors(base)[0])
    assert vecs == [real(module, [*G, *F], nb)[2 * nb:][::-1] for G, F in pairs]


@pytest.mark.parametrize("desc", ["fq:2", "fq:3", "zpn:2,2", "zm:6"])
def test_embedding_decides_the_product_axioms_when_the_image_is_the_product(desc):
    # over a field the dual permutations are the product's elements, so the
    # embedding's chain gives its axioms; over Z/p^e that chain extended by
    # unit-valued pairs does, and zm:6 joins its factors' (96 = 96, the
    # image the product; zpn:2,2, 32 < 128, not).  Each agrees with the
    # closure of the listed product
    base = make_ring(desc)
    rep = verify_embedding(base)
    product = semidirect_group(base)
    if base.is_field:
        assert set(enumerate_dual_permutations(base)) == set(product)
    got, want = rep.product_axioms, _oracle_axioms(product)
    fields = ("size", "closed", "has_identity", "inverses_ok", "associative", "abelian")
    assert all(getattr(got, f) == getattr(want, f) for f in fields)
    assert got.passed


# Z/m with two or more primes dividing m, verified on its prime-power factors
# and joined by the Chinese remainder theorem

CRT_ORDERS = {
    "zm:14": 2_821_754_880, "zm:15": 5_898_240, "zm:18": 1_889_568,
    "zm:20": 3_932_160, "zm:21": 67_722_117_120, "zm:30": 11_796_480,
    "zm:48": 100_663_296,
}


@pytest.mark.parametrize("desc", sorted(CRT_ORDERS))
def test_crt_embedding_orders_are_the_products_of_the_factors(desc):
    # zm:18 = Z/2 x Z/9 and zm:48 = Z/16 x Z/3 take Z/9 and Z/16 through
    # the module path, the rest are products of fields
    base = make_ring(desc)
    rep = verify_embedding(base)
    qs = [gcd(base.size, p ** base.size) for p in (2, 3, 5, 7) if base.size % p == 0]
    factors = [verify_embedding(make_ring(f"zm:{q}")) for q in qs]
    assert rep.passed and rep.image_consistent and rep.product_axioms.passed
    assert rep.dual_perm_count == CRT_ORDERS[desc] == prod(r.dual_perm_count for r in factors)
    assert rep.ambient_size == prod(r.ambient_size for r in factors)
    assert rep.surjective == all(r.surjective for r in factors)
    modes = (rep.image_mode, rep.homomorphism_mode, rep.product_axioms.abelian_mode)
    assert modes == ("crt", "crt", "crt")
    assert rep.product_axioms.associativity_mode == "composition"


def test_crt_embedding_over_z10_keeps_the_module_path_report():
    # the report the module path gave on zm:10 before Z/m was split, its
    # modes aside
    rep = verify_embedding(make_ring("zm:10"))
    assert rep._replace(homomorphism_mode="", image_mode="", product_axioms=None) == (
        groups.EmbeddingReport("zm:10", 245760, 245760, 245760, 240, 1024, 1024, True, True,
                               "", True, True, True, "", False, None))
    assert rep.product_axioms == groups.GroupAxiomsReport(
        245760, True, True, True, True, "composition", False, "crt")


@pytest.mark.parametrize("where", ["composite", "factor"])
@pytest.mark.parametrize("op", [0, 1])
def test_crt_embedding_fails_a_corrupted_lemma(monkeypatch, where, op):
    # one entry of the add (op 0) or mul (op 1) table of Z/6, or of its
    # factor F_3 after that factor's own report, off by one: the factors
    # pass, the lemma does not, and no verdict holds without it
    base = make_ring("zm:6")
    real = groups._crt_lemma

    def corrupted(ring, factors):
        target = ring if where == "composite" else factors[-1]
        tables = [[row[:] for row in t] for t in target.index_op_tables()]
        tables[op][2][1] = (tables[op][2][1] + 1) % target.size
        target._tables["ops"] = tuple(tables)
        return real(ring, factors)

    monkeypatch.setattr(groups, "_crt_lemma", corrupted)
    rep = verify_embedding(base)
    monkeypatch.undo()
    assert all(verify_embedding(make_ring(d)).passed for d in ("zm:2", "zm:3"))
    assert (rep.dual_perm_count, rep.image_size, rep.ambient_size) == (96, 96, 96)
    assert not any([rep.injective, rep.homomorphism_ok, rep.image_in_ambient,
                    rep.surjective, rep.factorization_ok])
    assert not rep.passed and not rep.product_axioms.passed


def test_crt_lemma_needs_a_bijection():
    # reduction mod 2 takes the tables of Z/4 onto those of F_2, but Z/4 is
    # not F_2 x F_2; Z/6 is F_2 x F_3
    two = make_ring("zm:2")
    assert not groups._crt_lemma(make_ring("zm:4"), [two, two])
    assert groups._crt_lemma(make_ring("zm:6"), [two, make_ring("zm:3")])


@pytest.mark.parametrize("desc,size", [("zm:6", 3), ("zm:12", 4), ("zm:12", 3)])
def test_crt_embedding_fails_with_a_failing_factor(monkeypatch, desc, size):
    # the entries (0, 0) and (0, 2) swapped in every table _dual_table builds
    # over the factor of that size: the pairs, read off the row b = 1, and
    # the chain are unchanged, so only that factor's law fails, and with it
    # the composite's
    real = groups._dual_table

    def faulty(ring, g):
        values = list(real(ring, g))
        if ring.size == size:
            values[0], values[2] = values[2], values[0]
        return tuple(values)

    monkeypatch.setattr(groups, "_dual_table", faulty)
    rep = verify_embedding(make_ring(desc))
    assert rep.injective and rep.image_in_ambient
    assert not rep.homomorphism_ok and not rep.passed


@pytest.mark.parametrize("desc,message", [
    # Z/96 = Z/32 x F_3: Z/32's chain is refused first
    ("zm:96", "stabilizer chain: 10485760 exceeds cap 10000000"),
    # Z/2520 = Z/8 x Z/9 x F_5 x F_7: every factor passes, and the lemma's
    # two tables of 2520^2 entries are refused before they are built
    ("zm:2520", "operation tables: 12700800 exceeds cap 10000000"),
])
def test_crt_embedding_refuses_before_the_lemma_builds_its_tables(desc, message):
    base = make_ring(desc)
    with pytest.raises(SizeCapError, match=f"^{message}$"):
        verify_embedding(base, cap=10_000_000)
    assert "ops" not in base._tables


@pytest.mark.parametrize("desc", ["fq:2", "fq:3", "fq:4", "zpn:2,2", "zm:6", "zm:12"])
def test_dual_listing_counts_its_rows_before_listing_them(monkeypatch, desc):
    # the embedding takes the dual group's order, its chain's target, from
    # the counts (over Z/m of the module's pairs over each G) without
    # listing or building a row of the group: it is the number of rows
    rows = groups.dual_pairs(make_ring(desc))[0]
    for name in ("dual_pairs", "pair_elements", "semidirect_group"):
        monkeypatch.setattr(groups, name, lambda *args, **kwargs: pytest.fail("listed"))
    rep = verify_embedding(make_ring(desc))
    assert rep.dual_perm_count == rep.image_size == len(rows)


def _swap_two_entries(dp, i, j):
    table = list(dp.table)
    table[i], table[j] = table[j], table[i]
    return DualPermutation(dp.dual, table)


def _patch_pair_elements(monkeypatch, base, fault):
    """Make groups.pair_elements list faulty elements over base.

    "corrupted" swaps the images of (0, 0) and (0, b), b neither 0 nor 1, in
    the last element; "conjugated" conjugates every element by the swap of
    the dual elements (0, 1) and (2, 1) (zpn:2,2); "perm" and "unit" append
    an element whose G, or whose F, no polynomial induces (over Z/p^e)."""
    real = groups.pair_elements
    if fault == "corrupted":
        b = next(i for i in range(1, base.size) if i != base.index(base.one))

        def faulty(*args):
            dps = real(*args)
            return dps[:-1] + [_swap_two_entries(dps[-1], 0, b)]
    elif fault == "conjugated":
        swap = list(range(16))
        swap[1], swap[9] = 9, 1

        def faulty(*args):
            return [
                DualPermutation(dp.dual, [swap[dp.table[swap[k]]] for k in range(16)])
                for dp in real(*args)
            ]
    else:
        extra = from_pair(dual_ring(base), *_foreign_pair(base, fault))

        def faulty(*args):
            return real(*args) + [extra]
    monkeypatch.setattr(groups, "pair_elements", faulty)


def _foreign_pair(base, part):
    """A pair (G, F) whose G ("perm"), or whose F ("unit"), no polynomial
    induces, the other part induced."""
    perms, units = semidirect_pairs(base)
    if part == "perm":
        return _foreign_perm(base), units[0]
    unit_idx = [i for i in range(base.size) if base.unit_index_mask()[i]]
    induced = set(units)
    return perms[0], next(
        t for t in itertools.product(unit_idx, repeat=base.size) if t not in induced
    )


def _patch_generators(monkeypatch, base, fault):
    """Give verify_embedding faulty generators over base, as
    _patch_pair_elements gives the listing faulty elements.

    "corrupted" swaps the entries (0, 0) and (0, b), b neither 0 nor 1,
    of every table _dual_table builds, and "conjugated" conjugates each by
    the swap of the dual elements (0, 1) and (2, 1) (zpn:2,2): the pair read
    off the row b = 1 is unchanged.  "perm" and "unit" walk a foreign pair
    (_foreign_pair) first among the candidates over Z/p^e, with the witness
    x: no polynomial induces it."""
    if fault in ("corrupted", "conjugated"):
        real = groups._dual_table
        b = next(i for i in range(1, base.size) if i != base.index(base.one))
        swap = list(range(16))
        swap[1], swap[9] = 9, 1

        def faulty(ring, g):
            values = list(real(ring, g))
            if fault == "corrupted":
                values[0], values[b] = values[b], values[0]
                return tuple(values)
            return tuple(swap[values[swap[k]]] for k in range(16))

        monkeypatch.setattr(groups, "_dual_table", faulty)
    else:
        extra = (*_foreign_pair(base, fault), [0, 1])
        real = groups._dual_candidates
        monkeypatch.setattr(groups, "_dual_candidates", lambda ring, vectors: itertools.chain(
            [extra], real(ring, vectors)))


@pytest.mark.parametrize("desc", ["fq:3", "zpn:2,2"])
def test_embedding_report_rejects_a_corrupted_enumeration(monkeypatch, desc):
    # swap the images of (a, 0) and (a, b) for a b other than 1, in the
    # tables _dual_table builds from the generators' witnesses: the pairs
    # read off the (a, 1) entries, and the chain on the pair forms, are
    # unchanged, so only the comparison of each table with its pair form,
    # the homomorphism law's premise, can notice; the factorization rests
    # on the chain's group being the dual group, so it falls with the law
    base = make_ring(desc)
    _patch_generators(monkeypatch, base, "corrupted")
    rep = verify_embedding(base)
    assert rep.injective and rep.image_in_ambient
    assert not rep.homomorphism_ok and not rep.factorization_ok
    assert not rep.passed


def test_embedding_report_rejects_a_conjugated_enumeration(monkeypatch):
    # conjugating every dual permutation by a swap of two dual elements keeps
    # a closed group, but the pairs read off it no longer multiply by the
    # semidirect law; conjugating the generators' tables keeps the chain on
    # their pair forms, and only the tables' comparison notices
    base = make_ring("zpn:2,2")
    _patch_pair_elements(monkeypatch, base, "conjugated")
    dps = enumerate_dual_permutations(base)
    assert _brute_axioms(dps)[0]
    assert not _brute_homomorphism(base, dps)
    monkeypatch.undo()
    _patch_generators(monkeypatch, base, "conjugated")
    rep = verify_embedding(base)
    assert rep.image_size == rep.dual_perm_count
    assert not rep.homomorphism_ok


@pytest.mark.parametrize("part", ["perm", "unit", "subgroup"])
def test_embedding_report_rejects_a_pair_outside_the_product(monkeypatch, part):
    # over Z_8 only 128 of 40320 bijections and 256 of 65536 unit-valued
    # tables are induced: a walked generator with a foreign G or a foreign F
    # lies outside the product, as its witness's pair on the base shows, so
    # neither the image is shown to lie in the product nor the product
    # closed, and the chain passes the dual group's order.  With the
    # constant 1 as the only unit-valued u walked, the chain stops at that
    # order: the embedding passes, and the product is not shown closed
    base = make_ring("zpn:2,3")
    if part == "subgroup":
        ones = (base.index(base.one),) * base.size
        monkeypatch.setattr(groups, "_unit_candidates", lambda ring, vectors: iter([ones]))
    else:
        _patch_generators(monkeypatch, base, part)
    rep = verify_embedding(base)
    assert not rep.product_axioms.closed and not rep.product_axioms.passed
    assert rep.injective == rep.image_in_ambient == rep.passed == (part == "subgroup")
    assert not rep.surjective


def _oracle_law(base, perms):
    """(gens, closed, laws) by the per-product law: the closure of
    _oracle_generate, comparing at each product d * s the pair read back
    from it with the twisted product (G1 o G2, (F1 o G2) . F2); laws[k] is
    whether that held for every d at gens[k]."""
    nb, i1 = base.size, base.index(base.one)
    mul_t = base.index_op_tables()[1]
    failed = set()

    def law(d, s, ds):
        G2, F2 = s.base_pair()
        twisted = tuple(nb * (d[i1 + nb * g] // nb) + mul_t[d[i1 + nb * g] % nb][f]
                        for g, f in zip(G2, F2))
        if ds[i1::nb] != twisted:
            failed.add(s.table)

    gens, closed = _oracle_generate(perms, law)
    return gens, closed, [g.table not in failed for g in gens]


@pytest.mark.parametrize("desc,fault", [
    ("fq:2", None), ("fq:3", None), ("fq:4", None), ("zpn:2,2", None),
    ("fq:3", "corrupted"), ("zpn:2,2", "corrupted"), ("zpn:2,2", "conjugated"),
    ("zpn:2,2", "perm"), ("zpn:2,3", None), ("zpn:2,3", "unit"),
])
def test_embedding_law_matches_the_per_product_oracle(monkeypatch, desc, fault):
    # the same fault, in the elements the per-product law closes and in the
    # generators the chain is built from, fails the law in both; brute force
    # over all |G|^2 products agrees, bar fq:4 and zpn:2,3 (1944^2 and
    # 8192^2 products)
    base = make_ring(desc)
    if fault is not None:
        _patch_pair_elements(monkeypatch, base, fault)
    dps = enumerate_dual_permutations(base)
    gens, closed, laws = _oracle_law(base, dps)
    assert [g.table for g in _generate(dps)[0]] == [g.table for g in gens]
    if desc not in ("fq:4", "zpn:2,3"):
        assert (closed and all(laws)) == _brute_homomorphism(base, dps)
    monkeypatch.undo()
    if fault is not None:
        _patch_generators(monkeypatch, base, fault)
    rep = verify_embedding(base)
    assert rep.homomorphism_ok == (closed and all(laws)) == (fault is None)
    assert rep.homomorphism_mode.startswith("schreier-sims:")
    # a foreign generator takes the image out of the product; a faulty table
    # of a generator in it does not
    assert rep.image_in_ambient == (fault not in ("perm", "unit"))


@pytest.mark.parametrize("fault", ["unit"])
def test_embedding_law_fails_a_foreign_generator(monkeypatch, fault):
    # a generator whose F no polynomial induces: its witness's table is not
    # its pair form, and it lies outside the product.  Over Z/4 every unit
    # table is induced, so this needs Z/8 (the per-product oracle checks it
    # there too, and the "perm" fault on zpn:2,2)
    base = make_ring("zpn:2,3")
    _patch_generators(monkeypatch, base, fault)
    rep = verify_embedding(base)
    assert rep.homomorphism_mode.startswith("schreier-sims:")
    assert not rep.homomorphism_ok and not rep.image_in_ambient and not rep.passed


def test_embedding_report_of_a_short_chain(monkeypatch):
    # fq:3 without the unit generator: the chain stops at the 6 pairs (G, 1)
    # of the product, so the read-off is not shown injective nor a
    # homomorphism, the image does not factor, and the product is not shown
    # closed; the generators still lie in it, which lists the identity and
    # every inverse by construction
    base = make_ring("fq:3")
    real = groups._field_generators
    monkeypatch.setattr(groups, "_field_generators", lambda ring: real(ring)[:-1])
    rep = verify_embedding(base)
    assert (rep.image_size, rep.dual_perm_count, rep.ambient_size) == (6, 48, 48)
    assert not (rep.injective or rep.homomorphism_ok or rep.product_axioms.closed)
    assert rep.image_in_ambient and not rep.surjective and not rep.factorization_ok
    assert rep.product_axioms.has_identity and rep.product_axioms.inverses_ok


def test_embedding_law_reads_every_generator(monkeypatch):
    # fq:4 with the values at (1, 0) and (1, 2) of one of the 3 generators'
    # tables swapped, each in turn: the chain, on the pair forms, still
    # reaches the order, so that generator's comparison alone must fail
    base = make_ring("fq:4")
    real = groups._dual_table
    for k in range(3):
        calls = []

        def corrupted(ring, g, k=k, calls=calls):
            values = list(real(ring, g))
            if len(calls) == k:
                values[4], values[6] = values[6], values[4]
            calls.append(g)
            return tuple(values)

        monkeypatch.setattr(groups, "_dual_table", corrupted)
        rep = verify_embedding(base)
        monkeypatch.undo()
        assert len(calls) == 3 and rep.image_size == rep.dual_perm_count
        assert rep.homomorphism_mode == "schreier-sims:3"
        assert not rep.homomorphism_ok
