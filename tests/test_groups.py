"""Semidirect products, dual permutations, the stabilizer, verification reports."""

import itertools
import random

import pytest

from ringfunc import groups
from ringfunc.dual import dual_ring, horner_dual
from ringfunc.funcspace import (
    FunctionTable,
    induce,
    permutation_tables,
    unit_valued_tables,
)
from ringfunc.groups import (
    DualPermutation,
    dual_degree_bound,
    enumerate_dual_permutations,
    enumerate_stabilizer,
    null_polynomials,
    pair_table_sweep,
    precompose_units,
    semidirect_group,
    semidirect_pairs,
    verify_embedding,
    verify_group_axioms,
)
from ringfunc.poly import Polynomial, X, parse
from ringfunc.rings import SizeCapError, make_ring


def _dp_from_poly(base, f):
    """Dual permutation table of f computed point by point in the dual ring."""
    d = dual_ring(base)
    table = [d.index(v) for v in horner_dual(f, d, d.elements)]
    return DualPermutation(d, table, f)


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
        back = G.inverse_permutation()
        for F in uvs:
            assert precompose_units(precompose_units(F, G), back) == F
    for F in uvs:
        assert precompose_units(F, ident) == F


# ---------------------------------------------------------------------------
# the semidirect product


def test_semidirect_element_validation():
    d4 = dual_ring(make_ring("zpn:2,2"))
    DualPermutation.from_pair(d4, (0, 1, 2, 3), (1, 3, 1, 3))
    with pytest.raises(ValueError):
        DualPermutation.from_pair(d4, (0, 0, 2, 3), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        DualPermutation.from_pair(d4, (0, 1, 2, 3), (1, 2, 1, 1))  # 2 is not a unit
    with pytest.raises(ValueError):
        DualPermutation.from_pair(d4, (0, 1, 2), (1, 1, 1, 1))


def test_semidirect_product_example():
    d3 = dual_ring(make_ring("fq:3"))
    e1 = DualPermutation.from_pair(d3, (0, 1, 2), (1, 1, 2))
    e2 = DualPermutation.from_pair(d3, (1, 0, 2), (1, 1, 1))
    assert (e1 * e2).base_pair() == ((1, 0, 2), (1, 1, 2))


def test_pair_table_is_the_action_on_the_dual_ring():
    # (a, b) -> (G(a), F(a) * b), entry by entry in the dual ring
    base = make_ring("zm:6")
    d = dual_ring(base)
    perms, units = semidirect_pairs(base)
    for G, F in ((perms[3], units[5]), (perms[-1], units[-1])):
        el = DualPermutation.from_pair(d, G, F)
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
        els.append(DualPermutation.from_pair(d, G, F))
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
        g_part = DualPermutation.from_pair(d, G, one)
        f_part = DualPermutation.from_pair(d, ident_perm, F)
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


def test_generating_set_leaves_out_the_identity():
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
        products = []
        gens, closed = groups._generate(pool, lambda x, s, y: products.append(y))
        assert closed
        assert identity not in gens
        assert len(products) == len(pool) * len(gens)
    # a one-element pool still takes its element as the generator
    e = DualPermutation.identity(d3)
    assert groups._generate([e]) == ([e], True)
    # the identity and an involution: the involution generates both
    swap = DualPermutation.from_pair(d3, (1, 0, 2), (1, 1, 1))
    assert groups._generate([e, swap]) == ([swap], True)


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
            DualPermutation.from_pair(d4, tuple(range(4)), (1, 1, 1, 3))
        ],
        # the whole product plus a permutation no polynomial induces
        "zpn:2,2-foreign-perm": z4_group + [
            DualPermutation.from_pair(d4, _foreign_perm(z4), one)
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
    assert DualPermutation.from_pair(dp.dual, G, F) == dp


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
    # cached second lookup
    assert dual_degree_bound(make_ring("zpn:2,2")) == 4


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


def _domains(base):
    # the whole ring, and two nonzero elements: a domain without zero
    return [None, base.elements[1:3]]


def _candidates(base, D, domain=None):
    """Coefficient vectors of degree < D, constant term fastest, each
    coefficient in domain order."""
    domain = base.elements if domain is None else domain
    return [tuple(reversed(t)) for t in itertools.product(domain, repeat=D)]


def _poly(base, coeffs):
    return Polynomial(coeffs, None if base.integer_encoded else base)


def _index_table(base, f):
    return tuple(base.index(v) for v in induce(f, base).values)


@pytest.mark.parametrize("desc", ORACLE_RINGS)
def test_pair_sweep_matches_per_candidate_induction(desc):
    base = make_ring(desc)
    for domain in _domains(base):
        for D in range(4):
            expected = []
            for coeffs in _candidates(base, D, domain):
                f = _poly(base, coeffs)
                expected.append(
                    (_index_table(base, f), _index_table(base, f.derive()), coeffs)
                )
            assert list(pair_table_sweep(base, D, coeff_elements=domain)) == expected


def test_pair_sweeps_reject_bad_arguments():
    z4 = make_ring("zpn:2,2")
    # the empty domain is refused before the cap is looked at
    with pytest.raises(ValueError, match="empty coefficient domain"):
        list(pair_table_sweep(z4, 2, coeff_elements=(), cap=0))
    with pytest.raises(SizeCapError, match="pair sweep: 64 exceeds cap 63"):
        list(pair_table_sweep(z4, 3, cap=63))
    assert len(list(pair_table_sweep(z4, 3, cap=64))) == 64


@pytest.mark.parametrize("D", [0, -1])
def test_pair_sweep_below_degree_one_yields_the_zero_candidate(D):
    z4 = make_ring("zpn:2,2")
    zero = (0, 0, 0, 0)
    for domain in (None, (1, 3)):
        assert list(pair_table_sweep(z4, D, coeff_elements=domain, cap=1)) == [
            (zero, zero, ())
        ]
    with pytest.raises(ValueError, match="empty coefficient domain"):
        list(pair_table_sweep(z4, D, coeff_elements=()))


def test_null_polynomials_cap_every_candidate():
    z4 = make_ring("zpn:2,2")
    with pytest.raises(SizeCapError, match="pair sweep: 64 exceeds cap 63"):
        null_polynomials(z4, 3, cap=63)
    assert [f.coeffs for f in null_polynomials(z4, 3, cap=64)] == [(), (0, 2, 2)]


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
    for pair, rest in groups._pair_sums(base, D):
        got.setdefault(pair, rest)
    assert list(got.items()) == list(expected.items())


def test_pair_sums_check_the_cap_before_any_work():
    z4 = make_ring("zpn:2,2")
    with pytest.raises(SizeCapError):
        groups._pair_sums(z4, 3, cap=63)
    assert len(dict(groups._pair_sums(z4, 3, cap=64))) == 16


@pytest.mark.parametrize("desc", ORACLE_RINGS)
def test_null_polynomials_match_a_per_candidate_filter(desc):
    base = make_ring(desc)
    for D in range(4):
        expected = [
            _poly(base, c) for c in _candidates(base, D)
            if induce(_poly(base, c), base).is_zero()
        ]
        assert null_polynomials(base, D) == expected


@pytest.mark.parametrize("desc", ["fq:2", "fq:3", "zpn:2,2", "zm:6"])
def test_enumerations_match_a_per_candidate_filter(desc):
    # the filters on every candidate of the per-candidate oracle
    base = make_ring(desc)
    mask = base.unit_index_mask()
    add_t = base.index_op_tables()[0]
    one = base.index(base.one)
    zero_tab = (base.index(base.zero),) * base.size
    pairs, units, nulls = {}, {}, []
    for ftab, dtab, coeffs in pair_table_sweep(base, dual_degree_bound(base)):
        if len(set(ftab)) == base.size and all(mask[i] for i in dtab):
            pairs.setdefault((ftab, dtab), coeffs)
        if ftab == zero_tab:
            nulls.append(_poly(base, coeffs))
            unit = tuple(add_t[one][i] for i in dtab)
            if all(mask[i] for i in unit):
                units.setdefault(unit, coeffs)
    dps = enumerate_dual_permutations(base)
    assert [(dp.base_pair(), dp.witness) for dp in dps] == sorted(
        ((k, _poly(base, c)) for k, c in pairs.items()),
        key=lambda item: groups._pair_table(base, *item[0]),
    )
    stab = enumerate_stabilizer(base)
    assert [(st.base_pair()[1], st.witness - X) for st in stab] == sorted(
        (u, _poly(base, c)) for u, c in units.items()
    )
    assert null_polynomials(base) == nulls


@pytest.mark.parametrize("desc,count", [("fq:2", 2), ("fq:3", 48), ("zpn:2,2", 32)])
def test_dual_permutation_enumeration(desc, count):
    base = make_ring(desc)
    dps = enumerate_dual_permutations(base)
    assert len(dps) == count
    assert len({dp.table for dp in dps}) == count
    assert [dp.table for dp in dps] == sorted(dp.table for dp in dps)
    for dp in dps:
        assert _dp_from_poly(base, dp.witness) == dp


def test_null_polynomials_of_the_four_element_ring():
    z4 = make_ring("zpn:2,2")
    nulls = null_polynomials(z4)
    assert {f.coeffs for f in nulls} == {(), (0, 2, 2), (0, 0, 2, 2), (0, 2, 0, 2)}
    assert null_polynomials(z4, 4) == nulls
    for f in nulls:
        assert induce(f, z4).is_zero()


def test_null_polynomials_of_the_two_element_field():
    f2 = make_ring("fq:2")
    nulls = null_polynomials(f2)
    assert {f.coeffs for f in nulls} == {(), (0, 1, 1), (0, 0, 1, 1), (0, 1, 0, 1)}


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
    table = DualPermutation.from_pair(d4, range(4), (1, 1, 1, 1)).table
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
    assert rep2.homomorphism_mode.startswith("generators:")

    rep3 = verify_embedding(make_ring("fq:3"))
    assert rep3.passed
    assert rep3.surjective
    assert (rep3.dual_perm_count, rep3.image_size, rep3.ambient_size) == (48, 48, 48)
    assert (rep3.perm_count, rep3.unit_table_count, rep3.stabilizer_size) == (6, 8, 8)


def test_embedding_report_over_the_four_element_ring():
    rep = verify_embedding(make_ring("zpn:2,2"))
    assert rep.passed
    assert not rep.surjective
    assert rep.injective
    assert rep.homomorphism_ok
    assert rep.homomorphism_mode.startswith("generators:")
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


def _swap_two_entries(dp, i, j):
    table = list(dp.table)
    table[i], table[j] = table[j], table[i]
    return DualPermutation(dp.dual, table)


@pytest.mark.parametrize("desc", ["fq:3", "zpn:2,2"])
def test_embedding_report_rejects_a_corrupted_enumeration(monkeypatch, desc):
    # swap the images of (a, 0) and (a, b) for a b other than 1: the base
    # pair read off the (a, 1) entries is unchanged, so only the closure and
    # the homomorphism law can notice
    base = make_ring(desc)
    nb = base.size
    b = next(i for i in range(1, nb) if i != base.index(base.one))
    real = groups._dual_elements

    def corrupted(ring, passing):
        dps = real(ring, passing)
        return dps[:-1] + [_swap_two_entries(dps[-1], 0, b)]

    monkeypatch.setattr(groups, "_dual_elements", corrupted)
    dps = enumerate_dual_permutations(base)
    assert len(set(dps)) == len(dps)
    assert not _brute_homomorphism(base, dps)
    rep = verify_embedding(base)
    assert rep.injective and rep.image_in_ambient and rep.factorization_ok
    assert not rep.homomorphism_ok
    assert not rep.passed


def test_embedding_report_rejects_a_conjugated_enumeration(monkeypatch):
    # conjugating every dual permutation by a swap of two dual elements keeps
    # a closed group, but the pairs read off it no longer multiply by the
    # semidirect law
    base = make_ring("zpn:2,2")
    swap = list(range(16))
    swap[1], swap[9] = 9, 1  # (0, 1) and (2, 1)
    real = groups._dual_elements

    def conjugated(ring, passing):
        return [
            DualPermutation(dp.dual, [swap[dp.table[swap[k]]] for k in range(16)])
            for dp in real(ring, passing)
        ]

    monkeypatch.setattr(groups, "_dual_elements", conjugated)
    dps = enumerate_dual_permutations(base)
    assert _brute_axioms(dps)[0]
    assert not _brute_homomorphism(base, dps)
    assert not verify_embedding(base).homomorphism_ok


@pytest.mark.parametrize("part", ["perm", "unit"])
def test_embedding_report_rejects_a_pair_outside_the_product(monkeypatch, part):
    # over Z_6 only 12 of 720 bijections and 8 of 64 unit-valued tables are
    # induced: an extra element with a foreign G or a foreign F has a pair
    # outside the semidirect product, and membership is checked per element
    base = make_ring("zm:6")
    perms, units = semidirect_pairs(base)
    unit_idx = [i for i in range(6) if base.unit_index_mask()[i]]
    if part == "perm":
        G, F = _foreign_perm(base), units[0]
    else:
        G, induced = perms[0], set(units)
        F = next(t for t in itertools.product(unit_idx, repeat=6) if t not in induced)
    real = groups._dual_elements

    def extended(ring, passing):
        dps = real(ring, passing)
        return dps + [DualPermutation.from_pair(dps[0].dual, G, F)]

    monkeypatch.setattr(groups, "_dual_elements", extended)
    rep = verify_embedding(base)
    assert rep.injective
    assert not rep.image_in_ambient
    assert not rep.surjective
    assert not rep.passed
