"""Acceptance gate: nine end-to-end checks, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Each check pins exact expected values and, where stated, a wall-clock
budget; randomized parts are seeded and deterministic.
"""

import functools
import itertools
import math
import random
import time

from ringfunc import canonical as canon
from ringfunc import funcspace as fs
from ringfunc import groups as gr
from ringfunc.dual import DualPolynomial, dual_ring, eval_dual, eval_dual_poly, horner_dual
from ringfunc.funcspace import FunctionTable, induce
from ringfunc.groups import DualPermutation
from ringfunc.poly import Polynomial, X
from ringfunc.rings import make_ring
from test_groups import from_pair


def criterion(num: int, label: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner():
            try:
                fn()
            except BaseException:
                print(f"[criterion {num}] {label}: FAIL")
                raise
            print(f"[criterion {num}] {label}: PASS")

        return inner

    return wrap


# ---------------------------------------------------------------------------
# 1: the unit-valued function count mod 4, against a from-scratch sweep


@criterion(1, "unit-valued function count mod 4")
def test_criterion_1_unit_valued_count_mod_4():
    start = time.perf_counter()
    # plain integer arithmetic on purpose: no library machinery in the oracle
    tables = set()
    for c0, c1, c2, c3 in itertools.product(range(4), repeat=4):
        values = tuple((c0 + c1 * x + c2 * x * x + c3 * x**3) % 4 for x in range(4))
        if all(v % 2 for v in values):
            tables.add(values)
    assert len(tables) == 16
    assert canon.count_unit_valued_functions(2, 2) == 16
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 2: closed-formula counts equal full coefficient-space enumeration


@criterion(2, "unit-valued counts at three scales")
def test_criterion_2_formula_matches_enumeration():
    for p, n, expected in ((2, 2, 16), (2, 3, 256), (3, 2, 5832)):
        start = time.perf_counter()
        ring = make_ring(f"zpn:{p},{n}")
        assert canon.count_unit_valued_functions(p, n) == expected
        # sweeps every coefficient vector of degree < the null bound
        assert len(fs.unit_valued_tables(ring)) == expected
        assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 3: kernel enumeration produces the right number of genuinely new functions


@criterion(3, "kernel sizes and distinctness")
def test_criterion_3_kernel_enumeration():
    for p, n, expected in ((2, 2, 16), (2, 3, 16), (3, 2, 729)):
        start = time.perf_counter()
        ring = make_ring(f"zpn:{p},{n}")
        down = p ** (n - 1)
        tables = [induce(g, ring).values for g in canon.enumerate_kernel(p, n)]
        assert len(tables) == expected == canon.kernel_count(p, n)
        assert len(set(tables)) == expected
        assert all(v % down == 0 for t in tables for v in t)
        assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 4: pointwise stabilizer orders, with the mod-4 null parts pinned exactly


@criterion(4, "stabilizer orders")
def test_criterion_4_stabilizer_orders():
    start = time.perf_counter()
    st4 = gr.enumerate_stabilizer(make_ring("zpn:2,2"))
    assert len(st4) == 4
    # each element is x + g for its null part g
    assert {(st.witness - X).coeffs for st in st4} == {
        (),            # 0
        (0, 2, 2),     # 2(x^2 + x) = 2(x^2 - x) mod 4
        (0, 2, 0, 2),  # 2(x^3 + x)
        (0, 0, 2, 2),  # 2(x^3 + x^2)
    }
    assert len(gr.enumerate_stabilizer(make_ring("fq:2"))) == 1
    assert len(gr.enumerate_stabilizer(make_ring("fq:3"))) == 8
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 5: over fields the dual permutations form the full q!(q-1)^q group


@criterion(5, "dual permutation groups over fields")
def test_criterion_5_field_dual_groups():
    start = time.perf_counter()
    for q in (2, 3, 4):
        expected = math.factorial(q) * (q - 1) ** q
        base = make_ring(f"fq:{q}")
        assert len(gr.enumerate_dual_permutations(base)) == expected
        report = gr.verify_embedding(base)
        assert report.dual_perm_count == expected
        assert report.injective and report.homomorphism_ok
        assert report.image_in_ambient and report.surjective
        assert report.passed
    assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------------------
# 6: over Z_4 the same embedding is injective but lands in a strictly
#    larger group, with both sizes multiples of the brute-force |P(Z_4)|


@criterion(6, "strict embedding over Z_4")
def test_criterion_6_strict_embedding_mod_4():
    start = time.perf_counter()
    base = make_ring("zpn:2,2")
    perm_count = len(fs.permutation_tables(base))
    report = gr.verify_embedding(base)
    assert report.injective and report.homomorphism_ok and report.image_in_ambient
    assert not report.surjective
    assert report.stabilizer_size == 4
    assert report.unit_table_count == 16
    assert report.image_size == 4 * perm_count
    assert report.ambient_size == 16 * perm_count
    assert report.image_size < report.ambient_size
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 7: the fast permutation criteria against brute-force evaluation


def _brute_permutes_dual(f, base, dual) -> bool:
    seen = set()
    for v in horner_dual(f, dual, dual.elements):
        if v in seen:
            return False
        seen.add(v)
    return True


def _int_polys(m: int, degree_bound: int):
    for coeffs in itertools.product(range(m), repeat=degree_bound):
        yield Polynomial(coeffs)


@criterion(7, "criteria agree with brute force")
def test_criterion_7_criteria_vs_brute_force():
    # dual-extension criterion: exhaustive over the small rings
    for desc in ("zpn:2,1", "zpn:3,1", "fq:4"):
        base = make_ring(desc)
        dual = dual_ring(base)
        bound = 2 * base.size
        if base.integer_encoded:
            candidates = _int_polys(base.size, bound)
        else:
            candidates = (
                Polynomial(c, base)
                for c in itertools.product(base.elements, repeat=bound)
            )
        for f in candidates:
            assert fs.permutes_dual(f, base) == _brute_permutes_dual(f, base, dual)

    # then seeded random sampling at the next sizes up
    rng = random.Random(20240817)
    for desc in ("zpn:2,2", "zpn:2,3", "zpn:3,2"):
        base = make_ring(desc)
        dual = dual_ring(base)
        m = base.size
        for _ in range(10_000):
            f = Polynomial([rng.randrange(m) for _ in range(2 * m)])
            assert fs.permutes_dual(f, base) == _brute_permutes_dual(f, base, dual)

    # local residue criterion against the plain table bijection test
    for p, n in ((2, 1), (3, 1)):
        ring = make_ring(f"zpn:{p},{n}")
        for f in _int_polys(p**n, 2 * p**n):
            assert fs.permutes_prime_power(f, p, n) == fs.is_permutation(f, ring)
    for p, n in ((2, 2), (2, 3), (3, 2)):
        ring = make_ring(f"zpn:{p},{n}")
        m = p**n
        for _ in range(10_000):
            f = Polynomial([rng.randrange(m) for _ in range(2 * m)])
            assert fs.permutes_prime_power(f, p, n) == fs.is_permutation(f, ring)


# ---------------------------------------------------------------------------
# 8: canonical forms biject with function tables mod 4 and are fixed points


@criterion(8, "canonical form bijection mod 4")
def test_criterion_8_canonical_bijection():
    start = time.perf_counter()
    ring = make_ring("zpn:2,2")
    forms = list(canon.enumerate_canonical_forms(2, 2))
    tables = {induce(f.to_polynomial(), ring).values for f in forms}
    assert len(forms) == 64
    assert len(tables) == 64
    assert tables == fs.induced_tables(ring)
    for form in forms:
        assert canon.canonicalize(form.to_polynomial(), 2, 2) == form
    uv_forms = list(canon.enumerate_unit_valued_forms(2, 2))
    uv_tables = {induce(f.to_polynomial(), ring).values for f in uv_forms}
    assert len(uv_forms) == 16
    assert uv_tables == fs.unit_valued_tables(ring)
    for form in uv_forms:
        assert canon.canonicalize_unit_valued(form.to_polynomial(), 2, 2) == form
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 9: the algebraic property suites on the exhaustive small-ring grid


GRID = ("zpn:2,1", "zpn:3,1", "zpn:2,2", "fq:2", "fq:3", "fq:4")


def _random_table(rng, ring) -> FunctionTable:
    return FunctionTable(ring, [rng.choice(ring.elements) for _ in range(ring.size)])


def _random_poly(rng, ring) -> Polynomial:
    degree = rng.randrange(2 * ring.size)
    if ring.integer_encoded:
        return Polynomial([rng.randrange(ring.size) for _ in range(degree + 1)])
    return Polynomial([rng.choice(ring.elements) for _ in range(degree + 1)], ring)


def _pointwise_ring_axioms(ring, rng):
    zero = FunctionTable.zero(ring)
    one = FunctionTable.one(ring)
    for _ in range(15):
        t1, t2, t3 = (_random_table(rng, ring) for _ in range(3))
        assert t1.pointwise_add(t2) == t2.pointwise_add(t1)
        assert t1.pointwise_mul(t2) == t2.pointwise_mul(t1)
        assert t1.pointwise_add(t2).pointwise_add(t3) == t1.pointwise_add(
            t2.pointwise_add(t3)
        )
        assert t1.pointwise_mul(t2).pointwise_mul(t3) == t1.pointwise_mul(
            t2.pointwise_mul(t3)
        )
        assert t1.pointwise_mul(t2.pointwise_add(t3)) == t1.pointwise_mul(
            t2
        ).pointwise_add(t1.pointwise_mul(t3))
        assert t1.pointwise_add(zero) == t1
        assert t1.pointwise_mul(one) == t1
        neg = FunctionTable(ring, [ring.sub(ring.zero, v) for v in t1.values])
        assert t1.pointwise_add(neg) == zero


def _theta_action_laws(ring, rng):
    perms = [FunctionTable(ring, t) for t in sorted(fs.permutation_tables(ring))]
    uv = [FunctionTable(ring, t) for t in sorted(fs.unit_valued_tables(ring))]
    ident = FunctionTable.identity(ring)
    sample = uv if len(uv) <= 16 else rng.sample(uv, 16)
    for F in sample:
        assert gr.precompose_units(F, ident) == F
    for G in perms:
        for F in sample:
            assert gr.precompose_units(F, G).is_unit_valued()
        for F1, F2 in itertools.combinations(sample, 2):
            lhs = gr.precompose_units(F1.pointwise_mul(F2), G)
            rhs = gr.precompose_units(F1, G).pointwise_mul(gr.precompose_units(F2, G))
            assert lhs == rhs
    for G1, G2 in itertools.product(perms, repeat=2):
        for F in sample[:4]:
            assert gr.precompose_units(gr.precompose_units(F, G1), G2) == (
                gr.precompose_units(F, G1.compose(G2))
            )


def _semidirect_properties(ring):
    group = gr.semidirect_group(ring)
    assert gr.verify_group_axioms(group).passed
    dual = group[0].dual
    ident = DualPermutation.identity(dual)
    id_perm, one_unit = ident.base_pair()
    unit_els = [el for el in group if el.base_pair()[0] == id_perm]
    for el in group:
        G, F = el.base_pair()
        perm_part = from_pair(dual, G, one_unit)
        unit_part = from_pair(dual, id_perm, F)
        assert perm_part * unit_part == el
    for el in group:
        inv = el.inverse()
        for u in unit_els:
            assert (el * u * inv).base_pair()[0] == id_perm
    overlap = [el for el in group if el.base_pair() == (id_perm, one_unit)]
    assert overlap == [ident]


def _evaluation_laws(ring, rng):
    dual = dual_ring(ring)
    for _ in range(30):
        f = _random_poly(rng, ring)
        g = DualPolynomial(_random_poly(rng, ring), _random_poly(rng, ring))
        pairs = zip(dual.elements, horner_dual(f, dual, dual.elements),
                    horner_dual(g, dual, dual.elements))
        for (a, b), fv, gv in pairs:
            assert eval_dual(f, ring, a, b) == fv
            assert eval_dual_poly(g, ring, a, b) == gv


def _tower_monotonicity(rng):
    for p, n in ((2, 2), (2, 3), (3, 2)):
        fine = make_ring(f"zpn:{p},{n}")
        coarse = make_ring(f"zpn:{p},{n - 1}")
        q = p ** (n - 1)
        polys = [
            Polynomial(
                [rng.randrange(p**n) for _ in range(rng.randrange(1, 2 * p**n))]
            )
            for _ in range(60)
        ]
        for f in polys:
            top = induce(f, fine).values
            # the coarse table is the reduction of the fine one
            assert induce(f, coarse).values == tuple(v % q for v in top[:q])
            # unit-valuedness is decided at the bottom of the tower
            assert fs.is_unit_valued(f, fine) == fs.is_unit_valued(f, coarse)
        for f, g in itertools.combinations(polys[:30], 2):
            if induce(f, coarse) != induce(g, coarse):
                assert induce(f, fine) != induce(g, fine)


@criterion(9, "algebraic property suites on the small-ring grid")
def test_criterion_9_property_suites():
    rng = random.Random(1105)
    for desc in GRID:
        ring = make_ring(desc)
        _pointwise_ring_axioms(ring, rng)
        _theta_action_laws(ring, rng)
        _evaluation_laws(ring, rng)
    for desc in GRID:
        _semidirect_properties(make_ring(desc))
    _tower_monotonicity(rng)
