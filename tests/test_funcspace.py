"""Function tables: predicates, criteria, interpolation, enumeration."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ringfunc import funcspace
from ringfunc.canonical import count_polynomial_functions
from ringfunc.cli import _brute_counts
from ringfunc.dual import dual_ring
from ringfunc.funcspace import (
    FunctionTable,
    coefficient_sums,
    hermite_basis,
    induce,
    induced_tables,
    invert_unit_table,
    is_null,
    is_permutation,
    is_unit_valued,
    lagrange,
    monomial_stages,
    null_degree_bound,
    permutation_tables,
    permutes_dual,
    permutes_prime_power,
    realize_pair,
    ring_polynomial,
    render_value,
    unit_valued_tables,
)
from ringfunc.poly import Polynomial, X, parse
from ringfunc.rings import SizeCapError, make_ring
import reference_sweep
from test_groups import derivative_stages, inverse_permutation


def _random_poly(rng, degree_bound, modulus):
    return Polynomial([rng.randrange(modulus) for _ in range(degree_bound)])


def test_induce_example():
    z4 = make_ring("zpn:2,2")
    assert induce(parse("x + 2x^2"), z4).values == (0, 3, 2, 1)
    assert induce(Polynomial.zero(), z4).values == (0, 0, 0, 0)


def test_table_constructors_and_value_access():
    z4 = make_ring("zpn:2,2")
    ident = FunctionTable.identity(z4)
    assert ident.values == (0, 1, 2, 3)
    assert FunctionTable.constant(z4, 3).values == (3, 3, 3, 3)
    assert FunctionTable.zero(z4).is_zero()
    assert FunctionTable.one(z4).values == (1, 1, 1, 1)
    assert ident.values[z4.index(2)] == 2
    with pytest.raises(ValueError):
        FunctionTable(z4, (0, 1))
    with pytest.raises(AttributeError):
        ident.values = ()


def test_pointwise_product_example():
    z4 = make_ring("zpn:2,2")
    a = FunctionTable(z4, (1, 3, 1, 3))
    b = FunctionTable(z4, (3, 1, 3, 1))
    assert a.pointwise_mul(b).values == (3, 3, 3, 3)
    assert a.pointwise_add(b).values == (0, 0, 0, 0)


def test_pointwise_across_rings_raises():
    a = FunctionTable(make_ring("zpn:2,2"), (0, 1, 2, 3))
    b = FunctionTable(make_ring("zm:4"), (0, 1, 2, 3))
    with pytest.raises(ValueError):
        a.pointwise_add(b)


def test_compose_and_inverse_permutation():
    z4 = make_ring("zpn:2,2")
    g = induce(parse("x + 2x^2"), z4)  # (0, 3, 2, 1)
    assert g.is_bijection()
    inv = inverse_permutation(g)
    assert g.compose(inv) == FunctionTable.identity(z4)
    assert inv.compose(g) == FunctionTable.identity(z4)
    assert g.compose(g).values == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        inverse_permutation(FunctionTable.constant(z4, 1))


def test_invert_unit_table():
    z4 = make_ring("zpn:2,2")
    assert invert_unit_table(FunctionTable(z4, (1, 3, 1, 3))).values == (1, 3, 1, 3)
    z9 = make_ring("zpn:3,2")
    assert invert_unit_table(FunctionTable.constant(z9, 2)).values == (5,) * 9
    with pytest.raises(ValueError):
        invert_unit_table(FunctionTable.identity(z4))


def test_predicates():
    z4 = make_ring("zpn:2,2")
    assert is_null(parse("(x^2-x)^2"), z4)
    assert not is_null(X, z4)
    assert is_unit_valued(parse("2x^2 + 2x + 1"), z4)
    assert not is_unit_valued(X, z4)
    assert is_permutation(parse("x + 2x^2"), z4)
    assert not is_permutation(X**2, z4)


@pytest.mark.parametrize(
    "desc", ["zm:12", "zpn:7,2", "fq:7", "fq:4", "fq:2,3", "dual:fq:3", "dual:zm:6"]
)
def test_is_unit_valued_is_every_value_a_unit(desc):
    # the unit-set test against ring.is_unit at each value, on seeded tables
    # of every ring kind: all values units, one non-unit, and random values
    ring = make_ring(desc)
    rng = random.Random(desc)
    els, units = ring.elements, ring.units()
    non_units = [e for e in els if not ring.is_unit(e)]
    tables = [[rng.choice(els) for _ in els] for _ in range(20)]
    tables += [[rng.choice(units) for _ in els] for _ in range(5)]
    tables += [[rng.choice(units) for _ in els[1:]] + [rng.choice(non_units)] for _ in range(5)]
    verdicts = [FunctionTable(ring, t).is_unit_valued() for t in tables]
    assert verdicts == [all(map(ring.is_unit, t)) for t in tables]
    assert verdicts[20:] == [True] * 5 + [False] * 5


def test_render_value_by_ring_kind():
    z4 = make_ring("zpn:2,2")
    assert render_value(z4, 3) == 3
    f4 = make_ring("fq:4")
    assert render_value(f4, (1, 1)) == 3
    d = make_ring("dual:zpn:2,2")
    assert render_value(d, (1, 2)) == "1+2*al"


def test_table_json_shape():
    z4 = make_ring("zpn:2,2")
    got = induce(parse("x + 2x^2"), z4).to_json_dict()
    assert got == {"ring": "zpn:2,2", "values": [0, 3, 2, 1]}


# ---------------------------------------------------------------------------
# the mod-p criterion for permuting Z_{p^n}


def test_square_permutes_the_two_element_ring():
    assert permutes_prime_power(X**2, 2, 1)
    assert is_permutation(X**2, make_ring("zpn:2,1"))
    assert not permutes_prime_power(X**2, 2, 2)


def test_ideal_only_derivative_check_is_weaker():
    f = parse("x^3 + x^2 + x")
    assert not is_permutation(f, make_ring("zpn:2,2"))
    assert not permutes_prime_power(f, 2, 2)


@pytest.mark.parametrize(
    "p,n,degree",
    [(2, 1, 4), (2, 2, 6), (3, 1, 5)],
)
def test_residue_criterion_exhaustive(p, n, degree):
    ring = make_ring(f"zpn:{p},{n}")
    m = p**n
    for coeffs in itertools.product(range(m), repeat=degree):
        f = Polynomial(coeffs)
        assert permutes_prime_power(f, p, n) == is_permutation(f, ring)


@pytest.mark.parametrize("p,n,degree", [(2, 3, 6), (3, 2, 8)])
def test_residue_criterion_randomized(p, n, degree):
    ring = make_ring(f"zpn:{p},{n}")
    rng = random.Random(1000 * p + n)
    for _ in range(600):
        f = _random_poly(rng, degree, p**n)
        assert permutes_prime_power(f, p, n) == is_permutation(f, ring)


# ---------------------------------------------------------------------------
# the criterion for permuting the dual-number extension


def test_dual_criterion_examples():
    f3 = make_ring("fq:3")
    assert permutes_dual(parse("2x^3 + 2x"), f3)
    z4 = make_ring("zpn:2,2")
    assert not permutes_dual(X**2 + X, z4)
    assert permutes_dual(parse("x + 2x^2"), z4)


@pytest.mark.parametrize("desc,degree", [("zpn:2,1", 4), ("zpn:3,1", 6)])
def test_dual_criterion_exhaustive(desc, degree):
    base = make_ring(desc)
    d = dual_ring(base)
    m = base.size
    for coeffs in itertools.product(range(m), repeat=degree):
        f = Polynomial(coeffs)
        assert permutes_dual(f, base) == is_permutation(f, d)


@pytest.mark.parametrize("desc,degree", [("zpn:2,2", 8), ("fq:4", 8)])
def test_dual_criterion_randomized(desc, degree):
    base = make_ring(desc)
    d = dual_ring(base)
    rng = random.Random(hash(desc) & 0xFFFF)
    for _ in range(400):
        if base.integer_encoded:
            f = _random_poly(rng, degree, base.size)
        else:
            coeffs = [base.elements[rng.randrange(base.size)] for _ in range(degree)]
            f = Polynomial(coeffs, ring=base)
        assert permutes_dual(f, base) == is_permutation(f, d)


# ---------------------------------------------------------------------------
# unit-valuedness only depends on the residue field


@pytest.mark.parametrize("p", [2, 3])
def test_unit_valued_is_stable_across_power_levels(p):
    rings = {n: make_ring(f"zpn:{p},{n}") for n in range(1, 5)}
    rng = random.Random(55 * p)
    for _ in range(40):
        f = _random_poly(rng, 6, p**4)
        verdicts = {n: is_unit_valued(f, rings[n]) for n in rings}
        assert len(set(verdicts.values())) == 1


@pytest.mark.parametrize("p", [2, 3])
def test_distinct_functions_stay_distinct_at_higher_power_levels(p):
    rings = {n: make_ring(f"zpn:{p},{n}") for n in range(1, 5)}
    rng = random.Random(77 * p)
    for _ in range(60):
        f = _random_poly(rng, 6, p**4)
        g = _random_poly(rng, 6, p**4)
        for n in range(1, 5):
            if induce(f, rings[n]) != induce(g, rings[n]):
                for k in range(n, 5):
                    assert induce(f, rings[k]) != induce(g, rings[k])
                break


# ---------------------------------------------------------------------------
# interpolation and pair realization over fields


@pytest.mark.parametrize("q", [2, 3])
def test_lagrange_hits_every_table_over_prime_fields(q):
    ring = make_ring(f"fq:{q}")
    for values in itertools.product(range(q), repeat=q):
        table = FunctionTable(ring, values)
        f = lagrange(table)
        assert f.degree <= q - 1
        assert all(isinstance(c, int) and 0 <= c < q for c in f.coeffs)
        assert induce(f, ring) == table


def test_lagrange_hits_every_table_over_the_four_element_field():
    f4 = make_ring("fq:4")
    for values in itertools.product(f4.elements, repeat=4):
        table = FunctionTable(f4, values)
        f = lagrange(table)
        assert f.degree <= 3
        assert induce(f, f4) == table


def test_lagrange_example_and_non_field_rejection():
    f3 = make_ring("fq:3")
    assert lagrange(FunctionTable(f3, (1, 1, 2))).coeffs == (1, 1, 2)
    with pytest.raises(ValueError):
        lagrange(FunctionTable.identity(make_ring("zpn:2,2")))


def test_realize_pair_example():
    f3 = make_ring("fq:3")
    g = realize_pair(FunctionTable.identity(f3), FunctionTable.constant(f3, 2))
    assert g == parse("2x^3 + 2x")


@pytest.mark.parametrize("q", [2, 3])
def test_realize_pair_exhaustive_over_prime_fields(q):
    ring = make_ring(f"fq:{q}")
    perms = sorted(permutation_tables(ring))
    uvs = sorted(unit_valued_tables(ring))
    assert len(perms) == math.factorial(q)
    assert len(uvs) == (q - 1) ** q
    for gv in perms:
        for fv in uvs:
            g = realize_pair(FunctionTable(ring, gv), FunctionTable(ring, fv))
            assert g.degree <= 2 * q - 1


def test_realize_pair_sampled_over_the_four_element_field():
    f4 = make_ring("fq:4")
    perms = sorted(permutation_tables(f4))
    uvs = sorted(unit_valued_tables(f4))
    rng = random.Random(11)
    for _ in range(25):
        gv = perms[rng.randrange(len(perms))]
        fv = uvs[rng.randrange(len(uvs))]
        g = realize_pair(FunctionTable(f4, gv), FunctionTable(f4, fv))
        assert g.degree <= 7


@pytest.mark.parametrize("desc", ["fq:2", "fq:3", "fq:4", "fq:5", "fq:7", "fq:8", "fq:9"])
def test_hermite_basis_interpolates_values_and_derivatives(desc):
    # [H_a] = [K_a'] = indicator of a, [H_a'] = [K_a] = 0, degree < 2q
    ring = make_ring(desc)
    q = ring.size
    H, K = hermite_basis(ring)
    zero = (ring.zero,) * q
    for a in range(q):
        indicator = tuple(ring.one if b == a else ring.zero for b in range(q))
        h, k = (ring_polynomial(ring, [ring.elements[i] for i in v]) for v in (H[a], K[a]))
        assert len(H[a]) == len(K[a]) == 2 * q
        assert induce(h, ring).values == indicator == induce(k.derive(), ring).values
        assert induce(h.derive(), ring).values == zero == induce(k, ring).values


def test_hermite_basis_rejects_a_non_field():
    with pytest.raises(ValueError):
        hermite_basis(make_ring("zpn:2,2"))


def test_realize_pair_input_validation():
    f3 = make_ring("fq:3")
    with pytest.raises(ValueError):
        realize_pair(FunctionTable.constant(f3, 1), FunctionTable.one(f3))
    with pytest.raises(ValueError):
        realize_pair(FunctionTable.identity(f3), FunctionTable.zero(f3))
    z4 = make_ring("zpn:2,2")
    with pytest.raises(ValueError):
        realize_pair(FunctionTable.identity(z4), FunctionTable.one(z4))


# ---------------------------------------------------------------------------
# degree bounds and exhaustive enumeration


def test_null_degree_bound_values():
    assert null_degree_bound(make_ring("fq:2")) == 2
    assert null_degree_bound(make_ring("fq:3")) == 3
    assert null_degree_bound(make_ring("fq:4")) == 4
    assert null_degree_bound(make_ring("zm:6")) == 3
    assert null_degree_bound(make_ring("zpn:2,2")) == 4
    assert null_degree_bound(make_ring("zpn:2,3")) == 4
    assert null_degree_bound(make_ring("zpn:2,4")) == 6
    assert null_degree_bound(make_ring("zpn:3,2")) == 6
    assert null_degree_bound(make_ring("dual:zpn:2,2")) == 4
    assert null_degree_bound(make_ring("dual:fq:3")) == 6


def _function_count_by_factorial_gcd(m, bound):
    # distinct polynomial functions mod m, counted degree by degree
    total = 1
    fact = 1
    for k in range(bound):
        total *= m // math.gcd(m, fact)
        fact *= k + 1
    return total


@pytest.mark.parametrize("desc", ["zm:4", "zm:6", "zpn:2,3", "zpn:3,2"])
def test_induced_table_counts_match_independent_formula(desc):
    ring = make_ring(desc)
    bound = null_degree_bound(ring)
    expected = _function_count_by_factorial_gcd(ring.size, bound)
    assert len(induced_tables(ring)) == expected


@pytest.mark.parametrize("q", [2, 3, 4])
def test_every_function_on_a_field_is_polynomial(q):
    ring = make_ring(f"fq:{q}")
    assert len(induced_tables(ring)) == q**q
    assert len(unit_valued_tables(ring)) == (q - 1) ** q
    assert len(permutation_tables(ring)) == math.factorial(q)


def test_table_counts_on_small_power_rings():
    assert len(induced_tables(make_ring("zpn:2,2"))) == 64
    assert len(unit_valued_tables(make_ring("zpn:2,2"))) == 16
    assert len(permutation_tables(make_ring("zpn:2,2"))) == 8
    assert len(permutation_tables(make_ring("zpn:2,3"))) == 128


def test_incremental_sweep_matches_per_polynomial_induction():
    z4 = make_ring("zpn:2,2")
    naive = {
        induce(Polynomial(c), z4).values
        for c in itertools.product(range(4), repeat=4)
    }
    assert induced_tables(z4) == naive
    f4 = make_ring("fq:4")
    naive4 = {
        induce(Polynomial(c, ring=f4), f4).values
        for c in itertools.product(f4.elements, repeat=4)
    }
    assert induced_tables(f4) == naive4


@pytest.mark.parametrize("desc", ["fq:2", "fq:3", "fq:4", "zpn:2,2", "zpn:2,3", "zm:6"])
def test_induced_tables_match_per_candidate_induction(desc):
    # the sweep steps degrees 1 .. D-1 only and translates by the constants
    ring = make_ring(desc)
    ring_arg = None if ring.integer_encoded else ring
    for D in range(4):
        naive = {
            induce(Polynomial(c, ring_arg), ring).values
            for c in itertools.product(ring.elements, repeat=D)
        }
        assert induced_tables(ring, D) == naive


# the coefficient-sum engines against a per-candidate first-seen map: the
# reference sweep's witnesses and order, the library engine's set of sums


def _first_seen(ring, D, domain, with_derivative):
    """Each distinct table of a constant-free candidate of degree < D (with
    its derivative's table appended when asked) and the first coefficient
    vector reaching it, degree 1 fastest and each digit in domain order."""
    ring_arg = None if ring.integer_encoded else ring
    seen = {}
    for digits in itertools.product(domain, repeat=max(D - 1, 0)):
        rest = tuple(reversed(digits))
        f = Polynomial((ring.zero,) + rest, ring_arg)
        key = tuple(ring.index(v) for v in induce(f, ring).values)
        if with_derivative:
            key += tuple(ring.index(v) for v in induce(f.derive(), ring).values)
        seen.setdefault(key, rest)
    return seen


def _engine_first_seen(ring, D, domain, with_derivative):
    points = range(ring.size) if with_derivative else ()
    stages = derivative_stages(ring, D, domain, points)
    zero = (ring.index(ring.zero),) * (ring.size + len(points))
    seen = {}
    for table, coeffs in reference_sweep.coefficient_sums(ring.index_op_tables()[0], zero, stages):
        seen.setdefault(table, coeffs)
    return seen


@pytest.mark.parametrize("desc", ["fq:2", "fq:3", "fq:4", "zpn:2,2", "zpn:2,3", "zm:6"])
@pytest.mark.parametrize("with_derivative", [False, True])
def test_coefficient_sums_keep_the_first_witness_of_every_table(desc, with_derivative):
    # the same tables, witnesses and first-seen order as every candidate in
    # turn; the second domain has no zero
    ring = make_ring(desc)
    for domain in (ring.elements, ring.elements[1:3]):
        for D in range(1, 5):
            expected = _first_seen(ring, D, domain, with_derivative)
            got = _engine_first_seen(ring, D, domain, with_derivative)
            assert list(got.items()) == list(expected.items())


def test_coefficient_sums_stream_only_the_last_stage():
    # stage 1 of Z_4 has the four tables of c x, a group S; stage 2 adds
    # c x^2, and [2 x^2] = [2 x] lies in S, so only c = 0 and 1 are stepped
    # and the 8 sums streamed are all distinct
    z4 = make_ring("zpn:2,2")
    add_t = z4.index_op_tables()[0]
    sweep, stages = reference_sweep.coefficient_sums, reference_sweep.monomial_stages
    stream = list(sweep(add_t, (0,) * 4, stages(z4, 3, z4.elements)))
    assert len(stream) == len(dict(stream)) == 8
    assert {coeffs[-1] for _, coeffs in stream} == {0, 1}
    # the tables of x and 2 x hold no zero table, so no stage is a group:
    # the 8 distinct sums of degrees 1 .. 3 are each stepped by both
    # coefficients of x^4, 16 sums streamed, of which 12 distinct
    stream = list(sweep(add_t, (0,) * 4, stages(z4, 5, (1, 2))))
    assert len(stream) == 16
    assert len(dict(stream)) == 12
    assert list(sweep(None, (0, 0), [])) == [((0, 0), ())]


SMALL_RINGS = (
    "fq:2", "fq:3", "fq:4", "fq:5", "fq:7", "fq:8", "fq:9",
    "zm:4", "zm:6", "zm:8", "zm:9", "zpn:2,2", "zpn:2,3", "zpn:3,2",
    "dual:fq:2", "dual:fq:3",
)


@pytest.mark.parametrize("desc", SMALL_RINGS)
@pytest.mark.parametrize("with_derivative", [False, True])
def test_whole_ring_stages_stream_each_sum_once(desc, with_derivative):
    # on whole-ring domains every stage is a group: the stream has no
    # repeats and is the per-candidate first-seen map item for item, up to
    # the null degree bound or 1,000 candidates
    ring = make_ring(desc)
    points = range(ring.size) if with_derivative else ()
    zero = (ring.index(ring.zero),) * (ring.size + len(points))
    add_t = ring.index_op_tables()[0]
    for D in range(1, null_degree_bound(ring) + 1):
        if ring.size ** (D - 1) > 1000:
            break
        stages = derivative_stages(ring, D, ring.elements, points)
        stream = list(reference_sweep.coefficient_sums(add_t, zero, stages))
        assert len(stream) == len(dict(stream))
        assert stream == list(_first_seen(ring, D, ring.elements, with_derivative).items())


@pytest.mark.parametrize("desc", SMALL_RINGS)
@pytest.mark.parametrize("with_derivative", [False, True])
def test_span_engine_builds_the_per_candidate_table_set(desc, with_derivative):
    # the library engine on whole-ring stages, with the derivative columns
    # or without: exactly the tables every candidate induces, up to the
    # null degree bound or 1,000 candidates, and the zero table with no
    # stages
    ring = make_ring(desc)
    points = range(ring.size) if with_derivative else ()
    zero = (ring.index(ring.zero),) * (ring.size + len(points))
    add_t = ring.index_op_tables()[0]
    assert coefficient_sums(add_t, zero, []) == {zero}
    for D in range(1, null_degree_bound(ring) + 1):
        if ring.size ** (D - 1) > 1000:
            break
        stages = derivative_stages(ring, D, ring.elements, points)
        sums = coefficient_sums(add_t, zero, [[t for _, t in st] for st in stages])
        assert sums == set(_first_seen(ring, D, ring.elements, with_derivative))
        if not with_derivative:
            assert [[t for _, t in st] for st in stages] == monomial_stages(ring, D)


def test_local_criterion_stages_stream_each_key_once():
    # the stages of the local criterion's key sweep oracle on Z_9: [f]
    # followed by 3 f'(a) for a < 3, against every candidate, and every key
    # once at the null degree bound
    z9 = make_ring("zpn:3,2")
    add_t = z9.index_op_tables()[0]
    for D in range(1, null_degree_bound(z9) + 1):
        stages = derivative_stages(z9, D, z9.elements, range(3), scale=3)
        stream = list(reference_sweep.coefficient_sums(add_t, (0,) * 12, stages))
        assert len(stream) == len(dict(stream))
        if D > 4:
            continue
        seen = {}
        for rest in itertools.product(z9.elements, repeat=D - 1):
            f = Polynomial((0,) + rest[::-1])
            dtab = induce(f.derive(), z9).values
            key = induce(f, z9).values + tuple(3 * dtab[a] % 9 for a in range(3))
            seen.setdefault(key, rest[::-1])
        assert stream == list(seen.items())


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
def test_brute_count_stages_stream_the_closed_form_count(p, n):
    # the tables of constant term zero are the polynomial functions up to
    # translation by the p^n constants
    ring = make_ring(f"zpn:{p},{n}")
    stages = monomial_stages(ring, null_degree_bound(ring))
    streamed = len(coefficient_sums(ring.index_op_tables()[0], (0,) * p**n, stages))
    assert streamed == count_polynomial_functions(p, n) // p**n
    assert streamed == {(2, 2): 16, (2, 3): 128, (3, 2): 2187}[p, n]


@st.composite
def _sweep_cases(draw):
    ring = make_ring(draw(st.sampled_from(SMALL_RINGS)))
    domain = draw(st.lists(
        st.sampled_from(ring.elements), min_size=1, max_size=ring.size, unique=True
    ))
    return ring, domain, draw(st.integers(0, 3)), draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(_sweep_cases())
def test_engine_agrees_with_the_per_candidate_sweep_on_small_rings(case):
    ring, domain, D, with_derivative = case
    expected = _first_seen(ring, D, domain, with_derivative)
    assert list(_engine_first_seen(ring, D, domain, with_derivative).items()) == list(
        expected.items()
    )


def test_degree_bound_and_coefficient_restriction():
    z4 = make_ring("zpn:2,2")
    assert len(induced_tables(z4, 2)) == 16
    assert induced_tables(z4, 0) == frozenset({(0, 0, 0, 0)})
    chain = [induced_tables(z4, k) for k in range(6)]
    for small, large in zip(chain, chain[1:]):
        assert small <= large
    assert chain[4] == chain[5]


def test_polynomial_enumeration_is_refused_before_any_table(monkeypatch):
    # the cap counts every candidate, 9^6 on Z_9, and refuses before a
    # stage or a sum is built, for the induced tables and the brute counts
    def refuse(*args, **kwargs):
        raise AssertionError("built")

    monkeypatch.setattr(funcspace, "monomial_stages", refuse)
    monkeypatch.setattr(funcspace, "coefficient_sums", refuse)
    message = "polynomial enumeration: 531441 exceeds cap 531440"
    with pytest.raises(SizeCapError, match=message):
        induced_tables(make_ring("zpn:3,2"), cap=531440)
    with pytest.raises(SizeCapError, match=message):
        _brute_counts(3, 2, 531440)


def test_enumeration_cap_is_enforced(monkeypatch):
    z9 = make_ring("zpn:3,2")
    with pytest.raises(SizeCapError):
        induced_tables(z9, cap=100)
    monkeypatch.setenv("RINGFUNC_CAP", "100")
    with pytest.raises(SizeCapError):
        induced_tables(z9)
    monkeypatch.setenv("RINGFUNC_CAP", "1000000")
    assert len(induced_tables(make_ring("zpn:2,2"))) == 64
