"""Falling-factorial normal forms, kernel enumeration, closed-form counts."""

import itertools
import math
import random

import pytest

from ringfunc.canonical import (
    CanonicalForm,
    UnitValuedCanonicalForm,
    beta,
    canonicalize,
    canonicalize_unit_valued,
    count_polynomial_functions,
    count_unit_valued_functions,
    enumerate_canonical_forms,
    enumerate_kernel,
    enumerate_unit_valued_forms,
    falling_factorial,
    falling_factorial_coefficients,
    kernel_basis,
    kernel_count,
    leading_representative,
    uv_table_from_index,
    uv_table_index,
    vp_factorial,
)
from ringfunc import canonical
from ringfunc.funcspace import FunctionTable, induce, induced_tables, lagrange, unit_valued_tables
from ringfunc.poly import Polynomial, X, parse
from ringfunc.rings import PrimePowerRing, SizeCapError, make_ring, slot_bytes


def _naive_valuation(p, j):
    f = math.factorial(j)
    v = 0
    while f % p == 0:
        f //= p
        v += 1
    return v


def test_factorial_valuation_matches_direct_division():
    for p in (2, 3, 5, 7):
        for j in range(0, 26):
            assert vp_factorial(p, j) == _naive_valuation(p, j)
    with pytest.raises(ValueError):
        vp_factorial(2, -1)


def test_degree_cutoff_values():
    assert beta(2, 1) == 2
    assert beta(2, 2) == 4
    assert beta(2, 3) == 4
    assert beta(2, 4) == 6
    assert beta(3, 1) == 3
    assert beta(3, 2) == 6
    assert beta(3, 3) == 9
    assert beta(5, 1) == 5
    assert beta(5, 2) == 10


def test_degree_cutoff_bisection_matches_the_linear_search():
    # the least k with v_p(k!) >= n, found by stepping k up from 1
    for p in (2, 3, 5, 7):
        for n in range(1, 61):
            k = 1
            while vp_factorial(p, k) < n:
                k += 1
            assert beta(p, n) == k


def test_degree_cutoff_takes_logarithmically_many_sums(monkeypatch):
    # a linear search would take about 10^9 sums here
    calls = []

    def counted(p, k):
        calls.append(k)
        assert len(calls) <= 64, "too many Legendre sums"
        return vp_factorial(p, k)

    monkeypatch.setattr(canonical, "vp_factorial", counted)
    assert beta.__wrapped__(1_000_003, 1000) == 1_000_003_000


def test_degree_cutoff_is_the_least_factorial_with_enough_valuation():
    for p in (2, 3, 5):
        for n in range(1, 5):
            k = beta(p, n)
            assert math.factorial(k) % p**n == 0
            assert math.factorial(k - 1) % p**n != 0


def test_degree_cutoff_bounds():
    for p in (2, 3, 5, 7):
        last = 0
        for n in range(1, 7):
            b = beta(p, n)
            assert last <= b <= n * p
            last = b


def test_degree_cutoff_validation():
    with pytest.raises(ValueError):
        beta(4, 2)
    with pytest.raises(ValueError):
        beta(2, 0)


def test_falling_factorial_polynomials():
    assert falling_factorial(0) == Polynomial((1,))
    assert falling_factorial(1) == X
    assert falling_factorial(2) == X**2 - X
    assert falling_factorial(3) == X**3 - 3 * X**2 + 2 * X


def test_falling_factorial_values_count_arrangements():
    for j in range(6):
        f = falling_factorial(j)
        for k in range(12):
            expected = math.perm(k, j) if k >= j else 0
            assert f.eval_int(k) == expected
            assert f.eval_int(k) % math.factorial(j) == 0


def test_falling_factorial_basis_expansion_round_trips():
    rng = random.Random(31)
    for _ in range(50):
        f = Polynomial([rng.randrange(-50, 51) for _ in range(rng.randrange(8))])
        b = falling_factorial_coefficients(f, len(f.coeffs) + 1)
        g = Polynomial.zero()
        for j, c in enumerate(b):
            g = g + falling_factorial(j) * c
        assert g == f


def _expansion_digits(f, p, n):
    """The digit terms of [f] mod p^n from the exact expansion over falling
    factorials: b_j read mod p^(n - v_p(j!)) and split into base-p digits."""
    terms = []
    for j, b in enumerate(falling_factorial_coefficients(f, beta(p, n))):
        c = b % p ** (n - vp_factorial(p, j))
        i = 0
        while c:
            c, a = divmod(c, p)
            if a:
                terms.append((i, j, a))
            i += 1
    return tuple(terms)


_MODULI_TO_128 = [(p, n) for p in range(2, 128) if all(p % d for d in range(2, p))
                  for n in range(1, 8) if p**n <= 128]


@pytest.mark.parametrize("p,n", _MODULI_TO_128, ids=lambda v: str(v))
def test_table_digits_match_the_falling_factorial_expansion(p, n):
    # every modulus p^n <= 128; the full table, and only its first
    # len(f.coeffs) values, which is all canonicalize reads
    ring = PrimePowerRing(p, n)
    m = p**n
    rng = random.Random(97 * p + n)
    for _ in range(25):
        degree = rng.choice([rng.randrange(4), rng.randrange(beta(p, n) + 3)])
        f = Polynomial([rng.randrange(-3 * m, 3 * m) for _ in range(degree)])
        values = induce(f, ring).values
        expected = _expansion_digits(f, p, n)
        assert canonical._table_digits(values, p, n) == expected
        assert canonical._table_digits(values[:len(f.coeffs)], p, n) == expected
        assert canonicalize(f, p, n).terms == expected


def test_basis_expansion_rejects_ring_tagged_input():
    f4 = make_ring("fq:4")
    f = Polynomial((f4.one,), ring=f4)
    with pytest.raises(ValueError):
        falling_factorial_coefficients(f, 2)


# ---------------------------------------------------------------------------
# the null-function kernel between consecutive power levels


def test_kernel_basis_pairs():
    assert kernel_basis(2, 2) == [(1, 0), (1, 1), (0, 2), (0, 3)]
    assert kernel_basis(2, 3) == [(2, 0), (2, 1), (1, 2), (1, 3)]
    assert kernel_basis(3, 2) == [(1, 0), (1, 1), (1, 2), (0, 3), (0, 4), (0, 5)]
    for p in (2, 3, 5):
        for n in (2, 3, 4):
            assert len(kernel_basis(p, n)) == beta(p, n)
    with pytest.raises(ValueError):
        kernel_basis(2, 1)


@pytest.mark.parametrize("p,n,expected", [(2, 2, 16), (2, 3, 16), (3, 2, 729)])
def test_kernel_combinations_vanish_one_level_down_and_separate_at_the_top(p, n, expected):
    assert kernel_count(p, n) == expected
    below = make_ring(f"zpn:{p},{n - 1}")
    top = make_ring(f"zpn:{p},{n}")
    seen = set()
    for f in enumerate_kernel(p, n):
        assert induce(f, below).is_zero()
        seen.add(induce(f, top).values)
    assert len(seen) == expected


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1)])
def test_closed_form_counts_are_the_lengths_of_the_enumerations(p, n):
    # the CLI's listings print these counts and walk only their kept items
    assert count_unit_valued_functions(p, n) == len(list(enumerate_unit_valued_forms(p, n)))
    if n >= 2:
        assert kernel_count(p, n) == len(list(enumerate_kernel(p, n)))


def test_kernel_enumeration_cap():
    with pytest.raises(SizeCapError):
        list(enumerate_kernel(3, 2, cap=100))


# ---------------------------------------------------------------------------
# canonical forms of arbitrary polynomial functions


def test_canonicalize_square_example():
    form = canonicalize(X**2, 2, 2)
    assert form.terms == ((0, 1, 1), (0, 2, 1))
    assert form.to_polynomial() == X**2
    assert canonicalize(X**4, 2, 2) == form  # same function mod 4


def test_canonicalize_constant_and_zero():
    assert canonicalize(Polynomial.zero(), 2, 2).terms == ()
    assert canonicalize(Polynomial.constant(4), 2, 2).terms == ()
    assert canonicalize(Polynomial.constant(3), 2, 2).terms == ((0, 0, 1), (1, 0, 1))


def test_canonicalize_rejects_ring_tagged_input():
    f4 = make_ring("fq:4")
    with pytest.raises(ValueError):
        canonicalize(Polynomial((f4.one,), ring=f4), 2, 2)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_canonicalize_preserves_the_function_and_is_idempotent(p, n):
    ring = make_ring(f"zpn:{p},{n}")
    m = p**n
    rng = random.Random(100 * p + n)
    for _ in range(25):
        f = Polynomial([rng.randrange(m) for _ in range(rng.randrange(9))])
        form = canonicalize(f, p, n)
        assert induce(form.to_polynomial(), ring) == induce(f, ring)
        assert canonicalize(form.to_polynomial(), p, n) == form


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3)])
def test_canonical_forms_biject_with_function_tables(p, n):
    ring = make_ring(f"zpn:{p},{n}")
    tables = {induce(form.to_polynomial(), ring).values for form in enumerate_canonical_forms(p, n)}
    assert len(tables) == count_polynomial_functions(p, n)
    assert tables == induced_tables(ring)


def test_distinct_forms_give_distinct_functions_sampled():
    ring = make_ring("zpn:3,2")
    forms = list(enumerate_canonical_forms(3, 2))
    assert len(forms) == 19683
    rng = random.Random(9)
    for _ in range(300):
        a, b = rng.sample(range(len(forms)), 2)
        ta = induce(forms[a].to_polynomial(), ring)
        tb = induce(forms[b].to_polynomial(), ring)
        assert ta != tb


def test_form_validation():
    CanonicalForm(2, 2, ((0, 1, 1), (0, 2, 1)))
    with pytest.raises(ValueError):
        CanonicalForm(2, 2, ((0, 1, 0),))  # zero digit
    with pytest.raises(ValueError):
        CanonicalForm(2, 2, ((0, 1, 2),))  # digit out of range
    with pytest.raises(ValueError):
        CanonicalForm(2, 2, ((0, 2, 1), (0, 1, 1)))  # unsorted
    with pytest.raises(ValueError):
        CanonicalForm(2, 2, ((1, 2, 1),))  # null term: 1 + v(2!) = 2
    with pytest.raises(ValueError, match="bad exponents"):
        CanonicalForm(3, 2, ((-1, 6, 1),))
    with pytest.raises(ValueError):
        CanonicalForm(4, 2, ())
    with pytest.raises(ValueError):
        CanonicalForm(2, 0, ())


def test_form_json_shape():
    form = canonicalize(X**2, 2, 2)
    assert form.to_json_dict() == {"p": 2, "n": 2, "terms": [[0, 1, 1], [0, 2, 1]]}


# ---------------------------------------------------------------------------
# closed-form counts


def test_function_counts():
    assert count_polynomial_functions(2, 2) == 64
    assert count_polynomial_functions(2, 3) == 1024
    assert count_polynomial_functions(3, 2) == 19683
    assert count_unit_valued_functions(2, 2) == 16
    assert count_unit_valued_functions(2, 3) == 256
    assert count_unit_valued_functions(3, 2) == 5832


def test_counts_at_the_prime_level():
    for p in (2, 3, 5, 7):
        assert count_polynomial_functions(p, 1) == p**p
        assert count_unit_valued_functions(p, 1) == (p - 1) ** p


def test_counts_grow_by_the_kernel_between_levels():
    for p in (2, 3, 5):
        for n in range(2, 5):
            step = p ** beta(p, n)
            assert count_polynomial_functions(p, n) == count_polynomial_functions(p, n - 1) * step
            assert count_unit_valued_functions(p, n) == count_unit_valued_functions(p, n - 1) * step
            assert step == kernel_count(p, n)


# ---------------------------------------------------------------------------
# unit-valued layered forms


def test_unit_table_ranking_round_trips():
    for p in (2, 3, 5):
        count = (p - 1) ** p
        seen = set()
        for s in range(1, count + 1):
            table = uv_table_from_index(s, p)
            assert uv_table_index(table, p) == s
            seen.add(table)
        assert len(seen) == count
    with pytest.raises(ValueError):
        uv_table_index((0, 1), 2)
    with pytest.raises(ValueError):
        uv_table_index((1, 1, 1), 2)
    with pytest.raises(ValueError):
        uv_table_from_index(0, 3)


def test_ranking_is_lexicographic():
    assert uv_table_from_index(1, 3) == (1, 1, 1)
    assert uv_table_from_index(2, 3) == (1, 1, 2)
    assert uv_table_from_index(8, 3) == (2, 2, 2)


def test_leading_representative_induces_the_ranked_table():
    zp = make_ring("zpn:3,1")
    for s in range(1, 9):
        f = leading_representative(3, s)
        assert f.degree < 3
        assert induce(f, zp).values == uv_table_from_index(s, 3)


def test_layered_form_of_a_constant():
    form = canonicalize_unit_valued(Polynomial.constant(3), 2, 2)
    assert form == UnitValuedCanonicalForm(2, 2, 1, ((2, ((1, 0, 1),)),))
    assert form.to_polynomial() == Polynomial.constant(3)


def test_layered_form_rejects_non_unit_valued_input():
    with pytest.raises(ValueError):
        canonicalize_unit_valued(X, 2, 2)
    with pytest.raises(ValueError):
        canonicalize_unit_valued(Polynomial.constant(3), 3, 2)  # 3 = 0 mod 3


def test_layered_form_at_the_prime_level_has_no_layers():
    form = canonicalize_unit_valued(Polynomial.constant(1), 2, 1)
    assert form.s == 1
    assert form.layers == ()
    forms = list(enumerate_unit_valued_forms(2, 1))
    assert len(forms) == 1


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
def test_layered_form_preserves_the_function_and_is_idempotent(p, n):
    ring = make_ring(f"zpn:{p},{n}")
    m = p**n
    rng = random.Random(500 * p + n)
    done = 0
    while done < 15:
        f = Polynomial([rng.randrange(m) for _ in range(rng.randrange(8))])
        if not induce(f, ring).is_unit_valued():
            continue
        done += 1
        form = canonicalize_unit_valued(f, p, n)
        assert induce(form.to_polynomial(), ring) == induce(f, ring)
        assert canonicalize_unit_valued(form.to_polynomial(), p, n) == form


def test_layer_depths_track_their_level():
    form = canonicalize_unit_valued(Polynomial((1, 3, 3)), 3, 2)
    assert any(terms for _, terms in form.layers)
    for k, terms in form.layers:
        for i, j, _ in terms:
            assert i + vp_factorial(3, j) == k - 1


@pytest.mark.parametrize("p,n,expected", [(2, 2, 16), (2, 3, 256)])
def test_layered_forms_biject_with_unit_valued_tables(p, n, expected):
    ring = make_ring(f"zpn:{p},{n}")
    tables = {induce(form.to_polynomial(), ring).values for form in enumerate_unit_valued_forms(p, n)}
    assert len(tables) == expected
    assert tables == unit_valued_tables(ring)


def test_layered_form_enumeration_count_only():
    forms = list(enumerate_unit_valued_forms(3, 2))
    assert len(forms) == 5832
    assert len(set(forms)) == 5832


def test_layered_form_validation():
    with pytest.raises(ValueError):
        UnitValuedCanonicalForm(2, 2, 0, ((2, ()),))
    with pytest.raises(ValueError):
        UnitValuedCanonicalForm(2, 2, 1, ())  # missing layer 2
    with pytest.raises(ValueError):
        UnitValuedCanonicalForm(2, 2, 1, ((2, ((0, 0, 1),)),))  # depth 0 in layer 2
    with pytest.raises(ValueError):
        UnitValuedCanonicalForm(2, 2, 1, ((2, ((1, 0, 0),)),))  # zero digit
    with pytest.raises(ValueError, match="bad exponents"):
        UnitValuedCanonicalForm(3, 2, 1, ((2, ((-1, 6, 1),)),))  # depth 1, but i < 0
    with pytest.raises(ValueError, match="strictly sorted"):
        UnitValuedCanonicalForm(3, 2, 1, ((2, ((0, 4, 1), (0, 3, 1))),))
    with pytest.raises(ValueError, match="not prime"):
        UnitValuedCanonicalForm(4, 2, 1, ((2, ()),))


def test_layered_form_json_shape():
    form = canonicalize_unit_valued(Polynomial.constant(3), 2, 2)
    assert form.to_json_dict() == {"p": 2, "n": 2, "s": 1, "layers": {"2": [[1, 0, 1]]}}


@pytest.mark.parametrize("cls, args, message", [
    (CanonicalForm, (4, 2, ()), "4 is not prime"),
    (CanonicalForm, (2, 0, ()), "need n >= 1"),
    (CanonicalForm, (3, 2, ((-1, 6, 1),)), "bad exponents (-1, 6)"),
    (CanonicalForm, (2, 2, ((0, 1, 2),)), "digit 2 out of range for p = 2"),
    (CanonicalForm, (2, 2, ((1, 2, 1),)), "term (1, 2) is out of place mod 2^2"),
    (CanonicalForm, (2, 2, ((0, 2, 1), (0, 1, 1))), "terms must be strictly sorted by (j, i)"),
    (UnitValuedCanonicalForm, (2, 2, 1, ()), "layers must cover k = 2 .. n in order"),
    (UnitValuedCanonicalForm, (2, 2, 0, ((2, ()),)), "leading index 0 out of range"),
    (UnitValuedCanonicalForm, (2, 2, 1, ((2, ((0, 0, 1),)),)),
     "term (0, 0) is out of place mod 2^2"),
    (UnitValuedCanonicalForm, (4, 2, 1, ((2, ()),)), "4 is not prime"),
    (UnitValuedCanonicalForm, (2, 2, 1, ((2, ((1, 0, 0),)),)), "digit 0 out of range for p = 2"),
])
def test_form_validation_messages_are_pinned(cls, args, message):
    with pytest.raises(ValueError) as info:
        cls(*args)
    assert str(info.value) == message


def test_form_reprs_are_pinned():
    assert repr(canonicalize(parse("x^4 + 3*x + 1"), 2, 3)) == (
        "CanonicalForm(p=2, n=3, terms=((0, 0, 1), (2, 1, 1), (0, 2, 1), (1, 2, 1), (1, 3, 1)))")
    assert repr(canonicalize_unit_valued(parse("x^2 + x + 1"), 2, 3)) == (
        "UnitValuedCanonicalForm(p=2, n=3, s=1, layers=((2, ((1, 1, 1), (0, 2, 1))), (3, ())))")


def test_forms_compare_and_hash_by_type_and_fields():
    form = canonicalize(X**2, 2, 2)
    same = CanonicalForm(2, 2, ((0, 1, 1), (0, 2, 1)))
    assert form == same and hash(form) == hash(same)
    assert form != CanonicalForm(2, 2, ((0, 1, 1),))
    assert form != (form.p, form.n, form.terms)
    assert len({form, same, CanonicalForm(2, 2, ())}) == 2
    layered = UnitValuedCanonicalForm(2, 2, 1, ((2, ()),))
    assert layered == UnitValuedCanonicalForm(2, 2, 1, ((2, ()),))
    assert layered != UnitValuedCanonicalForm(2, 2, 1, ((2, ((1, 0, 1),)),))
    assert layered != (2, 2, 1, ((2, ()),))
    # a form over the same p and n with no terms is still not the layered one
    assert CanonicalForm(2, 2, ()) != UnitValuedCanonicalForm(2, 2, 1, ((2, ()),))


@pytest.mark.parametrize("form", [
    CanonicalForm(2, 2, ((0, 1, 1),)), UnitValuedCanonicalForm(2, 2, 1, ((2, ()),)),
], ids=["canonical", "layered"])
def test_forms_are_immutable(form):
    with pytest.raises(AttributeError):
        form.p = 3
    with pytest.raises(AttributeError):
        form.extra = 1
    with pytest.raises(AttributeError):
        del form.n
    assert form.p == 2 and form.n == 2


# ---------------------------------------------------------------------------
# oracles: the per-level layered construction and Lagrange leading terms


def _lagrange_leading(p, s):
    """The leading representative as Lagrange interpolation of the s-th unit
    table, canonicalized mod p."""
    table = FunctionTable(PrimePowerRing(p, 1), uv_table_from_index(s, p))
    return canonicalize(lagrange(table), p, 1).to_polynomial()


def _falling_sum(p, n, terms, start=Polynomial.zero()):
    """start + sum of a * p^i * (x)_j, reduced mod p^n, by Polynomial arithmetic."""
    f = start
    for i, j, a in terms:
        f = f + falling_factorial(j) * (a * p**i)
    return f.reduced_mod(p**n)


def _per_level_form(f, p, n):
    """The layered form level by level: for k = 2 .. n the deficit f - h is
    canonicalized mod p^k, its terms must sit at depth k - 1, and they are
    added to h unreduced."""
    ring = PrimePowerRing(p, n)
    assert induce(f, ring).is_unit_valued()
    s = uv_table_index(induce(f, PrimePowerRing(p, 1)).values, p)
    h = _lagrange_leading(p, s)
    layers = []
    for k in range(2, n + 1):
        terms = canonicalize(f - h, p, k).terms
        assert all(i + vp_factorial(p, j) == k - 1 for i, j, _ in terms)
        layers.append((k, terms))
        for i, j, a in terms:
            h = h + falling_factorial(j) * (a * p**i)
    assert induce(h, ring) == induce(f, ring)
    return UnitValuedCanonicalForm(p, n, s, tuple(layers))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_leading_representative_matches_lagrange_for_every_table(p):
    # every table mod 2, 3 and 5; 500 seeded of the 6^7 = 279,936 mod 7
    tables = range(1, (p - 1) ** p + 1)
    for s in tables if p < 7 else random.Random(7).sample(tables, 500):
        assert leading_representative(p, s) == _lagrange_leading(p, s)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_layered_form_matches_the_per_level_oracle_on_every_form(p, n):
    # each form's polynomial plus a seeded multiple of p^n and of (x)_beta,
    # both null mod p^n, so the input is not already reduced
    rng = random.Random(10 * p + n)
    null = falling_factorial(beta(p, n))
    for form in enumerate_unit_valued_forms(p, n):
        f = form.to_polynomial() + null * rng.randrange(-3, 4) + p**n * rng.randrange(-3, 4)
        assert canonicalize_unit_valued(f, p, n) == _per_level_form(f, p, n) == form


@pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (5, 2), (7, 2)])
def test_layered_form_matches_the_per_level_oracle_on_seeded_inputs(p, n):
    # u + (x^p - x) g + p h is unit-valued mod p^n, u a leading representative
    m = p**n
    fermat = X**p - X
    rng = random.Random(1000 * p + n)
    for _ in range(60):
        u = leading_representative(p, rng.randrange(1, (p - 1) ** p + 1))
        g = Polynomial([rng.randrange(-m, 3 * m) for _ in range(rng.randrange(6))])
        h = Polynomial([rng.randrange(-m, 3 * m) for _ in range(rng.randrange(9))])
        f = u + fermat * g + h * p
        assert canonicalize_unit_valued(f, p, n) == _per_level_form(f, p, n)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2), (2, 5), (7, 2), (3, 3)])
def test_to_polynomial_matches_polynomial_arithmetic(p, n):
    # seeded digits in every slot of the form and of each layer
    rng = random.Random(p + n)
    for _ in range(100):
        terms = [
            (i, j, rng.randrange(1, p))
            for j in range(beta(p, n))
            for i in range(n - vp_factorial(p, j))
            if rng.random() < 0.5
        ]
        form = CanonicalForm(p, n, tuple(terms))
        assert form.to_polynomial() == _falling_sum(p, n, terms)
        layers = tuple(
            (k, tuple((k - 1 - vp_factorial(p, j), j, rng.randrange(1, p))
                      for j in range(beta(p, k)) if rng.random() < 0.5))
            for k in range(2, n + 1)
        )
        uv = UnitValuedCanonicalForm(p, n, rng.randrange(1, (p - 1) ** p + 1), layers)
        terms = [t for _, layer in layers for t in layer]
        assert uv.to_polynomial() == _falling_sum(p, n, terms, _lagrange_leading(p, uv.s))


def _difference_loop_digits(values, p, n):
    """_table_digits by the loop it replaced: the list of forward differences
    rebuilt once per j, its first entry read as Delta^j f(0)."""
    m = p**n
    diffs = list(values[:beta(p, n)])
    out = []
    for j, (pv, w, radix) in zip(range(len(diffs)), canonical._newton_scales(p, n)):
        c, i = diffs[0] % m // pv * w % radix, 0
        while c:
            c, a = divmod(c, p)
            if a:
                out.append((i, j, a))
            i += 1
        diffs = list(map(int.__sub__, diffs[1:], diffs))
    return tuple(out)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2), (2, 33)],
                         ids=lambda v: str(v))
def test_table_digits_match_the_difference_loop(p, n):
    # negative values and lists shorter than, as long as and longer than
    # beta(p, n); the slots of 2^33 are wider than 8 bytes, so unpack reads
    # them one by one
    m, top = p**n, beta(p, n)
    if (p, n) == (2, 33):
        assert slot_bytes(top * (m - 1) ** 2) > 8
    rng = random.Random(31 * p + n)
    for length in sorted({0, 1, top - 1, top, top + 3, rng.randrange(1, top + 1)}):
        for _ in range(20):
            values = [rng.randrange(-3 * m, 3 * m) for _ in range(length)]
            assert canonical._table_digits(values, p, n) == _difference_loop_digits(values, p, n)


@pytest.mark.parametrize("p,n", [(2, 40), (3, 25)])
def test_to_polynomial_past_eight_byte_slots(p, n):
    # (p^n - 1)^2 needs more than 8 bytes, so the packed rows are read back
    # slot by slot; no ring of that size is built
    rng = random.Random(p * n)
    slots = [(i, j) for j in range(beta(p, n)) for i in range(n - vp_factorial(p, j))]
    for _ in range(20):
        terms = sorted(((i, j, rng.randrange(1, p)) for i, j in rng.sample(slots, 12)),
                       key=lambda t: (t[1], t[0]))
        form = CanonicalForm(p, n, tuple(terms))
        assert form.to_polynomial() == _falling_sum(p, n, terms)


def test_layered_form_refuses_a_deficit_with_a_depth_zero_term(monkeypatch):
    # a leading term for the wrong table leaves f - h not null mod p
    monkeypatch.setattr(canonical, "_leading_term", lambda table, p: [2])
    with pytest.raises(RuntimeError, match="not null mod p"):
        canonicalize_unit_valued(Polynomial.constant(1), 3, 2)


def test_layered_form_refuses_a_form_that_fails_re_induction(monkeypatch):
    # the re-induction sums the layers onto the leading representative, the
    # one call of _falling_combination given a start
    real = canonical._falling_combination

    def wrong(p, n, terms, start=()):
        return Polynomial((1,)) if start else real(p, n, terms)

    monkeypatch.setattr(canonical, "_falling_combination", wrong)
    with pytest.raises(RuntimeError, match="re-induction"):
        canonicalize_unit_valued(Polynomial((1, 2)), 2, 2)


def test_each_form_induces_twice_and_the_layered_form_skips_canonicalize(monkeypatch):
    # canonicalize: input and form; layered form: the table of f and the one
    # re-induction of the whole form
    induced = []
    real = canonical.induce

    def spy(*args):
        induced.append(args)
        return real(*args)

    monkeypatch.setattr(canonical, "induce", spy)
    canonicalize(X**4, 2, 2)
    assert len(induced) == 2
    monkeypatch.setattr(canonical, "canonicalize", lambda *args: pytest.fail("canonicalize called"))
    for f, p, n in [(X**4 + 2 * X + 5, 3, 2), (Polynomial.constant(3), 2, 2), (X**2 + X + 1, 2, 5)]:
        induced.clear()
        canonicalize_unit_valued(f, p, n)
        assert len(induced) == 2


def _flip(terms, p, slot):
    """terms with the digit at slot (i, j) moved to the next value mod p."""
    digits = {(i, j): a for i, j, a in terms}
    digits[slot] = (digits.get(slot, 0) + 1) % p
    return tuple(sorted(((i, j, a) for (i, j), a in digits.items() if a), key=lambda t: t[1::-1]))


@pytest.mark.parametrize("slot,match", [((0, 1), "not null mod p")] + [
    (slot, "re-induction") for slot in [(1, 0), (1, 1), (1, 2), (0, 3), (0, 4), (0, 5)]
])
def test_a_wrong_deficit_digit_is_refused(monkeypatch, slot, match):
    # a depth-0 digit is caught as it is placed; a wrong digit at any depth-1
    # slot mod 9 changes the function, which only the re-induction of the
    # whole form can see; the leading term is summed from the Lagrange rows,
    # not read through _table_digits, so only the deficit's digits flip
    real = canonical._table_digits

    def flipped(values, p, n):
        return _flip(real(values, p, n), p, slot)

    monkeypatch.setattr(canonical, "_table_digits", flipped)
    with pytest.raises(RuntimeError, match=match):
        canonicalize_unit_valued(X**4 + 2 * X + 5, 3, 2)
