"""Ring layer: construction, axioms, units, descriptors, caps."""

import itertools
import random
import re
import sys
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ringfunc import rings
from ringfunc.rings import (
    DEFAULT_ENUMERATION_CAP,
    FiniteField,
    ModularRing,
    PrimePowerRing,
    SizeCapError,
    enumeration_cap,
    find_irreducible,
    is_prime,
    make_ring,
    prime_power_decomposition,
)

DESCRIPTORS = (
    "zm:4",
    "zm:6",
    "zpn:2,2",
    "zpn:3,2",
    "fq:2",
    "fq:3",
    "fq:4",
    "fq:8",
    "fq:9",
    "dual:zpn:2,2",
    "dual:fq:3",
)


@pytest.fixture(params=DESCRIPTORS, ids=lambda d: d)
def ring(request):
    return make_ring(request.param)


def test_prime_power_decomposition():
    assert prime_power_decomposition(1) is None
    assert prime_power_decomposition(2) == (2, 1)
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(9) == (3, 2)
    assert prime_power_decomposition(125) == (5, 3)
    assert prime_power_decomposition(6) is None
    assert prime_power_decomposition(36) is None


def test_is_prime_small_range():
    expected = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    assert {k for k in range(25) if is_prime(k)} == expected


def test_enumeration_round_trips_through_index(ring):
    seen = set()
    for i, e in enumerate(ring.elements):
        assert ring.index(e) == i
        seen.add(e)
    assert len(seen) == ring.size
    assert ring.zero == ring.elements[0] or ring.zero in seen
    assert ring.one in seen


def test_additive_group_axioms(ring):
    els = ring.elements
    for a in els:
        assert ring.add(a, ring.zero) == a
        assert ring.add(a, ring.neg(a)) == ring.zero
        assert ring.sub(a, a) == ring.zero
        for b in els:
            assert ring.add(a, b) == ring.add(b, a)
            assert ring.sub(a, b) == ring.add(a, ring.neg(b))
    for a, b, c in itertools.product(els, repeat=3):
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))


def test_multiplication_axioms_and_distributivity(ring):
    els = ring.elements
    for a in els:
        assert ring.mul(a, ring.one) == a
        assert ring.mul(a, ring.zero) == ring.zero
        for b in els:
            assert ring.mul(a, b) == ring.mul(b, a)
    for a, b, c in itertools.product(els, repeat=3):
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        left = ring.mul(a, ring.add(b, c))
        assert left == ring.add(ring.mul(a, b), ring.mul(a, c))


def test_unit_exactly_when_multiplication_permutes(ring):
    whole = set(ring.elements)
    for a in ring.elements:
        hits = {ring.mul(a, b) for b in ring.elements}
        assert ring.is_unit(a) == (hits == whole)


def test_units_form_a_group(ring):
    us = ring.units()
    assert us == tuple(a for a in ring.elements if ring.is_unit(a))
    unit_set = set(us)
    assert ring.one in unit_set
    for a in us:
        inv = ring.inverse(a)
        assert inv in unit_set
        assert ring.mul(a, inv) == ring.one
        for b in us:
            assert ring.mul(a, b) in unit_set


def test_non_units_have_no_inverse(ring):
    for a in ring.elements:
        if not ring.is_unit(a):
            with pytest.raises(ValueError):
                ring.inverse(a)


def test_from_int_is_a_ring_homomorphism(ring):
    for a in range(-6, 7):
        for b in range(-6, 7):
            assert ring.from_int(a + b) == ring.add(ring.from_int(a), ring.from_int(b))
            assert ring.from_int(a * b) == ring.mul(ring.from_int(a), ring.from_int(b))
    assert ring.from_int(0) == ring.zero
    assert ring.from_int(1) == ring.one


def test_field_flag(ring):
    expected = ring.descriptor.startswith("fq:")
    assert ring.is_field == expected


# same residue classes, but the descriptor is the identity
def test_ring_identity_is_the_descriptor():
    assert make_ring("fq:4") == make_ring("fq:2,2")
    assert make_ring("zpn:2,2") != make_ring("zm:4")
    assert hash(make_ring("fq:3")) == hash(make_ring("fq:3"))


def test_prime_power_attribute():
    assert make_ring("zm:4").prime_power == (2, 2)
    assert make_ring("zm:6").prime_power is None
    assert make_ring("zpn:3,2").prime_power == (3, 2)


def test_field_descriptor_normalization():
    assert make_ring("fq:4").descriptor == "fq:2,2"
    assert make_ring("fq:2,2").descriptor == "fq:2,2"
    assert make_ring("fq:3").descriptor == "fq:3"
    assert make_ring("fq:9").descriptor == "fq:3,2"
    assert make_ring("dual:fq:4").descriptor == "dual:fq:2,2"


def test_prime_field_uses_integer_encoding():
    f5 = make_ring("fq:5")
    assert isinstance(f5, ModularRing)
    assert f5.integer_encoded
    assert f5.elements == (0, 1, 2, 3, 4)
    f4 = make_ring("fq:4")
    assert not f4.integer_encoded
    assert f4.elements[0] == (0, 0)


def _poly_rem(a, b, p):
    # remainder of a modulo monic b, coefficients low to high over residues mod p
    a = [c % p for c in a]
    while len(a) >= len(b):
        lead = a[-1]
        if lead:
            off = len(a) - len(b)
            for i, c in enumerate(b):
                a[off + i] = (a[off + i] - lead * c) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _trial_irreducible(f, p):
    # no monic divisor of degree 1 .. deg f // 2
    return all(
        _poly_rem(f, list(dtail) + [1], p)
        for d in range(1, (len(f) - 1) // 2 + 1)
        for dtail in itertools.product(range(p), repeat=d)
    )


def _first_irreducible(p, m):
    # scan monic degree-m candidates in lexicographic order of the constant-first tail
    for tail in itertools.product(range(p), repeat=m):
        f = list(tail) + [1]
        if _trial_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible candidate found")


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2)])
def test_find_irreducible_matches_naive_scan(p, m):
    assert tuple(find_irreducible(p, m).coeffs) == _first_irreducible(p, m)


# monic irreducibles of degree 1, 2, ... by Gauss's formula
# (1/m) * sum over d | m of mu(d) * p^(m/d)
IRREDUCIBLE_COUNTS = {2: (2, 1, 2, 3, 6, 9), 3: (3, 3, 8, 18)}


@pytest.mark.parametrize("p", [2, 3])
def test_rabin_test_matches_trial_division(p):
    # every monic polynomial of degree <= 6 over F_2 and <= 4 over F_3,
    # reducible ones without roots among them (such as (x^2 + x + 1)^2 and
    # products of two irreducible cubics over F_2)
    for m, count in enumerate(IRREDUCIBLE_COUNTS[p], start=1):
        found = 0
        for tail in itertools.product(range(p), repeat=m):
            f = tail + (1,)
            verdict = rings._pp_is_irreducible(f, p)
            assert verdict == _trial_irreducible(list(f), p), f
            found += verdict
        assert found == count


def test_extension_field_moduli():
    assert make_ring("fq:4").modulus == (1, 1, 1)
    # t^2 + 1 has no root mod 3; t^3 + t^2 + 1 has no root mod 2, and the
    # earlier tails (constant coefficient compared first) all factor
    assert make_ring("fq:9").modulus == (1, 0, 1)
    assert make_ring("fq:8").modulus == (1, 0, 1, 1)


def test_extension_field_element_order():
    f4 = make_ring("fq:4")
    # index of a coefficient tuple is its base-p digit value
    assert f4.elements == ((0, 0), (1, 0), (0, 1), (1, 1))
    f9 = make_ring("fq:9")
    assert f9.elements[5] == (2, 1)
    assert f9.index((2, 1)) == 5


def _maximal_ideal(ring):
    """The multiples of p in Z_{p^n}."""
    return tuple(x for x in ring.elements if x % ring.p == 0)


def test_maximal_ideal_of_prime_power_ring():
    # the multiples of p, which are exactly the non-units
    for p, n, ideal in ((2, 3, (0, 2, 4, 6)), (3, 2, (0, 3, 6)), (2, 1, (0,))):
        ring = PrimePowerRing(p, n)
        assert _maximal_ideal(ring) == ideal
        assert tuple(x for x in ring.elements if not ring.is_unit(x)) == ideal


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "zm",
        "zm:",
        "zm:x",
        "zm:1",
        "zz:3",
        "zpn:2",
        "zpn:4,2",
        "zpn:2,0",
        "fq:6",
        "fq:12",
        "fq:2,2,2",
        "dual:dual:zm:4",
    ],
)
def test_bad_descriptors_rejected(bad):
    with pytest.raises(ValueError):
        make_ring(bad)


def test_construction_size_caps():
    with pytest.raises(SizeCapError):
        make_ring("zm:70000")
    assert make_ring("zm:70000", size_cap=1 << 17).size == 70000
    with pytest.raises(SizeCapError):
        make_ring("dual:zm:300")
    assert make_ring("dual:zm:300", size_cap=1 << 17).size == 90000


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
@pytest.mark.parametrize("base,exponent,offset", [
    (10, 700, 0), (10, 700, -1), (2, 3000, 0), (3, 2000, 0), (7, 1000, 1)])
def test_a_count_past_the_digit_limit_is_shown_by_a_lower_bound(base, exponent, offset):
    # refusing such a count once failed on converting it to text; the bound
    # 10^k <= count is within two digits of the count's
    count = base**exponent + offset
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        text = rings.shown(count)
        with pytest.raises(SizeCapError, match=f"^{re.escape(f'enumeration: {text} exceeds cap 5')}$"):
            rings.check_cap(count, 5, "enumeration")
    finally:
        sys.set_int_max_str_digits(old)
    k = int(text.removeprefix("at least 10^"))
    assert 10**k <= count and k >= len(str(count)) - 2
    assert rings.shown(12345) == "12345"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no digit limit")
def test_a_power_past_the_digit_limit_is_refused_before_it_is_taken():
    # 1000003^(5 10^11) would take about 10^12 bytes
    with pytest.raises(SizeCapError, match="^count: more than [0-9]+ digits"):
        rings.printable_power(1_000_003, 5 * 10**11)
    assert rings.printable_power(7, 3) == 343


def test_enumeration_cap_environment_override(monkeypatch):
    monkeypatch.delenv("RINGFUNC_CAP", raising=False)
    assert enumeration_cap() == DEFAULT_ENUMERATION_CAP
    monkeypatch.setenv("RINGFUNC_CAP", "123")
    assert enumeration_cap() == 123
    monkeypatch.setenv("RINGFUNC_CAP", "abc")
    with pytest.raises(ValueError):
        enumeration_cap()
    monkeypatch.setenv("RINGFUNC_CAP", "-1")
    with pytest.raises(ValueError):
        enumeration_cap()


def test_residue_arithmetic_examples():
    zn = make_ring("zpn:3,2")
    assert zn.add(7, 5) == 3
    assert zn.sub(7, 5) == 2
    assert zn.mul(7, 5) == 8
    assert zn.neg(7) == 2
    assert zn.mul(7, 7) == 4
    assert zn.add(7, zn.from_int(2)) == zn.zero
    assert zn.is_unit(7)
    assert zn.mul(zn.inverse(7), 7) == zn.one


def test_extension_field_arithmetic_examples():
    f4 = make_ring("fq:4")
    t = f4.elements[2]
    assert t == (0, 1)
    assert f4.mul(t, t) == (1, 1)
    assert f4.mul(f4.mul(t, t), t) == f4.one


def test_modular_ring_reduces_out_of_range_ints():
    z6 = ModularRing(6)
    assert z6.from_int(-1) == 5
    assert z6.from_int(13) == 1


def test_element_power_matches_repeated_multiplication(ring):
    pw = ring.power_index_table(4)
    for i, a in enumerate(ring.elements):
        acc = ring.one
        for k in range(5):
            assert ring.elements[pw[k][i]] == acc
            acc = ring.mul(acc, a)


def test_finite_field_one_parameter_requires_prime_power():
    with pytest.raises(ValueError):
        FiniteField(6, 1)
    f8 = make_ring("fq:8")
    assert (f8.p, f8.extension_degree) == (2, 3)


# ---------------------------------------------------------------------------
# the prime field F_p is the residue ring Z/p under another descriptor


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_prime_field_agrees_with_the_residue_ring(p):
    fq, zm = make_ring(f"fq:{p}"), make_ring(f"zm:{p}")
    assert fq.descriptor == f"fq:{p}" and fq.prime_power == (p, 1)
    assert fq.index_op_tables() == zm.index_op_tables()
    assert [fq.neg(a) for a in fq.elements] == [zm.neg(a) for a in zm.elements]
    assert [fq.inverse(a) for a in fq.elements[1:]] == [zm.inverse(a) for a in zm.elements[1:]]
    rng = random.Random(p)
    for _ in range(30):
        # negative coefficients and coefficients >= p alike
        coeffs = [rng.randrange(-3 * p, 3 * p) for _ in range(rng.randrange(1, 9))]
        assert fq.horner(coeffs, fq.elements) == zm.horner(coeffs, zm.elements)


def test_degree_one_field_descriptor_is_the_prime_field():
    assert make_ring("fq:5,1").descriptor == "fq:5"
    assert make_ring("fq:5,1") == make_ring("fq:5")


def test_finite_field_refuses_degree_one():
    with pytest.raises(ValueError, match="fq:5"):
        FiniteField(5, 1)


# ---------------------------------------------------------------------------
# extension-field arithmetic against the convolution definition, and the
# Horner evaluation of each ring kind against a per-point add/mul Horner


def _vector_add(field, x, y):
    return tuple((a + b) % field.p for a, b in zip(x, y))


def _check_field_ops(field, x, y):
    p = field.p
    assert field.index(x) == sum(c * p**i for i, c in enumerate(x))
    assert field.neg(x) == tuple((-a) % p for a in x)
    if x != field.zero:
        assert field._conv_mul(x, field.inverse(x)) == field.one
    assert field.add(x, y) == _vector_add(field, x, y)
    assert field.mul(x, y) == field._conv_mul(x, y)


# t is not primitive modulo the moduli of fq:9, fq:25 and fq:49 (x^2 + 1,
# x^2 + x + 1, x^2 + 1), so their logarithms are taken to another base
@pytest.mark.parametrize(
    "desc", ["fq:4", "fq:8", "fq:9", "fq:16", "fq:25", "fq:27", "fq:32", "fq:49"]
)
def test_field_arithmetic_matches_the_convolution_on_every_pair(desc):
    field = make_ring(desc)
    for x in field.elements:
        for y in field.elements:
            _check_field_ops(field, x, y)


def test_field_arithmetic_matches_the_convolution_on_sampled_pairs():
    field = make_ring("fq:2,12")
    rng = random.Random(2012)
    els = field.elements
    pairs = [(field.zero, field.zero), (field.zero, els[-1]), (els[-1], field.zero)]
    pairs += [(rng.choice(els), rng.choice(els)) for _ in range(2000)]
    for x, y in pairs:
        _check_field_ops(field, x, y)


def test_field_tables_are_built_on_first_arithmetic():
    field = make_ring("fq:2,8")
    assert "_zech_tables" not in vars(field)
    field.mul(field.one, field.one)
    assert "_zech_tables" in vars(field)


def _add_mul_horner(ring, coeffs, r):
    acc = ring.zero
    for c in reversed(coeffs):
        acc = ring.add(ring.mul(acc, r), c)
    return acc


@pytest.mark.parametrize("desc", ["zm:12", "zpn:7,2", "fq:7"])
def test_residue_horner_matches_a_per_point_add_mul_horner(desc):
    ring = make_ring(desc)
    rng = random.Random(desc)
    m = ring.size
    cases = [[], [-1], [m], [-m - 1, 2 * m + 3, -5]]
    cases += [[rng.randrange(-3 * m, 3 * m) for _ in range(rng.randrange(1, 10))]
              for _ in range(60)]
    for coeffs in cases:
        reduced = [ring.from_int(c) for c in coeffs]
        expected = [_add_mul_horner(ring, reduced, r) for r in ring.elements]
        assert ring.horner(coeffs, ring.elements) == expected


@pytest.mark.parametrize("desc", ["fq:4", "fq:8", "fq:9", "fq:25", "fq:27"])
def test_field_horner_matches_a_convolution_horner(desc):
    field = make_ring(desc)
    rng = random.Random(desc)
    zero = field.zero
    choices = (zero,) * 4 + field.elements  # zero terms take the zero branches
    for _ in range(60):
        coeffs = [rng.choice(choices) for _ in range(rng.randrange(10))]
        expected = []
        for r in field.elements:
            acc = zero
            for c in reversed(coeffs):
                acc = _vector_add(field, field._conv_mul(acc, r), c)
            expected.append(acc)
        assert field.horner(coeffs, field.elements) == expected
        assert field.horner(coeffs, field.elements[::-1]) == expected[::-1]


# -- evaluation on every element, packed ------------------------------------

_PACKED_DESCRIPTORS = (
    [f"zm:{m}" for m in range(2, 131)]
    + ["zpn:2,5", "zpn:2,7", "zpn:3,4", "zpn:5,3", "zpn:7,2", "zpn:11,2"]
    + [f"fq:{p}" for p in (2, 3, 5, 7, 31, 127)]
)


@lru_cache(maxsize=None)
def _packed_ring(desc):
    # one ring per descriptor, so later examples extend its cached power rows
    return make_ring(desc)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(_PACKED_DESCRIPTORS),
    st.lists(
        st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80), st.integers(0, 300)),
        max_size=40,
    ),
)
def test_packed_values_match_horner_at_every_element(desc, coeffs):
    # empty, constant, negative and very large coefficients; the cut-off is
    # lowered so that even the smallest tables go through the packed rows
    ring = _packed_ring(desc)
    expected = ring.horner(coeffs, ring.elements)
    assert ring.evaluate_everywhere(coeffs) == expected
    with mock.patch.object(rings, "PACKED_FROM", 0):
        assert ring.evaluate_everywhere(coeffs) == expected


def _width_steps():
    # (m, count) with count coefficients in one slot width and count + 1 in
    # the next: 1 -> 2 bytes, 2 -> 4 and, on the largest ring, 4 -> 8
    for m in (2, 3, 4, 16, 17, 49, 130):
        for k in (1, 2):
            count = ((1 << 8 * k) - 1) // (m - 1) ** 2
            if 1 <= count <= 2000:
                yield m, count
    yield 65536, 1


@pytest.mark.parametrize("m,count", list(_width_steps()))
def test_packed_values_match_horner_across_each_slot_width_step(m, count):
    ring = ModularRing(m)
    low, high = (rings.slot_bytes(k * (m - 1) ** 2) for k in (count, count + 1))
    assert low < high
    rng = random.Random(m * 7919 + count)
    for length in (count, count + 1):
        coeffs = [m - 1] * length if m > 1000 else [
            rng.choice((m - 1, -1, rng.randrange(-(m**3), m**3))) for _ in range(length)
        ]
        with mock.patch.object(rings, "PACKED_FROM", 0):
            assert ring.evaluate_everywhere(coeffs) == ring.horner(coeffs, ring.elements)


def test_power_rows_past_the_cache_budget_fall_back_to_horner():
    ring = ModularRing(97)
    coeffs = list(range(-20, 20))
    with mock.patch.object(rings, "ROW_CACHE_BYTES", 100):
        assert ring.evaluate_everywhere(coeffs) == ring.horner(coeffs, ring.elements)
    assert not any(key[0] == "rows" for key in ring._tables if isinstance(key, tuple))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 8, 9, 16]), st.data())
def test_unpack_inverts_pack_at_every_slot_width(nb, data):
    values = data.draw(st.lists(st.integers(0, (1 << 8 * nb) - 1), max_size=30))
    extra = data.draw(st.integers(0, 3))
    assert list(rings.unpack(rings.pack(values, nb), len(values) + extra, nb)) == (
        values + [0] * extra
    )


def test_slot_bytes_takes_the_smallest_width_that_holds_the_bound():
    for bound in [0, 1, 255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**72]:
        nb = rings.slot_bytes(bound)
        assert bound < 1 << 8 * nb
        assert nb in (1, 2, 4, 8) or nb == -(-bound.bit_length() // 8) > 8
        smaller = [k for k in (1, 2, 4, 8) if k < nb]
        assert all(bound >= 1 << 8 * k for k in smaller)
