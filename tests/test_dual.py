"""Dual-number extension: arithmetic, evaluation shortcuts, serialization."""

import dataclasses
import random

import pytest

from ringfunc.dual import (
    DualElement,
    DualPolynomial,
    dual_ring,
    eval_dual,
    eval_dual_poly,
    format_dual_element,
    horner_dual,
    parse_dual_element,
)
from ringfunc.poly import Polynomial, X, parse
from ringfunc.rings import SizeCapError, make_ring

BASE_DESCRIPTORS = ("zpn:2,1", "zpn:2,2", "zm:6", "fq:3", "fq:4")


@pytest.fixture(params=BASE_DESCRIPTORS, ids=lambda d: d)
def base(request):
    return make_ring(request.param)


def _random_poly(rng, max_degree=8):
    return Polynomial([rng.randrange(-9, 10) for _ in range(rng.randrange(max_degree + 1))])


def test_squaring_one_plus_twice_nilpotent():
    d = make_ring("dual:zpn:2,2")
    x = (1, 2)
    assert d.mul(x, x) == (1, 0)  # (1+2*al)^2 = 1


def test_multiplication_is_convolution_truncated_at_degree_two(base):
    d = dual_ring(base)
    for a, b in d.elements:
        for c, e in d.elements:
            expected = (base.mul(a, c), base.add(base.mul(a, e), base.mul(b, c)))
            assert d.mul((a, b), (c, e)) == expected


def test_enumeration_is_row_major(base):
    d = dual_ring(base)
    n = base.size
    assert d.size == n * n
    for i, pair in enumerate(d.elements):
        assert pair == (base.elements[i // n], base.elements[i % n])
        assert d.index(pair) == i


def test_unit_exactly_when_finite_part_is_a_unit(base):
    d = dual_ring(base)
    for a, b in d.elements:
        assert d.is_unit((a, b)) == base.is_unit(a)


def test_inverse_of_units(base):
    d = dual_ring(base)
    for x in d.elements:
        if d.is_unit(x):
            assert d.mul(x, d.inverse(x)) == d.one
        else:
            with pytest.raises(ValueError):
                d.inverse(x)


def test_embed_is_a_ring_homomorphism(base):
    d = dual_ring(base)
    assert d.embed(base.one) == d.one
    assert d.embed(base.zero) == d.zero
    for x in base.elements:
        for y in base.elements:
            assert d.embed(base.add(x, y)) == d.add(d.embed(x), d.embed(y))
            assert d.embed(base.mul(x, y)) == d.mul(d.embed(x), d.embed(y))


def test_from_int_lands_in_the_embedded_base(base):
    d = dual_ring(base)
    for k in range(-5, 6):
        assert d.from_int(k) == d.embed(base.from_int(k))


def test_nested_duals_are_rejected():
    d = make_ring("dual:zpn:2,2")
    with pytest.raises(ValueError):
        dual_ring(d)


def test_dual_size_cap():
    big = make_ring("zm:300")
    with pytest.raises(SizeCapError):
        dual_ring(big)
    assert dual_ring(big, size_cap=1 << 17).size == 90000


def test_dual_element_is_frozen():
    e = DualElement(1, 2)
    assert e.as_pair() == (1, 2)
    with pytest.raises(AttributeError):
        e.a = 3
    assert DualPolynomial(X, Polynomial.zero()) == DualPolynomial(X, Polynomial.zero())


def test_shortcut_evaluation_examples():
    z4 = make_ring("zpn:2,2")
    assert eval_dual(X**2, z4, 1, 2) == DualElement(1, 0)
    f3 = make_ring("fq:3")
    assert eval_dual(parse("2x^3+2x"), f3, 1, 1) == DualElement(1, 2)


def test_two_part_evaluation_examples():
    z2 = make_ring("zpn:2,1")
    g = DualPolynomial(X, Polynomial.constant(1))  # x + 1*al
    assert eval_dual_poly(g, z2, 1, 1) == DualElement(1, 0)
    z4 = make_ring("zpn:2,2")
    h = DualPolynomial(Polynomial.zero(), X)  # al*x
    assert eval_dual_poly(h, z4, 3, 1) == DualElement(0, 3)


def test_shortcut_agrees_with_horner(base):
    d = dual_ring(base)
    rng = random.Random(101)
    for _ in range(30):
        g = _random_poly(rng)
        for (a, b), v in zip(d.elements, horner_dual(g, d, d.elements)):
            assert eval_dual(g, base, a, b) == v


def test_two_part_shortcut_agrees_with_horner(base):
    d = dual_ring(base)
    rng = random.Random(202)
    for _ in range(30):
        g = DualPolynomial(_random_poly(rng), _random_poly(rng))
        for (a, b), v in zip(d.elements, horner_dual(g, d, d.elements)):
            assert eval_dual_poly(g, base, a, b) == v


def test_evaluation_at_embedded_points_restricts_to_the_base(base):
    d = dual_ring(base)
    rng = random.Random(303)
    for _ in range(20):
        g = _random_poly(rng)
        points = [(a, base.zero) for a in base.elements]
        for a, got in zip(base.elements, horner_dual(g, d, points)):
            assert got == DualElement(g.eval(base, a), base.zero)


def test_shortcut_accepts_wrapped_elements():
    z4 = make_ring("zpn:2,2")
    assert eval_dual(X**2, z4, z4.element(1), z4.element(2)) == DualElement(1, 0)


@pytest.mark.parametrize("desc", ["dual:zpn:2,2", "dual:fq:4"])
def test_format_parse_round_trip(desc):
    d = make_ring(desc)
    for x in d.elements:
        assert parse_dual_element(d, format_dual_element(d, x)) == x


def test_parse_dual_element_forms():
    d = make_ring("dual:zpn:2,2")
    assert parse_dual_element(d, "3") == (3, 0)
    assert parse_dual_element(d, "2*al") == (0, 2)
    assert parse_dual_element(d, "1+2*al") == (1, 2)
    assert parse_dual_element(d, " 1 + 2*al ") == (1, 2)


def test_format_uses_enumeration_indices():
    d = make_ring("dual:fq:4")
    f4 = d.base
    assert format_dual_element(d, (f4.elements[2], f4.elements[3])) == "2+3*al"
    assert format_dual_element(d, DualElement(f4.zero, f4.one)) == "0+1*al"


@pytest.mark.parametrize("bad", ["", "x", "5+1*al", "1+2", "al", "1+*al", "-1"])
def test_parse_dual_element_rejects_malformed_input(bad):
    d = make_ring("dual:zpn:2,2")
    with pytest.raises(ValueError):
        parse_dual_element(d, bad)
