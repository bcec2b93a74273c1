"""Polynomial arithmetic, calculus, parsing, printing."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from ringfunc import poly
from ringfunc.funcspace import index_polynomial, induce
from ringfunc.poly import ParseError, Polynomial, X, format_polynomial, index_formatter, parse
from ringfunc.rings import CAP_ENV_VAR, SizeCapError, make_ring

coeff_lists = st.lists(st.integers(min_value=-30, max_value=30), max_size=7)


def _naive_add(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _naive_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_trailing_zeros_are_stripped():
    assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert Polynomial((0, 0)).coeffs == ()
    assert Polynomial(()).is_zero()
    assert Polynomial((0, 0)).degree == -1
    assert Polynomial((0, 5)).degree == 1


def test_polynomials_are_immutable():
    f = X + 1
    with pytest.raises(AttributeError):
        f.coeffs = (9,)


def test_constructors():
    assert Polynomial.zero().coeffs == ()
    assert Polynomial.constant(7).coeffs == (7,)
    assert Polynomial.constant(0).coeffs == ()
    assert Polynomial.x().coeffs == (0, 1)
    assert Polynomial.monomial(3, 4).coeffs == (0, 0, 0, 0, 3)
    assert Polynomial.monomial(0, 4).is_zero()


@given(coeff_lists, coeff_lists)
def test_addition_matches_schoolbook(a, b):
    assert (Polynomial(a) + Polynomial(b)).coeffs == _naive_add(a, b)


@given(coeff_lists, coeff_lists)
def test_multiplication_matches_schoolbook(a, b):
    assert (Polynomial(a) * Polynomial(b)).coeffs == _naive_mul(a, b)


@given(coeff_lists, coeff_lists)
def test_subtraction_and_negation(a, b):
    f, g = Polynomial(a), Polynomial(b)
    assert f - g == f + (-g)
    assert (f - f).is_zero()


@given(coeff_lists, st.integers(min_value=0, max_value=5))
def test_power_is_repeated_multiplication(a, k):
    f = Polynomial(a)
    expected = Polynomial((1,))
    for _ in range(k):
        expected = expected * f
    assert f**k == expected


def test_power_rejects_negative_exponent():
    with pytest.raises(ValueError):
        X**-1


def test_integer_operands_coerce():
    assert (X + 1).coeffs == (1, 1)
    assert (1 + X).coeffs == (1, 1)
    assert (2 * X).coeffs == (0, 2)
    assert (1 - X).coeffs == (1, -1)
    assert (X - 1).coeffs == (-1, 1)


@given(coeff_lists, coeff_lists)
def test_derivative_is_linear(a, b):
    f, g = Polynomial(a), Polynomial(b)
    assert (f + g).derive() == f.derive() + g.derive()


@given(coeff_lists, coeff_lists)
def test_derivative_product_rule(a, b):
    f, g = Polynomial(a), Polynomial(b)
    assert (f * g).derive() == f.derive() * g + f * g.derive()


def test_derivative_of_monomials():
    assert (X**5).derive() == 5 * X**4
    assert Polynomial.constant(3).derive().is_zero()
    assert Polynomial.zero().derive().is_zero()


@given(coeff_lists, coeff_lists, st.integers(min_value=-9, max_value=9))
def test_composition_agrees_with_evaluation(a, b, t):
    f, g = Polynomial(a), Polynomial(b)
    assert f.compose(g).eval_int(t) == f.eval_int(g.eval_int(t))


def test_composition_examples():
    assert (X**2).compose(X + 1) == X**2 + 2 * X + 1
    assert (X + 1).compose(X**2) == X**2 + 1
    f = 3 * X**2 - X + 4
    assert f.compose(X) == f
    assert f.compose(Polynomial.zero()) == Polynomial.constant(4)


def test_eval_int_on_ring_tagged_polynomial_raises():
    f4 = make_ring("fq:4")
    f = Polynomial((f4.elements[1], f4.elements[2]), ring=f4)
    with pytest.raises(ValueError):
        f.eval_int(1)
    with pytest.raises(ValueError):
        f.reduced_mod(2)


def test_reduced_mod():
    f = 5 * X**3 - X + 7
    assert f.reduced_mod(4).coeffs == (3, 3, 0, 1)
    assert (4 * X**2).reduced_mod(4).is_zero()


def test_eval_in_ring():
    z4 = make_ring("zpn:2,2")
    f = X**2 + 2 * X + 3
    assert f.eval(z4, 3) == 2  # 9 + 6 + 3 = 18
    f4 = make_ring("fq:4")
    t = f4.elements[2]
    assert (X**2 + X).eval(f4, t) == f4.add(f4.mul(t, t), t)


def test_eval_coerces_through_from_int_for_integer_coefficients():
    f9 = make_ring("fq:9")
    f = 4 * X + 5  # read as from_int(4) x + from_int(5)
    a = f9.elements[4]
    expected = f9.add(f9.mul(f9.from_int(4), a), f9.from_int(5))
    assert f.eval(f9, a) == expected


def test_mixing_distinct_rings_raises():
    f4 = make_ring("fq:4")
    f9 = make_ring("fq:9")
    f = Polynomial((f4.one,), ring=f4)
    g = Polynomial((f9.one,), ring=f9)
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f * g


def test_ring_tagged_plus_integer_polynomial_coerces():
    f4 = make_ring("fq:4")
    f = Polynomial((f4.elements[2],), ring=f4)
    g = f + 1
    assert g.ring == f4
    assert g.coeffs == (f4.add(f4.elements[2], f4.one),)


def test_dual_target_embeds_base_coefficients():
    z4 = make_ring("zpn:2,2")
    d = make_ring("dual:zpn:2,2")
    f = Polynomial((3, 1), ring=z4)
    tables = induce(f, d)
    g = 3 + X  # same polynomial with integer coefficients
    assert tables == induce(g, d)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0", ()),
        ("5", (5,)),
        ("x", (0, 1)),
        ("x^0", (1,)),
        ("-x", (0, -1)),
        ("x^2 - x", (0, -1, 1)),
        ("2x^3+2x", (0, 2, 0, 2)),
        ("2*x^3 + 2*x", (0, 2, 0, 2)),
        ("-3*x + 1", (1, -3)),
        ("(x^2-x)^2", (0, 0, 1, -2, 1)),
        ("x(x+1)", (0, 1, 1)),
        ("(x+1)(x+2)(x+3)", (6, 11, 6, 1)),
        ("2(x+1)^2", (2, 4, 2)),
        ("10x^10", (0,) * 10 + (10,)),
    ],
)
def test_parse_examples(text, expected):
    assert parse(text).coeffs == expected


@pytest.mark.parametrize(
    "bad", ["", "x^^2", "x +", ")", "x**2", "2^x", "x^-1", "(x", "x^", "y", "1 - - x"]
)
def test_parse_rejects_malformed_input(bad):
    with pytest.raises(ParseError):
        parse(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("x + )")
    assert err.value.position == 4


# ParseError message and position for each malformed input, as recorded from
# the token-by-token scanner this parser replaced
MALFORMED = [
    ('', 'expected a coefficient, x or ( (at position 0)', 0),
    (' ', 'expected a coefficient, x or ( (at position 1)', 1),
    ('+', 'expected a coefficient, x or ( (at position 1)', 1),
    ('-', 'expected a coefficient, x or ( (at position 1)', 1),
    ('--x', 'expected a coefficient, x or ( (at position 1)', 1),
    ('+-x', 'expected a coefficient, x or ( (at position 1)', 1),
    ('-+x', 'expected a coefficient, x or ( (at position 1)', 1),
    ('x +', 'expected a coefficient, x or ( (at position 3)', 3),
    ('x -', 'expected a coefficient, x or ( (at position 3)', 3),
    ('x*', 'expected a coefficient, x or ( (at position 2)', 2),
    ('x * * 2', 'expected a coefficient, x or ( (at position 4)', 4),
    ('*x', 'expected a coefficient, x or ( (at position 0)', 0),
    ('x^', 'expected a number (at position 2)', 2),
    ('x^ ', 'expected a number (at position 3)', 3),
    ('x^-1', 'expected a number (at position 2)', 2),
    ('x^x', 'expected a number (at position 2)', 2),
    ('x ^ (2)', 'expected a number (at position 4)', 4),
    ('x^2^3', "unexpected '^' (at position 3)", 3),
    ('2^^3', 'expected a number (at position 2)', 2),
    ('(', 'expected a coefficient, x or ( (at position 1)', 1),
    ('(x', "expected ')' (at position 2)", 2),
    ('( x + 1', "expected ')' (at position 7)", 7),
    ('(x + 1))', "unexpected ')' (at position 7)", 7),
    (')', 'expected a coefficient, x or ( (at position 0)', 0),
    ('x)', "unexpected ')' (at position 1)", 1),
    ('()', 'expected a coefficient, x or ( (at position 1)', 1),
    ('(x)(', 'expected a coefficient, x or ( (at position 4)', 4),
    ('x + (', 'expected a coefficient, x or ( (at position 5)', 5),
    ('3 x ^', 'expected a number (at position 5)', 5),
    ('x y', "unexpected 'y' (at position 2)", 2),
    ('X', 'expected a coefficient, x or ( (at position 0)', 0),
    ('2.5x', "unexpected '.' (at position 1)", 1),
    ('x/2', "unexpected '/' (at position 1)", 1),
    ('1 + 2 - ', 'expected a coefficient, x or ( (at position 8)', 8),
    ('x^2 +\t', 'expected a coefficient, x or ( (at position 6)', 6),
    ('\tx\n^\n', 'expected a number (at position 5)', 5),
    ('(x+1)^2 3^', 'expected a number (at position 10)', 10),
    ('((x)', "expected ')' (at position 4)", 4),
    ('x + 1 = 0', "unexpected '=' (at position 6)", 6),
    ('7 7 7 ^ x', 'expected a number (at position 8)', 8),
    ('x^2 - x)', "unexpected ')' (at position 7)", 7),
    ('  -  ', 'expected a coefficient, x or ( (at position 5)', 5),
    ('x + + x', 'expected a coefficient, x or ( (at position 4)', 4),
    ('(-)', 'expected a coefficient, x or ( (at position 2)', 2),
    ('(+x', "expected ')' (at position 3)", 3),
    ('x**2', 'expected a coefficient, x or ( (at position 2)', 2),
    ('4*(x - 1', "expected ')' (at position 8)", 8),
    ('x^(2)', 'expected a number (at position 2)', 2),
    ('12 + ^3', 'expected a coefficient, x or ( (at position 5)', 5),
]


@pytest.mark.parametrize("text,message,position", MALFORMED)
def test_parse_errors_keep_their_message_and_position(text, message, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.position) == (message, position)


def test_parse_reports_a_non_decimal_digit_as_the_scanner_did():
    # str.isdigit() accepts a superscript digit; int() then rejects it
    for text in ("x^2²", "(x+1)^²"):
        with pytest.raises(ValueError, match="invalid literal"):
            parse(text)
    assert parse("3٣").coeffs == (33,)  # an Arabic-Indic three


class _ProductParser:
    """The parser's oracle: recursive descent that builds every term as a
    list product, factor by factor, through poly._mul and poly._pow."""

    def __init__(self, text):
        self.toks = poly._tokens(text)
        self.i = 0

    def take(self, tok):
        if self.toks[self.i][1] == tok:
            self.i += 1
            return True
        return False

    def natural(self):
        pos, tok = self.toks[self.i]
        if not tok[:1].isdigit():
            raise ParseError("expected a number", pos)
        self.i += 1
        return int(tok)

    def expr(self):
        negative = self.take("-")
        if not negative:
            self.take("+")
        acc = self.term()
        if negative:
            acc = [-c for c in acc]
        while True:
            tok = self.toks[self.i][1]
            if tok != "+" and tok != "-":
                while acc and not acc[-1]:
                    acc.pop()
                return acc
            self.i += 1
            term = self.term()
            acc.extend([0] * (len(term) - len(acc)))
            for k, c in enumerate(term):
                acc[k] += c if tok == "+" else -c

    def term(self):
        acc = self.factor()
        while True:
            tok = self.toks[self.i][1]
            if tok == "*":
                self.i += 1
            elif tok != "x" and tok != "(" and not tok[:1].isdigit():
                return acc
            acc = poly._mul(acc, self.factor())

    def factor(self):
        pos, tok = self.toks[self.i]
        if tok == "x":
            self.i += 1
            base = [0, 1]
        elif tok == "(":
            self.i += 1
            base = self.expr()
            if not self.take(")"):
                raise ParseError("expected ')'", self.toks[self.i][0])
        elif tok[:1].isdigit():
            self.i += 1
            c = int(tok)
            base = [c] if c else []
        else:
            raise ParseError("expected a coefficient, x or (", pos)
        if self.take("^"):
            return poly._pow(base, self.natural())
        return base


def _oracle_parse(text):
    ps = _ProductParser(text)
    coeffs = ps.expr()
    pos, tok = ps.toks[ps.i]
    if tok:
        raise ParseError(f"unexpected {tok[0]!r}", pos)
    return Polynomial(coeffs)


def _outcome(parser, text):
    """The coefficients parsed, or the error's type, message and position."""
    try:
        return parser(text).coeffs
    except ValueError as err:
        return type(err), str(err), getattr(err, "position", None)


def test_parse_matches_the_list_product_parser_on_random_strings():
    # strings with two digits apart only by whitespace, or side by side, are
    # skipped: that keeps every number, and so every exponent, to one digit,
    # and x^d allocates d + 1 coefficients
    rng = random.Random(20260)
    two_digits = re.compile(r"\d\s*\d")
    compared = 0
    while compared < 40000:
        text = "".join(rng.choice("x0123+-*^() \t") for _ in range(rng.randrange(16)))
        if two_digits.search(text):
            continue
        assert _outcome(parse, text) == _outcome(_oracle_parse, text), text
        compared += 1


def test_flat_sums_multiply_no_lists(monkeypatch):
    # each term of a sum of monomials is added in at its degree, with no list
    # product; a power of a parenthesised sum is still taken by _pow
    calls = []
    for name in ("_mul", "_pow"):
        def spy(*args, real=getattr(poly, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(poly, name, spy)
    assert parse("4*x^7 - 59*x^6 + 325*x^5 - 1").coeffs == (-1, 0, 0, 0, 0, 325, -59, 4)
    assert parse("2 x^3 x^2 3^2 + 0x^4 - x").coeffs == (0, -1, 0, 0, 0, 18)
    assert calls == []
    assert parse("(x+1)^2").coeffs == (1, 2, 1)
    assert "_pow" in calls


@pytest.mark.parametrize(
    "text, degree", [("x^1001", 1001), ("(x^2+1)^501", 1002), ("(x^600)(x^600)", 1200)]
)
def test_parse_refuses_a_degree_past_the_cap_before_building_it(monkeypatch, text, degree):
    monkeypatch.setenv(CAP_ENV_VAR, "1000")
    built = []
    monkeypatch.setattr(poly, "_pow", lambda *args: built.append("_pow"))
    monkeypatch.setattr(poly, "_mul", lambda *args: built.append("_mul"))
    assert parse("x^1000").degree == 1000
    with pytest.raises(SizeCapError, match=f"^polynomial degree: {degree} exceeds cap 1000$"):
        parse(text)
    assert built == []


@pytest.mark.parametrize("text", ["2^501", "(2)^501", "(-3x + 1)^501", "x(2)^501"])
def test_parse_refuses_a_number_power_past_the_cap_before_computing_it(monkeypatch, text):
    # c^k has at most k times the bits of c: 2^1000 parses exactly, and at
    # RINGFUNC_CAP=1000 so do 2^500 and (2)^500, but a power whose bound
    # passes 1000 bits is refused before it is computed; (-3x + 1)^500 has
    # 501 coefficients, past that cap together, so it parses under the
    # default cap
    assert parse("2^1000").coeffs == (2**1000,)
    assert parse("(-3x + 1)^500").coeffs[-1] == 3**500
    monkeypatch.setenv(CAP_ENV_VAR, "1000")
    assert parse("2^500").coeffs == parse("(2)^500").coeffs == (2**500,)
    monkeypatch.setattr(poly, "_pow", lambda *args: pytest.fail("_pow was called"))
    with pytest.raises(SizeCapError, match="^bits of a number's power: 1002 exceeds cap 1000$"):
        parse(text)


def test_parse_refuses_a_power_whose_coefficients_pass_the_cap(monkeypatch):
    # (x + 1)^100000 has degree 100,000 and top coefficient 1, both under
    # the default cap, but its 100,001 binomials run to 100,000 bits: k
    # times the bits of 1 + 1 bounds each, and the count times that bound
    # is refused before _pow runs; the monomials still parse
    monkeypatch.delenv(CAP_ENV_VAR, raising=False)
    monkeypatch.setattr(poly, "_pow", lambda *args: pytest.fail("_pow was called"))
    message = "^bits of a power's coefficients: 20000200000 exceeds cap 10000000$"
    with pytest.raises(SizeCapError, match=message):
        parse("(x+1)^100000")
    monkeypatch.undo()
    assert parse("x^100000").coeffs == parse("(x)^100000").coeffs == (0,) * 100000 + (1,)


_WS = st.sampled_from(["", " ", "  ", "\t", " \n"])


@st.composite
def _expressions(draw, depth=2):
    """(text, polynomial) for a random expression tree, the text rendered with
    random signs, whitespace, juxtaposition, * and ^, and the polynomial
    built from the same tree with Polynomial arithmetic."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(("number", "x", "parens")[: 3 if depth else 2]))
            if kind == "number":
                c = draw(st.integers(0, 40))
                text, value = str(c), Polynomial.constant(c)
            elif kind == "x":
                text, value = "x", X
            else:
                inner, value = draw(_expressions(depth - 1))
                text = f"({draw(_WS)}{inner}{draw(_WS)})"
            if draw(st.booleans()):
                k = draw(st.integers(0, 5))
                text, value = f"{text}{draw(_WS)}^{draw(_WS)}{k}", value**k
            factors.append((text, value))
        text, value = factors[0]
        for t, v in factors[1:]:
            sep = draw(st.sampled_from(["", " ", "*", " * "]))
            if not sep and text[-1].isdigit() and t[0].isdigit():
                sep = " "  # juxtaposed digits would read as one number
            text, value = text + sep + t, value * v
        terms.append((text, value))
    sign = draw(st.sampled_from(["", "+", "-"]))
    text = f"{sign}{draw(_WS)}{terms[0][0]}" if sign else terms[0][0]
    value = -terms[0][1] if sign == "-" else terms[0][1]
    for t, v in terms[1:]:
        op = draw(st.sampled_from("+-"))
        text += f"{draw(_WS)}{op}{draw(_WS)}{t}"
        value = value + v if op == "+" else value - v
    return text, value


@settings(max_examples=300, deadline=None)
@given(_expressions(), _WS, _WS)
def test_parse_matches_polynomial_arithmetic_on_expression_trees(expr, lead, trail):
    text, value = expr
    assert parse(lead + text + trail) == value


def test_format_examples():
    assert format_polynomial(Polynomial.zero()) == "0"
    assert format_polynomial(Polynomial.constant(-2)) == "-2"
    assert format_polynomial(X) == "x"
    assert format_polynomial(Polynomial((1, -2, 0, 1))) == "x^3 - 2*x + 1"
    assert format_polynomial(Polynomial((0, 1, 3))) == "3*x^2 + x"
    assert str(X + 1) == "x + 1"


@given(coeff_lists)
def test_parse_inverts_format(a):
    f = Polynomial(a)
    assert parse(format_polynomial(f)) == f


def test_format_ring_tagged_uses_indices():
    f4 = make_ring("fq:4")
    f = Polynomial((f4.elements[2], f4.elements[3]), ring=f4)
    text = format_polynomial(f)
    assert parse(text).coeffs == (2, 3)


@pytest.mark.parametrize("desc,longest", [("zm:4", 4), ("fq:4", 3)])
def test_index_formatter_matches_format_polynomial(desc, longest):
    # every index vector up to the longest, trailing zeros and all, against
    # the polynomial of its elements: integer on Z/4, ring-tagged on GF(4)
    ring = make_ring(desc)
    text = index_formatter(ring.size, longest)
    for length in range(longest + 1):
        for vec in itertools.product(range(ring.size), repeat=length):
            assert text(vec) == format_polynomial(index_polynomial(ring, vec)), vec
    assert [text(v) for v in ((), (0, 0, 0), (1,), (0, 1), (0, 0, 1), (3, 0, 2))] == [
        "0", "0", "1", "x", "x^2", "2*x^2 + 3"
    ]


def test_coefficient_access():
    f = 3 * X**2 + 1
    assert f.coefficient(0) == 1
    assert f.coefficient(1) == 0
    assert f.coefficient(2) == 3
    assert f.coefficient(9) == 0
    assert f.coeffs == (1, 0, 3)


def test_equality_and_hash():
    assert X + 1 == parse("1 + x")
    assert hash(X + 1) == hash(parse("x + 1"))
    assert X != X + 1
    z4 = make_ring("zpn:2,2")
    assert Polynomial((1, 1), ring=z4) != Polynomial((1, 1))


def test_pointwise_function_laws_over_small_rings():
    rng = random.Random(7)
    for desc in ("zm:4", "zm:6", "fq:4", "zpn:3,2", "dual:fq:2"):
        ring = make_ring(desc)
        for _ in range(25):
            f = Polynomial([rng.randrange(-8, 9) for _ in range(rng.randrange(6))])
            g = Polynomial([rng.randrange(-8, 9) for _ in range(rng.randrange(6))])
            tf, tg = induce(f, ring), induce(g, ring)
            assert induce(f + g, ring) == tf.pointwise_add(tg)
            assert induce(f * g, ring) == tf.pointwise_mul(tg)
            assert induce(f.compose(g), ring) == tf.compose(tg)
