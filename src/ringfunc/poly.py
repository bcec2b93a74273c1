"""Dense univariate polynomials with formal derivative, composition and
ring-targeted evaluation.

Coefficients are arbitrary-precision Python integers by default.  A polynomial
may instead be tagged with a ring, in which case its coefficients are element
encodings of that ring (used for extension fields, where interpolation output
cannot be written with integer coefficients).  Integer-coefficient polynomials
are never reduced on construction: the same object can be read mod p, mod
p^(n-1) and mod p^n, which the canonical-form machinery relies on.
"""

from __future__ import annotations

from operator import getitem
from typing import Any, Iterable


class ParseError(ValueError):
    """Syntax error in polynomial text, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _strip(coeffs: list, zero) -> tuple:
    while coeffs and coeffs[-1] == zero:
        coeffs.pop()
    return tuple(coeffs)


class Polynomial:
    """Immutable dense polynomial; index = degree, no trailing zeros."""

    __slots__ = ("coeffs", "ring")

    def __init__(self, coeffs: Iterable = (), ring=None):
        zero = 0 if ring is None else ring.zero
        lst = list(coeffs)
        if ring is None:
            for c in lst:
                if not isinstance(c, int):
                    raise TypeError(f"integer coefficient expected, got {c!r}")
        object.__setattr__(self, "coeffs", _strip(lst, zero))
        object.__setattr__(self, "ring", ring)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring=None) -> "Polynomial":
        return cls((), ring)

    @classmethod
    def constant(cls, c, ring=None) -> "Polynomial":
        return cls((c,), ring)

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, c: int, degree: int) -> "Polynomial":
        return cls((0,) * degree + (c,))

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int):
        zero = 0 if self.ring is None else self.ring.zero
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else zero

    # -- coefficient-domain plumbing ----------------------------------

    def _domain(self):
        ring = self.ring
        if ring is None:
            return 0, lambda a, b: a + b, lambda a, b: a * b
        return ring.zero, ring.add, ring.mul

    def _coerce_pair(self, other: "Polynomial"):
        """Unify the coefficient domains of self and other."""
        if self.ring is other.ring or self.ring == other.ring:
            return self, other
        if self.ring is None:
            return self._into(other.ring), other
        if other.ring is None:
            return self, other._into(self.ring)
        raise ValueError("polynomials over different rings")

    def _into(self, ring) -> "Polynomial":
        # integer coefficients map through the canonical Z -> ring homomorphism
        return Polynomial([ring.from_int(c) for c in self.coeffs], ring)

    def _wrap(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int):
            return Polynomial((other,))
        return NotImplemented

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        f, g = self._coerce_pair(other)
        add = f._domain()[1]
        a, b = f.coeffs, g.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = add(out[k], c)
        return Polynomial(out, f.ring)

    __radd__ = __add__

    def __neg__(self):
        if self.ring is None:
            return Polynomial([-c for c in self.coeffs])
        return Polynomial([self.ring.neg(c) for c in self.coeffs], self.ring)

    def __sub__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        f, g = self._coerce_pair(other)
        if f.is_zero() or g.is_zero():
            return Polynomial.zero(f.ring)
        zero, add, mul = f._domain()
        out = [zero] * (len(f.coeffs) + len(g.coeffs) - 1)
        for i, a in enumerate(f.coeffs):
            if a == zero:
                continue
            for j, b in enumerate(g.coeffs):
                out[i + j] = add(out[i + j], mul(a, b))
        return Polynomial(out, f.ring)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if self.ring is None:
            result = Polynomial((1,))
        else:
            result = Polynomial((self.ring.one,), self.ring)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs and self.ring == other.ring

    def __hash__(self):
        return hash((self.coeffs, self.ring))

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"

    def __str__(self):
        return format_polynomial(self)

    # -- calculus and composition -------------------------------------

    def derive(self) -> "Polynomial":
        """Formal derivative: coefficient k of the result is (k+1)*c_{k+1}."""
        if self.degree < 1:
            return Polynomial.zero(self.ring)
        if self.ring is None:
            return Polynomial([k * c for k, c in enumerate(self.coeffs) if k])
        ring = self.ring
        out = [ring.mul(ring.from_int(k), c) for k, c in enumerate(self.coeffs) if k]
        return Polynomial(out, ring)

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """f.compose(g) = f(g(x)), by Horner substitution."""
        f, g = self._coerce_pair(self._wrap(inner))
        result = Polynomial.zero(f.ring)
        for c in reversed(f.coeffs):
            result = result * g + Polynomial.constant(c, f.ring)
        return result

    # -- evaluation ---------------------------------------------------

    def eval(self, ring, point):
        """Horner evaluation in `ring`, by ring.horner.

        Integer coefficients are reduced through ring.from_int.  A polynomial
        tagged with ring K can be evaluated in K itself or in the dual
        extension of K (coefficients embed as alpha-part zero); anything else
        is a mismatch.
        """
        return ring.horner(self._coeffs_for(ring), (point,))[0]

    def _coeffs_for(self, ring):
        if self.ring is None or self.ring.integer_encoded:
            # residue encodings are plain integers, so reuse the Z -> ring map
            return [ring.from_int(c) for c in self.coeffs]
        if self.ring == ring:
            return self.coeffs
        if getattr(ring, "base", None) == self.ring:
            return [ring.embed(c) for c in self.coeffs]
        raise ValueError(f"cannot evaluate {self.ring} coefficients in {ring}")

    def eval_int(self, k: int) -> int:
        """Plain integer evaluation; only for integer-coefficient polynomials."""
        if self.ring is not None:
            raise ValueError("eval_int requires integer coefficients")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * k + c
        return acc

    # -- reduction ----------------------------------------------------

    def reduced_mod(self, m: int) -> "Polynomial":
        """Coefficients reduced into [0, m-1]; integer polynomials only."""
        if self.ring is not None:
            raise ValueError("reduced_mod requires integer coefficients")
        return Polynomial([c % m for c in self.coeffs])


X = Polynomial.x()


def _term(c: int, k: int) -> str:
    """The text of the term c*x^k, c a positive magnitude."""
    xpart = "x" if k == 1 else f"x^{k}"
    return str(c) if k == 0 else xpart if c == 1 else f"{c}*{xpart}"


def index_formatter(size: int, degree: int):
    """format_polynomial of the polynomial with the coefficient indices vec,
    constant term first, len(vec) <= degree, over a ring of size elements,
    integer or ring-tagged alike: each term is read from one table, the text
    of c*x^k for each k < degree and index c, with "" for c = 0."""
    terms = [("",) + tuple(_term(c, k) for c in range(1, size)) for k in range(degree)]
    return lambda vec: " + ".join([t for t in map(getitem, terms, vec) if t][::-1]) or "0"


def format_polynomial(f: Polynomial) -> str:
    """Canonical text form, highest degree first; parses back to f when the
    coefficients are integers."""
    ring, parts = f.ring, []
    for k in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[k]
        if c == (0 if ring is None else ring.zero):
            continue
        negative = ring is None and c < 0
        body = _term(abs(c) if ring is None else ring.index(c), k)
        sign = ("- " if negative else "+ ") if parts else ("-" if negative else "")
        parts.append(sign + body)
    return " ".join(parts) or "0"


def _tokens(text: str) -> list[tuple[int, str]]:
    """(position, token) pairs: maximal runs of digits and single other
    characters, whitespace dropped, then (len(text), "") to mark the end."""
    out = []
    run = -1  # start of the digit run being read, or -1
    for pos, ch in enumerate(text):
        if ch.isdigit():
            if run < 0:
                run = pos
            continue
        if run >= 0:
            out.append((run, text[run:pos]))
            run = -1
        if not ch.isspace():
            out.append((pos, ch))
    if run >= 0:
        out.append((run, text[run:]))
    out.append((len(text), ""))
    return out


def _mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer coefficient lists without trailing zeros."""
    if not a or not b:
        return []
    if len(a) == 1:
        c = a[0]
        return [c * v for v in b]
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b, i):
                out[j] += u * v
    return out


def _pow(base: list[int], k: int) -> list[int]:
    """base^k: directly for zero and for monomials, else by squaring."""
    if not k:
        return [1]
    if not base:
        return []
    if not any(base[:-1]):  # (c x^d)^k = c^k x^(dk)
        return [0] * ((len(base) - 1) * k) + [base[-1] ** k]
    result = [1]
    while True:
        if k & 1:
            result = _mul(result, base)
        k >>= 1
        if not k:
            return result
        base = _mul(base, base)


# c^k has at most k times the bits of c
_POWER_BITS = "bits of a number's power"
# each coefficient of (sum b_i x^i)^k is at most (sum |b_i|)^k
_POWER_COEFFICIENT_BITS = "bits of a power's coefficients"


class _ListParser:
    """Recursive descent over the token list, computing on coefficient lists
    (lowest degree first, no trailing zeros); every error is reported at the
    position of the next token.  A term is read as a monomial c*x^d times the
    product of its parenthesised factors, if it has any, and expr adds it
    into its sum from degree d on."""

    __slots__ = ("toks", "i", "cap")

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0
        self.cap = None

    def check_size(self, size: int, what: str = "polynomial degree") -> None:
        """Refuse a coefficient list of this degree, or a number of this many
        bits, before it is made, if the size passes the enumeration cap and
        the length of the text: one no longer than the text costs no more
        than reading it did, so most parses never read the cap, and none
        reads it twice."""
        if size <= self.toks[-1][0]:  # the end marker's position, len(text)
            return
        from .rings import check_cap, enumeration_cap  # rings imports this module

        if self.cap is None:
            self.cap = enumeration_cap()
        check_cap(size, self.cap, what)

    def power(self) -> int:
        """The exponent of the factor just read: the number after a ^, or 1
        with no ^."""
        if self.toks[self.i][1] != "^":
            return 1
        pos, tok = self.toks[self.i + 1]
        if not tok[:1].isdigit():
            raise ParseError("expected a number", pos)
        self.i += 2
        return int(tok)

    def expr(self) -> list[int]:
        acc, tok = [], self.toks[self.i][1]
        sign = -1 if tok == "-" else 1
        if tok == "-" or tok == "+":
            self.i += 1
        while True:
            c, d, product = self.term()
            c *= sign
            top = d + 1 if product is None else d + len(product)
            if len(acc) < top:
                self.check_size(top - 1)
                acc += [0] * (top - len(acc))
            if product is None:
                acc[d] += c
            else:
                for k, v in enumerate(product, d):
                    acc[k] += c * v
            tok = self.toks[self.i][1]
            if tok != "+" and tok != "-":
                while acc and not acc[-1]:
                    acc.pop()
                return acc
            self.i += 1
            sign = 1 if tok == "+" else -1

    def term(self) -> tuple[int, int, list[int] | None]:
        """(c, d, product): the term is c*x^d times product, None if the term
        has no parenthesised factor."""
        c, d, product = 1, 0, None
        while True:
            pos, tok = self.toks[self.i]
            if tok == "x":
                self.i += 1
                d += self.power()
            elif tok == "(":
                self.i += 1
                base = self.expr()
                pos, tok = self.toks[self.i]
                if tok != ")":
                    raise ParseError("expected ')'", pos)
                self.i += 1
                k = self.power()
                if k != 1:
                    self.check_size((len(base) - 1) * k)
                    if base:  # its top coefficient is raised to the k-th power
                        self.check_size(base[-1].bit_length() * k, _POWER_BITS)
                    if any(base[:-1]):  # and (len - 1) k + 1 coefficients with it
                        bits = ((len(base) - 1) * k + 1) * k * sum(map(abs, base)).bit_length()
                        self.check_size(bits, _POWER_COEFFICIENT_BITS)
                    base = _pow(base, k)
                if product is not None:
                    self.check_size(len(product) + len(base) - 2)
                product = base if product is None else _mul(product, base)
            elif tok[:1].isdigit():
                self.i += 1
                k = self.power()
                if k != 1:
                    self.check_size(int(tok).bit_length() * k, _POWER_BITS)
                c *= int(tok) ** k
            else:
                raise ParseError("expected a coefficient, x or (", pos)
            tok = self.toks[self.i][1]
            if tok == "*":
                self.i += 1
            elif tok != "x" and tok != "(" and not tok[:1].isdigit():
                return c, d, product


def parse(text: str) -> Polynomial:
    """Parse polynomial text into an integer-coefficient Polynomial.

    Grammar: terms joined by + and -, each term a product of factors
    (juxtaposition or *), each factor an integer, x, or a parenthesized
    expression, optionally raised with ^ to a nonnegative integer power.
    Whitespace is insignificant, except that it ends a number.  Examples:
    "x^2 - x", "2x^3+2x", "(x^2-x)^2", "-3*x + 1".

    The text is split into tokens once and parsed by recursive descent on
    plain integer coefficient lists.  A term is read as a monomial c*x^d,
    its numbers and powers of x folded into c and d as they come; only a
    parenthesised factor is multiplied out, and the term is added into the
    sum at degree d.  One Polynomial is built at the end.  A ParseError
    carries the position of the offending token.  A degree past both the
    enumeration cap and the text's length raises SizeCapError before any
    coefficient list that long is built, and so does a power c^k of a
    number, or of a factor's top coefficient c, whose bound of k times the
    bits of c passes both.  A power of a factor that is not a monomial is
    refused likewise when its coefficient count times k times the bits of
    sum |b_i|, a bound on each coefficient's bits, passes both.
    """
    ps = _ListParser(text)
    coeffs = ps.expr()
    pos, tok = ps.toks[ps.i]
    if tok:
        raise ParseError(f"unexpected {tok[0]!r}", pos)
    return Polynomial(coeffs)
