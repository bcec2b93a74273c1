"""Canonical forms and exact counts for polynomial functions on Z_{p^n}.

Every function induced by a polynomial mod p^n is induced by a unique reduced
combination of the scaled falling factorials p^i * (x)_j.  This module builds
that basis, canonicalizes polynomials against it, counts the function spaces
in closed form, and extends the normal form to the unit-valued case, where a
leading mod-p unit table is refined layer by layer through the powers of p.

A form's digits are read off the function's table on Z_{p^n} by Newton
forward differences (_table_digits), so a polynomial is evaluated once and
never expanded over the falling factorials; falling_factorial_coefficients,
the exact expansion by synthetic division, is kept as the tests' oracle.
Every sum runs on packed rows (rings.pack), one big-integer multiply-add per
term: the differences sum each table value times its row of signed
binomials, combinations of falling factorials sum the coefficient rows of
the (x)_j, and the leading term of a unit-valued form sums its unit table
mod p times the rows of the Lagrange basis mod p.  The rows are cached per
p or (p, n), never per input.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import lru_cache, partial
from math import comb, factorial, prod
from operator import itemgetter

from .funcspace import _merge, _zpn, induce
from .poly import Polynomial, X
from .rings import check_cap, is_prime, pack, printable, printable_power, slot_bytes, unpack


def vp_factorial(p: int, j: int) -> int:
    """p-adic valuation of j!, by Legendre's sum of floor(j / p^i)."""
    if j < 0:
        raise ValueError("factorial valuation needs j >= 0")
    total = 0
    q = p
    while q <= j:
        total += j // q
        q *= p
    return total


@lru_cache(maxsize=None)
def beta(p: int, n: int) -> int:
    """Least k with p^n | k!; the degree cutoff for functions mod p^n.  By
    bisection: v_p(k!) never decreases as k grows, and v_p((p n)!) >= n."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("need n >= 1")
    return bisect_left(range(p * n), n, key=partial(vp_factorial, p))


@lru_cache(maxsize=None)
def falling_factorial(j: int) -> Polynomial:
    """(x)_j = x(x-1)...(x-j+1), an integer polynomial; (x)_0 = 1."""
    if j < 0:
        raise ValueError("need j >= 0")
    if j == 0:
        return Polynomial((1,))
    return falling_factorial(j - 1) * (X - (j - 1))


_FALLING_ROWS: dict[tuple[int, int, int], list[int]] = {}


def _falling_rows(p: int, n: int, nb: int, count: int) -> list[int]:
    """The coefficients of (x)_j mod p^n, packed at nb bytes a slot, for
    j < count or more; cached per (p, n, nb) and extended on demand."""
    rows, m = _FALLING_ROWS.setdefault((p, n, nb), []), p**n
    while len(rows) < count:
        rows.append(pack([c % m for c in falling_factorial(len(rows)).coeffs], nb))
    return rows


def _falling_combination(p: int, n: int, terms, start=()) -> Polynomial:
    """start + sum of a * p^i * (x)_j over the (i, j, a) terms, reduced mod
    p^n: the packed rows of (x)_j are scaled and added, each slot summing
    at most len(terms) products below m^2, start is added to the unpacked
    sums, and one Polynomial is built."""
    m, terms = p**n, list(terms)
    nb = slot_bytes(len(terms) * (m - 1) ** 2)
    top = max(map(itemgetter(1), terms), default=-1) + 1
    rows = _falling_rows(p, n, nb, top)
    sums = unpack(sum([a * p**i % m * rows[j] for i, j, a in terms]), top, nb)
    if start:
        sums = [c + s for c, s in itertools.zip_longest(sums, start, fillvalue=0)]
    return Polynomial([c % m for c in sums])


def kernel_basis(p: int, n: int) -> list[tuple[int, int]]:
    """Exponent pairs (i, j) for the null-function kernel mod p^n.

    The pair (i, j) encodes p^i * (x)_j with i = n - 1 - v_p(j!), the least
    scaling that makes the term null mod p^{n-1}.  One pair per j below
    beta(p, n), where v_p(j!) < n keeps the scaling meaningful, so there are
    beta(p, n) pairs in all.
    """
    if n < 2:
        raise ValueError("kernel basis needs n >= 2")
    return [(n - 1 - vp_factorial(p, j), j) for j in range(beta(p, n))]


def kernel_count(p: int, n: int) -> int:
    """Number of kernel coefficient vectors, p^beta(p, n) (printable_power)."""
    if n < 2:
        raise ValueError("kernel basis needs n >= 2")
    return printable_power(p, beta(p, n))


def enumerate_kernel(p: int, n: int, cap: int | None = None):
    """Yield every combination of the kernel basis with coefficients in [0, p).

    Each yielded polynomial induces the zero function mod p^{n-1}; the
    combinations are pairwise distinct as functions mod p^n.
    """
    basis = kernel_basis(p, n)
    check_cap(p ** len(basis), cap, "kernel enumeration")
    for digits in itertools.product(range(p), repeat=len(basis)):
        yield _falling_combination(p, n, [(i, j, a) for (i, j), a in zip(basis, digits) if a])


def _divide_linear(coeffs: list[int], s: int) -> tuple[list[int], int]:
    """Divide the integer polynomial sum c_k x^k by (x - s).

    Returns (quotient coefficients low to high, remainder), exactly.
    """
    acc = 0
    out = []
    for c in reversed(coeffs):
        acc = acc * s + c
        out.append(acc)
    r = out.pop()
    out.reverse()
    return out, r


def falling_factorial_coefficients(f: Polynomial, count: int) -> list[int]:
    """First `count` coefficients of f in the basis (x)_0, (x)_1, (x)_2, ...

    Synthetic division peels them off one at a time: f = b_0 + (x - 0) * q_0,
    then q_0 = b_1 + (x - 1) * q_1, and so on.  Exact integer arithmetic.
    The forms read their digits off the table instead (_table_digits); this
    expansion is the oracle they are tested against.
    """
    if f.ring is not None:
        raise ValueError("expected integer coefficients")
    coeffs = list(f.coeffs)
    out = []
    for shift in range(count):
        if not coeffs:
            out.append(0)
        else:
            coeffs, r = _divide_linear(coeffs, shift)
            out.append(r)
    return out


def _check_digit_terms(p: int, n: int, groups) -> None:
    """The checks both normal forms share: p prime, n >= 1, and in each
    (depths, terms) group, terms (i, j, a) with i, j >= 0, a digit a in
    [1, p) and depth i + v_p(j!) in depths, strictly sorted by (j, i)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("need n >= 1")
    for depths, terms in groups:
        prev = None
        for i, j, a in terms:
            if i < 0 or j < 0:
                raise ValueError(f"bad exponents ({i}, {j})")
            if not 1 <= a < p:
                raise ValueError(f"digit {a} out of range for p = {p}")
            if i + vp_factorial(p, j) not in depths:
                raise ValueError(f"term ({i}, {j}) is out of place mod {p}^{n}")
            if prev is not None and (j, i) <= prev:
                raise ValueError("terms must be strictly sorted by (j, i)")
            prev = (j, i)


class CanonicalForm:
    """Reduced falling-factorial form mod p^n.

    terms lists (i, j, a) for a * p^i * (x)_j with digit a in [1, p), one term
    per basis slot, sorted by (j, i), zero digits omitted.  The constraint
    i + v_p(j!) < n keeps every term nonzero as a function.  Immutable; equal
    to a form of the same class with the same fields, and hashed by them.
    """

    __slots__ = ("p", "n", "terms")

    def __init__(self, p: int, n: int, terms: tuple[tuple[int, int, int], ...]):
        _check_digit_terms(p, n, [(range(n), terms)])
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("CanonicalForm is immutable")

    def __delattr__(self, name):
        raise AttributeError("CanonicalForm is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.n, self.terms) == (other.p, other.n, other.terms)

    def __hash__(self):
        return hash((self.p, self.n, self.terms))

    def __repr__(self):
        return f"CanonicalForm(p={self.p!r}, n={self.n!r}, terms={self.terms!r})"

    def to_polynomial(self) -> Polynomial:
        return _falling_combination(self.p, self.n, self.terms)

    def to_json_dict(self) -> dict:
        return {"p": self.p, "n": self.n, "terms": [list(t) for t in self.terms]}


def _digit_terms(p: int, coeffs) -> tuple[tuple[int, int, int], ...]:
    """Base-p digits of the reduced coefficients c_j of (x)_j, j = 0, 1, ...,
    as (i, j, a) terms sorted by (j, i), in one loop over them all."""
    out = []
    for j, c in enumerate(coeffs):
        i = 0
        while c:
            c, a = divmod(c, p)
            if a:
                out.append((i, j, a))
            i += 1
    return tuple(out)


@lru_cache(maxsize=None)
def _newton_scales(p: int, n: int) -> tuple[tuple[int, int, int], ...]:
    """(p^v, w, p^(n - v)) for each j < beta(p, n), v = v_p(j!) and w the
    inverse of j! / p^v mod p^(n - v)."""
    out, unit, m = [], 1, p**n
    for j in range(beta(p, n)):
        k = j or 1
        while k % p == 0:
            k //= p
        unit = unit * k % m
        v = vp_factorial(p, j)
        out.append((p**v, pow(unit, -1, p ** (n - v)), p ** (n - v)))
    return tuple(out)


@lru_cache(maxsize=None)
def _difference_rows(p: int, n: int, count: int) -> tuple[int, tuple[int, ...]]:
    """(nb, rows): row i < count holds (-1)^(j - i) C(j, i) mod p^n at slot
    j < count, 0 for j < i, packed at nb bytes a slot, and a slot of nb bytes
    holds a sum of count products below (p^n)^2."""
    m = p**n
    nb = slot_bytes(count * (m - 1) ** 2)
    return nb, tuple(
        pack([(-1) ** (i + j) * comb(j, i) % m for j in range(count)], nb) for i in range(count)
    )


def _table_digits(values, p: int, n: int) -> tuple[tuple[int, int, int], ...]:
    """Digit terms, sorted by (j, i) and unchecked, of [f] mod p^n for an
    integer polynomial f of degree below len(values) whose values at
    0, 1, 2, ... are values mod p^n; at most beta(p, n) of them are read.

    If f = sum_j b_j (x)_j, Newton's forward-difference formula gives
    Delta^j f(0) = sum_i (-1)^(j - i) C(j, i) f(i) = j! b_j, and b_j = 0 from
    j = len(values) on.  Every Delta^j f(0) mod p^n comes out of one packed
    sum: each value, reduced mod p^n, times its row of _difference_rows.
    With v = v_p(j!) < n, the difference mod p^n is divisible by p^v, and
    b_j mod p^(n - v), the coefficient the form keeps, is that quotient
    times the inverse of j! / p^v; all of them are split into base-p digits
    at once (_digit_terms)."""
    m, scales = p**n, _newton_scales(p, n)
    count = min(len(values), len(scales))
    nb, rows = _difference_rows(p, n, count)
    diffs = unpack(sum([v % m * row for v, row in zip(values, rows)]), count, nb)
    return _digit_terms(p, [d % m // pv * w % radix for d, (pv, w, radix) in zip(diffs, scales)])


def canonicalize(f: Polynomial, p: int, n: int) -> CanonicalForm:
    """Canonical form of the function [f] mod p^n: its digit terms, read off
    the table of f on Z_{p^n}, re-induced and compared against that table;
    a mismatch raises rather than returning a wrong form.
    """
    if f.ring is not None:
        raise ValueError("expected integer coefficients")
    ring = _zpn(p, n)
    table = induce(f, ring)
    form = CanonicalForm(p, n, _table_digits(table.values[:len(f.coeffs)], p, n))
    if induce(form.to_polynomial(), ring) != table:
        raise RuntimeError("canonical form failed re-induction check")
    return form


def enumerate_canonical_forms(p: int, n: int, cap: int | None = None):
    """Yield the canonical forms of all polynomial functions mod p^n."""
    check_cap(count_polynomial_functions(p, n), cap, "canonical form enumeration")
    radices = [p ** (n - vp_factorial(p, j)) for j in range(beta(p, n))]
    for digits in itertools.product(*map(range, radices)):
        yield CanonicalForm(p, n, _digit_terms(p, digits))


def count_polynomial_functions(p: int, n: int) -> int:
    """Number of functions on Z_{p^n} induced by polynomials (printable_power)."""
    beta(p, n)  # validates arguments
    return printable_power(p, sum(beta(p, k) for k in range(1, n + 1)))


def count_unit_valued_functions(p: int, n: int) -> int:
    """Number of unit-valued polynomial functions on Z_{p^n} (printable_power)."""
    beta(p, n)
    top = printable_power(p, sum(beta(p, k) for k in range(2, n + 1)))
    return printable(printable_power(p - 1, p) * top)


def count_null_derivatives(p: int, n: int) -> int:
    """|H|, H the functions [g'] on Z_{p^n} of the polynomials g with
    [g] = 0 there: the stabilizer's order in the dual group of Z_{p^n}.

    g is null iff p^(n - v_p(k!)) divides its coefficient b_k of (x)_k, and
    reducing g by the monic (x)_beta^2, beta = beta(p, n), which is null
    with its derivative, keeps [g']; so H is spanned by the
    [p^max(0, n - v_p(k!)) (x)_k'] for k < 2 beta, and k < p gives 0.  A
    polynomial function is fixed by its forward differences
    Delta^i f(0), i < beta, and those of (x)_k' are
    (-1)^(k - i - 1) k! / (k - i) for i < k, so |H| is the order of their
    span mod p^n, read off its triangular basis (funcspace._merge) as the
    product of p^n / pivot.  For n < p that is p^(n p), with no module:
    Taylor's formula at x + p makes every [g'] zero mod p^(n - 1), which
    leaves p^beta functions, and the generators for k = i + p, i < beta,
    are triangular with pivots of order p."""
    b, m = beta(p, n), p**n
    if n < p:
        return p ** b
    rows = [[m * (i == j) for i in range(b)] for j in range(b)]
    for k in range(p, 2 * b):
        scale = p ** max(0, n - vp_factorial(p, k)) * factorial(k)
        _merge(rows, [(-1) ** (k - i - 1) * scale // (k - i) % m for i in range(min(k, b))]
               + [0] * (b - k), m)
    return prod(m // rows[j][j] for j in range(b))


def uv_table_index(values, p: int) -> int:
    """1-based rank of a unit-valued table on Z_p in lexicographic order."""
    values = tuple(values)
    if len(values) != p:
        raise ValueError(f"table must have {p} entries")
    rank = 0
    for v in values:
        if not 1 <= v < p:
            raise ValueError(f"value {v} is not a unit mod {p}")
        rank = rank * (p - 1) + (v - 1)
    return rank + 1


def uv_table_from_index(s: int, p: int) -> tuple[int, ...]:
    """Inverse of uv_table_index: the s-th unit-valued table on Z_p."""
    if not 1 <= s <= (p - 1) ** p:
        raise ValueError(f"index {s} out of range")
    rank = s - 1
    out = []
    for _ in range(p):
        rank, d = divmod(rank, p - 1)
        out.append(d + 1)
    out.reverse()
    return tuple(out)


@lru_cache(maxsize=None)
def _lagrange_rows(p: int) -> tuple[int, tuple[int, ...]]:
    """(nb, rows): row a holds the coefficients of the Lagrange basis
    polynomial L_a = 1 - (x - a)^(p - 1) mod p, constant term first:
    1 - a^(p - 1), then -a^(p - 1 - k) for k = 1 .. p - 1 (0^0 = 1), as
    C(p - 1, k) = (-1)^k mod p.  Each is packed at nb bytes a slot, and a
    slot of nb bytes holds a sum of p products below p^2."""
    nb = slot_bytes(p * (p - 1) ** 2)
    rows = ([(1 - pow(a, p - 1, p)) % p] + [-pow(a, p - 1 - k, p) % p for k in range(1, p)]
            for a in range(p))
    return nb, tuple(pack(row, nb) for row in rows)


def _leading_term(table, p: int) -> list[int]:
    """The coefficients, constant term first and no trailing zeros, of the
    polynomial of degree below p with coefficients in [0, p) whose values
    at 0 .. p - 1 are the table's, each in [0, p): sum_a T(a) L_a mod p,
    one packed multiply-add over _lagrange_rows.  An interpolant of degree
    below p over F_p is unique, so it is the canonical form mod p of every
    polynomial that induces the table."""
    nb, rows = _lagrange_rows(p)
    coeffs = [c % p for c in unpack(sum([v * row for v, row in zip(table, rows)]), p, nb)]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def leading_representative(p: int, s: int) -> Polynomial:
    """Canonical integer polynomial inducing the s-th unit table T mod p.

    This is the canonical form mod p of any interpolant of T, written out:
    the unique polynomial of degree below p with coefficients in [0, p)
    inducing T, summed from T's values and the packed Lagrange rows of p
    (_leading_term).
    """
    return Polynomial(_leading_term(uv_table_from_index(s, p), p))


class UnitValuedCanonicalForm:
    """Layered normal form of a unit-valued polynomial function mod p^n.

    s ranks the induced unit table mod p; layer k = 2 .. n holds the digit
    terms with i + v_p(j!) = k - 1, which adjust the function mod p^k without
    disturbing it mod p^{k-1}.  Immutable, compared and hashed as
    CanonicalForm.
    """

    __slots__ = ("p", "n", "s", "layers")

    def __init__(
        self, p: int, n: int, s: int,
        layers: tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...],
    ):
        if tuple(k for k, _ in layers) != tuple(range(2, n + 1)):
            raise ValueError("layers must cover k = 2 .. n in order")
        _check_digit_terms(p, n, [(range(k - 1, k), terms) for k, terms in layers])
        if not 1 <= s <= (p - 1) ** p:
            raise ValueError(f"leading index {s} out of range")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "layers", layers)

    def __setattr__(self, name, value):
        raise AttributeError("UnitValuedCanonicalForm is immutable")

    def __delattr__(self, name):
        raise AttributeError("UnitValuedCanonicalForm is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.n, self.s, self.layers) == (other.p, other.n, other.s, other.layers)

    def __hash__(self):
        return hash((self.p, self.n, self.s, self.layers))

    def __repr__(self):
        return (
            f"UnitValuedCanonicalForm(p={self.p!r}, n={self.n!r}, s={self.s!r}, "
            f"layers={self.layers!r})"
        )

    def to_polynomial(self) -> Polynomial:
        lead = leading_representative(self.p, self.s).coeffs
        terms = (t for _, layer in self.layers for t in layer)
        return _falling_combination(self.p, self.n, terms, lead)

    def to_json_dict(self) -> dict:
        # layers keyed by stringified level so the object round-trips as JSON
        return {
            "p": self.p,
            "n": self.n,
            "s": self.s,
            "layers": {str(k): [list(t) for t in terms] for k, terms in self.layers},
        }


def canonicalize_unit_valued(f: Polynomial, p: int, n: int) -> UnitValuedCanonicalForm:
    """Layered normal form of a unit-valued [f] mod p^n, in one pass.

    The table of [f] on Z_{p^n} decides that f is unit-valued, and its first
    p values mod p are the unit table that fixes the leading index s and
    the leading representative h, summed straight from that table and the
    packed Lagrange rows of p (_leading_term), with no pass through s.  The
    deficit f - h is null mod p, so its
    canonical form mod p^n has no term of depth i + v_p(j!) = 0; a term of
    depth k - 1 goes to layer k.

    The split is exact: the layers are the forms the per-level deficits
    canonicalize(f - h_{k-1}, p, k) would give, h_{k-1} being h plus the
    layers below k.  At level k the coefficient b_j of (x)_j is read mod
    p^(k - v_p(j!)), which keeps the low digits of its residue mod
    p^(n - v_p(j!)); the layers below k have removed exactly the digits
    below position k - 1 - v_p(j!), and removing a digit whose lower digits
    are zero borrows nothing, so the digit left at that position is the one
    the single form has.  The deficit's digits are read once, unchecked, off
    its table [f] - [h] on the first beta(p, n) points, or fewer when f - h
    has lower degree (_table_digits): the one re-induction of the whole form
    against the table of f covers them, as the form's polynomial is h plus
    the deficit's terms mod p^n, so [h + terms] = [f] exactly when
    [terms] = [f - h].
    """
    if f.ring is not None:
        raise ValueError("expected integer coefficients")
    ring = _zpn(p, n)
    table = induce(f, ring)
    if not table.is_unit_valued():
        raise ValueError(f"polynomial is not unit-valued mod {p}^{n}")
    unit = [v % p for v in table.values[:p]]
    s, h = uv_table_index(unit, p), _leading_term(unit, p)
    count = min(beta(p, n), max(len(f.coeffs), len(h)))
    deficit = map(int.__sub__, table.values[:count], ring.horner(h, range(count)))
    layers = [[] for _ in range(n - 1)]
    for i, j, a in _table_digits(list(deficit), p, n):
        depth = i + vp_factorial(p, j)
        if depth == 0:
            raise RuntimeError("deficit was not null mod p")
        layers[depth - 1].append((i, j, a))
    form = UnitValuedCanonicalForm(
        p, n, s, tuple((k, tuple(terms)) for k, terms in enumerate(layers, 2))
    )
    terms = (t for layer in layers for t in layer)
    if induce(_falling_combination(p, n, terms, h), ring) != table:
        raise RuntimeError("layered form failed re-induction check")
    return form


def _layer_slots(p: int, k: int) -> list[tuple[int, int]]:
    """(i, j) positions with i + v_p(j!) = k - 1, sorted by j."""
    return [(k - 1 - vp_factorial(p, j), j) for j in range(beta(p, k))]


def enumerate_unit_valued_forms(p: int, n: int, cap: int | None = None):
    """Yield the normal forms of all unit-valued polynomial functions mod p^n."""
    check_cap(count_unit_valued_functions(p, n), cap, "unit-valued form enumeration")
    slots = [(k, i, j) for k in range(2, n + 1) for i, j in _layer_slots(p, k)]
    for s in range(1, (p - 1) ** p + 1):
        for digits in itertools.product(range(p), repeat=len(slots)):
            layers = tuple(
                (k, tuple((i, j, a) for (lk, i, j), a in zip(slots, digits) if lk == k and a))
                for k in range(2, n + 1)
            )
            yield UnitValuedCanonicalForm(p, n, s, layers)
