"""Canonical forms and exact counts for polynomial functions on Z_{p^n}.

Every function induced by a polynomial mod p^n is induced by a unique reduced
combination of the scaled falling factorials p^i * (x)_j.  This module builds
that basis, canonicalizes polynomials against it, counts the function spaces
in closed form, and extends the normal form to the unit-valued case, where a
leading mod-p unit table is refined layer by layer through the powers of p.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .funcspace import _zpn, induce
from .poly import Polynomial, X
from .rings import check_cap, is_prime


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
    """Least k with p^n | k!; the degree cutoff for functions mod p^n."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("need n >= 1")
    k = 1
    while vp_factorial(p, k) < n:
        k += 1
    return k


@lru_cache(maxsize=None)
def falling_factorial(j: int) -> Polynomial:
    """(x)_j = x(x-1)...(x-j+1), an integer polynomial; (x)_0 = 1."""
    if j < 0:
        raise ValueError("need j >= 0")
    if j == 0:
        return Polynomial((1,))
    return falling_factorial(j - 1) * (X - (j - 1))


def _falling_combination(p: int, n: int, terms, start=()) -> Polynomial:
    """start + sum of a * p^i * (x)_j over the (i, j, a) terms, reduced mod
    p^n: coefficient lists are added and one Polynomial is built."""
    acc = list(start)
    for i, j, a in terms:
        c = a * p**i
        ff = falling_factorial(j).coeffs
        if len(acc) < len(ff):
            acc.extend([0] * (len(ff) - len(acc)))
        for k, e in enumerate(ff):
            acc[k] += c * e
    m = p**n
    return Polynomial([c % m for c in acc])


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
    """Number of kernel coefficient vectors: p to the number of basis pairs."""
    return p ** len(kernel_basis(p, n))


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


def _digit_terms(p: int, n: int, j: int, residual: int) -> list[tuple[int, int, int]]:
    """Base-p digits of the residual coefficient of (x)_j, as (i, j, a) terms."""
    v = vp_factorial(p, j)
    if v >= n:
        return []
    c = residual % p ** (n - v)
    out = []
    i = 0
    while c:
        c, a = divmod(c, p)
        if a:
            out.append((i, j, a))
        i += 1
    return out


def _falling_digits(f: Polynomial, p: int, n: int) -> tuple[tuple[int, int, int], ...]:
    """Digit terms of [f] mod p^n, sorted by (j, i), unchecked: f is expanded
    over falling factorials, the coefficient of (x)_j is reduced mod
    p^{n - v_p(j!)}, and the survivors are split into base-p digits."""
    b = falling_factorial_coefficients(f, beta(p, n))
    return tuple(t for j, coeff in enumerate(b) for t in _digit_terms(p, n, j, coeff))


def canonicalize(f: Polynomial, p: int, n: int) -> CanonicalForm:
    """Canonical form of the function [f] mod p^n: its digit terms, re-induced
    and compared against f on all of Z_{p^n}; a mismatch raises rather than
    returning a wrong form.
    """
    if f.ring is not None:
        raise ValueError("expected integer coefficients")
    form = CanonicalForm(p, n, _falling_digits(f, p, n))
    ring = _zpn(p, n)
    if induce(form.to_polynomial(), ring) != induce(f, ring):
        raise RuntimeError("canonical form failed re-induction check")
    return form


def enumerate_canonical_forms(p: int, n: int, cap: int | None = None):
    """Yield the canonical forms of all polynomial functions mod p^n."""
    check_cap(count_polynomial_functions(p, n), cap, "canonical form enumeration")
    radices = [p ** (n - vp_factorial(p, j)) for j in range(beta(p, n))]
    for digits in itertools.product(*map(range, radices)):
        terms = [t for j, c in enumerate(digits) for t in _digit_terms(p, n, j, c)]
        yield CanonicalForm(p, n, tuple(terms))


def count_polynomial_functions(p: int, n: int) -> int:
    """Number of functions on Z_{p^n} induced by polynomials, in closed form."""
    beta(p, n)  # validates arguments
    return p ** sum(beta(p, k) for k in range(1, n + 1))


def count_unit_valued_functions(p: int, n: int) -> int:
    """Number of unit-valued polynomial functions on Z_{p^n}, in closed form."""
    beta(p, n)
    return (p - 1) ** p * p ** sum(beta(p, k) for k in range(2, n + 1))


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


def leading_representative(p: int, s: int) -> Polynomial:
    """Canonical integer polynomial inducing the s-th unit table T mod p.

    This is the canonical form mod p of any interpolant of T: the sum of
    b_j (x)_j over j < p, reduced mod p.  By Newton's forward-difference
    formula b_j = Delta^j T(0) / j!, read mod p since j! is a unit for j < p;
    the differences at 0 use only T(0), ..., T(j), so they are taken on the
    table itself.
    """
    diffs = list(uv_table_from_index(s, p))
    terms = []
    fact = 1
    for j in range(p):
        fact *= j or 1
        b = diffs[0] * pow(fact, -1, p) % p
        if b:
            terms.append((0, j, b))
        diffs = [(v - u) % p for u, v in zip(diffs, diffs[1:])]
    return _falling_combination(p, 1, terms)


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
    the leading representative h.  The deficit f - h is null mod p, so its
    canonical form mod p^n has no term of depth i + v_p(j!) = 0; a term of
    depth k - 1 goes to layer k.

    The split is exact: the layers are the forms the per-level deficits
    canonicalize(f - h_{k-1}, p, k) would give, h_{k-1} being h plus the
    layers below k.  At level k the coefficient b_j of (x)_j is read mod
    p^(k - v_p(j!)), which keeps the low digits of its residue mod
    p^(n - v_p(j!)); the layers below k have removed exactly the digits
    below position k - 1 - v_p(j!), and removing a digit whose lower digits
    are zero borrows nothing, so the digit left at that position is the one
    the single form has.  The deficit is expanded once, unchecked: the one
    re-induction of the whole form against the table of f covers it, as the
    form's polynomial is h plus the deficit's terms mod p^n, so
    [h + terms] = [f] exactly when [terms] = [f - h].
    """
    if f.ring is not None:
        raise ValueError("expected integer coefficients")
    ring = _zpn(p, n)
    table = induce(f, ring)
    if not table.is_unit_valued():
        raise ValueError(f"polynomial is not unit-valued mod {p}^{n}")
    s = uv_table_index([v % p for v in table.values[:p]], p)
    h = leading_representative(p, s)
    layers = [[] for _ in range(n - 1)]
    for i, j, a in _falling_digits(f - h, p, n):
        depth = i + vp_factorial(p, j)
        if depth == 0:
            raise RuntimeError("deficit was not null mod p")
        layers[depth - 1].append((i, j, a))
    form = UnitValuedCanonicalForm(
        p, n, s, tuple((k, tuple(terms)) for k, terms in enumerate(layers, 2))
    )
    terms = (t for layer in layers for t in layer)
    if induce(_falling_combination(p, n, terms, h.coeffs), ring) != table:
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
