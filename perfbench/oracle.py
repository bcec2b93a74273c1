"""The answers the benchmark holds the program to, derived without the
functions under test.

Group orders and counts come from closed forms.  Function values come from
termwise evaluation, sum of c_k * a^k with the powers built by repeated
multiplication, using nothing of the program but a ring's add, mul and
from_int.  A check raises OracleError on a wrong answer and returns None on
a right one.
"""

from __future__ import annotations

import json
import math


class OracleError(Exception):
    """The program's answer disagrees with the oracle."""


class KnownFalseFail(OracleError):
    """A verify check failed, and the oracle knows that failure to be false."""


# Checks that `verify` fails although what they test holds.  The benchmark
# counts them as failed ops and names them; it does not drop them.
KNOWN_FALSE_FAILS = {
    "groups[embedding:zm:6]": (
        "cli._check_embedding requires report.surjective == base.is_field, but "
        "Z_6 = F_2 x F_3 is not a field and its 96 dual permutations fill the "
        "whole semidirect product (12 permutation tables x 8 unit-valued "
        "tables), so surjective=True is right"
    ),
}

# |dual permutation group| over F_q is q!(q-1)^q (1944 for q = 4).  Over
# Z_6 = F_2 x F_3 it is the product 2 * 48; over Z_4 it is 32.
DUAL_GROUP_ORDER = {"fq:4": math.factorial(4) * 3**4, "zm:6": 2 * 48, "zpn:2,2": 32}
# The pointwise stabilizer of the base: (q-1)^q over F_q, 1 * 2^3 over Z_6.
STABILIZER_ORDER = {"fq:4": 3**4, "zm:6": 8}


def vp_factorial(p: int, j: int) -> int:
    """Exponent of p in j!, by dividing j! itself."""
    k, fact = 0, math.factorial(j)
    while fact % p == 0:
        fact //= p
        k += 1
    return k


def beta(p: int, n: int) -> int:
    """Least k with p^n dividing k!."""
    k = 0
    while math.factorial(k) % p**n:
        k += 1
    return k


def count_polynomial_functions(p: int, n: int) -> int:
    """Functions mod p^n induced by polynomials (Kempner; Keller and Olson)."""
    return p ** sum(max(n - vp_factorial(p, j), 0) for j in range(beta(p, n)))


def count_unit_valued_functions(p: int, n: int) -> int:
    """Reduction mod p maps polynomial functions onto those mod p with equal
    fibres, and (p-1)^p of the p^p functions mod p are unit-valued."""
    return (p - 1) ** p * count_polynomial_functions(p, n) // p**p


def count_kernel(p: int, n: int) -> int:
    """Polynomial functions mod p^n with every value divisible by p^(n-1):
    one free digit per falling factorial (x)_j with j < beta(p, n)."""
    return p ** beta(p, n)


def parse_terms(text: str) -> dict[int, int]:
    """{degree: coefficient} of a polynomial printed as 'c*x^k + ... - c'."""
    out: dict[int, int] = {}
    if text.strip() == "0":
        return out
    sign = 1
    for token in text.replace("-", " - ").replace("+", " + ").split():
        if token in "+-":
            sign = -1 if token == "-" else 1
            continue
        coeff, star, power = token.partition("*")
        if not star:
            coeff, power = ("1", token) if token.startswith("x") else (token, "")
        if power == "":
            degree = 0
        elif power == "x":
            degree = 1
        elif power.startswith("x^"):
            degree = int(power[2:])
        else:
            raise OracleError(f"cannot read term {token!r}")
        out[degree] = out.get(degree, 0) + sign * int(coeff)
    return out


class RingOracle:
    """Termwise evaluation over one ring, with its units found by search."""

    def __init__(self, ring):
        self.ring = ring
        self.elements = ring.elements
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.zero, self.one = ring.zero, ring.one
        self.units = frozenset(
            u for u in self.elements
            if any(ring.mul(u, s) == self.one for s in self.elements))

    def from_printed(self, c: int):
        """A printed coefficient: a residue, or an element index in a field."""
        if self.ring.integer_encoded:
            return self.ring.from_int(c)
        return self.elements[c]

    def values(self, coeffs: list) -> list:
        """f(a) for every element a, f given by ring coefficients, lowest first."""
        add, mul = self.ring.add, self.ring.mul
        out = []
        for a in self.elements:
            acc, power = self.zero, self.one
            for c in coeffs:
                acc = add(acc, mul(c, power))
                power = mul(power, a)
            out.append(acc)
        return out

    def derivative(self, coeffs: list) -> list:
        mul = self.ring.mul
        return [mul(self.ring.from_int(k), c) for k, c in enumerate(coeffs)][1:]

    def dual_values(self, coeffs: list) -> list:
        """f(a + b*al) for every pair (a, b), multiplying in base x base with
        (a, b)(c, d) = (ac, ad + bc)."""
        add, mul = self.ring.add, self.ring.mul
        out = []
        for a in self.elements:
            for b in self.elements:
                acc = (self.zero, self.zero)
                power = (self.one, self.zero)
                for c in coeffs:
                    acc = (add(acc[0], mul(c, power[0])), add(acc[1], mul(c, power[1])))
                    power = (mul(power[0], a), add(mul(power[0], b), mul(power[1], a)))
                out.append(acc)
        return out

    # -- the four predicates, on integer coefficients ---------------------

    def predicate(self, prop: str, int_coeffs: list[int]) -> bool:
        coeffs = [self.ring.from_int(c) for c in int_coeffs]
        if prop == "permutes_dual":
            return len(set(self.dual_values(coeffs))) == len(self.elements) ** 2
        vals = self.values(coeffs)
        if prop == "is_permutation":
            return len(set(vals)) == len(self.elements)
        if prop == "is_null":
            return all(v == self.zero for v in vals)
        if prop == "is_unit_valued":
            return all(v in self.units for v in vals)
        raise ValueError(f"unknown predicate {prop!r}")


def _falling(ro: RingOracle, x, j: int):
    acc = ro.one
    for t in range(j):
        acc = ro.ring.mul(acc, ro.ring.add(x, ro.ring.from_int(-t)))
    return acc


def interpolant(table, p: int) -> list[int]:
    """The Newton interpolant sum(b_j (x)_j) of a table on Z_p, expanded, with
    its coefficients reduced into [0, p): the program's leading representative
    of a unit table mod p."""
    diffs, coeffs, falling = list(table), [0], [1]
    for j in range(p):
        b = diffs[0] * pow(math.factorial(j), -1, p) % p
        coeffs = [(coeffs[k] if k < len(coeffs) else 0) + b * c
                  for k, c in enumerate(falling)]
        falling = [(falling[k - 1] if k else 0) - j * (falling[k] if k < len(falling) else 0)
                   for k in range(len(falling) + 1)]
        diffs = [(diffs[t + 1] - diffs[t]) % p for t in range(len(diffs) - 1)]
    return [c % p for c in coeffs]


def _check_digit_terms(terms, p: int, n: int, depth=None) -> None:
    prev = None
    for term in terms:
        i, j, a = term
        if i < 0 or j < 0 or not 1 <= a < p:
            raise OracleError(f"term {term} is not a base-{p} digit term")
        level = i + vp_factorial(p, j)
        if level >= n or (depth is not None and level != depth):
            raise OracleError(f"term {term} is out of place mod {p}^{n}")
        if prev is not None and (j, i) <= prev:
            raise OracleError("terms are not strictly sorted by (j, i)")
        prev = (j, i)


def _check_same_function(ro: RingOracle, int_coeffs, p: int, lead, terms) -> None:
    """Whether the integer polynomial `lead` plus sum(a p^i (x)_j) over the
    terms equals f at every point."""
    ring = ro.ring
    want = ro.values([ro.ring.from_int(c) for c in int_coeffs])
    got = ro.values([ro.ring.from_int(c) for c in lead])
    for x, fx, acc in zip(ro.elements, want, got):
        for i, j, a in terms:
            acc = ring.add(acc, ring.mul(ro.ring.from_int(a * p**i), _falling(ro, x, j)))
        if acc != fx:
            raise OracleError(f"form differs from the input at x = {x}")


def check_canonical_form(form, int_coeffs, p: int, n: int, ro: RingOracle) -> None:
    """A form is right when its digit terms are in normal position and it
    induces the input's function; such a form is unique."""
    if (form.p, form.n) != (p, n):
        raise OracleError(f"form is mod {form.p}^{form.n}, not {p}^{n}")
    _check_digit_terms(form.terms, p, n)
    _check_same_function(ro, int_coeffs, p, (), form.terms)


def check_unit_valued_form(form, int_coeffs, p: int, n: int, ro: RingOracle) -> None:
    """The leading index ranks the table mod p, and layer k holds terms at
    depth k - 1; with the leading representative they make up f mod p^n."""
    if (form.p, form.n) != (p, n):
        raise OracleError(f"form is mod {form.p}^{form.n}, not {p}^{n}")
    table = [sum(c * x**k for k, c in enumerate(int_coeffs)) % p for x in range(p)]
    if 0 in table:
        raise OracleError("input is not unit-valued")
    s = 1 + sum((v - 1) * (p - 1) ** (p - 1 - x) for x, v in enumerate(table))
    if form.s != s:
        raise OracleError(f"leading index {form.s}, expected {s}")
    if tuple(k for k, _ in form.layers) != tuple(range(2, n + 1)):
        raise OracleError("layers do not cover 2..n in order")
    terms = []
    for k, layer in form.layers:
        _check_digit_terms(layer, p, n, depth=k - 1)
        terms.extend(layer)
    _check_same_function(ro, int_coeffs, p, interpolant(table, p), terms)


# -- CLI outputs --------------------------------------------------------------


def _load(rc: int, text: str, want_rc: int = 0) -> dict:
    if rc != want_rc:
        raise OracleError(f"exit code {rc}, expected {want_rc}")
    try:
        return json.loads(text)
    except ValueError:
        raise OracleError("output is not JSON") from None


def check_verify(rc: int, text: str) -> None:
    """Every check passes; a failure the oracle knows to be false raises
    KnownFalseFail instead of OracleError."""
    doc = _load(rc, text, want_rc=rc if rc in (0, 4) else 0)
    checks = doc.get("checks") or []
    if not checks:
        raise OracleError("verify reported no checks")
    failing = {c["name"] for c in checks if c["passed"] is not True}
    if doc.get("failed") != len(failing) or (rc == 4) != bool(failing):
        raise OracleError("exit code and failure count disagree with the checks")
    if failing and failing <= KNOWN_FALSE_FAILS.keys():
        raise KnownFalseFail(", ".join(sorted(failing)))
    if failing:
        raise OracleError(f"checks failed: {', '.join(sorted(failing))}")


def check_count(rc: int, text: str, what: str, p: int, n: int) -> None:
    doc = _load(rc, text)
    formula = {"uvpf": count_unit_valued_functions, "kernel": count_kernel}[what](p, n)
    if doc.get("formula") != formula or doc.get("brute_force") != formula:
        raise OracleError(f"{what} mod {p}^{n}: expected {formula}, got "
                          f"formula {doc.get('formula')}, brute force {doc.get('brute_force')}")
    if doc.get("agreement") is not True:
        raise OracleError("agreement is not true")


def _check_order(doc: dict, order: int) -> list:
    items = doc.get("items") or []
    if doc.get("count") != order or len(items) != order:
        raise OracleError(f"group order {doc.get('count')} with {len(items)} items, "
                          f"expected {order}")
    return items


def check_dual_group(rc: int, text: str, ro: RingOracle, order: int) -> None:
    """The group order, and each element realized by its witness: the witness
    f has [f] = perm and [f'] = unit, a permutation and a unit table."""
    doc = _load(rc, text)
    if doc.get("dual") is not True:
        raise OracleError("not the dual permutation group")
    items = _check_order(doc, order)
    q = len(ro.elements)
    unit_idx = {ro.index[u] for u in ro.units}
    seen = set()
    for item in items:
        perm, unit = tuple(item["perm"]), tuple(item["unit"])
        if sorted(perm) != list(range(q)) or not set(unit) <= unit_idx:
            raise OracleError(f"element {item} is not a permutation with unit table")
        terms = parse_terms(item["witness"])
        coeffs = [ro.from_printed(terms.get(k, 0)) for k in range(max(terms, default=0) + 1)]
        got_perm = tuple(ro.index[v] for v in ro.values(coeffs))
        got_unit = tuple(ro.index[v] for v in ro.values(ro.derivative(coeffs)))
        if (got_perm, got_unit) != (perm, unit):
            raise OracleError(f"witness {item['witness']} does not realize {item}")
        seen.add((perm, unit))
    if len(seen) != order:
        raise OracleError("repeated group elements")


def check_stabilizer(rc: int, text: str, ro: RingOracle, order: int) -> None:
    """The stabilizer order, and each element x + g with g null and the unit
    table equal to [1 + g']."""
    doc = _load(rc, text)
    items = _check_order(doc, order)
    unit_idx = {ro.index[u] for u in ro.units}
    seen = set()
    for item in items:
        unit = tuple(item["unit"])
        terms = parse_terms(item["null_part"])
        coeffs = [ro.from_printed(terms.get(k, 0)) for k in range(max(terms, default=0) + 1)]
        if any(v != ro.zero for v in ro.values(coeffs)):
            raise OracleError(f"null part {item['null_part']} is not null")
        d = ro.derivative(coeffs) or [ro.zero]
        d[0] = ro.ring.add(d[0], ro.one)
        if tuple(ro.index[v] for v in ro.values(d)) != unit or not set(unit) <= unit_idx:
            raise OracleError(f"unit table of {item} is wrong")
        seen.add(unit)
    if len(seen) != order:
        raise OracleError("repeated stabilizer elements")
