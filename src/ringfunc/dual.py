"""Dual-number extensions R[al] = {a + b*al : al^2 = 0} over a finite base ring.

Elements are explicit (a, b) pairs of base encodings, never quotient-ring
residues, so the evaluation shortcuts and the pair bookkeeping used by the
group machinery are plain field accesses.  A polynomial with base coefficients
evaluates at a + b*al to f(a) + b*f'(a)*al; with an al-part g2 added, to
g1(a) + (b*g1'(a) + g2(a))*al.  Both laws are implemented directly and are
cross-checked against straight Horner evaluation in the dual ring.
"""

from __future__ import annotations

from typing import NamedTuple

from .poly import Polynomial
from .rings import DEFAULT_RING_SIZE_CAP, Ring, SizeCapError


class DualRing(Ring):
    """R[al] over an enumerable base; |R|^2 elements as (a, b) pairs.

    Enumeration order is row-major in the base order: (a_0, b_0), (a_0, b_1),
    ...; the base ring embeds as the pairs (a, 0).
    """

    kind = "dual"

    def __init__(self, base: Ring, *, size_cap: int | None = None):
        super().__init__()
        if isinstance(base, DualRing):
            raise ValueError("nested dual extensions are not supported")
        cap = DEFAULT_RING_SIZE_CAP if size_cap is None else size_cap
        size = base.size * base.size
        if size > cap:
            raise SizeCapError(f"dual ring of size {size} exceeds size cap {cap}")
        self.base = base
        self.size = size
        self.descriptor = f"dual:{base.descriptor}"
        self.elements = tuple((a, b) for a in base.elements for b in base.elements)
        self.zero = (base.zero, base.zero)
        self.one = (base.one, base.zero)

    def add(self, x, y):
        base = self.base
        return (base.add(x[0], y[0]), base.add(x[1], y[1]))

    def neg(self, x):
        base = self.base
        return (base.neg(x[0]), base.neg(x[1]))

    def mul(self, x, y):
        # (a + b*al)(c + d*al) = ac + (ad + bc)*al, since al^2 = 0
        base = self.base
        a, b = x
        c, d = y
        return (base.mul(a, c), base.add(base.mul(a, d), base.mul(b, c)))

    def from_int(self, k: int):
        return (self.base.from_int(k), self.base.zero)

    def embed(self, x):
        """The base element x as the dual element x + 0*al."""
        return (x, self.base.zero)

    def index(self, x) -> int:
        base = self.base
        return base.index(x[0]) * base.size + base.index(x[1])

    def is_unit(self, x) -> bool:
        # (a + b*al)(c + d*al) = 1 forces ac = 1, so exactly the base units lift
        return self.base.is_unit(x[0])

    def inverse(self, x):
        base = self.base
        a, b = x
        ia = base.inverse(a)
        return (ia, base.neg(base.mul(base.mul(ia, ia), b)))


def dual_ring(base: Ring, *, size_cap: int | None = None) -> DualRing:
    """Dual-number extension of base; rejects nested duals and oversize rings."""
    return DualRing(base, size_cap=size_cap)


class DualPolynomial(NamedTuple):
    """g = g1 + g2*al with base-ring coefficient polynomials g1, g2."""

    g1: Polynomial
    g2: Polynomial


def eval_dual(g: Polynomial, base: Ring, a, b) -> tuple:
    """Evaluate the base-coefficient polynomial g at a + b*al.

    Returns the dual encoding (g(a), b*g'(a)) without touching the dual ring.
    """
    ga = g.eval(base, a)
    da = g.derive().eval(base, a)
    return (ga, base.mul(b, da))


def eval_dual_poly(g: DualPolynomial, base: Ring, a, b) -> tuple:
    """Evaluate g = g1 + g2*al at a + b*al: (g1(a), b*g1'(a) + g2(a))."""
    g1a = g.g1.eval(base, a)
    d1a = g.g1.derive().eval(base, a)
    g2a = g.g2.eval(base, a)
    return (g1a, base.add(base.mul(b, d1a), g2a))


def horner_dual(g, dual: DualRing, points):
    """Straight Horner evaluation in the dual ring at each (a, b) of points.

    Takes a DualPolynomial g1 + g2*al or a plain base-coefficient Polynomial.
    Its coefficients are read once, as dual elements from the top degree
    down; each point then costs one dual multiply and one dual add per
    coefficient.  Yields the (a, b) encoding of each value, in point order
    and lazily, so a caller may stop at the first value it needs.
    Independent of the shortcut laws; used as their oracle.
    """
    base = dual.base
    if isinstance(g, DualPolynomial):
        c1s = g.g1._coeffs_for(base)
        c2s = g.g2._coeffs_for(base)
    else:
        c1s = g._coeffs_for(base)
        c2s = ()
    zero = base.zero
    coeffs = [
        (c1s[k] if k < len(c1s) else zero, c2s[k] if k < len(c2s) else zero)
        for k in range(max(len(c1s), len(c2s)) - 1, -1, -1)
    ]
    add, mul = dual.add, dual.mul
    for point in points:
        acc = dual.zero
        for c in coeffs:
            acc = add(mul(acc, point), c)
        yield acc


def format_dual_element(dual: DualRing, x) -> str:
    """Serialize a dual element as 'a+b*al'.

    Base parts are written as residues for integer-encoded bases and as
    enumeration indices otherwise.
    """
    a, b = x
    base = dual.base
    return f"{base.index(a)}+{base.index(b)}*al"


def parse_dual_element(dual: DualRing, text: str):
    """Parse 'a', 'b*al' or 'a+b*al' into a dual encoding pair."""
    base = dual.base
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty dual element")

    def base_part(tok: str):
        try:
            value = int(tok)
        except ValueError:
            raise ValueError(f"malformed dual element {text!r}") from None
        if not 0 <= value < base.size:
            raise ValueError(f"part {value} out of range for {base.descriptor}")
        return base.elements[value]

    if "+" in s:
        left, _, right = s.partition("+")
        if not right.endswith("*al"):
            raise ValueError(f"malformed dual element {text!r}")
        return (base_part(left), base_part(right[:-3]))
    if s.endswith("*al"):
        return (base.zero, base_part(s[:-3]))
    return (base_part(s), base.zero)
