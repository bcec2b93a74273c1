"""Finite commutative rings with explicit element enumeration.

Supported kinds: Z_m (modular residues, prime powers recorded as such), the
extension fields F_q = F_p[t]/(modulus), q = p^m with m >= 2 and a
deterministically chosen modulus, and the dual-number extension built in the
dual module.  The prime field F_p is the residue ring Z_p under the
descriptor fq:p, one implementation for both.  Element encodings are
canonical data, not symbols: residues are ints in [0, m-1], extension field
elements are coefficient vectors of length m over [0, p-1], dual elements
are pairs.  Enumeration order is fixed and documented per kind because value
tables, serializations and test vectors all index into it.

Polynomials are evaluated by Ring.horner.  Residue rings do plain integer
Horner with one reduction per step.  Extension fields add, multiply,
negate, invert and evaluate on Zech-log tables of O(q) entries, built on
first use; the convolution product of coefficient vectors reduced by the
modulus is the definition they are built from and the tests' oracle.
"""

from __future__ import annotations

import itertools
import math
import os
from functools import cached_property

from .poly import Polynomial

DEFAULT_RING_SIZE_CAP = 1 << 16
DEFAULT_ENUMERATION_CAP = 10_000_000

CAP_ENV_VAR = "RINGFUNC_CAP"


class SizeCapError(ValueError):
    """An operation would enumerate past its configured size cap."""


def enumeration_cap() -> int:
    """Default cap on enumeration sizes; RINGFUNC_CAP overrides it."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{CAP_ENV_VAR} must be positive, got {value}")
    return value


def resolve_cap(cap: int | None) -> int:
    return enumeration_cap() if cap is None else cap


def check_cap(count: int, cap: int | None, what: str) -> None:
    limit = resolve_cap(cap)
    if count > limit:
        raise SizeCapError(f"{what}: {count} exceeds cap {limit}")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_power_decomposition(m: int) -> tuple[int, int] | None:
    """(p, n) with m = p**n for prime p, or None."""
    if m < 2:
        return None
    for p in range(2, m + 1):
        if p * p > m:
            return (m, 1) if m > 1 else None
        if m % p == 0:
            n = 0
            q = m
            while q % p == 0:
                q //= p
                n += 1
            return (p, n) if q == 1 else None
    return None


class Ring:
    """Base class: a finite commutative ring with enumerated elements.

    Identity is the descriptor string, so two handles built from the same
    descriptor compare equal and can be mixed freely.
    """

    kind = "abstract"
    integer_encoded = False

    def __init__(self):
        self._tables = {}

    # subclasses set: size, elements, descriptor, zero, one

    def add(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def horner(self, coeffs, points) -> list:
        """The values of sum_k coeffs[k] x^k at each of the points, by
        Horner's rule; coeffs are encodings, lowest degree first.  Residue
        rings and extension fields replace this add/mul loop with their own
        arithmetic."""
        add, mul, zero = self.add, self.mul, self.zero
        rev = coeffs[::-1]
        out = []
        for r in points:
            acc = zero
            for c in rev:
                acc = add(mul(acc, r), c)
            out.append(acc)
        return out

    def from_int(self, k: int):
        """The canonical image of the integer k."""
        raise NotImplementedError

    def index(self, x) -> int:
        """Position of the encoding x in the element enumeration."""
        raise NotImplementedError

    def is_unit(self, x) -> bool:
        raise NotImplementedError

    def inverse(self, x):
        raise NotImplementedError

    @property
    def is_field(self) -> bool:
        return False

    def units(self) -> tuple:
        """Unit encodings in enumeration order."""
        if "units" not in self._tables:
            self._tables["units"] = tuple(x for x in self.elements if self.is_unit(x))
        return self._tables["units"]

    @cached_property
    def _index(self) -> dict:
        """The enumeration index of each encoding."""
        return {e: i for i, e in enumerate(self.elements)}

    # -- index-based tables for enumeration-heavy callers -------------

    def index_op_tables(self) -> tuple[list[list[int]], list[list[int]]]:
        """(add, mul) tables on element indices; cached."""
        if "ops" not in self._tables:
            idx = self._index
            els = self.elements
            add_t = [[idx[self.add(a, b)] for b in els] for a in els]
            mul_t = [[idx[self.mul(a, b)] for b in els] for a in els]
            self._tables["ops"] = (add_t, mul_t)
        return self._tables["ops"]

    def unit_index_mask(self) -> list[bool]:
        if "umask" not in self._tables:
            self._tables["umask"] = [self.is_unit(e) for e in self.elements]
        return self._tables["umask"]

    def power_index_table(self, max_degree: int) -> list[list[int]]:
        """pw[d][i] = index of elements[i] ** d, for 0 <= d <= max_degree."""
        cached = self._tables.get("pw")
        if cached is not None and len(cached) > max_degree:
            return cached
        _, mul_t = self.index_op_tables()
        one_idx = self.index(self.one)
        pw = [[one_idx] * self.size]
        for d in range(1, max_degree + 1):
            prev = pw[-1]
            pw.append([mul_t[prev[i]][i] for i in range(self.size)])
        self._tables["pw"] = pw
        return pw

    # -- identity -----------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, Ring):
            return self.descriptor == other.descriptor
        return NotImplemented

    def __hash__(self):
        return hash(self.descriptor)

    def __repr__(self):
        return f"<ring {self.descriptor}, {self.size} elements>"


class ModularRing(Ring):
    """Z_m with canonical residues 0..m-1, enumerated in that order; for a
    prime m under the descriptor fq:m, the prime field F_m."""

    kind = "modular"
    integer_encoded = True

    def __init__(self, m: int, *, descriptor: str | None = None, size_cap: int | None = None):
        super().__init__()
        if m < 2:
            raise ValueError(f"modulus must be at least 2, got {m}")
        cap = DEFAULT_RING_SIZE_CAP if size_cap is None else size_cap
        if m > cap:
            raise SizeCapError(f"ring of size {m} exceeds size cap {cap}")
        self.m = m
        self.size = m
        self.elements = tuple(range(m))
        self.descriptor = descriptor or f"zm:{m}"
        self.zero = 0
        self.one = 1 % m
        self.prime_power = prime_power_decomposition(m)

    def add(self, x, y):
        return (x + y) % self.m

    def neg(self, x):
        return (-x) % self.m

    def mul(self, x, y):
        return (x * y) % self.m

    def horner(self, coeffs, points) -> list:
        # one reduction per step; coefficients may be any ints
        m = self.m
        rev = coeffs[::-1]
        out = []
        for r in points:
            acc = 0
            for c in rev:
                acc = (acc * r + c) % m
            out.append(acc)
        return out

    def from_int(self, k: int):
        return k % self.m

    def index(self, x) -> int:
        return x

    def is_unit(self, x) -> bool:
        return math.gcd(x, self.m) == 1

    def inverse(self, x):
        try:
            return pow(x, -1, self.m)
        except ValueError:
            raise ValueError(f"{x} is not a unit in {self.descriptor}") from None

    @property
    def is_field(self) -> bool:
        return is_prime(self.m)


class PrimePowerRing(ModularRing):
    """Z_{p^n}, the modular ring with the (p, n) structure recorded.

    The maximal ideal is exactly the multiples of p.
    """

    kind = "prime-power"

    def __init__(self, p: int, n: int, *, size_cap: int | None = None):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if n < 1:
            raise ValueError(f"exponent must be at least 1, got {n}")
        super().__init__(p ** n, descriptor=f"zpn:{p},{n}", size_cap=size_cap)
        self.p = p
        self.n = n


def _pp_normalize(coeffs: list[int], p: int) -> tuple[int, ...]:
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _pp_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _pp_normalize(out, p)


def _pp_mod(a, b, p):
    """Remainder of a modulo monic b, coefficients over F_p."""
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - db
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - lead * bi) % p
        a.pop()
    return _pp_normalize(a, p)


def _pp_powmod(a, e: int, f, p):
    """a^e modulo monic f over F_p, by square and multiply."""
    out = (1,)
    while e:
        if e & 1:
            out = _pp_mod(_pp_mul(out, a, p), f, p)
        e >>= 1
        if e:
            a = _pp_mod(_pp_mul(a, a, p), f, p)
    return out


def _pp_coprime(a, b, p) -> bool:
    """Whether gcd(a, b) over F_p is a nonzero constant."""
    while b:
        inv = pow(b[-1], -1, p)
        a, b = b, _pp_mod(a, _pp_normalize([c * inv for c in b], p), p)
    return len(a) == 1


def _pp_is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Rabin's test for monic f of degree m over F_p: f is irreducible iff
    x^(p^m) = x mod f and gcd(x^(p^(m/r)) - x, f) = 1 for every prime r
    dividing m.  The powers x^(p^k) mod f come from k Frobenius steps.

    A root a in F_p gives the linear factor x - a, so a candidate of degree
    2 or more with one is rejected first; in find_irreducible's order that
    settles the first p^(m-1) candidates, which have constant term zero, at
    once.
    """
    m = len(f) - 1
    if m > 1 and (not f[0] or any(not _pp_mod(f, (p - a, 1), p) for a in range(1, p))):
        return False
    x = _pp_mod((0, 1), f, p)
    cuts = {m // r for r in range(2, m + 1) if m % r == 0 and is_prime(r)}
    h = x
    for k in range(1, m + 1):
        h = _pp_powmod(h, p, f, p)
        if k in cuts:
            diff = list(h) + [0, 0]
            diff[1] -= 1
            if not _pp_coprime(f, _pp_normalize(diff, p), p):
                return False
    return h == x


def find_irreducible(p: int, m: int) -> Polynomial:
    """Lexicographically smallest monic irreducible of degree m over F_p.

    Candidates are compared by their coefficient vectors read from the
    constant term up; the search is exhaustive, so the choice is reproducible.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if m < 1:
        raise ValueError(f"degree must be at least 1, got {m}")
    for tail in itertools.product(range(p), repeat=m):
        candidate = tail + (1,)
        if _pp_is_irreducible(candidate, p):
            return Polynomial(candidate)
    raise AssertionError("no monic irreducible found, which cannot happen")


class FiniteField(Ring):
    """The extension field F_q with q = p**m, m >= 2.

    Elements are coefficient vectors (c_0, ..., c_{m-1}) meaning sum c_i t^i,
    enumerated by the integer value sum c_i p^i; the element at index k < p
    is then the image of the integer k.  The prime field F_p is the residue
    ring Z/p: make_ring("fq:p") builds it as a ModularRing.
    """

    kind = "finite-field"

    def __init__(self, p: int, m: int, *, size_cap: int | None = None):
        super().__init__()
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if m < 1:
            raise ValueError(f"extension degree must be at least 1, got {m}")
        if m == 1:
            raise ValueError(
                f"FiniteField holds extension fields only; make_ring('fq:{p}') "
                f"builds F_{p} as the residue ring"
            )
        q = p ** m
        cap = DEFAULT_RING_SIZE_CAP if size_cap is None else size_cap
        if q > cap:
            raise SizeCapError(f"ring of size {q} exceeds size cap {cap}")
        self.p = p
        self.extension_degree = m
        self.size = q
        self.descriptor = f"fq:{p},{m}"
        self.modulus = tuple(find_irreducible(p, m).coeffs)
        # c_0 fastest: the element at index k has the base-p digits of k
        self.elements = tuple(e[::-1] for e in itertools.product(range(p), repeat=m))
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)
        self._zero_log = 2 * (q - 1)  # the log of zero in _zech_tables

    def _conv_mul(self, x, y):
        """x*y by convolution and reduction by the modulus: the definition
        _zech_tables is built from, and the tests' oracle."""
        out = _pp_mod(_pp_mul(x, y, self.p), self.modulus, self.p)
        return out + (0,) * (self.extension_degree - len(out))

    def _conv_pow(self, x, k: int):
        out = _pp_powmod(x, k, self.modulus, self.p)
        return out + (0,) * (self.extension_degree - len(out))

    @cached_property
    def _zech_tables(self) -> tuple[dict, list, list]:
        """(log, exp, zech), built on first use from _conv_mul:
        log maps each element to its logarithm to g, the first primitive
        element in enumeration order, and zero to Z = 2(q - 1); exp lists
        g^0 .. g^(q-2) twice, then zero up to 2Z, so x*y = exp[log x + log y];
        zech[k] = log(1 + g^k), so g^a + g^b = exp[a + zech[b - a]]."""
        p, n1 = self.p, self.size - 1
        primes = [r for r in range(2, n1 + 1) if n1 % r == 0 and is_prime(r)]
        g = next(
            x for x in self.elements[p:]
            if all(self._conv_pow(x, n1 // r) != self.one for r in primes)
        )
        g = _pp_normalize(g, p)  # trimmed, so a product with g costs O(m deg g)
        powers = [self.one]
        for _ in range(n1 - 1):
            powers.append(self._conv_mul(g, powers[-1]))
        exp = powers * 2 + [self.zero] * (self._zero_log + 1)
        log = {x: k for k, x in enumerate(powers)}
        log[self.zero] = self._zero_log
        zech = [log[((x[0] + 1) % p,) + x[1:]] for x in powers]
        return log, exp, zech

    def add(self, x, y):
        log, exp, zech = self._zech_tables
        a, b = log[x], log[y]
        if a == self._zero_log:
            return y
        if b == self._zero_log:
            return x
        return exp[a + zech[b - a]]

    def neg(self, x):
        log, exp, _ = self._zech_tables
        # -1 is g^((q-1)/2) for odd q and g^0 for even q
        return exp[log[x] + (self.size - 1) // 2 * (self.p % 2)]

    def mul(self, x, y):
        log, exp, _ = self._zech_tables
        return exp[log[x] + log[y]]

    def horner(self, coeffs, points) -> list:
        log, exp, zech = self._zech_tables
        n1, Z = self.size - 1, self._zero_log
        rev = [log[c] for c in reversed(coeffs)]
        out = []
        for r in points:
            lr, acc = log[r], Z
            for lc in rev:
                # acc <- acc * r + c on logarithms, kept below q - 1 or at Z
                if acc == Z or lr == Z:
                    acc = lc
                    continue
                acc = (acc + lr) % n1
                if lc != Z:
                    acc += zech[lc - acc]
                    acc = Z if acc >= Z else acc % n1
            out.append(exp[acc])
        return out

    def from_int(self, k: int):
        return ((k % self.p),) + (0,) * (self.extension_degree - 1)

    def index(self, x) -> int:
        return self._index[x]

    def is_unit(self, x) -> bool:
        return x != self.zero

    def inverse(self, x):
        if x == self.zero:
            raise ValueError(f"0 is not a unit in {self.descriptor}")
        log, exp, _ = self._zech_tables
        return exp[self.size - 1 - log[x]]

    @property
    def is_field(self) -> bool:
        return True


def make_ring(spec: str, *, size_cap: int | None = None) -> Ring:
    """Build a ring from a descriptor.

    Grammar: ``zm:<m>``, ``zpn:<p>,<n>``, ``fq:<p>[,<m>]``,
    ``dual:<inner-descriptor>``.
    """
    if not isinstance(spec, str):
        raise ValueError(f"ring descriptor must be a string, got {spec!r}")
    head, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"malformed ring descriptor {spec!r}")
    if head == "dual":
        from .dual import dual_ring

        return dual_ring(make_ring(rest, size_cap=size_cap), size_cap=size_cap)
    try:
        params = [int(part) for part in rest.split(",")] if rest else []
    except ValueError:
        raise ValueError(f"malformed ring descriptor {spec!r}") from None
    if head == "zm":
        if len(params) != 1:
            raise ValueError(f"zm takes one parameter, got {spec!r}")
        return ModularRing(params[0], size_cap=size_cap)
    if head == "zpn":
        if len(params) != 2:
            raise ValueError(f"zpn takes two parameters, got {spec!r}")
        return PrimePowerRing(params[0], params[1], size_cap=size_cap)
    if head == "fq":
        if len(params) == 1:
            # one parameter is the order q, to be split as p^m
            pp = prime_power_decomposition(params[0])
            if pp is None:
                raise ValueError(f"field order must be a prime power, got {spec!r}")
            p, m = pp
        elif len(params) == 2:
            p, m = params
        else:
            raise ValueError(f"fq takes one or two parameters, got {spec!r}")
        if m != 1:
            return FiniteField(p, m, size_cap=size_cap)
        # the prime field is the residue ring Z/p
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        return ModularRing(p, descriptor=f"fq:{p}", size_cap=size_cap)
    raise ValueError(f"unknown ring kind {head!r} in {spec!r}")

