"""The benchmark's workloads: each is a fixed list of ops, generated from the
seed before timing, with a check of every op's answer against the oracle.

groups-verify: `verify --suite groups` on five rings.  Nearly all its time is
    group products inside verify_embedding and verify_group_axioms on fq:4;
    it bypasses the coefficient sweep engine.
sweep: CLI verbs dominated by coefficient sweeps (pair_table_sweep,
    induced_tables), element construction and JSON rendering, with few
    group products.
queries: a stream of small library calls (parse, then a canonical form or a
    predicate); no sweeps and no groups, so per-call overhead shows.

The CLI is driven in-process through ringfunc.cli.main with default caps and
sampling parameters (no RINGFUNC_CAP, no --allow-large, no --seed); on the
two CLI workloads the seed only sets the order of the invocations.
"""

from __future__ import annotations

import contextlib
import io
import random

from ringfunc import canonical, cli, funcspace, poly, rings

import oracle

GROUP_RINGS = ("fq:2", "fq:3", "zpn:2,2", "fq:4", "zm:6")
CANONICAL_MODULI = ((2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2))
PREDICATE_RINGS = ("zm:8", "zpn:3,2", "fq:4", "fq:7", "zm:12")
PREDICATES = ("is_permutation", "permutes_dual", "is_null", "is_unit_valued")
QUERY_OPS = 1000

# the rings each workload builds; set-up time is measured on these
RINGS = {
    "groups-verify": GROUP_RINGS,
    "sweep": ("fq:2", "fq:3", "zpn:2,2", "fq:4", "zm:6", "zpn:2,3", "zpn:3,2"),
    "queries": PREDICATE_RINGS + tuple(f"zpn:{p},{n}" for p, n in CANONICAL_MODULI),
}


class CliOp:
    """One CLI invocation; its answer is (exit code, stdout).

    The heap is collected after each invocation, outside the timed region,
    as a fresh CLI process would start, so that peak memory does not depend
    on the seeded order of the invocations.
    """

    fresh_heap = True

    def __init__(self, argv: list[str], check):
        self.argv = argv
        self.label = " ".join(argv)
        self._check = check
        self._passed: set[tuple[int, str]] = set()

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(self.argv))
        return rc, out.getvalue()

    def check(self, answer) -> None:
        if isinstance(answer, BaseException):
            raise oracle.OracleError(f"raised {answer!r}")
        if answer in self._passed:  # the same output was checked in full before
            return
        self._check(*answer)
        self._passed.add(answer)


class QueryOp:
    """parse(text) followed by one library call; its answer is the result."""

    fresh_heap = False

    def __init__(self, label: str, text: str, call, check):
        self.label = label
        self.text = text
        self._call = call
        self._check = check
        self._passed = None

    def run(self):
        return self._call(poly.parse(self.text))

    def check(self, answer) -> None:
        if isinstance(answer, BaseException):
            raise oracle.OracleError(f"raised {answer!r}")
        if self._passed is not None and answer == self._passed:
            return
        self._check(answer)
        self._passed = answer


def build_rings(workload: str) -> dict:
    """The workload's rings with their operation tables (the measured set-up)."""
    out = {}
    for desc in RINGS[workload]:
        ring = rings.make_ring(desc)
        ring.index_op_tables()
        out[desc] = ring
    return out


def groups_verify_ops(seed: int, built: dict) -> list:
    ops = [CliOp(["verify", "--suite", "groups", "--ring", r, "--json"], oracle.check_verify)
           for r in GROUP_RINGS]
    random.Random(seed).shuffle(ops)
    return ops


def sweep_ops(seed: int, built: dict) -> list:
    ro = {d: oracle.RingOracle(built[d]) for d in ("fq:4", "zm:6", "zpn:2,2")}

    def group(desc):
        return lambda rc, text: oracle.check_dual_group(
            rc, text, ro[desc], oracle.DUAL_GROUP_ORDER[desc])

    def stabilizer(desc):
        return lambda rc, text: oracle.check_stabilizer(
            rc, text, ro[desc], oracle.STABILIZER_ORDER[desc])

    def count(what, p, n):
        return lambda rc, text: oracle.check_count(rc, text, what, p, n)

    ops = [CliOp(["enumerate", "--what", "group", "--dual", "--ring", d], group(d))
           for d in ("fq:4", "zm:6", "zpn:2,2")]
    ops += [CliOp(["enumerate", "--what", "stabilizer", "--ring", d], stabilizer(d))
            for d in ("fq:4", "zm:6")]
    ops += [
        CliOp(["count", "--what", "uvpf", "--p", "3", "--n", "2", "--brute-force"],
              count("uvpf", 3, 2)),
        CliOp(["count", "--what", "kernel", "--p", "2", "--n", "3", "--brute-force"],
              count("kernel", 2, 3)),
    ]
    ops += [CliOp(["verify", "--suite", s, "--json"], oracle.check_verify)
            for s in ("dual", "counting", "canonical")]
    random.Random(seed).shuffle(ops)
    return ops


def _poly_text(coeffs: list[int]) -> str:
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        body = str(abs(c)) if k == 0 else f"{abs(c)}*x" + (f"^{k}" if k > 1 else "")
        if terms:
            terms.append(("- " if c < 0 else "+ ") + body)
        else:
            terms.append(("-" if c < 0 else "") + body)
    return " ".join(terms) or "0"


def _mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _add(f: list[int], g: list[int]) -> list[int]:
    n = max(len(f), len(g))
    return [(f[k] if k < len(f) else 0) + (g[k] if k < len(g) else 0) for k in range(n)]


def _random_poly(rng: random.Random, degree: int, lo: int, hi: int) -> list[int]:
    return [rng.randint(lo, hi) for _ in range(degree + 1)]


def _null_poly(desc: str) -> list[int]:
    """An integer polynomial null on the ring: x^q - x over F_q, the falling
    factorial (x)_k with m | k! over Z_m."""
    head, _, rest = desc.partition(":")
    if head == "fq":
        q = int(rest)
        return [0, -1] + [0] * (q - 2) + [1]
    m = int(rest) if head == "zm" else int(rest.split(",")[0]) ** int(rest.split(",")[1])
    k, fact, out = 0, 1, [1]
    while fact % m:
        out = _mul(out, [-k, 1])
        k += 1
        fact *= k
    return out


def queries_ops(seed: int, built: dict) -> list:
    """QUERY_OPS calls split evenly over canonicalize, canonicalize_unit_valued
    and the predicates, within each over its moduli or (ring, predicate)
    pairs, and within those over polynomial degrees.  Seeds differ in the
    coefficients and the order of the calls, not in their mix, so that a
    pass costs about the same for every seed.  Answers are checked by the
    oracle."""
    rng = random.Random(seed)
    zpn = {(p, n): oracle.RingOracle(built[f"zpn:{p},{n}"]) for p, n in CANONICAL_MODULI}
    preds = {d: oracle.RingOracle(built[d]) for d in PREDICATE_RINGS}
    ops = []
    pairs = [(d, prop) for d in PREDICATE_RINGS for prop in PREDICATES]
    for i in range(QUERY_OPS):
        kind, j = i % 3, i // 3
        # the round through the moduli or pairs sets the degrees
        r = j // (len(pairs) if kind == 2 else len(CANONICAL_MODULI))
        if kind == 0:
            p, n = CANONICAL_MODULI[j % len(CANONICAL_MODULI)]
            m = p**n
            coeffs = _random_poly(rng, r % 13, -m, 3 * m)

            def call(f, p=p, n=n):
                return canonical.canonicalize(f, p, n)

            def check(form, c=coeffs, p=p, n=n):
                oracle.check_canonical_form(form, c, p, n, zpn[p, n])

            ops.append(QueryOp(f"canonicalize mod {p}^{n}", _poly_text(coeffs), call, check))
        elif kind == 1:
            p, n = CANONICAL_MODULI[j % len(CANONICAL_MODULI)]
            m = p**n
            # u + (x^p - x) h + p g is unit-valued mod p^n by Fermat, u
            # interpolating a random unit table mod p
            u = oracle.interpolant([rng.randrange(1, p) for _ in range(p)], p)
            h = _random_poly(rng, r % 5, 0, m - 1)
            g = _random_poly(rng, r % 7, 0, m - 1)
            fermat = [0, -1] + [0] * (p - 2) + [1]
            coeffs = _add(_add(u, _mul(fermat, h)), [p * c for c in g])

            def call(f, p=p, n=n):
                return canonical.canonicalize_unit_valued(f, p, n)

            def check(form, c=coeffs, p=p, n=n):
                oracle.check_unit_valued_form(form, c, p, n, zpn[p, n])

            ops.append(QueryOp(f"canonicalize_unit_valued mod {p}^{n}",
                               _poly_text(coeffs), call, check))
        else:
            desc, prop = pairs[j % len(pairs)]
            if r % 2:
                coeffs = _random_poly(rng, r // 2 % 7, 0, 20)
            else:
                # a x + b plus a multiple of a null polynomial, a a unit in
                # every ring here: a permutation of the ring, and sometimes
                # of its dual extension
                linear = [rng.randrange(24), rng.choice((1, 5, 11))]
                mult = _random_poly(rng, r // 2 % 3, 0, 5)
                coeffs = _add(linear, _mul(_null_poly(desc), mult))
            expected = preds[desc].predicate(prop, coeffs)

            def call(f, prop=prop, base=built[desc]):
                return getattr(funcspace, prop)(f, base)

            def check(answer, want=expected):
                if answer is not want:
                    raise oracle.OracleError(f"answered {answer!r}, expected {want!r}")

            ops.append(QueryOp(f"{prop} on {desc}", _poly_text(coeffs), call, check))
    rng.shuffle(ops)
    return ops


# name -> (op generator taking the seed and the built rings, whether op
# latency is taken per op).  The CLI invocations of one pass differ in size
# by up to 5000x, so on the CLI workloads the pass is the request whose
# latency is reported; on queries every call is.
WORKLOADS = {
    "groups-verify": (groups_verify_ops, False),
    "sweep": (sweep_ops, False),
    "queries": (queries_ops, True),
}
