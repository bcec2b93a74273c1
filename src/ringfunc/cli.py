"""Command line interface.

Verbs: test a predicate on one polynomial, count function classes by the
closed formulas, compute canonical forms, enumerate groups and forms, run
the verification suites, and export group data for other tools.  Output is
deterministic JSON (CSV for multiplication tables and listings on request);
exit codes are 0 for computed results (a false predicate is still a result),
1 for usage or input errors, 3 when a size cap refuses the work, 4 when a
verification suite finds a failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from contextlib import nullcontext
from functools import lru_cache, reduce
from itertools import islice, product
from json.encoder import encode_basestring_ascii as quote
from operator import or_

from . import canonical as canon
from . import funcspace as fs
from . import groups as gr
from .dual import DualRing, dual_ring, horner_dual
from .poly import ParseError, Polynomial, format_polynomial, index_formatter, parse
from .rings import (
    CAP_ENV_VAR,
    PrimePowerRing,
    Ring,
    SizeCapError,
    check_cap,
    make_ring,
)

_LARGE = 1 << 62


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as fh:
        fh.write(text + "\n")


def _cap(args) -> int | None:
    return _LARGE if args.allow_large else None


def _ring(args) -> Ring:
    if not getattr(args, "ring", None):
        raise ValueError("--ring is required here")
    return make_ring(args.ring, size_cap=_cap(args))


def _base_of(ring: Ring) -> Ring:
    return ring.base if isinstance(ring, DualRing) else ring


def _require_prime_power(ring: Ring) -> tuple[int, int]:
    pp = getattr(ring, "prime_power", None)
    if pp is None:
        raise ValueError(f"{ring.descriptor} is not a prime power ring")
    return pp


def _pn(args) -> tuple[int, int]:
    if args.p is None or args.n is None:
        raise ValueError("--p and --n are required here")
    return args.p, args.n


def _naive_values(f: Polynomial, ring: Ring) -> list:
    # termwise power accumulation; deliberately not the Horner path
    coeffs = f._coeffs_for(ring)
    out = []
    for r in ring.elements:
        acc = ring.zero
        xp = ring.one
        for c in coeffs:
            acc = ring.add(acc, ring.mul(c, xp))
            xp = ring.mul(xp, r)
        out.append(acc)
    return out


def cmd_test(args) -> int:
    ring = _ring(args)
    f = parse(args.poly)
    prop = args.prop
    oracle = None
    if prop == "null":
        result = fs.is_null(f, ring)
        if args.oracle:
            oracle = all(v == ring.zero for v in _naive_values(f, ring))
    elif prop == "unit-valued":
        result = fs.is_unit_valued(f, ring)
        if args.oracle:
            one = ring.one
            oracle = all(
                any(ring.mul(v, s) == one for s in ring.elements)
                for v in _naive_values(f, ring)
            )
    elif prop == "perm":
        result = fs.is_permutation(f, ring)
        if args.oracle:
            oracle = len(set(_naive_values(f, ring))) == ring.size
    else:  # perm-dual: the named ring (or its base) extended by al
        base = _base_of(ring)
        result = fs.permutes_dual(f, base)
        if args.oracle:
            dual = dual_ring(base, size_cap=_cap(args))
            oracle = len(set(horner_dual(f, dual, dual.elements))) == dual.size
    doc: dict = {"result": result}
    if args.oracle:
        doc["oracle_agrees"] = oracle == result
    _emit(args, _json_dumps(doc))
    return 0


def _brute_counts(p: int, n: int, cap) -> dict[str, int]:
    """The polyfun, uvpf and kernel counts mod p^n by enumeration: the
    induced tables, those of units only and those of multiples of p^(n-1)
    only.

    f = f0 + c has f(0) = c, so the induced tables are the translates t + c
    of the distinct tables t of constant term zero, and no two translates
    coincide.  So they are counted per t: all |R| of them, and the c with
    t + c inside each mask, through a bitmask per value of the constants
    that take it outside.  coefficient_sums returns the distinct t.
    """
    ring = PrimePowerRing(p, n)
    size = ring.size
    D = fs.null_degree_bound(ring)
    check_cap(size ** D, cap, "polynomial enumeration")
    add_t = ring.index_op_tables()[0]
    found = fs.coefficient_sums(add_t, (0,) * size, fs.monomial_stages(ring, D))
    counts = {"polyfun": len(found) * size}
    # whether t + c lies inside a mask depends on the values of t only
    value_sets = Counter(map(frozenset, found))
    unit = ring.unit_index_mask()
    kernel = [v % p ** (n - 1) == 0 for v in ring.elements]
    for what, mask in (("uvpf", unit), ("kernel", kernel)):
        bad = [sum(1 << c for c, w in enumerate(row) if not mask[w]) for row in add_t]
        counts[what] = sum(
            k * (size - reduce(or_, map(bad.__getitem__, vs)).bit_count())
            for vs, k in value_sets.items()
        )
    return counts


def cmd_count(args) -> int:
    p, n = args.p, args.n
    what = args.what
    if what == "beta":
        formula = canon.beta(p, n)
    elif what == "polyfun":
        formula = canon.count_polynomial_functions(p, n)
    elif what == "uvpf":
        formula = canon.count_unit_valued_functions(p, n)
    else:
        if n < 2:
            raise ValueError("kernel counts need n >= 2")
        formula = canon.kernel_count(p, n)
    doc = {"formula": formula, "n": n, "p": p, "what": what}
    if args.brute_force:
        if what == "beta":
            # the least k with p^n | k!, by search rather than Legendre's formula
            value = fs.null_degree_bound(PrimePowerRing(p, n))
        else:
            value = _brute_counts(p, n, _cap(args))[what]
        doc["brute_force"] = value
        doc["agreement"] = value == formula
    _emit(args, _json_dumps(doc))
    return 0


def _render_form_terms(p: int, terms) -> str:
    parts = []
    for i, j, a in terms:
        coeff = a * p**i
        parts.append(f"{coeff}*(x)_{j}" if j else str(coeff))
    return " + ".join(parts) if parts else "0"


def cmd_canonical(args) -> int:
    ring = _ring(args)
    p, n = _require_prime_power(ring)
    f = parse(args.poly)
    form = (canon.canonicalize_unit_valued if args.unit_valued else canon.canonicalize)(f, p, n)
    if args.json:
        doc = form.to_json_dict()
        doc["polynomial"] = format_polynomial(form.to_polynomial())
        _emit(args, _json_dumps(doc))
    elif args.unit_valued:
        lines = [f"leading index s = {form.s}"]
        for k, terms in form.layers:
            lines.append(f"layer {k}: {_render_form_terms(p, terms)}")
        lines.append(f"polynomial: {format_polynomial(form.to_polynomial())}")
        _emit(args, "\n".join(lines))
    else:
        _emit(args, f"{_render_form_terms(p, form.terms)}")
    return 0


def _group_elements(args, cap, table=False):
    """Resolve --what group/stabilizer into (doc, texts, elements): doc holds
    the document's count, ring, what and, for group, dual; texts(keep)
    yields the JSON text of the items at the positions the slice keep
    selects (a prefix, all by default), building each pair and witness as
    it is read; elements() builds the listed group elements in order, which
    only a product table needs.  Over a field, with table, its cap first.

    Each listing is of (G, F) pairs of index tables: the semidirect
    product's from its factors, permutation-major, the others from
    gr.dual_pairs and gr.stabilizer_pairs, with a witness or null part
    each, rendered from its coefficient index vector (index_formatter) and
    quoted as json quotes it.  An index table's JSON is the str of its
    list, made once for each distinct table where tables repeat.
    """
    base = _base_of(_ring(args))
    nb = base.size
    if table and base.is_field:
        check_cap(gr.field_group_order(base, args.what, cap=cap) ** 2, cap, "multiplication table")
    if args.what == "group" and not args.dual:
        perms, units = gr.semidirect_pairs(base, cap=cap)
        count, pairs = len(perms) * len(units), lambda: product(perms, units)
    else:
        listing = gr.stabilizer_pairs if args.what == "stabilizer" else gr.dual_pairs
        listed, witness = listing(base, cap=cap)
        count, pairs = len(listed), listed.__iter__
    doc = {"count": count, "ring": base.descriptor, "what": args.what}
    if args.what == "group":
        doc["dual"] = bool(args.dual)

    def texts(keep=slice(None)):
        kept = islice(pairs(), len(range(count)[keep]))
        text = index_formatter(nb, 2 * nb)
        if args.what == "stabilizer":  # no unit table repeats
            return (f'{{"null_part": {quote(text(witness(F)))}, "unit": {list(F)}}}'
                    for _, F in kept)
        rendered = lru_cache(maxsize=None)(lambda t: str(list(t)))
        if args.dual:
            return (f'{{"perm": {rendered(G)}, "unit": {rendered(F)}, '
                    f'"witness": {quote(text(witness(G, F)))}}}' for G, F in kept)
        return (f'{{"perm": {rendered(G)}, "unit": {rendered(F)}}}' for G, F in kept)

    return doc, texts, lambda: gr.pair_elements(dual_ring(base), pairs())


def _write_listing(args, doc: dict, key: str, texts) -> None:
    """Write doc with the item texts listed under key, the bytes
    _json_dumps gives for it with the items parsed, to stdout or --out:
    the text before the list, the items joined by ", " in chunks of 4096,
    then the rest, so that no whole document is held."""
    head, tail = _json_dumps({**doc, key: []}).split(f'"{key}": []')
    chunks = iter(lambda: ", ".join(islice(texts, 4096)), "")  # no item text is empty
    out = getattr(args, "out", None)
    with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as fh:
        fh.write(f'{head}"{key}": [{next(chunks, "")}')
        fh.writelines(", " + chunk for chunk in chunks)
        fh.write(f"]{tail}\n")


def cmd_enumerate(args) -> int:
    """List --what's items, the first --limit of them; a group or stabilizer
    listing is written item by item as it is made (_write_listing)."""
    cap = _cap(args)
    what = args.what
    keep = slice(args.limit)
    if what in ("group", "stabilizer"):
        doc, texts, _ = _group_elements(args, cap)
        _write_listing(args, doc, "items", texts(keep))
        return 0
    p, n = _pn(args)
    if what == "kernel":
        found = list(canon.enumerate_kernel(p, n, cap=cap))
        items = [{"poly": format_polynomial(g)} for g in found[keep]]
    else:  # uvpf-forms
        found = list(canon.enumerate_unit_valued_forms(p, n, cap=cap))
        items = [f.to_json_dict() for f in found[keep]]
    _emit(args, _json_dumps({"count": len(found), "items": items, "n": n, "p": p, "what": what}))
    return 0


def _multiplication_table(els) -> list[list[int]]:
    index = {el: i for i, el in enumerate(els)}
    return [[index[a * b] for b in els] for a in els]


def _csv_text(rows) -> str:
    """The rows as CSV lines, fields joined by commas, unquoted: they are
    ints, fixed headers and polynomial text.  A field holding a comma, a
    quote or a line break would need quoting, so it raises instead."""
    lines = []
    for row in rows:
        line = ",".join(map(str, row))
        if line.count(",") != len(row) - 1 or '"' in line or "\n" in line or "\r" in line:
            raise ValueError(f"CSV field needs quoting: {line!r}")
        lines.append(line)
    return "\n".join(lines)


def cmd_export(args) -> int:
    """Export --what as CSV or JSON; a group or stabilizer document in JSON
    is written item by item as it is made (_write_listing), its table, if
    asked, after the items."""
    cap = _cap(args)
    what = args.what
    if what in ("group", "stabilizer"):
        table = args.format == "csv" or args.table
        doc, texts, elements = _group_elements(args, cap, table)
        count = doc["count"]
        if table:
            check_cap(count**2, cap, "multiplication table")
            table = _multiplication_table(elements())
        if args.format == "csv":
            rows = [[""] + list(range(count))]
            rows += [[i] + row for i, row in enumerate(table)]
            _emit(args, _csv_text(rows))
            return 0
        if args.table:
            doc["table"] = table
        _write_listing(args, doc, "elements", texts())
        return 0
    p, n = _pn(args)
    if what == "kernel":
        polys = list(canon.enumerate_kernel(p, n, cap=cap))
        rows = [("index", "polynomial")]
        rows += [(i, format_polynomial(g)) for i, g in enumerate(polys)]
        items = [{"poly": format_polynomial(g)} for g in polys]
    else:  # uvpf-forms
        forms = list(canon.enumerate_unit_valued_forms(p, n, cap=cap))
        rows = [("index", "s", "polynomial")]
        rows += [(i, f.s, format_polynomial(f.to_polynomial())) for i, f in enumerate(forms)]
        items = [f.to_json_dict() for f in forms]
    doc = {"count": len(items), "items": items, "n": n, "p": p, "what": what}
    _emit(args, _csv_text(rows) if args.format == "csv" else _json_dumps(doc))
    return 0


def _grid_bases(args, cap) -> list[Ring]:
    if getattr(args, "ring", None):
        return [_base_of(_ring(args))]
    out = []
    for desc in ("fq:2", "fq:3", "zpn:2,2", "fq:4"):
        base = make_ring(desc, size_cap=cap)
        if base.size * base.size <= args.max_size:
            out.append(base)
    if not out:
        raise ValueError(f"no test rings fit under --max-size {args.max_size}")
    return out


def _law_states(ring: Ring, points, ideal, pack):
    """The law's side for x^k, k = 0, 1, ...: pack(a^k, e k a^(k-1)) at
    each e of ideal, then each a of points, from ring's arithmetic alone.
    Keeps a^(k-1) and a^k per point, one multiply each per step."""
    mul = ring.mul
    prev, power = (ring.zero,) * len(points), (ring.one,) * len(points)
    k = 0
    while True:
        scale = ring.from_int(k)
        derived = [mul(scale, p) for p in prev]  # k a^(k-1)
        yield tuple(pack(x, mul(e, d)) for e in ideal for x, d in zip(power, derived))
        prev, power = power, tuple(map(mul, power, points))
        k += 1


def _law_holds(whole: Ring, ring: Ring, points, ideal, pack, key: slice) -> bool:
    """The first-order law (a + e)^k = a^k + k a^(k-1) e over whole, for a
    of points and e of ideal, a square-zero ideal, exactly: on each monomial
    x^k until the state first repeats, z^k at each point z = pack(a, e) by
    whole's multiply, against _law_states on ring.  Both sides are additive
    in f.  Once the law holds at k, the slice key of the state fixes a^k and
    k a^(k-1) e at every point, so the whole state, and by z^(k+1) = z^k z
    every later one: a repeat of the slice is a repeat of the state, and
    only slices are kept."""
    zs = [pack(a, e) for e in ideal for a in points]
    seen, values = set(), (whole.one,) * len(zs)
    for law in _law_states(ring, points, ideal, pack):
        if values != law:
            return False
        if values[key] in seen:
            return True
        seen.add(values[key])
        values = tuple(map(whole.mul, values, zs))


def _check_dual_law(base: Ring, cap) -> list[tuple[str, bool]]:
    """The law f(a + b al) = (f(a), b f'(a)), by _law_holds on R[al] with
    E = R al, the law's side packed as pairs on the base's arithmetic; the
    values at b = 1, (a^k, k a^(k-1)), fix the state."""
    dual = dual_ring(base, size_cap=cap)
    one = base.index(base.one) * base.size
    ok = _law_holds(dual, base, base.elements, base.elements, lambda a, b: (a, b),
                    slice(one, one + base.size))
    return [(f"dual[law:{base.descriptor}]", ok)]


def _check_dual_criterion(base: Ring, law: bool) -> list[tuple[str, bool]]:
    """The criterion, f permutes R[al] iff [f] permutes R and [f'] is
    unit-valued, for every f over R, from the law (law, _check_dual_law's
    verdict) and a lemma on the base's own tables.  By the law the table of
    f on R[al] is the pair form (a, b) -> ([f](a), [f'](a) b), and a pair
    form (G, F) is a bijection of R x R iff G is one and b -> F(a) b is one
    for every a.  Lemma: b -> c b is a bijection iff c is a unit, that is,
    row c of the index multiplication table is a permutation exactly where
    the unit mask holds."""
    mask = base.unit_index_mask()
    ok = law and all(
        (len(set(row)) == base.size) == mask[c] for c, row in enumerate(base.index_op_tables()[1])
    )
    return [(f"dual[criterion:{base.descriptor}]", ok)]


def _check_local_criterion(p: int, n: int) -> list[tuple[str, bool]]:
    """The local criterion, f permutes Z/p^n iff it permutes Z/p and p does
    not divide f'(a) for any a < p, for every f, from the law and a lemma on
    each level Z/p^j, j = 2 .. n.  With q = p^(j-1), each element of Z/p^j
    is a + e once, a < q and e in E = q Z/p^j, and by the law (_law_holds,
    packed by the ring's addition; the values at e = 0 and e = q fix the
    state) f sends it to f(a) + f'(a) e.  So f permutes Z/p^j iff it
    permutes Z/q and e -> f'(a) e is injective on E for each a < q.  Lemma:
    e -> c e is injective on E iff p does not divide c, checked on row c of
    Z/p^j's index multiplication table at the columns of E.  The law on
    Z/p^2, applied to f', makes f' mod p p-periodic, so going down to j = 1
    gives the criterion."""

    def level(j):
        ring, q = PrimePowerRing(p, j), p ** (j - 1)
        ideal = ring.elements[::q]
        return _law_holds(ring, ring, ring.elements[:q], ideal, ring.add, slice(2 * q)) and all(
            (len({row[e] for e in ideal}) == p) == (c % p != 0)
            for c, row in enumerate(ring.index_op_tables()[1])
        )

    return [(f"dual[local-criterion:zpn:{p},{n}]", all(map(level, range(2, n + 1))))]


def _check_groups(base: Ring, cap) -> list[tuple[str, bool]]:
    # the embedding's caps refuse before any group element is built, and it
    # decides the product's axioms too
    embedding = gr.verify_embedding(base, cap=cap)
    axioms = embedding.product_axioms
    return [
        (f"groups[axioms:{base.descriptor}]", axioms.passed),
        (f"groups[embedding:{base.descriptor}]", embedding.passed and embedding.image_consistent),
    ]


def _check_canonical(seed: int, cap) -> list[tuple[str, bool]]:
    checks = []
    sizes_ok = all(
        len(canon.kernel_basis(p, n)) == canon.beta(p, n)
        for p in (2, 3, 5)
        for n in (2, 3, 4)
    )
    checks.append(("canonical[kernel-basis]", sizes_ok))
    rng = random.Random(seed)
    for p, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        ring = PrimePowerRing(p, n)
        good = True
        for _ in range(25):
            f = Polynomial([rng.randrange(p**n) for _ in range(rng.randrange(1, 9))])
            form = canon.canonicalize(f, p, n)
            g = form.to_polynomial()
            if fs.induce(g, ring) != fs.induce(f, ring):
                good = False
                break
            if canon.canonicalize(g, p, n) != form:
                good = False
                break
        checks.append((f"canonical[roundtrip:zpn:{p},{n}]", good))
    ring = PrimePowerRing(2, 2)
    forms = list(canon.enumerate_canonical_forms(2, 2, cap=cap))
    tables = {fs.induce(f.to_polynomial(), ring).values for f in forms}
    checks.append((
        "canonical[bijection:zpn:2,2]",
        len(forms) == 64 and tables == fs.induced_tables(ring, cap=cap),
    ))
    uv_forms = list(canon.enumerate_unit_valued_forms(2, 2, cap=cap))
    uv_tables = {fs.induce(f.to_polynomial(), ring).values for f in uv_forms}
    checks.append((
        "canonical[uv-bijection:zpn:2,2]",
        len(uv_forms) == 16 and uv_tables == fs.unit_valued_tables(ring, cap=cap),
    ))
    return checks


def _check_counting(p: int, n: int, cap) -> list[tuple[str, bool]]:
    counts = _brute_counts(p, n, cap)
    return [
        (f"counting[polyfun:{p},{n}]",
         counts["polyfun"] == canon.count_polynomial_functions(p, n)),
        (f"counting[uvpf:{p},{n}]",
         counts["uvpf"] == canon.count_unit_valued_functions(p, n)),
        (f"counting[kernel:{p},{n}]", counts["kernel"] == canon.kernel_count(p, n)),
    ]


def cmd_verify(args) -> int:
    cap = _cap(args)
    checks: list[tuple[str, bool]] = []
    suites = (
        ("dual", "groups", "canonical", "counting")
        if args.suite == "all"
        else (args.suite,)
    )
    for suite in suites:
        if suite == "dual":
            for base in _grid_bases(args, cap):
                law = _check_dual_law(base, cap)
                checks.extend(law + _check_dual_criterion(base, law[0][1]))
            if not args.ring:
                for p, n in ((2, 2), (2, 3), (3, 2)):
                    if p**n <= args.max_size:
                        checks.extend(_check_local_criterion(p, n))
        elif suite == "groups":
            for base in _grid_bases(args, cap):
                checks.extend(_check_groups(base, cap))
        elif suite == "canonical":
            checks.extend(_check_canonical(args.seed, cap))
        else:  # counting
            for p, n in ((2, 2), (2, 3), (3, 2)):
                checks.extend(_check_counting(p, n, cap))
    failed = [name for name, ok in checks if not ok]
    if args.json:
        _emit(args, _json_dumps({
            "checks": [{"name": name, "passed": ok} for name, ok in checks],
            "failed": len(failed),
        }))
    else:
        lines = [f"{name}: {'pass' if ok else 'FAIL'}" for name, ok in checks]
        lines.append(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
        _emit(args, "\n".join(lines))
    return 4 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ringfunc",
        description="Polynomial functions over finite rings and their dual extensions.",
        epilog=f"Ring descriptors: zm:M, zpn:P,N, fq:Q, dual:DESC.  "
        f"Set {CAP_ENV_VAR} to adjust the enumeration cap.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(sp):
        sp.add_argument("--allow-large", action="store_true",
                        help="lift the size and enumeration caps")
        sp.add_argument("--out", help="write output to a file instead of stdout")

    sp = sub.add_parser("test", help="evaluate a predicate on one polynomial")
    common(sp)
    sp.add_argument("--ring", required=True, help="ring descriptor")
    sp.add_argument("--poly", required=True, help="polynomial in x")
    sp.add_argument("--prop", required=True,
                    choices=("null", "unit-valued", "perm", "perm-dual"))
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check the result against brute-force evaluation")
    sp.set_defaults(func=cmd_test)

    sp = sub.add_parser("count", help="count function classes mod p^n")
    common(sp)
    sp.add_argument("--what", required=True,
                    choices=("polyfun", "uvpf", "kernel", "beta"))
    sp.add_argument("--p", type=int, required=True, help="prime")
    sp.add_argument("--n", type=int, required=True, help="exponent")
    sp.add_argument("--brute-force", action="store_true", dest="brute_force",
                    help="also count by enumeration and report agreement")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("canonical", help="canonical form of a polynomial function")
    common(sp)
    sp.add_argument("--ring", required=True, help="prime power ring descriptor")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--unit-valued", action="store_true",
                    help="layered form for unit-valued functions")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_canonical)

    for verb, helptext in (
        ("enumerate", "list group elements, kernel polynomials, or forms"),
        ("export", "export group or form data as JSON/CSV"),
    ):
        sp = sub.add_parser(verb, help=helptext)
        common(sp)
        sp.add_argument("--what", required=True,
                        choices=("group", "stabilizer", "uvpf-forms", "kernel"))
        sp.add_argument("--ring", help="ring descriptor (group, stabilizer)")
        sp.add_argument("--p", type=int, help="prime (uvpf-forms, kernel)")
        sp.add_argument("--n", type=int, help="exponent (uvpf-forms, kernel)")
        sp.add_argument("--dual", action="store_true",
                        help="the dual-extension permutation group instead of "
                             "the semidirect product")
        if verb == "enumerate":
            sp.add_argument("--limit", type=int, help="truncate the item list")
            sp.set_defaults(func=cmd_enumerate)
        else:
            sp.add_argument("--format", choices=("json", "csv"), default="json")
            sp.add_argument("--table", action="store_true",
                            help="include the full multiplication table (JSON)")
            sp.set_defaults(func=cmd_export)

    sp = sub.add_parser("verify", help="run verification suites")
    common(sp)
    sp.add_argument("--suite", default="all",
                    choices=("all", "dual", "groups", "canonical", "counting"))
    sp.add_argument("--ring", help="restrict the ring-based suites to one base ring")
    sp.add_argument("--max-size", type=int, default=16,
                    help="bound on the default grid: the size |R|^2 of each dual "
                         "ring and the modulus p^n of each local criterion")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed of the sampled canonical[roundtrip:*] check, the only "
                         "check that draws random numbers")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_verify)

    return parser


_shared_parser = lru_cache(maxsize=None)(build_parser)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
