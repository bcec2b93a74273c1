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
import csv
import io
import json
import random
import sys

from . import canonical as canon
from . import funcspace as fs
from . import groups as gr
from .dual import DualRing, dual_ring, eval_dual, horner_dual
from .poly import ParseError, Polynomial, format_polynomial, parse
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
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


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
    """The polyfun, uvpf and kernel counts mod p^n by enumeration: every
    induced table, then those of units only and those of multiples of
    p^(n-1) only."""
    ring = PrimePowerRing(p, n)
    tables = fs.induced_tables(ring, cap=cap)
    unit = ring.unit_index_mask()
    kernel = [v % p ** (n - 1) == 0 for v in ring.elements]
    return {
        "polyfun": len(tables),
        "uvpf": sum(all(map(unit.__getitem__, t)) for t in tables),
        "kernel": sum(all(map(kernel.__getitem__, t)) for t in tables),
    }


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
    if args.unit_valued:
        form = canon.canonicalize_unit_valued(f, p, n)
        if args.json:
            doc = form.to_json_dict()
            doc["polynomial"] = format_polynomial(form.to_polynomial())
            _emit(args, _json_dumps(doc))
        else:
            lines = [f"leading index s = {form.s}"]
            for k, terms in form.layers:
                lines.append(f"layer {k}: {_render_form_terms(p, terms)}")
            lines.append(f"polynomial: {format_polynomial(form.to_polynomial())}")
            _emit(args, "\n".join(lines))
    else:
        form = canon.canonicalize(f, p, n)
        if args.json:
            doc = form.to_json_dict()
            doc["polynomial"] = format_polynomial(form.to_polynomial())
            _emit(args, _json_dumps(doc))
        else:
            _emit(args, f"{_render_form_terms(p, form.terms)}")
    return 0


def _group_elements(args, cap, keep=slice(None)):
    """Resolve --what group/stabilizer into (base, count, item dicts,
    elements), with the item dicts of the positions keep selects only.

    The semidirect product lists its items from its two factors,
    permutation-major, and returns no elements: each is a whole dual table,
    built only for a product table.
    """
    base = _base_of(_ring(args))
    if args.what == "stabilizer":
        els = gr.enumerate_stabilizer(base, cap=cap)
        # a stabilizer element is x + g for its null part g
        items = [
            {
                "null_part": format_polynomial(st.witness - Polynomial.x()),
                "unit": list(st.base_pair()[1]),
            }
            for st in els[keep]
        ]
        return base, len(els), items, els
    if args.dual:
        els = gr.enumerate_dual_permutations(base, cap=cap)
        items = []
        for dp in els[keep]:
            G, F = dp.base_pair()
            items.append({"perm": list(G), "unit": list(F), "witness": format_polynomial(dp.witness)})
        return base, len(els), items, els
    perms, units = gr.semidirect_pairs(base, cap=cap)
    nu = len(units)
    count = len(perms) * nu
    items = [
        {"perm": list(perms[k // nu]), "unit": list(units[k % nu])}
        for k in range(count)[keep]
    ]
    return base, count, items, None


def cmd_enumerate(args) -> int:
    cap = _cap(args)
    what = args.what
    keep = slice(args.limit)
    if what in ("group", "stabilizer"):
        base, count, items, _ = _group_elements(args, cap, keep)
        doc = {"count": count, "ring": base.descriptor, "what": what}
        if what == "group":
            doc["dual"] = bool(args.dual)
    elif what == "kernel":
        p, n = _pn(args)
        polys = list(canon.enumerate_kernel(p, n, cap=cap))
        items = [{"poly": format_polynomial(g)} for g in polys[keep]]
        doc = {"count": len(polys), "n": n, "p": p, "what": what}
    else:  # uvpf-forms
        p, n = _pn(args)
        forms = list(canon.enumerate_unit_valued_forms(p, n, cap=cap))
        items = [f.to_json_dict() for f in forms[keep]]
        doc = {"count": len(forms), "n": n, "p": p, "what": what}
    doc["items"] = items
    _emit(args, _json_dumps(doc))
    return 0


def _multiplication_table(els) -> list[list[int]]:
    index = {el: i for i, el in enumerate(els)}
    return [[index[a * b] for b in els] for a in els]


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().rstrip("\n")


def cmd_export(args) -> int:
    cap = _cap(args)
    what = args.what
    if what in ("group", "stabilizer"):
        base, _, items, els = _group_elements(args, cap)
        if args.format == "csv" or args.table:
            check_cap(len(items) ** 2, cap, "multiplication table")
            if els is None:
                els = gr.semidirect_group(base, cap=cap)
            table = _multiplication_table(els)
        if args.format == "csv":
            rows = [[""] + list(range(len(items)))]
            rows += [[i] + row for i, row in enumerate(table)]
            _emit(args, _csv_text(rows))
            return 0
        doc = {"count": len(items), "elements": items, "ring": base.descriptor, "what": what}
        if what == "group":
            doc["dual"] = bool(args.dual)
        if args.table:
            doc["table"] = table
        _emit(args, _json_dumps(doc))
        return 0
    p, n = _pn(args)
    if what == "kernel":
        polys = list(canon.enumerate_kernel(p, n, cap=cap))
        rows = [("index", "polynomial")]
        rows += [(i, format_polynomial(g)) for i, g in enumerate(polys)]
        doc = {
            "count": len(polys),
            "items": [{"poly": format_polynomial(g)} for g in polys],
            "n": n,
            "p": p,
            "what": what,
        }
    else:  # uvpf-forms
        forms = list(canon.enumerate_unit_valued_forms(p, n, cap=cap))
        rows = [("index", "s", "polynomial")]
        rows += [
            (i, f.s, format_polynomial(f.to_polynomial())) for i, f in enumerate(forms)
        ]
        doc = {
            "count": len(forms),
            "items": [f.to_json_dict() for f in forms],
            "n": n,
            "p": p,
            "what": what,
        }
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


def _random_poly(rng, base: Ring, max_degree: int) -> Polynomial:
    degree = rng.randrange(max_degree + 1)
    if base.integer_encoded:
        return Polynomial([rng.randrange(base.size) for _ in range(degree + 1)])
    return Polynomial([rng.choice(base.elements) for _ in range(degree + 1)], base)


def _check_dual_law(base: Ring, seed: int, cap) -> list[tuple[str, bool]]:
    dual = dual_ring(base, size_cap=cap)
    rng = random.Random(seed)
    ok = True
    for _ in range(30):
        f = _random_poly(rng, base, 2 * base.size)
        ok = all(
            v == eval_dual(f, base, a, b)
            for (a, b), v in zip(dual.elements, horner_dual(f, dual, dual.elements))
        )
        if not ok:
            break
    return [(f"dual[law:{base.descriptor}]", ok)]


def _check_dual_criterion(base: Ring, seed: int, cap) -> list[tuple[str, bool]]:
    D = gr.dual_degree_bound(base, cap=cap)
    dual = dual_ring(base, size_cap=cap)
    mask = base.unit_index_mask()
    els = base.elements
    size = base.size
    count = size**D
    check_cap(count, cap, "pair sweep")
    rng = random.Random(seed)
    sample = range(count) if count <= 400 else rng.sample(range(count), 400)
    ok = True
    for i in sample:
        # candidate i in the order of gr.pair_table_sweep (constant term
        # fastest) has coefficient elements[(i // |base|^d) % |base|] at x^d
        f = Polynomial(
            tuple(els[i // size**d % size] for d in range(D)),
            None if base.integer_encoded else base,
        )
        verdict = len(set(fs.induce(f, base).values)) == size and all(
            mask[base.index(v)] for v in fs.induce(f.derive(), base).values
        )
        seen = set()
        bijective = True
        for v in horner_dual(f, dual, dual.elements):
            if v in seen:
                bijective = False
                break
            seen.add(v)
        if bijective != verdict:
            ok = False
            break
    return [(f"dual[criterion:{base.descriptor}]", ok)]


def _local_verdicts(key, p: int, n: int) -> tuple[bool, bool]:
    """(brute force, local criterion) on the key [f] ++ [p^(n-1) f'(a) for
    a < p] of a polynomial f over Z_{p^n}: whether [f] is a bijection, and
    whether the residues of f permute Z_p with f' nonzero mod p at each."""
    size = len(key) - p
    brute = len(set(key[:size])) == size
    local = {v % p for v in key[:p]} == set(range(p)) and (n == 1 or all(key[size:]))
    return brute, local


def _check_local_criterion(p: int, n: int, cap) -> list[tuple[str, bool]]:
    ring = PrimePowerRing(p, n)
    D = fs.null_degree_bound(ring)
    check_cap(ring.size ** D, cap, "pair sweep")
    # adding a constant translates [f] and its residues mod p and keeps [f'],
    # so both verdicts are those of the member with constant term 0; they
    # depend only on the key, which is additive in the coefficients, so
    # checking every distinct key is as strong as checking every candidate
    stages = fs.monomial_stages(
        ring, D, ring.elements, derivative_points=range(p), derivative_scale=p ** (n - 1)
    )
    zero = (0,) * (ring.size + p)
    seen = set()
    ok = True
    for key, _ in fs.coefficient_sums(ring.index_op_tables()[0], zero, stages):
        if key in seen:
            continue
        seen.add(key)
        brute, local = _local_verdicts(key, p, n)
        if brute != local:
            ok = False
            break
    return [(f"dual[local-criterion:zpn:{p},{n}]", ok)]


def _check_axioms(base: Ring, cap) -> list[tuple[str, bool]]:
    group = gr.semidirect_group(base, cap=cap)
    report = gr.verify_group_axioms(group)
    return [(f"groups[axioms:{base.descriptor}]", report.passed)]


def _check_embedding(base: Ring, cap) -> list[tuple[str, bool]]:
    report = gr.verify_embedding(base, cap=cap)
    # onto over every field; in general onto exactly when the stabilizer
    # holds every unit table (image = stabilizer x permutations)
    ok = (
        report.passed
        and (report.surjective or not base.is_field)
        and report.surjective == (report.stabilizer_size == report.unit_table_count)
    )
    return [(f"groups[embedding:{base.descriptor}]", ok)]


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
                checks.extend(_check_dual_law(base, args.seed, cap))
                checks.extend(_check_dual_criterion(base, args.seed, cap))
            if not args.ring:
                for p, n in ((2, 2), (2, 3), (3, 2)):
                    if p**n <= args.max_size:
                        checks.extend(_check_local_criterion(p, n, cap))
        elif suite == "groups":
            for base in _grid_bases(args, cap):
                checks.extend(_check_axioms(base, cap))
                checks.extend(_check_embedding(base, cap))
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
                    help="largest dual ring size in the default grid")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
