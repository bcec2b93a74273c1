"""The reference coefficient sweep of the test oracles.

coefficient_sums lists the distinct sums of one term from each stage, each
with the first coefficient vector reaching it, in the order a per-candidate
sweep first reaches them, over any coefficient domain.  The library's
funcspace.coefficient_sums builds the same sums, on whole-ring stages, as a
set only; the oracles that read witnesses or order, or restrict the domain,
sweep with this one.
"""

from __future__ import annotations

from operator import getitem

from ringfunc.rings import Ring


def monomial_stages(ring: Ring, degree_bound: int, domain) -> list[list[tuple]]:
    """The stages of coefficient_sums for the degrees 1 .. D-1: stage d - 1
    lists, for each c of the domain in order, (c, [c x^d]), the index table
    of c x^d on the whole ring."""
    _, mul_t = ring.index_op_tables()
    pw = ring.power_index_table(max(degree_bound - 1, 0))
    return [
        [(c, tuple(map(mul_t[ring.index(c)].__getitem__, pw[d]))) for c in domain]
        for d in range(1, degree_bound)
    ]


def coefficient_sums(add_t, zero_table, stages):
    """Distinct sums of one term from each stage, with the first coefficient
    vector reaching each, in the order of a sweep that steps stage 0 fastest.

    stages[i] lists (coefficient, term table) for degree i + 1 in domain
    order (see monomial_stages); tables are index tuples added entrywise by
    the index addition table add_t.  A table is additive in the
    coefficients, [sum c_d x^d] = sum [c_d x^d], so the sums of the first k
    stages are the tables of the coefficient vectors of degree 1 .. k.

    Each stage is built with the new coefficient in domain order as the
    outer loop and the stored sums, in the order they were first reached, as
    the inner loop; the first write wins.  The first vector reaching s + t,
    for t the term of c, is then c after the first vector reaching s, for
    the first c for which s is reached: the same witness a per-candidate
    sweep keeps, and sums come out in the order it first reaches them.

    While the earlier stages' terms are groups (closed under addition), as
    on a whole-ring domain, so are the stored sums S, and one coefficient
    per coset of S is stepped: c is skipped if its term t has t - r in S for
    the term r of an earlier kept c, as then S + t = S + r.  Each distinct
    sum is then built once.  The last stage is streamed, not stored, as
    (table, coefficients) in sweep order, with repeats only past a stage
    that is not a group.  With no stages the zero table is yielded once,
    with no coefficients.
    """
    sums = {tuple(zero_table): ()}
    if not stages:
        yield from sums.items()
        return
    neg = [row.index(zero_table[0]) for row in add_t]
    group = True  # the stored sums form a group
    for i, terms in enumerate(stages, 1 - len(stages)):  # i = 0 at the last
        grown, kept = {}, []
        for c, term in terms:
            rows = [add_t[b] for b in term]
            if group:
                if any(tuple(map(getitem, rows, r)) in sums for r in kept):
                    continue
                kept.append([neg[b] for b in term])
            made = ((tuple(map(getitem, rows, s)), w + (c,)) for s, w in sums.items())
            if i:
                for t, w in made:
                    grown.setdefault(t, w)
            else:
                yield from made
        if group and i:
            tables = {t for _, t in terms}
            rows = [[add_t[b] for b in t] for t in tables]
            group = all(tuple(map(getitem, r, t)) in tables for r in rows for t in tables)
        sums = grown
