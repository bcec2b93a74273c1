"""The benchmark's own tests: the oracle, the percentile helper, the
self-time arithmetic and the reference-seconds clock.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from run import percentile, tail_percentile  # noqa: E402
from ringfunc import canonical, cli  # noqa: E402
from ringfunc.poly import parse  # noqa: E402
from ringfunc.rings import make_ring  # noqa: E402


# -- oracle -------------------------------------------------------------------


@pytest.fixture(scope="module")
def z9():
    return oracle.RingOracle(make_ring("zpn:3,2"))


def test_canonical_form_accepted_then_corrupted_form_rejected(z9):
    coeffs = [4, -7, 0, 5, 2, 8, 1]
    form = canonical.canonicalize(parse("x^6 + 8*x^5 + 2*x^4 + 5*x^3 - 7*x + 4"), 3, 2)
    oracle.check_canonical_form(form, coeffs, 3, 2, z9)

    i, j, a = form.terms[0]
    flipped = canonical.CanonicalForm(3, 2, ((i, j, 3 - a),) + form.terms[1:])
    with pytest.raises(oracle.OracleError):
        oracle.check_canonical_form(flipped, coeffs, 3, 2, z9)
    with pytest.raises(oracle.OracleError):
        oracle.check_canonical_form(
            canonical.CanonicalForm(3, 2, form.terms[1:]), coeffs, 3, 2, z9)


def test_unit_valued_form_accepted_then_corrupted_form_rejected(z9):
    # values 5, 8, 7 at 0, 1, 2: units mod 3, so unit-valued mod 9
    coeffs = [5, 2, 0, 0, 1]
    form = canonical.canonicalize_unit_valued(parse("x^4 + 2*x + 5"), 3, 2)
    oracle.check_unit_valued_form(form, coeffs, 3, 2, z9)

    shifted = canonical.UnitValuedCanonicalForm(
        3, 2, form.s % 8 + 1, form.layers)
    with pytest.raises(oracle.OracleError):
        oracle.check_unit_valued_form(shifted, coeffs, 3, 2, z9)


def _cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def test_wrong_group_order_rejected():
    ro = oracle.RingOracle(make_ring("zpn:2,2"))
    rc, text = _cli("enumerate", "--what", "group", "--dual", "--ring", "zpn:2,2")
    oracle.check_dual_group(rc, text, ro, oracle.DUAL_GROUP_ORDER["zpn:2,2"])

    doc = json.loads(text)
    doc["count"] -= 1
    doc["items"] = doc["items"][1:]
    with pytest.raises(oracle.OracleError, match="group order"):
        oracle.check_dual_group(rc, json.dumps(doc), ro, 32)
    with pytest.raises(oracle.OracleError, match="group order"):
        oracle.check_dual_group(rc, text, ro, 31)


def test_witness_that_does_not_realize_its_element_rejected():
    ro = oracle.RingOracle(make_ring("zpn:2,2"))
    rc, text = _cli("enumerate", "--what", "group", "--dual", "--ring", "zpn:2,2")
    doc = json.loads(text)
    doc["items"][1]["witness"] = doc["items"][0]["witness"]
    with pytest.raises(oracle.OracleError, match="does not realize"):
        oracle.check_dual_group(rc, json.dumps(doc), ro, 32)


def test_closed_form_counts():
    assert oracle.count_polynomial_functions(3, 2) == 3**9
    assert oracle.count_unit_valued_functions(3, 2) == 5832
    assert oracle.count_kernel(2, 3) == 16
    assert oracle.DUAL_GROUP_ORDER["fq:4"] == 1944


def test_verify_failures_known_false_and_otherwise():
    def report(failing):
        checks = [{"name": "groups[axioms:zm:6]", "passed": True},
                  {"name": failing, "passed": False}]
        return json.dumps({"checks": checks, "failed": 1})

    with pytest.raises(oracle.KnownFalseFail):
        oracle.check_verify(4, report("groups[embedding:zm:6]"))
    with pytest.raises(oracle.OracleError) as info:
        oracle.check_verify(4, report("groups[embedding:fq:4]"))
    assert not isinstance(info.value, oracle.KnownFalseFail)
    with pytest.raises(oracle.OracleError):
        oracle.check_verify(3, "")


def test_predicates_by_termwise_evaluation():
    z4 = oracle.RingOracle(make_ring("zpn:2,2"))
    assert z4.predicate("is_permutation", [0, 1, 2])       # x + 2x^2
    assert z4.predicate("permutes_dual", [0, 1, 2])
    assert not z4.predicate("permutes_dual", [0, 1, 1])    # x + x^2 fails on Z_4[al]
    assert z4.predicate("is_null", [0, 2, 2])              # 2x^2 + 2x
    assert z4.predicate("is_unit_valued", [1, 2])
    f4 = oracle.RingOracle(make_ring("fq:4"))
    assert f4.predicate("is_null", [0, -1, 0, 0, 1])       # x^4 - x


# -- percentiles --------------------------------------------------------------


@pytest.mark.parametrize("n, pct", [(1000, 99), (999, 98), (200, 95), (30, 66), (20, 50)])
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    samples = list(range(n, 0, -1))
    got_pct, value = tail_percentile(samples)
    assert got_pct == pct
    assert value == percentile(sorted(samples), pct)
    if pct > 50:
        assert sum(s > value for s in samples) >= 10
        assert sum(s > percentile(sorted(samples), pct + 1) for s in samples) < 10


def test_tail_percentile_falls_back_to_the_median():
    assert tail_percentile([5.0, 1.0, 3.0, 4.0, 2.0]) == (50, 3.0)


# -- reference seconds --------------------------------------------------------


def test_speed_clock_scales_by_kernel_time_and_leaves_kernels_out(monkeypatch):
    ref = speed.REF_KERNEL_S
    wall = [100.0]
    kernels = iter([2 * ref] * 3 + [ref] * 3)

    def fake_kernel():
        took = next(kernels)
        wall[0] += took
        return took

    monkeypatch.setattr(speed, "perf_counter", lambda: wall[0])
    monkeypatch.setattr(speed, "time_kernel", fake_kernel)
    clock = speed.SpeedClock(tick_s=3600.0)
    clock.start()
    try:
        wall[0] += 10.0                # host at half the reference speed
        assert clock.now() == pytest.approx(5.0)
        clock._tick()                  # median of (2r, 2r, r): still half
        assert clock.now() == pytest.approx(5.0)
        clock._tick()
        clock._tick()                  # median of (r, r, r): full speed
        wall[0] += 4.0
        assert clock.now() == pytest.approx(9.0)
    finally:
        clock.stop()
    assert clock.kernel_s == [2 * ref] * 3 + [ref] * 3


# -- spans --------------------------------------------------------------------


def _synthetic():
    #  op 0: root [0, 10] -> a [1, 4] -> a1 [2, 3]
    #                     -> sweep, a generator busy 0.5 + 1.5 inside [5, 9]
    #  op 1: root [20, 26] -> a [21, 22]
    S = spans.Span
    return [
        S("cli.main", 0.0, 10.0, None, 0, busy=10.0),
        S("funcspace.induce", 1.0, 4.0, 0, 0, busy=3.0),
        S("poly.parse", 2.0, 3.0, 1, 0, busy=1.0),
        S("groups.pair_table_sweep", 5.0, 9.0, 0, 0, busy=2.0, n=40),
        S("cli.main", 20.0, 26.0, None, 1, busy=6.0),
        S("funcspace.induce", 21.0, 22.0, 4, 1, busy=1.0),
    ]


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(_synthetic()) == [5.0, 2.0, 1.0, 2.0, 5.0, 1.0]


def test_layer_totals_by_bucket():
    totals = spans.layer_totals(_synthetic(), lambda op: op)
    assert totals[0]["cli.main"]["self_s"] == 5.0
    assert totals[0]["funcspace.induce"]["calls"] == 1
    assert totals[0]["groups.pair_table_sweep"]["n"] == 40
    assert totals[1]["cli.main"]["self_s"] == 5.0
    merged = spans.layer_totals(_synthetic(), lambda op: "all")
    assert merged["all"]["funcspace.induce"]["self_s"] == 3.0
    assert merged["all"]["funcspace.induce"]["calls"] == 2


def test_yield_ratio_counts_sweeps_under_enumeration_only():
    S = spans.Span
    trace = [
        S("groups.enumerate_dual_permutations", 0.0, 4.0, None, 0, busy=4.0, n=3),
        S("groups.dual_degree_bound", 0.5, 1.0, 0, 0, busy=0.5),
        S("groups.pair_table_sweep", 1.0, 3.0, 0, 0, busy=1.0, n=60),
        S("groups.pair_table_sweep", 5.0, 6.0, None, 0, busy=1.0, n=1000),
    ]
    enum = spans.layer_totals(trace, lambda op: op)[0]["groups.enumerate_dual_permutations"]
    assert enum["yield_ratio"] == pytest.approx(3 / 60)


def test_tracer_patches_every_binding_and_nests_real_calls():
    tracer = spans.Tracer()
    tracer.install()
    try:
        from ringfunc import funcspace

        assert canonical.induce is funcspace.induce  # the re-bound import
        assert canonical.induce.__wrapped__ is not None
        tracer.op = 0
        canonical.canonicalize(parse("x^4"), 2, 2)
        tracer.op = None
    finally:
        tracer.uninstall()
    assert not hasattr(canonical.induce, "__wrapped__")
    names = [s.name for s in tracer.spans]
    assert names[0] == "canonical.canonicalize"
    assert names.count("funcspace.induce") == 2
    assert all(s.parent == 0 for s in tracer.spans[1:] if s.name == "funcspace.induce")
    own = spans.self_times(tracer.spans)
    assert all(t >= 0 for t in own)


def test_sweep_generator_timed_per_item():
    tracer = spans.Tracer()
    tracer.install()
    try:
        from ringfunc import groups

        tracer.op = 0
        items = list(groups.pair_table_sweep(make_ring("fq:2"), 3))
        tracer.op = None
    finally:
        tracer.uninstall()
    (span,) = tracer.spans
    assert span.name == "groups.pair_table_sweep"
    assert span.n == len(items) == 8
    assert 0 < span.busy <= span.end - span.start


def test_missing_function_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("groups", "no_such_function", "call", None),
        ("no_such_module", "f", "call", None),
    ))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["groups.no_such_function", "no_such_module.f"]
