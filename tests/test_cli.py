"""Command line surface: verbs, output shapes, exit codes."""

import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from ringfunc import canonical as canon
from ringfunc import cli
from ringfunc import groups as gr
from ringfunc.cli import main
from ringfunc.rings import CAP_ENV_VAR, make_ring


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# test: predicates on one polynomial


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("test", "--ring", "zm:4", "--poly", "2*x^2 + 2*x", "--prop", "null"),
            '{"result": true}',
        ),
        (("test", "--ring", "fq:2", "--poly", "x^2", "--prop", "perm"), '{"result": true}'),
        # x^2 permutes F_2 but its derivative vanishes, so the extension is not permuted
        (
            ("test", "--ring", "fq:2", "--poly", "x^2", "--prop", "perm-dual"),
            '{"result": false}',
        ),
    ],
)
def test_predicate_reports_result_json(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0  # a false predicate is still a computed result
    assert out == expected + "\n"


def test_oracle_output_is_byte_stable(capsys):
    code, out, _ = run(
        capsys, "test", "--ring", "zm:4", "--poly", "2*x^2 + 2*x", "--prop", "null",
        "--oracle",
    )
    assert code == 0
    assert out == '{"oracle_agrees": true, "result": true}\n'


@pytest.mark.parametrize(
    "argv",
    [
        ("test", "--ring", "zm:4", "--poly", "2*x + 1", "--prop", "unit-valued"),
        ("test", "--ring", "zm:4", "--poly", "x + 1", "--prop", "perm"),
        ("test", "--ring", "zm:6", "--poly", "x^3", "--prop", "perm"),
        # a dual descriptor is unwrapped to its base before extending
        ("test", "--ring", "dual:zpn:2,2", "--poly", "x", "--prop", "perm-dual"),
        ("test", "--ring", "fq:3", "--poly", "2*x^3 + 2*x", "--prop", "perm-dual"),
    ],
)
def test_oracle_agrees_with_the_fast_path(capsys, argv):
    code, out, _ = run(capsys, *argv, "--oracle")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"result", "oracle_agrees"}
    assert doc["oracle_agrees"] is True


# ---------------------------------------------------------------------------
# count: closed formulas with optional brute-force cross-check


def test_count_formula_only(capsys):
    code, out, _ = run(capsys, "count", "--what", "uvpf", "--p", "2", "--n", "2")
    assert code == 0
    assert out == '{"formula": 16, "n": 2, "p": 2, "what": "uvpf"}\n'


@pytest.mark.parametrize(
    "what, p, n, value",
    [
        ("uvpf", 2, 2, 16),
        ("polyfun", 2, 3, 1024),
        ("kernel", 2, 2, 16),
        ("beta", 5, 2, 10),
    ],
)
def test_count_brute_force_agrees(capsys, what, p, n, value):
    code, out, _ = run(
        capsys, "count", "--what", what, "--p", str(p), "--n", str(n), "--brute-force"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["formula"] == value
    assert doc["brute_force"] == value
    assert doc["agreement"] is True


@pytest.mark.parametrize("p, n", [(2, 1), (2, 4), (3, 3), (5, 2), (7, 2)])
def test_count_beta_brute_force_matches_legendre(capsys, p, n):
    code, out, _ = run(
        capsys, "count", "--what", "beta", "--p", str(p), "--n", str(n), "--brute-force"
    )
    assert code == 0
    assert json.loads(out)["brute_force"] == canon.beta(p, n)


def test_count_beta_brute_force_respects_the_ring_size_cap(capsys):
    # the search runs on the ring Z_{p^n}, which 2^17 > 65536 exceeds
    code, _, err = run(
        capsys, "count", "--what", "beta", "--p", "2", "--n", "17", "--brute-force"
    )
    assert code == 3
    assert "size cap" in err


def test_count_kernel_rejects_n_below_two(capsys):
    code, _, err = run(capsys, "count", "--what", "kernel", "--p", "2", "--n", "1")
    assert code == 1
    assert "kernel" in err


# ---------------------------------------------------------------------------
# canonical: falling-factorial forms in text and JSON


def test_canonical_json(capsys):
    code, out, _ = run(capsys, "canonical", "--ring", "zpn:2,2", "--poly", "x^4", "--json")
    assert code == 0
    assert out == '{"n": 2, "p": 2, "polynomial": "x^2", "terms": [[0, 1, 1], [0, 2, 1]]}\n'


def test_canonical_text(capsys):
    code, out, _ = run(capsys, "canonical", "--ring", "zpn:2,2", "--poly", "x^4")
    assert code == 0
    assert out == "1*(x)_1 + 1*(x)_2\n"


def test_canonical_unit_valued_json(capsys):
    code, out, _ = run(
        capsys, "canonical", "--ring", "zpn:2,2", "--poly", "3", "--unit-valued", "--json"
    )
    assert code == 0
    assert out == '{"layers": {"2": [[1, 0, 1]]}, "n": 2, "p": 2, "polynomial": "3", "s": 1}\n'


def test_canonical_unit_valued_text(capsys):
    code, out, _ = run(
        capsys, "canonical", "--ring", "zpn:2,2", "--poly", "3", "--unit-valued"
    )
    assert code == 0
    assert out == "leading index s = 1\nlayer 2: 2\npolynomial: 3\n"


def test_canonical_accepts_a_prime_field(capsys):
    # fq:2 counts as the n = 1 prime power ring
    code, out, _ = run(capsys, "canonical", "--ring", "fq:2", "--poly", "x^2", "--json")
    assert code == 0
    assert out == '{"n": 1, "p": 2, "polynomial": "x", "terms": [[0, 1, 1]]}\n'

    code, out, _ = run(
        capsys, "canonical", "--ring", "fq:2", "--poly", "x^2 + x + 1", "--unit-valued",
        "--json",
    )
    assert code == 0
    assert out == '{"layers": {}, "n": 1, "p": 2, "polynomial": "1", "s": 1}\n'


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (("canonical", "--ring", "zm:6", "--poly", "x"), "not a prime power"),
        (("canonical", "--ring", "fq:4", "--poly", "x"), "not a prime power"),
        (
            ("canonical", "--ring", "zpn:2,2", "--poly", "x", "--unit-valued"),
            "not unit-valued",
        ),
    ],
)
def test_canonical_input_errors_exit_one(capsys, argv, fragment):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert fragment in err


# ---------------------------------------------------------------------------
# enumerate: groups, stabilizers, kernels, forms


def test_enumerate_stabilizer_lists_null_part_and_unit(capsys):
    code, out, _ = run(capsys, "enumerate", "--what", "stabilizer", "--ring", "zpn:2,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert doc["ring"] == "zpn:2,2"
    assert doc["what"] == "stabilizer"
    assert doc["items"] == [
        {"null_part": "0", "unit": [1, 1, 1, 1]},
        {"null_part": "2*x^3 + 2*x^2", "unit": [1, 3, 1, 3]},
        {"null_part": "2*x^3 + 2*x", "unit": [3, 1, 3, 1]},
        {"null_part": "2*x^2 + 2*x", "unit": [3, 3, 3, 3]},
    ]


def test_enumerate_dual_group_items_carry_witnesses(capsys):
    code, out, _ = run(capsys, "enumerate", "--what", "group", "--ring", "fq:2", "--dual")
    assert code == 0
    assert out == (
        '{"count": 2, "dual": true, "items": '
        '[{"perm": [0, 1], "unit": [1, 1], "witness": "x"}, '
        '{"perm": [1, 0], "unit": [1, 1], "witness": "x + 1"}], '
        '"ring": "fq:2", "what": "group"}\n'
    )


def test_enumerate_semidirect_group_items(capsys):
    code, out, _ = run(capsys, "enumerate", "--what", "group", "--ring", "fq:2")
    assert code == 0
    doc = json.loads(out)
    assert doc["dual"] is False
    assert doc["items"] == [
        {"perm": [0, 1], "unit": [1, 1]},
        {"perm": [1, 0], "unit": [1, 1]},
    ]


def test_enumerate_unit_valued_forms(capsys):
    code, out, _ = run(capsys, "enumerate", "--what", "uvpf-forms", "--p", "2", "--n", "1")
    assert code == 0
    assert json.loads(out) == {
        "count": 1,
        "items": [{"layers": {}, "n": 1, "p": 2, "s": 1}],
        "n": 1,
        "p": 2,
        "what": "uvpf-forms",
    }


def test_enumerate_limit_truncates_items_not_count(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--what", "kernel", "--p", "2", "--n", "2", "--limit", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 16
    assert doc["items"] == [
        {"poly": "0"},
        {"poly": "x^3 + x^2 + 2*x"},
        {"poly": "x^2 + 3*x"},
    ]

    code, out, _ = run(
        capsys, "enumerate", "--what", "kernel", "--p", "2", "--n", "2", "--limit", "0"
    )
    assert json.loads(out) == {"count": 16, "items": [], "n": 2, "p": 2, "what": "kernel"}


# ---------------------------------------------------------------------------
# export: CSV tables and JSON documents


def test_export_group_multiplication_csv(capsys):
    code, out, _ = run(
        capsys, "export", "--what", "group", "--ring", "fq:2", "--format", "csv"
    )
    assert code == 0
    assert out == ",0,1\n0,0,1\n1,1,0\n"


def test_export_stabilizer_csv_is_the_klein_table(capsys):
    code, out, _ = run(
        capsys, "export", "--what", "stabilizer", "--ring", "zpn:2,2", "--format", "csv"
    )
    assert code == 0
    assert out == (
        ",0,1,2,3\n"
        "0,0,1,2,3\n"
        "1,1,0,3,2\n"
        "2,2,3,0,1\n"
        "3,3,2,1,0\n"
    )


def test_export_group_json_table_flag(capsys):
    code, out, _ = run(capsys, "export", "--what", "group", "--ring", "fq:2", "--table")
    assert code == 0
    doc = json.loads(out)
    assert doc["table"] == [[0, 1], [1, 0]]
    assert doc["elements"][0] == {"perm": [0, 1], "unit": [1, 1]}

    code, out, _ = run(capsys, "export", "--what", "group", "--ring", "fq:2")
    assert code == 0
    assert "table" not in json.loads(out)


def test_export_kernel_csv_lists_every_polynomial(capsys):
    code, out, _ = run(
        capsys, "export", "--what", "kernel", "--p", "2", "--n", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,polynomial"
    assert len(lines) == 17
    assert lines[1] == "0,0"
    assert lines[2] == "1,x^3 + x^2 + 2*x"
    assert lines[16] == "15,x^3 + 2*x^2 + 3*x + 2"


def test_export_unit_valued_forms_csv(capsys):
    code, out, _ = run(
        capsys, "export", "--what", "uvpf-forms", "--p", "2", "--n", "1", "--format", "csv"
    )
    assert code == 0
    assert out == "index,s,polynomial\n0,1,1\n"


# ---------------------------------------------------------------------------
# outputs built from the coefficient sweeps, pinned byte for byte


SWEEP_OUTPUT_SHA256 = {
    ("enumerate", "--what", "group", "--dual", "--ring", "fq:4"):
        "782a680a40720f4d99d6e3a8ce8aca0d48dfd03908cd69d5d3bbb845e8c8b111",
    ("enumerate", "--what", "group", "--dual", "--ring", "zm:6"):
        "54508c9c676eebd8f37e6489edc430ebe8d28e33120bae114639e340e9c30664",
    ("enumerate", "--what", "stabilizer", "--ring", "fq:4"):
        "ad9f0bbd750a748754ed6015498b15027b5d62179be3aae94637de7d304e6fb6",
    ("enumerate", "--what", "stabilizer", "--ring", "zm:6"):
        "dfc1a2b4d480b4402cc87c7f8bcf757ddf0dca356763ba862ece115138954770",
    ("count", "--what", "uvpf", "--p", "3", "--n", "2", "--brute-force"):
        "ddd9f0d8bd4ee92ccd51639b6247a92e46eafd456ecf58b1a0b21381d613d54d",
    ("count", "--what", "kernel", "--p", "3", "--n", "2", "--brute-force"):
        "79468ceb93d0f0f88e0a232bd90ad33b9a5c2471f4cd0f99dbba1ec7e4bc630c",
    ("count", "--what", "polyfun", "--p", "3", "--n", "2", "--brute-force"):
        "0e19da0f1c320115d6c99c67df7b9e77f2724a462553a632111c9b476e011e87",
    ("count", "--what", "uvpf", "--p", "2", "--n", "3", "--brute-force"):
        "c4c01f21a32886d32e5940a82a2401b3d1dfc1b1461d372468eb02ba7a880267",
    ("count", "--what", "kernel", "--p", "2", "--n", "3", "--brute-force"):
        "9ad1eb395789797b3510663c9a8fea8f936647b801a3e0eca313a19a552351d7",
    ("count", "--what", "polyfun", "--p", "2", "--n", "3", "--brute-force"):
        "bee5a958ea5cc10ce9849e6bd87a7dd4d43c3de6d1b6a7c59eb31bfc308935e2",
}


@pytest.mark.parametrize("argv", list(SWEEP_OUTPUT_SHA256))
def test_sweep_outputs_are_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_OUTPUT_SHA256[argv]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dual_criterion_samples_like_a_candidate_list(monkeypatch, seed):
    # the sample drawn from the list of every candidate, constant term fastest
    base = make_ring("fq:4")
    D = gr.dual_degree_bound(base)
    candidates = [
        tuple(reversed(t)) for t in itertools.product(base.elements, repeat=D)
    ]
    expected = random.Random(seed).sample(candidates, 400)
    sampled = []
    real = cli.Polynomial

    def recording(coeffs, ring=None):
        sampled.append(tuple(coeffs))
        return real(coeffs, ring)

    monkeypatch.setattr(cli, "Polynomial", recording)
    assert cli._check_dual_criterion(base, seed, None) == [
        (f"dual[criterion:{base.descriptor}]", True)
    ]
    assert sampled == expected


def test_dual_criterion_fails_on_a_wrong_unit_mask(monkeypatch):
    # zero marked a unit: x^3 and the like pass the criterion, not the oracle
    base = make_ring("fq:3")
    monkeypatch.setattr(type(base), "unit_index_mask", lambda self: [True] * self.size)
    assert cli._check_dual_criterion(base, 0, None) == [("dual[criterion:fq:3]", False)]


def test_local_criterion_checks_the_last_block(monkeypatch):
    # the last block alone gets a bijective table whose derivative vanishes
    # mod p, so only a check that reaches it can FAIL
    real = gr.pair_table_blocks

    def corrupted(ring, D, **kwargs):
        blocks = list(real(ring, D, **kwargs))
        rest = blocks[-1][2]
        blocks[-1] = (tuple(range(ring.size)), (0,) * ring.size, rest)
        return iter(blocks)

    monkeypatch.setattr(gr, "pair_table_blocks", corrupted)
    assert cli._check_local_criterion(3, 2, None) == [
        ("dual[local-criterion:zpn:3,2]", False)
    ]


# ---------------------------------------------------------------------------
# verify: suites, reporting, the failure exit code


def test_verify_counting_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counting")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "counting[polyfun:2,2]: pass"
    assert lines[-1] == "9/9 checks passed"
    assert all(line.endswith(": pass") for line in lines[:-1])


def test_verify_canonical_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "canonical", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    assert [c["name"] for c in doc["checks"]] == [
        "canonical[kernel-basis]",
        "canonical[roundtrip:zpn:2,2]",
        "canonical[roundtrip:zpn:2,3]",
        "canonical[roundtrip:zpn:3,2]",
        "canonical[roundtrip:zpn:3,3]",
        "canonical[bijection:zpn:2,2]",
        "canonical[uv-bijection:zpn:2,2]",
    ]
    assert all(c["passed"] for c in doc["checks"])


def test_verify_dual_suite_restricted_to_one_ring(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "dual", "--ring", "fq:3")
    assert code == 0
    assert out.splitlines() == [
        "dual[law:fq:3]: pass",
        "dual[criterion:fq:3]: pass",
        "2/2 checks passed",
    ]


def test_verify_groups_grid_respects_max_size(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "groups", "--max-size", "9")
    assert code == 0
    assert out.splitlines() == [
        "groups[axioms:fq:2]: pass",
        "groups[embedding:fq:2]: pass",
        "groups[axioms:fq:3]: pass",
        "groups[embedding:fq:3]: pass",
        "4/4 checks passed",
    ]


def test_verify_groups_passes_over_z6(capsys):
    # Z_6 = F_2 x F_3 is no field, yet its embedding is onto (96 = 12 * 8)
    code, out, _ = run(capsys, "verify", "--suite", "groups", "--ring", "zm:6", "--json")
    assert code == 0
    assert json.loads(out) == {
        "checks": [
            {"name": "groups[axioms:zm:6]", "passed": True},
            {"name": "groups[embedding:zm:6]", "passed": True},
        ],
        "failed": 0,
    }


@pytest.mark.parametrize("ring, changes", [
    ("fq:3", {"surjective": False, "stabilizer_size": 4}),  # a field not onto
    ("zm:6", {"surjective": False}),  # not onto, yet the stabilizer is full
    ("zpn:2,2", {"surjective": True}),  # onto, yet the stabilizer is short
])
def test_verify_groups_fails_an_inconsistent_embedding(capsys, monkeypatch, ring, changes):
    real = cli.gr.verify_embedding
    monkeypatch.setattr(
        cli.gr, "verify_embedding",
        lambda base, cap: dataclasses.replace(real(base, cap=cap), **changes),
    )
    code, out, _ = run(capsys, "verify", "--suite", "groups", "--ring", ring)
    assert code == 4
    assert f"groups[embedding:{ring}]: FAIL" in out


def test_verify_failure_exits_four(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "_check_counting",
        lambda p, n, cap: [(f"counting[rigged:{p},{n}]", False)],
    )
    code, out, _ = run(capsys, "verify", "--suite", "counting")
    assert code == 4
    assert "counting[rigged:2,2]: FAIL" in out
    assert out.splitlines()[-1] == "0/3 checks passed"


def test_verify_failure_count_in_json(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "_check_counting",
        lambda p, n, cap: [(f"counting[rigged:{p},{n}]", False)],
    )
    code, out, _ = run(capsys, "verify", "--suite", "counting", "--json")
    assert code == 4
    doc = json.loads(out)
    assert doc["failed"] == 3
    assert not any(c["passed"] for c in doc["checks"])


# ---------------------------------------------------------------------------
# exit codes and global flags


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("frobnicate",),
        ("test", "--ring", "zm:4", "--poly", "x"),
        ("count", "--what", "polyfun", "--p", "2"),
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    # argparse would exit 2; the wrapper narrows that to the documented 1
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (("test", "--ring", "nope:3", "--poly", "x", "--prop", "null"), "unknown ring kind"),
        (("test", "--ring", "zm:4", "--poly", "x^^2", "--prop", "null"), "position"),
        (("enumerate", "--what", "group"), "--ring"),
        (("enumerate", "--what", "kernel", "--p", "2"), "--n"),
    ],
)
def test_input_errors_exit_one(capsys, argv, fragment):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert fragment in err


def test_jobs_must_be_positive(capsys):
    code, _, err = run(
        capsys, "test", "--ring", "zm:4", "--poly", "x", "--prop", "null", "--jobs", "0"
    )
    assert code == 1
    assert "--jobs" in err


def test_jobs_above_one_accepted(capsys):
    code, out, _ = run(
        capsys, "test", "--ring", "zm:4", "--poly", "x", "--prop", "null", "--jobs", "2"
    )
    assert code == 0
    assert json.loads(out) == {"result": False}


def test_size_cap_exits_three(capsys):
    code, _, err = run(capsys, "test", "--ring", "zm:70000", "--poly", "x", "--prop", "null")
    assert code == 3
    assert "cap" in err


def test_allow_large_lifts_the_default_cap(capsys):
    code, out, _ = run(
        capsys, "test", "--ring", "zm:70000", "--poly", "x", "--prop", "null",
        "--allow-large",
    )
    assert code == 0
    assert json.loads(out) == {"result": False}


def test_env_cap_controls_group_enumeration(capsys, monkeypatch):
    monkeypatch.setenv(CAP_ENV_VAR, "50")
    code, _, err = run(capsys, "enumerate", "--what", "group", "--ring", "zpn:2,2")
    assert code == 3
    assert "exceeds cap 50" in err

    # --allow-large overrides the environment cap all the way down
    code, out, _ = run(
        capsys, "enumerate", "--what", "group", "--ring", "zpn:2,2", "--allow-large"
    )
    assert code == 0
    assert json.loads(out)["count"] == 128


# ---------------------------------------------------------------------------
# output plumbing


def test_out_writes_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "beta.json"
    code, out, _ = run(
        capsys, "count", "--what", "beta", "--p", "3", "--n", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == '{"formula": 6, "n": 2, "p": 3, "what": "beta"}\n'


def test_output_is_deterministic(capsys):
    first = run(capsys, "enumerate", "--what", "stabilizer", "--ring", "zpn:2,2")
    second = run(capsys, "enumerate", "--what", "stabilizer", "--ring", "zpn:2,2")
    assert first == second
