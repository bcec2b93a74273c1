"""Command line surface: verbs, output shapes, exit codes."""

import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from functools import lru_cache
from math import factorial, gcd
from operator import eq, getitem

import pytest

from ringfunc import canonical as canon
from ringfunc import cli
from ringfunc import funcspace as fs
from ringfunc import groups as gr
from ringfunc.cli import main
from ringfunc.dual import DualRing, dual_ring, eval_dual, horner_dual
from ringfunc.poly import Polynomial, format_polynomial, index_formatter
from ringfunc.rings import CAP_ENV_VAR, PrimePowerRing, SizeCapError, make_ring
import reference_sweep
import test_groups
from test_groups import (
    corrupt_hermite_basis,
    derivative_stages,
    sweep_dual_criterion,
    sweep_dual_listing,
    sweep_stabilizer_listing,
    table_sum,
)

_THIS = sys.modules[__name__]


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


@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2)])
def test_brute_counts_match_a_filter_over_every_induced_table(p, n):
    # the oracle: build every induced table and filter it by the masks
    ring = PrimePowerRing(p, n)
    tables = fs.induced_tables(ring)
    unit = ring.unit_index_mask()
    assert cli._brute_counts(p, n, None) == {
        "polyfun": len(tables),
        "uvpf": sum(all(unit[v] for v in t) for t in tables),
        "kernel": sum(all(v % p ** (n - 1) == 0 for v in t) for t in tables),
    }


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


# (ring, poly, mode flags...) -> exit code and sha256 of stdout, recorded from
# the per-level layered construction this one-pass form replaced
CANONICAL_OUTPUT_SHA256 = [
    (("zpn:2,2", "--poly", "x^4"), 0,
     "1c8ec9d690b701ba15e14c88bf2c950c68f4914ef2b570ce66d78d32ad8ae836"),
    (("zpn:2,2", "--poly", "x^4", "--json"), 0,
     "55bedd23e75447f979286f52212d43321f5b0345cd292c57b1a2461e02cc7481"),
    (("zpn:2,2", "--poly", "x^4", "--unit-valued"), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("zpn:2,2", "--poly", "x^4", "--unit-valued", "--json"), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("zpn:2,3", "--poly", "x^6 + 8*x^5 + 2*x^4 + 5*x^3 - 6*x + 3"), 0,
     "53e3948e343a5ad0592f8332b44c3a5d9b8f7dcac51c2512c72cedc20c1bb801"),
    (("zpn:2,3", "--poly", "x^6 + 8*x^5 + 2*x^4 + 5*x^3 - 6*x + 3", "--json"), 0,
     "db0da33b6a6ea4b5313eadd88a1827e02e664f872802ca607d96c0836134b255"),
    (("zpn:2,3", "--poly", "x^6 + 8*x^5 + 2*x^4 + 5*x^3 - 6*x + 3", "--unit-valued"), 0,
     "c0edd622cc5add2feb8bde00961f73266f4caca005bb66cd58562c93531c4daf"),
    (("zpn:2,3", "--poly", "x^6 + 8*x^5 + 2*x^4 + 5*x^3 - 6*x + 3", "--unit-valued", "--json"), 0,
     "d9bdfc828853c153cf26b11df421b673437fdd452f4cd466674eb6be56ee4e7e"),
    (("zpn:2,4", "--poly", "7x^7 + x^2 + 2x - 1"), 0,
     "5517d98611956fc6c86b4bc2aa1f59ecb1e336fb1eb9f4ae6dcbf7f12906a70b"),
    (("zpn:2,4", "--poly", "7x^7 + x^2 + 2x - 1", "--json"), 0,
     "b70b9e9a524b646071172eab19fad1361f972d7de7c5618522229b604c0199bb"),
    (("zpn:2,4", "--poly", "7x^7 + x^2 + 2x - 1", "--unit-valued"), 0,
     "3b7cade3dfce3617fd803930da4021dedf5f9786bb7ab41c9fc8d68d387ec113"),
    (("zpn:2,4", "--poly", "7x^7 + x^2 + 2x - 1", "--unit-valued", "--json"), 0,
     "448904bf9b3a532a1e28c35f784e3a0d4a776755a81db1ad398bdd29fe16d28b"),
    (("zpn:2,5", "--poly", "(x^2 - x)^3 + 3x^2 + 3x + 5"), 0,
     "e0e5c7a840a93c54ba341a1b003b48b998b6960c366f88a26c025b93b6a85b05"),
    (("zpn:2,5", "--poly", "(x^2 - x)^3 + 3x^2 + 3x + 5", "--json"), 0,
     "ccb09d84ee2c608c6d9b31cc0fd47ef1530b1e2617bd458c13629bce199de1cb"),
    (("zpn:2,5", "--poly", "(x^2 - x)^3 + 3x^2 + 3x + 5", "--unit-valued"), 0,
     "a095fcef370c15e1b6648349daa220f16421eb163f98afcf144d548d5cb30cb1"),
    (("zpn:2,5", "--poly", "(x^2 - x)^3 + 3x^2 + 3x + 5", "--unit-valued", "--json"), 0,
     "7f3534e571b8df008ffae064f230c7fb5b897d320c25f8578e803b2b2fe101f8"),
    (("zpn:3,2", "--poly", "x^4 + 2*x + 5"), 0,
     "276bf5521b62d6c70d290cf99a6b13b686c47751e50989d03555df859d2b8fd5"),
    (("zpn:3,2", "--poly", "x^4 + 2*x + 5", "--json"), 0,
     "0b6e9b1205cec8c4cc596601ce010286889314887dffd08557c601743de73708"),
    (("zpn:3,2", "--poly", "x^4 + 2*x + 5", "--unit-valued"), 0,
     "830da40e3db89d44c92d587844974a47cb2f529c57c141260c44f212ba8b22f4"),
    (("zpn:3,2", "--poly", "x^4 + 2*x + 5", "--unit-valued", "--json"), 0,
     "0e9298f6c3efc00ab4fbcb4133648be82b3f0fe7b02f06a73df3724bc914bca5"),
    (("zpn:3,3", "--poly", "-x^9 + 4x^3 + 10"), 0,
     "b265ba4231e76ca5be59bacf40c63284dd8d56b7a705503d2b5bbc7b01382dfe"),
    (("zpn:3,3", "--poly", "-x^9 + 4x^3 + 10", "--json"), 0,
     "9b33f138741e816f9802b866edfacaad7c94a08c05d556055503923758472758"),
    (("zpn:3,3", "--poly", "-x^9 + 4x^3 + 10", "--unit-valued"), 0,
     "0e91f0f2fd3c5e066a992725fa9c51ed15959c9d2d06f4c3a317bebe34969465"),
    (("zpn:3,3", "--poly", "-x^9 + 4x^3 + 10", "--unit-valued", "--json"), 0,
     "842bce8f89654f808f242e0d5e42647cc80bece300c387a9f5362c4ca327b83f"),
    (("zpn:5,2", "--poly", "x^4 + 5x^3 - 3"), 0,
     "c0f4967bcd8b790b6ca554ee890217b1e6a82476a26a278179de4f48ecc39053"),
    (("zpn:5,2", "--poly", "x^4 + 5x^3 - 3", "--json"), 0,
     "17e3055d3bed6b16d12c69cb1f1ad40540020933109c075337098356a329d241"),
    (("zpn:5,2", "--poly", "x^4 + 5x^3 - 3", "--unit-valued"), 0,
     "b8d34033151de3d7639b30723e37b3d55bd1a54d8289a023c61727837db328df"),
    (("zpn:5,2", "--poly", "x^4 + 5x^3 - 3", "--unit-valued", "--json"), 0,
     "fcac808c9a8b0b14a55431a03bec37c95b8d2886c083b694ad77a95e2072cfbf"),
    (("zpn:7,2", "--poly", "2x^6 + 7x + 1"), 0,
     "d689613ec85a2ea17376c8e5edabbfd39f1d7b20566cf96c1d43f59ae753e700"),
    (("zpn:7,2", "--poly", "2x^6 + 7x + 1", "--json"), 0,
     "6f7fc8bc5f4fc92844fb2447e632e288c6bfd06c5526be6696595c72fece096d"),
    (("zpn:7,2", "--poly", "2x^6 + 7x + 1", "--unit-valued"), 0,
     "89e8afa128ba1ef2ad1349fae96cb629f1df75a39f048cdc86566ef25ebfea81"),
    (("zpn:7,2", "--poly", "2x^6 + 7x + 1", "--unit-valued", "--json"), 0,
     "17eac0d2bbe8218de9f0fb69b8dc34bc1518be5a2047f196e0e22c903cf528af"),
    (("fq:3", "--poly", "x^2 + 1"), 0,
     "52c626d7e3574e0c639f1ab5696523580a972fa90be82479f1af2aa0362a7971"),
    (("fq:3", "--poly", "x^2 + 1", "--json"), 0,
     "69278aa245d9b0a64b0f7ae5a769f40cacd189c6bfab203b90f3401a85c96f5e"),
    (("fq:3", "--poly", "x^2 + 1", "--unit-valued"), 0,
     "8bb61c8e0321404b5decaec57949487f77a97fe2644d38fa075f79ad0c55cbd6"),
    (("fq:3", "--poly", "x^2 + 1", "--unit-valued", "--json"), 0,
     "4b5d238fef5858671e66304d815fed161850b7f1d34341795952888dfb4a4581"),
    (("zm:8", "--poly", "x^2 + x + 1"), 0,
     "0ae3a3dbb84958004cb51cd40835e500849c4bc1d32309ce5c9a67f3e8448be8"),
    (("zm:8", "--poly", "x^2 + x + 1", "--json"), 0,
     "9ffc828cac23868d8e6cd8f6886f08e19da65f783dad4e5ee64d33f7289681f5"),
    (("zm:8", "--poly", "x^2 + x + 1", "--unit-valued"), 0,
     "1679c051de462e473c27013d041518395202571fd947b1fed96c3be545b8ba44"),
    (("zm:8", "--poly", "x^2 + x + 1", "--unit-valued", "--json"), 0,
     "865f1c1cec630bccd1dc237a6d41edd7569a8b57f886671a25ca5527f6086d3f"),
]


@pytest.mark.parametrize("args,code,digest", CANONICAL_OUTPUT_SHA256)
def test_canonical_outputs_are_pinned(capsys, args, code, digest):
    ring, *rest = args
    got, out, _ = run(capsys, "canonical", "--ring", ring, *rest)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


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


def test_enumerate_group_limit_builds_only_the_kept_items(capsys, monkeypatch):
    # 2,592 x 5,832 = 15,116,544 items: only the two kept ones are built,
    # from the factors the command computed
    factors = []
    real = gr.semidirect_pairs

    def spy(*args, **kwargs):
        factors.append(real(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(gr, "semidirect_pairs", spy)
    code, out, _ = run(
        capsys, "enumerate", "--what", "group", "--ring", "zm:18", "--allow-large",
        "--limit", "2",
    )
    assert code == 0
    doc = json.loads(out)
    [(perms, units)] = factors
    assert (len(perms), len(units)) == (2592, 5832)
    assert doc["count"] == len(perms) * len(units)
    assert doc["items"] == [
        {"perm": list(perms[0]), "unit": list(units[0])},
        {"perm": list(perms[0]), "unit": list(units[1])},
    ]


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


def test_csv_text_is_what_the_csv_module_writes():
    rows = [("index", "s", "polynomial"), (0, 1, "2*x^3 + x + 1"), (1, 5, "0"), ("", 7, 8)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert cli._csv_text(rows) == buf.getvalue().rstrip("\n")


@pytest.mark.parametrize("field", ["a,b", 'say "x"', "two\nlines", "cr\r"])
def test_csv_text_refuses_a_field_that_needs_quoting(field):
    with pytest.raises(ValueError, match="needs quoting"):
        cli._csv_text([("index", "polynomial"), (0, field)])


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
    ("enumerate", "--what", "group", "--dual", "--ring", "zm:12"):
        "5b2f606bc30eb14e2e1f2e0e9a03642c69b40acb46c82f91262dcfa2d6e18382",
    ("enumerate", "--what", "stabilizer", "--ring", "zm:12"):
        "ee35a2afdc96f18237adbc4d9b868c55e994dd6326236ce69eae62cce2c9c1b3",
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
    ("enumerate", "--what", "group", "--dual", "--ring", "fq:5", "--limit", "200"):
        "d722e5ec0069dd25de6b4226c393132f22efeaa5fa457713ec7f05748371d73c",
}


@pytest.mark.parametrize("argv", list(SWEEP_OUTPUT_SHA256))
def test_sweep_outputs_are_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_OUTPUT_SHA256[argv]


# outputs that go through the group elements: products, read-back pairs and
# the verify suite; exit code and sha256 of stdout, recorded before the three
# element classes became one permutation class
GROUP_OUTPUT_SHA256 = [
    (("enumerate", "--what", "group", "--ring", "fq:3"), 0,
     "a0e9085232bc3d1ac858b61fec8aa6279c475428f21d7792ebc0523f475e1e79"),
    (("enumerate", "--what", "group", "--ring", "zpn:2,2"), 0,
     "4e6ba1f0d9f9656ee8607f7695a5e88ee4569a533ffe2ee3bf1d9f363bfc7acf"),
    (("enumerate", "--what", "group", "--ring", "zm:6"), 0,
     "5715640646044e5b80c4a88a26e2b15463241d886626735c13185efcb3496114"),
    (("enumerate", "--what", "group", "--ring", "fq:4"), 0,
     "4950854be9e1d2f575177160009b4b03547a1c27d7983738f23fc112dd6e12b6"),
    (("export", "--what", "group", "--ring", "fq:3", "--table"), 0,
     "e8d11d4e1aacbc75792b1446b7d3b36d4ad981e43a2f30c60461f8c76c375a92"),
    (("export", "--what", "group", "--ring", "fq:3", "--format", "csv"), 0,
     "a8c29db6739b980687432ec9b160f014e03644e78c3fecc7ee9e6bc60fb2d255"),
    (("export", "--what", "group", "--dual", "--ring", "fq:3", "--table"), 0,
     "712cb7c53aa35300255471fc5e0332f6f2c77afe7d76acdc24348405afa4b20b"),
    (("export", "--what", "group", "--dual", "--ring", "fq:3", "--format", "csv"), 0,
     "6500477e8380e7c6627bfcdb8cfbc9197fd87d859fb08ac65b8d13daf052bd70"),
    (("export", "--what", "stabilizer", "--ring", "fq:3", "--table"), 0,
     "787ebdb17ffe1293ef082e00514b3f14571213d3ff797ffa0a05771a5747ebca"),
    (("export", "--what", "stabilizer", "--ring", "fq:3", "--format", "csv"), 0,
     "914fe09d8fe6b3c330d8b061f7dfaedf267f889c16e0f59bb50583c62df290ac"),
    (("export", "--what", "group", "--ring", "zpn:2,2", "--table"), 0,
     "e33fc34b960532dd7b5d6d6628a66d5275486e963f89ad73e4b92c8ce3a5bc99"),
    (("export", "--what", "group", "--ring", "zpn:2,2", "--format", "csv"), 0,
     "896bec227838693ea71f9f12a3fcaa0b9763eaf2ac10030bc0c47582abd7014b"),
    (("export", "--what", "group", "--dual", "--ring", "zpn:2,2", "--table"), 0,
     "aac5da9cc608f095730e8aafef7e6d445dcae10a14f9ebd3f33bbb363531bd0e"),
    (("export", "--what", "group", "--dual", "--ring", "zpn:2,2", "--format", "csv"), 0,
     "7cc16aaa32b484eb4195a51a3f5c632125e2d239fb7b4afac604c84806552977"),
    (("export", "--what", "stabilizer", "--ring", "zpn:2,2", "--table"), 0,
     "fceb5f708520bd04238ebb46504811dc731a365c04eece4a610f454424c8b701"),
    (("export", "--what", "stabilizer", "--ring", "zpn:2,2", "--format", "csv"), 0,
     "a3c2b42b6d5f539d0b173c6c84f2bd9f9b4c800ce1b66818a2fd261831c1e71a"),
    (("export", "--what", "group", "--ring", "zm:6", "--table"), 0,
     "f851cb55431f53d05cf43d7472ef95af9a548c556d9da10da3646fbfdc7da62f"),
    (("export", "--what", "group", "--ring", "zm:6", "--format", "csv"), 0,
     "d9e7a35adc60e6171380c2b22fc474b54d58115ed14bd358a76344360fb7e570"),
    (("export", "--what", "group", "--dual", "--ring", "zm:6", "--table"), 0,
     "c0b774e36a7ba1ccaef7cb3a4b9303830bcdd869ef0a28849e0854a4655fe09d"),
    (("export", "--what", "group", "--dual", "--ring", "zm:6", "--format", "csv"), 0,
     "4266023fa80086f28233744d9bf3399d280002a16db137114a197d8be0b329c5"),
    (("export", "--what", "stabilizer", "--ring", "zm:6", "--table"), 0,
     "ea3fb1178d1ac3cb4fe2f56aff5e4f8a9730cb637447f107af5b620620f5383e"),
    (("export", "--what", "stabilizer", "--ring", "zm:6", "--format", "csv"), 0,
     "914fe09d8fe6b3c330d8b061f7dfaedf267f889c16e0f59bb50583c62df290ac"),
    (("verify", "--suite", "groups", "--ring", "fq:2"), 0,
     "136b229d5c983db4fff9507d26b54e921a7ec7dab1cb60045a5394f2d0bc3960"),
    (("verify", "--suite", "groups", "--ring", "fq:2", "--json"), 0,
     "146ae359dddd44be0a38d5cb3fc14435526ab3e316c2a7816287dfd6205ee78d"),
    (("verify", "--suite", "groups", "--ring", "fq:3"), 0,
     "2181f53afd4deb44d45f5dec388962a426feb64c6ad30c228a0ff6854302ce1d"),
    (("verify", "--suite", "groups", "--ring", "fq:3", "--json"), 0,
     "5fcecfa488221efa1c6eff9bb85d02a6fca9cf79f59d59a9e10fa9fe18030dc2"),
    (("verify", "--suite", "groups", "--ring", "zpn:2,2"), 0,
     "dff72ae3f7ace4adb4dc19d533e56e62668840d1ab5315f2e8f1d1e09d0c98f4"),
    (("verify", "--suite", "groups", "--ring", "zpn:2,2", "--json"), 0,
     "d36233cb2d8a1ccc40f0faa19cf38d040808ce9f94c9c5cf3436566cd7c117ff"),
    (("verify", "--suite", "groups", "--ring", "fq:4"), 0,
     "b7b9d6d45d60e003ddc147726736d464247346770036f105a794e62e386738ef"),
    (("verify", "--suite", "groups", "--ring", "fq:4", "--json"), 0,
     "8fa62e8685832223007155687aa4a639139d722a1c51acd11040ef5b23681817"),
    (("verify", "--suite", "groups", "--ring", "zm:6"), 0,
     "d71eab5dcf37cc79e767c70cab22d4f031467af4793330bc1df948e0fcdd071a"),
    (("verify", "--suite", "groups", "--ring", "zm:6", "--json"), 0,
     "7971905b168760af61ac35b5e0386af90e0cfc8a2139714312248c73a9fa06ec"),
    # --limit, recorded when every item was built before the slice
    (("enumerate", "--what", "group", "--ring", "zpn:2,2", "--limit", "0"), 0,
     "b277d5360fa3bb94556225ac040da6c5f5a71f85fa6a4048f20c14248e48e70b"),
    (("enumerate", "--what", "group", "--ring", "zpn:2,2", "--limit", "3"), 0,
     "7ce93a54ba80ac731dda1214cd6aa5f5c6620aa93383eee7cc45d51878d8ef84"),
    (("enumerate", "--what", "group", "--ring", "zpn:2,2", "--limit", "-1"), 0,
     "e60eeec9a52b2a68d09ec0d6053b5aee71fe1cb5e0d6935e66fb580a60ad2d31"),
    (("enumerate", "--what", "group", "--ring", "fq:3", "--limit", "0"), 0,
     "a2caa609d4ad329103b99f01bac90edec1e73a867b37f3d89276ec20f257129b"),
    (("enumerate", "--what", "group", "--ring", "fq:3", "--limit", "3"), 0,
     "39ac9bb8f1f58eda4f01fb1feb3c54991d764dea6dbfdc45d5b31ff63a86943f"),
    (("enumerate", "--what", "group", "--ring", "fq:3", "--limit", "-1"), 0,
     "6927b3d00cb02e1e4479d392fc9e0420e2a6edc6175d89aa3255d61661c80dd6"),
    # recorded from the coefficient sweep, before the field listing
    (("enumerate", "--what", "group", "--dual", "--ring", "fq:5", "--limit", "3"), 0,
     "c650f23e96261e9033d1180f74321e9673ad5519066c875db5f58590a145ad40"),
    (("enumerate", "--what", "group", "--dual", "--ring", "fq:5", "--limit", "-1"), 0,
     "bd1cb70aa842a4db44f90d29689b88984d32bf9f3b2fedf1a5970e2542aae629"),
    # recorded before the dual group and the stabilizer were listed as packed
    # base pairs in groups.py
    (("enumerate", "--what", "group", "--dual", "--ring", "zm:6", "--limit", "3"), 0,
     "78e15c8070c62a575542a6e8867ddbf63cc2a9876b96557c0560d12d173901b7"),
    (("enumerate", "--what", "stabilizer", "--ring", "zm:6", "--limit", "3"), 0,
     "bb21950433b1032886cb1680de9f6490d6f7c7f6a8546e9e97733ab42d988f20"),
    (("enumerate", "--what", "stabilizer", "--ring", "zm:6", "--limit", "-1"), 0,
     "3e3be5c844870e0b19c9b4d97987500bc273f8256f8aa26376e3e0297c49133c"),
    (("enumerate", "--what", "stabilizer", "--ring", "fq:5", "--limit", "3"), 0,
     "3079113346d5b1a70d8dfdaedd56c16d0675c6afd07c5132806b3cd37dfb2406"),
    (("enumerate", "--what", "group", "--dual", "--ring", "zm:4"), 0,
     "2fe6a28dd08bbea9d7f2f2c3f07c3f3e8a9a291771e849e8f0f4e17e397f8095"),
    (("export", "--what", "stabilizer", "--ring", "fq:4", "--format", "csv"), 0,
     "4e163686a4b1d21b9b2b6fb9c6ed61f8038d8a87ca71937bcb78378480038301"),
    # a refusal writes nothing to stdout
    (("enumerate", "--what", "stabilizer", "--ring", "fq:8"), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # refused by the pair sweep's cap until the pair module listed them;
    # recorded from the sweep with --allow-large
    (("enumerate", "--what", "group", "--dual", "--ring", "zpn:2,3"), 0,
     "048861302f2c09d67544a41f19f0179dbc16e97d2a0cccfc684ea4acff3808d5"),
    (("enumerate", "--what", "stabilizer", "--ring", "zpn:2,3"), 0,
     "ebf979404e7a79c90e216905e897b05b5f4d66bd6007e2e107461345ece6353f"),
    (("enumerate", "--what", "stabilizer", "--ring", "zpn:3,2"), 0,
     "624a5fd12d854e77eb7b021f53b219868b39fc5cff4906778102812d2cf2f1bc"),
    (("verify", "--suite", "groups", "--ring", "zpn:2,3"), 0,
     "ee773bc89bee51fa471ba8b2faa48cc1f5be442d5725b15f5633f6a6cd90b913"),
    # recorded before the listings' witnesses took the pair (G, F) in place
    # of a packed row
    (("enumerate", "--what", "group", "--dual", "--ring", "zm:8"), 0,
     "b6d50ef4094ccd7e3df7446cb2ef6d29f9f437c0eafa66f83ca60f519597194f"),
    (("enumerate", "--what", "stabilizer", "--ring", "fq:5"), 0,
     "7aae19b172b138038cc2e129f5465264c4ea84c5f3738e817c442b63d506e2d3"),
    (("enumerate", "--what", "stabilizer", "--ring", "zm:9"), 0,
     "9e2505f2d7ff6d4d75cb000b8c259b938ca48aefed3febca2c235baec2657b8f"),
]


@pytest.mark.parametrize("argv,code,digest", GROUP_OUTPUT_SHA256)
def test_group_outputs_are_pinned(capsys, argv, code, digest):
    got, out, _ = run(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def _group_args(desc, what, dual):
    return cli.build_parser().parse_args(
        ["enumerate", "--what", what, "--ring", desc] + (["--dual"] if dual else [])
    )


def _group_items(desc, what, dual):
    doc, texts, elements = cli._group_elements(_group_args(desc, what, dual), None)
    return doc["count"], list(texts()), elements


LISTING_RINGS = ["fq:2", "fq:3", "fq:4", "zpn:2,2", "zm:3", "zm:4", "zm:6", "zm:12"]


@pytest.mark.parametrize("desc", LISTING_RINGS)
def test_field_dual_listing_matches_the_sweep(desc):
    # the listing of groups.dual_pairs, from the factors with Hermite
    # witnesses over a field, against the coefficient sweep: order, pairs,
    # witness strings and elements
    expected = sweep_dual_listing(make_ring(desc))
    count, items, elements = _group_items(desc, "group", True)
    assert count == len(expected)
    assert items == [
        cli._json_dumps({"perm": G, "unit": F, "witness": format_polynomial(w)})
        for _, (G, F), w in expected
    ]
    assert [e.table for e in elements()] == [t for t, _, _ in expected]


@pytest.mark.parametrize("desc", LISTING_RINGS)
def test_field_stabilizer_listing_matches_the_sweep(desc):
    expected = sweep_stabilizer_listing(make_ring(desc))
    count, items, elements = _group_items(desc, "stabilizer", False)
    assert count == len(expected)
    assert items == [
        cli._json_dumps({"null_part": format_polynomial(w - Polynomial.x()), "unit": unit})
        for _, unit, w in expected
    ]
    assert [e.table for e in elements()] == [t for t, _, _ in expected]


def _listing_items(base, what, dual):
    """The items of a group listing as dicts, one per pair of the groups
    module's listing, with the witness or null part rendered by
    index_formatter: the oracle of the CLI's streamed item texts."""
    nb = base.size
    text = index_formatter(nb, 2 * nb)
    if what == "stabilizer":
        pairs, null_part = gr.stabilizer_pairs(base)
        return [{"null_part": text(null_part(F)), "unit": F} for _, F in pairs]
    if dual:
        pairs, witness = gr.dual_pairs(base)
        return [{"perm": G, "unit": F, "witness": text(witness(G, F))} for G, F in pairs]
    return [{"perm": G, "unit": F} for G, F in itertools.product(*gr.semidirect_pairs(base))]


def _listing_document(argv, base, items):
    """The whole document of a listing command over base, with its items,
    as one _json_dumps of a dict, as the CLI once printed it."""
    args = cli.build_parser().parse_args(argv)
    key = "items" if args.command == "enumerate" else "elements"
    doc = {"count": len(items), key: items[:getattr(args, "limit", None)],
           "ring": base.descriptor, "what": args.what}
    if args.what == "group":
        doc["dual"] = args.dual
    return cli._json_dumps(doc) + "\n"


WRITER_RINGS = ["fq:2", "fq:3", "fq:4", "fq:5", "zpn:2,2", "zpn:2,3", "zm:6", "zm:12"]


@pytest.mark.parametrize("what", [("group",), ("group", "--dual"), ("stabilizer",)])
@pytest.mark.parametrize("desc", WRITER_RINGS)
def test_streamed_listing_is_the_dumped_document(capsys, tmp_path, desc, what):
    # the item texts, written as they are made, are the bytes of the whole
    # document of item dicts through _json_dumps, on every limit, for both
    # verbs, to stdout and to --out
    base = make_ring(desc)
    items = _listing_items(base, what[0], len(what) == 2)
    target = tmp_path / "listing.json"
    for verb, limits in (("enumerate", (None, 0, 3, -1)), ("export", (None,))):
        for limit in limits:
            argv = [verb, "--what", *what, "--ring", desc]
            argv += [] if limit is None else ["--limit", str(limit)]
            want = _listing_document(argv, base, items)
            assert run(capsys, *argv) == (0, want, "")
            assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
            assert target.read_text(encoding="utf-8") == want


@pytest.mark.parametrize("argv,err", [
    (("enumerate", "--what", "group", "--dual", "--ring", "fq:5"),
     "semidirect product: 122880 exceeds cap 1000"),
    (("export", "--what", "stabilizer", "--ring", "fq:5"), "stabilizer: 1024 exceeds cap 1000"),
    (("enumerate", "--what", "stabilizer", "--ring", "zm:24", "--limit", "0"),
     "stabilizer: 1728 exceeds cap 1000"),
    (("export", "--what", "group", "--dual", "--ring", "zpn:2,2", "--table"),
     "multiplication table: 1024 exceeds cap 1000"),
    (("export", "--what", "group", "--ring", "zm:6", "--table"),
     "multiplication table: 9216 exceeds cap 1000"),
])
def test_capped_listing_writes_nothing(capsys, monkeypatch, tmp_path, argv, err):
    # a refused listing writes no byte to stdout, and leaves the --out file
    # as it was, or absent
    monkeypatch.setenv(CAP_ENV_VAR, "1000")
    assert run(capsys, *argv) == (3, "", f"error: {err}\n")
    kept, absent = tmp_path / "kept.json", tmp_path / "absent.json"
    kept.write_text("before\n", encoding="utf-8")
    for target in (kept, absent):
        assert run(capsys, *argv, "--out", str(target)) == (3, "", f"error: {err}\n")
    assert kept.read_text(encoding="utf-8") == "before\n"
    assert not absent.exists()


@pytest.mark.parametrize("argv", [
    ("--what", "group", "--dual", "--ring", "fq:5"),
    ("--what", "stabilizer", "--ring", "fq:7"),
])
def test_limited_field_listing_builds_only_the_kept_pairs(capsys, monkeypatch, argv):
    # over a field the pairs are decoded as they are read: --limit 3 reads
    # three of fq:5's 122,880 dual pairs and of fq:7's 279,936 stabilizer
    # pairs, and they are the first three of the listing
    read = []
    real = gr.Listing.__iter__

    def counting(self):
        for pair in real(self):
            read.append(pair)
            yield pair

    monkeypatch.setattr(gr.Listing, "__iter__", counting)
    code, out, _ = run(capsys, "enumerate", *argv, "--limit", "3")
    assert code == 0 and len(json.loads(out)["items"]) == 3
    monkeypatch.undo()
    listing = (gr.stabilizer_pairs if "stabilizer" in argv else gr.dual_pairs)(
        make_ring(argv[-1]))[0]
    assert read == list(itertools.islice(listing, 3))


def _count_witnesses(monkeypatch):
    """Wrap the witness functions of the two listings; returns the list of
    the arguments, a pair or a unit table, of each witness built."""
    built = []

    def counting(listing):
        def wrapped(*args, **kwargs):
            pairs, witness = listing(*args, **kwargs)
            return pairs, lambda *pair: built.append(pair) or witness(*pair)
        return wrapped

    for name in ("dual_pairs", "stabilizer_pairs"):
        monkeypatch.setattr(gr, name, counting(getattr(gr, name)))
    return built


def test_field_listing_builds_only_the_kept_items(capsys, monkeypatch):
    # --limit 5 builds five witnesses, the kept ones, on a field and off it
    built = _count_witnesses(monkeypatch)
    for desc in ("fq:4", "zm:6"):
        for what in (("group", "--dual"), ("stabilizer",)):
            _, every, _ = _group_items(desc, what[0], len(what) == 2)
            built.clear()
            code, out, _ = run(
                capsys, "enumerate", "--what", *what, "--ring", desc, "--limit", "5"
            )
            assert code == 0
            assert len(built) == 5
            assert json.loads(out)["items"] == [json.loads(text) for text in every[:5]]


@pytest.mark.parametrize("what", [("group", "--dual"), ("stabilizer",)])
def test_limited_field_listing_builds_only_the_kept_witnesses(capsys, monkeypatch, what):
    # fq:5 has 122,880 dual permutations and 1,024 stabilizer elements;
    # --limit 5 sums at most two Hermite halves a kept item, not a Hermite
    # form per factor of the whole group
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    real = gr.hermite_sum
    monkeypatch.setattr(gr, "hermite_sum", counting)
    code, out, _ = run(capsys, "enumerate", "--what", *what, "--ring", "fq:5", "--limit", "5")
    assert (code, len(json.loads(out)["items"])) == (0, 5)
    assert len(calls) <= 2 * 5


@pytest.mark.parametrize("what", [("group", "--dual"), ("stabilizer",)])
def test_export_refuses_the_table_before_building_items(capsys, monkeypatch, what):
    # fq:4 has 1,944 dual permutations and 81 stabilizer elements, both
    # under the cap of 2,000, and their tables are over it; items render
    # their witnesses by index_formatter, polynomials by format_polynomial
    def no_format(*args):
        raise AssertionError("witness formatted")

    monkeypatch.setenv(CAP_ENV_VAR, "2000")
    monkeypatch.setattr(cli, "format_polynomial", no_format)
    monkeypatch.setattr(cli, "index_formatter", no_format)
    built = _count_witnesses(monkeypatch)
    count = 1944 if what[0] == "group" else 81
    for fmt in (("--table",), ("--format", "csv")):
        assert run(capsys, "export", "--what", *what, "--ring", "fq:4", *fmt) == (
            3, "", f"error: multiplication table: {count**2} exceeds cap 2000\n"
        )
    assert built == []


@pytest.mark.parametrize("what,cap,err", [
    (("group", "--dual"), None, "multiplication table: 15099494400 exceeds cap 10000000"),
    (("stabilizer",), "1000000", "multiplication table: 1048576 exceeds cap 1000000"),
])
def test_field_table_refusal_lists_nothing(capsys, monkeypatch, what, cap, err):
    # over F_5 the orders, 120 * 4^5 and 4^5, are known before listing, so
    # the table is refused with no Hermite form, factor or pair table built
    def no_build(*args, **kwargs):
        raise AssertionError("built")

    if cap:
        monkeypatch.setenv(CAP_ENV_VAR, cap)
    for name in ("hermite_basis", "hermite_sum", "semidirect_factors", "pair_tables"):
        monkeypatch.setattr(gr, name, no_build)
    for fmt in (("--table",), ("--format", "csv")):
        assert run(capsys, "export", "--what", *what, "--ring", "fq:5", *fmt) == (
            3, "", f"error: {err}\n"
        )


@pytest.mark.parametrize("argv,count", [
    (("enumerate", "--what", "group", "--dual", "--ring", "zpn:2,3"), 8192),
    (("enumerate", "--what", "stabilizer", "--ring", "zpn:2,3"), 64),
    (("enumerate", "--what", "stabilizer", "--ring", "zpn:3,2"), 729),
])
def test_module_listings_reach_the_orders_of_the_sweep(capsys, argv, count):
    code, out, _ = run(capsys, *argv)
    assert (code, json.loads(out)["count"], len(json.loads(out)["items"])) == (0, count, count)


@pytest.mark.parametrize("argv,expected", [
    # |P(R)| |H| = 720 * 84375 pairs to try
    (("enumerate", "--what", "group", "--dual", "--ring", "zm:15"),
     "error: dual pairs: 60750000 exceeds cap 10000000\n"),
    # 8,192 dual permutations are listed; their table is refused
    (("export", "--what", "group", "--dual", "--ring", "zpn:2,3", "--table"),
     "error: multiplication table: 67108864 exceeds cap 10000000\n"),
    (("export", "--what", "group", "--ring", "fq:5", "--table"),
     "error: multiplication table: 15099494400 exceeds cap 10000000\n"),
    (("enumerate", "--what", "group", "--ring", "fq:7"),
     "error: semidirect product: 1410877440 exceeds cap 10000000\n"),
    (("enumerate", "--what", "group", "--dual", "--ring", "fq:7"),
     "error: semidirect product: 1410877440 exceeds cap 10000000\n"),
    (("enumerate", "--what", "stabilizer", "--ring", "fq:9"),
     "error: stabilizer: 134217728 exceeds cap 10000000\n"),
    # P(R) is enumerated below the null degree bound 9: 27^9 candidates
    (("enumerate", "--what", "group", "--dual", "--ring", "zm:27"),
     "error: polynomial enumeration: 7625597484987 exceeds cap 10000000\n"),
    # |H| = 7^14
    (("enumerate", "--what", "stabilizer", "--ring", "zm:49"),
     "error: stabilizer: 678223072849 exceeds cap 10000000\n"),
    # once refused at 944,784 dual tables of 81 entries; now a chain from 2
    # lifts reaches that order, and the run's stdout is pinned by sha256
    (("verify", "--suite", "groups", "--ring", "zm:9"),
     "c257b264a01fbd09ca4f44fe76d942939d665294db54db3e5ff221e4102b2a76"),
    # (q - 1)^q = 5,764,801 passes the stabilizer cap, q^q does not
    (("enumerate", "--what", "stabilizer", "--ring", "fq:8"),
     "error: polynomial enumeration: 16777216 exceeds cap 10000000\n"),
    # once refused at the semidirect product cap; now three generators reach
    # the order 1,410,877,440, and the run's stdout is pinned by sha256
    (("verify", "--suite", "groups", "--ring", "fq:7"),
     "888d0680bc89e7bd2701000ac0ba509e11fdc4913d852d0220c5da1996d8938c"),
    # P(Z/16) is enumerated below the null degree bound 6: 16^6 candidates
    (("verify", "--suite", "groups", "--ring", "zm:16"),
     "error: polynomial enumeration: 16777216 exceeds cap 10000000\n"),
    # the smallest field whose chain may hold more than the cap: n = 23^2
    # points, 2 n^2 k entries, n^k at least 23! 22^23 for k = 20
    (("verify", "--suite", "groups", "--ring", "fq:23"),
     "error: stabilizer chain: 11193640 exceeds cap 10000000\n"),
])
def test_group_refusals_are_pinned(capsys, argv, expected):
    # a refusal pins its stderr, a run that now passes its stdout's sha256
    code, out, err = run(capsys, *argv)
    if expected.startswith("error: "):
        assert (code, out, err) == (3, "", expected)
    else:
        assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, expected, "")


def test_verify_groups_refuses_before_building_the_product(capsys, monkeypatch):
    # fq:23: the chain's bound, 11,193,640 table entries, is over the cap,
    # and it is checked before any generator, chain or group is built
    def refuse(*args, **kwargs):
        raise AssertionError("semidirect product, chain or tables built")

    monkeypatch.setattr(gr, "semidirect_group", refuse)
    monkeypatch.setattr(gr, "pair_elements", refuse)
    monkeypatch.setattr(gr, "pair_tables", refuse)
    monkeypatch.setattr(gr, "_Chain", refuse)
    monkeypatch.setattr(gr, "hermite_basis", refuse)
    code, out, err = run(capsys, "verify", "--suite", "groups", "--ring", "fq:23")
    assert (code, out) == (3, "")
    assert err == "error: stabilizer chain: 11193640 exceeds cap 10000000\n"


# verify --suite dual: exit code, sha256 of stdout and stderr, recorded while
# the criterion was still a 400-candidate sample
DUAL_OUTPUT_SHA256 = [
    (("verify", "--suite", "dual"), 0,
     "fa77ec3f91628452a2807b78c6b3a30da8e6b33ab39c02dde09ce6f9a7d3f866", ""),
    (("verify", "--suite", "dual", "--json"), 0,
     "72ae9bac8ab68034e0278ca11a4d93425a8466177acb2329188e439cd41378ff", ""),
    (("verify", "--suite", "dual", "--ring", "zm:6"), 0,
     "8d336fa4a8b318680e1ae68b146b292e0b4310467e3b26327a5c6a36bfe29b69", ""),
    (("verify", "--suite", "dual", "--ring", "zm:6", "--json"), 0,
     "50a75b2b80b4d0b09d7e89058c80146210198c19e0ba18c720a6c607626ddd90", ""),
    (("verify", "--suite", "dual", "--ring", "fq:5"), 0,
     "36c1d659e3f3502056d51cc1f0b9829c583a69069f2fdc24dbc44c28ad78c2c2", ""),
    (("verify", "--suite", "dual", "--ring", "fq:5", "--json"), 0,
     "263bf3097a7c2780a40466b470536a32713ebc931a0c64d9e9d72f3d2454dc5d", ""),
    # refused by the pair sweep's cap (16777216 candidates) until the sweep
    # was split at the null part; the same stdout as with --allow-large
    (("verify", "--suite", "dual", "--ring", "zpn:2,3"), 0,
     "d7123bb5fb834921f56faa2f4e11c3ebd6793e553a4dd519e360c319c916b8fe", ""),
    (("verify", "--suite", "dual", "--ring", "zpn:3,2"), 0,
     "927e5ed766366cc45264f06e4b8a70745b3039ef95d4707efd6bff77ccb8b110", ""),
    # refused by the key sweep's cap (fq:7: 720 admitted low sums times 7^7
    # rest sums; fq:8: 8^8 rest sums) until the criterion came from the law
    # and the unit-row lemma
    (("verify", "--suite", "dual", "--ring", "fq:7"), 0,
     "1880a58b40c93b205e6dd65fd17298bffdc3fa7d5e66b8ab3375ca506fdabb30", ""),
    (("verify", "--suite", "dual", "--ring", "fq:8"), 0,
     "5fdcfd025d0d7eb6d143ef3e1f5099577caabfac5dc137cf2e743f7da6080615", ""),
    # fq:9 was refused by the key sweep too; zm:16 is the key sweep's output
    (("verify", "--suite", "dual", "--ring", "fq:9"), 0,
     "312afae26f98bf9f524768003742e5b88d204fb90e1fe2cc8ce2103e0ee6dcf1", ""),
    (("verify", "--suite", "dual", "--ring", "zm:16"), 0,
     "0379c36c39bb68f4fdabe82056bf2167f8ac9086eb70b346d31269e525e57f42", ""),
    # the dual ring itself is over the size cap
    (("verify", "--suite", "dual", "--ring", "zm:257"), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: dual ring of size 66049 exceeds size cap 65536\n"),
    # recorded from the law walk that ran horner_dual against eval_dual per
    # monomial, which took 0.4-0.7 s on fq:16, 6-7 s on fq:32 and 10-12 s
    # on zm:64
    (("verify", "--suite", "dual", "--ring", "fq:16"), 0,
     "ab98fc95bb587c58d3b50356ed5974229cce9c5078aed8589d1c60f72bc3fa8b", ""),
    (("verify", "--suite", "dual", "--ring", "fq:32"), 0,
     "ce8ed89e8927bcc9239a3f45e23f6278b22cc8013451a9ee2ada6dc17b4dabc4", ""),
    (("verify", "--suite", "dual", "--ring", "zm:64"), 0,
     "968cf6b36489a846892701a792aeeff7cd098e55d0d06036f057a14fdf25291e", ""),
]


@pytest.mark.parametrize("argv,code,digest,err", DUAL_OUTPUT_SHA256)
def test_dual_outputs_are_pinned(capsys, argv, code, digest, err):
    got, out, got_err = run(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest(), got_err) == (code, digest, err)


def _record_dual_verdicts(monkeypatch, wrong_at=None):
    # the keys the criterion oracle builds, in order; the verdict on call
    # number wrong_at (from 1) has its criterion side flipped
    real = test_groups._dual_verdicts
    keys = []

    def recording(key, base):
        keys.append(key)
        brute, criterion = real(key, base)
        return brute, criterion != (len(keys) == wrong_at)

    monkeypatch.setattr(test_groups, "_dual_verdicts", recording)
    return keys


def _bijective_on(f, dual, points):
    seen = set()
    for v in horner_dual(f, dual, points):
        if v in seen:
            return False
        seen.add(v)
    return True


@pytest.mark.parametrize("desc", ["fq:2", "fq:3", "zpn:2,2", "zm:6"])
def test_dual_criterion_matches_horner_dual_on_every_candidate(monkeypatch, desc):
    # every coefficient vector below D, evaluated on R[al] by horner_dual:
    # the criterion agrees with brute force, the oracle and the check pass,
    # and the keys the oracle builds are those of the f0 with constant term
    # zero and [f0] a bijection, the only ones either verdict can hold for
    base = make_ring(desc)
    dual = dual_ring(base)
    D = gr.dual_degree_bound(base)
    on_base = [dual.embed(a) for a in base.elements]
    # the points (a, 0) first, where most tables already repeat a value
    points = on_base + [z for z in dual.elements if z not in on_base]
    expected = set()
    for coeffs in itertools.product(base.elements, repeat=D):
        f = fs.ring_polynomial(base, coeffs)
        assert _bijective_on(f, dual, points) == fs.permutes_dual(f, base)
        if coeffs[0] == base.zero and fs.is_permutation(f, base):
            expected.add(
                tuple(map(dual.index, horner_dual(f, dual, dual.elements)))
                + tuple(map(dual.index, horner_dual(f.derive(), dual, on_base)))
            )
    keys = _record_dual_verdicts(monkeypatch)
    assert sweep_dual_criterion(base) is True
    assert set(keys) == expected
    law = cli._check_dual_law(base, None)[0][1]
    assert cli._check_dual_criterion(base, law) == [(f"dual[criterion:{desc}]", True)]


def _split_sweep(add_t, zero_table, stages, first: slice):
    """The oracle of the dual criterion's keys: the sums of the reference
    sweep (reference_sweep.coefficient_sums) over the stages, split at the
    middle stage, k = len(stages) // 2, into the distinct low sums
    (stages[:k]) and high sums (stages[k:]).  Yields
    h + t for each high sum h and each low sum t whose first table t[first],
    added to h[first], makes a bijection, in first-reached order of h, then
    of t: one key per (low, high) pair, repeats included."""
    k = len(stages) // 2
    low = dict(reference_sweep.coefficient_sums(add_t, zero_table, stages[:k]))
    high = dict(reference_sweep.coefficient_sums(add_t, zero_table, stages[k:]))
    for h in high:
        rows = [add_t[b] for b in h]
        h1 = rows[first]
        for t in low:
            if len(set(map(getitem, h1, t[first]))) == len(h1):
                yield tuple(map(getitem, rows, t))


def _split_sweep_keys(base):
    # the keys _split_sweep builds on the criterion's stages over R[al]
    dual = dual_ring(base)
    nb = base.size
    on_base = range(base.index(base.zero), dual.size, nb)
    domain = [dual.embed(c) for c in base.elements]
    stages = derivative_stages(dual, gr.dual_degree_bound(base), domain, on_base)
    zero = (dual.index(dual.zero),) * (dual.size + nb)
    first = slice(on_base.start, dual.size, nb)
    return list(_split_sweep(dual.index_op_tables()[0], zero, stages, first))


@pytest.mark.parametrize("desc,built", [
    ("fq:3", 54), ("zpn:2,2", 8), ("fq:4", 1536), ("zm:6", 216),
])
def test_dual_criterion_builds_only_the_keys_the_filter_admits(monkeypatch, desc, built):
    # of the |R|^(D-1) keys with constant term zero (fq:4: 16,384), only
    # those with a bijective table on R x 0, each once; the split oracle
    # builds zm:6's 216 as 432 (low, high) pairs
    base = make_ring(desc)
    keys = _record_dual_verdicts(monkeypatch)
    assert sweep_dual_criterion(base) is True
    assert len(keys) == len(set(keys)) == built
    assert len(set(_split_sweep_keys(base))) == built
    if desc == "zm:6":
        assert len(_split_sweep_keys(base)) == 432


def test_dual_criterion_caps_the_rest_sums_before_the_low_sweep(monkeypatch):
    # the low term x is admitted on every ring, so the keys are at least the
    # rest sums: fq:4 has 64 low sums, 256 rest sums and 1,536 keys, and a
    # cap of 255 refuses before anything is swept
    def refuse(*args, **kwargs):
        raise AssertionError("swept")

    monkeypatch.setattr(reference_sweep, "coefficient_sums", refuse)
    with pytest.raises(SizeCapError, match="pair sweep: 256 exceeds cap 255"):
        sweep_dual_criterion(make_ring("fq:4"), cap=255)


@pytest.mark.parametrize("desc", ["fq:2", "fq:3", "fq:4", "zpn:2,2", "zm:4", "zm:6", "zm:8"])
def test_dual_criterion_keys_match_the_split_sweep(monkeypatch, desc):
    # the null split builds the distinct keys of the middle-degree split
    base = make_ring(desc)
    keys = _record_dual_verdicts(monkeypatch)
    assert sweep_dual_criterion(base) is True
    assert len(keys) == len(set(keys))
    assert set(keys) == set(_split_sweep_keys(base))


def _break_null_split(monkeypatch, how, owner, name):
    # the null split owner.name (_local_null_split of the local criterion
    # oracle or test_groups._dual_null_split of the criterion oracle) with one change
    # to its stages: "rest", the last term of the first rest stage becomes
    # the degree-1 low term x, which is not null on the filter's points;
    # "low", the first of several low stages gains the last term of the last
    # rest stage, which is 0 on the points like the zero term, so the sweep
    # on the points merges the two
    real = getattr(owner, name)

    def broken(*args):
        low, rest = real(*args)
        if how == "rest":
            label, _ = rest[0][-1]
            rest = [rest[0][:-1] + [(label, low[0][1][1])]] + rest[1:]
        else:
            assert len(low) > 1
            low = [low[0] + [("extra", rest[-1][-1][1])]] + low[1:]
        return low, rest

    monkeypatch.setattr(owner, name, broken)


@pytest.mark.parametrize("how", ["rest", "low"])
@pytest.mark.parametrize("desc", ["fq:3", "zpn:2,2", "zm:6"])
def test_dual_criterion_fails_on_a_broken_split(monkeypatch, desc, how):
    base = make_ring(desc)
    keys = _record_dual_verdicts(monkeypatch)
    _break_null_split(monkeypatch, how, test_groups, "_dual_null_split")
    assert sweep_dual_criterion(base) is False
    assert keys == []


@pytest.mark.parametrize("p,n,how", [(2, 2, "rest"), (3, 2, "rest"), (3, 2, "low")])
def test_local_criterion_fails_on_a_broken_split(monkeypatch, p, n, how):
    # the key sweep oracle refuses a split it cannot trust before any key
    monkeypatch.setattr(_THIS, "_local_verdicts", _refuse)
    _break_null_split(monkeypatch, how, _THIS, "_local_null_split")
    assert sweep_local_criterion(p, n) is False


def _refuse(*args):
    raise AssertionError("a key was built")


@pytest.mark.parametrize("desc", ["fq:3", "zpn:2,2", "zm:6"])
def test_dual_criterion_checks_the_last_key(monkeypatch, desc):
    # a wrong verdict on the last key the filter admits, and on it alone,
    # must FAIL
    base = make_ring(desc)
    every = _record_dual_verdicts(monkeypatch)
    assert sweep_dual_criterion(base) is True
    built = len(every)
    keys = _record_dual_verdicts(monkeypatch, wrong_at=built)
    assert sweep_dual_criterion(base) is False
    assert len(keys) == built


def test_dual_criterion_fails_on_a_wrong_unit_mask(monkeypatch):
    # zero marked a unit: its multiplication row is not a permutation, and
    # x^3 and the like pass the criterion, not brute force
    base = make_ring("fq:3")
    monkeypatch.setattr(type(base), "unit_index_mask", lambda self: [True] * self.size)
    assert cli._check_dual_criterion(base, True) == [("dual[criterion:fq:3]", False)]
    assert sweep_dual_criterion(base) is False


@pytest.mark.parametrize("desc", ["fq:3", "zpn:2,2", "zm:6"])
def test_dual_criterion_fails_on_a_unit_marked_a_non_unit(capsys, monkeypatch, desc):
    # one marked a non-unit: its multiplication row is a permutation; the
    # law still passes, so the criterion line alone FAILs
    base = make_ring(desc)
    real = type(base).unit_index_mask

    def one_dropped(self):
        mask = list(real(self))
        mask[self.index(self.one)] = False
        return mask

    monkeypatch.setattr(type(base), "unit_index_mask", one_dropped)
    assert cli._check_dual_criterion(base, True) == [(f"dual[criterion:{desc}]", False)]
    code, out, _ = run(capsys, "verify", "--suite", "dual", "--ring", desc)
    assert code == 4
    assert out.splitlines()[:2] == [f"dual[law:{desc}]: pass", f"dual[criterion:{desc}]: FAIL"]


@pytest.mark.parametrize(
    "desc", ["fq:2", "fq:3", "fq:4", "fq:5", "zpn:2,2", "zpn:2,3", "zm:6", "zm:10"]
)
def test_dual_criterion_lemma_agrees_with_the_key_sweep(capsys, desc):
    # brute force and the criterion agree on every key the oracle sweeps,
    # and the CLI's line, from the law and the unit-row lemma, passes
    base = make_ring(desc)
    assert sweep_dual_criterion(base) is True
    code, out, _ = run(capsys, "verify", "--suite", "dual", "--ring", desc)
    assert code == 0
    assert out.splitlines()[1] == f"dual[criterion:{base.descriptor}]: pass"


@pytest.mark.parametrize("desc", ["fq:2", "fq:3", "zpn:2,2", "fq:4"])
def test_dual_law_fails_on_a_dropped_cross_term(capsys, monkeypatch, desc):
    # (a + b al)(c + d al) without the b c term: x^2 gives (a^2, a b)
    base = make_ring(desc)
    assert cli._check_dual_law(base, None) == [(f"dual[law:{base.descriptor}]", True)]

    def mul(self, x, y):
        return (self.base.mul(x[0], y[0]), self.base.mul(x[0], y[1]))

    monkeypatch.setattr(DualRing, "mul", mul)
    assert cli._check_dual_law(base, None) == [(f"dual[law:{base.descriptor}]", False)]
    code, out, _ = run(capsys, "verify", "--suite", "dual", "--ring", desc)
    assert code == 4
    # the criterion rests on the law, so it FAILs with it
    assert out.splitlines()[:2] == [
        f"dual[law:{base.descriptor}]: FAIL", f"dual[criterion:{base.descriptor}]: FAIL"
    ]


@pytest.mark.parametrize("desc", ["fq:3", "zpn:2,2", "zm:6", "fq:4"])
def test_dual_law_reaches_the_last_monomial_before_a_repeat(monkeypatch, desc):
    # the first repeat of the powers z^k over R[al], found directly; a wrong
    # law value at the monomial just before it must FAIL
    base = make_ring(desc)
    dual = dual_ring(base)
    states, power = [], [dual.one] * dual.size
    while power not in states:
        states.append(power)
        power = [dual.mul(p, z) for p, z in zip(power, dual.elements)]
    last = len(states) - 1
    real = cli._law_states

    def wrong_at_last(ring, *args):
        for k, law in enumerate(real(ring, *args)):
            yield tuple((x, ring.add(d, ring.one)) for x, d in law) if k == last else law

    monkeypatch.setattr(cli, "_law_states", wrong_at_last)
    assert cli._check_dual_law(base, None) == [(f"dual[law:{base.descriptor}]", False)]


def _oracle_law_walk(base):
    # the law by horner_dual against eval_dual, each monomial x^k evaluated
    # afresh, until the dual state first repeats; (verdict, monomials walked)
    dual = dual_ring(base)
    seen = set()
    for k in itertools.count():
        f = fs.ring_polynomial(base, (base.zero,) * k + (base.one,))
        values = tuple(horner_dual(f, dual, dual.elements))
        if values != tuple(eval_dual(f, base, a, b) for a, b in dual.elements):
            return False, k + 1
        if values in seen:
            return True, k + 1
        seen.add(values)


def _cli_law_walk(monkeypatch, base):
    # cli._check_dual_law's (verdict, monomials walked): the law states it
    # draws, one per monomial
    real, drawn = cli._law_states, []

    def counting(*args):
        for law in real(*args):
            drawn.append(law)
            yield law

    monkeypatch.setattr(cli, "_law_states", counting)
    [(_, verdict)] = cli._check_dual_law(base, None)
    return verdict, len(drawn)


LAW_ORACLE_RINGS = ["fq:2", "fq:3", "fq:4", "fq:5", "fq:7", "zpn:2,2", "zpn:2,3", "zpn:3,2",
                    "zm:6", "zm:10", "zm:16"]


@pytest.mark.parametrize("desc", LAW_ORACLE_RINGS)
def test_dual_law_walk_matches_the_horner_oracle(monkeypatch, desc):
    # the recurrence gives the oracle's verdict after as many monomials
    base = make_ring(desc)
    expected = _oracle_law_walk(base)
    assert expected[0] is True
    assert _cli_law_walk(monkeypatch, base) == expected


@pytest.mark.parametrize("desc", LAW_ORACLE_RINGS)
def test_dual_law_walk_and_oracle_fail_on_a_dropped_cross_term(monkeypatch, desc):
    base = make_ring(desc)

    def mul(self, x, y):
        return (self.base.mul(x[0], y[0]), self.base.mul(x[0], y[1]))

    monkeypatch.setattr(DualRing, "mul", mul)
    assert _oracle_law_walk(base)[0] is False
    assert _cli_law_walk(monkeypatch, base)[0] is False


@pytest.mark.parametrize("desc", ["fq:2", "fq:3", "zpn:2,2", "fq:4"])
def test_dual_law_fails_on_a_dropped_factor_k(monkeypatch, desc):
    # the law side with b a^(k-1) in place of b k a^(k-1): from_int(k) is
    # the factor's only source
    base = make_ring(desc)
    monkeypatch.setattr(base, "from_int", lambda k: base.one)
    assert cli._check_dual_law(base, None) == [(f"dual[law:{base.descriptor}]", False)]


def _local_null_split(ring, k, zero, stages):
    """(low, rest): the f0 of degree < D with constant term 0 over Z/N as
    stages of reference_sweep.coefficient_sums, split at the part null on
    the filter's points mod k (Kempner 1921; Singmaster 1974): low c (x)_j for
    c < s = k / gcd(k, j!), rest s c (x)_j for c < N / s, each term a sum of
    those of stages (derivative_stages on ring, in element order).  Stages
    of one term are dropped."""
    add_t = ring.index_op_tables()[0]

    def term(coeffs):  # coefficients from degree 1 up
        tables = (stages[d][ring.index(c)][1] for d, c in enumerate(coeffs) if c != ring.zero)
        return table_sum(add_t, tables, zero)

    low, rest = [], []
    for j in range(1, len(stages) + 1):
        s = k // gcd(k, factorial(j))
        ff = canon.falling_factorial(j).coeffs[1:]
        for part, cs in ((low, range(s)), (rest, range(0, ring.size, s))):
            part.append([(c, term([ring.from_int(c * a) for a in ff])) for c in cs])
    return [st for st in low if len(st) > 1], [st for st in rest if len(st) > 1]


def _local_verdicts(key, p, n):
    """(brute force, local criterion) on the key [f] ++ [p^(n-1) f'(a) for
    a < p] of a polynomial f over Z_{p^n}: whether [f] is a bijection, and
    whether the residues of f permute Z_p with f' nonzero mod p at each."""
    size = len(key) - p
    brute = len(set(key[:size])) == size
    local = {v % p for v in key[:p]} == set(range(p)) and (n == 1 or all(key[size:]))
    return brute, local


def sweep_local_criterion(p, n, *, cap=None):
    """The key sweep oracle of dual[local-criterion:zpn:p,n], which the CLI
    decides from the law and the fibre lemma: brute force against the local
    criterion on every f0 of degree < D, the null degree bound, with
    constant term zero.  True iff they agree on every key.

    Adding a constant translates [f] and its residues mod p and keeps [f'],
    so both verdicts are those of f0; they depend only on the key, which is
    additive in the coefficients, and are both False unless the residues at
    0 .. p-1, those of the low part, permute Z_p, so only those keys are
    built (test_groups.split_keys), each once: 486 on Z_9.  The cap counts
    what each sweep builds, as split_keys says."""
    ring = PrimePowerRing(p, n)
    stages = derivative_stages(
        ring, fs.null_degree_bound(ring), ring.elements, range(p), scale=p ** (n - 1)
    )
    zero = (0,) * (ring.size + p)
    keys = test_groups.split_keys(
        ring.index_op_tables()[0], zero, *_local_null_split(ring, p, zero, stages),
        slice(p), lambda t: {v % p for v in t} == set(range(p)),
        lambda t: not any(v % p for v in t), cap,
    )
    return keys is not None and all(eq(*_local_verdicts(key, p, n)) for key in keys)


def test_local_criterion_checks_the_last_key(monkeypatch):
    # the last key alone becomes a bijective table whose derivative vanishes
    # mod p, so only an oracle that reaches it can FAIL
    real = test_groups.split_keys

    def corrupted(*args):
        keys = list(real(*args))
        keys[-1] = tuple(range(len(keys[-1]) - 3)) + (0,) * 3
        return iter(keys)

    monkeypatch.setattr(test_groups, "split_keys", corrupted)
    assert sweep_local_criterion(3, 2) is False


def test_local_criterion_caps_every_candidate(monkeypatch):
    # the oracle's cap counts the keys it builds, the 2 admitted low sums of
    # Z_9 times its 243 rest sums, and refuses before any is built; the CLI
    # check builds no key and has no such cap
    real = _local_verdicts
    monkeypatch.setattr(_THIS, "_local_verdicts", _refuse)
    with pytest.raises(SizeCapError, match="pair sweep: 486 exceeds cap 485"):
        sweep_local_criterion(3, 2, cap=485)
    monkeypatch.setattr(_THIS, "_local_verdicts", real)
    assert sweep_local_criterion(3, 2, cap=486) is True


@lru_cache(maxsize=None)
def _local_candidate_keys(p, n):
    """Every candidate with constant term zero, induced point by point:
    each key [f0] ++ [p^(n-1) f0'(a) for a < p] with its verdicts."""
    ring = make_ring(f"zpn:{p},{n}")
    scale = p ** (n - 1)
    per_candidate = {}
    for rest in itertools.product(ring.elements, repeat=fs.null_degree_bound(ring) - 1):
        f0 = Polynomial((0,) + rest)
        ftab0 = fs.induce(f0, ring).values
        dtab = fs.induce(f0.derive(), ring).values
        key = ftab0 + tuple(scale * dtab[a] % ring.size for a in range(p))
        verdicts = (
            len(set(ftab0)) == ring.size,
            {v % p for v in ftab0[:p]} == set(range(p))
            and (n == 1 or all(dtab[a] % p for a in range(p))),
        )
        assert per_candidate.setdefault(key, verdicts) == verdicts
    return per_candidate


@pytest.mark.parametrize("p,n,built", [(2, 2, 8), (2, 3, 64), (3, 2, 486)])
def test_local_criterion_builds_only_the_keys_the_filter_admits(monkeypatch, p, n, built):
    # the oracle builds the per-candidate keys whose residues at 0 .. p-1
    # permute Z_p, each once
    keys = []
    real = _local_verdicts
    monkeypatch.setattr(
        _THIS, "_local_verdicts", lambda key, p, n: keys.append(key) or real(key, p, n)
    )
    assert sweep_local_criterion(p, n) is True
    assert len(keys) == len(set(keys)) == built
    assert set(keys) == {
        key for key in _local_candidate_keys(p, n)
        if {v % p for v in key[:p]} == set(range(p))
    }


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
def test_local_verdicts_per_key_match_every_block(p, n):
    # every candidate with constant term zero, induced point by point,
    # against the distinct keys of the unsplit sweep: the same keys, and the
    # same verdicts from either side; a constant term changes neither
    ring = make_ring(f"zpn:{p},{n}")
    per_candidate = _local_candidate_keys(p, n)
    stages = derivative_stages(
        ring, fs.null_degree_bound(ring), ring.elements, range(p), scale=p ** (n - 1)
    )
    zero = (0,) * (ring.size + p)
    per_key = {
        key: _local_verdicts(key, p, n)
        for key, _ in reference_sweep.coefficient_sums(ring.index_op_tables()[0], zero, stages)
    }
    assert per_key == per_candidate
    assert any(brute for brute, _ in per_key.values())
    assert not all(brute for brute, _ in per_key.values())


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
def test_local_criterion_law_and_lemma_agree_with_the_oracle_and_brute_force(p, n):
    # the CLI check, from the law and the fibre lemma, the key sweep oracle
    # and every candidate induced point by point all find the criterion exact
    assert cli._check_local_criterion(p, n) == [(f"dual[local-criterion:zpn:{p},{n}]", True)]
    assert sweep_local_criterion(p, n) is True
    assert all(brute == local for brute, local in _local_candidate_keys(p, n).values())


@pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (5, 2), (7, 2)])
def test_local_criterion_passes_beyond_the_grid(p, n):
    # no key is built, so moduli far past the oracle's reach pass
    assert cli._check_local_criterion(p, n) == [(f"dual[local-criterion:zpn:{p},{n}]", True)]


def _local_law_walk(monkeypatch, p, j, wrong_at=None):
    # the law states the walk draws on the level Z/p^j, with the last entry
    # of state number wrong_at (from 0) moved by one
    real, drawn = cli._law_states, []

    def spying(ring, *args):
        for k, law in enumerate(real(ring, *args)):
            if ring.size == p**j:
                drawn.append(law)
                if k == wrong_at:
                    law = law[:-1] + (ring.add(law[-1], ring.one),)
            yield law

    monkeypatch.setattr(cli, "_law_states", spying)
    return drawn


@pytest.mark.parametrize("p,n,j", [(2, 2, 2), (2, 3, 2), (2, 3, 3), (3, 2, 2)])
def test_local_criterion_reaches_the_last_monomial_before_a_repeat(monkeypatch, p, n, j):
    # the powers z^k of Z/p^j up to their first repeat, found directly: the
    # walk, keeping only the values at t = 0 and 1 of a + p^(j-1) t, draws
    # one more state, and a wrong law value at the monomial just before the
    # repeat must FAIL
    ring = PrimePowerRing(p, j)
    states, power = [], [ring.one] * ring.size
    while power not in states:
        states.append(power)
        power = [ring.mul(x, z) for x, z in zip(power, ring.elements)]
    name = f"dual[local-criterion:zpn:{p},{n}]"
    drawn = _local_law_walk(monkeypatch, p, j)
    assert cli._check_local_criterion(p, n) == [(name, True)]
    assert len(drawn) == len(states) + 1
    _local_law_walk(monkeypatch, p, j, wrong_at=len(states) - 1)
    assert cli._check_local_criterion(p, n) == [(name, False)]


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("row,given", [("p", "1"), ("1", "p")])
def test_local_criterion_fails_on_a_wrong_fibre_row(monkeypatch, p, n, row, given):
    # the fibre lemma fed row p of the multiplication table in place of row
    # 1, or row 1 in place of row p: the law still holds on every level, so
    # the lemma alone FAILs
    real = PrimePowerRing.index_op_tables
    c, src = (p if x == "p" else 1 for x in (row, given))

    def swapped(self):
        add_t, mul_t = real(self)
        return add_t, mul_t[:c] + [mul_t[src]] + mul_t[c + 1:]

    monkeypatch.setattr(PrimePowerRing, "index_op_tables", swapped)
    assert cli._check_local_criterion(p, n) == [(f"dual[local-criterion:zpn:{p},{n}]", False)]


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


@pytest.mark.parametrize("how, calls", [("other-function", 4), ("unstable", 8)])
def test_verify_canonical_fails_a_broken_roundtrip(capsys, monkeypatch, how, calls):
    # a form of f + 1 induces another function than f, and fails at the
    # first canonicalize of each ring; a form that is f's on the first call
    # and (f + 1)'s on the second is not stable, and fails at the second
    real, made = canon.canonicalize, []

    def broken(f, p, n):
        made.append(f)
        shift = how == "other-function" or len(made) % 2 == 0
        return real(f + 1 if shift else f, p, n)

    monkeypatch.setattr(canon, "canonicalize", broken)
    code, out, _ = run(capsys, "verify", "--suite", "canonical")
    assert code == 4 and len(made) == calls
    assert out.splitlines() == [
        "canonical[kernel-basis]: pass",
        "canonical[roundtrip:zpn:2,2]: FAIL",
        "canonical[roundtrip:zpn:2,3]: FAIL",
        "canonical[roundtrip:zpn:3,2]: FAIL",
        "canonical[roundtrip:zpn:3,3]: FAIL",
        "canonical[bijection:zpn:2,2]: pass",
        "canonical[uv-bijection:zpn:2,2]: pass",
        "3/7 checks passed",
    ]


def test_verify_dual_suite_restricted_to_one_ring(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "dual", "--ring", "fq:3")
    assert code == 0
    assert out.splitlines() == [
        "dual[law:fq:3]: pass",
        "dual[criterion:fq:3]: pass",
        "2/2 checks passed",
    ]


def test_verify_dual_max_size_bounds_the_local_moduli(capsys):
    # --max-size bounds p^n of each local criterion, not a dual ring's
    # size: Z/4 and Z/8 run under 8, Z/9 does not
    code, out, _ = run(capsys, "verify", "--suite", "dual", "--max-size", "8")
    assert code == 0
    lines = out.splitlines()
    assert "dual[local-criterion:zpn:2,2]: pass" in lines
    assert "dual[local-criterion:zpn:2,3]: pass" in lines
    assert not any("zpn:3,2" in line for line in lines)


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


@pytest.mark.parametrize("suite", ["groups", "dual"])
def test_verify_refuses_a_grid_with_no_ring_under_max_size(capsys, suite):
    # the smallest grid ring, fq:2, has a dual ring of 4 elements
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-size", "3")
    assert (code, out) == (1, "")
    assert err == "error: no test rings fit under --max-size 3\n"


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
        lambda base, cap: real(base, cap=cap)._replace(**changes),
    )
    code, out, _ = run(capsys, "verify", "--suite", "groups", "--ring", ring)
    assert code == 4
    assert f"groups[embedding:{ring}]: FAIL" in out


def test_verify_groups_fails_a_corrupted_hermite_basis(capsys, monkeypatch):
    corrupt_hermite_basis(monkeypatch)
    code, out, _ = run(capsys, "verify", "--suite", "groups", "--ring", "fq:3")
    assert code == 4
    assert out.splitlines() == [
        "groups[axioms:fq:3]: pass",
        "groups[embedding:fq:3]: FAIL",
        "1/2 checks passed",
    ]


@pytest.mark.parametrize("desc,closures", [
    ("fq:3", 1), ("fq:4", 1),
    # the embedding's chain, and one of the product from its factors
    ("zm:6", 2), ("zpn:2,2", 2),
])
def test_verify_groups_closes_each_group_once(capsys, monkeypatch, desc, closures):
    # over a field the embedding's chain decides the product's axioms too,
    # and over Z/m one more chain decides them from the factors; no group is
    # listed: neither the product, nor the dual group's rows, nor elements
    # beyond the generators'
    chains = []
    real_chain, real_elements = gr._Chain, gr.pair_elements

    def chain(n):
        chains.append(real_chain(n))
        return chains[-1]

    def refuse(*args, **kwargs):
        raise AssertionError("a group listed")

    def elements(dual, pairs, witnesses=None):
        pairs = list(pairs)
        assert len(pairs) <= 1
        return real_elements(dual, pairs, witnesses)

    monkeypatch.setattr(gr, "_Chain", chain)
    monkeypatch.setattr(gr, "pair_elements", elements)
    for name in ("semidirect_group", "dual_pairs", "stabilizer_pairs"):
        monkeypatch.setattr(gr, name, refuse)
    assert run(capsys, "verify", "--suite", "groups", "--ring", desc)[0] == 0
    assert len(chains) == closures


def test_verify_groups_decides_the_axioms_on_the_product_for_a_short_image(
    capsys, monkeypatch
):
    # the embedding's generators lose the unit pair: their chain stops at
    # the 6 permutations, short of the product.  Over a field the product
    # is the chain's group, so its closure FAILs with the embedding, and the
    # product is never built
    real_generators = gr._field_generators

    def refuse(*args, **kwargs):
        raise AssertionError("the product built")

    monkeypatch.setattr(gr, "_field_generators", lambda base: real_generators(base)[:-1])
    monkeypatch.setattr(gr, "semidirect_group", refuse)
    monkeypatch.setattr(gr, "pair_elements", refuse)
    code, out, _ = run(capsys, "verify", "--suite", "groups", "--ring", "fq:3")
    assert code == 4
    assert out.splitlines() == [
        "groups[axioms:fq:3]: FAIL",
        "groups[embedding:fq:3]: FAIL",
        "0/2 checks passed",
    ]


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


# ---------------------------------------------------------------------------
# start-up


def test_importing_the_cli_loads_no_heavy_stdlib_module():
    # dataclasses brings inspect, ast, dis and tokenize, and csv is not
    # needed for fields that never need quoting.  Only the modules that
    # importing the CLI adds to a bare interpreter's count, so a module that
    # a site .pth file loads first does not.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = (
        "import sys; before = set(sys.modules); import ringfunc.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    ).stdout
    loaded = set(out.split())
    assert "ringfunc.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "csv"}
