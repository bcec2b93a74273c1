"""Command line surface: verbs, output shapes, exit codes."""

import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from ringfunc import canonical as canon
from ringfunc import cli
from ringfunc import funcspace as fs
from ringfunc import groups as gr
from ringfunc.cli import main
from ringfunc.poly import Polynomial
from ringfunc.rings import CAP_ENV_VAR, SizeCapError, make_ring


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
]


@pytest.mark.parametrize("argv,code,digest", GROUP_OUTPUT_SHA256)
def test_group_outputs_are_pinned(capsys, argv, code, digest):
    got, out, _ = run(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


@pytest.mark.parametrize("argv,err", [
    (("enumerate", "--what", "group", "--dual", "--ring", "zpn:2,3"),
     "error: pair sweep: 16777216 exceeds cap 10000000\n"),
    (("enumerate", "--what", "stabilizer", "--ring", "zpn:2,3"),
     "error: pair sweep: 16777216 exceeds cap 10000000\n"),
    (("export", "--what", "group", "--ring", "fq:5", "--table"),
     "error: multiplication table: 15099494400 exceeds cap 10000000\n"),
])
def test_group_refusals_are_pinned(capsys, argv, err):
    assert run(capsys, *argv) == (3, "", err)


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


def test_local_criterion_checks_the_last_key(monkeypatch):
    # the last key alone gets a bijective table whose derivative vanishes
    # mod p, so only a check that reaches it can FAIL
    real = fs.coefficient_sums

    def corrupted(add_t, zero_table, stages):
        sums = list(real(add_t, zero_table, stages))
        size = len(zero_table) - 3
        sums[-1] = (tuple(range(size)) + (0,) * 3, sums[-1][1])
        return iter(sums)

    monkeypatch.setattr(fs, "coefficient_sums", corrupted)
    assert cli._check_local_criterion(3, 2, None) == [
        ("dual[local-criterion:zpn:3,2]", False)
    ]


def test_local_criterion_caps_every_candidate():
    # the cap counts |Z_9|^6 coefficient vectors, not the keys walked
    with pytest.raises(SizeCapError, match="pair sweep: 531441 exceeds cap 531440"):
        cli._check_local_criterion(3, 2, 9**6 - 1)
    assert cli._check_local_criterion(3, 2, 9**6) == [
        ("dual[local-criterion:zpn:3,2]", True)
    ]


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
def test_local_verdicts_per_key_match_every_block(p, n):
    # every candidate with constant term zero, induced point by point,
    # against the distinct keys the check walks: the same keys, and the
    # same verdicts from either side; a constant term changes neither
    ring = make_ring(f"zpn:{p},{n}")
    D = fs.null_degree_bound(ring)
    scale = p ** (n - 1)
    per_candidate = {}
    for rest in itertools.product(ring.elements, repeat=D - 1):
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
    stages = fs.monomial_stages(
        ring, D, ring.elements, derivative_points=range(p), derivative_scale=scale
    )
    zero = (0,) * (ring.size + p)
    per_key = {
        key: cli._local_verdicts(key, p, n)
        for key, _ in fs.coefficient_sums(ring.index_op_tables()[0], zero, stages)
    }
    assert per_key == per_candidate
    assert any(brute for brute, _ in per_key.values())
    assert not all(brute for brute, _ in per_key.values())


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
