import json
import shlex
from pathlib import Path

import pytest

from nilgeo.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_readme_commands_each_print_one_report(capsys):
    # the sh block under "## Command line" in README.md, continuation lines joined
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert len(commands) == 11 and all(argv[0] == "nilgeo" for argv in commands)
    for _, *argv in commands:
        code, report = run(capsys, *argv)  # one JSON document, or json.loads fails
        if "--strict-def31" in argv:  # the README example that fails on purpose
            assert (code, report["checks"][0]["name"]) == (1, "ccy.normalization")
        else:
            assert (code, report["status"]) == (0, "pass"), argv


def test_check_ccy_reference(capsys):
    code, report = run(
        capsys,
        "check-ccy",
        "--algebra", "(0,0,12)",
        "--alpha", "2*e3",
        "--J", "pairs:(1,2)",
        "--epsilon", "e1 + i*e2",
    )
    assert code == 0
    assert report["status"] == "pass"
    assert report["checks"][0]["reeb"] == "1/2*X3"


def test_check_ccy_parse_error_exits_2(capsys):
    code, report = run(
        capsys,
        "check-ccy",
        "--algebra", "(0,0,11)",
        "--alpha", "2*e3",
        "--J", "pairs:(1,2)",
        "--epsilon", "e1 + i*e2",
    )
    assert code == 2
    assert report["status"] == "error"


def test_check_ccy_strict_def31_fails_with_witness(capsys):
    code, report = run(
        capsys,
        "check-ccy",
        "--algebra", "(0,0,0,0,12+34)",
        "--alpha", "2*e5",
        "--J", "pairs:(1,2),(3,4)",
        "--epsilon", "(e1+i*e2)^(e3+i*e4)",
        "--strict-def31",
    )
    assert code == 1
    assert report["status"] == "fail"
    check = report["checks"][0]
    assert check["name"] == "ccy.normalization"
    assert check["witness"]["ratio_rhs_over_lhs"] == "2"


def test_unknown_flags_exit_2(capsys):
    assert main(["check-contact", "--algebra", "(0,0,12)", "--bogus", "x"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_moduli_kernel(capsys):
    code, report = run(capsys, "moduli-kernel", "--N", "64")
    assert code == 0
    assert report["checks"][0]["kernelDim"] == 1
    assert report["checks"][0]["kernel_is_reeb_line"] is True


def test_moduli_kernel_ranks_its_operator_once(capsys, monkeypatch):
    from nilgeo import linalg

    sizes = []
    rank_sparse = linalg.rank_sparse

    def counting(rows):
        sizes.append(len(rows))
        return rank_sparse(rows)

    monkeypatch.setattr(linalg, "rank_sparse", counting)
    code, report = run(capsys, "moduli-kernel", "--N", "64")
    assert code == 0 and report["checks"][0]["kernel_is_reeb_line"] is True
    assert sizes.count(128) == 1


def test_moduli_kernel_odd_rejected(capsys):
    code, report = run(capsys, "moduli-kernel", "--N", "9")
    assert code == 2
    assert report["status"] == "error"


def test_moduli_kernel_grid_bound_is_input_error(capsys, monkeypatch):
    from nilgeo import deform
    from nilgeo.deform import MAX_GRID_N

    monkeypatch.setattr(deform, "assemble_operator", None)  # never reached
    for n in (MAX_GRID_N + 2, 10**30):
        code, report = run(capsys, "moduli-kernel", "--N", str(n))
        assert code == 2
        assert report["status"] == "error" and str(MAX_GRID_N) in report["error"]


def test_betti_dimension_bound_is_input_error(capsys, monkeypatch):
    from nilgeo import cealg

    monkeypatch.setattr(cealg, "basis_tuples", None)  # never reached
    monkeypatch.setattr(cealg, "_basis_masks", None)  # the monomials betti enumerates
    for dim in (cealg.MAX_BETTI_DIM + 1, 40):
        code, report = run(capsys, "betti", "--algebra", json.dumps({"dim": dim}))
        assert code == 2
        assert report["status"] == "error" and str(cealg.MAX_BETTI_DIM) in report["error"]


def test_classify_dimension_bound_is_input_error(capsys, monkeypatch, tmp_path):
    from nilgeo import classify

    monkeypatch.setattr(classify, "MultiPoly", None)  # no expansion completes
    for dim in (classify.MAX_CLASSIFY_DIM + 2, 41):
        filiform = {str(k): [["1", 1, k - 1]] for k in range(3, dim + 1)}  # d e^k = e^1 ^ e^(k-1)
        path = tmp_path / f"filiform{dim}.json"
        path.write_text(json.dumps([{"name": "filiform", "spec": json.dumps({"dim": dim, "d": filiform})}]))
        code, report = run(capsys, "classify", "--catalog", f"@{path}")
        assert code == 2
        assert report["status"] == "error" and str(classify.MAX_CLASSIFY_DIM) in report["error"]


def test_json_algebra_dimension_bound_is_input_error(capsys, monkeypatch):
    from nilgeo import algdsl

    monkeypatch.setattr(algdsl, "KForm", None)  # no generator is built
    for dim in (algdsl.MAX_ALGEBRA_DIM + 1, 10**8):
        code, report = run(capsys, "betti", "--algebra", json.dumps({"dim": dim, "d": {}}))
        assert code == 2
        assert report["status"] == "error" and str(algdsl.MAX_ALGEBRA_DIM) in report["error"]
    monkeypatch.undo()
    for dim in (101, 801, algdsl.MAX_ALGEBRA_DIM):
        pairs = [["1", 2 * k - 1, 2 * k] for k in range(1, (dim - 1) // 2 + 1)]
        assert algdsl.parse_algebra(json.dumps({"dim": dim, "d": {str(dim): pairs}})).dim == dim


@pytest.mark.parametrize(
    "algebra",
    [
        '{"dim": -3, "d": {}}',
        '{"dim": 0, "d": {}}',
        '{"dim": 3.7, "d": {"3": [["1", 1, 2]]}}',
        '{"dim": 3.0, "d": {"3": [["1", 1, 2]]}}',
        '{"dim": true, "d": {}}',
        '{"dim": "3", "d": {"3": [["1", 1, 2]]}}',
        '{"dim": 3, "d": {"3": [["1", 1.9, 2]]}}',
        '{"dim": 3, "d": {"3": [["1", 1, 2.0]]}}',
        '{"dim": 3, "d": {"3": [["1", true, 2]]}}',
        '{"dim": 3, "d": {"3": [["1", "1", 2]]}}',
        '{"dim": 3, "d": {" 3": [["1", 1, 2]]}}',
        '{"dim": 3, "d": {"+3": [["1", 1, 2]]}}',
    ],
)
def test_json_algebra_integers_are_strict(algebra):
    # each of these was read (truncated, coerced or as dim 0) and passed
    run_input_error(["betti", f"--algebra={algebra}"])


def test_betti(capsys):
    code, report = run(capsys, "betti", "--algebra", "(0,0,0,0,12+34)")
    assert code == 0
    entry = report["checks"][0]
    assert entry["numbers"] == [1, 4, 5, 5, 4, 1]
    assert entry["poincare_dual"] is True
    assert entry["euler_characteristic"] == 0


def test_curvature_full_structure(capsys):
    code, report = run(
        capsys,
        "curvature",
        "--algebra", "(0,0,12)",
        "--alpha", "2*e3",
        "--J", "pairs:(1,2)",
        "--epsilon", "e1 + i*e2",
    )
    assert code == 0
    names = {c["name"]: c for c in report["checks"]}
    assert names["curvature"]["scalar"] == "-2"
    assert names["alpha_einstein"]["lambda"] == "-2"
    assert names["alpha_einstein"]["nu"] == "4"
    assert names["transverse_ricci_zero"]["verdict"] == "pass"


def test_curvature_metric_only(capsys):
    code, report = run(
        capsys,
        "curvature",
        "--algebra", "(0,0,12)",
        "--metric", "[[1,0,0],[0,1,0],[0,0,4]]",
    )
    assert code == 0
    assert report["checks"][0]["scalar"] == "-2"


def test_legendrian_cli(capsys):
    base = [
        "legendrian",
        "--algebra", "(0,0,12)",
        "--alpha", "2*e3",
        "--J", "pairs:(1,2)",
        "--epsilon", "e1 + i*e2",
    ]
    code, report = run(capsys, *base, "--span", "X1")
    assert code == 0
    assert report["checks"][0]["classification"] == "SpecialLegendrian"
    code, report = run(capsys, *base, "--span", "X2")
    assert code == 1
    assert report["checks"][0]["classification"] == "LegendrianOnly"


def test_obstruction_cli_default_rotations(capsys):
    code, report = run(
        capsys,
        "obstruction",
        "--algebra", "(0,0,12)",
        "--alpha", "2*e3",
        "--J", "pairs:(1,2)",
        "--epsilon", "e1 + i*e2",
        "--span", "X1",
        "--rotations", "default",
    )
    assert code == 0
    samples = report["checks"][0]["samples"]
    assert samples[0]["class_zero"] is True
    assert all(s["class_zero"] is False for s in samples[1:])


def test_comass_cli_probe_and_bound(capsys):
    code, report = run(
        capsys,
        "comass",
        "--algebra", "(0,0,12)",
        "--alpha", "2*e3",
        "--J", "pairs:(1,2)",
        "--epsilon", "e1 + i*e2",
        "--samples", "4096",
        "--seed", "3",
        "--probe", "X1",
    )
    assert code == 0
    names = {c["name"]: c for c in report["checks"]}
    assert names["comass_probe"]["value"] == "1"
    assert names["comass_bound"]["maximum"]["seed"] == 3


def test_check_hypo_cli(capsys):
    code, report = run(
        capsys,
        "check-hypo",
        "--algebra", "(0,0,0,0,12+34)",
        "--alpha", "2*e5",
        "--omega1", "e1^e2 + e3^e4",
        "--omega2", "e1^e3 - e2^e4",
        "--omega3", "e1^e4 + e2^e3",
    )
    assert code == 0
    assert report["status"] == "pass"


def test_check_rccy_cli(capsys):
    code, report = run(
        capsys,
        "check-rccy",
        "--algebra", "(0,0,12,0)",
        "--alphas", "2*e3; 2*e3 + 2*e4",
        "--J", "pairs:(1,2)",
        "--epsilon", "e1 + i*e2",
    )
    assert code == 0
    assert report["status"] == "pass"


def test_classify_cli(capsys):
    code, report = run(capsys, "classify", "--seed", "0", "--samples", "1")
    assert code == 0
    entries = report["checks"][0]["entries"]
    assert [e["ccy_verified"] for e in entries] == [False, False, True, False, False]


def test_reports_byte_identical_across_runs(capsys):
    args = [
        "check-ccy",
        "--algebra", "(0,0,12)",
        "--alpha", "2*e3",
        "--J", "pairs:(1,2)",
        "--epsilon", "e1 + i*e2",
    ]
    main(list(args))
    first = capsys.readouterr().out
    main(list(args))
    second = capsys.readouterr().out
    assert first == second


def test_file_indirection(capsys, tmp_path):
    spec = tmp_path / "alg.txt"
    spec.write_text("(0,0,12)", encoding="utf-8")
    code, report = run(capsys, "betti", "--algebra", f"@{spec}")
    assert code == 0
    assert report["checks"][0]["numbers"] == [1, 2, 2, 1]


def test_family_file_obstruction(capsys, tmp_path):
    fam = tmp_path / "family.json"
    fam.write_text(
        json.dumps(
            [
                {"t": "0", "alpha": "2*e3", "J": "pairs:(1,2)", "epsilon": "e1 + i*e2"},
                {
                    "t": "1",
                    "alpha": "2*e3",
                    "J": "pairs:(1,2)",
                    "epsilon": "(4/5 + 3/5*i)*(e1 + i*e2)",
                },
            ]
        ),
        encoding="utf-8",
    )
    code, report = run(
        capsys,
        "obstruction",
        "--algebra", "(0,0,12)",
        "--alpha", "2*e3",
        "--J", "pairs:(1,2)",
        "--epsilon", "e1 + i*e2",
        "--span", "X1",
        "--family", f"@{fam}",
    )
    assert code == 0
    samples = report["checks"][0]["samples"]
    assert [s["class_zero"] for s in samples] == [True, False]


def test_curvature_metric_with_j_or_epsilon_is_input_error():
    # with --metric the structure is not verified, so its flags are refused
    # rather than dropped; --alpha keeps its meaning (alpha-Einstein on g)
    metric = ["curvature", "--algebra=(0,0,12)", "--metric=[[1,0,0],[0,1,0],[0,0,1]]"]
    for extra in (["--epsilon=e1+i*e2"], ["--J=pairs:(1,2)"], ["--alpha=e3", "--J=pairs:(1,2)", "--epsilon=e1+i*e2"]):
        report = run_input_error(metric + extra)
        assert "--metric" in report["error"]


def test_curvature_metric_scalar_is_input_error(capsys):
    code, report = run(capsys, "curvature", "--algebra", "(0,0,12)", "--metric", "5")
    assert code == 2
    assert report["status"] == "error"


def test_curvature_metric_flat_list_is_input_error(capsys):
    code, report = run(capsys, "curvature", "--algebra", "(0,0,12)", "--metric", "[1,2,3]")
    assert code == 2
    assert report["status"] == "error"


def test_curvature_metric_non_rational_entry_is_input_error(capsys):
    code, report = run(capsys, "curvature", "--algebra", "(0,0,12)", "--metric", '[["a"]]')
    assert code == 2
    assert report["status"] == "error"


H3_CCY = ("--algebra", "(0,0,12)", "--alpha", "2*e3", "--J", "pairs:(1,2)", "--epsilon", "e1 + i*e2")


def test_obstruction_malformed_rotation_is_input_error(capsys):
    code, report = run(capsys, "obstruction", *H3_CCY, "--span", "X1", "--rotations", "0,1")
    assert code == 2
    assert report["status"] == "error"


def test_comass_without_samples_or_probe_is_input_error(capsys):
    for samples in ("-5", "0"):
        code, report = run(capsys, "comass", *H3_CCY, "--samples", samples)
        assert code == 2
        assert report["status"] == "error"
    code, report = run(capsys, "comass", *H3_CCY, "--samples", "0", "--probe", "X1")
    assert code == 0
    assert [c["name"] for c in report["checks"]] == ["comass_probe"]


def test_classify_negative_samples_is_input_error(capsys):
    code, report = run(capsys, "classify", "--samples", "-1")
    assert code == 2
    assert report["status"] == "error"


def test_check_hypo_wrong_degrees_are_input_errors(capsys):
    flags = {
        "--algebra": "(0,0,0,0,12+34)",
        "--alpha": "2*e5",
        "--omega1": "e1^e2 + e3^e4",
        "--omega2": "e1^e3 - e2^e4",
        "--omega3": "e1^e4 + e2^e3",
    }
    for flag, value in (("--omega2", "e1"), ("--omega3", "e1^e2^e3"), ("--alpha", "e12")):
        argv = [x for kv in dict(flags, **{flag: value}).items() for x in kv]
        code, report = run(capsys, "check-hypo", *argv)
        assert code == 2
        assert report["status"] == "error"


def test_complex_or_wrong_degree_alphas_are_input_errors(capsys):
    argvs = (
        ("check-contact", "--algebra", "(0,0,12)", "--alpha", "2*i*e3"),
        ("curvature", "--algebra", "(0,0,12)", "--metric", "[[1,0,0],[0,1,0],[0,0,4]]", "--alpha", "e1^e2"),
        ("curvature", "--algebra", "(0,0,12)", "--metric", "[[1,0,0],[0,1,0],[0,0,4]]", "--alpha", "i*e3"),
    ) + tuple(
        ("check-rccy", "--algebra", "(0,0,12,0)", "--alphas", alphas, "--J", "pairs:(1,2)", "--epsilon", "e1 + i*e2")
        for alphas in ("2*e3; e1^e2", "2*e3; 2*e3 + 2*i*e4")
    )
    # an epsilon of the wrong degree is refused before any clause on J or
    # epsilon, here before calibrated.J_reeb would fail on pairs:(1,3)
    h3, wrong = ("--algebra", "(0,0,12)", "--alpha", "2*e3"), ("--J", "pairs:(1,3)", "--epsilon", "e12")
    family = json.dumps([{"t": "0", "alpha": "2*e3", "J": "pairs:(1,3)", "epsilon": "e12"}])
    argvs += (
        ("check-ccy", *h3, *wrong),
        ("check-ccy", *h3, "--J", "pairs:(1,2)", "--epsilon", "e12"),
        ("check-rccy", "--algebra", "(0,0,12,0)", "--alphas", "2*e3; 2*e3 + 2*e4", "--J", "pairs:(1,4)",
         "--epsilon", "e12"),
        ("legendrian", *h3, *wrong, "--span", "X1"),
        ("obstruction", *h3, *wrong, "--span", "X1"),
        ("obstruction", *h3, "--J", "pairs:(1,2)", "--epsilon", "e1 + i*e2", "--span", "X1", "--family", family),
        ("comass", *h3, *wrong, "--samples", "10"),
        ("curvature", *h3, *wrong),
    )
    for argv in argvs:
        code, report = run(capsys, *argv)
        assert code == 2, argv
        assert report["status"] == "error"


# alpha = e1 is not contact on H3, but epsilon's degree is checked where it is
# parsed, before check_contact could report contact.volume
NON_CONTACT = ("--algebra", "(0,0,12)", "--alpha", "e1", "--J", "pairs:(1,2)", "--epsilon", "e12")
NON_CONTACT_FAMILY = json.dumps([{"t": "0", "alpha": "e1", "J": "pairs:(1,2)", "epsilon": "e12"}])


@pytest.mark.parametrize(
    "argv",
    [
        ("check-ccy", *NON_CONTACT),
        ("legendrian", *NON_CONTACT, "--span", "X1"),
        ("obstruction", *NON_CONTACT, "--span", "X1"),
        ("comass", *NON_CONTACT, "--samples", "10"),
        ("curvature", *NON_CONTACT),
        ("obstruction", "--algebra", "(0,0,12)", "--alpha", "2*e3", "--J", "pairs:(1,2)",
         "--epsilon", "e1 + i*e2", "--span", "X1", "--family", NON_CONTACT_FAMILY),
    ],
    ids=["check-ccy", "legendrian", "obstruction", "comass", "curvature", "obstruction-family"],
)
def test_wrong_degree_epsilon_beats_a_non_contact_alpha(capsys, argv):
    code, report = run(capsys, *argv)
    assert code == 2
    assert report["status"] == "error" and "degree-1" in report["error"]


# -- exit-code contract of the check commands (hypothesis) -------------------

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

CONTACT_ALGEBRAS = (
    "(0,0,12)",
    "(23,-13,12)",
    "(0,0,0)",
    "(0,0,0,0,12+34)",
    "(0,0,12,13,14+23)",
    "(0,0,0,13,12+34)",
)
HYPO_OMEGAS = ("e1^e2 + e3^e4", "e1^e3 - e2^e4", "e1^e4 + e2^e3", "e1^e2", "e3^e5")
SCALARS = ("1", "2", "-1", "i", "3/5+4/5*i")


def run_contract(argv):
    """Run a valid argv and check the report against its exit code.

    Values are passed as --flag=value: a separate value starting with "-",
    such as -3*e5, is an argparse usage error.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code in (0, 1), argv
    report = json.loads(buf.getvalue())  # exactly one JSON document
    assert report["status"] == ("pass" if code == 0 else "fail"), argv
    if code == 1:
        assert any(c.get("verdict") == "fail" for c in report["checks"]), argv
    return code


@st.composite
def one_forms(draw, dim):
    if draw(st.booleans()):  # a multiple of e_dim, as in the shipped structures
        return f"{draw(st.sampled_from(('1', '2', '1/2', '-3')))}*e{dim}"
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any))
    return " + ".join(f"({c})*e{i}" for i, c in enumerate(coeffs, start=1) if c)


@st.composite
def structures(draw):
    spec = draw(st.sampled_from(CONTACT_ALGEBRAS))
    dim = spec.count(",") + 1
    n = (dim - 1) // 2
    order = list(range(1, dim + 1)) if draw(st.booleans()) else draw(st.permutations(range(1, dim + 1)))
    pairs = [(order[2 * k], order[2 * k + 1]) for k in range(n)]
    signs = draw(st.lists(st.sampled_from("+-"), min_size=n, max_size=n))
    factors = "^".join(f"(e{a}{s}i*e{b})" for (a, b), s in zip(pairs, signs))
    J = "pairs:" + ",".join(f"({a},{b})" for a, b in pairs)
    epsilon = f"({draw(st.sampled_from(SCALARS))})*{factors}"
    return spec, draw(one_forms(dim)), J, epsilon, draw(st.booleans())


@given(structures())
@example(("(0,0,12)", "2*e3", "pairs:(1,2)", "e1 + i*e2", False))
@example(("(0,0,0,0,12+34)", "2*e5", "pairs:(1,2),(3,4)", "(e1+i*e2)^(e3+i*e4)", False))
@settings(max_examples=100, deadline=None)
def test_check_commands_keep_the_exit_code_contract(structure):
    spec, alpha, J, epsilon, strict = structure
    flags = [f"--algebra={spec}", f"--J={J}", f"--epsilon={epsilon}"] + ["--strict-def31"] * strict
    run_contract(["check-contact", f"--algebra={spec}", f"--alpha={alpha}"])
    run_contract(["check-sasakian", f"--algebra={spec}", f"--alpha={alpha}", f"--J={J}"])
    ccy = run_contract(["check-ccy", f"--alpha={alpha}", *flags])
    assert run_contract(["check-rccy", f"--alphas={alpha}", *flags]) == ccy


@given(
    st.sampled_from(CONTACT_ALGEBRAS[3:]),
    one_forms(5),
    st.lists(st.sampled_from(HYPO_OMEGAS), min_size=3, max_size=3),
    one_forms(4),
    st.sampled_from(("e1 + i*e2", "e1 - i*e2", "2*e1 + 2*i*e2", "e1 + i*e4")),
)
@example("(0,0,0,0,12+34)", "2*e5", list(HYPO_OMEGAS[:3]), "2*e3 + 2*e4", "e1 + i*e2")
@settings(max_examples=60, deadline=None)
def test_hypo_and_two_alpha_rccy_keep_the_exit_code_contract(spec, alpha, omegas, alpha2, epsilon):
    omega_flags = [f"--omega{k}={w}" for k, w in enumerate(omegas, start=1)]
    run_contract(["check-hypo", f"--algebra={spec}", f"--alpha={alpha}", *omega_flags])
    run_contract(["check-rccy", "--algebra=(0,0,12,0)", f"--alphas=2*e3; {alpha2}",
                  "--J=pairs:(1,2)", f"--epsilon={epsilon}"])


# -- usage errors and internal guards ----------------------------------------


@pytest.mark.parametrize(
    "argv, says",
    [
        (["check-contact", "--algebra", "(0,0,12)"], "required: --alpha"),
        (["check-contact", "--algebra", "(0,0,0,0,12+34)", "--alpha", "-3*e5"], "--alpha: expected one argument"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        ([], "required: command"),
        (["moduli-kernel", "--N", "x"], "invalid int value"),
    ],
)
def test_usage_errors_print_one_error_document(capsys, argv, says):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)  # exactly one JSON document
    assert report["status"] == "error" and set(report) == {"tool", "error", "status"}
    assert says in report["error"]
    assert captured.err == ""


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["curvature", "--help"]])
def test_help_and_version_keep_exit_zero_and_their_text(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: nilgeo") or out.startswith("nilgeo ")


def test_zero_denominator_coefficient_is_an_input_error(capsys):
    structure = ("--alpha", "2*e3", "--J", "pairs:(1,2)", "--epsilon", "e1 + i*e2")
    for argv in (
        ("check-contact", "--algebra", "(0,0,12)", "--alpha", "1/0*e3"),
        ("check-contact", "--algebra", "(0,0,12)", "--alpha", "e3 + 1/00*e1"),
        ("check-contact", "--algebra", "(0,0,1/0*12)", "--alpha", "e3"),
        ("legendrian", "--algebra", "(0,0,12)", *structure, "--span", "1/0*X1"),
    ):
        code, report = run(capsys, *argv)
        assert code == 2 and report["status"] == "error", argv


def run_input_error(argv):
    """Run argv and check the input-error half of the contract: exit 2, one
    JSON error document on stdout, nothing on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == 2, argv
    report = json.loads(out.getvalue())  # exactly one JSON document
    assert report["status"] == "error" and err.getvalue() == "", argv
    return report


H3_J = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
BAD_ENTRIES = ('"a"', '"1/0"', '"1/"', '""', "true", "false", "null", "1.5", "[1]", "{}")


@given(st.sampled_from(BAD_ENTRIES), st.integers(0, 8))
@example('"a"', 0)
@example('"1/0"', 4)
@example("true", 3)
@settings(max_examples=40, deadline=None)
def test_bad_json_matrix_and_vector_entries_are_input_errors(entry, cell):
    matrix = [[json.dumps(x) for x in row] for row in H3_J]
    matrix[cell // 3][cell % 3] = entry
    vector = ["1", "0", "0"]
    vector[cell % 3] = entry
    structure = ["--algebra=(0,0,12)", "--alpha=2*e3"]
    J = "matrix:[" + ",".join("[" + ",".join(row) + "]" for row in matrix) + "]"
    run_input_error(["check-sasakian", *structure, f"--J={J}"])
    run_input_error(["legendrian", *structure, "--J=pairs:(1,2)", "--epsilon=e1 + i*e2",
                     f"--span=[{','.join(vector)}]"])


@pytest.mark.parametrize("J", [
    "matrix:[0,1,2]",
    "matrix:[[0,-1,0],[1,0],[0,0,0]]",
    "matrix:[[0,-1,0],[1,0,0],5]",
    "matrix:[[0,-1],[1,0]]",
    '[["a",0,0],[1,0,0],[0,0,0]]',
])
def test_malformed_json_matrices_are_input_errors(J):
    run_input_error(["check-sasakian", "--algebra=(0,0,12)", "--alpha=2*e3", f"--J={J}"])


@pytest.mark.parametrize("spec", ["5", "null", "true", "[1]", '{"d": 1}'])
def test_non_string_catalog_specs_are_input_errors(spec):
    report = run_input_error(["classify", f'--catalog=[{{"name": "x", "spec": {spec}}}]'])
    assert report["error"] == f"malformed catalog entry: spec must be a string, got {json.dumps(json.loads(spec))}"


@pytest.mark.parametrize("catalog", ["[]", "{}", '""'])
def test_empty_catalogs_are_input_errors(catalog):
    # a catalog of no entries would read "pass" having checked nothing
    report = run_input_error(["classify", f"--catalog={catalog}"])
    assert report["error"] == "the catalog has no entries"


@pytest.mark.parametrize("entry, field, value", [
    ('{"name": ["x"], "spec": "(0,0,12)"}', "name", ["x"]),
    ('{"name": 7, "spec": "(0,0,12)"}', "name", 7),
    ('{"name": "x", "spec": "(0,0,12)", "notes": {"a": 1}}', "notes", {"a": 1}),
    ('{"name": "x", "spec": "(0,0,12)", "notes": null}', "notes", None),
])
def test_non_string_catalog_names_and_notes_are_input_errors(entry, field, value):
    report = run_input_error(["classify", f"--catalog=[{entry}]"])
    assert report["error"] == f"malformed catalog entry: {field} must be a string, got {json.dumps(value)}"


def test_catalog_entries_are_parsed_once(monkeypatch, capsys):
    from nilgeo import classify
    from nilgeo.algdsl import parse_algebra

    specs = []

    def counted(spec):
        specs.append(spec)
        return parse_algebra(spec)

    monkeypatch.setattr(classify, "parse_algebra", counted)
    catalog = [{"name": "h5", "spec": "(0,0,0,0,12+34)"}, {"name": "h3", "spec": "(0,0,12)"}]
    code, report = run(capsys, "classify", f"--catalog={json.dumps(catalog)}")
    assert code == 0 and [e["name"] for e in report["checks"][0]["entries"]] == ["h5", "h3"]
    assert specs == ["(0,0,0,0,12+34)", "(0,0,12)"]
    # every entry is still validated before any is classified
    bad = [*catalog, {"name": "bad", "spec": "(0,0,12,34,0)"}]
    specs.clear()
    report = run_input_error(["classify", f"--catalog={json.dumps(bad)}"])
    assert report["error"] == "d(d(e4)) = e124 != 0; Jacobi identity fails" and len(specs) == 3


def test_negative_comass_seed_is_an_input_error(capsys):
    # numpy's SeedSequence refuses negative seeds; the probe alone draws nothing
    report = run_input_error(["comass", *H3_CCY, "--seed=-1", "--samples=10"])
    assert report["error"] == "comass --samples needs --seed >= 0, got -1"
    code, report = run(capsys, "comass", *H3_CCY, "--seed=-1", "--samples=0", "--probe=X1")
    assert code == 0 and [c["name"] for c in report["checks"]] == ["comass_probe"]


def test_obstruction_empty_rotations_and_family_with_rotations_are_input_errors(tmp_path):
    report = run_input_error(["obstruction", *H3_CCY, "--span=X1", "--rotations="])
    assert report["error"] == "--rotations entry '' is not t,cos,sin"
    family = tmp_path / "family.json"
    family.write_text(json.dumps([{"t": "0", "alpha": "2*e3", "J": "pairs:(1,2)", "epsilon": "e1 + i*e2"}]))
    for rotations in ("default", "0,1,0;1,3/5,4/5", ""):
        report = run_input_error(["obstruction", *H3_CCY, "--span=X1", f"--family=@{family}", f"--rotations={rotations}"])
        assert report["error"] == "obstruction takes --family or --rotations, not both"
    report = run_input_error(["obstruction", *H3_CCY, "--span=X1", "--family="])
    assert report["error"].startswith("bad family JSON")


def test_zero_denominator_family_parameter_is_an_input_error(tmp_path):
    family = tmp_path / "family.json"
    family.write_text(json.dumps([{"t": "1/0", "alpha": "2*e3", "J": "pairs:(1,2)", "epsilon": "e1 + i*e2"}]))
    run_input_error(["obstruction", *H3_CCY, "--span=X1", f"--family=@{family}"])


def test_sample_counts_above_their_limits_are_input_errors():
    from nilgeo.classify import MAX_CLASSIFY_SAMPLES
    from nilgeo.legendrian import MAX_COMASS_SAMPLES

    report = run_input_error(["comass", *H3_CCY, f"--samples={MAX_COMASS_SAMPLES + 1}"])
    assert str(MAX_COMASS_SAMPLES) in report["error"]
    report = run_input_error(["classify", f"--samples={MAX_CLASSIFY_SAMPLES + 1}"])
    assert str(MAX_CLASSIFY_SAMPLES) in report["error"]


@pytest.mark.parametrize("depth", [330, 5000])
def test_deeply_nested_form_expressions_are_input_errors(depth):
    from nilgeo.algdsl import MAX_FORM_DEPTH

    deep = "(" * depth + "e3" + ")" * depth
    too_deep = f"expression too deep: parentheses nested more than {MAX_FORM_DEPTH} levels"
    report = run_input_error(["check-contact", "--algebra=(0,0,12)", f"--alpha={deep}"])
    assert report["error"] == too_deep
    report = run_input_error(["check-ccy", "--algebra=(0,0,12)", "--alpha=2*e3", "--J=pairs:(1,2)",
                              f"--epsilon=e1 + i*{deep.replace('e3', 'e2')}"])
    assert report["error"] == too_deep


@pytest.mark.parametrize("argv, what", [
    (["check-sasakian", "--algebra=(0,0,12)", "--alpha=2*e3", "--J=matrix:" + "[" * 100000], "matrix"),
    (["check-contact", '--algebra={"dim":3,"d":' + "[" * 100000, "--alpha=2*e3"], "algebra"),
    (["curvature", "--algebra=(0,0,12)", "--metric=" + "[" * 5000], "metric"),
    (["legendrian", *H3_CCY, "--span=" + "[" * 100000], "vector"),
    (["classify", "--catalog=" + "[" * 100000], "catalog"),
])
def test_deeply_nested_json_inputs_are_input_errors(argv, what):
    report = run_input_error(argv)
    assert report["error"].startswith(f"bad {what} JSON: maximum recursion depth exceeded")


def test_internal_guard_exits_3_with_one_document(capsys, monkeypatch):
    from nilgeo.exterior import Metric

    inverse = Metric.inverse
    monkeypatch.setattr(Metric, "inverse", lambda g: ([[2 * x for x in row] for row in inverse(g)[0]], inverse(g)[1]))
    code = main(["curvature", "--algebra", "(0,0,12)", "--metric", "[[1,0,0],[0,1,0],[0,0,4]]"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["status"] == "error"
    assert report["guard"] == "nilgeo.curvature.levi_civita"
    assert "torsion" in report["error"]


def test_closed_stdout_exits_141_without_a_traceback():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import nilgeo

    src = str(Path(nilgeo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "nilgeo.cli", "classify", "--seed", "0"],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # before the interpreter has started, let alone written the report
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 141


# -- literals: one reader, bounded, never a traceback ------------------------

import sys
import time
from fractions import Fraction

from nilgeo.exterior import MAX_LITERAL_DIGITS, ratio

# Each argv is valid with "1" in the slot {}; every flag that reads a literal
# has one, in each of its notations (compact, form, JSON string, JSON number,
# comma list, pairs, vector term, argparse int).
H3_FLAGS = ("--algebra=(0,0,12)", "--alpha=2*e3", "--J=pairs:(1,2)", "--epsilon=e1 + i*e2")
H3_SAMPLE = '"alpha": "2*e3", "J": "pairs:(1,2)", "epsilon": "e1 + i*e2"'
H3_FAMILY = '--family=[{{"t": 0, %s}}, {{"t": %%s, %s}}]' % (H3_SAMPLE, H3_SAMPLE)  # t = 0 and t = %s
LITERAL_SLOTS = (
    ("check-contact", "--algebra=(0,0,{}*12)", "--alpha=2*e3"),
    ("check-contact", "--algebra=(0,0,12)", "--alpha={}*e3"),
    ("check-contact", "--algebra=(0,0,12)", "--alpha=e{}"),
    ("check-contact", '--algebra={{"dim": 3, "d": {{"3": [["{}", 1, 2]]}}}}', "--alpha=e3"),
    ("check-contact", '--algebra={{"dim": 3, "d": {{"3": [[{}, 1, 2]]}}}}', "--alpha=e3"),
    ("check-sasakian", "--algebra=(0,0,12)", "--alpha=2*e3", "--J=pairs:({},2)"),
    ("check-sasakian", "--algebra=(0,0,12)", "--alpha=2*e3", '--J=matrix:[[0,-1,0],["{}",0,0],[0,0,0]]'),
    ("check-sasakian", "--algebra=(0,0,12)", "--alpha=2*e3", "--J=matrix:[[0,-1,0],[{},0,0],[0,0,0]]"),
    ("check-ccy", *H3_FLAGS[:3], "--epsilon={}*e1 + i*e2"),
    ("check-rccy", "--algebra=(0,0,12,0)", "--alphas=2*e3; {}*e3 + 2*e4", "--J=pairs:(1,2)", "--epsilon=e1 + i*e2"),
    ("check-hypo", "--algebra=(0,0,0,0,12+34)", "--alpha=2*e5", "--omega1={}*e1^e2 + e3^e4",
     "--omega2=e1^e3 - e2^e4", "--omega3=e1^e4 + e2^e3"),
    ("betti", "--algebra=(0,0,{}*12)"),
    ("curvature", "--algebra=(0,0,12)", '--metric=[["{}",0,0],[0,1,0],[0,0,1]]'),
    ("curvature", "--algebra=(0,0,12)", "--metric=[[{},0,0],[0,1,0],[0,0,1]]"),
    ("legendrian", *H3_FLAGS, "--span={}*X1"),
    ("legendrian", *H3_FLAGS, "--span=X{}"),
    ("legendrian", *H3_FLAGS, '--span=["{}",0,0]'),
    ("obstruction", *H3_FLAGS, "--span=X1", "--rotations=0,{},0"),
    ("obstruction", *H3_FLAGS, "--span=X1", "--rotations=0,1,0;{},1,0"),
    ("obstruction", *H3_FLAGS, "--span=X1", H3_FAMILY % '"{}"'),
    ("obstruction", *H3_FLAGS, "--span=X1", H3_FAMILY % "{}"),
    ("comass", *H3_FLAGS, "--samples=0", "--probe={}*X1"),
    ("comass", *H3_FLAGS, "--samples={}"),
    ("moduli-kernel", "--N={}6"),
    ("classify", "--seed={}", "--samples=0"),
    ("classify", '--catalog=[{{"name": "x", "spec": "(0,0,{}*12)"}}]', "--samples=0"),
)
NON_ASCII_DIGITS = "١۳१３²Ⅷ"  # Arabic-Indic, Devanagari, fullwidth, superscript, Roman

literals = st.one_of(
    st.from_regex(r"-?[0-9]{1,3}(\.[0-9]{0,3})?[eE][+-]?[0-9]{1,7}", fullmatch=True),
    st.from_regex(r"-?[0-9]{0,3}\.[0-9]{0,3}", fullmatch=True),
    st.integers(MAX_LITERAL_DIGITS - 5, 6000).map(lambda n: "7" * n),
    st.sampled_from((" 1", "1 ", " 1/2 ", "\t3", "1\n", "1 /2", "+1", "1_000")),
    st.tuples(st.from_regex(r"-?[0-9]{0,2}", fullmatch=True), st.sampled_from(NON_ASCII_DIGITS),
              st.from_regex(r"(/?[0-9]{1,2})?", fullmatch=True)).map("".join),
)


def run_bounded(argv):
    """Run argv: exit 0, 1 or 2, one JSON document on stdout, nothing on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2) and err.getvalue() == "", argv
    report = json.loads(out.getvalue())  # exactly one JSON document
    assert report["status"] == {0: "pass", 1: "fail", 2: "error"}[code], argv
    return code


@pytest.mark.parametrize("slots", LITERAL_SLOTS, ids=lambda slots: f"{slots[0]}:{'|'.join(slots[1:])}"[:60])
def test_literal_slots_accept_one(slots):
    assert run_bounded([slots[0], *(flag.format("1") for flag in slots[1:])]) in (0, 1)


@given(st.sampled_from(LITERAL_SLOTS), literals)
@example(LITERAL_SLOTS[12], "1e3000000")
@example(LITERAL_SLOTS[4], "7" * 5000)
@example(LITERAL_SLOTS[12], "7" * MAX_LITERAL_DIGITS)
@settings(max_examples=150, deadline=None)
def test_bad_and_long_literals_keep_the_exit_code_contract(slots, text):
    run_bounded([slots[0], *(flag.format(text) for flag in slots[1:])])


@pytest.mark.parametrize("argv", [
    ["curvature", "--algebra", "(0,0,12)", "--metric", '[["1e3000000",0,0],[0,1,0],[0,0,1]]'],
    ["check-contact", "--algebra", '{"dim": 3, "d": {"3": [["1e5000", 1, 2]]}}', "--alpha", "e3"],
    ["obstruction", *H3_CCY, "--span", "X1", "--rotations", "0,1,0;1e5000,1,0"],
    ["check-contact", "--algebra", "(0,0,12)", "--alpha", "1" * 5000 + "*e3"],
    ["curvature", "--algebra", "(0,0,12)", "--metric", f"[[{'1' * 5000},0,0],[0,1,0],[0,0,1]]"],
    ["obstruction", *H3_CCY, "--span", "X1", "--rotations", " 0.5 ,1,0"],
    ["obstruction", *H3_CCY, "--span", "X1", "--family",
     '[{"t": 1.5, "alpha": "2*e3", "J": "pairs:(1,2)", "epsilon": "e1 + i*e2"}]'],
])
def test_exponent_decimal_and_over_long_literals_exit_2_at_once(argv):
    start = time.perf_counter()
    run_input_error(argv)
    assert time.perf_counter() - start < 1


def test_reports_print_exact_values_beyond_the_int_string_bound(capsys):
    # 45 literals of 100 digits multiply to a 4500-digit coefficient, above the
    # 4300 digits Python converts to a string by default
    factor, limit = "9" * MAX_LITERAL_DIGITS, sys.get_int_max_str_digits()
    code, report = run(capsys, "check-contact", "--algebra", "(0,0,12)", "--alpha", "*".join([factor] * 45) + "*e3")
    assert code == 0 and sys.get_int_max_str_digits() == limit  # main puts the process's bound back
    sys.set_int_max_str_digits(0)
    try:
        assert report["checks"][0]["kappa"] == f"{Fraction(int(factor) ** 45, 2)}*e12"
    finally:
        sys.set_int_max_str_digits(limit)


@given(st.integers(-10**40, 10**40), st.integers(1, 10**40))
@example(0, 7)
@example(-6, 3)
@example(-4, 6)
def test_ratio_renders_as_fraction_does(p, q):
    assert ratio(p, q) == str(Fraction(p, q))


def test_comass_outside_the_float_range_is_an_input_error():
    # a verified structure whose metric and epsilon the sampler cannot hold in
    # floats: exit 2, not the internal-guard exit 3
    n = "9" * MAX_LITERAL_DIGITS
    report = run_input_error(["comass", "--algebra=(0,0,12)", f"--alpha=2*{n}*{n}*{n}*{n}*e3", "--J=pairs:(1,2)",
                              f"--epsilon={n}*{n}*e1 + {n}*{n}*i*e2", "--samples=10"])
    assert "floating-point range" in report["error"]


def test_metric_denominator_bound_is_an_input_error_before_any_elimination():
    from nilgeo.exterior import MAX_METRIC_DEN_DIGITS

    assert MAX_METRIC_DEN_DIGITS >= MAX_LITERAL_DIGITS  # one in-bound literal always passes
    dim, base = 9, 10 ** (MAX_LITERAL_DIGITS - 1)
    metric = [["10" if i == j else "0" for j in range(dim)] for i in range(dim)]
    for k, (i, j) in enumerate((i, j) for i in range(dim) for j in range(i)):  # 36 distinct 100-digit denominators
        metric[i][j] = metric[j][i] = f"1/{base + 2 * k + 1}"
    argv = ["curvature", "--algebra=(0,0,12,13,14,15,16,17,18)", f"--metric={json.dumps(metric)}"]
    start = time.perf_counter()
    report = run_input_error(argv)
    assert time.perf_counter() - start < 1
    assert str(MAX_METRIC_DEN_DIGITS) in report["error"]
    metric[1][0] = metric[0][1] = f"1/{10 ** MAX_LITERAL_DIGITS - 1}"  # one literal at the literal bound passes
    for i, j in ((i, j) for i in range(dim) for j in range(i) if (i, j) != (1, 0)):
        metric[i][j] = metric[j][i] = "0"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["curvature", "--algebra=(0,0,12,13,14,15,16,17,18)", f"--metric={json.dumps(metric)}"]) == 0


# -- the report writer: json.dumps(indent=2), byte for byte -------------------

from nilgeo.cli import _dumps

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=25,
)


@given(JSON_VALUES)
@example({"empty list": [], "empty dict": {}, "nested": [[], {}, [{}]], "ints": [0, -7, 10**30], "none": None})
@example({"né  ": "é中\U0001f600", "esc": "\"\\\n\r\t\b\f\x00\x1f\x7f", "bools": [True, False]})
@settings(max_examples=300, deadline=None)
def test_report_writer_matches_json_dumps(payload):
    assert _dumps(payload) == json.dumps(payload, indent=2)
