import itertools
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from curvegerm import CharacteristicData, ContactReport, HolderVerdict, STATUS_DISTINCT, cli
from curvegerm.puiseux import ConsistencyError

CUSP25 = {
    "branches": [
        {"n": 2, "truncation": 5, "terms": [{"exp": 5, "coeff": {"rational": "1"}}]}
    ]
}
CUSP23 = {
    "branches": [
        {"n": 2, "truncation": 3, "terms": [{"exp": 3, "coeff": {"rational": "1"}}]}
    ]
}
GENUS2 = {
    "branches": [
        {
            "n": 4,
            "truncation": 7,
            "terms": [
                {"exp": 6, "coeff": {"rational": "1"}},
                {"exp": 7, "coeff": {"rational": "1"}},
            ],
        }
    ]
}
AXIS_AND_PARABOLA = {
    "branches": [
        {"n": 1, "truncation": 16, "terms": []},
        {"n": 1, "truncation": 16, "terms": [{"exp": 2, "coeff": {"rational": "1"}}]},
    ]
}
AXIS_AND_CUBIC = {
    "branches": [
        {"n": 1, "truncation": 16, "terms": []},
        {"n": 1, "truncation": 16, "terms": [{"exp": 3, "coeff": {"rational": "1"}}]},
    ]
}
DEMO_DATA = pathlib.Path(__file__).resolve().parents[1] / "demos" / "data"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
AXIS = {"branches": [{"n": 1, "truncation": 16, "terms": []}]}
PARABOLA = {
    "branches": [
        {"n": 1, "truncation": 16, "terms": [{"exp": 2, "coeff": {"rational": "1"}}]}
    ]
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


def run_json(capsys, argv):
    code = cli.main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classify_the_reference_pair(tmp_path, capsys):
    a = write(tmp_path, "a.json", CUSP25)
    b = write(tmp_path, "b.json", CUSP23)
    code, payload = run_json(capsys, ["classify", a, b])
    assert code == 0
    assert payload["status"] == "certified_distinct"
    assert payload["k0"] == "4/5"
    assert Fraction(payload["k0"]) == Fraction(4, 5)
    assert abs(payload["alpha0_decimal"] - 0.945742) < 1e-5
    assert {o["kind"] for o in payload["obstructions"]} == {"baseline", "char_exponents"}


def test_classify_self_reports_sigma(tmp_path, capsys):
    a = write(tmp_path, "a.json", AXIS_AND_PARABOLA)
    code, payload = run_json(capsys, ["classify", a, a])
    assert code == 0
    assert payload["status"] == "equivalent_invariants"
    assert sorted(payload["sigma"]) == [0, 1]


def test_invariants_single_branch_is_flat(tmp_path, capsys):
    path = write(tmp_path, "g.json", GENUS2)
    code, payload = run_json(capsys, ["invariants", path])
    assert code == 0
    assert payload == {
        "n": 4,
        "beta": [4, 6, 7],
        "e": [4, 2, 1],
        "pairs": [[3, 2], [7, 2]],
        "genus": 2,
    }


def test_invariants_multi_branch_lists_branches(tmp_path, capsys):
    path = write(tmp_path, "g.json", AXIS_AND_PARABOLA)
    code, payload = run_json(capsys, ["invariants", path])
    assert code == 0
    assert [b["beta"] for b in payload["branches"]] == [[1], [1]]


def test_contact_command(tmp_path, capsys):
    path = write(tmp_path, "g.json", AXIS_AND_PARABOLA)
    code, payload = run_json(capsys, ["contact", path])
    assert code == 0
    assert payload["contact"][0][1] == "2"
    assert payload["intersection"][0][1] == 2
    assert payload["contact"][0][0] is None


def test_estimate_command_agrees_with_exact(tmp_path, capsys):
    a = write(tmp_path, "a.json", AXIS)
    b = write(tmp_path, "b.json", PARABOLA)
    code, payload = run_json(capsys, ["estimate", a, b, "--grid", "1e-1,1e-4,16"])
    assert code == 0
    assert abs(payload["slope"] - 2.0) < 0.1
    assert payload["r_squared"] >= 0.99
    assert payload["exact"] == "2"
    assert payload["within_tolerance"] is True


def test_estimate_writes_csv(tmp_path, capsys):
    a = write(tmp_path, "a.json", AXIS)
    b = write(tmp_path, "b.json", PARABOLA)
    csv_path = tmp_path / "gaps.csv"
    code, _ = run_json(
        capsys, ["estimate", a, b, "--grid", "1e-1,1e-3,10", "--csv", str(csv_path)]
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "r,gap"
    assert len(lines) == 11


def test_estimate_csv_holds_the_radii_the_fit_kept(tmp_path, capsys):
    # y = x^2 against y = x^2 + x^40: the gap at r = 1e-8 underflows, but the
    # fit drops every radius under the 1e-6 floor first, and so does the CSV
    line = {"n": 1, "truncation": 50, "terms": [{"exp": 2, "coeff": {"rational": "1"}}]}
    far = {**line, "terms": line["terms"] + [{"exp": 40, "coeff": {"rational": "1"}}]}
    a = write(tmp_path, "a.json", {"branches": [line]})
    b = write(tmp_path, "b.json", {"branches": [far]})
    argv = ["estimate", a, b, "--grid", "1e-1,1e-8,16"]
    code, plain = run_json(capsys, argv)
    assert code == 0 and plain["slope"] == pytest.approx(40.0)
    csv_path = tmp_path / "gaps.csv"
    code, payload = run_json(capsys, argv + ["--csv", str(csv_path)])
    assert code == 0 and payload == plain
    header, *rows = csv_path.read_text().strip().splitlines()
    radii = [float(row.split(",")[0]) for row in rows]
    assert header == "r,gap"
    assert len(radii) == 11 and min(radii) == payload["window"][0] and max(radii) == 0.1


def test_check_prop1_command(tmp_path, capsys):
    a = write(tmp_path, "a.json", AXIS)
    b = write(tmp_path, "b.json", PARABOLA)
    code, payload = run_json(capsys, ["check-prop1", a, b, "--beta", "2"])
    assert code == 0
    assert payload["passed"] is True
    assert abs(payload["contact_image"]["slope"] - 1.5) < 0.1


def test_check_prop1_default_grid_fits_multiplicity_four(capsys):
    # 0.5^4 bounds the x-radii of the n=4 branch: the grid runs 0.0625 .. 0.000625
    a, b = str(DEMO_DATA / "axis.json"), str(DEMO_DATA / "genus_two.json")
    code, payload = run_json(capsys, ["check-prop1", a, b, "--beta", "2"])
    assert code == 0
    assert payload["contact_source"]["window"] == [0.0625 / 100, 0.0625]
    assert payload["contact_image"]["window"][0] >= 1e-6  # image radii below the floor dropped
    assert abs(payload["contact_source"]["slope"] - 1.5) < 0.1
    assert payload["passed"] is True


def test_check_prop1_names_a_short_image_grid(capsys):
    # the n=4 grid 0.0625 .. 0.000625 cubed keeps 6 radii at or above 1e-6
    a, b = str(DEMO_DATA / "axis.json"), str(DEMO_DATA / "genus_two.json")
    code, payload = run_json(capsys, ["check-prop1", a, b, "--beta", "3"])
    assert code == 4
    assert payload["error_kind"] == "unsupported"
    assert payload["message"].startswith(
        "the image grid r^3 keeps only 6 of 16 radii above the 1e-06 floor"
    )


def test_estimate_of_a_file_against_itself_names_the_conjugate(capsys):
    path = str(DEMO_DATA / "parabola.json")
    code, payload = run_json(capsys, ["estimate", path, path])
    assert code == 4
    assert payload["error_kind"] == "unsupported"
    assert payload["message"] == (
        "zero gap: conjugate 0 of the second branch agrees with the first "
        "in every known term, up to order 16 in x"
    )


def test_check_prop1_of_a_file_against_itself_names_the_conjugate(capsys):
    # the sampled arcs agree at every radius: the zero gap is named as
    # estimate names it, not blamed on the radii
    path = str(DEMO_DATA / "parabola.json")
    code, payload = run_json(capsys, ["check-prop1", path, path, "--beta", "1.25"])
    assert code == 4
    assert payload["error_kind"] == "unsupported"
    assert payload["message"] == (
        "zero gap: conjugate 0 of the second branch agrees with the first "
        "in every known term, up to order 16 in x"
    )


def test_estimate_of_an_underflowing_gap_names_the_radius(tmp_path, capsys):
    parabola = {
        "branches": [
            {"n": 1, "truncation": 200, "terms": [{"exp": 2, "coeff": {"rational": "1"}}]}
        ]
    }
    close = {
        "branches": [
            {
                "n": 1,
                "truncation": 200,
                "terms": [
                    {"exp": 2, "coeff": {"rational": "1"}},
                    {"exp": 100, "coeff": {"rational": "1"}},
                ],
            }
        ]
    }
    a = write(tmp_path, "a.json", parabola)
    b = write(tmp_path, "b.json", close)
    code, payload = run_json(capsys, ["estimate", a, b])
    assert code == 4
    assert payload["error_kind"] == "unsupported"
    assert payload["message"].startswith(
        "the gap at r = 0.000630957 underflows double precision"
    )
    assert "below the floor 2.22507e-308" in payload["message"]


def test_proof_arcs_command(tmp_path, capsys):
    path = write(tmp_path, "g.json", CUSP25)
    code, payload = run_json(capsys, ["proof-arcs", path, "--branch", "0", "--index", "1"])
    assert code == 0
    assert payload["beta_j"] == 5
    assert payload["expected_twist_exponent"] == "5/2"
    assert abs(payload["base_vs_conjugate_twist"]["slope"] - 2.5) < 0.1
    assert abs(payload["base_vs_quarter_turn"]["slope"] - 1.0) < 0.05


def test_exit_code_2_on_bad_json(tmp_path, capsys):
    path = write(tmp_path, "bad.json", "{not json")
    code, payload = run_json(capsys, ["invariants", path])
    assert code == 2
    assert payload["error_kind"] == "validation"


def test_exit_code_2_on_a_boolean_root_index(tmp_path, capsys):
    coeff = {"cyclotomic": [["1", True]]}
    doc = {"branches": [{"n": 2, "truncation": 3, "terms": [{"exp": 3, "coeff": coeff}]}]}
    code, payload = run_json(capsys, ["invariants", write(tmp_path, "bool.json", doc)])
    assert code == 2
    assert payload["error_kind"] == "validation"
    assert payload["message"].startswith("bad cyclotomic entry ['1', True]")


def test_exit_code_2_on_duplicate_branches(tmp_path, capsys):
    doc = {"branches": [AXIS["branches"][0], AXIS["branches"][0]]}
    path = write(tmp_path, "dup.json", doc)
    code, payload = run_json(capsys, ["contact", path])
    assert code == 2
    assert payload["error_kind"] == "validation"


def test_exit_code_3_on_insufficient_truncation(tmp_path, capsys):
    stuck = {
        "branches": [
            {"n": 4, "truncation": 6, "terms": [{"exp": 6, "coeff": {"rational": "1"}}]}
        ]
    }
    path = write(tmp_path, "stuck.json", stuck)
    code, payload = run_json(capsys, ["invariants", path])
    assert code == 3
    assert payload["error_kind"] == "truncation"
    assert "stuck" in payload["message"]


def test_classify_nine_branches_exits_0(tmp_path, capsys):
    many = {
        "branches": [
            {
                "n": 1,
                "truncation": 4,
                "terms": [{"exp": 1, "coeff": {"rational": str(k)}}],
            }
            for k in range(1, 10)
        ]
    }
    path = write(tmp_path, "many.json", many)
    code, payload = run_json(capsys, ["classify", path, path])
    assert code == 0
    assert payload["status"] == "equivalent_invariants"
    assert payload["sigma"] == list(range(9))


def test_estimate_lifts_germs_from_different_fields(tmp_path, capsys):
    a = write(tmp_path, "a.json", GENUS2)
    b = write(tmp_path, "b.json", AXIS)
    code, payload = run_json(capsys, ["estimate", a, b])
    assert code == 0
    assert payload["exact"] == "3/2"
    assert payload["within_tolerance"] is True


def test_exit_code_2_on_missing_file(capsys):
    code, payload = run_json(capsys, ["invariants", "no-such-file.json"])
    assert code == 2
    assert payload["error_kind"] == "validation"


@pytest.mark.parametrize("spec", ["inf,1e-4,16", "1e-1,nan,16"])
def test_non_finite_grid_bound_is_a_usage_error(tmp_path, capsys, spec):
    a = write(tmp_path, "a.json", AXIS)
    b = write(tmp_path, "b.json", PARABOLA)
    with pytest.raises(SystemExit) as info:
        cli.main(["estimate", a, b, "--grid", spec])
    assert info.value.code == 2
    assert "need 0 < r_min < r_max < inf" in capsys.readouterr().err


NUMERIC_COMMANDS = {"estimate": [], "check-prop1": ["--beta", "1.25"]}


@pytest.mark.parametrize("command", sorted(NUMERIC_COMMANDS))
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
def test_tolerance_outside_finite_non_negative_is_a_usage_error(tmp_path, capsys, command, value):
    # --tolerance=V reaches the parser even for a value that starts with "-"
    a = write(tmp_path, "a.json", AXIS)
    b = write(tmp_path, "b.json", PARABOLA)
    with pytest.raises(SystemExit) as info:
        cli.main([command, a, b, *NUMERIC_COMMANDS[command], f"--tolerance={value}", "--json"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad tolerance {value!r}: need a finite number >= 0" in captured.err


@pytest.mark.parametrize("command", sorted(NUMERIC_COMMANDS))
def test_zero_tolerance_is_accepted(tmp_path, capsys, command):
    a = write(tmp_path, "a.json", AXIS)
    b = write(tmp_path, "b.json", PARABOLA)
    code, payload = run_json(capsys, [command, a, b, *NUMERIC_COMMANDS[command], "--tolerance=0"])
    assert code == 0
    assert payload["tolerance"] == 0.0


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("estimate", "angles", "0"),
        ("estimate", "angles", "-1"),
        ("estimate", "angles", "1.5"),
        ("check-prop1", "beta", "nan"),
        ("check-prop1", "beta", "inf"),
        ("check-prop1", "beta", "0.5"),
    ],
)
def test_angles_and_beta_out_of_range_are_usage_errors(tmp_path, capsys, command, option, value):
    # checked when the options are parsed, as --tolerance and --grid are
    need = "an integer >= 1" if option == "angles" else "a finite number >= 1"
    a = write(tmp_path, "a.json", AXIS)
    b = write(tmp_path, "b.json", PARABOLA)
    with pytest.raises(SystemExit) as info:
        cli.main([command, a, b, f"--{option}={value}", "--json"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad {option} {value!r}: need {need}" in captured.err


def test_angles_and_beta_of_one_are_accepted(tmp_path, capsys):
    a = write(tmp_path, "a.json", AXIS)
    b = write(tmp_path, "b.json", PARABOLA)
    code, payload = run_json(capsys, ["estimate", a, b, "--angles=1"])
    assert code == 0 and payload["angles"] == 1
    code, payload = run_json(capsys, ["check-prop1", a, b, "--beta=1"])
    assert code == 0 and payload["beta"] == 1.0


def test_exit_code_4_on_out_of_range_grid(tmp_path, capsys):
    # an n=4 branch needs t-radii at most 0.5, i.e. x-radii at most 0.5^4
    a = write(tmp_path, "a.json", GENUS2)
    b = write(tmp_path, "b.json", AXIS)
    code, payload = run_json(capsys, ["estimate", a, b, "--grid", "1e-1,1e-4,16"])
    assert code == 4
    assert payload["error_kind"] == "unsupported"


def test_exit_code_4_on_a_grid_below_the_radius_floor(tmp_path, capsys):
    # every radius under 1e-6: the floor drops all of them before the fit
    a = write(tmp_path, "a.json", AXIS)
    b = write(tmp_path, "b.json", PARABOLA)
    code, payload = run_json(capsys, ["estimate", a, b, "--grid", "1e-7,1e-9,16"])
    assert code == 4
    assert payload["error_kind"] == "unsupported"
    assert payload["message"] == (
        "the radius floor 1e-06 dropped all 16 radii of the grid; "
        "a contact estimate needs radii at or above it"
    )


def test_exit_code_4_when_the_radius_floor_leaves_too_few_radii(tmp_path, capsys):
    # 12 of the 16 radii lie under 1e-6, and 4 are too few to fit
    a = write(tmp_path, "a.json", AXIS)
    b = write(tmp_path, "b.json", PARABOLA)
    code, payload = run_json(capsys, ["estimate", a, b, "--grid", "1e-5,1e-9,16"])
    assert code == 4
    assert payload["error_kind"] == "unsupported"
    assert payload["message"] == (
        "the radius floor 1e-06 dropped 12 of the 16 radii of the grid and kept 4; "
        "a contact estimate needs at least 8 radii at or above it"
    )


def test_exit_code_4_on_multi_branch_estimate(tmp_path, capsys):
    a = write(tmp_path, "a.json", AXIS_AND_PARABOLA)
    b = write(tmp_path, "b.json", AXIS)
    code, payload = run_json(capsys, ["estimate", a, b])
    assert code == 4
    assert payload["error_kind"] == "unsupported"


def test_exit_code_4_on_smooth_proof_arcs(tmp_path, capsys):
    path = write(tmp_path, "axis.json", AXIS)
    code, payload = run_json(capsys, ["proof-arcs", path])
    assert code == 4
    assert payload["error_kind"] == "unsupported"


def test_exit_code_5_on_an_internal_error(tmp_path, capsys, monkeypatch):
    from curvegerm import holder

    def broken(*args):
        raise RuntimeError("contact trees with equal keys failed to match: internal bug")

    monkeypatch.setattr(holder, "_keyed_tree", broken)
    a = write(tmp_path, "a.json", AXIS_AND_PARABOLA)
    b = write(tmp_path, "b.json", AXIS_AND_CUBIC)
    code, payload = run_json(capsys, ["classify", a, b])
    assert code == 5
    assert payload == {
        "error_kind": "internal",
        "message": "contact trees with equal keys failed to match: internal bug",
    }
    assert cli.main(["classify", a, b]) == 5
    assert capsys.readouterr().err.startswith("error (internal): contact trees with")


def test_exit_code_5_on_a_tampered_contact(tmp_path, capsys, monkeypatch):
    from curvegerm.puiseux import load_germ

    def tampered(path):
        g = load_germ(path)
        # the root's level 3/2 tampered to 2
        object.__setattr__(g, "_tree", (2, ((4, None, None), (-1, 0, 0), (1, 2))))
        return g

    monkeypatch.setattr(cli, "load_germ", tampered)
    cusp = {"n": 2, "truncation": 8, "terms": [{"exp": 3, "coeff": {"rational": "1"}}]}
    path = write(tmp_path, "g.json", {"branches": [cusp, AXIS["branches"][0]]})
    code, payload = run_json(capsys, ["contact", path])
    assert code == 5
    assert payload == {
        "error_kind": "internal",
        "message": "intersection multiplicity came out as 7/2, not a positive integer: "
        "internal bug or insufficient truncation",
    }


def test_exit_code_5_on_a_contact_tree_that_misses_a_pair(tmp_path, capsys, monkeypatch):
    from curvegerm.puiseux import load_germ

    def tampered(path):
        g = load_germ(path)
        # both leaves on one node: the tree never meets the pair
        object.__setattr__(g, "_tree", (2, ((3, None, None), (-1, 0, 0), (1, 1))))
        return g

    monkeypatch.setattr(cli, "load_germ", tampered)
    cusp = {"n": 2, "truncation": 8, "terms": [{"exp": 3, "coeff": {"rational": "1"}}]}
    path = write(tmp_path, "g.json", {"branches": [cusp, AXIS["branches"][0]]})
    code, payload = run_json(capsys, ["contact", path])
    assert code == 5
    assert payload == {
        "error_kind": "internal",
        "message": "the contact tree meets 0 branch pairs, not all 1",
    }


@pytest.mark.parametrize(
    "command, name, broken, message",
    [
        ("invariants", "characteristic_data",
         lambda b: CharacteristicData((2,), (1,), (), 0),
         "inconsistent characteristic data: CharacteristicData(beta=(2,), e=(1,), "
         "pairs=(), genus=0)"),
        ("contact", "contact_report",
         lambda g: ContactReport(2, ((None, 1), (2, None)), ((None, 1), (1, None))),
         "contact matrix must be symmetric"),
        ("classify", "classify",
         lambda g1, g2: HolderVerdict(STATUS_DISTINCT, k0=Fraction(1)),
         "distinct verdict needs k0 = max obstruction < 1"),
    ],
)
def test_exit_code_5_on_a_failed_consistency_check(tmp_path, capsys, monkeypatch,
                                                   command, name, broken, message):
    # a library result that fails its own check is a bug, not a bad request
    monkeypatch.setattr(cli, name, broken)
    path = write(tmp_path, "g.json", AXIS_AND_PARABOLA)
    argv = [command, path] + ([path] if command == "classify" else [])
    code, payload = run_json(capsys, argv)
    assert code == 5
    assert payload == {"error_kind": "internal", "message": message}
    assert issubclass(ConsistencyError, ValueError)


def test_exit_code_4_on_proof_arcs_beyond_the_radius_floor(tmp_path, capsys):
    # 0.5^20 < 1e-6: no x-radius grid fits between the t-radius bound and the floor
    deep = {
        "branches": [
            {"n": 20, "truncation": 21, "terms": [{"exp": 21, "coeff": {"rational": "1"}}]}
        ]
    }
    code, payload = run_json(capsys, ["proof-arcs", write(tmp_path, "deep.json", deep)])
    assert code == 4
    assert payload["error_kind"] == "unsupported"
    assert "multiplicity 20" in payload["message"]
    assert "0.5^20" in payload["message"]
    assert "floor 1e-06" in payload["message"]


def test_json_output_is_deterministic(tmp_path, capsys):
    a = write(tmp_path, "a.json", CUSP25)
    b = write(tmp_path, "b.json", CUSP23)
    cli.main(["classify", a, b, "--json"])
    first = capsys.readouterr().out
    cli.main(["classify", a, b, "--json"])
    second = capsys.readouterr().out
    assert first == second

    cli.main(["estimate", write(tmp_path, "x.json", AXIS), write(tmp_path, "y.json", PARABOLA), "--json"])
    first = capsys.readouterr().out
    cli.main(["estimate", str(tmp_path / "x.json"), str(tmp_path / "y.json"), "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_text_output_mentions_the_threshold(tmp_path, capsys):
    a = write(tmp_path, "a.json", CUSP25)
    b = write(tmp_path, "b.json", CUSP23)
    assert cli.main(["classify", a, b]) == 0
    out = capsys.readouterr().out
    assert "certified_distinct" in out
    assert "4/5" in out


def test_classify_requires_two_files(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["classify", "only-one.json"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["invariants", "a.json"], ["contact", "a.json"], ["classify", "a.json", "b.json"]],
)
def test_tolerance_is_only_for_the_numeric_commands(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--tolerance", "5"])
    assert info.value.code == 2
    assert "unrecognized arguments: --tolerance 5" in capsys.readouterr().err


def test_classes_agree_with_the_pairwise_verdicts(capsys):
    files = [str(p) for p in sorted(DEMO_DATA.glob("*.json"))]
    code, payload = run_json(capsys, ["classes", *files])
    assert code == 0
    # every file in exactly one class, classes in order of first appearance
    assert sorted(path for members in payload["classes"] for path in members) == files
    firsts = [members[0] for members in payload["classes"]]
    assert firsts == sorted(firsts, key=files.index)
    where = {path: k for k, members in enumerate(payload["classes"]) for path in members}
    for a, b in itertools.product(files, repeat=2):
        code, verdict = run_json(capsys, ["classify", a, b])
        assert code == 0
        assert (where[a] == where[b]) == (verdict["status"] == "equivalent_invariants")
    assert len(payload["classes"]) < len(files)


def test_classes_text_output(tmp_path, capsys):
    a = write(tmp_path, "a.json", AXIS_AND_PARABOLA)
    b = write(tmp_path, "b.json", CUSP25)
    c = write(tmp_path, "c.json", {"branches": AXIS_AND_PARABOLA["branches"][::-1]})
    assert cli.main(["classes", a, b, c]) == 0
    assert capsys.readouterr().out == f"classes:\n  - [{a}, {c}]\n  - [{b}]\n"


def test_classes_exit_codes(tmp_path, capsys, monkeypatch):
    good = write(tmp_path, "good.json", CUSP25)
    stuck = write(tmp_path, "stuck.json", {
        "branches": [
            {"n": 4, "truncation": 6, "terms": [{"exp": 6, "coeff": {"rational": "1"}}]}
        ]
    })
    code, payload = run_json(capsys, ["classes", good, str(tmp_path / "missing.json")])
    assert (code, payload["error_kind"]) == (2, "validation")
    code, payload = run_json(capsys, ["classes", good, stuck])
    assert (code, payload["error_kind"]) == (3, "truncation")
    with pytest.raises(SystemExit) as info:
        cli.main(["classes"])
    assert info.value.code == 2

    from curvegerm import holder

    def broken(*args):
        raise RuntimeError("contact trees with equal keys failed to match: internal bug")

    monkeypatch.setattr(holder, "_keyed_tree", broken)
    code, payload = run_json(capsys, ["classes", write(tmp_path, "two.json", AXIS_AND_PARABOLA)])
    assert (code, payload["error_kind"]) == (5, "internal")


@pytest.mark.parametrize("lines_read", [1, 0])
def test_a_reader_that_quits_early_gets_no_traceback(tmp_path, lines_read):
    axis = write(tmp_path, "axis.json", AXIS)
    if lines_read:
        # a report of over 128 KiB, twice what a pipe holds, so the writer
        # is still writing when the reader closes its end
        argv = ["classes", *[axis] * (2**17 // len(axis) + 1), "--json"]
    else:
        # a short report, buffered until the exit code is known: the pipe
        # is closed before it is written
        argv = ["classify", axis, str(DEMO_DATA / "axis_and_cubic.json"), "--json"]
    # stdout block-buffered, as a console script's is by default
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    with subprocess.Popen(
        [sys.executable, "-m", "curvegerm.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as child:
        if lines_read:
            assert child.stdout.readline() == b"{\n"
        child.stdout.close()
        stderr = child.stderr.read()
    assert child.returncode == cli.EXIT_BROKEN_PIPE == 1
    assert stderr == b""


@pytest.mark.parametrize("beta", ["1.25", "2"])
def test_check_prop1_names_the_radius_where_the_gap_is_lost(tmp_path, capsys, beta):
    # x^9 at r = 0.00464 is below half an ulp of y = x^2, so the sampled
    # y-values agree there, before the map is applied
    a = write(tmp_path, "a.json", PARABOLA)
    close = json.loads(json.dumps(PARABOLA))
    close["branches"][0]["terms"].append({"exp": 9, "coeff": {"rational": "1"}})
    b = write(tmp_path, "b.json", close)
    code, payload = run_json(capsys, ["check-prop1", a, b, "--beta", beta])
    assert code == 4
    assert payload["error_kind"] == "unsupported"
    assert payload["message"].startswith(
        "the gap at r = 0.00464159 underflows double precision: it is 0, below the floor"
    )
    assert "overlap" not in payload["message"]


def test_proof_arcs_names_the_radius_where_the_gap_is_lost(tmp_path, capsys):
    # y = t^2 + t^15: the twist flips t^15, below half an ulp of t^2 at s = 0.05
    doc = {
        "branches": [
            {
                "n": 2,
                "truncation": 17,
                "terms": [
                    {"exp": 2, "coeff": {"rational": "1"}},
                    {"exp": 15, "coeff": {"rational": "1"}},
                ],
            }
        ]
    }
    code, payload = run_json(capsys, ["proof-arcs", write(tmp_path, "g.json", doc)])
    assert code == 4
    assert payload["error_kind"] == "unsupported"
    assert payload["message"].startswith(
        "the gap at r = 0.00251189 underflows double precision: it is 0, below the floor"
    )
    assert "overlap" not in payload["message"]
