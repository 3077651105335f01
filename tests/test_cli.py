import json
from fractions import Fraction

import pytest

from curvegerm import cli

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


def test_check_prop1_command(tmp_path, capsys):
    a = write(tmp_path, "a.json", AXIS)
    b = write(tmp_path, "b.json", PARABOLA)
    code, payload = run_json(capsys, ["check-prop1", a, b, "--beta", "2"])
    assert code == 0
    assert payload["passed"] is True
    assert abs(payload["contact_image"]["slope"] - 1.5) < 0.1


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


def test_exit_code_4_on_out_of_range_grid(tmp_path, capsys):
    # an n=4 branch needs t-radii at most 0.5, i.e. x-radii at most 0.5^4
    a = write(tmp_path, "a.json", GENUS2)
    b = write(tmp_path, "b.json", AXIS)
    code, payload = run_json(capsys, ["estimate", a, b, "--grid", "1e-1,1e-4,16"])
    assert code == 4
    assert payload["error_kind"] == "unsupported"


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_exit_code_4_on_non_finite_beta(tmp_path, capsys, beta):
    a = write(tmp_path, "a.json", AXIS)
    b = write(tmp_path, "b.json", PARABOLA)
    code, payload = run_json(capsys, ["check-prop1", a, b, "--beta", beta])
    assert code == 4
    assert payload["error_kind"] == "unsupported"
    assert f"got {beta}" in payload["message"]


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


def test_exit_code_4_on_zero_angles(tmp_path, capsys):
    a = write(tmp_path, "a.json", AXIS)
    b = write(tmp_path, "b.json", PARABOLA)
    code, payload = run_json(capsys, ["estimate", a, b, "--angles", "0"])
    assert code == 4
    assert payload["error_kind"] == "unsupported"
    assert payload["message"] == "angles must be at least 1, got 0"


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
