"""The CLI's JSON reports on the demo germs stay byte for byte the same.

``tests/golden`` holds the stdout of ``invariants --json`` and
``contact --json`` for every file of ``demos/data`` and of
``classify --json`` for every ordered pair of them, as
``<command>/<stem>.json`` and ``classify/<stem a>__<stem b>.json``.  Each
of those runs exits 0.  A change that alters a report on purpose
rewrites its file with the same command, e.g.
``python -m curvegerm.cli classify --json demos/data/axis.json
demos/data/cusp_2_3.json > tests/golden/classify/axis__cusp_2_3.json``,
and says so in CHANGES.md.
"""

import itertools
import pathlib

import pytest

from curvegerm import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = sorted((ROOT / "demos" / "data").glob("*.json"))
GOLDEN = ROOT / "tests" / "golden"

CASES = [
    (f"{command}/{p.stem}.json", [command, str(p)])
    for p in DATA
    for command in ("invariants", "contact")
] + [
    (f"classify/{a.stem}__{b.stem}.json", ["classify", str(a), str(b)])
    for a, b in itertools.product(DATA, repeat=2)
]


def test_golden_files_cover_every_case():
    assert len(DATA) == 8 and len(CASES) == 80
    assert sorted(p.relative_to(GOLDEN).as_posix() for p in GOLDEN.rglob("*.json")) == sorted(
        name for name, _ in CASES
    )


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_json_matches_golden_output(name, argv, capsys):
    code = cli.main(argv + ["--json"])
    assert (code, capsys.readouterr().out) == (0, (GOLDEN / name).read_text())
