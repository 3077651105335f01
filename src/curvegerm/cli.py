"""Command-line interface.

Commands read germ files in the JSON format documented in
:mod:`curvegerm.puiseux` and print either human-readable text or, with
--json, a machine-readable report in which exact rationals are strings
like "4/5" and decimals appear only in explicitly numeric fields.

``classes FILE...`` partitions germ files into Holder classes: it reads
each germ's key once (:func:`curvegerm.holder.holder_key`) and groups
equal keys in one dict, with no pairwise ``classify``.  Classes, and the
files in each, come in order of first appearance on the command line::

    $ curvegerm classes demos/data/*.json
    classes:
      - [demos/data/axis.json, demos/data/parabola.json]
      - [demos/data/axis_and_cubic.json]
      ...
    $ curvegerm classes demos/data/axis.json demos/data/parabola.json --json
    {
      "classes": [
        [
          "demos/data/axis.json",
          "demos/data/parabola.json"
        ]
      ]
    }

Exit codes: 0 success, 1 standard output closed before the report was
written (the reader of a pipe quit early, as ``head`` does; nothing is
printed to stderr), 2 parse or validation error, 3 truncation
insufficient, 4 unsupported request, 5 internal error (a RuntimeError
from a broken invariant of the library, such as two contact trees
with equal keys that fail to match, or a ConsistencyError from a
result's own check, such as an asymmetric contact matrix; a bug to
report, not a fault of the input).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from curvegerm.contact import contact, contact_report
from curvegerm.holder import classify, holder_key
from curvegerm.invariants import characteristic_data
from curvegerm.metric import (
    DEFAULT_ANGLES,
    branch_gap_profile,
    check_contact_distortion,
    default_branch_grid,
    estimate_branch_contact,
    estimate_contact,
    gap_profile,
    geometric_grid,
    sample_branch_arc,
    witness_arcs,
)
from curvegerm.puiseux import (
    ConsistencyError,
    GermValidationError,
    TruncationExceeded,
    load_germ,
)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_VALIDATION = 2
EXIT_TRUNCATION = 3
EXIT_UNSUPPORTED = 4
EXIT_INTERNAL = 5


class UnsupportedRequest(Exception):
    """The request is outside what the tool supports."""


def _grid_spec(text: str) -> np.ndarray:
    try:
        r_max, r_min, count = text.split(",")
        return geometric_grid(float(r_max), float(r_min), int(count))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"bad grid spec {text!r} (expected r_max,r_min,count): {exc}"
        ) from None


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}: need a finite number >= 0")
    return value


def _single_branch(g, path):
    if len(g.branches) != 1:
        raise UnsupportedRequest(
            f"{path} has {len(g.branches)} branches; this command needs a "
            "single-branch germ per file"
        )
    return g.branches[0]


def _branch_invariants(b) -> dict:
    data = characteristic_data(b)
    return {
        "n": b.n,
        "beta": list(data.beta),
        "e": list(data.e),
        "pairs": [list(p) for p in data.pairs],
        "genus": data.genus,
    }


def _cmd_invariants(args) -> dict:
    g = load_germ(args.file)
    if len(g.branches) == 1:
        return _branch_invariants(g.branches[0])
    return {"branches": [_branch_invariants(b) for b in g.branches]}


def _cmd_contact(args) -> dict:
    return contact_report(load_germ(args.file)).to_dict()


def _cmd_classify(args) -> dict:
    return classify(load_germ(args.file_a), load_germ(args.file_b)).to_dict()


def _cmd_classes(args) -> dict:
    classes: dict = {}
    for path in args.files:
        classes.setdefault(holder_key(load_germ(path)), []).append(path)
    return {"classes": list(classes.values())}


def _write_csv(path, radii, gaps, header=("r", "gap")):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in zip(radii, *np.atleast_2d(gaps)):
            writer.writerow([f"{v:.17g}" for v in row])


def _cmd_estimate(args) -> dict:
    b1 = _single_branch(load_germ(args.file_a), args.file_a)
    b2 = _single_branch(load_germ(args.file_b), args.file_b)
    radii = args.grid if args.grid is not None else default_branch_grid(b1, b2)
    estimate = estimate_branch_contact(b1, b2, radii, angles=args.angles)
    if args.csv:
        _write_csv(args.csv, radii, branch_gap_profile(b1, b2, radii, args.angles))
    payload = estimate.to_dict()
    payload["angles"] = args.angles
    try:
        exact = contact(b1, b2)
        payload["exact"] = str(exact)
        payload["within_tolerance"] = bool(
            abs(estimate.slope - float(exact)) <= args.tolerance
        )
    except TruncationExceeded:
        payload["exact"] = None
        payload["within_tolerance"] = None
    payload["tolerance"] = args.tolerance
    return payload


def _cmd_check_prop1(args) -> dict:
    b1 = _single_branch(load_germ(args.file_a), args.file_a)
    b2 = _single_branch(load_germ(args.file_b), args.file_b)
    grid = args.grid
    if grid is None:
        r_max = default_branch_grid(b1, b2)[0]
        grid = geometric_grid(r_max, r_max / 100, 16)
    arc1 = sample_branch_arc(b1, 0, 0.0, np.asarray(grid) ** (1.0 / b1.n))
    arc2 = sample_branch_arc(b2, 0, 0.0, np.asarray(grid) ** (1.0 / b2.n))
    report = check_contact_distortion(arc1, arc2, args.beta, grid, tolerance=args.tolerance)
    return report.to_dict()


def _cmd_proof_arcs(args) -> dict:
    g = load_germ(args.file)
    if not 0 <= args.branch < len(g.branches):
        raise UnsupportedRequest(
            f"--branch {args.branch} out of range 0..{len(g.branches) - 1}"
        )
    b = g.branches[args.branch]
    radii = default_branch_grid(b)
    try:
        base, quarter, twisted, _ = witness_arcs(b, args.index, radii)
    except ValueError as exc:
        raise UnsupportedRequest(str(exc)) from None
    data = characteristic_data(b)
    twist_fit = estimate_contact(base, twisted, radii)
    turn_fit = estimate_contact(base, quarter, radii)
    if args.csv:
        _write_csv(
            args.csv,
            radii,
            np.vstack([gap_profile(base, twisted), gap_profile(base, quarter)]),
            header=("r", "gap_conjugate_twist", "gap_quarter_turn"),
        )
    return {
        "branch": args.branch,
        "index": args.index,
        "beta_j": data.beta[args.index],
        "expected_twist_exponent": f"{data.beta[args.index]}/{b.n}",
        "base_vs_conjugate_twist": twist_fit.to_dict(),
        "expected_turn_exponent": 1,
        "base_vs_quarter_turn": turn_fit.to_dict(),
    }


def _render_text(payload, indent=0) -> str:
    lines = []
    pad = "  " * indent
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_flat(value)}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                lines.append(f"{pad}-")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {_flat(value)}")
    else:
        lines.append(f"{pad}{_flat(payload)}")
    return "\n".join(lines)


def _is_flat(value) -> bool:
    if isinstance(value, list):
        return all(not isinstance(v, (dict, list)) for v in value)
    return False


def _flat(value):
    if isinstance(value, list):
        return "[" + ", ".join(str(_flat(v)) for v in value) + "]"
    if isinstance(value, float):
        return f"{value:.6g}"
    return value


def _emit(payload, as_json: bool):
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print(_render_text(payload))


def _emit_error(kind: str, message: str, as_json: bool, lower_bound=None):
    if as_json:
        payload = {"error_kind": kind, "message": message}
        if lower_bound is not None:
            payload["lower_bound"] = str(lower_bound)
        print(json.dumps(payload, indent=2))
    else:
        print(f"error ({kind}): {message}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    numeric = argparse.ArgumentParser(add_help=False)
    numeric.add_argument(
        "--tolerance",
        type=_tolerance,
        default=0.1,
        metavar="T",
        help="tolerance for numeric agreement checks (default 0.1)",
    )

    parser = argparse.ArgumentParser(
        prog="curvegerm",
        description="Exact metric invariants and Holder classification of plane curve germs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", parents=[common], help="characteristic data of a germ")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("contact", parents=[common], help="pairwise contact and intersection")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_contact)

    p = sub.add_parser("classify", parents=[common], help="Holder classification of two germs")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser(
        "classes", parents=[common], help="partition germ files into Holder classes"
    )
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(handler=_cmd_classes)

    p = sub.add_parser("estimate", parents=[common, numeric], help="numeric contact estimate")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--grid", type=_grid_spec, metavar="r_max,r_min,count")
    p.add_argument("--angles", type=int, default=DEFAULT_ANGLES, metavar="K")
    p.add_argument("--csv", metavar="PATH", help="write (r, gap) pairs to a CSV file")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser(
        "check-prop1",
        parents=[common, numeric],
        help="empirical contact-distortion bounds under a radial Holder map",
    )
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--beta", type=float, required=True, metavar="B")
    p.add_argument("--grid", type=_grid_spec, metavar="r_max,r_min,count")
    p.set_defaults(handler=_cmd_check_prop1)

    p = sub.add_parser(
        "proof-arcs",
        parents=[common],
        help="witness arcs for a characteristic exponent and their gap slopes",
    )
    p.add_argument("file")
    p.add_argument("--branch", type=int, default=0, metavar="I")
    p.add_argument("--index", type=int, default=1, metavar="J")
    p.add_argument("--csv", metavar="PATH", help="write (r, gap) pairs to a CSV file")
    p.set_defaults(handler=_cmd_proof_arcs)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _answer(args)
        # flush here, so that a closed pipe raises inside this try
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader quit early; point stdout at devnull so that Python's
        # own flush at exit does not raise again (see "Note on SIGPIPE" in
        # the documentation of the signal module)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


def _answer(args) -> int:
    """Run the command and print its report or its error; the exit code."""
    try:
        payload = args.handler(args)
    except (GermValidationError, OSError) as exc:
        # unreadable or invalid input; above ValueError, as a GermValidationError is one
        _emit_error("validation", str(exc), args.json)
        return EXIT_VALIDATION
    except TruncationExceeded as exc:
        _emit_error("truncation", str(exc), args.json, lower_bound=exc.lower_bound)
        return EXIT_TRUNCATION
    except UnsupportedRequest as exc:
        _emit_error("unsupported", str(exc), args.json)
        return EXIT_UNSUPPORTED
    except (ConsistencyError, RuntimeError) as exc:
        _emit_error("internal", str(exc), args.json)
        return EXIT_INTERNAL
    except ValueError as exc:
        # out-of-range grids, indices, and similar request problems
        _emit_error("unsupported", str(exc), args.json)
        return EXIT_UNSUPPORTED
    _emit(payload, args.json)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
