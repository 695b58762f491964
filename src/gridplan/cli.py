"""Command-line workflows for planning studies.

Subcommands mirror the library pipeline: ``validate`` checks a case file,
``build`` exports a model as MPS without solving, ``solve`` runs one
variant and ``compare`` runs all three.  ``solve`` and ``compare`` share
one run path and write one artifact set: ``report.txt``, ``summary.csv``,
``investment.csv``, ``switching.csv`` and a ``plan_<variant>.csv`` per
variant; savings are filled in against the static plan when static is
among the variants run, and read ``N/A`` when the static plan costs
nothing.  If any variant ends without a plan, the run
prints ``no plan for <missing> (<variant>: <status>, ...)`` and writes
nothing.  A case that fails validation prints each finding once, as
``validate`` does, and builds nothing.

Exit codes: 0 when every requested solve finished at proven optimality or
within the requested gap, 1 when a solve hit a limit or the case is
infeasible, 2 on bad input.  Reports are a pure function of the inputs
and the BLAS thread count (``OPENBLAS_NUM_THREADS`` or the like), since
threaded linear algebra sums in another order and can break a near-tie in
the search the other way; runs stopped by a limit are stamped as
nondeterministic in the header.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .branch_bound import (
    GAP_LIMIT,
    OPTIMAL,
    SolveOutcome,
    SolveParams,
    solve_milp,
)
from .builder import Plan, Variant, build_milp, decode_plan
from .case import Case, CaseError, load_case, validate_case
from .mps import write_mps
from .report import VARIANT_ORDER, compute_metrics, render_plan_csv, render_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridplan",
        description="Transmission expansion planning with seasonal switching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a case file and print findings")
    p.add_argument("case", help="path to a case JSON file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("build", help="export a model as MPS without solving")
    p.add_argument("case", help="path to a case JSON file")
    p.add_argument("--variant", type=Variant.from_token, required=True,
                   help="static, switch-existing, or switch-all")
    p.add_argument("--mps", default=None,
                   help="output path (default <out>/model_<variant>.mps)")
    p.add_argument("--out", default="gridplan-out", help="output directory")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("solve", help="solve one variant and write its plan")
    p.add_argument("case", help="path to a case JSON file")
    p.add_argument("--variant", type=Variant.from_token, required=True,
                   help="static, switch-existing, or switch-all")
    _solve_flags(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("compare", help="solve all three variants and report")
    p.add_argument("case", help="path to a case JSON file")
    _solve_flags(p)
    p.set_defaults(handler=_cmd_compare)
    return parser


def _solve_flags(p: argparse.ArgumentParser) -> None:
    defaults = SolveParams()
    p.add_argument("--gap", type=float, default=defaults.mip_gap,
                   help=f"relative optimality gap to prove (default {defaults.mip_gap:g})")
    p.add_argument("--timelim", type=float, default=defaults.time_limit,
                   help=f"wall-clock limit in seconds (default {defaults.time_limit:g})")
    p.add_argument("--out", default="gridplan-out", help="output directory")


def _load_checked(path: str) -> Case | None:
    """Load a case, or print its findings and return None if it is invalid."""
    case = load_case(path)
    report = validate_case(case)
    if report.ok:
        return case
    print(report, file=sys.stderr)
    return None


def _header(command: str, case: Case, params: SolveParams,
            outcomes: dict[Variant, SolveOutcome]) -> str:
    lines = [
        f"gridplan {command}",
        f"case: {case.name}",
        f"gap target: {params.mip_gap!r}",
        f"time limit: {params.time_limit!r} s",
    ]
    for variant, outcome in outcomes.items():
        lines.append(
            f"{variant.value}: {outcome.status}, "
            f"objective {outcome.objective!r}, gap {outcome.gap!r}, "
            f"{outcome.nodes} nodes"
        )
    if any(o.nondeterministic for o in outcomes.values()):
        lines.append("warning: a solve stopped at a limit; "
                     "the incumbent may differ between runs")
    return "\n".join(lines) + "\n\n"


def _write(directory: Path, name: str, content: str) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(content)
    print(f"wrote {directory / name}")


def _cmd_validate(args: argparse.Namespace) -> int:
    case = load_case(args.case)
    report = validate_case(case)
    print(report)
    return 0 if report.ok else 2


def _cmd_build(args: argparse.Namespace) -> int:
    case = _load_checked(args.case)
    if case is None:
        return 2
    model, _index = build_milp(case, args.variant)
    if args.mps is not None:
        path = Path(args.mps)
    else:
        path = Path(args.out) / f"model_{args.variant.value}.mps"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(write_mps(model))
    print(f"wrote {path}")
    return 0


def _run(args: argparse.Namespace, variants: tuple[Variant, ...]) -> int:
    """Solve ``variants`` and write their artifact set, or nothing if one has no plan."""
    case = _load_checked(args.case)
    if case is None:
        return 2
    params = SolveParams(mip_gap=args.gap, time_limit=args.timelim)
    outcomes: dict[Variant, SolveOutcome] = {}
    plans: dict[Variant, Plan] = {}
    for variant in variants:
        model, index = build_milp(case, variant)
        outcomes[variant] = outcome = solve_milp(model, params)
        if outcome.assignment is not None:
            plans[variant] = decode_plan(case, variant, index, outcome.assignment)
    missing = [v.value for v in variants if v not in plans]
    if missing:
        statuses = ", ".join(f"{v.value}: {o.status}" for v, o in outcomes.items())
        print(f"no plan for {', '.join(missing)} ({statuses})", file=sys.stderr)
        return 1
    metrics = {}
    if Variant.STATIC in plans:
        baseline = plans[Variant.STATIC].tc
        # no saving is defined against a baseline that costs nothing
        metrics = {v: compute_metrics(baseline, plan.tc) if baseline else None
                   for v, plan in plans.items() if v is not Variant.STATIC}
    text, csvs = render_report(
        plans, metrics,
        n_seasons=case.horizon.n_seasons, n_epochs=case.horizon.n_epochs,
    )
    out = Path(args.out)
    _write(out, "report.txt", _header(args.command, case, params, outcomes) + text)
    for name, content in csvs.items():
        _write(out, name, content)
    for variant, plan in plans.items():
        _write(out, f"plan_{variant.value}.csv", render_plan_csv(plan))
    ok = all(o.status in (OPTIMAL, GAP_LIMIT) for o in outcomes.values())
    return 0 if ok else 1


def _cmd_solve(args: argparse.Namespace) -> int:
    return _run(args, (args.variant,))


def _cmd_compare(args: argparse.Namespace) -> int:
    return _run(args, VARIANT_ORDER)


def run_cli(argv: list[str] | None = None) -> int:
    """Run one CLI invocation and return its exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (CaseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run_cli(sys.argv[1:]))
