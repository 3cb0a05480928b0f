"""Command-line interface.

Verbs:
  verify           run one verification suite and report pass/fail
  classify         solve for all range-compatible maps on a space
  check-map        decide range-compatibility/locality/linearity of one map
  build-space      emit a named space as JSON
  counterexamples  run both optimality witness suites
  lemmas           run the supporting-lemma suites over one field

Exit codes: 0 everything verified / computed, 1 a suite was falsified,
2 bad usage, bad parameters, or a cap was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BadParams, RCKitError
from .field import parse_field_label
from .opspace import KIND_SYM, build_space, space_from_json, space_to_json
from .rcmaps import (
    is_linear,
    is_local,
    is_range_compatible,
    is_standard,
    linear_rc_space,
    local_space,
    map_from_json,
    rc_solution_space,
    standard_space,
)
from .verify import SUITE_IDS, run_suite


def _dump_json(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_report(report) -> None:
    verdict = "verified" if report.verified else "FALSIFIED"
    print(
        f"{report.spec.suite}: {verdict} - {report.cases_run} cases, "
        f"{report.passes} passed, {len(report.failures)} failed "
        f"({report.wall_time:.2f}s)"
    )
    for failure in report.failures[:5]:
        print(f"  failure: {failure['reason']}")
    if len(report.failures) > 5:
        print(f"  ... and {len(report.failures) - 5} more")


def _parse_field(label: str | None):
    return parse_field_label(label) if label else None


def _load_space(args):
    if getattr(args, "space_file", None):
        with open(args.space_file) as fh:
            return space_from_json(json.load(fh))
    if getattr(args, "builder", None):
        if not args.field:
            raise RCKitError("--builder needs --field")
        return build_space(args.builder, parse_field_label(args.field))
    raise RCKitError("provide --space-file or --builder with --field")


def _cmd_verify(args) -> int:
    report = run_suite(
        args.suite,
        field=_parse_field(args.field),
        n=args.n,
        m=args.m,
        codim=args.codim,
        r=args.r,
        trials=args.trials,
        samples=args.samples,
        seed=args.seed,
        cap=args.cap,
        jobs=args.jobs,
    )
    _print_report(report)
    if args.out:
        _dump_json(report.to_json(), args.out)
    return 0 if report.verified else 1


def _cmd_classify(args) -> int:
    space = _load_space(args)
    rc = rc_solution_space(space, cap=args.cap)
    loc = local_space(space)
    lin = linear_rc_space(rc)
    std = standard_space(space) if space.ambient.kind == KIND_SYM else None
    amb = space.ambient
    print(f"space: {amb.kind} {amb.n}x{amb.ncols} over {amb.field.label}, "
          f"dim {space.dim} (codim {space.codim})")
    print(f"solution space of range-compatible maps: dim {rc.dim} over "
          f"the prime field")
    print(f"local maps: dim {loc.dim}")
    if std is not None:
        print(f"standard maps: dim {std.dim}")
    print(f"linear range-compatible maps: dim {lin.dim}")
    exotic = rc.dim - loc.dim
    print(f"exotic (non-local) dimension: {exotic}")
    all_local = rc.basis == loc.basis
    print(f"every solution local: {'yes' if all_local else 'no'}")
    all_std = None if std is None else all(std.basis.member(v) for v in rc.basis.vectors)
    if std is not None:
        print(f"every solution standard: {'yes' if all_std else 'no'}")
    if args.out:
        _dump_json(
            {
                "space": space_to_json(space),
                "rcDim": rc.dim,
                "localDim": loc.dim,
                "standardDim": None if std is None else std.dim,
                "linearRcDim": lin.dim,
                "exoticDim": exotic,
                "rcBasis": [list(v) for v in rc.basis.vectors],
                "allLocal": all_local,
                "allStandard": all_std,
            },
            args.out,
        )
    return 0


def _cmd_check_map(args) -> int:
    with open(args.map_file) as fh:
        obj = json.load(fh)
    space = None
    if args.space_file:
        with open(args.space_file) as fh:
            space = space_from_json(json.load(fh))
    f_map = map_from_json(obj, space=space)
    rc = is_range_compatible(f_map, cap=args.cap)
    witness = is_local(f_map)
    linear = is_linear(f_map)
    standard = (
        is_standard(f_map) if f_map.domain.ambient.kind == KIND_SYM else None
    )
    print(f"range-compatible: {'yes' if rc else 'no'}")
    if witness is not None:
        print(f"local: yes, witness x = {list(witness)}")
    else:
        print("local: no")
    print(f"linear: {'yes' if linear else 'no'}")
    if standard is not None:
        print(f"standard: {'yes' if standard else 'no'}")
    if args.out:
        _dump_json(
            {
                "rangeCompatible": rc,
                "local": witness is not None,
                "x": None if witness is None else list(witness),
                "linear": linear,
                "standard": standard,
            },
            args.out,
        )
    return 0


def _cmd_build_space(args) -> int:
    space = build_space(args.builder, parse_field_label(args.field))
    _dump_json(space_to_json(space), args.out)
    if args.out:
        print(f"wrote {args.builder} over {args.field} "
              f"(dim {space.dim}, codim {space.codim}) to {args.out}")
    return 0


def _report_all(reports, out: str | None) -> int:
    """Print each report, write their list to out, and give the exit code."""
    for report in reports:
        _print_report(report)
    if out:
        _dump_json([r.to_json() for r in reports], out)
    return 0 if all(r.verified for r in reports) else 1


def _cmd_counterexamples(args) -> int:
    reports = [
        run_suite(suite, cap=args.cap, jobs=args.jobs)
        for suite in ("sym-optimality", "alt-optimality")
    ]
    return _report_all(reports, args.out)


def _cmd_lemmas(args) -> int:
    field = parse_field_label(args.field or "2")
    trials = args.trials if args.trials is not None else 100
    reports = [
        run_suite(
            suite,
            field=field,
            r=args.r,
            trials=trials,
            samples=args.samples,
            seed=args.seed,
            cap=args.cap,
            jobs=args.jobs,
        )
        for suite in (
            "rank1-gaps",
            "good-functionals",
            "dim3-alt",
            "mf-lemma",
            "quotient-lemma",
            "splitting-lemma",
        )
    ]
    return _report_all(reports, args.out)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cap", type=int, default=None,
                     help="element/enumeration cap (default: 2^20)")
    sub.add_argument("--jobs", type=int, default=1, help="worker processes")
    sub.add_argument("--seed", type=int, default=0, help="seed for sampled cases")
    sub.add_argument("--out", help="write a JSON report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rckit",
        description="decide and verify range-compatibility of additive maps "
        "on spaces of symmetric and alternating matrices over small fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run one verification suite")
    pv.add_argument("--suite", required=True, choices=SUITE_IDS)
    pv.add_argument("--field", help="field label, e.g. 2, 3, 2^2")
    pv.add_argument("--n", type=int, help="matrix size")
    pv.add_argument("--m", type=int, help="tail columns")
    pv.add_argument("--codim", type=int, help="enumerate subspaces up to this codimension")
    pv.add_argument("--r", type=int, help="tail width for the trace-constrained family")
    pv.add_argument("--trials", type=int, help="randomized trial count")
    pv.add_argument("--samples", type=int, help="sampled coefficient tensors")
    _add_common(pv)
    pv.set_defaults(handler=_cmd_verify)

    pc = sub.add_parser("classify", help="solve for all range-compatible maps")
    pc.add_argument("--space-file", help="space JSON produced by build-space")
    pc.add_argument("--builder", help="space designator, e.g. t3, sym-block:3, mf:r=1,f=011")
    pc.add_argument("--field", help="field label for --builder")
    _add_common(pc)
    pc.set_defaults(handler=_cmd_classify)

    pm = sub.add_parser("check-map", help="decide properties of one additive map")
    pm.add_argument("--map-file", required=True, help="map JSON")
    pm.add_argument("--space-file", help="optional domain JSON to check against")
    _add_common(pm)
    pm.set_defaults(handler=_cmd_check_map)

    pb = sub.add_parser("build-space", help="emit a named space as JSON")
    pb.add_argument("--builder", required=True)
    pb.add_argument("--field", required=True)
    _add_common(pb)
    pb.set_defaults(handler=_cmd_build_space)

    px = sub.add_parser("counterexamples", help="verify the optimality witnesses")
    _add_common(px)
    px.set_defaults(handler=_cmd_counterexamples)

    pl = sub.add_parser("lemmas", help="run the supporting-lemma suites")
    pl.add_argument("--field", help="field label (default 2)")
    pl.add_argument("--r", type=int, help="tail width for the trace-constrained family")
    pl.add_argument("--trials", type=int, help="randomized trial count (default 100)")
    pl.add_argument("--samples", type=int, help="sampled coefficient tensors")
    _add_common(pl)
    pl.set_defaults(handler=_cmd_lemmas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.jobs < 1:
            raise BadParams(f"--jobs must be at least 1, got {args.jobs}")
        return args.handler(args)
    except (RCKitError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: bad input ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
