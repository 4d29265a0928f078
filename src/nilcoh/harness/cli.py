"""Command-line interface.

Subcommands: h1, complements, decompose, verify, suite, catalog.  Reports go
to stdout; json output is deterministic line-oriented JSON with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..actions import semidirect
from ..cohomology import GENERATOR_ENUM_BUDGET, decomposition_map, h1
from ..errors import NilcohError, ParseError, ValidationError
from ..structure import DEFAULT_ENUM_BUDGET, complement_classes, complements
from .catalog import CATALOG, EQ3_EXTRA, catalog_by_id
from .scenario import KNOWN_VERIFIERS, load_scenario
from .suite import (
    default_suite,
    report_emit,
    run_checks,
    exit_code,
    scenario_checks,
    verify_on_action,
)


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        _emit_human(payload)


def _emit_human(payload, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(payload, dict):
        for k in payload:
            v = payload[k]
            if isinstance(v, (dict, list)) and v:
                print(f"{pad}{k}:")
                _emit_human(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            _emit_human(v, indent)
    else:
        print(f"{pad}{payload}")


def _resolve_action(args) -> tuple[str, object]:
    if args.scenario:
        scenario = load_scenario(args.scenario)
        name = args.instance
        if name is None:
            if len(scenario.actions) != 1:
                raise ValidationError(
                    "cli", "scenario has several actions; pick one with --instance")
            name = next(iter(scenario.actions))
        if name not in scenario.actions:
            raise ValidationError("cli", f"scenario has no action named {name!r}")
        return f"{scenario.id}/{name}", scenario.actions[name]
    if args.instance is None:
        raise ValidationError("cli", "--instance (or --scenario) is required")
    instances = catalog_by_id()
    if args.instance not in instances:
        raise ValidationError("cli", f"unknown catalog instance {args.instance!r}")
    return args.instance, instances[args.instance].action()


def cmd_catalog(args) -> int:
    rows = []
    for inst in CATALOG + EQ3_EXTRA:
        action = inst.action()
        rows.append({
            "id": inst.id,
            "description": inst.description,
            "j_order": action.actor.order,
            "n_order": action.target.order,
            "tags": sorted(inst.tags),
        })
    if args.format == "json":
        for row in rows:
            print(json.dumps(row, sort_keys=True, separators=(",", ":")))
    else:
        for row in rows:
            tags = ",".join(row["tags"])
            print(f"{row['id']:<18} |J|={row['j_order']:<3} |N|={row['n_order']:<3} "
                  f"[{tags}] {row['description']}")
    return 0


def _budget(args, default: int) -> int:
    """The --budget flag, or the default cap of the enumeration it bounds."""
    return default if args.budget is None else args.budget


def cmd_h1(args) -> int:
    instance, action = _resolve_action(args)
    H = h1(action, budget=_budget(args, GENERATOR_ENUM_BUDGET))
    payload = {
        "instance": instance,
        "cocycles": H.cocycle_count(),
        "classes": H.size,
        "distinguished": H.distinguished,
        "representatives": list(map(list, H._rep_tables())),
    }
    _emit(payload, args.format)
    return 0


def cmd_complements(args) -> int:
    instance, action = _resolve_action(args)
    P = semidirect(action)
    n_sub = P.n_part()
    comps = complements(P.group, n_sub, budget=_budget(args, DEFAULT_ENUM_BUDGET))
    classes = complement_classes(P.group, n_sub)
    payload = {
        "instance": instance,
        "group_order": P.group.order,
        "complements": [list(K.elements) for K in comps],
        "n_conjugacy_classes": len(classes),
        "h1_classes": h1(action, budget=_budget(args, GENERATOR_ENUM_BUDGET)).size,
    }
    _emit(payload, args.format)
    return 0


def cmd_decompose(args) -> int:
    instance, action = _resolve_action(args)
    report = decomposition_map(action, budget=_budget(args, GENERATOR_ENUM_BUDGET))
    payload = {"instance": instance}
    payload.update(report.to_json())
    _emit(payload, args.format)
    return 0 if report.bijective else 1


def _parse_h_spec(raw: str | None):
    if raw is None:
        return "embedded_j"
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"--h: {exc.msg}", line=exc.lineno, column=exc.colno) from exc


def cmd_verify(args) -> int:
    instance, action = _resolve_action(args)
    relaxed = args.relaxed_hypotheses
    h = _parse_h_spec(args.h) if args.theorem in ("prop5", "thm4") else "embedded_j"
    report = verify_on_action(args.theorem, action, instance, relaxed, h)
    _emit(report.to_json(), args.format)
    if report.falsification:
        return 2
    return 0 if report.passed or (relaxed and not report.hypotheses_met) else 1


def cmd_suite(args) -> int:
    if args.scenario:
        scenario = load_scenario(args.scenario)
        checks = scenario_checks(scenario, relaxed=args.relaxed_hypotheses)
    else:
        checks = default_suite(relaxed=args.relaxed_hypotheses)
    if args.instance:
        checks = [c for c in checks if args.instance in c.instance]
        if not checks:
            raise ValidationError("cli", f"no checks match instance {args.instance!r}")
    outcomes = run_checks(checks)
    sys.stdout.write(report_emit(outcomes, args.format))
    return exit_code(outcomes)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 3, the input-error code;
    `--help` still exits 0.  Subcommand parsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nilcoh",
        description="First cohomology of finite nilpotent group actions, "
                    "complement conjugacy, and fixed-point verifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", help="path to a scenario (.scn) file")
        p.add_argument("--instance", help="catalog instance id (or scenario action)")
        p.add_argument("--format", choices=("json", "human"), default="human")

    def budgeted(p: argparse.ArgumentParser) -> None:
        common(p)
        p.add_argument("--budget", type=int,
                       help=f"cap on enumeration work: |N|^d for H1 (default "
                            f"{GENERATOR_ENUM_BUDGET}) and closures tried for "
                            f"complements (default {DEFAULT_ENUM_BUDGET})")

    def relaxable(p: argparse.ArgumentParser) -> None:
        common(p)
        p.add_argument("--relaxed-hypotheses", action="store_true",
                       help="run conclusions as observations when hypotheses fail")

    p_catalog = sub.add_parser("catalog", help="list built-in instances")
    p_catalog.add_argument("--format", choices=("json", "human"), default="human")
    p_catalog.set_defaults(fn=cmd_catalog)

    p_h1 = sub.add_parser("h1", help="cocycles and cohomology classes of an action")
    budgeted(p_h1)
    p_h1.set_defaults(fn=cmd_h1)

    p_comp = sub.add_parser("complements",
                            help="complements of N in the semidirect product")
    budgeted(p_comp)
    p_comp.set_defaults(fn=cmd_complements)

    p_dec = sub.add_parser("decompose", help="Sylow-wise decomposition report")
    budgeted(p_dec)
    p_dec.set_defaults(fn=cmd_decompose)

    p_ver = sub.add_parser("verify", help="run one verifier on one instance")
    p_ver.add_argument("theorem", choices=KNOWN_VERIFIERS)
    relaxable(p_ver)
    p_ver.add_argument("--h", help="subgroup spec (JSON) for prop5/thm4")
    p_ver.set_defaults(fn=cmd_verify)

    p_suite = sub.add_parser("suite", help="run the default or a scenario suite")
    relaxable(p_suite)
    p_suite.set_defaults(fn=cmd_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except NilcohError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
