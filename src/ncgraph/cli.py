"""Command-line interface.

Verbs: ``build`` a group into a .cay file, ``scan`` a catalog for
same-certificate pairs, ``audit`` two .cay files, ``goormaghtigh`` for the
bounded repunit search, ``chain`` for the descending centraliser chain.

Exit codes: 0 on success with no violations, 2 when a scan or audit finds a
violation, 1 for usage, IO, or validation errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .audits import centralizer_chain
from .catalog import CatalogConfig, audit_pair_files, scan_pairs
from .cayfile import export_group, import_group
from .cayley import is_ac_group
from .descriptors import construct
from .errors import Error
from .repunits import goormaghtigh_search


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; reserve 2 for violation
    findings and use 1 for usage problems instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ncgraph", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    p_build = sub.add_parser("build", help="construct a group and write a .cay file")
    p_build.add_argument("--family", required=True,
                         help="group descriptor, e.g. dihedral(6) or "
                              "product(dicyclic(2),cyclic(3))")
    p_build.add_argument("--out", required=True, help="output .cay path")

    p_scan = sub.add_parser("scan", help="enumerate a catalog and audit all "
                                         "same-certificate pairs")
    p_scan.add_argument("--config", help="JSON config path (defaults used if omitted)")
    p_scan.add_argument("--report", help="report path (stdout if omitted)")

    p_audit = sub.add_parser("audit", help="compare two .cay files")
    p_audit.add_argument("--a", required=True, help="first .cay path")
    p_audit.add_argument("--b", required=True, help="second .cay path")

    p_goor = sub.add_parser("goormaghtigh",
                            help="bounded search for repunits written in two bases")
    p_goor.add_argument("--max-base", required=True, type=int)
    p_goor.add_argument("--max-exp", required=True, type=int)
    p_goor.add_argument("--json", action="store_true", help="JSON output")

    p_chain = sub.add_parser("chain",
                             help="descending centraliser chain of a .cay group")
    p_chain.add_argument("--group", required=True, help=".cay path")
    return parser


def _cmd_build(args) -> int:
    g = construct(args.family)
    export_group(g, args.out)
    print(f"wrote {g.descriptor} (order {g.order}) to {args.out}")
    return 0


def _cmd_scan(args) -> int:
    if args.config:
        with open(args.config, "r", encoding="ascii") as fh:
            config = CatalogConfig.from_dict(json.load(fh))
    else:
        config = CatalogConfig()
    report = scan_pairs(config)
    if args.report:
        with open(args.report, "w", encoding="ascii") as fh:
            report.write(fh)
        print(f"wrote report ({report.violations} violations, "
              f"{len(report.classes)} classes) to {args.report}")
    else:
        report.write(sys.stdout)
    return 2 if report.violations else 0


def _cmd_audit(args) -> int:
    result = audit_pair_files(args.a, args.b)
    sys.stdout.write(json.dumps(result, indent=2) + "\n")
    return 2 if result.get("violation") else 0


def _cmd_goormaghtigh(args) -> int:
    solutions = goormaghtigh_search(args.max_base, args.max_exp)
    if args.json:
        rows = [{"x": s.x, "y": s.y, "m": s.m, "n": s.n, "value": s.value}
                for s in solutions]
        sys.stdout.write(json.dumps(rows, indent=2) + "\n")
    else:
        for s in solutions:
            print(f"{s.x} {s.y} {s.m} {s.n} {s.value}")
    return 0


def _cmd_chain(args) -> int:
    g = import_group(args.group)
    chain = centralizer_chain(g)
    out = {
        "descriptor": g.descriptor,
        "orders": list(chain.orders),
        "chosen_elements": list(chain.chosen),
        "steps": chain.steps,
        "terminal_is_ac": is_ac_group(chain.groups[-1]),
    }
    sys.stdout.write(json.dumps(out, indent=2) + "\n")
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "scan": _cmd_scan,
    "audit": _cmd_audit,
    "goormaghtigh": _cmd_goormaghtigh,
    "chain": _cmd_chain,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (Error, OSError, ValueError) as exc:   # json.JSONDecodeError is a ValueError
        print(f"ncgraph {args.verb}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
