"""Command-line front end for the arrangement pipeline.

Every subcommand reads flat text files (or stdin with ``--input -``) and
writes deterministic output.  Exit codes: 0 on success, 2 when a bounded
search ends honestly without an answer (Unknown verdict, aborted count),
1 on errors, usage errors among them.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal

from arrgroup.geometry import (FIXTURES, compute_lattice, fixture_path,
                               multiple_point_graph, parse_arrangement,
                               records)
from arrgroup.grouptheory import (fan_structure, oka_sakamoto_split,
                                  semidirect_fixture)
from arrgroup.invariants import (BUILTIN_GROUPS, builtin_group, hom_count,
                                 parse_group_table)
from arrgroup.prover import (Budget, ProverError, cf_verdict,
                             format_certificate, format_verdict,
                             parse_certificate, prove_equivalent, replay)
from arrgroup.vankampen import (candidate_cf, format_presentation,
                                format_presentation_json, parse_presentation,
                                parse_presentation_json, presentation,
                                projectivize, relabel_presentation, sweep)
from arrgroup.wiring import format_pairs, parse_pairs, wiring_svg

_PRESENTATION_FIXTURES = ("semidirect-ceva", "semidirect-triangle")


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _effective_first_line(text: str) -> str:
    return next((body for _, body in records(text)), "")


def _load_pairs(path: str):
    """A pairs file, or an arrangement swept into one."""
    text = _read(path)
    if _effective_first_line(text).startswith("ell="):
        return parse_pairs(text)
    return sweep(parse_arrangement(text)).pairs


def _load_presentation(path: str):
    text = _read(path)
    if _effective_first_line(text).startswith("{"):
        return parse_presentation_json(text)
    return parse_presentation(text)


def _load_group(name_or_path: str):
    if name_or_path.upper() in BUILTIN_GROUPS:
        return builtin_group(name_or_path)
    return parse_group_table(_read(name_or_path))


def _parse_ordering(args, modes):
    """--ordering's value: one of the subcommand's modes, or a permutation
    of the lines as a tuple.  The error names only the modes given."""
    value = args.ordering
    if value in modes:
        return value
    try:
        return tuple(int(t) for t in value.replace(",", " ").split())
    except ValueError:
        raise ProverError(
            f"{args.command} --ordering expects "
            f"{', '.join(map(repr, modes))} or a permutation, got {value!r}")


def _budget(args) -> Budget:
    return Budget(max_word_len=args.max_word_len, max_steps=args.max_steps,
                  bfs_nodes=args.budget_nodes)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_lattice(args) -> int:
    lat = compute_lattice(parse_arrangement(_read(args.input)))
    out = [f"n={lat.n} points={len(lat.points)} multiple={lat.p}"]
    for pt in lat.points:
        out.append(f"x={pt.x} y={pt.y} lines "
                   + " ".join(str(i) for i in pt.incident)
                   + f" multiplicity {pt.multiplicity}")
    _write(args.output, "\n".join(out) + "\n")
    return 0


def _cmd_graph(args) -> int:
    lat = compute_lattice(parse_arrangement(_read(args.input)))
    g = multiple_point_graph(lat)
    out = [f"vertices={len(g.vertices)} edges={len(g.edges)} "
           f"betti={g.betti}"]
    for v in g.vertices:
        pt = lat.points[v]
        out.append(f"vertex {v} x={pt.x} y={pt.y} lines "
                   + " ".join(str(i) for i in pt.incident))
    for u, v, line in g.edges:
        out.append(f"edge {u} {v} line {line}")
    _write(args.output, "\n".join(out) + "\n")
    return 0


def _cmd_pairs(args) -> int:
    swept = sweep(parse_arrangement(_read(args.input)))
    text = format_pairs(swept.pairs)
    if swept.lines != tuple(range(1, len(swept.lines) + 1)):
        text = ("# input line of each wire: "
                + " ".join(map(str, swept.lines)) + "\n" + text)
    if not swept.transform.is_identity:
        text = f"# sheared by x -> x + {swept.transform.t}*y\n" + text
    _write(args.output, text)
    return 0


def _cmd_svg(args) -> int:
    _write(args.output, wiring_svg(_load_pairs(args.input)))
    return 0


def _cmd_present(args) -> int:
    pres = presentation(_load_pairs(args.input))
    if args.projective:
        pres = projectivize(pres)
    text = (format_presentation_json(pres) if args.json
            else format_presentation(pres))
    _write(args.output, text)
    return 0


def _cmd_candidate(args) -> int:
    # the sweep's lattice, in the point order and wire numbering verdict's
    # certificates use; with an ordering, the certificate target
    lat = sweep(parse_arrangement(_read(args.input))).lattice
    ordering = _parse_ordering(args, ("identity",))
    if ordering == "identity":
        pres = candidate_cf(lat)
    else:
        pres = relabel_presentation(candidate_cf(lat, ordering), ordering)
    text = (format_presentation_json(pres) if args.json
            else format_presentation(pres))
    _write(args.output, text)
    return 0


def _cmd_prove(args) -> int:
    source = _load_presentation(args.input)
    target = _load_presentation(args.target)
    result = prove_equivalent(source, target, _budget(args))
    if result.status != "certified":
        sys.stderr.write(f"unknown: {result.reason}\n")
        return 2
    cert_text = format_certificate(result.certificate)
    if args.output:
        _write(args.output, cert_text)
        print(f"certified: {result.certificate.nsteps} steps "
              f"-> {args.output}")
    else:
        sys.stdout.write(cert_text)
    return 0


def _cmd_replay(args) -> int:
    cert = parse_certificate(_read(args.input))
    source = _load_presentation(args.source)
    target = _load_presentation(args.target)
    replay(source, target, cert)
    print(f"certificate ok: {cert.nsteps} steps")
    return 0


def _cmd_verdict(args) -> int:
    swept = sweep(parse_arrangement(_read(args.input)))
    orderings = _parse_ordering(args, ("identity", "all"))
    verdict = cf_verdict(swept.lattice, swept.presentation, orderings,
                         _budget(args))
    _write(args.output, format_verdict(verdict))
    if verdict.status != "Certified":
        return 2
    cert_text = format_certificate(verdict.certificate)
    if args.certificate:
        _write(args.certificate, cert_text)
    elif args.output and args.output != "-":
        _write(args.output + ".cert", cert_text)
    else:
        sys.stdout.write(cert_text)
    return 0


def _cmd_homcount(args) -> int:
    pres = _load_presentation(args.input)
    res = hom_count(pres, _load_group(args.group), args.budget_nodes)
    if res.outcome != "exact":
        print(f"aborted after {res.nodes} nodes (raise --budget-nodes)")
        return 2
    # Decimal prints integers of any length; str() refuses past 4,300 digits
    print(f"count={Decimal(res.count)} nodes={res.nodes}")
    return 0


def _cmd_fan(args) -> int:
    lat = compute_lattice(parse_arrangement(_read(args.input)))
    g = multiple_point_graph(lat)
    mults = [pt.multiplicity for pt in lat.points if pt.multiplicity >= 3]
    desc = fan_structure(lat.n, mults, g.betti)
    out = [f"n={lat.n} multiple points={len(mults)} betti={g.betti}",
           f"projective group: {desc}"]
    _write(args.output, "\n".join(out) + "\n")
    return 0


def _cmd_split(args) -> int:
    arr = parse_arrangement(_read(args.input))
    parts = oka_sakamoto_split(arr)
    out = [f"parts={len(parts)}"]
    for i, part in enumerate(parts, 1):
        out.append(f"part {i}: " + " ".join(str(j) for j in part))
    if len(parts) == 1:
        out.append("single part: no transversal splitting applies")
    _write(args.output, "\n".join(out) + "\n")
    return 0


def _cmd_fixture(args) -> int:
    if not args.name:
        for name in FIXTURES:
            print(f"{name} (arrangement)")
        for name in _PRESENTATION_FIXTURES:
            print(f"{name} (presentation)")
        return 0
    if args.name in _PRESENTATION_FIXTURES:
        variant = args.name.split("-", 1)[1]
        _write(args.output, format_presentation(semidirect_fixture(variant)))
        return 0
    _write(args.output, fixture_path(args.name).read_text(encoding="utf-8"))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_io(sub, output=True):
    sub.add_argument("--input", "-i", required=True,
                     help="input file, or - for stdin")
    if output:
        sub.add_argument("--output", "-o", default=None,
                         help="output file (default stdout)")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like any bad input; argparse's own code 2 is
    the code of an honest Unknown here.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """A budget flag's value: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be non-negative, got {value}")
    return value


def _add_budget(sub):
    sub.add_argument("--max-steps", type=_count, default=Budget.max_steps,
                     help="cap on accepted derivation steps")
    sub.add_argument("--max-word-len", type=_count,
                     default=Budget.max_word_len,
                     help="cap on intermediate word length")
    sub.add_argument("--budget-nodes", type=_count, default=Budget.bfs_nodes,
                     help="cap on search nodes of each stalled relation's "
                          "rescue search")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="arrgroup",
        description="Fundamental groups of real line arrangement "
                    "complements: presentations, certificates, verdicts.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("lattice",
                        help="intersection points of an arrangement")
    _add_io(s)
    s.set_defaults(func=_cmd_lattice)

    s = subs.add_parser("graph", help="multiple-point graph and its betti "
                                      "number")
    _add_io(s)
    s.set_defaults(func=_cmd_graph)

    s = subs.add_parser("pairs", help="sweep an arrangement into its "
                                      "Lefschetz pair list")
    _add_io(s)
    s.set_defaults(func=_cmd_pairs)

    s = subs.add_parser("svg", help="render a wiring diagram (input: "
                                    "arrangement or pairs file)")
    _add_io(s)
    s.set_defaults(func=_cmd_svg)

    s = subs.add_parser("present", help="fundamental-group presentation "
                                        "(input: arrangement or pairs file)")
    _add_io(s)
    s.add_argument("--projective", action="store_true",
                   help="eliminate the last generator via the far-side "
                        "relation")
    s.add_argument("--json", action="store_true",
                   help="emit the JSON rendering instead of text")
    s.set_defaults(func=_cmd_present)

    s = subs.add_parser("candidate", help="lattice-determined "
                                          "conjugation-free candidate")
    _add_io(s)
    s.add_argument("--ordering", default="identity",
                   help="'identity', or one line permutation, e.g. '2 1 3'")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_candidate)

    s = subs.add_parser("prove", help="search for an equivalence "
                                      "certificate between two "
                                      "presentations")
    _add_io(s)
    s.add_argument("--target", "-t", required=True,
                   help="target presentation file")
    _add_budget(s)
    s.set_defaults(func=_cmd_prove)

    s = subs.add_parser("verdict", help="certify an arrangement against "
                                        "its conjugation-free candidate")
    _add_io(s)
    s.add_argument("--ordering", default="identity",
                   help="'identity', 'all', or one permutation")
    s.add_argument("--certificate", default=None,
                   help="where to write the certificate when certified")
    _add_budget(s)
    s.set_defaults(func=_cmd_verdict)

    s = subs.add_parser("replay", help="validate a certificate against "
                                       "source and target presentations")
    _add_io(s, output=False)
    s.add_argument("--source", "-s", required=True)
    s.add_argument("--target", "-t", required=True)
    s.set_defaults(func=_cmd_replay)

    s = subs.add_parser("homcount", help="count homomorphisms into a "
                                         "finite group")
    _add_io(s, output=False)
    s.add_argument("--group", "-g", default="S3",
                   help="|".join(BUILTIN_GROUPS) + " or a group-table file")
    s.add_argument("--budget-nodes", type=_count, default=Budget.hom_nodes,
                   help="cap on nodes of the unreduced search tree")
    s.set_defaults(func=_cmd_homcount)

    s = subs.add_parser("fan", help="direct-sum structure of the "
                                    "projective group (acyclic graphs "
                                    "only)")
    _add_io(s)
    s.set_defaults(func=_cmd_fan)

    s = subs.add_parser("split", help="transversal direct-sum splitting "
                                      "of the lines")
    _add_io(s)
    s.set_defaults(func=_cmd_split)

    s = subs.add_parser("fixture", help="print a shipped fixture (no "
                                        "--name lists them)")
    s.add_argument("--name", "-n", default=None)
    s.add_argument("--output", "-o", default=None)
    s.set_defaults(func=_cmd_fixture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
