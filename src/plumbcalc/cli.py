"""Command-line surface over the graph, divisor, plumbing and invariant
modules.

One interchange format everywhere: graphs are read and written as the
JSON produced by WeightedGraph.to_json_dict (DOT is write-only).  Every
subcommand handler returns its answer as a JSON-ready payload and as text
lines; main alone writes stdout, the payload through canonical_json under
--json, so --json output is byte-stable for identical inputs.

Exit codes: 0 success, 1 domain error (a violated precondition, message
verbatim), 2 usage error, 3 out-of-scope graph.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .divisor import (
    bark,
    elementary_flow,
    replay,
    snc_minimalize,
    standardize,
)
from .family import (
    CHART_CASES,
    FamilyParams,
    build_boundary_graph,
    build_by_blowups,
    picard_check,
    surface_homology,
    verify_chart,
    verify_volume_form,
)
from .graphs import (
    DomainError,
    OutOfScopeError,
    WeightedGraph,
    canonical_json,
    graphs_isomorphic,
)
from .invariants import (
    FiniteGroupTable,
    abelianization,
    alexander_polynomial,
    count_homs,
    group_catalog,
    kirby_handle_data,
    pi1_presentation,
    two_bridge_fraction,
)
from .plumbing import (
    NormalForm,
    from_divisor_graph,
    h1_from_graph,
    jsj_cut,
    normalize,
    reverse_orientation,
)


class UsageError(Exception):
    """Bad flag combination, unreadable input file or unwritable log file."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise DomainError(f"{path} is not valid JSON: {e}") from e
    except RecursionError as e:
        raise DomainError(f"{path} is not valid JSON: nested too deeply") from e
    except UnicodeDecodeError as e:
        raise DomainError(f"{path} is not UTF-8 text: {e}") from e


def _load_graph(path: str) -> WeightedGraph:
    return WeightedGraph.from_json_dict(_load_json(path))


def _coeffs_help(flag: str) -> str:
    # argparse reads "--p1 -1/2,1" as a missing value followed by an option
    return (f"ascending monic coefficients, e.g. 0,1; attach a list that "
            f"starts with a negative one: {flag}=-1/2,1")


def _parse_coeffs(text: str, flag: str) -> tuple:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise UsageError(f"{flag}: empty coefficient in {text!r}")
        try:
            out.append(Fraction(part))
        except (ValueError, ZeroDivisionError) as e:
            raise UsageError(f"{flag}: bad coefficient {part!r}: {e}") from e
    return tuple(out)


def _graph_lines(g: WeightedGraph) -> list:
    lines = [f"kind {g.kind}: {len(g.vertices)} vertices, {len(g.edges)} edges"]
    for vid in g.sorted_ids():
        v = g.vertices[vid]
        bits = [f"weight {v.weight:+d}"]
        if v.genus:
            bits.append(f"genus {v.genus}")
        if v.boundary:
            bits.append(f"boundary {v.boundary}")
        if v.label:
            bits.append(f"label {v.label}")
        lines.append(f"  {vid}: " + ", ".join(bits))
    for e in g.edges:
        mark = "+" if e.sign > 0 else "-"
        tail = "  (loop)" if e.is_loop else ""
        lines.append(f"  edge {e.u} {mark} {e.v}{tail}")
    return lines


def _seifert_line(sd) -> str:
    fibers = ", ".join(str(f) for f in sd.exceptional)
    return (
        f"Seifert(genus {sd.base_genus}, boundary {sd.boundary_count};"
        f" fibers {fibers or 'none'}; central {sd.central_weight})"
    )


def _normal_form_lines(nf: NormalForm) -> list:
    lines = [f"certificate: {nf.certificate}  ({len(nf.log)} moves)"]
    if nf.seifert is not None:
        lines.append(_seifert_line(nf.seifert))
    return lines + _graph_lines(nf.graph)


def _write_log(path: str | None, log: list) -> None:
    if path is None:
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(list(log)) + "\n")
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e.strerror or e}") from e


# -- subcommand handlers: each returns (payload, lines) ------------------------


def cmd_construct(args) -> tuple:
    if (args.p1 or args.p2) and not args.by_blowups:
        raise UsageError("--p1/--p2 require --by-blowups")
    if args.by_blowups:
        p1 = _parse_coeffs(args.p1, "--p1") if args.p1 else None
        p2 = _parse_coeffs(args.p2, "--p2") if args.p2 else None
        params = FamilyParams.default(args.d1, args.d2)
        if p1 or p2:
            params = FamilyParams(p1 or params.p1, p2 or params.p2)
        if params.d1 != args.d1 or params.d2 != args.d2:
            raise UsageError(
                f"coefficient lists give degrees ({params.d1}, {params.d2}),"
                f" flags say ({args.d1}, {args.d2})"
            )
        fam, log = build_by_blowups(params)
        note = [f"built by {len(log)} recorded moves"]
    else:
        fam = build_boundary_graph(args.d1, args.d2)
        note = []
    g = fam.d_part() if args.d_part else fam.graph
    return g.to_json_dict(), _graph_lines(g) + note


def cmd_standardize(args) -> tuple:
    g, log = standardize(_load_graph(args.file))
    _write_log(args.log_out, log)
    return g.to_json_dict(), _graph_lines(g) + [f"moves applied: {len(log)}"]


def cmd_minimalize(args) -> tuple:
    g, log = snc_minimalize(_load_graph(args.file))
    _write_log(args.log_out, log)
    return g.to_json_dict(), _graph_lines(g) + [f"moves applied: {len(log)}"]


def cmd_flow(args) -> tuple:
    log: list = []
    g = elementary_flow(_load_graph(args.file), args.vertex, args.toward, log)
    _write_log(args.log_out, log)
    return g.to_json_dict(), _graph_lines(g)


def cmd_bark(args) -> tuple:
    twig = [t.strip() for t in args.twig.split(",") if t.strip()]
    coeffs = bark(_load_graph(args.file), twig)
    payload = {vid: str(c) for vid, c in coeffs.items()}
    lines = [f"  {vid}: {coeffs[vid]}" for vid in twig]
    return payload, ["bark coefficients (tip first):"] + lines


def cmd_normalize(args) -> tuple:
    nf = normalize(_load_graph(args.file))
    return nf.to_json_dict(), _normal_form_lines(nf)


def cmd_reverse(args) -> tuple:
    nf = reverse_orientation(normalize(_load_graph(args.file)))
    return nf.to_json_dict(), _normal_form_lines(nf)


def cmd_compare(args) -> tuple:
    iso, mapping = graphs_isomorphic(_load_graph(args.a), _load_graph(args.b))
    payload = {"isomorphic": iso, "mapping": mapping}
    if iso:
        lines = ["isomorphic"] + [
            f"  {u} -> {mapping[u]}" for u in sorted(mapping)
        ]
    else:
        lines = ["not isomorphic"]
    return payload, lines


def cmd_jsj(args) -> tuple:
    pieces = jsj_cut(_load_graph(args.file))
    payload = [sd.to_json_dict() for sd in pieces]
    lines = [f"{len(pieces)} piece(s):"] + [
        "  " + _seifert_line(sd) for sd in pieces
    ]
    return payload, lines


def cmd_h1(args) -> tuple:
    g = _load_graph(args.file)
    if g.kind == "divisor":
        g = from_divisor_graph(g)
    ab = h1_from_graph(g)
    payload = {**ab.to_json_dict(), "display": str(ab)}
    return payload, [f"H1 = {ab}"]


def cmd_pi1(args) -> tuple:
    p = pi1_presentation(args.d1, args.d2)
    ab = abelianization(p)
    payload = {
        "generators": list(p.generators),
        "relators": [list(r) for r in p.relators],
        "abelianization": ab.to_json_dict(),
    }
    lines = [
        "generators: " + ", ".join(p.generators),
        "relators (signed generator indices):",
    ]
    lines += [f"  {list(r)}" for r in p.relators]
    lines.append(f"abelianization: {ab}")
    groups = {}
    if args.quotients is not None:
        if args.quotients < 1:
            raise UsageError(f"--quotients must be at least 1, got {args.quotients}")
        for name, G in group_catalog().items():
            if G.order <= args.quotients:
                groups[name] = G
    if args.group:
        table = FiniteGroupTable.from_json_dict(_load_json(args.group))
        name = table.name or "custom"
        if name in groups:
            raise UsageError(
                f"--group table {name!r} has the name of a catalog group that "
                f"--quotients {args.quotients} selects; rename the table"
            )
        groups[name] = table
    if groups:
        counts = {name: count_homs(p, G) for name, G in sorted(groups.items())}
        payload["quotients"] = counts
        lines.append("homomorphism counts:")
        lines += [f"  {name}: {counts[name]}" for name in sorted(counts)]
    return payload, lines


def cmd_alexander(args) -> tuple:
    poly = alexander_polynomial(args.d1, args.d2)
    p, q = two_bridge_fraction(args.d1, args.d2)
    payload = {
        "coefficients": {str(e): c for e, c in sorted(poly.coeffs.items())},
        "display": str(poly),
        "determinant": abs(int(poly.evaluate(-1))),
        "two_bridge": [p, q],
    }
    lines = [
        f"Alexander polynomial: {poly}",
        f"determinant |Delta(-1)|: {payload['determinant']}",
        f"two-bridge fraction: {p}/{q}",
    ]
    return payload, lines


def cmd_homology(args) -> tuple:
    h = kirby_handle_data(args.d1, args.d2)
    hom = surface_homology(args.d1, args.d2)
    payload = {
        "counts": list(h.counts),
        "framings": [[name, f] for name, f in h.framings],
        "chi": hom["chi"],
        **{k: str(hom[k]) for k in ("H0", "H1", "H2")},
    }
    lines = [
        f"handles (0,1,2,3): {h.counts}",
        "framings: " + ", ".join(f"{n}={f}" for n, f in h.framings),
        f"chi: {hom['chi']}",
        f"H0 = {hom['H0']}, H1 = {hom['H1']}, H2 = {hom['H2']}",
    ]
    return payload, lines


def cmd_picard(args) -> tuple:
    report = picard_check(args.d1, args.d2)
    return report, [f"{k}: {v}" for k, v in report.items()]


def cmd_verify_chart(args) -> tuple:
    params = FamilyParams(
        _parse_coeffs(args.p1, "--p1"), _parse_coeffs(args.p2, "--p2")
    )
    chart = verify_chart(args.case, params)
    volume = verify_volume_form(args.case, params)
    payload = {"chart": chart.to_json_dict(), "volume": volume.to_json_dict()}
    lines = [
        f"case {args.case}: residuals_zero={chart.residuals_zero}"
        f" inverse_ok={chart.inverse_ok}",
        f"volume form extends: {volume.extends} (sign {volume.sign:+d})"
        if volume.extends
        else "volume form extends: False",
    ]
    return payload, lines


def cmd_dot(args) -> tuple:
    return None, [_load_graph(args.file).to_dot()]


def cmd_replay(args) -> tuple:
    g = _load_graph(args.file)
    log = _load_json(args.log)
    if not isinstance(log, list):
        raise DomainError(f"{args.log}: replay log must be a JSON list")
    g = replay(g, log)
    return g.to_json_dict(), _graph_lines(g)


# -- parser --------------------------------------------------------------------


def _add_d_flags(sp) -> None:
    sp.add_argument("--d1", type=int, required=True, help="first degree")
    sp.add_argument("--d2", type=int, required=True, help="second degree")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first `main` call:
    building it takes a few milliseconds, most of a short in-process
    run, and parsing leaves it unchanged.  Not built at import, which
    code that never parses also pays for."""
    parser = argparse.ArgumentParser(
        prog="plumbcalc",
        description="Dual-graph and plumbing calculus for the affine"
        " surface family; exact arithmetic throughout.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit canonical JSON"
    )
    logf = argparse.ArgumentParser(add_help=False)
    logf.add_argument(
        "--log-out", metavar="FILE", help="write the recorded move log as JSON"
    )

    sp = sub.add_parser(
        "construct", parents=[common], help="emit a family boundary graph"
    )
    _add_d_flags(sp)
    sp.add_argument(
        "--by-blowups",
        action="store_true",
        help="build by the recorded blowup sequence instead of directly",
    )
    sp.add_argument("--p1", help=_coeffs_help("--p1"))
    sp.add_argument("--p2", help=_coeffs_help("--p2"))
    sp.add_argument(
        "--d-part",
        action="store_true",
        help="emit only the boundary divisor part (no fiber tails)",
    )
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser(
        "standardize",
        parents=[common, logf],
        help="rewrite a divisor graph into standard form",
    )
    sp.add_argument("file")
    sp.set_defaults(func=cmd_standardize)

    sp = sub.add_parser(
        "minimalize",
        parents=[common, logf],
        help="contract superfluous -1 vertices",
    )
    sp.add_argument("file")
    sp.set_defaults(func=cmd_minimalize)

    sp = sub.add_parser(
        "flow", parents=[common, logf], help="elementary transformation"
    )
    sp.add_argument("file")
    sp.add_argument("--vertex", required=True, help="the 0-weight vertex")
    sp.add_argument(
        "--toward", required=True, help="neighbor whose type entry decreases"
    )
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser(
        "bark", parents=[common], help="exact twig coefficients"
    )
    sp.add_argument("file")
    sp.add_argument(
        "--twig", required=True, help="comma-separated vertex ids, tip first"
    )
    sp.set_defaults(func=cmd_bark)

    sp = sub.add_parser(
        "normalize", parents=[common], help="reduce a plumbing graph to normal form"
    )
    sp.add_argument("file")
    sp.set_defaults(func=cmd_normalize)

    sp = sub.add_parser(
        "reverse",
        parents=[common],
        help="normal form of the orientation-reversed manifold",
    )
    sp.add_argument("file")
    sp.set_defaults(func=cmd_reverse)

    sp = sub.add_parser(
        "compare", parents=[common], help="isomorphism verdict with witness"
    )
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser(
        "jsj", parents=[common], help="cut along tori into Seifert pieces"
    )
    sp.add_argument("file")
    sp.set_defaults(func=cmd_jsj)

    sp = sub.add_parser(
        "h1", parents=[common], help="first homology of the plumbed manifold"
    )
    sp.add_argument("file")
    sp.set_defaults(func=cmd_h1)

    sp = sub.add_parser(
        "pi1",
        parents=[common],
        help="fundamental group presentation and finite quotient counts",
    )
    _add_d_flags(sp)
    sp.add_argument(
        "--quotients",
        type=int,
        metavar="ORDER",
        help="count homomorphisms into every catalog group up to this order",
    )
    sp.add_argument(
        "--group",
        metavar="FILE",
        help="also count into a group given as a JSON multiplication table",
    )
    sp.set_defaults(func=cmd_pi1)

    sp = sub.add_parser(
        "alexander",
        parents=[common],
        help="Alexander polynomial and 2-bridge fraction of the link knot",
    )
    _add_d_flags(sp)
    sp.set_defaults(func=cmd_alexander)

    sp = sub.add_parser(
        "homology",
        parents=[common],
        help="handle counts and chain-complex homology of the surface",
    )
    _add_d_flags(sp)
    sp.set_defaults(func=cmd_homology)

    sp = sub.add_parser(
        "picard", parents=[common], help="intersection-form unimodularity check"
    )
    _add_d_flags(sp)
    sp.set_defaults(func=cmd_picard)

    sp = sub.add_parser(
        "verify-chart",
        parents=[common],
        help="residuals and volume-form sign for one coordinate chart",
    )
    sp.add_argument("--case", required=True, choices=list(CHART_CASES))
    sp.add_argument("--p1", required=True, help=_coeffs_help("--p1"))
    sp.add_argument("--p2", required=True, help=_coeffs_help("--p2"))
    sp.set_defaults(func=cmd_verify_chart)

    sp = sub.add_parser("dot", help="Graphviz DOT rendering (write-only)")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_dot, json=False)

    sp = sub.add_parser(
        "replay", parents=[common], help="re-apply a recorded move log"
    )
    sp.add_argument("file")
    sp.add_argument("log")
    sp.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, lines = args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OutOfScopeError as e:
        print(f"out of scope: {e}", file=sys.stderr)
        return 3
    print(canonical_json(payload) if args.json else "\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
