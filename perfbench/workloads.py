"""Workload generators, jobs and answer checks.

Every generator takes the seed and returns a list of ``Job`` objects; the
library sees only the inputs the generator built.  A job's ``run`` is the
timed part.  Its ``check`` runs afterwards, untimed and untraced, and
returns the facts the answer missed.  Those facts come from the
mathematics, not from this implementation: H_1 = Z two ways, a unimodular
Picard lattice, an idempotent normal form, reversal detected, |Hom(pi_1,
Z/n)| = n, and the Alexander polynomial's symmetry and determinant.
``output`` gives the canonical-JSON text of the answer for the digest.

The seed changes names, chart coefficients and job order, never the size
mix: the sizes are fixed per workload so that every seed measures the
same amount of work (see README.md).
"""

from __future__ import annotations

import io
import json
import random
import string
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

LADDER = (2, 8, 32, 48)          # rungs (d, d+1)
SWEEP_MAX = 12                   # every d1 <= d2 <= SWEEP_MAX
SEARCH_PAIRS = ((2, 3), (3, 4), (4, 5))
SEARCH_FLOWS = (("L1_inf", "L2_inf"), ("L1_inf", "L2_0"),
                ("L2_inf", "L1_inf"), ("L2_inf", "L1_0"))
SEARCH_STEPS = (1, 2, 3)         # 4 steps already cost 0.6-16 s per job
CLI_SUBCOMMANDS = ("construct", "standardize", "normalize", "reverse", "h1",
                   "jsj", "pi1", "alexander", "picard", "homology")
# one pair per band per subcommand; the top band is the pair {19, 20} in a
# seeded order, so the slowest runs (reverse and pi1 there) are the same
# for every seed
CLI_BANDS = ((1, 7), (8, 14), (19, 20))
CHART_SIGNS = {"aa": 1, "al1": -1, "al2": -1, "lc1": 1, "lc2": -1}


def load_library() -> SimpleNamespace:
    from plumbcalc import cli, divisor, family, graphs, invariants, plumbing

    return SimpleNamespace(graphs=graphs, divisor=divisor, family=family,
                           plumbing=plumbing, invariants=invariants, cli=cli)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@dataclass
class Job:
    name: str
    run: object                 # () -> result
    check: object               # result -> list of missed facts
    output: object              # result -> canonical JSON text
    key: tuple = field(default=())


# -- the pair pipeline ---------------------------------------------------------


def _monic(rng, d):
    pre = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d - 1)]
    return tuple(pre) + (Fraction(1),)


def _chart(rng, d1, d2):
    cases = ["aa"]
    if d2 == 1:
        cases.append("al1")
    if d1 == 1:
        cases.append("al2")
    if d1 == d2 == 1:
        cases += ["lc1", "lc2"]
    case = rng.choice(cases)
    return case, _monic(rng, d1), _monic(rng, d2)


def pair_pipeline(M, catalog, d1, d2, chart):
    fam_mod, inv, pl = M.family, M.invariants, M.plumbing
    fam = fam_mod.build_boundary_graph(d1, d2)
    by, build_log = fam_mod.build_by_blowups(fam_mod.FamilyParams.default(d1, d2))
    picard = fam_mod.picard_check(d1, d2)
    d_part = fam.d_part()
    negdef = M.graphs.is_negative_definite(d_part)
    standard = M.divisor.is_standard(d_part)
    std, std_log = M.divisor.standardize(fam.graph)
    plumbed = pl.from_divisor_graph(d_part)
    nf = pl.normalize(plumbed)
    h1 = pl.h1_from_graph(plumbed)
    rev = pl.reverse_orientation(nf)
    pieces = pl.jsj_cut(nf)
    pres = inv.pi1_presentation(d1, d2)
    ab = inv.abelianization(pres)
    homs = {name: inv.count_homs(pres, G) for name, G in catalog}
    alex = inv.alexander_polynomial(d1, d2)
    bridge = inv.two_bridge_fraction(d1, d2)
    homology = inv.chain_complex_homology(inv.kirby_handle_data(d1, d2))
    case, p1, p2 = chart
    params = fam_mod.FamilyParams(p1, p2)
    chart_rep = fam_mod.verify_chart(case, params)
    volume = fam_mod.verify_volume_form(case, params)
    return SimpleNamespace(**locals())


def pair_output(r) -> str:
    return canonical({
        "pair": [r.d1, r.d2],
        "graph": r.fam.graph.to_json_dict(),
        "build_log": r.build_log,
        "picard": r.picard,
        "negative_definite": r.negdef,
        "standard": r.standard.to_json_dict(),
        "standardized": r.std.to_json_dict(),
        "standardize_log": r.std_log,
        "normal_form": r.nf.to_json_dict(),
        "h1": r.h1.to_json_dict(),
        "reversed": r.rev.to_json_dict(),
        "jsj": [p.to_json_dict() for p in r.pieces],
        "relators": [list(w) for w in r.pres.relators],
        "abelianization": r.ab.to_json_dict(),
        "homs": r.homs,
        "alexander": {str(e): c for e, c in sorted(r.alex.coeffs.items())},
        "two_bridge": list(r.bridge),
        "homology": [str(x) for x in r.homology],
        "chart": r.chart_rep.to_json_dict(),
        "volume": r.volume.to_json_dict(),
    })


def _alexander_misses(coeffs: dict, d1, d2) -> list:
    """coeffs maps exponent -> coefficient."""
    miss = []
    if sum(coeffs.values()) != 1:
        miss.append("Delta(1) != 1")
    if any(coeffs.get(-e) != c for e, c in coeffs.items()):
        miss.append("Delta not palindromic")
    at_minus_one = sum(c * (-1) ** (e % 2) for e, c in coeffs.items())
    if abs(at_minus_one) != 4 * d1 * d2 - 1:
        miss.append("|Delta(-1)| != 4*d1*d2 - 1")
    return miss


def _jsj_misses(pieces: list, d1, d2) -> list:
    """pieces: (exceptional fibers, boundary count) per Seifert piece."""
    if (d1, d2) == (1, 1):
        want = [((Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)), 0)]
    else:
        want = [((Fraction(1, d),), 2) for d in (d1, d2) if d >= 2]
    got = [(tuple(sorted(f)), b) for f, b in pieces]
    return [] if sorted(got) == sorted(want) else ["JSJ pieces wrong"]


def pair_check(M, r) -> list:
    d1, d2 = r.d1, r.d2
    Z = M.graphs.AbelianGroup(1, ())
    miss = []
    if r.by.graph != r.fam.graph or len(r.build_log) != d1 + d2:
        miss.append("blowup construction differs from direct construction")
    if len(r.d_part.vertices) != d1 + d2 + 2:
        miss.append("boundary has the wrong number of curves")
    if not (r.picard["unimodular"] and abs(r.picard["det"]) == 1
            and r.picard["relations_verified"]):
        miss.append("Picard lattice not unimodular")
    if r.negdef:
        miss.append("boundary form negative definite")
    if r.standard.standard != (min(d1, d2) >= 2 or d1 == d2 == 1):
        miss.append("standardness of the boundary wrong")
    if not (M.divisor.is_standard(r.std).standard
            and M.divisor.replay(r.fam.graph, r.std_log) == r.std):
        miss.append("standardize output not standard or not replayable")
    if r.h1 != Z or r.ab != Z:
        miss.append("H_1 != Z")
    again = M.plumbing.normalize(r.nf.graph)
    if again.graph != r.nf.graph or again.log:
        miss.append("normalize not idempotent")
    if (d1, d2) != (1, 1) and M.graphs.graphs_isomorphic(r.nf.graph, r.rev.graph)[0]:
        miss.append("reversed form isomorphic to the original")
    if any(r.homs[f"C{n}"] != n for n in range(1, 13)):
        miss.append("|Hom(pi_1, Z/n)| != n")
    miss += _alexander_misses(r.alex.coeffs, d1, d2)
    if r.bridge[0] != 4 * d1 * d2 - 1:
        miss.append("two-bridge numerator != 4*d1*d2 - 1")
    if r.homology != (Z, M.graphs.AbelianGroup(0, ()), Z):
        miss.append("surface homology != (Z, 0, Z)")
    miss += _jsj_misses([(p.exceptional, p.boundary_count) for p in r.pieces], d1, d2)
    case = r.chart[0]
    if not (r.chart_rep.residuals_zero and r.chart_rep.inverse_ok
            and r.volume.extends and r.volume.sign == CHART_SIGNS[case]):
        miss.append(f"chart {case} check failed")
    return miss


def _pair_job(M, catalog, d1, d2, chart, forms=None) -> Job:
    def run():
        r = pair_pipeline(M, catalog, d1, d2, chart)
        if forms is not None:
            forms[(d1, d2)] = r.nf.graph
        return r

    return Job(f"pair({d1},{d2})", run, lambda r: pair_check(M, r), pair_output,
               key=(d1, d2))


def ladder(M, catalog, seed, workdir) -> list:
    rng = random.Random(seed)
    jobs = [_pair_job(M, catalog, d, d + 1, _chart(rng, d, d + 1)) for d in LADDER]
    rng.shuffle(jobs)
    return jobs


def sweep(M, catalog, seed, workdir) -> list:
    rng = random.Random(seed)
    forms = {}
    jobs = [
        _pair_job(M, catalog, d1, d2, _chart(rng, d1, d2), forms)
        for d1 in range(1, SWEEP_MAX + 1)
        for d2 in range(d1, SWEEP_MAX + 1)
    ]
    rng.shuffle(jobs)

    def distinct():
        iso = M.graphs.graphs_isomorphic
        keys = sorted(forms)
        return [
            [list(a), list(b)]
            for i, a in enumerate(keys)
            for b in keys[i + 1:]
            if iso(forms[a], forms[b])[0]
        ]

    jobs.append(Job(
        "pairwise-isomorphism",
        distinct,
        lambda found: [f"normal forms isomorphic: {found}"] if found else [],
        lambda found: canonical(found),
    ))
    return jobs


# -- standardization search ------------------------------------------------------


def _renamer(rng, ids):
    """Seeded names that sort in the same order as ``ids``, so the search
    visits its moves in the same order whatever the seed."""
    names = set()
    while len(names) < len(ids):
        names.add("".join(rng.choice(string.ascii_lowercase) for _ in range(4)))
    return dict(zip(sorted(ids), sorted(names)))


def _search_input(M, rng, d1, d2, zero, toward, steps):
    g = M.family.build_boundary_graph(d1, d2).d_part()
    for _ in range(steps):
        g = M.divisor.elementary_flow(g, zero, toward)
    names = _renamer(rng, list(g.vertices))
    G = M.graphs
    return G.WeightedGraph(
        "divisor",
        [G.Vertex(names[v.id], v.weight, v.genus, v.boundary) for v in g.vertices.values()],
        [G.Edge(names[e.u], names[e.v], e.sign) for e in g.edges],
    )


def search(M, catalog, seed, workdir) -> list:
    rng = random.Random(seed)
    jobs = []
    for d1, d2 in SEARCH_PAIRS:
        for zero, toward in SEARCH_FLOWS:
            for steps in SEARCH_STEPS:
                g = _search_input(M, rng, d1, d2, zero, toward, steps)
                if M.divisor.is_standard(g).standard:
                    raise AssertionError("search input is already standard")
                jobs.append(Job(
                    f"standardize({d1},{d2},{zero}->{toward},{steps})",
                    lambda g=g: (g, *M.divisor.standardize(g)),
                    lambda r: _search_check(M, r),
                    lambda r: canonical({"graph": r[1].to_json_dict(), "log": r[2]}),
                    key=(d1, d2, steps),
                ))
    rng.shuffle(jobs)
    return jobs


def _search_check(M, r) -> list:
    g, out, log = r
    miss = []
    if not M.divisor.is_standard(out).standard:
        miss.append("output not standard")
    if M.divisor.replay(g, log) != out:
        miss.append("replay does not reproduce the output")
    return miss


# -- command line ------------------------------------------------------------------


def run_cli_inprocess(M, argv) -> tuple:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = M.cli.main(argv)
    return code, buf.getvalue()


def run_process(cmd, cwd) -> subprocess.CompletedProcess:
    """Run to completion; a child that hangs is killed and reaped.  The
    environment (PYTHONPATH, bytecode cache) is inherited from run.py."""
    return subprocess.run(cmd, cwd=cwd, capture_output=True, timeout=120)


def _cli_argv(sub, d1, d2, idx):
    if sub in ("pi1", "alexander", "picard", "homology"):
        argv = [sub, "--d1", str(d1), "--d2", str(d2)]
        if sub == "pi1":
            argv += ["--quotients", "12"]
    elif sub == "construct":
        argv = [sub, "--d1", str(d1), "--d2", str(d2)]
    elif sub == "standardize":
        argv = [sub, f"full_{d1}_{d2}.json", "--log-out", f"log_{idx}.json"]
    else:
        argv = [sub, f"part_{d1}_{d2}.json"]
    return argv + ["--json"]


def cli(M, catalog, seed, workdir) -> list:
    """Whole ``python -m plumbcalc.cli`` runs; graph files come from the
    ``construct`` subcommand, run in-process during set-up."""
    rng = random.Random(seed)
    specs = []
    for sub in CLI_SUBCOMMANDS:
        for lo, hi in CLI_BANDS:
            # d1 != d2: a pair (d, d) has a symmetric boundary whose exact
            # canonical ordering costs 2^(d+1) orders up to d = 13, which
            # would make one job in seven cost 5x more; sweep covers it
            d1, d2 = rng.sample(range(lo, hi + 1), 2)
            specs.append((sub, d1, d2))
    rng.shuffle(specs)
    workdir.mkdir(parents=True, exist_ok=True)
    for _, d1, d2 in specs:
        for prefix, extra in (("full", []), ("part", ["--d-part"])):
            code, text = run_cli_inprocess(
                M, ["construct", "--d1", str(d1), "--d2", str(d2), "--json"] + extra)
            if code != 0:
                raise AssertionError(f"construct failed for ({d1},{d2})")
            (workdir / f"{prefix}_{d1}_{d2}.json").write_text(text, encoding="utf-8")
    jobs = []
    for idx, (sub, d1, d2) in enumerate(specs):
        argv = _cli_argv(sub, d1, d2, idx)
        cmd = [sys.executable, "-m", "plumbcalc.cli", *argv]

        def run(cmd=cmd):
            proc = run_process(cmd, workdir)
            return proc.returncode, proc.stdout.decode()

        def check(r, sub=sub, d1=d1, d2=d2, idx=idx):
            return cli_check(M, workdir, sub, d1, d2, idx, *r)

        jobs.append(Job(f"cli {' '.join(argv)}", run, check, lambda r: r[1],
                        key=(sub, argv)))
    return jobs


def inprocess(M, job, workdir) -> Job:
    """The same command line run through ``cli.main`` in this process; file
    arguments become absolute because this process runs elsewhere."""
    argv = [str(workdir / a) if a.endswith(".json") else a for a in job.key[1]]
    return Job(job.name, lambda: run_cli_inprocess(M, argv), job.check,
               job.output, job.key)


def cli_check(M, workdir, sub, d1, d2, idx, code, text) -> list:
    if code != 0:
        return [f"exit code {code}"]
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return ["stdout is not JSON"]
    G, P = M.graphs, M.plumbing
    Z = {"rank": 1, "torsion": []}
    load = G.WeightedGraph.from_json_dict
    part = lambda: load(json.loads((workdir / f"part_{d1}_{d2}.json").read_text()))
    miss = []
    if sub == "construct":
        if len(data["vertices"]) != d1 + d2 + 4:
            miss.append("construct: wrong number of curves")
    elif sub == "standardize":
        full = load(json.loads((workdir / f"full_{d1}_{d2}.json").read_text()))
        out = load(data)
        log = json.loads((workdir / f"log_{idx}.json").read_text())
        if not M.divisor.is_standard(out).standard or M.divisor.replay(full, log) != out:
            miss.append("standardize: output not standard or not replayable")
    elif sub == "normalize":
        g = load(data["graph"])
        again = P.normalize(g)
        if again.graph != g or again.log:
            miss.append("normalize: not idempotent")
        if P.h1_from_graph(g).to_json_dict() != Z:
            miss.append("normalize: H_1 != Z")
    elif sub == "reverse":
        g = load(data["graph"])
        if (d1, d2) != (1, 1) and G.graphs_isomorphic(g, P.normalize(part()).graph)[0]:
            miss.append("reverse: isomorphic to the original")
        if P.h1_from_graph(g).to_json_dict() != Z:
            miss.append("reverse: H_1 != Z")
    elif sub == "h1":
        if {"rank": data["rank"], "torsion": data["torsion"]} != Z:
            miss.append("h1: H_1 != Z")
    elif sub == "jsj":
        pieces = [
            (tuple(Fraction(f) for f in p["exceptional"]), p["boundary_count"])
            for p in data
        ]
        miss += _jsj_misses(pieces, d1, d2)
    elif sub == "pi1":
        if data["abelianization"] != Z:
            miss.append("pi1: abelianization != Z")
        if any(data["quotients"][f"C{n}"] != n for n in range(1, 13)):
            miss.append("pi1: |Hom(pi_1, Z/n)| != n")
    elif sub == "alexander":
        coeffs = {int(e): c for e, c in data["coefficients"].items()}
        miss += _alexander_misses(coeffs, d1, d2)
        if data["determinant"] != 4 * d1 * d2 - 1 or data["two_bridge"][0] != 4 * d1 * d2 - 1:
            miss.append("alexander: determinant != 4*d1*d2 - 1")
    elif sub == "picard":
        if not (data["unimodular"] and abs(data["det"]) == 1 and data["relations_verified"]):
            miss.append("picard: not unimodular")
    elif sub == "homology":
        if (data["chi"], data["H0"], data["H1"], data["H2"]) != (2, "Z", "0", "Z"):
            miss.append("homology: not (Z, 0, Z) with chi 2")
    return miss


WORKLOADS = {"ladder": ladder, "sweep": sweep, "search": search, "cli": cli}
