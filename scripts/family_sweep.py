"""Sweep the surface family and tabulate everything we can compute exactly.

For each degree pair d1 <= d2 up to a bound (default 6) this prints one
row with the graph sizes, the Picard determinant, standardness of the
boundary part, the normal-form certificate, H_1 of the boundary manifold,
the Alexander polynomial of the link at infinity, and its two-bridge
fraction.

Usage: python3 scripts/family_sweep.py [--max-degree N]
"""

import argparse

from plumbcalc.divisor import is_standard
from plumbcalc.family import build_boundary_graph, picard_check
from plumbcalc.invariants import alexander_polynomial, two_bridge_fraction
from plumbcalc.plumbing import h1_from_graph, normalize


def sweep_row(d1, d2):
    fam = build_boundary_graph(d1, d2)
    d_part = fam.d_part()
    pic = picard_check(d1, d2)
    nf = normalize(d_part)
    h1 = h1_from_graph(nf)
    alex = alexander_polynomial(d1, d2)
    p, q = two_bridge_fraction(d1, d2)
    return {
        "pair": f"({d1},{d2})",
        "full": f"{len(fam.graph.vertices)}v/{len(fam.graph.edges)}e",
        "boundary": f"{len(d_part.vertices)}v/{len(d_part.edges)}e",
        "det": str(pic["det"]),
        "standard": "yes" if is_standard(d_part).standard else "no",
        "certificate": f"{nf.certificate}[{len(nf.log)}]",
        "h1": str(h1),
        "alexander": str(alex),
        "two_bridge": f"{p}/{q}",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-degree", type=int, default=6)
    args = ap.parse_args()
    if args.max_degree < 1:
        ap.error("--max-degree must be >= 1")

    rows = [
        sweep_row(d1, d2)
        for d1 in range(1, args.max_degree + 1)
        for d2 in range(d1, args.max_degree + 1)
    ]
    cols = list(rows[0])
    widths = {c: max(len(c), *(len(r[c]) for r in rows)) for c in cols}
    header = "  ".join(c.ljust(widths[c]) for c in cols)
    print(header)
    print("-" * len(header))
    for r in rows:
        print("  ".join(r[c].ljust(widths[c]) for c in cols))
    print(f"\n{len(rows)} degree pairs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
