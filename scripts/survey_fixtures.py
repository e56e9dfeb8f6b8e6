#!/usr/bin/env python3
"""Survey the bundled arrangement fixtures in one table: lattice shape,
cycle rank of the multiple-point graph, certifier verdict and a hom-count."""

import argparse
import time

from arrgroup import (
    FIXTURES,
    builtin_group,
    cf_verdict,
    fixture_path,
    hom_count,
    multiple_point_graph,
    parse_arrangement,
    sweep,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--names", nargs="*", default=FIXTURES,
                    help="fixture names to survey")
    ap.add_argument("--group", default="S3",
                    help="finite group for the hom-count column")
    args = ap.parse_args(argv)

    table = builtin_group(args.group)
    header = (f"{'fixture':<20} {'n':>2} {'pts':>4} {'mult':>4} {'betti':>5} "
              f"{'verdict':<10} {'steps':>5} {'hom-' + args.group:>8} "
              f"{'secs':>6}")
    print(header)
    print("-" * len(header))
    for name in args.names:
        swept = sweep(parse_arrangement(fixture_path(name).read_text()))
        lat, pres = swept.lattice, swept.presentation
        graph = multiple_point_graph(lat)
        t0 = time.perf_counter()
        verdict = cf_verdict(lat, pres)
        secs = time.perf_counter() - t0
        steps = verdict.certificate.nsteps if verdict.certificate else 0
        homs = hom_count(pres, table).count
        print(f"{name:<20} {lat.n:>2} {len(lat.points):>4} {lat.p:>4} "
              f"{graph.betti:>5} {verdict.status:<10} {steps:>5} "
              f"{homs:>8} {secs:>6.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
