#!/usr/bin/env python3
"""Hom-count panel: how many homomorphisms each fixture group admits into
the built-in finite groups.  Equal rows are necessary (not sufficient) for
isomorphic groups, so the panel doubles as a separation table."""

import argparse
import time

from arrgroup import (
    FIXTURES,
    Budget,
    builtin_group,
    fixture_path,
    hom_count,
    parse_arrangement,
    semidirect_fixture,
    sweep,
)


def sources(names):
    for name in names:
        if name.startswith("semidirect-"):
            yield name, semidirect_fixture(name.split("-", 1)[1])
            continue
        text = fixture_path(name).read_text()
        yield name, sweep(parse_arrangement(text)).presentation


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--names", nargs="*",
                    default=list(FIXTURES) + ["semidirect-ceva",
                                              "semidirect-triangle"])
    ap.add_argument("--groups", nargs="*", default=["S3", "A4", "D4"],
                    help="built-in groups; S4 and A5 work but cost more")
    ap.add_argument("--budget-nodes", type=int, default=Budget.hom_nodes)
    args = ap.parse_args(argv)

    tables = [(g, builtin_group(g)) for g in args.groups]
    width = max(len(n) for n in args.names)
    print(f"{'presentation':<{width}} " +
          " ".join(f"{g:>10}" for g in args.groups) + f" {'secs':>6}")
    for name, pres in sources(args.names):
        t0 = time.perf_counter()
        cells = []
        for _, table in tables:
            res = hom_count(pres, table, args.budget_nodes)
            cells.append(f"{res.count if res.count is not None else '>cap':>10}")
        secs = time.perf_counter() - t0
        print(f"{name:<{width}} " + " ".join(cells) + f" {secs:>6.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
