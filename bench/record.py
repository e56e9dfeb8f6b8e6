"""Rewrite bench/answers.json, the recorded outputs the checks compare with.

    python3 bench/record.py

Run it from the root of a checkout, and only when a change is meant to alter
these outputs.  The values come from the program itself, so they catch an
unintended change of output; the closed forms and the scalar counter in
``workloads.py`` are the independent oracles.

Recorded: the presentation digest of every sweep item type (every seed and
round gives it the same presentation), the hom-count of each fixture-group pair the homcount and
refute workloads use, and the shape of ceva's ``--ordering all`` verdict.
"""

from __future__ import annotations

import json
import os

import run


def main():
    run.load_program()
    from arrgroup import builtin_group, cf_verdict, hom_count
    import workloads as w

    pairs = sorted(set(w.HomcountWorkload.FIXTURES + w.HomcountWorkload.IMAGES
                       + (("ceva", "S3"),)))
    homcount = {}
    for name, group in pairs:
        pres = w.sweep(w.fixture_text(name)).presentation
        homcount[f"{name}>{group}"] = hom_count(pres,
                                                builtin_group(group)).count

    s = w.sweep(w.fixture_text("ceva"))
    v = cf_verdict(s.lattice, s.presentation, "all")
    ceva_all = {"tried": v.orderings_tried, "distinct": v.candidates_distinct,
                "differs": sum("differs" in e for e in v.evidence),
                "evidence0": v.evidence[0]}

    blank = {"sweep_digests": {}, "homcount": homcount, "ceva_all": ceva_all}
    digests = {label: w.digest(w.sweep(base).presentation)
               for label, base in w.SweepWorkload(blank).bases}

    answers = dict(blank, sweep_digests=digests)
    with open(os.path.join(run.HERE, "answers.json"), "w") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
