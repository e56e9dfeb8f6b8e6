"""arrgroup benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; the program is imported from the
checkout's ``src`` directory.  Workloads are defined in ``workloads.py``.

A run makes its inputs from ``--seed``, then measures whole rounds of items,
one item at a time.  Every workload has a fixed item list per round, and a
run measures ceil(--seconds / the workload's nominal round seconds) rounds,
so every run of a workload does the same amount of work and lasts about
--seconds seconds on the baseline commit.  Each item's output is checked
outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one round
untraced, then the same round traced (one span around each public call,
kept in memory and written to bench-spans.jsonl in the working directory at
the end) and prints the per-layer metrics: time by operation, self time by
layer, work counters, and the tracing overhead (traced wall minus untraced
wall).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when a result was printed, also when some item failed its check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 5
SPANS_FILE = "bench-spans.jsonl"  # written by --trace 1
LAYERS = ("geometry", "wiring", "braid", "vankampen", "prover", "invariants")

# spans whose summed inclusive time is a per-layer metric, "<span>_s"
TIMED_SPANS = ("geometry.parse", "geometry.lattice", "wiring.genericize",
               "wiring.pairs", "braid.transport", "vankampen.canon",
               "vankampen.candidate", "vankampen.parse", "prover.verdict",
               "prover.prove", "prover.replay", "invariants.hom_count",
               "invariants.evidence", "invariants.group_table")
COUNTERS = ("geometry.lattice_points", "wiring.shear_attempts",
            "braid.twists_applied", "vankampen.letters_raw",
            "vankampen.letters_canon", "prover.prove_calls",
            "prover.cert_steps", "prover.verdict_undivided",
            "invariants.hom_nodes")


def load_program():
    """Import arrgroup from the checkout's src, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "arrgroup", "__init__.py")):
        raise SystemExit(f"bench: no arrgroup sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import arrgroup
    if not os.path.abspath(arrgroup.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: arrgroup imported from {arrgroup.__file__}")


def import_seconds():
    """Wall time of a fresh interpreter that imports arrgroup: what every
    CLI call pays before it does any work."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import arrgroup"], env=env,
                   check=True, timeout=120)
    return time.perf_counter() - t


def setup(workload_cls, seed, nrounds):
    """Input generation and answer tables, repeated; returns (workload,
    rounds, median set-up seconds, whether the repeats agreed)."""
    with open(os.path.join(HERE, "answers.json")) as fh:
        answers = json.load(fh)
    samples, built = [], []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload = workload_cls(answers)
        rounds = [workload.make_round(seed, r) for r in range(nrounds)]
        samples.append(time.perf_counter() - t + import_seconds())
        built.append(rounds)
    agreed = all(b == built[0] for b in built)
    return workload, built[0], statistics.median(samples), agreed


def run_item(workload, item):
    """Time one item; returns (seconds, output or None, problems)."""
    t = time.perf_counter()
    try:
        out = workload.run(item)
    except Exception as exc:  # a failing item is counted, not fatal
        return time.perf_counter() - t, None, [f"raised {exc!r}"]
    seconds = time.perf_counter() - t
    try:
        return seconds, out, workload.check(item, out)
    except Exception as exc:
        return seconds, out, [f"check raised {exc!r}"]


def tail(times):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile).  Below 40 samples it needs only a quarter of them
    beyond it (rounded up): ten would put it at or below the median, and
    one sample alone would decide it."""
    s = sorted(times)
    n = len(s)
    beyond = min(10, math.ceil(n / 4))
    return s[n - 1 - beyond], 100.0 * (n - beyond) / n


def untraced(workload, rounds, keep=True):
    """Returns (seconds per item, outputs, problem lists per item).  With
    keep false no output outlives its check, so every item starts on a heap
    of the same size, as a CLI call does."""
    times, outputs, problems = [], [], []
    for items in rounds:
        for item in items:
            seconds, out, found = run_item(workload, item)
            times.append(seconds)
            problems.append([f"{item.label}: {p}" for p in found])
            outputs.append(out if keep else None)
            del out
    return times, outputs, problems


def end_to_end(workload, rounds, setup_s):
    times, _, problems = untraced(workload, rounds, keep=False)
    value, pct = tail(times)
    failed = sum(1 for p in problems if p)
    # every round does the same work: the median round discards a round
    # that met a slow stretch of the machine
    per_round, start = [], 0
    for items in rounds:
        per_round.append(len(items) / sum(times[start:start + len(items)]))
        start += len(items)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (statistics.median(per_round), "1/s"),
        "item_p50_s": (statistics.median(times), "s"),
        "item_tail_s": (value, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [f"samples {len(times)}, item_tail_s is p{pct:.1f}",
             f"failed_frac {failed / len(times)} (fraction)"]
    return len(times), problems, metrics, notes


def per_layer(workload, items):
    """One untraced pass over the round, then one traced pass; each traced
    item must give the untraced output."""
    from spans import Tracer
    times, outputs, problems = untraced(workload, [items])
    tr = Tracer()
    for item, ref in zip(items, outputs):
        tr.item = item.label
        mismatches = ["no untraced output to compare"] if ref is None else []
        with tr.span("bench.item"):
            if ref is not None:
                try:
                    mismatches = workload.traced(item, tr, ref)
                except Exception as exc:  # counted as a failed item
                    mismatches = [f"traced run raised {exc!r}"]
        problems.append([f"{item.label}: {m}" for m in mismatches])
    write_spans(tr.spans)
    totals = tr.totals()
    counters = tr.counters()
    traced_wall = sum(end - start for name, start, end, _, _ in tr.spans
                      if name == "bench.item")
    metrics = {}
    for span in TIMED_SPANS:
        metrics[f"{span}_s"] = (totals[span][0] if span in totals else 0.0,
                                "s")
    for name in COUNTERS:
        metrics[name] = (counters.get(name, 0), "count")
    proofs = counters.get("prover.prove_calls", 0)
    metrics["prover.certified_frac"] = (
        counters.get("prover.certified", 0) / proofs if proofs else 0.0,
        "ratio")
    hom_s = metrics["invariants.hom_count_s"][0]
    metrics["invariants.nodes_per_s"] = (
        counters.get("invariants.hom_nodes", 0) / hom_s if hom_s else 0.0,
        "1/s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(row[1] for name, row in totals.items()
                if name.split(".", 1)[0] == layer), "s")
    metrics["trace.overhead_s"] = (traced_wall - sum(times), "s")
    metrics["trace.spans"] = (len(tr.spans), "count")
    bench_self = totals["bench.item"][1] if "bench.item" in totals else 0.0
    notes = [f"items {len(items)}: untraced wall {sum(times):.4f} s, "
             f"traced wall {traced_wall:.4f} s, of which benchmark code "
             f"{bench_self:.4f} s"]
    return 2 * len(items), problems, metrics, notes


def write_spans(spans):
    """One JSON line per span, in the order they opened, to SPANS_FILE in
    the working directory."""
    with open(SPANS_FILE, "w") as fh:
        for index, (name, start, end, parent, item) in enumerate(spans):
            fh.write(json.dumps({"id": index, "name": name, "start": start,
                                 "end": end, "parent": parent,
                                 "item": item}) + "\n")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "certify", "refute", "homcount"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    load_program()
    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    nrounds = 1 if args.trace else math.ceil(args.seconds / cls.round_seconds)
    workload, rounds, setup_s, agreed = setup(cls, args.seed, nrounds)
    if args.trace:
        attempted, problems, metrics, notes = per_layer(workload, rounds[0])
    else:
        attempted, problems, metrics, notes = end_to_end(workload, rounds,
                                                         setup_s)
    failed = sum(1 for p in problems if p)
    if not agreed:
        problems.append(["set-up repeats generated different inputs"])
        failed = max(failed, 1)

    print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)} "
          f"trace {args.trace}")
    for note in notes:
        print(note)
    for found in problems:
        for problem in found:
            print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
