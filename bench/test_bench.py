"""The benchmark's own checks: inputs and work counters repeat exactly.

    python3 -m pytest bench/test_bench.py -q

Runs a short item subset of every workload through the traced path twice
with one seed and once with another; the work counters and outputs must be
identical, and the other seed must generate other input text.  Takes about a
minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.load_program()
import workloads  # noqa: E402  (needs the path load_program sets)

# cheap items per workload; the ceva "all" item keeps the split of
# cf_verdict(..., "all") under test
SUBSET = {
    "sweep": ("kp16", "generic16", "pencil16"),
    "certify": ("triangle", "generic8", "kp8"),
    "refute": ("ceva-all", "ceva-image1"),
    "homcount": ("ceva>S3", "ceva-image>D4", "generic7>A4", "pencil3>S3",
                 "pencil4>A4"),
}
SEED = 7


def answers():
    with open(os.path.join(run.HERE, "answers.json")) as fh:
        return json.load(fh)


def subset(name, seed):
    """The first item of each type in SUBSET[name], from round 0."""
    w = workloads.WORKLOADS[name](answers())
    first = {}
    for it in w.make_round(seed, 0):
        if it.label in SUBSET[name]:
            first.setdefault(it.label, it)
    return w, list(first.values())


@pytest.mark.parametrize("name", sorted(SUBSET))
def test_counters_and_outputs_repeat_exactly(name):
    """Twice with one seed, then with another seed: a seed changes the
    inputs' text, not the work, so all three give the same counters."""
    runs = []
    for seed in (SEED, SEED, SEED + 1):
        w, items = subset(name, seed)
        assert sorted(it.label for it in items) == sorted(SUBSET[name])
        attempted, problems, metrics, _ = run.per_layer(w, items)
        assert attempted == 2 * len(items)
        assert not any(problems), problems
        runs.append({k: v for k, (v, unit) in metrics.items()
                     if unit == "count"})
    assert runs[0] == runs[1] == runs[2]
    assert any(runs[0].values())


@pytest.mark.parametrize("name", sorted(SUBSET))
def test_seed_decides_the_inputs(name):
    _, first = subset(name, SEED)
    _, again = subset(name, SEED)
    _, other = subset(name, SEED + 1)
    assert first == again
    assert [it.text for it in first] != [it.text for it in other]


def test_generated_designs_hold():
    import random
    import gen
    rng = random.Random(1)
    assert gen.multiplicities(gen.parse_lines(gen.k_pencil(rng, 10))) == (
        gen.expected_multiplicities(10, [3, 3, 2, 2]))
    assert set(gen.multiplicities(gen.parse_lines(gen.generic(rng, 9)))) == {2}
    assert gen.multiplicities(gen.parse_lines(gen.single_pencil(rng, 7))) == [7]
    ceva = workloads.fixture_text("ceva")
    assert gen.multiplicities(gen.parse_lines(gen.affine_image(rng, ceva))) \
        == gen.multiplicities(gen.parse_lines(ceva))
    assert gen.multiplicities(gen.parse_lines(gen.homothety(rng, ceva))) \
        == gen.multiplicities(gen.parse_lines(ceva))


def test_seeded_transformations_keep_the_work():
    import random
    import gen
    from arrgroup import (builtin_group, format_presentation, hom_count,
                          parse_presentation)
    rng = random.Random(3)
    for name in ("ceva", "cycle5"):
        text = workloads.fixture_text(name)
        s = workloads.sweep(text)
        t = workloads.sweep(gen.homothety(rng, text))
        assert (t.shear, t.pairs, t.presentation, t.candidate) == (
            s.shear, s.pairs, s.presentation, s.candidate)
        pres = format_presentation(s.presentation)
        rotated = gen.rotate_brackets(rng, pres)
        assert rotated != pres
        assert parse_presentation(rotated) == parse_presentation(pres)
        s3 = builtin_group("S3")
        a = hom_count(parse_presentation(pres), s3)
        b = hom_count(parse_presentation(rotated), s3)
        assert (a.count, a.nodes) == (b.count, b.nodes)


def test_closed_forms():
    from arrgroup import builtin_group
    s3 = builtin_group("S3")
    assert workloads.pencil_count(s3, 3) == 66
    # commuting pairs of a group: |G| times the number of conjugacy classes
    assert workloads.commuting_tuples(s3, 2) == 18
    assert workloads.commuting_tuples(builtin_group("S4"), 2) == 24 * 5


def test_refuses_to_run_without_the_program(tmp_path):
    root = os.path.dirname(run.HERE)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
