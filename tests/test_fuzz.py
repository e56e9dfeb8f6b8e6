"""Mutated inputs of every text format, run through the command line: any
input ends in exit 0, 1 or 2, and an error is the package's own message,
never a traceback or a bare builtin's complaint."""

import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from arrgroup import (builtin_group, candidate_cf, cf_verdict,
                      format_certificate, format_pairs,
                      format_presentation, format_presentation_json)
from arrgroup.cli import main
from conftest import fixture_text, pipeline
from reference import format_group_table

BUDGET = ["--max-steps", "60", "--max-word-len", "12", "--budget-nodes", "50"]

# what a bare int(), tuple unpacking or division says: input reaching one of
# these was not checked by the parser
BUILTIN_MESSAGES = ("invalid literal for int", "values to unpack", "by zero")

ALPHABET = "0123456789 -/=#;[]{},:\"\nxe^."


def _texts():
    tri = pipeline("triangle")
    cert = cf_verdict(tri.lattice, tri.presentation).certificate
    return {
        "arrangement": fixture_text("triangle"),
        "pairs": format_pairs(tri.pairs),
        "presentation": format_presentation(tri.presentation),
        "json": format_presentation_json(tri.presentation),
        "group": format_group_table(builtin_group("S3")),
        "certificate": format_certificate(cert),
    }


TEXTS = _texts()


def _mutate(text, edits):
    """Apply character edits, or drop a line ("line" with a non-digit) or
    repeat it ("line" with a digit)."""
    for pos, op, ch in edits:
        if op == "line":
            lines = text.splitlines(keepends=True)
            i = pos % max(1, len(lines))
            copies = 2 if ch.isdigit() else 0
            text = "".join(lines[:i] + lines[i:i + 1] * copies + lines[i + 1:])
            continue
        i = pos % (len(text) + 1)
        if op == "insert":
            text = text[:i] + ch + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + ch + text[i + 1:]
    return text


EDITS = st.lists(st.tuples(st.integers(0, 10_000),
                           st.sampled_from(["insert", "delete", "replace",
                                            "line"]),
                           st.sampled_from(ALPHABET)),
                 min_size=1, max_size=3)

CASES = st.sampled_from(sorted(TEXTS)).flatmap(
    lambda fmt: EDITS.map(lambda edits: (fmt, _mutate(TEXTS[fmt], edits))))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    tri = pipeline("triangle")
    (d / "source.pres").write_text(format_presentation(tri.presentation))
    (d / "target.pres").write_text(
        format_presentation(candidate_cf(tri.lattice)))
    (d / "triangle.cert").write_text(TEXTS["certificate"])
    return d


def _argv(fmt, path, d):
    if fmt == "arrangement":
        return ["verdict", "--input", path] + BUDGET
    if fmt == "pairs":
        return ["present", "--input", path]
    if fmt in ("presentation", "json"):
        return ["homcount", "--input", path, "--budget-nodes", "20000"]
    if fmt == "group":
        return ["homcount", "--input", str(d / "source.pres"), "--group",
                path, "--budget-nodes", "20000"]
    return ["replay", "--input", path, "--source", str(d / "source.pres"),
            "--target", str(d / "target.pres")]


def _exit_code(argv):
    """Run the command line; assert it exits 0, 1 or 2 and that an error is
    the package's own message.  Returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    if rc == 1:
        message = err.getvalue()
        assert message.startswith("error: ")
        assert not any(m in message for m in BUILTIN_MESSAGES), message
    return rc


@settings(max_examples=120)
@given(case=CASES)
@example(case=("group", "order=0\n"))
@example(case=("certificate", "certificate-v1\ngens=6\nrelations=3\nmatch 1\n"
                              "forward 0\nbackward 0\nend\n"))
@example(case=("certificate", "certificate-v1\ngens=x\nrelations=3\n"))
def test_mutated_inputs_exit_cleanly(workdir, case):
    fmt, text = case
    path = workdir / f"input.{fmt}"
    path.write_text(text)
    _exit_code(_argv(fmt, str(path), workdir))


def test_replay_of_the_unmutated_files_succeeds(workdir):
    assert _exit_code(["replay", "--input", str(workdir / "triangle.cert"),
                       "--source", str(workdir / "source.pres"),
                       "--target", str(workdir / "target.pres")]) == 0


@settings(max_examples=80)
@given(side=st.sampled_from(["source", "target"]), edits=EDITS)
def test_replay_of_mutated_presentations_exits_cleanly(workdir, side, edits):
    # the certificate is valid for the unmutated pair
    files = {name: workdir / f"{name}.pres" for name in ("source", "target")}
    mutated = workdir / f"mutated.{side}"
    mutated.write_text(_mutate(files[side].read_text(), edits))
    files[side] = mutated
    _exit_code(["replay", "--input", str(workdir / "triangle.cert"),
                "--source", str(files["source"]),
                "--target", str(files["target"])])
