"""End-to-end runs of the command line interface, in process."""

from decimal import Decimal

import pytest

from arrgroup import (
    is_conjugation_free,
    parse_arrangement,
    parse_certificate,
    parse_pairs,
    parse_presentation,
    parse_presentation_json,
)
from arrgroup.cli import main
from conftest import fixture_file, fixture_text, pipeline


def tri_path():
    return fixture_file("triangle")


def test_fixture_listing_and_emission(capsys):
    assert main(["fixture"]) == 0
    listing = capsys.readouterr().out
    for name in ("pencil", "cycle5", "semidirect-ceva"):
        assert name in listing
    assert main(["fixture", "--name", "pencil"]) == 0
    text = capsys.readouterr().out
    assert len(parse_arrangement(text)) == 3
    assert main(["fixture", "--name", "semidirect-triangle"]) == 0
    pres = parse_presentation(capsys.readouterr().out)
    assert pres.ngens == 6


def test_lattice_report(capsys):
    assert main(["lattice", "--input", tri_path()]) == 0
    out = capsys.readouterr().out
    assert "n=6" in out and "points=9" in out and "multiple=3" in out


def test_graph_report(capsys):
    assert main(["graph", "--input", tri_path()]) == 0
    out = capsys.readouterr().out
    assert "betti=1" in out


def test_pairs_output_is_the_calibration_list(capsys):
    assert main(["pairs", "--input", tri_path()]) == 0
    pl = parse_pairs(capsys.readouterr().out)
    assert pl.ell == 6
    assert pl.pairs == (
        (2, 3), (1, 2), (2, 4), (4, 6), (3, 4), (4, 5), (2, 3), (1, 2), (2, 4),
    )


def test_pairs_accepts_pairs_files_too(tmp_path, capsys):
    assert main(["pairs", "--input", tri_path()]) == 0
    text = capsys.readouterr().out
    src = tmp_path / "triangle.pairs"
    src.write_text(text)
    assert main(["svg", "--input", str(src), "--output",
                 str(tmp_path / "w.svg")]) == 0
    assert (tmp_path / "w.svg").read_text().startswith("<?xml")


def test_present_text_and_json(capsys):
    assert main(["present", "--input", tri_path()]) == 0
    pres = parse_presentation(capsys.readouterr().out)
    assert pres == pipeline("triangle").presentation
    assert main(["present", "--input", tri_path(), "--json"]) == 0
    assert parse_presentation_json(capsys.readouterr().out) == pres
    assert main(["present", "--input", tri_path(), "--projective"]) == 0
    assert parse_presentation(capsys.readouterr().out).kind == "projective"


def test_candidate_is_emitted_conjugation_free(capsys):
    assert main(["candidate", "--input", tri_path()]) == 0
    cand = parse_presentation(capsys.readouterr().out)
    assert is_conjugation_free(cand)


def test_prove_and_replay_round_trip(tmp_path, capsys):
    src = tmp_path / "source.pres"
    tgt = tmp_path / "target.pres"
    src.write_text("gens=3\n[ x1 ; x2 x3 x2^-1 ]\n[ x2 ; x3 ]\n")
    tgt.write_text("gens=3\n[ x1 ; x3 ]\n[ x2 ; x3 ]\n")
    cert = tmp_path / "proof.cert"
    assert main(["prove", "--input", str(src), "--target", str(tgt),
                 "--output", str(cert)]) == 0
    capsys.readouterr()
    assert main(["replay", "--input", str(cert), "--source", str(src),
                 "--target", str(tgt)]) == 0
    assert "certificate ok" in capsys.readouterr().out
    # a corrupted certificate is rejected, not replayed
    broken = cert.read_text().replace("forward", "forwarb", 1)
    cert.write_text(broken)
    assert main(["replay", "--input", str(cert), "--source", str(src),
                 "--target", str(tgt)]) == 1
    assert "error:" in capsys.readouterr().err


def test_verdict_certified_writes_certificate(tmp_path, capsys):
    cert = tmp_path / "triangle.cert"
    rc = main(["verdict", "--input", tri_path(), "--certificate", str(cert)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Certified" in out
    assert cert.read_text().startswith("certificate-v1")
    # without --certificate, the certificate goes next to --output
    verdict = tmp_path / "triangle.verdict"
    assert main(["verdict", "--input", tri_path(), "--output",
                 str(verdict)]) == 0
    assert "Certified" in verdict.read_text()
    assert (tmp_path / "triangle.verdict.cert").read_text() == cert.read_text()


# the triangle under (x, y) -> (x + y + 1, y + 2), its lines in wire order;
# it sweeps only after a shear, which re-sorts the lattice points
SHEARED_TRIANGLE = "0 1 3\n1 0 1\n1 1/3 5/3\n1 1/2 -1/2\n1 1 3\n1 5/4 19/4\n"


def test_readme_recipe_replays_on_a_sheared_input(tmp_path, capsys):
    arr = tmp_path / "sheared.lines"
    arr.write_text(SHEARED_TRIANGLE)
    assert main(["pairs", "--input", str(arr)]) == 0
    assert capsys.readouterr().out.startswith("# sheared by")
    pres, cand, cert = (str(tmp_path / name) for name in
                        ("sheared.pres", "cand.pres", "sheared.cert"))
    assert main(["verdict", "--input", str(arr), "--certificate", cert]) == 0
    assert main(["present", "--input", str(arr), "--output", pres]) == 0
    assert main(["candidate", "--input", str(arr), "--output", cand]) == 0
    capsys.readouterr()
    assert main(["replay", "--input", cert, "--source", pres,
                 "--target", cand]) == 0
    assert "certificate ok" in capsys.readouterr().out


def test_candidate_ordering_prints_the_certificate_target(tmp_path, capsys):
    ordering = "1 3 2 4 5 6"
    pres, cand, cert = (str(tmp_path / name) for name in
                        ("triangle.pres", "cand.pres", "triangle.cert"))
    assert main(["verdict", "--input", tri_path(), "--ordering", ordering,
                 "--certificate", cert]) == 0
    assert main(["present", "--input", tri_path(), "--output", pres]) == 0
    assert main(["candidate", "--input", tri_path(), "--ordering", ordering,
                 "--output", cand]) == 0
    capsys.readouterr()
    assert main(["replay", "--input", cert, "--source", pres,
                 "--target", cand]) == 0
    assert "certificate ok" in capsys.readouterr().out


def test_pairs_names_the_input_line_of_each_wire(tmp_path, capsys):
    # the triangle's lines listed in reverse: wire w carries line 7 - w
    arr = tmp_path / "reversed.lines"
    arr.write_text("".join(reversed(fixture_text("triangle").splitlines(
        keepends=True))))
    assert main(["pairs", "--input", str(arr)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# input line of each wire: 6 5 4 3 2 1\n")
    assert main(["pairs", "--input", tri_path()]) == 0
    triangle = capsys.readouterr().out
    assert not triangle.startswith("#")
    assert parse_pairs(out) == parse_pairs(triangle)


def test_verdict_unknown_exits_two(capsys):
    rc = main(["verdict", "--input", fixture_file("ceva")])
    assert rc == 2
    out = capsys.readouterr().out
    assert "Unknown" in out
    assert ("reason: no path found for: relation 3: [ x2 x1 x2^-1 ; x4 ]"
            in out)


def test_verdict_ordering_search_cap_exits_one(tmp_path, capsys):
    path = tmp_path / "nine.lines"
    path.write_text("".join(f"{-i} 1 {i * i}\n" for i in range(1, 10)))
    assert main(["verdict", "--input", str(path), "--ordering", "all"]) == 1
    assert ("error: ordering search is capped at 8 lines"
            in capsys.readouterr().err)


def test_verdict_rejects_a_malformed_ordering(capsys):
    assert main(["verdict", "--input", tri_path(), "--ordering", "a b"]) == 1
    assert capsys.readouterr().err == (
        "error: verdict --ordering expects 'identity', 'all' or a "
        "permutation, got 'a b'\n")


def test_candidate_names_only_its_own_ordering_modes(capsys):
    assert main(["candidate", "--input", tri_path(), "--ordering", "a b"]) == 1
    assert capsys.readouterr().err == (
        "error: candidate --ordering expects 'identity' or a permutation, "
        "got 'a b'\n")


def test_candidate_ordering_identity_is_the_plain_candidate(capsys):
    assert main(["candidate", "--input", tri_path()]) == 0
    plain = capsys.readouterr().out
    assert main(["candidate", "--input", tri_path(),
                 "--ordering", "identity"]) == 0
    assert capsys.readouterr().out == plain
    # the search over orderings is verdict's; candidate names what it takes
    assert main(["candidate", "--input", tri_path(), "--ordering", "all"]) == 1
    assert capsys.readouterr().err == (
        "error: candidate --ordering expects 'identity' or a permutation, "
        "got 'all'\n")


@pytest.mark.parametrize("flags, reason", [
    (["--max-word-len", "2"], "word length budget exhausted"),
    (["--max-steps", "0"], "step budget exhausted"),
])
def test_verdict_unknown_names_the_budget_that_ran_out(flags, reason, capsys):
    assert main(["verdict", "--input", tri_path()] + flags) == 2
    assert f"reason: {reason}\n" in capsys.readouterr().out


def triangle_presentation_file(tmp_path, capsys):
    assert main(["present", "--input", tri_path()]) == 0
    path = tmp_path / "triangle.pres"
    path.write_text(capsys.readouterr().out)
    return str(path)


def test_prove_identical_presentations_in_zero_steps(tmp_path, capsys):
    pres = triangle_presentation_file(tmp_path, capsys)
    assert main(["prove", "--input", pres, "--target", pres,
                 "--max-steps", "0"]) == 0
    assert parse_certificate(capsys.readouterr().out).nsteps == 0


def test_homcount_builtin_and_file_groups(tmp_path, capsys):
    pres = triangle_presentation_file(tmp_path, capsys)
    assert main(["homcount", "--input", pres, "--group", "S3"]) == 0
    assert "count=972" in capsys.readouterr().out
    from arrgroup import builtin_group
    from reference import format_group_table

    table = tmp_path / "s3.table"
    table.write_text(format_group_table(builtin_group("S3")))
    assert main(["homcount", "--input", pres, "--group", str(table)]) == 0
    assert "count=972" in capsys.readouterr().out


def test_homcount_abort_exits_two(tmp_path, capsys):
    pres = triangle_presentation_file(tmp_path, capsys)
    rc = main(["homcount", "--input", pres, "--group", "S4",
               "--budget-nodes", "10"])
    assert rc == 2
    assert "aborted" in capsys.readouterr().out


def test_fan_reports_structure_or_fails_honestly(capsys):
    assert main(["fan", "--input", fixture_file("nearpencil")]) == 0
    assert "Z^1 (+) F_2" in capsys.readouterr().out
    rc = main(["fan", "--input", tri_path()])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_split_report(capsys):
    assert main(["split", "--input", fixture_file("triangle_plus_line")]) == 0
    out = capsys.readouterr().out
    assert "parts=2" in out and "part 2: 7" in out
    assert main(["split", "--input", fixture_file("ceva")]) == 0
    assert "no transversal splitting applies" in capsys.readouterr().out


def test_missing_file_is_a_plain_error(tmp_path, capsys):
    rc = main(["lattice", "--input", str(tmp_path / "nope.lines")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_no_subcommand_shows_usage():
    with pytest.raises(SystemExit):
        main([])


def test_stdin_dash_reads_standard_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(fixture_text("pencil")))
    assert main(["lattice", "--input", "-"]) == 0
    assert "n=3" in capsys.readouterr().out


PAIR_PRESENTATION = "gens=3\n[ x1 ; x3 ]\n[ x2 ; x3 ]\n"


@pytest.mark.parametrize("step", [
    "conj 99 1",             # relation index
    "rot 50 1",              # relation index
    "reduce 0 7",            # entry index
    "comm 0 0 0 1 5 1 0 1",  # entry index e1 of the cited 2-bracket
    "comm 0 0 0 1 0 -9 1 1",  # sign s1 neither 1 nor -1
    "swap 0 0 0 1 0 1 7",    # inverse flag neither 0 nor 1
    "conj 0 4",              # generator beyond gens=3
    "expand 0 0 0 0",        # generator 0
])
def test_replay_rejects_out_of_range_steps(step, tmp_path, capsys):
    pres = tmp_path / "pair.pres"
    pres.write_text(PAIR_PRESENTATION)
    cert = tmp_path / "bad.cert"
    cert.write_text("certificate-v1\ngens=3\nrelations=2\nmatch 0 0\n"
                    f"match 1 1\nforward 1\n{step}\nbackward 0\nend\n")
    rc = main(["replay", "--input", str(cert), "--source", str(pres),
               "--target", str(pres)])
    assert rc == 1
    assert "error: bad-index" in capsys.readouterr().err


def test_replay_rejects_a_repeated_match_line(tmp_path, capsys):
    pres = tmp_path / "one.pres"
    pres.write_text("gens=2\n[ x1 ; x2 ]\n")
    cert = tmp_path / "twice.cert"
    cert.write_text("certificate-v1\ngens=2\nrelations=1\nmatch 0 0\n"
                    "match 0 0\nforward 0\nbackward 0\nend\n")
    rc = main(["replay", "--input", str(cert), "--source", str(pres),
               "--target", str(pres)])
    assert rc == 1
    assert "error: bad-matching" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    '{"ngens": 3}',                                # missing relations
    '{"relations": [[[1], [2]]]}',                 # missing ngens
    '{"ngens": 3, "relations": "[[1], [2]]"}',     # relations not a list
    '{"ngens": "3", "relations": [[[1], [2]]]}',   # ngens a string
])
def test_homcount_rejects_malformed_json_presentations(doc, tmp_path, capsys):
    pres = tmp_path / "bad.json"
    pres.write_text(doc)
    assert main(["homcount", "--input", str(pres)]) == 1
    assert "error: presentation JSON needs" in capsys.readouterr().err


@pytest.mark.parametrize("name, text", [
    ("neg.pres", "gens=-1\n"),
    ("neg.json", '{"ngens": -2, "relations": []}'),
])
def test_homcount_rejects_negative_generator_counts(name, text, tmp_path,
                                                    capsys):
    pres = tmp_path / name
    pres.write_text(text)
    assert main(["homcount", "--input", str(pres)]) == 1
    assert "error: negative generator count" in capsys.readouterr().err


def test_homcount_zero_node_budget_aborts(tmp_path, capsys):
    pres = triangle_presentation_file(tmp_path, capsys)
    rc = main(["homcount", "--input", pres, "--group", "S3",
               "--budget-nodes", "0"])
    assert rc == 2
    assert "aborted after" in capsys.readouterr().out


def test_homcount_prints_counts_of_any_length(tmp_path, capsys):
    # 6^6000 has 4,669 digits, past the 4,300 that str() of an int allows
    pres = tmp_path / "free.pres"
    pres.write_text("gens=6000\n")
    assert main(["homcount", "--input", str(pres), "--group", "S3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("count=") and out.endswith(" nodes=0\n")
    digits = out[len("count="):-len(" nodes=0\n")]
    assert len(digits) == 4669 and Decimal(digits) == 6 ** 6000


@pytest.mark.parametrize("name, text", [
    ("banana.pres", "gens=2\nkind=banana\n[ x1 ; x2 ]\n"),
    ("banana.json", '{"ngens": 2, "kind": "banana", "relations": [[[1], [2]]]}'),
])
def test_homcount_rejects_unknown_presentation_kinds(name, text, tmp_path,
                                                     capsys):
    pres = tmp_path / name
    pres.write_text(text)
    assert main(["homcount", "--input", str(pres)]) == 1
    assert ("error: presentation kind must be affine or projective"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command, name, text, message", [
    ("homcount", "minus.pres", "gens=2\n[ x-1 ; x2 ]\n",
     "line 2: cannot parse word token 'x-1'"),
    ("homcount", "plus.pres", "gens=3\n[ x+2 ; x1 ]\n",
     "line 2: cannot parse word token 'x+2'"),
    ("homcount", "gens.pres", "gens=abc\n[ x1 ; x2 ]\n",
     "line 1: gens= expects an integer, got 'abc'"),
    ("present", "ell.pairs", "# wires\nell=abc\n1 2\n",
     "line 2: expected an integer, got 'abc'"),
    ("present", "pair.pairs", "ell=3\n1 2\n2 x\n",
     "line 3: expected an integer, got 'x'"),
])
def test_malformed_numbers_are_errors_naming_the_line(command, name, text,
                                                      message, tmp_path,
                                                      capsys):
    path = tmp_path / name
    path.write_text(text)
    assert main([command, "--input", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("ell", ["-2", "0"])
@pytest.mark.parametrize("argv", [["present"], ["present", "--projective"],
                                  ["svg"]])
def test_pairs_files_need_a_wire(ell, argv, tmp_path, capsys):
    path = tmp_path / "none.pairs"
    path.write_text(f"ell={ell}\n")
    assert main([*argv, "--input", str(path)]) == 1
    assert (capsys.readouterr().err
            == f"error: ell={ell}, expected at least one wire\n")


@pytest.mark.parametrize("argv", [["present"], ["present", "--projective"],
                                  ["svg"]])
def test_pairs_files_must_cover_every_crossing(argv, tmp_path, capsys):
    path = tmp_path / "partial.pairs"
    path.write_text("ell=3\n1 2\n")
    assert main([*argv, "--input", str(path)]) == 1
    assert (capsys.readouterr().err
            == "error: pairs cover 1 crossings, expected C(3,2) = 3\n")


def exit_code(argv):
    """main's exit code, whether returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command, flag, value", [
    ("verdict", "--max-word-len", "-1"),
    ("verdict", "--max-steps", "-1"),
    ("verdict", "--budget-nodes", "-5"),
    ("prove", "--max-steps", "-1"),
    ("homcount", "--budget-nodes", "-5"),
])
def test_negative_budgets_are_errors(command, flag, value, tmp_path, capsys):
    argv = [command, flag, value, "--input"]
    if command == "verdict":
        argv.append(tri_path())
    else:
        argv.append(triangle_presentation_file(tmp_path, capsys))
    if command == "prove":
        argv += ["--target", argv[-1]]
    assert exit_code(argv) == 1
    err = capsys.readouterr().err
    assert "must be non-negative" in err
    assert f"argument {flag}:" in err


@pytest.mark.parametrize("argv, message", [
    (["verdict", "--max-steps", "abc"], "expected a non-negative integer"),
    (["verdict"], "the following arguments are required: --input"),
    (["no-such-command"], "invalid choice: 'no-such-command'"),
])
def test_usage_errors_exit_one_not_the_unknown_code(argv, message, capsys):
    if "--max-steps" in argv:
        argv = argv + ["--input", tri_path()]
    assert exit_code(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: arrgroup")
    assert message in err
