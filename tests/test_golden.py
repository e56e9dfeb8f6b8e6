"""Bit-identity of the command line's text outputs on the shipped fixtures.

The digests are sha256 of stdout as the commands printed it before the
sweep was gathered into one ``sweep()``; a refactor that keeps them keeps
every presentation, candidate, verdict and certificate byte for byte.
``verdict`` (run without --certificate) prints the certificate after the
verdict, so its digest covers both; it is recorded only where the fixture
certifies.  The digest of ``prove``'s stderr on ceva's presentation against
its candidate (an Unknown with the stuck relations) was recorded before the
prover's per-proof license memo and site index, which must not change it.
The ``verdict`` digests of two generated arrangements (a 12-line k-pencil,
whose proof needs the lookahead and plateau phases, and a generic 10-line
arrangement) and of cycle5 under two small budgets (each Unknown names the
budget it exhausted) were recorded before the prover's search moves were
gathered into one move tuple and one apply.  The ``present`` digests of a
24-line k-pencil and of a 12-wire pair list with wide points in the middle
and at the end were recorded before the sweep carried the meridians' images
from point to point.  The ``homcount`` digests of every fixture's
presentation into S3, D4, A4 and S4 (each prints the count and the size of
the search tree) were recorded before the counter kept one row per
conjugation orbit.  The ``verdict`` digests of a shuffled affine image of
ceva (Unknown under the identity ordering, naming its stuck relation) and of
triangle_plus_line under ``--ordering all``, and the digest of the prover's
reason on that ceva image with its lines numbered in file order (four
stuck relations), were recorded before the rescue skipped targets by
exponent sums and the ordering search skipped candidates by S3 counts.
The ``verdict --ordering all`` digest of seven lines through one triple
and one quadruple point (Unknown, 12 distinct candidates, evidence in the
order of the quadruple point's cyclic orders) was recorded before the
ordering search keyed its candidates by the cyclic orders at the points.
The certificate digests of two k-pencils (10 and 14 lines) and a generic
12-line arrangement, each under the default budget and a 300-node rescue,
were recorded before the prover kept one site index for a whole proof.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from arrgroup import (Budget, candidate_cf, cf_verdict, compute_lattice,
                      format_certificate, genericize, lefschetz_pairs,
                      parse_arrangement, presentation, prove_equivalent,
                      sweep)
from arrgroup.cli import main
from conftest import (TRIPLE_QUADRUPLE, affine_image, fixture_arrangement,
                      fixture_file)

COMMANDS = {
    "present": ["present"],
    "present-proj": ["present", "--projective"],
    "candidate": ["candidate"],
    "verdict": ["verdict"],
}

DIGESTS = {
    ("pencil", "present"): "7a1f3ca63bf52d84758baaa10d8c0b61b15b03e3ee57a1844f42faf3f69539af",
    ("pencil", "present-proj"): "74a5d02530ab9671c3959a53413f0e98e7cdeaddd7e17580e230cb6a001a24cc",
    ("pencil", "candidate"): "7a1f3ca63bf52d84758baaa10d8c0b61b15b03e3ee57a1844f42faf3f69539af",
    ("pencil", "verdict"): "91ae4809a4f691a27854e8666cac07aaa1cc42bd57e4dac0ad0c67c668d08262",
    ("nearpencil", "present"): "11d763029b20a91d795ff28765bcc92790ff358f4cf39c7221660482f397b413",
    ("nearpencil", "present-proj"): "b310814f7ced0c9c28b9578c772bb906877cf83edd01644cb1a027f457b67271",
    ("nearpencil", "candidate"): "0f42e58c68210b508d280dda58905c3b4238116efcbd9c236ada90759b15c551",
    ("nearpencil", "verdict"): "3c98a36491ca98a340a48062c558ba53cd19090bb49776a35e67165ee5c71588",
    ("triangle", "present"): "8d486843eee8166dc4525479bcf229eea5c60782aaa4bfcfc250643cb1592cd2",
    ("triangle", "present-proj"): "ded997e1b3fbe61c57a2cae35d5aafae93abe79e530faa1ae506d5ee839ef51e",
    ("triangle", "candidate"): "5f7cde53688bcbd147eecef46412dbfea1d8113bc83b9897cdabb6aa08b3189e",
    ("triangle", "verdict"): "7e478d54800759ef977a087d0bb919af58c3b821720485955f76c821a34fc568",
    ("triangle_plus_line", "present"): "9ad90a068bf0fe3cc5eda3dab538384ce40c1772c01f5ebe89d5e1ff4043de62",
    ("triangle_plus_line", "present-proj"): "3b661bc414fcfc391354e98beac3e2cc3398430f43d2d68a3a42d627233fd7ba",
    ("triangle_plus_line", "candidate"): "45bb1fe649d22d1c0c4c0600142dc0075711f52a3a4269ed29944fc5302c2418",
    ("triangle_plus_line", "verdict"): "51a5cdc5fd0924a8ee4f1893eb635478bbae53e6b7a6557301c3e36a10cd8045",
    ("cycle5", "present"): "659f78b08c90dae0b594292275065934cfc5901766dfe9f1e9bb41ca698ab3d5",
    ("cycle5", "present-proj"): "33afb2142a4c974c6a3d7f81e73887d1d5c74b18278dcd5b38d44952486bf841",
    ("cycle5", "candidate"): "d25121d4534ce31645ee735e08cd0d658a1c44447445607f00ba149302aa6df6",
    ("cycle5", "verdict"): "253d6a3173611600482696b04b226a515828322f46eca15a0ce339ee25ad5a13",
    ("ceva", "present"): "078a96546677a2d93e0f9f8b2e89395e30c53bf827f402f1dd1a638e75b4ec85",
    ("ceva", "present-proj"): "7f544e7ba689568e6745c8d4760b04c5521e31b6261c57ae4eb820e7d858f422",
    ("ceva", "candidate"): "9ed13dea927e9bb3c71f4a948112685c5c8b931b413e8650f4cc91be9cb73344",
}


@pytest.mark.parametrize("name, command", sorted(DIGESTS))
def test_output_matches_recorded_digest(name, command, capsys):
    assert main(COMMANDS[command] + ["--input", fixture_file(name)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name, command]


CEVA_PROVE_STDERR = (
    "5bc5e11720e6fb88c2f960f69c91ce3fd3d1d2c29e71cc0b33f4eaadc6836432")


def test_ceva_prove_reason_matches_recorded_digest(tmp_path, capsys):
    pres, cand = str(tmp_path / "ceva.pres"), str(tmp_path / "ceva.cand")
    ceva = fixture_file("ceva")
    assert main(["present", "--input", ceva, "--output", pres]) == 0
    assert main(["candidate", "--input", ceva, "--output", cand]) == 0
    assert main(["prove", "--input", pres, "--target", cand]) == 2
    err = capsys.readouterr().err
    assert hashlib.sha256(err.encode()).hexdigest() == CEVA_PROVE_STDERR


def _through(x, y, slope):
    # the line through (x, y) with this slope: -slope*X + Y = y - slope*x
    return f"{-slope} 1 {y - slope * x}\n"


def k_pencil(n):
    """Line i has slope i/3 and passes through centre i mod 4: four points
    of multiplicity n/4, every other point double."""
    centres = [(Fraction(-7, 3), Fraction(5, 2)), (Fraction(4), Fraction(-11, 3)),
               (Fraction(13, 2), Fraction(17, 4)), (Fraction(-9, 2), Fraction(-6))]
    return "".join(_through(*centres[i % 4], Fraction(i + 1, 3))
                   for i in range(n))


def generic_10():
    slopes = [Fraction(1, 5), Fraction(1, 2), Fraction(4, 5), Fraction(1),
              Fraction(7, 5), Fraction(2), Fraction(12, 5), Fraction(3),
              Fraction(18, 5), Fraction(5)]
    intercepts = [Fraction(-17, 2), Fraction(3), Fraction(-29, 4),
                  Fraction(11, 3), Fraction(1, 2), Fraction(-5),
                  Fraction(23, 3), Fraction(-2, 5), Fraction(9),
                  Fraction(-13, 4)]
    return "".join(_through(0, c, m) for m, c in zip(slopes, intercepts))


def generic_12():
    slopes = [Fraction(k, 4) for k in (1, 2, 3, 5, 6, 7, 9, 10, 13, 15, 18,
                                       22)]
    intercepts = [Fraction(-31, 4), Fraction(7, 3), Fraction(-11, 2),
                  Fraction(19, 5), Fraction(1, 3), Fraction(-9),
                  Fraction(25, 4), Fraction(-7, 5), Fraction(17, 2),
                  Fraction(-23, 6), Fraction(3), Fraction(-1, 7)]
    return "".join(_through(0, c, m) for m, c in zip(slopes, intercepts))


def ceva_image():
    """ceva under p -> M p + (1, 0), M = [[1, 2], [-1, 1]], lines shuffled:
    its identity candidate differs from it on S3."""
    image = affine_image(fixture_arrangement("ceva"), ((1, 2), (-1, 1)),
                         (1, 0))
    lines = list(image.lines)
    random.Random(8).shuffle(lines)
    return "".join(f"{line.a} {line.b} {line.c}\n" for line in lines)


VERDICT_CASES = {
    "k-pencil-12": (lambda: k_pencil(12), [], 0,
                    "52befa52bc0a518b21eb06a98932e7509d3abed131dc9627e2097897ba3f0d41"),
    "generic-10": (generic_10, [], 0,
                   "bee23a2a169d2931de2a55d7accf9b28c1af016fc1d41e5f5866a1ba717dc927"),
    "cycle5-max-steps-50": ("cycle5", ["--max-steps", "50"], 2,
                            "cfb116f83fd028d750f7aa8396f5203423337940dac9f26c541ee9a9e9f3b8ec"),
    "cycle5-max-word-len-8": ("cycle5", ["--max-word-len", "8"], 2,
                              "04db773785f177a1ac5ace65677f34122c1a05058fd3b1fd87dee9496da2c52f"),
    "ceva-image": (ceva_image, [], 2,
                   "2ae760e87163eb82a12a607999448e9d421962c1024a009389ff984fbef2a9a1"),
    "triangle_plus_line-all": ("triangle_plus_line", ["--ordering", "all"], 0,
                               "51a5cdc5fd0924a8ee4f1893eb635478bbae53e6b7a6557301c3e36a10cd8045"),
    "triple-quadruple-all": (lambda: TRIPLE_QUADRUPLE, ["--ordering", "all"], 2,
                             "f130087e9c241644193e296a77f4449d4b8afa4b85cdd0b5aec25264777599be"),
}


@pytest.mark.parametrize("case", sorted(VERDICT_CASES))
def test_verdict_matches_recorded_digest(case, tmp_path, capsys):
    source, flags, code, digest = VERDICT_CASES[case]
    if callable(source):
        path = tmp_path / f"{case}.lines"
        path.write_text(source())
        source = str(path)
    else:
        source = fixture_file(source)
    assert main(["verdict", "--input", source] + flags) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


CERTIFICATE_SOURCES = {"k-pencil-10": lambda: k_pencil(10),
                       "k-pencil-14": lambda: k_pencil(14),
                       "generic-12": generic_12}
CERTIFICATE_BUDGETS = {"default": Budget(), "bfs-300": Budget(bfs_nodes=300)}
CERTIFICATE_DIGESTS = {
    ("k-pencil-10", "default"):
        "28cce5a916af5f719a88b476a8560538eb31806a11fb1e3de395a7f0eb5a0ea5",
    ("k-pencil-10", "bfs-300"):
        "28cce5a916af5f719a88b476a8560538eb31806a11fb1e3de395a7f0eb5a0ea5",
    ("k-pencil-14", "default"):
        "3b5b4f4787dc43e73f51f6fa97e3a1f7fb6f86d2a9f5e1dba498c0e02cbc4ef4",
    ("k-pencil-14", "bfs-300"):
        "3b5b4f4787dc43e73f51f6fa97e3a1f7fb6f86d2a9f5e1dba498c0e02cbc4ef4",
    ("generic-12", "default"):
        "1d64214bb4902a573704b7fa2c40a45cb2cb773aa57322df18225366b33bdcd5",
    ("generic-12", "bfs-300"):
        "1d64214bb4902a573704b7fa2c40a45cb2cb773aa57322df18225366b33bdcd5",
}


@pytest.mark.parametrize("case, budget", list(CERTIFICATE_DIGESTS))
def test_certificate_matches_recorded_digest(case, budget):
    swept = sweep(parse_arrangement(CERTIFICATE_SOURCES[case]()))
    verdict = cf_verdict(swept.lattice, swept.presentation, "identity",
                         CERTIFICATE_BUDGETS[budget])
    assert verdict.status == "Certified"
    text = format_certificate(verdict.certificate)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == CERTIFICATE_DIGESTS[case, budget])


CEVA_IMAGE_FILE_ORDER_REASON = (
    "cb9e2535e634d9aed52a312f91897e39adeea4454cecb8e00e624fc519c5f94f")


def test_ceva_image_in_file_order_reason_matches_recorded_digest():
    # numbered in file order rather than by wire, the image leaves four
    # relations stuck, none sharing its entries' exponent sums with a
    # waiting target
    generic, _ = genericize(parse_arrangement(ceva_image()))
    result = prove_equivalent(presentation(lefschetz_pairs(generic)),
                              candidate_cf(compute_lattice(generic)))
    assert result.status == "unknown"
    assert (hashlib.sha256(result.reason.encode()).hexdigest()
            == CEVA_IMAGE_FILE_ORDER_REASON)


# A realizable 12-wire pair list (every two wires cross once) whose widest
# points sit in the middle of the sweep, (4, 8), and at its end, (4, 9).
WIDE_PAIRS = (
    (9, 10), (8, 9), (3, 4), (7, 8), (4, 5), (5, 6), (6, 7), (5, 6), (4, 5),
    (7, 8), (10, 11), (2, 3), (9, 10), (8, 9), (7, 8), (3, 4), (11, 12),
    (10, 11), (9, 10), (8, 9), (1, 2), (2, 3), (4, 5), (3, 4), (4, 8), (3, 4),
    (8, 9), (7, 8), (2, 3), (1, 2), (4, 5), (10, 11), (11, 12), (2, 3),
    (9, 10), (8, 9), (3, 4), (10, 11), (9, 10), (11, 12), (10, 11), (2, 3),
    (4, 9))


def wide_pairs_12():
    return "ell=12\n" + "".join(f"{a} {b}\n" for a, b in WIDE_PAIRS)


PRESENT_CASES = {
    "k-pencil-24": (lambda: k_pencil(24), "lines",
                    "bb80cc45c9c63a8803207130bab27d8458c7df429f8fde9715c26a61384bd9b6"),
    "wide-pairs-12": (wide_pairs_12, "pairs",
                      "b85fb989a85aed0313c6be925bea4112ed28f3d7ff300e835494c02f5cdbe9dc"),
}


@pytest.mark.parametrize("case", sorted(PRESENT_CASES))
def test_present_matches_recorded_digest(case, tmp_path, capsys):
    source, suffix, digest = PRESENT_CASES[case]
    path = tmp_path / f"{case}.{suffix}"
    path.write_text(source())
    assert main(["present", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


HOMCOUNT_DIGESTS = {
    ("pencil", "S3"):
        "d976953d7ef50eb6f1483d8542ef1e5ce950052b98ee05b8bfd2cf682995d3be",
    ("pencil", "D4"):
        "323c5bf488b502816bac59db7fafff489d044ff8007ebd941304a78646b009f8",
    ("pencil", "A4"):
        "d2f6960a745caaa552223d7baf55bb1c14bbe9bb2640c9978e7ecb7f07cb1d7f",
    ("pencil", "S4"):
        "b87b767793746f4321c97d2f90eb75fa3d296ecf4bd60b567176cdd3ee5b73bc",
    ("nearpencil", "S3"):
        "b07c9b5869b4f212a80e8909f7ac936a7a7426e951d4b2528b06f4f4cb59f747",
    ("nearpencil", "D4"):
        "8aba524fe211af98bff33d42872c7ce03ef2cb77a752d13d74559031db87d683",
    ("nearpencil", "A4"):
        "a109ac5693fa6e233f1a6b6d0814b42b821cdd6c33dcf9304b9a600b4b6f76f5",
    ("nearpencil", "S4"):
        "3c16c8fcbbe59671a80bc1d8b8caba4f8cc92be01494056a1ef66b4fd6a0820d",
    ("triangle", "S3"):
        "486a3edf4d5e1ff0d6e61fc7fcfe1df2a643a3a79cbcec537653604e465f0cbf",
    ("triangle", "D4"):
        "63e053310831907f083529d354d0c94b09aac93c87d122f026de36f25181ff4d",
    ("triangle", "A4"):
        "82c325cea0b634e8eefa9c8de5e9acc2955ac661109b95b2e1687e12c6160b19",
    ("triangle", "S4"):
        "323cd438a82dafa754ec5806572b2389d35d640b7da0a2e477b4d3fb9351921b",
    ("triangle_plus_line", "S3"):
        "9c782fb00d57cd2f1ea0c4c9a21501c93d9ac1d9ba5fbdf254de1fe64d332307",
    ("triangle_plus_line", "D4"):
        "c1938305499110fb915d7a7d71facad9d1228c0e1491b69968da17abf0394796",
    ("triangle_plus_line", "A4"):
        "12ef22fbd2735a3954634b73260b9db508e99cf7105f521bd7a8eb4ce755002f",
    ("triangle_plus_line", "S4"):
        "81c9cfa473078c349665506114f20142e90f9d21552e3f969f952b1567d6c022",
    ("cycle5", "S3"):
        "bacc09f053463c4d25c1498a721e2f3f2fa797eca3b2d9ba12c7c2980776af2a",
    ("cycle5", "D4"):
        "f3f723d398fc0876423074cdc06344ea4d2ef59cb63a88803df5f7cd302e89f0",
    ("cycle5", "A4"):
        "e5d31bab4c781dea170cb2acf7173215ea90b29fbe257b80c27d06fe9391990b",
    ("cycle5", "S4"):
        "1e553f8fe68dda71618e7c1afb68085f80270df0aaeddbf460e1226be2be95e4",
    ("ceva", "S3"):
        "0cb8a85bca953151ae47de728bf4585be03006f76897c1c0ab573dca40f10cad",
    ("ceva", "D4"):
        "1a413f63ec48d9272dc01b665aedd60772f76e359f954808403607f629e3026a",
    ("ceva", "A4"):
        "1cacda951be5e6ce1f1f9868c15885c67f67a2f7812ff46d2277d389d72091f2",
    ("ceva", "S4"):
        "01a29242362524e8a236b3aa6fe8949fd7073610685a084463b8bcea369296af",
}


@pytest.mark.parametrize("name, group", list(HOMCOUNT_DIGESTS))
def test_homcount_matches_recorded_digest(name, group, tmp_path, capsys):
    pres = str(tmp_path / f"{name}.pres")
    assert main(["present", "--input", fixture_file(name),
                 "--output", pres]) == 0
    capsys.readouterr()
    assert main(["homcount", "--input", pres, "--group", group]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == HOMCOUNT_DIGESTS[name, group])
