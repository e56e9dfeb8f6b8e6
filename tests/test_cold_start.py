"""Cold start: each check runs in a fresh interpreter, so that what it
finds in sys.modules was loaded by that command alone.  numpy is loaded by
the group tables and the hom counter, and by nothing else."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import arrgroup
from arrgroup import format_presentation
from conftest import fixture_file, pipeline

SRC = str(Path(arrgroup.__file__).resolve().parent.parent)

# runs the command line on argv and prints, last, whether numpy was loaded
CLI_PROBE = """\
import sys
from arrgroup.cli import main
rc = main(sys.argv[1:])
print("numpy" in sys.modules)
sys.exit(rc)
"""


def run_fresh(code, *argv):
    """(exit code, last line of stdout) of a fresh interpreter running
    code with arrgroup importable."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout.splitlines()[-1]


def test_import_loads_no_numpy():
    assert run_fresh("import arrgroup, sys\n"
                     "print('numpy' in sys.modules)") == (0, "False")


@pytest.mark.parametrize("command", ["present", "verdict"])
def test_cli_without_hom_counts_loads_no_numpy(command):
    assert run_fresh(CLI_PROBE, command, "--input",
                     fixture_file("triangle")) == (0, "False")


def test_homcount_loads_numpy(tmp_path):
    path = tmp_path / "ceva.pres"
    path.write_text(format_presentation(pipeline("ceva").presentation))
    assert run_fresh(CLI_PROBE, "homcount", "--input",
                     str(path)) == (0, "True")


def test_ordering_search_loads_numpy():
    # the search rules candidates out by their S3 counts; ceva's verdict
    # is an honest Unknown
    assert run_fresh(CLI_PROBE, "verdict", "--input", fixture_file("ceva"),
                     "--ordering", "all") == (2, "True")
