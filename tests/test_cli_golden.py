"""The CLI golden corpus: every record of tests/cli_golden/ replayed in
process through `adic.cli.main`, stdout, stderr and exit code compared byte
for byte, on every interpreter: from Python 3.13 on, against a record's
"3.13" variant where it holds one.  `regen_cli_golden.py` writes the
records and says what they hold.  The test needs the standard library
alone, so it also runs without pytest:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import re
import sys

from adic.cli import main

CORPUS = pathlib.Path(__file__).resolve().parent / "cli_golden"
INPUTS = CORPUS / "inputs"


def replay(argv):
    """(exit code, stdout, stderr) of `adic argv`, run from INPUTS with an
    80-column terminal for argparse's help."""
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(INPUTS)
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, out.getvalue(), err.getvalue()


def records():
    """Every record of the corpus, in file order."""
    return [r for group in sorted(CORPUS.glob("*.json"))
            for r in json.loads(group.read_text())]


def test_every_record_replays_byte_for_byte():
    found = records()
    assert len(found) > 400
    drifted = []
    for r in found:
        if sys.version_info >= (3, 13):
            r = {**r, **r.get("3.13", {})}
        want = (r["exit"], "\n".join(r["stdout"]), "\n".join(r["stderr"]))
        if replay(r["argv"]) != want:
            drifted.append(r["argv"])
    assert not drifted, drifted


def test_the_readme_counts_every_record():
    readme = (CORPUS.parents[1] / "README.md").read_text()
    assert re.findall(r"(\d+) runs of\s+`adic`", readme) == \
        [str(len(records()))]


if __name__ == "__main__":
    test_every_record_replays_byte_for_byte()
