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


def test_every_record_replays_byte_for_byte():
    records = [r for group in sorted(CORPUS.glob("*.json"))
               for r in json.loads(group.read_text())]
    assert len(records) > 400
    drifted = []
    for r in records:
        if sys.version_info >= (3, 13):
            r = {**r, **r.get("3.13", {})}
        want = (r["exit"], "\n".join(r["stdout"]), "\n".join(r["stderr"]))
        if replay(r["argv"]) != want:
            drifted.append(r["argv"])
    assert not drifted, drifted


if __name__ == "__main__":
    test_every_record_replays_byte_for_byte()
