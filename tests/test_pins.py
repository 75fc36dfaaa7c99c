"""Promised bytes: one table, ``pins.json``, of gillab commands and the
sha256 of what they print.

Each row says ``why`` its bytes are promised.  It runs its ``setup``
commands, then its ``runs``, all with one fresh cache directory in
place of ``{cache}``; every command must exit 0.  The digest is of the
concatenated stdout of the runs, or, for a row with a ``file``
pattern, of the one file the runs left in the cache directory.  CI
checks the same table through the installed ``gillab`` script, with
this module's ``digest``.

Run as a script, ``PYTHONPATH=src python tests/test_pins.py``
re-records every digest and prints each row that moved, old -> new.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from gillab import cli

PINS = Path(__file__).with_name("pins.json")
ROWS = json.loads(PINS.read_text())


def in_process(args: list[str]) -> tuple[int, bytes]:
    """(exit code, stdout) of one gillab command through ``cli.main``."""
    res = CliRunner().invoke(cli.main, args)
    return res.exit_code, res.stdout_bytes


def digest(row: dict, cache: Path, run=in_process) -> str:
    """The row's sha256, running each command with ``run``."""
    out = hashlib.sha256()
    for k, args in enumerate(row["setup"] + row["runs"]):
        code, stdout = run([arg.replace("{cache}", str(cache)) for arg in args])
        assert code == 0, (args, code)
        if k >= len(row["setup"]):
            out.update(stdout)
    if "file" in row:
        path, = cache.glob(row["file"])
        return hashlib.sha256(path.read_bytes()).hexdigest()
    return out.hexdigest()


@pytest.mark.parametrize("row", ROWS, ids=[row["name"] for row in ROWS])
def test_pinned_bytes(row, tmp_path):
    assert digest(row, tmp_path) == row["sha256"]


if __name__ == "__main__":
    for row in ROWS:
        with tempfile.TemporaryDirectory() as tmp:
            new = digest(row, Path(tmp))
        if new != row["sha256"]:
            print(f"{row['name']}: {row['sha256']} -> {new}")
            row["sha256"] = new
    PINS.write_text(json.dumps(ROWS, indent=2) + "\n")
