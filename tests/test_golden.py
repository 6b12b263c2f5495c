"""Byte-identity gate: a fixed grid of CLI commands against stored goldens.

Each golden records one command's stdout and exit code.  Regenerate them with
``PYTHONPATH=src python3 tests/test_golden.py`` only when a report format is
meant to change.  The harvests at k = 5 and 6 are pinned by the sha1 of
their stdout instead (DIGESTS).
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from trinolab.cli import main

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden") / "cli_grid.json"

GRID = (
    [("check-trinomial", "--k", str(k), "--family", str(f), "--l", "2",
      "--format", "json") for k in (1, 2, 3) for f in (1, 2, 3)]
    + [("count-roots", "--k", str(k), "--family", str(f), "--t", "all",
        "--format", "csv") for k in (1, 2, 3) for f in (1, 2, 3)]
    + [("check-g", "--k", str(k), "--family", str(f), "--format", "json")
       for k in (1, 2, 3, 4) for f in (1, 2, 3)]
    + [("sweep", "--family", str(f), "--k", "1,2,3", "--l", "0,1,2,3,4,5,6",
        "--format", "csv") for f in (1, 2, 3)]
    + [("field-info", "--k", str(k), "--format", "json") for k in (1, 2, 3, 4)]
    + [("mu", "--k", "1", "--d", "4", "--format", "json"),
       ("mu", "--k", "2", "--d", "10", "--format", "json")]
    + [("factors", "--k", str(k), "--family", str(f), "--t", "1",
        "--format", "json") for k in (1, 2, 3, 4) for f in (1, 2, 3)]
    # a pure power, repeated roots, and (x - 1)^6, whose derivative is zero
    + [("factors", "--k", "1", "--poly", poly, "--format", "json")
       for poly in ("0,0,0,0,0,1", "3,2,2,4,1", "1,0,0,1,0,0,1")]
    + [("lemma-verify", "--k", str(k), "--family", str(f), "--format", "json")
       for k in (1, 2, 3) for f in (2, 3)]
    + [("uv-scan", "--k", str(k), "--format", "json") for k in (1, 2, 3, 4)]
    # sweep error rows: a wrong-degree modulus, --max-k, k out of range, a
    # reducible modulus, and a modulus that is trimmed at k = 1 only
    + [("sweep", "--family", "2", "--k", "1,2", "--l", "1,2,3",
        "--modulus", "2,1,1", "--format", "csv"),
       ("sweep", "--family", "3", "--k", "2,4", "--l", "2,3", "--max-k", "3",
        "--format", "json"),
       ("sweep", "--family", "1", "--k", "0,1,7", "--l", "0,2", "--format", "csv"),
       ("sweep", "--family", "2", "--k", "1", "--l", "1", "--modulus", "1,1,1",
        "--format", "text"),
       ("sweep", "--family", "2", "--k", "1,2", "--l", "2", "--modulus",
        "1,0,1,0", "--format", "json")]
)


# beyond the grid: sha1 of the default (text) stdout of the harvests at k = 5
# and 6, too large to store whole; each exits 0
DIGESTS = {
    ("lemma-verify", "--k", "5", "--family", "2"):
        "4bbda13e377c3fbfb248b16ac37fb574b3da0e79",
    ("lemma-verify", "--k", "5", "--family", "3"):
        "406a3555cac2cc954b1ef0b06bb95086da2d4e79",
    ("lemma-verify", "--k", "6", "--family", "2"):
        "cd32e4d177332c73a4bb87a13eef8ccba314b8fc",
    ("lemma-verify", "--k", "6", "--family", "3"):
        "dd43d23e6e5170026b4bdee5afbedd80ea2f9751",
    ("uv-scan", "--k", "5"): "7f22b8eca248eed065cfe46ee84747a90b00132c",
    ("uv-scan", "--k", "6"): "04e0d715625ed00393c1d0cf7b5aa94a764bda00",
}


def _run(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return {"exit": code, "stdout": buf.getvalue()}


def _load() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_the_grid():
    assert sorted(_load()) == sorted(" ".join(argv) for argv in GRID)


@pytest.mark.parametrize("argv", GRID, ids=" ".join)
def test_cli_output_matches_golden(argv):
    assert _run(argv) == _load()[" ".join(argv)]


@pytest.mark.parametrize("argv", DIGESTS, ids=" ".join)
def test_cli_output_matches_digest(argv):
    result = _run(argv)
    assert result["exit"] == 0
    assert hashlib.sha1(result["stdout"].encode()).hexdigest() == DIGESTS[argv]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    goldens = {" ".join(argv): _run(argv) for argv in GRID}
    GOLDEN_PATH.write_text(json.dumps(goldens, sort_keys=True, indent=1) + "\n",
                           encoding="utf-8")
