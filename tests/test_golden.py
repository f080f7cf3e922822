"""Golden ledgers: fast seeded runs rerun and compared byte for byte.

`tests/golden/<name>.jsonl` holds the ledger rows `sqgci run` writes
for each config below, and `tests/golden/ledger_sha256.json` the
sha256 of each row, the digests `perfbench/run.py` prints as
`ledger_sha256`. A change that moves values on purpose regenerates
both with `python tests/golden/regen.py` in the same commit.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib

import pytest

from sqgci.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

LADDER = ("lambda0 = 4\nb = 1.35\nbeta = 0.25\nnu = {nu}\ngamma = 1.0\n"
          "steps = 2\ngrid_cap = 1024\nbase = {base}\nseed = 0\n")

# name -> config: the two-step lambda0 = 4 ladder for nu in {0, 1} on
# both bases, and the seed-0 lambda1 = 96 step on a 2048 grid (gate 4)
CONFIGS = {
    **{f"lambda0_4_nu{nu}_{base}": LADDER.format(nu=float(nu), base=base)
       for nu in (0, 1) for base in ("zero", "synthetic")},
    "lambda1_96_seed0": (f"lambda0 = 2\nb = {math.log2(96)!r}\nbeta = 0.25\nnu = 0.0\n"
                         "gamma = 1.0\nsteps = 1\ngrid_cap = 2048\nbase = synthetic\n"
                         "seed = 0\n"),
}


def row_digest(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()


def ledger_lines(name: str, tmp_dir: pathlib.Path) -> list:
    """The ledger rows of a `sqgci run` of config `name`, run in tmp_dir."""
    cfg = tmp_dir / f"{name}.cfg"
    cfg.write_text(CONFIGS[name] + "emit = ledger\n", encoding="utf-8")
    out = tmp_dir / name
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    return (out / "ledger.jsonl").read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_ledger_rows_equal_the_golden_rows(name, tmp_path):
    want = (GOLDEN / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
    digests = json.loads((GOLDEN / "ledger_sha256.json").read_text(encoding="utf-8"))[name]
    assert [row_digest(line) for line in want] == digests
    got = ledger_lines(name, tmp_path)
    assert len(got) == len(want)
    for n, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"row {n} moved"


def test_the_golden_files_name_every_config():
    digests = json.loads((GOLDEN / "ledger_sha256.json").read_text(encoding="utf-8"))
    assert sorted(digests) == sorted(CONFIGS)
    assert sorted(p.stem for p in GOLDEN.glob("*.jsonl")) == sorted(CONFIGS)
