"""Regenerate the golden ledgers that tests/test_golden.py compares.

    PYTHONPATH=src python tests/golden/regen.py

reruns every config of `test_golden.CONFIGS` and rewrites
`tests/golden/<name>.jsonl` and `tests/golden/ledger_sha256.json`.
It prints each digest that changed. Run it only in a change that moves
ledger values on purpose, and say in that change which keys moved.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import test_golden  # noqa: E402


def main() -> int:
    index = HERE / "ledger_sha256.json"
    old = json.loads(index.read_text(encoding="utf-8")) if index.exists() else {}
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(test_golden.CONFIGS):
            lines = test_golden.ledger_lines(name, pathlib.Path(tmp))
            (HERE / f"{name}.jsonl").write_text("".join(line + "\n" for line in lines),
                                                encoding="utf-8")
            digests[name] = [test_golden.row_digest(line) for line in lines]
            if digests[name] != old.get(name):
                print(f"{name}: {old.get(name)} -> {digests[name]}")
    index.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
