"""Print a named scenario's config as JSON, then run it with every item-16
oracle, and name its first violation.

NAME is any name of `tests/families.py`, such as ``draw/8/574`` or
``repro/tiny``. The config goes to stdout, in the JSON ``shardbft run
--config`` reads; the verdict goes to stderr: the earliest violation
(assembler prefix, batcher agreement or a correct primary deposed after
GST + Delta), named by the delivery that made it visible, the report
checks that fail, and quiescence. The exit status is 1 if any of them
fails:

    python3 tests/repro.py repro/tiny > tiny.json
    shardbft run --config tiny.json --out out/

pytest does not collect this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "src", ROOT / "tests"):
    sys.path.insert(0, str(path))

from families import config  # noqa: E402
from helpers import checked_run  # noqa: E402
from shardbft.sim.scenario import ScenarioConfig  # noqa: E402


def main(argv: list[str]) -> int:
    (name,) = argv
    doc = config(name)
    print(json.dumps(doc, indent=2))
    verdict = checked_run(ScenarioConfig.from_dict(doc), fold=True)
    failed = [check for check, entry in sorted(verdict.checks.items()) if not entry["pass"]]
    print(f"first violation: {verdict.first or 'none'}", file=sys.stderr)
    print(f"failed checks: {', '.join(failed) or 'none'}", file=sys.stderr)
    print(f"quiescent: {verdict.quiescent}", file=sys.stderr)
    return int(bool(verdict.first or failed or not verdict.quiescent))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
