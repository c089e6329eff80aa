"""Print one `report.json` sha256 per scenario, with its verdicts, to
compare two checkouts.

The scenarios are the 600 of ``random_grid(s, 40)`` for s = 1..15, every
perfbench workload's scenario seeds at benchmark seed 505, and the pinned
scenarios of `tests/test_regression.py`. Each line holds the scenario's
name, the sha256, ``commits=`` with a second sha256 over every tx's
``(first_commit_us, last_commit_us)``, ``checks=pass`` (or ``checks=FAIL:``
and the names of the failed checks) and ``quiescent=``. A change that must
keep report bytes prints the same lines as its parent; one that moves bytes
on purpose shows its verdict flips in the same diff:

    python3 tests/byte_sweep.py > after.txt   # in each checkout
    diff before.txt after.txt

A change that moves only acknowledgements keeps every ``commits=`` column:

    diff <(cut -d' ' -f1,3 before.txt) <(cut -d' ' -f1,3 after.txt)

pytest does not collect this file; one sweep takes about a minute on one core.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "src", ROOT / "tests", ROOT):
    sys.path.insert(0, str(path))

from perfbench.workloads import BY_NAME  # noqa: E402
from shardbft.sim.report import report_to_json  # noqa: E402
from shardbft.sim.runner import run_scenario  # noqa: E402
from shardbft.sim.scenario import ScenarioConfig  # noqa: E402
from test_regression import SCENARIOS, random_grid  # noqa: E402

BENCH_SEED = 505


def scenarios() -> list[tuple[str, dict]]:
    out = []
    for grid_seed in range(1, 16):
        out += [(f"grid/{grid_seed}/{i}", doc) for i, doc in enumerate(random_grid(grid_seed, 40))]
    for name, workload in sorted(BY_NAME.items()):
        out += [(f"perfbench/{name}/{seed}", workload.scenario(seed)) for seed in workload.scenario_seeds(BENCH_SEED)]
    out += [(f"pinned/{name}", SCENARIOS[name]()) for name in sorted(SCENARIOS)]
    return out


def main() -> None:
    for name, doc in scenarios():
        report = run_scenario(ScenarioConfig.from_dict(doc))
        digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
        times = [(r.first_commit_us, r.last_commit_us) for r in report.tx_records]
        commits = hashlib.sha256(repr(times).encode()).hexdigest()
        failed = ",".join(check for check, entry in sorted(report.checks.items()) if not entry["pass"])
        checks = f"FAIL:{failed}" if failed else "pass"
        print(name, digest, f"commits={commits}", f"checks={checks}", f"quiescent={report.quiescent}", flush=True)


if __name__ == "__main__":
    main()
