"""Print one `report.json` sha256 per scenario, to compare two checkouts.

The scenarios are the 600 of ``random_grid(s, 40)`` for s = 1..15, every
perfbench workload's scenario seeds at benchmark seed 505, and the pinned
scenarios of `tests/test_regression.py`. A change that must keep report
bytes prints the same lines as its parent:

    python3 tests/byte_sweep.py > after.txt   # in each checkout
    diff before.txt after.txt

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
        print(name, hashlib.sha256(report_to_json(report).encode()).hexdigest(), flush=True)


if __name__ == "__main__":
    main()
