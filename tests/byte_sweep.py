"""Print one `report.json` sha256 per scenario, with its verdicts, to
compare two checkouts.

The scenarios are named in `tests/families.py`: the 600 of ``grid/S/I``
for S = 1..15 and I = 0..39, ``perfbench/W/SEED`` for every perfbench
workload's scenario seeds at benchmark seed 505, and every ``pinned/NAME``.
Each line holds the scenario's name, the sha256, ``commits=`` with a
second sha256 over every tx's ``(first_commit_us, last_commit_us)``,
``checks=pass`` (or ``checks=FAIL:`` and the names of the failed checks)
and ``quiescent=``. A change that must keep report bytes prints the same
lines as its parent; one that moves bytes on purpose shows its verdict
flips in the same diff:

    python3 tests/byte_sweep.py > after.txt   # in each checkout
    diff before.txt after.txt

A change that moves only acknowledgements keeps every ``commits=`` column:

    diff <(cut -d' ' -f1,3 before.txt) <(cut -d' ' -f1,3 after.txt)

pytest does not collect this file. The scenarios run in a process pool
with one worker per CPU in the affinity mask, and print in the order
above; one sweep takes about 25 s on two cores.
"""

from __future__ import annotations

import hashlib
import os
import sys
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "src", ROOT / "tests"):
    sys.path.insert(0, str(path))

from families import PINNED, load, workloads  # noqa: E402
from shardbft.sim.report import report_to_json  # noqa: E402
from shardbft.sim.runner import run_scenario  # noqa: E402

BENCH_SEED = 505


def scenarios() -> list[str]:
    names = [f"grid/{grid_seed}/{i}" for grid_seed in range(1, 16) for i in range(40)]
    for name, workload in sorted(workloads().items()):
        names += [f"perfbench/{name}/{seed}" for seed in workload.scenario_seeds(BENCH_SEED)]
    return names + [f"pinned/{name}" for name in sorted(PINNED)]


def line(name: str) -> str:
    report = run_scenario(load(name))
    digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
    times = [(r.first_commit_us, r.last_commit_us) for r in report.tx_records]
    commits = hashlib.sha256(repr(times).encode()).hexdigest()
    failed = ",".join(check for check, entry in sorted(report.checks.items()) if not entry["pass"])
    checks = f"FAIL:{failed}" if failed else "pass"
    return f"{name} {digest} commits={commits} checks={checks} quiescent={report.quiescent}"


def main() -> None:
    with get_context("spawn").Pool(len(os.sched_getaffinity(0))) as pool:
        for out in pool.imap(line, scenarios()):
            print(out, flush=True)


if __name__ == "__main__":
    main()
