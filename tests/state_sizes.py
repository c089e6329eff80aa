"""Print the protocol state one party holds at the end of a run, to see
which structures grow with run length.

The run is ``suite1/23`` (`tests/families.py`), the criterion-1 grid's
N=7, F=2 run with ``equivocate_batch`` at party 0 and ``withhold_bas`` at
party 1, at k=3, 200 tx/s and seed 5. It runs once per duration (2, 8 and 32
virtual seconds by default) and prints one row per structure of party 3,
one column per duration:

    python3 tests/state_sizes.py            # 2 8 32
    python3 tests/state_sizes.py 2 8        # other durations

pytest does not collect this file; the three default runs take about 4 s on one core.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "src", ROOT / "tests"):
    sys.path.insert(0, str(path))

from families import config  # noqa: E402
from shardbft.sim.runner import _Runner  # noqa: E402
from shardbft.sim.scenario import ScenarioConfig  # noqa: E402

PARTY = 3
SHARD = 0


def scenario(duration: float) -> dict:
    return dict(config("suite1/23"), shards=3, seed=5, tx_rate=200.0, duration=duration)


def sizes(duration: float) -> dict[str, int]:
    runner = _Runner(ScenarioConfig.from_dict(scenario(duration)))
    runner.run()
    consensus = runner.consensus[PARTY]
    assembler = runner.assemblers[PARTY]
    batcher = runner.batchers[(PARTY, SHARD)]
    return {
        "consensus headers": len(consensus.headers),
        "consensus share_buffer": len(consensus.share_buffer),
        "consensus dedup": len(consensus.state.dedup),
        "consensus pending shares, peak": max((n for _t, n in consensus.pending_series), default=0),
        "assembler index": sum(map(len, assembler.index.values())),
        "assembler header_buffer": len(assembler.header_buffer),
        "assembler fetching": len(assembler.fetching),
        f"batcher persisted_ids (shard {SHARD})": len(batcher.persisted_ids),
        f"batcher ledger (shard {SHARD})": len(batcher.ledger),
        f"batcher thresholded (shard {SHARD})": len(batcher.thresholded),
    }


def main(argv: list[str]) -> None:
    durations = [float(a) for a in argv] or [2.0, 8.0, 32.0]
    columns = [sizes(duration) for duration in durations]
    print("| structure | " + " | ".join(f"{d:g} s" for d in durations) + " |")
    print("| --- |" + " --- |" * len(durations))
    for name in columns[0]:
        print(f"| {name} | " + " | ".join(f"{column[name]:,}" for column in columns) + " |")


if __name__ == "__main__":
    main(sys.argv[1:])
