"""Print the index of each generated scenario whose correct batchers fork,
to count ROADMAP item 1's forks over many draws.

Scenario ``i`` is ``draw/SEED/i`` (`tests/families.py`), run once by
``checked_draw`` (`tests/helpers.py`) with every item-16 oracle. A
scenario forks when two correct batchers of a shard hold batches of
different terms at a seq up to the shard's highest thresholded one. Each
forked index prints on its own line, next to the delivery that made its
first fork visible. The last line sums them up, together with the draws
in which a correct primary is deposed after GST + Delta and those in
which two correct assemblers' ledgers are not prefixes of one another:

    python3 tests/fork_sweep.py 7 1500
    python3 tests/fork_sweep.py 20261018 100   # tier-1's draws

pytest does not collect this file. The draws run in a process pool with
one worker per CPU in the affinity mask, and print in index order; 1,500
draws take about 20 s on two cores.
"""

from __future__ import annotations

import os
import sys
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "src", ROOT / "tests"):
    sys.path.insert(0, str(path))

from helpers import checked_draw  # noqa: E402


def forked_draws(seed: int, count: int):
    """Yield the index of each of the first ``count`` draws that forks."""
    return (i for i in range(count) if checked_draw(f"draw/{seed}/{i}").forks)


def main(argv: list[str]) -> None:
    seed, count = map(int, argv)
    forked = deposed = unprefixed = 0
    with get_context("spawn").Pool(len(os.sched_getaffinity(0))) as pool:
        verdicts = pool.imap(checked_draw, [f"draw/{seed}/{i}" for i in range(count)], chunksize=8)
        for i, verdict in enumerate(verdicts):
            if verdict.forks:
                print(i, next(iter(verdict.forks.values())), flush=True)
                forked += 1
            deposed += bool(verdict.deposed)
            unprefixed += bool(verdict.prefix)
    print(
        f"{forked} of {count} draws fork; {deposed} depose a correct primary after GST + Delta; "
        f"{unprefixed} break the assembler prefix"
    )


if __name__ == "__main__":
    main(sys.argv[1:])
