"""Print the index of each generated scenario whose correct batchers fork,
to count ROADMAP item 1's forks over many draws.

Scenario ``i`` is the ``i``-th ``draw`` (`tests/test_acceptance.py`) from
``random.Random(SEED)``. A scenario forks when ``batcher_forks``
(`tests/helpers.py`) finds one at run end: two correct batchers of a shard
hold batches of different terms at a seq up to the shard's highest
thresholded one. Each forked index prints on its own line, and the last
line sums them up:

    python3 tests/fork_sweep.py 7 1500
    python3 tests/fork_sweep.py 20261018 100   # tier-1's draws

pytest does not collect this file; 1,500 draws take about half a minute on
one core.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "src", ROOT / "tests"):
    sys.path.insert(0, str(path))

from helpers import batcher_forks  # noqa: E402
from shardbft.sim.runner import _Runner  # noqa: E402
from shardbft.sim.scenario import ScenarioConfig  # noqa: E402
from test_acceptance import draw  # noqa: E402


def forked_draws(seed: int, count: int):
    """Yield the index of each of the first ``count`` draws that forks."""
    rng = random.Random(seed)
    for i in range(count):
        cfg = ScenarioConfig.from_dict(draw(rng))
        runner = _Runner(cfg)
        runner.run()
        if batcher_forks(runner, cfg):
            yield i


def main(argv: list[str]) -> None:
    seed, count = map(int, argv)
    forked = 0
    for i in forked_draws(seed, count):
        print(i, flush=True)
        forked += 1
    print(f"{forked} of {count} draws fork")


if __name__ == "__main__":
    main(sys.argv[1:])
