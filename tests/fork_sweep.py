"""Print the index of each generated scenario whose correct batchers fork,
to count ROADMAP item 1's forks over many draws.

Scenario ``i`` is the ``i``-th ``draw`` (`tests/test_acceptance.py`) from
``random.Random(SEED)``. A scenario forks when ``batcher_forks``
(`tests/helpers.py`) finds one at run end: two correct batchers of a shard
hold batches of different terms at a seq up to the shard's highest
thresholded one. Each forked index prints on its own line, and the last
line sums them up, together with the draws in which
``deposed_correct_primaries`` finds a correct primary deposed after
GST + Delta:

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

from helpers import batcher_forks, deposed_correct_primaries  # noqa: E402
from shardbft.sim.runner import _Runner  # noqa: E402
from shardbft.sim.scenario import ScenarioConfig  # noqa: E402
from test_acceptance import draw  # noqa: E402


def _runs(seed: int, count: int):
    """Yield (index, finished runner, config) for each of the first ``count`` draws."""
    rng = random.Random(seed)
    for i in range(count):
        cfg = ScenarioConfig.from_dict(draw(rng))
        runner = _Runner(cfg)
        runner.run()
        yield i, runner, cfg


def forked_draws(seed: int, count: int):
    """Yield the index of each of the first ``count`` draws that forks."""
    return (i for i, runner, cfg in _runs(seed, count) if batcher_forks(runner, cfg))


def main(argv: list[str]) -> None:
    seed, count = map(int, argv)
    forked = deposed = 0
    for i, runner, cfg in _runs(seed, count):
        if batcher_forks(runner, cfg):
            print(i, flush=True)
            forked += 1
        deposed += bool(deposed_correct_primaries(runner, cfg))
    print(f"{forked} of {count} draws fork; {deposed} depose a correct primary after GST + Delta")


if __name__ == "__main__":
    main(sys.argv[1:])
