"""Every named test scenario, and the config each name stands for.

A name is a family and its arguments, joined by "/". ``config(name)``
returns a fresh dict that ``ScenarioConfig.from_dict`` and
``shardbft run --config`` accept:

- ``suite1/I``: the I-th run (I = 0..199) of the criterion-1 grid over
  topology x shard count x adversary kind, which
  `tests/test_acceptance.py` runs.
- ``draw/R/I``: the I-th scenario the randomized gate draws from
  ``random.Random(R)``; tier-1 runs ``draw/20261018/0`` to ``99``.
- ``grid/S/I``: the I-th scenario drawn from ``random.Random(S)`` around
  `configs/censorship.json`; ``grid/20261018/0`` to ``39`` are pinned by one
  digest in `tests/test_regression.py`.
- ``pinned/NAME``: the regression scenarios whose run artifacts
  `tests/test_regression.py` pins by digest.
- ``perfbench/W/SEED``: perfbench's workload W at simulator seed SEED.
- ``repro/NAME``: ROADMAP items 1 and 2's repros that no generator index
  names.

    python3 tests/repro.py draw/8/574   # print a config, run it, name its first violation
"""

from __future__ import annotations

import copy
import json
import random
import sys
from functools import cache
from pathlib import Path

from shardbft.behaviors import BEHAVIOR_KINDS, CENSOR_TX, CRASH
from shardbft.sim.scenario import ScenarioConfig

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def config(name: str) -> dict:
    """A fresh config dict for ``name``; KeyError if no family has it."""
    family, *args = name.split("/")
    if family == "suite1":
        (i,) = args
        return suite1(int(i))
    if family in GENERATORS:
        seed, i = map(int, args)
        return copy.deepcopy(_nth(GENERATORS[family], seed, i))
    if family == "pinned":
        return PINNED[args[0]]()
    if family == "repro":
        return REPROS[args[0]]()
    if family == "perfbench":
        workload, seed = args
        return workloads()[workload].scenario(int(seed))
    raise KeyError(name)


def load(name: str) -> ScenarioConfig:
    return ScenarioConfig.from_dict(config(name))


def _shipped(name: str) -> dict:
    return json.loads((CONFIGS / f"{name}.json").read_text())


def workloads() -> dict:
    """perfbench's workloads by name, read without editing perfbench."""
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench.workloads import BY_NAME

    return BY_NAME


# --- suite1: the criterion-1 grid ----------------------------------------------

TOPOLOGIES = [(4, 1), (7, 2)]
SHARD_COUNTS = [1, 2, 4]
ADVERSARY_KINDS = ["none", "crash", "censor_tx", "inject_bogus", "withhold_bas", "equivocate_batch"]


def _adversaries(kind: str, f: int) -> list[dict]:
    if kind == "none":
        return []
    if kind == "crash":
        out = [{"party": 0, "kind": "crash", "crash_at": 0.25}]
        if f >= 2:
            out.append({"party": 1, "kind": "crash", "crash_at": 0.45})
        return out
    if kind == "equivocate_batch":
        out = [{"party": 0, "kind": "equivocate_batch"}]
        if f >= 2:
            out.append({"party": 1, "kind": "withhold_bas"})
        return out
    if kind == "censor_tx":
        return [{"party": p, "kind": "censor_tx", "censor_clients": [0]} for p in range(f)]
    return [{"party": p, "kind": kind} for p in range(f)]


def suite1(i: int) -> dict:
    combos = [(topo, shards, kind) for topo in TOPOLOGIES for shards in SHARD_COUNTS for kind in ADVERSARY_KINDS]
    (n, f), shards, kind = combos[i % len(combos)]
    return {
        "parties": n,
        "faults": f,
        "shards": shards,
        "seed": 1000 + i,
        "clients": 4,
        "tx_rate": 100.0,
        "tx_size": 32,
        "duration": 0.6,
        "delta": 0.2,
        "tob_delay_bound": 0.3,
        "latency": {"base": 0.002, "jitter": 0.008},
        "protocol": {
            "max_batch_size": 50,
            "max_batch_latency": 0.1,
            "round_interval": 0.02,
            "t_forward": 0.3,
            "t_complain": 0.3,
            "bucket_period": 0.05,
        },
        "drain": 20.0,
        "adversaries": _adversaries(kind, f),
    }


# --- draw and grid: seeded generators --------------------------------------------


def _faults(rng: random.Random) -> dict:
    """N = 3F+1 for F = 1 or 2, and 0-F adversaries of any kind at
    distinct parties: a crash at 0, 0.25 or 0.5 s, a censor of one of the
    4 clients."""
    n, f = rng.choice(((4, 1), (7, 2)))
    adversaries = []
    for party in rng.sample(range(n), rng.randint(0, f)):
        spec = {"party": party, "kind": rng.choice(BEHAVIOR_KINDS)}
        if spec["kind"] == CRASH:
            spec["crash_at"] = rng.choice((0.0, 0.25, 0.5))
        elif spec["kind"] == CENSOR_TX:
            spec["censor_clients"] = [rng.randrange(4)]
        adversaries.append(spec)
    return {"parties": n, "faults": f, "adversaries": adversaries}


def draw(rng: random.Random) -> dict:
    """One scenario of the randomized gate: ``suite1/0`` with ``_faults``,
    1-6 shards, a random seed, rate and GST."""
    return dict(
        suite1(0),
        **_faults(rng),
        shards=rng.randint(1, 6),
        seed=rng.randrange(1 << 20),
        tx_rate=rng.choice([50, 100, 200, 400]),
        gst=rng.choice([0, 0.2, 0.5, 1.0, 1.5]),
    )


def grid(rng: random.Random) -> dict:
    """One scenario around `configs/censorship.json`: ``_faults``, 1-4
    shards, a random seed, rate, duration and GST."""
    return dict(
        _shipped("censorship"),
        **_faults(rng),
        shards=rng.randint(1, 4),
        seed=rng.randrange(1 << 20),
        tx_rate=rng.choice((100, 200, 400)),
        duration=rng.choice((1, 2)),
        gst=rng.choice((0, 0.5)),
        drain=5,
    )


GENERATORS = {"draw": draw, "grid": grid}


@cache
def _drawn(generator, seed: int) -> tuple[random.Random, list[dict]]:
    return random.Random(seed), []


def _nth(generator, seed: int, i: int) -> dict:
    """The ``i``-th scenario ``generator`` draws from ``random.Random(seed)``,
    drawing each one once per process."""
    rng, docs = _drawn(generator, seed)
    while len(docs) <= i:
        docs.append(generator(rng))
    return docs[i]


# --- pinned: the scenarios of the golden digests -----------------------------------


def _adversarial_short(adversaries: list, **overrides) -> dict:
    # `configs/censorship.json` at N=7, F=2 and k=2, 200 tx/s for 1 s.
    doc = dict(_shipped("censorship"), parties=7, faults=2, shards=2, duration=1.0, tx_rate=200, seed=13)
    return dict(doc, adversaries=adversaries, **overrides)


PINNED = {
    "baseline": lambda: _shipped("baseline"),
    "censorship": lambda: _shipped("censorship"),
    "failover": lambda: _shipped("failover"),
    "ed25519_short": lambda: dict(_shipped("baseline"), scheme="standard_signature", duration=0.5, tx_rate=100.0),
    # Same-slot keys of an equivocator, term changes and the pre-GST delay
    # branch: the ordering paths the shipped configs do not reach.
    "ordering_short": lambda: _adversarial_short(
        [{"party": 0, "kind": "censor_tx", "censor_clients": [0]}, {"party": 1, "kind": "equivocate_batch"}],
        shards=3,
        gst=0.5,
        seed=11,
    ),
    # Every arrival is acked after `duration`, so goal checks run while
    # client arrivals are still held back from the event heap.
    "late_gst": lambda: dict(_shipped("baseline"), duration=0.3, gst=0.6, tx_rate=1000),
    # Bogus batches and a false complaint: two term changes and the validity check.
    "bogus_short": lambda: _adversarial_short(
        [{"party": 0, "kind": "inject_bogus", "bogus_fraction": 0.5}, {"party": 1, "kind": "false_complaint"}]
    ),
    "withhold_short": lambda: _adversarial_short(
        [{"party": 1, "kind": "withhold_bas"}, {"party": 2, "kind": "silent_secondary"}]
    ),
}


# --- repro: ROADMAP items 1 and 2's repros -------------------------------------------


def _loss(seed: int, shards: int, tx_rate: float, kind: str) -> dict:
    # Item 1's loss family: suite1/0 at N=4, F=1 and gst 1.5, one adversary at party 1.
    adversaries = [{"party": 1, "kind": kind}]
    return dict(suite1(0), shards=shards, seed=seed, tx_rate=tx_rate, gst=1.5, adversaries=adversaries)


REPROS = {
    "loss-58667": lambda: _loss(58667, 2, 100.0, "equivocate_batch"),
    "loss-676174": lambda: _loss(676174, 5, 200.0, "inject_bogus"),
    # Item 1's mechanism (ii): N=4, k=1 and inject_bogus at party 0, 6 txs.
    "tiny": lambda: dict(suite1(3), seed=0, tx_rate=20.0, duration=0.3),
    # Item 2(c): perfbench's censor workload at seed 1 as it stood when this
    # repro was written, with an equivocating primary in place of the censor.
    "lone-equivocator": lambda: dict(
        _shipped("censorship"),
        parties=7,
        faults=2,
        shards=3,
        seed=1,
        tx_rate=300.0,
        duration=10.0,
        latency={"base": 0.002, "jitter": 0.01},
        protocol=dict(_shipped("censorship")["protocol"], max_batch_size=10, t_forward=0.4, t_complain=0.4),
        adversaries=[{"party": 0, "kind": "equivocate_batch"}],
    ),
}
