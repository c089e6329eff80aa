"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line. Everything here is seeded and deterministic."""

import json
import math
import random
import time

import numpy as np
import pytest

from shardbft.batcher import required_sample_size, sample_verify
from shardbft.behaviors import BEHAVIOR_KINDS
from shardbft.cli import main as cli_main
from shardbft.consensus import filter_event, process_round
from shardbft.core import (
    Batch,
    BatchAttestationShare,
    BatchKey,
    Transaction,
    sha256,
    u64,
)
from shardbft.crypto import Signature, keygen
from shardbft.assembler import read_ledger, verify_ledger_blocks, write_ledger
from shardbft.sim.checks import check_censorship_bound
from shardbft.sim.report import report_to_json
from shardbft.sim.runner import _Runner, run_scenario
from shardbft.sim.scenario import ScenarioConfig

from helpers import as_pending, batcher_forks, pending_oracle

US = 1_000_000


def _verdict(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)
    return ok


# --------------------------------------------------------------------------
# Suite-1 grid: 200 seeded runs over topology x shards x adversary.

TOPOLOGIES = [(4, 1), (7, 2)]
SHARD_COUNTS = [1, 2, 4]
ADVERSARY_KINDS = ["none", "crash", "censor_tx", "inject_bogus", "withhold_bas", "equivocate_batch"]


def _adversaries(kind, f):
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


def _grid_config(i):
    combos = [
        (topo, shards, kind)
        for topo in TOPOLOGIES
        for shards in SHARD_COUNTS
        for kind in ADVERSARY_KINDS
    ]
    (n, f), shards, kind = combos[i % len(combos)]
    return ScenarioConfig.from_dict(
        {
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
    )


def draw(rng) -> dict:
    """One scenario of the randomized gate: the grid config at a random
    N = 3F+1, shard count, seed, rate and GST, with up to F adversaries of
    any kind at distinct parties."""
    n, f = rng.choice([(4, 1), (7, 2)])
    advs = []
    for p in rng.sample(range(n), rng.randint(0, f)):
        kind = rng.choice(BEHAVIOR_KINDS)
        a = {"party": p, "kind": kind}
        if kind == "crash":
            a["crash_at"] = rng.choice([0, 0.25, 0.5])
        if kind == "censor_tx":
            a["censor_clients"] = [rng.randrange(4)]
        advs.append(a)
    d = _grid_config(0).to_dict()
    d.update(
        parties=n,
        faults=f,
        adversaries=advs,
        shards=rng.randint(1, 6),
        seed=rng.randrange(1 << 20),
        tx_rate=rng.choice([50, 100, 200, 400]),
        gst=rng.choice([0, 0.2, 0.5, 1.0, 1.5]),
    )
    return d


def _leftover_state(runner, cfg) -> list[str]:
    """What a correct party's header path still holds once its run ends: an
    unpublished header, a buffered share, a buffered or fetched header, or
    an index entry for a slot of an appended block."""
    out = []
    for p in cfg.correct_parties():
        consensus, assembler = runner.consensus[p], runner.assemblers[p]
        appended = {key.slot() for block in assembler.ledger for key in block.header.batch_digests}
        for name, left in (
            ("headers", consensus.headers),
            ("share_buffer", consensus.share_buffer),
            ("header_buffer", assembler.header_buffer),
            ("fetching", assembler.fetching),
            ("index", appended.intersection(assembler.index)),
        ):
            if left:
                out.append(f"party {p} {name}: {len(left)}")
    return out


@pytest.fixture(scope="module")
def suite1_runs():
    start = time.time()
    runs, leftovers = [], {}
    for i in range(200):
        cfg = _grid_config(i)
        runner = _Runner(cfg)
        runs.append((cfg, runner.run()))
        leftovers[cfg.seed] = _leftover_state(runner, cfg)
    return runs, time.time() - start, leftovers


@pytest.fixture(scope="module")
def suite1(suite1_runs):
    runs, elapsed, _ = suite1_runs
    return runs, elapsed


def test_criterion_1_agreement_suite(suite1):
    runs, elapsed = suite1
    failures = [
        (r.config["seed"], r.checks["agreement"])
        for _, r in runs
        if not r.checks["agreement"]["pass"]
    ]
    ok = not failures and elapsed < 300
    assert _verdict(
        1,
        "agreement 200-run suite",
        ok,
        f"{len(runs)} runs, {elapsed:.1f}s wall, {len(failures)} agreement failures",
    )
    assert all(r.quiescent for _, r in runs)


def test_no_slot_is_headed_twice(suite1):
    # A replayed share that reopened a headed slot would give the slot a
    # second header entry in the reference ledger.
    runs, _ = suite1
    twice = []
    for cfg, report in runs:
        blocks = report.ledgers[min(report.ledgers)]
        slots = [key.slot() for block in blocks for key in block.header.batch_digests]
        if len(slots) != len(set(slots)):
            twice.append(cfg.seed)
    assert not twice, twice


def test_header_path_state_lives_only_until_its_decision(suite1_runs):
    # Consensus drops a header once it publishes it, and appended blocks
    # take their slots out of the assembler's index.
    _, _, leftovers = suite1_runs
    left = {seed: entries for seed, entries in leftovers.items() if entries}
    assert not left, left


def test_criterion_2_termination_no_loss(suite1):
    runs, _ = suite1
    lost = 0
    for _, report in runs:
        committed = [
            {tx.tx_id for block in ledger for batch in block.batches for tx in batch.txs}
            for ledger in report.ledgers.values()
        ]
        for record in report.tx_records:
            if record.ack_quorum_us is None:
                continue
            if any(record.tx_id not in tx_ids for tx_ids in committed):
                lost += 1
        if not report.checks["no_loss_no_unbounded_dup"]["pass"]:
            lost += 1
    ok = lost == 0
    acked = sum(
        1 for _, r in runs for t in r.tx_records if t.ack_quorum_us is not None
    )
    assert _verdict(2, "termination/no-loss", ok, f"{acked} quorum-acked txs, {lost} losses")


_FORKED_AT_A_TERM_CHANGE = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="correct parties' batcher ledgers fork at a term change and acked txs are lost; "
    "ROADMAP item 1's one agreed shard sequence closes it",
)


@pytest.mark.parametrize(
    "seed, shards, tx_rate, kind",
    [
        pytest.param(58667, 2, 100.0, "equivocate_batch", marks=_FORKED_AT_A_TERM_CHANGE, id="58667"),
        pytest.param(676174, 5, 200.0, "inject_bogus", marks=_FORKED_AT_A_TERM_CHANGE, id="676174"),
    ],
)
def test_a_term_change_loses_no_acked_tx(seed, shards, tx_rate, kind):
    # ROADMAP item 1's loss repros, built as its scenario generator builds
    # them: the grid config at N=4, F=1 and gst 1.5, one adversary at party
    # 1. A moved delay stream shows as an XPASS.
    doc = _grid_config(0).to_dict()
    doc.update(
        parties=4,
        faults=1,
        shards=shards,
        seed=seed,
        tx_rate=tx_rate,
        gst=1.5,
        adversaries=[{"party": 1, "kind": kind}],
    )
    report = run_scenario(ScenarioConfig.from_dict(doc))
    check = report.checks["no_loss_no_unbounded_dup"]
    assert check["pass"], check
    assert report.quiescent


_BOUND_FROM_SUBMIT = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="every tx is submitted before a GST of 1.0 s or more, and the censorship bound is "
    "measured from submission, not from GST; ROADMAP item 2(b)",
)
_BOUND_FROM_SUBMIT_DRAWS = {16, 44}  # each a censor_tx at N=4


def _generated_draws(count: int, mark, marked: set[int]) -> list:
    rng = random.Random(20261018)
    return [
        pytest.param(doc, marks=mark if i in marked else (), id=str(i))
        for i, doc in enumerate(draw(rng) for _ in range(count))
    ]


@pytest.mark.parametrize("doc", _generated_draws(100, _BOUND_FROM_SUBMIT, _BOUND_FROM_SUBMIT_DRAWS))
def test_a_generated_scenario_passes_every_check(doc):
    report = run_scenario(ScenarioConfig.from_dict(doc))
    failed = {name: check for name, check in report.checks.items() if not check["pass"]}
    bound = failed.pop("censorship_bound", None)
    # Only the bound raises AssertionError, so a pinned draw that fails
    # anything else is reported as a failure, not as its xfail.
    if failed or not report.quiescent:
        pytest.fail(f"quiescent={report.quiescent}, failed checks: {failed}")
    assert bound is None, bound


_BATCHERS_FORK = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="two correct batchers of a shard hold batches of different terms at a seq up to the "
    "highest thresholded one; ROADMAP item 1's one agreed shard sequence closes it",
)
_BATCHERS_FORK_DRAWS = {
    2, 5, 7, 8, 10, 14, 20, 25, 32, 33, 41, 48, 49, 59, 62, 66, 68, 70, 73, 74, 79, 82, 87, 88, 90, 94, 99,
}


@pytest.mark.parametrize("doc", _generated_draws(100, _BATCHERS_FORK, _BATCHERS_FORK_DRAWS))
def test_correct_batchers_agree_up_to_the_thresholded_seq(doc):
    # ROADMAP item 16's batcher agreement, judged at run end over the same
    # draws as the test above. A fix shows as passes, a moved stream as an
    # XPASS or a failure.
    cfg = ScenarioConfig.from_dict(doc)
    runner = _Runner(cfg)
    runner.run()
    assert batcher_forks(runner, cfg) == []


@pytest.mark.parametrize("kind", ADVERSARY_KINDS)
@pytest.mark.parametrize("n, f", [(5, 1), (6, 1), (8, 2), (10, 3)])
def test_more_than_3f_plus_1_parties_pass_every_check(n, f, kind):
    # The grid config at N > 3F+1, where the quorum ceil((N+F+1)/2) is not
    # 2F+1, with no adversary or with F adversaries of one kind.
    extra = {"crash": {"crash_at": 0.25}, "censor_tx": {"censor_clients": [0]}}.get(kind, {})
    doc = _grid_config(0).to_dict()
    doc.update(
        parties=n,
        faults=f,
        shards=2,
        gst=0,
        adversaries=[] if kind == "none" else [{"party": p, "kind": kind, **extra} for p in range(f)],
    )
    report = run_scenario(ScenarioConfig.from_dict(doc))
    failed = {name: check for name, check in report.checks.items() if not check["pass"]}
    assert report.quiescent and not failed, failed


def test_criterion_3_censorship_bound():
    results = []
    for seed in range(50):
        cfg = ScenarioConfig.from_dict(
            {
                "parties": 4,
                "faults": 1,
                "shards": 2,
                "seed": 3000 + seed,
                "clients": 4,
                "tx_rate": 80.0,
                "tx_size": 32,
                "duration": 0.5,
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
                "adversaries": [{"party": 0, "kind": "censor_tx", "censor_clients": [0]}],
            }
        )
        report = run_scenario(cfg)
        check = report.checks["censorship_bound"]
        censored_committed = all(
            r.first_commit_us is not None for r in report.tx_records if r.censored
        )
        results.append((check["pass"] and censored_committed, check["worst_us"], check["bound_us"]))
    ok = all(r[0] for r in results)
    worst = max(r[1] for r in results)
    assert _verdict(
        3,
        "censorship bound F*T_censor + delta(Delta) + 2*Delta",
        ok,
        f"50 runs, worst {worst / US:.3f}s vs bound {results[0][2] / US:.3f}s",
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the assembler fetches only for the header at its ledger's height and asks its own "
    "batcher first, so each equivocated block waits a round trip and blocks queue; ROADMAP item 2(c)",
)
def test_a_lone_equivocator_keeps_the_censorship_bound():
    # The benchmark's censor workload with an equivocating primary in place
    # of the censor: no check enables the bound for this adversary kind.
    cfg = ScenarioConfig.from_dict(
        {
            "parties": 7,
            "faults": 2,
            "shards": 3,
            "seed": 1,
            "clients": 4,
            "tx_rate": 300.0,
            "tx_size": 64,
            "duration": 10.0,
            "gst": 0.0,
            "delta": 0.2,
            "tob_delay_bound": 0.3,
            "latency": {"base": 0.002, "jitter": 0.01},
            "scheme": "test_mac",
            "protocol": {
                "max_batch_size": 10,
                "max_batch_latency": 0.1,
                "min_propose_interval": 0.01,
                "bucket_period": 0.05,
                "t_forward": 0.4,
                "t_complain": 0.4,
                "epoch_length": 1.0,
                "epoch_window": 2,
                "alpha": 0.5,
                "p_fail": 9.313225746154785e-10,
                "round_interval": 0.02,
                "fetch_timeout": 0.25,
            },
            "drain": 20.0,
            "adversaries": [{"party": 0, "kind": "equivocate_batch"}],
        }
    )
    report = run_scenario(cfg)
    check = check_censorship_bound(report, cfg.censorship_bound_us())
    assert check["pass"], check


def test_criterion_4_sampling_math():
    p = 2.0**-30
    k_half = required_sample_size(0.5, p)
    k_34 = required_sample_size(0.75, p)
    k_95 = required_sample_size(0.95, p)
    values_ok = k_half == 30 and k_34 in (72, 73) and k_95 in (405, 406)

    # Monte Carlo over the sampling law: batch of 100 with the first half
    # invalid; a verification misses only when all K draws land on valid
    # indices.
    rng = np.random.default_rng(4321)
    draws = rng.integers(0, 100, size=(1_000_000, 30), dtype=np.uint8)
    misses_k30 = int(np.all(draws >= 50, axis=1).sum())
    k1 = rng.integers(0, 100, size=1_000_000, dtype=np.uint8)
    miss_rate_k1 = float((k1 >= 50).mean())
    sigma = math.sqrt(0.5 * 0.5 / 1_000_000)
    k1_ok = abs(miss_rate_k1 - 0.5) <= 3 * sigma

    # The real verification path agrees with the vectorized oracle.
    txs = tuple(Transaction(i, bytes([i % 250 + 1]), Signature("test_mac", b"")) for i in range(100))
    batch = Batch(0, 0, 0, 0, txs)
    is_valid = lambda tx: tx.client_id >= 50
    real_misses = sum(
        1 for s in range(10_000) if sample_verify(batch, 30, random.Random(s), is_valid) is None
    )
    analytic = 0.5**30
    ok = values_ok and misses_k30 == 0 and real_misses == 0 and k1_ok
    assert _verdict(
        4,
        "sampling math and Monte Carlo",
        ok,
        f"K={k_half}/{k_34}/{k_95}; 1e6 trials K=30 misses={misses_k30} (bound {analytic:.1e}); "
        f"K=1 miss rate {miss_rate_k1:.4f}",
    )


def _dummy_share(signer, seq, digest, shard=0, primary=0):
    return BatchAttestationShare(signer, BatchKey(seq, shard, digest, primary), 0, Signature("test_mac", b""))


def test_criterion_5_threshold_extraction_oracle():
    rng = random.Random(55555)
    digests = [sha256(b"digest" + bytes([i])) for i in range(3)]
    mismatches = 0
    dropped_seen = 0
    for _ in range(10_000):
        n_parties = rng.randint(1, 6)
        f = rng.randint(0, 2)
        universe = [
            (signer, seq, di, primary)
            for signer in range(n_parties)
            for seq in range(2)
            for di in range(2)
            for primary in range(2)
        ]
        rng.shuffle(universe)
        picked = universe[: rng.randint(0, min(8, len(universe)))]
        shares = [_dummy_share(s, seq, digests[di], primary=pr) for s, seq, di, pr in picked]
        split = rng.randint(0, len(shares))
        before, batch = shares[:split], shares[split:]
        pending = as_pending(before)
        winners = process_round(pending, batch, f)
        # Brute-force counter over the full multiset.
        counts = {}
        for share in shares:
            counts.setdefault(share.key, set()).add(share.signer)
        expected = {k for k, signers in counts.items() if len(signers) >= f + 1}
        # One winner per slot, first appearing first; every key of an
        # awarded slot leaves pending, every other share stays.
        expect_winners, dropped, survivors = pending_oracle(before, batch, f)
        rest = as_pending(survivors)
        awarded = {k.slot() for k in winners}
        if (
            winners != expect_winners
            or awarded != {k.slot() for k in expected}
            or pending != rest
            or list(pending) != list(rest)
            or any(k.slot() in awarded for k in pending)
        ):
            mismatches += 1
        dropped_seen += len(dropped)

    ok = mismatches == 0 and dropped_seen > 0
    assert _verdict(
        5,
        "threshold extraction vs brute force",
        ok,
        f"10000 instances, {mismatches} mismatches, {dropped_seen} keys of awarded slots dropped",
    )


def test_criterion_6_correct_primary_never_deposed():
    term_changes = 0
    runs = 0
    for n, f, seeds in ((4, 1, range(50)), (7, 2, range(50))):
        for seed in seeds:
            cfg = ScenarioConfig.from_dict(
                {
                    "parties": n,
                    "faults": f,
                    "shards": 1,
                    "seed": 6000 + seed,
                    "clients": 4,
                    "tx_rate": 75.0,
                    "tx_size": 32,
                    "duration": 0.4,
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
                    "drain": 10.0,
                    "adversaries": [
                        {"party": p, "kind": "false_complaint"} for p in range(1, f + 1)
                    ],
                }
            )
            report = run_scenario(cfg)
            runs += 1
            term_changes += len(report.term_changes)
            assert all(v["pass"] for v in report.checks.values())
    ok = term_changes == 0
    assert _verdict(
        6, "F complainers cannot depose a correct primary", ok, f"{runs} runs, {term_changes} term changes"
    )


def test_criterion_7_failover_duplication_contained():
    dup_runs = 0
    bad = 0
    for seed in range(40):
        cfg = ScenarioConfig.from_dict(
            {
                "parties": 4,
                "faults": 1,
                "shards": 1,
                "seed": seed,
                "clients": 4,
                "tx_count": 200,
                "tx_size": 32,
                "duration": 0.02,
                "delta": 0.2,
                "tob_delay_bound": 0.3,
                "latency": {"base": 0.002, "jitter": 0.01},
                "protocol": {
                    "max_batch_size": 20,
                    "max_batch_latency": 0.05,
                    "min_propose_interval": 0.01,
                    "round_interval": 0.02,
                    "t_forward": 0.2,
                    "t_complain": 0.2,
                    "bucket_period": 0.05,
                },
                "drain": 10.0,
                "adversaries": [
                    {"party": 0, "kind": "crash", "crash_at": 0.04 + (seed % 20) * 0.002}
                ],
            }
        )
        report = run_scenario(cfg)
        if not (report.quiescent and all(v["pass"] for v in report.checks.values())):
            bad += 1
            continue
        if report.duplicate_commits == 0:
            continue
        dup_runs += 1
        # Duplicates must be confined to transactions of an orphaned batch:
        # each duplicated tx has one committed copy in a batch of an
        # earlier term of its shard.
        ledger = report.ledgers[sorted(report.ledgers)[0]]
        final_term = {}
        occurrences = {}
        for block in ledger:
            for batch in block.batches:
                final_term[batch.shard] = max(final_term.get(batch.shard, 0), batch.term)
                for tx in batch.txs:
                    occurrences.setdefault(tx.tx_id, []).append((batch.shard, batch.term))
        for tx_id, occ in occurrences.items():
            if len(occ) < 2:
                continue
            shard = occ[0][0]
            if not any(term < final_term[shard] for _s, term in occ):
                bad += 1
    ok = bad == 0 and dup_runs > 0
    assert _verdict(
        7,
        "failover duplicates confined to the orphaned batch",
        ok,
        f"40 crash-timing runs, {dup_runs} with duplicates, {bad} violations",
    )


def test_criterion_8_dedup_and_gc(party_keys):
    # Half 1: a replayed stale attestation never yields a second header.
    from test_consensus import make_node, make_share, pubs

    node = make_node(party_keys, epoch_length=10, window=2)
    from shardbft import messages as msg
    from helpers import StubCtx

    ctx = StubCtx()
    original = [make_share(party_keys, s, 0, epoch=0) for s in (0, 1)]
    node.handle(msg.RoundDelivery(1, tuple(original)), ctx)
    headers_after_first = node.state.next_block_seq
    node.handle(msg.RoundDelivery(2, (make_share(party_keys, 0, 7, epoch=5),)), ctx)
    evicted = original[0].key.slot() not in node.state.dedup
    filt_ok, reason = filter_event(original[0], node.state, pubs(party_keys))
    node.handle(msg.RoundDelivery(3, tuple(original)), ctx)
    replay_ok = (
        headers_after_first == 1
        and evicted
        and not filt_ok
        and node.state.next_block_seq == 1  # the replay minted nothing
    )

    # Half 2: pending list does not grow over a 12-epoch steady run.
    cfg = ScenarioConfig.from_dict(
        {
            "parties": 4,
            "faults": 1,
            "shards": 1,
            "seed": 9,
            "clients": 4,
            "tx_rate": 200.0,
            "tx_size": 24,
            "duration": 6.0,
            "delta": 0.2,
            "tob_delay_bound": 0.3,
            "latency": {"base": 0.002, "jitter": 0.015},
            "protocol": {
                "max_batch_size": 25,
                "max_batch_latency": 0.05,
                "min_propose_interval": 0.005,
                "round_interval": 0.01,
                "t_forward": 0.5,
                "t_complain": 0.5,
                "bucket_period": 0.1,
                "epoch_length": 0.5,
                "epoch_window": 2,
            },
            "drain": 10.0,
        }
    )
    report = run_scenario(cfg)
    two_epochs = 2 * 500_000
    at_two = max((n for t, n in report.pending_series if t <= two_epochs), default=0)
    at_end = report.pending_series[-1][1]
    growth_ok = at_end <= at_two and all(v["pass"] for v in report.checks.values())
    ok = replay_ok and growth_ok
    assert _verdict(
        8,
        "stale replay blocked; pending list non-growth",
        ok,
        f"replay blocked={replay_ok}; pending {at_two} at 2 epochs vs {at_end} at 12",
    )


def test_criterion_9_determinism(tmp_path):
    configs = [
        _grid_config(0),  # fault free
        _grid_config(1),  # crash
        _grid_config(2),  # censorship
    ]
    mismatches = 0
    for cfg in configs:
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        if report_to_json(a) != report_to_json(b):
            mismatches += 1
            continue
        for party in a.ledgers:
            pa = tmp_path / f"a_{cfg.seed}_{party}.bin"
            pb = tmp_path / f"b_{cfg.seed}_{party}.bin"
            write_ledger(pa, a.ledgers[party])
            write_ledger(pb, b.ledgers[party])
            if pa.read_bytes() != pb.read_bytes():
                mismatches += 1
    ok = mismatches == 0
    assert _verdict(9, "byte-identical reruns", ok, f"{len(configs)} configs x 2 runs, {mismatches} mismatches")


def test_criterion_10_ledger_verification_round_trip(suite1, tmp_path):
    runs, _ = suite1
    verified = 0
    failures = 0
    sample_path = None
    sample_keys = None
    for idx, (cfg, report) in enumerate(runs):
        for party, blocks in sorted(report.ledgers.items()):
            path = tmp_path / "ledger.bin"
            write_ledger(path, blocks)
            loaded = read_ledger(path, cfg.scheme)
            party_keys = {
                p: keygen(sha256(b"party" + u64(cfg.seed) + u64(p)), cfg.scheme).public
                for p in range(cfg.n_parties)
            }
            ok, _seq, _reason = verify_ledger_blocks(loaded, party_keys, cfg.n_parties, cfg.f)
            verified += 1
            if not ok:
                failures += 1
            if sample_path is None and len(blocks) >= 3:
                sample_path = tmp_path / "sample_ledger.bin"
                write_ledger(sample_path, blocks)
                sample_keys = tmp_path / "sample_keys.json"
                sample_keys.write_text(
                    json.dumps(
                        {
                            "scheme": cfg.scheme,
                            "parties": cfg.n_parties,
                            "faults": cfg.f,
                            "party_keys": {str(p): k.hex() for p, k in party_keys.items()},
                        }
                    )
                )

    # CLI round trip on the sample, then 100 random single-byte tampers.
    assert sample_path is not None
    assert cli_main(["verify", "--ledger", str(sample_path), "--keys", str(sample_keys)]) == 0
    data = sample_path.read_bytes()
    rng = random.Random(1010)
    positions = rng.sample(range(len(data)), 100)
    tamper_failures = 0
    for pos in positions:
        mutated = bytearray(data)
        mutated[pos] ^= 1 << rng.randrange(8)
        bad_path = tmp_path / "tampered.bin"
        bad_path.write_bytes(bytes(mutated))
        code = cli_main(["verify", "--ledger", str(bad_path), "--keys", str(sample_keys)])
        if code != 1:
            tamper_failures += 1
    ok = failures == 0 and tamper_failures == 0
    assert _verdict(
        10,
        "ledger verification round trip",
        ok,
        f"{verified} ledgers verified, {failures} failures; 100 tampers, {tamper_failures} undetected",
    )


def test_criterion_11_shard_scaling_trend():
    throughput = {}
    for shards in (2, 8):
        cfg = ScenarioConfig.from_dict(
            {
                "parties": 4,
                "faults": 1,
                "shards": shards,
                "seed": 21,
                "clients": 8,
                "tx_rate": 8000.0,
                "tx_size": 16,
                "duration": 0.5,
                "delta": 0.2,
                "tob_delay_bound": 0.3,
                "latency": {"base": 0.002, "jitter": 0.008},
                "protocol": {
                    "max_batch_size": 100,
                    "max_batch_latency": 0.05,
                    "min_propose_interval": 0.05,
                    "round_interval": 0.02,
                    "t_forward": 1.0,
                    "t_complain": 1.0,
                    "bucket_period": 0.2,
                },
                "drain": 30.0,
            }
        )
        report = run_scenario(cfg)
        assert report.quiescent and all(v["pass"] for v in report.checks.values())
        window_us = 700_000
        within = [n for t, n in report.throughput_series if t <= window_us]
        throughput[shards] = within[-1] if within else 0
    trend_holds = throughput[8] >= throughput[2]
    # Reported, not gated: the direction mirrors horizontal scaling without
    # claiming absolute numbers.
    _verdict(
        11,
        "shard scaling trend (non-gating)",
        trend_holds,
        f"committed within 0.7s at saturation: 2 shards={throughput[2]}, 8 shards={throughput[8]}",
    )
