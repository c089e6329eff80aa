import json
import random
from collections import Counter
from pathlib import Path

import pytest

from shardbft import messages as msg
from shardbft.assembler import AssemblerNode
from shardbft.batcher import BatcherNode
from shardbft.consensus import (
    DROP_BAD_SIGNATURE,
    DROP_DUPLICATE,
    DROP_STALE_EPOCH,
    DROP_STALE_TERM,
    DROP_UNKNOWN_SHARD,
    ConsensusNode,
)
from shardbft.core import (
    Batch,
    BatchAttestationShare,
    Block,
    BlockHeader,
    ComplaintVote,
    ZERO_DIGEST,
    header_digest,
)
from shardbft.sim.checks import check_agreement
from shardbft.sim.report import report_to_json
from shardbft.sim import runner as sim_runner
from shardbft.router import RouterNode
from shardbft.sim.runner import _Runner, link_delay_sampler, run_scenario
from shardbft.sim.scenario import ConfigError, ScenarioConfig

from helpers import make_tx

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

BASE = {
    "parties": 4,
    "faults": 1,
    "shards": 2,
    "seed": 5,
    "clients": 4,
    "tx_rate": 100.0,
    "tx_size": 32,
    "duration": 1.0,
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
}


def _cfg(**over):
    d = dict(BASE)
    d.update(over)
    return ScenarioConfig.from_dict(d)


def _committed(report):
    return sum(1 for t in report.tx_records if t.first_commit_us is not None)


def test_fault_free_run_commits_everything_once():
    report = run_scenario(_cfg())
    assert report.quiescent
    assert _committed(report) == len(report.tx_records) == 100
    assert report.duplicate_commits == 0
    assert report.checks["agreement"]["pass"]
    assert report.checks["no_loss_no_unbounded_dup"]["pass"]
    assert all(r.commit_count == 1 for r in report.tx_records)
    digests = set(report.ledger_digests.values())
    assert len(digests) == 1  # identical ledgers at every correct party


def test_determinism_same_seed_identical_reports():
    a = run_scenario(_cfg(seed=9))
    b = run_scenario(_cfg(seed=9))
    assert report_to_json(a) == report_to_json(b)
    assert a.ledger_digests == b.ledger_digests


def test_different_seeds_differ():
    a = run_scenario(_cfg(seed=1))
    b = run_scenario(_cfg(seed=2))
    assert report_to_json(a) != report_to_json(b)


def test_config_rejects_insufficient_parties():
    with pytest.raises(ConfigError):
        _cfg(parties=3, faults=1)


def test_config_rejects_excess_adversaries():
    with pytest.raises(ConfigError):
        _cfg(adversaries=[{"party": 0, "kind": "crash"}, {"party": 1, "kind": "crash"}])


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({**BASE, "nonsense": 1})
    # A key the schema no longer has fails as cleanly as one it never had.
    with pytest.raises(ConfigError, match=r"config\.protocol"):
        ScenarioConfig.from_dict({"protocol": {"max_orphan_refs": 8}})


def test_config_rejects_latency_above_delta():
    with pytest.raises(ConfigError):
        _cfg(latency={"base": 0.3, "jitter": 0.1})


def test_crash_failover_recovers():
    report = run_scenario(
        _cfg(adversaries=[{"party": 0, "kind": "crash", "crash_at": 0.25}], seed=3)
    )
    assert report.quiescent
    assert report.term_changes  # the crashed primary was replaced
    assert _committed(report) == len(report.tx_records)
    assert all(v["pass"] for v in report.checks.values())


def test_rounds_reordered_before_gst_still_commit_everywhere():
    # Criterion 1's grid config at N=7, F=2, k=3 with GST at 0.5 s: the
    # pre-GST network delivers some sequencer rounds out of order.
    report = run_scenario(
        _cfg(parties=7, faults=2, shards=3, seed=246614, gst=0.5, duration=0.6, drain=20.0)
    )
    assert report.quiescent
    assert report.checks["agreement"]["pass"]
    assert report.checks["no_loss_no_unbounded_dup"]["pass"]
    assert {len(blocks) for blocks in report.ledgers.values()} == {6}


def test_censorship_recovered_within_bound():
    report = run_scenario(
        _cfg(adversaries=[{"party": 0, "kind": "censor_tx", "censor_clients": [0]}], seed=4)
    )
    assert report.quiescent
    assert report.term_changes
    assert report.checks["censorship_bound"]["pass"]
    censored = [r for r in report.tx_records if r.censored]
    assert censored and all(r.first_commit_us is not None for r in censored)


def test_bogus_injection_detected_and_recovered():
    report = run_scenario(
        _cfg(adversaries=[{"party": 0, "kind": "inject_bogus", "bogus_fraction": 0.5}], seed=6)
    )
    assert report.quiescent
    assert report.term_changes
    assert report.checks["validity"]["pass"]
    assert report.bogus_batch_commits == 0
    assert _committed(report) == len(report.tx_records)


def test_sampling_disabled_lets_bogus_batches_commit():
    # Negative control: with zero sampled transactions nothing is checked,
    # so a bogus-dominated batch sails through and the validity check flags
    # it (the bound counts batches whose invalid share exceeds 1 - alpha).
    report = run_scenario(
        _cfg(
            adversaries=[{"party": 0, "kind": "inject_bogus", "bogus_fraction": 0.75}],
            protocol={**BASE["protocol"], "sample_count": 0},
            seed=6,
        )
    )
    assert report.bogus_batch_commits > 0
    assert not report.checks["validity"]["pass"]


def test_withheld_attestations_are_harmless():
    report = run_scenario(_cfg(adversaries=[{"party": 0, "kind": "withhold_bas"}], seed=7))
    assert report.quiescent
    assert not report.term_changes
    assert _committed(report) == len(report.tx_records)
    assert all(v["pass"] for v in report.checks.values())


def test_equivocation_never_double_commits():
    report = run_scenario(_cfg(adversaries=[{"party": 0, "kind": "equivocate_batch"}], seed=8))
    assert report.quiescent
    assert report.duplicate_commits == 0
    assert _committed(report) == len(report.tx_records)
    assert all(v["pass"] for v in report.checks.values())


def test_message_loss_after_gst_breaks_agreement():
    # Deliberate violation of the delivery model: all traffic to one correct
    # party is dropped. The agreement check must catch the stalled ledger.
    report = run_scenario(_cfg(lossy_party=2, drain=3.0, seed=9))
    assert not report.checks["agreement"]["pass"]
    assert report.checks["agreement"]["reason"] in ("length_mismatch", "divergence")


def test_pre_gst_delays_do_not_break_anything():
    report = run_scenario(_cfg(gst=0.3, seed=10, duration=0.8))
    assert report.quiescent
    assert _committed(report) == len(report.tx_records)
    assert all(v["pass"] for v in report.checks.values())


@pytest.mark.parametrize("chunk", [1, 7, 1 << 30])
def test_arrival_chunk_size_does_not_change_the_run(monkeypatch, chunk):
    # Pre-GST delays reorder arrivals against submission order.
    cfg = _cfg(gst=0.3, seed=10, duration=0.5)
    expected = report_to_json(run_scenario(cfg))
    monkeypatch.setattr(sim_runner, "ARRIVAL_CHUNK", chunk)
    assert report_to_json(run_scenario(cfg)) == expected


@pytest.mark.parametrize("n, k", [(4, 1), (4, 4), (7, 3)])
def test_node_id_layout(n, k):
    # Sequencer 0, hub 1, then routers, consensus nodes and assemblers, then
    # the batchers party-major.
    runner = _Runner(_cfg(parties=n, faults=(n - 1) // 3, shards=k))
    d = runner.d
    assert d.router == tuple(2 + p for p in range(n))
    assert d.consensus == tuple(2 + n + p for p in range(n))
    assert d.assembler == tuple(2 + 2 * n + p for p in range(n))
    assert d.batcher == tuple(tuple(2 + 3 * n + p * k + s for s in range(k)) for p in range(n))
    batcher_parties = [p for p in range(n) for _ in range(k)]
    assert runner.party_of == [-1, -1, *range(n), *range(n), *range(n), *batcher_parties]
    assert runner.nodes[:2] == [None, None] and len(runner.nodes) == 2 + 3 * n + n * k
    for nid, node in enumerate(runner.nodes[2:], start=2):
        assert node.node_id == nid and node.party == runner.party_of[nid]
    assert [b.shard for b in runner.batchers.values()] == [s for _ in range(n) for s in range(k)]


@pytest.mark.parametrize("n, k", [(4, 1), (7, 3)])
def test_out_of_range_party_or_shard_raises(n, k):
    d = _Runner(_cfg(parties=n, faults=(n - 1) // 3, shards=k)).d
    for ids in (d.router, d.consensus, d.assembler, d.batcher):
        with pytest.raises(IndexError):
            ids[n]
    with pytest.raises(IndexError):
        d.batcher[0][k]
    for build in (RouterNode, ConsensusNode, AssemblerNode):
        with pytest.raises(IndexError):
            build(d, n)
    for party, shard in ((n, 0), (0, k)):
        with pytest.raises(IndexError):
            BatcherNode(d, party, shard)


def test_held_back_arrivals_count_as_in_flight(monkeypatch):
    monkeypatch.setattr(sim_runner, "ARRIVAL_CHUNK", 16)
    runner = _Runner(_cfg(gst=0.3, seed=10, duration=0.5))
    runner._schedule_clients()
    assert not runner._network_idle()
    runner.heap.clear()  # the first chunk and the entry that feeds the next
    assert runner.held_arrivals and not runner._network_idle()
    runner.held_arrivals.clear()
    assert runner._network_idle()


def test_one_submission_per_tx_shared_by_every_router():
    runner = _Runner(_cfg(seed=13, duration=0.5))
    d = runner.d
    routed: dict[int, tuple] = {}  # id(SubmitTx) -> (message, routers it goes to)
    schedule_clients = runner._schedule_clients

    def inspect_arrivals():
        schedule_clients()
        for _t, sender, _seq, dest, message in [*runner.heap, *runner.held_arrivals]:
            if message is not None:  # not the entry that feeds arrivals
                assert sender == d.hub and isinstance(message, msg.SubmitTx)
                routed.setdefault(id(message), (message, []))[1].append(dest)

    replies = []
    network_send = runner.network_send

    def observe(sender, dest, message):
        if dest == d.hub:
            replies.append((sender, message))
        network_send(sender, dest, message)

    runner._schedule_clients = inspect_arrivals
    runner.network_send = observe
    report = runner.run()
    assert len(routed) == len(runner.tx_records) > 0
    for message, routers in routed.values():
        assert sorted(routers) == list(d.router)
        assert runner.tx_records[message.submission_id].tx_id == message.tx.tx_id
    # Each reply names the party of the router that sent it.
    assert len(replies) == len(runner.tx_records) * d.n
    for sender, reply in replies:
        assert isinstance(reply, msg.SubmissionReply) and sender == d.router[reply.party]
    assert all(record.to_dict()["acks"] == d.n for record in report.tx_records)


def test_standard_signature_scheme_end_to_end():
    report = run_scenario(
        _cfg(scheme="standard_signature", seed=12, tx_rate=40.0, duration=0.5, shards=1)
    )
    assert report.quiescent
    assert _committed(report) == len(report.tx_records)
    assert all(v["pass"] for v in report.checks.values())


@pytest.mark.parametrize("jitter", [0, 1, 2**30, 2**31 - 1, 2**32 + 12345, 2**40 + 7])
def test_link_delay_sampler_draws_exactly_what_randint_draws(jitter):
    # Widths of 31, 32, 33 and 41 bits; 2**31 is a power of two (no redraws).
    base = 2000
    ours, reference = random.Random(77), random.Random(77)
    draw = link_delay_sampler(ours, base, jitter)
    for _ in range(2000):
        assert draw() == base + (reference.randint(0, jitter) if jitter else 0)
    assert ours.getstate() == reference.getstate()


def test_dedup_stays_in_epoch_order_and_expires_from_the_front(monkeypatch):
    apply_round = ConsensusNode._on_round
    expired = 0

    def checked(node, m, ctx):
        nonlocal expired
        before = set(node.state.dedup)
        apply_round(node, m, ctx)
        state = node.state
        epochs = list(state.dedup.values())
        assert epochs == sorted(epochs)
        # What a scan of every slot would leave: nothing below the horizon.
        assert all(epoch >= state.ordered_epoch - state.epoch_window for epoch in epochs)
        expired += len(before - set(state.dedup))

    monkeypatch.setattr(ConsensusNode, "_on_round", checked)
    protocol = dict(BASE["protocol"], epoch_length=0.1, epoch_window=1)
    report = run_scenario(_cfg(duration=1.5, protocol=protocol))
    assert report.checks["no_loss_no_unbounded_dup"]["pass"]
    assert expired > 0


def test_a_headed_slot_keeps_no_pending_share_and_sends_no_empty_update(monkeypatch):
    # Two equivocators push same-slot keys and late shares through ordering:
    # after every round no pending key belongs to a slot that has a header,
    # and a batcher hears of a round only for a won key or a new term.
    apply_round = ConsensusNode._on_round
    seen = {"rounds": 0, "updates": 0}

    class Recording:
        def __init__(self, ctx):
            self.now, self.ctx, self.updates = ctx.now, ctx, []

        def send(self, dest, message):
            if isinstance(message, msg.OrderedUpdate):
                self.updates.append(message)
            self.ctx.send(dest, message)

    def checked(node, m, ctx):
        recording = Recording(ctx)
        apply_round(node, m, recording)
        updates, state = recording.updates, node.state
        assert not [key for key in state.pending if key.slot() in state.dedup]
        assert all(u.thresholded or u.new_term is not None for u in updates)
        seen["rounds"] += 1
        seen["updates"] += len(updates)

    monkeypatch.setattr(ConsensusNode, "_on_round", checked)
    doc = json.loads((CONFIGS / "censorship.json").read_text())
    doc.update(
        parties=7,
        faults=2,
        shards=2,
        duration=1.0,
        tx_rate=200,
        seed=13,
        adversaries=[{"party": 0, "kind": "equivocate_batch"}, {"party": 1, "kind": "equivocate_batch"}],
    )
    report = run_scenario(ScenarioConfig.from_dict(doc))
    assert report.all_checks_pass()
    assert seen["rounds"] > 0 and seen["updates"] > 0


@pytest.mark.parametrize("config", ["baseline.json", "censorship.json"])
def test_each_share_and_complaint_is_ordered_in_exactly_one_round(config):
    # A batcher submits each share and complaint once, straight to the total
    # order, and no consensus node is sent one: every drop is a refusal of
    # an ordered event, under one of the admission rule's reasons.
    runner = _Runner(ScenarioConfig.from_dict(json.loads((CONFIGS / config).read_text())))
    d, send = runner.d, runner.network_send
    # The objects themselves are held, so no id below is reused.
    submitted, rounds = [], {}

    def observe(sender, dest, message):
        if isinstance(message, (BatchAttestationShare, ComplaintVote)):
            assert dest == d.sequencer
            submitted.append(message)
        elif isinstance(message, msg.RoundDelivery):
            rounds[message.round_no] = message
        send(sender, dest, message)

    runner.network_send = observe
    report = runner.run()
    ordered = Counter(id(event) for delivery in rounds.values() for event in delivery.events)
    assert len(submitted) > 50 and all(ordered[id(event)] == 1 for event in submitted)
    assert sum(ordered.values()) == len(submitted)
    reasons = {DROP_BAD_SIGNATURE, DROP_DUPLICATE, DROP_STALE_EPOCH, DROP_STALE_TERM, DROP_UNKNOWN_SHARD}
    assert set(report.drops) <= reasons and report.all_checks_pass()
    assert any(isinstance(event, ComplaintVote) for event in submitted) == (config == "censorship.json")


def test_consensus_refuses_what_the_sequencer_orders_again():
    # The sequencer keeps nothing across rounds, so an event submitted again
    # is ordered again. Here every share and complaint is submitted a second
    # time, two rounds after the first; the admission rule refuses each
    # repeat, and the run stays correct.
    cfg = ScenarioConfig.from_dict(json.loads((CONFIGS / "censorship.json").read_text()))
    once = run_scenario(cfg)
    runner = _Runner(cfg)
    send, later, repeats = runner.network_send, 2 * cfg.protocol.round_interval_us, []

    def send_twice(sender, dest, message):
        send(sender, dest, message)
        if dest == runner.d.sequencer:
            runner.push(runner.now_us + later, sender, dest, message)
            repeats.append(message)

    runner.network_send = send_twice
    report = runner.run()
    refused = sum(report.drops.values()) - sum(once.drops.values())
    assert len(repeats) > 50 and refused > len(repeats)  # summed over the correct parties
    assert report.term_changes and report.quiescent and report.all_checks_pass()


def test_throughput_series_matches_committed_total():
    report = run_scenario(_cfg(seed=11))
    assert report.throughput_series[-1][1] == report.committed_total
    recount = sum(
        len(batch.txs) for block in report.ledgers[0] for batch in block.batches
    )
    assert recount == report.committed_total


# --- check_agreement unit cases ------------------------------------------------


def _block_chain(client_keys, n, salt=b""):
    blocks = []
    prev = ZERO_DIGEST
    for i in range(n):
        batch = Batch(0, i, 0, 0, (make_tx(0, salt + bytes([i + 1]), client_keys),))
        header = BlockHeader(i, prev, (batch.key(),))
        blocks.append(Block(header, (), (batch,)))
        prev = header_digest(header)
    return blocks


def test_check_agreement_identical_pass(client_keys):
    chain = _block_chain(client_keys, 6)
    result = check_agreement({0: chain, 1: list(chain), 2: list(chain)})
    assert result["pass"]


def test_check_agreement_divergence_reports_seq(client_keys):
    a = _block_chain(client_keys, 6)
    b = _block_chain(client_keys, 5, salt=b"") + _block_chain(client_keys, 6, salt=b"x")[5:]
    result = check_agreement({0: a, 1: b})
    assert not result["pass"]
    assert result["block_seq"] == 5


def test_check_agreement_strict_prefix_fails(client_keys):
    a = _block_chain(client_keys, 6)
    result = check_agreement({0: a, 1: a[:4]})
    assert not result["pass"]
    assert result["reason"] == "length_mismatch"


def test_check_agreement_needs_two_ledgers(client_keys):
    assert not check_agreement({0: _block_chain(client_keys, 2)})["pass"]
