import json
import random
from collections import Counter
from itertools import chain
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
from shardbft.sim.checks import check_agreement, check_censorship_bound, check_no_loss_no_unbounded_dup
from shardbft.sim.report import RunReport, TxRecord, report_to_json
from shardbft.router import REASON_MALFORMED, RouterNode
from shardbft.sim.runner import _Runner, link_delay_sampler, run_scenario
from shardbft.sim.scenario import ConfigError, ScenarioConfig

from helpers import StubCtx, make_tx

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


def test_rounds_reordered_before_gst_still_commit_everywhere(monkeypatch):
    # Criterion 1's grid config at N=7, F=2, k=3 with GST at 0.5 s: the
    # pre-GST network delivers some sequencer rounds out of order.
    rounds: dict[int, list[int]] = {}  # party -> round numbers in arrival order
    handle = ConsensusNode.handle

    def observed(node, message, ctx):
        if isinstance(message, msg.RoundDelivery):
            rounds.setdefault(node.party, []).append(message.round_no)
        handle(node, message, ctx)

    monkeypatch.setattr(ConsensusNode, "handle", observed)
    report = run_scenario(
        _cfg(parties=7, faults=2, shards=3, seed=2, gst=0.5, duration=0.6, drain=20.0)
    )
    assert any(b < a for seen in rounds.values() for a, b in zip(seen, seen[1:]))
    assert report.quiescent
    assert report.checks["agreement"]["pass"]
    assert report.checks["no_loss_no_unbounded_dup"]["pass"]
    assert {len(blocks) for blocks in report.ledgers.values()} == {7}


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
    # Deliberate violation of the delivery model: everything to correct
    # party 2's nodes is dropped from GST on, through the loop's crash
    # filter. The agreement check must catch the stalled ledger.
    cfg = _cfg(drain=3.0, seed=9)
    assert 2 in cfg.correct_parties()
    runner = _Runner(cfg)
    for node in runner.nodes[2:]:
        if node.party == 2:
            runner.crash_us[node.node_id] = cfg.gst_us
    report = runner.run()
    assert not report.checks["agreement"]["pass"]
    assert report.checks["agreement"]["reason"] == "length_mismatch"
    assert report.checks["no_loss_no_unbounded_dup"]["lost"] == len(report.tx_records) == 100
    assert not report.quiescent


def test_a_run_whose_routers_reject_every_tx_commits_nothing_and_ends():
    # Every 64-byte payload is over max_tx_size, so no record is ever acked:
    # the goal check skips each one and the run ends once the network is idle.
    doc = json.loads((CONFIGS / "baseline.json").read_text())
    doc["protocol"] = {**doc.get("protocol", {}), "max_tx_size": 16}
    cfg = ScenarioConfig.from_dict(doc)
    assert cfg.tx_size == 64
    report = run_scenario(cfg)
    assert report.quiescent and report.end_time_us < cfg.duration_us + cfg.drain_us
    assert report.tx_records
    for record in report.tx_records:
        assert record.acks == 0 and record.ack_quorum_us is None
        assert record.rejects == {REASON_MALFORMED: cfg.n_parties}
    assert report.committed_total == 0
    assert report.checks["agreement"]["pass"] and report.checks["no_loss_no_unbounded_dup"]["pass"]


def test_pre_gst_delays_do_not_break_anything():
    report = run_scenario(_cfg(gst=0.3, seed=10, duration=0.8))
    assert report.quiescent
    assert _committed(report) == len(report.tx_records)
    assert all(v["pass"] for v in report.checks.values())


@pytest.mark.parametrize("chunk", [1, 7, 1 << 30])
def test_arrival_chunk_size_does_not_change_the_run(chunk):
    # Queue the first `chunk` arrivals on the heap before the run, each drawn
    # at its submission time, and leave the rest to the hub's timer. Each
    # hub->router link draws in submission order either way, so the run is
    # the one the hub's timer alone makes. Pre-GST delays reorder arrivals
    # against submission order.
    cfg = _cfg(gst=0.3, seed=10, duration=0.5)
    expected = report_to_json(run_scenario(cfg))
    runner = _Runner(cfg)
    d = runner.d
    schedule_clients = runner._schedule_clients

    def queue_ahead():
        schedule_clients()
        runner.heap.clear()  # the hub's timer for submission 0
        ahead = min(chunk, len(runner.submissions))
        for record, submission in zip(runner.tx_records[:ahead], runner.submissions):
            runner.now_us = record.submit_us
            for router in d.router:
                runner.network_send(d.hub, router, submission)
        runner.now_us = 0
        if ahead < len(runner.submissions):
            runner.push(runner.tx_records[ahead].submit_us, d.hub, d.hub, runner.submissions[ahead])

    runner._schedule_clients = queue_ahead
    assert report_to_json(runner.run()) == expected


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
    assert runner.nodes[:2] == [None, None] and len(runner.nodes) == 2 + 3 * n + n * k
    assert [node.party for node in runner.nodes[2:]] == [*range(n), *range(n), *range(n), *batcher_parties]
    for nid, node in enumerate(runner.nodes[2:], start=2):
        assert node.node_id == nid
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


def test_held_back_arrivals_count_as_in_flight():
    # An arrival on its way to the routers keeps the network from reading as
    # idle. The hub's timer is a self-timer and does not, nor need it: the
    # last submission is due before duration, where the goal is first checked.
    cfg = _cfg(gst=0.3, seed=10, duration=0.5)
    runner = _Runner(cfg)
    d = runner.d
    runner._schedule_clients()
    assert runner._network_idle()  # only the hub's timer for submission 0
    (t, sender, _seq, dest, first), = runner.heap
    assert (t, sender, dest, first) == (0, d.hub, d.hub, runner.submissions[0])
    runner.heap.clear()
    runner._on_hub(first, runner.ctxs[d.hub])
    assert len(runner.heap) == len(d.router) + 1 and not runner._network_idle()
    runner.heap[:] = [entry for entry in runner.heap if entry[1] == entry[3]]
    assert len(runner.heap) == 1 and runner._network_idle()  # the timer for submission 1
    assert runner.tx_records[-1].submit_us < cfg.duration_us


def test_patched_network_send_and_push_see_every_message():
    # perfbench's tracer patches both on the instance before run(), and
    # counts messages and the heap's peak through them: every event is one
    # push, and every message between two nodes comes through network_send.
    runner = _Runner(ScenarioConfig.from_dict(json.loads((CONFIGS / "baseline.json").read_text())))
    send, push = runner.network_send, runner.push
    sending = []  # the (sender, dest) network_send is carrying
    counts = Counter()

    def observe_send(sender, dest, message):
        counts["send"] += 1
        sending.append((sender, dest))
        send(sender, dest, message)
        sending.pop()

    def observe_push(t, sender, dest, message):
        counts["push"] += 1
        if sender != dest:
            assert sending and sending[-1] == (sender, dest)
            counts["sent"] += 1
        push(t, sender, dest, message)

    runner.network_send, runner.push = observe_send, observe_push
    runner.run()
    assert counts["push"] == sum(runner.send_seq.values()) == 7157
    assert counts["sent"] == counts["send"] > 0  # each send pushes once


def test_the_hub_submits_each_tx_to_every_router_on_its_own_timer():
    # Pre-GST delays reorder arrivals against submission order; the sends
    # keep it.
    cfg = _cfg(gst=0.3, seed=10, duration=0.5)
    runner = _Runner(cfg)
    d = runner.d
    sends = []  # (time, router, submission id), in the order the hub sent them
    timers_queued = []  # hub self-timers on the heap after each push
    send, push = runner.network_send, runner.push

    def observe_send(sender, dest, message):
        send(sender, dest, message)
        if sender == d.hub:
            assert runner.tx_records[message.submission_id].tx_id == message.tx.tx_id
            sends.append((runner.now_us, dest, message.submission_id))

    def observe_push(t, sender, dest, message):
        push(t, sender, dest, message)
        timers_queued.append(sum(1 for entry in runner.heap if entry[1] == entry[3] == d.hub))

    runner.network_send, runner.push = observe_send, observe_push
    report = runner.run()
    assert report.quiescent and len(runner.tx_records) == 50
    assert sends == [(r.submit_us, router, r.index) for r in runner.tx_records for router in d.router]
    assert sends[-1][0] < cfg.duration_us
    assert max(timers_queued) == 1


def test_the_goal_needs_every_acked_tx_committed_at_every_correct_party():
    runner = _Runner(_cfg(seed=5))
    report = runner.run()
    assert report.quiescent and runner._goal_met()
    acked = next(r for r in report.tx_records if r.ack_quorum_us is not None)
    del runner.assemblers[0].inclusion_times[acked.tx_id]
    assert not runner._goal_met()


def test_a_message_to_a_silent_node_moves_no_commit_time(monkeypatch):
    # Nothing the hub receives changes what it sends, so extra traffic to it
    # cannot cause anything in the protocol; with one delay stream per link
    # it cannot shift any other message's delay either.
    cfg = ScenarioConfig.from_dict(json.loads((CONFIGS / "censorship.json").read_text()))
    plain = run_scenario(cfg)
    handle = BatcherNode.handle

    def chatty(node, message, ctx):
        handle(node, message, ctx)
        ctx.send(node.d.hub, msg.SubmissionReply(0, node.party, False, "extra"))

    monkeypatch.setattr(BatcherNode, "handle", chatty)
    noisy = run_scenario(cfg)
    assert noisy.tx_records[0].rejects["extra"] > 500
    times = [(r.first_commit_us, r.last_commit_us) for r in plain.tx_records]
    assert [(r.first_commit_us, r.last_commit_us) for r in noisy.tx_records] == times
    assert None not in chain.from_iterable(times)
    assert noisy.ledger_digests == plain.ledger_digests


def test_one_submission_per_tx_shared_by_every_router():
    runner = _Runner(_cfg(seed=13, duration=0.5))
    d = runner.d
    routed: dict[int, tuple] = {}  # id(SubmitTx) -> (message, routers it goes to)
    replies = []
    network_send = runner.network_send

    def observe(sender, dest, message):
        if sender == d.hub:
            assert isinstance(message, msg.SubmitTx)
            routed.setdefault(id(message), (message, []))[1].append(dest)
        if dest == d.hub:
            replies.append((sender, message))
        network_send(sender, dest, message)

    runner.network_send = observe
    report = runner.run()
    assert len(routed) == len(runner.tx_records) > 0
    for message, routers in routed.values():
        assert sorted(routers) == list(d.router)
        assert runner.tx_records[message.submission_id].tx_id == message.tx.tx_id
    # Each reply names the party of the batcher that sent it, the one of the
    # tx's shard.
    assert len(replies) == len(runner.tx_records) * d.n
    for sender, reply in replies:
        record = runner.tx_records[reply.submission_id]
        assert isinstance(reply, msg.SubmissionReply) and sender == d.batcher[reply.party][record.shard]
    assert all(record.acks.bit_count() == d.n for record in report.tx_records)


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


def test_a_tick_cuts_one_round_of_the_buffer_for_every_consensus_node():
    # The sequencer only orders: it never reads an event, so plain objects
    # stand in for shares and complaints.
    runner = _Runner(_cfg())
    interval = runner.cfg.protocol.round_interval_us
    ctx = StubCtx(now_us=500)
    events = [object() for _ in range(3)]
    for event in events:
        runner._on_sequencer(event, ctx)
    assert ctx.sent == [] and ctx.timers == []
    runner._on_sequencer(msg.RoundTick(), ctx)
    delivery = ctx.sent[0][1]
    assert ctx.sent == [(dest, delivery) for dest in runner.d.consensus]  # one object for all
    assert isinstance(delivery, msg.RoundDelivery)
    assert delivery.round_no == runner.round_no == 1 and list(delivery.events) == events
    assert runner.round_buffer == []
    assert ctx.timers == [(500 + interval, msg.RoundTick())]
    runner._on_sequencer(events[0], ctx)
    runner._on_sequencer(msg.RoundTick(), ctx)
    assert ctx.sent[-1][1].round_no == 2 and ctx.sent[-1][1].events == (events[0],)


def test_a_tick_with_nothing_buffered_only_rearms():
    runner = _Runner(_cfg())
    runner.round_no = 3
    ctx = StubCtx(now_us=1_000)
    runner._on_sequencer(msg.RoundTick(), ctx)
    assert ctx.sent == [] and runner.round_no == 3
    assert ctx.timers == [(1_000 + runner.cfg.protocol.round_interval_us, msg.RoundTick())]


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


# --- check_no_loss_no_unbounded_dup unit cases -----------------------------------------


def _record(i, acked, committed):
    return TxRecord(
        index=i,
        tx_id=bytes([i]) * 32,
        client=0,
        shard=0,
        submit_us=i,
        ack_quorum_us=10 + i if acked else None,
        last_commit_us=20 + i if committed else None,
    )


def _report(records, ledgers, term_changes=()):
    """A hand-built report holding only what the verdicts read."""
    return RunReport(
        config={},
        quiescent=True,
        end_time_us=100,
        tx_records=records,
        term_changes=list(term_changes),
        reproposed_tx_ids=[],
        pending_series=[],
        throughput_series=[],
        ledger_digests={},
        committed_total=0,
        duplicate_commits=0,
        bogus_batch_commits=0,
        per_shard={},
        drops={},
        checks={},
        ledgers=ledgers,
    )


def test_no_loss_fails_a_run_without_correct_ledgers():
    verdict = {"pass": False, "reason": "no correct ledgers"}
    assert check_no_loss_no_unbounded_dup(_report([_record(0, True, False)], {})) == verdict


def test_no_loss_names_the_acked_records_without_a_last_commit(client_keys):
    # The verdict reads only the records and the ledgers, so the committed
    # record is judged by its last commit alone.
    records = [_record(0, False, False), _record(1, True, True), _record(2, True, False), _record(3, True, False)]
    chain = _block_chain(client_keys, 3)
    report = _report(records, {0: chain, 1: list(chain)})
    verdict = check_no_loss_no_unbounded_dup(report)
    assert verdict == {"pass": False, "lost": 2, "bad_duplicates": 0, "first_lost": records[2].tx_id.hex()}
    records[2].last_commit_us = records[3].last_commit_us = 50
    assert check_no_loss_no_unbounded_dup(report) == {"pass": True, "lost": 0, "bad_duplicates": 0}


@pytest.mark.parametrize(
    "terms, changed_shards, allowed",
    [
        ((0, 0), (0,), False),  # two copies in one term
        ((0, 1), (1,), False),  # across terms, but shard 0 never changed term
        ((0, 1, 1), (0,), False),  # a third copy for one change
        ((0, 1), (0,), True),  # one extra copy for one change
    ],
)
def test_no_loss_bounds_duplicates_by_their_shard_term_changes(client_keys, terms, changed_shards, allowed):
    tx = make_tx(0, b"dup", client_keys)
    chain = []
    for i, term in enumerate(terms):
        batch = Batch(0, i, term, 0, (tx,))
        chain.append(Block(BlockHeader(i, ZERO_DIGEST, (batch.key(),)), (), (batch,)))
    changes = [(10, shard, 1) for shard in changed_shards]
    verdict = check_no_loss_no_unbounded_dup(_report([], {0: chain}, changes))
    if allowed:
        assert verdict == {"pass": True, "lost": 0, "bad_duplicates": 0}
    else:
        expected = {"pass": False, "lost": 0, "bad_duplicates": 1, "first_bad_duplicate": tx.tx_id.hex()}
        assert verdict == expected


def test_censorship_bound_skips_unacked_records_and_fails_an_uncommitted_acked_one():
    records = [_record(0, False, False), _record(1, True, True)]
    report = _report(records, {})
    assert check_censorship_bound(report, 19) == {
        "pass": True,
        "bound_us": 19,
        "worst_us": 20,
        "worst_tx": records[1].tx_id.hex(),
    }
    records.append(_record(2, True, False))
    assert check_censorship_bound(report, 19) == {"pass": False, "reason": "uncommitted", "tx": records[2].tx_id.hex()}
