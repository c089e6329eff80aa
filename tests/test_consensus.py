import random
from collections import Counter

from shardbft import messages as msg
from shardbft.consensus import (
    ConsensusNode,
    ConsensusState,
    DROP_BAD_SIGNATURE,
    DROP_DUPLICATE,
    DROP_STALE_EPOCH,
    DROP_STALE_TERM,
    OrphanVotes,
    apply_complaints,
    filter_event,
    process_round,
    purge_orphans,
    verify_event,
)
from shardbft.core import (
    BatchAttestationShare,
    BatchKey,
    ComplaintVote,
    encode_bas_payload,
    encode_complaint_payload,
    encode_header_payload,
    header_digest,
    sha256,
    u64,
)
from shardbft.crypto import Signature, sign

from helpers import StubCtx, make_deployment


def make_share(party_keys, signer, seq, digest=None, shard=0, primary=0, epoch=0, refs=()):
    digest = digest if digest is not None else sha256(b"batch" + u64(seq) + u64(shard) + u64(primary))
    payload = encode_bas_payload(seq, digest, shard, primary, epoch, tuple(refs))
    return BatchAttestationShare(
        signer, seq, digest, shard, primary, epoch, tuple(refs), sign(party_keys[signer], payload)
    )


def make_complaint(party_keys, signer, term, shard=0):
    return ComplaintVote(signer, term, shard, sign(party_keys[signer], encode_complaint_payload(term, shard)))


def make_node(party_keys, party=0, n=4, f=1, shards=1, epoch_length=10, window=2):
    d = make_deployment(
        party_keys, n=n, f=f, shards=shards, epoch_length_us=epoch_length, epoch_window=window
    )
    return ConsensusNode(d, party)


def pubs(party_keys, n=4):
    return {p: party_keys[p].public for p in range(n)}


# --- filtering -----------------------------------------------------------------


def test_filter_accepts_fresh_valid_share(party_keys):
    state = ConsensusState(epoch_window=2)
    share = make_share(party_keys, 0, 0)
    ok, reason = filter_event(share, state, local_epoch=0, party_keys=pubs(party_keys))
    assert ok and reason is None


def test_filter_drops_stale_epoch(party_keys):
    state = ConsensusState(epoch_window=2)
    share = make_share(party_keys, 0, 0, epoch=0)
    ok, reason = filter_event(share, state, local_epoch=3, party_keys=pubs(party_keys))
    assert not ok and reason == DROP_STALE_EPOCH
    ok, _ = filter_event(share, state, local_epoch=2, party_keys=pubs(party_keys))
    assert ok  # exactly at the window edge


def test_filter_drops_duplicate_signer_key(party_keys):
    state = ConsensusState(epoch_window=2)
    share = make_share(party_keys, 0, 0)
    state.pending.append(share)
    state.pending_index.add((share.signer, share.key()))
    ok, reason = filter_event(share, state, 0, pubs(party_keys))
    assert not ok and reason == DROP_DUPLICATE


def test_filter_drops_dedup_slot(party_keys):
    state = ConsensusState(epoch_window=2)
    share = make_share(party_keys, 0, 0)
    state.dedup[share.key().slot()] = (share.digest, 0)
    ok, reason = filter_event(share, state, 0, pubs(party_keys))
    assert not ok and reason == DROP_DUPLICATE


def test_filter_drops_bad_signature(party_keys):
    share = make_share(party_keys, 0, 0)
    forged = BatchAttestationShare(
        1, share.seq, share.digest, share.shard, share.primary, share.epoch, (), share.signature
    )
    state = ConsensusState(epoch_window=2)
    ok, reason = filter_event(forged, state, 0, pubs(party_keys))
    assert not ok and reason == DROP_BAD_SIGNATURE


def test_filter_drops_stale_term_complaint(party_keys):
    state = ConsensusState(epoch_window=2)
    state.terms[0] = 2
    vote = make_complaint(party_keys, 1, term=1)
    ok, reason = filter_event(vote, state, 0, pubs(party_keys))
    assert not ok and reason == DROP_STALE_TERM
    ok, _ = filter_event(make_complaint(party_keys, 1, term=2), state, 0, pubs(party_keys))
    assert ok


# --- threshold collection ---------------------------------------------------------


def test_process_round_completes_threshold(party_keys):
    a = make_share(party_keys, 0, 0)
    b = make_share(party_keys, 1, 0)
    pending, thresholds = process_round([a], [b], f=1)
    assert pending == []
    assert len(thresholds) == 1
    key, group = thresholds[0]
    assert key == a.key() and set(g.signer for g in group) == {0, 1}


def test_process_round_below_threshold_stays_pending(party_keys):
    a = make_share(party_keys, 0, 0)
    pending, thresholds = process_round([], [a], f=1)
    assert thresholds == [] and pending == [a]


def test_process_round_mixed_keys(party_keys):
    k1_a = make_share(party_keys, 0, 0)
    k2_b = make_share(party_keys, 1, 1)
    k1_c = make_share(party_keys, 2, 0)
    k1_d = make_share(party_keys, 3, 0)
    pending, thresholds = process_round([k1_a, k2_b], [k1_c, k1_d], f=1)
    assert [s.signer for s in pending] == [1]
    assert len(thresholds) == 1
    key, group = thresholds[0]
    assert key == k1_a.key() and len(group) == 3


def test_process_round_excluded_slots_stay_pending(party_keys):
    a = make_share(party_keys, 0, 0)
    b = make_share(party_keys, 1, 0)
    pending, thresholds = process_round([a], [b], f=1, excluded_slots={a.key().slot()})
    assert thresholds == [] and pending == [a, b]


def test_process_round_requires_distinct_signers(party_keys):
    a = make_share(party_keys, 0, 0)
    pending, thresholds = process_round([a], [a], f=1)
    assert thresholds == [] and pending == [a]


def test_process_round_first_appearance_order(party_keys):
    k2 = [make_share(party_keys, s, 2) for s in range(2)]
    k1 = [make_share(party_keys, s, 1) for s in range(2)]
    pending, thresholds = process_round([k2[0], k1[0]], [k1[1], k2[1]], f=1)
    assert [key.seq for key, _ in thresholds] == [2, 1]


def test_process_round_brute_force_oracle(party_keys):
    # Randomized equivalence against a plain multiset counter.
    rng = random.Random(123)
    digests = [sha256(b"d" + bytes([i])) for i in range(4)]
    for _ in range(500):
        n_parties = rng.randint(2, 6)
        f = rng.randint(0, (n_parties - 1) // 3) if n_parties >= 4 else 0
        universe = [
            (signer, seq, di)
            for signer in range(n_parties)
            for seq in range(3)
            for di in range(2)
        ]
        rng.shuffle(universe)
        chosen = universe[: rng.randint(0, min(len(universe), 8))]
        shares = [
            make_share(party_keys, signer, seq, digest=digests[di]) for signer, seq, di in chosen
        ]
        split = rng.randint(0, len(shares))
        pending, batch = shares[:split], shares[split:]
        got_pending, got_thresholds = process_round(list(pending), list(batch), f)
        counts = Counter(s.key() for s in shares)
        expect_extracted = {k for k, c in counts.items() if c >= f + 1}
        assert {k for k, _ in got_thresholds} == expect_extracted
        assert all(s.key() not in expect_extracted for s in got_pending)
        assert len(got_pending) + sum(len(g) for _, g in got_thresholds) == len(shares)


# --- orphan purging ----------------------------------------------------------------


def test_purge_orphans_at_threshold(party_keys):
    orphan = make_share(party_keys, 2, 0)
    k = orphan.key()
    referrers = [make_share(party_keys, s, 5, refs=(k,)) for s in (0, 1)]
    pending = purge_orphans([orphan], referrers, f=1)
    assert pending == []


def test_purge_orphans_below_threshold(party_keys):
    orphan = make_share(party_keys, 2, 0)
    referrers = [make_share(party_keys, 0, 5, refs=(orphan.key(),))]
    pending = purge_orphans([orphan], referrers, f=1)
    assert pending == [orphan]


def test_purge_orphans_ignores_forward_refs(party_keys):
    orphan = make_share(party_keys, 2, 9)
    k = orphan.key()
    # Referencing a later sequence from earlier attestations: ignored.
    referrers = [make_share(party_keys, s, 3, refs=(k,)) for s in (0, 1)]
    pending = purge_orphans([orphan], referrers, f=1)
    assert pending == [orphan]


def test_purge_orphans_ignores_cross_shard_refs(party_keys):
    orphan = make_share(party_keys, 2, 0, shard=0)
    k = orphan.key()
    referrers = [make_share(party_keys, s, 5, shard=1, refs=(k,)) for s in (0, 1)]
    pending = purge_orphans([orphan], referrers, f=1)
    assert pending == [orphan]


def test_orphan_votes_accumulate_across_rounds(party_keys):
    votes = OrphanVotes(f=1)
    orphan = make_share(party_keys, 2, 0)
    k = orphan.key()
    pending = purge_orphans([orphan], [make_share(party_keys, 0, 5, refs=(k,))], 1, votes)
    assert pending == [orphan]
    pending = purge_orphans(pending, [make_share(party_keys, 1, 6, refs=(k,))], 1, votes)
    assert pending == []


def test_incremental_ripe_set_matches_a_full_rescan():
    for f in (1, 2):
        rng = random.Random(40 + f)
        candidates = [BatchKey(seq, shard, sha256(u64(seq) + u64(shard)), 0) for seq in range(6) for shard in (0, 1)]
        votes = OrphanVotes(f)
        seen = []
        partly_ripe = False
        for _ in range(300):
            refs = tuple(rng.sample(candidates, rng.randrange(4)))
            share = BatchAttestationShare(
                rng.randrange(3 * f + 1), rng.randrange(8), sha256(b"s"), rng.randrange(2), 0, 0, refs,
                Signature("test_mac", b""),
            )
            votes.observe(share)
            seen.append(share)
            signers = {}
            for s in seen:
                for ref in s.orphan_refs:
                    if ref.shard == s.shard and ref.seq < s.seq:
                        signers.setdefault(ref, set()).add(s.signer)
            assert votes.ripe == {key for key, who in signers.items() if len(who) >= f + 1}
            partly_ripe |= 0 < len(votes.ripe) < len(votes.votes)
        assert partly_ripe


# --- complaints -------------------------------------------------------------------


def test_complaints_reach_threshold(party_keys):
    state = ConsensusState(epoch_window=2)
    votes = [make_complaint(party_keys, s, 0) for s in (1, 2)]
    changes = apply_complaints(votes, state, f=1)
    assert changes == [(0, 1)]
    assert state.terms[0] == 1


def test_complaints_distinct_signers_required(party_keys):
    state = ConsensusState(epoch_window=2)
    votes = [make_complaint(party_keys, 1, 0)] * 3
    assert apply_complaints(votes, state, f=1) == []
    assert state.terms.get(0, 0) == 0


def test_f_adversary_complaints_never_change_term(party_keys):
    state = ConsensusState(epoch_window=2)
    votes = [make_complaint(party_keys, s, 0) for s in (0, 1)]  # only F distinct
    assert apply_complaints(votes, state, f=2) == []


def test_stale_complaints_discarded_after_change(party_keys):
    state = ConsensusState(epoch_window=2)
    apply_complaints([make_complaint(party_keys, s, 0) for s in (1, 2)], state, f=1)
    # Late votes for the old term no longer count and do not accumulate.
    assert apply_complaints([make_complaint(party_keys, 3, 0)], state, f=1) == []
    assert (0, 0) not in state.complaint_signers


# --- header assembly via full nodes --------------------------------------------------


def _deliver_round(nodes, ctxs, round_no, events):
    for node, ctx in zip(nodes, ctxs):
        node.handle(msg.RoundDelivery(round_no, tuple(events)), ctx)


def _cross_deliver_shares(nodes, ctxs):
    for i, ctx in enumerate(ctxs):
        for dest, m in ctx.take_sent():
            if isinstance(m, msg.HeaderShare):
                for j, node in enumerate(nodes):
                    if j != i and dest == nodes[j].node_id:
                        node.handle(m, ctxs[j])


def test_header_published_after_quorum(party_keys):
    nodes = [make_node(party_keys, party=p) for p in range(3)]  # 3 correct of 4
    ctxs = [StubCtx() for _ in nodes]
    events = [make_share(party_keys, s, 0) for s in (0, 1)] + [
        make_share(party_keys, s, 1) for s in (1, 2)
    ]
    _deliver_round(nodes, ctxs, 1, events)
    for node in nodes:
        assert node.state.next_block_seq == 1
    assert all(not any(isinstance(m, msg.PublishedHeader) for _, m in c.sent) for c in ctxs)
    _cross_deliver_shares(nodes, ctxs)
    published = [m for _, m in ctxs[0].sent if isinstance(m, msg.PublishedHeader)]
    assert len(published) == 1
    header = published[0].header
    assert [k.seq for k in header.batch_digests] == [0, 1]
    assert len(published[0].quorum_sigs) == 3  # exactly 2f+1 for n=4
    assert len({s for s, _ in published[0].quorum_sigs}) == 3


def test_empty_round_no_header(party_keys):
    node = make_node(party_keys)
    ctx = StubCtx()
    node.handle(msg.RoundDelivery(1, (make_share(party_keys, 0, 0),)), ctx)
    assert node.state.next_block_seq == 0
    assert not [m for _, m in ctx.sent if isinstance(m, msg.HeaderShare)]


def test_chain_continuity_across_rounds(party_keys):
    node = make_node(party_keys)
    ctx = StubCtx()
    node.handle(msg.RoundDelivery(1, tuple(make_share(party_keys, s, 0) for s in (0, 1))), ctx)
    node.handle(msg.RoundDelivery(2, tuple(make_share(party_keys, s, 1) for s in (0, 1))), ctx)
    h1 = node.headers[0]
    h2 = node.headers[1]
    assert h2.prev_header_hash == header_digest(h1)
    assert h1.prev_header_hash == b"\x00" * 32


def test_rounds_apply_in_round_order_whatever_the_arrival_order(party_keys):
    rounds = [
        msg.RoundDelivery(1, tuple(make_share(party_keys, s, 0) for s in (0, 1))),
        msg.RoundDelivery(2, tuple(make_share(party_keys, s, 1) for s in (0, 1))),
    ]
    in_order, reordered = make_node(party_keys), make_node(party_keys)
    ctx_in, ctx_re = StubCtx(), StubCtx()
    for m in rounds:
        in_order.handle(m, ctx_in)
    reordered.handle(rounds[1], ctx_re)
    assert reordered.state.next_block_seq == 0 and not ctx_re.sent  # round 2 waits for round 1
    reordered.handle(rounds[0], ctx_re)
    reordered.handle(rounds[0], ctx_re)  # a late copy of an applied round is ignored
    assert reordered.state == in_order.state
    assert reordered.headers == in_order.headers
    assert ctx_re.sent == ctx_in.sent


def test_conflicting_share_flagged_not_counted(party_keys):
    node = make_node(party_keys)
    ctx = StubCtx()
    node.handle(msg.RoundDelivery(1, tuple(make_share(party_keys, s, 0) for s in (0, 1))), ctx)
    hhash = node.headers[0].header_hash
    evil = msg.HeaderShare(0, sha256(b"other header"), 1, sign(party_keys[1], b"whatever"))
    node.handle(evil, ctx)
    assert node.evidence and node.evidence[0][0] == "conflicting_header"
    assert 1 not in node.collected[0]
    # A share with the right hash but a junk signature is flagged too.
    junk = msg.HeaderShare(0, hhash, 2, Signature("test_mac", b"\x00" * 32))
    node.handle(junk, ctx)
    assert node.evidence[-1][0] == "bad_share_signature"


def test_share_buffered_until_round_arrives(party_keys):
    nodes = [make_node(party_keys, party=p) for p in range(2)]
    ctxs = [StubCtx() for _ in nodes]
    events = tuple(make_share(party_keys, s, 0) for s in (0, 1))
    nodes[1].handle(msg.RoundDelivery(1, events), ctxs[1])
    share = next(m for _, m in ctxs[1].sent if isinstance(m, msg.HeaderShare))
    nodes[0].handle(share, ctxs[0])  # arrives before node 0 sees the round
    assert nodes[0].share_buffer
    nodes[0].handle(msg.RoundDelivery(1, events), ctxs[0])
    assert nodes[0].collected[0].keys() >= {0, 1}


def test_same_slot_two_digests_single_winner(party_keys):
    # An equivocating proposer pushes two keys for one ledger slot past the
    # count threshold in the same round: only one header entry results, ever.
    node = make_node(party_keys)
    ctx = StubCtx()
    d1, d2 = sha256(b"variant a"), sha256(b"variant b")
    events = (
        make_share(party_keys, 0, 0, digest=d1),
        make_share(party_keys, 1, 0, digest=d1),
        make_share(party_keys, 2, 0, digest=d2),
        make_share(party_keys, 3, 0, digest=d2),
    )
    node.handle(msg.RoundDelivery(1, events), ctx)
    assert node.state.next_block_seq == 1
    keys = node.headers[0].batch_digests
    assert len(keys) == 1 and keys[0].digest == d1
    # The loser's shares stay pending and are reported as orphaned.
    assert {s.digest for s in node.state.pending} == {d2}
    updates = [m for _, m in ctx.sent if isinstance(m, msg.OrderedUpdate)]
    assert updates and any(k.digest == d2 for u in updates for k in u.orphaned)
    # Later rounds cannot mint a second header for that slot.
    node.handle(msg.RoundDelivery(2, (make_share(party_keys, 2, 0, digest=d2),)), ctx)
    assert node.state.next_block_seq == 1


def test_replayed_stale_share_never_makes_second_header(party_keys):
    # Epoch window: entries are evicted from the dedup db, and shares whose
    # epoch predates the watermark window are refused both at the filter and
    # at processing time.
    node = make_node(party_keys, epoch_length=10, window=2)
    ctx = StubCtx()
    ctx.time = 5
    original = [make_share(party_keys, s, 0, epoch=0) for s in (0, 1)]
    node.handle(msg.RoundDelivery(1, tuple(original)), ctx)
    assert node.state.next_block_seq == 1
    slot = original[0].key().slot()
    assert slot in node.state.dedup
    # Epochs advance well past the window; the dedup entry is evicted.
    node.handle(msg.RoundDelivery(2, (make_share(party_keys, 0, 7, epoch=5),)), ctx)
    assert slot not in node.state.dedup
    # Replay via the submission filter: stale epoch.
    ctx.time = 5 * 10 + 5
    ok, reason = filter_event(original[0], node.state, ctx.time // 10, pubs(party_keys))
    assert not ok and reason == DROP_STALE_EPOCH
    # Replay forced straight into a round: still no second header.
    node.handle(msg.RoundDelivery(3, tuple(original)), ctx)
    assert node.state.next_block_seq == 1
    assert all(s.epoch >= node.state.ordered_epoch - 2 for s in node.state.pending)


def test_term_change_notifies_batchers(party_keys):
    node = make_node(party_keys)
    ctx = StubCtx()
    votes = tuple(make_complaint(party_keys, s, 0) for s in (1, 2))
    node.handle(msg.RoundDelivery(1, votes), ctx)
    updates = [m for d, m in ctx.sent if isinstance(m, msg.OrderedUpdate) and d == node.d.batcher[0][0]]
    assert updates and updates[0].new_term == 1
    assert node.term_change_log and node.term_change_log[0][1:] == (0, 1)


def test_threshold_for_a_shard_past_the_last_sends_no_update(party_keys):
    # A key for shard 2 of 2 reaches F+1 shares: it makes the header, but no
    # batcher serves that shard, so only shard 1's batcher hears of the round.
    node = make_node(party_keys, shards=2)
    ctx = StubCtx()
    events = [make_share(party_keys, s, 0, shard=shard) for shard in (1, 2) for s in (0, 1)]
    node.handle(msg.RoundDelivery(1, tuple(events)), ctx)
    assert [k.shard for k in node.headers[0].batch_digests] == [1, 2]
    updates = [(d, m) for d, m in ctx.sent if isinstance(m, msg.OrderedUpdate)]
    assert [(d, m.shard) for d, m in updates] == [(node.d.batcher[0][1], 1)]


def test_deterministic_headers_across_replicas(party_keys):
    rng = random.Random(77)
    streams = []
    for round_no in range(1, 30):
        events = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.8:
                events.append(
                    make_share(
                        party_keys,
                        rng.randrange(4),
                        rng.randrange(4),
                        digest=sha256(b"d" + bytes([rng.randrange(3)])),
                        primary=rng.randrange(2),
                        epoch=rng.randrange(3),
                        refs=(BatchKey(0, 0, sha256(b"ref"), 0),) if rng.random() < 0.3 else (),
                    )
                )
            else:
                events.append(make_complaint(party_keys, rng.randrange(4), rng.randrange(2)))
        streams.append(tuple(events))
    replicas = [make_node(party_keys, party=p) for p in range(4)]
    ctxs = [StubCtx() for _ in replicas]
    for round_no, events in enumerate(streams, start=1):
        for node, ctx in zip(replicas, ctxs):
            node.handle(msg.RoundDelivery(round_no, events), ctx)
    reference = [
        encode_header_payload(replicas[0].headers[i]) for i in range(replicas[0].state.next_block_seq)
    ]
    for node in replicas[1:]:
        mine = [encode_header_payload(node.headers[i]) for i in range(node.state.next_block_seq)]
        assert mine == reference
    # Safety independence: no slot ever appears in two different headers.
    seen_slots = {}
    for i in range(replicas[0].state.next_block_seq):
        for key in replicas[0].headers[i].batch_digests:
            assert key.slot() not in seen_slots, "slot committed twice"
            seen_slots[key.slot()] = i


def test_byzantine_garbage_in_round_is_ignored(party_keys):
    node = make_node(party_keys)
    ctx = StubCtx()
    good = [make_share(party_keys, s, 0) for s in (0, 1)]
    forged = BatchAttestationShare(
        2, 0, good[0].digest, 0, 0, 0, (), Signature("test_mac", b"\x00" * 32)
    )
    unknown_signer = make_share({**party_keys, 9: party_keys[0]}, 9, 0)
    node.handle(msg.RoundDelivery(1, (forged, unknown_signer, *good)), ctx)
    assert node.state.next_block_seq == 1
    assert node.headers[0].batch_digests[0] == good[0].key()


def test_share_with_a_short_digest_never_verifies(party_keys):
    node = make_node(party_keys)
    ctx = StubCtx()
    good = make_share(party_keys, 0, 0)
    short = BatchAttestationShare(1, 0, good.digest[:31], 0, 0, 0, (), sign(party_keys[1], good.signing_payload))
    assert short.signing_payload is None
    assert not verify_event(short, pubs(party_keys))
    ok, reason = filter_event(short, ConsensusState(epoch_window=2), 0, pubs(party_keys))
    assert not ok and reason == DROP_BAD_SIGNATURE
    node.handle(msg.RoundDelivery(1, (good, short)), ctx)
    assert node.state.next_block_seq == 0
    assert node.state.pending == [good]
