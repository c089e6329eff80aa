"""Builders shared by the unit tests: transactions, batches, pending
attestation shares, a deployment wired to the fixture keys, a context
that records what a node does, a run checked after every delivery, the
correct assemblers' ledgers checked to be prefixes of one another, the
batcher forks and deposed correct primaries a finished run holds, and each
tx's first commit time at each correct party, scanned from the ledgers."""

from __future__ import annotations

from shardbft.assembler import AssemblerNode
from shardbft.core import Batch, Transaction, primary_for_term, tx_signing_bytes
from shardbft.crypto import sign
from shardbft.sim.runner import Deployment, _Runner
from shardbft.sim.scenario import ProtocolParams, ScenarioConfig


def make_tx(client: int, payload: bytes, keys) -> Transaction:
    return Transaction(client, payload, sign(keys[client], tx_signing_bytes(client, payload)))


def make_batch(txs, shard=0, seq=0, term=0, primary=0) -> Batch:
    return Batch(shard, seq, term, primary, tuple(txs))


def as_pending(shares) -> dict:
    """Consensus pending shares in their stored form: key -> the set of its
    signers, keys in first-appearance order."""
    pending: dict = {}
    for share in shares:
        pending.setdefault(share.key, set()).add(share.signer)
    return pending


def pending_oracle(pending_shares, batch, f):
    """Brute-force round rule over the concatenated shares: returns the
    per-slot winners in first-appearance order (in each slot, the first key
    F+1 distinct signers attest), the other keys of those slots, and the
    shares that stay pending (those of every slot without a winner)."""
    shares = [*pending_shares, *batch]
    signers: dict = {}
    for share in shares:
        signers.setdefault(share.key, set()).add(share.signer)
    winners, slots = [], set()
    for key, who in signers.items():  # first-appearance order
        if len(who) >= f + 1 and key.slot() not in slots:
            winners.append(key)
            slots.add(key.slot())
    dropped = {key for key in signers if key.slot() in slots} - set(winners)
    return winners, dropped, [share for share in shares if share.key.slot() not in slots]


def batcher_forks(runner, cfg) -> list[tuple[int, int]]:
    """Every (shard, seq) at which two correct batchers of the shard hold
    ledger batches of different terms, for seq up to the highest seq among
    the thresholded keys of the shard's correct batchers: ROADMAP item 1's
    batcher agreement, judged when ``runner`` has run."""
    forks = []
    for shard in range(cfg.shard_count):
        batchers = [runner.batchers[party, shard] for party in cfg.correct_parties()]
        top = max((key.seq for batcher in batchers for key in batcher.thresholded), default=-1)
        for seq in range(top + 1):
            if len({batcher.ledger[seq].term for batcher in batchers if seq < batcher.height}) > 1:
                forks.append((shard, seq))
    return forks


def deposed_correct_primaries(runner, cfg) -> list[tuple[int, int]]:
    """Every (shard, term) whose primary (``primary_for_term``) is correct, which
    began at or after GST + Delta and which a later term ended, as the first
    correct consensus node's ``term_change_log`` records them: ROADMAP item
    16's "no correct primary deposed after GST + Delta", judged when
    ``runner`` has run. Term 0 begins at time 0."""
    correct = cfg.correct_parties()
    after = cfg.gst_us + cfg.delta_us
    current = {shard: (0, 0) for shard in range(cfg.shard_count)}  # shard -> (term, began at)
    deposed = []
    for at, shard, term in runner.consensus[correct[0]].term_change_log:
        old, began = current[shard]
        if began >= after and primary_for_term(old, cfg.n_parties) in correct:
            deposed.append((shard, old))
        current[shard] = (term, at)
    return deposed


def assembler_prefix_check(cfg):
    """ROADMAP item 16's assembler prefix as a ``run_checked`` check: after
    every delivery, the correct assemblers' ledgers are prefixes of one
    another. Returns the check and the list of violations it appends to.

    A delivery grows at most the ledger it went to, and ledgers only grow,
    so the check compares that ledger's new blocks, by header hash, with the
    blocks the first correct ledger to reach each height holds: a delivery
    that grows nothing costs a lookup. Each violation names the delivery
    and the block's append time."""
    correct = set(cfg.correct_parties())
    first_at: list[tuple[bytes, int]] = []  # height -> (header hash, first party to append it)
    checked = dict.fromkeys(correct, 0)
    violations: list[str] = []

    def check(node, message) -> None:
        if not isinstance(node, AssemblerNode) or node.party not in correct:
            return
        ledger, party = node.ledger, node.party
        for seq in range(checked[party], len(ledger)):
            digest = ledger[seq].header.header_hash
            if seq == len(first_at):
                first_at.append((digest, party))
            elif first_at[seq][0] != digest:
                t = node.throughput_series[seq][0]
                violations.append(
                    f"t={t / 1e6:.6f} s: p{party} appends block {seq} on a {type(message).__name__}, "
                    f"not p{first_at[seq][1]}'s block {seq}"
                )
        checked[party] = len(ledger)

    return check, violations


def first_commits(runner, cfg) -> dict[bytes, dict[int, int]]:
    """tx_id -> {correct party: the append time of its first ledger block
    holding the tx}, scanned from each correct assembler's ledger and its
    ``throughput_series``: the brute-force reference for the runner's fold."""
    out: dict[bytes, dict[int, int]] = {}
    for party in cfg.correct_parties():
        assembler = runner.assemblers[party]
        for block, (t, _total) in zip(assembler.ledger, assembler.throughput_series):
            for batch in block.batches:
                for tx in batch.txs:
                    out.setdefault(tx.tx_id, {}).setdefault(party, t)
    return out


def assert_fold_matches_ledgers(runner, cfg, ended: bool) -> None:
    """Each tx record's holders and first and last commit equal a scan of the
    correct ledgers (``first_commits``), and each committed tx with no record
    is in the runner's side map with its holders. Until the report is built a
    record's last commit is the latest first commit among its holders; in
    the report it is None unless every correct party holds the tx."""
    scanned = first_commits(runner, cfg)
    everyone = len(cfg.correct_parties())
    for record in runner.tx_records:
        times = scanned.pop(record.tx_id, {})
        last = max(times.values(), default=None)
        assert record.holders == sum(1 << party for party in times), record
        assert record.first_commit_us == min(times.values(), default=None), record
        assert record.last_commit_us == (None if ended and len(times) < everyone else last), record
    assert runner.unrecorded == {tx_id: sum(1 << party for party in times) for tx_id, times in scanned.items()}


def run_with_fold_checked(cfg: ScenarioConfig):
    """Run ``cfg``, checking the runner's commit fold with
    ``assert_fold_matches_ledgers`` after every delivery that grows a correct
    ledger and once the report is built; returns the runner and the report."""
    runner = _Runner(cfg)
    heights = dict.fromkeys(runner.folded, 0)

    def check(node, _message) -> None:
        # Only a correct assembler whose ledger grew has blocks to fold.
        if isinstance(node, AssemblerNode) and node.party in heights and heights[node.party] != len(node.ledger):
            heights[node.party] = len(node.ledger)
            runner._fold_commits()
            assert_fold_matches_ledgers(runner, cfg, ended=False)

    check_each_delivery(runner, check)
    report = runner.run()
    assert_fold_matches_ledgers(runner, cfg, ended=True)
    return runner, report


def make_deployment(party_keys=None, client_directory=None, n=4, f=1, shards=1, seed=42, **protocol):
    """A deployment of ``n`` parties, with the fixtures' keys where given;
    keyword arguments override ``ProtocolParams`` fields."""
    cfg = ScenarioConfig(n_parties=n, f=f, shard_count=shards, seed=seed, protocol=ProtocolParams(**protocol))
    d = Deployment(cfg)
    if party_keys is not None:
        d.party_keys = party_keys
        d.party_pubs = {p: party_keys[p].public for p in range(n)}
    if client_directory is not None:
        d.client_directory = client_directory
    return d


def run_checked(cfg: ScenarioConfig, check):
    """Run ``cfg``, calling ``check(node, message)`` after each delivery to a
    node (the sequencer and the hub are not nodes); returns the report."""
    runner = _Runner(cfg)
    check_each_delivery(runner, check)
    return runner.run()


def check_each_delivery(runner, check) -> None:
    """Make ``runner`` call ``check(node, message)`` after each delivery to a
    node. Each node instance's ``handle`` is wrapped before ``run()`` binds
    its handler table, so the check sees the state that delivery left."""
    for node in runner.nodes[2:]:
        node.handle = _checked(node, node.handle, check)


def _checked(node, handle, check):
    def checked(message, ctx):
        handle(message, ctx)
        check(node, message)

    return checked


class StubCtx:
    """Minimal NodeContext for unit-testing nodes in isolation."""

    def __init__(self, now_us: int = 0):
        self.time = now_us
        self.sent: list[tuple[int, object]] = []
        self.timers: list[tuple[int, object]] = []

    def now(self) -> int:
        return self.time

    def send(self, dest, message):
        self.sent.append((dest, message))

    def schedule(self, delay_us, message):
        self.timers.append((self.time + delay_us, message))

    def take_sent(self):
        out = self.sent
        self.sent = []
        return out
