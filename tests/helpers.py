"""Builders shared by the unit tests: transactions, batches, pending
attestation shares, a deployment wired to the fixture keys, a context
that records what a node does, a run checked after every delivery, and
links held back until GST.

ROADMAP item 16's oracles each name the delivery that made a violation
visible: the assembler prefix and batcher agreement are checked after
every delivery (batcher agreement also by ``batcher_forks``, a scan of the
finished run its per-delivery result must equal), and "no correct primary
deposed after GST + Delta" reads the term change log, whose entries carry
their delivery's time. ``checked_draw`` runs a generated scenario once per
process with all of them, and keeps only its ``Verdict``."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import families
from shardbft.assembler import AssemblerNode
from shardbft.batcher import BatcherNode
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


def _at(t_us: int) -> str:
    return f"t={t_us / 1e6:.6f} s"


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


def deposed_correct_primaries(runner, cfg) -> list[tuple[int, tuple[int, int], str]]:
    """Every term whose primary (``primary_for_term``) is correct, which
    began at or after GST + Delta and which a later term ended, as the first
    correct consensus node's ``term_change_log`` records them: ROADMAP item
    16's "no correct primary deposed after GST + Delta". Each is (the time
    of the term change, (shard, term), a line naming it), in log order.
    Term 0 begins at time 0.

    A log entry's time is that of the delivery that appended it, so this
    scan of a finished run names each violation's delivery, as a check
    after every delivery would."""
    correct = cfg.correct_parties()
    after = cfg.gst_us + cfg.delta_us
    current = {shard: (0, 0) for shard in range(cfg.shard_count)}  # shard -> (term, began at)
    deposed = []
    for at, shard, term in runner.consensus[correct[0]].term_change_log:
        old, began = current[shard]
        primary = primary_for_term(old, cfg.n_parties)
        if began >= after and primary in correct:
            line = f"{_at(at)}: shard {shard} leaves term {old}, whose primary p{primary} is correct"
            deposed.append((at, (shard, old), f"{line} and began at {began / 1e6:.6f} s"))
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
                violations.append(
                    f"{_at(node.throughput_series[seq][0])}: p{party} appends block {seq} on a "
                    f"{type(message).__name__}, not p{first_at[seq][1]}'s block {seq}"
                )
        checked[party] = len(ledger)

    return check, violations


def batcher_agreement_check(runner, cfg):
    """``batcher_forks`` as a ``run_checked`` check on ``runner``: after every
    delivery, no two correct batchers of a shard hold batches of different
    terms at a seq up to the shard's highest thresholded one. Returns the
    check and a dict (shard, seq) -> the delivery that made that fork
    visible.

    Ledgers and ``thresholded`` sets only grow, so a fork stays visible once
    it is, and the check looks only at a correct batcher whose ledger or
    ``thresholded`` set the delivery grew: its new batches, against the
    terms other correct batchers hold at those seqs, and the seqs that a
    rise of the shard's highest thresholded seq passes."""
    correct = set(cfg.correct_parties())
    top = [-1] * cfg.shard_count  # shard -> highest thresholded seq of its correct batchers
    terms: list[list[dict[int, int]]] = [[] for _ in range(cfg.shard_count)]  # shard -> seq -> term -> first holder
    checked: dict[BatcherNode, tuple[int, int]] = {}  # batcher -> (ledger length, thresholded count) seen
    forks: dict[tuple[int, int], str] = {}

    def fork(shard: int, seq: int, what: str) -> None:
        held = terms[shard][seq]
        if len(held) > 1 and seq <= top[shard] and (shard, seq) not in forks:
            holders = " and ".join(f"p{party} term {term}" for term, party in held.items())
            forks[shard, seq] = f"{_at(runner.now_us)}: {what}; shard {shard} seq {seq} is held as {holders}"

    def check(node, message) -> None:
        if not isinstance(node, BatcherNode) or node.party not in correct:
            return
        height, count = checked.get(node, (0, 0))
        if height == len(node.ledger) and count == len(node.thresholded):
            return
        checked[node] = len(node.ledger), len(node.thresholded)
        shard, party, event = node.shard, node.party, type(message).__name__
        for seq in range(height, len(node.ledger)):
            term = node.ledger[seq].term
            if seq == len(terms[shard]):
                terms[shard].append({})
            terms[shard][seq].setdefault(term, party)
            fork(shard, seq, f"p{party} persists seq {seq} of term {term} on a {event}")
        if count != len(node.thresholded):  # the OrderedUpdate's keys are the new ones
            old = top[shard]
            top[shard] = max(old, *(key.seq for key in message.thresholded))
            for seq in range(old + 1, min(top[shard] + 1, len(terms[shard]))):
                fork(shard, seq, f"p{party}'s {event} thresholds seq {top[shard]}")

    return check, forks


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


def fold_check(runner, cfg):
    """A ``run_checked`` check on ``runner`` that checks its commit fold with
    ``assert_fold_matches_ledgers`` after every delivery that grows a
    correct ledger."""
    heights = dict.fromkeys(runner.folded, 0)

    def check(node, _message) -> None:
        # Only a correct assembler whose ledger grew has blocks to fold.
        if isinstance(node, AssemblerNode) and node.party in heights and heights[node.party] != len(node.ledger):
            heights[node.party] = len(node.ledger)
            runner._fold_commits()
            assert_fold_matches_ledgers(runner, cfg, ended=False)

    return check


def run_with_fold_checked(cfg: ScenarioConfig):
    """Run ``cfg`` with ``fold_check`` attached, then check the fold once
    more on the built report; returns the runner and the report."""
    runner = _Runner(cfg)
    check_each_delivery(runner, fold_check(runner, cfg))
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


def hold_until_gst(runner, party: int) -> None:
    """Make every link into ``party``'s batchers deliver at ``max(now, GST) +
    base``: a partition of those batchers that heals at GST. Each link is one
    function from send time to arrival time, so the hold replaces it."""
    gst, base = runner.cfg.gst_us, runner.cfg.latency.base_us

    def held(now: int) -> int:
        return max(now, gst) + base

    for links in runner.links:
        for dest in runner.d.batcher[party]:
            links[dest] = held


def _checked(node, handle, check):
    def checked(message, ctx):
        handle(message, ctx)
        check(node, message)

    return checked


@dataclass(frozen=True)
class Verdict:
    """What the oracle tests and the sweeps read of one run, which keeps no
    runner alive: the report's checks and quiescence, each item-16
    oracle's violations, and the earliest of them."""

    checks: dict
    quiescent: bool
    prefix: list[str]
    forks: dict[tuple[int, int], str]
    deposed: dict[tuple[int, int], str]
    first: str | None


def checked_run(cfg: ScenarioConfig, fold: bool = False) -> Verdict:
    """Run ``cfg`` with the assembler prefix and batcher agreement checked
    after each delivery, and with ``fold_check`` too if ``fold``; the
    deposed-primary oracle reads the finished run's term change log. Raises
    if the per-delivery forks differ from ``batcher_forks``: that is a
    fault of the oracle, not of the run, so it is not an AssertionError a
    strict xfail could absorb."""
    runner = _Runner(cfg)
    prefix, broken = assembler_prefix_check(cfg)
    agreement, forks = batcher_agreement_check(runner, cfg)
    oracles = [prefix, agreement, *([fold_check(runner, cfg)] if fold else [])]
    first: list[tuple[int, str]] = []  # the time and line of the first prefix break or fork

    def check(node, message) -> None:
        for each in oracles:
            each(node, message)
        if not first and (broken or forks):
            first.append((runner.now_us, [*broken, *forks.values()][0]))

    check_each_delivery(runner, check)
    report = runner.run()
    if fold:
        assert_fold_matches_ledgers(runner, cfg, ended=True)
    if sorted(forks) != batcher_forks(runner, cfg):
        raise RuntimeError(f"per-delivery forks {sorted(forks)} differ from the run-end scan's")
    deposed = deposed_correct_primaries(runner, cfg)
    # Both lists are in time order; a tie goes to the prefix break or fork.
    heads = [*first, *[(at, line) for at, _term, line in deposed[:1]]]
    earliest = min(heads, key=lambda head: head[0])[1] if heads else None
    return Verdict(report.checks, report.quiescent, broken, forks, {term: line for _t, term, line in deposed}, earliest)


TIER1_DRAWS = "draw/20261018"  # tier-1's generated scenarios are TIER1_DRAWS/0 to 99
FOLD_CHECKED_DRAWS = 20  # of which 0-19 also check the commit fold


@cache
def checked_draw(name: str) -> Verdict:
    """``checked_run`` of the ``draw/R/I`` scenario ``name``, once per process."""
    family, i = name.rsplit("/", 1)
    return checked_run(families.load(name), fold=family == TIER1_DRAWS and int(i) < FOLD_CHECKED_DRAWS)


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
