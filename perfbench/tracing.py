"""Outside-in per-layer tracing of one simulator run.

The tracer wraps the public entry points of each layer while it is
installed and restores every original binding when it is removed; nothing
under ``src/`` changes. Handler spans (``RouterNode.handle`` and friends)
are the layers; pools, sampling, round processing, header checks, hashing
and signatures are nested spans whose time is subtracted from the
enclosing span's self time. Hash and signature calls are counted against
the layer whose handler is innermost on the span stack, and their wrappers
do nothing but count and read the clock once on each side.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

POOL_METHODS = ("insert", "push_front", "has_sealed", "next_batch", "drain", "seal", "remove", "reset_timers")


class Tracer:
    """Span and counter store, plus the patch table that installs it."""

    def __init__(self):
        self.stack: list[list[float]] = []  # one [child_seconds] per open span
        self.layer = "runner"
        self.busy: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.msg_types: dict[tuple[str, str], int] = defaultdict(int)
        self.by_layer: dict[tuple[str, str], int] = defaultdict(int)  # (layer, "verify") -> calls
        self.verify_seen: set[int] = set()
        self.round_events = 0
        self.fetch_useful = 0
        self.messages = 0
        self.heap_peak = 0
        self._patches: list[tuple[object, str, object]] = []

    # --- span wrappers -----------------------------------------------------

    def span(self, name: str, fn, layer: bool = False):
        """Wrap ``fn`` in a timed span; ``layer`` makes it own nested counts."""
        stack, busy, child, calls = self.stack, self.busy, self.child, self.calls
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if layer:
                outer, tracer.layer = tracer.layer, name
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if layer:
                    tracer.layer = outer
                if stack:
                    stack[-1][0] += dt
                busy[name] += dt
                child[name] += frame[0]
                calls[name] += 1

        return wrapper

    def handler(self, name: str, fn, observe=None):
        """Wrap a node's ``handle(message, ctx)``; counts message types."""
        msg_types = self.msg_types

        def handle(node, message, ctx):
            msg_types[(name, type(message).__name__)] += 1
            if observe is not None:
                observe(node, message)
            return fn(node, message, ctx)

        return self.span(name, handle, layer=True)

    def leaf(self, kind: str, fn, remember=None):
        """Hash or signature primitive: count per layer, one timer, no frame."""
        stack, busy, calls, by_layer = self.stack, self.busy, self.calls, self.by_layer
        tracer = self

        def wrapper(*args):
            t0 = perf_counter()
            out = fn(*args)
            dt = perf_counter() - t0
            if stack:
                stack[-1][0] += dt
            busy[kind] += dt
            calls[kind] += 1
            by_layer[(tracer.layer, kind)] += 1
            if remember is not None:
                remember(args)
            return out

        return wrapper

    # --- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_bindings(self, original, wrapped) -> None:
        """Replace ``original`` in every loaded shardbft module that binds it."""
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "shardbft" and not mod_name.startswith("shardbft."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapped)

    def install(self) -> None:
        from shardbft import assembler, batcher, consensus, core, crypto, messages, pools, router
        from shardbft.sim import checks

        self._patch_bindings(core.sha256, self.leaf("sha256", core.sha256))
        self._patch_bindings(crypto.sign, self.leaf("sign", crypto.sign))
        seen = self.verify_seen
        self._patch_bindings(
            crypto.verify,
            self.leaf("verify", crypto.verify, lambda a: seen.add(hash((a[0], a[1], a[2].data)))),
        )
        for cls in (pools.PrimaryPool, pools.SecondaryPool):
            for method in POOL_METHODS:
                if method in cls.__dict__:
                    self._patch(cls, method, self.span("pools", cls.__dict__[method]))
        for name, fn in (
            ("batcher.sample_verify", batcher.sample_verify),
            ("consensus.process_round", consensus.process_round),
            ("consensus.filter_event", consensus.filter_event),
            ("consensus.verify_event", consensus.verify_event),
            ("assembler.verify_header", assembler.verify_header),
            ("checks.agreement", checks.check_agreement),
            ("checks.no_loss", checks.check_no_loss_no_unbounded_dup),
            ("checks.censorship", checks.check_censorship_bound),
        ):
            self._patch_bindings(fn, self.span(name, fn))

        def on_round(_node, message):
            if type(message) is messages.RoundDelivery:
                self.round_events += len(message.events)

        def on_fetch(node, message):
            if type(message) is messages.AssemblerPullResponse and message.batch is not None:
                digest = message.batch.digest()
                if any(k.digest == digest for k in node.fetching):
                    self.fetch_useful += 1

        for name, cls, observe in (
            ("router", router.RouterNode, None),
            ("batcher", batcher.BatcherNode, None),
            ("consensus", consensus.ConsensusNode, on_round),
            ("assembler", assembler.AssemblerNode, on_fetch),
        ):
            self._patch(cls, "handle", self.handler(name, cls.__dict__["handle"], observe))

    def attach(self, runner) -> None:
        """Instance-level spans on one ``_Runner``; they die with it."""
        runner._schedule_clients = self.span("runner.client_gen", runner._schedule_clients, layer=True)
        runner._on_sequencer = self.span("runner.sequencer", runner._on_sequencer, layer=True)
        runner._on_hub = self.span("runner.hub", runner._on_hub, layer=True)
        runner._goal_met = self.span("runner.goal_check", runner._goal_met, layer=True)
        runner._build_report = self.span("report.build", runner._build_report, layer=True)
        send, push, heap = runner.network_send, runner.push, runner.heap

        def network_send(sender, dest, message):
            self.messages += 1
            send(sender, dest, message)

        def counted_push(t, sender, dest, message):
            push(t, sender, dest, message)
            if len(heap) > self.heap_peak:
                self.heap_peak = len(heap)

        runner.network_send = network_send
        runner.push = counted_push

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # --- results -------------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.busy[name] - self.child[name]

    def layer_count(self, layer: str, kind: str) -> int:
        return self.by_layer[(layer, kind)]

    def handled(self, layer: str, message_type: str) -> int:
        return self.msg_types[(layer, message_type)]
