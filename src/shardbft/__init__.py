"""Sharded BFT total ordering with separated transaction dissemination.

Transactions are validated by stateless routers, disseminated and persisted
by per-shard batchers, attested via signed shares that a pluggable total
order broadcast sequences, and joined into quorum-signed hash-chained blocks
by assemblers. A deterministic discrete-event simulator drives whole
deployments under configurable faults and verifies agreement, no-loss,
censorship-bound, and sampling-validity properties on the recorded runs.
"""
