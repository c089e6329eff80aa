"""Sharded BFT total ordering with separated transaction dissemination.

Transactions are validated by stateless routers, disseminated and persisted
by per-shard batchers, attested via signed shares that a pluggable total
order broadcast sequences, and joined into quorum-signed hash-chained blocks
by assemblers. A deterministic discrete-event simulator drives whole
deployments under configurable faults and verifies agreement, no-loss,
censorship-bound, and sampling-validity properties on the recorded runs.
"""

from .core import (
    Batch,
    BatchAttestationShare,
    BatchKey,
    Block,
    BlockHeader,
    ComplaintVote,
    Transaction,
    attestation_threshold,
    primary_for_term,
    quorum_size,
)
from .batcher import required_sample_size, sample_verify
from .crypto import KeyPair, Signature, keygen, sign, verify
from .router import map_to_shard, validate_transaction

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "BatchAttestationShare",
    "BatchKey",
    "Block",
    "BlockHeader",
    "ComplaintVote",
    "KeyPair",
    "Signature",
    "Transaction",
    "attestation_threshold",
    "keygen",
    "map_to_shard",
    "primary_for_term",
    "quorum_size",
    "required_sample_size",
    "sample_verify",
    "sign",
    "validate_transaction",
    "verify",
]
