"""Fault tolerance for disaggregated memory (paper §3, Challenge 8).

The paper lists the mechanisms a disaggregated runtime can use to
survive the failures that are routine at datacenter scale:

* **one redundancy code** (:mod:`repro.ft.erasure`) — Carbink-style
  spans of k data shards + m Reed–Solomon parity shards on distinct
  failure domains, with compaction of dead space; (k+m)/k memory
  overhead at the price of reconstruction bandwidth.  The (k, m) pair
  covers every scheme the paper lists: r-way replication is
  ``k=1, m=r-1`` (each parity shard is a plain copy), single-parity
  striping is ``m=1`` and plain striping ``m=0``.  The codec
  (:mod:`repro.ft.gf256`, :class:`repro.ft.erasure.ReedSolomon`) is a
  real, byte-exact implementation validated by property tests.
* **recovery orchestration** (:mod:`repro.ft.recovery`) — failure
  detection wired to the cluster's fault injector, driving repair as
  simulation processes and accounting repair traffic.
"""

from repro.ft.backups import BackupStats, OutputBackupStore
from repro.ft.gf256 import GF256
from repro.ft.erasure import (
    DataLoss,
    DecodeError,
    ErasureCodedStore,
    ReedSolomon,
    Span,
)
from repro.ft.recovery import RecoveryOrchestrator, RecoveryStats
from repro.ft.checkpoint import CheckpointError, CheckpointService, Snapshot

__all__ = [
    "BackupStats",
    "CheckpointError",
    "CheckpointService",
    "DataLoss",
    "DecodeError",
    "ErasureCodedStore",
    "GF256",
    "OutputBackupStore",
    "RecoveryOrchestrator",
    "RecoveryStats",
    "ReedSolomon",
    "Snapshot",
    "Span",
]
