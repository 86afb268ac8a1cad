"""repro.service — the concurrent, sharded decision service.

Layers (bottom-up):

* :class:`~repro.service.sharding.ShardedEngine` — sessions partitioned
  across N :class:`~repro.rbac.engine.AccessControlEngine` shards by
  stable hash; the process-global state tables and their live masks
  shared by all shards.
* :class:`~repro.service.batching.ProofBatch` — coalesced,
  latency-model-aware cross-server execution-proof propagation with an
  explicit ``flush()``.
* :class:`~repro.service.service.DecisionService` — the front door:
  worker pool, per-shard bounded queues drained in adaptive
  micro-batches through the vectorized decision core
  (:mod:`repro.rbac.vector_engine`), throughput/latency/batching
  counters via ``service_stats()``.

See docs/architecture.md, "Concurrency & sharding".
"""

from repro.service.batching import ProofBatch
from repro.service.service import DecisionService, ServiceStats
from repro.service.sharding import ShardedEngine

__all__ = ["ShardedEngine", "ProofBatch", "DecisionService", "ServiceStats"]
