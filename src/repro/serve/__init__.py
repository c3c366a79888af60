"""Online serving: snapshot store, batched ranking, ANN retrieval.

The training side of the repository ends at a trained model; this
package is the inference side — the offline-train/online-serve split of
production recommenders (cf. "Tripartite Heterogeneous Graph
Propagation for Large-scale Social Recommendation"):

* :mod:`repro.serve.snapshot` — versioned, checksummed, memory-mapped
  :class:`EmbeddingSnapshot` artifacts published by a
  :class:`SnapshotStore` and shared read-only across serving workers;
* :mod:`repro.serve.ann` — a pure-numpy approximate retrieval index
  (IVF coarse quantization) over the item embeddings;
* :mod:`repro.serve.service` — :class:`RecommendService`, the batched
  ``recommend(user_ids, k)`` entry point with train-item masking,
  blocked exact scoring, exact/IVF retrieval and automatic cold-user
  dispatch.
"""

from repro.serve.ann import (
    CoarseIndex,
    build_ivf_index,
)
from repro.serve.service import (
    RecommendService,
    cold_user_embedding,
    topk_recall,
)
from repro.serve.snapshot import (
    EmbeddingSnapshot,
    SnapshotIntegrityError,
    SnapshotStore,
)

__all__ = [
    "CoarseIndex",
    "EmbeddingSnapshot",
    "RecommendService",
    "SnapshotIntegrityError",
    "SnapshotStore",
    "build_ivf_index",
    "cold_user_embedding",
    "topk_recall",
]
