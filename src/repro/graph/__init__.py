"""Collaborative heterogeneous graph (Eq. 1 of the paper) and adjacency utilities."""

from repro.graph.hetero import CollaborativeHeteroGraph, EdgeSet
from repro.graph.sampling import (
    SubgraphView,
    expand_neighborhood,
    sample_subgraph_view,
)
from repro.graph.adjacency import (
    row_normalize,
    symmetric_normalize,
    bipartite_norm_adjacency,
    add_self_loops,
)

__all__ = [
    "CollaborativeHeteroGraph",
    "EdgeSet",
    "row_normalize",
    "symmetric_normalize",
    "bipartite_norm_adjacency",
    "add_self_loops",
    "expand_neighborhood",
    "SubgraphView",
    "sample_subgraph_view",
]
