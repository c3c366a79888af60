"""Collaborative heterogeneous graph (Eq. 1 of the paper) and adjacency utilities."""

from repro.graph.hetero import CollaborativeHeteroGraph, EdgeSet
from repro.graph.sampling import (
    InducedSubgraph,
    SubgraphView,
    build_subgraph_view,
    expand_neighborhood,
    expand_neighborhood_loop,
    induced_subgraph,
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
    "expand_neighborhood_loop",
    "induced_subgraph",
    "InducedSubgraph",
    "SubgraphView",
    "build_subgraph_view",
    "sample_subgraph_view",
]
