"""Property-based tests for graph construction and subgraph sampling."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data import SyntheticConfig, generate_dataset, leave_one_out
from repro.engine import tolerances
from repro.graph import CollaborativeHeteroGraph, SubgraphView


def _random_graph(seed: int, num_users: int, num_items: int):
    config = SyntheticConfig(
        num_users=num_users, num_items=num_items, num_relations=4,
        num_communities=3, mean_interactions=5.0, mean_social_degree=3.0,
        seed=seed, name="prop-graph")
    dataset = generate_dataset(config)
    split = leave_one_out(dataset, seed=seed)
    return CollaborativeHeteroGraph(dataset, split.train_pairs)


class TestGraphInvariants:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 200), st.integers(20, 50), st.integers(40, 100))
    def test_joint_normalizations_partition_unity(self, seed, num_users,
                                                  num_items):
        graph = _random_graph(seed, num_users, num_items)
        user_total = (np.asarray(graph.user_social_joint.sum(axis=1)).ravel()
                      + np.asarray(graph.user_item_joint.sum(axis=1)).ravel())
        active = (graph.user_degree_social + graph.user_degree_interaction) > 0
        np.testing.assert_allclose(user_total[active], 1.0,
                                   rtol=tolerances().rtol)
        item_total = (np.asarray(graph.item_user_joint.sum(axis=1)).ravel()
                      + np.asarray(graph.item_relation_joint.sum(axis=1)).ravel())
        item_active = (graph.item_degree_interaction
                       + graph.item_degree_relation) > 0
        np.testing.assert_allclose(item_total[item_active], 1.0,
                                   rtol=tolerances().rtol)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 200), st.integers(20, 40), st.integers(40, 80))
    def test_metapaths_symmetric_and_hollow(self, seed, num_users, num_items):
        graph = _random_graph(seed, num_users, num_items)
        for name in ("uiu", "iui", "iri"):
            matrix = graph.metapath(name)
            assert (abs(matrix - matrix.T) > tolerances().atol).nnz == 0
            assert matrix.diagonal().sum() == 0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 200), st.integers(20, 40), st.integers(40, 80))
    def test_bipartite_norm_spectral_radius(self, seed, num_users, num_items):
        graph = _random_graph(seed, num_users, num_items)
        dense = graph.bipartite_norm.toarray()
        eigenvalues = np.linalg.eigvalsh((dense + dense.T) / 2.0)
        assert eigenvalues.max() <= 1.0 + 1e-8


class TestSubgraphInvariants:
    """A :class:`SubgraphView` is the parent's views restricted to the
    induced node sets: same weights, never an edge the parent lacks."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 200), st.integers(25, 40), st.integers(50, 80),
           st.integers(1, 1000))
    def test_induced_edges_subset_of_parent(self, seed, num_users, num_items,
                                            pick_seed):
        graph = _random_graph(seed, num_users, num_items)
        rng = np.random.default_rng(pick_seed)
        user_ids = np.unique(rng.integers(0, num_users, size=10))
        item_ids = np.unique(rng.integers(0, num_items, size=20))
        view = SubgraphView(graph, user_ids, item_ids)
        for name, rows, cols in (("user_item_joint", user_ids, item_ids),
                                 ("social_mean", user_ids, user_ids)):
            # every induced entry is the parent's entry, weight unchanged
            sliced = getattr(view, name).tocoo()
            parent = getattr(graph, name).tocsr()
            for local_row, local_col, weight in zip(sliced.row, sliced.col,
                                                    sliced.data):
                assert parent[rows[local_row], cols[local_col]] == weight
            # a row never holds more entries than its parent row
            parent_counts = np.diff(parent.indptr)[rows]
            assert (np.diff(getattr(view, name).indptr)
                    <= parent_counts).all()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 100), st.integers(25, 40), st.integers(50, 80))
    def test_full_induction_is_identity(self, seed, num_users, num_items):
        graph = _random_graph(seed, num_users, num_items)
        view = SubgraphView(graph, np.arange(num_users),
                            np.arange(num_items))
        for name in ("user_social_joint", "user_item_joint",
                     "item_user_joint", "item_relation_joint",
                     "relation_item_mean", "social_self_loop_mean"):
            sliced, parent = getattr(view, name), getattr(graph, name)
            assert sliced.nnz == parent.nnz, name
            np.testing.assert_array_equal(sliced.toarray(), parent.toarray(),
                                          err_msg=name)
