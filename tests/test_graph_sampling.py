"""Tests for neighbourhood sampling and minibatch subgraph training."""

import time

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.data import leave_one_out, medium
from repro.engine import tolerances
from repro.graph import CollaborativeHeteroGraph
from repro.graph.sampling import (
    SubgraphView,
    expand_neighborhood,
    sample_subgraph_view,
)
from repro.models import create_model
from repro.models.dgnn import DGNN
from repro.nn import Adam
from tests.oracles.expansion import expand_neighborhood_loop

# Models implementing the sampled propagation path.
SAMPLED_MODELS = ("dgnn", "lightgcn", "ngcf", "diffnet")


class TestExpandNeighborhood:
    def test_contains_seeds(self, tiny_graph):
        users, items = expand_neighborhood(tiny_graph, np.array([0, 1]),
                                           np.array([5]), hops=1)
        assert {0, 1} <= set(users)
        assert 5 in items

    def test_monotone_in_hops(self, tiny_graph):
        seeds_u, seeds_i = np.array([0]), np.array([0])
        u1, i1 = expand_neighborhood(tiny_graph, seeds_u, seeds_i, hops=1)
        u2, i2 = expand_neighborhood(tiny_graph, seeds_u, seeds_i, hops=2)
        assert set(u1) <= set(u2)
        assert set(i1) <= set(i2)

    def test_fanout_caps_growth(self, tiny_graph):
        seeds_u = np.arange(5)
        seeds_i = np.arange(5)
        full_u, full_i = expand_neighborhood(tiny_graph, seeds_u, seeds_i,
                                             hops=2, fanout=None)
        capped_u, capped_i = expand_neighborhood(tiny_graph, seeds_u, seeds_i,
                                                 hops=2, fanout=1, seed=0)
        assert len(capped_u) <= len(full_u)
        assert len(capped_i) <= len(full_i)

    def test_deterministic_given_seed(self, tiny_graph):
        a = expand_neighborhood(tiny_graph, np.array([0]), np.array([1]),
                                hops=2, fanout=2, seed=7)
        b = expand_neighborhood(tiny_graph, np.array([0]), np.array([1]),
                                hops=2, fanout=2, seed=7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("hops", [0, 1, 2, 3])
    def test_vectorized_matches_loop_oracle_uncapped(self, tiny_graph, hops):
        seeds_u, seeds_i = np.array([0, 3, 3]), np.array([1, 5])
        fast = expand_neighborhood(tiny_graph, seeds_u, seeds_i, hops=hops)
        loop = expand_neighborhood_loop(tiny_graph, seeds_u, seeds_i,
                                        hops=hops)
        np.testing.assert_array_equal(fast[0], loop[0])
        np.testing.assert_array_equal(fast[1], loop[1])

    def test_capped_fast_is_subset_of_closure(self, tiny_graph):
        seeds_u, seeds_i = np.arange(4), np.arange(4)
        full_u, full_i = expand_neighborhood(tiny_graph, seeds_u, seeds_i,
                                             hops=2, fanout=None)
        capped_u, capped_i = expand_neighborhood(tiny_graph, seeds_u, seeds_i,
                                                 hops=2, fanout=2, seed=3)
        assert np.isin(capped_u, full_u).all()
        assert np.isin(capped_i, full_i).all()
        assert set(seeds_u) <= set(capped_u)
        assert set(seeds_i) <= set(capped_i)

    def test_seed_outside_graph_raises_value_error(self, tiny_graph):
        """A negative seed used to die inside numpy ("negative
        dimensions are not allowed"); every out-of-range seed now names
        itself."""
        for users, items in (([-1], [0]), ([0], [-2]),
                             ([tiny_graph.num_users], [0]),
                             ([0], [tiny_graph.num_items])):
            with pytest.raises(ValueError, match="seed .* out of range"):
                expand_neighborhood(tiny_graph, np.array(users),
                                    np.array(items), hops=1)


class TestSubgraphView:
    def test_views_match_dense_parent_slices(self, tiny_graph):
        user_ids = np.array([0, 2, 5, 7])
        item_ids = np.array([1, 3, 4, 9, 12])
        view = SubgraphView(tiny_graph, user_ids, item_ids)
        for name, rows, cols in (
                ("social_mean", user_ids, user_ids),
                ("user_item_mean", user_ids, item_ids),
                ("item_relation_mean", item_ids,
                 np.arange(tiny_graph.num_relations))):
            parent = getattr(tiny_graph, name).toarray()
            sliced = getattr(view, name).toarray()
            np.testing.assert_array_equal(
                sliced, parent[np.ix_(rows, cols)], err_msg=name)

    def test_joint_view_matches_dense_parent_slice(self, tiny_graph):
        user_ids = np.array([1, 4])
        item_ids = np.array([0, 2, 6])
        view = SubgraphView(tiny_graph, user_ids, item_ids)
        joint = np.concatenate([user_ids, tiny_graph.num_users + item_ids])
        parent = tiny_graph.bipartite_norm.toarray()
        np.testing.assert_array_equal(
            view.bipartite_norm.toarray(), parent[np.ix_(joint, joint)])

    def test_views_are_memoized(self, tiny_graph):
        view = SubgraphView(tiny_graph, np.arange(3), np.arange(3))
        assert view.social_mean is view.social_mean
        assert "social_mean" in view.materialized_views()

    def test_local_ids_validate_membership(self, tiny_graph):
        view = SubgraphView(tiny_graph, np.array([1, 4, 6]),
                                   np.array([2, 5]))
        np.testing.assert_array_equal(view.local_users(np.array([4, 1])),
                                      [1, 0])
        np.testing.assert_array_equal(view.local_items(np.array([5])), [1])
        with pytest.raises(KeyError):
            view.local_users(np.array([0]))
        with pytest.raises(KeyError):
            view.local_items(np.array([3]))

    def test_ids_outside_parent_raise_key_error(self, tiny_graph):
        """With every node in the view, ``-1`` used to map to the last
        node's row: the lookup table was read from its end."""
        view = SubgraphView(tiny_graph, np.arange(tiny_graph.num_users),
                            np.arange(tiny_graph.num_items))
        for ids in ([-1], [0, -3], [tiny_graph.num_users]):
            with pytest.raises(KeyError):
                view.local_users(np.array(ids))
        for ids in ([-1], [tiny_graph.num_items]):
            with pytest.raises(KeyError):
                view.local_items(np.array(ids))
        np.testing.assert_array_equal(view.local_users(np.array([0, 5])),
                                      [0, 5])

    def test_sample_subgraph_view_covers_seeds(self, tiny_graph):
        users = np.array([0, 2])
        items = np.array([1, 8])
        view = sample_subgraph_view(tiny_graph, users, items, hops=1,
                                    fanout=2, seed=0)
        assert np.isin(users, view.user_ids).all()
        assert np.isin(items, view.item_ids).all()
        assert view.num_relations == tiny_graph.num_relations


class TestSampledFullParity:
    @pytest.mark.parametrize("name", SAMPLED_MODELS)
    def test_uncapped_sampled_loss_and_grads_match_full(self, name,
                                                        tiny_graph,
                                                        tiny_split):
        """fanout=None at the model's exact closure depth is lossless.

        Subgraph views keep the parent's normalizers, so the sampled BPR
        loss and every parameter gradient must match the full-graph path
        to dtype tolerance for each sampled-path model.
        """
        model = create_model(name, tiny_graph, embed_dim=8, seed=0)
        model.eval()  # freeze dropout so both paths run the same function
        users = tiny_split.train_pairs[:32, 0]
        positives = tiny_split.train_pairs[:32, 1]
        negatives = (positives + 7) % tiny_graph.num_items

        model.zero_grad()
        sampled = model.bpr_loss_sampled(users, positives, negatives,
                                         fanout=None)
        sampled.backward()
        sampled_grads = [None if p.grad is None else p.grad.copy()
                        for p in model.parameters()]

        model.zero_grad()
        model.invalidate_cache()
        full = model.bpr_loss(users, positives, negatives)
        full.backward()

        tol = tolerances()
        np.testing.assert_allclose(sampled.item(), full.item(),
                                   rtol=tol.rtol, atol=tol.atol)
        full_grads = [p.grad for p in model.parameters()]
        assert len(sampled_grads) == len(full_grads)
        for sampled_grad, full_grad in zip(sampled_grads, full_grads):
            if full_grad is None:
                assert sampled_grad is None
                continue
            np.testing.assert_allclose(sampled_grad, full_grad,
                                       rtol=tol.grad_rtol,
                                       atol=tol.grad_atol)


class TestInducedSubgraph:
    """The view's induced node sets, id maps and edges."""

    def test_counts_and_maps(self, tiny_graph):
        user_ids = np.array([3, 1, 7])
        item_ids = np.array([10, 2])
        view = SubgraphView(tiny_graph, user_ids, item_ids)
        assert view.num_users == 3
        assert view.num_items == 2
        assert view.num_relations == tiny_graph.num_relations
        np.testing.assert_array_equal(view.user_ids, [1, 3, 7])
        np.testing.assert_array_equal(view.local_users(np.array([3, 7])),
                                      [1, 2])

    def test_edges_preserved(self, tiny_graph):
        # take every node: edge counts must match the parent graph
        view = SubgraphView(tiny_graph, np.arange(tiny_graph.num_users),
                            np.arange(tiny_graph.num_items))
        assert view.user_item_mean.nnz == tiny_graph.interaction.nnz
        assert view.social_mean.nnz == tiny_graph.social.nnz
        assert view.item_relation_mean.nnz == tiny_graph.item_relation.nnz

    def test_empty_sets_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            SubgraphView(tiny_graph, np.array([]), np.array([0]))

    def test_ablation_flags_inherited(self, tiny_dataset, tiny_split):
        parent = CollaborativeHeteroGraph(tiny_dataset, tiny_split.train_pairs,
                                          use_social=False)
        view = SubgraphView(parent, np.arange(10), np.arange(10))
        assert view.social_mean.nnz == 0
        assert view.user_social_joint.nnz == 0


class TestSampledPropagation:
    def test_full_node_subgraph_matches_propagate(self, tiny_graph):
        model = DGNN(tiny_graph, embed_dim=8, num_memory_units=2, seed=0)
        model.eval()
        sub = SubgraphView(tiny_graph, np.arange(tiny_graph.num_users),
                           np.arange(tiny_graph.num_items))
        with no_grad():
            sampled_u, sampled_i = model.propagate_on(sub)
            full_u, full_i = model.propagate()
        np.testing.assert_allclose(sampled_u.data, full_u.data, atol=1e-10)
        np.testing.assert_allclose(sampled_i.data, full_i.data, atol=1e-10)

    def test_sampled_loss_backward_reaches_tables(self, tiny_graph,
                                                  tiny_split):
        model = DGNN(tiny_graph, embed_dim=8, num_memory_units=2, seed=0)
        users = tiny_split.train_pairs[:16, 0]
        positives = tiny_split.train_pairs[:16, 1]
        negatives = (positives + 3) % tiny_graph.num_items
        # hops=0 keeps only the batch nodes themselves in the subgraph
        loss = model.bpr_loss_sampled(users, positives, negatives, hops=0)
        assert np.isfinite(loss.item())
        loss.backward()
        grad = model.user_embedding.weight.grad
        assert grad is not None
        touched = set(np.flatnonzero(np.abs(grad).sum(axis=1) > 0))
        assert set(users) <= touched
        # with a 0-hop neighbourhood, untouched users stay gradient-free
        assert len(touched) < tiny_graph.num_users

    def test_sampled_training_reduces_loss(self, tiny_graph, tiny_split):
        model = DGNN(tiny_graph, embed_dim=8, num_memory_units=2, seed=0)
        optimizer = Adam(model.parameters(), lr=0.02)
        users = tiny_split.train_pairs[:64, 0]
        positives = tiny_split.train_pairs[:64, 1]
        negatives = (positives + 11) % tiny_graph.num_items
        first = last = None
        for step in range(6):
            optimizer.zero_grad()
            loss = model.bpr_loss_sampled(users, positives, negatives,
                                          l2=0.0, fanout=10, seed=step)
            loss.backward()
            optimizer.step()
            first = loss.item() if first is None else first
            last = loss.item()
        assert last < first


def test_vectorized_expand_beats_loop_oracle_on_medium():
    """Acceptance bar: >=5x over the per-node loop at medium scale.

    Measured at a fan-out tight enough that most nodes subsample (the
    loop oracle pays a per-node ``rng.choice`` there); the vectorized
    path runs one composite-key argsort for all nodes at once.  Typical
    margin is ~10x, so the 5x floor leaves room for timer noise.
    """
    dataset = medium(seed=0)
    split = leave_one_out(dataset, seed=0)
    graph = CollaborativeHeteroGraph(dataset, split.train_pairs)
    rng = np.random.default_rng(0)
    users = rng.integers(0, graph.num_users, size=512)
    items = rng.integers(0, graph.num_items, size=1024)

    def best_of(expand, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            expand(graph, users, items, hops=2, fanout=5, seed=0)
            best = min(best, time.perf_counter() - start)
        return best

    fast = best_of(expand_neighborhood)
    loop = best_of(expand_neighborhood_loop)
    assert loop / fast >= 5.0, (
        f"vectorized expansion only {loop / fast:.1f}x over the loop "
        f"oracle (fast {fast * 1e3:.2f} ms, loop {loop * 1e3:.2f} ms)")
