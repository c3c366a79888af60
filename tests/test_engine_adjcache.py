"""Graph views and the transpose memo: each is built exactly once.

A :class:`CollaborativeHeteroGraph` builds each normalized view once per
engine dtype and keeps it; :func:`repro.engine.adjcache.cached_transpose`
builds each spmm-backward transpose once per matrix and drops it when
the matrix dies.  Also proves that repeated DGNN propagation does not
re-normalize adjacencies per batch — the τ operator and every graph view
are served from the graph, visible through the instrumentation counters.
"""

import gc
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data import leave_one_out, tiny
from repro.engine import adjcache, cached_transpose, instrument
from repro.graph.adjacency import row_normalize
from repro.graph.hetero import CollaborativeHeteroGraph
from repro.graph.sampling import sample_subgraph_view
from repro.models import create_model
from repro.train import TrainConfig, Trainer


@pytest.fixture(autouse=True)
def _clean_counters():
    instrument.reset_counters()
    yield
    instrument.reset_counters()


def _matrix(rng, n=10):
    return sp.csr_matrix(sp.random(
        n, n, density=0.3,
        random_state=np.random.RandomState(int(rng.integers(2**31)))),
        dtype=np.float64)


def _fresh_graph():
    dataset = tiny(seed=0)
    split = leave_one_out(dataset, seed=0)
    return CollaborativeHeteroGraph(dataset, split.train_pairs)


class TestAdjacencyCache:
    def test_normalizes_once_per_matrix_and_scheme(self):
        graph = _fresh_graph()
        before = instrument.snapshot()
        first = graph.user_item_mean
        for _ in range(5):
            assert graph.user_item_mean is first  # identity, not equality
        delta = instrument.delta(before, instrument.snapshot())
        assert delta["normalizations"] == 1
        np.testing.assert_allclose(first.toarray(),
                                   row_normalize(graph.interaction).toarray())

    def test_distinct_schemes_are_distinct_entries(self):
        graph = _fresh_graph()
        before = instrument.snapshot()
        views = {id(graph.social_mean), id(graph.social_sym),
                 id(graph.social_self_loop_mean)}
        delta = instrument.delta(before, instrument.snapshot())
        assert len(views) == 3
        assert delta["normalizations"] == 3

    def test_entries_evicted_when_matrix_garbage_collected(self, rng):
        matrix = _matrix(rng)
        cached_transpose(matrix)
        assert id(matrix) in adjcache._transposes
        size = len(adjcache._transposes)
        key = id(matrix)
        del matrix
        gc.collect()
        assert key not in adjcache._transposes
        assert len(adjcache._transposes) == size - 1

    def test_counters_record_hits_and_misses(self, rng):
        matrix = _matrix(rng)
        before = instrument.snapshot()
        first = cached_transpose(matrix)
        assert cached_transpose(matrix) is first
        delta = instrument.delta(before, instrument.snapshot())
        assert delta.get("normalizations", 0) == 0
        assert delta["cache_misses"] == 1
        assert delta["cache_hits"] == 1
        np.testing.assert_array_equal(first.toarray(), matrix.toarray().T)


class TestGraphViewsUseCache:
    def test_graph_views_normalize_once(self):
        before = instrument.snapshot()
        graph = _fresh_graph()
        for _ in range(3):
            graph.user_item_mean
            graph.social_mean
            graph.social_sym
            graph.social_self_loop_mean
            graph.bipartite_norm
        delta = instrument.delta(before, instrument.snapshot())
        assert delta["normalizations"] == 5

    def test_concurrent_first_reads_build_each_view_once(self):
        """The prefetch thread and the trainer may both read a view
        first; neither may build it twice or see another's half."""
        graph = _fresh_graph()
        names = ("item_context", "social_self_loop_mean", "user_item_joint")
        barrier = threading.Barrier(6)
        seen = []

        def read():
            barrier.wait(timeout=10)
            seen.append(tuple(id(getattr(graph, name)) for name in names))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            before = instrument.snapshot()
            threads = [threading.Thread(target=read) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        delta = instrument.delta(before, instrument.snapshot())
        assert len(seen) == 6 and len(set(seen)) == 1
        # item_context also builds the two views it composes.
        assert delta["normalizations"] == len(names) + 2

    def test_tau_view_matches_reference(self, tiny_graph):
        from repro.graph.adjacency import add_self_loops

        expected = row_normalize(add_self_loops(tiny_graph.social))
        np.testing.assert_allclose(tiny_graph.social_self_loop_mean.toarray(),
                                   expected.toarray())


class TestPropagationHitsCache:
    def test_propagate_on_normalizes_tau_once_per_subgraph(self):
        """The seed called row_normalize(add_self_loops(S)) per batch."""
        graph = _fresh_graph()
        model = create_model("dgnn", graph, embed_dim=8, seed=0)
        rng = np.random.default_rng(0)
        users = rng.integers(0, graph.num_users, 8).astype(np.int64)
        items = rng.integers(0, graph.num_items, 8).astype(np.int64)
        subgraph = sample_subgraph_view(graph, users, items, hops=1,
                                        fanout=5)

        before = instrument.snapshot()
        model.propagate_on(subgraph)
        first = instrument.delta(before, instrument.snapshot())

        before = instrument.snapshot()
        model.propagate_on(subgraph)
        model.propagate_on(sample_subgraph_view(graph, users, items, hops=1,
                                                fanout=5, seed=1))
        repeat = instrument.delta(before, instrument.snapshot())

        # All normalization happened on first touch of the parent's
        # views; later batches, on this view or a new one, only slice.
        assert first["normalizations"] >= 1
        assert repeat.get("normalizations", 0) == 0

        # The τ operator propagate_on sliced is the parent's kept view:
        # asking for it again builds nothing.
        tau = graph.social_self_loop_mean
        before = instrument.snapshot()
        assert graph.social_self_loop_mean is tau
        hit = instrument.delta(before, instrument.snapshot())
        assert hit.get("normalizations", 0) == 0

    def test_full_graph_propagate_does_not_renormalize(self, tiny_graph):
        model = create_model("dgnn", tiny_graph, embed_dim=8, seed=0)
        model.propagate()  # warm every view
        before = instrument.snapshot()
        model.propagate()
        model.propagate()
        delta = instrument.delta(before, instrument.snapshot())
        assert delta.get("normalizations", 0) == 0


class TestTrainerCounters:
    def test_history_records_kernel_counters(self, tiny_graph, tiny_split,
                                             tiny_candidates):
        model = create_model("lightgcn", tiny_graph, embed_dim=8, seed=0)
        config = TrainConfig(epochs=2, batch_size=64, batches_per_epoch=2,
                             eval_every=2, patience=None)
        history = Trainer(model, tiny_split, config, tiny_candidates).fit()
        assert len(history.kernel_counters) == 2
        for epoch_counters in history.kernel_counters:
            assert epoch_counters.get("calls.spmm", 0) > 0
            assert epoch_counters.get("calls.gathered_rowwise_dot", 0) > 0
        totals = history.total_kernel_counters()
        assert totals["calls.spmm"] == sum(
            c["calls.spmm"] for c in history.kernel_counters)
