"""The Eq. 11 training loss: DGNN's pruned last layer and id checks.

``DGNN.bpr_loss`` computes the last layer's item update only at the
batch's items and skips the relation update no score reads.  The loss
must equal the full-graph loss (``Recommender.bpr_loss``) bitwise, with
the dropout stream consumed identically across consecutive batches, and
gradients agreeing up to summation order on the same parameters.
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.sparse import RowSparseGrad, use_sparse_grads
from repro.engine import adjcache, instrument, tolerances
from repro.engine.propagate import bpr_terms
from repro.graph.sampling import sample_subgraph_view
from repro.models import create_model
from repro.models.base import Recommender
from repro.models.dgnn import DGNN


def _batch(graph, rng, size=64):
    # 64 draws over tiny's catalogue repeat items, so ``unique`` matters.
    return (rng.integers(0, graph.num_users, size),
            rng.integers(0, graph.num_items, size),
            rng.integers(0, graph.num_items, size))


def _dense(grad):
    return grad.to_dense() if isinstance(grad, RowSparseGrad) else grad


class TestPrunedLastLayer:
    @pytest.mark.parametrize("sparse_grads", [False, True])
    def test_loss_bitwise_equal_to_full_graph_loss(self, tiny_graph,
                                                   sparse_grads):
        pruned, full = DGNN(tiny_graph, seed=0), DGNN(tiny_graph, seed=0)
        rng = np.random.default_rng(4)
        tol = tolerances()
        for _ in range(3):
            users, positives, negatives = _batch(tiny_graph, rng)
            pruned.zero_grad()
            full.zero_grad()
            with use_sparse_grads(sparse_grads):
                loss = pruned.bpr_loss(users, positives, negatives)
                loss.backward()
                reference = Recommender.bpr_loss(full, users, positives,
                                                 negatives)
                reference.backward()
            assert loss.data.tobytes() == reference.data.tobytes()
            for (name, a), (_, b) in zip(pruned.named_parameters(),
                                         full.named_parameters()):
                assert (a.grad is None) == (b.grad is None), name
                if a.grad is not None:
                    np.testing.assert_allclose(
                        _dense(a.grad), _dense(b.grad), rtol=tol.rtol,
                        atol=tol.atol, err_msg=name)

    @pytest.mark.parametrize("kwargs", [
        dict(use_layernorm=False), dict(use_memory=False),
        dict(literal_eq4=True), dict(num_layers=1), dict(num_layers=0),
    ])
    def test_ablations_match_full_graph_loss(self, tiny_graph, kwargs):
        pruned, full = DGNN(tiny_graph, seed=0, **kwargs), DGNN(
            tiny_graph, seed=0, **kwargs)
        rng = np.random.default_rng(9)
        for _ in range(2):
            batch = _batch(tiny_graph, rng)
            assert (pruned.bpr_loss(*batch).data.tobytes()
                    == Recommender.bpr_loss(full, *batch).data.tobytes())

    def test_every_forward_has_a_backward(self, tiny_graph):
        # Paper settings (d=16, L=2, |M|=8): per step, 14 mixtures and
        # 7 LayerNorms, each differentiated.
        model = DGNN(tiny_graph, seed=0)
        rng = np.random.default_rng(1)
        steps = 3
        with instrument.track() as used:
            for _ in range(steps):
                model.zero_grad()
                loss = model.bpr_loss(*_batch(tiny_graph, rng))
                loss.backward()
                del loss
        assert used["calls.memory_mixture"] == 14 * steps
        assert used["calls.memory_mixture_backward"] == 14 * steps
        assert used["calls.layer_norm"] == 7 * steps
        assert used["calls.layer_norm_backward"] == 7 * steps

    def test_adjacency_cache_does_not_grow_across_steps(self, tiny_graph):
        model = DGNN(tiny_graph, seed=0)
        rng = np.random.default_rng(2)

        def step():
            model.zero_grad()
            loss = model.bpr_loss(*_batch(tiny_graph, rng))
            loss.backward()
            del loss

        step()
        after_one = len(adjcache._transposes)
        for _ in range(5):
            step()
        assert len(adjcache._transposes) == after_one


class TestIdsOutOfRange:
    """An id outside ``[0, n)`` raises instead of aliasing another row
    (a negative id used to score the last row)."""

    @staticmethod
    def _bad_batches(graph):
        users = np.arange(4)
        items = np.arange(4)
        return [
            (users, items, np.full(4, -1)),
            (users, items, np.full(4, graph.num_items)),
            (users, np.full(4, -1), items),
            (np.full(4, -1), items, items),
            (np.full(4, graph.num_users), items, items),
        ]

    @pytest.mark.parametrize("model_name", ["dgnn", "lightgcn", "bpr-mf"])
    def test_full_graph_loss(self, tiny_graph, model_name):
        model = create_model(model_name, tiny_graph, embed_dim=8, seed=0)
        for batch in self._bad_batches(tiny_graph):
            with pytest.raises(ValueError, match="out of range"):
                model.bpr_loss(*batch)

    def test_minibatch_loss(self, tiny_graph):
        model = create_model("dgnn", tiny_graph, embed_dim=8, seed=0)
        # Seeds include the last user and item, which a negative id
        # would otherwise alias through the local lookup table.
        subgraph = sample_subgraph_view(
            tiny_graph, np.array([0, tiny_graph.num_users - 1]),
            np.array([0, tiny_graph.num_items - 1]), hops=1)
        for batch in self._bad_batches(tiny_graph):
            with pytest.raises(ValueError, match="out of range"):
                model.bpr_loss_on(subgraph, *batch)

    def test_bpr_terms(self):
        table = Tensor(np.ones((5, 3)))
        ok = np.array([0, 4])
        for users, positives, negatives in [
                ([0, 5], ok, ok), (ok, [-1, 0], ok), (ok, ok, [0, 5])]:
            with pytest.raises(ValueError, match="out of range"):
                bpr_terms(table, table, np.array(users), np.array(positives),
                          np.array(negatives))
