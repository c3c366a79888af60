"""Autograd graph lifetime: a step's graph is freed by refcount.

Backward closures close over their inputs only (the output node is
passed in when backward runs), so no graph node sits in a reference
cycle: dropping the loss frees the whole step
(activations and gradients) without the cyclic garbage collector.
Non-leaf gradients are freed as soon as their closure has consumed
them; leaf (``Parameter``) gradients are kept for the optimizer.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.autograd import Tensor, ops
from repro.models import DGNN
from repro.train import TrainConfig, Trainer


@pytest.fixture()
def gc_disabled():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _batch(graph, split, size=32):
    users = split.train_pairs[:size, 0]
    positives = split.train_pairs[:size, 1]
    return users, positives, (positives + 1) % graph.num_items


def _deepest_first_parent(node):
    """Follow first parents down to the last non-leaf node."""
    while node._parents and node._parents[0]._backward is not None:
        node = node._parents[0]
    return node


def _dgnn(graph):
    return DGNN(graph, embed_dim=8, num_memory_units=2, seed=0)


class TestRefcountLifetime:
    def test_dgnn_step_graph_dies_with_the_loss(self, gc_disabled,
                                                tiny_graph, tiny_split):
        model = _dgnn(tiny_graph)
        loss = model.bpr_loss(*_batch(tiny_graph, tiny_split))
        loss.backward()
        loss_ref = weakref.ref(loss)
        node = _deepest_first_parent(loss)
        assert node is not loss
        intermediate_ref = weakref.ref(node)
        del loss, node
        assert loss_ref() is None
        assert intermediate_ref() is None

    def test_graph_dies_without_backward(self, gc_disabled):
        x = Tensor(np.ones(3), requires_grad=True)
        hidden = ops.exp(x)
        hidden_ref = weakref.ref(hidden)
        out = ops.sum(hidden)
        del hidden
        assert hidden_ref() is not None  # out keeps its parents alive
        del out
        assert hidden_ref() is None

    def test_output_is_alive_while_its_closure_runs(self):
        x = Tensor(np.array([0.5, -1.0]), requires_grad=True)
        ops.sum(ops.sigmoid(x)).backward()  # sigmoid's closure reads out.data
        s = 1.0 / (1.0 + np.exp(-x.data))
        np.testing.assert_allclose(x.grad, s * (1.0 - s))


class TestGradRetention:
    def test_non_leaf_grads_are_freed_and_leaf_grads_kept(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = ops.mul(x, Tensor(np.array(3.0)))
        z = ops.sum(ops.mul(y, y))
        z.backward()
        assert y.grad is None and z.grad is None
        np.testing.assert_allclose(x.grad, 18.0 * x.data)

    def test_dgnn_backward(self, tiny_graph, tiny_split):
        model = _dgnn(tiny_graph)
        model.eval()  # no dropout draws: equal steps give equal grads
        loss = model.bpr_loss(*_batch(tiny_graph, tiny_split))
        deep = _deepest_first_parent(loss)
        loss.backward()
        assert loss.grad is None and deep.grad is None
        grads = {name: param.grad.copy()
                 for name, param in model.named_parameters()
                 if param.grad is not None}
        assert "user_embedding.weight" in grads
        assert all(np.all(np.isfinite(g)) for g in grads.values())

        # A second sweep over the same graph pushes exactly the same
        # gradient again: no stale intermediate grad is re-added.
        loss.backward()
        for name, param in model.named_parameters():
            if name in grads:
                np.testing.assert_allclose(param.grad, 2.0 * grads[name],
                                           rtol=1e-5, atol=1e-12)
        model.zero_grad()

        # And a fresh identical step reproduces the grads bitwise.
        loss = model.bpr_loss(*_batch(tiny_graph, tiny_split))
        loss.backward()
        for name, param in model.named_parameters():
            if name in grads:
                assert np.array_equal(param.grad, grads[name]), name


@pytest.mark.parametrize("propagation", ["full", "minibatch"])
def test_fit_leaves_no_tensor_for_the_cycle_collector(
        tiny_graph, tiny_split, tiny_candidates, propagation):
    model = _dgnn(tiny_graph)
    config = TrainConfig(epochs=1, batch_size=256, batches_per_epoch=3,
                         propagation=propagation, fanout=5, patience=None)
    trainer = Trainer(model, tiny_split, config, tiny_candidates)
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        trainer.fit()
        gc.collect()
        leaked = [obj for obj in gc.garbage if isinstance(obj, Tensor)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []
