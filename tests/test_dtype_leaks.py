"""Float32 dtype-leak detection across every registered model.

One training step per model runs under the float32 engine policy with
:mod:`tests.oracles.dtypecheck` wrapping every engine kernel: any float64
array crossing a kernel boundary — a silent numpy promotion somewhere
upstream — fails the test by raising ``DtypeLeakError``.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, ops
from repro.engine import backends, use_dtype
from repro.graph import CollaborativeHeteroGraph
from repro.models import available_models, create_model
from repro.nn import Adam
from tests.oracles.dtypecheck import DtypeLeakError, detect_leaks

TRAINABLE = [name for name in available_models() if name != "most-popular"]


def _one_step(model, split, rng):
    users = split.train_pairs[:32, 0]
    positives = split.train_pairs[:32, 1]
    negatives = rng.integers(0, split.dataset.num_items, size=32)
    optimizer = Adam(model.parameters(), lr=0.01)
    optimizer.zero_grad()
    loss = model.bpr_loss(users, positives, negatives, l2=1e-4)
    loss.backward()
    optimizer.step()
    return float(loss.item())


@pytest.mark.parametrize("name", TRAINABLE)
def test_no_float64_leaks_in_float32_train_step(name, tiny_dataset,
                                                tiny_split):
    with use_dtype(np.float32):
        # The graph is rebuilt inside the policy so cached normalized
        # adjacencies carry float32 data.
        graph = CollaborativeHeteroGraph(tiny_dataset,
                                         tiny_split.train_pairs)
        model = create_model(name, graph, embed_dim=8, seed=0)
        with detect_leaks():
            loss = _one_step(model, tiny_split, np.random.default_rng(0))
    assert np.isfinite(loss)


def test_checker_raises_on_planted_float64():
    with use_dtype(np.float32), detect_leaks():
        table = np.ones((4, 3), dtype=np.float64)  # the planted leak
        with pytest.raises(DtypeLeakError, match="gather_rows.*table"):
            backends.gather_rows(table, np.array([0, 1], dtype=np.int32))


def test_checker_passes_clean_float32_call():
    with use_dtype(np.float32), detect_leaks():
        table = np.ones((4, 3), dtype=np.float32)
        out = backends.gather_rows(table, np.array([0, 1], dtype=np.int32))
    assert out.dtype == np.float32


def test_checker_raises_on_float64_gradient_accumulation():
    with use_dtype(np.float32), detect_leaks():
        leaf = Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(DtypeLeakError, match="_accumulate"):
            leaf._accumulate(np.ones((2, 3), dtype=np.float64))


@pytest.mark.parametrize("op", [ops.leaky_relu, ops.relu, ops.sigmoid,
                                ops.tanh, ops.softplus])
def test_elementwise_backward_keeps_float32(op):
    # leaky_relu's backward once built its slope multiplier in float64,
    # upcasting every gradient it passed on.
    with use_dtype(np.float32), detect_leaks():
        x = Tensor(np.array([[-1.5, 0.5], [2.0, -0.25]]), requires_grad=True)
        ops.sum(op(x)).backward()
    assert x.grad.dtype == np.float32
