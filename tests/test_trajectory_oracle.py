"""A float64 trajectory oracle: production kernels against the loop oracles.

The one-step parity tests (``tests/test_engine_backends.py``) compare a
single Adam step.  Drift that builds up over many steps — a kernel that
reorders sums, or a backward that is wrong by a hair — shows only over a
trajectory.  This test trains DGNN on ``tiny`` for three epochs (Adam,
message dropout and τ on, the paper's d=16, L=2, |M|=8) twice at
float64: on the engine's kernels and on :mod:`tests.oracles.naive`.
Per-epoch losses and final parameters must agree to a fixed relative
bound.

The bound is set from the measured spread.  The two runs differ by at
most ~1e-13 relative in the parameters and ~3e-16 in the losses
(summation order only), on the float64 and on the float32+int32 test
legs alike.  Scaling one backward kernel's output by ``1 + 1e-6`` moves
the final parameters by far more: 1.2e-5 relative for LayerNorm's input
gradient, 2.0e-7 for the mixture's transform gradient alone.  A bound
of 1e-11 sits two orders of magnitude above the spread and four below
either perturbation.
"""

import numpy as np

from repro.engine import use_dtype
from repro.models.dgnn import DGNN
from repro.train import TrainConfig, Trainer
from tests.oracles import use_kernel_set

#: Relative bound on per-epoch losses and final parameters.
RELATIVE_BOUND = 1e-11


def _train(kernel_set, graph, split, candidates):
    with use_dtype("float64"), use_kernel_set(kernel_set):
        model = DGNN(graph, seed=0, message_dropout=0.1, use_tau=True)
        config = TrainConfig(epochs=3, batch_size=128, eval_every=3,
                             patience=None, seed=0)
        history = Trainer(model, split, config, candidates).fit()
    return np.array(history.losses), model.state_dict()


def _relative(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def test_float64_trajectory_matches_loop_oracle(tiny_graph, tiny_split,
                                                tiny_candidates):
    losses, params = _train("fast", tiny_graph, tiny_split, tiny_candidates)
    oracle_losses, oracle_params = _train("naive", tiny_graph, tiny_split,
                                          tiny_candidates)
    assert len(losses) == 3
    assert _relative(losses, oracle_losses) <= RELATIVE_BOUND
    assert set(params) == set(oracle_params)
    for name in params:
        assert params[name].dtype == np.float64, name
        assert _relative(params[name], oracle_params[name]) <= RELATIVE_BOUND, name
