"""The fused ``memory_mixture`` kernel: gradcheck, parity, adoption.

Covers the tentpole guarantees:

* the fused op matches the generic five-op composition it replaced
  (kept here as the reference), forward and backward, on the real
  :class:`MemoryBank` module;
* finite-difference gradcheck of the fused op w.r.t. all three inputs;
* the naive loop oracle and the engine kernel agree at both engine
  dtypes, to dtype-derived tolerances;
* the fused path cuts the autograd graph down to one node per mixture
  and shows up in kernel instrumentation.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck, ops
from repro.engine import instrument, tolerances, use_dtype
from repro.models.memory import MemoryBank
from tests.oracles import KERNEL_SETS, use_kernel_set


def _inputs(rng, n=10, d=6, units=4, dtype=np.float64):
    emb = rng.normal(size=(n, d)).astype(dtype)
    gates = rng.normal(size=(n, units)).astype(dtype)
    transforms = rng.normal(size=(units, d, d)).astype(dtype)
    return emb, gates, transforms


def _reference(emb, gates, transforms):
    return np.einsum("nm,mij,ni->nj", gates, transforms, emb)


def _unfused_mixture(bank, embeddings, gates):
    """The generic-op mixture the fused kernel replaced.

    One matmul against the flattened unit transforms, then a gated
    reduction over the ``(n, |M|, d)`` per-unit activations.
    """
    n, units, dim = embeddings.shape[0], bank.num_units, bank.dim
    # (M, d, d) -> (d, M*d): unit transforms side by side.
    flat = ops.reshape(ops.transpose(bank.transforms, (1, 0, 2)),
                       (dim, units * dim))
    per_unit = ops.reshape(ops.matmul(embeddings, flat), (n, units, dim))
    weighted = ops.mul(per_unit, ops.reshape(gates, (n, units, 1)))
    return ops.sum(weighted, axis=1)


class TestFusedOp:
    def test_forward_matches_einsum_reference(self, rng):
        # The reference einsum runs in float64 whatever the engine policy
        # says, so the comparison uses the active dtype's tolerances.
        tol = tolerances()
        emb, gates, transforms = _inputs(rng)
        out = ops.memory_mixture(Tensor(emb), Tensor(gates), Tensor(transforms))
        np.testing.assert_allclose(out.data, _reference(emb, gates, transforms),
                                   atol=tol.atol, rtol=tol.rtol)

    def test_shape_validation(self, rng):
        emb, gates, transforms = _inputs(rng)
        with pytest.raises(ValueError):
            ops.memory_mixture(Tensor(emb[0]), Tensor(gates), Tensor(transforms))
        with pytest.raises(ValueError):
            ops.memory_mixture(Tensor(emb), Tensor(gates[:, :-1]),
                               Tensor(transforms))
        with pytest.raises(ValueError):
            ops.memory_mixture(Tensor(emb), Tensor(gates),
                               Tensor(transforms[:, :-1]))

    @pytest.mark.parametrize("kernel_set", KERNEL_SETS)
    def test_gradcheck(self, kernel_set, rng):
        emb = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        gates = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        transforms = Tensor(rng.normal(size=(3, 4, 4)), requires_grad=True)
        with use_kernel_set(kernel_set):
            assert gradcheck(
                lambda e, g, t: ops.sum(ops.memory_mixture(e, g, t)),
                [emb, gates, transforms])

    def test_partial_needs_skips_grads(self, rng):
        """Constant inputs receive no gradient and cost no backward work."""
        emb = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        gates = Tensor(rng.normal(size=(6, 3)))  # constant
        transforms = Tensor(rng.normal(size=(3, 4, 4)), requires_grad=True)
        out = ops.sum(ops.memory_mixture(emb, gates, transforms))
        out.backward()
        assert emb.grad is not None
        assert gates.grad is None
        assert transforms.grad is not None

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_backend_parity_both_dtypes(self, dtype, rng):
        tol = tolerances(dtype)
        with use_dtype(dtype):
            emb, gates, transforms = _inputs(rng, dtype=np.dtype(dtype))
            forwards, backwards = {}, {}
            for name in KERNEL_SETS:
                e = Tensor(emb, requires_grad=True)
                g = Tensor(gates, requires_grad=True)
                t = Tensor(transforms, requires_grad=True)
                with use_kernel_set(name):
                    out = ops.memory_mixture(e, g, t)
                    assert out.data.dtype == np.dtype(dtype)
                    ops.sum(out).backward()
                forwards[name] = out.data
                backwards[name] = (e.grad, g.grad, t.grad)
            np.testing.assert_allclose(forwards["naive"], forwards["fast"],
                                       atol=tol.atol, rtol=tol.rtol)
            for ref, other in zip(backwards["naive"], backwards["fast"]):
                np.testing.assert_allclose(ref, other, atol=tol.atol,
                                           rtol=tol.rtol)

    def test_instrumentation_counts_kernel(self, rng):
        emb, gates, transforms = _inputs(rng)
        instrument.reset_counters()
        out = ops.memory_mixture(Tensor(emb), Tensor(gates, requires_grad=True),
                                 Tensor(transforms, requires_grad=True))
        ops.sum(out).backward()
        stats = instrument.snapshot()
        assert stats["calls.memory_mixture"] == 1
        assert stats["calls.memory_mixture_backward"] == 1


class TestMemoryBankAdoption:
    def test_fused_matches_unfused_forward_and_grads(self, rng):
        bank = MemoryBank(6, 4, np.random.default_rng(0))
        values = rng.normal(size=(9, 6))

        def run(fused):
            emb = Tensor(values.copy(), requires_grad=True)
            bank.zero_grad()
            gates = bank.gates(emb)
            out = (bank.mixture_transform(emb, gates) if fused
                   else _unfused_mixture(bank, emb, gates))
            ops.sum(out).backward()
            return (out.data.copy(), emb.grad.copy(),
                    {name: p.grad.copy() for name, p in bank.named_parameters()})

        out_fused, emb_fused, params_fused = run(True)
        out_unfused, emb_unfused, params_unfused = run(False)
        tol = tolerances()
        np.testing.assert_allclose(out_fused, out_unfused,
                                   atol=tol.atol, rtol=tol.rtol)
        np.testing.assert_allclose(emb_fused, emb_unfused,
                                   atol=tol.grad_atol, rtol=tol.grad_rtol)
        for name in params_fused:
            np.testing.assert_allclose(params_fused[name], params_unfused[name],
                                       atol=tol.grad_atol, rtol=tol.grad_rtol,
                                       err_msg=name)

    def test_fused_path_builds_single_graph_node(self, rng):
        """One autograd node for the mixture instead of five."""
        bank = MemoryBank(6, 4, np.random.default_rng(0))
        emb = Tensor(rng.normal(size=(7, 6)), requires_grad=True)
        gates = Tensor(rng.normal(size=(7, 4)), requires_grad=True)

        def graph_size(output):
            return len(output._topological_order())

        fused_nodes = graph_size(bank.mixture_transform(emb, gates))
        unfused_nodes = graph_size(_unfused_mixture(bank, emb, gates))
        assert fused_nodes == 4  # emb, gates, transforms, fused output
        assert unfused_nodes > fused_nodes

    def test_mixture_instrumented_in_bank(self, rng):
        bank = MemoryBank(6, 4, np.random.default_rng(0))
        emb = Tensor(rng.normal(size=(7, 6)))
        instrument.reset_counters()
        bank.encode_self(emb)
        stats = instrument.snapshot()
        assert stats["calls.memory_mixture"] == 1
