"""The one-node ops of DGNN's layer: Eq. 3's gates and Eq. 7's
dropout → LayerNorm → LeakyReLU, plus gradient adoption.

* ``memory_gates`` and ``layer_norm`` pass float64 finite-difference
  gradchecks and agree with the naive loop oracle at the
  :mod:`repro.engine.precision` tolerances of both dtypes;
* both equal the composed op chains they replaced (kept here as
  oracles): the forward bitwise, the backward to tolerance;
* the dropout mask consumes the generator exactly as before and comes
  out in the engine dtype;
* one ``_DgnnLayer`` builds a fixed, smaller graph;
* adopting a freshly allocated gradient instead of copying it changes
  no gradient and never leaves two tensors sharing a buffer.
"""

import contextlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor, gradcheck, ops
from repro.autograd.sparse import use_sparse_grads
from repro.engine import arena as arena_mod
from repro.engine import backends, instrument, tolerances, use_dtype
from repro.engine.arena import BufferArena
from repro.models import create_model
from repro.models.dgnn import _DgnnLayer
from repro.models.memory import MemoryBank
from repro.nn import Dropout, LayerNorm
from tests.oracles import KERNEL_SETS, use_kernel_set

DTYPES = ("float64", "float32")


def _composed_layer_norm(x, scale, shift, eps):
    """The nine-node LayerNorm the fused op replaced (test oracle)."""
    mu = ops.mean(x, axis=-1, keepdims=True)
    centered = ops.sub(x, mu)
    var = ops.mean(ops.mul(centered, centered), axis=-1, keepdims=True)
    normed = ops.div(centered, ops.sqrt(ops.add(var, Tensor(np.array(eps)))))
    return ops.add(ops.mul(normed, scale), shift)


def _composed_gates(embeddings, keys, bias, slope):
    """The matmul → add → leaky_relu gate chain (test oracle)."""
    return ops.leaky_relu(ops.add(ops.matmul(embeddings, keys), bias), slope)


def _ln_inputs(rng, dtype="float64", rows=6, dim=5):
    x = rng.normal(1.0, 2.0, size=(rows, dim)).astype(dtype)
    scale = rng.normal(1.0, 0.3, size=dim).astype(dtype)
    shift = rng.normal(0.0, 0.3, size=dim).astype(dtype)
    keep = ops.dropout_mask(x.shape, 0.3, np.random.default_rng(4))
    return x, scale, shift, keep.astype(dtype)


def _gate_inputs(rng, dtype="float64", n=7, dim=4, units=3):
    return (rng.normal(size=(n, dim)).astype(dtype),
            rng.normal(size=(dim, units)).astype(dtype),
            rng.normal(size=units).astype(dtype))


def _run(op, arrays, grad_seed=9):
    """Forward + backward against a fixed random output gradient."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*tensors)
    weights = np.random.default_rng(grad_seed).normal(size=out.shape)
    ops.sum(ops.mul(out, Tensor(weights))).backward()
    return out.data, [t.grad for t in tensors]


def _assert_close(ref, other, dtype):
    tol = tolerances(dtype)
    out_ref, grads_ref = ref
    out_other, grads_other = other
    np.testing.assert_allclose(out_other, out_ref, atol=tol.atol,
                               rtol=tol.rtol)
    for position, (g_ref, g_other) in enumerate(zip(grads_ref, grads_other)):
        np.testing.assert_allclose(g_other, g_ref, atol=tol.grad_atol,
                                   rtol=tol.grad_rtol,
                                   err_msg=f"input {position}")


class TestMemoryGates:
    @pytest.mark.parametrize("kernel_set", KERNEL_SETS)
    def test_gradcheck(self, kernel_set, rng):
        tensors = [Tensor(a, requires_grad=True) for a in _gate_inputs(rng)]
        with use_kernel_set(kernel_set):
            assert gradcheck(
                lambda e, k, b: ops.sum(ops.mul(
                    ops.memory_gates(e, k, b, 0.2), ops.memory_gates(e, k, b, 0.2))),
                tensors)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_naive_oracle_parity(self, dtype, rng):
        with use_dtype(dtype):
            arrays = _gate_inputs(rng, dtype)
            runs = {}
            for name in KERNEL_SETS:
                with use_kernel_set(name):
                    runs[name] = _run(
                        lambda e, k, b: ops.memory_gates(e, k, b, 0.2), arrays)
            assert runs["fast"][0].dtype == np.dtype(dtype)
            _assert_close(runs["naive"], runs["fast"], dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_composed_chain(self, dtype, rng):
        with use_dtype(dtype):
            arrays = _gate_inputs(rng, dtype)
            fused = _run(lambda e, k, b: ops.memory_gates(e, k, b, 0.2), arrays)
            composed = _run(lambda e, k, b: _composed_gates(e, k, b, 0.2),
                            arrays)
        np.testing.assert_array_equal(fused[0], composed[0])
        _assert_close(composed, fused, dtype)

    def test_bank_gates_are_one_node_and_match_gate_values(self, rng):
        bank = MemoryBank(4, 3, np.random.default_rng(0))
        emb = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        gates = bank.gates(emb)
        # emb, keys, bias and the gate node itself.
        assert len(gates._topological_order()) == 4
        np.testing.assert_array_equal(gates.data, bank.gate_values(emb.data))

    def test_rejects_negative_slope_and_bad_shapes(self, rng):
        emb, keys, bias = (Tensor(a) for a in _gate_inputs(rng))
        with pytest.raises(ValueError, match="negative_slope"):
            ops.memory_gates(emb, keys, bias, -0.1)
        with pytest.raises(ValueError):
            ops.memory_gates(emb, keys, Tensor(bias.data[:-1]))

    def test_instrumented(self, rng):
        arrays = _gate_inputs(rng)
        instrument.reset_counters()
        _run(lambda e, k, b: ops.memory_gates(e, k, b, 0.2), arrays)
        stats = instrument.snapshot()
        assert stats["calls.memory_gates"] == 1
        assert stats["calls.memory_gates_backward"] == 1


class TestLayerNormOp:
    @pytest.mark.parametrize("kernel_set", KERNEL_SETS)
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("slope", [None, 0.2])
    def test_gradcheck(self, kernel_set, dropout, slope, rng):
        x, scale, shift, keep = _ln_inputs(rng)
        tensors = [Tensor(a, requires_grad=True) for a in (x, scale, shift)]
        weights = Tensor(rng.normal(size=x.shape))
        with use_kernel_set(kernel_set):
            assert gradcheck(
                lambda a, s, h: ops.sum(ops.mul(ops.layer_norm(
                    a, s, h, keep=keep if dropout else None,
                    negative_slope=slope), weights)),
                tensors)

    def test_gradcheck_normalizes_last_axis_of_3d_input(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        scale = Tensor(rng.normal(1.0, 0.3, size=4), requires_grad=True)
        shift = Tensor(rng.normal(size=4), requires_grad=True)
        weights = Tensor(rng.normal(size=(2, 3, 4)))
        assert gradcheck(
            lambda a, s, h: ops.sum(ops.mul(ops.layer_norm(a, s, h), weights)),
            [x, scale, shift])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("dropout", [False, True])
    def test_naive_oracle_parity(self, dtype, dropout, rng):
        with use_dtype(dtype):
            x, scale, shift, keep = _ln_inputs(rng, dtype)
            runs = {}
            for name in KERNEL_SETS:
                with use_kernel_set(name):
                    runs[name] = _run(
                        lambda a, s, h: ops.layer_norm(
                            a, s, h, keep=keep if dropout else None,
                            negative_slope=0.2),
                        (x, scale, shift))
            assert runs["fast"][0].dtype == np.dtype(dtype)
            _assert_close(runs["naive"], runs["fast"], dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("dropout", [False, True])
    def test_matches_composed_chain(self, dtype, dropout, rng):
        """Forward bitwise, backward to tolerance, against dropout →
        composed LayerNorm → leaky_relu."""
        with use_dtype(dtype):
            x, scale, shift, keep = _ln_inputs(rng, dtype)
            fused = _run(lambda a, s, h: ops.layer_norm(
                a, s, h, 1e-5, keep=keep if dropout else None,
                negative_slope=0.2), (x, scale, shift))

            def composed(a, s, h):
                if dropout:
                    a = ops.mul(a, Tensor(keep))
                return ops.leaky_relu(_composed_layer_norm(a, s, h, 1e-5), 0.2)

            reference = _run(composed, (x, scale, shift))
        np.testing.assert_array_equal(fused[0], reference[0])
        _assert_close(reference, fused, dtype)

    def test_module_is_one_node(self, rng):
        layer = LayerNorm(5)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        # x, scale, shift and the LayerNorm node.
        assert len(layer(x)._topological_order()) == 4

    def test_rejects_mismatched_shapes(self, rng):
        x, scale, shift, keep = _ln_inputs(rng)
        with pytest.raises(ValueError, match="scale"):
            ops.layer_norm(Tensor(x), Tensor(scale[:-1]), Tensor(shift))
        with pytest.raises(ValueError, match="keep"):
            ops.layer_norm(Tensor(x), Tensor(scale), Tensor(shift),
                           keep=keep[:-1])

    def test_instrumented(self, rng):
        x, scale, shift, _ = _ln_inputs(rng)
        instrument.reset_counters()
        _run(lambda a, s, h: ops.layer_norm(a, s, h), (x, scale, shift))
        stats = instrument.snapshot()
        assert stats["calls.layer_norm"] == 1
        assert stats["calls.layer_norm_backward"] == 1


class TestDropoutMask:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_same_draws_and_engine_dtype(self, dtype):
        shape, rate = (40, 7), 0.3
        with use_dtype(dtype):
            mask = ops.dropout_mask(shape, rate, np.random.default_rng(1))
        # The float64 mask of the original formulation, cast down.
        reference = ((np.random.default_rng(1).random(shape) >= rate)
                     / (1.0 - rate)).astype(dtype)
        assert mask.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(mask, reference)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_dropout_module_mask_follows_forward_stream(self, dtype):
        """``Dropout.mask`` draws what ``Dropout.forward`` would."""
        with use_dtype(dtype):
            x = Tensor(np.random.default_rng(2).normal(size=(9, 4)))
            forward = Dropout(0.25, rng=np.random.default_rng(3))
            fused = Dropout(0.25, rng=np.random.default_rng(3))
            for _ in range(2):
                np.testing.assert_array_equal(
                    forward(x).data, x.data * fused.mask(x.shape))
            fused.eval()
            assert fused.mask(x.shape) is None


def _op_nodes(outputs):
    seen = {}
    for output in outputs:
        for node in output._topological_order():
            seen[id(node)] = node
    return sum(1 for node in seen.values() if node._backward is not None)


class TestDgnnLayerGraph:
    def test_layer_node_count(self, tiny_graph, rng):
        """One layer in training mode, dropout on: 29 op nodes.

        Per node type the messages cost spmm + gates + mixture (3) each,
        users and items add two messages (+1 each): 7 + 7 + 3.  Each of
        the three Eq. 7 stabilizations is one layer_norm node, a
        self-loop gates + mixture pair and the residual add: 3 x 4.  The
        composed chains cost 75: gates were 3 nodes, and dropout →
        LayerNorm → LeakyReLU 11.
        """
        layer = _DgnnLayer(8, 4, np.random.default_rng(0), use_memory=True,
                           use_layernorm=True, message_dropout=0.1)
        tables = [Tensor(rng.normal(size=(count, 8)), requires_grad=True)
                  for count in (tiny_graph.num_users, tiny_graph.num_items,
                                tiny_graph.num_relations)]
        assert _op_nodes(layer(tiny_graph, *tables)) == 29

    def test_no_layernorm_ablation_keeps_dropout_and_leaky_relu(
            self, tiny_graph, rng):
        layer = _DgnnLayer(8, 4, np.random.default_rng(0), use_memory=True,
                           use_layernorm=False, message_dropout=0.1)
        tables = [Tensor(rng.normal(size=(count, 8)), requires_grad=True)
                  for count in (tiny_graph.num_users, tiny_graph.num_items,
                                tiny_graph.num_relations)]
        instrument.reset_counters()
        # dropout (mul) + leaky_relu instead of the one layer_norm node.
        assert _op_nodes(layer(tiny_graph, *tables)) == 29 + 3
        assert "calls.layer_norm" not in instrument.snapshot()


# -- adoption -------------------------------------------------------------
@contextlib.contextmanager
def _copying():
    """Run with every gradient copied, as before adoption existed."""
    accumulate = Tensor._accumulate

    def copying(self, grad, owned=False):
        accumulate(self, grad)

    Tensor._accumulate = copying
    try:
        yield
    finally:
        Tensor._accumulate = accumulate


@contextlib.contextmanager
def _pooled(enabled, monkeypatch):
    """Optionally run inside an eager arena step scope (every buffer pooled)."""
    if not enabled:
        yield
        return
    monkeypatch.setattr(arena_mod, "_ARENA", BufferArena(min_bytes=0))
    with arena_mod.step_scope():
        yield


def _grads_both_ways(build, leaves_fn):
    results = []
    for context in (contextlib.nullcontext, _copying):
        leaves = leaves_fn()
        with context():
            build(*leaves).backward()
        results.append(leaves)
    return results


def _assert_no_shared_grads(tensors):
    grads = [t.grad for t in tensors if isinstance(t.grad, np.ndarray)]
    for i, first in enumerate(grads):
        for second in grads[i + 1:]:
            assert not np.shares_memory(first, second)


@pytest.mark.parametrize("pooled", [False, True])
class TestAdoption:
    def test_add_of_a_tensor_with_itself(self, pooled, rng, monkeypatch):
        values = rng.normal(size=(4, 3))
        with _pooled(pooled, monkeypatch):
            adopted, copied = _grads_both_ways(
                lambda x: ops.sum(ops.mul(ops.add(x, x), ops.add(x, x))),
                lambda: [Tensor(values, requires_grad=True)])
            np.testing.assert_array_equal(adopted[0].grad, copied[0].grad)
            np.testing.assert_allclose(adopted[0].grad, 8.0 * values)

    def test_add_parents_get_separate_buffers(self, pooled, rng, monkeypatch):
        values = rng.normal(size=(4, 3))
        with _pooled(pooled, monkeypatch):
            x = Tensor(values, requires_grad=True)
            z = Tensor(values + 1.0, requires_grad=True)
            ops.sum(ops.add(x, z)).backward()
            _assert_no_shared_grads([x, z])

    def test_leaf_feeding_two_ops(self, pooled, rng, monkeypatch):
        values = rng.normal(size=(5, 3))
        weight = rng.normal(size=(3, 2))
        matrix = sp.random(4, 5, density=0.5, format="csr",
                           random_state=np.random.RandomState(0))

        def build(x, w):
            left = ops.sum(ops.mul(ops.matmul(x, w), ops.matmul(x, w)))
            return ops.add(left, ops.sum(ops.spmm(matrix, x)))

        with _pooled(pooled, monkeypatch):
            adopted, copied = _grads_both_ways(
                build, lambda: [Tensor(values, requires_grad=True),
                                Tensor(weight, requires_grad=True)])
            for a, c in zip(adopted, copied):
                np.testing.assert_array_equal(a.grad, c.grad)
            _assert_no_shared_grads(adopted)

    def test_row_sparse_then_owned_dense(self, pooled, rng, monkeypatch):
        table = rng.normal(size=(6, 3))
        rows = np.array([0, 2, 2, 5])
        weight = rng.normal(size=(3, 3))

        def build(t, w):
            sparse_part = ops.sum(ops.gather_rows(t, rows))
            # The table's dense contribution arrives after the sparse one.
            return ops.add(sparse_part, ops.sum(ops.matmul(t, w)))

        with use_sparse_grads(True), _pooled(pooled, monkeypatch):
            adopted, copied = _grads_both_ways(
                build, lambda: [Tensor(table, requires_grad=True),
                                Tensor(weight, requires_grad=True)])
            assert isinstance(adopted[0].grad, np.ndarray)
            for a, c in zip(adopted, copied):
                np.testing.assert_array_equal(a.grad, c.grad)

    def test_dgnn_step_grads_match_copying_and_share_no_buffer(
            self, pooled, tiny_graph, monkeypatch):
        users = np.arange(12) % tiny_graph.num_users
        positives = np.arange(12) % tiny_graph.num_items
        negatives = (np.arange(12) * 7) % tiny_graph.num_items
        runs = []
        with _pooled(pooled, monkeypatch):
            for context in (contextlib.nullcontext, _copying):
                model = create_model("dgnn", tiny_graph, embed_dim=8, seed=0)
                with context():
                    model.bpr_loss(users, positives, negatives,
                                   l2=1e-4).backward()
                runs.append(model.named_parameters())
            adopted, copied = (dict(run) for run in runs)
            for name, param in adopted.items():
                np.testing.assert_array_equal(param.grad, copied[name].grad,
                                              err_msg=name)
            _assert_no_shared_grads(list(adopted.values()))

    def test_owned_grad_of_another_dtype_is_cast(self, pooled, monkeypatch):
        with _pooled(pooled, monkeypatch), use_dtype("float32"):
            leaf = Tensor(np.zeros((2, 2)), requires_grad=True)
            source = np.ones((2, 2), dtype=np.float64)
            leaf._accumulate(source, owned=True)
            assert leaf.grad.dtype == np.float32
            assert not np.shares_memory(leaf.grad, source)


def test_gates_backward_returns_fresh_buffers(rng):
    """Adoption relies on the kernels' fresh-allocation contract."""
    emb, keys, bias = _gate_inputs(rng)
    gates = backends.memory_gates(emb, keys, bias, 0.2)
    grad_out = rng.normal(size=gates.shape)
    inputs = (grad_out, emb, keys, gates)
    for grad in backends.memory_gates_backward(grad_out, emb, keys, gates,
                                               0.2):
        assert not any(np.shares_memory(grad, array) for array in inputs)
