"""The engine precision policy: mechanics, artifact dtypes, e2e parity.

Three layers of coverage:

* policy mechanics — default, set/use roundtrip, rejection of
  non-float dtypes, and dtype-derived tolerances;
* artifact dtypes — tensors, initializers and normalized adjacencies
  honour the active dtype at creation time, and one graph serves
  float32 and float64 views side by side, each equal to the view of a
  graph built at that dtype;
* end-to-end — a short DGNN training run under float32 tracks the
  float64 run to float32 tolerances.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor
from repro.engine import (
    Tolerances,
    get_dtype,
    set_dtype,
    tolerances,
    use_dtype,
)
from repro.graph import CollaborativeHeteroGraph
from repro.graph.adjacency import row_normalize
from repro.graph.sampling import _VIEW_SPECS
from repro.models import create_model
from repro.nn import init
from repro.nn.optim import Adam


class TestPolicyMechanics:
    def test_default_follows_environment(self):
        # float64 unless REPRO_ENGINE_DTYPE opted the process down — the
        # CI float32 leg runs this very suite with the variable set.
        import os

        configured = os.environ.get("REPRO_ENGINE_DTYPE", "float64")
        assert get_dtype() == np.dtype(configured)

    def test_set_dtype_roundtrip(self):
        previous = get_dtype()
        try:
            assert set_dtype("float32") == np.dtype(np.float32)
            assert get_dtype() == np.dtype(np.float32)
        finally:
            set_dtype(previous)

    def test_use_dtype_restores_on_exit(self):
        before = get_dtype()
        with use_dtype("float32") as active:
            assert active == np.dtype(np.float32)
            assert get_dtype() == np.dtype(np.float32)
        assert get_dtype() == before

    def test_use_dtype_restores_on_error(self):
        before = get_dtype()
        with pytest.raises(RuntimeError):
            with use_dtype("float32"):
                raise RuntimeError("boom")
        assert get_dtype() == before

    @pytest.mark.parametrize("bad", ["int32", "float16", "complex128"])
    def test_non_engine_dtypes_rejected(self, bad):
        with pytest.raises(ValueError):
            set_dtype(bad)

    def test_tolerances_per_dtype(self):
        t64 = tolerances("float64")
        t32 = tolerances("float32")
        assert isinstance(t64, Tolerances)
        assert t32.atol > t64.atol
        assert t32.grad_atol > t64.grad_atol

    def test_tolerances_follow_active_dtype(self):
        with use_dtype("float32"):
            assert tolerances() == tolerances("float32")
        assert tolerances() == tolerances(get_dtype())


class TestArtifactDtypes:
    def test_tensor_coerced_to_active_dtype(self):
        with use_dtype("float32"):
            assert Tensor([1.0, 2.0]).data.dtype == np.float32
        with use_dtype("float64"):
            assert Tensor([1.0, 2.0]).data.dtype == np.float64

    def test_initializers_honour_dtype(self, rng):
        with use_dtype("float32"):
            assert init.xavier_uniform((4, 3), rng).dtype == np.float32
            assert init.xavier_normal((4, 3), rng).dtype == np.float32
            assert init.normal((4, 3), rng).dtype == np.float32
            assert init.zeros((4,)).dtype == np.float32
            assert init.ones((4,)).dtype == np.float32

    def test_initializer_rng_stream_is_dtype_invariant(self):
        """Draws happen in float64 and are cast, so seeds line up."""
        a = init.xavier_uniform((5, 5), np.random.default_rng(7))
        with use_dtype("float32"):
            b = init.xavier_uniform((5, 5), np.random.default_rng(7))
        np.testing.assert_allclose(a, b.astype(np.float64), atol=1e-7)

    def test_normalized_adjacency_dtype(self, rng):
        matrix = sp.random(8, 8, density=0.4, format="csr",
                           random_state=np.random.RandomState(0))
        with use_dtype("float32"):
            assert row_normalize(matrix).dtype == np.float32
        with use_dtype("float64"):
            assert row_normalize(matrix).dtype == np.float64

    def test_graph_serves_each_dtype_as_if_built_at_it(self, tiny_dataset,
                                                       tiny_split):
        """A graph built under float32 serves float64 views byte-equal to
        a float64-built graph's, and keeps its float32 views alongside.

        The joint normalizers of Eqs. 4-5 used to be rounded at the
        build dtype, and the first view served stayed pinned whatever
        dtype later asked for it.
        """
        with use_dtype("float32"):
            graph = CollaborativeHeteroGraph(tiny_dataset,
                                             tiny_split.train_pairs)
        with use_dtype("float64"):
            reference = CollaborativeHeteroGraph(tiny_dataset,
                                                 tiny_split.train_pairs)
        for name in sorted(_VIEW_SPECS):
            with use_dtype("float32"):
                view32 = getattr(graph, name)
            with use_dtype("float64"):
                view64 = getattr(graph, name)
                expected = getattr(reference, name)
            assert view32.dtype == np.float32, name
            assert view64.dtype == np.float64, name
            for part in ("data", "indices", "indptr"):
                ours, theirs = getattr(view64, part), getattr(expected, part)
                assert ours.dtype == theirs.dtype, (name, part)
                assert ours.tobytes() == theirs.tobytes(), (name, part)
            with use_dtype("float32"):
                assert getattr(graph, name) is view32, name
            with use_dtype("float64"):
                assert getattr(graph, name) is view64, name

    def test_model_parameters_carry_dtype(self, tiny_dataset, tiny_split):
        with use_dtype("float32"):
            graph = CollaborativeHeteroGraph(tiny_dataset,
                                             tiny_split.train_pairs)
            model = create_model("dgnn", graph, embed_dim=8, seed=0)
            for name, param in model.named_parameters():
                assert param.data.dtype == np.float32, name


def _short_dgnn_run(dataset, split, dtype, steps=3):
    """A few fixed BPR/Adam steps; returns the per-step losses."""
    losses = []
    with use_dtype(dtype):
        graph = CollaborativeHeteroGraph(dataset, split.train_pairs)
        model = create_model("dgnn", graph, embed_dim=8, seed=0)
        optimizer = Adam(model.parameters(), lr=0.01)
        rng = np.random.default_rng(3)
        batches = [(rng.integers(0, graph.num_users, 16).astype(np.int64),
                    rng.integers(0, graph.num_items, 16).astype(np.int64),
                    rng.integers(0, graph.num_items, 16).astype(np.int64))
                   for _ in range(steps)]
        for users, positives, negatives in batches:
            model.zero_grad()
            loss = model.bpr_loss(users, positives, negatives)
            loss.backward()
            optimizer.step()
            losses.append(float(loss.data))
    return losses


class TestEndToEnd:
    def test_float32_training_tracks_float64(self, tiny_dataset, tiny_split):
        """Same seeds, same batches: float32 losses track float64 losses."""
        losses64 = _short_dgnn_run(tiny_dataset, tiny_split, "float64")
        losses32 = _short_dgnn_run(tiny_dataset, tiny_split, "float32")
        assert all(np.isfinite(losses32))
        tol = tolerances("float32")
        np.testing.assert_allclose(losses32, losses64,
                                   atol=tol.grad_atol, rtol=tol.grad_rtol)

    def test_float32_propagation_tracks_float64(self, tiny_dataset, tiny_split):
        from repro.autograd import no_grad

        outputs = {}
        for dtype in ("float64", "float32"):
            with use_dtype(dtype):
                graph = CollaborativeHeteroGraph(tiny_dataset,
                                                 tiny_split.train_pairs)
                model = create_model("dgnn", graph, embed_dim=8, seed=0)
                with no_grad():
                    users, items = model.propagate()
                assert users.data.dtype == np.dtype(dtype)
                outputs[dtype] = (users.data.astype(np.float64),
                                  items.data.astype(np.float64))
        tol = tolerances("float32")
        for side in (0, 1):
            np.testing.assert_allclose(outputs["float32"][side],
                                       outputs["float64"][side],
                                       atol=tol.atol * 10, rtol=tol.rtol)
