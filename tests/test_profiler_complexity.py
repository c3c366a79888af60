"""Tests for the complexity-scaling experiment (Section IV-D)."""

import pytest

from repro.experiments import ExperimentContext
from repro.experiments.complexity import (
    ScalingResults,
    measure_edge_scaling,
    measure_memory_scaling,
)


class TestScalingResults:
    def test_linear_fit_on_exact_line(self):
        results = ScalingResults(factor="x", values=[1, 2, 3, 4],
                                 seconds=[0.1, 0.2, 0.3, 0.4])
        fit = results.linear_fit()
        assert fit["slope"] == pytest.approx(0.1)
        assert fit["r_squared"] == pytest.approx(1.0)

    def test_render(self):
        results = ScalingResults(factor="m", values=[1, 2],
                                 seconds=[0.1, 0.2])
        assert "scaling in m" in results.render()


class TestComplexityMeasurements:
    def test_memory_scaling_runs(self):
        context = ExperimentContext.build("tiny", seed=0, num_negatives=30)
        results = measure_memory_scaling(context, memory_grid=(2, 4),
                                         steps=1, embed_dim=8,
                                         batch_size=128)
        assert results.values == [2.0, 4.0]
        assert all(s > 0 for s in results.seconds)

    def test_edge_scaling_runs(self):
        results = measure_edge_scaling(user_grid=(40, 80), steps=1,
                                       embed_dim=8, batch_size=128)
        assert len(results.values) == 2
        assert results.values[1] > results.values[0]  # more edges
