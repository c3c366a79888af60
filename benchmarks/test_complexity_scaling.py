"""Section IV-D: empirical complexity scaling of DGNN.

The paper derives O(|M|·|E|·d²) training cost.  This bench measures
seconds-per-step while sweeping |M| on a fixed graph and while growing
the graph, and asserts the scaling is consistent with the analysis
(positive slope, near-linear fit).
"""

from repro.experiments.complexity import measure_edge_scaling, measure_memory_scaling

from conftest import MODE, get_context, publish


def test_complexity_scaling(benchmark):
    context = get_context()
    memory_grid = (2, 4, 8) if MODE == "smoke" else (2, 4, 8, 16)
    user_grid = (60, 120) if MODE == "smoke" else (100, 200, 400)
    # A smoke-scale step takes ~15 ms on 2 CPUs, so two steps sit inside
    # the process's warm-up and scheduler noise; sixteen do not.
    steps = 16 if MODE == "smoke" else 2

    def run():
        memory = measure_memory_scaling(context, memory_grid=memory_grid,
                                        steps=steps)
        edges = measure_edge_scaling(user_grid=user_grid, steps=steps)
        return memory, edges

    memory, edges = benchmark.pedantic(run, rounds=1, iterations=1)
    publish("complexity_scaling", memory.render() + "\n\n" + edges.render())

    # Cost grows with both factors (Section IV-D's qualitative claim).
    assert memory.seconds[-1] > memory.seconds[0] * 0.9
    assert edges.seconds[-1] > edges.seconds[0]
    if MODE == "smoke":
        return
    # Near-linear scaling: the linear fit should explain the measurements.
    assert memory.linear_fit()["r_squared"] > 0.7
    assert edges.linear_fit()["r_squared"] > 0.7
