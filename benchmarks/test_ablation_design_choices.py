"""Ablation benches for the reproduction's own design choices.

DESIGN.md documents two judgement calls beyond the paper's ablations:

1. **Eq. 4 reading** — the default target-gated message (Eq. 3 semantics)
   vs the literal printed form where aggregated item *gates* transform
   the user's own embedding (``literal_eq4=True``).
2. **Memory-bank initialization** — gates opened at ~1 with 1/|M|-scaled
   unit transforms, vs the naive zero-bias Xavier init.

This bench measures both so the choices stay justified as the code
evolves.
"""

import numpy as np

from repro.experiments import run_model
from repro.models.memory import MemoryBank

from conftest import MODE, get_context, publish, train_config


def _naive_init(model):
    """Undo the documented init: zero gate biases, unscaled transforms."""
    for module in model.modules():
        if isinstance(module, MemoryBank):
            module.bias.data[:] = 0.0
            module.transforms.data *= module.num_units
    return model


def test_design_choice_ablations(benchmark):
    context = get_context()
    config = train_config()

    def run_all():
        rows = {}
        rows["default"] = run_model("dgnn", context, config).metrics
        rows["literal-eq4"] = run_model("dgnn", context, config,
                                        literal_eq4=True).metrics
        # naive init needs retraining from scratch:
        from repro.models import create_model
        from repro.train import Trainer

        naive = _naive_init(create_model("dgnn", context.graph, embed_dim=16,
                                         seed=0))
        Trainer(naive, context.split, config, context.candidates).fit()
        from repro.eval import evaluate_model

        rows["naive-init"] = evaluate_model(naive, context.candidates)
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = ["Design-choice ablations (HR@10 / NDCG@10)"]
    for name, metrics in rows.items():
        lines.append(f"  {name:<12} {metrics['hr@10']:.4f}  "
                     f"{metrics['ndcg@10']:.4f}")
    publish("design_choice_ablations", "\n".join(lines))

    for metrics in rows.values():
        assert 0.0 <= metrics["hr@10"] <= 1.0
    if MODE == "smoke":
        return
    # The documented init should not lose badly to the naive one (the
    # margin is generous because this bench runs a single seed and the
    # benchmark's per-run noise is about +-0.03 HR@10; the init's
    # motivation is optimization stability, measured across seeds in
    # EXPERIMENTS.md).
    assert rows["default"]["hr@10"] >= rows["naive-init"]["hr@10"] * 0.88
