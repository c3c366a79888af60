"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``stats``      print Table-I statistics for one or more dataset presets
``train``      train one model on a preset and report its metrics
``compare``    run several models under the identical protocol (mini Table II)
``experiment`` regenerate one paper artifact (table1..4, fig4..10)
``generate``   write a synthetic dataset to disk (.npz or text directory)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.data import PRESETS, render_statistics_table, save_dataset
from repro.experiments import (
    ExperimentContext,
    default_train_config,
    run_convergence_comparison,
    run_efficiency_comparison,
    run_embedding_visualization,
    run_all_sweeps,
    run_memory_attention_study,
    run_model,
    run_module_ablation,
    run_overall_comparison,
    run_relation_ablation,
    run_sparsity_experiment,
)
from repro.experiments.ablation import render_relation_ablation_by_n
from repro.models import available_models


def _add_training_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="ciao-small", choices=sorted(PRESETS))
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--batch-size", type=int, default=1024)
    parser.add_argument("--lr", type=float, default=0.01)
    parser.add_argument("--l2", type=float, default=1e-4)
    parser.add_argument("--embed-dim", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--patience", type=int, default=8)


def _config_from(args) -> "TrainConfig":
    return default_train_config(epochs=args.epochs, batch_size=args.batch_size,
                                learning_rate=args.lr, l2=args.l2,
                                patience=args.patience, seed=args.seed)


def _cmd_stats(args) -> int:
    datasets = [PRESETS[name](seed=args.seed) for name in args.presets]
    print(render_statistics_table(datasets))
    return 0


def _cmd_train(args) -> int:
    context = ExperimentContext.build(args.dataset, seed=args.seed)
    run = run_model(args.model, context, _config_from(args),
                    embed_dim=args.embed_dim, seed=args.seed)
    print(f"{args.model} on {args.dataset}:")
    for name, value in sorted(run.metrics.items()):
        print(f"  {name:10s} {value:.4f}")
    print(f"  parameters: {run.num_parameters}")
    return 0


def _cmd_compare(args) -> int:
    results = run_overall_comparison(
        datasets=(args.dataset,), models=args.models,
        train_config=_config_from(args), embed_dim=args.embed_dim,
        seed=args.seed, verbose=True)
    print()
    print(results.render_table2())
    print(results.render_table3())
    return 0


def _cmd_experiment(args) -> int:
    context = ExperimentContext.build(args.dataset, seed=args.seed)
    config = _config_from(args)
    artifact = args.artifact
    if artifact == "table1":
        print(render_statistics_table([context.dataset]))
    elif artifact in ("table2", "table3"):
        results = run_overall_comparison(datasets=(args.dataset,),
                                         train_config=config, seed=args.seed)
        print(results.render_table2() if artifact == "table2"
              else results.render_table3())
    elif artifact == "table4":
        print(run_efficiency_comparison(context).render())
    elif artifact == "fig4":
        print(run_module_ablation(context, train_config=config).render())
    elif artifact == "fig5":
        print(render_relation_ablation_by_n(
            run_relation_ablation(context, train_config=config)))
    elif artifact == "fig6":
        print(run_sparsity_experiment(context, train_config=config).render())
    elif artifact == "fig7":
        for sweep in run_all_sweeps(context, train_config=config):
            print(sweep.render())
            print()
    elif artifact == "fig8":
        print(run_convergence_comparison(context).render())
    elif artifact == "fig9":
        print(run_embedding_visualization(context, train_config=config).render())
    elif artifact == "fig10":
        print(run_memory_attention_study(context, train_config=config).render())
    else:  # pragma: no cover - argparse restricts choices
        raise KeyError(artifact)
    return 0


def _cmd_generate(args) -> int:
    dataset = PRESETS[args.preset](seed=args.seed)
    save_dataset(dataset, args.output)
    print(f"wrote {dataset} to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DGNN (ICDE 2023) reproduction toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    stats = commands.add_parser("stats", help="Table-I dataset statistics")
    stats.add_argument("presets", nargs="*",
                       default=["ciao-small", "epinions-small", "yelp-small"])
    stats.add_argument("--seed", type=int, default=0)
    stats.set_defaults(func=_cmd_stats)

    train = commands.add_parser("train", help="train one model")
    train.add_argument("model", choices=available_models())
    _add_training_flags(train)
    train.set_defaults(func=_cmd_train)

    compare = commands.add_parser("compare", help="compare several models")
    compare.add_argument("models", nargs="+")
    _add_training_flags(compare)
    compare.set_defaults(func=_cmd_compare)

    experiment = commands.add_parser("experiment",
                                     help="regenerate a paper artifact")
    experiment.add_argument("artifact",
                            choices=["table1", "table2", "table3", "table4",
                                     "fig4", "fig5", "fig6", "fig7", "fig8",
                                     "fig9", "fig10"])
    _add_training_flags(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    generate = commands.add_parser("generate", help="write a dataset to disk")
    generate.add_argument("preset", choices=sorted(PRESETS))
    generate.add_argument("output")
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=_cmd_generate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
