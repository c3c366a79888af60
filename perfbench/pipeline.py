"""One benchmark run: set up, train, publish and serve DGNN on ``large``.

Every stage goes through the public API of :mod:`repro`, at its
defaults: the paper's DGNN (d=16, 2 layers, 8 memory units, Adam, BPR)
on the ``large`` synthetic preset, trained by :class:`Trainer` and
served by :class:`RecommendService`.  A run is

1. **setup**, done :data:`SETUP_REPEATS` times (median reported):
   generate, split, evaluation candidates, graph, model init and the
   first propagation, which performs the adjacency normalizations.  The
   first replica also runs a few warm-up steps; only the last replica
   is trained.
2. **train**: whole ``Trainer.fit`` epochs in the workload's propagation
   mode, each with its sampled 1+100 evaluation, then all-item ranking
   of every test user.
3. **publish and serve**: the model is published to a
   :class:`SnapshotStore`; an ``exact`` and an ``ivf`` service load it.
   A closed loop with one client per mode measures capacity, then an
   open loop at a fixed seeded schedule drives the ``ivf`` service while
   a second thread publishes successive snapshots and refreshes both
   services.

With tracing on, the training stage is driven step by step through the
same public calls ``Trainer.fit`` makes (sampler, ``bpr_loss`` /
``bpr_loss_on``, ``backward``, ``clip_grad_norm``, ``optimizer.step``,
``evaluate_model``), with spans around each, and its per-epoch losses
must equal an untraced ``Trainer.fit`` on an identical replica bitwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import resource
import shutil
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.autograd.sparse import use_sparse_grads
from repro.data import PRESETS, build_eval_candidates, leave_one_out
from repro.engine import arena, instrument, locality
from repro.eval import evaluate_full_ranking, evaluate_model, full_ranking_topk
from repro.graph import CollaborativeHeteroGraph, sample_subgraph_view
from repro.models import create_model
from repro.nn import clip_grad_norm
from repro.serve import (
    EmbeddingSnapshot,
    RecommendService,
    SnapshotStore,
    build_ivf_index,
    topk_recall,
)
from repro.train import (
    EarlyStopping,
    MinibatchPlanner,
    MinibatchStep,
    PrefetchPipeline,
    TrainConfig,
    Trainer,
    prefetch_enabled,
)

from tracing import Tracer

PRESET = "large"
MODEL = "dgnn"
TOP_K = 20
SETUP_REPEATS = 3
WARMUP_STEPS = 3
#: A run trains ``round(seconds / SECONDS_PER_EPOCH)`` whole epochs (at
#: least one), a pure function of ``--seconds`` so the trained model
#: depends on the seed alone.  One epoch takes 10-15 s on a 2-CPU host.
SECONDS_PER_EPOCH = 30.0
#: Shares of ``--seconds`` given to each serving phase.
CLOSED_LOOP_SHARE = 0.25               # per mode
CLOSED_LOOP_WINDOW_S = 0.2
OPEN_LOOP_SHARE = 0.2
#: Extra training after the first publish, one snapshot per round; the
#: swap thread publishes these in turn.
TAIL_ROUNDS = 2
TAIL_STEPS = 2
NUM_SWAPS = 15
#: Users per request.  The repository records no production traffic
#: mix, so every size gets the same share of service time in both
#: loops, and the closed loop also reports each size's capacity on its
#: own.
REQUEST_SIZES = (1, 16, 256)
#: Mean ``ivf`` service time of each request size, in seconds: the
#: per-size closed-loop capacities of the first baseline on a 2-CPU
#: host.  The open loop sends each size at a rate inversely
#: proportional to its cost, so each takes the same share of the time.
IVF_REQUEST_SECONDS = (0.0005, 0.0022, 0.0185)
#: Share of the ``ivf`` service's time the open loop fills when no swap
#: runs: requests seldom queue behind one another, so the tail shows
#: the swaps, not saturation.  This gives about 210 requests/s, and
#: about 1,260 requests in a 30 s run, so the p99 rests on 12 of them.
OPEN_LOOP_BUSY = 0.25
#: Share of open-loop requests that are ``recommend_cold_user`` calls.
#: The preset has no cold users to take a share from; 1 in 20 gives
#: about 60 calls in a 30 s run, enough to time ``serve.cold_s``.
COLD_SHARE = 0.05
CHECK_USERS = 512
#: ``full_hr_at_20`` must exceed this: a quarter of the baseline median
#: (0.021), under half the lowest seed seen (0.011), and three times
#: what random ranking gives (20 / 12,000).  A collapse of quality fails
#: the run; the spread from seed to seed does not.
HR_FLOOR = 0.005

#: Workload name -> the TrainConfig fields it sets (everything else at
#: its default).  ``train-minibatch`` is the production recipe of
#: ``docs/operations.md`` on one process.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "train-full": {},
    "train-minibatch": {"propagation": "minibatch", "fanout": 10,
                        "workers": 0},
}

#: End-to-end metrics: name -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "train_triples_per_s": "triples/s",
    "full_hr_at_20": "ratio",
    "peak_rss_mb": "MB",
    "serve_exact_users_per_s": "users/s",
    "serve_ivf_users_per_s": "users/s",
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "ivf_recall_at_20": "ratio",
    "swap_visible_s": "s",
    "error_rate": "ratio",
}

#: Per-layer metrics of the traced run: name -> unit.  Metrics a
#: workload does not exercise read 0.
LAYER_UNITS = {
    "data.generate_s": "s",
    "data.split_s": "s",
    "data.bpr_sample_s": "s/batch",
    "graph.build_s": "s",
    "graph.subgraph_s": "s/batch",
    "graph.subgraph_users": "count",
    "graph.subgraph_items": "count",
    "engine.spmm.calls": "count",
    "engine.spmm.s": "s",
    "engine.spmm.nnz": "count",
    "engine.spmm.gbytes": "GB",
    "engine.memory_mixture.s": "s",
    "engine.memory_mixture_backward.s": "s",
    "engine.gather_rows.s": "s",
    "engine.gathered_rowwise_dot.s": "s",
    "engine.normalizations": "count",
    "engine.adjcache.hits": "count",
    "engine.adjcache.misses": "count",
    "engine.train_normalizations": "count",
    "engine.arena.hits": "count",
    "engine.arena.misses": "count",
    "engine.arena.free_bytes": "bytes",
    "train.forward_s": "s",
    "train.backward_s": "s",
    "train.clip_s": "s",
    "train.optim_s": "s",
    "train.touched_row_fraction": "ratio",
    "pipeline.wait_s": "s",
    "pipeline.build_s": "s",
    "eval.sampled_s": "s",
    "eval.propagate_s": "s",
    "serve.recommend_exact_s": "s/request",
    "serve.recommend_ivf_s": "s/request",
    **{f"serve.{mode}_b{size}_users_per_s": "users/s"
       for mode in ("exact", "ivf") for size in REQUEST_SIZES},
    "serve.fallback_row_fraction": "ratio",
    "serve.cold_s": "s/request",
    "serve.snapshot_build_s": "s",
    "serve.publish_s": "s",
    "serve.publish_mb": "MB",
    "serve.load_s": "s",
    "serve.index_build_s": "s",
    "serve.refresh_s": "s",
    "loadgen.late_ms": "ms",
    "trace.untraced_triples_per_s": "triples/s",
    "trace.traced_triples_per_s": "triples/s",
    "trace.overhead_ratio": "ratio",
}


# ----------------------------------------------------------------------
# Correctness bookkeeping
# ----------------------------------------------------------------------
class Checks:
    """Named correctness checks; each counts its operations and failures."""

    def __init__(self):
        self.results: List[Tuple[str, int, int, str]] = []

    def count(self, name: str, attempted: int, failed: int,
              detail: str = "") -> None:
        self.results.append((name, int(attempted), int(failed), detail))

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.count(name, 1, 0 if passed else 1, detail)

    @property
    def attempted(self) -> int:
        return sum(r[1] for r in self.results)

    @property
    def failed(self) -> int:
        return sum(r[2] for r in self.results)


@dataclasses.dataclass
class Context:
    """Everything one setup replica builds."""

    split: object
    candidates: object
    graph: CollaborativeHeteroGraph
    model: object


@dataclasses.dataclass
class RunResult:
    end_to_end: Dict[str, float]
    layers: Dict[str, float]
    checks: Checks
    tracer: Tracer
    notes: Dict[str, object]


def train_config(workload: str, seed: int, **overrides) -> TrainConfig:
    fields = dict(WORKLOADS[workload])
    fields.update(overrides)
    return TrainConfig(seed=seed, **fields)


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Setup
# ----------------------------------------------------------------------
def setup(seed: int, tracer: Tracer) -> Tuple[Context, float]:
    """Build one replica; returns it and its wall time."""
    start = time.perf_counter()
    with tracer.span("setup"):
        with tracer.span("data.generate"):
            dataset = PRESETS[PRESET](seed=seed)
        with tracer.span("data.split"):
            split = leave_one_out(dataset, seed=seed)
            candidates = build_eval_candidates(split, num_negatives=100,
                                               seed=seed)
        with tracer.span("graph.build"):
            graph = CollaborativeHeteroGraph(dataset, split.train_pairs)
        with tracer.span("model.init"):
            model = create_model(MODEL, graph, seed=seed)
        with tracer.span("eval.propagate"):
            model.final_embeddings()
    return Context(split, candidates, graph, model), time.perf_counter() - start


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
def fit(ctx: Context, config: TrainConfig) -> Tuple[List[float], float, int]:
    """Untraced ``Trainer.fit``: losses, wall seconds, triples trained."""
    trainer = Trainer(ctx.model, ctx.split, config, ctx.candidates)
    batches = (config.batches_per_epoch
               or trainer.sampler.batches_for_full_epoch())
    start = time.perf_counter()
    history = trainer.fit()
    seconds = time.perf_counter() - start
    return (list(history.losses), seconds,
            len(history.losses) * batches * config.batch_size)


def _traced_steps(planner: MinibatchPlanner, batches: int, epoch: int,
                  tracer: Tracer):
    """``MinibatchPlanner.plan`` rebuilt from its public parts, with spans."""
    for batch_index in range(batches):
        with tracer.span("pipeline.build", batch=batch_index):
            start = time.perf_counter()
            with tracer.span("data.bpr_sample"):
                users, positives, negatives = planner.sampler.sample()
            with tracer.span("graph.subgraph") as span:
                subgraph = sample_subgraph_view(
                    planner.graph, users,
                    np.concatenate([positives, negatives]),
                    hops=planner.hops, fanout=planner.fanout,
                    seed=planner.batch_seed(epoch, batch_index))
                if span is not None:
                    span.args.update(users=int(subgraph.num_users),
                                     items=int(subgraph.num_items))
            step = MinibatchStep(users, positives, negatives, subgraph,
                                 time.perf_counter() - start)
        yield step


def _full_steps(sampler, batches: int, tracer: Tracer):
    for _ in range(batches):
        with tracer.span("data.bpr_sample"):
            users, positives, negatives = sampler.sample()
        yield users, positives, negatives


def traced_fit(ctx: Context, config: TrainConfig, tracer: Tracer
               ) -> Tuple[List[float], float, int, Dict[str, object]]:
    """``Trainer.fit`` decomposed into its public calls, each in a span.

    Returns losses, wall seconds, triples trained and step statistics:
    ``wait``, the time the step blocked on the prefetch queue; ``build``,
    summed ``MinibatchStep.sample_seconds``; ``touched``, each step's
    ``optimizer.touched_fraction()``.
    """
    model = ctx.model
    trainer = Trainer(model, ctx.split, config, ctx.candidates)
    sampler, optimizer = trainer.sampler, trainer.optimizer
    batches = config.batches_per_epoch or sampler.batches_for_full_epoch()
    stopper = EarlyStopping(metric=config.early_stopping_metric,
                            patience=config.patience)
    planner = None
    if config.propagation == "minibatch":
        hops = config.hops if config.hops is not None else model.minibatch_hops()
        planner = MinibatchPlanner(model.graph, sampler, hops=hops,
                                   fanout=config.fanout, base_seed=config.seed)
    use_arena = config.resolved_arena()
    pipe = {"wait": 0.0, "build": 0.0, "touched": []}
    losses: List[float] = []
    start = time.perf_counter()
    with tracer.span("train.fit"), \
            locality.use_spmm_block(config.resolved_spmm_block()):
        for epoch in range(config.epochs):
            with tracer.span("train.epoch", epoch=epoch):
                model.train()
                epoch_loss = 0.0
                with use_sparse_grads(config.resolved_sparse_grads()):
                    pipeline = None
                    if planner is None:
                        steps = _full_steps(sampler, batches, tracer)
                    else:
                        steps = _traced_steps(planner, batches, epoch, tracer)
                        if prefetch_enabled(config.prefetch):
                            pipeline = steps = PrefetchPipeline(steps)
                    try:
                        while True:
                            wait = time.perf_counter()
                            with tracer.span("train.next_batch"):
                                step = next(steps, None)
                            if planner is not None:
                                pipe["wait"] += time.perf_counter() - wait
                            if step is None:
                                break
                            epoch_loss += _traced_step(model, optimizer,
                                                       config, step, use_arena,
                                                       tracer, pipe)
                    finally:
                        if pipeline is not None:
                            pipeline.close()
                model.invalidate_cache()
                losses.append(epoch_loss / batches)
                if ((epoch + 1) % config.eval_every == 0
                        or epoch == config.epochs - 1):
                    with tracer.span("eval.sampled"):
                        metrics = evaluate_model(model, ctx.candidates,
                                                 ks=config.eval_ks)
                    if stopper.update(metrics, model, epoch):
                        break
        stopper.restore_best(model)
    seconds = time.perf_counter() - start
    return losses, seconds, len(losses) * batches * config.batch_size, pipe


def _traced_step(model, optimizer, config: TrainConfig, step, use_arena: bool,
                 tracer: Tracer, pipe: Dict[str, object]) -> float:
    """One optimizer step exactly as ``Trainer`` takes it."""
    if isinstance(step, MinibatchStep):
        pipe["build"] += step.sample_seconds
    with tracer.span("train.step"), \
            (arena.step_scope() if use_arena else contextlib.nullcontext()):
        optimizer.zero_grad()
        with tracer.span("train.forward"):
            if isinstance(step, MinibatchStep):
                loss = model.bpr_loss_on(step.subgraph, step.users,
                                         step.positives, step.negatives,
                                         l2=config.l2)
            else:
                users, positives, negatives = step
                loss = model.bpr_loss(users, positives, negatives,
                                      l2=config.l2)
        with tracer.span("train.backward"):
            loss.backward()
        if config.clip_norm is not None:
            with tracer.span("train.clip"):
                clip_grad_norm(model.parameters(), config.clip_norm)
        with tracer.span("train.optim"):
            optimizer.step()
        pipe["touched"].append(optimizer.touched_fraction())
        value = loss.item()
        del loss
    return value


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def _train_keys(snapshot: EmbeddingSnapshot) -> np.ndarray:
    counts = np.diff(np.asarray(snapshot.train_indptr)).astype(np.int64)
    owners = np.repeat(np.arange(snapshot.num_users, dtype=np.int64), counts)
    return owners * snapshot.num_items + np.asarray(
        snapshot.train_indices).astype(np.int64)


class RequestValidator:
    """Checks every served top-k list against the snapshot's train CSR."""

    def __init__(self, snapshot: EmbeddingSnapshot):
        self.num_items = snapshot.num_items
        self.keys = _train_keys(snapshot)
        self.cold = snapshot.cold_user_mask(np.arange(snapshot.num_users))

    def bad(self, users: Optional[np.ndarray], result) -> bool:
        """True when ``result`` is not a valid top-k answer for ``users``."""
        if isinstance(result, BaseException):
            return True
        result = np.asarray(result)
        rows = 1 if users is None else len(users)
        if result.shape != ((TOP_K,) if users is None else (rows, TOP_K)):
            return True
        block = result.reshape(rows, TOP_K)
        if block.min() < 0 or block.max() >= self.num_items:
            return True
        if (np.diff(np.sort(block, axis=1), axis=1) == 0).any():
            return True
        if users is None:
            return False
        keys = users[:, None] * self.num_items + block
        pos = np.clip(np.searchsorted(self.keys, keys), 0, self.keys.size - 1)
        seen = (self.keys[pos] == keys).any(axis=1) & ~self.cold[users]
        return bool(seen.any())


def _call(fn: Callable, *args):
    try:
        return fn(*args)
    except Exception as error:  # noqa: BLE001 — counted as a failed request
        return error


def closed_loop(services, duration: float, seed: int, num_users: int,
                tracer: Tracer):
    """One client per service; users/s per mode and per request size.

    Each service gets ``duration`` seconds in total, in rounds of one
    :data:`CLOSED_LOOP_WINDOW_S` window per request size and service,
    taken in turn, so host load that comes and goes lands on every mode
    and size alike, and every size gets the same share of a service's
    time.  A round's capacity is the users it served over the seconds
    spent serving them, every request counted; a mode's capacity is its
    best round.  On a shared host other tenants slow this process down
    for seconds at a time, by a third or more, so the best round is the one
    they disturbed least; a slowdown of the program's own shows in every
    round.  The n-th request of each (service, size) asks for the same
    users in every run with this seed.
    """
    served: List[Tuple[np.ndarray, object]] = []
    users_served: Dict[Tuple[str, int], int] = {}
    busy: Dict[Tuple[str, int], float] = {}
    round_rates: Dict[str, List[float]] = {s.retrieval: [] for s in services}
    streams = {(service.retrieval, size): np.random.default_rng(
        [seed, 11, index, size]) for index, service in enumerate(services)
        for size in REQUEST_SIZES}
    round_seconds = len(REQUEST_SIZES) * CLOSED_LOOP_WINDOW_S
    for _ in range(max(1, round(duration / round_seconds))):
        round_users = dict.fromkeys(round_rates, 0)
        round_busy = dict.fromkeys(round_rates, 0.0)
        for size in REQUEST_SIZES:
            for service in services:
                mode = service.retrieval
                key = (mode, size)
                deadline = time.perf_counter() + CLOSED_LOOP_WINDOW_S
                while time.perf_counter() < deadline:
                    users = streams[key].integers(0, num_users, size=size)
                    start = time.perf_counter()
                    with tracer.span(f"serve.recommend_{mode}", users=size):
                        result = _call(service.recommend, users, TOP_K)
                    seconds = time.perf_counter() - start
                    busy[key] = busy.get(key, 0.0) + seconds
                    users_served[key] = users_served.get(key, 0) + size
                    round_busy[mode] += seconds
                    round_users[mode] += size
                    served.append((users, result))
        for mode, rates in round_rates.items():
            rates.append(round_users[mode] / round_busy[mode])
    by_size = {key: users_served[key] / busy[key] for key in busy}
    rates = {mode: max(values) for mode, values in round_rates.items()}
    return rates, by_size, round_rates, served


def open_loop_schedule(rng: np.random.Generator, duration: float,
                       snapshot: EmbeddingSnapshot):
    """Seeded arrivals: (due offset, users or None, friends or None)."""
    rates = (OPEN_LOOP_BUSY / len(REQUEST_SIZES)
             / np.asarray(IVF_REQUEST_SECONDS))
    rate = float(rates.sum())
    gaps = rng.exponential(1.0 / rate, size=int(duration * rate * 2) + 16)
    due = np.cumsum(gaps)
    due = due[due < duration]
    social = np.flatnonzero(np.diff(np.asarray(snapshot.social_indptr)) > 0)
    schedule = []
    for offset in due:
        if rng.random() < COLD_SHARE:
            friends = np.asarray(snapshot.social_row(int(rng.choice(social))))
            schedule.append((float(offset), None, friends))
        else:
            size = int(rng.choice(REQUEST_SIZES, p=rates / rate))
            schedule.append((float(offset),
                             rng.integers(0, snapshot.num_users, size=size),
                             None))
    return schedule


class Swapper(threading.Thread):
    """Publishes successive snapshots and refreshes both services."""

    def __init__(self, store: SnapshotStore, services, sources, offsets,
                 origin: float, tracer: Tracer):
        super().__init__(name="perfbench-swapper", daemon=True)
        self.store, self.services, self.sources = store, services, sources
        self.offsets, self.origin, self.tracer = offsets, origin, tracer
        self.visible: List[float] = []       # one entry per good swap
        self.problems: List[str] = []
        self.stop = threading.Event()

    def run(self) -> None:
        for i, offset in enumerate(self.offsets):
            if self.stop.wait(max(0.0, self.origin + offset
                                  - time.perf_counter())):
                return
            try:
                self._swap(self.sources[i % len(self.sources)], i)
            except Exception as error:  # noqa: BLE001 — reported as a check
                self.problems.append(repr(error))

    def _swap(self, snapshot: EmbeddingSnapshot, index: int) -> None:
        start = time.perf_counter()
        with self.tracer.span("serve.swap", swap=index):
            with self.tracer.span("serve.publish"):
                version = self.store.publish(snapshot)
            for service in self.services:
                with self.tracer.span("serve.refresh", mode=service.retrieval):
                    service.refresh(self.store)
        seconds = time.perf_counter() - start
        stale = [f"{service.retrieval} serves {service.snapshot.version}, "
                 f"not {version}" for service in self.services
                 if service.snapshot.version != version]
        if stale:
            self.problems += stale
        else:
            self.visible.append(seconds)


def open_loop(service: RecommendService, schedule, tracer: Tracer
              ) -> Tuple[List[float], List[float], list]:
    """Send each request at its due time; latency counts from due time."""
    latencies: List[float] = []
    late: List[float] = []
    served = []
    origin = time.perf_counter() + 0.05
    for offset, users, friends in schedule:
        due = origin + offset
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        sent = time.perf_counter()
        if users is None:
            with tracer.span("serve.cold", friends=len(friends)):
                result = _call(service.recommend_cold_user, friends, TOP_K)
        else:
            with tracer.span(f"serve.recommend_{service.retrieval}",
                             users=len(users)):
                result = _call(service.recommend, users, TOP_K)
        done = time.perf_counter()
        latencies.append(done - due)
        late.append(sent - due)
        served.append((users, result))
    return latencies, late, served


def serve_stage(ctx: Context, workload: str, seed: int, seconds: float,
                workdir: Path, tracer: Tracer, checks: Checks,
                metrics: Dict[str, float], layers: Dict[str, float],
                notes: Dict[str, object]) -> None:
    """Publish the trained model and drive both services under swaps."""
    model, split = ctx.model, ctx.split
    rng = np.random.default_rng([seed, 7])
    with tracer.span("eval.propagate"):
        model.invalidate_cache()
        model.final_embeddings()
    with tracer.span("serve.snapshot_build"):
        first = EmbeddingSnapshot.from_model(model, split)
    layers["serve.publish_mb"] = sum(
        np.asarray(a).nbytes for a in first.arrays().values()) / 2**20
    store = SnapshotStore(workdir / "store")
    with tracer.span("serve.publish"):
        store.publish(first)
    with tracer.span("serve.load"):
        published = store.load_latest()
    exact = RecommendService(published)
    validator = RequestValidator(exact.snapshot)
    warm = np.flatnonzero(np.diff(np.asarray(exact.snapshot.train_indptr)) > 0)
    check_users = np.sort(rng.choice(warm, size=CHECK_USERS, replace=False))
    checks.check("exact top-20 == full_ranking_topk on the live model",
                 np.array_equal(exact.recommend(check_users, TOP_K),
                                full_ranking_topk(model, split,
                                                  users=check_users,
                                                  top_n=TOP_K)))

    sources = []
    for round_index in range(TAIL_ROUNDS):
        with tracer.span("train.tail"):
            losses, _, _ = fit(ctx, train_config(
                workload, seed + 1 + round_index, epochs=1,
                batches_per_epoch=TAIL_STEPS))
        checks.count("tail training losses finite", len(losses),
                     sum(not math.isfinite(v) for v in losses))
        with tracer.span("eval.propagate"):
            model.final_embeddings()
        with tracer.span("serve.snapshot_build"):
            sources.append(EmbeddingSnapshot.from_model(model, split))

    ivf = RecommendService(published, retrieval="ivf")

    duration = seconds * OPEN_LOOP_SHARE
    schedule = open_loop_schedule(rng, duration, first)
    with tracer.span("serve.closed_loop"):
        rates, by_size, round_rates, served = closed_loop(
            (exact, ivf), seconds * CLOSED_LOOP_SHARE, seed, first.num_users,
            tracer)
    notes["closed_loop_round_users_per_s"] = round_rates
    for mode, rate in rates.items():
        metrics[f"serve_{mode}_users_per_s"] = rate
    for (mode, size), rate in by_size.items():
        layers[f"serve.{mode}_b{size}_users_per_s"] = rate

    offsets = [duration * (i + 1) / (NUM_SWAPS + 1) for i in range(NUM_SWAPS)]
    swapper = Swapper(store, (exact, ivf), sources, offsets,
                      time.perf_counter() + 0.05, tracer)
    swapper.start()
    try:
        with tracer.span("serve.open_loop"):
            latencies, late, done = open_loop(ivf, schedule, tracer)
    except BaseException:
        swapper.stop.set()
        raise
    finally:
        swapper.join()
    served += done
    latencies_ms = [1000.0 * v for v in latencies]
    notes["open_loop_requests"] = len(latencies_ms)
    metrics["serve_p50_ms"] = _percentile(latencies_ms, 50)
    metrics["serve_p99_ms"] = _percentile(latencies_ms, 99)
    metrics["swap_visible_s"] = (statistics.median(swapper.visible)
                                 if swapper.visible else float("nan"))
    layers["loadgen.late_ms"] = _percentile([1000.0 * v for v in late], 99)
    checks.count("requests answered with valid top-20", len(served),
                 sum(validator.bad(users, result) for users, result in served))
    checks.count("swaps published and visible to both services", NUM_SWAPS,
                 NUM_SWAPS - len(swapper.visible), "; ".join(swapper.problems))
    layers["serve.fallback_row_fraction"] = (
        ivf.stats["fallback_rows"] / max(ivf.stats["users"], 1))

    recalls, loaded, bad_loads = [], 0, 0
    for version in store.versions():
        loaded += 1
        try:
            with tracer.span("serve.load"):
                snapshot = store.load(version)
        except Exception:  # noqa: BLE001 — a failed validation is the result
            bad_loads += 1
            continue
        if tracer.enabled:
            with tracer.span("serve.index_build"):
                build_ivf_index(np.asarray(snapshot.item_emb))
        exact_top = RecommendService(snapshot).recommend(check_users, TOP_K)
        ivf_top = RecommendService(snapshot, retrieval="ivf").recommend(
            check_users, TOP_K)
        recalls.append(topk_recall(ivf_top, exact_top))
    checks.count("published snapshots load with store validation", loaded,
                 bad_loads)
    metrics["ivf_recall_at_20"] = (float(np.mean(recalls)) if recalls
                                   else float("nan"))
    del exact, ivf
    shutil.rmtree(workdir / "store", ignore_errors=True)


# ----------------------------------------------------------------------
# Whole run
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> RunResult:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"known: {sorted(WORKLOADS)}")
    tracer = Tracer(trace)
    checks = Checks()
    metrics: Dict[str, float] = {}
    layers: Dict[str, float] = {name: 0.0 for name in LAYER_UNITS}
    notes: Dict[str, object] = {}
    epochs = max(1, round(seconds / SECONDS_PER_EPOCH))
    config = train_config(workload, seed, epochs=epochs)
    notes["epochs"] = epochs

    setup_times: List[float] = []
    fit_losses: Optional[List[float]] = None
    for replica in range(SETUP_REPEATS):
        counters = instrument.snapshot()
        ctx, setup_seconds = setup(seed, tracer)
        setup_delta = instrument.delta(counters, instrument.snapshot())
        setup_times.append(setup_seconds)
        if replica == 0:
            with tracer.span("warmup"):
                fit(ctx, train_config(workload, seed, epochs=1,
                                      batches_per_epoch=WARMUP_STEPS))
        elif replica == SETUP_REPEATS - 2 and trace:
            # The traced run also times the untraced Trainer.fit on an
            # identical replica: the parity oracle and the overhead base.
            fit_losses, fit_seconds, triples = fit(ctx, config)
            layers["trace.untraced_triples_per_s"] = triples / fit_seconds
        if replica < SETUP_REPEATS - 1:
            del ctx
    metrics["setup_s"] = statistics.median(setup_times)
    layers["engine.normalizations"] = setup_delta.get("normalizations", 0.0)
    layers["engine.adjcache.hits"] = setup_delta.get("cache_hits", 0.0)
    layers["engine.adjcache.misses"] = setup_delta.get("cache_misses", 0.0)

    counters = instrument.snapshot()
    arena_before = arena.get_arena().stats()
    if trace:
        losses, train_seconds, triples, pipe = traced_fit(ctx, config, tracer)
        layers["trace.traced_triples_per_s"] = triples / train_seconds
        layers["trace.overhead_ratio"] = (
            layers["trace.untraced_triples_per_s"]
            / layers["trace.traced_triples_per_s"] - 1.0)
        layers["pipeline.wait_s"] = pipe["wait"]
        layers["pipeline.build_s"] = pipe["build"]
        layers["train.touched_row_fraction"] = float(np.mean(pipe["touched"]))
        checks.check("traced step loop reproduces Trainer.fit losses bitwise",
                     losses == fit_losses, f"{losses} vs {fit_losses}")
    else:
        losses, train_seconds, triples = fit(ctx, config)
    used = instrument.delta(counters, instrument.snapshot())
    arena_after = arena.get_arena().stats()
    metrics["train_triples_per_s"] = triples / train_seconds
    layers["engine.train_normalizations"] = used.get("normalizations", 0.0)
    checks.count("training losses finite", len(losses),
                 sum(not math.isfinite(v) for v in losses))
    normalized = used.get("normalizations", 0.0)
    checks.check("no adjacency normalizations during training",
                 normalized == 0, f"{normalized:g} normalizations")
    notes["losses"] = losses
    if trace:
        _engine_layers(layers, used, arena_before, arena_after, tracer)

    with tracer.span("eval.full_ranking"):
        full = evaluate_full_ranking(ctx.model, ctx.split, ks=(TOP_K,))
    metrics["full_hr_at_20"] = full[f"full-hr@{TOP_K}"]
    checks.check(f"full HR@20 above {HR_FLOOR}",
                 metrics["full_hr_at_20"] > HR_FLOOR,
                 f"{metrics['full_hr_at_20']:.4f}")

    serve_stage(ctx, workload, seed, seconds, workdir, tracer, checks,
                metrics, layers, notes)
    if trace:
        _span_layers(layers, tracer)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    metrics["error_rate"] = checks.failed / max(checks.attempted, 1)
    return RunResult(metrics, layers, checks, tracer, notes)


def _engine_layers(layers, used, arena_before, arena_after,
                   tracer: Tracer) -> None:
    layers["engine.spmm.calls"] = used.get("calls.spmm", 0.0)
    layers["engine.spmm.s"] = used.get("seconds.spmm", 0.0)
    layers["engine.spmm.nnz"] = used.get("spmm_nnz", 0.0)
    layers["engine.spmm.gbytes"] = used.get("bytes.spmm", 0.0) / 1e9
    for kernel in ("memory_mixture", "memory_mixture_backward",
                   "gather_rows", "gathered_rowwise_dot"):
        layers[f"engine.{kernel}.s"] = used.get(f"seconds.{kernel}", 0.0)
    layers["engine.arena.hits"] = arena_after["hits"] - arena_before["hits"]
    layers["engine.arena.misses"] = (arena_after["misses"]
                                     - arena_before["misses"])
    layers["engine.arena.free_bytes"] = arena_after["free_bytes"]
    layers["data.bpr_sample_s"] = tracer.mean("data.bpr_sample")
    layers["graph.subgraph_s"] = tracer.mean("graph.subgraph")
    subgraphs = tracer.named("graph.subgraph")
    if subgraphs:
        layers["graph.subgraph_users"] = float(np.mean(
            [s.args["users"] for s in subgraphs]))
        layers["graph.subgraph_items"] = float(np.mean(
            [s.args["items"] for s in subgraphs]))
    for phase in ("forward", "backward", "clip", "optim"):
        layers[f"train.{phase}_s"] = tracer.total(f"train.{phase}")
    layers["eval.sampled_s"] = tracer.total("eval.sampled")


def _span_layers(layers, tracer: Tracer) -> None:
    """Per-call means of the setup and serving spans."""
    layers["data.generate_s"] = tracer.mean("data.generate")
    layers["data.split_s"] = tracer.mean("data.split")
    layers["graph.build_s"] = tracer.mean("graph.build")
    layers["eval.propagate_s"] = tracer.mean("eval.propagate")
    for name in ("recommend_exact", "recommend_ivf", "cold", "snapshot_build",
                 "publish", "load", "index_build", "refresh"):
        layers[f"serve.{name}_s"] = tracer.mean(f"serve.{name}")
