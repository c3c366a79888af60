"""Synthetic benchmark generator mirroring the paper's datasets.

The public Ciao / Epinions / Yelp dumps cannot be fetched offline, so the
experiments run on a configurable generative benchmark whose mechanics
plant the same structure the paper exploits:

* **latent communities** — users belong to communities; social ties are
  homophilous (mostly intra-community), so the social graph ``S`` carries
  genuine preference signal;
* **item categories** — each item belongs to one (sometimes two)
  categories, which become the relation nodes of ``T``; communities
  prefer a few categories, so item-relation structure predicts interest;
* **power-law popularity** — item interaction counts are heavy-tailed,
  like every review platform;
* **noise** — a configurable fraction of interactions and ties is random,
  so no relation is perfectly informative.

Presets scale the three Table-I profiles down to laptop size while
preserving the *orderings* that matter for the experiments: Ciao is the
densest in both interactions and ties, Yelp the sparsest.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.data.dataset import InteractionDataset


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the generative benchmark (see module docstring)."""

    num_users: int = 400
    num_items: int = 1500
    num_relations: int = 12
    num_communities: int = 8
    num_taste_groups: int = 0
    taste_weight: float = 0.5
    personal_weight: float = 0.0
    personal_categories: int = 2
    social_adoption: float = 0.3
    mean_interactions: float = 12.0
    min_interactions: int = 3
    mean_social_degree: float = 6.0
    homophily: float = 0.85
    secondary_category_prob: float = 0.25
    popularity_exponent: float = 0.6
    affinity_strength: float = 16.0
    interaction_noise: float = 0.05
    seed: int = 0
    name: str = "synthetic"

    def validate(self) -> None:
        for field_name in ("num_users", "num_relations", "num_communities"):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be >= 1")
        if self.num_communities > self.num_relations * 4:
            raise ValueError("too many communities for the category pool")
        if not 0.0 <= self.homophily <= 1.0:
            raise ValueError("homophily must be in [0, 1]")
        if not 0.0 <= self.interaction_noise <= 1.0:
            raise ValueError("interaction_noise must be in [0, 1]")
        if not 0.0 <= self.taste_weight <= 1.0:
            raise ValueError("taste_weight must be in [0, 1]")
        if self.num_taste_groups < 0:
            raise ValueError("num_taste_groups must be non-negative")
        if not 0.0 <= self.personal_weight <= 1.0:
            raise ValueError("personal_weight must be in [0, 1]")
        if self.personal_categories < 0:
            raise ValueError("personal_categories must be non-negative")
        if not 0.0 <= self.social_adoption <= 1.0:
            raise ValueError("social_adoption must be in [0, 1]")
        if self.min_interactions < 2:
            raise ValueError("min_interactions must be >= 2 (train + held-out test)")
        if self.num_items < self.min_interactions + 1:
            # Each user draws at most num_items - 1 distinct items.
            raise ValueError("num_items must be >= min_interactions + 1")


def _group_category_affinity(num_groups: int, num_categories: int,
                             strength: float,
                             rng: np.random.Generator) -> np.ndarray:
    """Sparse group-to-category preference matrix.

    Each group concentrates its mass on 2–3 categories; a small base rate
    keeps every category reachable.  Used for both latent user factors
    (community and taste group).
    """
    affinity = np.full((num_groups, num_categories), 1.0)
    for group in range(num_groups):
        favourites = rng.choice(num_categories,
                                size=min(3, num_categories), replace=False)
        affinity[group, favourites[0]] += strength
        for extra in favourites[1:]:
            affinity[group, extra] += strength / 2.0
    return affinity / affinity.sum(axis=1, keepdims=True)


def _sample_degrees(count: int, mean: float, minimum: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Heavy-tailed per-entity degree targets with a hard floor."""
    raw = rng.lognormal(mean=np.log(max(mean, minimum + 0.5)), sigma=0.6, size=count)
    return np.maximum(raw.astype(np.int64), minimum)


def _draw_without_replacement(rng: np.random.Generator, weights: np.ndarray,
                              cdf: np.ndarray, size: int) -> np.ndarray:
    """``rng.choice(len(weights), size, replace=False, p=weights)``, draw for draw.

    ``cdf`` is ``cumsum(weights) / cumsum(weights)[-1]``, precomputed so
    that callers sharing ``weights`` skip the per-call validation, copy and
    cumsum.  Follows ``Generator.choice``'s rejection rounds exactly: draw
    ``size - found`` uniforms, keep each first occurrence in draw order, and
    on a collision zero the found entries and rebuild the cdf — so the
    result and the generator state afterwards are the same as ``choice``'s.
    """
    found = np.empty(size, dtype=np.int64)
    n_found = 0
    remaining = None
    while n_found < size:
        draws = rng.random(size - n_found)
        if n_found > 0:
            if remaining is None:
                remaining = weights.copy()
            remaining[found[:n_found]] = 0
            cdf = np.cumsum(remaining)
            cdf /= cdf[-1]
        new = cdf.searchsorted(draws, side="right")
        _, first = np.unique(new, return_index=True)
        first.sort()
        found[n_found:n_found + len(first)] = new[first]
        n_found += len(first)
    return found


def generate_dataset(config: SyntheticConfig) -> InteractionDataset:
    """Generate an :class:`InteractionDataset` from ``config``.

    The generation is fully deterministic given ``config.seed``.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)

    communities = rng.integers(0, config.num_communities, size=config.num_users)
    categories = rng.integers(0, config.num_relations, size=config.num_items)
    community_affinity = _group_category_affinity(
        config.num_communities, config.num_relations,
        config.affinity_strength, rng)
    # Second, social-orthogonal latent factor: users are also members of a
    # "taste group" that shapes their interests but not their social ties —
    # the multifaceted-preference structure the paper's introduction
    # motivates disentangled modeling with.
    if config.num_taste_groups > 0:
        tastes = rng.integers(0, config.num_taste_groups, size=config.num_users)
        taste_affinity = _group_category_affinity(
            config.num_taste_groups, config.num_relations,
            config.affinity_strength, rng)
    else:
        tastes = np.zeros(config.num_users, dtype=np.int64)
        taste_affinity = np.full((1, config.num_relations),
                                 1.0 / config.num_relations)

    # Item relation edges: primary category plus an occasional secondary one.
    relation_pairs: List[np.ndarray] = [
        np.stack([np.arange(config.num_items), categories], axis=1)
    ]
    secondary_mask = rng.random(config.num_items) < config.secondary_category_prob
    if secondary_mask.any():
        secondary = rng.integers(0, config.num_relations, size=int(secondary_mask.sum()))
        relation_pairs.append(
            np.stack([np.flatnonzero(secondary_mask), secondary], axis=1))
    item_relations = np.concatenate(relation_pairs, axis=0)

    # Power-law item popularity (rank-based Zipf, randomly permuted ranks).
    ranks = rng.permutation(config.num_items) + 1
    popularity = ranks.astype(np.float64) ** (-config.popularity_exponent)
    popularity /= popularity.sum()

    # Per-user idiosyncratic taste: a couple of personally favoured
    # categories, observable only through the user's own interactions —
    # the classic collaborative-filtering signal that keeps community
    # membership from fully determining preference.
    personal_affinity = np.full((config.num_users, config.num_relations),
                                1.0 / config.num_relations)
    if config.personal_weight > 0 and config.personal_categories > 0:
        base = np.ones(config.num_relations)
        for user in range(config.num_users):
            row = base.copy()
            chosen = rng.choice(config.num_relations,
                                size=min(config.personal_categories,
                                         config.num_relations), replace=False)
            row[chosen] += config.affinity_strength
            personal_affinity[user] = row / row.sum()

    # Social ties: homophilous partner choice with a random-noise floor.
    # (Generated before interactions so that item-level social adoption
    # can copy items across ties.)
    members: Dict[int, np.ndarray] = {
        community: np.flatnonzero(communities == community)
        for community in range(config.num_communities)
    }
    social_degrees = _sample_degrees(config.num_users, config.mean_social_degree, 1, rng)
    ties = set()
    for user in range(config.num_users):
        pool = members[communities[user]]
        for _ in range(int(social_degrees[user])):
            if rng.random() < config.homophily and len(pool) > 1:
                partner = int(pool[rng.integers(0, len(pool))])
            else:
                partner = int(rng.integers(0, config.num_users))
            if partner == user:
                continue
            ties.add((min(user, partner), max(user, partner)))
    social_edges = (np.asarray(sorted(ties), dtype=np.int64)
                    if ties else np.zeros((0, 2), dtype=np.int64))
    friends: List[List[int]] = [[] for _ in range(config.num_users)]
    for a, b in social_edges:
        friends[a].append(int(b))
        friends[b].append(int(a))

    # Interactions, phase 1 — "organic" choices from the per-user affinity
    # mixing the latent factors.
    degrees = _sample_degrees(config.num_users, config.mean_interactions,
                              config.min_interactions, rng)
    community_weight = community_affinity[:, categories]  # (communities, items)
    taste_weight_matrix = taste_affinity[:, categories]   # (tastes, items)
    mix = config.taste_weight if config.num_taste_groups > 0 else 0.0
    personal_mix = (config.personal_weight
                    if config.personal_categories > 0 else 0.0)

    def sampling_table(user: int):
        group_term = ((1.0 - mix) * community_weight[communities[user]]
                      + mix * taste_weight_matrix[tastes[user]])
        weights = popularity * ((1.0 - personal_mix) * group_term
                                + personal_mix * personal_affinity[user, categories])
        if config.interaction_noise > 0.0:
            weights = ((1.0 - config.interaction_noise) * weights / weights.sum()
                       + config.interaction_noise / config.num_items)
        weights = weights / weights.sum()
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        return weights, cdf

    # Without personal taste every personal row is the same uniform one, so
    # the table depends only on (community, taste group): build each once.
    # With personal taste it is per user and is not kept — at ``large`` a
    # per-user cache would hold hundreds of megabytes.
    group_tables: Dict[tuple, tuple] = {}
    organic: List[np.ndarray] = []
    for user in range(config.num_users):
        if personal_mix > 0.0:
            weights, cdf = sampling_table(user)
        else:
            key = (communities[user], tastes[user])
            if key not in group_tables:
                group_tables[key] = sampling_table(user)
            weights, cdf = group_tables[key]
        budget = min(degrees[user], config.num_items - 1)
        organic.append(_draw_without_replacement(rng, weights, cdf, budget))

    # Interactions, phase 2 — item-level social adoption: a fraction of
    # each user's interactions copies items their friends chose (the
    # social-influence mechanism that motivates social recommendation).
    interaction_rows: List[np.ndarray] = []
    for user in range(config.num_users):
        items = organic[user]
        friend_ids = friends[user]
        if config.social_adoption > 0.0 and friend_ids:
            friend_pool = np.concatenate([organic[f] for f in friend_ids])
            adopt_count = int(round(config.social_adoption * len(items)))
            if adopt_count > 0:
                adopted = rng.choice(friend_pool, size=adopt_count)
                combined = np.unique(np.concatenate(
                    [items[:len(items) - adopt_count], adopted]))
                if len(combined) >= config.min_interactions:
                    items = combined
        interaction_rows.append(
            np.stack([np.full(len(items), user, dtype=np.int64), items], axis=1))
    interactions = np.concatenate(interaction_rows, axis=0)

    return InteractionDataset(
        num_users=config.num_users,
        num_items=config.num_items,
        num_relations=config.num_relations,
        interactions=interactions,
        social_edges=social_edges,
        item_relations=item_relations,
        name=config.name,
        metadata={
            "config": config,
            "communities": communities,
            "tastes": tastes,
            "categories": categories,
        },
    )


# ----------------------------------------------------------------------
# Presets — scaled-down Table-I profiles.
#
# The orderings the experiments rely on (Ciao densest interactions and by
# far the densest social graph; Yelp sparsest in both) are preserved; the
# absolute counts are scaled to run the full model suite on one CPU.
# ----------------------------------------------------------------------
def ciao_small(seed: int = 0, **overrides) -> InteractionDataset:
    """Ciao profile: small, dense, socially saturated (Table I col. 1)."""
    config = SyntheticConfig(
        num_users=400, num_items=1600, num_relations=12, num_communities=8,
        mean_interactions=15.0, mean_social_degree=14.0, homophily=0.9,
        seed=seed, name="ciao-small")
    return generate_dataset(replace(config, **overrides) if overrides else config)


def epinions_small(seed: int = 0, **overrides) -> InteractionDataset:
    """Epinions profile: larger and sparser, moderate social density."""
    config = SyntheticConfig(
        num_users=800, num_items=3600, num_relations=16, num_communities=10,
        mean_interactions=10.0, mean_social_degree=6.0, homophily=0.85,
        seed=seed, name="epinions-small")
    return generate_dataset(replace(config, **overrides) if overrides else config)


def yelp_small(seed: int = 0, **overrides) -> InteractionDataset:
    """Yelp profile: sparsest interactions and the thinnest social graph."""
    config = SyntheticConfig(
        num_users=1000, num_items=4200, num_relations=20, num_communities=12,
        mean_interactions=7.0, mean_social_degree=3.0, homophily=0.8,
        seed=seed, name="yelp-small")
    return generate_dataset(replace(config, **overrides) if overrides else config)


def medium(seed: int = 0, **overrides) -> InteractionDataset:
    """Mid-scale profile for throughput benchmarks.

    Large enough that sparse-kernel cost dominates Python overhead
    (meaningful kernel-throughput numbers), small enough to run inside
    a test suite.
    """
    config = SyntheticConfig(
        num_users=300, num_items=1200, num_relations=10, num_communities=6,
        mean_interactions=12.0, mean_social_degree=8.0, homophily=0.85,
        seed=seed, name="medium")
    return generate_dataset(replace(config, **overrides) if overrides else config)


def large(seed: int = 0, **overrides) -> InteractionDataset:
    """Large-scale profile: the preset ``perfbench`` trains and serves.

    Big enough that full-graph propagation per BPR batch is clearly
    dominated by nodes outside the batch's neighbourhood — the regime
    the sampled minibatch path is built for.  Deliberately only used by
    opt-in benchmarks, not the tier-1 test suite.
    """
    config = SyntheticConfig(
        num_users=4000, num_items=12000, num_relations=24,
        num_communities=16, mean_interactions=12.0, mean_social_degree=8.0,
        homophily=0.85, seed=seed, name="large")
    return generate_dataset(replace(config, **overrides) if overrides else config)


def tiny(seed: int = 0, **overrides) -> InteractionDataset:
    """A miniature dataset for unit tests (sub-second end-to-end runs)."""
    config = SyntheticConfig(
        num_users=60, num_items=250, num_relations=6, num_communities=4,
        mean_interactions=8.0, mean_social_degree=4.0, homophily=0.9,
        seed=seed, name="tiny")
    return generate_dataset(replace(config, **overrides) if overrides else config)


# ----------------------------------------------------------------------
# xlarge — the 1M+ node memory-scale preset.
#
# The reference generator above loops users in Python and draws each
# user's items from a dense ``(num_items,)`` sampling table, one per latent
# group (one per user with personal taste); at a million nodes the loop is
# hours of work and every table costs megabytes.  The chunked
# generator below plants the same three structural signals (community
# homophily, category affinity, power-law popularity) with vectorized
# per-chunk sampling and a memmap-backed edge buffer, so peak memory
# stays at one chunk of draws regardless of graph size.
# ----------------------------------------------------------------------
def generate_dataset_chunked(config: SyntheticConfig,
                             chunk_users: int = 32_768) -> InteractionDataset:
    """Generate a large :class:`InteractionDataset` without dense intermediates.

    Deterministic given ``config.seed``.  Structural simplifications
    versus :func:`generate_dataset` (all deliberate, to stay vectorized):
    community and category membership are arithmetic (``id % groups``)
    rather than sampled, popularity is shared across categories, and
    social partners are drawn intra-community with a fixed homophily
    split.  Interactions are written chunk-by-chunk into an ``np.memmap``
    edge buffer and deduplicated with one vectorized key pass.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    num_users, num_items = config.num_users, config.num_items
    num_relations = config.num_relations
    num_communities = config.num_communities

    # Arithmetic memberships: community(u) = u % C, category(i) = i % R.
    # Items of category c are {c, c + R, c + 2R, ...}, so (category, rank)
    # maps to an item id without any per-category index arrays.
    ranks_per_category = num_items // num_relations
    # Shared within-category popularity: Zipf over ranks, one cumsum.
    popularity = (np.arange(1, ranks_per_category + 1, dtype=np.float64)
                  ** (-config.popularity_exponent))
    pop_cdf = np.cumsum(popularity / popularity.sum())
    pop_cdf[-1] = 1.0  # guard searchsorted against rounding
    # Each community concentrates on 3 favourite categories.
    favourites = np.stack([
        rng.choice(num_relations, size=min(3, num_relations), replace=False)
        for _ in range(num_communities)])

    # Per-user interaction budgets, drawn once (vectorized); every user
    # additionally gets `min_interactions` deterministic base items so
    # leave-one-out eligibility survives deduplication.
    budgets = np.maximum(
        rng.poisson(config.mean_interactions, size=num_users),
        config.min_interactions).astype(np.int64)
    base = int(config.min_interactions)
    total_rows = int(budgets.sum()) + base * num_users

    with tempfile.TemporaryDirectory(prefix="repro-xlarge-") as tmpdir:
        edges = np.memmap(Path(tmpdir) / "edges.dat", dtype=np.int64,
                          mode="w+", shape=(total_rows, 2))
        cursor = 0
        for start in range(0, num_users, chunk_users):
            stop = min(start + chunk_users, num_users)
            counts = budgets[start:stop]
            users = np.repeat(np.arange(start, stop, dtype=np.int64), counts)
            draws = len(users)
            communities = users % num_communities
            # Category choice: homophilous mass on the community's three
            # favourites, the rest uniform across all categories.
            pick = rng.random(draws) < config.homophily
            fav_slot = rng.integers(0, favourites.shape[1], size=draws)
            categories = np.where(
                pick, favourites[communities, fav_slot],
                rng.integers(0, num_relations, size=draws))
            ranks = np.searchsorted(pop_cdf, rng.random(draws), side="left")
            items = categories + num_relations * ranks
            block = len(users)
            edges[cursor:cursor + block, 0] = users
            edges[cursor:cursor + block, 1] = items
            cursor += block
            # Deterministic base interactions: spread across categories.
            base_users = np.repeat(np.arange(start, stop, dtype=np.int64),
                                   base)
            offsets = np.tile(np.arange(base, dtype=np.int64), stop - start)
            base_items = (base_users * base + offsets) % num_items
            block = len(base_users)
            edges[cursor:cursor + block, 0] = base_users
            edges[cursor:cursor + block, 1] = base_items
            cursor += block
        # One vectorized dedupe over encoded (user, item) keys.
        keys = np.unique(edges[:cursor, 0] * np.int64(num_items)
                         + edges[:cursor, 1])
        interactions = np.stack([keys // num_items, keys % num_items], axis=1)
        del edges

    # Social ties: intra-community partners (community c holds users
    # {c, c + C, ...}), with a uniform-noise floor.
    per_user = max(1, int(round(config.mean_social_degree / 2.0)))
    src = np.repeat(np.arange(num_users, dtype=np.int64), per_user)
    community_size = num_users // num_communities
    partners = (src % num_communities
                + num_communities * rng.integers(
                    0, max(community_size, 1), size=len(src)))
    noise = rng.random(len(src)) >= config.homophily
    partners[noise] = rng.integers(0, num_users, size=int(noise.sum()))
    partners = np.minimum(partners, num_users - 1)
    keep = partners != src
    low = np.minimum(src[keep], partners[keep])
    high = np.maximum(src[keep], partners[keep])
    social_keys = np.unique(low * np.int64(num_users) + high)
    social_edges = np.stack([social_keys // num_users,
                             social_keys % num_users], axis=1)

    item_ids = np.arange(num_items, dtype=np.int64)
    item_relations = np.stack([item_ids, item_ids % num_relations], axis=1)

    return InteractionDataset(
        num_users=num_users,
        num_items=num_items,
        num_relations=num_relations,
        interactions=interactions,
        social_edges=social_edges,
        item_relations=item_relations,
        name=config.name,
        metadata={"config": config},
    )


def xlarge(seed: int = 0, **overrides) -> InteractionDataset:
    """Memory-scale profile: 1M+ nodes.

    220k users + 800k items + 32 relation nodes = 1,020,032 graph nodes.
    Built with :func:`generate_dataset_chunked`; never used by the
    tier-1 suite.
    """
    config = SyntheticConfig(
        num_users=220_000, num_items=800_000, num_relations=32,
        num_communities=64, mean_interactions=6.0, mean_social_degree=4.0,
        homophily=0.9, seed=seed, name="xlarge")
    return generate_dataset_chunked(
        replace(config, **overrides) if overrides else config)


PRESETS = {
    "ciao-small": ciao_small,
    "epinions-small": epinions_small,
    "yelp-small": yelp_small,
    "medium": medium,
    "large": large,
    "tiny": tiny,
    "xlarge": xlarge,
}
