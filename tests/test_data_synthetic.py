"""Tests for the synthetic benchmark generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import (
    PRESETS,
    SyntheticConfig,
    ciao_small,
    dataset_statistics,
    epinions_small,
    generate_dataset,
    medium,
    tiny,
    yelp_small,
)
from repro.data import synthetic


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        a = tiny(seed=3)
        b = tiny(seed=3)
        np.testing.assert_array_equal(a.interactions, b.interactions)
        np.testing.assert_array_equal(a.social_edges, b.social_edges)
        np.testing.assert_array_equal(a.item_relations, b.item_relations)

    def test_different_seed_differs(self):
        a = tiny(seed=0)
        b = tiny(seed=1)
        assert not np.array_equal(a.interactions, b.interactions)


class TestConfigValidation:
    def test_bad_homophily(self):
        with pytest.raises(ValueError):
            generate_dataset(SyntheticConfig(homophily=1.5))

    def test_bad_noise(self):
        with pytest.raises(ValueError):
            generate_dataset(SyntheticConfig(interaction_noise=-0.1))

    def test_min_interactions_floor(self):
        with pytest.raises(ValueError):
            generate_dataset(SyntheticConfig(min_interactions=1))

    def test_too_many_communities(self):
        with pytest.raises(ValueError):
            generate_dataset(SyntheticConfig(num_communities=100, num_relations=2))

    @pytest.mark.parametrize("field", ["num_users", "num_relations",
                                       "num_communities"])
    def test_non_positive_sizes_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            generate_dataset(SyntheticConfig(**{field: 0}))

    @pytest.mark.parametrize("num_items, min_interactions", [(3, 5), (1, 3)])
    def test_too_few_items_for_the_interaction_floor(self, num_items,
                                                     min_interactions):
        # Budgets are capped at num_items - 1 distinct items per user.
        with pytest.raises(ValueError, match="num_items must be >= min_interactions"):
            generate_dataset(SyntheticConfig(num_items=num_items,
                                             min_interactions=min_interactions))

    def test_smallest_item_pool_for_the_floor_is_accepted(self):
        config = SyntheticConfig(num_items=4, min_interactions=3)
        ds = generate_dataset(config)
        assert ds.user_degrees().min() >= config.min_interactions


class TestGeneratedStructure:
    def test_every_user_has_min_interactions(self):
        ds = tiny(seed=0)
        degrees = ds.user_degrees()
        config = ds.metadata["config"]
        assert degrees.min() >= config.min_interactions

    def test_every_item_has_primary_category(self):
        ds = tiny(seed=0)
        items_with_relation = set(ds.item_relations[:, 0])
        assert items_with_relation == set(range(ds.num_items))

    def test_social_homophily_dominates(self):
        # With homophily 0.9 most ties should be intra-community.
        ds = tiny(seed=0)
        communities = ds.metadata["communities"]
        same = (communities[ds.social_edges[:, 0]]
                == communities[ds.social_edges[:, 1]])
        assert same.mean() > 0.6

    def test_interactions_align_with_affinity(self):
        # Users should interact with their community's favourite categories
        # far more often than uniform chance would predict.
        ds = tiny(seed=0)
        communities = ds.metadata["communities"]
        categories = ds.metadata["categories"]
        pairs = ds.interactions
        counts = np.zeros((communities.max() + 1, categories.max() + 1))
        for user, item in pairs:
            counts[communities[user], categories[item]] += 1
        top_share = (counts.max(axis=1) / np.maximum(counts.sum(axis=1), 1)).mean()
        # personal taste (personal_weight) dilutes but must not erase the
        # community signal: top-category share stays above 1.5x uniform
        assert top_share > 1.5 / (categories.max() + 1)

    def test_popularity_is_heavy_tailed(self):
        ds = ciao_small(seed=0)
        counts = np.sort(np.bincount(ds.interactions[:, 1],
                                     minlength=ds.num_items))[::-1]
        top_decile = counts[: ds.num_items // 10].sum()
        assert top_decile > 0.3 * counts.sum()


class TestPresets:
    def test_all_presets_construct(self):
        for name, factory in PRESETS.items():
            ds = factory(seed=0)
            assert ds.name == name if name != "tiny" else True
            if name == "xlarge":
                # The memory-scale preset's point: a 1M+ node graph.
                nodes = ds.num_users + ds.num_items + ds.num_relations
                assert nodes >= 1_000_000

    def test_density_orderings_match_table1(self):
        # Ciao is densest in interactions and social ties, Yelp sparsest.
        stats = {name: dataset_statistics(factory(seed=0))
                 for name, factory in (("ciao", ciao_small),
                                       ("epinions", epinions_small),
                                       ("yelp", yelp_small))}
        assert (stats["ciao"]["interaction_density_pct"]
                > stats["epinions"]["interaction_density_pct"]
                > stats["yelp"]["interaction_density_pct"])
        assert (stats["ciao"]["social_density_pct"]
                > stats["epinions"]["social_density_pct"]
                > stats["yelp"]["social_density_pct"])

    def test_overrides_forwarded(self):
        ds = tiny(seed=0, num_users=30)
        assert ds.num_users == 30


class TestPropertyBased:
    @settings(max_examples=10, deadline=None)
    @given(
        num_users=st.integers(20, 60),
        num_items=st.integers(50, 150),
        homophily=st.floats(0.0, 1.0),
        seed=st.integers(0, 100),
    )
    def test_generator_always_produces_valid_dataset(self, num_users, num_items,
                                                     homophily, seed):
        config = SyntheticConfig(
            num_users=num_users, num_items=num_items, num_relations=5,
            num_communities=3, mean_interactions=5.0, homophily=homophily,
            seed=seed, name="prop")
        ds = generate_dataset(config)
        # invariants the rest of the stack relies on
        assert ds.interactions[:, 0].max() < num_users
        assert ds.interactions[:, 1].max() < num_items
        assert ds.user_degrees().min() >= config.min_interactions
        if len(ds.social_edges):
            assert (ds.social_edges[:, 0] != ds.social_edges[:, 1]).all()


def _choice_oracle(rng, weights, cdf, size):
    """The per-user draw the generator made before its sampling tables."""
    return rng.choice(len(weights), size=size, replace=False, p=weights)


class _CountingRng:
    """Forwards ``random`` to a generator and counts the calls (draw rounds)."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def random(self, size):
        self.calls += 1
        return self.rng.random(size)


class TestDrawWithoutReplacement:
    @staticmethod
    def _table(weights):
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        return cdf

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 17, 7919])
    @pytest.mark.parametrize("n, k", [(12, 1), (12, 5), (300, 40), (50, 49)])
    def test_equals_generator_choice(self, seed, n, k):
        weights = np.random.default_rng(1000 + seed).random(n) + 0.01
        weights /= weights.sum()
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        got = synthetic._draw_without_replacement(a, weights, self._table(weights), k)
        want = b.choice(n, size=k, replace=False, p=weights)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert a.random() == b.random()

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_skewed_weights_need_many_rounds(self, seed):
        # Geometric weights: a few items carry nearly all the mass, so
        # collisions keep forcing redraws, up to k = n - 1.
        n = 40
        weights = 0.5 ** np.arange(n, dtype=np.float64)
        weights /= weights.sum()
        a = _CountingRng(np.random.default_rng(seed))
        b = np.random.default_rng(seed)
        got = synthetic._draw_without_replacement(a, weights, self._table(weights),
                                                  n - 1)
        want = b.choice(n, size=n - 1, replace=False, p=weights)
        np.testing.assert_array_equal(got, want)
        assert a.calls > 3
        assert a.rng.random() == b.random()


def _assert_same_dataset(a, b):
    for name in ("interactions", "social_edges", "item_relations"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


class TestSamplingTablesMatchChoice:
    """The cached-table generator reproduces the per-user ``choice`` one bitwise."""

    @pytest.mark.parametrize("seed", [0, 7919])
    @pytest.mark.parametrize("preset", ["tiny", "ciao-small", "epinions-small",
                                        "yelp-small", "medium", "large"])
    def test_presets(self, monkeypatch, preset, seed):
        factory = PRESETS[preset]
        fast = factory(seed=seed)
        monkeypatch.setattr(synthetic, "_draw_without_replacement", _choice_oracle)
        _assert_same_dataset(fast, factory(seed=seed))

    @pytest.mark.parametrize("seed", [0, 7919])
    @pytest.mark.parametrize("overrides", [
        {"num_taste_groups": 3},
        {"personal_weight": 0.3},
        {"interaction_noise": 0.0},
        {"social_adoption": 0.0},
    ], ids=lambda o: next(iter(o)))
    def test_config_variants(self, monkeypatch, overrides, seed):
        fast = medium(seed=seed, **overrides)
        monkeypatch.setattr(synthetic, "_draw_without_replacement", _choice_oracle)
        _assert_same_dataset(fast, medium(seed=seed, **overrides))
