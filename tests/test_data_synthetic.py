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
    tiny,
    yelp_small,
)


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
