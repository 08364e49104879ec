"""Page-sketch construction: shapes, determinism, estimator sanity, and
the configuration surface (``PrefilterConfig`` / ``resolve_prefilter``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.join import IndexedDataset
from repro.datasets import markov_dna
from repro.sketch.config import PrefilterConfig, resolve_prefilter
from repro.sketch.signatures import (
    PageSketches,
    build_sketches,
    sketch_params_fingerprint,
)


@pytest.fixture
def vector_dataset(rng):
    return IndexedDataset.from_points(rng.random((200, 6)), page_capacity=16)


@pytest.fixture
def series_dataset():
    rng = np.random.default_rng(3)
    walk = np.cumsum(rng.normal(size=800))
    return IndexedDataset.from_time_series(
        walk, window_length=32, windows_per_page=32
    )


@pytest.fixture
def text_dataset():
    return IndexedDataset.from_string(
        markov_dna(2000, seed=11), window_length=12, windows_per_page=32
    )


class TestQuantileSketches:
    def test_shapes_and_kind(self, vector_dataset):
        config = PrefilterConfig(num_hashes=5, num_quantiles=9)
        sketches = build_sketches(vector_dataset, config)
        assert sketches.kind == "quantile"
        assert sketches.signatures.shape == (vector_dataset.num_pages, 5, 9)
        assert sketches.signatures.dtype == np.float64
        assert sketches.counts.sum() == vector_dataset.num_objects

    def test_quantiles_monotone_per_projection(self, vector_dataset):
        sketches = build_sketches(vector_dataset, PrefilterConfig())
        diffs = np.diff(sketches.signatures, axis=2)
        assert (diffs >= 0).all()

    def test_deterministic_across_builds(self, vector_dataset):
        a = build_sketches(vector_dataset, PrefilterConfig())
        b = build_sketches(vector_dataset, PrefilterConfig())
        np.testing.assert_array_equal(a.signatures, b.signatures)

    def test_seed_changes_directions(self, vector_dataset):
        a = build_sketches(vector_dataset, PrefilterConfig(seed=1))
        b = build_sketches(vector_dataset, PrefilterConfig(seed=2))
        assert not np.array_equal(a.signatures, b.signatures)

    def test_series_windows_sketched_in_paa_domain(self, series_dataset):
        config = PrefilterConfig(paa_segments=8)
        sketches = build_sketches(series_dataset, config)
        assert sketches.kind == "quantile"
        assert sketches.num_pages == series_dataset.num_pages
        assert sketches.counts.sum() == series_dataset.paged.num_windows


class TestMinhashSketches:
    def test_shapes_and_kind(self, text_dataset):
        config = PrefilterConfig(minhash_hashes=12)
        sketches = build_sketches(text_dataset, config)
        assert sketches.kind == "minhash"
        assert sketches.signatures.shape == (text_dataset.num_pages, 12)
        assert sketches.signatures.dtype == np.uint64

    def test_identical_pages_collide_fully(self):
        # A page-aligned repetition makes two pages' gram sets equal, so
        # every minhash component must agree (Jaccard estimate 1.0).
        block = markov_dna(256, seed=2)
        dataset = IndexedDataset.from_string(
            block + block, window_length=12, windows_per_page=32
        )
        sketches = build_sketches(dataset, PrefilterConfig())
        period_pages = len(block) // 32  # repetition period in pages
        assert dataset.num_pages > period_pages
        np.testing.assert_array_equal(
            sketches.signatures[0], sketches.signatures[period_pages]
        )

    def test_unrelated_sequences_rarely_collide(self):
        a = IndexedDataset.from_string(
            markov_dna(1500, seed=5), window_length=12, windows_per_page=32
        )
        b = IndexedDataset.from_string(
            markov_dna(1500, seed=99), window_length=12, windows_per_page=32
        )
        sk_a = build_sketches(a, PrefilterConfig())
        sk_b = build_sketches(b, PrefilterConfig())
        agreement = (sk_a.signatures[0] == sk_b.signatures[0]).mean()
        assert agreement < 0.5


class TestParamsFingerprint:
    def test_stable(self, vector_dataset):
        config = PrefilterConfig()
        assert sketch_params_fingerprint(
            vector_dataset, config
        ) == sketch_params_fingerprint(vector_dataset, config)

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 8},
            {"num_hashes": 9},
            {"num_quantiles": 13},
        ],
    )
    def test_sensitive_to_quantile_params(self, vector_dataset, override):
        base = sketch_params_fingerprint(vector_dataset, PrefilterConfig())
        other = sketch_params_fingerprint(
            vector_dataset, PrefilterConfig(**override)
        )
        assert base != other

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 8},
            {"minhash_hashes": 24},
            {"ngram_length": 6},
        ],
    )
    def test_sensitive_to_minhash_params(self, text_dataset, override):
        base = sketch_params_fingerprint(text_dataset, PrefilterConfig())
        other = sketch_params_fingerprint(
            text_dataset, PrefilterConfig(**override)
        )
        assert base != other

    def test_mode_and_calibration_do_not_change_key(self, vector_dataset):
        # Calibration knobs (recall target, margin, floor) do not affect
        # the signatures, so they must share one cache entry.
        base = sketch_params_fingerprint(vector_dataset, PrefilterConfig())
        same = sketch_params_fingerprint(
            vector_dataset,
            PrefilterConfig(recall_target=0.5, margin=0.1, cell_pair_floor=2.0),
        )
        assert base == same


class TestPrefilterConfig:
    def test_defaults(self):
        config = PrefilterConfig()
        assert config.recall_target == 0.99
        assert config.margin == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"recall_target": float("nan")},
            {"recall_target": 0.0},
            {"recall_target": 1.5},
            {"margin": 0.0},
            {"margin": 2.0},
            {"cell_pair_floor": -1.0},
            {"num_hashes": 0},
            {"num_quantiles": 0},
            {"paa_segments": 0},
            {"minhash_hashes": 0},
            {"ngram_length": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PrefilterConfig(**kwargs)

    def test_resolve(self):
        assert resolve_prefilter(None) is None
        assert resolve_prefilter("approximate") == PrefilterConfig()
        with pytest.raises(ValueError):
            resolve_prefilter("exact")
        config = PrefilterConfig(recall_target=0.95)
        assert resolve_prefilter(config) is config
        with pytest.raises(ValueError):
            resolve_prefilter("fuzzy")
        with pytest.raises(TypeError):
            resolve_prefilter(0.99)
