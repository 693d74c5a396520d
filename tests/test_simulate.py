"""Factor-model Likert generator: population math, sampling, determinism."""

from __future__ import annotations

import math

import numpy as np
import pytest

from psychoval import (
    FactorModelSpec,
    Rng,
    category_probabilities,
    correlation_matrix,
    derive_seed,
    equal_probability_thresholds,
    expected_item_means,
    generate,
    load_model,
    parse_model,
    population_correlation,
    splitmix64,
    to_csv,
)
from psychoval.errors import ConfigError, UniquenessNegative
from tests.conftest import ITEMS6, two_block_loadings
from tests.frozen import SIM_CORR_SEED

MASK = (1 << 64) - 1


def reference_stream(seed: int, count: int) -> list[int]:
    """Independent transcription of the published recurrences."""
    state = (seed + 0x9E3779B97F4A7C15) & MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    x = z ^ (z >> 31)
    if x == 0:
        x = 0xD1B54A32D192ED03
    out = []
    for _ in range(count):
        x ^= x >> 12
        x = (x ^ (x << 25)) & MASK
        x ^= x >> 27
        out.append((x * 0x2545F4914F6CDD1D) & MASK)
    return out


class TestRng:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**63, MASK])
    def test_stream_matches_reference_recurrence(self, seed):
        rng = Rng(seed)
        assert [rng.next_u64() for _ in range(8)] == reference_stream(seed, 8)

    def test_frozen_regression_values(self):
        # guards against accidental edits to the mixing constants
        assert reference_stream(0, 2) == [
            8916199331640804048, 16032783972208265725,
        ]
        assert Rng(0).next_u64() == 8916199331640804048

    def test_uniform_in_unit_interval(self):
        rng = Rng(9)
        for _ in range(1000):
            u = rng.uniform()
            assert 0.0 <= u < 1.0

    def test_normal_moments(self):
        rng = Rng(11)
        draws = rng.normals(50_000)
        assert abs(float(np.mean(draws))) < 0.02
        assert abs(float(np.var(draws)) - 1.0) < 0.05

    def test_normals_single_stream(self):
        # normals(k) must equal k successive normal() calls (shared spare)
        a = Rng(5)
        expected = [a.normal() for _ in range(7)]
        assert list(Rng(5).normals(7)) == expected

    def test_splitmix_advances_state(self):
        s1, out1 = splitmix64(0)
        s2, out2 = splitmix64(s1)
        assert s1 != 0 and s2 != s1
        assert out1 != out2

    def test_derive_seed_streams_are_distinct(self):
        children = [derive_seed(123, i) for i in range(6)]
        assert len(set(children)) == 6
        assert derive_seed(123, 2) == children[2]


class TestPopulationCorrelation:
    def test_zero_loadings_give_identity(self):
        spec = FactorModelSpec(loadings=np.zeros((4, 1)), n=10)
        assert np.array_equal(population_correlation(spec).values, np.eye(4))

    def test_single_factor_off_diagonal(self):
        spec = FactorModelSpec(loadings=np.full((3, 1), 0.8), n=10)
        R = population_correlation(spec).values
        off = R[~np.eye(3, dtype=bool)]
        assert off == pytest.approx([0.64] * 6, abs=1e-15)

    def test_cross_block_through_phi(self):
        phi = np.array([[1.0, 0.5], [0.5, 1.0]])
        spec = FactorModelSpec(loadings=two_block_loadings(), phi=phi, n=10)
        R = population_correlation(spec).values
        assert R[0, 3] == pytest.approx(0.8 * 0.5 * 0.8, abs=1e-15)
        assert R[0, 1] == pytest.approx(0.64, abs=1e-15)
        assert np.all(np.diag(R) == 1.0)


class TestSpecValidation:
    def test_zero_respondents_rejected(self):
        with pytest.raises(ConfigError):
            FactorModelSpec(loadings=np.full((3, 1), 0.5), n=0)

    def test_communality_above_one_names_item(self):
        L = np.array([[0.9, 0.9], [0.5, 0.0], [0.5, 0.0]])
        with pytest.raises(UniquenessNegative) as exc_info:
            FactorModelSpec(loadings=L, n=10, items=("bad", "ok1", "ok2"))
        assert "bad" in str(exc_info.value)

    def test_asymmetric_phi_rejected(self):
        phi = np.array([[1.0, 0.5], [0.3, 1.0]])
        with pytest.raises(ConfigError):
            FactorModelSpec(loadings=two_block_loadings(), phi=phi, n=10)

    def test_phi_diagonal_must_be_unit(self):
        phi = np.array([[2.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ConfigError):
            FactorModelSpec(loadings=two_block_loadings(), phi=phi, n=10)

    def test_bad_likert_bounds(self):
        with pytest.raises(ConfigError):
            FactorModelSpec(loadings=np.full((3, 1), 0.5), n=10,
                            likert_min=5, likert_max=5)

    def test_threshold_count_must_match_categories(self):
        with pytest.raises(ConfigError):
            FactorModelSpec(loadings=np.full((3, 1), 0.5), n=10,
                            likert_min=1, likert_max=7,
                            thresholds=(0.0, 1.0))  # needs 6 cut points

    def test_thresholds_must_ascend(self):
        with pytest.raises(ConfigError):
            FactorModelSpec(loadings=np.full((3, 1), 0.5), n=10,
                            likert_min=1, likert_max=3,
                            thresholds=(0.5, -0.5))

    def test_item_count_must_match_loadings(self):
        with pytest.raises(ConfigError):
            FactorModelSpec(loadings=np.full((3, 1), 0.5), n=10,
                            items=("A", "B"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("block", ["loadings", "phi"])
    def test_non_finite_entry_rejected(self, block, value):
        loadings = "  0.6 0.2\n  0.1 0.5\n"
        phi = "  1 0.3\n  0.3 1\n"
        if block == "loadings":
            loadings = loadings.replace("0.6", value)
        else:
            phi = phi.replace("0.3", value)
        text = f"n: 5\nloadings:\n{loadings}phi:\n{phi}"
        with pytest.raises(ConfigError, match=f"{block} must be finite"):
            parse_model(text)


class TestThresholds:
    def test_equal_probability_cuts_are_symmetric_quantiles(self):
        cuts = equal_probability_thresholds(1, 7)
        assert len(cuts) == 6
        assert cuts == pytest.approx([-c for c in reversed(cuts)], abs=1e-9)
        # Phi(cut_1) = 1/7
        assert 0.5 * (1 + math.erf(cuts[0] / math.sqrt(2))) == pytest.approx(
            1 / 7, abs=1e-9
        )

    def test_category_probabilities_sum_to_one(self):
        spec = FactorModelSpec(loadings=np.full((2, 1), 0.6), n=5)
        probs = category_probabilities(spec)
        assert np.asarray(probs).shape == (2, 7)
        assert np.asarray(probs).sum(axis=1) == pytest.approx([1.0, 1.0],
                                                              abs=1e-9)

    def test_expected_means_are_centered_for_symmetric_cuts(self):
        spec = FactorModelSpec(loadings=np.full((2, 1), 0.6), n=5)
        assert expected_item_means(spec) == pytest.approx([4.0, 4.0], abs=1e-9)


class TestGenerate:
    def test_deterministic_byte_identical(self):
        spec = FactorModelSpec(loadings=two_block_loadings(), n=50, seed=3,
                               items=ITEMS6)
        a = to_csv(generate(spec))
        b = to_csv(generate(spec))
        assert a == b

    def test_different_seeds_differ(self):
        base = dict(loadings=two_block_loadings(), n=50, items=ITEMS6)
        a = generate(FactorModelSpec(seed=1, **base))
        b = generate(FactorModelSpec(seed=2, **base))
        assert not np.array_equal(a.values, b.values)

    def test_values_are_integers_within_bounds(self):
        spec = FactorModelSpec(loadings=two_block_loadings(), n=200, seed=8,
                               items=ITEMS6, likert_min=1, likert_max=7)
        ds = generate(spec)
        assert ds.values.min() >= 1 and ds.values.max() <= 7
        assert np.array_equal(ds.values, np.round(ds.values))

    def test_respondent_ids_are_zero_padded(self):
        spec = FactorModelSpec(loadings=np.full((2, 1), 0.5), n=12, seed=1)
        ds = generate(spec)
        assert ds.respondents[0] == "r01"
        assert ds.respondents[-1] == "r12"

    def test_sample_correlations_near_population(self):
        spec = FactorModelSpec(loadings=two_block_loadings(), n=5000,
                               seed=SIM_CORR_SEED, items=ITEMS6)
        pop = population_correlation(spec).values
        R = correlation_matrix(generate(spec).values, list(ITEMS6)).values
        assert np.max(np.abs(R - pop)) < 0.06

    def test_item_means_near_expectation(self):
        spec = FactorModelSpec(loadings=two_block_loadings(), n=10_000,
                               seed=123, items=ITEMS6)
        ds = generate(spec)
        expected = expected_item_means(spec)
        assert np.max(np.abs(ds.values.mean(axis=0) - expected)) < 0.1

    def test_category_frequencies_near_uniform(self):
        # equal-probability default cuts: each of 7 categories ~ 1/7
        spec = FactorModelSpec(loadings=np.zeros((2, 1)), n=20_000, seed=5)
        values = generate(spec).values
        for cat in range(1, 8):
            share = float(np.mean(values == cat))
            assert abs(share - 1 / 7) < 0.01

    def test_skewed_thresholds_shift_the_distribution(self):
        base = dict(loadings=np.zeros((1, 1)), n=4000, seed=6,
                    likert_min=1, likert_max=3)
        neutral = generate(FactorModelSpec(thresholds=(-0.43, 0.43), **base))
        skewed = generate(FactorModelSpec(thresholds=(1.0, 2.0), **base))
        assert skewed.values.mean() < neutral.values.mean()


class TestModelFiles:
    def test_demo_fixture_round_trip(self, data_dir):
        spec = load_model(data_dir / "demo_model.txt")
        assert spec.n == 300 and spec.seed == 42
        assert spec.items == ITEMS6
        assert spec.likert_min == 1 and spec.likert_max == 7
        assert np.array_equal(np.asarray(spec.loadings), two_block_loadings())

    def test_overrides_win(self, data_dir):
        spec = load_model(data_dir / "demo_model.txt", n=77, seed=9)
        assert spec.n == 77 and spec.seed == 9

    def test_phi_block(self):
        spec = parse_model(
            "n: 10\nloadings:\n 0.8 0.0\n 0.0 0.8\n 0.7 0.0\n 0.0 0.7\n"
            "phi:\n 1.0 0.4\n 0.4 1.0\n"
        )
        assert np.asarray(spec.phi)[0, 1] == 0.4

    def test_missing_loadings_block(self):
        with pytest.raises(ConfigError):
            parse_model("n: 10\nseed: 1\n")

    def test_missing_n_everywhere(self):
        with pytest.raises(ConfigError):
            parse_model("loadings:\n 0.5\n 0.5\n 0.5\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_model("n: 10\nbogus: 3\nloadings:\n 0.5\n")

    def test_bad_number_in_block(self):
        with pytest.raises(ConfigError):
            parse_model("n: 10\nloadings:\n 0.5 oops\n")

    def test_ragged_block(self):
        with pytest.raises(ConfigError):
            parse_model("n: 10\nloadings:\n 0.5 0.1\n 0.5\n")

    def test_inline_value_on_block_key(self):
        with pytest.raises(ConfigError):
            parse_model("n: 10\nloadings: 0.5\n")

    def test_bad_likert_syntax(self):
        with pytest.raises(ConfigError):
            parse_model("n: 10\nlikert: 17\nloadings:\n 0.5\n")

    def test_comments_and_blanks_ignored(self):
        spec = parse_model("# comment\n\nn: 10\nloadings:\n 0.5\n 0.5\n 0.5\n")
        assert spec.n == 10 and np.asarray(spec.loadings).shape == (3, 1)
