"""Factor-model Likert generator: population math, sampling, determinism."""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psychoval import (
    FactorModelSpec,
    Rng,
    correlation_matrix,
    derive_seed,
    equal_probability_thresholds,
    generate,
    load_model,
    parse_model,
    population_correlation,
    splitmix64,
    to_csv,
)
from psychoval import simulate
from psychoval.cli import main
from psychoval.core_stats import fmatmul
from psychoval.errors import ConfigError, NotPositiveDefinite, UniquenessNegative
from psychoval.simulate import MAX_CATEGORIES
from psychoval.rng import SPLITMIX_GAMMA
from tests.conftest import ITEMS6, two_block_loadings
from tests.frozen import SIM_CORR_SEED
from tests.oracles import (
    category_probabilities, derive_seed_stepped, expected_item_means, generate_rowwise,
)

MASK = (1 << 64) - 1
# the one seed whose splitmix64 output is zero, so Rng takes ZERO_STATE_SUBSTITUTE
ZERO_STATE_SEED = -SPLITMIX_GAMMA & MASK
SEEDS = st.one_of(st.just(ZERO_STATE_SEED), st.integers(0, MASK))


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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-(1 << 70), 1 << 70), st.integers(0, 300))
    def test_derive_seed_matches_the_stepped_stream(self, seed, index):
        assert derive_seed(seed, index) == derive_seed_stepped(seed, index)

    def test_derive_seed_takes_no_step_per_index(self):
        # the stepped loop would not return for this index
        index = 10**30
        state = (7 + index * SPLITMIX_GAMMA) & MASK
        assert derive_seed(7, index) == splitmix64(state)[1]

    @pytest.mark.parametrize("kind", [np.int64, np.uint64, np.int32])
    def test_numpy_integer_seed_is_the_python_int(self, kind):
        rng = Rng(kind(3))
        assert [rng.next_u64() for _ in range(4)] == reference_stream(3, 4)
        assert list(Rng(kind(3)).normals(5)) == list(Rng(3).normals(5))
        assert derive_seed(kind(3), kind(1)) == derive_seed(3, 1)
        spec = FactorModelSpec(loadings=two_block_loadings(), n=kind(40), seed=kind(3))
        assert (spec.n, spec.seed) == (40, 3)
        expected = generate(FactorModelSpec(loadings=two_block_loadings(), n=40, seed=3))
        assert np.array_equal(generate(spec).values, expected.values)

    @pytest.mark.parametrize("count", [2.5, "3", None])
    def test_non_integer_normal_count_rejected(self, count):
        with pytest.raises(ConfigError, match="^normal count must be an integer, got "):
            Rng(1).normals(count)

    @pytest.mark.parametrize("seed", [1.5, "3", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="^seed must be an integer, got "):
            Rng(seed)
        with pytest.raises(ConfigError, match="^seed must be an integer, got "):
            derive_seed(seed, 0)


def draw(rng: Rng, op) -> list:
    """One call on ``rng``: "u64", "normal", or an int k for normals(k)."""
    if op == "u64":
        return [rng.next_u64()]
    if op == "normal":
        return [rng.normal()]
    return rng.normals(op).tolist()


def draw_scalar(rng: Rng, op) -> list:
    """The same call made one value at a time."""
    if isinstance(op, int):
        return [rng.normal() for _ in range(op)]
    return draw(rng, op)


class TestBatchedStream:
    """normals(k) is k calls of normal(), down to the state and spare it leaves."""

    def test_zero_state_seed_takes_the_substitute(self):
        assert Rng(ZERO_STATE_SEED)._state == 0xD1B54A32D192ED03

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, count=st.integers(0, 20_000), carry_spare=st.booleans())
    def test_batch_equals_sequential(self, seed, count, carry_spare):
        batch, scalar = Rng(seed), Rng(seed)
        if carry_spare:  # one normal() leaves a spare for the batch to start with
            assert batch.normal() == scalar.normal()
        assert batch.normals(count).tolist() == [scalar.normal() for _ in range(count)]
        assert batch._spare == scalar._spare
        assert batch.next_u64() == scalar.next_u64()
        assert batch.normal() == scalar.normal()

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, ops=st.lists(
        st.one_of(st.sampled_from(["u64", "normal"]), st.integers(0, 3000)), max_size=8))
    def test_scalar_and_batch_calls_mix(self, seed, ops):
        batch, scalar = Rng(seed), Rng(seed)
        for op in ops:
            assert draw(batch, op) == draw_scalar(scalar, op)
        assert batch.next_u64() == scalar.next_u64()

    @pytest.mark.parametrize("count", [70_001, 140_000])
    def test_more_than_one_block(self, count):
        # a block holds at most 2^16 draws, so these refill from a carried state
        batch, scalar = Rng(12345), Rng(12345)
        assert batch.normals(count).tolist() == [scalar.normal() for _ in range(count)]
        assert (batch._spare, batch.next_u64()) == (scalar._spare, scalar.next_u64())

    def test_returns_float_array(self):
        out = Rng(3).normals(5)
        assert out.dtype == np.float64 and out.shape == (5,)
        assert Rng(3).normals(0).shape == (0,)

    def test_negative_count_is_a_config_error(self):
        with pytest.raises(ConfigError, match="normal count must be nonnegative"):
            Rng(3).normals(-1)

    def test_negative_stream_index_is_a_config_error(self):
        with pytest.raises(ConfigError, match="stream index must be nonnegative"):
            derive_seed(1, -1)


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


class TestSpecCommunalities:
    @staticmethod
    def oblique_spec(seed: int) -> FactorModelSpec:
        rng = np.random.default_rng(seed)
        phi = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.4], [-0.2, 0.4, 1.0]])
        return FactorModelSpec(loadings=rng.uniform(-0.45, 0.45, (9, 3)), phi=phi, n=10)

    @staticmethod
    def formula(spec: FactorModelSpec) -> np.ndarray:
        return (fmatmul(spec.loadings, spec.phi) * spec.loadings).sum(axis=1)

    @pytest.mark.parametrize("seed", range(3))
    def test_stored_bits_are_the_formula(self, seed):
        spec = self.oblique_spec(seed)
        assert spec.communalities.tobytes() == self.formula(spec).tobytes()

    def test_read_only(self):
        spec = self.oblique_spec(0)
        assert not spec.communalities.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            spec.communalities[0] = 0.0
        with pytest.raises(FrozenInstanceError):
            spec.communalities = np.zeros(spec.p)

    def test_replace_recomputes(self):
        spec = self.oblique_spec(0)
        halved = replace(spec, loadings=spec.loadings / 2)
        assert halved.communalities.tobytes() == self.formula(halved).tobytes()
        assert np.array_equal(halved.communalities, spec.communalities / 4)
        assert not halved.communalities.flags.writeable


class TestSpecValidation:
    def test_zero_respondents_rejected(self):
        with pytest.raises(ConfigError):
            FactorModelSpec(loadings=np.full((3, 1), 0.5), n=0)

    @pytest.mark.parametrize(
        "field, value", [("n", 2.5), ("seed", 1.5), ("n", "5")], ids=["n=2.5", "seed=1.5", "n='5'"]
    )
    def test_non_integer_count_or_seed_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got "):
            FactorModelSpec(loadings=np.full((3, 1), 0.5), **{field: value})

    @pytest.mark.parametrize("loadings", [np.zeros((0, 2)), [0.5, 0.5]], ids=["0x2", "1-d"])
    def test_loadings_must_be_a_nonempty_matrix(self, loadings):
        with pytest.raises(ConfigError, match="^loadings must be a nonempty p x m matrix$"):
            FactorModelSpec(loadings=loadings)

    def test_phi_shape_must_match_factor_count(self):
        with pytest.raises(ConfigError, match="^phi shape does not match the factor count$"):
            FactorModelSpec(loadings=two_block_loadings(), phi=np.eye(3), n=10)

    def test_indefinite_phi_refused_at_its_pivot(self):
        # unit diagonal and symmetric, but no correlation matrix has these entries
        phi = [[1, .9, .9], [.9, 1, -.9], [.9, -.9, 1]]
        with pytest.raises(NotPositiveDefinite,
                           match=r"^pivot -1\.520e\+01 at row 2 during Cholesky$"):
            FactorModelSpec(loadings=np.full((3, 3), 0.1), phi=phi, n=10)

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

    def test_one_threshold_row_per_item(self):
        with pytest.raises(ConfigError, match="^need one threshold row per item$"):
            FactorModelSpec(loadings=np.full((3, 1), 0.5), n=10,
                            likert_min=1, likert_max=3,
                            thresholds=((-0.5, 0.5), (-0.5, 0.5)))

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


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("position", [0, 1])
    def test_non_finite_shared_threshold_rejected(self, value, position):
        cuts = ["-0.5", "0.5"]
        cuts[position] = value
        text = ("n: 200\nlikert: 1:3\nloadings:\n  0.6\n  0.5\n  0.7\n"
                f"thresholds:\n  {' '.join(cuts)}\n")
        with pytest.raises(ConfigError, match="thresholds must be finite"):
            parse_model(text)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_per_item_threshold_rejected(self, value):
        rows = [(-0.5, 0.5), (-0.5, value), (-0.2, 0.4)]
        with pytest.raises(ConfigError, match="^item 1: thresholds must be finite$"):
            FactorModelSpec(loadings=np.full((3, 1), 0.5), n=10,
                            likert_min=1, likert_max=3, thresholds=rows)

    @pytest.mark.parametrize("rows, likert_max, item", [
        ([(-0.5, 0.5), 5, (-0.2, 0.4)], 3, 1),
        ([[[-0.5]], [[0.1]], [[0.2]]], 2, 0),
    ])
    def test_per_item_row_must_be_one_dimensional(self, rows, likert_max, item):
        with pytest.raises(ConfigError,
                           match=f"^item {item}: thresholds must be a row of cut points$"):
            FactorModelSpec(loadings=np.full((3, 1), 0.5), n=10,
                            likert_min=1, likert_max=likert_max, thresholds=rows)

    def test_zero_dimensional_array_is_not_a_row(self):
        with pytest.raises(ConfigError, match="^thresholds must be a sequence of cut points"):
            FactorModelSpec(loadings=np.full((3, 1), 0.5), n=10,
                            likert_min=1, likert_max=3, thresholds=np.array(0.5))

    def test_zero_dimensional_cut_points_form_a_shared_row(self):
        spec = FactorModelSpec(loadings=np.full((3, 1), 0.5), n=10, likert_min=1,
                               likert_max=3, thresholds=[np.array(-0.5), np.array(0.5)])
        assert spec.thresholds == ((-0.5, 0.5),) * 3

    def test_per_item_rows_in_model_file(self):
        text = ("n: 20\nlikert: 1:3\nloadings:\n  0.6\n  0.5\n"
                "thresholds:\n  -0.5 0.5\n  nan 0.5\n")
        with pytest.raises(ConfigError, match="^item 1: thresholds must be finite$"):
            parse_model(text)


class TestCategoryCap:
    """A model spans at most MAX_CATEGORIES Likert categories."""

    def test_cap_is_accepted(self):
        spec = FactorModelSpec(loadings=np.full((3, 1), 0.5), likert_min=1,
                               likert_max=MAX_CATEGORIES)
        assert len(spec.thresholds[0]) == MAX_CATEGORIES - 1

    def test_beyond_cap_is_refused_before_any_cut(self, monkeypatch):
        def no_cuts(*args):
            raise AssertionError("cut points built")

        monkeypatch.setattr(simulate, "equal_probability_thresholds", no_cuts)
        for hi in (MAX_CATEGORIES + 1, 10**8):
            with pytest.raises(ConfigError, match=rf"^likert bounds 1:{hi} span {hi} "
                               rf"categories, the simulator takes at most 1000$"):
                FactorModelSpec(loadings=np.full((3, 1), 0.5), likert_min=1, likert_max=hi)

    def test_thresholds_take_the_same_cap(self):
        assert len(simulate.equal_probability_thresholds(1, MAX_CATEGORIES)) == 999
        with pytest.raises(ConfigError, match=rf"^likert bounds 1:{MAX_CATEGORIES + 1} span "
                           rf"{MAX_CATEGORIES + 1} categories, the simulator takes at most 1000$"):
            simulate.equal_probability_thresholds(1, MAX_CATEGORIES + 1)

    def test_beyond_cap_in_model_file(self):
        with pytest.raises(ConfigError, match="span 1001 categories"):
            parse_model("n: 5\nlikert: 1:1001\nloadings:\n  0.5\n  0.5\n  0.5\n")

    def test_beyond_cap_on_the_command_line(self, tmp_path, capsys):
        model = tmp_path / "wide.txt"
        model.write_text("n: 5\nlikert: 1:1001\nloadings:\n  0.5\n  0.5\n  0.5\n")
        assert main(["simulate", "--spec", str(model)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "ConfigError: likert bounds 1:1001 span 1001 categories, "
            "the simulator takes at most 1000"
        ]


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


def oblique_spec(**overrides) -> FactorModelSpec:
    """Three correlated factors, seven items (m + p = 10), 5-point scale."""
    loadings = np.array([[0.7, 0.0, 0.0], [0.6, 0.2, 0.0], [0.0, 0.8, 0.0],
                         [0.0, 0.5, 0.3], [0.0, 0.0, 0.75], [0.3, 0.0, 0.5],
                         [0.0, 0.0, 0.0]])
    phi = np.array([[1.0, 0.4, -0.2], [0.4, 1.0, 0.3], [-0.2, 0.3, 1.0]])
    args = dict(loadings=loadings, phi=phi, likert_min=1, likert_max=5, n=300)
    return FactorModelSpec(**{**args, **overrides})


GENERATE_CASES = {
    "oblique": lambda seed: oblique_spec(seed=seed),
    "per-item-thresholds": lambda seed: oblique_spec(
        seed=seed, likert_min=0, likert_max=2,
        thresholds=tuple((-1.0 + 0.1 * j, 0.2 * j) for j in range(7))),
    "one-factor-odd-stream": lambda seed: FactorModelSpec(
        loadings=np.full((4, 1), 0.6), likert_min=1, likert_max=3, n=251, seed=seed),
    "one-respondent": lambda seed: oblique_spec(seed=seed, n=1),
    "seven-point": lambda seed: FactorModelSpec(
        loadings=two_block_loadings(0.7, p=5), likert_min=1, likert_max=7, n=401,
        seed=seed),
    "four-point": lambda seed: oblique_spec(seed=seed, likert_max=4, n=97),
    "six-point": lambda seed: oblique_spec(seed=seed, likert_max=6, n=97),
}


class TestGenerateMatchesRowwise:
    """Batched generate gives the cells of the one-respondent-at-a-time loop."""

    @pytest.mark.parametrize("seed", [0, 1, 11, 2**63, ZERO_STATE_SEED])
    @pytest.mark.parametrize("case", sorted(GENERATE_CASES))
    def test_same_cells(self, case, seed):
        spec = GENERATE_CASES[case](seed)
        assert np.array_equal(generate(spec).values, generate_rowwise(spec))

    @pytest.mark.parametrize("model", ["demo_model.txt", "noise_model.txt"])
    def test_fixture_models_at_block_scale(self, data_dir, model):
        spec = load_model(data_dir / model, n=3000, seed=9)
        assert np.array_equal(generate(spec).values, generate_rowwise(spec))


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

    def test_non_integer_n_in_file(self):
        with pytest.raises(ConfigError, match="^n must be an integer, got 'x'$"):
            parse_model("n: x\nloadings:\n  0.5\n  0.5\n  0.5\n")

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
