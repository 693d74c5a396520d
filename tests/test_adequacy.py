"""Sphericity gate, sampling adequacy, and MSA-driven item pruning."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from psychoval import (
    FactorModelSpec,
    PipelineConfig,
    SurveyDataset,
    SymMatrix,
    bartlett_sphericity,
    complete_cases,
    correlation_matrix,
    generate,
    kmo,
    load_csv,
    msa_prune,
    run_validation,
    sample_adequacy_advice,
)
from psychoval.adequacy import sphericity_gate
from psychoval.errors import DomainError, NotPositiveDefinite, SampleTooSmall, TooFewItems
from tests import oracles
from tests.frozen import PRUNE_SEED


def equicorrelated(p: int, r: float) -> np.ndarray:
    R = np.full((p, p), r)
    np.fill_diagonal(R, 1.0)
    return R


def prune_fixture_view():
    """Two 3-item blocks at loading 0.8 plus one pure-noise item G."""
    L = np.zeros((7, 2))
    L[:3, 0] = 0.8
    L[3:6, 1] = 0.8
    spec = FactorModelSpec(loadings=L, n=400, seed=PRUNE_SEED,
                           items=tuple("ABCDEFG"))
    return complete_cases(generate(spec), "listwise")


class TestBartlett:
    @pytest.mark.parametrize("p", [math.nan, -0.1, 1.5])
    def test_gate_refuses_p_outside_unit_interval(self, p):
        with pytest.raises(DomainError, match=r"^p-value .+ outside \[0, 1\]$"):
            sphericity_gate(p, 0.05)

    def test_identity_matrix(self):
        chi2, df, p = bartlett_sphericity(SymMatrix(np.eye(4)), 100)
        assert chi2 == 0.0
        assert df == 6
        assert p == 1.0

    def test_hand_value_p2(self):
        # p=2, r=0.5, n=101: -(100 - 9/6) ln(0.75) = 28.3367, df=1
        R = SymMatrix(equicorrelated(2, 0.5))
        chi2, df, p = bartlett_sphericity(R, 101)
        assert chi2 == pytest.approx(28.3367, abs=0.01)
        assert chi2 == pytest.approx(-98.5 * math.log(0.75), abs=1e-10)
        assert df == 1
        assert p == pytest.approx(oracles.chi2_sf_quadrature(chi2, 1), abs=1e-6)

    def test_near_singular_is_overwhelming(self):
        _, _, p = bartlett_sphericity(SymMatrix(equicorrelated(3, 0.999)), 50)
        assert p < 1e-10

    def test_p_decreases_with_correlation(self):
        ps = [bartlett_sphericity(SymMatrix(equicorrelated(4, r)), 80)[2]
              for r in (0.1, 0.3, 0.5)]
        assert ps[0] > ps[1] > ps[2]

    def test_sample_too_small(self):
        with pytest.raises(SampleTooSmall):
            bartlett_sphericity(SymMatrix(equicorrelated(4, 0.3)), 4)

    def test_one_item_is_too_few(self):
        with pytest.raises(TooFewItems, match="^bartlett needs >= 2 items, got 1$"):
            bartlett_sphericity(SymMatrix(np.eye(1)), 100)


class TestKmo:
    def test_equicorrelated_closed_form(self):
        # p=3, r=0.5: every partial correlation is -1/3, so
        # KMO = (6 * 0.25) / (6 * 0.25 + 6 * (1/9)) = 9/13
        overall, msa = kmo(SymMatrix(equicorrelated(3, 0.5)), ["A", "B", "C"])
        assert overall == pytest.approx(9 / 13, abs=1e-9)
        for v in msa.values():
            assert v == pytest.approx(9 / 13, abs=1e-9)

    @pytest.mark.parametrize("seed,p", [(1, 3), (2, 4), (3, 4)])
    def test_matches_cofactor_oracle(self, seed, p):
        rng = np.random.default_rng(seed)
        M = rng.uniform(-1.0, 1.0, size=(p, p + 2))
        cov = M @ M.T + 0.5 * np.eye(p)
        sd = np.sqrt(np.diag(cov))
        R = cov / np.outer(sd, sd)
        overall, msa = kmo(SymMatrix(R), [f"I{j}" for j in range(p)])
        exp_overall, exp_msa = oracles.kmo_definitional(R)
        assert overall == pytest.approx(exp_overall, abs=1e-9)
        assert list(msa.values()) == pytest.approx(exp_msa, abs=1e-9)

    def test_values_bounded(self):
        overall, msa = kmo(SymMatrix(equicorrelated(5, 0.4)), list("ABCDE"))
        assert 0.0 <= overall <= 1.0
        assert all(0.0 <= v <= 1.0 for v in msa.values())

    def test_indefinite_matrix_raises(self):
        # eigenvalues 1.9, 1.9, -0.8; every diagonal entry of R^-1 is -5/76
        R = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            kmo(SymMatrix(R), list("ABC"))

    def test_one_item_is_too_few(self):
        with pytest.raises(TooFewItems, match="^kmo needs >= 2 items, got 1$"):
            kmo(SymMatrix(np.eye(1)), ["A"])

    def test_two_items_is_enough(self):
        overall, msa = kmo(SymMatrix(equicorrelated(2, 0.5)), ["A", "B"])
        # p=2: the partial correlation equals -r, so every KMO value is 1/2
        assert overall == pytest.approx(0.5, abs=1e-12)
        assert list(msa.values()) == pytest.approx([0.5, 0.5], abs=1e-12)

    @pytest.mark.parametrize("which", ["identity", "uncorrelated item"])
    def test_item_uncorrelated_with_the_rest_refused(self, data_dir, which):
        # its MSA is 0/0; with R = I the overall ratio is too
        if which == "identity":
            R, items, first = SymMatrix(np.eye(3)), list("ABC"), "A"
        else:
            view = complete_cases(load_csv(data_dir / "uncorrelated_item_survey.csv", 1, 7),
                                  "listwise")
            R, items, first = correlation_matrix(view.data, list(view.items)), list("abc"), "c"
            assert R.values[0, 1] == pytest.approx(0.8, abs=1e-12)
            assert R.values[2, 0] == R.values[2, 1] == 0.0
        with pytest.raises(DomainError, match=f"^item '{first}' has zero correlation "
                                              "with every other item; its MSA is undefined$"):
            kmo(R, items)

    def test_noise_item_has_lowest_msa(self):
        view = prune_fixture_view()
        R = correlation_matrix(view.data, list(view.items))
        _, msa = kmo(R, list(view.items))
        assert min(msa, key=msa.get) == "G"
        assert msa["G"] < 0.5
        assert all(v >= 0.55 for it, v in msa.items() if it != "G")


class TestMsaPrune:
    def test_clean_data_prunes_nothing(self):
        view = complete_cases(generate(FactorModelSpec(
            loadings=np.full((4, 1), 0.8), n=300, seed=3, items=tuple("ABCD"),
        )), "listwise")
        trail = msa_prune(view)
        assert trail.steps == ()
        assert trail.retained == view.items
        assert trail.termination == "all_above_threshold"

    def test_noise_item_pruned_first_and_kmo_rises(self):
        view = prune_fixture_view()
        R = correlation_matrix(view.data, list(view.items))
        before, _ = kmo(R, list(view.items))
        trail = msa_prune(view, threshold=0.5)
        assert [s.item for s in trail.steps] == ["G"]
        assert trail.retained == tuple("ABCDEF")
        assert trail.steps[0].kmo_after > before
        # after pruning, everything clears the bar
        R2 = correlation_matrix(view.data[:, :6], list("ABCDEF"))
        _, msa2 = kmo(R2, list("ABCDEF"))
        assert all(v >= 0.5 for v in msa2.values())

    def test_zero_threshold_disables_pruning(self):
        trail = msa_prune(prune_fixture_view(), threshold=0.0)
        assert trail.steps == ()

    def test_unreachable_threshold_returns_trail(self):
        view = prune_fixture_view()
        trail = msa_prune(view, threshold=0.999)
        assert trail.termination == "min_items_reached"
        assert len(trail.retained) == 3  # stops at the minimum item count
        assert len(trail.steps) == len(view.items) - 3


@pytest.fixture(scope="module")
def noisy_600x20():
    """600 x 20: items 1-16 on 4 factors (loadings 0.60 to 0.72), items 17-20
    pure noise, 10 % of cells missing. Seed 2 gives a three-step trail."""
    L = np.zeros((20, 4))
    for f in range(4):
        L[4 * f:4 * f + 4, f] = 0.60 + 0.04 * np.arange(4)
    ds = generate(FactorModelSpec(loadings=L, n=600, seed=2))
    values = ds.values.copy()
    values[np.random.default_rng(2).random(values.shape) < 0.10] = np.nan
    return SurveyDataset(ds.items, ds.respondents, values, ds.likert_min, ds.likert_max)


class TestMsaPruneAtScale:
    """The prune loop at the size of the pairwise-prune benchmark workload."""

    def test_prunes_only_noise_and_records_kmo_after(self, noisy_600x20):
        view = complete_cases(noisy_600x20, "pairwise")
        trail = msa_prune(view)
        assert trail.termination == "all_above_threshold"
        assert len(trail.steps) >= 2
        removed = [s.item for s in trail.steps]
        assert set(removed) <= {"item17", "item18", "item19", "item20"}
        for k, step in enumerate(trail.steps):
            kept = [it for it in view.items if it not in removed[:k + 1]]
            idx = [view.items.index(it) for it in kept]
            overall, _ = kmo(correlation_matrix(view.data[:, idx], kept), kept)
            assert step.kmo_after == overall
        assert trail.retained == tuple(kept)

    def test_unreachable_threshold_stops_at_three_items(self, noisy_600x20):
        view = complete_cases(noisy_600x20, "pairwise")
        trail = msa_prune(view, threshold=0.99)
        assert trail.termination == "min_items_reached"
        assert len(trail.retained) == 3
        assert len(trail.steps) == 17
        cfg = PipelineConfig(policy="pairwise", msa_threshold=0.99, rotation="varimax")
        report = run_validation(noisy_600x20, cfg)
        assert report.prune_trail == trail.steps
        assert report.warnings[0] == (
            "CannotReachThreshold: pruning stopped at 3 items with minimum MSA "
            "still below 0.99"
        )


class TestEffectiveNAtScale:
    """effective_n on the pairwise-prune shape: 600 x 20, 10 % of cells NA."""

    @pytest.mark.parametrize("policy", ["listwise", "pairwise"])
    def test_matches_oracle_and_report(self, noisy_600x20, policy):
        present = ~np.isnan(noisy_600x20.values)
        expected = {
            "listwise": int(present.all(axis=1).sum()),
            "pairwise": int((present.T.astype(float) @ present.astype(float)).min()),
        }[policy]
        assert complete_cases(noisy_600x20, policy).effective_n == expected
        cfg = PipelineConfig(policy=policy, retention="fixed:4", rotation="varimax")
        report = run_validation(noisy_600x20, cfg)
        assert report.dataset["effective_n"] == expected


class TestAdvice:
    def solution(self, h2: float, p: int = 8, n_factors: int = 2):
        """Stand-in for a solution whose mean communality is exactly h2.

        A FactorSolution derives its communalities from the loadings, and
        sqrt(h2)**2 need not round back to h2, so the band boundaries would
        not be hit exactly; the advice reads only these three attributes.
        """
        return SimpleNamespace(communalities=np.full(p, h2), p=p, m=n_factors)

    def test_high_band(self):
        advice = sample_adequacy_advice(self.solution(0.72), n=100)
        assert advice.communality_band == "high"
        assert not advice.caution

    def test_moderate_band_is_closed_at_point_four(self):
        advice = sample_adequacy_advice(self.solution(0.4), n=100)
        assert advice.communality_band == "moderate"

    def test_high_band_is_closed_at_point_seven(self):
        advice = sample_adequacy_advice(self.solution(0.7), n=100)
        assert advice.communality_band == "high"

    def test_low_band_with_small_sample_fires_caution(self):
        advice = sample_adequacy_advice(self.solution(0.3, p=6), n=150)
        assert advice.communality_band == "low"
        assert advice.items_per_factor == 3.0
        assert advice.caution

    def test_low_band_with_large_sample_does_not(self):
        advice = sample_adequacy_advice(self.solution(0.3, p=6), n=500)
        assert not advice.caution

    def test_low_band_with_many_items_per_factor_does_not(self):
        advice = sample_adequacy_advice(self.solution(0.3, p=8, n_factors=1),
                                        n=150)
        assert advice.communality_band == "low"
        assert not advice.caution

    def test_note_is_flagged_advisory(self):
        advice = sample_adequacy_advice(self.solution(0.8), n=50)
        assert "advisory" in advice.note
