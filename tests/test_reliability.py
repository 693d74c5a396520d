"""Internal consistency (Cronbach's alpha) and test-retest stability."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psychoval import (
    ScaleDefinition,
    SurveyDataset,
    SymMatrix,
    alpha_from_covariance,
    cronbach_alpha,
    loads_csv,
)
from psychoval import test_retest as retest
from psychoval.errors import (
    DomainError, InsufficientRows, NoOverlap, TooFewItems, ZeroVariance,
)
from tests import oracles


def likert_dataset(values, items=None, likert=(1, 7)) -> SurveyDataset:
    arr = np.asarray(values, dtype=float)
    names = tuple(items) if items else tuple(f"I{j+1}" for j in range(arr.shape[1]))
    resp = tuple(f"r{i+1}" for i in range(arr.shape[0]))
    return SurveyDataset(names, resp, arr, likert[0], likert[1])


def random_likert(rng: np.random.Generator, n=40, k=4) -> np.ndarray:
    base = rng.integers(1, 8, size=(n, 1))
    noise = rng.integers(-2, 3, size=(n, k))
    return np.clip(base + noise, 1, 7).astype(float)


class TestAlphaIdentities:
    def test_perfectly_correlated_items_give_one(self):
        # identical items; sd * sd once gave a standardized alpha of 1 + 2^-52 here
        for cov in (np.ones((4, 4)), np.full((3, 3), 3.0)):
            rep = alpha_from_covariance(cov)
            assert rep.alpha_raw == 1.0
            assert rep.alpha_standardized == 1.0
            assert set(rep.item_total_correlations.values()) == {1.0}

    @pytest.mark.parametrize("c", [0.1, 0.2, 0.3, 1 / 3, 0.45, 0.6, 0.7, 0.9])
    def test_identical_items_never_exceed_one(self, c):
        # alpha <= 1 whenever every |r| <= 1; unclipped, the final quotient
        # rounded above 1 in 34 of these alpha_raw, and in some alpha_if_deleted
        # of 31 of the matrices
        for k in range(2, 40):
            rep = alpha_from_covariance(np.full((k, k), c))
            assert rep.alpha_raw <= 1.0
            assert not any(a > 1.0 for a in rep.alpha_if_deleted.values())

    def test_uncorrelated_equal_variance_items_give_zero(self):
        rep = alpha_from_covariance(np.eye(5))
        assert rep.alpha_raw == pytest.approx(0.0, abs=1e-9)
        assert rep.alpha_standardized == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_two_item_alpha_is_spearman_brown(self, r):
        cov = np.array([[1.0, r], [r, 1.0]])
        rep = alpha_from_covariance(cov)
        assert rep.alpha_standardized == pytest.approx(2 * r / (1 + r), abs=1e-10)
        # equal variances: raw and standardized coincide
        assert rep.alpha_raw == pytest.approx(rep.alpha_standardized, abs=1e-12)

    def test_negatively_keyed_pair_flags_negative(self):
        rep = alpha_from_covariance(np.array([[1.0, -0.5], [-0.5, 1.0]]))
        assert rep.alpha_raw < 0
        assert rep.negative

    def test_two_items_have_no_alpha_if_deleted(self):
        rep = alpha_from_covariance(np.array([[1.0, 0.5], [0.5, 1.0]]),
                                    items=["A", "B"])
        assert math.isnan(rep.alpha_if_deleted["A"])
        assert math.isnan(rep.alpha_if_deleted["B"])


class TestAlphaInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_refused(self, bad):
        with pytest.raises(DomainError, match="^covariance matrix has a non-finite entry$"):
            alpha_from_covariance([[1.0, bad], [bad, 1.0]])

    def test_asymmetric_matrix_refused(self):
        with pytest.raises(DomainError, match="^covariance matrix is not symmetric$"):
            alpha_from_covariance([[1, .9, 0], [.1, 1, 0], [0, 0, 1]])

    @pytest.mark.parametrize("skew, refused",
                             [(1e-12, False), (1e-9, False), (1e-7, True), (1e-3, True)])
    def test_symmetry_tolerance_is_sym_matrix_s(self, skew, refused):
        # the tolerance is relative to max(1, max |entry|) = 2 here
        cov = np.array([[2.0, 0.5], [0.5 + skew, 1.0]])
        for check in (SymMatrix, alpha_from_covariance):
            if refused:
                with pytest.raises(DomainError, match="matrix is not symmetric$"):
                    check(cov)
            else:
                check(cov)

    def test_zero_variance_standardized_total_refused(self):
        # r = -1 = -1/(k - 1): the standardized scores sum to a constant
        with pytest.raises(ZeroVariance, match="^standardized total score has zero variance$"):
            alpha_from_covariance([[1, -2], [-2, 4]])

    def test_perfectly_anticorrelated_pair_has_zero_total_variance(self):
        with pytest.raises(ZeroVariance, match="^total score has zero variance$"):
            alpha_from_covariance([[1, -1], [-1, 1]])

    @pytest.mark.parametrize("cov, detail", [
        ([[1, -2], [-2, 1]], "items 'item1' and 'item2' have r = -2"),
        (np.full((3, 3), -0.9) + 1.9 * np.eye(3), "total score has a negative variance"),
        ([[100, -4, -4], [-4, 1, -0.9], [-4, -0.9, 1]],
         "standardized total score has a negative variance"),
        ([[1, .9, .9], [.9, 1, -.9], [.9, -.9, 1]],
         "item 'item1' has r = 4.025 with the remainder score"),
        ([[100, 5, 5, 5], [5, 1, -.9, -.9], [5, -.9, 1, -.9], [5, -.9, -.9, 1]],
         "remainder score has a negative variance"),
    ], ids=["pair", "total", "standardized", "item-total", "remainder"])
    def test_not_positive_semidefinite_refused(self, cov, detail):
        # each once gave an alpha or an item-total r beyond 1 in magnitude
        with pytest.raises(DomainError) as info:
            alpha_from_covariance(cov)
        assert str(info.value) == f"covariance matrix is not positive semidefinite: {detail}"

    def test_correlation_beyond_one_by_rounding_is_clipped(self):
        rep = alpha_from_covariance([[1, 1 + 2**-52], [1 + 2**-52, 1]])
        assert rep.alpha_standardized == 1.0
        assert set(rep.item_total_correlations.values()) == {1.0}

    def test_single_item_refused(self):
        with pytest.raises(TooFewItems, match="^alpha needs >= 2 items, got 1$"):
            alpha_from_covariance([[1.0]])

    @pytest.mark.parametrize("cov", [[1.0, 2.0], np.ones((2, 3))], ids=["1-d", "2x3"])
    def test_non_square_input_refused(self, cov):
        with pytest.raises(DomainError, match="^expected a square covariance matrix"):
            alpha_from_covariance(cov)


class TestAlphaSamplePath:
    def test_matches_definitional_oracle(self):
        rng = np.random.default_rng(31)
        data = random_likert(rng)
        ds = likert_dataset(data)
        rep = cronbach_alpha(ds, ScaleDefinition("s", ds.items))
        assert rep.alpha_raw == pytest.approx(
            oracles.alpha_definitional(data), abs=1e-12
        )
        assert rep.k == 4 and rep.n == 40

    def test_shift_invariance(self):
        rng = np.random.default_rng(32)
        data = np.clip(random_likert(rng), 1, 5).astype(float)
        shifted = data.copy()
        shifted[:, 0] += 3.0  # stays within a 1..10 codebook
        a = cronbach_alpha(likert_dataset(data, likert=(1, 10)),
                           ScaleDefinition("s", ("I1", "I2", "I3", "I4")))
        b = cronbach_alpha(likert_dataset(shifted, likert=(1, 10)),
                           ScaleDefinition("s", ("I1", "I2", "I3", "I4")))
        assert b.alpha_raw == pytest.approx(a.alpha_raw, abs=1e-12)
        assert b.alpha_standardized == pytest.approx(a.alpha_standardized, abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_alpha_if_deleted_cross_check(self, seed):
        rng = np.random.default_rng(seed)
        data = random_likert(rng, n=30, k=4)
        try:
            ds = likert_dataset(data)
            rep = cronbach_alpha(ds, ScaleDefinition("s", ds.items))
        except ZeroVariance:
            return  # degenerate draw; nothing to cross-check
        for j, item in enumerate(ds.items):
            rest = [it for it in ds.items if it != item]
            sub = cronbach_alpha(ds, ScaleDefinition("s", tuple(rest)))
            assert rep.alpha_if_deleted[item] == pytest.approx(
                sub.alpha_raw, abs=1e-10
            )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_standardized_alpha_is_the_mean_r_formula(self, seed):
        # one formula for raw and standardized alpha: on R, whose trace is k,
        # it equals k rbar / (1 + (k - 1) rbar); loadings >= 0.4 keep rbar
        # away from 0, where both sides lose relative accuracy
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.4, 0.95, size=int(rng.integers(2, 21)))
        R = np.outer(lam, lam)
        np.fill_diagonal(R, 1.0)
        got = alpha_from_covariance(R).alpha_standardized
        want = oracles.alpha_standardized_exact(R)
        assert abs(got - want) <= 4 * math.ulp(want)

    def test_item_total_correlations_bounded(self):
        rng = np.random.default_rng(33)
        ds = likert_dataset(random_likert(rng))
        rep = cronbach_alpha(ds, ScaleDefinition("s", ds.items))
        for r in rep.item_total_correlations.values():
            assert -1.0 <= r <= 1.0

    def test_too_few_items(self):
        ds = likert_dataset([[1.0], [2.0], [3.0]])
        with pytest.raises(TooFewItems):
            cronbach_alpha(ds, ScaleDefinition("s", ("I1",)))

    @pytest.mark.parametrize("others, what", [
        ([[6, 6, 6, 6, 5]], "total score"),
        ([[5, 5, 5, 5, 3]], "standardized total score"),
        ([[6, 6, 6, 6, 5], [1, 2, 3, 4, 5]], "remainder score"),
    ], ids=["raw", "standardized", "remainder"])
    def test_zero_variance_total_under_rounding_refused(self, others, what):
        # 7 - x and 7 - 2x: the Gram sums hold the zero variance exactly
        ds = likert_dataset(np.column_stack([[1, 1, 1, 1, 2], *others]))
        with pytest.raises(ZeroVariance, match=f"^{what} has zero variance$"):
            cronbach_alpha(ds, ScaleDefinition("s", ds.items))

    def test_too_few_complete_rows(self):
        ds = loads_csv("id,A,B\nr1,1,2\nr2,2,NA\nr3,3,1\nr4,NA,4\n", 1, 7)
        with pytest.raises(InsufficientRows, match="^scale 's' has 2 complete rows, need 3$"):
            cronbach_alpha(ds, ScaleDefinition("s", ("A", "B")))

    def test_constant_item_rejected(self):
        ds = likert_dataset([[1, 4], [2, 4], [3, 4]])
        with pytest.raises(ZeroVariance):
            cronbach_alpha(ds, ScaleDefinition("s", ("I1", "I2")))

    def test_constant_item_near_two_to_the_53_rejected(self):
        # the Gram sums shift by an integer near the mean, so the spread stays exact
        edge = 2**53
        data = np.column_stack([np.full(5, edge - 1.0), [0, 1, 2, 3, 4], [1, 0, 3, 2, 4]])
        ds = likert_dataset(data, items=("A", "B", "C"), likert=(0, edge))
        with pytest.raises(ZeroVariance, match="^item 'A' has zero variance$"):
            cronbach_alpha(ds, ScaleDefinition("s", ("A", "B", "C")))

    def test_translated_block_gives_the_same_bits(self):
        # the Gram sums are exact integers whatever the offset
        data = random_likert(np.random.default_rng(34))
        scale = ScaleDefinition("s", ("I1", "I2", "I3", "I4"))
        edge = 2**53
        far = likert_dataset(data + (edge - 7.0), likert=(0, edge))
        assert cronbach_alpha(far, scale) == cronbach_alpha(likert_dataset(data), scale)

    @pytest.mark.parametrize("k", [2, 7])
    def test_identical_items_give_exactly_one(self, k):
        # this column once gave a standardized alpha of 1 - 2^-52 at k = 2, a raw 1 + 2^-52 at 7
        ds = likert_dataset(np.repeat([[1], [1], [2], [4]], k, axis=1))
        rep = cronbach_alpha(ds, ScaleDefinition("s", ds.items))
        assert (rep.alpha_raw, rep.alpha_standardized) == (1.0, 1.0)
        assert set(rep.item_total_correlations.values()) == {1.0}

    def test_listwise_within_scale(self):
        # the missing row is dropped for the scale computation
        ds = loads_csv("id,A,B\nr1,1,2\nr2,2,3\nr3,NA,4\nr4,4,5\nr5,6,6\n", 1, 7)
        rep = cronbach_alpha(ds, ScaleDefinition("s", ("A", "B")))
        assert rep.n == 4


class TestRetest:
    def csv(self, rows, items="A,B"):
        body = "\n".join(f"r{i+1},{row}" for i, row in enumerate(rows))
        return loads_csv(f"id,{items}\n{body}\n", 1, 7)

    def test_identical_occasions_give_one(self):
        ds = self.csv(["1,2", "3,4", "5,6", "7,1"])
        rep = retest(ds, ds, ScaleDefinition("s", ("A", "B")))
        assert rep.total_r == 1.0
        assert all(r == 1.0 for r in rep.item_r.values())
        assert rep.matched_n == 4
        assert rep.dropped_first == 0 and rep.dropped_second == 0

    def test_reflected_occasion_gives_minus_one(self):
        ds1 = self.csv(["1,2", "3,4", "5,6", "7,1"])
        reflected = 1 + 7 - ds1.values
        ds2 = SurveyDataset(ds1.items, ds1.respondents, reflected, 1, 7)
        rep = retest(ds1, ds2, ScaleDefinition("s", ("A", "B")))
        assert rep.total_r == -1.0

    def test_symmetric_in_occasions(self):
        rng = np.random.default_rng(44)
        ds1 = likert_dataset(random_likert(rng, n=20, k=2), items=("A", "B"))
        ds2 = likert_dataset(random_likert(rng, n=20, k=2), items=("A", "B"))
        fwd = retest(ds1, ds2, ScaleDefinition("s", ("A", "B")))
        rev = retest(ds2, ds1, ScaleDefinition("s", ("A", "B")))
        assert fwd.total_r == rev.total_r
        assert fwd.item_r == rev.item_r

    def test_unmatched_respondents_are_dropped_and_counted(self):
        ds1 = self.csv(["1,2", "3,4", "5,6", "7,1"])          # r1..r4
        ds2_all = self.csv(["2,2", "3,5", "5,5", "6,2", "1,1"])  # r1..r5
        keep = [0, 1, 2, 4]  # drop r4 from occasion two
        ds2 = SurveyDataset(
            ds2_all.items,
            tuple(ds2_all.respondents[i] for i in keep),
            ds2_all.values[keep],
            1, 7,
        )
        rep = retest(ds1, ds2, ScaleDefinition("s", ("A", "B")))
        assert rep.matched_n == 3
        assert rep.dropped_first == 1   # r4 only in occasion one
        assert rep.dropped_second == 1  # r5 only in occasion two

    def test_total_matches_pearson_oracle(self):
        rng = np.random.default_rng(45)
        d1 = random_likert(rng, n=25, k=3)
        d2 = np.clip(d1 + rng.integers(-1, 2, size=d1.shape), 1, 7).astype(float)
        ds1 = likert_dataset(d1, items=("A", "B", "C"))
        ds2 = likert_dataset(d2, items=("A", "B", "C"))
        rep = retest(ds1, ds2, ScaleDefinition("s", ("A", "B", "C")))
        expected = oracles.pearson_definitional(d1.sum(axis=1), d2.sum(axis=1))
        assert rep.total_r == pytest.approx(expected, abs=1e-12)
        for j, item in enumerate("ABC"):  # each item pairs with itself, not a neighbour
            expected = oracles.pearson_definitional(d1[:, j], d2[:, j])
            assert rep.item_r[item] == pytest.approx(expected, abs=1e-12)

    def test_missing_cells_drop_the_respondent(self):
        ds1 = self.csv(["1,2", "3,NA", "5,6", "7,1", "2,5"])
        ds2 = self.csv(["2,2", "3,5", "NA,5", "6,2", "1,4"])
        rep = retest(ds1, ds2, ScaleDefinition("s", ("A", "B")))
        assert rep.matched_n == 3  # r2 and r3 each miss one cell
        a, b = [3.0, 8.0, 7.0], [4.0, 8.0, 5.0]  # totals of r1, r4, r5
        assert rep.total_r == pytest.approx(oracles.pearson_definitional(a, b), abs=1e-12)
        assert all(math.isfinite(r) for r in rep.item_r.values())

    @pytest.mark.parametrize("first, second, message", (
        (["4,1", "4,2", "4,3"], ["1,1", "2,2", "3,3"], "item 'A' at the first occasion"),
        (["1,1", "2,2", "3,3"], ["1,4", "2,4", "3,4"], "item 'B' at the second occasion"),
        (["1,4", "2,3", "3,2"], ["1,1", "2,3", "3,2"], "total score at the first occasion"),
        (["1,1", "2,3", "3,2"], ["2,4", "3,3", "4,2"], "total score at the second occasion"),
        # A is constant at the second occasion, B at the first: A comes first
        (["1,4", "2,4", "3,4"], ["2,1", "2,2", "2,3"], "item 'A' at the second occasion"),
    ))
    def test_constant_scores_name_the_occasion(self, first, second, message):
        with pytest.raises(ZeroVariance) as info:
            retest(self.csv(first), self.csv(second), ScaleDefinition("s", ("A", "B")))
        assert str(info.value) == f"{message} has zero variance"

    def test_no_overlap(self):
        ds1 = self.csv(["1,2", "3,4", "5,6"])
        ds2_raw = self.csv(["1,2", "3,4", "5,6"])
        ds2 = SurveyDataset(ds2_raw.items, ("x1", "x2", "x3"), ds2_raw.values, 1, 7)
        with pytest.raises(NoOverlap, match="^only 0 respondents shared between occasions"):
            retest(ds1, ds2, ScaleDefinition("s", ("A", "B")))
