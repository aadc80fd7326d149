"""Property and conformance suite for the tolerance-rule engine.

The profile is a *contract*: these tests pin the contract's load-
bearing guarantees -- overlap rejection, coverage proof, first-match
determinism under rule permutation and JSON round-trip equality --
rather than any particular profile's content.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.specs import Specification, SpecificationSet
from repro.errors import ReproError, RuleError
from repro.rules import (
    FAIL_BIN,
    PASS_BIN,
    PROFILE_FORMAT,
    BoundProfile,
    ToleranceProfile,
    ToleranceRule,
)

from tests.synthetic import make_synthetic_dataset


def two_spec_set():
    return SpecificationSet([
        Specification("gain", "V/V", 5.0, 0.0, 10.0),
        Specification("bw", "MHz", 2.0, 1.0, 3.0),
    ])


def speed_grade_profile():
    """A 3-grade partition of gain in [0, 10] (bw unconditioned)."""
    return ToleranceProfile(
        "speed-grades",
        [
            ToleranceRule("FAST", {"gain": (7.0, 10.0)}),
            ToleranceRule("TYP", {"gain": (3.0, 7.0)}),
            ToleranceRule("SLOW", {"gain": (0.0, 3.0)}),
        ],
        default_bin="REJECT")


def matched_bins(rule, gains):
    """Bin names a one-rule profile (REJECT default) gives each gain."""
    bound = BoundProfile(ToleranceProfile("p", [rule], "REJECT"),
                         two_spec_set())
    rows = np.column_stack([gains, np.full(len(gains), 2.0)])
    return [bound.bins[i] for i in bound.assign(rows)]


class TestToleranceRule:
    def test_matches_closed_intervals(self):
        rule = ToleranceRule("A", {"gain": (1.0, 2.0)})
        assert matched_bins(rule, [1.0, 2.0, 0.999, 2.001]) == [
            "A", "A", "REJECT", "REJECT"]

    def test_unbounded_sides(self):
        low_only = ToleranceRule("A", {"gain": (5.0, None)})
        assert matched_bins(low_only, [1e9, 4.9]) == ["A", "REJECT"]
        high_only = ToleranceRule("A", {"gain": (None, 5.0)})
        assert matched_bins(high_only, [-1e9]) == ["A"]

    @pytest.mark.parametrize("conditions", [
        {},                               # no conditions at all
        {"gain": (2.0, 1.0)},             # inverted bounds
        {"gain": (1.0, 1.0)},             # empty interval
        {"gain": (None, None)},           # doubly unbounded
        {"gain": (float("nan"), 1.0)},    # non-finite bound
        {"gain": (0.0, float("inf"))},    # inf must be spelled None
        {"gain": 3.0},                    # not a pair
    ])
    def test_invalid_conditions_rejected(self, conditions):
        with pytest.raises(RuleError):
            ToleranceRule("A", conditions)

    @pytest.mark.parametrize("guard", [
        {"bw": 0.1},            # guard on an unconditioned spec
        {"gain": -0.1},         # negative half-width
        {"gain": float("inf")},
    ])
    def test_invalid_guards_rejected(self, guard):
        """Rules carry no guard bands: a document with one, valid or
        not, is refused by name rather than silently ignored."""
        doc = {"bin": "A", "conditions": {"gain": [0.0, 1.0]},
               "guard": guard}
        with pytest.raises(RuleError, match="guard"):
            ToleranceRule.from_dict(doc)
        with pytest.raises(RuleError, match="guard"):
            ToleranceProfile.from_dict(
                {"name": "p", "default_bin": "R", "rules": [doc]})

    def test_empty_bin_name_rejected(self):
        with pytest.raises(RuleError):
            ToleranceRule("", {"gain": (0.0, 1.0)})

    def test_unknown_dict_field_rejected(self):
        with pytest.raises(RuleError, match="unknown rule field"):
            ToleranceRule.from_dict({
                "bin": "A", "conditions": {"gain": [0, 1]},
                "color": "red"})

    def test_dict_round_trip(self):
        rule = ToleranceRule("A", {"gain": (0.0, 1.0), "bw": (None, 2.0)},
                             description="doc")
        again = ToleranceRule.from_dict(
            json.loads(json.dumps(rule.to_dict())))
        assert again == rule

    def test_rule_is_honestly_unhashable(self):
        """A rule compares by value over a dict of conditions, so it
        refuses ``hash`` by its own name, not from inside a generated
        ``__hash__`` that trips over the dict."""
        rule = ToleranceRule("A", {"g": (0.0, 1.0)})
        with pytest.raises(TypeError, match="ToleranceRule"):
            hash(rule)


class TestOverlapRejection:
    @pytest.mark.parametrize("a_conds, b_conds", [
        # plain 1-D interval overlap
        ({"gain": (0.0, 5.0)}, {"gain": (4.0, 10.0)}),
        # containment
        ({"gain": (0.0, 10.0)}, {"gain": (4.0, 6.0)}),
        # overlap through an unbounded side
        ({"gain": (5.0, None)}, {"gain": (None, 6.0)}),
        # 2-D: overlapping in both dims
        ({"gain": (0.0, 5.0), "bw": (1.0, 2.0)},
         {"gain": (4.0, 6.0), "bw": (1.5, 3.0)}),
        # one rule unconditioned on a dim the other constrains
        ({"gain": (0.0, 5.0)}, {"bw": (1.0, 2.0)}),
    ])
    def test_positive_measure_overlap_rejected(self, a_conds, b_conds):
        profile = ToleranceProfile(
            "p", [ToleranceRule("A", a_conds), ToleranceRule("B", b_conds)],
            default_bin="REJECT")
        with pytest.raises(RuleError, match="overlap"):
            profile.validate()

    @pytest.mark.parametrize("a_conds, b_conds", [
        # disjoint intervals
        ({"gain": (0.0, 4.0)}, {"gain": (5.0, 10.0)}),
        # shared edge only (measure zero -- first match wins the tie)
        ({"gain": (0.0, 5.0)}, {"gain": (5.0, 10.0)}),
        # 2-D: overlap in one dim, disjoint in the other
        ({"gain": (0.0, 5.0), "bw": (1.0, 2.0)},
         {"gain": (0.0, 5.0), "bw": (2.0, 3.0)}),
    ])
    def test_non_overlapping_accepted(self, a_conds, b_conds):
        profile = ToleranceProfile(
            "p", [ToleranceRule("A", a_conds), ToleranceRule("B", b_conds)],
            default_bin="REJECT")
        assert profile.validate() is profile

    def test_same_bin_rules_may_overlap(self):
        profile = ToleranceProfile(
            "p",
            [ToleranceRule("A", {"gain": (0.0, 6.0)}),
             ToleranceRule("A", {"gain": (4.0, 10.0)})],
            default_bin="REJECT")
        profile.validate()

    def test_rule_error_is_a_repro_error(self):
        assert issubclass(RuleError, ReproError)


class TestCoverage:
    def test_full_partition_passes(self):
        speed_grade_profile().validate(two_spec_set())

    @pytest.mark.parametrize("ranges, witness_between", [
        # hole in the middle of gain
        ([(0.0, 3.0), (5.0, 10.0)], (3.0, 5.0)),
        # hole at the low edge
        ([(1.0, 10.0)], (0.0, 1.0)),
        # hole at the high edge
        ([(0.0, 9.0)], (9.0, 10.0)),
    ])
    def test_gap_detected_with_witness(self, ranges, witness_between):
        rules = [ToleranceRule("G{}".format(i), {"gain": r})
                 for i, r in enumerate(ranges)]
        profile = ToleranceProfile("p", rules, default_bin="REJECT")
        with pytest.raises(RuleError) as err:
            profile.validate(two_spec_set())
        message = str(err.value)
        assert "coverage gap" in message
        # The witness point named in the error really is uncovered.
        lo, hi = witness_between
        witness = json.loads(
            message[message.index("{"):message.index("}") + 1]
            .replace("'", '"'))
        assert lo < witness["gain"] < hi

    def test_unknown_spec_rejected_before_coverage(self):
        profile = ToleranceProfile(
            "p", [ToleranceRule("A", {"nope": (0.0, 1.0)})],
            default_bin="REJECT")
        with pytest.raises(RuleError, match="unknown"):
            profile.validate(two_spec_set())

    def test_no_conditioned_spec_rejected(self):
        profile = ToleranceProfile(
            "p", [ToleranceRule("A", {"gain": (0.0, 1.0)})],
            default_bin="REJECT")
        specs = SpecificationSet([
            Specification("other", "u", 0.0, -1.0, 1.0)])
        with pytest.raises(RuleError):
            profile.validate(specs)

    def test_empty_profile_rejected(self):
        with pytest.raises(RuleError, match="no rules"):
            ToleranceProfile("p", [], default_bin="X").validate()

    def test_cell_budget_refusal(self):
        # 26 rules x ~2 cuts each on one axis is fine; blow the budget
        # with many axes instead: 2 cuts per axis over 18 axes.
        n_axes = 18
        specs = SpecificationSet([
            Specification("s{}".format(i), "u", 0.0, 0.0, 4.0)
            for i in range(n_axes)])
        rules = [ToleranceRule(
            "A", {"s{}".format(i): (1.0, 3.0) for i in range(n_axes)})]
        profile = ToleranceProfile("big", rules, default_bin="R")
        with pytest.raises(RuleError, match="cells"):
            profile.validate(specs)


class TestFirstMatchDeterminism:
    @given(seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_permutation_invariance_off_boundaries(self, seed):
        """Validated (non-overlapping) rules bin identically in any
        rule order, except on exact shared edges -- sampled points
        almost surely avoid those."""
        rng = np.random.default_rng(seed)
        specs = two_spec_set()
        profile = speed_grade_profile()
        values = np.column_stack([
            rng.uniform(-1.0, 11.0, 200), rng.uniform(0.5, 3.5, 200)])
        baseline = profile.bind(specs).assign(values)
        order = rng.permutation(len(profile.rules))
        permuted = ToleranceProfile(
            profile.name, [profile.rules[i] for i in order],
            default_bin=profile.default_bin)
        permuted_bins = permuted.bind(specs).assign(values)
        base_names = np.asarray(profile.bins, dtype=object)[baseline]
        perm_names = np.asarray(permuted.bins, dtype=object)[permuted_bins]
        assert (base_names == perm_names).all()

    def test_shared_edge_goes_to_first_rule(self):
        specs = two_spec_set()
        a_first = ToleranceProfile(
            "p", [ToleranceRule("A", {"gain": (0.0, 5.0)}),
                  ToleranceRule("B", {"gain": (5.0, 10.0)})],
            default_bin="REJECT")
        b_first = ToleranceProfile(
            "p", [ToleranceRule("B", {"gain": (5.0, 10.0)}),
                  ToleranceRule("A", {"gain": (0.0, 5.0)})],
            default_bin="REJECT")
        edge = np.array([[5.0, 2.0]])
        for profile, expected in ((a_first, "A"), (b_first, "B")):
            bound = profile.bind(specs)
            assert bound.bins[bound.assign(edge)[0]] == expected

    def test_assign_matches_scalar_rule_loop(self):
        """The vectorized matcher agrees with a per-device first-match
        loop over the closed condition intervals -- the semantics of
        record."""
        rng = np.random.default_rng(3)
        specs = two_spec_set()
        profile = speed_grade_profile()
        bound = profile.bind(specs)
        values = np.column_stack([
            rng.uniform(-1.0, 11.0, 300), rng.uniform(0.5, 3.5, 300)])
        got = bound.assign(values)
        for row, bin_idx in zip(values, got):
            sample = dict(zip(specs.names, row))
            expected = profile.default_bin
            for rule in profile.rules:
                if all((low is None or sample[name] >= low)
                       and (high is None or sample[name] <= high)
                       for name, (low, high) in rule.conditions.items()):
                    expected = rule.bin
                    break
            assert profile.bins[bin_idx] == expected

    def test_shape_mismatch_rejected(self):
        bound = speed_grade_profile().bind(two_spec_set())
        with pytest.raises(RuleError):
            bound.assign(np.zeros((4, 3)))


class TestSerialization:
    def test_json_round_trip_equality(self, tmp_path):
        profile = speed_grade_profile()
        path = tmp_path / "grades.json"
        path.write_text(json.dumps(profile.to_dict()))
        again = ToleranceProfile.load(path)
        assert again == profile
        assert again.to_dict() == profile.to_dict()
        # and idempotent: a second round trip produces the same doc
        assert ToleranceProfile.from_dict(again.to_dict()) == profile

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(RuleError, match="cannot read"):
            ToleranceProfile.load(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(RuleError, match="cannot read"):
            ToleranceProfile.load(path)

    def test_load_overlapping_profile_rejected(self, tmp_path):
        doc = speed_grade_profile().to_dict()
        doc["rules"][0]["conditions"]["gain"] = [0.0, 10.0]
        path = tmp_path / "overlap.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(RuleError, match="overlap"):
            ToleranceProfile.load(path)

    def test_wrong_format_and_version_rejected(self):
        with pytest.raises(RuleError, match="not a tolerance-profile"):
            ToleranceProfile.from_dict({"format": "something-else"})
        with pytest.raises(RuleError, match="version"):
            ToleranceProfile.from_dict(
                {"format": PROFILE_FORMAT, "version": 99})

class TestBinaryDefault:
    @given(seed=st.integers(0, 40))
    @settings(max_examples=15, deadline=None)
    def test_reproduces_labels(self, seed):
        """The degenerate profile equals SpecificationSet.labels
        device for device -- the structural parity guarantee."""
        dataset = make_synthetic_dataset(n=120, seed=seed)
        specs = dataset.specifications
        profile = ToleranceProfile.binary_default(specs)
        bound = profile.bind(specs)
        bins = bound.assign(dataset.values)
        names = np.asarray(profile.bins, dtype=object)[bins]
        from repro.core.specs import GOOD
        expected = np.where(dataset.labels == GOOD, PASS_BIN, FAIL_BIN)
        assert (names == expected).all()

    def test_exact_boundary_values_pass(self):
        specs = two_spec_set()
        bound = ToleranceProfile.binary_default(specs).bind(specs)
        edge = np.array([[0.0, 3.0], [10.0, 1.0]])
        names = np.asarray(bound.bins, dtype=object)[bound.assign(edge)]
        assert (names == PASS_BIN).all()

    def test_bin_order_default_last(self):
        profile = ToleranceProfile.binary_default(two_spec_set())
        assert profile.bins == (PASS_BIN, FAIL_BIN)
        assert profile.bin_index(FAIL_BIN) == 1
        with pytest.raises(RuleError, match="unknown bin"):
            profile.bin_index("GOLD")
