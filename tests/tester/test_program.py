"""A deployed test program's retest policies, costs and lookup mode.

The program is a :class:`TestProgramArtifact` run offline through the
floor's one disposition kernel: :meth:`TestFloor.dispose` for the
per-device arrays, :meth:`TestFloor.run_dataset` for the population
summary.
"""

import numpy as np
import pytest

from repro.core.costmodel import TestCostModel as CostModel
from repro.core.guardband import GuardBandedClassifier
from repro.core.metrics import GUARD
from repro.core.specs import BAD, GOOD
from repro.errors import CompactionError
from repro.floor import TestFloor as Floor
from repro.floor import TestProgramArtifact as Artifact
from repro.learn import SVC
from repro.tester import LookupTable

from tests.synthetic import make_synthetic_dataset


def _setup(delta=0.06):
    train = make_synthetic_dataset(n=500, seed=1)
    test = make_synthetic_dataset(n=300, seed=2)
    kept = list(train.names[:4])
    model = GuardBandedClassifier(
        kept, delta=delta,
        model_factory=lambda: SVC(C=50.0, gamma="scale"))
    model.fit(train)
    cost = CostModel.uniform(train.names)
    return model, test, cost


def _floor(model, test, cost=None, policy="full_retest", lookup=None):
    """A floor over the program ``model`` (or ``lookup``) ships."""
    artifact = Artifact(model, test.specifications, cost_model=cost,
                        lookup=lookup)
    return Floor(artifact, retest_policy=policy)


class TestRetestPolicies:
    def test_full_retest_resolves_guard_devices_exactly(self):
        model, test, cost = _setup()
        outcome = _floor(model, test, cost).dispose(test.values)
        guard = outcome.first_pass == GUARD
        assert np.array_equal(outcome.decisions[guard],
                              test.labels[guard])
        assert outcome.n_retested == int(guard.sum())

    def test_accept_policy_ships_guard_devices(self):
        model, test, cost = _setup()
        outcome = _floor(model, test, cost, "accept").dispose(test.values)
        guard = outcome.first_pass == GUARD
        assert np.all(outcome.decisions[guard] == GOOD)
        assert outcome.n_retested == 0

    def test_reject_policy_scraps_guard_devices(self):
        model, test, cost = _setup()
        outcome = _floor(model, test, cost, "reject").dispose(test.values)
        guard = outcome.first_pass == GUARD
        assert np.all(outcome.decisions[guard] == BAD)

    def test_policy_ordering_of_outcomes(self):
        """accept maximizes escapes; reject maximizes yield loss."""
        model, test, cost = _setup()
        accept = _floor(model, test, cost, "accept").run_dataset(test)
        reject = _floor(model, test, cost, "reject").run_dataset(test)
        full = _floor(model, test, cost, "full_retest").run_dataset(test)
        assert accept.defect_escape_rate >= full.defect_escape_rate
        assert reject.yield_loss_rate >= full.yield_loss_rate

    def test_invalid_policy_rejected(self):
        model, test, cost = _setup()
        with pytest.raises(CompactionError, match="policy"):
            _floor(model, test, cost, "coin_flip")


class _AllGuardClassifier:
    """Stub that places every device in the guard band."""

    def __init__(self, feature_names):
        self.feature_names = tuple(feature_names)

    def predict_measurements(self, values):
        return np.zeros(np.asarray(values).shape[0], dtype=int)


class TestRetestEdgeCases:
    def test_zero_guard_band_devices(self):
        """delta=0 collapses the guard band: no device is ever
        retested and every policy produces the same outcome."""
        model, test, cost = _setup(delta=0.0)
        outcomes = {
            policy: _floor(model, test, cost, policy).dispose(test.values)
            for policy in ("full_retest", "accept", "reject")}
        for outcome in outcomes.values():
            assert not np.any(outcome.first_pass == GUARD)
            assert outcome.n_retested == 0
            # No guard devices -> no retest surcharge under any policy.
            assert outcome.cost == pytest.approx(
                cost.cost(model.feature_names) * len(test))
        reference = outcomes["full_retest"]
        for outcome in outcomes.values():
            assert np.array_equal(outcome.decisions, reference.decisions)

    def test_all_guard_band_population(self):
        """An all-guard first pass resolves purely by policy."""
        test = make_synthetic_dataset(n=150, seed=4)
        stub = _AllGuardClassifier(test.names[:3])
        cost = CostModel.uniform(test.names)

        full = _floor(stub, test, cost, "full_retest").run_dataset(
            test, keep_decisions=True)
        assert full.n_retested == len(test)
        assert np.array_equal(full.decisions, test.labels)
        assert full.n_yield_loss == full.n_defect_escape == 0

        accept = _floor(stub, test, cost, "accept").run_dataset(
            test, keep_decisions=True)
        assert np.all(accept.decisions == GOOD)
        assert accept.n_defect_escape == int(np.sum(test.labels == BAD))

        reject = _floor(stub, test, cost, "reject").run_dataset(
            test, keep_decisions=True)
        assert np.all(reject.decisions == BAD)
        assert reject.n_yield_loss == int(np.sum(test.labels == GOOD))

    def test_all_guard_cost_accounting_per_policy(self):
        """full_retest pays the complete set per guard device; the
        binning policies never pay a retest surcharge."""
        test = make_synthetic_dataset(n=80, seed=6)
        kept = list(test.names[:3])
        stub = _AllGuardClassifier(kept)
        cost = CostModel.uniform(test.names, cost=2.0)
        compacted = cost.cost(kept) * len(test)

        full = _floor(stub, test, cost, "full_retest").run_dataset(test)
        assert full.total_cost == pytest.approx(
            compacted + cost.full_cost() * len(test))
        for policy in ("accept", "reject"):
            outcome = _floor(stub, test, cost, policy).run_dataset(test)
            assert outcome.n_retested == 0
            assert outcome.total_cost == pytest.approx(compacted)


class TestCostAccounting:
    def test_compacted_program_cheaper(self):
        model, test, cost = _setup()
        outcome = _floor(model, test, cost).run_dataset(test)
        assert outcome.total_cost < outcome.full_cost
        assert 0.0 < outcome.cost_reduction < 1.0

    def test_retest_adds_full_cost_per_guard_device(self):
        model, test, cost = _setup()
        outcome = _floor(model, test, cost).run_dataset(test)
        per_device = cost.cost(model.feature_names)
        expected = (per_device * len(test)
                    + cost.full_cost() * outcome.n_retested)
        assert outcome.total_cost == pytest.approx(expected)

    def test_no_cost_model_means_zero_costs(self):
        model, test, _ = _setup()
        outcome = _floor(model, test).run_dataset(test)
        assert outcome.total_cost == 0.0
        assert outcome.cost_reduction == 0.0

    def test_summary_mentions_key_numbers(self):
        model, test, cost = _setup()
        text = _floor(model, test, cost).run_dataset(test).summary()
        assert "shipped" in text and "retested" in text


class TestLookupTableProgram:
    def test_program_runs_from_lookup_table(self):
        model, test, cost = _setup()
        lut = LookupTable(model, resolution=13)
        outcome = _floor(model, test, cost, lookup=lut).run_dataset(
            test, keep_decisions=True)
        assert outcome.yield_loss_rate + outcome.defect_escape_rate < 0.1
        # The LUT path and the live-model path broadly agree.
        live = _floor(model, test, cost).run_dataset(
            test, keep_decisions=True)
        agreement = np.mean(outcome.decisions == live.decisions)
        assert agreement > 0.9
