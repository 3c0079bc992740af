"""Fleet planning: seed derivation purity, mix parsing, device lookup."""

import pytest

from repro.errors import WorkloadError
from repro.fleet.plan import (
    DEVICE_ID_DIGITS,
    DeviceSpec,
    FleetPlan,
    ScenarioMix,
    scenario_category,
)
from repro.rand import derive_rng
from repro.workloads.catalog import TESTING_SCENARIOS, TRAINING_SCENARIOS


class TestScenarioMix:
    def test_presets_cover_the_catalog(self):
        testing = ScenarioMix.parse("testing")
        training = ScenarioMix.parse("training")
        both = ScenarioMix.parse("all")
        assert testing.names() == [s.name for s in TESTING_SCENARIOS]
        assert training.names() == [s.name for s in TRAINING_SCENARIOS]
        assert len(both.names()) == len(testing.names()) + len(
            training.names())

    def test_explicit_weights_parse(self):
        mix = ScenarioMix.parse("test-ransom-only:3, test-iometer-cryptoshield:1")
        assert mix.entries == (
            ("test-ransom-only", 3.0),
            ("test-iometer-cryptoshield", 1.0),
        )

    def test_uniform_list_defaults_to_weight_one(self):
        mix = ScenarioMix.parse("test-ransom-only,test-iometer-cryptoshield")
        assert all(weight == 1.0 for _, weight in mix.entries)

    def test_spec_round_trip(self):
        mix = ScenarioMix.parse("test-ransom-only:3,test-iometer-cryptoshield:1")
        assert ScenarioMix.parse(mix.to_spec()) == mix

    def test_bad_specs_rejected(self):
        with pytest.raises(WorkloadError):
            ScenarioMix.parse("")
        with pytest.raises(WorkloadError):
            ScenarioMix.parse("name:zero")
        with pytest.raises(WorkloadError):
            ScenarioMix.parse("name:-1")

    def test_unknown_name_resolves_lazily(self):
        """Unknown names parse fine (they fail inside the worker, as a
        contained error record) but validate() rejects them up front."""
        mix = ScenarioMix.parse("no-such-scenario")
        with pytest.raises(WorkloadError):
            mix.validate()
        with pytest.raises(WorkloadError):
            mix.resolve("no-such-scenario")

    def test_draw_is_weight_proportional(self):
        mix = ScenarioMix.parse("test-ransom-only:9,test-iometer-cryptoshield:1")
        rng = derive_rng(0, "test-draws")
        draws = [mix.draw(rng) for _ in range(2000)]
        share = draws.count("test-ransom-only") / len(draws)
        assert 0.85 < share < 0.95

    def test_draw_consumes_exactly_one_sample(self):
        """Fixed stream consumption regardless of mix size — the purity
        prerequisite: adding scenarios must not shift later draws."""
        small = ScenarioMix.parse("test-ransom-only")
        big = ScenarioMix.parse("all")
        rng_a = derive_rng(5, "consume")
        rng_b = derive_rng(5, "consume")
        small.draw(rng_a)
        big.draw(rng_b)
        assert rng_a.random() == rng_b.random()


class TestFleetPlan:
    def test_device_spec_is_pure(self):
        """Same (seed, index) gives the same spec from distinct plans."""
        plan_a = FleetPlan(devices=100, seed=42)
        plan_b = FleetPlan(devices=1000, seed=42)
        for index in (0, 7, 99):
            assert plan_a.device_spec(index) == plan_b.device_spec(index)

    def test_different_seeds_diverge(self):
        a = FleetPlan(devices=10, seed=1).device_spec(3)
        b = FleetPlan(devices=10, seed=2).device_spec(3)
        assert a.device_id != b.device_id
        assert a.seed != b.seed

    def test_device_ids_unique_across_fleet(self):
        plan = FleetPlan(devices=500, seed=7)
        ids = [spec.device_id for spec in plan.specs()]
        assert len(set(ids)) == len(ids)
        assert all(len(i) == DEVICE_ID_DIGITS for i in ids)

    def test_benign_fraction_respected(self):
        plan = FleetPlan(devices=400, seed=3, benign_fraction=0.5)
        app_bearing = [s for s in plan.specs()
                       if scenario_category(s.scenario) != "ransom_only"]
        share = sum(s.benign for s in app_bearing) / len(app_bearing)
        assert 0.4 < share < 0.6

    def test_benign_fraction_zero_and_one(self):
        none_benign = FleetPlan(devices=50, seed=3, benign_fraction=0.0)
        assert not any(s.benign for s in none_benign.specs())
        all_benign = FleetPlan(devices=50, seed=3, benign_fraction=1.0)
        app = [s for s in all_benign.specs()
               if scenario_category(s.scenario) != "ransom_only"]
        assert all(s.benign for s in app)

    def test_ransom_only_never_benign(self):
        plan = FleetPlan(devices=200, seed=9, benign_fraction=1.0,
                         mix=ScenarioMix.parse("test-ransom-only"))
        assert not any(spec.benign for spec in plan.specs())

    def test_find_device_by_prefix(self):
        plan = FleetPlan(devices=64, seed=7)
        spec = plan.device_spec(11)
        assert plan.find_device(spec.device_id) == spec
        assert plan.find_device(spec.device_id[:6]) == spec

    def test_find_device_errors(self):
        plan = FleetPlan(devices=64, seed=7)
        with pytest.raises(WorkloadError):
            plan.find_device("zzzz")
        with pytest.raises(WorkloadError):
            plan.find_device("")  # would match everything
        with pytest.raises(WorkloadError):
            plan.find_device(plan.device_id(0)[:1])  # almost surely ambiguous

    def test_index_bounds_enforced(self):
        plan = FleetPlan(devices=4, seed=0)
        with pytest.raises(WorkloadError):
            plan.device_spec(4)
        with pytest.raises(WorkloadError):
            plan.device_spec(-1)

    def test_dict_round_trip(self):
        plan = FleetPlan(devices=12, seed=5,
                         mix=ScenarioMix.parse("test-ransom-only:2,test-iometer-cryptoshield"),
                         benign_fraction=0.25, num_lbas=8_000,
                         duration=20.0, queue_capacity=500)
        assert FleetPlan.from_dict(plan.to_dict()) == plan

    def test_dict_round_trip_none_queue(self):
        plan = FleetPlan(devices=3, seed=1)
        rebuilt = FleetPlan.from_dict(plan.to_dict())
        assert rebuilt.queue_capacity is None
        assert rebuilt == plan

    def test_invalid_plans_rejected(self):
        with pytest.raises(WorkloadError):
            FleetPlan(devices=0)
        with pytest.raises(WorkloadError):
            FleetPlan(devices=1, benign_fraction=1.5)
        with pytest.raises(WorkloadError):
            FleetPlan(devices=1, num_lbas=10)
        with pytest.raises(WorkloadError):
            FleetPlan(devices=1, duration=0.0)

    def test_spec_dict_form(self):
        spec = DeviceSpec(index=3, device_id="abc123", scenario="s",
                          seed=99, benign=True)
        assert spec.to_dict() == {"index": 3, "device_id": "abc123",
                                  "scenario": "s", "seed": 99,
                                  "benign": True}


class TestScenarioCategory:
    def test_known_and_unknown(self):
        assert scenario_category("test-ransom-only") == "ransom_only"
        assert scenario_category("no-such") == "unknown"
