"""Fault injector: determinism, stream independence, config validation."""

import pytest

from repro.errors import ConfigError
from repro.faults.config import FaultConfig
from repro.faults.injector import FaultInjector


def drain_reads(injector, count=2000):
    return [injector.on_read(ppa) for ppa in range(count)]


class TestConfigValidation:
    def test_defaults_are_all_off(self):
        config = FaultConfig()
        assert (config.read_fault_rate, config.program_fail_rate,
                config.erase_fail_rate,
                config.factory_bad_blocks) == (0, 0, 0, 0)
        assert config.power_loss_at is None

    @pytest.mark.parametrize("name", ["read_fault_rate", "program_fail_rate",
                                      "erase_fail_rate"])
    def test_rejects_rates_outside_unit_interval(self, name):
        with pytest.raises(ConfigError):
            FaultConfig(**{name: -0.1})
        with pytest.raises(ConfigError):
            FaultConfig(**{name: 1.5})

    def test_rejects_shares_summing_past_one(self):
        with pytest.raises(ConfigError):
            FaultConfig(read_transient_share=0.7, read_hard_share=0.4)

    def test_rejects_zero_retry_ceiling(self):
        with pytest.raises(ConfigError):
            FaultConfig(transient_max_retries=0)

    def test_rejects_negative_factory_bad(self):
        with pytest.raises(ConfigError):
            FaultConfig(factory_bad_blocks=-1)

    def test_rejects_negative_power_loss_time(self):
        with pytest.raises(ConfigError):
            FaultConfig(power_loss_at=-1.0)

    @pytest.mark.parametrize("at", [float("nan"), float("inf")])
    def test_rejects_non_finite_power_loss_time(self, at):
        # ``now < nan`` is false, so a NaN loss time would fire at once.
        with pytest.raises(ConfigError):
            FaultConfig(power_loss_at=at)


class TestDeterminism:
    def test_same_seed_same_read_stream(self):
        config = FaultConfig(seed=7, read_fault_rate=0.2,
                             read_transient_share=0.5, read_hard_share=0.1)
        a = drain_reads(FaultInjector(config))
        b = drain_reads(FaultInjector(config))
        assert a == b

    def test_different_seeds_diverge(self):
        base = dict(read_fault_rate=0.2, read_transient_share=0.5)
        a = drain_reads(FaultInjector(FaultConfig(seed=1, **base)))
        b = drain_reads(FaultInjector(FaultConfig(seed=2, **base)))
        assert a != b

    def test_program_stream_independent_of_read_stream(self):
        """Draining reads must not perturb program decisions (and vice
        versa) — each class owns its own derived RNG stream."""
        config = FaultConfig(seed=3, read_fault_rate=0.3,
                             program_fail_rate=0.05)
        lone = FaultInjector(config)
        programs_alone = [lone.on_program(b) for b in range(3000)]
        mixed = FaultInjector(config)
        drain_reads(mixed, 500)
        programs_mixed = [mixed.on_program(b) for b in range(3000)]
        assert programs_alone == programs_mixed

    def test_factory_bad_selection_is_deterministic_and_bounded(self):
        config = FaultConfig(seed=11, factory_bad_blocks=4)
        a = FaultInjector(config).factory_bad_blocks(64)
        b = FaultInjector(config).factory_bad_blocks(64)
        assert a == b
        assert len(a) == 4
        assert len(set(a)) == 4
        assert all(0 <= block < 64 for block in a)

    def test_factory_bad_never_consumes_whole_array(self):
        config = FaultConfig(factory_bad_blocks=100)
        chosen = FaultInjector(config).factory_bad_blocks(8)
        assert len(chosen) == 7  # always at least one usable block


class TestZeroRates:
    def test_zero_rates_never_fire(self):
        injector = FaultInjector(FaultConfig())
        assert all(f is None for f in drain_reads(injector, 500))
        assert not any(injector.on_program(b) for b in range(500))
        assert not any(injector.on_erase(b) for b in range(500))
        assert injector.stats.total_media_faults == 0

    def test_certain_rates_always_fire(self):
        injector = FaultInjector(FaultConfig(read_fault_rate=1.0,
                                             program_fail_rate=1.0,
                                             erase_fail_rate=1.0))
        assert all(f is not None for f in drain_reads(injector, 50))
        assert all(injector.on_program(b) for b in range(50))
        assert all(injector.on_erase(b) for b in range(50))
        assert injector.stats.read_faults == 50
        assert injector.stats.program_fails == 50
        assert injector.stats.erase_fails == 50


class TestSeverity:
    def test_hard_share_one_makes_every_fault_hard(self):
        injector = FaultInjector(FaultConfig(
            read_fault_rate=1.0, read_transient_share=0.0, read_hard_share=1.0))
        faults = drain_reads(injector, 100)
        assert all(f.hard for f in faults)
        assert injector.stats.read_faults_hard == 100

    def test_transient_share_one_bounds_retries(self):
        injector = FaultInjector(FaultConfig(
            read_fault_rate=1.0, read_transient_share=1.0,
            read_hard_share=0.0, transient_max_retries=3))
        faults = drain_reads(injector, 300)
        assert all(not f.hard for f in faults)
        assert all(1 <= f.retries_needed <= 3 for f in faults)
        assert injector.stats.read_faults_transient == 300

    def test_inline_share_needs_no_retries(self):
        injector = FaultInjector(FaultConfig(
            read_fault_rate=1.0, read_transient_share=0.0, read_hard_share=0.0))
        faults = drain_reads(injector, 100)
        assert all(f.retries_needed == 0 and not f.hard for f in faults)

    def test_fault_carries_its_ppa(self):
        injector = FaultInjector(FaultConfig(read_fault_rate=1.0))
        assert injector.on_read(1234).ppa == 1234


class TestPowerLoss:
    def test_fires_exactly_once(self):
        injector = FaultInjector(FaultConfig(power_loss_at=5.0))
        assert not injector.power_loss_due(4.9)
        assert injector.power_loss_due(5.0)
        assert not injector.power_loss_due(6.0)
        assert injector.stats.power_losses == 1

    def test_disabled_never_fires(self):
        injector = FaultInjector(FaultConfig())
        assert not injector.power_loss_due(1e9)
