"""Tests for the P4 primitives: tables, registers, packet generator and
the resource model."""

import pytest

from repro.net.p4.registers import RegisterArray
from repro.net.p4.resources import PipelineResourceModel
from repro.net.p4.tables import MatchActionTable
from repro.sim.engine import Simulator
from repro.sim.units import US
from tests.packetgen import PacketGenerator


class TestMatchActionTable:
    def test_install_and_lookup(self):
        table = MatchActionTable("t", capacity=4, key_bits=48, value_bits=8)
        table.install("key", 42)
        assert table.lookup("key") == 42
        assert table.lookup("missing") is None

    def test_capacity_enforced(self):
        table = MatchActionTable("t", capacity=2, key_bits=8, value_bits=8)
        table.install("a", 1)
        table.install("b", 2)
        with pytest.raises(RuntimeError):
            table.install("c", 3)

    def test_overwrite_existing_within_capacity(self):
        table = MatchActionTable("t", capacity=1, key_bits=8, value_bits=8)
        table.install("a", 1)
        table.install("a", 2)  # No error; same key.
        assert table.lookup("a") == 2

    def test_remove(self):
        table = MatchActionTable("t", capacity=2, key_bits=8, value_bits=8)
        table.install("a", 1)
        table.remove("a")
        assert "a" not in table
        table.remove("a")  # Idempotent.

    def test_hit_counters(self):
        table = MatchActionTable("t", capacity=2, key_bits=8, value_bits=8)
        table.install("a", 1)
        table.lookup("a")
        table.lookup("b")
        assert table.lookups == 2
        assert table.hits == 1


class TestRegisterArray:
    def test_read_write(self):
        registers = RegisterArray("r", size=8, width_bits=32)
        registers.write(3, 99)
        assert registers.read(3) == 99
        assert registers.read(0) == 0

    def test_width_masking(self):
        registers = RegisterArray("r", size=2, width_bits=8)
        registers.write(0, 0x1FF)
        assert registers.read(0) == 0xFF

    def test_saturating_increment(self):
        registers = RegisterArray("r", size=1, width_bits=8)
        registers.write(0, 254)
        assert registers.increment(0, 1) == 255
        assert registers.increment(0, 1) == 255  # Saturates, not wraps.

    def test_bounds_checked(self):
        registers = RegisterArray("r", size=4, width_bits=32)
        with pytest.raises(IndexError):
            registers.read(4)
        with pytest.raises(IndexError):
            registers.write(-1, 0)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            RegisterArray("r", size=0, width_bits=32)


class TestPacketGenerator:
    def test_rate_matches_timeout_division(self):
        sim = Simulator()
        ticks = []
        generator = PacketGenerator.for_timeout(
            sim, ticks.append, timeout_ns=450 * US, ticks_per_timeout=50
        )
        assert generator.period == 9 * US
        sim.run_until(90 * US)
        assert len(ticks) == 11  # t=0 inclusive through t=90us.

    def test_paper_parameters_give_50k_pps(self):
        sim = Simulator()
        generator = PacketGenerator.for_timeout(
            sim, lambda t: None, timeout_ns=450 * US, ticks_per_timeout=50
        )
        assert generator.rate_pps == pytest.approx(1e9 / 9000)

    def test_tick_payloads_numbered(self):
        sim = Simulator()
        ticks = []
        PacketGenerator(sim, ticks.append, period_ns=1000)
        sim.run_until(3000)
        assert [t.tick for t in ticks] == [0, 1, 2, 3]

    def test_invalid_ticks_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PacketGenerator.for_timeout(sim, lambda t: None, 1000, 0)


class TestResourceModel:
    def test_paper_percentages_at_256(self):
        """The §8.6 table: crossbar 5.2, ALU 10.4, gateway 14.1,
        SRAM 5.3, hash 9.5 (percent)."""
        usage = PipelineResourceModel().usage(256, 256)
        assert usage.percent("crossbar") == pytest.approx(5.2, abs=0.3)
        assert usage.percent("alu") == pytest.approx(10.4, abs=0.5)
        assert usage.percent("gateway") == pytest.approx(14.1, abs=0.5)
        assert usage.percent("sram_bits") == pytest.approx(5.3, abs=0.3)
        assert usage.percent("hash_bits") == pytest.approx(9.5, abs=0.5)

    def test_only_sram_grows_meaningfully_with_scale(self):
        model = PipelineResourceModel()
        small = model.usage(64, 64)
        large = model.usage(1024, 1024)
        sram_growth = large.percent("sram_bits") - small.percent("sram_bits")
        for other in ("alu", "gateway"):
            assert large.percent(other) - small.percent(other) < sram_growth / 4

    def test_hundreds_of_rus_fit(self):
        model = PipelineResourceModel()
        # ~5.9k entries exhaust one pipeline's SRAM.
        assert model.usage(6000, 6000).fraction["sram_bits"] >= 1.0

    def test_invalid_deployment_rejected(self):
        with pytest.raises(ValueError):
            PipelineResourceModel().usage(0, 1)
