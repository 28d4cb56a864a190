"""Tests for the per-cycle power model and Cacti-style energies."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DVFS_MODES, CMPConfig
from repro.power.cacti import (
    StructureEnergies,
    cache_access_energy,
    sram_access_energy,
    wire_energy_per_mm,
)
from repro.power.model import (
    CLOCK_POWER_EU,
    COMMIT_FRAC,
    COMPLETE_FRAC,
    FETCH_FRAC,
    TOKEN_UNIT_EU,
    CycleEvents,
    EnergyModel,
)


@pytest.fixture
def model():
    return EnergyModel(CMPConfig(num_cores=4))


def busy_events(occ=40, fetched=4):
    ev = CycleEvents()
    ev.fetched_energy = fetched * 6.0
    ev.completed_energy = fetched * 6.0
    ev.committed_energy = fetched * 6.0
    ev.n_fetched = fetched
    ev.n_branches = 1
    ev.rob_occupancy = occ
    return ev


class TestCacti:
    def test_bigger_caches_cost_more(self):
        assert sram_access_energy(1 << 20, 4) > sram_access_energy(1 << 16, 4)

    def test_higher_associativity_costs_more(self):
        assert sram_access_energy(1 << 16, 8) > sram_access_energy(1 << 16, 1)

    def test_technology_scaling_quadratic(self):
        e32 = sram_access_energy(1 << 16, 2, feature_nm=32)
        e64 = sram_access_energy(1 << 16, 2, feature_nm=64)
        assert e64 == pytest.approx(4 * e32)

    def test_l2_costs_more_than_l1(self):
        cfg = CMPConfig()
        s = StructureEnergies.from_config(cfg)
        assert s.l2_access > s.l1d_access

    def test_memory_dominates(self):
        s = StructureEnergies.from_config(CMPConfig())
        assert s.mem_access > 5 * s.l2_access

    def test_validation(self):
        with pytest.raises(ValueError):
            sram_access_energy(0, 2)

    def test_wire_energy_scales_with_feature(self):
        assert wire_energy_per_mm(64) > wire_energy_per_mm(32)

    def test_cache_access_energy_wrapper(self):
        cfg = CMPConfig()
        assert cache_access_energy(cfg.mem.l1d) == pytest.approx(
            sram_access_energy(64 * 1024, 2)
        )


class TestCyclePower:
    def test_busy_exceeds_idle(self, model):
        busy = model.cycle_power(busy_events())
        idle = model.cycle_power(CycleEvents())
        assert busy > idle > 0

    def test_more_occupancy_more_power(self, model):
        lo = model.cycle_power(busy_events(occ=8))
        hi = model.cycle_power(busy_events(occ=120))
        assert hi > lo

    def test_voltage_scaling_quadratic_on_dynamic(self, model):
        ev = busy_events()
        p_full = model.cycle_power(ev, v_scale=1.0)
        p_low = model.cycle_power(ev, v_scale=0.9)
        leak_full = model.leakage(1.0, model.temp_ref)
        leak_low = model.leakage(0.9, model.temp_ref)
        dyn_ratio = (p_low - leak_low) / (p_full - leak_full)
        assert dyn_ratio == pytest.approx(0.81, abs=0.01)

    def test_inactive_cycle_is_cheap(self, model):
        ev = busy_events()
        ev.active = False
        assert model.cycle_power(ev) < model.cycle_power(busy_events())

    def test_memory_event_adds_big_energy(self, model):
        ev = busy_events()
        base = model.cycle_power(ev)
        ev.mem_accesses = 1
        assert model.cycle_power(ev) - base == pytest.approx(
            model.struct.mem_access, rel=0.01
        )

    def test_ptht_charged_only_when_enabled(self, model):
        ev = busy_events()
        off = model.cycle_power(ev)
        model.charge_ptht = True
        on = model.cycle_power(ev)
        assert on > off

    def test_ptb_overhead_multiplier(self, model):
        ev = busy_events()
        base = model.cycle_power(ev)
        model.ptb_overhead_fraction = 0.01
        assert model.cycle_power(ev) == pytest.approx(base * 1.01)


def plain_cycle_power(model, ev, v_scale=1.0, temp_k=None):
    """``EnergyModel.cycle_power`` as the plain formula: every term
    summed, zero or not, through the ``leakage`` and ``clock`` methods."""
    temp = model.temp_ref if temp_k is None else temp_k
    leak = model.leakage(v_scale, temp)
    if not ev.active:
        v2 = v_scale * v_scale
        return (
            model.clock_power * model.gating_residue * v2
            + ev.rob_occupancy * model.token_unit * v2 * 0.5
            + leak
        )
    s = model.struct
    dyn = (
        ev.fetched_energy * FETCH_FRAC
        + ev.completed_energy * COMPLETE_FRAC
        + ev.committed_energy * COMMIT_FRAC
        + ev.n_branches * s.bpred_access
        + ev.l2_accesses * s.l2_access
        + ev.mem_accesses * s.mem_access
        + ev.flit_hops * s.noc_flit_hop
        + ev.invalidations * s.invalidation
        + ev.rob_occupancy * model.token_unit
    )
    if model.charge_ptht:
        dyn += ev.n_fetched * s.ptht_access
    activity = min(
        1.0, (ev.n_fetched + ev.rob_occupancy * 0.02) * model._act_norm * 2.0
    )
    v2 = v_scale * v_scale
    total = dyn * v2 + model.clock(activity, v_scale) + leak
    if model.ptb_overhead_fraction:
        total *= 1.0 + model.ptb_overhead_fraction
    return total


# Every counter is exactly zero in about half the draws, so the zero-term
# shortcuts of cycle_power are taken and skipped in every combination.
_energy = st.one_of(st.just(0.0), st.floats(0.0, 400.0))
_count = st.one_of(st.just(0), st.integers(1, 40))

#: Every v_scale a core can run at: the DVFS voltages (DFS keeps 1.0).
_V_SCALES = sorted({v for v, _ in DVFS_MODES})


@st.composite
def cycle_events(draw):
    ev = CycleEvents()
    ev.fetched_energy = draw(_energy)
    ev.completed_energy = draw(_energy)
    ev.committed_energy = draw(_energy)
    ev.n_fetched = draw(_count)
    ev.n_branches = draw(_count)
    ev.l2_accesses = draw(_count)
    ev.mem_accesses = draw(_count)
    ev.flit_hops = draw(_count)
    ev.invalidations = draw(_count)
    ev.rob_occupancy = draw(st.one_of(st.just(0), st.integers(1, 128)))
    ev.active = draw(st.booleans())
    return ev


#: One model for every draw; each draw sets both overhead switches.
_MODEL = EnergyModel(CMPConfig(num_cores=4))


class TestCyclePowerMatchesPlainFormula:
    @settings(max_examples=400, deadline=None)
    @given(
        ev=cycle_events(),
        v_scale=st.sampled_from(_V_SCALES),
        temp_k=st.one_of(st.none(), st.floats(300.0, 400.0)),
        charge_ptht=st.booleans(),
        overhead=st.booleans(),
    )
    def test_bit_identical(self, ev, v_scale, temp_k, charge_ptht, overhead):
        model = _MODEL
        model.charge_ptht = charge_ptht
        model.ptb_overhead_fraction = (
            model.cfg.ptb.power_overhead if overhead else 0.0
        )
        got = model.cycle_power(ev, v_scale, temp_k)
        want = plain_cycle_power(model, ev, v_scale, temp_k)
        assert got.hex() == want.hex()


class TestLeakage:
    def test_grows_exponentially_with_temperature(self, model):
        t = model.temp_ref
        l1 = model.leakage(1.0, t)
        l2 = model.leakage(1.0, t + 30)
        assert l2 / l1 == pytest.approx(math.e, rel=0.01)

    def test_linear_in_voltage(self, model):
        t = model.temp_ref
        assert model.leakage(0.5, t) == pytest.approx(
            0.5 * model.leakage(1.0, t)
        )


class TestDerivedConstants:
    def test_peak_exceeds_typical_busy(self, model):
        assert model.peak_core_power > model.cycle_power(busy_events(occ=40))

    def test_uncontrollable_below_half_budget(self, model):
        budget = 0.5 * model.peak_core_power
        assert model.uncontrollable_power < budget

    def test_global_peak_scales_linearly(self, model):
        assert model.global_peak_power(8) == pytest.approx(
            8 * model.peak_core_power
        )

    def test_token_eu_roundtrip(self, model):
        assert model.eu_to_tokens(model.tokens_to_eu(123.0)) == pytest.approx(123.0)
        assert model.tokens_to_eu(1.0) == TOKEN_UNIT_EU

    def test_clock_gating_floor(self, model):
        gated = model.clock(0.0, 1.0)
        full = model.clock(1.0, 1.0)
        assert gated == pytest.approx(CLOCK_POWER_EU * model.gating_residue)
        assert full == pytest.approx(CLOCK_POWER_EU)
