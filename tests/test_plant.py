"""Plant physics and PLC control law tests."""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given

from histchain.config import SimConfig
from histchain.plant import TwoTankPlant, default_plcs, plc_control, read_sensor


def make_plant(l1=0.0, l2=0.0, cap=10.0, a1=False, a2=False, a3=False):
    plant = TwoTankPlant(SimConfig(capacity=cap))
    plant.tanks.levels.update({1: l1, 2: l2})
    plant.valves.update({"A1": a1, "A2": a2, "A3": a3})
    return plant


def run_steps(plant, n):
    for _ in range(n):
        plant.step()
    return plant.tanks.levels


class TestStepPlant:
    def test_all_closed_levels_unchanged(self):
        levels = run_steps(make_plant(l1=4.0, l2=2.0), 5)
        assert levels == {1: 4.0, 2: 2.0}

    def test_fill_only_hand_integration(self):
        # Oracle: integrate the difference equation one tick at a time.
        level = 4.0
        for _ in range(2):
            level = level + 1.0
        levels = run_steps(make_plant(l1=4.0, a1=True), 2)
        assert levels[1] == level == 6.0

    def test_clamp_at_capacity(self):
        levels = run_steps(make_plant(l1=10.0, a1=True), 1)
        assert levels[1] == 10.0

    def test_clamp_at_zero(self):
        levels = run_steps(make_plant(l2=0.5, a3=True), 1)
        assert levels[2] == 0.0

    def test_transfer_conserves_between_tanks(self):
        levels = run_steps(make_plant(l1=5.0, l2=2.0, a2=True), 3)
        assert levels == {1: 2.0, 2: 5.0}

    def test_flow_rates_come_from_the_config(self):
        plant = TwoTankPlant(SimConfig(flow_rate_a1=0.5, flow_rate_a2=0.25))
        plant.valves.update({"A1": True, "A2": True})
        assert run_steps(plant, 2) == {1: 0.5, 2: 0.5}

    @given(
        l1=st.floats(min_value=3.0, max_value=7.0),
        l2=st.floats(min_value=3.0, max_value=7.0),
        a1=st.booleans(), a2=st.booleans(), a3=st.booleans(),
    )
    def test_conservation_without_clamping(self, l1, l2, a1, a2, a3):
        # With levels mid-range and unit flows, one tick can never clamp, so the
        # total water change equals inlet minus outlet.
        levels = run_steps(make_plant(l1=l1, l2=l2, a1=a1, a2=a2, a3=a3), 1)
        total_before = l1 + l2
        total_after = levels[1] + levels[2]
        expected = (1.0 if a1 else 0.0) - (1.0 if a3 else 0.0)
        assert total_after - total_before == pytest.approx(expected)

    @given(
        l1=st.floats(min_value=0.0, max_value=10.0),
        l2=st.floats(min_value=0.0, max_value=10.0),
        a1=st.booleans(), a2=st.booleans(), a3=st.booleans(),
        n=st.integers(min_value=1, max_value=20),
    )
    def test_levels_stay_in_bounds(self, l1, l2, a1, a2, a3, n):
        levels = run_steps(make_plant(l1=l1, l2=l2, a1=a1, a2=a2, a3=a3), n)
        assert all(0.0 <= level <= 10.0 for level in levels.values())


class TestReadSensor:
    def test_floor_quantization(self):
        assert read_sensor(make_plant(l1=6.9).tanks, "S1", 0) == 6

    def test_empty_tank(self):
        assert read_sensor(make_plant().tanks, "S2", 0) == 0

    def test_repeat_reads_identical(self):
        tanks = make_plant(l1=4.2).tanks
        first = read_sensor(tanks, "S1", 17, noise_seed=99)
        second = read_sensor(tanks, "S1", 17, noise_seed=99)
        assert first == second

    @given(level=st.floats(min_value=0.0, max_value=10.0),
           tick=st.integers(min_value=0, max_value=10_000))
    def test_noise_stays_quantized_and_bounded(self, level, tick):
        value = read_sensor(make_plant(l1=level).tanks, "S1", tick, noise_seed=5)
        assert isinstance(value, int)
        assert 0 <= value <= 10
        assert abs(value - math.floor(level)) <= 1


class TestPlcControl:
    def setup_method(self):
        self.plc1, self.plc2 = default_plcs(SimConfig(setpoint_low=3, setpoint_high=6))

    def test_plc1_opens_below_low(self):
        assert plc_control(self.plc1, 1) == {"A1": True}

    def test_plc1_closes_above_high(self):
        assert plc_control(self.plc1, 7) == {"A1": False}

    def test_plc1_holds_in_band(self):
        # An in-band reading commands nothing, so the valve keeps its position.
        for current in (True, False):
            plant = make_plant(a1=current)
            for reading in (3, 5, 6):
                commands = plc_control(self.plc1, reading)
                assert commands == {}
                plant.valves.update(commands)
                assert plant.valves["A1"] is current

    def test_plc2_mirrored_law(self):
        assert plc_control(self.plc2, 1) == {"A2": True, "A3": False}
        assert plc_control(self.plc2, 7) == {"A2": False, "A3": True}
        assert plc_control(self.plc2, 4) == {}

    def test_pure_no_mutation(self):
        before = (dict(self.plc2.below), dict(self.plc2.above))
        for reading in (1, 4, 7):
            plc_control(self.plc2, reading)
        assert (self.plc2.below, self.plc2.above) == before


def run_closed_loop(ticks, seed=None):
    cfg = SimConfig()
    plant = TwoTankPlant(cfg)
    plcs = default_plcs(cfg)
    levels = []
    readings = []
    for t in range(ticks):
        for plc in plcs:
            reading = read_sensor(plant.tanks, plc.sensor_id, t, noise_seed=seed)
            plant.valves.update(plc_control(plc, reading))
            readings.append(reading)
        levels.append((plant.tanks.levels[1], plant.tanks.levels[2]))
        plant.step()
    return levels, readings


class TestClosedLoop:
    def test_band_after_transient(self):
        # Reference loop: 600 ticks from empty; levels settle into the
        # hysteresis band [setpoint_low-1, setpoint_high+1] = [2, 7].
        levels, readings = run_closed_loop(600)
        settled = levels[100:]
        assert all(2.0 <= l1 <= 7.0 and 2.0 <= l2 <= 7.0 for l1, l2 in settled)
        assert all(isinstance(v, int) and 0 <= v <= 10 for v in readings)

    def test_steady_state_readings_in_stored_band(self):
        _, readings = run_closed_loop(600)
        assert set(readings[200:]) <= {2, 3, 4, 5, 6, 7}

    def test_deterministic_reading_sequence(self):
        _, first = run_closed_loop(300, seed=11)
        _, second = run_closed_loop(300, seed=11)
        assert first == second
