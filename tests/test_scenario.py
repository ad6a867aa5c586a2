"""Unit conversions, config parsing, and scenario construction."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aris_emf.channel import TX_ANTENNAS
from aris_emf.scenario import (ConfigError, db_to_linear,
                               dbm_to_watts, desk_scenario, load_scenario,
                               load_scenario_text, noise_power,
                               sample_user_positions, save_scenario,
                               scenario_with, watts_to_dbm)


def test_dbm_to_watts_known_points():
    assert dbm_to_watts(0.0) == pytest.approx(0.001, rel=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(26.0) == pytest.approx(0.398107, rel=1e-6)


def test_noise_power_known_points():
    assert noise_power(-174.0, 1.0) == pytest.approx(10 ** (-20.4), rel=1e-12)
    assert noise_power(-174.0, 240e3) == pytest.approx(9.55e-16, rel=1e-3)
    assert noise_power(-174.0, 10.0) == pytest.approx(10 * noise_power(-174.0, 1.0), rel=1e-12)


@given(st.floats(min_value=-200.0, max_value=100.0))
def test_watts_dbm_round_trip(x_dbm):
    w = dbm_to_watts(x_dbm)
    assert watts_to_dbm(w) == pytest.approx(x_dbm, rel=1e-12, abs=1e-12)


@given(st.floats(min_value=1e-30, max_value=1e6))
def test_dbm_watts_round_trip(w):
    assert dbm_to_watts(watts_to_dbm(w)) == pytest.approx(w, rel=1e-12)


def test_user_positions_inside_disk():
    rng = np.random.default_rng(0)
    pos = sample_user_positions(rng, 100.0, 8)
    assert pos.shape == (8, 3)
    assert np.all(np.hypot(pos[:, 0], pos[:, 1]) <= 100.0)
    assert np.all(pos[:, 2] == 0.0)


def test_user_positions_empty():
    pos = sample_user_positions(np.random.default_rng(0), 100.0, 0)
    assert pos.shape == (0, 3)


def test_user_positions_mean_radius():
    # disk-uniform radial mean is 2R/3
    rng = np.random.default_rng(123)
    pos = sample_user_positions(rng, 100.0, 100000)
    mean_r = np.hypot(pos[:, 0], pos[:, 1]).mean()
    assert mean_r == pytest.approx(200.0 / 3.0, rel=0.01)


def test_user_positions_deterministic():
    a = sample_user_positions(np.random.default_rng(42), 50.0, 16)
    b = sample_user_positions(np.random.default_rng(42), 50.0, 16)
    assert a.tobytes() == b.tobytes()


FULL_CFG = """
# full-scale configuration
num_users = 8
num_ris_elements = 80
num_subcarriers = 80
rx_antennas = 32
seed = 3
"""


def test_load_scenario_counts(tmp_path):
    path = tmp_path / "full.cfg"
    path.write_text(FULL_CFG)
    sc = load_scenario(path)
    assert sc.params.num_users == 8
    assert sc.params.num_ris_elements == 80
    assert sc.params.num_subcarriers == 80
    assert sc.params.rx_antennas == 32


def test_defaults_fill_missing_fields():
    sc = load_scenario_text("num_users = 8")
    p = sc.params
    assert p.v_max == 25.0
    assert p.slot_duration == 15.0
    assert p.flight_time == 300.0
    assert p.num_slots == 20
    assert p.direct_pathloss_exp == pytest.approx(3.908)
    assert p.p_max == pytest.approx(dbm_to_watts(26.0), rel=1e-12)
    assert p.los_pathloss_ref == pytest.approx(db_to_linear(-24.91), rel=1e-12)
    assert p.nlos_pathloss_ref == pytest.approx(db_to_linear(-19.96), rel=1e-12)
    assert p.rician_factors[0] == pytest.approx(db_to_linear(3.0), rel=1e-12)
    assert p.ris_pathloss_exps == (2.2, 2.2)
    assert p.antenna_spacing_ratio == 0.5
    # the published per-user targets apply for the 8-user default
    assert sc.rate_targets[0] == pytest.approx(10e6)
    assert sc.rate_targets[7] == pytest.approx(3.1e6)


def test_slot_count_must_divide():
    with pytest.raises((ConfigError, ValueError), match="slot_duration|num_slots"):
        load_scenario_text("flight_time = 100\nslot_duration = 15")
    # one slot divides, but a flight path needs a start and an end slot
    with pytest.raises(ConfigError, match=r"flight_time / slot_duration must give at least 2"):
        load_scenario_text("flight_time = 15\nslot_duration = 15")
    with pytest.raises(ConfigError, match="slot_duration must be positive"):
        load_scenario_text("slot_duration = 0")


def test_unknown_key_rejected_with_line():
    # the last four are constants or derived values of the model, not keys
    for key in ("bogus_key", "carrier_freq", "tx_antennas", "num_slots",
                "channel.departure_uses_x"):
        with pytest.raises(ConfigError, match=f"line 2: unknown key '{key}'"):
            load_scenario_text(f"num_users = 4\n{key} = 3")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        load_scenario_text("v_max = 20\nv_max = 21")


def test_parse_error_reports_line():
    with pytest.raises(ConfigError, match="line 3"):
        load_scenario_text("num_users = 4\n\nnot a pair\n")


def test_noise_psd_converted_from_dbm_per_hz():
    sc = load_scenario_text("noise_psd = -174")
    assert sc.params.noise_psd == pytest.approx(dbm_to_watts(-174.0), rel=1e-12)
    assert sc.params.noise_per_re == pytest.approx(9.55e-16, rel=1e-3)


def test_rates_length_checked():
    with pytest.raises(ConfigError, match="rates"):
        load_scenario_text("num_users = 4\nrates = [1e6, 2e6]")


def test_rate_targets_positive():
    with pytest.raises(ConfigError, match="positive"):
        load_scenario_text("num_users = 2\nrates = [1e6, -2e6]")


def test_scenario_round_trip(tmp_path):
    sc = desk_scenario(seed=11)
    path = tmp_path / "desk.cfg"
    save_scenario(sc, path)
    sc2 = load_scenario(path)
    assert sc2.params == sc.params
    assert sc2.rng_seed == sc.rng_seed
    assert sc2.cell_radius == sc.cell_radius
    assert np.array_equal(sc2.user_positions, sc.user_positions)
    assert np.array_equal(sc2.rate_targets, sc.rate_targets)
    assert np.array_equal(sc2.aris_start, sc.aris_start)
    assert np.array_equal(sc2.aris_end, sc.aris_end)
    assert sc2.sar_model.b == sc.sar_model.b


def test_max_slot_distance_derived():
    sc = desk_scenario()
    assert sc.params.max_slot_distance == pytest.approx(375.0)


def test_desk_profile_shape():
    sc = desk_scenario()
    assert sc.params.num_users == 4
    assert sc.params.num_subcarriers == 8
    assert sc.params.num_ris_elements == 16
    assert sc.params.rx_antennas == 8
    assert sc.params.num_slots == 6
    assert sc.user_positions.shape == (4, 3)
    # charging-station layout: both endpoints at the same corner
    assert np.array_equal(sc.aris_start, sc.aris_end)
    assert sc.aris_start[2] == sc.params.aris_height


def test_scenario_with_overrides():
    sc = desk_scenario()
    sc2 = scenario_with(sc, rx_antennas=16)
    assert sc2.params.rx_antennas == 16
    assert np.array_equal(sc2.user_positions, sc.user_positions)


def test_tx_antennas_fixed_at_two():
    assert TX_ANTENNAS == 2
    with pytest.raises(ConfigError, match="line 1: unknown key 'tx_antennas'"):
        load_scenario_text("tx_antennas = 4")


def test_sar_model_config_hook(tmp_path):
    model_file = tmp_path / "sar.txt"
    model_file.write_text(" ".join(["1", "0", "1"] + ["0"] * 17))
    sc = load_scenario_text(f"num_users = 2\nsar.model = {model_file}")
    assert sc.sar_model.b[0] == 1.0
    assert sc.sar_model.b[1] == 0.0
