"""The config schema: saved files reproduce the shipped configs byte for
byte, every system parameter is read by the package and survives a
save/load round trip, and the sweep command line reads values in the config
file's units."""

import ast
import glob
import os
from dataclasses import fields

import pytest

from aris_emf.cli import main
from aris_emf.harness import SweepSpec, monte_carlo_sweep
from aris_emf.scenario import (_KINDS, ConfigError, SystemParams, db_to_linear,
                               desk_scenario, dbm_to_watts, load_scenario,
                               load_scenario_text, save_scenario,
                               scenario_from_options)

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "aris_emf")

# One valid non-default value per SystemParams field. Each dB or dBm value
# is the image of a file value, so the save must find a preimage that loads
# bit-exactly.
NON_DEFAULT = {
    "num_users": 3,
    "num_subcarriers": 12,
    "num_ris_elements": 24,
    "rx_antennas": 6,
    "bs_height": 30.0,
    "aris_height": 120.0,
    "slot_duration": 10.0,
    "flight_time": 450.0,
    "v_max": 20.0,
    "bandwidth_per_re": 180e3,
    "los_pathloss_ref": db_to_linear(-30.5),
    "nlos_pathloss_ref": db_to_linear(-18.37),
    "p_max": dbm_to_watts(23.7),
    "noise_psd": dbm_to_watts(-170.0),
    "direct_pathloss_exp": 3.5,
    "rician_factors": (db_to_linear(5.0), db_to_linear(2.31)),
    "ris_pathloss_exps": (2.0, 2.5),
    "antenna_spacing_ratio": 0.25,
}


@pytest.mark.parametrize("name", ["desk", "full"])
def test_save_reproduces_shipped_configs(name, tmp_path):
    shipped = os.path.join(CONFIGS, f"{name}.cfg")
    out = tmp_path / "out.cfg"
    save_scenario(load_scenario(shipped), out)
    with open(shipped, "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_every_parameter_is_read():
    # a field that no module reads cannot change a result
    reads = set()
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        reads.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    assert not {f.name for f in fields(SystemParams)} - reads


def test_saved_file_names_every_parameter(tmp_path):
    params = {f.name for f in fields(SystemParams)}
    assert set(NON_DEFAULT) == params
    path = tmp_path / "desk.cfg"
    save_scenario(desk_scenario(), path)
    keys = {line.split(" = ")[0] for line in path.read_text().splitlines()}
    assert params <= keys


@pytest.mark.parametrize("name", sorted(NON_DEFAULT))
def test_every_parameter_survives_save_and_load(name, tmp_path):
    default = getattr(SystemParams(), name)
    value = NON_DEFAULT[name]
    assert value != default
    scn = scenario_from_options({name: value})
    path = tmp_path / "scn.cfg"
    save_scenario(scn, path)
    back = load_scenario(path).params
    assert getattr(back, name) == value
    assert type(getattr(back, name)) is type(default)
    assert back == scn.params


def test_save_refuses_a_sar_model_it_cannot_write(tmp_path):
    model = tmp_path / "sar.txt"
    model.write_text(" ".join(["1", "0"] * 10))
    scn = load_scenario_text(f"num_users = 2\nsar.model = {model}")
    assert scn.sar_model.b[:4] == (1.0, 0.0, 1.0, 0.0)
    out = tmp_path / "scn.cfg"
    with pytest.raises(ValueError, match="sar.model"):
        save_scenario(scn, out)
    assert not out.exists()


def test_save_refuses_a_value_it_cannot_round_trip(tmp_path):
    # no dBm double loads back to 0.3 W exactly: the nearest reads
    # 0.3000000000000001, so the saved file would not be the same scenario
    scn = scenario_from_options({"p_max": 0.3})
    out = tmp_path / "scn.cfg"
    with pytest.raises(ValueError, match="p_max"):
        save_scenario(scn, out)
    assert not out.exists()


def test_integer_keys_reject_fractions_and_infinities():
    for text in ("num_users = 2.5", "seed = 3.5", "num_subcarriers = inf",
                 "num_users = [3]"):
        with pytest.raises(ConfigError, match="line 1"):
            load_scenario_text(text)


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("key", sorted(k for k, kind in _KINDS.items()
                                       if kind != "str"))
def test_non_finite_values_are_rejected(key, bad, tmp_path, capsys):
    # NaN passes every `x <= 0` check: one non-finite number in any key
    # stops the load, from a config file (exit 1) and in memory alike
    cfg = tmp_path / "desk.cfg"
    save_scenario(desk_scenario(), cfg)
    saved = dict(line.split(" = ", 1) for line in cfg.read_text().splitlines())
    numbers = [bad] + saved.pop(key, "0").strip("[]").split(", ")[1:]
    saved[key] = ", ".join(numbers)
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in saved.items()))
    assert main(["optimize", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    value = [float(x) for x in numbers]
    with pytest.raises(ValueError):
        desk_scenario(**{key: value[0] if _KINDS[key] in ("int", "float") else tuple(value)})


def test_cli_noise_values_read_as_config_dbm_per_hz(capsys):
    code = main(["sweep", "--config", os.path.join(CONFIGS, "desk.cfg"),
                 "--param", "noise", "--values=-170", "--trials", "1",
                 "--schemes", "no-ris"])
    assert code == 0
    row = capsys.readouterr().out.split()
    want = load_scenario_text("noise_psd = -170").params.noise_psd
    assert row[:2] == ["noise_psd", repr(want)]


def test_sweep_points_take_the_parameter_type():
    spec = SweepSpec("rx_antennas", (8.0,), 1, ("no-ris",), desk_scenario())
    (row,) = monte_carlo_sweep(spec).table.rows
    assert row[1] == 8 and type(row[1]) is int
    bad = SweepSpec("rx_antennas", (8.5,), 1, ("no-ris",), desk_scenario())
    with pytest.raises(ValueError, match="integer"):
        monte_carlo_sweep(bad)
