"""Scenario definition and configuration loading.

All internal quantities are SI (watts, meters, Hz, bits/s). Decibel units
appear only at the config-file boundary: in config files `los_pathloss_ref`
and `nlos_pathloss_ref` are dB power gains at 1 m, `p_max` is dBm,
`noise_psd` is dBm/Hz, and `rician_factors` is a dB pair. They are
converted to linear/SI when the file is loaded.

The config schema lives here once: each key's kind comes from its
`SystemParams` field or from `_EXTRAS`, and its file unit from `_UNITS`;
loading, saving and the sweep command line all read it. Every key changes
a result. Two quantities of the model are therefore not keys: the slot count,
which follows from `flight_time / slot_duration`, and the transmitter's two
antennas (`channel.TX_ANTENNAS`), the only count the exposure polynomial is
defined for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .exposure import SarModel, default_sar_model, load_sar_model


# ---------------------------------------------------------------------------
# unit helpers
# ---------------------------------------------------------------------------

def db_to_linear(x):
    """dB power ratio -> linear power ratio."""
    return 10.0 ** (x / 10.0)


def linear_to_db(x):
    """Linear power ratio -> dB. Requires x > 0."""
    if x <= 0:
        raise ValueError("dB undefined for non-positive power ratio")
    return 10.0 * math.log10(x)


def dbm_to_watts(x):
    """dBm -> watts (0 dBm = 1 mW)."""
    return 10.0 ** ((x - 30.0) / 10.0)


def watts_to_dbm(x):
    """Watts -> dBm. Requires x > 0."""
    if x <= 0:
        raise ValueError("dBm undefined for non-positive power")
    return 10.0 * math.log10(x) + 30.0


def noise_power(psd_dbm_hz, bandwidth_hz):
    """Noise power in watts over `bandwidth_hz`, given a PSD in dBm/Hz."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    return dbm_to_watts(psd_dbm_hz + 10.0 * math.log10(bandwidth_hz))


# ---------------------------------------------------------------------------
# parameter container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemParams:
    """Static system parameters, at the published full-scale values. All
    linear/SI units.

    Each field's annotation is its config kind (`tuple` is a pair), and
    construction types every value to it, so a count given as 8.0 is 8.
    Two values are derived, never stored: the slot count num_slots =
    flight_time / slot_duration, which must be a whole number of at least 2
    (a flight path's first and last slots are its two fixed ends), and the maximum
    per-slot displacement v_max * slot_duration. Each user transmits on
    `channel.TX_ANTENNAS` = 2 antennas, so there is no antenna-count field.
    """

    num_users: int = 8
    num_subcarriers: int = 80
    num_ris_elements: int = 80
    rx_antennas: int = 32
    bs_height: float = 25.0
    aris_height: float = 100.0
    slot_duration: float = 15.0
    flight_time: float = 300.0
    v_max: float = 25.0
    bandwidth_per_re: float = 240e3
    los_pathloss_ref: float = db_to_linear(-24.91)
    nlos_pathloss_ref: float = db_to_linear(-19.96)
    p_max: float = dbm_to_watts(26.0)
    noise_psd: float = dbm_to_watts(-174.0)  # watts/Hz
    direct_pathloss_exp: float = 3.908
    rician_factors: tuple = (db_to_linear(3.0), db_to_linear(3.0))
    ris_pathloss_exps: tuple = (2.2, 2.2)
    antenna_spacing_ratio: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _typed(f.name, getattr(self, f.name)))
        for name in ("num_users", "num_subcarriers", "rx_antennas"):
            if getattr(self, name) < 1:
                raise ValueError(f"invariant violated: {name} must be >= 1")
        if self.num_ris_elements < 0:
            raise ValueError("invariant violated: num_ris_elements must be >= 0")
        positive = ("bs_height", "aris_height", "slot_duration", "flight_time",
                    "v_max", "bandwidth_per_re", "los_pathloss_ref",
                    "nlos_pathloss_ref", "p_max", "noise_psd",
                    "antenna_spacing_ratio")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"invariant violated: {name} must be positive")
        ratio = self.flight_time / self.slot_duration
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(
                "invariant violated: slot_duration must divide flight_time "
                f"(flight_time/slot_duration = {ratio})"
            )
        if round(ratio) < 2:
            raise ValueError(
                "invariant violated: flight_time / slot_duration must give at least "
                f"2 slots (flight_time = {self.flight_time}, "
                f"slot_duration = {self.slot_duration})"
            )

    @property
    def num_slots(self):
        """The slot count N_T = flight_time / slot_duration."""
        return round(self.flight_time / self.slot_duration)

    @property
    def max_slot_distance(self):
        """Largest displacement the platform can cover within one slot."""
        return self.v_max * self.slot_duration

    @property
    def noise_per_re(self):
        """Per-resource-element noise power sigma^2 = PSD * w, watts."""
        return self.noise_psd * self.bandwidth_per_re


@dataclass(frozen=True)
class Scenario:
    """A fully-specified simulation instance.

    Positions are 3-vectors in meters: the base station at (0, 0, bs_height),
    users on the ground (z = 0), and the aerial platform start/end points at
    z = aris_height. `cell_radius` is both the user-sampling radius and the
    cell extent used for validation.
    """

    params: SystemParams
    bs_position: np.ndarray
    user_positions: np.ndarray          # (U, 3)
    rate_targets: np.ndarray            # (U,), bits/s
    aris_start: np.ndarray
    aris_end: np.ndarray
    sar_model: SarModel
    rng_seed: int
    cell_radius: float

    def __post_init__(self):
        p = self.params
        object.__setattr__(self, "bs_position", np.asarray(self.bs_position, dtype=float))
        object.__setattr__(self, "user_positions",
                           np.asarray(self.user_positions, dtype=float).reshape(p.num_users, 3))
        object.__setattr__(self, "rate_targets",
                           np.asarray(self.rate_targets, dtype=float).reshape(p.num_users))
        object.__setattr__(self, "aris_start", np.asarray(self.aris_start, dtype=float))
        object.__setattr__(self, "aris_end", np.asarray(self.aris_end, dtype=float))
        for name in ("rate_targets", "aris_start", "aris_end", "cell_radius"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"invariant violated: {name} must be finite")
        if np.any(self.rate_targets <= 0):
            raise ValueError("invariant violated: rate_targets must be strictly positive")
        radii = np.hypot(self.user_positions[:, 0], self.user_positions[:, 1])
        if np.any(radii > self.cell_radius * (1 + 1e-9)):
            raise ValueError("invariant violated: all users must lie inside the cell radius")
        if np.any(self.user_positions[:, 2] != 0.0):
            raise ValueError("invariant violated: users are on the ground (z = 0)")
        for name in ("aris_start", "aris_end"):
            q = getattr(self, name)
            if abs(q[2] - p.aris_height) > 1e-9:
                raise ValueError(f"invariant violated: {name} must be at altitude {p.aris_height}")


def sample_user_positions(rng, radius, num_users):
    """Uniform points over the disk of `radius` centered at the origin, z=0."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    r = radius * np.sqrt(rng.random(num_users))
    phi = 2.0 * np.pi * rng.random(num_users)
    pos = np.zeros((num_users, 3))
    pos[:, 0] = r * np.cos(phi)
    pos[:, 1] = r * np.sin(phi)
    return pos


# rng purpose tags; the per-(trial, slot, subcarrier, link) spawn keys live in
# the channel module, this one is scenario-level
_POSITIONS_STREAM = 0


def _position_rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_POSITIONS_STREAM,)))


# ---------------------------------------------------------------------------
# config schema and parsing
# ---------------------------------------------------------------------------

# per-user targets used in the reference experiments (bits/s)
_DEFAULT_RATES_8 = (10e6, 9.4e6, 8.5e6, 6.7e6, 4.5e6, 7.6e6, 8.7e6, 3.1e6)
_DEFAULT_RATE_OTHER = 6e6

# the config keys that are not SystemParams fields: (kind, default); the
# None defaults are filled in by scenario_from_options
_EXTRAS = {
    "users.radius": ("float", 100.0),
    "rates": ("list", None),
    "aris.start": ("list", (-80.0, 55.0)),
    "aris.end": ("list", (100.0, 20.0)),
    "seed": ("int", 0),
    "sar.model": ("str", None),
}

# every config key's kind: int, float, pair, list or str
_KINDS = {f.name: "pair" if f.type == "tuple" else f.type for f in fields(SystemParams)}
_KINDS.update((key, kind) for key, (kind, _) in _EXTRAS.items())

# keys whose file value is in dB, dBm or dBm/Hz: (to SI, from SI)
_DB = (db_to_linear, linear_to_db)
_DBM = (dbm_to_watts, watts_to_dbm)
_UNITS = {"los_pathloss_ref": _DB, "nlos_pathloss_ref": _DB, "rician_factors": _DB,
          "p_max": _DBM, "noise_psd": _DBM}


class ConfigError(ValueError):
    """Raised for malformed or invalid configuration files."""


def _typed(key, value):
    """Finite number(s) in SI units as `key`'s int, float, pair or list."""
    kind = _KINDS[key]
    if kind == "int":
        v = float(value)
        if not math.isfinite(v) or abs(v - round(v)) > 1e-12:
            raise ValueError(f"{key} must be an integer")
        return int(round(v))
    nums = (float(value),) if kind == "float" else tuple(float(v) for v in value)
    if not all(map(math.isfinite, nums)):
        raise ValueError(f"{key} must be finite")
    if kind == "pair" and len(nums) != 2:
        raise ValueError(f"{key} needs exactly 2 values")
    return nums[0] if kind == "float" else nums


def _parse_list(text, scalar=False):
    """The numbers in `text`: one bare number when `scalar`, else a
    comma-separated list, optionally in [brackets]."""
    body = text.strip()
    if not scalar and body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    parts = [body] if scalar else [p for p in (s.strip() for s in body.split(",")) if p]
    out = []
    for part in parts:
        try:
            out.append(float(part))
        except ValueError:
            raise ValueError(f"expected a number, got {part!r}") from None
    return out


def parse_value(key, text):
    """A config value's text as `key`'s typed value, converted to SI units."""
    kind = _KINDS[key]
    if kind == "str":
        return text
    to_si = _UNITS[key][0] if key in _UNITS else float
    nums = [to_si(v) for v in _parse_list(text, scalar=kind in ("int", "float"))]
    return _typed(key, nums if kind in ("pair", "list") else nums[0])


def parse_config_text(text):
    """Parse the flat `key = value` format into a {key: raw string} dict.

    Blank lines and `#` comments are ignored. Unknown keys and duplicate
    keys raise ConfigError with the offending line number.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KINDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        out[key] = (value, lineno)
    return out


def scenario_from_options(options):
    """Build a Scenario from already-typed option values (linear/SI units).

    `options` may contain SystemParams field names plus the keys of
    `_EXTRAS`; `sar.model` may be a SarModel or a path. Missing entries take
    the full-scale defaults.
    """
    opts = dict(options)
    extra = {key: opts.pop(key, default) for key, (_, default) in _EXTRAS.items()}
    params = SystemParams(**opts)

    rates = extra["rates"]
    if rates is None:
        if params.num_users == 8:
            rates = _DEFAULT_RATES_8
        else:
            rates = (_DEFAULT_RATE_OTHER,) * params.num_users
    rates = np.asarray(rates, dtype=float)
    if rates.shape != (params.num_users,):
        raise ConfigError(
            f"rates must list exactly num_users={params.num_users} values, got {rates.size}")

    sar = extra["sar.model"]
    if sar is None:
        sar = default_sar_model()
    elif isinstance(sar, str):
        sar = load_sar_model(sar)

    def _lift(key):
        q = tuple(float(v) for v in np.atleast_1d(extra[key]).ravel())
        if len(q) == 2:
            return np.array([q[0], q[1], params.aris_height])
        if len(q) == 3:
            return np.array(q)
        raise ConfigError(f"{key} must have 2 or 3 coordinates")

    radius = float(extra["users.radius"])
    seed = _typed("seed", extra["seed"])
    users = sample_user_positions(_position_rng(seed), radius, params.num_users)
    return Scenario(
        params=params,
        bs_position=np.array([0.0, 0.0, params.bs_height]),
        user_positions=users,
        rate_targets=rates,
        aris_start=_lift("aris.start"),
        aris_end=_lift("aris.end"),
        sar_model=sar,
        rng_seed=seed,
        cell_radius=radius,
    )


def load_scenario_text(text, overrides=None):
    """Parse config text (see `load_scenario`) into a validated Scenario.

    `overrides` is an optional mapping of already-typed option values
    (e.g. {"seed": 3}) applied on top of whatever the text sets.
    """
    options = {}
    for key, (value, lineno) in parse_config_text(text).items():
        try:
            options[key] = parse_value(key, value)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    if overrides:
        options.update(overrides)
    try:
        return scenario_from_options(options)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


def load_scenario(path, overrides=None):
    """Load and validate a Scenario from a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario_text(fh.read(), overrides)


def _db_preimage(key, x):
    """The dB (or dBm) file value t of `key` that loads back to x bit-exactly.

    to_db(from_db(t)) can be off by an ulp, which would break the
    write -> load -> equal round trip; walk a few ulps to land exactly.
    One ulp of t moves from_db(t) by several ulps, so many values (p_max =
    0.3 W among them) are from_db of no double t; those raise ValueError
    naming `key`.
    """
    from_db, to_db = _UNITS[key]
    t = to_db(x)
    for _ in range(64):
        got = from_db(t)
        if got == x:
            return t
        t = math.nextafter(t, math.inf if got < x else -math.inf)
    raise ValueError(f"save_scenario cannot write {key} = {x!r}: "
                     "no file value loads back to it exactly")


def _format_value(key, value):
    """The text that `parse_value(key, text)` reads back to `value`."""
    kind = _KINDS[key]
    if kind == "int":
        return str(value)
    nums = [_db_preimage(key, v) if key in _UNITS else v
            for v in np.atleast_1d(value)]
    text = ", ".join(repr(float(v)) for v in nums)
    return f"[{text}]" if key == "rates" else text


def save_scenario(scenario, path):
    """Write a config file that `load_scenario` reads back to an equal Scenario.

    Positions are regenerated from the stored seed on load, so only the seed
    and sampling radius are persisted.  A config file cannot name a SAR
    model, so a scenario with a non-default one raises ValueError, as does
    a dB-unit value that no file text loads back to exactly; no file is
    written then.
    """
    if scenario.sar_model != default_sar_model():
        raise ValueError("save_scenario cannot write a non-default sar.model")
    p = scenario.params
    values = {f.name: getattr(p, f.name) for f in fields(p)}
    values.update({
        "users.radius": scenario.cell_radius,
        "rates": scenario.rate_targets,
        "aris.start": scenario.aris_start,
        "aris.end": scenario.aris_end,
        "seed": scenario.rng_seed,
    })
    text = "".join(f"{key} = {_format_value(key, v)}\n" for key, v in values.items())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def desk_scenario(seed=7, **overrides):
    """Small, fast scenario used by the test harness and quick experiments.

    Four users on a 100 m disk, 8 resource elements, a 16-element surface,
    8 receive antennas, and a 6-slot flight whose start and end coincide at
    a corner of the cell (a charging-station layout).
    """
    opts = dict(
        num_users=4,
        num_subcarriers=8,
        num_ris_elements=16,
        rx_antennas=8,
        slot_duration=15.0,
        flight_time=90.0,
        rates=(8e6, 6.5e6, 7.5e6, 5e6),
        seed=seed,
    )
    opts["users.radius"] = 100.0
    opts["aris.start"] = (-90.0, 90.0)
    opts["aris.end"] = (-90.0, 90.0)
    opts.update(overrides)
    return scenario_from_options(opts)


def scenario_with(scenario, **param_overrides):
    """Scenario copy with some SystemParams fields replaced.

    User positions, rates, endpoints, and the seed are preserved; the
    derived slot count follows the timing fields.
    """
    newp = replace(scenario.params, **param_overrides)
    return replace(scenario, params=newp)
