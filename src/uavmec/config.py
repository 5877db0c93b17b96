"""Simulation configuration: physical constants, network sizes, learning knobs.

All runtime math is linear-scale; a dB/dBm input must have a finite positive
linear value, which each config object computes once for the steps to read.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from functools import cached_property


class ConfigError(ValueError):
    """Raised for unknown keys, malformed files, or out-of-range values."""


# UAV grid moves, one interval each: stay, +x, -x, +y, -y.
MOVES = ((0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))

# Evaluable policies: the DQN and the three baselines.
POLICY_KINDS = ("dqn", "random", "uav_heavy", "cloud_heavy")

# Fraction tuples (x_uav, x_cloud, w_uav, w_cloud) of the fixed baselines,
# applied on every device with the UAV staying: the UAV-heavy policy pushes
# work to the (centrally parked) UAV, the cloud-heavy policy pushes it
# through to the cloud.
FIXED_POLICY_FRACS = {"uav_heavy": (0.6, 0.3, 0.6, 0.3),
                      "cloud_heavy": (0.6, 0.6, 0.3, 0.6)}


# The largest catalog that int64 indices (rng.integers' draws) reach.
MAX_INDEXED_CATALOG = 2 ** 63


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:  # a float ends at about 3082.5 dB
        return math.inf


def dbm_to_watts(dbm: float) -> float:
    return db_to_linear(dbm - 30.0)


# Each field type's name, for one value and for a tuple's items.
_TYPE_NAMES = {bool: ("a bool", "bools"), int: ("an integer", "integers"),
               float: ("a number", "numbers"), str: ("a string", "strings")}


def _has_type(value, kind: type) -> bool:
    """Whether value can stand for a field value of type kind: a bool only
    for a bool, any integer (numpy's too) but a bool for an int, and any
    real number but a bool for a float."""
    if kind in (int, float):
        number = numbers.Integral if kind is int else numbers.Real
        return isinstance(value, number) and not isinstance(value, bool)
    return isinstance(value, kind)


def _kind(f: dataclasses.Field) -> tuple:
    """A field's value type and whether it is a tuple, from its default."""
    many = isinstance(f.default, tuple)
    return type(f.default[0] if many else f.default), many


# What each number field, or each item of a number tuple, accepts: the rule's
# wording and its test. Every number must also be finite, save rician_k = inf,
# which is pure line of sight (channel.rician_sample).
_POS = ("be positive", lambda v: v > 0)
_NONNEG = ("be nonnegative", lambda v: v >= 0)
_UNIT = ("lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_DB = ("have a finite positive linear value",
       lambda v: 0.0 < db_to_linear(v) < math.inf)
_RANGES = {
    "num_devices": _POS, "area_size": _POS, "altitude": _POS,
    "n_intervals": _POS, "tau": _POS, "v_max": _NONNEG, "eta0_db": _DB,
    "path_loss_exp": _NONNEG, "rician_k": _NONNEG, "bandwidth": _POS,
    "noise_density_dbm": (_DB[0], lambda v: 0.0 < dbm_to_watts(v) < math.inf),
    "p_max": _POS, "install_delay": _POS, "cycles_per_bit": _POS,
    "local_cpu_max": _POS, "uav_cpu_total": _POS, "cloud_cpu_total": _POS,
    "i_max": _NONNEG, "w_local": _UNIT, "q_cap": _NONNEG,
    "queue_levels": ("be at least 2", lambda v: v >= 2),
    "frac_levels": _UNIT, "max_catalog_size": _POS, "v1": _NONNEG,
    "v2": _NONNEG, "v3": _NONNEG, "v4": _NONNEG, "lyapunov_v": _NONNEG,
    "violation_penalty": _NONNEG, "reward_scale": _POS, "hidden_sizes": _POS,
    "discount": ("lie in [0, 1)", lambda v: 0.0 <= v < 1.0),
    "learning_rate": _POS, "batch_size": _POS, "buffer_capacity": _POS,
    "target_sync_period": _POS, "eps_start": _UNIT, "eps_end": _UNIT,
    "episodes": _POS, "grad_clip": _POS, "sweep_i_max": _NONNEG,
    "sweep_seeds": _POS, "eval_realizations": _POS,
}


@dataclass(frozen=True)
class SimConfig:
    """All physical, network, and learning constants.

    Defaults reproduce the reference scenario: two devices in a 500x500 m
    area, UAV at 100 m altitude, 180 kHz uplink, 1 s intervals. Frozen, and
    validated when built (by dataclasses.replace too). The derived constants
    that every step reads are computed once per config, as cached
    properties: these are no fields, so they stay out of eq, hash, repr,
    replace and the checkpoint key.
    """

    # --- network size / geometry ---
    num_devices: int = 2
    area_size: float = 500.0            # m, square service area side
    altitude: float = 100.0             # m, fixed UAV flight altitude
    n_intervals: int = 1000             # intervals per episode
    tau: float = 1.0                    # s, interval duration
    v_max: float = 30.0                 # m/s, UAV speed bound

    # --- channel ---
    eta0_db: float = -40.0              # dB, power gain at 1 m reference
    path_loss_exp: float = 2.0
    rician_k: float = 10.0

    # --- link budget ---
    bandwidth: float = 180e3            # Hz
    noise_density_dbm: float = -174.0   # dBm/Hz
    p_max: float = 0.1                  # W, per-device transmit power (fixed)
    install_delay: float = 0.25         # s, UAV->cloud backhaul setup (t0)

    # --- computation ---
    cycles_per_bit: float = 1024.0
    local_cpu_max: float = 1e6          # cycles/s per device
    uav_cpu_total: float = 5e6          # cycles/s shared at the UAV
    cloud_cpu_total: float = 1e8        # cycles/s shared at the cloud

    # --- arrivals / queues ---
    i_max: float = 2.5e5                # bits, uniform arrival upper bound
    w_local: float = 0.3                # fixed local processing fraction
    q_cap: float = 0.0                  # bits per observation level cap; 0 -> 4*i_max
    queue_levels: int = 10

    # --- action space ---
    frac_levels: tuple = (0.3, 0.6)
    max_catalog_size: int = 10000       # cap on the dqn's joint output head
    include_uav_position: bool = False  # append normalized UAV xy to observations

    # --- reward / objective ---
    v1: float = 1e-6
    v2: float = 1e-6
    v3: float = 1e-6
    v4: float = 1.0
    lyapunov_v: float = 1.0
    violation_penalty: float = 0.0      # additive penalty when the delay bound fails
    reward_scale: float = 1e5           # divisor applied before replay storage

    # --- DQN training ---
    hidden_sizes: tuple = (64, 64)
    discount: float = 0.95
    learning_rate: float = 1e-3
    batch_size: int = 64
    buffer_capacity: int = 10000
    target_sync_period: int = 200
    eps_start: float = 1.0
    eps_end: float = 0.05
    episodes: int = 200
    grad_clip: float = 10.0

    # --- sweep / evaluation ---
    sweep_i_max: tuple = (0.5e5, 1.0e5, 1.5e5, 2.0e5, 2.5e5)
    sweep_seeds: int = 3
    sweep_policies: tuple = ("dqn", "random", "uav_heavy", "cloud_heavy")
    eval_realizations: int = 1000
    shared_model: bool = False          # one model per seed, reused across i_max

    def __post_init__(self):
        self.validate()

    # ----- derived quantities -----

    @cached_property
    def eta0(self) -> float:
        return db_to_linear(self.eta0_db)

    @cached_property
    def noise_power(self) -> float:
        """Total noise power in W over the configured bandwidth."""
        return dbm_to_watts(self.noise_density_dbm) * self.bandwidth

    @property
    def queue_cap(self) -> float:
        return self.q_cap if self.q_cap > 0 else 4.0 * self.i_max

    @property
    def uav_cpu_per_device(self) -> float:
        return self.uav_cpu_total / self.num_devices

    @property
    def cloud_cpu_per_device(self) -> float:
        return self.cloud_cpu_total / self.num_devices

    @property
    def area_center(self) -> tuple:
        return (self.area_size / 2.0, self.area_size / 2.0)

    @cached_property
    def catalog_size(self) -> int:
        """Entries in the joint action catalog: every per-device choice of
        (x_uav, x_cloud, w_uav, w_cloud) levels times the UAV moves."""
        return len(self.frac_levels) ** (4 * self.num_devices) * len(MOVES)

    def validate(self) -> "SimConfig":
        # Types first, as _kind gives them. Numbers are then stored as plain
        # ints and floats, so that equal configs share a checkpoint key, and
        # each number (each tuple item) is held to its rule in _RANGES.
        for f in dataclasses.fields(self):
            kind, many = _kind(f)
            value = getattr(self, f.name)
            items = value if many else (value,)
            if not (isinstance(items, tuple)
                    and all(_has_type(v, kind) for v in items)):
                name, plural = _TYPE_NAMES[kind]
                what = f"a tuple of {plural}" if many else name
                raise ConfigError(f"{f.name} must be {what}, got {value!r}")
            if kind not in (int, float):
                continue
            try:
                items = tuple(map(kind, items))
            except OverflowError:
                raise ConfigError(
                    f"{f.name} is too large for a float") from None
            value = items if many else items[0]
            object.__setattr__(self, f.name, value)
            rule, in_range = _RANGES[f.name]
            for v in items:
                if not (kind is int or math.isfinite(v)
                        or f.name == "rician_k" and v == math.inf):
                    raise ConfigError(f"{f.name} must be finite, got {value}")
                if not in_range(v):
                    raise ConfigError(f"{f.name} must {rule}, got {value}")
        if not 0.0 < self.noise_power < math.inf:
            raise ConfigError(
                f"noise_density_dbm {self.noise_density_dbm} and bandwidth "
                f"{self.bandwidth} give a noise power of {self.noise_power} "
                f"W; it must be finite and positive")
        if self.batch_size > self.buffer_capacity:
            raise ConfigError(
                f"batch_size {self.batch_size} exceeds buffer_capacity "
                f"{self.buffer_capacity}; no learning update could run")
        for key in ("frac_levels", "sweep_i_max", "sweep_policies"):
            if len(getattr(self, key)) == 0:
                raise ConfigError(f"{key} must be nonempty")
        # Names only: whether a known policy can run is checked where it runs.
        for kind in self.sweep_policies:
            if kind not in POLICY_KINDS:
                self.check_policy(kind)
        return self

    def check_policy(self, kind: str) -> None:
        """Raise ConfigError unless policy kind can run under this config:
        the dqn has one output per catalog entry, up to max_catalog_size,
        and the random policy draws an int64 index into the catalog."""
        if kind not in POLICY_KINDS:
            raise ConfigError(f"unknown policy {kind!r}; choose from "
                              f"{', '.join(POLICY_KINDS)}")
        size = self.catalog_size
        if kind == "dqn" and size > self.max_catalog_size:
            raise ConfigError(f"policy 'dqn' needs {size} outputs, one per "
                              f"catalog entry, above max_catalog_size "
                              f"{self.max_catalog_size}")
        if kind == "random" and size > MAX_INDEXED_CATALOG:
            raise ConfigError(f"policy 'random' cannot draw an index into "
                              f"{size} catalog entries")


_FIELD_TYPES = {f.name: f for f in dataclasses.fields(SimConfig)}


def _parse_item(key: str, raw: str, kind: type):
    """A value of type kind, for field key or one of its tuple items."""
    raw = raw.strip()
    if kind is str:
        return raw
    if kind is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean for {key!r}: {raw!r}")
    try:
        value = float(raw)
    except ValueError as exc:
        name = "integer" if kind is int else "number"
        raise ConfigError(f"cannot parse {name} for {key!r}: {raw!r}") from exc
    if kind is float:
        return value
    # float() also reads 1e4; is_integer() is false for fractions, inf and nan.
    if not value.is_integer():
        raise ConfigError(f"{key} takes integers only, got {raw!r}")
    return int(value)


def _parse_value(key: str, raw: str):
    kind, many = _kind(_FIELD_TYPES[key])
    if many:
        return tuple(_parse_item(key, s, kind) for s in raw.split(",")
                     if s.strip())
    return _parse_item(key, raw, kind)


def load_config(path: str | None = None, overrides: dict | None = None) -> SimConfig:
    """Build a SimConfig from defaults <- file <- overrides.

    The file format is flat ``key = value`` lines with ``#`` comments.
    Overrides use the same string values as the file.
    """
    values: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
            key, raw = (s.strip() for s in text.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _parse_value(key, raw)
    for key, raw in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _parse_value(key, str(raw))
    return SimConfig(**values)
