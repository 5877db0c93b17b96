"""Simulation configuration: physical constants, network sizes, learning knobs.

All runtime math is linear-scale; dB/dBm inputs are converted exactly once
when the config object is built.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Raised for unknown keys, malformed files, or out-of-range values."""


# UAV grid moves, one interval each: stay, +x, -x, +y, -y.
MOVES = ((0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))

# Evaluable policies: the DQN and the three baselines.
POLICY_KINDS = ("dqn", "random", "uav_heavy", "cloud_heavy")


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass
class SimConfig:
    """All physical, network, and learning constants.

    Defaults reproduce the reference scenario: two devices in a 500x500 m
    area, UAV at 100 m altitude, 180 kHz uplink, 1 s intervals.
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
    noise_power_override_w: float = 0.0  # >0: total noise power in W, bypasses density
    p_max: float = 0.1                  # W, per-device transmit power bound
    tx_power: float = 0.0               # W, fixed transmit power; 0 -> use p_max
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
    max_catalog_size: int = 10000
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

    # ----- derived quantities -----

    @property
    def eta0(self) -> float:
        return db_to_linear(self.eta0_db)

    @property
    def noise_power(self) -> float:
        """Total noise power in W over the configured bandwidth."""
        if self.noise_power_override_w > 0:
            return self.noise_power_override_w
        return dbm_to_watts(self.noise_density_dbm) * self.bandwidth

    @property
    def fixed_tx_power(self) -> float:
        return self.tx_power if self.tx_power > 0 else self.p_max

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

    @property
    def catalog_size(self) -> int:
        """Entries in the joint action catalog: every per-device choice of
        (x_uav, x_cloud, w_uav, w_cloud) levels times the UAV moves."""
        return len(self.frac_levels) ** (4 * self.num_devices) * len(MOVES)

    def validate(self) -> "SimConfig":
        positive = [
            "num_devices", "area_size", "altitude", "n_intervals", "tau",
            "bandwidth", "p_max", "install_delay", "cycles_per_bit",
            "local_cpu_max", "uav_cpu_total", "cloud_cpu_total",
            "reward_scale", "batch_size", "buffer_capacity",
            "target_sync_period", "episodes", "learning_rate", "grad_clip",
            "eval_realizations", "sweep_seeds",
        ]
        for key in positive:
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        nonneg = ["v_max", "path_loss_exp", "rician_k", "i_max", "v1", "v2",
                  "v3", "v4", "lyapunov_v", "violation_penalty", "q_cap",
                  "tx_power", "noise_power_override_w"]
        for key in nonneg:
            if not getattr(self, key) >= 0:  # also false for NaN
                raise ConfigError(f"{key} must be nonnegative, got {getattr(self, key)}")
        # rician_k = inf is pure line of sight (channel.rician_sample).
        for key in positive + nonneg:
            if key != "rician_k" and not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        for key in ["w_local", "eps_start", "eps_end"]:
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ConfigError(f"{key} must lie in [0, 1], got {getattr(self, key)}")
        if not 0.0 <= self.discount < 1.0:
            raise ConfigError(f"discount must lie in [0, 1), got {self.discount}")
        if self.batch_size > self.buffer_capacity:
            raise ConfigError(
                f"batch_size {self.batch_size} exceeds buffer_capacity "
                f"{self.buffer_capacity}; no learning update could run")
        if not all(n > 0 for n in self.hidden_sizes):
            raise ConfigError(
                f"hidden_sizes must be positive, got {self.hidden_sizes}")
        if self.queue_levels < 2:
            raise ConfigError(
                f"queue_levels must be at least 2, got {self.queue_levels}")
        if len(self.frac_levels) == 0:
            raise ConfigError("frac_levels must be nonempty")
        if not all(0.0 <= f <= 1.0 for f in self.frac_levels):
            raise ConfigError(f"frac_levels must lie in [0, 1], got {self.frac_levels}")
        if self.catalog_size > self.max_catalog_size:
            raise ConfigError(
                f"joint action catalog has {self.catalog_size} entries, above "
                f"max_catalog_size {self.max_catalog_size}; reduce "
                f"num_devices or frac_levels")
        if self.tx_power > self.p_max:
            raise ConfigError(
                f"tx_power {self.tx_power} exceeds p_max {self.p_max}")
        if len(self.sweep_i_max) == 0 or len(self.sweep_policies) == 0:
            raise ConfigError("sweep_i_max and sweep_policies must be nonempty")
        for kind in self.sweep_policies:
            if kind not in POLICY_KINDS:
                raise ConfigError(
                    f"unknown policy {kind!r} in sweep_policies; choose "
                    f"from {', '.join(POLICY_KINDS)}")
        if not math.isfinite(self.eta0_db):
            raise ConfigError("eta0_db must be finite")
        return self


_FIELD_TYPES = {f.name: f for f in dataclasses.fields(SimConfig)}


def _parse_value(key: str, raw: str):
    f = _FIELD_TYPES[key]
    raw = raw.strip()
    if f.type == "bool" or isinstance(f.default, bool):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean for {key!r}: {raw!r}")
    if isinstance(f.default, int) and not isinstance(f.default, bool):
        try:
            return int(float(raw))
        except ValueError as exc:
            raise ConfigError(f"cannot parse integer for {key!r}: {raw!r}") from exc
    if isinstance(f.default, float):
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"cannot parse number for {key!r}: {raw!r}") from exc
    if isinstance(f.default, tuple):
        items = [s.strip() for s in raw.split(",") if s.strip()]
        if key in ("sweep_policies",):
            return tuple(items)
        if key in ("hidden_sizes",):
            return tuple(int(float(s)) for s in items)
        return tuple(float(s) for s in items)
    return raw


def load_config(path: str | None = None, overrides: dict | None = None) -> SimConfig:
    """Build a SimConfig from defaults <- file <- overrides, then validate.

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
    return SimConfig(**values).validate()
