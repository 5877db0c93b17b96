"""The benchmark's workloads, written against uavmec's public API only.

Every workload runs the default scenario (K = 2 devices, a 1280-entry joint
action catalog, 1000-interval episodes) from one process with one caller in
a closed loop: the next operation starts when the previous one returns.
One timed operation (``op``) is one ``harness.run_eval`` call per fixed
policy (eval_fixed), one ``run_eval`` call (eval_dqn) or one
``harness.train_dqn`` call (train_dqn); ``attempted`` and ``failed`` count
its episodes.

The program receives only a ``SimConfig`` and integer seeds, all derived
from the workload seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

NAMES = ("eval_fixed", "eval_dqn", "train_dqn")
FIXED_POLICIES = ("random", "uav_heavy", "cloud_heavy")


TRAIN_EPISODES = 1   # episodes per train_dqn operation


@dataclass(frozen=True)
class Scale:
    """Work per operation. ``FULL`` is the benchmark; tests shrink it."""
    n_intervals: int = 1000            # intervals per episode
    eval_realizations: int = 2         # episodes per run_eval call
    setup_train_intervals: int = 200   # eval_dqn's network: one short episode


FULL = Scale()


@dataclass
class OpResult:
    intervals: int
    episodes: int
    failed_episodes: int
    digest: bytes          # hash of the outputs, for byte-identity checks
    errors: list


def op_seed(seed: int, i: int) -> int:
    """Seed of the i-th operation of a run; distinct across runs and ops."""
    return seed * 100_003 + i


def _finite_row_problems(row) -> list:
    """Output check for one ResultRow; an empty list means it passed."""
    problems = []
    for f in dataclasses.fields(row):
        value = getattr(row, f.name)
        if isinstance(value, (int, float)) and not math.isfinite(value):
            problems.append(f"{f.name}={value!r} is not finite")
    for name in ("mean_ql", "mean_qu", "mean_qc"):
        if getattr(row, name) < 0:
            problems.append(f"{name}={getattr(row, name)!r} is negative")
    if not 0.0 <= row.c10_violation_rate <= 1.0:
        problems.append(
            f"c10_violation_rate={row.c10_violation_rate!r} outside [0, 1]")
    return problems


def _row_bytes(row) -> bytes:
    return repr(dataclasses.astuple(row)).encode()


class Workload:
    """Set-up state and the operation loop body of one named workload."""

    def __init__(self, name: str, uavmec, seed: int, scale: Scale = FULL):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
        self.name = name
        self.seed = seed
        self.scale = scale
        self.harness = uavmec.harness
        self.agent = uavmec.agent
        self.config = replace(uavmec.SimConfig(),
                              n_intervals=scale.n_intervals).validate()
        # Fixed probe observations for the Q-value check and the digest.
        width = uavmec.environment.observation_size(self.config)
        probe_rng = np.random.default_rng(2409_16102)
        levels = probe_rng.integers(0, self.config.queue_levels, size=(16, width))
        self.probe_obs = self.agent.normalize_observation(
            levels.astype(float), self.config)
        self.net = None
        self.setup_digest = b""
        self.setup_errors = []

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """Build everything the timed loop needs and run a short warm-up.

        The warm-up calls construct the environment, the action catalog and
        the policy (for training also the network and replay buffer, with
        two learning updates), so lazy initialisation inside numpy and BLAS
        happens before timing.
        """
        cfg = self.config
        one = replace(cfg, n_intervals=1).validate()
        if self.name == "eval_fixed":
            for policy in FIXED_POLICIES:
                self.harness.run_eval(policy, one, seed=self.seed,
                                      realizations=1)
        elif self.name == "eval_dqn":
            short = replace(cfg, episodes=1,
                            n_intervals=self.scale.setup_train_intervals)
            self.net = self.harness.train_dqn(short.validate(), self.seed)
            q_bytes, problems = self.check_network(self.net)
            self.setup_digest = hashlib.sha256(q_bytes).digest()
            self.setup_errors = problems
            self.harness.run_eval("dqn", one, seed=self.seed, realizations=1,
                                  net=self.net)
        else:
            warm = replace(cfg, episodes=1, n_intervals=cfg.batch_size + 2)
            self.harness.train_dqn(warm.validate(), self.seed)

    def check_network(self, net):
        """Q-values on the fixed probe observations: their bytes and problems."""
        q = np.asarray(self.agent.forward(net, self.probe_obs), dtype=float)
        problems = [] if np.all(np.isfinite(q)) else \
            [f"{int(np.sum(~np.isfinite(q)))} non-finite Q-values"]
        return q.tobytes(), problems

    # -- one operation ---------------------------------------------------------

    def op(self, i: int, around=nullcontext()) -> OpResult:
        """Run the i-th operation; failures are counted, never raised.

        ``around`` is entered around the program's calls only, so the output
        checks run outside it; the layer tracer is passed here.
        """
        seed = op_seed(self.seed, i)
        cfg = self.config
        if self.name == "train_dqn":
            train_cfg = replace(cfg, episodes=TRAIN_EPISODES)
            calls = {"train_dqn": lambda: self.harness.train_dqn(
                train_cfg.validate(), seed)}
            episodes_per_call = TRAIN_EPISODES
        else:
            policies = FIXED_POLICIES if self.name == "eval_fixed" else ("dqn",)
            r = self.scale.eval_realizations
            # Each call looks run_eval up when it runs, so that a tracer
            # installed by ``around`` sees it.
            calls = {f"run_eval({p!r})": lambda p=p: self.harness.run_eval(
                p, cfg, seed=seed, realizations=r, net=self.net)
                for p in policies}
            episodes_per_call = r

        outputs = {}
        with around:
            for label, call in calls.items():
                try:
                    outputs[label] = call()
                except Exception as exc:  # a failed episode is counted
                    outputs[label] = exc

        parts, errors, failed = [], [], 0
        for label, out in outputs.items():
            if isinstance(out, Exception):
                problems = [f"{label} raised {out!r}"]
            elif self.name == "train_dqn":
                q_bytes, problems = self.check_network(out)
                parts.append(q_bytes)
            else:
                problems = _finite_row_problems(out)
                parts.append(_row_bytes(out))
            if problems:
                failed += episodes_per_call
                errors.extend(problems)
        episodes = episodes_per_call * len(calls)
        # Only a hash is kept: holding every operation's output bytes would
        # change the allocator's state and with it the measured speed.
        return OpResult(episodes * cfg.n_intervals, episodes, failed,
                        hashlib.sha256(b"".join(parts)).digest(), errors)


def digest_hex(setup_digest: bytes, first_op: OpResult) -> str:
    """Fingerprint of a run's deterministic outputs: set-up plus operation 0."""
    return hashlib.sha256(setup_digest + first_op.digest).hexdigest()[:16]
