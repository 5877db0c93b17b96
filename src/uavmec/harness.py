"""Experiment execution: seeded evaluations, arrival-rate sweeps, CSV output."""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, replace

import numpy as np

from . import agent as ag
from . import objective as obj
from .config import SimConfig
from .environment import Lockstep

TRAJECTORY_HEADER = "interval,device,ql,qu,qc,reward,eta,t_comm,b_tot"

# Entropy salt separating evaluation streams from training streams that are
# derived from the same user-facing seed.
_EVAL_SALT = 0xE7A1


@dataclass(frozen=True)
class ResultRow:
    policy: str
    i_max: float
    seed: int
    mean_pde: float
    mean_cd: float
    mean_pd: float
    mean_ql: float
    mean_qu: float
    mean_qc: float
    c10_violation_rate: float
    terminal_uav_distance: float


CSV_HEADER = ",".join(f.name for f in dataclasses.fields(ResultRow))

# SimConfig fields that only choose what gets evaluated; a trained network
# does not depend on them, so they stay out of its checkpoint key.
_EVAL_ONLY_FIELDS = frozenset({"sweep_i_max", "sweep_seeds", "sweep_policies",
                               "eval_realizations", "shared_model"})


def checkpoint_path(out_dir: str, config: SimConfig, seed: int) -> str:
    """Checkpoint file of the network trained at config from seed.

    The name carries a hash of the checkpoint format version and of every
    config field that training reads, so a cached network is never reused
    after either changes.
    """
    key = [(f.name, getattr(config, f.name))
           for f in dataclasses.fields(config)
           if f.name not in _EVAL_ONLY_FIELDS]
    digest = hashlib.sha256(repr((ag.CHECKPOINT_VERSION, key)).encode())
    name = f"dqn_{int(config.i_max)}_{seed}_{digest.hexdigest()[:10]}.ckpt"
    return os.path.join(out_dir, name)


def train_dqn(config: SimConfig, seed: int) -> ag.QNetwork:
    """Train a DQN at the given config; reproducible from the seed."""
    return ag.train(config, seed).net


def run_eval(policy: str, config: SimConfig, seed: int, realizations: int,
             net: ag.QNetwork = None, collect_records: bool = False):
    """Average metrics of a frozen policy over independent episodes.

    Every realization gets fresh channel/arrival streams derived from the
    seed, and all of them run in one Lockstep: per interval, each makes its
    own draws in its step(), and one pass of the backlog stages and one
    baseline_action call serve them all, whatever the policy kind. The dqn
    values each distinct observe() row once per call, and keeps its greedy
    action for the rest of the call. No reward is computed, save those of
    collected records that the caller reads. PD and CD are read from the
    Lockstep's accumulator; the backlogs and the delay-bound violations
    are summed here. The sums run in a different order than one episode
    after another would add them, so a row matches one-realization-at-a-time
    stepping to within about 1e-13 relative, not bit for bit.

    Returns a ResultRow of plain Python numbers (plus the per-interval
    records of the last episode when collect_records is set).
    """
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    ss = np.random.SeedSequence(entropy=(seed, _EVAL_SALT))
    *episode_seeds, policy_seed = ss.spawn(realizations + 1)
    pol = ag.make_policy(policy, config, realizations, net=net,
                         rng=np.random.default_rng(policy_seed))
    batch = Lockstep(config, episode_seeds)
    # Local, UAV and cloud backlogs summed over intervals, per realization
    # and device.
    backlog = np.zeros((3, realizations, config.num_devices))
    violations = 0
    records = []
    for n in range(config.n_intervals):
        action = ag.baseline_action(pol, n, batch.observe)
        backlog += batch.backlog
        rec = batch.step(*action)
        violations += rec.eta.size - int(np.count_nonzero(rec.eta))
        if collect_records:
            records.append(rec.realization(-1))
    pd_sum = float(np.sum(batch.acc.per_device_processed))
    cd_sum = float(np.sum(batch.acc.per_device_delay))
    total_intervals = realizations * config.n_intervals
    n_dev_intervals = total_intervals * config.num_devices
    ql, qu, qc = (float(s) / n_dev_intervals for s in backlog.sum(axis=(1, 2)))
    row = ResultRow(
        policy=policy, i_max=config.i_max, seed=seed,
        mean_pde=obj.long_term_pde(pd_sum, cd_sum),
        mean_cd=cd_sum / total_intervals,
        mean_pd=pd_sum / total_intervals,
        mean_ql=ql, mean_qu=qu, mean_qc=qc,
        c10_violation_rate=violations / n_dev_intervals,
        terminal_uav_distance=sum(batch.terminal_distance()) / realizations)
    return (row, records) if collect_records else row


def load_network(path: str, config: SimConfig) -> ag.QNetwork:
    """The network checkpointed at path, as config's dqn; CheckpointError,
    naming the file, for one that load_checkpoint rejects or whose layer
    sizes do not fit config's observation width and catalog size."""
    net = ag.load_checkpoint(path)
    try:
        ag.check_fit(net, config)
    except ValueError as exc:
        raise ag.CheckpointError(f"checkpoint {path}: {exc}") from None
    return net


def _load_or_train(config: SimConfig, seed: int, out_dir: str = None):
    """The network trained at config from seed: its checkpoint under out_dir
    when one exists, else trained now (and saved when out_dir is set)."""
    path = checkpoint_path(out_dir, config, seed) if out_dir is not None else None
    if path is not None and os.path.exists(path):
        return load_network(path, config)
    net = train_dqn(config, seed)
    if path is not None:
        os.makedirs(out_dir, exist_ok=True)
        ag.save_checkpoint(net, path)
    return net


def run_sweep(config: SimConfig, seed: int = 0, out_dir: str = None):
    """Evaluate every (policy, i_max, seed) point of the config's sweep grid.

    The grid is sweep_policies x sweep_i_max x the seeds seed ... seed +
    sweep_seeds - 1; rows come back sorted by (policy, i_max, seed). Each
    DQN network is trained, or loaded from its checkpoint under out_dir,
    the first time a dqn row needs it: one per (i_max, seed), or with
    shared_model one per seed, trained at max(sweep_i_max) and evaluated at
    every i_max. A sweep policy that cannot run under the config raises
    ConfigError before any network is trained.
    """
    for policy in config.sweep_policies:
        config.check_policy(policy)
    seeds = range(seed, seed + config.sweep_seeds)
    nets = {}
    rows = []
    for policy in sorted(config.sweep_policies):
        for i_max in sorted(config.sweep_i_max):
            cfg = replace(config, i_max=i_max)
            train_cfg = (replace(config, i_max=max(config.sweep_i_max))
                         if config.shared_model else cfg)
            for s in seeds:
                key = (train_cfg.i_max, s)
                if policy == "dqn" and key not in nets:
                    nets[key] = _load_or_train(train_cfg, s, out_dir)
                net = nets[key] if policy == "dqn" else None
                rows.append(run_eval(policy, cfg, s, config.eval_realizations,
                                     net=net))
    return rows


def _fmt(value) -> str:
    """Decimal notation with 6 significant digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return np.format_float_positional(float(value), precision=6, unique=False,
                                      fractional=False, trim="-")


def emit_csv(rows, path: str) -> None:
    """Write result rows under the fixed 11-column header."""
    if not rows:
        raise ValueError("emit_csv requires at least one row")
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in dataclasses.astuple(row)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def dump_trajectory(records, path: str) -> None:
    """Per-interval, per-device trajectory CSV for one episode."""
    lines = [TRAJECTORY_HEADER]
    for rec in records:
        q = rec.queues_before
        for k in range(len(q.q_local)):
            lines.append(",".join([
                str(rec.interval), str(k),
                _fmt(q.q_local[k]), _fmt(q.q_uav[k]), _fmt(q.q_cloud[k]),
                _fmt(rec.reward_per_device[k]), str(int(rec.eta[k])),
                _fmt(rec.t_comm[k]), _fmt(rec.b_tot[k])]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
