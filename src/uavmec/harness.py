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
from .environment import Lockstep, MecEnvironment

CSV_HEADER = ("policy,i_max,seed,mean_pde,mean_cd,mean_pd,mean_ql,mean_qu,"
              "mean_qc,c10_violation_rate,terminal_uav_distance")

TRAJECTORY_HEADER = "interval,device,ql,qu,qc,reward,eta,t_comm,b_tot"

# Entropy salt separating evaluation streams from training streams that are
# derived from the same user-facing seed.
_EVAL_SALT = 0xE7A1

# Bytes of per-interval values run_eval keeps for one lockstep block: 174
# realizations at the default 1000 intervals and 2 devices.
EVAL_BLOCK_BYTES = 16 * 2**20


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian experiment grid: policies x arrival bounds x seeds."""
    i_max_values: tuple
    seeds: tuple
    policies: tuple
    realizations: int = 1000
    shared_model: bool = False
    train_i_max: float = 0.0   # 0 -> largest grid point

    def __post_init__(self):
        if not self.i_max_values or not self.seeds or not self.policies:
            raise ValueError("sweep spec lists must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("sweep seeds must be distinct")


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
    seed. Realizations run in Lockstep blocks sized by EVAL_BLOCK_BYTES: per
    interval, each realization makes its own draws in its step(), and one
    pass of the backlog stages and one policy call serve the whole block.
    The stored per-interval values are summed one at a time in
    realization-major order, as one episode after another would be, so rows
    do not depend on the block size; a dqn row could only where the batched
    forward pass breaks a near-tie of Q-values the other way.

    Returns a ResultRow (plus the per-interval records of the last episode
    when collect_records is set).
    """
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    env = MecEnvironment(config)
    pol = ag.make_policy(policy, env, net=net)

    ss = np.random.SeedSequence(entropy=(seed, _EVAL_SALT))
    episode_seeds = ss.spawn(realizations + 1)
    policy_rng = np.random.default_rng(episode_seeds[-1])

    n_intervals, n_devices = config.n_intervals, config.num_devices
    block = max(1, EVAL_BLOCK_BYTES // (6 * 8 * n_intervals * n_devices))
    # Processed bits, comm delay and the local, UAV and cloud backlogs.
    totals = [0.0] * 5
    violations = 0
    terminal_dist = 0.0
    records = []
    for start in range(0, realizations, block):
        seeds = episode_seeds[start:min(start + block, realizations)]
        batch = Lockstep(env, seeds)
        observation = batch.observe()
        table = ag.action_table(pol, policy_rng, len(seeds), n_intervals)
        # b_tot, t_comm, the three backlogs and eta per interval,
        # realization and device.
        values = np.empty((6, n_intervals, len(seeds), n_devices))
        for n in range(n_intervals):
            if table is None:
                actions = ag.baseline_action(
                    pol, ag.normalize_observation(observation, config),
                    policy_rng)
            else:
                actions = table[:, n]
            tr = batch.step(actions)
            observation = tr.next_observation
            rec = tr.record
            q = rec.queues_before
            values[:, n] = (rec.b_tot, rec.t_comm, q.q_local, q.q_uav,
                            q.q_cloud, rec.eta)
            if collect_records and start + block >= realizations:
                records.append(rec.realization(-1))
        # PD and CD add one device sum per interval, the backlogs every
        # device value.
        per_interval = np.sum(values[:2], axis=-1).transpose(0, 2, 1)
        for i in range(2):
            totals[i] = _running_sum(totals[i], per_interval[i])
        for i in range(2, 5):
            totals[i] = _running_sum(totals[i], values[i].transpose(1, 0, 2))
        violations += int(np.count_nonzero(values[5] == 0))
        for dist in batch.terminal_distance():
            terminal_dist += dist
    # The row's field types stay as they were: floats for PD and CD, numpy
    # scalars for the backlog means.
    pd_sum, cd_sum, ql_sum, qu_sum, qc_sum = totals
    pd_sum, cd_sum = float(pd_sum), float(cd_sum)
    total_intervals = realizations * n_intervals
    n_dev_intervals = total_intervals * n_devices
    row = ResultRow(
        policy=policy, i_max=config.i_max, seed=seed,
        mean_pde=obj.long_term_pde(pd_sum, cd_sum),
        mean_cd=cd_sum / total_intervals,
        mean_pd=pd_sum / total_intervals,
        mean_ql=ql_sum / n_dev_intervals,
        mean_qu=qu_sum / n_dev_intervals,
        mean_qc=qc_sum / n_dev_intervals,
        c10_violation_rate=violations / n_dev_intervals,
        terminal_uav_distance=terminal_dist / realizations)
    return (row, records) if collect_records else row


def _running_sum(total, values: np.ndarray):
    """total + v0 + v1 + ... over values in C order, added one at a time.

    np.add.accumulate adds sequentially, where np.sum would add pairwise and
    round differently.
    """
    return np.add.accumulate(np.concatenate(([total], values.ravel())))[-1]


def run_sweep(spec: SweepSpec, config: SimConfig, out_dir: str = None):
    """Evaluate every (policy, i_max, seed) combination of the spec.

    The DQN is retrained per sweep point, or loaded when a checkpoint for
    that point already exists under out_dir. With shared_model, one model
    per seed (trained at train_i_max) is evaluated everywhere. Rows come
    back sorted by (policy, i_max, seed).
    """
    needs_dqn = "dqn" in spec.policies
    train_point = spec.train_i_max or max(spec.i_max_values)
    nets = {}
    if needs_dqn:
        for seed in spec.seeds:
            points = [train_point] if spec.shared_model else spec.i_max_values
            for i_max in points:
                cfg = replace(config, i_max=i_max).validate()
                path = (checkpoint_path(out_dir, cfg, seed)
                        if out_dir is not None else None)
                if path is not None and os.path.exists(path):
                    nets[(i_max, seed)] = ag.load_checkpoint(path)
                    continue
                nets[(i_max, seed)] = train_dqn(cfg, seed)
                if path is not None:
                    os.makedirs(out_dir, exist_ok=True)
                    ag.save_checkpoint(nets[(i_max, seed)], path)

    rows = []
    for policy in sorted(spec.policies):
        for i_max in sorted(spec.i_max_values):
            cfg = replace(config, i_max=i_max).validate()
            for seed in sorted(spec.seeds):
                net = None
                if policy == "dqn":
                    key = (train_point if spec.shared_model else i_max, seed)
                    net = nets[key]
                rows.append(run_eval(policy, cfg, seed, spec.realizations,
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


# -- selftest ----------------------------------------------------------------

def _check_queue_oracle(rng) -> bool:
    from . import queueing as qs
    for _ in range(1000):
        q = qs.QueueTriple(*rng.uniform(0, 1e6, size=3))
        x_u, x_c, w_l, w_u, w_c = rng.uniform(0, 1, size=5)
        arrival = float(rng.uniform(0, 2.5e5))
        s = qs.compute_splits(q, x_u, x_c, w_l, w_u, w_c)
        nxt = qs.step_queues(q, s, arrival)
        # independent restatement of the split/update arithmetic
        d_uav = x_u * q.q_local
        b_local = w_l * (1 - x_u) * q.q_local
        d_cloud = x_c * q.q_uav
        b_uav = w_u * (1 - x_c) * q.q_uav
        b_cloud = w_c * q.q_cloud
        want = (max(0.0, q.q_local - d_uav - b_local) + arrival,
                max(0.0, q.q_uav - d_cloud - b_uav) + d_uav,
                max(0.0, q.q_cloud - b_cloud) + d_cloud)
        got = (nxt.q_local, nxt.q_uav, nxt.q_cloud)
        if got != want or any(v < 0 for v in got):
            return False
    return True


def _check_channel_power(rng) -> bool:
    from .channel import rician_sample
    samples = rician_sample(rng, 10.0, size=100_000)
    mean_power = float(np.mean(np.abs(samples) ** 2))
    return 0.99 <= mean_power <= 1.01


def _check_gradients(rng) -> bool:
    # lr=1 and a huge clip bound turn the SGD update into the raw gradient
    cfg = SimConfig(hidden_sizes=(5,), batch_size=4, grad_clip=1e12,
                    learning_rate=1.0)
    net = ag.QNetwork(3, (5,), 4, rng=rng)
    target = net.copy()
    batch = (rng.standard_normal((4, 3)), rng.integers(0, 4, size=4),
             rng.standard_normal(4), rng.standard_normal((4, 3)),
             np.zeros(4, dtype=bool))
    trained = net.copy()
    ag.train_step(trained, target, batch, cfg)
    grads = [old - new for old, new
             in zip(net.parameters(), trained.parameters())]
    eps = 1e-6
    for p, g in zip(net.parameters(), grads):
        idx = np.unravel_index(int(np.argmax(np.abs(g))), g.shape)
        orig = p[idx]
        p[idx] = orig + eps
        up = ag.td_loss(net, target, batch, cfg)
        p[idx] = orig - eps
        down = ag.td_loss(net, target, batch, cfg)
        p[idx] = orig
        fd = (up - down) / (2 * eps)
        if abs(fd - g[idx]) > 1e-4 * max(1.0, abs(fd)):
            return False
    return True


def _check_determinism(config: SimConfig) -> bool:
    small = replace(config, n_intervals=20).validate()
    a = run_eval("random", small, seed=7, realizations=2)
    b = run_eval("random", small, seed=7, realizations=2)
    return a == b


def selftest(config: SimConfig = None) -> bool:
    """Quick oracle and property checks; prints one line per check."""
    config = config or SimConfig()
    rng = np.random.default_rng(12345)
    checks = [
        ("queue update oracle", lambda: _check_queue_oracle(rng)),
        ("rician mean power", lambda: _check_channel_power(rng)),
        ("dqn gradient check", lambda: _check_gradients(rng)),
        ("evaluation determinism", lambda: _check_determinism(config)),
    ]
    ok = True
    for name, fn in checks:
        passed = bool(fn())
        ok = ok and passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}")
    return ok
