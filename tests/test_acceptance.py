"""End-to-end acceptance suite.

One test per criterion, in order: oracle equivalences, channel statistics,
gradient checks, queue safety, determinism, the qualitative PDE/CD trends
against the fixed baselines, sweep monotonicity, and queue stability.

The trend criteria need five fully trained networks at the default scenario
(about 4 min each); checkpoints are cached under tests/_acceptance_cache so
repeated runs skip the training cost. A cached file is named by i_max, seed
and a hash of the training config and agent.CHECKPOINT_VERSION, so a change
to either trains fresh networks under new names (bump the version when a code
change alters training). Delete the directory to retrain from scratch.
Criteria 7-10, the ones that use those networks, are marked slow:
``pytest -m "not slow"`` skips them.
"""

import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from uavmec import agent as ag
from uavmec import harness, objective as obj, queueing as qs
from uavmec.channel import rician_sample
from uavmec.cli import main as cli_main
from uavmec.config import SimConfig
from uavmec.environment import MecEnvironment

SEEDS = (0, 1, 2, 3, 4)
GRID_SEEDS = (0, 1, 2)
EVAL_REALIZATIONS = 10
GRID_REALIZATIONS = 5
CACHE = Path(__file__).parent / "_acceptance_cache"


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}",
          flush=True)


# -- shared heavyweight artifacts --------------------------------------------

@pytest.fixture(scope="module")
def default_config():
    return SimConfig().validate()


@pytest.fixture(scope="module")
def trained_nets(default_config):
    """One trained network per seed at the default scenario, disk-cached."""
    CACHE.mkdir(exist_ok=True)
    nets = {}
    for seed in SEEDS:
        path = harness.checkpoint_path(str(CACHE), default_config, seed)
        if os.path.exists(path):
            nets[seed] = ag.load_checkpoint(path)
            continue
        t0 = time.monotonic()
        nets[seed] = harness.train_dqn(default_config, seed)
        ag.save_checkpoint(nets[seed], path)
        print(f"trained seed {seed} in {time.monotonic() - t0:.0f} s",
              flush=True)
    return nets


@pytest.fixture(scope="module")
def full_scale_rows(default_config, trained_nets):
    """Per-policy per-seed evaluation rows at i_max = 2.5e5."""
    rows = {}
    for policy in ("dqn", "random", "uav_heavy", "cloud_heavy"):
        rows[policy] = [
            harness.run_eval(policy, default_config, seed, EVAL_REALIZATIONS,
                             net=trained_nets.get(seed) if policy == "dqn"
                             else None)
            for seed in SEEDS]
    return rows


def mean_metric(rows, attr):
    return float(np.mean([getattr(r, attr) for r in rows]))


# -- criteria -----------------------------------------------------------------

def test_criterion_01_queue_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.monotonic()
    mismatches = 0
    for _ in range(1000):
        q = qs.QueueTriple(*rng.uniform(0, 1e6, 3))
        x_u, x_c, w_l, w_u, w_c = rng.uniform(0, 1, 5)
        arrival = float(rng.uniform(0, 2.5e5))
        s = qs.compute_splits(q, x_u, x_c, w_l, w_u, w_c)
        nxt = qs.QueueTriple(*qs.step_queues(
            np.array((q.q_local, q.q_uav, q.q_cloud)), qs.split_stack(s),
            arrival).tolist())
        want = (max(0.0, q.q_local - x_u * q.q_local
                    - w_l * (1 - x_u) * q.q_local) + arrival,
                max(0.0, q.q_uav - x_c * q.q_uav
                    - w_u * (1 - x_c) * q.q_uav) + x_u * q.q_local,
                max(0.0, q.q_cloud - w_c * q.q_cloud) + x_c * q.q_uav)
        if (nxt.q_local, nxt.q_uav, nxt.q_cloud) != want:
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 1.0
    report("criterion 1 (queue oracle)", ok,
           f"{mismatches} mismatches in 1000 instances, {elapsed:.2f} s")
    assert mismatches == 0
    assert elapsed < 1.0


def test_criterion_02_reward_oracle():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        q = qs.QueueTriple(*rng.uniform(0, 1e6, 3))
        s = qs.SplitAmounts(*rng.uniform(0, 1e5, 5))
        t_comm = float(rng.uniform(0.01, 5))
        hist = float(rng.uniform(0, 1e5))
        v1, v2, v3, v4 = rng.uniform(0, 2, 4)
        eta = int(rng.integers(0, 2))
        w = SimConfig(v1=v1, v2=v2, v3=v3, v4=v4)
        got = obj.reward(q, s, t_comm, hist, w, eta)
        b_tot = s.b_local + s.b_uav + s.b_cloud
        want = (v1 * q.q_local * (s.b_local + s.d_uav)
                - v2 * q.q_uav * (s.d_uav - s.b_uav - s.d_cloud)
                - v3 * q.q_cloud * (s.d_cloud - s.b_cloud)
                + v4 * (b_tot - t_comm * hist) * eta)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    # K = 1, v = (1, 1, 1, V): the summed reward with eta = 1 equals the
    # drift-plus-penalty value under a shared history.
    processed, delays = [4000.0], [2.0]
    weights = SimConfig(v1=1, v2=1, v3=1, v4=1, lyapunov_v=1.0)
    dpp_worst = 0.0
    for _ in range(100):
        q = qs.QueueTriple(*rng.uniform(0, 1e5, 3))
        xu, xc, wl, wu, wc = rng.uniform(0, 1, 5)
        s = qs.compute_splits(q, xu, xc, wl, wu, wc)
        t_comm = float(rng.uniform(0.01, 3))
        dpp = obj.drift_plus_penalty_value([q], [s], [t_comm], processed,
                                           delays, weights)
        r = obj.reward(q, s, t_comm, obj.short_term_pde(processed, delays),
                       weights, 1)
        dpp_worst = max(dpp_worst, abs(dpp - r) / max(1.0, abs(dpp)))
    ok = worst < 1e-9 and dpp_worst < 1e-9
    report("criterion 2 (reward oracle)", ok,
           f"max rel err {worst:.2e}, dpp equivalence err {dpp_worst:.2e}")
    assert worst < 1e-9
    assert dpp_worst < 1e-9


def test_criterion_03_channel_statistics():
    t0 = time.monotonic()
    rng = np.random.default_rng(1003)
    power = np.abs(rician_sample(rng, 10.0, size=100_000)) ** 2
    mean_power = float(np.mean(power))
    los = np.abs(rician_sample(rng, 1e14, size=1000))
    los_dev = float(np.max(np.abs(los - 1.0)))
    inf_dev = abs(abs(rician_sample(rng, math.inf)) - 1.0)
    elapsed = time.monotonic() - t0
    ok = (0.99 <= mean_power <= 1.01 and los_dev < 1e-6 and inf_dev < 1e-6
          and elapsed < 5.0)
    report("criterion 3 (channel statistics)", ok,
           f"E|rho|^2 = {mean_power:.4f}, capped-K deviation {los_dev:.1e}, "
           f"{elapsed:.2f} s")
    assert 0.99 <= mean_power <= 1.01
    assert los_dev < 1e-6 and inf_dev < 1e-6
    assert elapsed < 5.0


def test_criterion_04_gradient_check():
    t0 = time.monotonic()
    rng = np.random.default_rng(1004)
    worst = 0.0
    for trial in range(10):
        in_size = int(rng.integers(2, 6))
        hidden = tuple(int(rng.integers(4, 10))
                       for _ in range(int(rng.integers(1, 3))))
        out_size = int(rng.integers(3, 8))
        net = ag.QNetwork(in_size, hidden, out_size, rng=rng)
        for w in net.weights:
            w += rng.standard_normal(w.shape) * 0.3
        target = net.copy()
        n = 8
        batch = (rng.standard_normal((n, in_size)),
                 rng.integers(0, out_size, n), rng.standard_normal(n),
                 rng.standard_normal((n, in_size)), rng.random(n) < 0.3)
        cfg = SimConfig(discount=0.9, learning_rate=1.0, grad_clip=1e12)
        probe = net.copy()
        ag.train_step(probe, target, batch, cfg)
        h = 1e-6
        for p, p_new in zip(net.parameters(), probe.parameters()):
            grad = p - p_new
            idx = np.unravel_index(int(np.argmax(np.abs(grad))), grad.shape)
            saved = p[idx]
            p[idx] = saved + h
            up = ag.td_loss(net, target, batch, cfg)
            p[idx] = saved - h
            down = ag.td_loss(net, target, batch, cfg)
            p[idx] = saved
            fd = (up - down) / (2 * h)
            scale = max(abs(fd), abs(grad[idx]), 1e-8)
            worst = max(worst, abs(fd - grad[idx]) / scale)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    report("criterion 4 (gradient check)", ok,
           f"max rel err {worst:.2e} over 10 nets, {elapsed:.2f} s")
    assert worst < 1e-4
    assert elapsed < 10.0


def test_criterion_05_queue_safety_fuzz():
    t0 = time.monotonic()
    rng = np.random.default_rng(1005)
    negatives = 0
    clamped = 0
    backlog = np.zeros(3)
    for i in range(100_000):
        if i % 1000 == 0:   # restart from random backlogs to vary regimes
            backlog = rng.uniform(0, 1e6, 3)
        queues = qs.QueueTriple(*backlog.tolist())
        x_u, x_c, w_l, w_u, w_c = rng.uniform(0, 1, 5)
        s = qs.compute_splits(queues, x_u, x_c, w_l, w_u, w_c)
        if (queues.q_local - s.d_uav - s.b_local < 0.0
                or queues.q_uav - s.d_cloud - s.b_uav < 0.0
                or queues.q_cloud - s.b_cloud < 0.0):
            clamped += 1
        backlog = qs.step_queues(backlog, qs.split_stack(s),
                                 float(rng.uniform(0, 2.5e5)))
        if backlog.min() < 0:
            negatives += 1
    elapsed = time.monotonic() - t0
    ok = negatives == 0 and clamped == 0 and elapsed < 10.0
    report("criterion 5 (queue safety fuzz)", ok,
           f"{negatives} negative backlogs, {clamped} active clamps in 1e5 "
           f"steps, {elapsed:.2f} s")
    assert negatives == 0
    assert clamped == 0
    assert elapsed < 10.0


def test_criterion_06_sweep_determinism(tmp_path):
    overrides = []
    for kv in ("num_devices=1", "n_intervals=10", "episodes=2",
               "batch_size=8", "buffer_capacity=100", "eval_realizations=2",
               "sweep_i_max=1.0e5,2.5e5", "sweep_seeds=2"):
        overrides += ["--override", kv]
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main(["sweep", "--seed", "0", "--out", str(out)] + overrides)
        assert rc == 0
        outputs.append((out / "sweep.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    report("criterion 6 (sweep determinism)", ok,
           f"byte-identical: {ok} ({len(outputs[0])} bytes)")
    assert ok


@pytest.mark.slow
def test_criterion_07_pde_trend(full_scale_rows):
    pde = {p: mean_metric(rows, "mean_pde")
           for p, rows in full_scale_rows.items()}
    best_baseline = max(pde["random"], pde["uav_heavy"], pde["cloud_heavy"])
    ratio = pde["dqn"] / best_baseline if best_baseline > 0 else math.inf
    ordering = (pde["dqn"] > pde["cloud_heavy"] > pde["random"]
                > pde["uav_heavy"])
    ok = ordering and ratio >= 1.10
    report("criterion 7 (PDE trend)", ok,
           f"mean PDE dqn={pde['dqn']:.0f} cloud={pde['cloud_heavy']:.0f} "
           f"random={pde['random']:.0f} uav={pde['uav_heavy']:.0f}; "
           f"dqn/best-baseline ratio {ratio:.3f}")
    assert ordering, f"PDE ordering DQN > Cloud > Random > UAV violated: {pde}"
    assert ratio >= 1.10, f"DQN/best-baseline ratio {ratio:.3f} below 1.10"


@pytest.mark.slow
def test_criterion_08_cd_trend(full_scale_rows):
    cd = {p: mean_metric(rows, "mean_cd")
          for p, rows in full_scale_rows.items()}
    ok = cd["uav_heavy"] < cd["dqn"] < cd["random"] < cd["cloud_heavy"]
    report("criterion 8 (CD trend)", ok,
           f"mean CD uav={cd['uav_heavy']:.3f} dqn={cd['dqn']:.3f} "
           f"random={cd['random']:.3f} cloud={cd['cloud_heavy']:.3f}")
    assert ok, f"CD ordering UAV < DQN < Random < Cloud violated: {cd}"


@pytest.mark.slow
def test_criterion_09_sweep_monotonicity(default_config, trained_nets):
    # One network per seed, trained at max(sweep_i_max) = the default i_max,
    # so the sweep loads trained_nets' checkpoints.
    cfg = replace(default_config, sweep_seeds=len(GRID_SEEDS),
                  eval_realizations=GRID_REALIZATIONS, shared_model=True)
    rows = harness.run_sweep(cfg, GRID_SEEDS[0], out_dir=str(CACHE))
    grid = sorted(cfg.sweep_i_max)
    ok = True
    details = []
    for policy in cfg.sweep_policies:
        for attr in ("mean_pde", "mean_cd"):
            means = [np.mean([getattr(r, attr) for r in rows
                              if r.policy == policy and r.i_max == v])
                     for v in grid]
            rho = scipy.stats.spearmanr(grid, means).statistic
            details.append(f"{policy}/{attr} rho={rho:.2f}")
            if not rho > 0.9:
                ok = False
    report("criterion 9 (sweep monotonicity)", ok, ", ".join(details))
    assert ok, f"Spearman rank correlation not > 0.9 everywhere: {details}"


@pytest.mark.slow
def test_criterion_10_queue_stability(default_config, trained_nets):
    _, records = harness.run_eval("dqn", default_config, seed=0,
                                  realizations=1, net=trained_nets[0],
                                  collect_records=True)
    n = len(records)
    tail_start = int(n * 0.8)
    t_crit = scipy.stats.t.ppf(0.95, df=(n - tail_start) - 2)
    ok = True
    worst = -math.inf
    for k in range(default_config.num_devices):
        for tier in ("q_local", "q_uav", "q_cloud"):
            series = np.array([getattr(r.queues_before, tier)[k]
                               for r in records])
            running_mean = np.cumsum(series) / np.arange(1, n + 1)
            tail = running_mean[tail_start:]
            fit = scipy.stats.linregress(np.arange(len(tail)), tail)
            # one-sided test: reject only if the slope is significantly > 0
            t_stat = (fit.slope / fit.stderr if fit.stderr > 0
                      else math.copysign(math.inf, fit.slope))
            worst = max(worst, t_stat)
            if fit.slope > 0 and t_stat > t_crit:
                ok = False
    report("criterion 10 (queue stability)", ok,
           f"worst one-sided t statistic {worst:.2f} "
           f"(95% critical value {t_crit:.2f})")
    assert ok, "a running-mean backlog shows a significant positive trend"
