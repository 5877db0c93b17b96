import os

import numpy as np
import pytest

from uavmec import agent as ag
from uavmec import harness
from uavmec.cli import main
from uavmec.config import load_config
from uavmec.environment import IntervalRecord

FAST = [
    "--override", "num_devices=1",
    "--override", "n_intervals=10",
    "--override", "episodes=2",
    "--override", "batch_size=8",
    "--override", "buffer_capacity=100",
    "--override", "eval_realizations=2",
]


# Checkpoints that the dqn of the FAST config, which observes 3 levels and
# has 80 catalog entries, cannot use: files that load_checkpoint rejects, and
# networks whose layer sizes do not fit the config.
BAD_CHECKPOINTS = ["not an archive", "no sizes", "a directory",
                   "6 inputs", "7 outputs", "text w0", "NaN w0"]


def bad_checkpoint(out_dir, kind, *extra):
    """A bad checkpoint of kind (BAD_CHECKPOINTS) at the checkpoint path of
    the FAST config with extra overrides. Returns the path."""
    config = load_config(None, (FAST + list(extra))[1::2])
    path = harness.checkpoint_path(str(out_dir), config, 0)
    out_dir.mkdir(exist_ok=True)
    if kind == "a directory":
        os.mkdir(path)
    elif kind in ("text w0", "NaN w0"):
        # a text layer used to fail in the forward pass with a numpy
        # traceback, a NaN one to evaluate as if every action were entry 0
        net = ag.QNetwork(3, (8,), 80)
        net.weights[0] = np.full((3, 8), "x" if kind == "text w0" else np.nan)
        ag.save_checkpoint(net, path)
    elif kind in ("6 inputs", "7 outputs"):
        ag.save_checkpoint(ag.QNetwork(6 if kind == "6 inputs" else 3, (8,),
                                       7 if kind == "7 outputs" else 80),
                           path)
    else:
        with open(path, "wb") as fh:
            if kind == "not an archive":
                fh.write(b"not a checkpoint\n")
            else:
                np.savez(fh, version=np.array(ag.CHECKPOINT_VERSION))
    return path


def run_files(out_dir, tag):
    """The one checkpoint and the one learning curve of tag under out_dir,
    whose names carry the same key."""
    ckpt, = out_dir.glob(f"dqn_{tag}_*.ckpt")
    curve, = out_dir.glob(f"curve_{tag}_*.csv")
    assert curve.stem.removeprefix("curve_") == ckpt.stem.removeprefix("dqn_")
    return ckpt, curve


def one_error_line(capsys, path):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: checkpoint ")
    assert path in err[0]


class TestTrain:
    def test_writes_checkpoint_and_curve(self, tmp_path, capsys):
        rc = main(["train", "--seed", "1", "--out", str(tmp_path)] + FAST)
        assert rc == 0
        _, curve = run_files(tmp_path, "250000_1")
        lines = curve.read_text().splitlines()
        assert lines[0] == "episode,cumulative_reward,mean_td_loss"
        assert len(lines) == 3

    def test_fractional_arrival_bound_names_its_files(self, tmp_path):
        assert main(["train", "--out", str(tmp_path), "--override",
                     "i_max=100.5"] + FAST) == 0
        run_files(tmp_path, "100.5_0")

    def test_runs_of_two_configs_keep_their_curves(self, tmp_path):
        # both used to write curve_250000_0.csv, the second over the first,
        # beside two checkpoints
        for episodes in (2, 3):
            assert main(["train", "--out", str(tmp_path)] + FAST
                        + ["--override", f"episodes={episodes}"]) == 0
        curves = sorted(tmp_path.glob("curve_250000_0_*.csv"))
        assert len(curves) == 2 and len(list(tmp_path.iterdir())) == 4
        assert sorted(len(c.read_text().splitlines()) for c in curves) == \
            [3, 4]

    def test_curve_holds_each_episodes_mean_td_loss(self, tmp_path):
        # 10-interval episodes and batch_size 8: episode 0 makes 3 updates
        # (its intervals 7-9), episode 1 makes 10.
        assert main(["train", "--seed", "1", "--out", str(tmp_path)]
                    + FAST) == 0
        _, curve = run_files(tmp_path, "250000_1")
        rows = [line.split(",") for line in curve.read_text().splitlines()[1:]]
        result = ag.train(load_config(None, FAST[1::2]), 1)
        assert [float(r[1]) for r in rows] == result.episode_rewards
        assert [float(r[2]) for r in rows] == [
            float(np.mean(result.losses[:3])),
            float(np.mean(result.losses[3:]))]
        assert len(result.losses) == 13

    def test_above_catalog_cap_rejected_before_training(
            self, tmp_path, capsys, monkeypatch):
        def no_network(*args, **kwargs):
            raise AssertionError("train built a network")
        monkeypatch.setattr(ag, "QNetwork", no_network)
        out = tmp_path / "train"
        rc = main(["train", "--out", str(out)] + FAST
                  + ["--override", "num_devices=3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "max_catalog_size" in err
        assert not out.exists()

    def test_episode_without_updates_has_nan_loss(self, tmp_path):
        assert main(["train", "--out", str(tmp_path)] + FAST
                    + ["--override", "batch_size=16"]) == 0
        lines = run_files(tmp_path, "250000_0")[1].read_text().splitlines()
        assert lines[1].endswith(",nan")
        assert not lines[2].endswith(",nan")


class TestEval:
    def test_baseline_policy(self, tmp_path):
        rc = main(["eval", "--policy", "uav_heavy", "--seed", "2",
                   "--out", str(tmp_path)] + FAST)
        assert rc == 0
        out = tmp_path / "eval_uav_heavy_250000_2.csv"
        assert out.exists()
        assert len(out.read_text().splitlines()) == 2

    def test_records_copied_only_for_a_trajectory(self, tmp_path,
                                                  monkeypatch):
        # the eval row is the same with and without --dump-trajectory, and
        # without it no interval's record is copied
        args = ["eval", "--policy", "random"] + FAST
        assert main(args + ["--out", str(tmp_path / "dump"),
                            "--dump-trajectory"]) == 0

        def no_copy(record, r):
            raise AssertionError("record copied without --dump-trajectory")

        monkeypatch.setattr(IntervalRecord, "realization", no_copy)
        assert main(args + ["--out", str(tmp_path / "plain")]) == 0
        name = "eval_random_250000_0.csv"
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "dump" / name).read_bytes()

    def test_dqn_without_checkpoint_fails(self, tmp_path, capsys):
        # and creates no --out, which it used to before the checkpoint was
        # looked for
        out = tmp_path / "eval"
        rc = main(["eval", "--policy", "dqn", "--out", str(out)] + FAST)
        assert rc == 1
        assert "no checkpoint" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", BAD_CHECKPOINTS)
    def test_dqn_with_a_bad_checkpoint_fails(self, tmp_path, capsys, kind):
        path = bad_checkpoint(tmp_path, kind)
        rc = main(["eval", "--policy", "dqn", "--out", str(tmp_path)] + FAST)
        assert rc == 1
        one_error_line(capsys, path)

    def test_dqn_after_train(self, tmp_path):
        assert main(["train", "--out", str(tmp_path)] + FAST) == 0
        rc = main(["eval", "--policy", "dqn", "--out", str(tmp_path),
                   "--dump-trajectory"] + FAST)
        assert rc == 0
        assert (tmp_path / "eval_dqn_250000_0.csv").exists()
        traj = tmp_path / "trajectory_dqn_250000_0.csv"
        assert traj.read_text().splitlines()[0] == (
            "interval,device,ql,qu,qc,reward,eta,t_comm,b_tot")

    def test_fixed_policy_levels_missing_exit_code(self, tmp_path):
        # a fixed baseline passes its fractions as values: levels without
        # them run, and give the row of the default levels
        name = "eval_uav_heavy_250000_0.csv"
        assert main(["eval", "--policy", "uav_heavy", "--out",
                     str(tmp_path / "default")] + FAST) == 0
        rc = main(["eval", "--policy", "uav_heavy", "--out",
                   str(tmp_path / "levels")]
                  + FAST + ["--override", "frac_levels=0.0,0.5",
                            "--override", "sweep_policies=dqn,random"])
        assert rc == 0
        assert (tmp_path / "levels" / name).read_bytes() == \
            (tmp_path / "default" / name).read_bytes()

    def test_fixed_policy_above_catalog_cap(self, tmp_path):
        # three devices: 20480 catalog entries, above max_catalog_size,
        # which caps only the dqn
        rc = main(["eval", "--policy", "uav_heavy", "--out", str(tmp_path)]
                  + FAST + ["--override", "num_devices=3"])
        assert rc == 0
        out = tmp_path / "eval_uav_heavy_250000_0.csv"
        assert len(out.read_text().splitlines()) == 2

    def test_dqn_above_catalog_cap_exit_code(self, tmp_path, capsys):
        out = tmp_path / "eval"
        rc = main(["eval", "--policy", "dqn", "--out", str(out)]
                  + FAST + ["--override", "num_devices=3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "max_catalog_size" in err
        assert not out.exists()

    def test_fractional_arrival_bounds_keep_their_files(self, tmp_path):
        # both used to write eval_uav_heavy_100_0.csv, the second over the
        # first
        for i_max in ("100.5", "100.9"):
            assert main(["eval", "--policy", "uav_heavy", "--out",
                         str(tmp_path), "--override", f"i_max={i_max}"]
                        + FAST) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "eval_uav_heavy_100.5_0.csv", "eval_uav_heavy_100.9_0.csv"]

    def test_huge_arrival_bound_gets_a_short_name(self, tmp_path):
        # the evaluation used to run, then fail to open a file named by the
        # 251 digits of int(1e250)
        rc = main(["eval", "--policy", "uav_heavy", "--out", str(tmp_path),
                   "--override", "i_max=1e250"] + FAST)
        assert rc == 0
        assert [p.name for p in tmp_path.iterdir()] == [
            "eval_uav_heavy_1e+250_0.csv"]

    def test_trajectory_lands_in_out_dir(self, tmp_path):
        # only the file name changes prefix, never the directory
        out = tmp_path / "eval_runs"
        rc = main(["eval", "--policy", "random", "--out", str(out),
                   "--dump-trajectory"] + FAST)
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "eval_random_250000_0.csv", "trajectory_random_250000_0.csv"]


class TestSweep:
    def test_grid_rows(self, tmp_path):
        rc = main(["sweep", "--out", str(tmp_path)] + FAST + [
            "--override", "sweep_i_max=1.0e5,2.0e5",
            "--override", "sweep_seeds=2",
            "--override", "sweep_policies=random,uav_heavy"])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2

    @pytest.mark.parametrize("kind", BAD_CHECKPOINTS)
    def test_bad_cached_checkpoint_fails(self, tmp_path, capsys, kind):
        grid = ["--override", "sweep_policies=dqn",
                "--override", "sweep_i_max=2.5e5",
                "--override", "sweep_seeds=1"]
        path = bad_checkpoint(tmp_path, kind, *grid)
        rc = main(["sweep", "--out", str(tmp_path)] + FAST + grid)
        assert rc == 1
        one_error_line(capsys, path)
        assert not (tmp_path / "sweep.csv").exists()

    def test_dqn_above_catalog_cap_rejected_before_training(
            self, tmp_path, capsys, monkeypatch):
        # three devices validate, and the default sweep_policies hold dqn
        def no_training(*args, **kwargs):
            raise AssertionError("sweep trained a network")
        monkeypatch.setattr(ag, "train", no_training)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--out", str(out)] + FAST + [
            "--override", "num_devices=3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "max_catalog_size" in err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["-1,1e5", "nan"])
    def test_bad_sweep_i_max_rejected_before_training(
            self, tmp_path, capsys, monkeypatch, grid):
        # a bad grid point is rejected at load, before any network is trained
        def no_training(*args, **kwargs):
            raise AssertionError("sweep trained a network")
        monkeypatch.setattr(ag, "train", no_training)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--out", str(out)] + FAST + [
            "--override", f"sweep_i_max={grid}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "sweep_i_max" in err
        assert not out.exists()


class TestConfigHandling:
    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("num_devices = 1\nn_intervals = 5\n"
                       "eval_realizations = 1\n")
        rc = main(["eval", "--policy", "random", "--config", str(cfg),
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_bad_override_exit_code(self, tmp_path, capsys):
        rc = main(["eval", "--policy", "random", "--override", "nope=1",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: --override: unknown config key 'nope'\n")

    def test_bad_config_file_line_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        rc = main(["eval", "--policy", "random", "--config", str(cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: {cfg}:1: unknown config key 'bogus'\n")

    def test_malformed_override_pair(self, tmp_path, capsys):
        rc = main(["eval", "--policy", "random", "--override", "num_devices",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: --override: expected 'key = value', got "
            "'num_devices'\n")

    @pytest.mark.parametrize("pair", ["num_devices=2.5", "num_devices=inf"])
    def test_non_integer_override_exit_code(self, tmp_path, capsys, pair):
        # 2.5 used to run with 2 devices, inf to crash with an OverflowError
        rc = main(["eval", "--policy", "random", "--override", pair,
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "num_devices" in capsys.readouterr().err

    def test_nan_noise_density_exit_code(self, tmp_path, capsys):
        # used to run, and write mean_cd = inf and mean_pde = 0
        rc = main(["eval", "--policy", "random", "--override",
                   "noise_density_dbm=nan", "--out", str(tmp_path / "nan")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "config error: noise_density_dbm must be finite")
        assert not (tmp_path / "nan").exists()

    @pytest.mark.parametrize("command", [
        ["train"], ["eval", "--policy", "random"], ["sweep"]])
    def test_out_file_rejected_before_the_command(self, tmp_path, capsys,
                                                  monkeypatch, command):
        # train used to train its network, and sweep run its grid, before
        # os.makedirs failed on the file with a traceback
        def fail(*args, **kwargs):
            raise AssertionError("the command ran")

        for module, name in ((ag, "train"), (harness, "run_sweep"),
                             (harness, "run_eval")):
            monkeypatch.setattr(module, name, fail)
        out = tmp_path / "results"
        out.write_text("kept\n")
        rc = main(command + ["--out", str(out)] + FAST)
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --out {out} is not a directory"]
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("command", [
        ["train"], ["eval", "--policy", "random"], ["sweep"]])
    def test_out_below_a_file_rejected_before_the_command(
            self, tmp_path, capsys, monkeypatch, command):
        # used to end in a NotADirectoryError traceback from os.makedirs,
        # for train after training and for sweep after the whole grid
        def fail(*args, **kwargs):
            raise AssertionError("the command ran")

        for module, name in ((ag, "train"), (harness, "run_sweep"),
                             (harness, "run_eval")):
            monkeypatch.setattr(module, name, fail)
        (tmp_path / "results").write_text("kept\n")
        out = tmp_path / "results" / "sub"
        rc = main(command + ["--out", str(out)] + FAST)
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --out {out} is not a directory"]
        assert (tmp_path / "results").read_text() == "kept\n"

    def test_negative_seed_rejected(self, tmp_path, capsys):
        # numpy's generators take only non-negative seeds
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--policy", "random", "--seed", "-1",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["replay"])
