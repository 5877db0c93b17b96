import numpy as np
import pytest

from uavmec import agent as ag
from uavmec.cli import main
from uavmec.config import load_config

FAST = [
    "--override", "num_devices=1",
    "--override", "n_intervals=10",
    "--override", "episodes=2",
    "--override", "batch_size=8",
    "--override", "buffer_capacity=100",
    "--override", "eval_realizations=2",
]


class TestTrain:
    def test_writes_checkpoint_and_curve(self, tmp_path, capsys):
        rc = main(["train", "--seed", "1", "--out", str(tmp_path)] + FAST)
        assert rc == 0
        assert len(list(tmp_path.glob("dqn_250000_1_*.ckpt"))) == 1
        curve = tmp_path / "curve_250000_1.csv"
        lines = curve.read_text().splitlines()
        assert lines[0] == "episode,cumulative_reward,mean_td_loss"
        assert len(lines) == 3

    def test_curve_holds_each_episodes_mean_td_loss(self, tmp_path):
        # 10-interval episodes and batch_size 8: episode 0 makes 3 updates
        # (its intervals 7-9), episode 1 makes 10.
        assert main(["train", "--seed", "1", "--out", str(tmp_path)]
                    + FAST) == 0
        rows = [line.split(",") for line in
                (tmp_path / "curve_250000_1.csv").read_text().splitlines()[1:]]
        result = ag.train(load_config(None, dict(
            pair.split("=") for pair in FAST[1::2])), 1)
        assert [float(r[1]) for r in rows] == result.episode_rewards
        assert [float(r[2]) for r in rows] == [
            float(np.mean(result.losses[:3])),
            float(np.mean(result.losses[3:]))]
        assert len(result.losses) == 13

    def test_episode_without_updates_has_nan_loss(self, tmp_path):
        assert main(["train", "--out", str(tmp_path)] + FAST
                    + ["--override", "batch_size=16"]) == 0
        lines = (tmp_path / "curve_250000_0.csv").read_text().splitlines()
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

    def test_dqn_without_checkpoint_fails(self, tmp_path, capsys):
        rc = main(["eval", "--policy", "dqn", "--out", str(tmp_path)] + FAST)
        assert rc == 1
        assert "no checkpoint" in capsys.readouterr().err

    def test_dqn_after_train(self, tmp_path):
        assert main(["train", "--out", str(tmp_path)] + FAST) == 0
        rc = main(["eval", "--policy", "dqn", "--out", str(tmp_path),
                   "--dump-trajectory"] + FAST)
        assert rc == 0
        assert (tmp_path / "eval_dqn_250000_0.csv").exists()
        traj = tmp_path / "trajectory_dqn_250000_0.csv"
        assert traj.read_text().splitlines()[0] == (
            "interval,device,ql,qu,qc,reward,eta,t_comm,b_tot")

    def test_fixed_policy_levels_missing_exit_code(self, tmp_path, capsys):
        # validate() checks only sweep_policies, so eval checks --policy
        # itself and reports a config error, not a catalog-lookup traceback
        out = tmp_path / "eval"
        rc = main(["eval", "--policy", "uav_heavy", "--out", str(out)]
                  + FAST + ["--override", "frac_levels=0.0,0.5",
                            "--override", "sweep_policies=dqn,random"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'uav_heavy'" in err
        assert not out.exists()

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

    def test_fixed_policy_levels_rejected_before_training(
            self, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("sweep trained a network")
        monkeypatch.setattr(ag, "train", no_training)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--out", str(out)] + FAST + [
            "--override", "frac_levels=0.0,0.5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'uav_heavy'" in err
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
        assert "config error" in capsys.readouterr().err

    def test_malformed_override_pair(self, tmp_path, capsys):
        rc = main(["eval", "--policy", "random", "--override", "num_devices",
                   "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("pair", ["num_devices=2.5", "num_devices=inf"])
    def test_non_integer_override_exit_code(self, tmp_path, capsys, pair):
        # 2.5 used to run with 2 devices, inf to crash with an OverflowError
        rc = main(["eval", "--policy", "random", "--override", pair,
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "num_devices" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["replay"])
