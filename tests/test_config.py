import math

import pytest

from uavmec.config import (POLICY_KINDS, ConfigError, SimConfig,
                           db_to_linear, dbm_to_watts, load_config)
from uavmec.harness import run_eval


class TestConversions:
    def test_db(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(-40.0) == pytest.approx(1e-4)
        assert db_to_linear(10.0) == pytest.approx(10.0)

    def test_dbm(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)


class TestDefaults:
    def test_reference_scenario(self):
        cfg = SimConfig()
        assert cfg.num_devices == 2
        assert cfg.area_size == 500.0
        assert cfg.altitude == 100.0
        assert cfg.n_intervals == 1000
        assert cfg.tau == 1.0
        assert cfg.v_max == 30.0
        assert cfg.bandwidth == 180e3
        assert cfg.p_max == 0.1
        assert cfg.install_delay == 0.25
        assert cfg.i_max == 2.5e5
        assert cfg.rician_k == 10.0
        assert cfg.frac_levels == (0.3, 0.6)

    def test_derived_quantities(self):
        cfg = SimConfig()
        assert cfg.eta0 == pytest.approx(1e-4)
        assert cfg.noise_power == pytest.approx(7.164e-16, rel=1e-3)
        assert cfg.fixed_tx_power == 0.1
        assert cfg.queue_cap == 1e6
        assert cfg.uav_cpu_per_device == 2.5e6
        assert cfg.cloud_cpu_per_device == 5e7
        assert cfg.area_center == (250.0, 250.0)

    def test_noise_override(self):
        cfg = SimConfig(noise_power_override_w=1e-13)
        assert cfg.noise_power == 1e-13

    def test_tx_power_override(self):
        assert SimConfig(tx_power=0.05).fixed_tx_power == 0.05

    def test_queue_cap_override(self):
        assert SimConfig(q_cap=5e5).queue_cap == 5e5

    def test_defaults_validate(self):
        SimConfig().validate()


class TestValidate:
    def test_positive_fields(self):
        with pytest.raises(ConfigError, match="bandwidth"):
            SimConfig(bandwidth=-1.0).validate()
        with pytest.raises(ConfigError, match="num_devices"):
            SimConfig(num_devices=0).validate()

    @pytest.mark.parametrize("overrides, match", [
        ({"learning_rate": 0.0}, "learning_rate"),
        ({"learning_rate": -1e-3}, "learning_rate"),
        ({"grad_clip": 0.0}, "grad_clip"),
        ({"grad_clip": -1.0}, "grad_clip"),
        ({"eval_realizations": 0}, "eval_realizations"),
        ({"sweep_seeds": 0}, "sweep_seeds"),
        ({"batch_size": 65, "buffer_capacity": 64}, "exceeds buffer_capacity"),
        ({"hidden_sizes": (64, 0)}, "hidden_sizes"),
    ])
    def test_learner_values(self, overrides, match):
        # each of these trains without learning, diverges or fails late
        with pytest.raises(ConfigError, match=match):
            SimConfig(**overrides).validate()

    def test_batch_may_fill_the_buffer(self):
        SimConfig(batch_size=64, buffer_capacity=64).validate()

    def test_unit_interval_fields(self):
        with pytest.raises(ConfigError, match="w_local"):
            SimConfig(w_local=1.5).validate()
        with pytest.raises(ConfigError, match="discount"):
            SimConfig(discount=1.0).validate()

    def test_frac_levels_range(self):
        with pytest.raises(ConfigError, match="frac_levels"):
            SimConfig(frac_levels=(0.3, 1.2)).validate()

    def test_tx_power_bound(self):
        with pytest.raises(ConfigError, match="exceeds p_max"):
            SimConfig(tx_power=0.2, p_max=0.1).validate()

    def test_queue_levels_at_least_two(self):
        # one level would make observation normalization divide by zero
        with pytest.raises(ConfigError, match="queue_levels"):
            SimConfig(queue_levels=1).validate()
        SimConfig(queue_levels=2).validate()

    def test_frac_levels_nonempty(self):
        with pytest.raises(ConfigError, match="frac_levels must be nonempty"):
            SimConfig(frac_levels=()).validate()
        with pytest.raises(ConfigError, match="frac_levels must be nonempty"):
            load_config(None, {"frac_levels": ""})

    def test_unknown_sweep_policy(self):
        # run_sweep would train every network before reaching the bad name
        with pytest.raises(ConfigError, match="'randm'"):
            SimConfig(sweep_policies=("dqn", "randm")).validate()
        SimConfig(sweep_policies=POLICY_KINDS).validate()

    def test_nonnegative_fields_reject_nan(self):
        # a NaN speed bound would pass a `< 0` test and move the UAV to (0, 0)
        with pytest.raises(ConfigError, match="v_max"):
            SimConfig(v_max=math.nan).validate()

    @pytest.mark.parametrize("key", ["area_size", "i_max", "bandwidth"])
    def test_infinite_values_rejected(self, key):
        # infinite area_size or i_max overflows the uniform draws of
        # run_eval; an infinite bandwidth reports a PDE of 0.0
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            SimConfig(**{key: math.inf}).validate()

    def test_infinite_rician_k_runs(self):
        # rician_k = inf is valid: pure line-of-sight fading
        cfg = SimConfig(num_devices=1, n_intervals=5, rician_k=math.inf)
        row = run_eval("random", cfg.validate(), seed=1, realizations=2)
        assert math.isfinite(row.mean_pde) and row.mean_pd > 0.0

    def test_catalog_cap(self):
        cfg = SimConfig(num_devices=3)
        assert cfg.catalog_size == 16 ** 3 * 5
        with pytest.raises(ConfigError, match="max_catalog_size"):
            cfg.validate()
        SimConfig(num_devices=3, max_catalog_size=16 ** 3 * 5).validate()


class TestLoadConfig:
    def test_defaults_without_file(self):
        cfg = load_config()
        assert cfg == SimConfig()

    def test_file_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# scenario\n"
            "num_devices = 1\n"
            "i_max = 1.0e5   # bits\n"
            "\n"
            "include_uav_position = true\n"
            "frac_levels = 0.2, 0.4, 0.8\n")
        cfg = load_config(str(path))
        assert cfg.num_devices == 1
        assert cfg.i_max == 1e5
        assert cfg.include_uav_position is True
        assert cfg.frac_levels == (0.2, 0.4, 0.8)

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("i_max = 1.0e5\n")
        cfg = load_config(str(path), {"i_max": "2.0e5", "episodes": "7"})
        assert cfg.i_max == 2e5
        assert cfg.episodes == 7

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bandwith = 1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(str(path))
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(None, {"bandwith": "1"})

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/run.cfg")

    def test_bad_number(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("i_max = plenty\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(str(path))

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="boolean"):
            load_config(None, {"include_uav_position": "maybe"})

    def test_invalid_value_rejected_at_load(self):
        with pytest.raises(ConfigError, match="positive"):
            load_config(None, {"bandwidth": "-5"})

    def test_policies_parsed_as_strings(self):
        cfg = load_config(None, {"sweep_policies": "random, uav_heavy"})
        assert cfg.sweep_policies == ("random", "uav_heavy")

    def test_hidden_sizes_parsed_as_ints(self):
        cfg = load_config(None, {"hidden_sizes": "32, 16"})
        assert cfg.hidden_sizes == (32, 16)
