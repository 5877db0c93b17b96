import dataclasses
import math
import re

import numpy as np
import pytest

from uavmec.config import (_NONNEG, _POS, _RANGES, POLICY_KINDS, ConfigError,
                           SimConfig, _kind, db_to_linear, dbm_to_watts,
                           load_config)
from uavmec.environment import MecEnvironment
from uavmec.harness import checkpoint_path, run_eval


class TestConversions:
    def test_db(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(-40.0) == pytest.approx(1e-4)
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(4000.0) == math.inf  # a float overflows

    def test_dbm(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)
        assert dbm_to_watts(-4000.0) == 0.0


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
        assert cfg.queue_cap == 1e6
        assert cfg.uav_cpu_per_device == 2.5e6
        assert cfg.cloud_cpu_per_device == 5e7
        assert cfg.area_center == (250.0, 250.0)

    def test_cached_constants_follow_their_fields(self):
        cfg = SimConfig()
        assert dataclasses.replace(cfg, eta0_db=-30.0).eta0 == 1e-3
        louder = dataclasses.replace(cfg, noise_density_dbm=-170.0)
        assert louder.noise_power == dbm_to_watts(-170.0) * cfg.bandwidth
        assert dataclasses.replace(cfg, frac_levels=(0.0, 0.5, 1.0)
                                   ).catalog_size == 3 ** 8 * 5

    def test_cached_constants_stay_out_of_identity(self):
        # read or not, a config keeps its checkpoint key, equality, hash
        # and repr; the cached values are no fields
        fresh, read = SimConfig(), SimConfig()
        key, text = checkpoint_path(".", fresh, 0), repr(fresh)
        read.eta0, read.noise_power, read.catalog_size
        assert checkpoint_path(".", read, 0) == key
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(dataclasses.replace(read)) == text
        names = {f.name for f in dataclasses.fields(SimConfig)}
        assert names.isdisjoint({"eta0", "noise_power", "catalog_size"})

    def test_queue_cap_override(self):
        assert SimConfig(q_cap=5e5).queue_cap == 5e5

    def test_defaults_validate(self):
        SimConfig().validate()


class TestCheckedOnce:
    """A SimConfig is validated when built and cannot change afterwards."""

    def test_frozen(self):
        cfg = SimConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.tau = -1.0
        assert cfg.tau == 1.0

    def test_replace_validates(self):
        with pytest.raises(ConfigError, match="tau must be positive"):
            dataclasses.replace(SimConfig(), tau=-1.0)

    def test_no_revalidation_downstream(self, monkeypatch):
        cfg = SimConfig(n_intervals=5)
        calls = []
        original = SimConfig.validate

        def spy(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(SimConfig, "validate", spy)
        run_eval("random", cfg, 0, 4)
        assert calls == []


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

    @pytest.mark.parametrize("overrides", [
        {"num_devices": 1.0}, {"n_intervals": 10.5}, {"queue_levels": 10.0},
        {"batch_size": 4.0}, {"buffer_capacity": 16.5},
        {"target_sync_period": 2.5}, {"episodes": 2.0},
        {"eval_realizations": 1.5}, {"sweep_seeds": 3.0},
        {"max_catalog_size": 1e4}, {"episodes": True},
        {"num_devices": False}, {"batch_size": np.bool_(True)},
    ])
    def test_integer_fields_reject_non_integers(self, overrides):
        # these used to pass validate(); some then died in train with a
        # TypeError, target_sync_period=2.5 synced every 5 steps, and a bool
        # such as episodes=True built
        (key,) = overrides
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            SimConfig(**overrides).validate()

    @pytest.mark.parametrize("overrides, match", [
        ({"include_uav_position": "no"}, "include_uav_position must be a bool"),
        ({"shared_model": 1}, "shared_model must be a bool"),
        ({"tau": "1"}, "tau must be a number"),
        ({"rician_k": None}, "rician_k must be a number"),
        ({"tau": True}, "tau must be a number"),
        ({"frac_levels": ("a",)}, "frac_levels must be a tuple of numbers"),
        ({"sweep_i_max": (1e5, None)}, "sweep_i_max must be a tuple of num"),
        ({"hidden_sizes": 64}, "hidden_sizes must be a tuple of integers"),
        ({"hidden_sizes": [64]}, "hidden_sizes must be a tuple of integers"),
        ({"hidden_sizes": (64, True)}, "hidden_sizes must be a tuple of int"),
        ({"sweep_policies": "random"}, "sweep_policies must be a tuple of s"),
    ])
    def test_fields_take_their_types(self, overrides, match):
        # include_uav_position="no" used to build and widen the observation
        # from 6 to 8; the others raised TypeError, ran with a bool, or (a
        # list) built a config that cannot be hashed
        with pytest.raises(ConfigError, match=match):
            SimConfig(**overrides)

    def test_numbers_of_other_types_stay_accepted(self):
        # and are stored as plain ints and floats, as the defaults are
        cfg = SimConfig(tau=1, area_size=np.float32(500.0),
                        num_devices=np.int64(2), sweep_i_max=(1e5, 2),
                        frac_levels=(0.3, np.float64(0.6)),
                        hidden_sizes=(np.int32(64), 64))
        assert cfg.catalog_size == 1280
        assert type(cfg.tau) is float and type(cfg.num_devices) is int
        assert [type(v) for v in cfg.frac_levels + cfg.sweep_i_max] == \
            [float] * 4
        assert [type(v) for v in cfg.hidden_sizes] == [int, int]
        assert repr(cfg) == repr(SimConfig(sweep_i_max=(1e5, 2.0)))

    @pytest.mark.parametrize("overrides", [
        {"i_max": 10 ** 400}, {"tau": 10 ** 400},
        {"sweep_i_max": (1e5, 10 ** 400)}])
    def test_float_overflow_names_the_field(self, overrides):
        # used to raise OverflowError
        (key,) = overrides
        with pytest.raises(ConfigError, match=f"{key} is too large"):
            SimConfig(**overrides)

    def test_integer_fields_take_numpy_integers(self):
        SimConfig(num_devices=np.int64(1), episodes=np.int32(3)).validate()

    def test_hidden_sizes_reject_non_integers(self):
        # used to pass, and train_dqn then died with a TypeError
        with pytest.raises(ConfigError, match="hidden_sizes"):
            SimConfig(hidden_sizes=(8.5,)).validate()
        SimConfig(hidden_sizes=(np.int64(8), 4)).validate()

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

    def test_queue_levels_at_least_two(self):
        # one level would make observation normalization divide by zero
        with pytest.raises(ConfigError, match="queue_levels"):
            SimConfig(queue_levels=1).validate()
        SimConfig(queue_levels=2).validate()

    def test_frac_levels_nonempty(self):
        with pytest.raises(ConfigError, match="frac_levels must be nonempty"):
            SimConfig(frac_levels=()).validate()
        with pytest.raises(ConfigError, match="frac_levels must be nonempty"):
            load_config(None, ["frac_levels="])

    def test_unknown_sweep_policy(self):
        # run_sweep would train every network before reaching the bad name
        with pytest.raises(ConfigError, match="'randm'"):
            SimConfig(sweep_policies=("dqn", "randm")).validate()
        SimConfig(sweep_policies=POLICY_KINDS).validate()

    @pytest.mark.parametrize("items, repeat", [
        ((0.3, 0.3), "0.3"), ((0.0, 0.5, 1.0, 0.5), "0.5"),
        ((0.0, 0.3, 0), "0.0")])
    def test_frac_levels_unique(self, items, repeat):
        # a repeated level used to give a catalog of 1280 indices over the 5
        # distinct actions of (0.3, 0.3), which the dqn's head and the random
        # policy's draws spread over
        with pytest.raises(ConfigError, match=f"^frac_levels holds {repeat} "
                                              f"more than once$"):
            SimConfig(frac_levels=items)
        with pytest.raises(ConfigError, match="frac_levels holds"):
            load_config(None, ["frac_levels=" + ",".join(map(str, items))])

    @pytest.mark.parametrize("key, items, repeat", [
        ("sweep_i_max", (1e5, 2e5, 100000), "100000.0"),
        ("sweep_policies", ("random", "uav_heavy", "random"), "'random'")])
    def test_sweep_grid_values_unique(self, key, items, repeat):
        # a repeated value used to evaluate its grid points twice, as
        # identical rows
        with pytest.raises(ConfigError,
                           match=f"^{key} holds {repeat} more than once$"):
            SimConfig(**{key: items})

    def test_empty_sweep_lists_rejected(self):
        for key in ("sweep_i_max", "sweep_policies"):
            with pytest.raises(ConfigError, match="must be nonempty"):
                SimConfig(**{key: ()}).validate()

    @pytest.mark.parametrize("values", [(-1.0, 1e5), (math.nan,),
                                        (1e5, math.inf)])
    def test_sweep_i_max_nonnegative_and_finite(self, values):
        # run_sweep would otherwise reject these only at their grid point,
        # possibly after training networks
        what = "finite" if not all(map(math.isfinite, values)) \
            else "nonnegative"
        with pytest.raises(ConfigError, match=f"sweep_i_max must be {what}"):
            SimConfig(sweep_i_max=values).validate()
        SimConfig(sweep_i_max=(0.0, 1e5)).validate()

    def test_fixed_policy_levels_outside_frac_levels(self):
        # the fixed baselines pass their fractions as values, so levels
        # without them validate, whatever sweep_policies holds
        for levels in ((0.0, 0.5), (0.0, 0.6), (0.0, 0.3, 0.6)):
            cfg = SimConfig(num_devices=1, frac_levels=levels).validate()
            for kind in POLICY_KINDS:
                cfg.check_policy(kind)

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
        # max_catalog_size caps the dqn's output head, and only that: a
        # config above it validates, with the dqn among sweep_policies
        cfg = SimConfig(num_devices=3).validate()
        assert cfg.catalog_size == 16 ** 3 * 5
        with pytest.raises(ConfigError, match="max_catalog_size"):
            cfg.check_policy("dqn")
        for kind in ("random", "uav_heavy", "cloud_heavy"):
            cfg.check_policy(kind)
        SimConfig(num_devices=3,
                  max_catalog_size=16 ** 3 * 5).check_policy("dqn")

    @pytest.mark.parametrize("num_devices", [15, 16])
    def test_random_catalog_drawable(self, num_devices):
        # rng.integers draws int64 indices: 2**60 * 5 entries at K = 15,
        # 2**64 * 5 at K = 16
        cfg = SimConfig(num_devices=num_devices).validate()
        if num_devices == 15:
            cfg.check_policy("random")
        else:
            with pytest.raises(ConfigError, match="'random' cannot draw"):
                cfg.check_policy("random")
        cfg.check_policy("uav_heavy")


NUMBER_FIELDS = [f for f in dataclasses.fields(SimConfig)
                 if _kind(f)[0] in (int, float)]


def with_item(f, value):
    """SimConfig's default for field f with value in place of the default,
    or, for a tuple field, of its default's last item."""
    many = _kind(f)[1]
    return f.default[:-1] + (value,) if many else value


class TestRanges:
    """Every number field, and every item of a number tuple field, is held
    to its rule in the range table when a SimConfig is built."""

    def test_table_names_exactly_the_number_fields(self):
        assert set(_RANGES) == {f.name for f in NUMBER_FIELDS}

    @pytest.mark.parametrize("f", NUMBER_FIELDS, ids=lambda f: f.name)
    def test_rejects_nan(self, f):
        # an integer field rejects it as no integer
        with pytest.raises(ConfigError, match=f"^{f.name} must be "):
            SimConfig(**{f.name: with_item(f, math.nan)})

    @pytest.mark.parametrize(
        "f", [f for f in NUMBER_FIELDS if _RANGES[f.name] is _POS],
        ids=lambda f: f.name)
    def test_positive_fields_reject_zero(self, f):
        zero = _kind(f)[0](0)
        with pytest.raises(ConfigError,
                           match=f"^{f.name} must be positive, got "):
            SimConfig(**{f.name: with_item(f, zero)})

    @pytest.mark.parametrize(
        "f", [f for f in NUMBER_FIELDS if _RANGES[f.name] is _NONNEG],
        ids=lambda f: f.name)
    def test_nonnegative_fields_reject_minus_one(self, f):
        minus_one = _kind(f)[0](-1)
        with pytest.raises(ConfigError,
                           match=f"^{f.name} must be nonnegative, got "):
            SimConfig(**{f.name: with_item(f, minus_one)})

    @pytest.mark.parametrize("f", dataclasses.fields(SimConfig),
                             ids=lambda f: f.name)
    def test_defaults_round_trip_through_text(self, f):
        text = (", ".join(map(str, f.default)) if _kind(f)[1]
                else str(f.default))
        cfg = load_config(None, [f"{f.name}={text}"])
        assert cfg == SimConfig()
        assert repr(getattr(cfg, f.name)) == repr(f.default)

    @pytest.mark.parametrize("overrides, match", [
        ({"noise_density_dbm": math.nan}, "noise_density_dbm must be finite"),
        ({"noise_density_dbm": -math.inf}, "noise_density_dbm must be finite"),
        ({"max_catalog_size": 0}, "max_catalog_size must be positive"),
        ({"max_catalog_size": -1}, "max_catalog_size must be positive"),
    ])
    def test_fields_that_used_to_build(self, overrides, match):
        # noise_density_dbm = nan used to build, and an evaluation then wrote
        # mean_cd = inf and mean_pde = 0; -inf divided by zero at
        # num_devices = 1; max_catalog_size = -1 built
        with pytest.raises(ConfigError, match=match):
            SimConfig(**overrides)

    @pytest.mark.parametrize("key, value", [
        ("eta0_db", 4000.0), ("eta0_db", -4000.0),
        ("noise_density_dbm", 4000.0), ("noise_density_dbm", -4000.0)])
    def test_db_fields_need_a_finite_positive_linear_value(self, key, value):
        # eta0_db = 4000 used to raise OverflowError at the first step, and
        # eta0_db = -4000 to make every rate 0 and mean_cd inf
        with pytest.raises(ConfigError, match=f"^{key} must have a finite "
                           "positive linear value"):
            SimConfig(**{key: value})

    def test_db_fields_keep_their_linear_values(self):
        cfg = SimConfig(eta0_db=-300.0, noise_density_dbm=300.0)
        assert cfg.eta0 == 10.0 ** -30.0
        assert cfg.noise_power == 10.0 ** 27.0 * cfg.bandwidth

    @pytest.mark.parametrize("density, bandwidth, power", [
        (3080.0, 1e6, "inf"), (-3000.0, 1e-30, "0.0")])
    def test_noise_power_finite_and_positive(self, density, bandwidth, power):
        # each field is in range, their product is not: 3080 dBm/Hz over
        # 1 MHz used to build, and an evaluation then wrote mean_cd = inf
        # and mean_pde = 0
        with pytest.raises(ConfigError, match=(
                rf"^noise_density_dbm {density} and bandwidth {bandwidth} "
                rf"give a noise power of {power} W; it must be finite and "
                "positive")):
            SimConfig(noise_density_dbm=density, bandwidth=bandwidth)
        assert 0.0 < dbm_to_watts(density) < math.inf

    def test_uav_step_finite(self):
        # each field is in range, their product is not: v_max * tau = inf
        # used to build, and any move then put the other coordinate at 0
        # (0 * inf is nan, which the clip turned into 0)
        with pytest.raises(ConfigError, match=(
                r"^v_max 1e\+308 and tau 10.0 give a UAV step of inf m; it "
                "must be finite")):
            SimConfig(v_max=1e308, tau=10.0)
        env = MecEnvironment(SimConfig(v_max=1e307, tau=10.0))
        env.step(1)
        assert (env.uav_pos.x, env.uav_pos.y) == (500.0, 250.0)

    @pytest.mark.parametrize("value", [1.0, 1.5, -0.5])
    def test_discount_below_one(self, value):
        with pytest.raises(ConfigError,
                           match=r"^discount must lie in \[0, 1\), got "):
            SimConfig(discount=value)


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
            "frac_levels = 0.2, 0.4, 0.8\n"
            "sweep_policies = dqn, random\n")
        cfg = load_config(str(path))
        assert cfg.num_devices == 1
        assert cfg.i_max == 1e5
        assert cfg.include_uav_position is True
        assert cfg.frac_levels == (0.2, 0.4, 0.8)

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("i_max = 1.0e5\n")
        cfg = load_config(str(path), ["i_max=2.0e5", "episodes=7"])
        assert cfg.i_max == 2e5
        assert cfg.episodes == 7

    def test_unknown_key(self, tmp_path):
        # each error names the setting's source: the file's line, or
        # --override, whose unknown key used to name none
        path = tmp_path / "run.cfg"
        path.write_text("# scenario\nbandwith = 1\n")
        with pytest.raises(ConfigError, match=(
                rf"^{re.escape(str(path))}:2: unknown config key 'bandwith'$")):
            load_config(str(path))
        with pytest.raises(ConfigError, match=(
                r"^--override: unknown config key 'bandwith'$")):
            load_config(None, ["bandwith=1"])

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        for text in ("just some words", "n_intervals", ""):
            path.write_text(f"{text}  # no value\n")
            # a blank file line is skipped, a blank override is not
            if text:
                with pytest.raises(ConfigError, match=(
                        rf"^{re.escape(str(path))}:1: expected 'key = value', "
                        rf"got '{text}'$")):
                    load_config(str(path))
            else:
                assert load_config(str(path)) == SimConfig()
            with pytest.raises(ConfigError, match=(
                    rf"^--override: expected 'key = value', got '{text}'$")):
                load_config(None, [text])

    def test_comment_mark_is_part_of_an_override(self, tmp_path):
        # only file lines lose a # comment
        path = tmp_path / "run.cfg"
        path.write_text("sweep_policies = random#x\n")
        assert load_config(str(path)).sweep_policies == ("random",)
        with pytest.raises(ConfigError, match=r"^unknown policy 'random#x'"):
            load_config(None, ["sweep_policies=random#x"])

    def test_last_setting_wins(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("i_max = 1.0e5\ni_max = 1.5e5\n")
        assert load_config(str(path)).i_max == 1.5e5
        cfg = load_config(str(path), ["i_max=2.0e5", " i_max = 3.0e5 "])
        assert cfg.i_max == 3e5

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/run.cfg")

    def test_file_not_utf8(self, tmp_path):
        # used to end in a UnicodeDecodeError traceback
        path = tmp_path / "run.cfg"
        path.write_bytes(b"n_intervals = 5\xff\n")
        with pytest.raises(ConfigError, match="^cannot read config file .*"
                           "can't decode byte 0xff"):
            load_config(str(path))

    def test_bad_number(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("i_max = plenty\n")
        with pytest.raises(ConfigError, match=(
                rf"^{re.escape(str(path))}:1: cannot parse number for "
                "'i_max'")):
            load_config(str(path))

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match=(
                "^--override: cannot parse boolean")):
            load_config(None, ["include_uav_position=maybe"])

    def test_invalid_value_rejected_at_load(self):
        with pytest.raises(ConfigError, match="positive"):
            load_config(None, ["bandwidth=-5"])

    def test_policies_parsed_as_strings(self):
        cfg = load_config(None, ["sweep_policies=random, uav_heavy"])
        assert cfg.sweep_policies == ("random", "uav_heavy")

    @pytest.mark.parametrize("key, raw", [
        ("num_devices", "2.5"), ("num_devices", "inf"), ("episodes", "1e400"),
        ("hidden_sizes", "64.7, 64"), ("hidden_sizes", "64, inf"),
        ("frac_levels", "0.3, lots"),
    ])
    def test_bad_values_name_the_key(self, key, raw):
        # fractions used to be truncated, inf to raise an OverflowError and
        # an unparsable tuple entry a bare ValueError
        with pytest.raises(ConfigError, match=key):
            load_config(None, [f"{key}={raw}"])

    def test_integral_floats_parse_as_ints(self):
        cfg = load_config(None, ["max_catalog_size=1e4",
                                 "hidden_sizes=32.0, 16"])
        assert cfg.max_catalog_size == 10000
        assert cfg.hidden_sizes == (32, 16)

    def test_hidden_sizes_parsed_as_ints(self):
        cfg = load_config(None, ["hidden_sizes=32, 16"])
        assert cfg.hidden_sizes == (32, 16)
