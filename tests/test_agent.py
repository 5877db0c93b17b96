import numpy as np
import pytest

from uavmec.agent import (CLOUD_HEAVY_FRACS, UAV_HEAVY_FRACS, Policy,
                          QNetwork, ReplayBuffer, action_table,
                          baseline_action, forward, load_checkpoint,
                          make_policy, normalize_observation, save_checkpoint,
                          select_action, sync_target, td_loss, train,
                          train_step)
from uavmec.config import SimConfig
from uavmec.environment import STAY, MecEnvironment


def tiny_net(rng_seed=0, input_size=3, hidden=(8,), output_size=5):
    return QNetwork(input_size, hidden, output_size,
                    rng=np.random.default_rng(rng_seed))


def random_batch(rng, net, n=16):
    obs = rng.uniform(0, 1, (n, net.input_size))
    actions = rng.integers(0, net.output_size, n)
    rewards = rng.uniform(-1, 1, n)
    next_obs = rng.uniform(0, 1, (n, net.input_size))
    dones = rng.random(n) < 0.2
    return obs, actions, rewards, next_obs, dones


class TestQNetwork:
    def test_fresh_net_outputs_zero(self):
        net = tiny_net()
        assert forward(net, np.ones(3)).tolist() == [0.0] * 5

    def test_affine_single_layer(self):
        net = QNetwork(1, (), 1, rng=np.random.default_rng(0))
        net.weights[0][0, 0] = 2.0
        net.biases[0][0] = 0.1
        assert forward(net, np.array([0.5]))[0] == pytest.approx(1.1)

    def test_batch_matches_single(self):
        net = tiny_net()
        rng = np.random.default_rng(1)
        for w in net.weights:
            w += rng.standard_normal(w.shape) * 0.1
        xs = rng.uniform(0, 1, (4, 3))
        batch = forward(net, xs)
        for i in range(4):
            assert np.allclose(batch[i], forward(net, xs[i]))

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            forward(tiny_net(), np.ones(4))

    def test_copy_is_deep(self):
        net = tiny_net()
        other = net.copy()
        other.weights[0][0, 0] += 1.0
        assert net.weights[0][0, 0] != other.weights[0][0, 0]

    def test_relu_nonlinearity(self):
        net = QNetwork(1, (1,), 1, rng=np.random.default_rng(0))
        net.weights[0][...] = 1.0
        net.weights[1][...] = 1.0
        assert forward(net, np.array([2.0]))[0] == pytest.approx(2.0)
        assert forward(net, np.array([-2.0]))[0] == pytest.approx(0.0)


class TestSelectAction:
    def test_pure_exploration_is_uniform(self):
        net = tiny_net()
        rng = np.random.default_rng(2)
        n = 50_000
        counts = np.bincount([select_action(net, np.ones(3), 1.0, rng)
                              for _ in range(n)], minlength=5)
        expected = n / 5
        sigma = np.sqrt(n * 0.2 * 0.8)
        assert np.all(np.abs(counts - expected) < 4 * sigma)

    def test_greedy_picks_max(self):
        net = tiny_net()
        net.biases[-1][...] = [0.0, 0.3, 0.9, 0.1, 0.2]
        rng = np.random.default_rng(3)
        assert select_action(net, np.zeros(3), 0.0, rng) == 2

    def test_tie_breaks_to_lowest_index(self):
        net = tiny_net()
        rng = np.random.default_rng(4)
        assert select_action(net, np.zeros(3), 0.0, rng) == 0

    def test_epsilon_zero_never_consumes_uniform_draw(self):
        net = tiny_net()
        net.biases[-1][1] = 1.0
        a = [select_action(net, np.zeros(3), 0.0, np.random.default_rng(5))
             for _ in range(3)]
        assert a == [1, 1, 1]


class TestTrainStep:
    def test_gamma_zero_unit_error_loss(self):
        # fresh net outputs 0 everywhere, so with reward 1 and discount 0
        # every TD error is exactly -1 and the MSE is 1
        net = tiny_net()
        target = net.copy()
        cfg = SimConfig(discount=0.0, learning_rate=0.0)
        obs = np.zeros((4, 3))
        batch = (obs, np.zeros(4, dtype=np.int64), np.ones(4), obs,
                 np.zeros(4, dtype=bool))
        assert train_step(net, target, batch, cfg) == pytest.approx(1.0)

    def test_zero_error_leaves_weights_untouched(self):
        net = tiny_net()
        target = net.copy()
        cfg = SimConfig(discount=0.0, learning_rate=0.1)
        obs = np.ones((4, 3))
        batch = (obs, np.zeros(4, dtype=np.int64), np.zeros(4), obs,
                 np.zeros(4, dtype=bool))
        before = [p.copy() for p in net.parameters()]
        assert train_step(net, target, batch, cfg) == 0.0
        for b, p in zip(before, net.parameters()):
            assert np.array_equal(b, p)

    def test_loss_is_pre_update(self):
        net = tiny_net()
        target = net.copy()
        cfg = SimConfig(discount=0.9, learning_rate=0.05)
        batch = random_batch(np.random.default_rng(6), net)
        want = td_loss(net, target, batch, cfg)
        assert train_step(net, target, batch, cfg) == pytest.approx(want)

    def test_update_reduces_loss(self):
        net = tiny_net()
        rng = np.random.default_rng(7)
        for w in net.weights:
            w += rng.standard_normal(w.shape) * 0.1
        target = net.copy()
        cfg = SimConfig(discount=0.9, learning_rate=0.01)
        batch = random_batch(rng, net)
        before = train_step(net, target, batch, cfg)
        after = td_loss(net, target, batch, cfg)
        assert after < before

    def test_gradient_matches_finite_differences(self):
        net = QNetwork(3, (8, 8), 5, rng=np.random.default_rng(8))
        rng = np.random.default_rng(9)
        for w in net.weights:
            w += rng.standard_normal(w.shape) * 0.2
        target = net.copy()
        batch = random_batch(rng, net, n=12)
        # lr = 1 with a huge clip makes (old - new) equal the raw gradient
        cfg = SimConfig(discount=0.9, learning_rate=1.0, grad_clip=1e12)
        probe = net.copy()
        train_step(probe, target, batch, cfg)
        h = 1e-6
        for p_old, p_new in zip(net.parameters(), probe.parameters()):
            grad = p_old - p_new
            flat = np.argmax(np.abs(grad))
            idx = np.unravel_index(flat, grad.shape)
            saved = p_old[idx]
            p_old[idx] = saved + h
            up = td_loss(net, target, batch, cfg)
            p_old[idx] = saved - h
            down = td_loss(net, target, batch, cfg)
            p_old[idx] = saved
            fd = (up - down) / (2 * h)
            assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_grad_clip_caps_update_norm(self):
        net = tiny_net()
        target = net.copy()
        cfg = SimConfig(discount=0.0, learning_rate=1.0, grad_clip=0.01)
        obs = np.ones((4, 3))
        batch = (obs, np.zeros(4, dtype=np.int64), np.full(4, 100.0), obs,
                 np.zeros(4, dtype=bool))
        before = [p.copy() for p in net.parameters()]
        train_step(net, target, batch, cfg)
        norm = np.sqrt(sum(float(np.sum((b - p) ** 2))
                           for b, p in zip(before, net.parameters())))
        assert norm == pytest.approx(0.01, rel=1e-9)

    def test_nonfinite_loss_raises_before_update(self):
        net = tiny_net()
        target = net.copy()
        cfg = SimConfig(discount=0.0, learning_rate=0.1)
        obs = np.ones((2, 3))
        batch = (obs, np.zeros(2, dtype=np.int64), np.array([np.inf, 1.0]),
                 obs, np.zeros(2, dtype=bool))
        before = [p.copy() for p in net.parameters()]
        with pytest.raises(RuntimeError, match="non-finite"):
            train_step(net, target, batch, cfg)
        for b, p in zip(before, net.parameters()):
            assert np.array_equal(b, p)


class TestTargetWorkspace:
    """train_step writes the target pass into a buffer kept on the target."""

    def _nets(self, output_size=1280):
        rng = np.random.default_rng(10)
        net = QNetwork(6, (64, 64), output_size, rng=rng)
        for p in net.parameters():
            p += rng.standard_normal(p.shape) * 0.1
        return net, net.copy()

    def _spy(self, monkeypatch):
        """Record the ``out`` argument of every forward_cached call."""
        seen = []
        original = QNetwork.forward_cached

        def spy(self, x, out=None):
            seen.append(out)
            return original(self, x, out=out)
        monkeypatch.setattr(QNetwork, "forward_cached", spy)
        return seen

    def test_matches_allocating_forward(self, monkeypatch):
        cfg = SimConfig(discount=0.9, learning_rate=0.01)
        rng = np.random.default_rng(11)
        batches = [random_batch(rng, self._nets()[0], n=64) for _ in range(12)]

        def run():
            net, target = self._nets()
            losses = []
            for i, batch in enumerate(batches):
                losses.append(train_step(net, target, batch, cfg))
                if i % 4 == 3:
                    sync_target(net, target)
            return losses, net.parameters()

        losses, params = run()
        original = QNetwork.forward_cached
        monkeypatch.setattr(QNetwork, "forward_cached",
                            lambda self, x, out=None: original(self, x))
        ref_losses, ref_params = run()
        assert losses == ref_losses
        for p, q in zip(params, ref_params):
            assert np.array_equal(p, q)

    def test_buffer_reused_until_batch_size_changes(self, monkeypatch):
        net, target = self._nets(output_size=5)
        seen = self._spy(monkeypatch)
        rng = np.random.default_rng(12)
        cfg = SimConfig()
        for n in (16, 16, 8):
            train_step(net, target, random_batch(rng, net, n=n), cfg)
        assert seen[0] is seen[1]
        assert seen[0].shape == (16, 5)
        assert seen[2] is not seen[0]
        assert seen[2].shape == (8, 5)

    def test_forward_result_not_overwritten(self):
        net, target = self._nets()
        rng = np.random.default_rng(13)
        cfg = SimConfig()
        batch = random_batch(rng, net, n=64)
        q = forward(target, batch[3])
        snapshot = q.copy()
        for _ in range(3):
            train_step(net, target, random_batch(rng, net, n=64), cfg)
            sync_target(net, target)
        assert np.array_equal(q, snapshot)

    def test_copied_and_loaded_nets_get_own_buffer(self, monkeypatch,
                                                   tmp_path):
        net, target = self._nets(output_size=5)
        seen = self._spy(monkeypatch)
        rng = np.random.default_rng(14)
        batch = random_batch(rng, net)
        cfg = SimConfig(learning_rate=0.0)
        loss = train_step(net, target, batch, cfg)
        path = tmp_path / "target.ckpt"
        save_checkpoint(target, str(path))
        assert sorted(np.load(path).files) == ["b0", "b1", "b2", "sizes",
                                               "version", "w0", "w1", "w2"]
        for other in (target.copy(), load_checkpoint(str(path))):
            assert train_step(net, other, batch, cfg) == loss
        assert seen[1] is not seen[0] and seen[2] is not seen[0]
        assert seen[1] is not seen[2]


class TestSyncTarget:
    def test_exact_copy_in_place(self):
        net = tiny_net()
        net.biases[-1][...] = 1.5
        target = tiny_net(rng_seed=99)
        holders = [id(p) for p in target.parameters()]
        sync_target(net, target)
        for p, q in zip(net.parameters(), target.parameters()):
            assert np.array_equal(p, q)
        assert [id(p) for p in target.parameters()] == holders


class TestReplayBuffer:
    def test_ring_eviction(self):
        buf = ReplayBuffer(capacity=3, obs_size=1)
        for i in range(5):
            buf.push([float(i)], i, float(i), [float(i)], False)
        assert buf.size == 3
        assert sorted(buf.actions.tolist()) == [2, 3, 4]

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(capacity=10, obs_size=1)
        for i in range(10):
            buf.push([float(i)], i, 0.0, [0.0], False)
        _, actions, _, _, _ = buf.sample(np.random.default_rng(0), 10)
        assert sorted(actions.tolist()) == list(range(10))

    def test_stored_fields_round_trip(self):
        buf = ReplayBuffer(capacity=4, obs_size=2)
        buf.push([1.0, 2.0], 3, -0.5, [4.0, 5.0], True)
        obs, actions, rewards, next_obs, dones = buf.sample(
            np.random.default_rng(1), 1)
        assert obs.tolist() == [[1.0, 2.0]]
        assert actions.tolist() == [3]
        assert rewards.tolist() == [-0.5]
        assert next_obs.tolist() == [[4.0, 5.0]]
        assert dones.tolist() == [True]


class TestPolicies:
    def setup_method(self):
        self.env = MecEnvironment(SimConfig(num_devices=2, n_intervals=5),
                                  seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown policy kind"):
            Policy(kind="greedy", n_actions=10)

    def test_dqn_requires_net(self):
        with pytest.raises(ValueError, match="requires a trained network"):
            make_policy("dqn", self.env)

    def test_dqn_net_must_match_env(self):
        # a head narrower than the catalog would pick wrong actions silently
        for net in (tiny_net(input_size=6, output_size=5),
                    tiny_net(input_size=5, output_size=1280)):
            with pytest.raises(ValueError, match="needs 6 and 1280"):
                make_policy("dqn", self.env, net)
        net = tiny_net(input_size=6, output_size=1280)
        assert make_policy("dqn", self.env, net).net is net

    def test_uav_heavy_decodes(self):
        pol = make_policy("uav_heavy", self.env)
        fracs = self.env.fractions[pol.fixed_index]
        assert self.env.moves[pol.fixed_index] == STAY
        assert all(tuple(f) == UAV_HEAVY_FRACS for f in fracs.T.tolist())

    def test_cloud_heavy_decodes(self):
        pol = make_policy("cloud_heavy", self.env)
        fracs = self.env.fractions[pol.fixed_index]
        assert self.env.moves[pol.fixed_index] == STAY
        assert all(tuple(f) == CLOUD_HEAVY_FRACS for f in fracs.T.tolist())
        assert fracs[1, 0] == 0.6  # x_cloud of device 0

    def test_fixed_fracs_missing_from_catalog(self):
        env = MecEnvironment(SimConfig(num_devices=1, frac_levels=(0.0, 1.0)),
                             seed=0)
        with pytest.raises(ValueError, match="not present in the catalog"):
            make_policy("uav_heavy", env)

    def test_fixed_policy_ignores_observation(self):
        pol = make_policy("uav_heavy", self.env)
        rng = np.random.default_rng(0)
        a = baseline_action(pol, np.zeros(6), rng)
        b = baseline_action(pol, np.full(6, 9.0), rng)
        assert a == b == pol.fixed_index

    def test_random_policy_covers_catalog(self):
        pol = make_policy("random", self.env)
        rng = np.random.default_rng(1)
        draws = {baseline_action(pol, np.zeros(6), rng) for _ in range(5000)}
        assert min(draws) >= 0 and max(draws) < 1280
        assert len(draws) > 1000

    def test_action_tables(self):
        rng = np.random.default_rng(3)
        pol = make_policy("random", self.env)
        table = action_table(pol, rng, 4, 50)
        # the same values as scalar draws, episode after episode
        rng = np.random.default_rng(3)
        assert table.tolist() == [[baseline_action(pol, np.zeros(6), rng)
                                   for _ in range(50)] for _ in range(4)]
        pol = make_policy("uav_heavy", self.env)
        assert np.all(action_table(pol, rng, 2, 3) == pol.fixed_index)
        net = tiny_net(input_size=6, output_size=1280)
        pol = make_policy("dqn", self.env, net)
        assert action_table(pol, rng, 2, 3) is None

    def test_batched_greedy_matches_single(self):
        rng = np.random.default_rng(8)
        net = QNetwork(6, (64, 64), 1280, rng=rng)
        net.weights[-1] = rng.standard_normal(net.weights[-1].shape)
        net.biases[-1] = rng.standard_normal(1280)
        obs = rng.random((2000, 6))
        batch = baseline_action(make_policy("dqn", self.env, net), obs, rng)
        single = [select_action(net, o, 0.0, rng) for o in obs]
        # one matrix product for the batch rounds the Q-values differently
        # from one row at a time, which can only decide a near-tie
        top2 = np.sort(forward(net, obs), axis=1)[:, -2:]
        near_tie = top2[:, 1] - top2[:, 0] < 1e-12 * np.abs(top2[:, 1])
        assert np.all((batch == single) | near_tie)


class TestNormalizeObservation:
    def test_levels_scaled(self):
        cfg = SimConfig(num_devices=1)
        out = normalize_observation(np.array([0.0, 9.0, 4.5]), cfg)
        assert out.tolist() == [0.0, 1.0, 0.5]

    def test_uav_coordinates_untouched(self):
        cfg = SimConfig(num_devices=1, include_uav_position=True)
        out = normalize_observation(np.array([9.0, 0.0, 0.0, 0.25, 0.75]), cfg)
        assert out.tolist() == [1.0, 0.0, 0.0, 0.25, 0.75]

    def test_input_not_mutated(self):
        cfg = SimConfig(num_devices=1)
        obs = np.array([9.0, 9.0, 9.0])
        normalize_observation(obs, cfg)
        assert obs.tolist() == [9.0, 9.0, 9.0]


class TestTraining:
    def _config(self):
        return SimConfig(num_devices=1, n_intervals=40, episodes=3,
                         batch_size=16, buffer_capacity=500,
                         target_sync_period=20)

    def test_reproducible(self):
        a = train(self._config(), seed=5)
        b = train(self._config(), seed=5)
        assert a.episode_rewards == b.episode_rewards
        assert a.losses == b.losses
        for p, q in zip(a.net.parameters(), b.net.parameters()):
            assert np.array_equal(p, q)

    def test_seeds_differ(self):
        a = train(self._config(), seed=5)
        b = train(self._config(), seed=6)
        assert a.episode_rewards != b.episode_rewards

    def test_shapes_and_counts(self):
        cfg = self._config()
        res = train(cfg, seed=0)
        total = cfg.episodes * 40
        assert len(res.episode_rewards) == cfg.episodes
        # training starts once the buffer holds one batch
        assert len(res.losses) == total - (cfg.batch_size - 1)
        assert res.net.output_size == 80


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        res = train(SimConfig(num_devices=1, n_intervals=20, episodes=2,
                              batch_size=8), seed=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(res.net, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.sizes == res.net.sizes
        for p, q in zip(res.net.parameters(), loaded.parameters()):
            assert np.array_equal(p, q)

    def test_exact_path_respected(self, tmp_path):
        net = tiny_net()
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, str(path))
        assert path.exists()
        assert not (tmp_path / "model.ckpt.npz").exists()

    def test_version_check(self, tmp_path):
        net = tiny_net()
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, str(path))
        data = dict(np.load(path))
        data["version"] = np.array(99)
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(str(path))
