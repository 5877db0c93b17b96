import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from uavmec import agent, environment, harness
from uavmec.agent import (BLOCK_ROWS, CheckpointError, QNetwork,
                          ReplayBuffer, baseline_action, forward,
                          load_checkpoint, make_policy, normalize_observation,
                          save_checkpoint, select_action, sync_target,
                          target_max_q, td_loss, train, train_step)
from uavmec.config import FIXED_POLICY_FRACS, ConfigError, SimConfig
from uavmec.environment import (STAY, Lockstep, MecEnvironment,
                                action_catalog)


def tiny_net(rng_seed=0, input_size=3, hidden=(8,), output_size=5):
    return QNetwork(input_size, hidden, output_size,
                    rng=np.random.default_rng(rng_seed))


def zero_rate_config(discount):
    """The three fields train_step reads, with a zero learning rate, which
    no SimConfig accepts."""
    return SimpleNamespace(discount=discount, learning_rate=0.0,
                           grad_clip=10.0)


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

    def test_one_q_value_pass(self, monkeypatch):
        # greedy_action, forward and a non-empty forward_cached all run
        # QNetwork.q_values, the pass the gradient tests check
        seen = []
        original = QNetwork.q_values

        def spy(net, x):
            seen.append(np.shape(x))
            return original(net, x)

        monkeypatch.setattr(QNetwork, "q_values", spy)
        net = tiny_net()
        agent.greedy_action(net, np.ones(3))
        agent.greedy_action(net, np.ones((2, 3)))
        forward(net, np.ones(3))
        net.forward_cached(np.ones((4, 3)))
        net.forward_cached(np.empty((0, 3)))
        assert seen == [(3,), (2, 3), (1, 3), (4, 3)]

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


def reference_train_step(net, target_net, batch, config, norms):
    """train_step as first written: np.unique, two np.add.at scatters and a
    np.sum per gradient norm term. Appends each update's norm to norms."""
    obs, actions, rewards, next_obs, dones = batch
    n = len(actions)
    next_max_q = target_max_q(target_net, next_obs)
    targets = rewards + config.discount * next_max_q * (~dones)
    num_layers = len(net.weights)
    acts = []
    h = net.hidden(obs, acts)
    w_out, b_out = net.weights[-1], net.biases[-1]
    w_cols = w_out[:, actions]
    q_sa = np.einsum("nh,hn->n", h, w_cols) + b_out[actions]
    err = q_sa - targets
    loss = float(np.mean(err ** 2))
    dq = 2.0 * err / n
    uniq, inverse = np.unique(actions, return_inverse=True)
    gw_rows = np.zeros((len(uniq), w_out.shape[0]))
    np.add.at(gw_rows, inverse, dq[:, None] * h)
    gw_out = np.ascontiguousarray(gw_rows.T)
    gb_out = np.zeros(len(uniq))
    np.add.at(gb_out, inverse, dq)
    grads_w = [None] * (num_layers - 1)
    grads_b = [None] * (num_layers - 1)
    delta = (dq[:, None] * w_cols.T) * (h > 0.0)
    for i in range(num_layers - 2, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i].T) * (acts[i] > 0.0)
    norm_sq = float(np.sum(gw_out * gw_out)) + float(np.sum(gb_out * gb_out))
    norm_sq += sum(float(np.sum(g * g)) for g in grads_w + grads_b)
    norm = math.sqrt(norm_sq)
    norms.append(norm)
    scale = config.grad_clip / norm if norm > config.grad_clip else 1.0
    lr = config.learning_rate
    w_out[:, uniq] -= lr * scale * gw_out
    b_out[uniq] -= lr * scale * gb_out
    for w, g in zip(net.weights[:-1], grads_w):
        w -= lr * scale * g
    for b, g in zip(net.biases[:-1], grads_b):
        b -= lr * scale * g
    return loss


class TestTrainStep:
    def test_gamma_zero_unit_error_loss(self):
        # fresh net outputs 0 everywhere, so with reward 1 and discount 0
        # every TD error is exactly -1 and the MSE is 1
        net = tiny_net()
        target = net.copy()
        cfg = zero_rate_config(discount=0.0)
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


    @pytest.mark.parametrize("case", [
        "distinct", "two_actions", "one_action", "batch_of_one", "clipped"])
    def test_bit_identical_to_reference(self, case):
        """Every loss and parameter equals the reference update's bit for
        bit, over updates on both sides of a target sync."""
        rng = np.random.default_rng(16)
        n = 1 if case == "batch_of_one" else 64
        net = QNetwork(6, (64, 64), 1280, rng=rng)
        for p in net.parameters():
            p += rng.standard_normal(p.shape) * 0.1
        pool = rng.integers(0, 10, (2 * n, 6)) / 9.0
        pair = rng.choice(1280, size=2, replace=False)

        def actions():
            if case == "two_actions":
                return np.concatenate([pair, rng.choice(pair, n - 2)])
            if case == "one_action":
                return np.full(n, pair[0])
            return rng.choice(1280, size=n, replace=False)
        batches = [(rng.integers(0, 10, (n, 6)) / 9.0, actions(),
                    rng.uniform(-1, 1, n) * (100.0 if case == "clipped" else 1.0),
                    pool[rng.choice(len(pool), size=n, replace=False)],
                    rng.random(n) < 0.2) for _ in range(12)]
        cfg = SimConfig(discount=0.9, learning_rate=0.01,
                        grad_clip=0.5 if case == "clipped" else 1e6)

        def run(step):
            online, target = net.copy(), net.copy()
            losses = []
            for i, batch in enumerate(batches):
                losses.append(step(online, target, batch, cfg))
                if i == 5:
                    sync_target(online, target)
            return losses, online.parameters()

        norms = []
        ref_losses, ref_params = run(
            lambda *args: reference_train_step(*args, norms))
        losses, params = run(train_step)
        # The clip binds in every update of the clipped case, in none of
        # the others.
        assert all((norm > cfg.grad_clip) == (case == "clipped")
                   for norm in norms)
        assert np.array_equal(losses, ref_losses)
        for p, q in zip(params, ref_params):
            assert np.array_equal(p, q)


def blas_name():
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info.get('name')} {info.get('version')}"


class TestTargetMemo:
    """train_step values each next observation once per sync window."""

    def _nets(self, output_size=1280):
        rng = np.random.default_rng(10)
        net = QNetwork(6, (64, 64), output_size, rng=rng)
        for p in net.parameters():
            p += rng.standard_normal(p.shape) * 0.1
        return net, net.copy()

    def _spy(self, monkeypatch):
        """Record the row count of every forward_cached call."""
        rows = []
        original = QNetwork.forward_cached

        def spy(self, x):
            rows.append(len(x))
            return original(self, x)
        monkeypatch.setattr(QNetwork, "forward_cached", spy)
        return rows

    def _batches(self, rng, size):
        """Three sync windows of 4 batches of one size. In every window
        the next observations are, since the window began: all new, none
        new, one new, and one seen observation repeated."""
        def batch(next_obs):
            n = len(next_obs)
            return (rng.uniform(0, 1, (n, 6)), rng.integers(0, 1280, n),
                    rng.uniform(-1, 1, n), next_obs, rng.random(n) < 0.2)
        fresh = rng.integers(0, 10, (size + 1, 6)) / 9.0
        batches = []
        for _ in range(3):
            batches += [batch(fresh[:size]),
                        batch(rng.permutation(fresh[:size])),
                        batch(fresh[1:]),
                        batch(np.repeat(fresh[1:2], size, axis=0))]
        return batches

    @pytest.mark.parametrize("size", [1, 2, 8, 64])
    def test_matches_full_batch_targets(self, monkeypatch, size):
        """Bit-equal to valuing every row in a pass over the whole batch,
        across three sync windows, with one batch size throughout as in
        train (a value from a 1-row pass can differ in the last bit)."""
        cfg = SimConfig(discount=0.9, learning_rate=0.01)
        batches = self._batches(np.random.default_rng(11), size)

        def run():
            net, target = self._nets()
            losses = []
            for i, batch in enumerate(batches):
                losses.append(train_step(net, target, batch, cfg))
                if i % 4 == 3:
                    sync_target(net, target)
            return losses, net.parameters()

        seen = self._spy(monkeypatch)
        losses, params = run()
        # A single new row of a batch of 2 or more is passed twice.
        assert seen == [size, 0, min(size, 2), 0] * 3
        monkeypatch.setattr(
            agent, "target_max_q",
            lambda target, x: np.max(target.forward_cached(x), axis=1))
        ref_losses, ref_params = run()
        assert losses == ref_losses
        for p, q in zip(params, ref_params):
            assert np.array_equal(p, q)

    def test_no_stale_value_after_sync(self):
        net, target = self._nets()
        rng = np.random.default_rng(12)
        cfg = SimConfig(discount=0.9, learning_rate=0.05)
        batch = random_batch(rng, net, n=16)
        before = target_max_q(target, batch[3])
        for _ in range(3):
            train_step(net, target, batch, cfg)
        assert np.array_equal(target_max_q(target, batch[3]), before)
        sync_target(net, target)
        after = target_max_q(target, batch[3])
        assert not np.array_equal(after, before)
        assert np.array_equal(
            after, np.max(forward(target, batch[3]), axis=1))

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

    def test_copied_and_loaded_nets_start_without_memo(self, tmp_path):
        net, target = self._nets(output_size=5)
        batch = random_batch(np.random.default_rng(14), net)
        cfg = zero_rate_config(discount=SimConfig().discount)
        loss = train_step(net, target, batch, cfg)
        assert len(target._max_q_memo) == len(batch[3])
        path = tmp_path / "target.ckpt"
        save_checkpoint(target, str(path))
        assert sorted(np.load(path).files) == ["b0", "b1", "b2", "sizes",
                                               "version", "w0", "w1", "w2"]
        for other in (target.copy(), load_checkpoint(str(path))):
            assert other._max_q_memo is None
            assert train_step(net, other, batch, cfg) == loss
            assert other._max_q_memo is not target._max_q_memo

    @pytest.mark.parametrize("layout", ["column_slice", "fortran"])
    def test_keys_ignore_memory_layout(self, layout):
        """A batch that is not C-contiguous gets the keys and values of its
        contiguous copy: each key is the row's bytes in C order."""
        rng = np.random.default_rng(17)
        x = rng.integers(0, 10, (16, 6)) / 9.0
        x[3] = x[0]
        if layout == "column_slice":
            wide = np.zeros((16, 9))
            wide[:, 2:8] = x
            batch = wide[:, 2:8]
        else:
            batch = np.asfortranarray(x)
        assert not batch.flags.c_contiguous
        _, target = self._nets()
        other = target.copy()
        got = target_max_q(target, batch)
        want = target_max_q(other, np.ascontiguousarray(batch))
        assert np.array_equal(got, want)
        assert list(target._max_q_memo.items()) == list(
            other._max_q_memo.items())
        keys = [row.tobytes() for row in x]
        assert list(target._max_q_memo) == keys[:3] + keys[4:]
        assert np.array_equal(target_max_q(target, batch), want)

    def test_blas_rounds_sub_batches_like_the_full_batch(self):
        """The byte identity of both memos, target_max_q's (batches of 64)
        and baseline_action's (one row per realization, 1000 in a sweep),
        rests on this property of the BLAS."""
        _, target = self._nets()
        rng = np.random.default_rng(15)
        for batch, sizes in [
                (64, range(2, 65)),
                # Every size up to 64, then a spread up to the whole batch.
                (1000, [*range(2, 65), *range(65, 1000, 37), 127, 128, 129,
                        255, 256, 257, 511, 512, 513, 999, 1000])]:
            x = rng.integers(0, 10, (batch, 6)) / 9.0
            full = target.forward_cached(x)
            for m in sizes:
                idx = np.sort(rng.choice(batch, size=m, replace=False))
                assert np.array_equal(target.forward_cached(x[idx]),
                                      full[idx]), \
                    (f"{blas_name()}: a {m}-row pass rounds differently from "
                     f"the {batch}-row pass, so neither memoized TD targets "
                     f"nor memoized greedy actions are bit-exact")


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


def never_observe():
    raise AssertionError("the policy computed an observation")


class TestPolicies:
    def setup_method(self):
        self.cfg = SimConfig(num_devices=2, n_intervals=5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown policy 'greedy'"):
            make_policy("greedy", self.cfg, 1)

    def test_invalid_config(self):
        with pytest.raises(ConfigError, match="n_intervals"):
            make_policy("uav_heavy", SimConfig(n_intervals=0), 1)

    def test_dqn_requires_net(self):
        with pytest.raises(ValueError, match="requires a trained network"):
            make_policy("dqn", self.cfg, 1)

    def test_random_requires_a_generator(self):
        # without one, two calls drew different entry tables
        with pytest.raises(ValueError, match="requires a generator"):
            make_policy("random", self.cfg, 1)

    def test_dqn_net_must_match_env(self):
        # a head narrower than the catalog would pick wrong actions silently
        for net in (tiny_net(input_size=6, output_size=5),
                    tiny_net(input_size=5, output_size=1280)):
            with pytest.raises(ValueError, match="needs 6 and 1280"):
                make_policy("dqn", self.cfg, 1, net)
        net = tiny_net(input_size=6, output_size=1280)
        assert make_policy("dqn", self.cfg, 1, net).net is net

    def test_uav_heavy_decodes(self):
        # a block of the whole 5-interval episode, 3 realizations each
        pol = make_policy("uav_heavy", self.cfg, 3)
        fracs, moves = baseline_action(pol, 0, never_observe)
        assert fracs.shape == (4, 5, 3, 2)
        assert moves.tolist() == [[STAY] * 3] * 5
        want = FIXED_POLICY_FRACS["uav_heavy"]
        assert all(tuple(f) == want for f in fracs.T.reshape(-1, 4).tolist())

    def test_cloud_heavy_decodes(self):
        pol = make_policy("cloud_heavy", self.cfg, 1)
        fracs, moves = baseline_action(pol, 0, never_observe)
        assert moves.tolist() == [[STAY]] * 5
        want = FIXED_POLICY_FRACS["cloud_heavy"]
        assert all(tuple(f) == want for f in fracs.T.reshape(-1, 4).tolist())
        assert fracs[1, 0, 0, 0] == 0.6  # x_cloud of device 0

    def test_fixed_policy_ignores_observation(self):
        # the same action every interval, with no observation and no draw;
        # a block from interval n runs to the episode's end
        rng = np.random.default_rng(0)
        pol = make_policy("cloud_heavy", self.cfg, 2, rng=rng)
        first = baseline_action(pol, 0, never_observe)
        assert np.all(first[0] == first[0][:, :1])
        for n in range(1, self.cfg.n_intervals):
            fracs, moves = baseline_action(pol, n, never_observe)
            assert np.array_equal(fracs, first[0][:, n:])
            assert np.array_equal(moves, first[1][n:])
        assert rng.random() == np.random.default_rng(0).random()

    def test_fixed_fracs_missing_from_catalog(self):
        # a fixed baseline passes its fractions as values, so they need
        # not be among frac_levels, and the catalog may exceed the cap
        for cfg in (SimConfig(num_devices=1, frac_levels=(0.0, 1.0)),
                    SimConfig(num_devices=3)):
            pol = make_policy("uav_heavy", cfg, 2)
            fracs, moves = baseline_action(pol, 0, never_observe)
            assert fracs.shape == (4, BLOCK_ROWS // 2, 2, cfg.num_devices)
            Lockstep(cfg, [0, 1]).step_block(fracs, moves)

    def test_random_policy_covers_catalog(self):
        pol = make_policy("random", self.cfg, 1000,
                          rng=np.random.default_rng(1))
        draws = set()
        for n in range(self.cfg.n_intervals):
            # above BLOCK_ROWS realizations a block is one interval
            fracs, moves = baseline_action(pol, n, never_observe)
            assert moves.shape == (1, 1000)
            rows = fracs[:, 0].transpose(1, 0, 2).reshape(1000, -1)
            draws.update(zip(map(tuple, rows.tolist()), moves[0].tolist()))
        assert len(draws) > 1000

    def test_random_entries_match_scalar_draws(self):
        # one draw for the whole table gives the entries of R x n scalar
        # draws, realization by realization
        pol = make_policy("random", self.cfg, 4, rng=np.random.default_rng(3))
        rng = np.random.default_rng(3)
        want = [[rng.integers(self.cfg.catalog_size)
                 for _ in range(self.cfg.n_intervals)] for _ in range(4)]
        assert pol.entries.tolist() == want
        for n in range(self.cfg.n_intervals):
            # a block from interval n on decodes the entries of n, n + 1, ...
            fracs, moves = baseline_action(pol, n, never_observe)
            assert len(moves) == self.cfg.n_intervals - n
            for b in range(len(moves)):
                decoded = action_catalog(self.cfg, pol.entries[:, n + b])
                assert np.array_equal(fracs[:, b], decoded[0])
                assert np.array_equal(moves[b], decoded[1])

    @pytest.mark.parametrize("kind", ["random", "uav_heavy"])
    @pytest.mark.parametrize("realizations, length", [
        (1, BLOCK_ROWS), (2, BLOCK_ROWS // 2), (3, BLOCK_ROWS // 3),
        (BLOCK_ROWS, 1), (BLOCK_ROWS + 1, 1), (1000, 1)])
    def test_open_loop_blocks_fill_block_rows(self, kind, realizations,
                                              length):
        # as many intervals as fit in BLOCK_ROWS realization-intervals, at
        # least one, and never past the episode's end
        n_intervals = 2 * BLOCK_ROWS + 7
        cfg = SimConfig(n_intervals=n_intervals)
        pol = make_policy(kind, cfg, realizations,
                          rng=np.random.default_rng(0))
        for n, want in ((0, length), (n_intervals - 3, min(length, 3)),
                        (n_intervals - 1, 1)):
            fracs, moves = baseline_action(pol, n, never_observe)
            assert moves.shape == (want, realizations)
            assert fracs.shape == (4, want, realizations, 2)

    def test_dqn_block_is_one_interval(self):
        pol = make_policy("dqn", self.cfg, 3,
                          tiny_net(input_size=6, output_size=1280))
        fracs, moves = baseline_action(
            pol, 0, lambda: np.zeros((3, 6)))
        assert fracs.shape == (4, 1, 3, 2) and moves.shape == (1, 3)

    def test_batched_greedy_matches_single(self):
        rng = np.random.default_rng(8)
        net = QNetwork(6, (64, 64), 1280, rng=rng)
        net.weights[-1] = rng.standard_normal(net.weights[-1].shape)
        net.biases[-1] = rng.standard_normal(1280)
        obs = rng.random((2000, 6))
        calls = []

        def observe():
            calls.append(1)
            return obs

        pol = make_policy("dqn", self.cfg, 2000, net)
        fracs, moves = baseline_action(pol, 0, observe)
        assert len(calls) == 1 and fracs.shape == (4, 1, 2000, 2)
        fracs, moves = fracs[:, 0], moves[0]
        single = [select_action(net, o, 0.0, rng) for o in obs]
        want = action_catalog(self.cfg, single)
        same = np.all(fracs == want[0], axis=(0, 2)) & (moves == want[1])
        # one matrix product for the batch rounds the Q-values differently
        # from one row at a time, which can only decide a near-tie
        top2 = np.sort(forward(net, obs), axis=1)[:, -2:]
        near_tie = top2[:, 1] - top2[:, 0] < 1e-12 * np.abs(top2[:, 1])
        assert np.all(same | near_tie)


class TestNormalizeObservation:
    def test_one_function(self):
        # agent.normalize_observation is the environment's, kept importable
        assert agent.normalize_observation is environment.normalize_observation

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

    def test_replay_holds_the_observed_rows(self, monkeypatch):
        # each transition holds observe()'s rows as they are, the next
        # observation of one the observation of the next
        observed, pushed = [], []
        observe, push = Lockstep.observe, ReplayBuffer.push

        def spy_observe(self):
            observed.append(observe(self))
            return observed[-1]

        def spy_push(self, obs, action, reward, next_obs, done):
            pushed.append((obs.copy(), next_obs.copy(), done))
            push(self, obs, action, reward, next_obs, done)
        monkeypatch.setattr(Lockstep, "observe", spy_observe)
        monkeypatch.setattr(ReplayBuffer, "push", spy_push)
        cfg = replace(self._config(), include_uav_position=True)
        train(cfg, seed=1)
        assert len(observed) == cfg.episodes * (cfg.n_intervals + 1)
        rows = iter(observed)
        for ep in range(cfg.episodes):
            first = next(rows)
            for obs, next_obs, done in pushed[ep * cfg.n_intervals:
                                              (ep + 1) * cfg.n_intervals]:
                following = next(rows)
                assert np.array_equal(obs, first[0])
                assert np.array_equal(next_obs, following[0])
                first = following
            assert done
        assert any(np.any(o[:, :3] > 0.0) for o in observed)
        assert all(np.all((o >= 0.0) & (o <= 1.0)) for o in observed)

    def test_shapes_and_counts(self):
        cfg = self._config()
        res = train(cfg, seed=0)
        total = cfg.episodes * 40
        assert len(res.episode_rewards) == cfg.episodes
        # training starts once the buffer holds one batch
        assert len(res.losses) == total - (cfg.batch_size - 1)
        assert res.net.output_size == 80

    def test_oversized_catalog_fails_before_any_environment(self,
                                                            monkeypatch):
        built = []
        init = MecEnvironment.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)
        monkeypatch.setattr(MecEnvironment, "__init__", spy)
        cfg = SimConfig(num_devices=3)
        assert cfg.catalog_size > cfg.max_catalog_size
        with pytest.raises(ConfigError, match="max_catalog_size"):
            train(cfg, seed=0)
        assert built == []


class TestDecodesThroughEnvironment:
    """Every decode goes through environment.action_catalog as looked up
    at call time, so a patched one (perfbench's tracer) sees each of them."""

    def _spy(self, monkeypatch):
        indices = []
        decode = environment.action_catalog

        def spy(config, index):
            indices.append(index)
            return decode(config, index)
        monkeypatch.setattr(environment, "action_catalog", spy)
        return indices

    def test_random_eval_decodes_once_per_block(self, monkeypatch):
        # one decode of each block's (B, R) entries: the whole episode at
        # R = 2, one interval per block above BLOCK_ROWS realizations
        indices = self._spy(monkeypatch)
        harness.run_eval("random", SimConfig(n_intervals=5), seed=0,
                         realizations=2)
        assert [np.shape(index) for index in indices] == [(5, 2)]
        indices.clear()
        harness.run_eval("random", SimConfig(n_intervals=3), seed=0,
                         realizations=BLOCK_ROWS + 1)
        assert [np.shape(index) for index in indices] == \
            [(1, BLOCK_ROWS + 1)] * 3

    def test_training_decodes_once_per_interval(self, monkeypatch):
        indices = self._spy(monkeypatch)
        train(SimConfig(n_intervals=5, episodes=1), seed=0)
        assert len(indices) == 5


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

    @pytest.mark.parametrize("name, shape", [("w1", (8, 5)), ("b1", (5,)),
                                             ("w0", (8, 6)), ("b0", (1, 8))])
    def test_arrays_must_match_sizes(self, tmp_path, name, shape):
        # a head of 5 outputs under sizes that give 1280 used to load and
        # pass make_policy's size check
        path = tmp_path / "model.ckpt"
        save_checkpoint(QNetwork(6, (8,), 1280), str(path))
        data = dict(np.load(path))
        data[name] = np.zeros(shape)
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        with pytest.raises(ValueError, match=f"array {name} has shape"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("name, values, match", [
        ("w0", np.full((3, 8), "x"), "has dtype <U1, not a floating-point"),
        ("w0", np.zeros((3, 8), dtype=np.int64), "has dtype int64"),
        ("w0", np.full((3, 8), np.nan), "holds a non-finite value"),
        ("b1", np.array([0.0, 0.0, np.inf, 0.0, 0.0]),
         "holds a non-finite value")])
    def test_layers_must_hold_finite_floats(self, tmp_path, name, values,
                                            match):
        # a text layer used to load and fail in the forward pass, a NaN
        # one to load and make every greedy action entry 0
        path = self.rewritten(tmp_path, **{name: values})
        with pytest.raises(CheckpointError,
                           match=f"model.ckpt: array {name} {match}"):
            load_checkpoint(path)

    def test_interrupted_save_keeps_the_old_file(self, tmp_path,
                                                 monkeypatch):
        # the archive goes to a temporary file beside the target, which an
        # interruption removes; the target keeps its last complete archive
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_net(0), str(path))
        savez = np.savez

        def interrupted(fh, **arrays):
            fh.write(b"PK\x03\x04 half an archive")
            raise KeyboardInterrupt
        monkeypatch.setattr(np, "savez", interrupted)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(tiny_net(1), str(path))
        monkeypatch.setattr(np, "savez", savez)
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        loaded = load_checkpoint(str(path))
        for p, q in zip(tiny_net(0).parameters(), loaded.parameters()):
            assert np.array_equal(p, q)

    @pytest.mark.parametrize("content", ["text", "empty", "truncated",
                                         "one array"])
    def test_not_an_archive(self, tmp_path, content):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_net(), str(path))
        whole = path.read_bytes()
        if content == "one array":
            with open(path, "wb") as fh:
                np.save(fh, np.zeros(3))
        else:
            path.write_bytes({"text": b"not a checkpoint\n", "empty": b"",
                              "truncated": whole[:len(whole) // 2]}[content])
        with pytest.raises(CheckpointError,
                           match="model.ckpt: not a checkpoint archive"):
            load_checkpoint(str(path))
        assert issubclass(CheckpointError, ValueError)

    @pytest.mark.parametrize("name", ["version", "sizes", "w1", "b0"])
    def test_missing_array(self, tmp_path, name):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_net(), str(path))
        data = dict(np.load(path))
        del data[name]
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        with pytest.raises(CheckpointError,
                           match=f"model.ckpt: no {name} array"):
            load_checkpoint(str(path))

    @staticmethod
    def rewritten(tmp_path, **changes):
        """A saved tiny_net's checkpoint path, with arrays replaced."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_net(), str(path))
        data = dict(np.load(path))
        data.update(changes)
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        return str(path)

    @pytest.mark.parametrize("version", [np.array("x"), np.array([1, 1]),
                                         np.array(1.0), np.array([1])])
    def test_version_must_be_an_integer_scalar(self, tmp_path, version):
        path = self.rewritten(tmp_path, version=version)
        with pytest.raises(CheckpointError,
                           match="model.ckpt: version .* not an integer"):
            load_checkpoint(path)

    @pytest.mark.parametrize("sizes", [[[3, 8, 5]], [3], [], [3, 0, 5],
                                       [3, -8, 5], [3.0, 8.0, 5.0]])
    def test_sizes_must_be_two_or_more_positive_integers(self, tmp_path,
                                                         sizes):
        # a 2-D sizes used to raise TypeError, and [3] or [] to load a
        # network without layers
        path = self.rewritten(tmp_path, sizes=np.array(sizes))
        with pytest.raises(CheckpointError,
                           match="model.ckpt: sizes .* not a 1-D array"):
            load_checkpoint(path)

    def test_a_directory_is_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.mkdir()
        with pytest.raises(CheckpointError,
                           match="model.ckpt: cannot be read as a file"):
            load_checkpoint(str(path))
