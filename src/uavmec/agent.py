"""Self-contained DQN (dense Q-network, replay, target net) and baselines.

The network is plain numpy: rectifier hidden layers, linear output head,
stochastic gradient descent with a global-norm gradient clip. Keeping the
optimizer this simple lets every gradient be checked against central finite
differences.
"""

from __future__ import annotations

import math
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from .config import FIXED_POLICY_FRACS, SimConfig
# action_catalog is looked up on its module at each call, so that a patched
# environment.action_catalog, as perfbench's tracer installs, sees every decode.
from . import environment
# Unused here: perfbench traces agent.normalize_observation and probes with it.
from .environment import STAY, Lockstep, normalize_observation, observation_size

CHECKPOINT_VERSION = 1


class QNetwork:
    """Dense rectifier network mapping observations to per-action values."""

    # As a target net: max_a Q of each next observation valued since the last
    # sync_target, keyed by the observation's bytes (see target_max_q). A
    # target net's weights change only through sync_target, which empties it.
    # Every instance, including those from copy() and load_checkpoint(),
    # starts without one; checkpoints never hold it.
    _max_q_memo = None

    def __init__(self, input_size, hidden_sizes, output_size, rng=None):
        rng = rng if rng is not None else np.random.default_rng()
        sizes = [input_size] + list(hidden_sizes) + [output_size]
        self.sizes = sizes
        self.weights = []
        self.biases = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            scale = math.sqrt(2.0 / fan_in)
            w = rng.standard_normal((fan_in, fan_out)) * scale
            if i == len(sizes) - 2:
                # Zero output head: untried actions start at Q = 0 instead of
                # random optimistic values, which matters for wide catalogs.
                w = np.zeros((fan_in, fan_out))
            self.weights.append(w)
            self.biases.append(np.zeros(fan_out))

    @property
    def input_size(self) -> int:
        return self.sizes[0]

    @property
    def output_size(self) -> int:
        return self.sizes[-1]

    def parameters(self):
        return self.weights + self.biases

    def copy(self) -> "QNetwork":
        other = QNetwork.__new__(QNetwork)
        other.sizes = list(self.sizes)
        other.weights = [w.copy() for w in self.weights]
        other.biases = [b.copy() for b in self.biases]
        return other

    def hidden(self, x: np.ndarray, inputs: list = None) -> np.ndarray:
        """Rectifier hidden layers for one observation or a batch.

        With ``inputs``, the input of every hidden layer is appended to it
        for backprop.
        """
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            if inputs is not None:
                inputs.append(h)
            h = np.maximum(h @ w + b, 0.0)
        return h

    def q_values(self, x: np.ndarray) -> np.ndarray:
        """Action values of one observation or of each row of a batch: the
        hidden stack, then the linear head."""
        q = np.matmul(self.hidden(x), self.weights[-1])
        q += self.biases[-1]
        return q

    def forward_cached(self, x: np.ndarray) -> np.ndarray:
        """Action values for a batch (the target pass of train_step)."""
        if len(x) == 0:  # every next observation of the update is memoized
            return np.empty((0, self.output_size))
        return self.q_values(x)


def forward(net: QNetwork, obs: np.ndarray) -> np.ndarray:
    """Action values for one observation or a batch of observations."""
    x = np.atleast_2d(np.asarray(obs, dtype=float))
    if x.shape[1] != net.input_size:
        raise ValueError(f"observation width {x.shape[1]} does not match "
                         f"network input size {net.input_size}")
    out = net.q_values(x)
    return out[0] if np.ndim(obs) == 1 else out


def greedy_action(net: QNetwork, obs: np.ndarray):
    """Argmax action of one observation, or of each row of a batch.

    Ties break to the lowest index. The rounding rule both memos rely on
    (target_max_q's and baseline_action's): a row's Q-values have the same
    bits in every pass of 2 or more rows, whatever the other rows, while a
    1-row pass goes to gemv and may round them differently.
    """
    q = net.q_values(np.asarray(obs, dtype=float))
    return int(np.argmax(q)) if q.ndim == 1 else np.argmax(q, axis=1)


def select_action(net: QNetwork, obs: np.ndarray, epsilon: float,
                  rng: np.random.Generator) -> int:
    """Epsilon-greedy over the catalog; argmax ties break to the lowest index."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(net.output_size))
    return greedy_action(net, obs)


def sync_target(net: QNetwork, target_net: QNetwork) -> None:
    """Overwrite the target parameters with an exact copy of the online ones.

    Also empties the target's memo of next-observation values.
    """
    for tw, w in zip(target_net.weights, net.weights):
        tw[...] = w
    for tb, b in zip(target_net.biases, net.biases):
        tb[...] = b
    target_net._max_q_memo = None


def target_max_q(target_net: QNetwork, next_obs: np.ndarray) -> np.ndarray:
    """max_a Q of the target net for each row of a batch of observations.

    Each distinct observation is valued once per sync window: values are
    kept in the target's memo until the next sync_target, and one
    forward_cached pass per call covers only the rows not yet in it (none,
    possibly). By greedy_action's rounding rule, while the batch size
    holds, as in train, the values are bit-equal to valuing every row at
    once.
    """
    memo = target_net._max_q_memo
    if memo is None:
        memo = target_net._max_q_memo = {}
    keys, new, rows = _new_rows(memo, next_obs)
    values = target_net.forward_cached(next_obs[rows]).max(axis=1)
    memo.update(zip(new, values.tolist()))
    return np.fromiter(map(memo.__getitem__, keys), float, len(keys))


def _new_rows(memo: dict, x: np.ndarray):
    """The keys of a batch's rows, the keys not yet in memo and the rows
    that value them.

    A key is the row's bytes in C order, whatever the layout. Each new key
    is valued from its first row; a single new row of a batch of 2 or more
    is listed twice, so that its pass is not a 1-row pass (see
    greedy_action).
    """
    rows_c = np.ascontiguousarray(x)
    keys = rows_c.view((np.void, rows_c.strides[0])).ravel().tolist()
    new = {key: i for i, key in enumerate(keys) if key not in memo}
    rows = list(new.values())
    if len(rows) == 1 and len(keys) > 1:
        rows *= 2
    return keys, new, rows


class ReplayBuffer:
    """Uniform-sampling ring buffer of flat transitions."""

    def __init__(self, capacity: int, obs_size: int):
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_size))
        self.next_obs = np.zeros((capacity, obs_size))
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.dones = np.zeros(capacity, dtype=bool)
        self.size = 0
        self._ptr = 0

    def push(self, obs, action, reward, next_obs, done) -> None:
        i = self._ptr
        self.obs[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.dones[i] = done
        self._ptr = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, rng: np.random.Generator, batch_size: int):
        idx = rng.choice(self.size, size=batch_size, replace=False)
        return (self.obs[idx], self.actions[idx], self.rewards[idx],
                self.next_obs[idx], self.dones[idx])


def _sum_sq(g: np.ndarray) -> float:
    return float(np.add.reduce(np.square(g), axis=None))


def train_step(net: QNetwork, target_net: QNetwork, batch,
               config: SimConfig) -> float:
    """One TD update: targets from the frozen net, MSE loss, clipped SGD.

    Returns the pre-update loss; a non-finite loss raises before any weight
    is touched.
    """
    obs, actions, rewards, next_obs, dones = batch
    n = len(actions)
    next_max_q = target_max_q(target_net, next_obs)
    targets = rewards + config.discount * next_max_q * (~dones)

    # Forward through the hidden stack; only the chosen outputs are needed.
    num_layers = len(net.weights)
    acts = []
    h = net.hidden(obs, acts)
    w_out, b_out = net.weights[-1], net.biases[-1]
    # (hidden, n) in F order, so w_cols.T and delta below are in C order,
    # which fixes how delta.sum(axis=0) rounds.
    w_cols = w_out[:, actions]
    b_sa = b_out[actions]
    q_sa = np.einsum("nh,hn->n", h, w_cols) + b_sa
    err = q_sa - targets
    loss = float(np.add.reduce(np.square(err)) / n)
    if not math.isfinite(loss):
        raise RuntimeError(f"non-finite TD loss {loss}; training diverged")

    # Backprop: the loss touches only the chosen action's output unit, so
    # the output-layer gradient lives on the selected columns alone and is
    # kept in compact form (one column per distinct action in the batch).
    dq = 2.0 * err / n                              # (n,)
    uniq, pos, inverse = np.unique(actions, return_index=True,
                                   return_inverse=True)
    # Head weight and bias gradients as the rows of one (hidden + 1,
    # len(uniq)) array, binned from [dq * h.T; dq]. bincount adds each bin in
    # batch order, so the sums round as sequential scatter-adds would.
    hidden = w_out.shape[0]
    terms = np.empty((hidden + 1, n))
    np.multiply(h.T, dq, out=terms[:hidden])
    terms[hidden] = dq
    bins = np.arange(0, (hidden + 1) * len(uniq), len(uniq))[:, None] + inverse
    g_out = np.bincount(bins.ravel(), weights=terms.ravel()).reshape(
        hidden + 1, len(uniq))
    gw_out, gb_out = g_out[:hidden], g_out[hidden]
    grads_w = [None] * (num_layers - 1)
    grads_b = [None] * (num_layers - 1)
    delta = dq[:, None] * w_cols.T                  # into the last hidden layer
    delta *= h > 0.0
    for i in range(num_layers - 2, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ net.weights[i].T
            delta *= acts[i] > 0.0

    # The grouping of the terms and each gradient's memory layout (C order,
    # gw_out too) fix how the squared norm rounds, and so the clip.
    norm_sq = _sum_sq(gw_out) + _sum_sq(gb_out)
    norm_sq += sum(_sum_sq(g) for g in grads_w + grads_b)
    norm = math.sqrt(norm_sq)
    scale = config.grad_clip / norm if norm > config.grad_clip else 1.0
    lr = config.learning_rate
    # The head columns were gathered for q_sa; subtract from those copies.
    w_out[:, uniq] = w_cols[:, pos] - lr * scale * gw_out
    b_out[uniq] = b_sa[pos] - lr * scale * gb_out
    for w, g in zip(net.weights[:-1], grads_w):
        w -= lr * scale * g
    for b, g in zip(net.biases[:-1], grads_b):
        b -= lr * scale * g
    return loss


def td_loss(net: QNetwork, target_net: QNetwork, batch,
            config: SimConfig) -> float:
    """Loss of train_step without the parameter update (finite-difference aid).

    Its targets come from one full target pass, without the memo, as the
    reference for train_step's.
    """
    obs, actions, rewards, next_obs, dones = batch
    next_q = target_net.forward_cached(next_obs)
    targets = rewards + config.discount * np.max(next_q, axis=1) * (~dones)
    out = net.forward_cached(obs)
    q_sa = out[np.arange(len(actions)), actions]
    return float(np.mean((q_sa - targets) ** 2))


# -- policies ---------------------------------------------------------------

@dataclass
class Policy:
    """A policy kind's actions, prepared for R realizations: a fixed
    baseline's action, the random policy's (R, n_intervals) catalog
    entries, or the dqn's network with its memo of greedy actions, keyed
    by the bytes of the observation rows it reads (see baseline_action)."""
    kind: str
    config: SimConfig
    net: QNetwork = None
    action: tuple = None
    entries: np.ndarray = None
    memo: dict = None


def make_policy(kind: str, config: SimConfig, realizations: int,
                net: QNetwork = None, rng=None) -> Policy:
    """Policy kind for R realizations under config; ConfigError where
    check_policy fails, ValueError for a missing or mismatched network or
    a missing generator. The random policy draws every interval's entries
    here, from rng, a numpy Generator."""
    config.check_policy(kind)
    if kind == "dqn":
        if net is None:
            raise ValueError("dqn policy requires a trained network")
        check_fit(net, config)
        return Policy(kind, config, net=net, memo={})
    if kind == "random":
        if rng is None:
            raise ValueError("random policy requires a generator")
        entries = rng.integers(
            config.catalog_size, size=(realizations, config.n_intervals))
        return Policy(kind, config, entries=entries)
    return Policy(kind, config, action=fixed_action(
        kind, (realizations, config.num_devices)))


def check_fit(net: QNetwork, config: SimConfig) -> None:
    """ValueError unless net maps config's observations to one value per
    catalog entry."""
    want = (observation_size(config), config.catalog_size)
    if (net.input_size, net.output_size) != want:
        raise ValueError(f"network maps {net.input_size} inputs to "
                         f"{net.output_size} actions; this config needs "
                         f"{want[0]} and {want[1]}")


def fixed_action(kind: str, shape: tuple):
    """(fractions, moves) of fixed baseline kind for devices of shape
    (R, K): its FIXED_POLICY_FRACS on every device, the UAV staying."""
    fractions = np.empty((4,) + shape)
    fractions.T[...] = FIXED_POLICY_FRACS[kind]  # broadcast on the 4-axis
    return fractions, np.full(shape[:-1], STAY)


def baseline_action(policy: Policy, n: int, observe):
    """Interval n's (fractions, moves) for every realization, (4, R, K) and
    (R,), as Lockstep.step takes them.

    Only the dqn calls observe(), for the network's input rows, and acts
    greedily on them; the random policy decodes its entries for n. The dqn
    values each distinct row once per policy: only the rows not yet in its
    memo go through the net, in one pass, or none. By greedy_action's
    rounding rule the actions are those of one pass over every row (at
    R = 1, of a 1-row pass). A network changed after make_policy is not
    seen.
    """
    if policy.kind == "dqn":
        obs = observe()
        memo = policy.memo
        keys, new, rows = _new_rows(memo, obs)
        if new:
            memo.update(zip(new, greedy_action(policy.net,
                                               obs[rows]).tolist()))
        index = np.fromiter(map(memo.__getitem__, keys), np.int64, len(keys))
        return environment.action_catalog(policy.config, index)
    if policy.kind == "random":
        return environment.action_catalog(policy.config,
                                          policy.entries[:, n])
    return policy.action


# -- training loop ----------------------------------------------------------

@dataclass
class TrainResult:
    net: QNetwork
    episode_rewards: list
    losses: list            # every update's TD loss, in order
    episode_losses: list    # each episode's mean TD loss; nan without updates


def train(config: SimConfig, seed=0) -> TrainResult:
    """Full DQN training run; fully reproducible from the seed. Each
    episode steps a one-realization Lockstep."""
    ss = np.random.SeedSequence(seed)
    init_ss, action_ss, sample_ss, env_root = ss.spawn(4)
    config.check_policy("dqn")
    rng_actions = np.random.default_rng(action_ss)
    rng_sample = np.random.default_rng(sample_ss)

    obs_size = observation_size(config)
    net = QNetwork(obs_size, config.hidden_sizes, config.catalog_size,
                   rng=np.random.default_rng(init_ss))
    target_net = net.copy()
    buffer = ReplayBuffer(config.buffer_capacity, obs_size)

    total_steps = config.episodes * config.n_intervals
    decay_horizon = max(1, total_steps // 2)
    episode_seeds = env_root.spawn(config.episodes)

    episode_rewards = []
    losses = []
    episode_losses = []
    t = 0
    for ep in range(config.episodes):
        env = Lockstep(config, [episode_seeds[ep]])
        obs = env.observe()[0]
        first_loss = len(losses)
        ep_reward = 0.0
        while not env.done:
            frac = min(1.0, t / decay_horizon)
            eps = config.eps_start + (config.eps_end - config.eps_start) * frac
            action = select_action(net, obs, eps, rng_actions)
            record = env.step(*environment.action_catalog(config, [action]))
            reward = float(np.sum(record.reward_per_device))
            next_obs = env.observe()[0]
            buffer.push(obs, action, reward / config.reward_scale, next_obs,
                        env.done)
            obs = next_obs
            ep_reward += reward
            if buffer.size >= config.batch_size:
                batch = buffer.sample(rng_sample, config.batch_size)
                losses.append(train_step(net, target_net, batch, config))
            t += 1
            if t % config.target_sync_period == 0:
                sync_target(net, target_net)
        episode_rewards.append(ep_reward)
        ep_losses = losses[first_loss:]
        episode_losses.append(float(np.mean(ep_losses)) if ep_losses
                              else math.nan)
    return TrainResult(net=net, episode_rewards=episode_rewards, losses=losses,
                       episode_losses=episode_losses)


# -- checkpoints ------------------------------------------------------------

class CheckpointError(ValueError):
    """A file that is not a checkpoint load_checkpoint can read."""


def save_checkpoint(net: QNetwork, path: str) -> None:
    """Serialize layer sizes and parameters; round-trips bit-exactly. The
    archive is written beside path and renamed onto it, so an interrupted
    save never leaves a truncated file under path."""
    arrays = {"version": np.array(CHECKPOINT_VERSION),
              "sizes": np.array(net.sizes, dtype=np.int64)}
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path: str) -> QNetwork:
    """The network saved at path. CheckpointError, naming the file, for a
    path that cannot be read as a file, a file that is not a checkpoint
    archive, lacks its version, sizes or a layer's arrays, has a version
    that is not an integer scalar or is another version, has sizes that are
    not a 1-D array of at least two positive integers, or has a layer whose
    arrays do not have the shapes its sizes give."""
    def fail(reason):
        return CheckpointError(f"checkpoint {path}: {reason}")

    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise fail(f"cannot be read as a file: {exc.strerror}") from exc
    with fh:
        try:
            data = np.load(fh)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("a single array")
            arrays = dict(data.items())
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise fail("not a checkpoint archive") from exc

    def array(name, shape=None):
        if name not in arrays:
            raise fail(f"no {name} array")
        if shape is not None and arrays[name].shape != shape:
            raise fail(f"array {name} has shape {arrays[name].shape}; sizes "
                       f"{sizes} give {shape}")
        return arrays[name]

    version = array("version")
    if version.shape != () or version.dtype.kind not in "iu":
        raise fail(f"version {version.tolist()!r} is not an integer scalar")
    if version != CHECKPOINT_VERSION:
        raise fail(f"unsupported checkpoint version {version}")
    sizes = array("sizes")
    if sizes.ndim != 1 or sizes.dtype.kind not in "iu" or len(sizes) < 2 \
            or not np.all(sizes > 0):
        raise fail(f"sizes {sizes.tolist()} are not a 1-D array of at least "
                   f"two positive integers")
    sizes = sizes.tolist()
    net = QNetwork.__new__(QNetwork)
    net.sizes = sizes
    net.weights = [array(f"w{i}", tuple(sizes[i:i + 2]))
                   for i in range(len(sizes) - 1)]
    net.biases = [array(f"b{i}", (sizes[i + 1],))
                  for i in range(len(sizes) - 1)]
    return net
