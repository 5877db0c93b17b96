"""Self-contained DQN (dense Q-network, replay, target net) and baselines.

The network is plain numpy: rectifier hidden layers, linear output head,
stochastic gradient descent with a global-norm gradient clip. Keeping the
optimizer this simple lets every gradient be checked against central finite
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import FIXED_POLICY_FRACS, POLICY_KINDS, SimConfig
from .environment import STAY, MecEnvironment, observation_size

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
            h = np.matmul(h, w)
            h += b
            np.maximum(h, 0.0, out=h)
        return h

    def forward_cached(self, x: np.ndarray) -> np.ndarray:
        """Action values for a batch (the target pass of train_step)."""
        if len(x) == 0:  # every next observation of the update is memoized
            return np.empty((0, self.output_size))
        q = np.matmul(self.hidden(x), self.weights[-1])
        q += self.biases[-1]
        return q


def forward(net: QNetwork, obs: np.ndarray) -> np.ndarray:
    """Action values for one observation or a batch of observations."""
    x = np.atleast_2d(np.asarray(obs, dtype=float))
    if x.shape[1] != net.input_size:
        raise ValueError(f"observation width {x.shape[1]} does not match "
                         f"network input size {net.input_size}")
    out = net.forward_cached(x)
    return out[0] if np.ndim(obs) == 1 else out


def greedy_action(net: QNetwork, obs: np.ndarray):
    """Argmax action of one observation, or of each row of a batch.

    Ties break to the lowest index. A batch's matrix product can round
    Q-values differently in the last bit from a single row's.
    """
    # Not forward_cached: perfbench times that method as the target pass alone.
    q = np.matmul(net.hidden(np.asarray(obs, dtype=float)), net.weights[-1])
    q += net.biases[-1]
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
    possibly). Every row of a pass of 2 to 64 rows rounds as it would in a
    pass over the whole batch, so while the batch size holds, as in train,
    the values are bit-equal to valuing every row at once. A 1-row pass goes
    to gemv, which rounds differently, so a single new row of a larger batch
    is passed twice.
    """
    memo = target_net._max_q_memo
    if memo is None:
        memo = target_net._max_q_memo = {}
    # One bytes key per row: the row's bytes in C order, whatever the layout.
    rows_c = np.ascontiguousarray(next_obs)
    keys = rows_c.view((np.void, rows_c.strides[0])).ravel().tolist()
    new = {key: i for i, key in enumerate(keys) if key not in memo}
    rows = list(new.values())
    if len(rows) == 1 and len(keys) > 1:
        rows *= 2
    values = target_net.forward_cached(next_obs[rows]).max(axis=1)
    memo.update(zip(new, values.tolist()))
    return np.fromiter(map(memo.__getitem__, keys), float, len(keys))


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
    # The distinct actions, the batch position of each and the column of
    # each batch row, from one stable sort (np.unique does the same sort
    # with more overhead).
    order = np.argsort(actions, kind="stable")
    sorted_actions = actions[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(sorted_actions[1:], sorted_actions[:-1], out=first[1:])
    uniq, pos = sorted_actions[first], order[first]
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
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
    """Maps observations to catalog indices; kind selects the strategy."""
    kind: str
    n_actions: int
    net: QNetwork = None
    fixed_index: int = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")


def _fixed_catalog_index(env: MecEnvironment, fracs: tuple) -> int:
    """First catalog entry with fracs on every device and the UAV staying."""
    match = np.all(env.fractions == np.reshape(fracs, (4, 1)), axis=(1, 2))
    hits = np.flatnonzero(match & (env.moves == STAY))
    if len(hits) == 0:
        raise ValueError(f"fraction tuple {fracs} not present in the catalog")
    return int(hits[0])


def make_policy(kind: str, env: MecEnvironment, net: QNetwork = None) -> Policy:
    n = len(env.moves)
    if kind == "dqn":
        if net is None:
            raise ValueError("dqn policy requires a trained network")
        want = (observation_size(env.config), n)
        if (net.input_size, net.output_size) != want:
            raise ValueError(f"network maps {net.input_size} inputs to "
                             f"{net.output_size} actions; this environment "
                             f"needs {want[0]} and {want[1]}")
        return Policy(kind=kind, n_actions=n, net=net)
    if kind in FIXED_POLICY_FRACS:
        index = _fixed_catalog_index(env, FIXED_POLICY_FRACS[kind])
        return Policy(kind=kind, n_actions=n, fixed_index=index)
    return Policy(kind=kind, n_actions=n)


def baseline_action(policy: Policy, obs: np.ndarray,
                    rng: np.random.Generator):
    """Action choice for any policy kind (greedy for dqn).

    A dqn policy also takes a batch of observations, one per row, and
    returns one action per row.
    """
    if policy.kind == "dqn":
        return greedy_action(policy.net, obs)
    if policy.kind == "random":
        return int(rng.integers(policy.n_actions))
    return policy.fixed_index


def action_table(policy: Policy, rng: np.random.Generator, episodes: int,
                 n_intervals: int):
    """(episodes, n_intervals) actions of an observation-free policy; None
    for dqn. The random table equals baseline_action's scalar draws made
    episode by episode."""
    if policy.kind == "dqn":
        return None
    if policy.kind == "random":
        return rng.integers(policy.n_actions, size=(episodes, n_intervals))
    return np.full((episodes, n_intervals), policy.fixed_index)


def normalize_observation(obs: np.ndarray, config: SimConfig) -> np.ndarray:
    """Scale queue levels into [0, 1]; appended UAV coordinates already are."""
    out = np.asarray(obs, dtype=float).copy()
    nq = 3 * config.num_devices
    out[..., :nq] /= config.queue_levels - 1
    return out


# -- training loop ----------------------------------------------------------

@dataclass
class TrainResult:
    net: QNetwork
    episode_rewards: list
    losses: list            # every update's TD loss, in order
    episode_losses: list    # each episode's mean TD loss; nan without updates


def train(config: SimConfig, seed=0) -> TrainResult:
    """Full DQN training run; fully reproducible from the seed."""
    ss = np.random.SeedSequence(seed)
    init_ss, action_ss, sample_ss, env_root = ss.spawn(4)
    env = MecEnvironment(config)
    rng_actions = np.random.default_rng(action_ss)
    rng_sample = np.random.default_rng(sample_ss)

    obs_size = observation_size(config)
    net = QNetwork(obs_size, config.hidden_sizes, len(env.moves),
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
        obs = normalize_observation(env.reset(episode_seeds[ep]), config)
        first_loss = len(losses)
        ep_reward = 0.0
        while not env.done:
            frac = min(1.0, t / decay_horizon)
            eps = config.eps_start + (config.eps_end - config.eps_start) * frac
            action = select_action(net, obs, eps, rng_actions)
            tr = env.step(action)
            next_obs = normalize_observation(tr.next_observation, config)
            buffer.push(obs, action, tr.reward / config.reward_scale,
                        next_obs, tr.done)
            obs = next_obs
            ep_reward += tr.reward
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

def save_checkpoint(net: QNetwork, path: str) -> None:
    """Serialize layer sizes and parameters; round-trips bit-exactly."""
    arrays = {"version": np.array(CHECKPOINT_VERSION),
              "sizes": np.array(net.sizes, dtype=np.int64)}
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str) -> QNetwork:
    with open(path, "rb") as fh:
        data = np.load(fh)
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        sizes = [int(s) for s in data["sizes"]]
        net = QNetwork.__new__(QNetwork)
        net.sizes = sizes
        net.weights = [data[f"w{i}"] for i in range(len(sizes) - 1)]
        net.biases = [data[f"b{i}"] for i in range(len(sizes) - 1)]
    return net
