"""Golden outputs: evaluation rows and two short training runs, pinned by value.

The values were recorded from the code as it stood before the environment
step was rewritten over arrays; a refactor that keeps outputs the same must
reproduce them. They are keyed by ``agent.CHECKPOINT_VERSION``: a change
that alters what evaluation or training produces bumps the version and adds
the new values under it, which also renames every cached checkpoint.

Training runs with ``eps_start = eps_end = 1``, so every action is random
and the last-bit rounding of the BLAS in use cannot steer the run; ``rel``
absorbs that rounding in the losses themselves. The short run never syncs
its target net, whose zero output head then makes every TD target 0; the
synced run syncs every 5 steps and wraps its 16-slot replay buffer, so its
losses also pin the target pass. Its values were recorded before
``train_step`` memoized target values per observation. The dqn row was
recorded before ``run_eval`` read its totals from the Lockstep's
accumulator, which adds in another order; ``rel`` absorbs that as well.
"""

import dataclasses

import pytest

from uavmec import agent as ag, harness
from uavmec.config import SimConfig

REL = 1e-9

GOLDEN = {
    1: {
        # ResultRow fields from mean_pde on, run_eval(policy, EVAL_CONFIG,
        # seed=3, realizations=2).
        "rows": {
            "random": (115470.94756654752, 1.895103701304458,
                       218829.4201264972, 203515.40043258472,
                       114183.83336882135, 102321.86862433946, 0.95,
                       96.50967600315269),
            "uav_heavy": (82193.62823626665, 2.6601995237028517,
                          218651.45068552584, 172814.76057095098,
                          133428.68771306664, 108493.01744920271, 0.95,
                          0.0),
            "cloud_heavy": (81934.22009320304, 2.6601995237028517,
                            217961.37326690336, 172814.76057095098,
                            133428.68771306664, 120385.78806561597, 0.95,
                            0.0),
        },
        # run_eval("dqn", EVAL_CONFIG, seed=3, realizations=3,
        # net=agent.train(TRAIN_CONFIG, seed=5).net)
        "dqn_row": (119205.17234679217, 1.826101867615389,
                    217680.7878518915, 238791.35671131205,
                    103812.13249624908, 85700.3724837785, 0.95, 0.0),
        # agent.train(TRAIN_CONFIG, seed=5)
        "episode_rewards": [534758.4366314986, 790992.4473050331],
        "losses": [
            0.08632576377182853, 0.20715389346847637, 0.24471974272359437,
            0.19091019841872958, 0.27605532437157665, 0.2566050621251667,
            0.19229483556783566, 0.3033470926800804, 0.2969842111931503,
            0.14676824417181952, 0.3007814543727382, 0.04267684864247298,
            0.09556984565101335, 0.17021501611599404, 0.22622541142764893,
            0.30923826169689556, 0.3003676035768247, 0.5103352498532829,
            0.4872402532929402, 0.4557595741135348, 0.45727737664154067,
        ],
        # agent.train(SYNC_CONFIG, seed=5)
        "synced": {
            "episode_rewards": [534758.4366314986, 790992.4473050331,
                                536621.891710901],
            "losses": [
                0.08632576377182853, 0.20715389346847637,
                0.24574988490677419, 0.19187023077447038,
                0.27705214130733025, 0.2576760920590257,
                0.19317513512298354, 0.30636047182982246,
                0.30094503477196327, 0.14849196413494922,
                0.3042078677043028, 0.04344046007432404,
                0.09795274289083056, 0.3134201023394023,
                0.1400248100925794, 0.16316399572798548,
                0.2806879319656578, 0.19959671732779202,
                0.4957590548067788, 0.4663228351633231,
                0.6588346279781492, 0.22867067968879612,
                0.12478814808088484, 0.5872306761472108,
                0.41724772277704897, 0.5723633952094374,
                0.5227206286144976, 0.6121515878998947,
                0.608534191199469, 0.7380173375285803,
                0.46473015490340597, 0.9875672128381223,
                0.39484373441465764,
            ],
        },
    },
}

EVAL_CONFIG = SimConfig(n_intervals=20)
TRAIN_CONFIG = SimConfig(n_intervals=12, episodes=2, batch_size=4,
                         buffer_capacity=50, eps_start=1.0, eps_end=1.0)
SYNC_CONFIG = dataclasses.replace(TRAIN_CONFIG, episodes=3, buffer_capacity=16,
                                  target_sync_period=5)


@pytest.fixture(scope="module")
def golden():
    if ag.CHECKPOINT_VERSION not in GOLDEN:
        pytest.fail(f"no golden values for CHECKPOINT_VERSION "
                    f"{ag.CHECKPOINT_VERSION}; record them under that key")
    return GOLDEN[ag.CHECKPOINT_VERSION]


@pytest.mark.parametrize("policy", ["random", "uav_heavy", "cloud_heavy"])
def test_eval_rows(golden, policy):
    row = harness.run_eval(policy, EVAL_CONFIG.validate(), seed=3,
                           realizations=2)
    got = dataclasses.astuple(row)
    assert got[:3] == (policy, EVAL_CONFIG.i_max, 3)
    assert got[3:] == pytest.approx(golden["rows"][policy], rel=REL)


def test_dqn_eval_row(golden):
    net = ag.train(TRAIN_CONFIG.validate(), seed=5).net
    row = harness.run_eval("dqn", EVAL_CONFIG.validate(), seed=3,
                           realizations=3, net=net)
    got = dataclasses.astuple(row)
    assert got[:3] == ("dqn", EVAL_CONFIG.i_max, 3)
    assert got[3:] == pytest.approx(golden["dqn_row"], rel=REL)


def test_training_curve(golden):
    result = ag.train(TRAIN_CONFIG.validate(), seed=5)
    assert result.episode_rewards == pytest.approx(golden["episode_rewards"],
                                                   rel=REL)
    assert result.losses == pytest.approx(golden["losses"], rel=REL)


def test_training_curve_with_target_syncs(golden):
    result = ag.train(SYNC_CONFIG.validate(), seed=5)
    assert result.episode_rewards == pytest.approx(
        golden["synced"]["episode_rewards"], rel=REL)
    assert result.losses == pytest.approx(golden["synced"]["losses"],
                                          rel=REL)
