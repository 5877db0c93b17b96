"""Golden outputs: evaluation rows and a short training run, pinned by value.

The values were recorded from the code as it stood before the environment
step was rewritten over arrays; a refactor that keeps outputs the same must
reproduce them. They are keyed by ``agent.CHECKPOINT_VERSION``: a change
that alters what evaluation or training produces bumps the version and adds
the new values under it, which also renames every cached checkpoint.

Training runs with ``eps_start = eps_end = 1``, so every action is random
and the last-bit rounding of the BLAS in use cannot steer the run; ``rel``
absorbs that rounding in the losses themselves.
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
    },
}

EVAL_CONFIG = SimConfig(n_intervals=20)
TRAIN_CONFIG = SimConfig(n_intervals=12, episodes=2, batch_size=4,
                         buffer_capacity=50, eps_start=1.0, eps_end=1.0)


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


def test_training_curve(golden):
    result = ag.train(TRAIN_CONFIG.validate(), seed=5)
    assert result.episode_rewards == pytest.approx(golden["episode_rewards"],
                                                   rel=REL)
    assert result.losses == pytest.approx(golden["losses"], rel=REL)
