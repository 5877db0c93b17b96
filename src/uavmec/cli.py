"""Command-line entry point: train, eval, sweep."""

from __future__ import annotations

import argparse
import os
import sys

from . import agent as ag
from . import harness
from .config import POLICY_KINDS, ConfigError, load_config


def non_negative_int(raw: str) -> int:
    """An integer of at least 0, as numpy's generators take for a seed."""
    seed = int(raw)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavmec",
        description="Three-tier UAV edge-computing simulator and DQN trainer")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=non_negative_int, default=0)
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="config override, repeatable")

    p_train = sub.add_parser("train", help="train a DQN and save a checkpoint")
    common(p_train)

    p_eval = sub.add_parser("eval", help="evaluate one frozen policy")
    common(p_eval)
    p_eval.add_argument("--policy", required=True,
                        choices=POLICY_KINDS)
    p_eval.add_argument("--dump-trajectory", action="store_true",
                        help="also write a per-interval trajectory CSV")

    p_sweep = sub.add_parser("sweep", help="run the arrival-rate sweep grid")
    common(p_sweep)
    return parser


def cmd_train(args, config) -> int:
    result = ag.train(config, args.seed)
    os.makedirs(args.out, exist_ok=True)
    path = harness.checkpoint_path(args.out, config, args.seed)
    ag.save_checkpoint(result.net, path)
    curve_path = harness.curve_path(path)
    with open(curve_path, "w", encoding="utf-8") as fh:
        fh.write("episode,cumulative_reward,mean_td_loss\n")
        for ep, (r, loss) in enumerate(zip(result.episode_rewards,
                                           result.episode_losses)):
            fh.write(f"{ep},{r!r},{loss!r}\n")
    print(f"saved checkpoint to {path}")
    print(f"saved learning curve to {curve_path}")
    return 0


def cmd_eval(args, config) -> int:
    config.check_policy(args.policy)
    net = None
    if args.policy == "dqn":
        path = harness.checkpoint_path(args.out, config, args.seed)
        if not os.path.exists(path):
            print(f"error: no checkpoint at {path}; run 'uavmec train' first",
                  file=sys.stderr)
            return 1
        net = harness.load_network(path, config)
    os.makedirs(args.out, exist_ok=True)
    out = harness.run_eval(args.policy, config, args.seed,
                           config.eval_realizations, net=net,
                           collect_records=args.dump_trajectory)
    row, records = out if args.dump_trajectory else (out, None)
    name = f"{args.policy}_{harness.run_tag(config, args.seed)}.csv"
    out_path = os.path.join(args.out, f"eval_{name}")
    harness.emit_csv([row], out_path)
    print(f"wrote {out_path}")
    if args.dump_trajectory:
        traj_path = os.path.join(args.out, f"trajectory_{name}")
        harness.dump_trajectory(records, traj_path)
        print(f"wrote {traj_path}")
    return 0


def cmd_sweep(args, config) -> int:
    rows = harness.run_sweep(config, args.seed, out_dir=args.out)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "sweep.csv")
    harness.emit_csv(rows, out_path)
    print(f"wrote {out_path} ({len(rows)} rows)")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"train": cmd_train, "eval": cmd_eval, "sweep": cmd_sweep}
    try:
        config = load_config(args.config, args.override)
        # Checked before any work, at the nearest existing ancestor of --out;
        # the command creates the directory.
        ancestor = args.out
        while ancestor and not os.path.exists(ancestor):
            ancestor = os.path.dirname(ancestor)
        if ancestor and not os.path.isdir(ancestor):
            print(f"error: --out {args.out} is not a directory",
                  file=sys.stderr)
            return 1
        return commands[args.command](args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ag.CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
