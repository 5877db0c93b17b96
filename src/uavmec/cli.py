"""Command-line entry point: train, eval, sweep."""

from __future__ import annotations

import argparse
import os
import sys

from . import agent as ag
from . import harness
from .config import POLICY_KINDS, ConfigError, load_config


def _parse_overrides(pairs):
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--override expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavmec",
        description="Three-tier UAV edge-computing simulator and DQN trainer")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="config override, repeatable")

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
    os.makedirs(args.out, exist_ok=True)
    result = ag.train(config, args.seed)
    path = harness.checkpoint_path(args.out, config, args.seed)
    ag.save_checkpoint(result.net, path)
    curve_path = os.path.join(args.out,
                              f"curve_{int(config.i_max)}_{args.seed}.csv")
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
    os.makedirs(args.out, exist_ok=True)
    net = None
    if args.policy == "dqn":
        path = harness.checkpoint_path(args.out, config, args.seed)
        if not os.path.exists(path):
            print(f"error: no checkpoint at {path}; run 'uavmec train' first",
                  file=sys.stderr)
            return 1
        net = ag.load_checkpoint(path)
    row, records = harness.run_eval(args.policy, config, args.seed,
                                    config.eval_realizations, net=net,
                                    collect_records=True)
    name = f"{args.policy}_{int(config.i_max)}_{args.seed}.csv"
    out_path = os.path.join(args.out, f"eval_{name}")
    harness.emit_csv([row], out_path)
    print(f"wrote {out_path}")
    if args.dump_trajectory:
        traj_path = os.path.join(args.out, f"trajectory_{name}")
        harness.dump_trajectory(records, traj_path)
        print(f"wrote {traj_path}")
    return 0


def cmd_sweep(args, config) -> int:
    os.makedirs(args.out, exist_ok=True)
    rows = harness.run_sweep(config, args.seed, out_dir=args.out)
    out_path = os.path.join(args.out, "sweep.csv")
    harness.emit_csv(rows, out_path)
    print(f"wrote {out_path} ({len(rows)} rows)")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"train": cmd_train, "eval": cmd_eval, "sweep": cmd_sweep}
    try:
        config = load_config(args.config, _parse_overrides(args.override))
        return commands[args.command](args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
