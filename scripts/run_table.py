"""Headline comparison across all built-in instances.

Runs `ddrollout table` once per instance: the recorded base cost, the
sample-set rollout and, where the instance names one, the classical
receding-horizon baseline, each as a realized closed-loop total. Each
instance writes its table.csv and table.txt to its own output directory.

Usage:
    python3 scripts/run_table.py [--instance NAME] [--horizon N] [--out-dir DIR]
"""

import argparse
import os
import sys

from ddrollout import cli
from ddrollout.catalog import INSTANCES


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instance", default=None,
                    help="restrict to one instance (default: all)")
    ap.add_argument("--horizon", type=int, default=None)
    ap.add_argument("--out-dir", default=None,
                    help="parent of the per-instance output directories "
                         "(default: runs/<instance>)")
    args = ap.parse_args(argv)

    code = cli.EXIT_OK
    for name in [args.instance] if args.instance else list(INSTANCES):
        argv = ["table", "--instance", name]
        if args.out_dir is not None:
            argv += ["--out-dir", os.path.join(args.out_dir, name)]
        if args.horizon is not None:
            argv += ["--horizon", str(args.horizon)]
        code = max(code, cli.main(argv))
    return code


if __name__ == "__main__":
    sys.exit(main())
