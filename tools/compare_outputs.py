"""Run configs under two source trees and compare their outputs byte for byte.

Usage, from any directory::

    python3 tools/compare_outputs.py <src_a> <src_b> <cfg>... [--command stability]

Each ``src`` is a directory that holds the ``decem`` package (a checkout's
``src``).  Every config is run as ``python -m decem.cli <command> <cfg>
--output-dir <dir>`` once with ``PYTHONPATH=<src_a>`` and once with
``PYTHONPATH=<src_b>``, each side into its own directory.  OpenBLAS and
OpenMP are pinned to one thread: the energy in ``run_log.csv`` is a BLAS dot
product, whose last bits depend on the thread count.

Every file either side wrote is compared as bytes.  A file that differs or
exists on one side only, or an exit status that differs, is printed with
the config it came from.  The exit status is 1 if anything differed, else 0.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile


def run_side(src: str, command: str, cfg: str, outdir: str) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    argv = [sys.executable, "-m", "decem.cli", command, cfg, "--output-dir", outdir]
    if command == "run":
        argv.append("--quiet")
    done = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode:
        print(f"{cfg}: {src} exited {done.returncode}: {done.stderr.strip()}")
    return done.returncode


def compare_dirs(a: str, b: str) -> list[str]:
    """Names of the files that differ between ``a`` and ``b`` or exist in
    only one of them."""
    names_a = set(os.listdir(a)) if os.path.isdir(a) else set()
    names_b = set(os.listdir(b)) if os.path.isdir(b) else set()
    return sorted(
        name for name in names_a | names_b
        if name not in names_a or name not in names_b
        or not filecmp.cmp(os.path.join(a, name), os.path.join(b, name), shallow=False)
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src_a")
    p.add_argument("src_b")
    p.add_argument("cfg", nargs="+")
    p.add_argument("--command", choices=("run", "stability"), default="run")
    args = p.parse_args(argv)

    differed = False
    with tempfile.TemporaryDirectory() as work:
        for i, cfg in enumerate(args.cfg):
            cfg = os.path.abspath(cfg)
            outs = [os.path.join(work, side, str(i)) for side in ("a", "b")]
            codes = [run_side(src, args.command, cfg, out)
                     for src, out in zip((args.src_a, args.src_b), outs)]
            diffs = compare_dirs(*outs)
            if codes[0] != codes[1]:
                diffs.insert(0, f"exit status {codes[0]} != {codes[1]}")
            for what in diffs:
                print(f"DIFFERS {cfg}: {what}")
            if not diffs:
                n = len(os.listdir(outs[0])) if os.path.isdir(outs[0]) else 0
                print(f"same    {cfg}: {n} files")
            differed = differed or bool(diffs)
    return 1 if differed else 0


if __name__ == "__main__":
    sys.exit(main())
