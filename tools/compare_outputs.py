"""Run configs under two source trees and compare their outputs byte for byte.

Usage, from any directory::

    python3 tools/compare_outputs.py <src_a> <src_b> <cfg>... [--command stability|convergence]

Each ``src`` is a directory that holds the ``decem`` package (a checkout's
``src``).  Every config is run as ``python -m decem.cli <command> <cfg>
--output-dir <dir>`` once with ``PYTHONPATH=<src_a>`` and once with
``PYTHONPATH=<src_b>``, each side into its own directory.  OpenBLAS and
OpenMP are pinned to one thread, so that the two sides run the same
arithmetic whatever the machine's core count.

Every file either side wrote is compared as bytes.  A file that differs or
exists on one side only, or a nonzero exit status on either side, is
printed with the config it came from; a config whose files all match is
printed with each side's peak RSS, read by ``os.wait4``, so that a memory
change is seen on every config compared.  A file present on both sides that
differs gets a second line: whether its non-numeric text matches and how
many of its numbers differ.  A CSV file whose numbers differ also gets, per
column named in its header (its first line that does not start with
``#``), the largest |a - b| over the column's largest |a|, so each figure
measures an energy against energies and a step against steps.  A legacy
binary VTK file is compared by its named arrays instead: its second line
gives, per array, how many values differ and the same scale-relative
figure.  The last line is the largest scale-relative difference over every
column and array compared, and the config, file and column or array it
comes from, so that a change that moves roundoff only can be judged at a
glance: inf where a file exists on one side only, where the two sides exit
differently or both fail, or where a file differs other than in its numbers
(a text file that is not a CSV counts as one column).  The exit status is 1
if anything differed, else 0.
"""

from __future__ import annotations

import argparse
import filecmp
import math
import os
import re
import subprocess
import sys
import tempfile
from operator import itemgetter

import numpy as np


def run_side(src: str, command: str, cfg: str, outdir: str) -> tuple[int, float]:
    """Run one config under ``src``; return its exit status and its peak RSS
    in MB.  The child is reaped by ``os.wait4``, which reports its own
    resource use, so its stderr goes to a file, not to a pipe that
    ``communicate`` would drain by reaping it first."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    argv = [sys.executable, "-m", "decem.cli", command, cfg, "--output-dir", outdir]
    if command == "run":
        argv.append("--quiet")
    with tempfile.TemporaryFile("w+") as err:
        child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        if child.returncode:
            print(f"{cfg}: {src} exited {child.returncode}: {err.read().strip()}")
    return child.returncode, usage.ru_maxrss * 1024 / 1e6   # KiB on Linux; MB as bench/run.py


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


# a decimal or float literal (or inf/nan) that is not part of a longer word
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")


def absolute_difference(x: str, y: str) -> float:
    """|a - b| of two number texts: 0 for equal texts or values (0.0 and
    -0.0 are equal), inf when only one is inf or nan."""
    a, b = float(x), float(y)
    if x == y or a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b)


def scale_relative_difference(nums_a: list, nums_b: list) -> float:
    """The largest |a - b| over the largest finite |a| of one column's
    numbers: inf where a column of zeros (or of non-finite values) differs."""
    worst = max(map(absolute_difference, nums_a, nums_b), default=0.0)
    scale = max((abs(a) for a in map(float, nums_a) if math.isfinite(a)),
                default=0.0)
    return worst and (worst / scale if scale else math.inf)


def column_differences(text_a: str, text_b: str) -> dict:
    """The scale-relative difference of each column of two CSV texts, by
    column name, over the rows both hold and the cells that are numbers on
    both sides; empty when the headers differ or no column holds a number."""
    rows_a, rows_b = ([line.split(",") for line in text.splitlines()
                       if not line.startswith("#")] for text in (text_a, text_b))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return {}
    figures = {}
    for k, name in enumerate(rows_a[0]):
        pairs = [(a[k], b[k]) for a, b in zip(rows_a[1:], rows_b[1:])
                 if len(a) > k and len(b) > k
                 and NUMBER.fullmatch(a[k]) and NUMBER.fullmatch(b[k])]
        if pairs:
            figures[name] = scale_relative_difference(*zip(*pairs))
    return figures


# legacy VTK data types, as big-endian binary
VTK_TYPES = {"double": ">f8", "int": ">i4"}


def read_vtk(path: str) -> dict:
    """The arrays of a legacy binary VTK file as float64, by keyword:
    ``POINTS``, ``CELLS``, ``CELL_TYPES``, ``SCALARS <name>`` and ``VECTORS
    <name>``.  Each array's size comes from its keyword line (and the
    ``CELL_DATA``/``POINT_DATA`` count before it), and it is that many
    big-endian values; other lines are skipped.  A file whose encoding is not
    ``BINARY`` raises ``ValueError``."""
    with open(path, "rb") as fh:
        data = fh.read()
    _, _, encoding, body = (data.split(b"\n", 3) + [b""] * 3)[:4]
    if encoding.strip() != b"BINARY":
        raise ValueError(f"{path}: not a legacy binary VTK file")
    at, count, arrays = 0, 0, {}

    def line():
        nonlocal at
        end = body.find(b"\n", at)
        end = len(body) if end < 0 else end
        words, at = body[at:end].decode("ascii", "replace").split(), end + 1
        return words

    while at < len(body):
        words = line()
        key = words[0] if words else ""
        if key in ("CELL_DATA", "POINT_DATA"):
            count = int(words[1])
            continue
        if key == "POINTS":
            n, vtk_type = 3 * int(words[1]), words[2]
        elif key in ("CELLS", "CELL_TYPES"):
            n, vtk_type = int(words[-1]), "int"
        elif key == "SCALARS":
            n, vtk_type = count * int(words[3]), words[2]
            if body.startswith(b"LOOKUP_TABLE", at):
                line()
        elif key == "VECTORS":
            n, vtk_type = 3 * count, words[2]
        else:
            continue
        name = " ".join(words[:2]) if key in ("SCALARS", "VECTORS") else key
        dtype = np.dtype(VTK_TYPES[vtk_type])   # a short file gives a short array
        values = np.frombuffer(body, dtype, min(n, (len(body) - at) // dtype.itemsize), at)
        at += values.nbytes
        arrays[name] = values.astype(np.float64)
    return arrays


def array_difference(a: np.ndarray, b: np.ndarray) -> tuple[int, float]:
    """How many values of two arrays differ (-0.0 equals 0.0, nan equals
    nan) and their scale-relative difference, as ``scale_relative_difference``
    measures it."""
    differ = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    if not differ.any():
        return 0, 0.0
    finite = np.isfinite(a) & np.isfinite(b)
    worst = np.inf if (differ & ~finite).any() else float(np.abs(a - b)[differ].max())
    scale = float(np.abs(a[np.isfinite(a)]).max(initial=0.0))
    return int(differ.sum()), worst / scale if scale else np.inf


def vtk_differences(path_a: str, path_b: str) -> tuple[str, tuple[float, str]]:
    """Per array of two legacy binary VTK files, how many values differ and
    how far apart they are; and the largest of those figures with the name
    of its array."""
    try:
        arrays_a, arrays_b = read_vtk(path_a), read_vtk(path_b)
    except ValueError as exc:
        return str(exc), (math.inf, "")
    if arrays_a.keys() != arrays_b.keys():
        return f"arrays {sorted(arrays_a)} != {sorted(arrays_b)}", (math.inf, "")
    figures, differ, worst = [], 0, (0.0, "")
    for name, a in arrays_a.items():
        b = arrays_b[name]
        if a.shape != b.shape:
            figures.append(f"{name}: {a.size} != {b.size} values")
            differ, worst = differ + 1, max(worst, (math.inf, name), key=itemgetter(0))
            continue
        count, figure = array_difference(a, b)
        figures.append(f"{name}: {count} of {a.size} differ, {figure:.3g}")
        differ, worst = differ + bool(count), max(worst, (figure, name), key=itemgetter(0))
    verdict = "arrays equal" if not differ else f"{differ} of {len(figures)} arrays differ"
    return f"{verdict}\n        per array: {'; '.join(figures)}", worst


def describe_difference(path_a: str, path_b: str) -> tuple[str, tuple[float, str]]:
    """Whether two text files agree outside their numbers, how many of their
    numbers differ and, for a CSV file, how far apart each column is; for a
    VTK file, ``vtk_differences``.  Also the largest scale-relative figure
    and the column it comes from: over the columns of a CSV file, over all
    the numbers of another text file (no column name), and inf where the
    text outside the numbers differs."""
    if path_a.endswith(".vtk"):
        return vtk_differences(path_a, path_b)
    texts = []
    for path in (path_a, path_b):
        with open(path, errors="replace") as fh:
            texts.append(fh.read())
    nums_a, nums_b = (NUMBER.findall(t) for t in texts)
    same_text = NUMBER.sub("#", texts[0]) == NUMBER.sub("#", texts[1])
    text = "text same" if same_text else "text differs"
    if len(nums_a) != len(nums_b):
        return f"{text}, {len(nums_a)} != {len(nums_b)} numbers", (math.inf, "")
    differ = sum(map(bool, map(absolute_difference, nums_a, nums_b)))
    columns = column_differences(*texts) if differ and path_a.endswith(".csv") else {}
    if not same_text:
        worst = (math.inf, "")
    elif path_a.endswith(".csv"):
        worst = max(((figure, name) for name, figure in columns.items()),
                    default=(0.0, ""), key=itemgetter(0))
    else:
        worst = (scale_relative_difference(nums_a, nums_b), "")
    per_column = ", ".join(f"{name} {figure:.3g}" for name, figure in columns.items())
    return (f"{text}, {differ} of {len(nums_a)} numbers differ"
            + (f"\n        per column: {per_column}" if columns else "")), worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src_a")
    p.add_argument("src_b")
    p.add_argument("cfg", nargs="+")
    p.add_argument("--command", choices=("run", "stability", "convergence"), default="run")
    args = p.parse_args(argv)

    differed, worst = False, (0.0, "")
    with tempfile.TemporaryDirectory() as work:
        for i, cfg in enumerate(args.cfg):
            cfg = os.path.abspath(cfg)
            outs = [os.path.join(work, side, str(i)) for side in ("a", "b")]
            codes, peaks = zip(*(run_side(src, args.command, cfg, out)
                                 for src, out in zip((args.src_a, args.src_b), outs)))
            diffs = compare_dirs(*outs)
            if codes[0] != codes[1]:
                diffs.insert(0, f"exit status {codes[0]} != {codes[1]}")
            elif codes[0]:
                diffs.insert(0, f"both exited {codes[0]}")
            for what in diffs:
                print(f"DIFFERS {cfg}: {what}")
                pair = [os.path.join(out, what) for out in outs]
                if all(os.path.isfile(p) for p in pair):
                    description, (figure, part) = describe_difference(*pair)
                    print(f"        {description}")
                else:   # an exit status, or a file on one side only
                    figure, part = math.inf, ""
                worst = max(worst, (figure, f"{cfg}: {what} {part}".rstrip()),
                            key=itemgetter(0))
            if not diffs:
                n = len(os.listdir(outs[0])) if os.path.isdir(outs[0]) else 0
                print(f"same    {cfg}: {n} files, peak RSS {peaks[0]:.1f} -> {peaks[1]:.1f} MB")
            differed = differed or bool(diffs)
    figure, where = worst
    print(f"largest scale-relative difference: {figure:.3g}"
          + (f" ({where})" if where else ""))
    return 1 if differed else 0


if __name__ == "__main__":
    sys.exit(main())
