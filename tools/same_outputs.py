"""Byte-identity check of the command's outputs against another revision.

    python3 tools/same_outputs.py REV

Runs every distinct argument vector of the benchmark's call lists (the
three workloads of ``bench/workloads.py``, seeds 1-3) as
``python -m qes_sextic ...`` twice: once with ``src/`` of this working
tree and once with ``src/`` of revision REV, which ``git archive``
extracts into a temporary directory (no ref or working file changes).
Prints each call whose stdout, stderr or exit code differs and exits 1
if any does, 0 if all are identical.  Standard library only.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import shlex
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)

sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS, calls  # noqa: E402


def distinct_argvs() -> list[tuple[str, ...]]:
    """Every distinct argv of the workloads' call lists, in first-seen order."""
    return list(dict.fromkeys(
        call.argv for workload in WORKLOADS for seed in SEEDS
        for call in calls(workload, seed)))


def extract_src(rev: str, dest: Path) -> Path:
    """Extract ``src/`` of ``rev`` under ``dest``; return the new src dir."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def run(src: Path, cwd: str, argv: tuple[str, ...]) -> tuple[int, bytes, bytes]:
    # cwd holds no package, so qes_sextic can only come from src
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "qes_sextic", *argv], cwd=cwd,
                          capture_output=True, stdin=subprocess.DEVNULL, env=env)
    return done.returncode, done.stdout, done.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    args = parser.parse_args(argv)

    argvs = distinct_argvs()
    with tempfile.TemporaryDirectory() as tmp, \
            ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        theirs, ours = (
            list(pool.map(functools.partial(run, src, tmp), argvs))
            for src in (extract_src(args.rev, Path(tmp)), ROOT / "src"))

    differ = 0
    for a, x, y in zip(argvs, theirs, ours):
        parts = [name for name, p, q in zip(("exit code", "stdout", "stderr"), x, y)
                 if p != q]
        if parts:
            differ += 1
            print(f"differs ({', '.join(parts)}): qes-sextic {shlex.join(a)}")
    print(f"{len(argvs) - differ} of {len(argvs)} distinct calls identical "
          f"to {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
