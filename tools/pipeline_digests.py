"""Digest every artifact of the seed-42 README pipeline.

Usage, from the root of a checkout:

    python3 tools/pipeline_digests.py --out /tmp/digests > after.txt

Runs synth (60 ARs x 14 samples), train with the README desk flags,
evaluate, explain-global with gradient (B=100, K=16), exact (B=10) and
kernel (B=10, 2048 coalitions), explain-local for window 0 and correlate,
each command in-process through ``stormlens.cli.main`` with its own
directory under ``--out``, which must be empty or absent. The commands run
in ``--out`` and name every file relative to it, so the run manifests,
which record paths, do not depend on where ``--out`` is. Then it prints
``sha256  path`` for every file under ``--out``, manifests included, with
paths relative to it.

A change meant to keep every artifact's bytes is checked by running this at
the parent commit and at the change and comparing the two listings. ``--src``
imports the package from another source tree, e.g. the ``src`` of a second
checkout at the parent commit. ``--against FILE`` does the comparison: it
prints, in place of the listing, the paths whose digests differ from those
in FILE, a saved listing, or that only one of the two has, and exits 1 if
there are any:

    python3 tools/pipeline_digests.py --out /tmp/a --src ../parent/src > before.txt
    python3 tools/pipeline_digests.py --out /tmp/b --against before.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys

# One BLAS thread, as in the benchmark, before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DESK_FLAGS = ["--window", "10", "--hidden", "16", "--epochs", "40", "--batch", "64",
              "--lr", "3e-3", "--seed", "42"]


def pipeline() -> list[list[str]]:
    """The CLI commands of the pipeline, in order, with paths relative to
    the directory they run in."""
    data = os.path.join("synth", "data.csv")
    checkpoint = os.path.join("train", "model.json")
    inputs = ["--data", data, "--model", checkpoint, "--seed", "42"]
    explain = [
        ("gradient", ["--method", "gradient", "--background", "100", "--n-steps", "16"]),
        ("exact", ["--method", "exact", "--background", "10"]),
        ("kernel", ["--method", "kernel", "--background", "10", "--n-coalitions", "2048"]),
    ]
    return [
        ["synth", "--out", "synth", "--n-ars", "60", "--samples-per-ar", "14", "--seed", "42"],
        ["train", "--data", data, "--out", "train", *DESK_FLAGS],
        ["evaluate", "--data", data, "--model", checkpoint, "--out", "evaluate"],
        *(["explain-global", *inputs, "--out", f"explain-{name}", *flags]
          for name, flags in explain),
        ["explain-local", *inputs, "--out", "local", "--sample-id", "0"],
        ["correlate", *inputs, "--out", "correlate", "--method", "gradient"],
    ]


def digests(out: str) -> list[str]:
    """``sha256  path`` lines for every file under ``out``, sorted by path."""
    lines = []
    for folder, _, files in os.walk(out):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append((os.path.relpath(path, out), digest))
    return [f"{digest}  {path}" for path, digest in sorted(lines)]


def differing(listing: list[str], saved: list[str]) -> list[str]:
    """The paths whose digests differ between two listings, or that only one
    of them has, sorted."""
    def by_path(lines: list[str]) -> dict[str, str]:
        return {path: digest for digest, path in (line.split("  ", 1) for line in lines if line)}

    new, old = by_path(listing), by_path(saved)
    return sorted(path for path in new.keys() | old.keys() if new.get(path) != old.get(path))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="empty or absent output directory")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source tree to import stormlens from (default: this checkout's)")
    parser.add_argument("--against", metavar="FILE",
                        help="a saved listing: print the paths that differ from it instead")
    args = parser.parse_args(argv)
    saved = None
    if args.against is not None:
        try:
            with open(args.against, encoding="utf-8") as fh:
                saved = fh.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read {args.against}: {exc}", file=sys.stderr)
            return 2
    out = os.path.abspath(args.out)
    if os.path.exists(out) and os.listdir(out):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(args.src))
    from stormlens import cli

    cwd = os.getcwd()
    os.makedirs(out, exist_ok=True)
    os.chdir(out)  # contextlib.chdir needs Python 3.11
    try:
        for argv_ in pipeline():
            # the commands' own output goes to stderr; stdout carries only digests
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli.main(argv_)
            if rc != 0:
                print(f"error: `stormlens {' '.join(argv_)}` exited {rc}", file=sys.stderr)
                return 1
    finally:
        os.chdir(cwd)
    listing = digests(out)
    if saved is None:
        print("\n".join(listing))
        return 0
    changed = differing(listing, saved)
    for path in changed:
        print(path)
    print(f"{len(changed)} of {len(listing)} paths differ from {args.against}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
