"""End-to-end and per-layer benchmark of ``repro.Service`` (see README.md)."""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def out_dir() -> pathlib.Path:
    """Where runs leave their result and trace files (git-ignored)."""
    path = ROOT / "perfbench" / "out"
    path.mkdir(parents=True, exist_ok=True)
    return path
