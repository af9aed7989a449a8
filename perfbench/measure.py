"""Statistics and run-context helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
from pathlib import Path
from typing import Dict, Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_supported(count: int, percent: int) -> bool:
    """True when at least ten of ``count`` samples lie beyond the ``percent``-th percentile."""
    return count * (100 - percent) >= 10 * 100


def median(values: Sequence[float]) -> float:
    """The median of ``values``."""
    return statistics.median(values)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def tree_bytes(path: Path) -> int:
    """Total bytes of the regular files under ``path``."""
    return sum(
        entry.stat().st_size for entry in Path(path).rglob("*") if entry.is_file()
    )


def run_context(root: Path, workload: str, seed: int) -> Dict[str, object]:
    """Host fingerprint, code identity and seed recorded beside the numbers."""
    sources = sorted((root / "src").rglob("*.py"))
    digest = hashlib.blake2b(digest_size=8)
    lines = 0
    for source in sources:
        data = source.read_bytes()
        digest.update(str(source.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "src_digest": digest.hexdigest(),
        "src_py_lines": lines,
    }


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        completed = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() or "unknown"


def child_env(root: Path) -> Dict[str, str]:
    """Environment for program subprocesses: ``src`` importable, no lock watcher."""
    env = {key: value for key, value in os.environ.items() if key != "REPRO_LOCKWATCH"}
    env["PYTHONPATH"] = str(root / "src")
    return env
