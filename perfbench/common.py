"""Paths, child processes and the per-run context shared by workloads."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: A child that takes longer than this is broken, not slow.
CHILD_TIMEOUT_S = 150.0


@dataclass
class Context:
    """One benchmark run: its arguments and scratch directory."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    #: Human-readable lines printed before the result object.
    notes: List[str] = field(default_factory=list)

    def note(self, text: str) -> None:
        self.notes.append(text)


@dataclass
class Outcome:
    """What a workload measured, before it is printed."""

    attempted: int = 0
    failed: int = 0
    #: First few failure descriptions, printed for whoever reads the log.
    errors: List[str] = field(default_factory=list)
    #: End-to-end metric name -> value (units are fixed in run.py).
    e2e: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metric name -> value, filled by traced runs only.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Spans recorded in a traced run, written out when the run ends.
    spans: List[Any] = field(default_factory=list)


def child_env(cache_dir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["REPRO_ENGINE_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_KERNEL_TABLES", None)
    return env


def run_child(role: str, payload: Dict[str, Any], cache_dir: Path) -> Dict[str, Any]:
    """Run ``child.py <role>`` in a fresh interpreter; returns its result.

    ``setup_s`` in the result is the time from spawning the interpreter
    until the child finished its imports (CLOCK_MONOTONIC is shared by
    every process on the machine).
    """
    spawned = time.monotonic()
    proc = subprocess.run(  # noqa: S603 - fixed argv
        [sys.executable, str(HERE / "child.py"), role, json.dumps(payload)],
        cwd=str(ROOT),
        env=child_env(cache_dir),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"child {role} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("ready") - spawned
    return result


def ready_stamp() -> float:
    """What a child reports as the end of its set-up."""
    return time.monotonic()


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
