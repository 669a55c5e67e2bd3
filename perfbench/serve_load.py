"""Drive a ``repro serve --listen`` cluster from one client process.

The load generator holds one TCP connection and at most two threads:
the caller's thread sends, a reader thread receives.  Requests are
pipelined and matched to replies by the wire ``id``, so any number can
be outstanding on the one connection.

Two loops:

- :meth:`Client.closed_loop` keeps a fixed window of requests
  outstanding and counts completions per second (``serve_peak_rps``).
- :meth:`Client.open_loop` sends each request at its due time on a
  fixed schedule, whatever the replies do, and records when each reply
  arrived; latency is later taken from the due time.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.serve import wire
from repro.serve.protocol import Advisory, ShapeQuery

_LISTEN = re.compile(r"cluster: listening on ([0-9.]+):(\d+)")

#: Bound on waiting for the cluster to come up or drain.
_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 30.0


@dataclass
class Phase:
    """Replies of one phase, indexed like the queries sent in it."""

    queries: Sequence[ShapeQuery]
    sent: List[Optional[float]] = field(default_factory=list)
    done: List[Optional[float]] = field(default_factory=list)
    replies: List[Optional[Dict[str, Any]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = len(self.queries)
        self.sent = [None] * n
        self.done = [None] * n
        self.replies = [None] * n

    def advisories(self) -> List[Tuple[int, Optional[Advisory]]]:
        """(index, decoded advisory or None) for every sent request."""
        out = []
        for i, msg in enumerate(self.replies):
            if self.sent[i] is None:
                continue
            body = msg.get("advisory") if msg is not None else None
            out.append((i, Advisory.from_dict(body) if body else None))
        return out


class Client:
    """One pipelined TCP connection to the cluster front-end."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=_START_TIMEOUT_S)
        self.sock.settimeout(None)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self.sock.makefile("rb")
        self._next_id = 1
        self._lock = threading.Lock()
        # id -> (phase, index); control ops map to (None, id).
        self._slots: Dict[int, Tuple[Optional[Phase], int]] = {}
        self._control: Dict[int, Dict[str, Any]] = {}
        self._cond = threading.Condition(self._lock)
        self._window: Optional[threading.Semaphore] = None
        self._outstanding = 0
        self._reader = threading.Thread(target=self._read_loop, name="perfbench-reader")
        self._reader.start()

    # -- plumbing -----------------------------------------------------------

    def _read_loop(self) -> None:
        try:
            for raw in self._rfile:
                now = time.perf_counter()
                msg = wire.decode_line(raw)
                with self._lock:
                    slot = self._slots.pop(msg.get("id"), None)
                    if slot is None:
                        continue
                    phase, index = slot
                    if phase is None:
                        self._control[index] = msg
                        self._cond.notify_all()
                        continue
                    phase.done[index] = now
                    phase.replies[index] = msg
                    self._outstanding -= 1
                    if self._outstanding == 0:
                        self._cond.notify_all()
                window = self._window
                if window is not None:
                    window.release()
        except (OSError, ValueError):
            pass  # connection closed under us; waits below time out
        finally:
            with self._lock:
                self._cond.notify_all()

    def _send(self, phase: Phase, index: int) -> None:
        with self._lock:
            rid = self._next_id
            self._next_id += 1
            self._slots[rid] = (phase, index)
            self._outstanding += 1
        phase.sent[index] = time.perf_counter()
        line = wire.query_message(phase.queries[index].to_dict(), rid)
        self.sock.sendall(line.encode())

    def rpc(self, op: str, timeout_s: float = 30.0) -> Dict[str, Any]:
        """A control round-trip (``ping`` / ``stats``) on the same connection."""
        with self._lock:
            rid = self._next_id
            self._next_id += 1
            self._slots[rid] = (None, rid)
        self.sock.sendall(wire.encode_message(op, id=rid).encode())
        deadline = time.monotonic() + timeout_s
        with self._lock:
            while rid not in self._control:
                left = deadline - time.monotonic()
                if left <= 0 or not self._reader.is_alive():
                    raise TimeoutError(f"no reply to {op} within {timeout_s}s")
                self._cond.wait(left)
            return self._control.pop(rid)

    def drain(self, timeout_s: float = 60.0) -> bool:
        """Wait until every data request sent so far has its reply."""
        deadline = time.monotonic() + timeout_s
        with self._lock:
            while self._outstanding > 0:
                left = deadline - time.monotonic()
                if left <= 0 or not self._reader.is_alive():
                    return False
                self._cond.wait(left)
        return True

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._reader.join(_STOP_TIMEOUT_S)

    # -- loops --------------------------------------------------------------

    def closed_loop(
        self, queries: Sequence[ShapeQuery], window: int,
        seconds: Optional[float] = None,
    ) -> Tuple[Phase, float, float]:
        """Keep ``window`` requests outstanding, for ``seconds`` if given.

        Returns the phase and the (start, end) of the measured window in
        perf_counter seconds.  Requests still outstanding when time is
        up are drained but fall outside the window.
        """
        phase = Phase(queries)
        sem = threading.Semaphore(window)
        self._window = sem
        start = time.perf_counter()
        end = start + seconds if seconds is not None else None
        try:
            for i in range(len(queries)):
                left = None if end is None else max(0.0, end - time.perf_counter())
                if not sem.acquire(timeout=left):
                    break
                if end is not None and time.perf_counter() >= end:
                    break
                self._send(phase, i)
        finally:
            self.drain()
            self._window = None
        if end is None or all(t is not None for t in phase.sent):
            # Ran out of queries: the window closes at the last reply.
            end = max((t for t in phase.done if t is not None), default=start)
        return phase, start, end

    def request(self, query: ShapeQuery) -> Advisory:
        """One blocking round-trip."""
        phase = Phase([query])
        self._send(phase, 0)
        self.drain()
        advisory = phase.advisories()[0][1]
        if advisory is None:
            raise RuntimeError("connection closed before the reply")
        return advisory

    def open_loop(
        self, queries: Sequence[ShapeQuery], rate: float
    ) -> Tuple[Phase, List[float]]:
        """Send query ``i`` at ``start + i / rate``; returns due times."""
        phase = Phase(queries)
        start = time.perf_counter() + 0.01
        due = [start + i / rate for i in range(len(queries))]
        for i in range(len(queries)):
            wait = due[i] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            self._send(phase, i)
        self.drain()
        return phase, due


class Cluster:
    """A fresh ``repro serve --listen`` front-end with its workers."""

    def __init__(self, root: Path, work: Path, workers: int = 2) -> None:
        self.log_path = work / f"cluster-{os.getpid()}-{time.monotonic_ns()}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        # Shipping defaults: no disk store, no tuned tables.
        env.pop("REPRO_ENGINE_CACHE_DIR", None)
        env.pop("REPRO_KERNEL_TABLES", None)
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(  # noqa: S603 - fixed argv
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--listen", "127.0.0.1:0", "--workers", str(workers),
            ],
            cwd=str(root),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        self.workers = workers
        self.worker_pids: List[int] = []
        self.port = 0

    def wait_listening(self) -> int:
        deadline = time.monotonic() + _START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _LISTEN.search(self.log_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(2))
                return self.port
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(
            "cluster did not start listening:\n"
            + self.log_path.read_text(errors="replace")[-2000:]
        )

    def wait_workers(self, client: Client) -> None:
        """Block until every worker answers, via the front-end's ping."""
        deadline = time.monotonic() + _START_TIMEOUT_S
        while time.monotonic() < deadline:
            if client.rpc("ping").get("live") == self.workers:
                self.worker_pids = _children(self.proc.pid)
                return
            time.sleep(0.01)
        raise RuntimeError("cluster workers did not come up")

    def peak_rss_mb(self) -> float:
        """Peak resident set summed over the front-end and its workers."""
        return sum(_vm_hwm_kb(pid) for pid in [self.proc.pid, *self.worker_pids]) / 1024.0

    def stop(self) -> None:
        """Drain the front-end, then make sure every worker has exited."""
        if self.proc.poll() is None:
            if not self.worker_pids:
                self.worker_pids = _children(self.proc.pid)
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(_STOP_TIMEOUT_S)
        deadline = time.monotonic() + _STOP_TIMEOUT_S
        for pid in self.worker_pids:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
                while _alive(pid) and time.monotonic() < deadline + _STOP_TIMEOUT_S:
                    time.sleep(0.01)
        self._log.close()


def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        for task in Path(f"/proc/{pid}/task").iterdir():
            out.extend(int(p) for p in (task / "children").read_text().split())
    except OSError:
        pass  # the process or one of its threads exited meanwhile
    return sorted(out)


def _vm_hwm_kb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().split()[2]
    except OSError:
        return False
    return state != "Z"
