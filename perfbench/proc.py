"""Child-process handling, read from outside the program via ``/proc``.

Set-up time is the wall time from launch to the child's ready line on
standard output (the gateway's ``listening`` line, the simulator
launcher's ``ready`` line).  Peak memory is ``VmHWM`` and CPU time is
user + system ticks from ``/proc/<pid>/stat``, all sampled while the
child is still alive.
"""

from __future__ import annotations

import os
import queue
import subprocess
import threading
import time
from typing import List, Optional, Tuple

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


class Failure(Exception):
    """A correctness or accounting mismatch; the run reports no metrics."""


class Child:
    """One child process with a line-oriented stdout pump."""

    def __init__(self, argv: List[str], root: str) -> None:
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + root)
        env.pop("PYTHONSTARTUP", None)
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(
            argv,
            cwd=root,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._lines: "queue.Queue[Optional[Tuple[str, float]]]" = queue.Queue()
        self._stderr: List[str] = []
        self._threads = [
            threading.Thread(target=self._pump, daemon=True),
            threading.Thread(target=self._pump_stderr, daemon=True),
        ]
        for thread in self._threads:
            thread.start()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put((line.rstrip("\n"), time.monotonic()))
        self._lines.put(None)

    def _pump_stderr(self) -> None:
        for line in self.proc.stderr:
            self._stderr.append(line)

    def stderr_tail(self) -> str:
        return "".join(self._stderr[-20:])

    def next_line(self, timeout: float) -> str:
        """The next stdout line; its arrival time lands in ``self.last_at``."""
        try:
            item = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError(f"child {self.pid} silent for {timeout:.0f}s") from None
        if item is None:
            self.proc.wait(timeout=10)
            raise RuntimeError(
                f"child {self.pid} exited ({self.proc.returncode}) early:\n"
                + self.stderr_tail()
            )
        line, self.last_at = item
        return line

    def wait_for(self, prefix: str, timeout: float) -> str:
        while True:
            line = self.next_line(timeout)
            if line.startswith(prefix):
                return line

    def cpu_s(self) -> float:
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) * _TICK_S

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def finish(self, timeout: float = 20.0) -> List[str]:
        """Wait for exit (killing on overrun); returns remaining stdout."""
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        for thread in self._threads:
            thread.join(timeout=5)
        rest = []
        while True:
            try:
                item = self._lines.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                rest.append(item[0])
        return rest

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.finish(timeout=10)


def host_steal_s() -> float:
    """CPU time the hypervisor ran other guests on this machine's CPUs.

    The ``steal`` column of ``/proc/stat`` (0 on bare metal).  Windows in
    which it grows fast measured the neighbours as much as the program.
    """
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) * _TICK_S if len(fields) > 8 else 0.0
