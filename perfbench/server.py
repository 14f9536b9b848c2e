"""Start and stop a ``python -m repro serve`` subprocess, and read its
CPU time and peak memory from ``/proc``."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from typing import List, Optional

from repro.server import protocol

import inputs
from wire import Conn

_BANNER = re.compile(r"^serving .* on ([0-9.]+):(\d+)$", re.M)
_TICK = os.sysconf("SC_CLK_TCK")


class Server:
    """A served table.  :attr:`setup_s` is the time from spawning the
    process to the first OK answer to a one-key lookup."""

    def __init__(self, args: List[str], workdir: str) -> None:
        self.log_path = os.path.join(workdir, "serve.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(inputs.root_dir(), "src")
        self._log = open(self.log_path, "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            stdout=self._log, stderr=subprocess.STDOUT, env=env,
            cwd=workdir,
        )
        try:
            self.host, self.port = self._wait_banner(timeout=150.0)
            probe = Conn(self.host, self.port)
            try:
                response = probe.call(protocol.OP_LOOKUP4, keys=[0x08080808])
            finally:
                probe.close()
            if not response.ok:
                raise RuntimeError(f"first lookup failed: {response.text}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_banner(self, timeout: float):
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serve exited with {self.proc.returncode}: {self.log()}"
                )
            match = _BANNER.search(self.log())
            if match:
                return match.group(1), int(match.group(2))
            time.sleep(0.01)
        raise TimeoutError("serve printed no banner")

    def log(self) -> str:
        with open(self.log_path) as f:
            return f.read()

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICK

    def peak_rss_mib(self) -> float:
        return peak_rss_mib(self.proc.pid)

    def stats(self, conn: Conn) -> dict:
        return json.loads(conn.call(protocol.OP_STATS).text)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def peak_rss_mib(pid: Optional[int] = None) -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB."""
    with open(f"/proc/{pid or 'self'}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")
