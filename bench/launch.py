"""Spawn and time one child process at a time from a lean helper process.

On Linux a child's ``ru_maxrss`` is at least the peak RSS of the process
that forked it: the high-water mark of the forked copy survives ``exec``.
The benchmark process builds large meshes and reads the runs' outputs, so
children spawned from it would report its peak, not their own.  ``Launcher``
starts this file as a separate process before the benchmark grows (it
imports only the standard library, about 15 MB) and has it spawn every
timed child, so that each child's peak RSS is its own.

Protocol: one JSON request per line on stdin, ``{"argv", "cwd", "env",
"log", "timeout"}``; one JSON reply per line on stdout, ``[exit code, wall
s, cpu s, peak RSS MB]``.  The helper exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run_child(argv: list[str], cwd: str, env: dict, log_path: str,
              timeout_s: float) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, wall s, cpu s, peak RSS MB).

    The resource usage is that of this child alone (``os.wait4`` on its
    pid), not the running maximum over all children.  A child still running
    after ``timeout_s`` is killed.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=log)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss * 1024 / 1e6)


class Launcher:
    """Client side: the helper process and one request at a time."""

    def __init__(self):
        # its own process group, so that close() can end a running child too
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)

    def run(self, argv: list[str], cwd: str, env: dict, log_path: str,
            timeout_s: float) -> tuple[int, float, float, float]:
        request = {"argv": argv, "cwd": cwd, "env": env, "log": log_path, "timeout": timeout_s}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with status {self.proc.wait()}")
        code, wall, cpu, rss = json.loads(reply)
        return code, wall, cpu, rss

    def close(self, kill: bool = False) -> None:
        """Stop the helper; with ``kill``, end a child it is running as well."""
        if kill:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        self.close(kill=exc_type is not None)


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        result = run_child(req["argv"], req["cwd"], req["env"], req["log"], req["timeout"])
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
