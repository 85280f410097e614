"""Start processes from a process that stays small, and reap them.

On Linux a process inherits, in the peak RSS that os.wait4 reports, the
peak of the process it was started from (exec keeps the larger of the
two). CLI calls are therefore started by this spawner, which a workload
process launches before it imports anything large.

Protocol: one JSON request per stdin line, {"argv", "cwd", "timeout"};
one JSON reply per stdout line, {"code", "maxrss_kb", "stderr"}.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading


def reap(proc: subprocess.Popen):
    """Wait for a child with os.wait4 and return its resource usage."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


class Spawner:
    """Client side: runs commands through a spawner process."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list, cwd, timeout: float = 120.0) -> dict:
        request = {"argv": [str(a) for a in argv], "cwd": str(cwd), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        reap(self.proc)
        self.proc.stdout.close()


def _serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        proc = subprocess.Popen(
            req["argv"], cwd=req["cwd"], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        )
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            err = proc.stderr.read()
        finally:
            timer.cancel()
            usage = reap(proc)
            proc.stderr.close()
        reply = {
            "code": proc.returncode,
            "maxrss_kb": usage.ru_maxrss,
            "stderr": err.decode(errors="replace")[-2000:],
        }
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    _serve()
