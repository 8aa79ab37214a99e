"""Starts the benchmark's command lines from a small process.

A child's peak resident memory (ru_maxrss) includes the memory of the
process it was started from, since Linux keeps the larger of the old
and new high-water marks across exec.  The benchmark process holds
numpy and the parsed outputs, so the CLI workloads start their
processes from this one, which imports nothing beyond the standard
library and stays small.

Protocol: one JSON request per line on stdin,
{"argv", "cwd", "env", "stdout", "stderr", "timeout"}; one JSON reply
per line on stdout, {"code", "maxrss_kb"}.  The child's
output goes to the two named files.  The loop ends when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdout=out, stderr=err)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {"code": code, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
