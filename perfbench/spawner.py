"""Runs the benchmark's child processes and reports, for each, its wall
time, exit code, output and peak resident size.

On Linux a child's ``ru_maxrss`` also counts the resident size of the
process it was forked from. Children forked from the benchmark would report
the benchmark's heap; forked from this small process, they report their
own. Protocol: one JSON list of interpreter arguments per line on stdin,
one JSON object per line on stdout. The only argument is the file that
collects each child's stderr.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 60.0


def run(args: list[str], err_path: str) -> dict:
    with open(err_path, "wb") as err_file:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                                stderr=err_file)
        killer = threading.Timer(TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            # wait4 rather than Popen.wait: it also returns this child's rusage
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            proc.stdout.close()
    with open(err_path, "rb") as fh:
        err = fh.read()[-2000:] if proc.returncode else b""
    return {"elapsed": elapsed, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss,
            "out": out.decode("utf-8", "surrogateescape"),
            "err": err.decode("utf-8", "replace")}


def main() -> None:
    err_path = sys.argv[1]
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line), err_path)), flush=True)


if __name__ == "__main__":
    main()
