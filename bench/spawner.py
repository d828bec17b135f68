"""Starts the benchmark's CLI processes on behalf of ``run.py``.

A child's maximum resident set size, as ``wait4`` reports it, includes the
peak memory of the process that forked it. ``run.py`` holds documents and
oracle tables, so it starts this small process before it loads anything and
lets it fork the children; their reported peak is then their own.

Protocol, one JSON object per line: a request ``{"argv", "cwd", "env",
"stdout", "stderr"}`` on standard input is answered by ``{"pid"}`` as soon
as the child runs and by ``{"status", "maxrss_kib"}`` when it has exited.
The process ends when its standard input closes.
"""

import json
import os
import subprocess
import sys


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"], stdout=out,
                                    stderr=err, stdin=subprocess.DEVNULL)
            print(json.dumps({"pid": proc.pid}), flush=True)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"status": proc.returncode, "maxrss_kib": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
