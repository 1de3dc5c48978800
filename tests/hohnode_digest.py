#!/usr/bin/env python3
"""Multi-process wire-path check for tools/hohnode.

Starts one `hohnode rm` on an ephemeral port, reads the bound port from
its stderr, then starts two agents and one submitter against it. Passes
when the rm prints the expected unit count and run digest within the
time limit; on any failure every child process is killed.

usage: hohnode_digest.py <path-to-hohnode>
"""

import re
import select
import subprocess
import sys
import time

EXPECTED = "hohnode: 60 units, digest 12e97a5b50615aeb"
TIMEOUT_S = 30.0


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    hohnode = sys.argv[1]
    deadline = time.monotonic() + TIMEOUT_S
    children = []
    try:
        rm = subprocess.Popen(
            [hohnode, "rm", "--port", "0", "--agents", "2",
             "--submitters", "1", "--units", "50"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        children.append(rm)
        ready, _, _ = select.select([rm.stderr], [], [], TIMEOUT_S)
        banner = rm.stderr.readline() if ready else ""
        match = re.search(r"listening on [^:\s]+:(\d+)", banner)
        if not match:
            print(f"FAIL: no listening banner from rm: {banner!r}")
            return 1
        target = f"127.0.0.1:{match.group(1)}"
        for name in ("a0", "a1"):
            children.append(subprocess.Popen(
                [hohnode, "agent", "--connect", target, "--name", name,
                 "--cores", "4"],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
        children.append(subprocess.Popen(
            [hohnode, "submit", "--connect", target, "--name", "s0",
             "--units", "10"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
        try:
            out, err = rm.communicate(
                timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"FAIL: rm did not finish within {TIMEOUT_S:.0f} s")
            return 1
        print(out, end="")
        if rm.returncode != 0 or EXPECTED not in out:
            print(f"FAIL: rm exit {rm.returncode}, expected {EXPECTED!r}")
            print(err, end="", file=sys.stderr)
            return 1
        for child in children[1:]:
            child.wait(timeout=max(0.1, deadline - time.monotonic()))
            if child.returncode != 0:
                print(f"FAIL: {child.args[1]} exited {child.returncode}")
                return 1
        print("PASS")
        return 0
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()


if __name__ == "__main__":
    sys.exit(main())
