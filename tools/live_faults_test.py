#!/usr/bin/env python3
"""Process-level fault-tolerance gate for the live socket backend (DESIGN.md §5j).

Drives `elan_launch --kill-one` against a real multi-process job on localhost:
the launcher brings up an AM plus N workers over unix-domain sockets, SIGKILLs
one worker mid-round, tells the AM to evict it (remove_failed), waits for the
membership to shrink, then re-admits a replacement through the ordinary joiner
path and waits for steady state at the original size.

The launcher prints one marker per choreography step; this test asserts the
full sequence appears and the run exits 0. If the sandbox forbids AF_UNIX
sockets, elan_launch exits 77 and we propagate it (ctest SKIP_RETURN_CODE).

On failure the launcher leaves the socket/log directory behind; we dump the
per-process logs and render the flight records (each child's ELAN_FLIGHT,
<dir>/flight-<name>.bin, written at exit or on a crash) through
elan_postmortem so the ctest output alone is enough to debug.

Usage: live_faults_test.py <elan_launch> [<elan_postmortem>]
"""
import glob
import os
import subprocess
import sys
import tempfile

SKIP = 77
WORKERS = 3
TIMEOUT = 180  # seconds; generous — the whole round takes ~5s unloaded

REQUIRED_MARKERS = [
    f"STEADY workers={WORKERS}",       # initial 3-process steady state
    f"KILLED worker={WORKERS - 1}",    # SIGKILL of the highest-id worker
    f"REMOVED worker={WORKERS - 1}",   # AM evicted it (remove_failed)
    f"SCALED workers={WORKERS}",       # replacement admitted via joiner path
    f"READMITTED workers={WORKERS}",
    "OK",
]


def dump_artifacts(dirpath, postmortem):
    for log in sorted(glob.glob(os.path.join(dirpath, "*.log"))):
        print(f"--- {os.path.basename(log)} (last 40 lines) ---")
        with open(log, errors="replace") as f:
            sys.stdout.writelines(f.readlines()[-40:])
    if not postmortem:
        return
    for record in sorted(glob.glob(os.path.join(dirpath, "flight-*.bin"))):
        print(f"--- elan_postmortem {os.path.basename(record)} ---")
        proc = subprocess.run(
            [postmortem, record], stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        sys.stdout.write(proc.stdout.decode(errors="replace"))


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit("usage: live_faults_test.py <elan_launch> [<elan_postmortem>]")
    launch = os.path.abspath(sys.argv[1])
    postmortem = os.path.abspath(sys.argv[2]) if len(sys.argv) == 3 else None

    with tempfile.TemporaryDirectory(prefix="elan_faults.") as tmp:
        rundir = os.path.join(tmp, "job")  # launcher mkdirs + cleans on success
        try:
            proc = subprocess.run(
                [
                    launch,
                    f"--dir={rundir}",
                    f"--workers={WORKERS}",
                    "--kill-one=true",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired as e:
            out = (e.stdout or b"").decode(errors="replace")
            print(out)
            dump_artifacts(rundir, postmortem)
            sys.exit(f"FAIL: elan_launch hung past {TIMEOUT}s")

        out = proc.stdout.decode(errors="replace")
        if proc.returncode == SKIP:
            print("SKIP: AF_UNIX sockets unavailable in this sandbox")
            sys.exit(SKIP)
        if proc.returncode != 0:
            print(out)
            dump_artifacts(rundir, postmortem)
            sys.exit(f"FAIL: elan_launch exited {proc.returncode}")

        cursor = 0  # markers must appear in choreography order
        for marker in REQUIRED_MARKERS:
            found = out.find(marker, cursor)
            if found < 0:
                print(out)
                sys.exit(
                    f"FAIL: marker {marker!r} missing (or out of order) "
                    f"in launcher output"
                )
            cursor = found + len(marker)

        print(f"OK: kill/evict/re-admit round completed with {WORKERS} workers")


if __name__ == "__main__":
    main()
