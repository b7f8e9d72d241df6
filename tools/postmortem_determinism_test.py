#!/usr/bin/env python3
"""Flight-record determinism gate (DESIGN.md §5i).

Runs the scripted-failure chaos plan twice from the same seed and asserts the
whole forensics pipeline is a pure function of that seed:

  1. both runs exit 0 (the plan MUST fail by design; elan_chaos returns 0
     only when the failure reproduces),
  2. the two flight records are byte-identical (sim-clock timestamps + the
     causal sequence leave no room for wall-clock jitter),
  3. `elan_postmortem` renders byte-identical merged timelines for both,
  4. the rendered timeline actually tells the story: the partitioned AM and
     the wedged workers both appear, and the final-round diff names the
     round as wedged.

Usage: postmortem_determinism_test.py <elan_chaos> <elan_postmortem>
"""
import os
import subprocess
import sys
import tempfile

RECORD_NAME = "run.seed57005.flt"  # scripted plan seed 0xdead == 57005


def run(argv, cwd):
    proc = subprocess.run(
        argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT
    )
    return proc.returncode, proc.stdout


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: postmortem_determinism_test.py <elan_chaos> <elan_postmortem>")
    chaos = os.path.abspath(sys.argv[1])
    postmortem = os.path.abspath(sys.argv[2])

    with tempfile.TemporaryDirectory(prefix="elan_pm_det.") as tmp:
        renders = []
        records = []
        for name in ("a", "b"):
            rundir = os.path.join(tmp, name)
            os.mkdir(rundir)
            code, out = run(
                [chaos, "--scripted-failure", "--flight=run", "--log-level=off"],
                cwd=rundir,
            )
            if code != 0:
                sys.exit(
                    f"FAIL: scripted-failure run {name} exited {code} "
                    f"(expected 0 = failure reproduced):\n{out.decode(errors='replace')}"
                )
            record = os.path.join(rundir, RECORD_NAME)
            if not os.path.exists(record):
                sys.exit(f"FAIL: run {name} wrote no flight record at {record}")
            with open(record, "rb") as f:
                records.append(f.read())

            # Same relative argv + cwd both times, so the rendered header
            # (which echoes the path) cannot differ for trivial reasons.
            code, render = run([postmortem, RECORD_NAME], cwd=rundir)
            if code != 0:
                sys.exit(
                    f"FAIL: elan_postmortem exited {code} on run {name}:\n"
                    f"{render.decode(errors='replace')}"
                )
            renders.append(render)

        if records[0] != records[1]:
            sys.exit(
                f"FAIL: flight records differ between identical seeded runs "
                f"({len(records[0])} vs {len(records[1])} bytes)"
            )
        if renders[0] != renders[1]:
            sys.exit("FAIL: elan_postmortem output differs between identical records")

        text = renders[0].decode(errors="replace")
        for needle, why in [
            ("am/", "the partitioned AM never appears in the timeline"),
            ("w0/", "the wedged workers never appear in the timeline"),
            # The arm-time fault.armed event wraps out of the ring long
            # before the wedge; the partition shows up as the drop storm.
            ("reason=fault", "the injected partition's drops are missing"),
            ("round wedged", "the final-round diff did not flag the wedge"),
        ]:
            if needle not in text:
                sys.exit(f"FAIL: {why} (no {needle!r} in rendered postmortem)")

        print(
            f"OK: records byte-identical ({len(records[0])} bytes), "
            f"renders byte-identical ({len(renders[0])} bytes), wedge narrated"
        )


if __name__ == "__main__":
    main()
