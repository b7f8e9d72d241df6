#!/usr/bin/env python3
"""Exit flight record of a program whose simulation runs under an
obs::RunScope (DESIGN.md §5i).

`fig10_timeline` runs S&R and then Elan, each in a RunScope whose ring is
freed when the run ends, long before the process exits. With ELAN_FLIGHT set
the exit dump must still hold the newest ended run, so elan_postmortem's
render of it shows the Elan scale-out's adjustment start and finish.

Usage: postmortem_scoped_run_test.py <fig10_timeline> <elan_postmortem>
"""
import os
import subprocess
import sys
import tempfile

NEEDLES = [
    "job.adjust_start   scale-out plan=1 workers_before=8 workers_after=16",
    "job.adjust_finish  scale-out plan=1 workers_after=16",
]


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: postmortem_scoped_run_test.py <fig10_timeline> <elan_postmortem>")
    fig10 = os.path.abspath(sys.argv[1])
    postmortem = os.path.abspath(sys.argv[2])
    with tempfile.TemporaryDirectory(prefix="elan_pm_scope.") as tmp:
        record = os.path.join(tmp, "fig10.flt")
        env = dict(os.environ, ELAN_FLIGHT=record)
        proc = subprocess.run([fig10], cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE)
        if proc.returncode != 0 or not os.path.exists(record):
            sys.exit(f"FAIL: fig10_timeline exited {proc.returncode} and wrote "
                     f"{'a' if os.path.exists(record) else 'no'} record:\n"
                     f"{proc.stderr.decode(errors='replace')}")
        render = subprocess.run([postmortem, record], stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT).stdout.decode(errors="replace")
        missing = [n for n in NEEDLES if n not in render]
        if missing:
            sys.exit(f"FAIL: the exit record lacks {missing}:\n" + render[:4000])
    print("ok: fig10's exit flight record holds its scale-out")


if __name__ == "__main__":
    main()
