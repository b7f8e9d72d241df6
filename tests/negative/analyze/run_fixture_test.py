#!/usr/bin/env python3
"""Drives elan_analyze over the negative fixture tree and asserts exact
finding counts, rule names, and waiver behaviour per rule family.

The fixture tree mimics a repo layout (src/elan/...) so the analyzer's
path-scoping logic runs unmodified; a synthetic compile_commands.json is
written to a temp dir so the database-driven discovery path — the one CI
uses — is the path under test. Also covers:

  * exit 1 when unwaived findings exist; exit 0 when everything is waived;
  * exit 2 when compile_commands.json is required but missing (for both
    elan_analyze and elan_lint --compile-db=...);
  * the shared JSON schema (both tools must emit the same shape);
  * elan_lint's raw-string handling (rule tokens inside R"(...)" literals
    must not fire, code after a raw string must still be linted).

Run:  python3 run_fixture_test.py [path-to-repo-root]
Exit: 0 on success, 1 on any assertion failure (messages on stderr).
"""

import json
import os
import subprocess
import sys
import tempfile

FIXTURE_ROOT = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = (sys.argv[1] if len(sys.argv) > 1
             else os.path.dirname(os.path.dirname(os.path.dirname(FIXTURE_ROOT))))
ANALYZE = os.path.join(REPO_ROOT, "tools", "elan_analyze")
LINT = os.path.join(REPO_ROOT, "tools", "elan_lint")

# rule -> (violating fixture, expected findings, waived fixture, expected waived)
EXPECTED = {
    "determinism": ("determinism_violation.cpp", 9,
                    "determinism_waived.cpp", 7),
    "unordered-iter": ("unordered_iter_violation.cpp", 5,
                       "unordered_iter_waived.cpp", 2),
    "serialization": ("serialization_violation.cpp", 2,
                      "serialization_waived.cpp", 2),
    "blocking-handler": ("blocking_handler_violation.cpp", 3,
                         "blocking_handler_waived.cpp", 1),
    "signal-safety": ("signal_safety_violation.cpp", 7,
                      "signal_safety_waived.cpp", 2),
}

failures = []


def check(cond, message):
    if not cond:
        failures.append(message)
        print(f"FAIL: {message}", file=sys.stderr)
    else:
        print(f"  ok: {message}")


def run(cmd, **kwargs):
    return subprocess.run(cmd, capture_output=True, text=True, **kwargs)


def write_compile_db(dirpath, sources):
    entries = [{
        "directory": FIXTURE_ROOT,
        "file": os.path.join("src", "elan", name),
        "command": f"c++ -std=c++20 -c src/elan/{name}",
    } for name in sources]
    db = os.path.join(dirpath, "compile_commands.json")
    with open(db, "w") as f:
        json.dump(entries, f)
    return db


def main():
    all_sources = [v[0] for v in EXPECTED.values()] + [v[2] for v in EXPECTED.values()]

    with tempfile.TemporaryDirectory() as tmp:
        db = write_compile_db(tmp, all_sources)

        # --- full fixture sweep: every family fires, waivers hold ----------
        proc = run([sys.executable, ANALYZE, "--format=json",
                    f"--repo-root={FIXTURE_ROOT}", f"--compile-db={db}"])
        check(proc.returncode == 1,
              f"fixture sweep exits 1 on violations (got {proc.returncode}, "
              f"stderr: {proc.stderr.strip()!r})")
        doc = json.loads(proc.stdout)
        check(doc.get("tool") == "elan_analyze" and "schema_version" in doc,
              "JSON schema carries tool name and schema_version")

        by_rule = {}
        for f in doc["findings"]:
            by_rule.setdefault(f["rule"], []).append(f)

        total_expected_waived = 0
        for rule, (vfile, vcount, wfile, wcount) in EXPECTED.items():
            rule_findings = by_rule.get(rule, [])
            in_violating = [f for f in rule_findings
                            if f["file"].endswith(vfile)]
            stray = [f for f in rule_findings if not f["file"].endswith(vfile)]
            check(len(in_violating) == vcount,
                  f"[{rule}] exactly {vcount} finding(s) in {vfile} "
                  f"(got {len(in_violating)}: "
                  f"{[(f['file'], f['line']) for f in in_violating]})")
            check(not stray,
                  f"[{rule}] no findings outside {vfile} (stray: "
                  f"{[(f['file'], f['line']) for f in stray]})")
            check(all(f["message"] and f["fixit"] for f in rule_findings),
                  f"[{rule}] findings carry a message and a fix-it hint")
            total_expected_waived += wcount
        check(doc["waived"] == total_expected_waived,
              f"waived count == {total_expected_waived} (got {doc['waived']})")

        # --- waived-only subset: exit 0, zero findings ---------------------
        waived_paths = [os.path.join(FIXTURE_ROOT, "src", "elan", v[2])
                        for v in EXPECTED.values()]
        proc = run([sys.executable, ANALYZE, "--format=json",
                    f"--repo-root={FIXTURE_ROOT}"]
                   + waived_paths)
        check(proc.returncode == 0,
              f"waived-only subset exits 0 (got {proc.returncode})")
        doc = json.loads(proc.stdout)
        check(doc["findings"] == [],
              f"waived-only subset has zero findings (got {doc['findings']})")
        check(doc["waived"] == total_expected_waived,
              f"waived-only subset counts {total_expected_waived} waivers "
              f"(got {doc['waived']})")

        # --- manifest emission --------------------------------------------
        manifest_path = os.path.join(tmp, "manifest.json")
        proc = run([sys.executable, ANALYZE, f"--repo-root={FIXTURE_ROOT}",
                    f"--compile-db={db}", f"--emit-manifest={manifest_path}"])
        check(proc.returncode == 0, "manifest emission exits 0")
        with open(manifest_path) as f:
            manifest = json.load(f)
        structs = manifest.get("structs", {})
        check("JoinMsg" in structs and "LeaveMsg" in structs,
              f"manifest lists JoinMsg and LeaveMsg (got {sorted(structs)})")
        check(structs.get("JoinMsg", {}).get("fields") ==
              ["version", "worker", "gpu", "iteration"],
              "manifest preserves JoinMsg field order "
              f"(got {structs.get('JoinMsg', {}).get('fields')})")

    # --- exit 2 when the compile db is required but missing ----------------
    with tempfile.TemporaryDirectory() as empty:
        proc = run([sys.executable, ANALYZE, f"--repo-root={empty}"])
        check(proc.returncode == 2 and "compile_commands.json" in proc.stderr,
              "elan_analyze exits 2 with a clear message when "
              f"compile_commands.json is missing (got {proc.returncode})")
        proc = run([sys.executable, LINT,
                    f"--compile-db={os.path.join(empty, 'nope.json')}"])
        check(proc.returncode == 2 and "compile_commands.json" in proc.stderr,
              "elan_lint --compile-db=<missing> exits 2 with a clear message "
              f"(got {proc.returncode})")

    # --- elan_lint: shared JSON schema + raw-string handling ---------------
    with tempfile.TemporaryDirectory() as tmp:
        src_dir = os.path.join(tmp, "src")
        os.makedirs(src_dir)
        raw_fixture = os.path.join(src_dir, "raw_string_case.cpp")
        with open(raw_fixture, "w") as f:
            f.write(
                '// elan_lint raw-string regression fixture.\n'
                '#include <string>\n'
                '// The raw string BODY mentions std::mutex and an intrinsic:\n'
                'const char* kDoc = R"(use std::mutex and _mm256_add_ps(x) here)";\n'
                'const char* kDelim = R"zz(quote " unbalanced, std::lock_guard)zz";\n'
                'std::string after_raw() { return "fine"; }\n'
                'static std::mutex real_violation;  // after the raw strings\n')
        proc = run([sys.executable, LINT, f"--root={tmp}", "--format=json"])
        check(proc.returncode == 1,
              f"elan_lint exits 1 on the real violation (got {proc.returncode}, "
              f"stderr {proc.stderr.strip()!r})")
        doc = json.loads(proc.stdout)
        check(doc.get("tool") == "elan_lint" and "schema_version" in doc,
              "elan_lint emits the shared JSON schema")
        lines = sorted(f["line"] for f in doc["findings"])
        check(lines == [7],
              "raw-string contents are NOT linted but code after them IS "
              f"(findings on lines {lines}, expected [7])")

    # --- elan_lint: adhoc-event-queue scoping + waiver ---------------------
    with tempfile.TemporaryDirectory() as tmp:
        sim_dir = os.path.join(tmp, "src", "sim")
        sched_dir = os.path.join(tmp, "src", "sched")
        os.makedirs(sim_dir)
        os.makedirs(sched_dir)
        with open(os.path.join(sim_dir, "inside_core.cpp"), "w") as f:
            f.write(
                '// The ordering core itself may use raw heap primitives.\n'
                '#include <queue>\n'
                'std::priority_queue<int> allowed_here;\n')
        with open(os.path.join(sched_dir, "outside_core.cpp"), "w") as f:
            f.write(
                '// Ad-hoc event queues outside src/sim/ must be flagged.\n'
                '#include <algorithm>\n'
                '#include <queue>\n'
                'std::priority_queue<int> bad_queue;\n'
                'void f(int* b, int* e) { std::make_heap(b, e); }\n'
                '// elan-lint: allow(adhoc-event-queue) — fixture waiver\n'
                'std::priority_queue<int> waived_queue;\n')
        proc = run([sys.executable, LINT, f"--root={tmp}", "--format=json"])
        check(proc.returncode == 1,
              f"adhoc-event-queue fixture exits 1 (got {proc.returncode}, "
              f"stderr {proc.stderr.strip()!r})")
        doc = json.loads(proc.stdout)
        hits = [f for f in doc["findings"]
                if f["rule"] == "adhoc-event-queue"]
        check(sorted(f["line"] for f in hits) == [4, 5],
              "adhoc-event-queue fires on priority_queue and make_heap "
              f"outside src/sim/ (got {[(f['file'], f['line']) for f in hits]})")
        check(not any(f["file"].endswith("inside_core.cpp")
                      for f in doc["findings"]),
              "adhoc-event-queue stays silent inside src/sim/")
        check(doc["waived"] == 1,
              f"adhoc-event-queue waiver suppresses (waived={doc['waived']})")

    if failures:
        print(f"\n{len(failures)} fixture assertion(s) failed", file=sys.stderr)
        return 1
    print("\nall fixture assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
