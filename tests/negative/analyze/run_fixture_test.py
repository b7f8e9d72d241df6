#!/usr/bin/env python3
"""Drives elan_analyze over fixture trees and asserts exact finding counts,
rule names, and waiver behaviour for every rule family.

Semantic families: the committed fixture tree (src/elan/... next to this
script) mimics a repo layout, so the analyzer's path scoping runs
unmodified, and the tree walk the repo-wide gate uses is the discovery
path under test.

Structural families: their cases are written into a temp tree, never into
the repo's tests/, which the repo-wide walk scans. Each family has a
violating case with exact finding lines and a waived case; allowlisted
files stay silent, and findings fire under tests/ and bench/ too, while a
determinism violation fires only under src/. The same tree holds the
raw-string regression: rule tokens inside R"(...)" literals must not fire,
code after a raw string must.

Also covers:

  * exit 1 when unwaived findings exist; exit 0 when everything is waived;
  * exit 2 when --repo-root holds no source files;
  * the JSON schema and the message-struct manifest.

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

WALL_CLOCK = (
    '#include <chrono>\n'
    'double now_s() {\n'
    '  return std::chrono::steady_clock::now().time_since_epoch().count();\n'
    '}\n')

# Structural cases: repo-relative path -> source. Every family carries one
# waived case, in the same-line or the line-above form.
STRUCTURAL_TREE = {
    # naked-sync fires under tests/, not only under src/.
    "tests/naked_sync.cpp": (
        '#include <mutex>\n'
        'std::mutex mu;\n'
        'void f() { std::lock_guard<Lockable> guard(mu); }\n'
        'std::condition_variable cv;\n'
        'std::mutex quiet;  // elan-analyze: allow(naked-sync) -- fixture\n'),
    "src/common/sync.h": (
        '// The sync layer itself may use the naked primitives.\n'
        '#include <mutex>\n'
        'std::mutex raw;\n'),
    "src/raw_string_case.cpp": (
        '// Raw-string regression fixture.\n'
        '#include <string>\n'
        '// The raw string BODY mentions std::mutex and an intrinsic:\n'
        'const char* kDoc = R"(use std::mutex and _mm256_add_ps(x) here)";\n'
        'const char* kDelim = R"zz(quote " unbalanced, std::lock_guard)zz";\n'
        'std::string after_raw() { return "fine"; }\n'
        'static std::mutex real_violation;  // after the raw strings\n'),
    "src/elan/raw_simd.cpp": (
        '#include <immintrin.h>\n'
        'using Lane = __m256;\n'
        'Lane twice(Lane v) { return _mm256_add_ps(v, v); }\n'
        'float first(const float* p) { return p[0]; }  // _mm_set1_ps(x)\n'
        '// elan-analyze: allow(raw-simd) -- fixture\n'
        'Lane zero() { return _mm256_setzero_ps(); }\n'),
    "src/minidl/kernels_avx2.cpp": (
        '// The designated kernel TU may use intrinsics.\n'
        '#include <immintrin.h>\n'
        '__m256 ok(__m256 v) { return _mm256_add_ps(v, v); }\n'),
    # adhoc-event-queue fires under bench/; the wall-clock read there does
    # not fire determinism, which covers src/ only.
    "bench/adhoc_queue.cpp": (
        '#include <algorithm>\n'
        '#include <queue>\n'
        'std::priority_queue<int> bad_queue;\n'
        'void f(int* b, int* e) { std::make_heap(b, e); }\n'
        '// elan-analyze: allow(adhoc-event-queue) -- fixture\n'
        'std::priority_queue<int> waived_queue;\n'
        + WALL_CLOCK),
    "src/sim/inside_core.cpp": (
        '// The ordering core itself may use raw heap primitives.\n'
        '#include <queue>\n'
        'std::priority_queue<int> allowed_here;\n'),
    "src/elan/wall_clock.cpp": WALL_CLOCK,
    "src/minidl/kernel_body.cpp": (
        'void scale(Pool& pool, Tensor& t) {\n'
        '  const float first = t.at(0, 0);\n'
        '  pool.parallel_for(0, t.rows(), 1, [&](long b, long e) {\n'
        '    if (e < b) throw Error("inverted chunk");\n'
        '    for (long r = b; r < e; ++r) t.at(r, 0) *= first;\n'
        '    t.at(b, 1) += first;\n'
        '    if (b < 0) throw Error("negative chunk");\n'
        '    t.at(b, 2) = 0;  // elan-analyze: allow(tensor-at-in-kernel) -- fixture\n'
        '    // elan-analyze: allow(throw-in-parallel-for) -- fixture\n'
        '    if (e < 0) throw Error("negative end");\n'
        '  });\n'
        '  if (first < 0) throw Error("outside the parallel_for");\n'
        '}\n'),
}

# rule -> sorted (file, line) of every finding the structural tree produces.
STRUCTURAL_EXPECTED = {
    "naked-sync": [("src/raw_string_case.cpp", 7), ("tests/naked_sync.cpp", 2),
                   ("tests/naked_sync.cpp", 3), ("tests/naked_sync.cpp", 4)],
    "raw-simd": [("src/elan/raw_simd.cpp", 1), ("src/elan/raw_simd.cpp", 2),
                 ("src/elan/raw_simd.cpp", 3)],
    "adhoc-event-queue": [("bench/adhoc_queue.cpp", 3),
                          ("bench/adhoc_queue.cpp", 4)],
    "tensor-at-in-kernel": [("src/minidl/kernel_body.cpp", 5),
                            ("src/minidl/kernel_body.cpp", 6)],
    "throw-in-parallel-for": [("src/minidl/kernel_body.cpp", 4),
                              ("src/minidl/kernel_body.cpp", 7)],
    "determinism": [("src/elan/wall_clock.cpp", 3)],
}
STRUCTURAL_WAIVED = 5  # one waived case per structural family

failures = []


def check(cond, message):
    if not cond:
        failures.append(message)
        print(f"FAIL: {message}", file=sys.stderr)
    else:
        print(f"  ok: {message}")


def run(cmd, **kwargs):
    return subprocess.run(cmd, capture_output=True, text=True, **kwargs)


def main():
    # --- semantic fixture sweep: every family fires, waivers hold ----------
    proc = run([sys.executable, ANALYZE, "--format=json",
                f"--repo-root={FIXTURE_ROOT}"])
    check(proc.returncode == 1,
          f"fixture sweep exits 1 on violations (got {proc.returncode}, "
          f"stderr: {proc.stderr.strip()!r})")
    doc = json.loads(proc.stdout)
    check(doc.get("tool") == "elan_analyze" and "schema_version" in doc,
          "JSON schema carries tool name and schema_version")
    check(doc["files_scanned"] == 2 * len(EXPECTED),
          f"the walk finds every fixture file (got {doc['files_scanned']})")

    by_rule = {}
    for f in doc["findings"]:
        by_rule.setdefault(f["rule"], []).append(f)
    check(set(by_rule) <= set(EXPECTED),
          f"only semantic families fire on the fixture tree (got {sorted(by_rule)})")

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

    # --- waived-only subset: exit 0, zero findings -------------------------
    waived_paths = [os.path.join(FIXTURE_ROOT, "src", "elan", v[2])
                    for v in EXPECTED.values()]
    proc = run([sys.executable, ANALYZE, "--format=json",
                f"--repo-root={FIXTURE_ROOT}"] + waived_paths)
    check(proc.returncode == 0,
          f"waived-only subset exits 0 (got {proc.returncode})")
    doc = json.loads(proc.stdout)
    check(doc["findings"] == [],
          f"waived-only subset has zero findings (got {doc['findings']})")
    check(doc["waived"] == total_expected_waived,
          f"waived-only subset counts {total_expected_waived} waivers "
          f"(got {doc['waived']})")

    with tempfile.TemporaryDirectory() as tmp:
        # --- manifest emission ---------------------------------------------
        manifest_path = os.path.join(tmp, "manifest.json")
        proc = run([sys.executable, ANALYZE, f"--repo-root={FIXTURE_ROOT}",
                    f"--emit-manifest={manifest_path}"])
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

        # --- exit 2 when the root holds no source files --------------------
        proc = run([sys.executable, ANALYZE, f"--repo-root={tmp}"])
        check(proc.returncode == 2 and "no source files" in proc.stderr,
              "a root with no source files exits 2 with a clear message "
              f"(got {proc.returncode}, stderr {proc.stderr.strip()!r})")

    # --- structural families, scoping and the raw-string regression --------
    with tempfile.TemporaryDirectory() as tmp:
        for rel, source in STRUCTURAL_TREE.items():
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                f.write(source)
        proc = run([sys.executable, ANALYZE, f"--repo-root={tmp}",
                    "--format=json"])
        check(proc.returncode == 1,
              f"structural tree exits 1 on violations (got {proc.returncode}, "
              f"stderr {proc.stderr.strip()!r})")
        doc = json.loads(proc.stdout)
        check(doc["files_scanned"] == len(STRUCTURAL_TREE),
              f"the walk finds every structural case (got {doc['files_scanned']})")
        for rule, expected in STRUCTURAL_EXPECTED.items():
            got = sorted((f["file"], f["line"]) for f in doc["findings"]
                         if f["rule"] == rule)
            check(got == expected,
                  f"[{rule}] exactly {len(expected)} finding(s) at {expected} "
                  f"(got {got})")
        stray = [(f["file"], f["line"], f["rule"]) for f in doc["findings"]
                 if f["rule"] not in STRUCTURAL_EXPECTED]
        check(not stray, f"no other family fires on the structural tree "
              f"(stray: {stray})")
        check(doc["waived"] == STRUCTURAL_WAIVED,
              f"each structural family's waiver suppresses "
              f"(waived={doc['waived']}, expected {STRUCTURAL_WAIVED})")

    if failures:
        print(f"\n{len(failures)} fixture assertion(s) failed", file=sys.stderr)
        return 1
    print("\nall fixture assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
