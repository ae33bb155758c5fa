#!/usr/bin/env python3
"""Runs xyverify against each fixture tree and checks the findings.

Every directory here is a miniature repository (its own src/, tools/).
The file EXPECT inside a fixture lists the rule ids xyverify must report
for that tree, one per line; an empty EXPECT means the tree must come
back clean (exit 0).  A fixture may also carry a baseline.json, which is
passed via --baseline to exercise the suppression/hygiene rules.

Each failing fixture has a *_good twin differing only in the fix, so the
corpus pins both directions: the rule fires on the bug and stays quiet
once the bug is gone.

A fixture whose sources #include a header missing from its own tree
fails outright: xyverify ignores unresolved includes, so a lost header
would let a fixture pass without exercising its rule.
"""

import json
import os
import posixpath
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))


INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def missing_includes(fixture):
    """Quoted includes that resolve to no file of the fixture tree, tried
    the way xyverify resolves them: under src/, beside the including
    file, then from the fixture root."""
    files = set()
    for dirpath, _dirnames, filenames in os.walk(fixture):
        for name in filenames:
            if name.endswith((".h", ".cc")):
                rel = os.path.relpath(os.path.join(dirpath, name), fixture)
                files.add(rel.replace(os.sep, "/"))
    missing = []
    for rel in sorted(files):
        with open(os.path.join(fixture, rel), encoding="utf-8") as f:
            targets = INCLUDE.findall(f.read())
        for target in targets:
            candidates = (
                "src/" + target,
                posixpath.normpath(
                    posixpath.join(posixpath.dirname(rel), target)),
                target,
            )
            if not any(c in files for c in candidates):
                missing.append("{} includes missing \"{}\"".format(
                    rel, target))
    return missing


def run_fixture(name):
    fixture = os.path.join(HERE, name)
    missing = missing_includes(fixture)
    if missing:
        return ["{}: {}".format(name, m) for m in missing]
    expect_path = os.path.join(fixture, "EXPECT")
    with open(expect_path, encoding="utf-8") as f:
        expected = {line.strip() for line in f if line.strip()}
    cmd = [sys.executable, "-m", "tools.xyverify",
           "--root", fixture, "--json"]
    baseline = os.path.join(fixture, "baseline.json")
    if os.path.exists(baseline):
        cmd += ["--baseline", baseline]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        return ["{}: xyverify crashed (exit {}):\n{}".format(
            name, proc.returncode, proc.stderr)]
    doc = json.loads(proc.stdout)
    got = {r["ruleId"] for r in doc["runs"][0]["results"]}
    errors = []
    if got != expected:
        errors.append("{}: expected rules {} but got {}".format(
            name, sorted(expected) or "[]", sorted(got) or "[]"))
    want_exit = 1 if expected else 0
    if proc.returncode != want_exit:
        errors.append("{}: expected exit {} but got {}".format(
            name, want_exit, proc.returncode))
    return errors


def main():
    names = sorted(
        d for d in os.listdir(HERE)
        if os.path.isdir(os.path.join(HERE, d)) and
        os.path.exists(os.path.join(HERE, d, "EXPECT")))
    if not names:
        print("run_fixtures: no fixtures found", file=sys.stderr)
        return 2
    failures = []
    failed = 0
    for name in names:
        errors = run_fixture(name)
        status = "ok" if not errors else "FAIL"
        print("{:24} {}".format(name, status))
        failures += errors
        failed += bool(errors)
    for e in failures:
        print(e, file=sys.stderr)
    print("{}/{} fixtures passed".format(len(names) - failed, len(names)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
