#!/usr/bin/env python3
"""Gate-artifact validator for the verify.sh lab gates.

A gate that "passes" because its output file vanished or turned to
garbage is worse than one that fails, so every gate artifact must
exist, be non-empty, parse as JSON, and carry the top-level key that
marks it as the artifact it claims to be (lab artifacts carry
"schema").

Modes:
  validate FILE...      validate each artifact
    --key KEY           required top-level key (e.g. schema)
    --jsonl             treat each file as JSON lines: every non-empty,
                        non-comment line must parse, and the first must
                        carry the key
  selftest              exercise the validator against synthetic good
                        and bad artifacts in a temp dir, exit nonzero on
                        any miss

Exit status: 0 = all artifacts valid, 1 = a validation failed,
2 = bad usage.
"""

import argparse
import json
import os
import sys
import tempfile


def fail(path, why):
    print(f"error: gate artifact {path}: {why}.", file=sys.stderr)
    print(
        "       Its producer exited without writing a sound artifact; re-run it"
        " and inspect its stderr instead of trusting a stale green.",
        file=sys.stderr,
    )
    return False


def validate_file(path, key, jsonl=False):
    """True iff `path` is a non-empty, parseable artifact carrying `key`
    at the top level (of every object for --jsonl, where comment lines
    starting with '#' are allowed and the key is required on the first
    object only)."""
    try:
        if os.path.getsize(path) == 0:
            return fail(path, "is empty")
    except OSError:
        return fail(path, "is missing")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if jsonl:
        first = None
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                return fail(path, f"line {lineno} is not valid JSON ({e.msg})")
            if first is None:
                first = obj
        if first is None:
            return fail(path, "has no JSON lines")
        if not isinstance(first, dict) or key not in first:
            return fail(path, f"first object lacks the {key!r} key")
        return True
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        return fail(path, f"is not valid JSON ({e.msg}; truncated write?)")
    if not isinstance(obj, dict) or key not in obj:
        return fail(path, f"lacks the top-level {key!r} key")
    return True


def selftest():
    """Validates known-good and known-bad artifacts; returns the number
    of misclassifications."""
    cases = [
        # (contents, key, jsonl, expect_valid)
        ('{"schema": "lab.run.v1"}', "schema", False, True),
        ("", "schema", False, False),  # empty
        ('{"schema": "x"', "schema", False, False),  # truncated
        ('{"v": 1}', "schema", False, False),  # missing key
        ("[1, 2]", "schema", False, False),  # not an object
        ('# c\n{"schema": "s"}\n{"a": 1}\n', "schema", True, True),
        ('{"schema": "s"}\nnot json\n', "schema", True, False),
        ('{"nope": "s"}\n{"a": 1}\n', "schema", True, False),
        ("# only comments\n", "schema", True, False),
    ]
    misses = 0
    with tempfile.TemporaryDirectory() as tmp:
        devnull = open(os.devnull, "w")
        real_stderr, sys.stderr = sys.stderr, devnull
        try:
            for i, (contents, key, jsonl, expect) in enumerate(cases):
                path = os.path.join(tmp, f"case{i}.json")
                with open(path, "w", encoding="utf-8") as f:
                    f.write(contents)
                got = validate_file(path, key, jsonl)
                if got != expect:
                    sys.stderr = real_stderr
                    print(
                        f"selftest: case {i} ({contents!r}, key={key!r}, "
                        f"jsonl={jsonl}): expected valid={expect}, got {got}",
                        file=sys.stderr,
                    )
                    sys.stderr = devnull
                    misses += 1
            missing = os.path.join(tmp, "never-written.json")
            if validate_file(missing, "schema"):
                sys.stderr = real_stderr
                print("selftest: missing file validated", file=sys.stderr)
                sys.stderr = devnull
                misses += 1
        finally:
            sys.stderr = real_stderr
            devnull.close()
    print(f"check_bench selftest: {10 - misses}/10 cases correct")
    return misses


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    v = sub.add_parser("validate", help="validate gate artifacts")
    v.add_argument("files", nargs="+", help="artifact paths")
    v.add_argument("--key", required=True, help="required top-level key")
    v.add_argument("--jsonl", action="store_true", help="JSON-lines artifact")
    sub.add_parser("selftest", help="exercise the validator")
    args = parser.parse_args(argv)

    if args.mode == "selftest":
        return 1 if selftest() else 0
    ok = all(validate_file(p, args.key, args.jsonl) for p in args.files)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
