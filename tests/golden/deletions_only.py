#!/usr/bin/env python3
"""Checks that a regenerated trace only *lost* lines of the named kinds.

    tests/golden/deletions_only.py OLD.jsonl NEW.jsonl [EV ...]

With the "seq" field dropped (it renumbers when a line disappears), NEW
must be a subsequence of OLD, and every OLD line missing from NEW must have
its "ev" among EV (default: timer_fired buffered_paused timer_stale).
Prints the record counts and the deletions per kind; exits 1 otherwise.
"""
import collections
import re
import sys

SEQ = re.compile(r'^\{"seq":\d+,')
EV = re.compile(r'"ev":"([^"]*)"')


def lines(path):
    with open(path) as f:
        return [SEQ.sub("{", line) for line in f if line.strip()]


def main():
    old_path, new_path, *allowed = sys.argv[1:]
    allowed = set(allowed or ["timer_fired", "buffered_paused", "timer_stale"])
    old, new = lines(old_path), lines(new_path)
    deleted = collections.Counter()
    i = 0
    for j, line in enumerate(new):
        while i < len(old) and old[i] != line:
            deleted[EV.search(old[i]).group(1)] += 1
            i += 1
        if i == len(old):
            sys.exit(f"{new_path}: line {j + 1} is not in {old_path} in this order: {line.strip()}")
        i += 1
    for line in old[i:]:
        deleted[EV.search(line).group(1)] += 1
    summary = ", ".join(f"{n} {ev}" for ev, n in sorted(deleted.items())) or "nothing"
    print(f"{new_path}: {len(old)} -> {len(new)} records, deleted {summary}")
    if set(deleted) - allowed:
        sys.exit(f"{new_path}: deleted kinds outside {sorted(allowed)}")


if __name__ == "__main__":
    main()
