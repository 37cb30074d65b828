#!/usr/bin/env python3
"""Compares two dumps of the pinned wire messages, OLD and NEW.

    cargo test -q --release -p qsel-xpaxos --test wire_roundtrip \\
        dump_pinned_messages -- --ignored --nocapture > new.txt
    python3 crates/xpaxos/tests/wire_pins.py old.txt new.txt

(`old.txt` is the same command run in another checkout; one that predates
`dump_pinned_messages` takes this checkout's `wire_roundtrip.rs`.)

Passes only if both dumps list the same kinds in the same order, every
message encodes to the same length, and the bytes differ only inside
32-byte spans where a signature tag of the message sits, at the same
offsets on both sides. Prints one row per message and the `PINNED_WIRE`
entries of NEW.
"""

import hashlib
import sys


def load(path):
    rows = []
    for line in open(path):
        if line.startswith("wire "):
            _, kind, length, data, *tags = line.split()
            rows.append((kind, int(length), bytes.fromhex(data), [bytes.fromhex(t) for t in tags]))
    return rows


def tag_offsets(data, tags):
    offsets = set()
    for tag in tags:
        found = [i for i in range(len(data) - 31) if data[i : i + 32] == tag]
        if not found:
            raise SystemExit(f"tag {tag.hex()} is not in the message it was listed for")
        offsets.update(found)
    return sorted(offsets)


def main(old_path, new_path):
    old, new = load(old_path), load(new_path)
    if [r[0] for r in old] != [r[0] for r in new] or not old:
        raise SystemExit("the dumps list different messages")
    ok = True
    print(f"{'kind':<12} {'len old':>7} {'len new':>7} {'tag spans':>9} {'bytes differ':>12}  only in tag spans")
    for (kind, len_a, a, tags_a), (_, len_b, b, tags_b) in zip(old, new):
        spans_a, spans_b = tag_offsets(a, tags_a), tag_offsets(b, tags_b)
        in_span = set(i for o in spans_b for i in range(o, o + 32))
        differ = [i for i in range(min(len(a), len(b))) if a[i] != b[i]]
        good = len_a == len_b == len(a) == len(b) and spans_a == spans_b
        good = good and all(i in in_span for i in differ)
        ok = ok and good
        print(f"{kind:<12} {len_a:>7} {len_b:>7} {len(spans_b):>9} {len(differ):>12}  {'yes' if good else 'NO'}")
    print()
    for kind, length, data, _ in new:
        print(f'    ("{kind}", {length}, "{hashlib.sha256(data).hexdigest()}"),')
    if not ok:
        raise SystemExit("some message changed outside its tag spans")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    main(*sys.argv[1:])
