"""Check verification reports against their canonical digests.

    python scripts/check_digests.py report.json=<sha256> [more.json=<sha256> ...]

A report's canonical digest is the SHA-256 of its JSON with sorted keys,
compact separators and no wallTime.  Prints each path with its digest and
exits nonzero when any digest differs from the one given.
"""

from __future__ import annotations

import hashlib
import json
import sys


def canonical_digest(path: str) -> str:
    with open(path) as fh:
        obj = json.load(fh)
    del obj["wallTime"]
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main(pairs: list[str]) -> int:
    if not pairs or not all("=" in p for p in pairs):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bad = 0
    for pair in pairs:
        path, want = pair.split("=", 1)
        got = canonical_digest(path)
        print(path, got, "ok" if got == want else f"MISMATCH, want {want}")
        bad += got != want
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
