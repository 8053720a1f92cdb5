"""Compare two treeshift reports record by record.

A record's key is its check name, its tree label when it has one, and a
running number for repeats (`name@tree#k`), so suites that check several trees
stay apart.  Prints status changes, records that vanished or are new, and each
field whose JSON bytes moved, as old -> new.  The summary line is skipped.

Exits 1 when a record changed status or vanished, and 0 otherwise.

Usage: python scripts/diff_reports.py OLD.jsonl NEW.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys


def keyed_records(path: str) -> dict[str, dict]:
    """Key -> record for every record line of a JSON Lines report."""
    out: dict[str, dict] = {}
    seen: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            row = json.loads(line)
            if "summary" in row:
                continue
            base = row["name"] if row.get("tree") is None else f"{row['name']}@{row['tree']}"
            seen[base] = seen.get(base, 0) + 1
            out[f"{base}#{seen[base]}"] = row
    return out


def _text(row: dict, field: str) -> str:
    if field not in row:
        return "(absent)"
    return json.dumps(row[field], sort_keys=True, separators=(",", ":"))


def diff(old: dict[str, dict], new: dict[str, dict]) -> tuple[list[str], bool]:
    """Lines describing what moved, and whether any record changed status or vanished."""
    lines = []
    broken = False
    for key, row in old.items():
        if key not in new:
            lines.append(f"vanished {key} ({row['status']})")
            broken = True
            continue
        after = new[key]
        if row["status"] != after["status"]:
            lines.append(f"status {key}: {row['status']} -> {after['status']}")
            broken = True
        for field in sorted((row.keys() | after.keys()) - {"status"}):
            before, now = _text(row, field), _text(after, field)
            if before != now:
                lines.append(f"moved {key} {field}: {before} -> {now}")
    for key, row in new.items():
        if key not in old:
            lines.append(f"new {key} ({row['status']})")
    return lines, broken


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args()
    old, new = keyed_records(args.old), keyed_records(args.new)
    lines, broken = diff(old, new)
    for line in lines:
        print(line)
    print(f"{len(old)} old records, {len(new)} new records, {len(lines)} differences")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
