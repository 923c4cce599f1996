"""Per-partition checkpoint manifests with lineage metadata.

A segment is the unit of atomicity and resume (SURVEY §7.5): its files
are written to a temp dir and renamed into place, then the manifest is
written last. A rerun skips any partition whose manifest (a) matches
the current build's config hash and lineage id and (b) still hashes to
the recorded file digests — so resumed builds produce byte-identical
segments (tested in tests/test_resume.py).

The reference has no persistence at all (the index is rebuilt from
scratch on every start — absence documented in SURVEY §4.1); this
module exists because the north rule requires "resumable from
checkpoint with per-partition lineage + metrics".
"""

from __future__ import annotations

import hashlib
import json
import os

MANIFEST_NAME = "_MANIFEST.json"
MANIFEST_VERSION = 1


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(part_dir: str, part: int, config_hash: str,
                   lineage: dict, stats: dict, skew: dict) -> dict:
    files = {}
    for name in ("postings.parquet", "doclens.parquet"):
        p = os.path.join(part_dir, name)
        files[name] = {"bytes": os.path.getsize(p), "sha256": _file_sha256(p)}
    manifest = {
        "version": MANIFEST_VERSION,
        "part": part,
        "config_hash": config_hash,
        "lineage": lineage,
        "stats": stats,
        "skew": skew,
        "files": files,
    }
    tmp = os.path.join(part_dir, MANIFEST_NAME + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(part_dir, MANIFEST_NAME))
    return manifest


def load_manifest(part_dir: str) -> dict | None:
    p = os.path.join(part_dir, MANIFEST_NAME)
    if not os.path.exists(p):
        return None
    try:
        with open(p) as f:
            return json.load(f)
    except (json.JSONDecodeError, OSError):
        return None


def validate_manifest(part_dir: str, config_hash: str,
                      lineage_id: str) -> dict | None:
    """Returns the manifest iff this partition can be skipped on
    resume: every file it lists exists with its recorded size and
    sha256."""
    m = load_manifest(part_dir)
    if m is None or m.get("version") != MANIFEST_VERSION:
        return None
    if m.get("config_hash") != config_hash:
        return None
    if m.get("lineage", {}).get("input_id") != lineage_id:
        return None
    for name, rec in m.get("files", {}).items():
        p = os.path.join(part_dir, name)
        if not os.path.exists(p) or os.path.getsize(p) != rec["bytes"]:
            return None
        if _file_sha256(p) != rec["sha256"]:
            return None
    return m
