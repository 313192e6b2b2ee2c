"""Recorded reference outputs and the checks against them.

``references/*.json`` hold, for every item of every workload's fixed
universe, the outputs the program produced when the benchmark was
defined.  Each run compares its outputs with them; a mismatch is a
failed operation and makes the run exit non-zero.

Regenerate (only when an output is *meant* to change) with::

    python3 perfbench/record_references.py
"""

from __future__ import annotations

import hashlib
import json
import math

from harness import BENCH_DIR, OUT_DIR

REFERENCE_DIR = BENCH_DIR / "references"
FORMAT = "perfbench-references-v1"
#: Decision fields compared, the same ones loadgen.decision_digest hashes.
DECISION_FIELDS = ("key", "admitted", "protocol", "worst_bound_ratio")
REGION_PREFIX = "region tier:"

_FILES = {
    "paper-sweep": "paper-sweep.json",
    "admit-cold": "admit-cold.json",
    "admit-hot": "admit-hot.json",
}


def load(workload: str) -> dict:
    with open(REFERENCE_DIR / _FILES[workload], encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("format") != FORMAT:
        raise ValueError(f"{_FILES[workload]}: not a {FORMAT} file")
    return document["items"]


def save(workload: str, items: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(REFERENCE_DIR / _FILES[workload], "w", encoding="utf-8") as handle:
        json.dump({"format": FORMAT, "items": items}, handle, indent=1, sort_keys=True)
        handle.write("\n")


def spans_path(workload: str, seed: int, part: str = "client"):
    return OUT_DIR / f"spans-{workload}-{seed}-{part}.jsonl"


def decision_fields(document: dict) -> dict:
    """The compared subset of a ``repro-admission-decision-v1`` document."""
    return {field: document.get(field) for field in DECISION_FIELDS}


def decision_mismatch(document: dict, reference: dict) -> str | None:
    """Why a served decision disagrees with its reference, or None.

    Sheds, degraded verdicts and ``error`` lines never match.  A request
    recorded as region-served must be region-served again, and its
    reference verdict was checked against direct analysis when recorded.
    """
    if "error" in document:
        return f"error line: {document['error']}"
    rationale = document.get("rationale", "")
    if rationale.startswith(("service shed:", "service degraded:")):
        return rationale
    want = reference["decision"]
    got = decision_fields(document)
    if got != want:
        return f"decision {got!r} != reference {want!r}"
    if reference.get("source") == "region" and not rationale.startswith(REGION_PREFIX):
        return "expected a region-tier decision"
    return None


def digest(rows) -> str:
    """SHA-256 over (request id, decision fields), as loadgen.decision_digest."""
    hasher = hashlib.sha256()
    for request_id, fields in sorted(rows, key=lambda row: row[0]):
        ratio = fields["worst_bound_ratio"]
        ratio = math.inf if ratio == "inf" else float(ratio)
        hasher.update(
            (
                f"{request_id}|{fields['key']}|{fields['admitted']}|"
                f"{fields['protocol']}|{ratio!r}\n"
            ).encode("utf-8")
        )
    return hasher.hexdigest()
