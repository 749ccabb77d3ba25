"""``repro-ugf doctor``: diagnose and repair a run directory.

The trial store is append-only and crash-safe *by reader tolerance* —
a torn tail is skipped, not fatal. ``doctor`` makes that tolerance
auditable and reversible:

- **torn tail**: a trailing fragment that is not a complete record
  (the signature of ``kill -9`` mid-append). Detected with its byte
  offset; ``--repair`` truncates the file back to the last complete
  record, after which the store is byte-clean again.
- **content addresses**: every record's ``key`` is recomputed from its
  stored spec fingerprint (the exact bytes :func:`~repro.campaign.keys.
  trial_key` hashes). A mismatch means the record was edited or
  corrupted in place — reported, never served silently.
- **wire payloads**: every outcome payload must decode; undecodable
  records are dead weight the reader will skip.
- **cross-checks**: the quarantine ledger and telemetry stream beside
  the store are validated, and quarantined trials that *also* have a
  good store record are flagged as recovered (information, not error —
  a later session healed them).

Findings carry a severity: ``error`` (doctor exits non-zero),
``warn`` (data already lost or ignorable), ``info``. Repair handles
exactly the reversible finding — tail truncation; interior corrupt
lines are reported but left in place, since the reader skips them and
truncating interior bytes would destroy good records after them.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any

from repro.campaign.keys import fingerprint_key
from repro.campaign.store import STORE_FILENAME as _STORE_FILENAME
from repro.campaign.store import discover_store_files
from repro.chaos.supervisor import read_quarantine
from repro.errors import ConfigurationError
from repro.sim.outcome import Outcome

__all__ = ["DoctorFinding", "DoctorReport", "diagnose"]


@dataclass(frozen=True, slots=True)
class DoctorFinding:
    """One observation about a run directory."""

    severity: str  # "error" | "warn" | "info"
    kind: str
    detail: str
    #: 1-based store line (None for findings outside the store files).
    line: int | None = None
    #: Store file the finding is about (its basename) — significant for
    #: sharded stores, where a line number alone is ambiguous.
    file: str | None = None

    def __str__(self) -> str:
        where = ""
        if self.file is not None and self.line is not None:
            where = f"{self.file} line {self.line}: "
        elif self.line is not None:
            where = f"line {self.line}: "
        return f"[{self.severity}] {where}{self.kind} — {self.detail}"


@dataclass
class DoctorReport:
    """Everything one ``doctor`` pass learned (and did)."""

    run_dir: str
    store_path: str
    #: Complete, well-formed records (by content address).
    records: int = 0
    findings: list[DoctorFinding] = field(default_factory=list)
    #: Repair actions taken (empty without --repair or nothing to do).
    repairs: list[str] = field(default_factory=list)
    quarantine_records: int = 0
    telemetry_records: int = 0
    #: Executed trials by producing backend, from the telemetry stream.
    #: Legacy records without a backend id count as "unrecorded".
    backend_counts: dict[str, int] = field(default_factory=dict)

    @property
    def errors(self) -> list[DoctorFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        lines = [
            f"doctor: {self.store_path} — {self.records} record(s), "
            f"{len(self.errors)} error(s), "
            f"{sum(f.severity == 'warn' for f in self.findings)} warning(s)"
        ]
        if self.quarantine_records:
            lines.append(f"quarantine: {self.quarantine_records} record(s)")
        if self.telemetry_records:
            lines.append(f"telemetry: {self.telemetry_records} record(s)")
        if self.backend_counts:
            lines.append(
                "backends: "
                + ", ".join(
                    f"{self.backend_counts[k]} {k}"
                    for k in sorted(self.backend_counts)
                )
            )
        for action in self.repairs:
            lines.append(f"repaired: {action}")
        verdict = "clean" if self.ok else "NEEDS ATTENTION"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


def _recompute_key(fingerprint: dict[str, Any]) -> str | None:
    """The content address the stored fingerprint *should* have."""
    try:
        return fingerprint_key(fingerprint)
    except ConfigurationError:
        return None


def _check_record(
    line_no: int, line: bytes, report: DoctorReport, file: str | None = None
) -> None:
    """Validate one complete store line, appending findings."""
    text = line.decode("utf-8", errors="replace").strip()
    if not text:
        return  # blank lines are legal framing (skipped by the reader)
    try:
        record = json.loads(text)
    except json.JSONDecodeError:
        report.findings.append(
            DoctorFinding(
                severity="warn",
                kind="corrupt-line",
                detail="not valid JSON; the reader skips it (data lost)",
                line=line_no,
                file=file,
            )
        )
        return
    if not isinstance(record, dict) or "key" not in record:
        report.findings.append(
            DoctorFinding(
                severity="warn",
                kind="foreign-record",
                detail="valid JSON but not a trial record; the reader skips it",
                line=line_no,
                file=file,
            )
        )
        return
    key = record.get("key")
    payload = record.get("wire", record.get("outcome"))
    spec = record.get("spec")
    if not isinstance(key, str) or not isinstance(payload, (dict, list)):
        report.findings.append(
            DoctorFinding(
                severity="warn",
                kind="foreign-record",
                detail="record lacks a usable key/payload; the reader skips it",
                line=line_no,
                file=file,
            )
        )
        return
    if isinstance(spec, dict):
        expected = _recompute_key(spec)
        if expected is not None and expected != key:
            report.findings.append(
                DoctorFinding(
                    severity="error",
                    kind="bad-address",
                    detail=(
                        f"stored key {key[:12]}… does not match its spec "
                        f"fingerprint ({expected[:12]}…): record edited or "
                        "corrupted in place"
                    ),
                    line=line_no,
                    file=file,
                )
            )
            return
    try:
        if isinstance(payload, list):
            Outcome.from_wire(payload)
        else:
            Outcome.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        report.findings.append(
            DoctorFinding(
                severity="error",
                kind="bad-wire",
                detail=f"outcome payload does not decode ({exc})",
                line=line_no,
                file=file,
            )
        )
        return
    report.records += 1


def _scan_store(
    path: pathlib.Path, report: DoctorReport, keys_seen: set[str]
) -> tuple[int, bool]:
    """Scan one store file; returns ``(tail_offset, tail_torn)``.

    *tail_offset* is the byte offset where a defective tail begins
    (-1 when the tail is healthy); *tail_torn* distinguishes an
    unparseable fragment (truncate to repair) from a complete final
    record merely missing its newline (append one to repair).
    *keys_seen* is shared across the files of a sharded store so the
    duplicate count is store-wide.
    """
    data = path.read_bytes()
    if not data:
        return -1, False
    file = path.name
    offset = 0
    line_no = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        line_no += 1
        if newline == -1:
            # Unterminated tail: complete record missing "\n", or torn.
            fragment = data[offset:]
            try:
                record = json.loads(fragment.decode("utf-8"))
                torn = not isinstance(record, dict)
            except (json.JSONDecodeError, UnicodeDecodeError):
                torn = True
            if torn:
                report.findings.append(
                    DoctorFinding(
                        severity="error",
                        kind="torn-tail",
                        detail=(
                            f"{len(fragment)} trailing byte(s) at offset "
                            f"{offset} are a torn record (crash mid-append); "
                            "repair truncates them"
                        ),
                        line=line_no,
                        file=file,
                    )
                )
            else:
                _check_record(line_no, fragment, report, file)
                report.findings.append(
                    DoctorFinding(
                        severity="error",
                        kind="unterminated-tail",
                        detail=(
                            "final record is complete but missing its "
                            "newline; repair terminates it"
                        ),
                        line=line_no,
                        file=file,
                    )
                )
            return offset, torn
        before = report.records
        _check_record(line_no, data[offset:newline], report, file)
        if report.records > before:
            try:
                keys_seen.add(json.loads(data[offset:newline])["key"])
            except (json.JSONDecodeError, KeyError, TypeError):
                pass
        offset = newline + 1
    return -1, False


def _duplicate_findings(keys_seen: set[str], report: DoctorReport):
    # Duplicates (last-write-wins rewrites) are normal for an
    # append-only store; surface the compaction opportunity as info.
    dupes = report.records - len(keys_seen)
    if dupes > 0:
        return [
            DoctorFinding(
                severity="info",
                kind="duplicate-keys",
                detail=(
                    f"{dupes} record(s) are superseded rewrites "
                    "(harmless; last write wins)"
                ),
            )
        ]
    return []


def _cross_check(run_dir: pathlib.Path, report: DoctorReport) -> None:
    """Validate the ledgers beside the store against it."""
    from repro.campaign.store import TrialStore
    from repro.obs.telemetry import read_telemetry, telemetry_path

    quarantined, q_skipped = read_quarantine(run_dir)
    report.quarantine_records = len(quarantined)
    if q_skipped:
        report.findings.append(
            DoctorFinding(
                severity="warn",
                kind="quarantine-corrupt",
                detail=f"{q_skipped} unreadable quarantine line(s)",
            )
        )
    if quarantined:
        store = TrialStore(run_dir)
        recovered = [q for q in quarantined if store.get(q.key) is not None]
        if recovered:
            report.findings.append(
                DoctorFinding(
                    severity="info",
                    kind="quarantine-recovered",
                    detail=(
                        f"{len(recovered)} quarantined trial(s) have good "
                        "store records — a later session recovered them"
                    ),
                )
            )
    t_path = telemetry_path(run_dir)
    if t_path.exists():
        records, t_skipped = read_telemetry(t_path)
        report.telemetry_records = len(records)
        for rec in records:
            if rec.kind == "trial" and rec.data.get("status") == "executed":
                backend = str(rec.data.get("backend", "unrecorded"))
                report.backend_counts[backend] = (
                    report.backend_counts.get(backend, 0) + 1
                )
        if t_skipped:
            report.findings.append(
                DoctorFinding(
                    severity="warn",
                    kind="telemetry-corrupt",
                    detail=f"{t_skipped} unreadable telemetry line(s)",
                )
            )


def _store_label(run_dir: pathlib.Path, store_files: list[pathlib.Path]) -> str:
    if len(store_files) == 1:
        return str(store_files[0])
    return f"{run_dir} ({len(store_files)} store files)"


def _scan_all(
    store_files: list[pathlib.Path], report: DoctorReport, *, repair: bool
) -> list[str]:
    """Scan every store file, healing defective tails when *repair*.

    Returns the repair actions taken (the caller rescans after any).
    """
    actions: list[str] = []
    keys_seen: set[str] = set()
    for path in store_files:
        tail_offset, tail_torn = _scan_store(path, report, keys_seen)
        if repair and tail_offset >= 0:
            if tail_torn:
                with open(path, "ab") as fh:
                    fh.truncate(tail_offset)
                actions.append(
                    f"{path.name}: truncated torn tail at byte offset {tail_offset}"
                )
            else:
                with open(path, "ab") as fh:
                    fh.write(b"\n")
                actions.append(
                    f"{path.name}: terminated the final record with a newline"
                )
    report.findings.extend(_duplicate_findings(keys_seen, report))
    return actions


def diagnose(run_dir: "str | os.PathLike", *, repair: bool = False) -> DoctorReport:
    """Scan (and with *repair*, heal) a run directory.

    Both store layouts are understood: the single ``trials.jsonl`` and
    the sharded ``trials-NN.jsonl`` set the campaign service writes —
    every file :func:`~repro.campaign.store.discover_store_files`
    reports is scanned, and findings name the file they are in.

    Repair is conservative: it truncates a torn tail, terminates an
    unterminated-but-complete one, and touches nothing else. After a
    successful repair the store is rescanned so the returned report —
    and the CLI's exit code — describe the *healed* state.
    """
    run_dir = pathlib.Path(run_dir)
    store_files = discover_store_files(run_dir)
    label = (
        _store_label(run_dir, store_files)
        if store_files
        else str(run_dir / _STORE_FILENAME)
    )
    report = DoctorReport(run_dir=str(run_dir), store_path=label)
    if not store_files:
        report.findings.append(
            DoctorFinding(
                severity="error",
                kind="no-store",
                detail=f"no {_STORE_FILENAME} or trial shards under {run_dir}",
            )
        )
        return report

    actions = _scan_all(store_files, report, repair=repair)
    if actions:
        # Rescan: the report (and exit code) must describe the healed
        # store, and the tail repairs may not be the only findings.
        report = DoctorReport(run_dir=str(run_dir), store_path=label)
        _scan_all(store_files, report, repair=False)
        report.repairs.extend(actions)
    _cross_check(run_dir, report)
    return report
