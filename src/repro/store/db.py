"""The indexed bug database: a SQLite derived view of the campaign journal.

The JSONL journal (:mod:`repro.store.journal`) is the campaign's write-ahead
log: append-only, crash-safe, and the single source of truth.  It is also
*replay-only* -- every status check, resume lookup or cross-campaign query
re-parses the whole log and materializes every unit result in memory, which
collapses at the "weeks of continuous campaigns" scale the roadmap targets.

:class:`CampaignDatabase` is the queryable half of that contract, modeled on
diopter's content-hash-keyed compressed blob columns:

* ``sources`` -- every distinct program text exactly once, keyed by its
  SHA-256 and stored zlib-compressed (journals repeat trigger programs
  across bug reports, units and generations; the database never does);
* ``records`` -- the imported journal lines themselves, one row per parsed
  record in journal order, with program texts swapped for source references
  (:func:`~repro.store.serialize.externalize_programs`) and the remaining
  JSON zlib-compressed.  Indexed by unit key, so a resume status check is
  one index probe instead of a full replay.  The import is *exact*:
  restoring a row and re-encoding it reproduces the journal line
  byte-for-byte, which is what makes export a true inverse;
* ``bugs`` / ``triage`` / ``quarantine`` -- derived query tables rebuilt on
  every :meth:`refresh_views`, mirroring the schema-2 journal records: the
  deduplicated merged bug database with indexed (kind, lineage,
  ``introduced_in``, frontend, campaign-fingerprint) columns, the
  field-wise-merged triage outcomes, and the last-wins quarantine
  decisions.

The database is a **derived view, never the truth**: it can be deleted at
any time and rebuilt from the journal with :meth:`attach_journal` (the
``CampaignStore.compact()`` entry point does exactly that on a corrupt or
missing file).  Import is incremental -- each journal row remembers the
byte offset and content hash of its imported prefix, so compacting a grown
journal parses only the tail, and compacting an unchanged one is a no-op --
and idempotent: importing the same journal twice leaves the database
identical.  Several journals (distinct campaigns included) can be attached
into one database under distinct labels for cross-campaign queries; the
merge algebra is only ever applied *within* one journal, exactly as an
in-memory replay would.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.store.journal import (
    QuarantineRecord,
    UnitRecord,
    complete_prefix_length,
    fold_quarantine_records,
    fold_triage_records,
    fold_unit_records,
)
from repro.store.serialize import (
    StoreFormatError,
    bug_report_from_json,
    encode_key,
    externalize_programs,
    fingerprint_sha,
    internalize_programs,
)
from repro.store.store import (
    StoreError,
    StoreMismatchError,
    merged_result_from_records,
)

#: Database schema version; bumped on incompatible table-shape changes.
#: A mismatching file is treated like a corrupt one: delete and rebuild
#: from the journal (the database holds no information the journal lacks).
DB_SCHEMA = 1

#: zlib level for payloads and sources: written once, read many.
_COMPRESSION_LEVEL = 9

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS journals (
    id              INTEGER PRIMARY KEY,
    label           TEXT NOT NULL UNIQUE,
    fingerprint     TEXT NOT NULL,
    fingerprint_sha TEXT NOT NULL,
    offset          INTEGER NOT NULL DEFAULT 0,
    prefix_sha      TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS sources (
    sha  TEXT PRIMARY KEY,
    data BLOB NOT NULL,
    size INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS records (
    journal_id INTEGER NOT NULL REFERENCES journals(id),
    seq        INTEGER NOT NULL,
    type       TEXT NOT NULL,
    ukey       TEXT,
    name       TEXT,
    versions   TEXT,
    payload    BLOB NOT NULL,
    PRIMARY KEY (journal_id, seq)
);
CREATE INDEX IF NOT EXISTS idx_records_unit ON records(journal_id, type, ukey);
CREATE TABLE IF NOT EXISTS bugs (
    journal_id        INTEGER NOT NULL REFERENCES journals(id),
    bug_id            TEXT NOT NULL,
    kind              TEXT NOT NULL,
    compiler          TEXT NOT NULL,
    lineage           TEXT NOT NULL,
    opt_level         INTEGER NOT NULL,
    signature         TEXT NOT NULL,
    source_name       TEXT NOT NULL,
    component         TEXT NOT NULL,
    priority          TEXT NOT NULL,
    introduced_in     TEXT,
    frontend          TEXT NOT NULL,
    fingerprint_sha   TEXT NOT NULL,
    duplicate_count   INTEGER NOT NULL,
    fault_ids         TEXT NOT NULL,
    affected_versions TEXT NOT NULL,
    dedup_key         TEXT,
    test_program_sha  TEXT NOT NULL REFERENCES sources(sha),
    sort_rank         INTEGER NOT NULL,
    PRIMARY KEY (journal_id, bug_id)
);
CREATE INDEX IF NOT EXISTS idx_bugs_kind ON bugs(kind);
CREATE INDEX IF NOT EXISTS idx_bugs_lineage ON bugs(lineage);
CREATE INDEX IF NOT EXISTS idx_bugs_introduced ON bugs(introduced_in);
CREATE INDEX IF NOT EXISTS idx_bugs_frontend ON bugs(frontend);
CREATE INDEX IF NOT EXISTS idx_bugs_fingerprint ON bugs(fingerprint_sha);
CREATE INDEX IF NOT EXISTS idx_bugs_id ON bugs(bug_id);
CREATE TABLE IF NOT EXISTS triage (
    journal_id    INTEGER NOT NULL REFERENCES journals(id),
    bug_id        TEXT NOT NULL,
    kind          TEXT NOT NULL,
    reduced_sha   TEXT REFERENCES sources(sha),
    introduced_in TEXT,
    stats         TEXT NOT NULL,
    PRIMARY KEY (journal_id, bug_id)
);
CREATE TABLE IF NOT EXISTS quarantine (
    journal_id INTEGER NOT NULL REFERENCES journals(id),
    ukey       TEXT NOT NULL,
    name       TEXT NOT NULL,
    start      INTEGER NOT NULL,
    stop       INTEGER NOT NULL,
    indices    TEXT,
    "primary"  INTEGER NOT NULL,
    kind       TEXT NOT NULL,
    attempts   INTEGER NOT NULL,
    detail     TEXT NOT NULL,
    PRIMARY KEY (journal_id, ukey)
);
"""


@dataclass(frozen=True)
class ImportStats:
    """What one :meth:`CampaignDatabase.attach_journal` call did."""

    label: str
    rebuilt: bool
    records_imported: int
    records_total: int
    sources_added: int


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CampaignDatabase:
    """One SQLite file holding the indexed view of one or more journals."""

    def __init__(self, path: str | Path, *, create: bool = False) -> None:
        self.path = Path(path)
        if not create and not self.path.exists():
            raise StoreError(f"no campaign database at {self.path} (run compact first)")
        self._conn = sqlite3.connect(self.path)
        self._conn.row_factory = sqlite3.Row
        self._known_sources: set[str] = set()
        try:
            if create:
                # Small pages: the view must beat the journal on disk even
                # for modest campaigns, and 4 KiB pages waste most of their
                # space on zlib-compressed rows a few hundred bytes long.
                self._conn.execute("PRAGMA page_size = 512")
                self._conn.executescript(_SCHEMA_SQL)
                self._conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema', ?)",
                    (str(DB_SCHEMA),),
                )
                self._conn.commit()
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema'"
            ).fetchone()
            if row is None or row["value"] != str(DB_SCHEMA):
                raise StoreError(
                    f"{self.path} is not a schema-{DB_SCHEMA} campaign database; "
                    "delete it and rebuild from the journal"
                )
        except sqlite3.Error as error:
            self._conn.close()
            raise StoreError(f"unreadable campaign database {self.path}: {error}") from error
        except StoreError:
            self._conn.close()
            raise

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path) -> "CampaignDatabase":
        """Open an existing database, validating its schema."""
        return cls(path)

    @classmethod
    def create(cls, path: str | Path) -> "CampaignDatabase":
        """Create (or open) a database, laying down the schema."""
        return cls(path, create=True)

    @classmethod
    def open_or_rebuild(cls, path: str | Path) -> tuple["CampaignDatabase", bool]:
        """Open the database, deleting and recreating it when unusable.

        The recovery semantics of a derived view: a missing, truncated,
        garbage or foreign-schema file costs nothing but the rebuild --
        the journal holds everything.  Returns ``(database, rebuilt)``.
        """
        path = Path(path)
        if path.exists():
            try:
                return cls(path), False
            except StoreError:
                path.unlink()
        return cls(path, create=True), True

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- journals ----------------------------------------------------------

    def journals(self) -> list[sqlite3.Row]:
        return list(self._conn.execute("SELECT * FROM journals ORDER BY id"))

    def journal_id(self, label: str) -> int | None:
        row = self._conn.execute(
            "SELECT id FROM journals WHERE label = ?", (label,)
        ).fetchone()
        return None if row is None else row["id"]

    def journal_fingerprint(self, journal_id: int) -> dict[str, Any]:
        row = self._conn.execute(
            "SELECT fingerprint FROM journals WHERE id = ?", (journal_id,)
        ).fetchone()
        if row is None:
            raise StoreError(f"no journal {journal_id} in {self.path}")
        return json.loads(row["fingerprint"])

    def is_fresh(self, journal_path: str | Path, journal_id: int) -> bool:
        """Is this journal's imported prefix exactly the journal on disk?

        True when every complete line of the journal has been imported and
        the imported bytes still match (an append-only journal only ever
        grows; a truncation or rewrite fails the prefix hash).  A fresh
        database answers lookups *for* the journal; a stale one falls back
        to replay until the next compact.
        """
        row = self._conn.execute(
            "SELECT offset, prefix_sha FROM journals WHERE id = ?", (journal_id,)
        ).fetchone()
        if row is None:
            return False
        prefix = complete_prefix_length(journal_path)
        if prefix != row["offset"]:
            return False
        path = Path(journal_path)
        data = path.read_bytes()[:prefix] if path.exists() else b""
        return _sha256(data) == row["prefix_sha"]

    # -- import ------------------------------------------------------------

    def attach_journal(
        self, journal_path: str | Path, fingerprint: dict[str, Any], *, label: str
    ) -> ImportStats:
        """Import (the new tail of) one journal under ``label``.

        Idempotent and incremental: the journal row tracks the byte offset
        and hash of its imported, newline-terminated prefix, so an
        unchanged journal imports nothing, a grown one imports only the
        appended lines, and a truncated/rewritten one (hash mismatch) is
        re-imported from scratch.  Lines are parsed exactly as
        :func:`~repro.store.journal.read_journal` parses them -- torn or
        corrupt lines are skipped, never stored.

        Attaching a journal whose fingerprint differs from the one stored
        under the same label raises :class:`StoreMismatchError`: the
        database was compacted from a *different* campaign, and silently
        mixing the two would corrupt every cross-record invariant.  Delete
        the database to rebuild it from the journal of record.
        """
        fp_json = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
        row = self._conn.execute(
            "SELECT id, fingerprint, offset, prefix_sha FROM journals WHERE label = ?",
            (label,),
        ).fetchone()
        if row is not None and row["fingerprint"] != fp_json:
            raise StoreMismatchError(
                f"database {self.path} was compacted from a different campaign "
                f"(journal {label!r} fingerprint differs); delete the database "
                "to rebuild it from the journal"
            )
        if row is None:
            cursor = self._conn.execute(
                "INSERT INTO journals (label, fingerprint, fingerprint_sha, offset, prefix_sha)"
                " VALUES (?, ?, ?, 0, ?)",
                (label, fp_json, fingerprint_sha(fingerprint), _sha256(b"")),
            )
            journal_id, offset, prefix_sha = cursor.lastrowid, 0, _sha256(b"")
        else:
            journal_id, offset, prefix_sha = row["id"], row["offset"], row["prefix_sha"]

        path = Path(journal_path)
        data = path.read_bytes() if path.exists() else b""
        prefix = complete_prefix_length(journal_path)
        rebuilt = False
        if offset > len(data) or _sha256(data[:offset]) != prefix_sha:
            # The journal shrank or was rewritten under the same label
            # (e.g. a --fresh run): the imported rows describe bytes that
            # no longer exist, so this journal's slice is rebuilt whole.
            for table in ("records", "bugs", "triage", "quarantine"):
                self._conn.execute(
                    f"DELETE FROM {table} WHERE journal_id = ?", (journal_id,)
                )
            offset = 0
            rebuilt = True
        seq_row = self._conn.execute(
            "SELECT COALESCE(MAX(seq) + 1, 0) AS next FROM records WHERE journal_id = ?",
            (journal_id,),
        ).fetchone()
        seq = seq_row["next"]
        imported = 0
        sources_before = self._source_count()
        for payload in _parse_lines(data[offset:prefix]):
            self._insert_record(journal_id, seq, payload)
            seq += 1
            imported += 1
        self._conn.execute(
            "UPDATE journals SET offset = ?, prefix_sha = ? WHERE id = ?",
            (prefix, _sha256(data[:prefix]), journal_id),
        )
        self._conn.commit()
        total_row = self._conn.execute(
            "SELECT COUNT(*) AS n FROM records WHERE journal_id = ?", (journal_id,)
        ).fetchone()
        return ImportStats(
            label=label,
            rebuilt=rebuilt,
            records_imported=imported,
            records_total=total_row["n"],
            sources_added=self._source_count() - sources_before,
        )

    def _insert_record(self, journal_id: int, seq: int, payload: dict[str, Any]) -> None:
        rtype = payload.get("type")
        rtype = rtype if isinstance(rtype, str) else ""
        ukey = name = versions = None
        if rtype == "unit":
            ukey = payload.get("key")
            name = payload.get("name")
            raw_versions = payload.get("versions")
            if isinstance(raw_versions, list):
                versions = json.dumps(raw_versions, separators=(",", ":"))
        elif rtype == "quarantine":
            ukey = payload.get("key")
            name = payload.get("name")
        elif rtype == "triage":
            ukey = payload.get("bug_id")
        externalized = externalize_programs(payload, self._put_source)
        blob = zlib.compress(
            json.dumps(externalized, separators=(",", ":")).encode(), _COMPRESSION_LEVEL
        )
        self._conn.execute(
            "INSERT INTO records (journal_id, seq, type, ukey, name, versions, payload)"
            " VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                journal_id,
                seq,
                rtype,
                ukey if isinstance(ukey, str) else None,
                name if isinstance(name, str) else None,
                versions,
                blob,
            ),
        )

    # -- sources -----------------------------------------------------------

    def _put_source(self, text: str) -> str:
        raw = text.encode()
        sha = _sha256(raw)
        if sha in self._known_sources:
            return sha
        exists = self._conn.execute(
            "SELECT 1 FROM sources WHERE sha = ?", (sha,)
        ).fetchone()
        if exists is None:
            self._conn.execute(
                "INSERT INTO sources (sha, data, size) VALUES (?, ?, ?)",
                (sha, zlib.compress(raw, _COMPRESSION_LEVEL), len(raw)),
            )
        self._known_sources.add(sha)
        return sha

    def source_text(self, sha: str) -> str:
        row = self._conn.execute(
            "SELECT data FROM sources WHERE sha = ?", (sha,)
        ).fetchone()
        if row is None:
            raise StoreError(f"no source {sha} in {self.path}")
        return zlib.decompress(row["data"]).decode()

    def _source_count(self) -> int:
        return self._conn.execute("SELECT COUNT(*) AS n FROM sources").fetchone()["n"]

    def _restore_payload(self, blob: bytes) -> dict[str, Any]:
        return internalize_programs(
            json.loads(zlib.decompress(blob).decode()), self.source_text
        )

    # -- derived views -------------------------------------------------------

    def refresh_views(self) -> None:
        """Rebuild the ``bugs`` / ``triage`` / ``quarantine`` query tables.

        Derived from the imported records through exactly the journal's own
        fold/merge functions, one journal at a time -- the merge algebra is
        never applied across journals, so a database holding several
        campaigns answers per-campaign queries identically to replaying
        each journal alone.  ``bugs.sort_rank`` pins each journal's
        canonical report order (the order an in-memory replay reports).
        """
        for journal in self.journals():
            journal_id = journal["id"]
            for table in ("bugs", "triage", "quarantine"):
                self._conn.execute(
                    f"DELETE FROM {table} WHERE journal_id = ?", (journal_id,)
                )
            payloads = list(self._payloads(journal_id))
            merged = merged_result_from_records(
                fold_unit_records(payloads), fold_quarantine_records(payloads)
            )
            fingerprint = json.loads(journal["fingerprint"])
            frontend = str(fingerprint.get("frontend", ""))
            for rank, report in enumerate(merged.bugs.reports):
                self._conn.execute(
                    "INSERT INTO bugs (journal_id, bug_id, kind, compiler, lineage,"
                    " opt_level, signature, source_name, component, priority,"
                    " introduced_in, frontend, fingerprint_sha, duplicate_count,"
                    " fault_ids, affected_versions, dedup_key, test_program_sha, sort_rank)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        journal_id,
                        report.id,
                        report.kind.value,
                        report.compiler,
                        report.lineage,
                        int(report.opt_level),
                        report.signature,
                        report.source_name,
                        report.component,
                        report.priority,
                        report.introduced_in,
                        frontend,
                        journal["fingerprint_sha"],
                        report.duplicate_count,
                        json.dumps(list(report.fault_ids), separators=(",", ":")),
                        json.dumps(list(report.affected_versions), separators=(",", ":")),
                        json.dumps(encode_key(report.dedup_key), separators=(",", ":")),
                        self._put_source(report.test_program),
                        rank,
                    ),
                )
            for bug_id, record in sorted(fold_triage_records(payloads).items()):
                self._conn.execute(
                    "INSERT INTO triage (journal_id, bug_id, kind, reduced_sha,"
                    " introduced_in, stats) VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        journal_id,
                        bug_id,
                        record.kind,
                        (
                            self._put_source(record.reduced_program)
                            if record.reduced_program is not None
                            else None
                        ),
                        record.introduced_in,
                        json.dumps(record.stats, separators=(",", ":")),
                    ),
                )
            for key, record in sorted(fold_quarantine_records(payloads).items()):
                self._conn.execute(
                    'INSERT INTO quarantine (journal_id, ukey, name, start, stop,'
                    ' indices, "primary", kind, attempts, detail)'
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        journal_id,
                        key,
                        record.name,
                        record.start,
                        record.stop,
                        (
                            json.dumps(list(record.indices), separators=(",", ":"))
                            if record.indices is not None
                            else None
                        ),
                        int(record.primary),
                        record.kind,
                        record.attempts,
                        record.detail,
                    ),
                )
        self._conn.commit()

    def _payloads(self, journal_id: int) -> Iterator[dict[str, Any]]:
        for row in self._conn.execute(
            "SELECT payload FROM records WHERE journal_id = ? ORDER BY seq",
            (journal_id,),
        ):
            yield self._restore_payload(row["payload"])

    # -- lookups -------------------------------------------------------------

    def unit_records_for(self, journal_id: int, key: str) -> list[UnitRecord]:
        """One unit key's journaled records: an index probe, not a replay."""
        records = []
        for row in self._conn.execute(
            "SELECT payload FROM records"
            " WHERE journal_id = ? AND type = 'unit' AND ukey = ? ORDER BY seq",
            (journal_id, key),
        ):
            try:
                records.append(UnitRecord.from_json(self._restore_payload(row["payload"])))
            except StoreFormatError:
                continue
        return records

    def quarantine_map(self, journal_id: int) -> dict[str, QuarantineRecord]:
        """The effective quarantine record per unit key, from the derived table."""
        records: dict[str, QuarantineRecord] = {}
        for row in self._conn.execute(
            "SELECT * FROM quarantine WHERE journal_id = ?", (journal_id,)
        ):
            indices = row["indices"]
            records[row["ukey"]] = QuarantineRecord(
                key=row["ukey"],
                name=row["name"],
                start=row["start"],
                stop=row["stop"],
                indices=tuple(json.loads(indices)) if indices is not None else None,
                primary=bool(row["primary"]),
                kind=row["kind"],
                attempts=row["attempts"],
                detail=row["detail"],
            )
        return records

    def load_unit_records(self, journal_id: int) -> dict[str, list[UnitRecord]]:
        """Every unit record of one journal, grouped by key (full decode)."""
        return fold_unit_records(self._payloads(journal_id))

    def merged_result(self, journal_id: int):
        """Replay one journal's records from the database.

        Field-for-field identical to ``CampaignStore.merged_result()`` over
        the journal file: both sides fold the same payload stream through
        the same merge algebra.
        """
        payloads = list(self._payloads(journal_id))
        return merged_result_from_records(
            fold_unit_records(payloads), fold_quarantine_records(payloads)
        )

    def status(self, journal_id: int) -> dict[str, Any]:
        """The journal's progress summary, answered from indexes."""
        units = self._conn.execute(
            "SELECT COUNT(*) AS n, COUNT(DISTINCT ukey) AS distinct_n"
            " FROM records WHERE journal_id = ? AND type = 'unit'",
            (journal_id,),
        ).fetchone()
        quarantined = self._conn.execute(
            "SELECT COUNT(*) AS n FROM quarantine WHERE journal_id = ?", (journal_id,)
        ).fetchone()
        checkpoint_row = self._conn.execute(
            "SELECT payload FROM records"
            " WHERE journal_id = ? AND type = 'checkpoint' ORDER BY seq DESC LIMIT 1",
            (journal_id,),
        ).fetchone()
        return {
            "units_journaled": units["n"],
            "distinct_units": units["distinct_n"],
            "quarantined_units": quarantined["n"],
            "last_checkpoint": (
                self._restore_payload(checkpoint_row["payload"])
                if checkpoint_row is not None
                else None
            ),
        }

    # -- queries -------------------------------------------------------------

    def query_bugs(
        self,
        *,
        kind: str | None = None,
        lineage: str | None = None,
        introduced_in: str | None = None,
        frontend: str | None = None,
        fingerprint: str | None = None,
        label: str | None = None,
    ) -> list[tuple[str, Any]]:
        """Filtered bug reports as ``(journal label, BugReport)`` pairs.

        ``introduced_in`` matches the *effective* attribution: the merged
        unit-record attribution when present, else the journaled triage
        attribution -- knowledge is coalesced exactly as
        ``load_triage_records`` merges it, never overridden.  Results come
        back in each journal's canonical replay order (``sort_rank``),
        journals in attach-independent label order, so the listing for any
        single journal is exactly what an in-memory replay reports.
        """
        sql = (
            "SELECT b.*, j.label AS journal_label,"
            " COALESCE(b.introduced_in, t.introduced_in) AS effective_introduced_in"
            " FROM bugs b"
            " JOIN journals j ON j.id = b.journal_id"
            " LEFT JOIN triage t ON t.journal_id = b.journal_id AND t.bug_id = b.bug_id"
        )
        clauses, params = [], []
        for column, value in (
            ("b.kind", kind),
            ("b.lineage", lineage),
            ("b.frontend", frontend),
            ("b.fingerprint_sha", fingerprint),
            ("j.label", label),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if introduced_in is not None:
            clauses.append("COALESCE(b.introduced_in, t.introduced_in) = ?")
            params.append(introduced_in)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY j.label, b.sort_rank"
        results = []
        for row in self._conn.execute(sql, params):
            payload = {
                "id": row["bug_id"],
                "kind": row["kind"],
                "compiler": row["compiler"],
                "lineage": row["lineage"],
                "opt_level": row["opt_level"],
                "signature": row["signature"],
                "test_program": self.source_text(row["test_program_sha"]),
                "source_name": row["source_name"],
                "component": row["component"],
                "priority": row["priority"],
                "fault_ids": json.loads(row["fault_ids"]),
                "affected_versions": json.loads(row["affected_versions"]),
                "duplicate_count": row["duplicate_count"],
                "introduced_in": row["effective_introduced_in"],
                "dedup_key": json.loads(row["dedup_key"]),
            }
            results.append((row["journal_label"], bug_report_from_json(payload)))
        return results

    # -- export --------------------------------------------------------------

    def export_journal(self, out_path: str | Path, *, label: str | None = None) -> int:
        """Write the imported records back out as a JSONL journal.

        The inverse of :meth:`attach_journal`: records come out in import
        order with their program texts re-inlined, each line byte-identical
        to the journal line it was parsed from.  With ``label`` the export
        covers one journal; otherwise every attached journal in label
        order.  Returns the number of records written.
        """
        if label is not None:
            journal_ids = [self.journal_id(label)]
            if journal_ids[0] is None:
                raise StoreError(f"no journal {label!r} in {self.path}")
        else:
            journal_ids = [
                row["id"]
                for row in self._conn.execute("SELECT id FROM journals ORDER BY label")
            ]
        written = 0
        with open(out_path, "wb") as handle:
            for journal_id in journal_ids:
                for payload in self._payloads(journal_id):
                    handle.write(
                        json.dumps(payload, separators=(",", ":")).encode() + b"\n"
                    )
                    written += 1
        return written

    def vacuum(self) -> None:
        """Reclaim pages freed by view refreshes (compaction's last step)."""
        self._conn.commit()
        self._conn.execute("VACUUM")

    # -- observability -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Size and dedup accounting (the compaction-ratio numbers)."""
        counts = {
            table: self._conn.execute(f"SELECT COUNT(*) AS n FROM {table}").fetchone()["n"]
            for table in ("records", "sources", "bugs", "triage", "quarantine")
        }
        source_row = self._conn.execute(
            "SELECT COALESCE(SUM(size), 0) AS raw,"
            " COALESCE(SUM(LENGTH(data)), 0) AS stored FROM sources"
        ).fetchone()
        return {
            "db_bytes": self.path.stat().st_size if self.path.exists() else 0,
            "records": counts["records"],
            "sources": counts["sources"],
            "bugs": counts["bugs"],
            "triage": counts["triage"],
            "quarantine": counts["quarantine"],
            "source_bytes_raw": source_row["raw"],
            "source_bytes_stored": source_row["stored"],
        }

    def explain(self, sql: str, params: tuple = ()) -> list[str]:
        """EXPLAIN QUERY PLAN detail lines (index-usage assertions in tests)."""
        return [
            row["detail"]
            for row in self._conn.execute(f"EXPLAIN QUERY PLAN {sql}", params)
        ]


def _parse_lines(data: bytes) -> Iterator[dict[str, Any]]:
    """Parse journal bytes exactly as :func:`read_journal` parses the file."""
    for raw in data.split(b"\n"):
        line = raw.decode("utf-8", errors="replace").strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(payload, dict):
            yield payload


__all__ = ["DB_SCHEMA", "CampaignDatabase", "ImportStats"]
