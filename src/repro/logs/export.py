"""CSV/JSON round-trip for blockchain logs.

The paper's preprocessing step saves the chain as JSON and converts the
cleaned log to CSV; these functions reproduce both formats so that
exported logs can be re-analyzed (or shared) without the simulator.
Structured cells (args, read-write sets) are JSON-encoded inside the CSV.
:class:`CsvLog` reads a CSV log one row at a time, so an analysis can
fold its records in without ever holding the record list.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Iterator

from repro.fabric.transaction import TxStatus, TxType
from repro.logs.blockchain_log import BlockchainLog, ChannelConfig, LogRecord

#: CSV column order; stable so downstream tooling can rely on it.  Files
#: written before ``attempt`` was added end at ``contract``; they still
#: read, every record as a first attempt (as JSON logs without the key).
CSV_COLUMNS = (
    "commit_order",
    "tx_id",
    "client_timestamp",
    "activity",
    "args",
    "endorsers",
    "invoker",
    "invoker_org",
    "read_keys",
    "write_keys",
    "writes",
    "read_versions",
    "range_reads",
    "status",
    "tx_type",
    "block_number",
    "block_position",
    "commit_time",
    "contract",
    "attempt",
)


def _record_to_dict(record: LogRecord) -> dict[str, Any]:
    return {
        "commit_order": record.commit_order,
        "tx_id": record.tx_id,
        "client_timestamp": record.client_timestamp,
        "activity": record.activity,
        "args": list(record.args),
        "endorsers": list(record.endorsers),
        "invoker": record.invoker,
        "invoker_org": record.invoker_org,
        "read_keys": list(record.read_keys),
        "write_keys": list(record.write_keys),
        "writes": record.writes,
        "read_versions": {key: list(value) for key, value in record.read_versions.items()},
        "range_reads": [list(bounds) for bounds in record.range_reads],
        "status": record.status.value,
        "tx_type": record.tx_type.value,
        "block_number": record.block_number,
        "block_position": record.block_position,
        "commit_time": record.commit_time,
        "contract": record.contract,
        "attempt": record.attempt,
    }


def _record_from_dict(data: dict[str, Any]) -> LogRecord:
    return LogRecord(
        commit_order=int(data["commit_order"]),
        tx_id=str(data["tx_id"]),
        client_timestamp=float(data["client_timestamp"]),
        activity=str(data["activity"]),
        args=tuple(data["args"]),
        endorsers=tuple(data["endorsers"]),
        invoker=str(data["invoker"]),
        invoker_org=str(data["invoker_org"]),
        read_keys=tuple(data["read_keys"]),
        write_keys=tuple(data["write_keys"]),
        writes=dict(data["writes"]),
        read_versions={key: (int(v[0]), int(v[1])) for key, v in data["read_versions"].items()},
        range_reads=tuple((str(b[0]), str(b[1])) for b in data.get("range_reads", [])),
        status=TxStatus(data["status"]),
        tx_type=TxType(data["tx_type"]),
        block_number=int(data["block_number"]),
        block_position=int(data.get("block_position", -1)),
        commit_time=float(data["commit_time"]),
        contract=str(data.get("contract", "contract")),
        attempt=int(data.get("attempt", 1)),
    )


def log_to_json(log: BlockchainLog, path: str | Path) -> None:
    """Write the full log (config + records) as one JSON document."""
    document = {
        "config": {
            "block_count": log.config.block_count,
            "block_timeout": log.config.block_timeout,
            "block_bytes": log.config.block_bytes,
            "endorsement_policy": log.config.endorsement_policy,
        },
        "interval_seconds": log.interval_seconds,
        "records": [_record_to_dict(record) for record in log.records],
    }
    Path(path).write_text(json.dumps(document, indent=1))


def log_from_json(path: str | Path) -> BlockchainLog:
    """Read a log written by :func:`log_to_json` (records listed in full)."""
    document = json.loads(Path(path).read_text())
    config = ChannelConfig(
        block_count=int(document["config"]["block_count"]),
        block_timeout=float(document["config"]["block_timeout"]),
        block_bytes=int(document["config"]["block_bytes"]),
        endorsement_policy=str(document["config"]["endorsement_policy"]),
    )
    records = [_record_from_dict(item) for item in document["records"]]
    return BlockchainLog(
        records=records,
        config=config,
        interval_seconds=float(document.get("interval_seconds", 1.0)),
    )


def log_to_csv(log: BlockchainLog, path: str | Path) -> None:
    """Write records as CSV; the config travels in a ``#config`` comment row."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "#config",
                log.config.block_count,
                log.config.block_timeout,
                log.config.block_bytes,
                log.config.endorsement_policy,
                log.interval_seconds,
            ]
        )
        writer.writerow(CSV_COLUMNS)
        for record in log.records:
            data = _record_to_dict(record)
            writer.writerow(
                [
                    json.dumps(data[column]) if isinstance(data[column], (list, dict)) else data[column]
                    for column in CSV_COLUMNS
                ]
            )


def log_from_csv(path: str | Path) -> BlockchainLog:
    """Read a whole CSV log into memory (see :class:`CsvLog`)."""
    source = CsvLog(path)
    return BlockchainLog(
        records=list(source),
        config=source.config,
        interval_seconds=source.interval_seconds,
    )


#: Value -> member lookups; a miss calls the enum, which raises its own
#: ``ValueError`` for an unknown value.
_STATUSES = {status.value: status for status in TxStatus}
_TX_TYPES = {tx_type.value: tx_type for tx_type in TxType}
_scan_once = json.JSONDecoder().scan_once


def _json_cell(cell: str) -> Any:
    """Decode one JSON cell with a single C-level scan.

    A cell the scan cannot decode, or does not consume whole (padding,
    trailing data), goes through ``json.loads``: a padded cell still
    reads and a malformed one raises the decoder's own error.
    """
    try:
        value, end = _scan_once(cell, 0)
    except (StopIteration, ValueError):
        return json.loads(cell)
    return value if end == len(cell) else json.loads(cell)


class CsvLog:
    """A CSV log read row by row: the config on open, records per pass.

    Iterating opens the file and yields one :class:`LogRecord` per row,
    so a consumer that folds records in as they come
    (:meth:`repro.core.recommender.BlockOptR.analyze_log`) never holds a
    record list.  ``len()`` is the number of records the latest pass has
    read, without reading the file again.  A row whose cell count
    differs from the header's raises ``ValueError`` naming its line.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        with open(self.path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            columns = tuple(next(reader, ()))
        if len(header) < 5 or header[0] != "#config":
            raise ValueError(f"{path}: missing #config header row")
        self.config = ChannelConfig(
            block_count=int(header[1]),
            block_timeout=float(header[2]),
            block_bytes=int(header[3]),
            endorsement_policy=header[4],
        )
        self.interval_seconds = float(header[5]) if len(header) > 5 else 1.0
        if columns not in (CSV_COLUMNS, CSV_COLUMNS[:-1]):
            raise ValueError(f"{path}: unexpected columns {list(columns)}")
        self._width = len(columns)
        self._read = 0

    def __len__(self) -> int:
        return self._read

    def __iter__(self) -> Iterator[LogRecord]:
        width = self._width
        has_attempt = width == len(CSV_COLUMNS)
        cell = _json_cell
        self._read = 0
        with open(self.path, newline="") as handle:
            reader = csv.reader(handle)
            next(reader)  # the #config row
            next(reader)  # the column names
            for row in reader:
                if len(row) != width:
                    raise ValueError(
                        f"{self.path}: line {reader.line_num}: {len(row)} cells, "
                        f"the header has {width}"
                    )
                # Cells in CSV_COLUMNS order; conversions as _record_from_dict.
                record = LogRecord(
                    commit_order=int(row[0]),
                    tx_id=row[1],
                    client_timestamp=float(row[2]),
                    activity=row[3],
                    args=tuple(cell(row[4])),
                    endorsers=tuple(cell(row[5])),
                    invoker=row[6],
                    invoker_org=row[7],
                    read_keys=tuple(cell(row[8])),
                    write_keys=tuple(cell(row[9])),
                    writes=dict(cell(row[10])),
                    read_versions={
                        key: (int(v[0]), int(v[1])) for key, v in cell(row[11]).items()
                    },
                    range_reads=tuple((str(b[0]), str(b[1])) for b in cell(row[12])),
                    status=_STATUSES.get(row[13]) or TxStatus(row[13]),
                    tx_type=_TX_TYPES.get(row[14]) or TxType(row[14]),
                    block_number=int(row[15]),
                    block_position=int(row[16]),
                    commit_time=float(row[17]),
                    contract=row[18],
                    attempt=int(row[19]) if has_attempt else 1,
                )
                self._read += 1
                yield record
