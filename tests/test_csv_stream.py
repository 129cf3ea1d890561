"""The streamed CSV path: one decode per JSON cell, one pass, no record list.

``CsvLog`` reads a CSV log row by row and ``BlockOptR.analyze_file``
appends each record to one column table as it is read.  These tests
hold it to the JSON reader (whose ``_record_from_dict`` is the independent
reference) and to the extracted ledger log on all five use cases, check
that malformed rows still fail, and count the live records during a pass.
"""

from __future__ import annotations

import csv
import gc
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.experiments import make_usecase
from repro.core import BlockOptR, render_report
from repro.fabric.network import run_workload
from repro.logs import (
    LogRecord,
    RecordTable,
    extract_blockchain_log,
    log_from_csv,
    log_from_json,
)
from repro.logs.export import CSV_COLUMNS, CsvLog, _json_cell, log_to_csv, log_to_json

USECASES = ("scm", "drm", "ehr", "voting", "loan")


def _usecase_log(usecase: str, total_transactions: int):
    config, family, requests = make_usecase(
        usecase, total_transactions=total_transactions, seed=7
    )()
    network, _ = run_workload(config, family.deploy().contracts, requests)
    return extract_blockchain_log(network)


@pytest.fixture(scope="module")
def usecase_logs(tmp_path_factory):
    """Per use case: the extracted 600-tx log and its CSV and JSON exports."""
    out = tmp_path_factory.mktemp("usecase-logs")
    logs = {}
    for usecase in USECASES:
        log = _usecase_log(usecase, 600)
        log_to_csv(log, out / f"{usecase}.csv")
        log_to_json(log, out / f"{usecase}.json")
        logs[usecase] = (log, out / f"{usecase}.csv", out / f"{usecase}.json")
    return logs


@pytest.mark.parametrize("usecase", USECASES)
def test_csv_json_and_extracted_records_agree(usecase_logs, usecase):
    log, csv_path, json_path = usecase_logs[usecase]
    from_csv = log_from_csv(csv_path)
    from_json = log_from_json(json_path)
    assert from_csv.records == from_json.records == log.records
    assert from_csv.config == from_json.config == log.config
    assert from_csv.interval_seconds == log.interval_seconds


@pytest.mark.parametrize("usecase", USECASES)
def test_analyze_file_matches_analyze_log(usecase_logs, usecase):
    log, csv_path, _ = usecase_logs[usecase]
    streamed = BlockOptR().analyze_file(csv_path)
    batch = BlockOptR().analyze_log(log)
    assert isinstance(streamed.log, CsvLog)
    assert len(streamed.log) == len(log.records)
    assert streamed.log.config == log.config
    # The key dicts' order follows frozenset iteration, which changes
    # between processes; == compares them as mappings.
    assert streamed.metrics == batch.metrics
    assert streamed.recommendations == batch.recommendations
    assert streamed.event_log.derivation == batch.event_log.derivation
    assert streamed.event_log.events == batch.event_log.events
    assert render_report(streamed, include_insights=True) == render_report(
        batch, include_insights=True
    )


def test_csv_analysis_holds_no_record_list(tmp_path, monkeypatch):
    """Live ``LogRecord`` objects, sampled every 500 records of a pass,
    stay at the one or two in flight (the whole log at the parent)."""
    path = tmp_path / "voting.csv"
    log_to_csv(_usecase_log("voting", 10_000), path)
    gc.collect()
    baseline = _live_records()
    samples = []
    consumed = 0
    original = RecordTable.consume

    def consume(self, record):
        nonlocal consumed
        consumed += 1
        if consumed % 500 == 0:
            samples.append(_live_records() - baseline)
        original(self, record)

    monkeypatch.setattr(RecordTable, "consume", consume)
    report = BlockOptR().analyze_file(path)
    assert len(report.log) == 6_002
    assert len(samples) == 12
    assert max(samples) <= 2, samples


def _live_records() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is LogRecord)


class TestMalformedRows:
    @pytest.fixture()
    def scm_rows(self, usecase_logs, tmp_path):
        """The scm CSV as rows, and a writer for an edited copy."""
        with open(usecase_logs["scm"][1], newline="") as handle:
            rows = list(csv.reader(handle))

        def write(edited) -> Path:
            path = tmp_path / "edited.csv"
            with open(path, "w", newline="") as handle:
                csv.writer(handle).writerows(edited)
            return path

        return rows, write

    @staticmethod
    def _edit(rows, **cells):
        """Rows with the first record's named cells replaced."""
        record = list(rows[2])
        for column, value in cells.items():
            record[CSV_COLUMNS.index(column)] = value
        return [rows[0], rows[1], record, *rows[3:]]

    @pytest.mark.parametrize(
        "cells",
        [
            {"args": '["x"], ["p0"', "endorsers": '"p1"]'},
            {"args": '["x"] ["y"]'},
            {"args": ""},
            {"status": "bogus"},
        ],
        ids=["json-split-across-cells", "extra-value", "empty-json-cell", "unknown-status"],
    )
    def test_malformed_cell_raises(self, scm_rows, cells):
        rows, write = scm_rows
        with pytest.raises(ValueError):
            log_from_csv(write(self._edit(rows, **cells)))

    def test_padded_json_cell_reads(self, scm_rows):
        rows, write = scm_rows
        args = rows[2][CSV_COLUMNS.index("args")]
        loaded = log_from_csv(write(self._edit(rows, args=f"  {args} ")))
        assert loaded.records == log_from_csv(write(rows)).records

    @pytest.mark.parametrize("change", [-2, 1], ids=["truncated", "over-long"])
    def test_wrong_cell_count_names_file_and_line(self, scm_rows, change):
        rows, write = scm_rows
        record = rows[4][:change] if change < 0 else rows[4] + ["extra"] * change
        path = write([*rows[:4], record, *rows[5:]])
        with pytest.raises(ValueError, match=rf"{path.name}: line 5: "):
            log_from_csv(path)


#: Short strings over JSON's alphabet: mostly malformed, some valid.
_JSON_TEXT = st.text(alphabet='[]{}",:. 0123456789-+eEtrufalsnNI\\x', max_size=12)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=8,
)


@settings(max_examples=300)
@given(
    st.one_of(_JSON_TEXT, _JSON_VALUES.map(json.dumps)),
    st.sampled_from(["", " ", "\n", " \t"]),
)
def test_json_cell_reads_as_json_loads(text, pad):
    """Whatever ``json.loads`` returns or raises, one cell decode does too."""
    cell = pad + text + pad
    try:
        expected = json.loads(cell)
    except ValueError as exc:
        with pytest.raises(ValueError) as excinfo:
            _json_cell(cell)
        assert str(excinfo.value) == str(exc)
    else:
        assert repr(_json_cell(cell)) == repr(expected)
