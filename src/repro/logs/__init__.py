"""Blockchain log pipeline (paper Sections 4.1-4.2).

``extract`` reads the ledger of a simulated network one block at a time
(:class:`ChainLog`), drops configuration transactions, and lists the
nine-attribute :class:`BlockchainLog`;
``export`` round-trips it through CSV/JSON (the preprocessed log the
paper releases for process-mining research) and streams a CSV log row by
row (:class:`CsvLog`); ``eventlog`` derives CaseIDs from a common element
and yields the traces process mining consumes.  An analysis keeps the log
as columns (:class:`RecordTable`).
"""

from repro.logs.blockchain_log import (
    BlockchainLog,
    ChannelConfig,
    LogRecord,
    RecordTable,
    interval_index,
    record_from_transaction,
    validate_record,
)
from repro.logs.eventlog import (
    CaseIdDerivation,
    Event,
    EventLog,
    derive_case_attribute,
)
from repro.logs.export import (
    CsvLog,
    log_from_csv,
    log_from_json,
    log_to_csv,
    log_to_json,
)
from repro.logs.extract import ChainLog, extract_blockchain_log

__all__ = [
    "BlockchainLog",
    "CaseIdDerivation",
    "ChainLog",
    "ChannelConfig",
    "CsvLog",
    "Event",
    "EventLog",
    "LogRecord",
    "RecordTable",
    "derive_case_attribute",
    "extract_blockchain_log",
    "interval_index",
    "record_from_transaction",
    "validate_record",
    "log_from_csv",
    "log_from_json",
    "log_to_csv",
    "log_to_json",
]
