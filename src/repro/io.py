"""Trace serialization: UNM-style text traces, NumPy archives, checkpoints.

The public UNM datasets ship as plain text, one event per line, one
file per process.  This module reads and writes that format (against an
explicit :class:`~repro.sequences.alphabet.Alphabet`) plus a compact
``.npz`` archive for whole labeled datasets, so corpora built here can
be exchanged with other tooling.

It also owns the **sweep checkpoint format**: an append-only JSONL file
with one completed performance-map cell per line.  Floats round-trip
through ``repr`` (Python's JSON encoder), so a cell read back from a
checkpoint compares bit-identical to the cell that was written — the
property ``SweepEngine.sweep(..., resume_from=...)`` relies on.

Checkpoint record schema (one JSON object per line)::

    {"detector": "stide", "anomaly_size": 3, "window_length": 5,
     "outcome": {"response_class": "capable", "max_in_span": 1.0,
                 "max_outside_span": 0.25, "span_start": 96,
                 "span_stop": 103, "spurious_alarms": 0}}
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.evaluation.performance_map import Cell, CellResult
from repro.evaluation.scoring import DetectionOutcome, ResponseClass
from repro.exceptions import CheckpointError, ReproError
from repro.runtime import telemetry
from repro.sequences.alphabet import Alphabet
from repro.syscalls.generator import LabeledTrace, SyscallDataset


class TraceIOError(ReproError):
    """A trace file could not be read or written."""


def write_trace_text(
    path: str | Path, stream: np.ndarray, alphabet: Alphabet
) -> None:
    """Write one trace as UNM-style text: one decoded symbol per line."""
    target = Path(path)
    symbols = alphabet.decode(np.asarray(stream).tolist())
    target.write_text("".join(f"{symbol}\n" for symbol in symbols))


def read_trace_text(path: str | Path, alphabet: Alphabet) -> np.ndarray:
    """Read a UNM-style text trace back into encoded codes.

    Symbols are parsed as the literal line text; integer-symbol
    alphabets (the paper corpus) are handled by trying ``int`` first.

    Raises:
        TraceIOError: if the file is missing or a line is not in the
            alphabet.
    """
    source = Path(path)
    if not source.exists():
        raise TraceIOError(f"trace file not found: {source}")
    codes = []
    for line_number, line in enumerate(source.read_text().splitlines(), 1):
        token = line.strip()
        if not token:
            continue
        symbol: object = token
        if token.lstrip("-").isdigit():
            symbol = int(token)
        if symbol not in alphabet:
            raise TraceIOError(
                f"{source}:{line_number}: symbol {token!r} not in alphabet"
            )
        codes.append(alphabet.encode_symbol(symbol))
    return np.asarray(codes, dtype=np.int64)


def save_dataset(path: str | Path, dataset: SyscallDataset) -> None:
    """Save a labeled dataset to one ``.npz`` archive."""
    target = Path(path)
    payload: dict[str, np.ndarray] = {
        "program_name": np.asarray(dataset.program_name),
        "alphabet": np.asarray([str(s) for s in dataset.alphabet.symbols]),
    }
    for split_name, traces in (
        ("training", dataset.training),
        ("test_normal", dataset.test_normal),
        ("test_intrusions", dataset.test_intrusions),
    ):
        payload[f"{split_name}_count"] = np.asarray(len(traces))
        for index, trace in enumerate(traces):
            payload[f"{split_name}_{index}_stream"] = trace.stream
            if trace.intrusion_region is not None:
                payload[f"{split_name}_{index}_region"] = np.asarray(
                    trace.intrusion_region
                )
                payload[f"{split_name}_{index}_exploit"] = np.asarray(
                    trace.exploit_name
                )
    np.savez_compressed(target, **payload)


def load_dataset(path: str | Path) -> SyscallDataset:
    """Load a dataset written by :func:`save_dataset`.

    Raises:
        TraceIOError: if the file is missing or malformed.
    """
    source = Path(path)
    if not source.exists():
        raise TraceIOError(f"dataset archive not found: {source}")
    try:
        with np.load(source, allow_pickle=False) as archive:
            alphabet = Alphabet(str(s) for s in archive["alphabet"])
            program_name = str(archive["program_name"])
            splits: dict[str, tuple[LabeledTrace, ...]] = {}
            for split_name in ("training", "test_normal", "test_intrusions"):
                count = int(archive[f"{split_name}_count"])
                traces = []
                for index in range(count):
                    stream = archive[f"{split_name}_{index}_stream"]
                    region_key = f"{split_name}_{index}_region"
                    if region_key in archive:
                        region = tuple(
                            int(v) for v in archive[region_key]
                        )
                        exploit = str(archive[f"{split_name}_{index}_exploit"])
                    else:
                        region, exploit = None, None
                    traces.append(
                        LabeledTrace(
                            stream=stream,
                            intrusion_region=region,  # type: ignore[arg-type]
                            exploit_name=exploit,
                        )
                    )
                splits[split_name] = tuple(traces)
    except KeyError as error:
        raise TraceIOError(f"malformed dataset archive {source}: {error}") from error
    return SyscallDataset(
        program_name=program_name,
        alphabet=alphabet,
        training=splits["training"],
        test_normal=splits["test_normal"],
        test_intrusions=splits["test_intrusions"],
    )


# -- tolerant JSONL reading -------------------------------------------------


def read_jsonl_tolerant(
    path: str | Path,
    strict: bool = True,
    torn_tail_counter: str = "checkpoint.torn_tail",
) -> list[tuple[int, dict]]:
    """Parse a JSONL file, tolerating a torn final line.

    A process killed mid-append (SIGKILL during a checkpoint or WAL
    write) leaves at most one truncated record — and it is always the
    *last* line of the file.  That signature is recovered from, not
    raised: the torn tail is skipped, counted under
    ``torn_tail_counter`` (a telemetry warning counter), and the
    caller simply recomputes whatever the lost record carried.
    Corruption anywhere *before* the tail cannot be produced by a torn
    append and is treated per ``strict``: raised (the file is damaged,
    not merely truncated) or skipped.

    This is the shared guard under both the sweep checkpoint reader
    (:func:`checkpoint_load`) and the serving write-ahead log
    (:mod:`repro.serve.wal`).

    Args:
        path: the JSONL file; missing is a :class:`CheckpointError`.
        strict: whether mid-file garbage raises (``True``) or is
            skipped (``False``).
        torn_tail_counter: telemetry counter charged for a skipped
            torn tail.

    Returns:
        ``[(line_number, record), ...]`` for every parsed line.
    """
    source = Path(path)
    if not source.exists():
        raise CheckpointError(f"checkpoint file not found: {source}")
    numbered = [
        (line_number, text)
        for line_number, text in enumerate(
            source.read_text(encoding="utf-8").splitlines(), 1
        )
        if text.strip()
    ]
    tail_number = numbered[-1][0] if numbered else None
    records: list[tuple[int, dict]] = []
    for line_number, text in numbered:
        try:
            record = json.loads(text)
        except json.JSONDecodeError as error:
            if line_number == tail_number:
                telemetry.count(torn_tail_counter)
                continue
            if strict:
                raise CheckpointError(
                    f"{source}:{line_number}: {error}"
                ) from error
            continue
        if not isinstance(record, dict):
            if line_number == tail_number:
                telemetry.count(torn_tail_counter)
                continue
            if strict:
                raise CheckpointError(
                    f"{source}:{line_number}: expected a JSON object, "
                    f"got {type(record).__name__}"
                )
            continue
        records.append((line_number, record))
    return records


# -- sweep checkpoints ------------------------------------------------------


def cell_to_record(detector_name: str, result: CellResult) -> dict[str, object]:
    """One checkpoint record (a JSON-serializable dict) for one cell."""
    outcome = result.outcome
    return {
        "detector": detector_name,
        "anomaly_size": result.anomaly_size,
        "window_length": result.window_length,
        "outcome": {
            "response_class": outcome.response_class.value,
            "max_in_span": outcome.max_in_span,
            "max_outside_span": outcome.max_outside_span,
            "span_start": outcome.span_start,
            "span_stop": outcome.span_stop,
            "spurious_alarms": outcome.spurious_alarms,
        },
    }


def record_to_cell(record: dict[str, object]) -> tuple[str, CellResult]:
    """Invert :func:`cell_to_record`.

    Raises:
        CheckpointError: when the record is missing fields or holds
            values outside the schema.
    """
    try:
        outcome = record["outcome"]
        result = CellResult(
            anomaly_size=int(record["anomaly_size"]),  # type: ignore[arg-type]
            window_length=int(record["window_length"]),  # type: ignore[arg-type]
            outcome=DetectionOutcome(
                response_class=ResponseClass(outcome["response_class"]),  # type: ignore[index]
                max_in_span=float(outcome["max_in_span"]),  # type: ignore[index]
                max_outside_span=float(outcome["max_outside_span"]),  # type: ignore[index]
                span_start=int(outcome["span_start"]),  # type: ignore[index]
                span_stop=int(outcome["span_stop"]),  # type: ignore[index]
                spurious_alarms=int(outcome["spurious_alarms"]),  # type: ignore[index]
            ),
        )
        return str(record["detector"]), result
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(f"malformed checkpoint record: {error}") from error


def checkpoint_append(
    path: str | Path, detector_name: str, results: "CellResult | list[CellResult]"
) -> None:
    """Append completed cells to a JSONL checkpoint file.

    Each cell becomes one line; the write is a single buffered append
    followed by a flush, so a killed run loses at most the block being
    written, never an earlier one.  The parent directory is created on
    first use.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(results, CellResult):
        results = [results]
    lines = "".join(
        json.dumps(cell_to_record(detector_name, result), sort_keys=True) + "\n"
        for result in results
    )
    with target.open("a", encoding="utf-8") as handle:
        handle.write(lines)
        handle.flush()


def checkpoint_load(
    path: str | Path, strict: bool = True
) -> dict[str, dict[Cell, CellResult]]:
    """Read a JSONL checkpoint back into per-detector cell mappings.

    A final line truncated mid-record (SIGKILL during the append) is
    *always* tolerated, strict or not: the torn tail is skipped, the
    ``checkpoint.torn_tail`` telemetry counter is charged, and the
    lost cell is simply recomputed by the resumed sweep.  ``strict``
    only governs corruption before the tail — damage a torn append
    cannot produce.

    Args:
        path: the checkpoint file; a missing file is a
            :class:`CheckpointError` (resuming from nothing is almost
            always a caller mistake — pass the same path as
            ``checkpoint=`` to create one instead).
        strict: when ``False``, unparsable mid-file lines are skipped
            rather than raised; fully parsed duplicate cells always
            last-write-win.

    Returns:
        ``{detector_name: {(anomaly_size, window_length): CellResult}}``.
    """
    source = Path(path)
    records = read_jsonl_tolerant(source, strict=strict)
    tail_number = records[-1][0] if records else None
    cells: dict[str, dict[Cell, CellResult]] = {}
    for line_number, record in records:
        try:
            name, result = record_to_cell(record)
        except CheckpointError as error:
            if line_number == tail_number:
                # A schema-truncated (yet JSON-parsable) tail is the
                # same torn-append signature: skip and recompute.
                telemetry.count("checkpoint.torn_tail")
                continue
            if strict:
                raise CheckpointError(
                    f"{source}:{line_number}: {error}"
                ) from error
            continue
        cells.setdefault(name, {})[
            (result.anomaly_size, result.window_length)
        ] = result
    return cells
