"""CSV trace import/export — the bridge to real block traces.

Anything that can produce ``time,lba,mode,length`` rows (a blktrace
post-processor, an strace filter, a vendor tool) can feed the detector
through this importer, which is how the library would be used against
*real* recorded workloads rather than the synthetic generators.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Optional, Union

from repro.blockdev.request import IOMode, IORequest
from repro.blockdev.trace import Trace
from repro.errors import TraceError

#: Accepted spellings per column, case-insensitive.
_MODE_ALIASES = {
    "r": IOMode.READ, "read": IOMode.READ, "0": IOMode.READ,
    "w": IOMode.WRITE, "write": IOMode.WRITE, "1": IOMode.WRITE,
}


def load_csv_trace(
    path: Union[str, Path],
    time_column: str = "time",
    lba_column: str = "lba",
    mode_column: str = "mode",
    length_column: Optional[str] = "length",
    source_column: Optional[str] = None,
    time_scale: float = 1.0,
    sort: bool = True,
) -> Trace:
    """Read a CSV of block requests into a :class:`Trace`.

    Args:
        path: CSV file with a header row.
        time_column / lba_column / mode_column / length_column: Column
            names (length optional; defaults to 1 when absent).
        source_column: Optional column carrying a workload label.
        time_scale: Multiply timestamps (e.g. 1e-9 for nanosecond traces).
        sort: Sort rows by time before building the trace (real traces
            from multi-queue devices are often slightly out of order).

    Raises:
        TraceError: On any malformed input — bad UTF-8, a CSV syntax
            error or oversize field, a missing column or field, a bad
            number or mode — and on nothing else.
    """
    path = Path(path)
    rows = []
    try:
        with path.open("r", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                raise TraceError(f"{path}: empty CSV")
            missing = {time_column, lba_column, mode_column} - set(reader.fieldnames)
            if missing:
                raise TraceError(f"{path}: missing columns {sorted(missing)}")
            for line_number, record in enumerate(reader, start=2):
                if None in record.values():
                    raise TraceError(
                        f"{path}:{line_number}: row has fewer fields than the "
                        f"header"
                    )
                try:
                    mode_raw = record[mode_column].strip().lower()
                    mode = _MODE_ALIASES[mode_raw]
                    length = 1
                    if length_column and record.get(length_column):
                        length = int(record[length_column])
                    request = IORequest(
                        time=float(record[time_column]) * time_scale,
                        lba=int(record[lba_column]),
                        mode=mode,
                        length=length,
                        source=(record.get(source_column) or None)
                        if source_column else None,
                    )
                except (KeyError, ValueError) as exc:
                    raise TraceError(f"{path}:{line_number}: bad row: {exc}") from exc
                rows.append(request)
    except UnicodeDecodeError as exc:
        raise TraceError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise TraceError(f"{path}: malformed CSV: {exc}") from exc
    if sort:
        rows.sort(key=lambda r: r.time)
    return Trace(rows)


def save_csv_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace as ``time,lba,mode,length,source`` CSV."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "lba", "mode", "length", "source"])
        for request in trace:
            writer.writerow([
                f"{request.time:.6f}",
                request.lba,
                request.mode.value,
                request.length,
                request.source or "",
            ])
