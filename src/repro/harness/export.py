"""JSON export/import of experiment results, written atomically.

The benchmark suite renders text tables; downstream tooling (plotting,
regression tracking, the sweep result DB importers) wants structured
data.  ``export_figure`` writes a
:class:`~repro.harness.figures.FigureResult` to JSON with tuple keys
flattened, and ``load_figure`` restores it.  ``export_rows`` writes the
sweep query layer's row sets as CSV or schema-stamped JSON.

Every writer goes through :func:`write_json_atomic` -- temp file in the
target directory, then ``os.replace`` -- so an interrupted run (crash,
SIGKILL, injected fault) can never leave a torn ``BENCH_*.json`` or
export behind: readers see either the old complete file or the new
complete file.  The ``export.write`` failpoint sits between the temp
write and the rename, which is exactly where a tear would happen
without the atomic protocol.
"""
from __future__ import annotations

import csv
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from .. import faults
from .figures import FigureResult

#: schema tag stamped on every figure export
EXPORT_SCHEMA = "repro-figure-export/1"

#: schema tag stamped on sweep query row exports
ROWS_SCHEMA = "repro-sweep-query/1"

# the recovery seam of every JSON writer: after the temp file is
# written, before it atomically replaces the target (DESIGN.md §5.5)
faults.declare("export.write", "raise", "delay")

_KEY_SEP = "||"


def _flatten_key(key) -> str:
    if isinstance(key, tuple):
        return _KEY_SEP.join(str(k) for k in key)
    return str(key)


def _restore_key(key: str):
    if _KEY_SEP in key:
        parts = key.split(_KEY_SEP)
        restored = tuple(int(p) if p.lstrip("-").isdigit() else p
                         for p in parts)
        return restored
    if key.lstrip("-").isdigit():
        return int(key)
    return key


# ----------------------------------------------------------------------
# atomic JSON writing (shared by figures / loadtest / manifests)
# ----------------------------------------------------------------------
def write_json_atomic(
    payload: Any,
    path: Union[str, Path],
    *,
    indent: int = 2,
    sort_keys: bool = False,
    default=None,
) -> Path:
    """Write ``payload`` as JSON via temp file + ``os.replace``.

    The temp file lands in the target's directory (same filesystem, so
    the replace is atomic); on any failure it is removed and the
    previous file contents survive untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(payload, f, indent=indent, sort_keys=sort_keys,
                      default=default)
            f.write("\n")
        faults.failpoint("export.write")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


# ----------------------------------------------------------------------
# figure results
# ----------------------------------------------------------------------
def figure_to_dict(result: FigureResult) -> dict:
    """JSON-safe dict form of a figure result."""
    return {
        "schema": EXPORT_SCHEMA,
        "figure": result.figure,
        "values": {_flatten_key(k): v for k, v in result.values.items()},
        "summary": {_flatten_key(k): v for k, v in result.summary.items()},
        "table": result.table,
    }


def validate_export(payload) -> None:
    """Schema-check an exported payload; raises ``ValueError``.

    The export counterpart of
    :func:`~repro.harness.service.validate_manifest` and
    :func:`~repro.serve.loadtest.validate_loadtest_report`: dispatches
    on the ``schema`` tag and checks the shape of figure exports
    (:data:`EXPORT_SCHEMA`) and sweep query row exports
    (:data:`ROWS_SCHEMA`).  ``export_figure``/``export_rows`` run it
    before anything lands on disk.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"export payload is not an object: {payload!r:.60}")
    schema = payload.get("schema")
    if schema == EXPORT_SCHEMA:
        if not isinstance(payload.get("figure"), str) or not payload["figure"]:
            raise ValueError("figure export has no 'figure' name")
        if not isinstance(payload.get("table"), str):
            raise ValueError("figure export 'table' is not a string")
        for block in ("values", "summary"):
            mapping = payload.get(block)
            if not isinstance(mapping, dict):
                raise ValueError(f"figure export {block!r} is not an object")
            for k, v in mapping.items():
                if not isinstance(v, (int, float)):
                    raise ValueError(
                        f"figure export {block}[{k!r}] is not a number: "
                        f"{v!r:.40}")
        return
    if schema == ROWS_SCHEMA:
        columns = payload.get("columns")
        rows = payload.get("rows")
        if (not isinstance(columns, list)
                or not all(isinstance(c, str) for c in columns)):
            raise ValueError("rows export 'columns' is not a string list")
        if not isinstance(rows, list):
            raise ValueError("rows export 'rows' is not a list")
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                raise ValueError(f"rows export row {i} is not an object")
            extra = sorted(set(row) - set(columns))
            if extra:
                raise ValueError(f"rows export row {i} has columns "
                                 f"outside 'columns': {extra}")
        return
    raise ValueError(f"unknown export schema {schema!r} (known: "
                     f"{EXPORT_SCHEMA}, {ROWS_SCHEMA})")


def export_figure(result: FigureResult, path: Union[str, Path]) -> Path:
    """Write one figure result as JSON; returns the path written."""
    payload = figure_to_dict(result)
    validate_export(json.loads(json.dumps(payload, default=float)))
    return write_json_atomic(payload, path, default=float)


def load_figure(path: Union[str, Path]) -> FigureResult:
    """Restore a figure result written by :func:`export_figure`."""
    data = json.loads(Path(path).read_text())
    if "schema" in data:
        validate_export(data)
    return FigureResult(
        figure=data["figure"],
        values={_restore_key(k): v for k, v in data["values"].items()},
        summary={_restore_key(k): v for k, v in data["summary"].items()},
        table=data["table"],
    )


# ----------------------------------------------------------------------
# sweep query rows (CSV / JSON)
# ----------------------------------------------------------------------
def rows_to_payload(rows: Sequence[Mapping[str, Any]],
                    columns: Optional[Sequence[str]] = None) -> Dict:
    """Schema-stamped payload for a list of row dicts.

    ``columns`` defaults to the union of row keys in first-seen order,
    so heterogeneous rows (points with different knob sets) export with
    one uniform header.
    """
    if columns is None:
        cols: List[str] = []
        for row in rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        columns = cols
    return {"schema": ROWS_SCHEMA, "columns": list(columns),
            "rows": [dict(r) for r in rows]}


def export_rows(
    rows: Sequence[Mapping[str, Any]],
    path: Union[str, Path],
    *,
    fmt: Optional[str] = None,
    columns: Optional[Sequence[str]] = None,
) -> Path:
    """Write query rows as ``csv`` or ``json`` (inferred from suffix).

    CSV writes are atomic through the same temp-file + ``os.replace``
    protocol (and the same ``export.write`` failpoint) as the JSON
    writers.
    """
    path = Path(path)
    fmt = fmt or ("csv" if path.suffix.lower() == ".csv" else "json")
    payload = rows_to_payload(rows, columns)
    validate_export(payload)
    if fmt == "json":
        return write_json_atomic(payload, path)
    if fmt != "csv":
        raise ValueError(f"unknown export format {fmt!r} (csv or json)")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=payload["columns"],
                                    restval="")
            writer.writeheader()
            for row in payload["rows"]:
                writer.writerow(row)
        faults.failpoint("export.write")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_rows(path: Union[str, Path]) -> Dict:
    """Load a rows export (JSON form) and schema-check it."""
    payload = json.loads(Path(path).read_text())
    validate_export(payload)
    return payload
