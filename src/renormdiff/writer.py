"""The document format of every command, CSV or JSON: ``table_bytes`` (or
``table_text``) streams it from the format, the columns and the summary."""

from __future__ import annotations

import json

import numpy as np

__all__ = ["table_bytes", "table_text"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _json_text(value) -> str:
    """The JSON literal of one float or None cell: ``repr`` floats, ``NaN``,
    ``null``."""
    return json.dumps(None if value is None else float(value))


# Rows formatted per chunk: a chunk's text is about 0.6 MB of compare CSV or
# 1.1 MB of JSON, so a long run is never held in memory as one document.  The
# document holds one byte matrix of at most this many rows (0.8 MB of compare
# CSV, 1.4 MB of JSON), whose cells every chunk rewrites, and, while g17
# renders one float column into it, about 1.5 MB of kernel scratch (350 B
# per value).
_CHUNK_ROWS = 4096
# Bytes of a cell of each array kind: the g17 layout (``g17.WIDTH``), or the
# widest int64 or uint64 text (``g17.INT_WIDTH``).
_CELL_WIDTH = {"f": 24, "i": 20, "u": 20}


def _cells(part, fmt: str) -> np.ndarray:
    """The cells of one column slice as rows of NUL-padded ASCII bytes.

    Each cell, NULs dropped, is ``_fmt`` (CSV) or ``_json_text`` (JSON) of
    its value.  Float arrays go through the ``g17`` kernel of the format,
    which calls that function for the values it does not cover; integer
    arrays through ``g17.render_integers``, whose text is the same in both
    formats; anything else through the function one value at a time.
    """
    text = _fmt if fmt == "csv" else _json_text
    kind = part.dtype.kind if isinstance(part, np.ndarray) else None
    if kind in _CELL_WIDTH:
        from . import g17  # only an array column builds its tables

        if kind != "f":
            return g17.render_integers(part, _fmt)
        return (g17.render if fmt == "csv" else g17.render_shortest)(part, text)
    cells = np.array([text(v).encode("ascii") for v in part])
    return cells.view(np.uint8).reshape(len(part), cells.itemsize)


def table_bytes(fmt: str, columns: dict, summary: dict | None):
    """Yield the ``fmt`` document of every row of ``columns`` as bytes, in
    pieces of at most ``_CHUNK_ROWS`` rows (a stride is applied where the
    columns are made).

    The CSV columns are written in the order of ``columns``, the JSON ones
    sorted by name.  The rows of a chunk are one byte matrix, built once per
    document: each row holds the constant text (separators, JSON keys) and a
    NUL-padded slot per cell, and each chunk rewrites only the cells, a
    short last chunk in the leading rows; a chunk's bytes are its rows with
    the NULs dropped.  An array column is rendered a chunk at a time at its
    kind's width; any other column is formatted whole first, so that one
    width serves the document.  The pieces join to exactly what ``",".join``
    of ``_fmt`` cells per row, or ``json.dumps(doc, indent=1,
    sort_keys=True)`` of ``{"rows": [...], "summary": ...}``, would give.
    """
    names = list(columns)
    if fmt == "csv":
        head = ",".join(names) + "\n"
        before = [""] + [","] * (len(names) - 1)
        end, trim = "\n", 0
        tail = "" if summary is None else "# summary = " + json.dumps(summary, sort_keys=True) + "\n"
    else:
        names.sort()
        head = '{\n "rows": [\n'
        before = [("  {\n" if i == 0 else ",\n") + f"   {json.dumps(name)}: "
                  for i, name in enumerate(names)]
        # Every row ends in ",\n"; the last chunk drops the one after the last row.
        end, trim = "\n  },\n", 2
        tail = "\n ]"
        if summary is not None:
            nested = json.dumps(summary, indent=1, sort_keys=True).replace("\n", "\n ")
            tail += ',\n "summary": ' + nested
        tail += "\n}\n"
    yield head.encode()
    parts = [columns[name] for name in names]
    ready = [None if isinstance(part, np.ndarray) and part.dtype.kind in _CELL_WIDTH
             else _cells(part, fmt) for part in parts]
    template = bytearray()
    slots = []
    for lead, part, cells in zip(before, parts, ready):
        width = _CELL_WIDTH[part.dtype.kind] if cells is None else cells.shape[1]
        template += lead.encode("ascii") + bytes(width)
        slots.append(slice(len(template) - width, len(template)))
    template += end.encode("ascii")
    n_rows = len(parts[0])
    text = bytearray(min(n_rows, _CHUNK_ROWS) * len(template))
    table = np.frombuffer(text, np.uint8).reshape(-1, len(template))
    table[:] = np.frombuffer(template, np.uint8)
    for lo in range(0, n_rows, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n_rows)
        for part, cells, slot in zip(parts, ready, slots):
            table[: hi - lo, slot] = _cells(part[lo:hi], fmt) if cells is None else cells[lo:hi]
        size = (hi - lo) * len(template) - (trim if hi == n_rows else 0)
        yield (text if size == len(text) else text[:size]).translate(None, b"\0")
    yield tail.encode()


def table_text(fmt: str, columns: dict, summary: dict | None):
    """The pieces of ``table_bytes`` decoded, for a text stream."""
    return (piece.decode() for piece in table_bytes(fmt, columns, summary))
