"""The document format of every command, CSV or JSON.

A ``Document`` writes one a block of rows at a time: ``rows`` takes each
block and yields the bytes of each chunk of rows it fills, the head before
the first, and ``end`` the rest, then the summary, which both formats write
after the rows.  ``table_bytes`` (or
``table_text``) streams a whole document from its columns and summary.
"""

from __future__ import annotations

import ctypes
import json

import numpy as np

__all__ = ["Document", "table_bytes", "table_text"]


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


# Rows formatted per chunk.  A document holds one byte matrix of this many
# rows (200 kB of compare CSV, 350 kB of JSON), whose cells every chunk
# rewrites, and the chunk's float values as one float64 matrix (7 columns:
# 57 kB); while g17 renders that matrix in one call, its scratch, the cells
# included, is about 0.6 MB (84 B per value).  Rows fill chunks whatever the
# blocks they come in, so a compare's 4096-row guard block at stride 1 is four
# chunks, and at stride 10 a chunk gathers the rows of about 2.5 blocks.  Half
# as many rows made compare-csv 10% slower on a shared 2-vCPU Xeon, where a
# call of either kernel costs about 100 us beside its 0.1 us per value.
_CHUNK_ROWS = 1024
# glibc returns the top of its heap to the system once more than 128 kB of it
# is free, and maps each array past 128 kB afresh, until a freed mapping
# raises both limits; a streamed compare frees no such array before its
# chunks, so every chunk's g17 scratch (0.6-0.9 MB, most of it in arrays of
# 30-170 kB) faulted its pages in again: 2226 page faults per compare-csv op
# and 1372 per compare-json-vdp op in a long-lived process, 3-6% of its time.
# Limits of 4 MB and 512 kB keep that scratch mapped between chunks (0 faults)
# for about 0.3 MB more VmHWM.  Set once, where the C library has mallopt.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to load
    pass
else:
    _mallopt(_M_TRIM_THRESHOLD, 4 << 20)
    _mallopt(_M_MMAP_THRESHOLD, 512 << 10)
# Bytes of a cell of each array kind: the g17 layout (``g17.WIDTH``), or the
# widest int64 or uint64 text (``g17.INT_WIDTH``).
_CELL_WIDTH = {"f": 24, "i": 20, "u": 20}


def _cells(part, fmt: str) -> np.ndarray:
    """The cells of one column that is not a float or integer array, as
    rows of NUL-padded ASCII bytes, ``_fmt`` (CSV) or ``_json_text`` (JSON)
    of each value, one value at a time."""
    text = _fmt if fmt == "csv" else _json_text
    cells = np.array([text(v).encode("ascii") for v in part])
    return cells.view(np.uint8).reshape(len(part), cells.itemsize)


def _is_array(part) -> bool:
    return isinstance(part, np.ndarray) and part.dtype.kind in _CELL_WIDTH


class Document:
    """One ``fmt`` document ("csv" or "json"), written a block of rows at a
    time, so that a long run is never held in memory as one document.

    The first block fixes the layout: the CSV columns in its order, the JSON
    ones sorted by name.  The rows of a chunk of ``_CHUNK_ROWS`` rows are one
    byte matrix, built once per document: each row holds the constant text
    (separators, JSON keys) and a NUL-padded slot per cell.  Blocks fill the
    chunk's rows, whatever their sizes, and a chunk is written once it is
    full, or by ``end``: its float cells in one ``g17`` call at
    ``g17.WIDTH``, an integer column's by ``g17.render_integers``, each from
    the values the chunk gathered in a buffer of its own; its bytes are its
    rows with the NULs dropped.  Any other column is formatted whole, one
    value at a time, when its block comes, so it must come whole in the
    first block.  A JSON row starts with the ``,`` that ends the row before
    it, which the document's first row drops.  The pieces join to exactly
    what ``",".join`` of ``_fmt`` cells per row, or ``json.dumps(doc,
    indent=1, sort_keys=True)`` of ``{"rows": [...], "summary": ...}``,
    would give.
    """

    def __init__(self, fmt: str, size: int | None = None):
        self.fmt = fmt
        # The document's rows, when they are known, so a short one's chunk
        # matrix holds only those.
        self._chunk_rows = _CHUNK_ROWS if size is None else max(min(size, _CHUNK_ROWS), 1)
        self._names = None  # the columns, in the order they are written
        self._head = None  # the head, until the first chunk is written
        self._filled = 0  # the rows of the chunk so far

    def _lay_out(self, columns: dict, ready: dict) -> bytes:
        """Lay the document out from its first block's columns: the byte
        matrix of one chunk, each column's slot in a row, and the chunk's
        buffers of float and integer values.  Returns the head."""
        self._names = list(columns) if self.fmt == "csv" else sorted(columns)
        if self.fmt == "csv":
            before = [""] + [","] * (len(self._names) - 1)
            end, self._skip = "\n", 0
        else:
            before = [(",\n  {\n" if i == 0 else ",\n") + f"   {json.dumps(name)}: "
                      for i, name in enumerate(self._names)]
            end, self._skip = "\n  }", 2
        template = bytearray()
        self._slots = {}
        for lead, name in zip(before, self._names):
            part = columns[name]
            width = ready[name].shape[1] if name in ready else _CELL_WIDTH[part.dtype.kind]
            template += lead.encode("ascii") + bytes(width)
            self._slots[name] = slice(len(template) - width, len(template))
        template += end.encode("ascii")
        self._row = len(template)
        self._text = bytearray(self._chunk_rows * self._row)
        self._table = np.frombuffer(self._text, np.uint8).reshape(-1, self._row)
        self._table[:] = np.frombuffer(template, np.uint8)
        arrays = [name for name in self._names if name not in ready]
        self._floats = [name for name in arrays if columns[name].dtype.kind == "f"]
        # A chunk's float values row by row, so its leading rows are contiguous.
        self._work = np.empty((self._chunk_rows, len(self._floats)))
        self._ints = {name: np.empty(self._chunk_rows, columns[name].dtype) for name in arrays
                      if name not in self._floats}
        self._filled = 0
        head = ",".join(self._names) + "\n" if self.fmt == "csv" else '{\n "rows": [\n'
        return head.encode()

    def rows(self, columns: dict):
        """Take every row of ``columns``, a dict of equally long columns (a
        stride is applied where they are made), and yield the bytes of each
        chunk they fill, the head before the first."""
        ready = {name: _cells(part, self.fmt) for name, part in columns.items()
                 if not _is_array(part)}
        if self._names is None:
            self._head = self._lay_out(columns, ready)
        n_rows = len(columns[self._names[0]])
        lo = 0
        while lo < n_rows:
            at = self._filled
            hi = min(lo + self._chunk_rows - at, n_rows)
            for j, name in enumerate(self._floats):
                self._work[at : at + hi - lo, j] = columns[name][lo:hi]
            for name, values in self._ints.items():
                values[at : at + hi - lo] = columns[name][lo:hi]
            for name, cells in ready.items():
                self._table[at : at + hi - lo, self._slots[name]] = cells[lo:hi]
            self._filled += hi - lo
            lo = hi
            if self._filled == self._chunk_rows:
                yield from self._chunk()

    def _chunk(self):
        """Yield the head, before the first chunk, then the bytes of the
        chunk's rows so far, which it then empties."""
        if self._head:
            yield self._head
            self._head = None
        size, self._filled = self._filled, 0
        table = self._table
        if self._ints or self._floats:
            from . import g17  # only an array column builds its tables

        if self._floats:
            render = g17.render if self.fmt == "csv" else g17.render_shortest
            cells = render(self._work[:size], _fmt if self.fmt == "csv" else _json_text)
            cells = cells.reshape(size, len(self._floats), -1)
            for j, name in enumerate(self._floats):
                table[:size, self._slots[name]] = cells[:, j]
        for name, values in self._ints.items():
            table[:size, self._slots[name]] = g17.render_integers(values[:size], _fmt)
        # NULs are dropped: the separator before the document's first row and
        # the rows after a short chunk, the last, are made NULs, so the whole
        # matrix is translated without a copy of the chunk's part of it.
        table[size:] = 0
        lead = table[0, : self._skip].copy()
        table[0, : self._skip] = 0
        piece = self._text.translate(None, b"\0")
        table[0, : self._skip] = lead
        self._skip = 0
        yield piece

    def end(self, summary: dict | None):
        """Yield the bytes of what is not yet written, the head and the rows
        of a chunk not yet full, then of the end of the document, with
        ``summary`` when it is not None; the document then takes no row.  A
        document with no row is its head alone: the CSV header of the first
        block's columns (an empty line without a block), or JSON's
        ``"rows": []``."""
        if self._filled:
            yield from self._chunk()
        empty = self._names is None or self._head is not None  # no row was written
        if self.fmt == "csv":
            tail = "" if summary is None else f"# summary = {json.dumps(summary, sort_keys=True)}\n"
            if empty:
                tail = ",".join(self._names or []) + "\n" + tail
        else:
            tail = '{\n "rows": []' if empty else "\n ]"
            if summary is not None:
                nested = json.dumps(summary, indent=1, sort_keys=True).replace("\n", "\n ")
                tail += ',\n "summary": ' + nested
            tail += "\n}\n"
        yield tail.encode()


def table_bytes(fmt: str, columns: dict, summary: dict | None):
    """Yield the ``fmt`` document of every row of ``columns`` and then
    ``summary`` as bytes: the head, a piece per ``_CHUNK_ROWS`` rows and the
    tail (see ``Document``)."""
    doc = Document(fmt, len(next(iter(columns.values()))))
    yield from doc.rows(columns)
    yield from doc.end(summary)


def table_text(fmt: str, columns: dict, summary: dict | None):
    """The pieces of ``table_bytes`` decoded, for a text stream."""
    return (piece.decode() for piece in table_bytes(fmt, columns, summary))
