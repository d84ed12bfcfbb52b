"""Text file formats for matrices and vectors.

Matrix files: a header line "WCSMAT 1 <real|complex> <m> <N>", then m lines
of N whitespace-separated entries, then optional provenance trailer lines
starting with '#'. Complex entries are written as "re+imj" with 17
significant digits, which round-trips doubles bit for bit. Vector files use
the header "WCSVEC 1 <real|complex> <N>" and a single entry line.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .core import as_matrix

__all__ = [
    "MatrixFormatError",
    "format_entry",
    "parse_entry",
    "read_matrix",
    "read_vector",
    "write_matrix",
    "write_vector",
]

MATRIX_MAGIC = "WCSMAT"
VECTOR_MAGIC = "WCSVEC"
FORMAT_VERSION = "1"


class MatrixFormatError(ValueError):
    """Malformed matrix or vector file."""


def format_entry(value, complex_kind: bool) -> str:
    if not complex_kind:
        return f"{float(value):.17g}"
    c = complex(value)
    sign = "+" if math.copysign(1.0, c.imag) > 0 else "-"
    return f"{c.real:.17g}{sign}{abs(c.imag):.17g}j"


def parse_entry(token: str, complex_kind: bool):
    try:
        return complex(token) if complex_kind else float(token)
    except ValueError as exc:
        raise MatrixFormatError(f"cannot parse entry {token!r}") from exc


def _header(magic: str, kind: str, *dims: int) -> str:
    return " ".join([magic, FORMAT_VERSION, kind, *map(str, dims)])


def _parse_header(line: str, magic: str, n_dims: int, path) -> tuple[bool, list[int]]:
    parts = line.split()
    if len(parts) != 3 + n_dims or parts[0] != magic or parts[1] != FORMAT_VERSION:
        raise MatrixFormatError(f"{path}: line 1: malformed header {line!r}")
    if parts[2] not in ("real", "complex"):
        raise MatrixFormatError(f"{path}: line 1: unknown kind {parts[2]!r}")
    try:
        dims = [int(p) for p in parts[3:]]
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: line 1: bad dimensions in {line!r}") from exc
    if any(d < 1 for d in dims):
        raise MatrixFormatError(f"{path}: line 1: dimensions must be positive")
    return parts[2] == "complex", dims


def write_matrix(path, M, provenance: list[str] | None = None) -> None:
    M = as_matrix(M)
    complex_kind = bool(np.iscomplexobj(M))
    m, n = M.shape
    lines = [_header(MATRIX_MAGIC, "complex" if complex_kind else "real", m, n)]
    for row in M:
        lines.append(" ".join(format_entry(v, complex_kind) for v in row))
    for note in provenance or []:
        lines.append(f"# {note}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix(path) -> tuple[np.ndarray, list[str]]:
    text = Path(path).read_text().splitlines()
    if not text:
        raise MatrixFormatError(f"{path}: line 1: empty file")
    complex_kind, (m, n) = _parse_header(text[0], MATRIX_MAGIC, 2, path)
    if len(text) < 1 + m:
        raise MatrixFormatError(f"{path}: expected {m} data lines, found {len(text) - 1}")
    out = np.empty((m, n), dtype=complex if complex_kind else float)
    for i in range(m):
        tokens = text[1 + i].split()
        if len(tokens) != n:
            raise MatrixFormatError(
                f"{path}: line {i + 2}: expected {n} entries, found {len(tokens)}"
            )
        for j, tok in enumerate(tokens):
            out[i, j] = parse_entry(tok, complex_kind)
    provenance = []
    for lineno, line in enumerate(text[1 + m :], start=2 + m):
        if not line.strip():
            continue
        if not line.startswith("#"):
            raise MatrixFormatError(f"{path}: line {lineno}: unexpected trailing data {line!r}")
        provenance.append(line[1:].strip())
    return out, provenance


def write_vector(path, x, provenance: list[str] | None = None) -> None:
    x = np.asarray(x).ravel()
    complex_kind = bool(np.iscomplexobj(x))
    lines = [_header(VECTOR_MAGIC, "complex" if complex_kind else "real", x.size)]
    lines.append(" ".join(format_entry(v, complex_kind) for v in x))
    for note in provenance or []:
        lines.append(f"# {note}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_vector(path) -> tuple[np.ndarray, list[str]]:
    text = Path(path).read_text().splitlines()
    if not text:
        raise MatrixFormatError(f"{path}: line 1: empty file")
    complex_kind, (n,) = _parse_header(text[0], VECTOR_MAGIC, 1, path)
    if len(text) < 2:
        raise MatrixFormatError(f"{path}: missing the entry line")
    tokens = text[1].split()
    if len(tokens) != n:
        raise MatrixFormatError(f"{path}: line 2: expected {n} entries, found {len(tokens)}")
    out = np.array(
        [parse_entry(t, complex_kind) for t in tokens],
        dtype=complex if complex_kind else float,
    )
    provenance = []
    for lineno, line in enumerate(text[2:], start=3):
        if not line.strip():
            continue
        if not line.startswith("#"):
            raise MatrixFormatError(f"{path}: line {lineno}: unexpected trailing data {line!r}")
        provenance.append(line[1:].strip())
    return out, provenance
