"""Read and write parity-check / generator matrices as plain text.

Format (comment lines start with '#', blank lines are ignored):

    # optional comments
    q=9 poly=2,2,1
    rows=2 cols=4
    0 1 1 1
    1 0 1 2

The poly field carries the modulus coefficients, low order first, and is
required only to override the pinned default for an extension field.
Entries must be integers in 0..q-1.
"""

from __future__ import annotations

from .field import GF
from .matrix import MatrixGF


class MatrixFormatError(ValueError):
    """Malformed matrix text; .line is the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def format_matrix(M: MatrixGF, comment: str | None = None) -> str:
    field = M.field
    out = []
    if comment:
        for line in comment.splitlines():
            out.append(f"# {line}")
    header = f"q={field.q}"
    if field.r > 1:
        header += " poly=" + ",".join(str(c) for c in field.modulus)
    out.append(header)
    out.append(f"rows={M.nrows} cols={M.ncols}")
    for row in M.data:
        out.append(" ".join(str(x) for x in row))
    return "\n".join(out) + "\n"


def write_matrix(M: MatrixGF, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_matrix(M, comment))


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _tokens(lineno: int, line: str):
    """Yield each token of a header line with its key and value, and
    refuse a key that the line repeats."""
    seen = set()
    for token in line.split():
        key, _, value = token.partition("=")
        if key in seen:
            raise MatrixFormatError(lineno, f"repeated key {key!r}")
        seen.add(key)
        yield token, key, value


def parse_matrix(text: str) -> MatrixGF:
    lines = _significant_lines(text)

    try:
        lineno, header = next(lines)
    except StopIteration:
        raise MatrixFormatError(1, "missing header line") from None
    q = None
    poly = None
    for token, key, value in _tokens(lineno, header):
        if key == "q" and value:
            try:
                q = int(value)
            except ValueError:
                raise MatrixFormatError(lineno, f"bad q value {value!r}") from None
        elif key == "poly" and value:
            try:
                poly = tuple(int(c) for c in value.split(","))
            except ValueError:
                raise MatrixFormatError(lineno, f"bad poly value {value!r}") from None
        else:
            raise MatrixFormatError(lineno, f"unexpected token {token!r}")
    if q is None:
        raise MatrixFormatError(lineno, "header must set q=<int>")
    try:
        field = GF(q, poly)
    except ValueError as exc:
        raise MatrixFormatError(lineno, str(exc)) from None

    try:
        lineno, shape = next(lines)
    except StopIteration:
        raise MatrixFormatError(lineno + 1, "missing rows=/cols= line") from None
    nrows = ncols = None
    for token, key, value in _tokens(lineno, shape):
        if key == "rows" and value.isdigit():
            nrows = int(value)
        elif key == "cols" and value.isdigit():
            ncols = int(value)
        else:
            raise MatrixFormatError(lineno, f"unexpected token {token!r}")
    if nrows is None or ncols is None:
        raise MatrixFormatError(lineno, "expected rows=<int> cols=<int>")

    # a row of no entries is written as a blank line, which is never read
    data = [] if ncols else [[]] * nrows
    while len(data) < nrows:
        try:
            lineno, line = next(lines)
        except StopIteration:
            raise MatrixFormatError(
                lineno + 1, f"expected {nrows} matrix rows, got {len(data)}"
            ) from None
        parts = line.split()
        if len(parts) != ncols:
            raise MatrixFormatError(
                lineno, f"expected {ncols} entries, got {len(parts)}"
            )
        row = []
        for part in parts:
            try:
                x = int(part)
            except ValueError:
                raise MatrixFormatError(lineno, f"bad entry {part!r}") from None
            if not 0 <= x < q:
                raise MatrixFormatError(
                    lineno, f"entry {x} out of range for GF({q})"
                )
            row.append(x)
        data.append(row)
    for lineno, line in lines:
        raise MatrixFormatError(lineno, f"unexpected trailing content {line!r}")
    return MatrixGF(field, data, ncols)


def read_matrix(path) -> MatrixGF:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        # the bad byte is on the line after the last break before it
        before = raw[: exc.start].decode("ascii")
        line = len((before + ".").splitlines())
        raise MatrixFormatError(
            line, f"non-ASCII byte {raw[exc.start]:#04x}"
        ) from None
    return parse_matrix(text)
