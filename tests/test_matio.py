"""Matrix text format: round trips, header handling, diagnostics."""

import pytest

from crcodes.field import GF, Field
from crcodes.matio import (
    MatrixFormatError,
    format_matrix,
    parse_matrix,
    read_matrix,
    write_matrix,
)
from crcodes.matrix import MatrixGF


def test_round_trip_prime_field(tmp_path):
    m = MatrixGF(GF(3), [[0, 1, 2], [2, 2, 0]])
    path = tmp_path / "m.txt"
    write_matrix(m, path, comment="two rows\nsecond line")
    text = path.read_text()
    assert text.startswith("# two rows\n# second line\n")
    assert "q=3\n" in text
    assert "poly" not in text
    assert read_matrix(path) == m


def test_round_trip_extension_field(tmp_path):
    m = MatrixGF(GF(9), [[0, 5], [8, 1]])
    path = tmp_path / "m.txt"
    write_matrix(m, path)
    assert "q=9 poly=2,2,1" in path.read_text()
    back = read_matrix(path)
    assert back == m
    assert back.field == GF(9)


def test_poly_override_changes_field():
    text = "q=9 poly=1,0,1\nrows=1 cols=2\n3 4\n"
    m = parse_matrix(text)
    assert m.field == Field(3, 2, (1, 0, 1))
    assert m.field != GF(9)


def test_comments_and_blank_lines_ignored():
    text = "\n# heading\n\nq=2\n# mid\nrows=2 cols=2\n1 0\n\n0 1\n"
    m = parse_matrix(text)
    assert m.data == ((1, 0), (0, 1))


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("q=abc\nrows=1 cols=1\n0\n", 1),
        ("q=2 extra=1\nrows=1 cols=1\n0\n", 1),
        ("rows=1 cols=1\n0\n", 1),
        ("q=6\nrows=1 cols=1\n0\n", 1),
        ("q=4 poly=1,0,1\nrows=1 cols=1\n0\n", 1),
        ("q=2\n", 2),
        ("q=2\nrows=1\n0\n", 2),
        ("q=2\nrows=2 cols=1\n0\n", 4),
        ("q=2\nrows=1 cols=2\n0\n", 3),
        ("q=2\nrows=1 cols=1\nx\n", 3),
        ("q=2\nrows=1 cols=1\n5\n", 3),
        ("q=2\nrows=1 cols=1\n0\n1\n", 4),
        # a repeated key, whose last value used to win silently
        ("q=2 q=3\nrows=2 cols=2\n0 0\n0 0\n", 1),
        ("q=4 poly=1,1,1 poly=1,1,1\nrows=1 cols=1\n0\n", 1),
        ("q=3\nrows=1 rows=2 cols=2\n0 0\n0 0\n", 2),
        ("q=3\nrows=1 cols=2 cols=2\n0 0\n", 2),
        # numbers are plain decimal digits: int() would read these
        ("q=1_1\nrows=1 cols=1\n0\n", 1),
        ("q=+2\nrows=1 cols=1\n0\n", 1),
        ("q=9 poly=+2,2,1\nrows=1 cols=1\n0\n", 1),
        ("q=9 poly=2,2,1_0\nrows=1 cols=1\n0\n", 1),
        ("q=11\nrows=1 cols=2\n1 1_0\n", 3),
        ("q=2\nrows=1 cols=1\n+1\n", 3),
        ("q=2\nrows=1 cols=1\n-0\n", 3),
        ("q=2\nrows=1 cols=1\n-1\n", 3),
        ("q=2\nrows=1 cols=1\n\u0661\n", 3),  # ARABIC-INDIC DIGIT ONE
    ],
)
def test_malformed_inputs_report_line(text, line):
    with pytest.raises(MatrixFormatError) as err:
        parse_matrix(text)
    assert err.value.line == line
    assert f"line {line}:" in str(err.value)


@pytest.mark.parametrize(
    "text,message",
    [
        ("q=2\nrows=1 cols=1\n-1\n", "line 3: bad entry '-1'"),
        ("q=2\nrows=1 cols=1\n2\n", "line 3: entry 2 out of range for GF(2)"),
        ("q=1_1\nrows=1 cols=1\n0\n", "line 1: bad q value '1_1'"),
        ("q=9 poly=+2,2,1\nrows=1 cols=1\n0\n", "line 1: bad poly value '+2,2,1'"),
        # more digits than int() reads
        pytest.param(
            "q=2\nrows=1 cols=1\n" + "1" * 5000 + "\n", "line 3: bad entry '1111",
            id="5000-digit entry",
        ),
        pytest.param(
            "q=2\nrows=" + "1" * 5000 + " cols=1\n", "line 2: unexpected token",
            id="5000-digit rows",
        ),
    ],
)
def test_a_refused_number_names_its_spelling(text, message):
    with pytest.raises(MatrixFormatError) as err:
        parse_matrix(text)
    assert str(err.value).startswith(message)


def test_leading_zeros_are_plain_digits():
    assert parse_matrix("q=03\nrows=01 cols=2\n02 00\n") == MatrixGF(GF(3), [[2, 0]])


def test_format_is_stable():
    m = MatrixGF(GF(4), [[1, 2, 3]])
    assert format_matrix(m) == format_matrix(m)
    assert format_matrix(m).endswith("\n")


@pytest.mark.parametrize(
    "raw,line,byte",
    [
        (b"# \xcf\x81\nq=2\nrows=1 cols=1\n0\n", 1, 0xCF),
        (b"q=2\r\nrows=1 cols=1\r\n0 \xff\n", 3, 0xFF),
        (b"q=2\rrows=1 cols=1\r\x80", 3, 0x80),
    ],
)
def test_non_ascii_byte_reports_its_line(tmp_path, raw, line, byte):
    path = tmp_path / "m.txt"
    path.write_bytes(raw)
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(path)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: non-ASCII byte {byte:#04x}"
