"""The row grammar of both input files: the n,k table of --optical-data
and the measured gradients of --expt read their rows through one reader,
errors.read_rows, and keep only their own column rules."""

import pytest

import nlcasimir
from nlcasimir import ParseError, parse_experiment_csv, parse_optical_table
from nlcasimir.errors import read_rows

from conftest import OPTICAL_TEXT

PARSERS = pytest.mark.parametrize("parse", [parse_optical_table,
                                            parse_experiment_csv])
GOOD = "1.0, 2.0, 0.5\n"      # a row both files take


@PARSERS
def test_a_malformed_first_row_is_refused_not_skipped(parse):
    # it holds numbers, so it is no header
    with pytest.raises(ParseError) as err:
        parse("0.6, 1.5e-5, 2e-7x\n0.8, 7e-6, 1.5e-7\n")
    assert err.value.line == 1
    assert str(err.value) == ("line 1: non-numeric entry in "
                              "['0.6', '1.5e-5', '2e-7x']")


def test_an_nk_table_takes_a_header_and_commas():
    lines = [line for line in OPTICAL_TEXT.splitlines()
             if not line.startswith("#")]
    plain = parse_optical_table(OPTICAL_TEXT)
    with_header = parse_optical_table(
        "E_eV, n, k\n" + "\n".join(", ".join(line.split()) for line in lines))
    for name in ("energy", "n", "k"):
        a, b = getattr(plain, name), getattr(with_header, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@PARSERS
@pytest.mark.parametrize("text, line, message", [
    pytest.param(GOOD + "2.0 3.0\n", 2, "expected 3 columns, got 2",
                 id="two-columns"),
    pytest.param(GOOD + "2.0 3.0 0.5 1.0\n", 2, "expected 3 columns, got 4",
                 id="four-columns"),
    pytest.param(GOOD + "2.0, x, 0.5\n", 2,
                 "non-numeric entry in ['2.0', 'x', '0.5']", id="non-numeric"),
    # a wrong count with a non-numeric field reports the field
    pytest.param(GOOD + "2.0 x\n", 2, "non-numeric entry in ['2.0', 'x']",
                 id="non-numeric-and-two-columns"),
    pytest.param(GOOD + "2.0 nan 0.5\n", 2,
                 "non-finite entry in ['2.0', 'nan', '0.5']", id="nan"),
    pytest.param(GOOD + "2.0 0.5 inf\n", 2,
                 "non-finite entry in ['2.0', '0.5', 'inf']", id="inf"),
    pytest.param("E, n, k\nalso, not, data\n" + GOOD, 2,
                 "non-numeric entry in ['also', 'not', 'data']",
                 id="second-header"),
    pytest.param(GOOD + "E, n, k\n", 2, "non-numeric entry in ['E', 'n', 'k']",
                 id="header-after-data"),
    # nan parses as a float, so this line is no header
    pytest.param("a, nan, c\n" + GOOD, 1,
                 "non-numeric entry in ['a', 'nan', 'c']",
                 id="header-holding-a-number"),
    pytest.param("# comments only\n\nE, n, k  # and a header\n", None,
                 "no data rows found", id="header-only"),
    pytest.param("", None, "no data rows found", id="empty")])
def test_a_grammar_fault_reads_the_same_in_both_files(parse, text, line,
                                                      message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None
                              else f"line {line}: {message}")


def test_rows_come_with_their_line_numbers_from_text_or_lines():
    text = "# scan\nE n k\n\n0.5 1 2  # first\n1.5,3,4\n"
    want = [(4, [0.5, 1.0, 2.0]), (5, [1.5, 3.0, 4.0])]
    assert list(read_rows(text)) == want
    assert list(read_rows(text.splitlines(keepends=True))) == want
    assert "read_rows" not in nlcasimir.__all__
