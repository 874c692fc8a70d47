"""Exception types of the package, and read_rows, its input row grammar."""

import math


class DomainError(ValueError):
    """Input outside the physical or mathematical domain of an operation."""


class ParseError(ValueError):
    """Malformed input file.  Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConvergenceError(RuntimeError):
    """A numerical scheme failed to reach its tolerance.

    The best available value is kept in ``last_estimate`` so callers can
    decide whether to accept it anyway.
    """

    def __init__(self, message, last_estimate=None):
        super().__init__(message)
        self.last_estimate = last_estimate


class UnsupportedOperationError(TypeError):
    """Operation is meaningless for the given model (e.g. permittivity of
    a perfect reflector)."""


def _is_number(field):
    try:
        float(field)
    except ValueError:
        return False
    return True


def read_rows(lines):
    """Yield (line number, [x, y, z]) per data row of a text or iterable of
    lines: fields split at commas or whitespace, '#' starts a comment, one
    header line (no field a number) may precede the data, and every other
    line holds three finite numbers; else ParseError, also for no data row."""
    if isinstance(lines, str):
        lines = lines.splitlines()
    row, header = None, True        # header: a header line may still come
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split("#", 1)[0].replace(",", " ").split()
        if not fields:
            continue
        try:
            row = [float(f) for f in fields]
        except ValueError:          # the header test runs only here
            if header and row is None and not any(map(_is_number, fields)):
                header = False
                continue
            raise ParseError(f"non-numeric entry in {fields!r}", line=lineno)
        if len(row) != 3:
            raise ParseError(f"expected 3 columns, got {len(row)}", line=lineno)
        if not all(map(math.isfinite, row)):
            raise ParseError(f"non-finite entry in {fields!r}", line=lineno)
        yield lineno, row
    if row is None:
        raise ParseError("no data rows found")
