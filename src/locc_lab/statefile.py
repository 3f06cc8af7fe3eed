"""Exact parsing of state files.

A state file is UTF-8 text (a leading byte-order mark is ignored) holding
Schmidt coefficients either one per line (with `#` comments and blank
lines allowed) or as a single JSON list.
Every coefficient is parsed exactly as a rational - "0.36" becomes 9/25,
never a binary double - which is the contract that makes analyses of
decimal-specified states bit-reproducible.  Fractions like "9/25" and
scientific notation like "1e-3" are accepted too.

CLI arguments that do not name an existing file fall back to the bundled
catalog, so `locc-lab compare eq2 eq3` works out of the box.

`read_state` returns each coefficient token with the file line it sits
on, and `load_state` turns the tokens into a spectrum.  Every error names
the input; errors in a one-per-line file also carry the token's line, and
errors in a JSON list name the element's position instead.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .catalog import CATALOG
from .spectrum import (
    InputError,
    NegativeEntry,
    SchmidtSpectrum,
    SumNotOne,
    make_spectrum,
)


class StateFileError(InputError):
    """Unreadable or unparsable state input; knows file and line."""

    def __init__(self, source: str, message: str, line: int | None = None):
        self.source = source
        self.line = line
        where = f"{source}:{line}" if line is not None else source
        super().__init__(f"{where}: {message}")


def _tokens_from_lines(source: str, text: str) -> list[tuple[str, int]]:
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if len(line.split()) != 1:
            raise StateFileError(
                source, f"expected one coefficient per line, got {line!r}", lineno
            )
        tokens.append((line, lineno))
    if not tokens:
        raise StateFileError(source, "no coefficients found")
    return tokens


def _tokens_from_json(source: str, text: str) -> list[tuple[str, None]]:
    # Every number stays its file text, so it is parsed exactly, like a
    # one-per-line token, and never rounded to a binary double first.
    try:
        data = json.loads(text, parse_float=str, parse_int=str, parse_constant=str)
    except json.JSONDecodeError as exc:
        raise StateFileError(source, f"invalid JSON: {exc.msg}", exc.lineno) from None
    # Only text that starts with "[" gets here, so data is a list.
    if not data:
        raise StateFileError(source, "JSON input must be a non-empty list")
    for position, item in enumerate(data, start=1):
        if not isinstance(item, str):
            raise StateFileError(
                source, f"element {position} is not a number or string: {item!r}"
            )
    return [(item, None) for item in data]


def read_state(path_or_name: str) -> list[tuple[str, int | None]]:
    """Coefficient tokens of a state file, each with its file line.

    A name that is not an existing file falls back to the bundled catalog.
    The line is None for JSON elements and catalog entries.
    """
    if os.path.exists(path_or_name):
        try:
            with open(path_or_name, encoding="utf-8-sig") as handle:
                text = handle.read()
        except OSError as exc:
            raise StateFileError(path_or_name, f"cannot read: {exc}") from None
        except UnicodeDecodeError as exc:
            raise StateFileError(path_or_name, f"not UTF-8 text: {exc}") from None
        if text.lstrip().startswith("["):
            return _tokens_from_json(path_or_name, text)
        return _tokens_from_lines(path_or_name, text)
    if path_or_name in CATALOG:
        return [(token, None) for token in CATALOG[path_or_name]]
    raise StateFileError(
        path_or_name, "no such file, and not a bundled fixture name"
    )


def load_state(
    path_or_name: str, *, amplitudes: bool = False, normalize: bool = False
) -> SchmidtSpectrum:
    """Exact spectrum of a state file or catalog name.

    With amplitudes=True each entry is squared first.  With normalize=True
    the entries are rescaled by their exact sum instead of insisting that
    they already sum to 1.
    """
    tokens = read_state(path_or_name)
    values = []
    for position, (token, line) in enumerate(tokens, start=1):
        # Fraction("1e-N") builds 10**N, so a 13-byte token could run for
        # hours: bound the exponent as the decimal module's default context
        # does.  A malformed exponent is left for Fraction to report.
        _, e, exponent = token.lower().rpartition("e")
        try:
            exponent = int(exponent) if e else 0
        except ValueError:
            exponent = 0
        if abs(exponent) > 999_999:
            message = f"exponent {exponent} exceeds 999999 in magnitude"
            raise StateFileError(
                path_or_name, f"cannot parse entry {position} {token!r}: {message}", line
            )
        try:
            value = Fraction(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise StateFileError(
                path_or_name, f"cannot parse entry {position} {token!r}: {exc}", line
            ) from None
        values.append(value * value if amplitudes else value)
    if normalize:
        total = sum(values, Fraction(0))
        if total <= 0:
            raise StateFileError(path_or_name, "cannot normalize: sum is not positive")
        values = [v / total for v in values]
    try:
        return make_spectrum(values)
    except NegativeEntry as exc:
        raise StateFileError(path_or_name, str(exc), tokens[exc.index][1]) from None
    except SumNotOne as exc:
        raise StateFileError(path_or_name, str(exc)) from None
