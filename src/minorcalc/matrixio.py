"""JSON (de)serialization of matrices and ring specifications.

Schema: ``{"ring": {"kind": "int" | "mod" | "footnote", "modulus"?: k},
"n": int, "entries": [[...]]}``.  Entries are integers (reduced mod k
for "mod"); for "footnote" they may also be coordinate 6-vectors of
integers or the basis symbols "1", "x", "y", "x^2", "y^2", "x^3".  A
"footnote" ring reads back as the algebra over F_k (F_2 with no
modulus), so only the algebra over a prime field is written out.
``n``, ``modulus``, entries and coordinates must be JSON integers, not
floats, bools, strings or null; malformed input raises ``ValueError``.
A matrix file's integers may have at most ``MAX_FILE_DIGITS`` decimal
digits in all: Python converts between text and int in quadratic time,
so a larger file is refused before its integers are converted.
"""

from __future__ import annotations

import json

from .matrix import Matrix
from .rings import FOOTNOTE_BASIS, FootnoteAlgebra, IntegerRing, ModularRing, PrimeField, Ring

MAX_FILE_DIGITS = 100_000


def ring_from_spec(spec: str) -> Ring:
    """Parse a CLI ring spec: ``int``, ``footnote``, ``mod:k`` or
    ``footnote:p``, with k and p in ASCII decimal digits only."""
    if spec == "int":
        return IntegerRing()
    if spec == "footnote":
        return FootnoteAlgebra()
    kind, sep, digits = spec.partition(":")
    if not sep or kind not in ("mod", "footnote"):
        raise ValueError(f"unknown ring spec {spec!r} (expected int, mod:k or footnote:p)")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"ring spec {spec!r}: the modulus must be ASCII decimal digits")
    try:
        if kind == "mod":
            return ModularRing(int(digits))
        return FootnoteAlgebra(PrimeField(int(digits)))
    except ValueError as exc:
        raise ValueError(f"ring spec {spec!r}: {exc}") from None


def ring_to_json(ring: Ring) -> dict:
    """The JSON form of Z, Z/k, F_p or the quotient algebra over F_p, which
    ``ring_from_json`` reads back; any other ring raises ``ValueError``."""
    if isinstance(ring, FootnoteAlgebra) and isinstance(ring.base, PrimeField):
        return {"kind": "footnote", "modulus": ring.base.modulus}
    if isinstance(ring, ModularRing):
        return {"kind": "mod", "modulus": ring.modulus}
    if isinstance(ring, IntegerRing):
        return {"kind": "int"}
    raise ValueError(f"ring {ring.describe()} has no JSON form")


def _json_int(value, what: str) -> int:
    """`value` if it is a JSON integer; floats, bools, strings and null
    are rejected."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def _field(data: dict, key: str, what: str):
    if key not in data:
        raise ValueError(f"{what} has no {key!r}")
    return data[key]


def ring_from_json(data: dict) -> Ring:
    data = _json_object(data, "ring")
    kind = data.get("kind")
    if kind == "int":
        return IntegerRing()
    if kind == "mod":
        return ModularRing(_json_int(_field(data, "modulus", "ring"), "modulus"))
    if kind == "footnote":
        if "modulus" in data:
            return FootnoteAlgebra(PrimeField(_json_int(data["modulus"], "modulus")))
        return FootnoteAlgebra()
    raise ValueError(f"unknown ring kind {kind!r}")


def _footnote_entry(ring: FootnoteAlgebra, value):
    if isinstance(value, str):
        if value not in FOOTNOTE_BASIS:
            raise ValueError(f"unknown footnote symbol {value!r}")
        return ring.basis_element(value)
    if isinstance(value, (list, tuple)):
        if len(value) != 6:
            raise ValueError(f"bad footnote entry {value!r}")
        return tuple(ring.base.from_int(_json_int(c, "footnote coordinate")) for c in value)
    return ring.from_int(_json_int(value, "entry"))


def matrix_from_json(data: dict) -> Matrix:
    """Parse the matrix schema; any malformed input raises ValueError."""
    data = _json_object(data, "matrix file")
    ring = ring_from_json(_field(data, "ring", "matrix file"))
    n = _json_int(_field(data, "n", "matrix file"), "n")
    entries = _field(data, "entries", "matrix file")
    if not (
        isinstance(entries, (list, tuple))
        and len(entries) == n
        and all(isinstance(row, (list, tuple)) and len(row) == n for row in entries)
    ):
        raise ValueError(f"entries are not an {n}x{n} grid")
    if isinstance(ring, FootnoteAlgebra):
        rows = [[_footnote_entry(ring, v) for v in row] for row in entries]
        return Matrix(ring, rows)
    return Matrix.from_ints(ring, [[_json_int(v, "entry") for v in row] for row in entries])


def matrix_to_json(M: Matrix) -> dict:
    ring = M.ring
    if isinstance(ring, FootnoteAlgebra):
        entries = [[list(v) for v in row] for row in M.rows]
    else:
        entries = [list(row) for row in M.rows]
    return {"ring": ring_to_json(ring), "n": M.nrows, "entries": entries}


def load_matrix_file(path: str) -> Matrix:
    digits = 0

    def parse_int(text: str) -> int:
        nonlocal digits
        digits += len(text) - text.startswith("-")
        if digits > MAX_FILE_DIGITS:
            raise ValueError(f"its integers have more than {MAX_FILE_DIGITS} digits in all")
        return int(text)

    with open(path, encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh, parse_int=parse_int))
