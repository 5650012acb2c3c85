import json

import pytest

from minorcalc.matrix import Matrix
from minorcalc.matrixio import (
    MAX_FILE_DIGITS,
    load_matrix_file,
    matrix_from_json,
    matrix_to_json,
    ring_from_json,
    ring_from_spec,
    ring_to_json,
)
from minorcalc.rings import FootnoteAlgebra, IntegerRing, ModularRing, PrimeField


class TestRingSpec:
    @pytest.mark.parametrize(
        "spec,described",
        [
            ("int", "Z"),
            ("mod:2", "Z/2"),
            ("mod:101", "Z/101"),
            ("footnote", FootnoteAlgebra().describe()),
            ("footnote:3", FootnoteAlgebra(PrimeField(3)).describe()),
        ],
    )
    def test_parses(self, spec, described):
        assert ring_from_spec(spec).describe() == described

    @pytest.mark.parametrize(
        "spec", ["", "rationals", "mod", "mod:", "gf:4", "mod:1_6", "mod: +3", "mod:2:3",
                 "footnote:x", "footnote:", "mod:1", "footnote:4"]
    )
    def test_rejects_garbage(self, spec):
        with pytest.raises(ValueError):
            ring_from_spec(spec)

    def test_json_roundtrip(self):
        for ring in (IntegerRing(), ModularRing(6), FootnoteAlgebra(),
                     FootnoteAlgebra(PrimeField(5))):
            again = ring_from_json(ring_to_json(ring))
            assert again.describe() == ring.describe()


class TestMatrixJson:
    def test_int_roundtrip(self):
        A = Matrix.from_ints(IntegerRing(), [[1, -2], [3, 4]])
        B = matrix_from_json(matrix_to_json(A))
        assert B.rows == A.rows
        assert B.ring.describe() == "Z"

    def test_mod_roundtrip_canonicalizes(self):
        data = {"ring": {"kind": "mod", "modulus": 4}, "n": 2,
                "entries": [[5, -1], [0, 2]]}
        A = matrix_from_json(data)
        assert A.rows == ((1, 3), (0, 2))

    def test_footnote_symbol_entries(self):
        data = {
            "ring": {"kind": "footnote", "modulus": 2},
            "n": 2,
            "entries": [[1, "x"], ["y", "x^3"]],
        }
        A = matrix_from_json(data)
        ring = A.ring
        assert ring.eq(A.entry(1, 2), ring.basis_element("x"))
        assert ring.eq(A.entry(2, 2), ring.basis_element("x^3"))

    def test_footnote_vector_entries_roundtrip(self):
        ring = FootnoteAlgebra()
        data = {
            "ring": {"kind": "footnote", "modulus": 2},
            "n": 2,
            "entries": [[[1, 0, 0, 0, 0, 1], 0], [1, "y"]],
        }
        A = matrix_from_json(data)
        expected = ring.add(ring.one(), ring.basis_element("x^3"))
        assert ring.eq(A.entry(1, 1), expected)
        again = matrix_from_json(matrix_to_json(A))
        assert again.rows == A.rows

    def test_bad_footnote_symbol(self):
        data = {"ring": {"kind": "footnote"}, "n": 1, "entries": [["z"]]}
        with pytest.raises(ValueError, match="unknown footnote symbol"):
            matrix_from_json(data)

    @pytest.mark.parametrize("kind", [{"kind": "int"}, {"kind": "mod", "modulus": 4}])
    @pytest.mark.parametrize("entry", [2.5, True, None, "3"])
    def test_entries_must_be_json_integers(self, kind, entry):
        data = {"ring": kind, "n": 1, "entries": [[entry]]}
        with pytest.raises(ValueError, match="must be an integer"):
            matrix_from_json(data)

    def test_shape_mismatch(self):
        data = {"ring": {"kind": "int"}, "n": 2, "entries": [[1, 2, 3], [4, 5, 6]]}
        with pytest.raises(ValueError, match="grid"):
            matrix_from_json(data)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"ring": {"kind": "int"}, "n": 2, "entries": [[1, 2], [3, 4]]}
        ))
        A = load_matrix_file(str(path))
        assert A.pow(2).entry(1, 1) == 7

    def test_digit_budget_of_a_file(self, tmp_path):
        # an 8 x 8 file whose integers have exactly MAX_FILE_DIGITS digits
        # loads, signs not counted; one digit more is refused
        width = (MAX_FILE_DIGITS - 1) // 64
        first = -int("7" * (MAX_FILE_DIGITS - 1 - 63 * width))
        entries = [[int("3" * width)] * 8 for _ in range(8)]
        entries[0][0] = first
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"ring": {"kind": "int"}, "n": 8, "entries": entries}))
        A = load_matrix_file(str(path))
        assert A.entry(1, 1) == first and A.entry(8, 8) == int("3" * width)
        entries[0][0] = first * 10
        path.write_text(json.dumps({"ring": {"kind": "int"}, "n": 8, "entries": entries}))
        with pytest.raises(ValueError, match=f"more than {MAX_FILE_DIGITS} digits"):
            load_matrix_file(str(path))
