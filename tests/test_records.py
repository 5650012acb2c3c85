"""The value classes keep the behaviour they had as frozen dataclasses:
equality by class and fields, hashing that agrees with it, field access,
a dataclass-style repr and no assignment after construction."""

import pytest

from minorcalc.demos import CDResult, CounterexampleResult, counterexample_check
from minorcalc.matrix import Matrix, MinorTable, Subset
from minorcalc.poly import Polynomial
from minorcalc.rings import (
    FootnoteAlgebra,
    IntegerRing,
    ModularRing,
    PrimeField,
    RationalField,
)
from minorcalc.scan import ScanReport, Violation, run_scan
from minorcalc.universal import OffDiagCertificate, UniversalPolynomial, synth_diag, synth_offdiag


def report(elapsed=0.0, candidates=3):
    return ScanReport(ring="Z/2", n=2, m_max=2, mode="exhaustive", seed="exhaustive",
                      trials=None, scanned=16, candidates=candidates, violations=[],
                      exploratory=False, elapsed=elapsed)


def test_rings_compare_by_class_and_fields():
    assert ModularRing(5) != PrimeField(5)
    assert PrimeField(5) != ModularRing(5)
    assert ModularRing(4) == ModularRing(4) != ModularRing(6)
    assert IntegerRing() == IntegerRing() != RationalField()
    assert RationalField() == RationalField()
    assert FootnoteAlgebra(PrimeField(3)) != FootnoteAlgebra()


@pytest.mark.parametrize(
    "make",
    [
        IntegerRing,
        RationalField,
        lambda: ModularRing(4),
        lambda: PrimeField(7),
        lambda: FootnoteAlgebra(PrimeField(3)),
        lambda: Subset(4, 0b1010),
        lambda: Violation(((1, 1), (0, 1)), 2, (1,), 3),
        lambda: UniversalPolynomial(3, 1, 2, {}),
        lambda: OffDiagCertificate(3, 1, 2, 2, (), {}),
        lambda: CDResult(True, 4, 5),
        counterexample_check,
    ],
)
def test_equal_values_hash_equally(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_footnote_default_base_and_cached_modulus():
    assert FootnoteAlgebra() == FootnoteAlgebra(PrimeField(2))
    assert hash(FootnoteAlgebra()) == hash(FootnoteAlgebra(PrimeField(2)))
    assert FootnoteAlgebra(base=PrimeField(3)).base == PrimeField(3)
    # _k is derived from the base and takes no part in == or repr
    a, b = FootnoteAlgebra(ModularRing(4)), FootnoteAlgebra(ModularRing(4))
    object.__setattr__(b, "_k", None)
    assert a._k == 4 and a == b
    assert "_k" not in repr(a)


def test_reprs_read_like_dataclasses():
    assert repr(ModularRing(4)) == "ModularRing(modulus=4)"
    assert repr(IntegerRing()) == "IntegerRing()"
    assert repr(Subset(3, 5)) == "Subset(n=3, mask=5)"
    assert repr(Violation(((1,),), 2, (1,), 0)) == (
        "Violation(matrix=((1,),), power=2, subset=(1,), value=0)"
    )
    assert repr(UniversalPolynomial(3, 1, 2, {"kept": "out"})) == "UniversalPolynomial(n=3, i=1, m=2)"
    assert repr(report(elapsed=1.5)).endswith("exploratory=False, elapsed=1.5)")


def test_subset_as_dict_key_and_table_lookups():
    table = {Subset.of(3, (1, 3)): "a", Subset(3, 0): "b"}
    assert table[Subset(3, 0b101)] == "a"
    assert table[Subset.empty(3)] == "b"
    assert Subset(3, 5) != Subset(4, 5)
    assert Subset(3, 5) != (3, 5)
    A = Matrix.from_ints(IntegerRing(), [[2, 1], [1, 3]])
    minors = A.principal_minors()
    assert isinstance(minors, MinorTable)
    assert minors[(1,)] == 2 and minors[(2,)] == 3 and minors[(1, 2)] == 5
    assert minors[Subset.full(2)] == 5
    assert minors == Matrix.from_ints(IntegerRing(), [[2, -1], [-1, 3]]).principal_minors()
    with pytest.raises(TypeError):
        hash(minors)  # its values are a dict


def test_subset_checks_its_fields():
    with pytest.raises(ValueError):
        Subset(-1, 0)
    with pytest.raises(ValueError):
        Subset(2, 0b100)
    with pytest.raises(ValueError):
        ModularRing(1)
    with pytest.raises(ValueError):
        PrimeField(9)


@pytest.mark.parametrize(
    "obj,name",
    [
        (ModularRing(4), "modulus"),
        (PrimeField(5), "modulus"),
        (FootnoteAlgebra(), "base"),
        (FootnoteAlgebra(), "_k"),
        (IntegerRing(), "anything"),
        (Subset(3, 1), "mask"),
        (Violation(((1,),), 2, (1,), 0), "power"),
        (UniversalPolynomial(3, 1, 2, {}), "types"),
        (OffDiagCertificate(3, 1, 2, 2, (), {}), "terms"),
        (CounterexampleResult(True, 0, False), "square_minor"),
    ],
)
def test_assigning_a_field_raises(obj, name):
    with pytest.raises(AttributeError):
        setattr(obj, name, 0)
    with pytest.raises(AttributeError):
        delattr(obj, name)


def test_scan_report_is_mutable_unhashable_and_ignores_elapsed():
    assert report(elapsed=0.1) == report(elapsed=9.0)
    assert report(candidates=3) != report(candidates=4)
    r = report()
    r.elapsed = 2.0
    assert r.elapsed == 2.0 and r == report()
    with pytest.raises(TypeError):
        hash(r)
    a, b = run_scan("mod:2", 2, 2), run_scan("mod:2", 2, 2)
    assert a == b and a.candidates == b.candidates


def test_universal_polynomial_equality_ignores_types_and_caches_body():
    assert UniversalPolynomial(3, 1, 2, {"a": 1}) == UniversalPolynomial(3, 1, 2, {"b": 2})
    assert UniversalPolynomial(3, 1, 2, {}) != UniversalPolynomial(3, 2, 2, {})
    P = synth_diag(3, 1, 2)
    assert P == UniversalPolynomial(3, 1, 2, {})
    fresh = UniversalPolynomial(P.n, P.i, P.m, P.types)
    assert "body" not in vars(fresh)
    body = fresh.body
    assert isinstance(body, Polynomial)
    assert fresh.body is body and vars(fresh)["body"] is body
    assert fresh.serialize() == f"{fresh.header()}\n{body}\n"


def test_certificate_equality_ignores_types():
    assert OffDiagCertificate(3, 1, 2, 2, (), {0: {"a": 1}}) == OffDiagCertificate(3, 1, 2, 2, (), {})
    C = synth_offdiag(3, 1, 2, 2)
    same = OffDiagCertificate(C.n, C.i, C.j, C.m, C.terms, {})
    assert C == same and hash(C) == hash(same)
    assert repr(same) == f"OffDiagCertificate(n=3, i=1, j=2, m=2, terms={C.terms!r})"
