"""The report and parameter records are immutable NamedTuples: fields in
declaration order, value equality and hashing, the `Name(field=value)`
repr, and the checks that `Rho1Form` and `ProjectivePointSet` make."""

import pytest

from crcodes.budgets import Budgets
from crcodes.classify import (
    CorpusReport,
    NotOfForm,
    Rho1Form,
    Rho2Report,
    TwoWeightStructure,
)
from crcodes.cli import _plain
from crcodes.constructions import Family, FamilyDescriptor, ProjectivePointSet
from crcodes.field import GF
from crcodes.matrix import MatrixGF
from crcodes.regularity import IntersectionArray, RegularityReport

ARRAY = IntersectionArray.from_levels(2, 3, (3,), (1,))
FORM = Rho1Form(2, 1, 0)
M = MatrixGF(GF(3), [[1, 2, 0]], 3)

# Each record with its fields in declaration order.
RECORDS = [
    (Budgets(1, 2, 3), ("max_syndromes", "max_codewords", "max_vectors")),
    (FORM, ("m", "ell", "u")),
    (NotOfForm("no nonzero columns"), ("reason",)),
    (
        Rho2Report(True, (1, 2, 1), M, True, False, FORM, 3),
        (
            "dual_antipodal", "column_scaling", "M", "equidistant_ok",
            "symbol_frequency_ok", "punctured_rho1_form", "puncture_column",
        ),
    ),
    (
        TwoWeightStructure(4, 2, True, (1, 1, 1, 1), M, M, True, True),
        (
            "w1", "w2", "w1_is_length", "column_scaling", "generator", "M",
            "equidistant_ok", "symbol_frequency_ok",
        ),
    ),
    (CorpusReport(2, 2, 5, ()), ("q", "m", "n_max", "entries")),
    (
        ProjectivePointSet(GF(2), 1, ((0, 1), (1, 0))),
        ("field", "dim", "points"),
    ),
    (
        FamilyDescriptor("i", (("m", 2),), 4, 1, 4, 1, ARRAY),
        ("family", "params", "n", "k", "d", "rho", "array"),
    ),
    (Family(("m",), abs, max, min), ("names", "build", "expect", "candidates")),
    (ARRAY, ("b", "c", "a")),
    (RegularityReport(True, 1, ARRAY), ("is_completely_regular", "rho", "array")),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, names", RECORDS, ids=IDS)
def test_records_are_frozen(record, names):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record, names", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records(record, names):
    twin = type(record)(**{name: getattr(record, name) for name in names})
    assert twin is not record
    assert twin == record
    assert hash(twin) == hash(record)


@pytest.mark.parametrize("record, names", RECORDS, ids=IDS)
def test_repr_names_every_field(record, names):
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
    assert repr(record) == f"{type(record).__name__}({fields})"


@pytest.mark.parametrize("record, names", RECORDS, ids=IDS)
def test_plain_gives_fields_in_declaration_order(record, names):
    assert list(_plain(record)) == list(names)


def test_plain_and_text_forms():
    assert repr(FORM) == "Rho1Form(m=2, ell=1, u=0)"
    assert repr(ARRAY) == "IntersectionArray(b=(3,), c=(1,), a=(0, 2))"
    assert str(ARRAY) == "(3;1)"
    assert _plain(Rho2Report(True, (1, 2, 1), M, True, False, FORM, None)) == {
        "dual_antipodal": True,
        "column_scaling": [1, 2, 1],
        "M": [[1, 2, 0]],
        "equidistant_ok": True,
        "symbol_frequency_ok": False,
        "punctured_rho1_form": {"m": 2, "ell": 1, "u": 0},
        "puncture_column": None,
    }


def test_rho1_form_checks_its_fields():
    for bad in ((0, 1, 0), (2, 0, 0), (2, 1, -1)):
        with pytest.raises(ValueError, match=r"^inconsistent form Rho1Form\(m="):
            Rho1Form(*bad)
    with pytest.raises(ValueError, match=r"inconsistent form Rho1Form\(m=2, ell=1, u=-1\)"):
        FORM._replace(u=-1)
    assert FORM._replace(u=2) == Rho1Form(2, 1, 2)


def test_point_set_checks_its_points_and_counts_them():
    f = GF(3)
    for points, message in (
        (((1, 0, 0),), r"point \(1, 0, 0\) has wrong length"),
        (((0, 2),), r"point \(0, 2\) is not in canonical form"),
        (((1, 0), (1, 0)), r"duplicate point \(1, 0\)"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ProjectivePointSet(f, 1, points)
    points = ProjectivePointSet(f, 1, ((0, 1), (1, 0), (1, 1), (1, 2)))
    assert len(points) == 4
    assert len(ProjectivePointSet(f, 1, ())) == 0
    with pytest.raises(ValueError, match="duplicate"):
        points._replace(points=((0, 1), (0, 1)))
