"""The package namespace: the names `crcodes` exports, each loaded from
its module on first use, and what importing the package costs.

The import checks run in fresh interpreters and count only the modules
a bare interpreter does not already hold, so `site` hooks do not count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import crcodes

SRC = str(Path(crcodes.__file__).resolve().parents[1])

SUBMODULES = [
    "budgets", "classify", "codes", "constructions",
    "field", "matio", "matrix", "regularity",
]
EXPORTS = [
    "BudgetExceeded", "Budgets", "CodeAnalysis", "CorpusEntry", "CorpusReport",
    "DEFAULT_BUDGETS", "FamilyDescriptor", "Field", "GF", "IntersectionArray",
    "LinearCode", "MatrixFormatError", "MatrixGF", "NoZeroColumnReachable",
    "NotOfForm", "NotTwoWeight", "ProjectivePointSet", "RegularityReport",
    "Rho1Form", "Rho2Report", "SyndromeTable", "TrivialCode",
    "TwoWeightStructure", "antipodal_d1", "antipodal_d1_pair",
    "beta_solve", "budgets", "build_family", "canonical_column", "classify",
    "classify_rho1", "codes", "complementary_parity_columns",
    "complete_regularity", "complete_regularity_bruteforce", "construction_I",
    "construction_II", "constructions", "covering_radius", "d1_antipodal_code",
    "denniston_arc", "difference_matrix", "difference_matrix_code",
    "enumerate_rho1", "extendable_hamming_code", "external_distance",
    "external_lines", "external_lines_code", "family_catalog", "field",
    "format_matrix", "hamming_code", "hamming_parity", "hyperoval",
    "is_antipodal", "is_equidistant", "iter_projective", "kernel_basis",
    "latin_square_code", "macwilliams_transform", "matio", "matrix",
    "min_distance", "nonzero_weights", "num_pg_points", "parse_matrix",
    "pg_points", "point_set_code", "rank", "read_matrix", "regularity",
    "rho1_intersection_array", "row_space_basis", "rref",
    "two_weight_structure", "verify_theorem31", "verify_theorem41",
    "weight_distribution", "weight_pair", "write_matrix",
]


def _modules_after(statements: str) -> set[str]:
    """The modules a fresh interpreter holds after running statements."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
    }
    proc = subprocess.run(
        [sys.executable, "-c", f"{statements}\nimport sys\nprint(*sys.modules)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.fixture(scope="module")
def added():
    bare = _modules_after("")
    return lambda statements: _modules_after(statements) - bare


def _ours(modules):
    return {m for m in modules if m.split(".")[0] == "crcodes"}


def test_import_crcodes_loads_no_submodule(added):
    assert _ours(added("import crcodes")) == {"crcodes"}


def test_one_name_loads_its_module_only(added):
    assert _ours(added("from crcodes import GF")) == {"crcodes", "crcodes.field"}


def test_reading_a_matrix_file_loads_what_it_uses(added, tmp_path):
    path = tmp_path / "h.txt"
    crcodes.write_matrix(crcodes.hamming_code(3, 2).H, path)
    loaded = added(
        "import crcodes\n"
        f"crcodes.LinearCode.from_parity(crcodes.read_matrix({str(path)!r}))"
    )
    assert _ours(loaded) == {
        "crcodes", "crcodes.budgets", "crcodes.codes", "crcodes.field",
        "crcodes.matio", "crcodes.matrix",
    }


def test_cli_start_up_loads_no_heavy_stdlib_module(added):
    # dataclasses pulls in inspect; fractions is needed only by
    # beta_solve's result, and constructions only by construct and catalog
    loaded = added("import crcodes.cli")
    assert "crcodes.regularity" in loaded
    assert not loaded & {"dataclasses", "inspect", "fractions", "crcodes.constructions"}


def test_census_start_up_loads_only_what_it_uses(added):
    # the census measures thousands of tiny codes per process, so its
    # start-up is a large share of a run: no CLI, file I/O, family
    # constructions or exact fractions
    loaded = added("from crcodes import enumerate_rho1\nenumerate_rho1(2, 2, 6)")
    assert _ours(loaded) == {
        "crcodes", "crcodes.budgets", "crcodes.classify", "crcodes.codes",
        "crcodes.field", "crcodes.matrix", "crcodes.regularity",
    }
    assert not loaded & {"fractions", "decimal", "argparse", "json"}


def test_catalog_and_analyze_load_no_fractions(added, tmp_path):
    # the verdict, the array and the theorem checks are integer
    # arithmetic; only a --beta that has a solution builds Fractions,
    # and importing fractions imports decimal with it
    files = {}
    for name, code in (
        ("h32", crcodes.hamming_code(3, 2)),  # rho = s = 1
        ("h32x", crcodes.hamming_code(3, 2).extended()),  # rho = 2 < s = 3
        ("ii4", crcodes.build_family("ii", q=4)[1]),
    ):
        files[name] = str(tmp_path / f"{name}.txt")
        crcodes.write_matrix(code.H, files[name])

    def loaded(*argv):
        return added(
            "import contextlib, io\n"
            "from crcodes.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({list(argv)!r}) == 0"
        )

    heavy = {"fractions", "decimal"}
    catalog = ["catalog", "--qn-bound", "12", "--out", str(tmp_path / "cat")]
    assert not loaded(*catalog) & heavy
    assert not loaded("analyze", files["h32x"], "--json") & heavy
    assert not loaded("analyze", files["h32x"], "--json", "--beta") & heavy
    assert not loaded("classify", files["h32"], "--theorem", "31") & heavy
    for theorem in ("41", "52"):
        assert not loaded("classify", files["ii4"], "--theorem", theorem) & heavy
    assert loaded("analyze", files["h32"], "--json", "--beta") >= heavy


def test_all_is_the_exported_names():
    assert crcodes.__all__ == EXPORTS
    assert set(SUBMODULES) < set(EXPORTS)


@pytest.mark.parametrize("name", EXPORTS)
def test_each_name_is_its_defining_modules_object(name):
    obj = getattr(crcodes, name)
    if name in SUBMODULES:
        assert obj is sys.modules[f"crcodes.{name}"]
    else:
        assert obj.__module__.startswith("crcodes.")
        assert obj is getattr(sys.modules[obj.__module__], name)


def test_star_import_dir_and_unknown_names():
    namespace = {}
    exec("from crcodes import *", namespace)
    assert {name: namespace[name] for name in EXPORTS} == {
        name: getattr(crcodes, name) for name in EXPORTS
    }
    assert set(EXPORTS) <= set(dir(crcodes))
    with pytest.raises(AttributeError, match="module 'crcodes' has no attribute 'nope'"):
        crcodes.nope
    with pytest.raises(ImportError):
        exec("from crcodes import nope", {})
