"""Command-line behavior: outputs, JSON stability, the exit-code contract."""

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import crcodes
from crcodes import classify as classify_module
from crcodes import cli as cli_module
from crcodes import codes as codes_module
from crcodes import constructions as constructions_module
from crcodes import regularity as regularity_module
from crcodes.classify import NoZeroColumnReachable
from crcodes.cli import analysis_report, main
from crcodes.codes import LinearCode
from crcodes.constructions import (
    FAMILIES,
    build_family,
    family_catalog,
    difference_matrix_code,
    hamming_code,
)
from crcodes.matio import write_matrix
from crcodes.matrix import MatrixGF
from crcodes.field import GF
from crcodes.regularity import SyndromeTable


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def hamming32_path(tmp_path):
    path = tmp_path / "h32.txt"
    write_matrix(hamming_code(3, 2).H, path)
    return str(path)


@pytest.fixture
def diffmat32_path(tmp_path):
    path = tmp_path / "dm32.txt"
    write_matrix(difference_matrix_code(3, 2).H, path)
    return str(path)


def test_construct_writes_matrix_and_summary(capsys, tmp_path):
    out = tmp_path / "ii.txt"
    code, stdout, _ = run(
        capsys, "construct", "ii", "--q", "4", "--out", str(out)
    )
    assert code == 0
    assert stdout.strip() == (
        "ii-q4: [6,3,4]_4 expected rho=2 intersection array (18,15;1,6)"
    )
    text = out.read_text()
    assert text.startswith("# ii-q4 parity check\n")
    assert "q=4" in text


def test_construct_more_families(capsys, tmp_path):
    cases = {
        ("iii", "--q", "3", "--m", "2"): (
            "iii-q3-m2: [9,6,3]_3 expected rho=2 intersection array (18,8;1,18)"
        ),
        ("i", "--m", "5"): (
            "i-m5: [32,26,4]_2 expected rho=2 intersection array (32,31;1,32)"
        ),
    }
    for argv, expect in cases.items():
        out = tmp_path / ("x" + argv[0] + ".txt")
        code, stdout, _ = run(capsys, "construct", *argv, "--out", str(out))
        assert code == 0
        assert stdout.strip() == expect


def test_docstring_lists_the_family_table():
    # the family lines of the module docstring: id, then one --flag per
    # parameter, then a description
    doc = cli_module.__doc__.split("Families and their parameters:\n\n")[1]
    listed = []
    for line in doc.split("\n\n")[0].splitlines():
        family, *words = line.split()
        listed.append((family, tuple(w for w in words if w.startswith("--"))))
    assert listed == [
        (family, tuple("--" + name for name in entry.names))
        for family, entry in FAMILIES.items()
    ]


def test_construct_help_lists_the_families(capsys):
    # the table comes from the docstring, so `construct --help` names
    # every family without importing constructions
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    listed = [line.split()[0] for line in lines if line.startswith("  ")]
    assert [f for f in listed if f in FAMILIES] == list(FAMILIES)


def test_construct_rejects_bad_parameters(capsys, tmp_path):
    out = str(tmp_path / "x.txt")
    code, _, stderr = run(capsys, "construct", "iii", "--q", "3", "--out", out)
    assert code == 2
    assert stderr.startswith("error:")
    code, _, stderr = run(
        capsys, "construct", "ii", "--q", "6", "--out", out
    )
    assert code == 2
    # build_family, not argparse, rejects an unknown id, and names the known ones
    assert run(capsys, "construct", "viii", "--out", out) == (
        2, "", f"error: unknown family 'viii'; choose from {', '.join(FAMILIES)}\n"
    )
    assert not os.path.exists(out)


def test_analyze_human_output(capsys, hamming32_path):
    code, stdout, _ = run(capsys, "analyze", hamming32_path)
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "[4,2,3]_3"
    assert lines[1] == "rho=1 s=1 completely regular: yes"
    assert lines[2] == "intersection array (8;1) with a=(0,7)"
    assert "uniformly packed: yes" in lines
    assert "weights: 3" in lines
    assert "dual weights: 3" in lines
    assert "radius-1 column form: m=2 ell=1 u=0" in lines
    assert any(line.startswith("radius-2 normal form: fails") for line in lines)


def test_analyze_flags(capsys, hamming32_path):
    code, stdout, _ = run(
        capsys, "analyze", hamming32_path, "--beta", "--brute-force"
    )
    assert code == 0
    assert "beta: 1, 1" in stdout
    assert "brute-force oracle agrees" in stdout


def test_analyze_json_order_and_determinism(capsys, hamming32_path):
    code, first, _ = run(capsys, "analyze", hamming32_path, "--json")
    assert code == 0
    code, second, _ = run(capsys, "analyze", hamming32_path, "--json")
    assert first == second
    report = json.loads(first)
    assert list(report) == [
        "q", "n", "k", "d", "rho", "s", "weights", "dual_weights",
        "is_completely_regular", "intersection_array", "uniformly_packed",
        "classification",
    ]
    assert report["intersection_array"] == {"b": [8], "c": [1], "a": [0, 7]}
    assert report["classification"]["rho1"] == {"m": 2, "ell": 1, "u": 0}
    assert report["classification"]["rho2"]["dual_antipodal"] is False


def test_analyze_error_exits(capsys, tmp_path, hamming32_path):
    code, _, stderr = run(capsys, "analyze", str(tmp_path / "missing.txt"))
    assert code == 3
    assert "error:" in stderr
    bad = tmp_path / "bad.txt"
    bad.write_text("q=3\nrows=1 cols=2\n0\n")
    code, _, stderr = run(capsys, "analyze", str(bad))
    assert code == 3
    assert "line 3" in stderr
    # d = 1 < 2s - 1 = 3, so this code's verdict needs its 9-syndrome table
    outside = tmp_path / "outside.txt"
    write_matrix(MatrixGF(GF(3), [[0, 0, 1], [0, 2, 2]]), outside)
    code, _, stderr = run(capsys, "analyze", str(outside), "--max-syndromes", "3")
    assert code == 4
    assert "max_syndromes" in stderr


def test_matrix_without_columns_exits_2(capsys, tmp_path):
    # the file parses, but a code needs at least one coordinate
    for rows in (0, 2):
        path = str(tmp_path / f"empty{rows}.txt")
        write_matrix(MatrixGF(GF(2), [[]] * rows, 0), path)
        for argv in (("analyze", path), ("classify", path, "--theorem", "41")):
            assert run(capsys, *argv) == (
                2, "", "error: a code needs at least one coordinate\n"
            )


def test_non_ascii_matrix_file_is_a_parse_error(capsys, tmp_path, hamming32_path):
    # a UTF-8 comment ("ρ" is 0xcf 0x81) exits 3 like any other bad line
    path = tmp_path / "utf8.txt"
    path.write_bytes(
        "# \u03c1=2\n".encode() + Path(hamming32_path).read_bytes()
    )
    for argv in (("analyze", str(path)), ("classify", str(path), "--theorem", "31")):
        assert run(capsys, *argv) == (3, "", "error: line 1: non-ASCII byte 0xcf\n")


def test_repeated_header_key_exits_3(capsys, tmp_path):
    path = tmp_path / "twice.txt"
    path.write_text("q=2 q=3\nrows=1 rows=2 cols=2\n0 1\n1 0\n")
    assert run(capsys, "analyze", str(path)) == (
        3, "", "error: line 1: repeated key 'q'\n"
    )


def test_delsarte_range_codes_need_no_syndrome_budget(capsys, hamming32_path):
    # the ternary Hamming code has d = 3 >= 2s - 1 = 1, so its report is
    # read off the weight pair: a cap of 0 syndromes changes no output.
    # The brute force still builds the table, and is refused
    for argv in (
        ("analyze", hamming32_path),
        ("analyze", hamming32_path, "--json", "--beta"),
        ("classify", hamming32_path, "--theorem", "31"),
        ("classify", hamming32_path, "--theorem", "41", "--json"),
    ):
        expected = run(capsys, *argv)
        assert expected[0] == 0
        assert run(capsys, *argv, "--max-syndromes", "0") == expected
    assert run(
        capsys, "analyze", hamming32_path, "--brute-force", "--max-syndromes", "0"
    ) == (4, "", "error: max_syndromes: needs 9 but the budget allows 0\n")


def test_brute_force_budget_exits_4(capsys, hamming32_path):
    # the ternary [4,2] Hamming code has 3^2 = 9 syndromes, each with
    # 4 * 2 = 8 neighbours to recount
    code, stdout, stderr = run(
        capsys, "analyze", hamming32_path, "--brute-force", "--max-vectors", "7"
    )
    assert code == 4
    assert stdout == ""
    assert stderr == "error: max_vectors: needs 72 but the budget allows 7\n"


def test_brute_force_catches_a_wrong_verdict(capsys, monkeypatch, tmp_path):
    # a spectrum that asks one syndrome more of the top level turns the
    # verdict on a completely regular code outside Delsarte's bound
    # (d = 1 < 2s - 1 = 3: a zero column and the columns (0, 2), (1, 2)
    # of GF(3)^2); the brute force never reads it and disagrees: exit 5
    path = tmp_path / "outside.txt"
    write_matrix(MatrixGF(GF(3), [[0, 0, 1], [0, 2, 2]]), path)
    real = regularity_module.spectral_array

    def wrong_top(*args):
        s, k_s, b, c = real(*args)
        return s, k_s + 1, b, c

    assert run(capsys, "analyze", str(path), "--brute-force")[0] == 0
    monkeypatch.setattr(regularity_module, "spectral_array", wrong_top)
    assert run(capsys, "analyze", str(path), "--brute-force") == (
        5,
        "",
        "error: the syndrome table's regularity report and the brute-force"
        " recount disagree\n",
    )


def test_beta_walks_no_vector(capsys, hamming32_path):
    # beta is solved from the dual weights, so no vector budget applies
    code, stdout, stderr = run(
        capsys, "analyze", hamming32_path, "--beta", "--max-vectors", "0"
    )
    assert (code, stderr) == (0, "")
    assert "beta: 1, 1" in stdout.splitlines()


@pytest.mark.parametrize(
    "flag, needed",
    [("--max-syndromes", 9), ("--max-codewords", 9), ("--max-vectors", 72)],
)
def test_budget_flags_refuse_negative_caps(capsys, hamming32_path, flag, needed):
    # a negative cap is a parameter error at parse time (exit 2), not a
    # budget the walk then exceeds; a cap of 0 refuses the walk (exit 4)
    for value in ("-1", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", hamming32_path, "--brute-force", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"argument {flag}: expected an integer >= 0, got '{value}'\n"
        )
    name = flag[2:].replace("-", "_")
    assert run(capsys, "analyze", hamming32_path, "--brute-force", flag, "0") == (
        4, "", f"error: {name}: needs {needed} but the budget allows 0\n"
    )


@pytest.mark.parametrize(
    "error", [NoZeroColumnReachable("no puncture works"), AssertionError("broken")]
)
def test_verifier_failures_exit_5(capsys, monkeypatch, diffmat32_path, error):
    # today's mapping, which ROADMAP item 6 plans to narrow to typed errors
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli_module, "verify_theorem41", failing)
    code, stdout, stderr = run(capsys, "classify", diffmat32_path, "--theorem", "41")
    assert code == 5
    assert stdout == ""
    assert stderr == f"error: {error}\n"


def test_classify_31(capsys, monkeypatch, hamming32_path, tmp_path):
    # each file is classified once: verify_theorem31 is handed the form
    # the command holds
    classified = []
    real = classify_module.classify_rho1

    def counted(code):
        classified.append(code)
        return real(code)

    monkeypatch.setattr(classify_module, "classify_rho1", counted)
    monkeypatch.setattr(cli_module, "classify_rho1", counted)
    code, stdout, _ = run(
        capsys, "classify", hamming32_path, "--theorem", "31"
    )
    assert code == 0
    assert "column form: m=2 ell=1 u=0" in stdout
    assert "radius-1 equivalence holds: yes" in stdout
    assert len(classified) == 1
    # a code that is neither of the form nor completely regular still
    # satisfies the biconditional, but reports no form; exit stays 0
    probe = tmp_path / "probe.txt"
    write_matrix(MatrixGF(GF(2), [[1, 0, 1, 1], [0, 1, 0, 1]]), probe)
    code, stdout, _ = run(capsys, "classify", str(probe), "--theorem", "31")
    assert code == 0
    assert "column form: none" in stdout
    assert len(classified) == 2


def test_classify_31_json(capsys, hamming32_path):
    code, stdout, _ = run(
        capsys, "classify", hamming32_path, "--theorem", "31", "--json"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload == {
        "theorem": "31",
        "holds": True,
        "form": {"m": 2, "ell": 1, "u": 0},
        "reason": None,
    }


def test_classify_31_decides_from_the_smaller_sides_weights(capsys, diffmat32_path):
    # the [9,6]_3 difference-matrix code has rho = 2, and its regularity
    # is decided from the dual weights, walked on the smaller side: the
    # 27 dual words.  A cap below both sides refuses, as it does not
    # when rho = 2 is read off the syndrome table alone
    argv = ("classify", diffmat32_path, "--theorem", "31", "--max-codewords")
    assert run(capsys, *argv, "26") == (
        4, "", "error: max_codewords: needs 27 but the budget allows 26\n"
    )
    code, stdout, stderr = run(capsys, *argv, "27")
    assert (code, stderr) == (0, "")
    assert "radius-1 equivalence holds: yes" in stdout.splitlines()


def test_classify_41(capsys, diffmat32_path):
    code, stdout, _ = run(
        capsys, "classify", diffmat32_path, "--theorem", "41"
    )
    assert code == 0
    assert "dual antipodal: True" in stdout
    assert "punctured form: m=2 ell=2 u=0 at column 0" in stdout
    assert "all flags: True" in stdout
    code, stdout, _ = run(
        capsys, "classify", diffmat32_path, "--theorem", "41", "--json"
    )
    payload = json.loads(stdout)
    assert payload["column_scaling"] == [1] * 9
    assert payload["all_flags"] is True
    assert len(payload["M"]) == 2


def test_classify_52(capsys, tmp_path):
    from crcodes.constructions import external_lines_code, hyperoval

    path = tmp_path / "ext4.txt"
    write_matrix(external_lines_code(hyperoval(4)).H, path)
    code, stdout, _ = run(capsys, "classify", str(path), "--theorem", "52")
    assert code == 0
    assert "weights: w1=6 w2=4" in stdout
    assert "generator normal form:" in stdout
    assert "rows=3 cols=6" in stdout


def test_classify_52_rejects_three_weights(capsys, tmp_path):
    path = tmp_path / "h23.txt"
    write_matrix(hamming_code(2, 3).H, path)
    code, _, stderr = run(capsys, "classify", str(path), "--theorem", "52")
    assert code == 2
    assert "need exactly two" in stderr


def test_analyze_prints_no_forms(capsys, tmp_path):
    # the binary [3,2] even-weight code: k = n - 1 is outside the range
    # of the radius-1 recognizer, and one parity row is too few for
    # Theorem 4.1
    path = tmp_path / "even3.txt"
    write_matrix(MatrixGF(GF(2), [[1, 1, 1]]), path)
    assert run(capsys, "analyze", str(path)) == (0, (
        "[3,2,2]_2\n"
        "rho=1 s=1 completely regular: yes\n"
        "intersection array (3;3) with a=(0,0)\n"
        "uniformly packed: yes\n"
        "weights: 2\n"
        "dual weights: 3\n"
        "radius-1 column form: none\n"
        "radius-2 normal form: not applicable\n"
    ), "")


def test_classify_52_when_w1_is_not_the_length(capsys, tmp_path):
    path = _binary_code_file(tmp_path, [[1, 1, 1, 0, 0, 0], [0, 0, 1, 1, 0, 0]])
    assert run(capsys, "classify", path, "--theorem", "52") == (0, (
        "weights: w1=3 w2=2\n"
        "w1 differs from the length; structure theorem not applicable\n"
    ), "")


def test_classify_41_without_a_punctured_form(capsys, tmp_path):
    # a [5,2]_4 code drawn with random.Random(0); its dual is antipodal
    # but no puncture leaves a radius-1 column form
    code = LinearCode.from_generator(
        MatrixGF(GF(4), [[3, 3, 0, 2, 3], [3, 2, 3, 2, 1]])
    )
    path = tmp_path / "rand5_2.txt"
    write_matrix(code.H, path)
    assert run(capsys, "classify", str(path), "--theorem", "41") == (0, (
        "dual antipodal: True\n"
        "equidistant residual: False\n"
        "symbol frequency: False\n"
        "punctured form: none\n"
        "all flags: False\n"
    ), "")


# The whole --theorem 41 and --theorem 52 payloads, rows of M and of the
# generator included, on the hyperoval code ii-q4 and on the external
# lines of the hyperoval in PG(2,4).
CLASSIFY_PAYLOADS = {
    "ii-q4": {
        "41": {
            "theorem": "41",
            "dual_antipodal": True,
            "column_scaling": [3, 1, 1, 3, 1, 3],
            "M": [[0, 1, 0, 3, 3, 1], [0, 0, 1, 3, 1, 3]],
            "equidistant_ok": True,
            "symbol_frequency_ok": True,
            "punctured_rho1_form": {"m": 2, "ell": 1, "u": 0},
            "puncture_column": 0,
            "all_flags": True,
        },
        "52": {
            "theorem": "52",
            "w1": 6,
            "w2": 4,
            "w1_is_length": True,
            "column_scaling": [3, 1, 1, 3, 3, 1],
            "generator": [
                [1, 1, 1, 1, 1, 1], [1, 0, 3, 3, 1, 0], [0, 1, 3, 1, 3, 0],
            ],
            "M": [[1, 0, 3, 3, 1], [0, 1, 3, 1, 3]],
            "equidistant_ok": True,
            "symbol_frequency_ok": True,
        },
    },
    "external-lines-q4": {
        "41": {
            "theorem": "41",
            "dual_antipodal": True,
            "column_scaling": [1, 1, 1, 1, 1, 1],
            "M": [[0, 1, 0, 3, 1, 3], [0, 0, 1, 1, 3, 3]],
            "equidistant_ok": True,
            "symbol_frequency_ok": True,
            "punctured_rho1_form": {"m": 2, "ell": 1, "u": 0},
            "puncture_column": 0,
            "all_flags": True,
        },
        "52": {
            "theorem": "52",
            "w1": 6,
            "w2": 4,
            "w1_is_length": True,
            "column_scaling": [1, 1, 1, 1, 1, 1],
            "generator": [
                [1, 1, 1, 1, 1, 1], [1, 0, 3, 1, 3, 0], [0, 1, 1, 3, 3, 0],
            ],
            "M": [[1, 0, 3, 1, 3], [0, 1, 1, 3, 3]],
            "equidistant_ok": True,
            "symbol_frequency_ok": True,
        },
    },
}


@pytest.mark.parametrize("name", sorted(CLASSIFY_PAYLOADS))
@pytest.mark.parametrize("theorem", ["41", "52"])
def test_classify_json_payloads(capsys, tmp_path, name, theorem):
    from crcodes.constructions import external_lines_code, hyperoval

    if name == "ii-q4":
        code = build_family("ii", q=4)[1]
    else:
        code = external_lines_code(hyperoval(4))
    path = tmp_path / "code.txt"
    write_matrix(code.H, path)
    exit_code, stdout, stderr = run(
        capsys, "classify", str(path), "--theorem", theorem, "--json"
    )
    assert (exit_code, stderr) == (0, "")
    assert json.loads(stdout) == CLASSIFY_PAYLOADS[name][theorem]


def _binary_code_file(tmp_path, rows):
    code = LinearCode.from_generator(MatrixGF(GF(2), rows))
    path = tmp_path / "code.txt"
    write_matrix(code.H, path)
    return str(path)


def test_theorem41_budgets_only_the_dual_walk(capsys, tmp_path):
    # [6,2]: 4 codewords within a budget of 8, 16 dual words and 16
    # syndromes over it.  The odd-weight row keeps all-ones, the only
    # full-weight binary word, out of the dual, so there is no dual walk
    # to refuse and no radius-2 cross-check that needs the syndrome table.
    for flag in ("--max-codewords", "--max-syndromes"):
        budget = (flag, "8")
        path = _binary_code_file(
            tmp_path, [[1, 1, 1, 0, 0, 0], [0, 0, 1, 1, 0, 0]]
        )
        exit_code, stdout, stderr = run(
            capsys, "classify", path, "--theorem", "41", "--json", *budget
        )
        assert (exit_code, stderr) == (0, "")
        assert json.loads(stdout)["dual_antipodal"] is False
        if flag == "--max-codewords":
            exit_code, stdout, stderr = run(capsys, "analyze", path, "--json", *budget)
            assert (exit_code, stderr) == (0, "")
            rho2 = json.loads(stdout)["classification"]["rho2"]
            assert rho2["dual_antipodal"] is False
        # with even rows all-ones lies in the dual, which must then be
        # walked and cross-checked against the syndrome table
        path = _binary_code_file(
            tmp_path, [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0]]
        )
        name = flag[2:].replace("-", "_")
        for argv in (("classify", path, "--theorem", "41"), ("analyze", path)):
            exit_code, _, stderr = run(capsys, *argv, *budget)
            assert exit_code == 4
            assert stderr == f"error: {name}: needs 16 but the budget allows 8\n"


def test_catalog_small_bound(capsys, tmp_path):
    out = tmp_path / "cat"
    code, stdout, _ = run(
        capsys, "catalog", "--qn-bound", "8", "--out", str(out)
    )
    assert code == 0
    assert "wrote 1 entries" in stdout
    index = json.loads((out / "index.json").read_text())
    assert index == {"qn_bound": 8, "entries": ["i-m2"], "all_match": True}
    entry = json.loads((out / "i-m2.json").read_text())
    assert entry["match"] is True
    assert entry["expected"]["intersection_array"] == (
        entry["computed"]["intersection_array"]
    )
    assert not list(out.glob("*.tmp"))


def test_catalog_reports_a_mismatch(capsys, monkeypatch, tmp_path):
    # a descriptor expecting the wrong covering radius for i-m2
    real = constructions_module.family_catalog

    def with_wrong_rho(bound):
        return [(desc._replace(rho=desc.rho + 1), code) for desc, code in real(bound)]

    monkeypatch.setattr(constructions_module, "family_catalog", with_wrong_rho)
    out = tmp_path / "cat"
    code, stdout, stderr = run(
        capsys, "catalog", "--qn-bound", "8", "--out", str(out)
    )
    assert code == 5
    assert stdout == ""
    assert stderr == "mismatch: i-m2\n"
    index = json.loads((out / "index.json").read_text())
    assert index == {"qn_bound": 8, "entries": ["i-m2"], "all_match": False}
    entry = json.loads((out / "i-m2.json").read_text())
    assert entry["match"] is False
    assert entry["expected"]["rho"] == entry["computed"]["rho"] + 1


def test_catalog_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code, _, _ = run(
            capsys, "catalog", "--qn-bound", "12", "--out", str(out)
        )
        assert code == 0
    assert (a / "index.json").read_bytes() == (b / "index.json").read_bytes()
    for item in sorted(a.glob("*.json")):
        assert item.read_bytes() == (b / item.name).read_bytes()


SAVED_CATALOGS = sorted(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected").glob("catalog-*")
)


@pytest.mark.parametrize("saved", SAVED_CATALOGS, ids=lambda path: path.name)
def test_catalog_matches_saved_benchmark_output(capsys, tmp_path, saved):
    """Refactors keep catalog output byte-identical: rerun each bound the
    benchmark saved and compare every file."""
    bound = saved.name.split("-")[1]
    out = tmp_path / "cat"
    code, _, _ = run(capsys, "catalog", "--qn-bound", bound, "--out", str(out))
    assert code == 0
    names = sorted(path.name for path in saved.iterdir())
    assert sorted(path.name for path in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (saved / name).read_bytes(), name


class WalkTooLong(Exception):
    pass


@pytest.mark.parametrize("family,params", [("i", {"m": 5}), ("ii", {"q": 8})])
def test_analysis_walks_only_the_smaller_side(monkeypatch, family, params):
    # i-m5 is [32,26] and ii-q8 is [10,7]_8: the primal walk would take
    # 2^26 - 1 and (8^7 - 1)/7 projective classes where the dual has 63
    # and 73, so any walk longer than the smaller side's class count
    # stops the test at once
    desc, code = build_family(family, **params)
    q = code.field.q
    limit = (q ** min(code.k, code.redundancy) - 1) // (q - 1)
    real = codes_module.iter_projective

    def capped(M):
        for i, word in enumerate(real(M)):
            if i == limit:
                raise WalkTooLong(f"more than {limit} words of a {M.nrows}-row space")
            yield word

    monkeypatch.setattr(codes_module, "iter_projective", capped)
    monkeypatch.setattr(classify_module, "iter_projective", capped)
    report = analysis_report(code, with_beta=True)
    assert (report["n"], report["k"], report["d"], report["rho"]) == (
        desc.n, desc.k, desc.d, desc.rho,
    )
    assert report["is_completely_regular"]
    assert report["intersection_array"]["b"] == list(desc.array.b)
    assert report["intersection_array"]["c"] == list(desc.array.c)
    assert report["classification"]["rho2"]["all_flags"]


def test_catalog_past_the_long_primal_codes(capsys, tmp_path):
    out = tmp_path / "cat"
    code, _, _ = run(capsys, "catalog", "--qn-bound", "64", "--out", str(out))
    assert code == 0
    index = json.loads((out / "index.json").read_text())
    assert {"i-m5", "iii-q4-m2"} <= set(index["entries"])
    assert index["all_match"] is True


def test_catalog_through_the_first_arc_codes_with_distance_3(capsys, tmp_path):
    # bound 224 adds v-q8, vi-q8-h4 and vii-q8-h2, the first members with
    # three collinear parity-check columns, so d = 3
    out = tmp_path / "cat"
    code, _, stderr = run(capsys, "catalog", "--qn-bound", "224", "--out", str(out))
    assert (code, stderr) == (0, "")
    index = json.loads((out / "index.json").read_text())
    assert {"v-q8", "vi-q8-h4", "vii-q8-h2"} <= set(index["entries"])
    assert index["all_match"] is True
    for slug in ("v-q8", "vi-q8-h4", "vii-q8-h2"):
        entry = json.loads((out / f"{slug}.json").read_text())
        assert entry["expected"]["d"] == entry["computed"]["d"] == 3, slug


def test_one_syndrome_table_per_analysis(monkeypatch):
    built = []
    real = SyndromeTable.__init__

    def counting(self, code, *args, **kwargs):
        built.append(code)
        real(self, code, *args, **kwargs)

    monkeypatch.setattr(SyndromeTable, "__init__", counting)
    code = hamming_code(2, 3).extended()
    report = analysis_report(code, with_beta=True, brute_force=True)
    assert report["brute_force_agrees"]
    assert report["beta"] is not None
    # rho = 2 with an antipodal dual, so the Theorem 4.1 cross-check ran
    assert report["classification"]["rho2"]["all_flags"]
    assert built == [code]


def test_catalog_builds_no_syndrome_table(capsys, monkeypatch, tmp_path):
    # every member has d >= 2s - 1, so Delsarte's theorem decides it from
    # the weight pair, and a table build anywhere fails the run
    def refuse(*args):
        raise AssertionError("a syndrome table was built")

    monkeypatch.setattr(SyndromeTable, "_build", refuse)
    out = tmp_path / "cat"
    code, _, stderr = run(capsys, "catalog", "--qn-bound", "63", "--out", str(out))
    assert (code, stderr) == (0, "")
    index = json.loads((out / "index.json").read_text())
    assert len(index["entries"]) == 48 and index["all_match"] is True


def test_catalog_rejects_tiny_bound(capsys, tmp_path):
    out = tmp_path / "x"
    code, _, stderr = run(capsys, "catalog", "--qn-bound", "3", "--out", str(out))
    assert code == 2
    assert "error:" in stderr
    # the output directory is made before the bound is checked, and stays empty
    assert list(out.iterdir()) == []


def test_output_path_that_cannot_be_written_exits_3(capsys, monkeypatch, tmp_path):
    # exit 3 covers files that cannot be written as well as read: a
    # directory where construct writes its matrix, a file where catalog
    # makes its directory, which it does before building any member
    catalogs = []
    monkeypatch.setattr(constructions_module, "family_catalog", catalogs.append)
    taken = tmp_path / "taken.txt"
    taken.write_text("")
    for argv in (
        ("construct", "ii", "--q", "4", "--out", str(tmp_path)),
        ("catalog", "--qn-bound", "400", "--out", str(taken)),
    ):
        code, stdout, stderr = run(capsys, *argv)
        assert (code, stdout) == (3, "")
        assert stderr.startswith("error:")
    assert catalogs == []


def _package_env():
    """The environment for a child process that imports the copy of
    crcodes this suite imported."""
    package_root = str(Path(crcodes.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [package_root, inherited])),
    }


def test_console_script_runs_in_a_subprocess(tmp_path):
    # the script pyproject.toml declares, run as a separate process: through
    # `python -m crcodes` always, and as the installed script where one is
    # on PATH; both import the copy of crcodes this suite imported
    if sys.version_info >= (3, 11):
        import tomllib

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["crcodes"] == "crcodes.cli:main"
    commands = [[sys.executable, "-m", "crcodes"]]
    script = shutil.which("crcodes")
    if script:
        commands.append([script])
    env = _package_env()
    for i, command in enumerate(commands):
        out = tmp_path / f"m{i}.txt"
        proc = subprocess.run(
            command + ["construct", "v", "--q", "4", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "v-q4:" in proc.stdout
        assert out.exists()
        # main()'s return code must reach the process exit status
        proc = subprocess.run(
            command
            + ["catalog", "--qn-bound", "3", "--out", str(tmp_path / "c")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr


def test_orders_above_the_ceiling_are_refused_at_once(tmp_path):
    # 2^61 - 1 is prime: trial division to its square root, or listing q
    # columns, would run for minutes or exhaust memory, so each run is a
    # child process that the timeout fails instead of hanging the suite
    big = 2**61 - 1
    ceiling = f"q = {big} exceeds the ceiling 16384"
    matrix = tmp_path / "big.txt"
    matrix.write_text(f"q={big}\nrows=1 cols=1\n1\n")
    out = str(tmp_path / "x.txt")
    runs = [(["analyze", str(matrix)], 3, "error: line 1: " + ceiling)] + [
        (["construct", family, *params, "--out", out], 2, "error: " + message)
        for family, params, message in (
            ("ii", ["--q", str(big)], ceiling),
            ("d1antipodal", ["--q", str(big)], ceiling),
            ("lifted", ["--q", str(big), "--r", "2"], ceiling),
            ("iii", ["--q", str(big), "--m", "1"], ceiling),
            ("iv", ["--q", str(big), "--n", "4"], ceiling),
            # not a prime power, but above the ceiling
            ("ii", ["--q", "20000"], "q = 20000 exceeds the ceiling 16384"),
            # an arc degree is tested as a power of 2, not factored
            ("vi", ["--q", "8", "--h", str(big)],
             f"degree must be a power of 2, got {big}"),
        )
    ]
    for argv, want, message in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "crcodes", *argv],
            capture_output=True, text=True, env=_package_env(), timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (want, message + "\n"), argv


def _digest_codes():
    """The catalog-63 members, their duals, and 21 seeded random codes,
    three over each of GF(2, 3, 4, 5, 7, 8, 9), the second of each three
    with a zero column and a column repeated as a multiple of another."""
    for desc, code in family_catalog(63):
        yield desc.slug, code
        yield desc.slug + "-dual", code.dual()
    rng = random.Random(2809)
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = GF(q)
        for trial in range(3):
            n = rng.randrange(4, {2: 12, 3: 8, 4: 7}.get(q, 6) + 1)
            rows = [
                [rng.randrange(q) for _ in range(n)]
                for _ in range(rng.randrange(2, n))
            ]
            if trial == 1:
                j0, j1, j2 = rng.sample(range(n), 3)
                beta = rng.randrange(1, q)
                for row in rows:
                    row[j0] = 0
                    row[j2] = f.mul(beta, row[j1])
            yield f"rand-q{q}-{trial}", LinearCode.from_parity(MatrixGF(f, rows, n))


# sha256 of every run's exit code, stdout and stderr (and, for the
# catalog, every file it writes), recorded at commit 9870b52
CLI_DIGESTS = {
    "catalog-200": "00d52ef9a7b6e87518fb0fd4a67b877d44b53644cbc9a1e8bf716c518b1e8625",
    "analyze": "4e4309295e235884b9e915ebb400173d442d209865221ba4a9180d66b6b92437",
}


def test_cli_output_is_byte_identical_to_its_record(capsys, tmp_path):
    out = tmp_path / "cat"
    digest = hashlib.sha256()
    for part in run(capsys, "catalog", "--qn-bound", "200", "--out", str(out)):
        digest.update(repr(part).replace(str(out), "OUT").encode())
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == CLI_DIGESTS["catalog-200"]
    digest = hashlib.sha256()
    codes = 0
    for slug, code in _digest_codes():
        path = tmp_path / f"{slug}.txt"
        write_matrix(code.H, path)
        for flags in ((), ("--beta",)):
            result = run(capsys, "analyze", str(path), "--json", *flags)
            record = repr((slug, flags, result)).replace(str(tmp_path), "TMP")
            digest.update(record.encode())
        codes += 1
    assert codes == 2 * 48 + 21
    assert digest.hexdigest() == CLI_DIGESTS["analyze"]
