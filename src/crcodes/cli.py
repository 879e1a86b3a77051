"""Command-line front end: construct family members, analyze matrices
from text files, run the structure recognizers, and emit the catalog
with per-entry JSON reports.

Families and their parameters:

  i            --m        binary extended Hamming, n = 2^m, m >= 2
  ii           --q        hyperoval code [q+2, q-1, 4], q = 2^r >= 4
  iii          --q --m    difference-matrix code [q^m, q^m-m-1, 3], q >= 3
  iv           --q --n    latin-square code [n, n-2, 3], 3 <= n <= q
  v            --q        external lines of a hyperoval, q = 2^r >= 4
  vi           --q --h    degree-h maximal arc code, h | q, 1 < h < q
  vii          --q --h    external lines of the degree-h arc
  lifted       --q --r    Hamming [q+1, q-1, 3] read over GF(q^r), r >= 2
  d1antipodal  --q        the length-4 [4, 2, 3] member, q >= 4

Exit codes: 0 success, 2 parameter or input-domain errors, 3 matrix
parse errors and files that cannot be read or written, 4 budget
exhaustion, 5 failed verification assertions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .budgets import DEFAULT_BUDGETS, BudgetExceeded, Budgets
from .classify import (
    Rho1Form,
    Rho2Report,
    TrivialCode,
    classify_rho1,
    two_weight_structure,
    verify_theorem31,
    verify_theorem41,
)
from .codes import LinearCode, nonzero_weights
from .matio import MatrixFormatError, format_matrix, read_matrix, write_matrix
from .matrix import MatrixGF
from .regularity import CodeAnalysis, beta_solve, complete_regularity_bruteforce


def _budgets(args) -> Budgets:
    return Budgets(args.max_syndromes, args.max_codewords, args.max_vectors)


def _cap(text: str) -> int:
    """A budget flag's value: an integer of at least 0.  A cap of 0
    refuses every walk; a negative one is a parameter error."""
    try:
        cap = int(text)
    except ValueError:
        cap = None
    if cap is None or cap < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return cap


def _add_budget_flags(p: argparse.ArgumentParser):
    p.add_argument(
        "--max-syndromes", type=_cap, default=DEFAULT_BUDGETS.max_syndromes,
        help="cap on syndrome-table size (default 2^24)",
    )
    p.add_argument(
        "--max-codewords", type=_cap, default=DEFAULT_BUDGETS.max_codewords,
        help="cap on codeword enumerations (default 2^26)",
    )
    p.add_argument(
        "--max-vectors", type=_cap, default=DEFAULT_BUDGETS.max_vectors,
        help="cap on the q^m*n(q-1) neighbours the brute-force check "
        "recounts (default 2^20)",
    )


# -- report assembly --------------------------------------------------------


def _plain(value):
    """A report value as JSON data: a record (a NamedTuple, which is
    also a tuple, so it is tested first) becomes a dict of its fields in
    declaration order, a matrix the list of its rows and a tuple a list,
    each part converted the same way."""
    if hasattr(value, "_fields"):
        return {name: _plain(x) for name, x in zip(value._fields, value)}
    if isinstance(value, MatrixGF):
        value = value.data
    if isinstance(value, tuple):
        return [_plain(x) for x in value]
    return value


def _rho2_json(rep: Rho2Report) -> dict:
    return {**_plain(rep), "all_flags": rep.all_flags}


def analysis_report(
    code: LinearCode,
    budget: Budgets = DEFAULT_BUDGETS,
    with_beta: bool = False,
    brute_force: bool = False,
) -> dict:
    """The full analysis dictionary; field order is part of the format.
    One CodeAnalysis serves every part, so the weight pair, the syndrome
    table and the regularity verdict are each computed once."""
    analysis = CodeAnalysis(code, budget)
    counts, dual_counts = analysis.weight_pair
    weights = nonzero_weights(counts)
    dual_weights = nonzero_weights(dual_counts)
    rep = analysis.report
    s = len(dual_weights)
    report = {
        "q": code.field.q,
        "n": code.n,
        "k": code.k,
        "d": weights[0] if weights else 0,
        "rho": rep.rho,
        "s": s,
        "weights": weights,
        "dual_weights": dual_weights,
        "is_completely_regular": rep.is_completely_regular,
        "intersection_array": _plain(rep.array),
        "uniformly_packed": rep.rho == s,
    }
    if with_beta:
        beta = beta_solve(analysis)
        report["beta"] = None if beta is None else [str(x) for x in beta]
    if brute_force:
        slow = complete_regularity_bruteforce(analysis)
        if slow != rep:
            raise AssertionError(
                "the syndrome table's regularity report and the brute-force"
                " recount disagree"
            )
        report["brute_force_agrees"] = True
    try:
        form = classify_rho1(code)
    except TrivialCode:
        form = None
    rho1 = _plain(form) if isinstance(form, Rho1Form) else None
    try:
        rho2 = _rho2_json(verify_theorem41(analysis))
    except TrivialCode:
        rho2 = None
    else:
        del rho2["column_scaling"], rho2["M"]
    report["classification"] = {"rho1": rho1, "rho2": rho2}
    return report


def _print_report(report: dict):
    q, n, k, d = report["q"], report["n"], report["k"], report["d"]
    print(f"[{n},{k},{d}]_{q}")
    cr = "yes" if report["is_completely_regular"] else "no"
    print(f"rho={report['rho']} s={report['s']} completely regular: {cr}")
    arr = report["intersection_array"]
    if arr is not None:
        b, c, a = (",".join(str(x) for x in arr[key]) for key in "bca")
        print(f"intersection array ({b};{c}) with a=({a})")
    print(f"uniformly packed: {'yes' if report['uniformly_packed'] else 'no'}")
    if "beta" in report:
        beta = report["beta"]
        print("beta: " + (", ".join(beta) if beta else "none"))
    if report.get("brute_force_agrees"):
        print("brute-force oracle agrees")
    print("weights: " + " ".join(str(w) for w in report["weights"]))
    print("dual weights: " + " ".join(str(w) for w in report["dual_weights"]))
    rho1 = report["classification"]["rho1"]
    if rho1 is None:
        print("radius-1 column form: none")
    else:
        print(
            f"radius-1 column form: m={rho1['m']} ell={rho1['ell']} u={rho1['u']}"
        )
    rho2 = report["classification"]["rho2"]
    if rho2 is None:
        print("radius-2 normal form: not applicable")
    elif rho2["all_flags"]:
        form = rho2["punctured_rho1_form"]
        print(
            "radius-2 normal form: all flags hold; punctured form "
            f"m={form['m']} ell={form['ell']} u={form['u']} "
            f"at column {rho2['puncture_column']}"
        )
    else:
        names = ("dual_antipodal", "equidistant_ok", "symbol_frequency_ok")
        failed = [name for name in names if not rho2[name]]
        if rho2["punctured_rho1_form"] is None:
            failed.append("no punctured form")
        print(f"radius-2 normal form: fails ({', '.join(failed)})")


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _write_json_atomic(path: str, payload):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(_dump_json(payload))
    os.replace(tmp, path)


# -- subcommands ------------------------------------------------------------


def cmd_construct(args) -> int:
    from .constructions import build_family

    desc, code = build_family(
        args.family, q=args.q, m=args.m, n=args.n, h=args.h, r=args.r
    )
    write_matrix(code.H, args.out, comment=f"{desc.slug} parity check")
    q = code.field.q
    print(
        f"{desc.slug}: [{desc.n},{desc.k},{desc.d}]_{q} "
        f"expected rho={desc.rho} intersection array {desc.array}"
    )
    return 0


def cmd_analyze(args) -> int:
    code = LinearCode.from_parity(read_matrix(args.path))
    report = analysis_report(
        code, _budgets(args), with_beta=args.beta, brute_force=args.brute_force
    )
    if args.json:
        sys.stdout.write(_dump_json(report))
    else:
        _print_report(report)
    return 0


def cmd_classify(args) -> int:
    """Each theorem gives a payload and its text lines; one place writes
    either."""
    budget = _budgets(args)
    code = LinearCode.from_parity(read_matrix(args.path))
    status = 0
    if args.theorem == "31":
        form = classify_rho1(code)
        holds = verify_theorem31(code, budget, form)
        recognized = isinstance(form, Rho1Form)
        payload = {
            "holds": holds,
            "form": _plain(form) if recognized else None,
            "reason": None if recognized else form.reason,
        }
        lines = [
            f"column form: m={form.m} ell={form.ell} u={form.u}"
            if recognized
            else f"column form: none ({form.reason})",
            f"radius-1 equivalence holds: {'yes' if holds else 'no'}",
        ]
        status = 0 if holds else 5
    elif args.theorem == "41":
        rep = verify_theorem41(CodeAnalysis(code, budget))
        payload = _rho2_json(rep)
        form = rep.punctured_rho1_form
        lines = [
            f"dual antipodal: {rep.dual_antipodal}",
            f"equidistant residual: {rep.equidistant_ok}",
            f"symbol frequency: {rep.symbol_frequency_ok}",
            "punctured form: none"
            if form is None
            else f"punctured form: m={form.m} ell={form.ell} u={form.u} "
            f"at column {rep.puncture_column}",
            f"all flags: {rep.all_flags}",
        ]
    else:
        st = two_weight_structure(code, budget)
        payload = _plain(st)
        lines = [f"weights: w1={st.w1} w2={st.w2}"]
        if not st.w1_is_length:
            lines.append("w1 differs from the length; structure theorem not applicable")
        else:
            lines += [
                f"equidistant residual: {st.equidistant_ok}",
                f"symbol frequency: {st.symbol_frequency_ok}",
                "generator normal form:",
                *format_matrix(st.generator).splitlines(),
            ]
    if args.json:
        sys.stdout.write(_dump_json({"theorem": args.theorem, **payload}))
    else:
        print(*lines, sep="\n")
    return status


def cmd_catalog(args) -> int:
    from .constructions import family_catalog

    budget = _budgets(args)
    os.makedirs(args.out, exist_ok=True)
    entries = family_catalog(args.qn_bound)
    slugs = []
    mismatches = []
    for desc, code in entries:
        report = analysis_report(code, budget)
        expected = {
            "n": desc.n,
            "k": desc.k,
            "d": desc.d,
            "rho": desc.rho,
            "intersection_array": _plain(desc.array),
        }
        match = report["is_completely_regular"] and all(
            report[key] == value for key, value in expected.items()
        )
        entry = {
            "slug": desc.slug,
            "family": desc.family,
            "params": desc.params_dict(),
            "expected": expected,
            "computed": report,
            "match": match,
        }
        _write_json_atomic(os.path.join(args.out, desc.slug + ".json"), entry)
        slugs.append(desc.slug)
        if not match:
            mismatches.append(desc.slug)
    index = {
        "qn_bound": args.qn_bound,
        "entries": slugs,
        "all_match": not mismatches,
    }
    _write_json_atomic(os.path.join(args.out, "index.json"), index)
    if mismatches:
        for slug in mismatches:
            print(f"mismatch: {slug}", file=sys.stderr)
        return 5
    print(f"wrote {len(slugs)} entries and index.json to {args.out}")
    return 0


# -- argument parsing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="crcodes",
        description="construct and verify completely regular q-ary codes",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # the family table of the module docstring, which python -OO strips
    families = (__doc__ or "").partition("\n\n")[2].partition("\n\nExit")[0]
    p = sub.add_parser(
        "construct", help="build a family member", description=families,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("family", help="a family id from the table above")
    p.add_argument("--q", type=int, help="field order")
    p.add_argument("--m", type=int, help="redundancy-style parameter")
    p.add_argument("--n", type=int, help="length parameter")
    p.add_argument("--h", type=int, help="arc degree")
    p.add_argument("--r", type=int, help="extension degree")
    p.add_argument("--out", required=True, help="matrix output path")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", help="full report for a parity-check file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true", help="emit one JSON object")
    p.add_argument("--beta", action="store_true", help="include the packing solution")
    p.add_argument(
        "--brute-force", dest="brute_force", action="store_true",
        help="cross-check regularity by recounting every coset's profile",
    )
    _add_budget_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="run one structure recognizer")
    p.add_argument("path")
    p.add_argument("--theorem", choices=("31", "41", "52"), required=True)
    p.add_argument("--json", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("catalog", help="emit all family instances under a bound")
    p.add_argument("--qn-bound", dest="qn_bound", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_catalog)
    return ap


# The first entry that matches an error's type gives the exit code.
_EXIT_CODES = {
    MatrixFormatError: 3,
    OSError: 3,
    BudgetExceeded: 4,
    ValueError: 2,
    AssertionError: 5,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
