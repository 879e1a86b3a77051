"""The crcodes benchmark: catalog, analyze and census workloads.

    python3 perfbench/run.py --workload {catalog,analyze,census,all}
        [--seed N] [--seconds S] [--trace 0|1] [--small]
        [--expected DIR] [--record]

Run from anywhere inside a checkout; the program is taken from `src/`
without an install.  Every measured process is a child started from this
one process, one at a time (a closed loop with one client), and the
parent does nothing while a child runs.

--trace 0 times the workload's processes round-robin for --seconds and
prints the end-to-end metrics.  --trace 1 runs every process once
untraced and once with spans (see tracer.py) and prints the per-layer
metrics.  Either way each output is compared with the output saved in
`expected/`, and the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  --record rewrites `expected/`
from the current program.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from math import exp, log
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected"

DEFAULT_SEED = 0
SETUP_PROBES = 7  # set-up is measured at least this many times per run
ITEM_CEILING_S = 60.0  # a process still running after this is a failure
RUN_CEILING_S = 150.0  # no process is started or left running after this

# The random analyze input: (n, k) of a binary code, redrawn to full rank.
RANDOM_CODE = {"full": (26, 10), "small": (12, 5)}
# (name, family, params, extra analyze flags), after the random code.
ANALYZE = {
    "full": [
        ("ii_q8", "ii", {"q": 8}, ["--beta"]),
        ("iv_q49_n4", "iv", {"q": 49, "n": 4}, ["--beta"]),
        ("iv_q8_n6_bf", "iv", {"q": 8, "n": 6}, ["--beta", "--brute-force"]),
    ],
    "small": [
        ("ii_q4", "ii", {"q": 4}, ["--beta"]),
        ("iv_q9_n3", "iv", {"q": 9, "n": 3}, ["--beta"]),
        ("iv_q4_n3_bf", "iv", {"q": 4, "n": 3}, ["--beta", "--brute-force"]),
    ],
}
CATALOG_BOUND = {"full": 63, "small": 24}
CENSUS = {
    "full": ["2,2,8", "2,3,8", "3,2,5", "4,2,5"],
    "small": ["2,2,6", "3,2,4"],
}
WORKLOADS = ("catalog", "analyze", "census")


# -- child processes ----------------------------------------------------------


@dataclass
class Proc:
    code: int  # exit code; -9 when killed at the ceiling
    wall_s: float
    rss_mb: float
    timed_out: bool


def spawn(argv: list[str], stdout: Path, timeout: float) -> Proc:
    """Run `python argv...` to completion with stdout and stderr in files.

    The wall time runs from just before the spawn to the reaping wait4,
    which also gives the child's own peak RSS.  A pidfd lets the wait
    time out without polling, threads or signal handlers.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stdout) + ".err", flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, [sys.executable, *argv], env, file_actions=actions
    )
    reaped = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
        wall = time.perf_counter() - t0
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return Proc(
        os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024, not ready
    )


# -- workloads ----------------------------------------------------------------


def _no_check(output: Path) -> int:
    return 0


@dataclass
class Item:
    """One measured process and how to judge what it wrote.

    `output` is the stdout file, or for the catalog its output directory;
    the traced command writes to `trace_output` instead.
    """

    name: str
    argv: list[str]  # after the interpreter
    output: Path
    trace_argv: list[str]
    trace_output: Path
    summary: Path  # span totals and counters written by the traced run
    codes: int = 1
    failures: Callable[[Path], int] = _no_check  # output -> codes wrong


@dataclass
class Workload:
    name: str
    items: list[Item]
    setup_argv: list[str]
    work: Path

    @property
    def codes(self) -> int:
        return sum(item.codes for item in self.items)


def _tree_failures(saved: Path, codes: int) -> Callable[[Path], int]:
    def failures(out_dir: Path) -> int:
        names = {p.name for p in saved.iterdir()}
        got = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
        bad = len(names ^ got)
        for name in names & got:
            if (out_dir / name).read_bytes() != (saved / name).read_bytes():
                bad += 1
        return min(bad, codes)

    return failures


def _byte_failures(saved: Path) -> Callable[[Path], int]:
    want = saved.read_bytes()
    return lambda out: int(out.read_bytes() != want)


def _shape_failures(saved: Path, q: int, n: int, k: int) -> Callable[[Path], int]:
    """For a seed without saved output: the report parses, has the saved
    report's field order, and describes the generated [n, k]_q code."""
    ref = json.loads(saved.read_text())

    def failures(out: Path) -> int:
        try:
            got = json.loads(out.read_text())
            ok = (
                list(got) == list(ref)
                and list(got["classification"]) == list(ref["classification"])
                and (got["q"], got["n"], got["k"]) == (q, n, k)
            )
        except (ValueError, TypeError, KeyError):
            ok = False
        return int(not ok)

    return failures


def _census_failures(saved: dict, specs: list[str]) -> Callable[[Path], int]:
    def failures(out: Path) -> int:
        try:
            got = json.loads(out.read_text())
        except ValueError:
            got = {}
        return sum(saved[s][0] for s in specs if got.get(s) != saved[s])

    return failures


def build_workload(name: str, seed: int, size: str, saved: Path | None) -> Workload:
    """Write the workload's inputs under the work directory and describe
    its processes; only the analyze inputs depend on the seed.  With
    `saved` set, outputs are judged against it."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    child = str(BENCH / "child.py")

    def item(item_name, argv, target, args, output=None, trace_output=None):
        prefix = work / item_name
        run_id = f"{name}-{size}-{seed}-{item_name}"
        return Item(
            item_name,
            argv,
            output or work / f"{item_name}.out",
            [child, "trace", str(prefix), run_id, target, *args],
            trace_output or work / f"{item_name}.traced.out",
            prefix.with_suffix(".summary.json"),
        )

    if name == "catalog":
        bound = CATALOG_BOUND[size]

        def args(out):
            return ["catalog", "--qn-bound", str(bound), "--out", str(out)]

        it = item("catalog", ["-m", "crcodes.cli", *args(work / "out")], "cli",
                  args(work / "out-traced"), work / "out", work / "out-traced")
        if saved is not None:
            ref = saved / f"catalog-{bound}"
            it.codes = len(json.loads((ref / "index.json").read_text())["entries"])
            it.failures = _tree_failures(ref, it.codes)
        return Workload(name, [it], [child, "setup", "catalog", str(bound)], work)

    if name == "census":
        specs = CENSUS[size]
        it = item("census", [child, "census", *specs], "census", specs)
        if saved is not None:
            counts = json.loads((saved / "census.json").read_text())
            it.codes = sum(counts[s][0] for s in specs)
            it.failures = _census_failures(counts, specs)
        return Workload(name, [it], [child, "setup", "census", *specs], work)

    n, k = RANDOM_CODE[size]
    rand_name = f"rand{n}_{k}"
    spec = {
        "dir": str(work),
        "seed": seed,
        "random": [rand_name, n, k],
        "families": [[i, fam, params] for i, fam, params, _ in ANALYZE[size]],
    }
    proc = spawn([child, "inputs", json.dumps(spec)], work / "inputs.out",
                 ITEM_CEILING_S)
    if proc.code != 0:
        raise RuntimeError(f"writing the analyze inputs exited {proc.code}")
    inputs = [(rand_name, [])] + [(i, flags) for i, _, _, flags in ANALYZE[size]]
    items = []
    for item_name, flags in inputs:
        path = work / f"{item_name}.txt"
        args = ["analyze", str(path), "--json", *flags]
        it = item(item_name, ["-m", "crcodes.cli", *args], "cli", args)
        if saved is not None:
            ref = saved / "analyze" / f"{item_name}.json"
            if item_name == rand_name and seed != DEFAULT_SEED:
                it.failures = _shape_failures(ref, 2, n, k)
            else:
                it.failures = _byte_failures(ref)
        items.append(it)
    files = [str(work / f"{item_name}.txt") for item_name, _ in inputs]
    return Workload(name, items, [child, "setup", "analyze", *files], work)


# -- running ----------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, item: Item, failed: int, what: str):
        self.attempted += item.codes
        self.failed += failed
        if failed:
            self.notes.append(f"{item.name} ({what}): {failed} of {item.codes} failed")


def _written(output: Path) -> list[tuple[str, bytes]]:
    """What an item wrote: its stdout file, or its output directory."""
    if output.is_dir():
        return [(p.name, p.read_bytes()) for p in sorted(output.iterdir())]
    return [("stdout", output.read_bytes())]


def run_item(item: Item, traced: bool, run_end: float, tally: Tally,
             same_as: list | None = None) -> Proc | None:
    """Run the item once and judge its output, which must also equal
    `same_as` when given; None when the run ceiling left no time to start
    it."""
    what = "traced" if traced else "untraced"
    output = item.trace_output if traced else item.output
    stdout = output if output.suffix == ".out" else output.with_suffix(".out")
    if output.is_dir():
        shutil.rmtree(output)
    timeout = min(ITEM_CEILING_S, run_end - time.perf_counter())
    if timeout <= 0:
        tally.add(item, item.codes, what + ", run ceiling reached")
        return None
    proc = spawn(item.trace_argv if traced else item.argv, stdout, timeout)
    if proc.code != 0:
        why = "ceiling" if proc.timed_out else f"exit {proc.code}"
        tally.add(item, item.codes, f"{what}, {why}")
    elif same_as is not None and _written(output) != same_as:
        tally.add(item, item.codes, f"{what}, output differs from untraced")
    else:
        tally.add(item, item.failures(output), what)
    return proc


def probe(wl: Workload, argv: list[str]) -> float:
    proc = spawn(argv, wl.work / "probe.out", ITEM_CEILING_S)
    if proc.code != 0:
        raise RuntimeError(f"{argv[1]} probe exited {proc.code}; see {wl.work}")
    return proc.wall_s


def gmean(values) -> float:
    return exp(statistics.fmean(log(v) for v in values))


def timed_run(wl: Workload, seconds: float, tally: Tally) -> dict:
    """Run every item once, then keep running, until --seconds is spent,
    the item with the fewest runs (the shortest on a tie) among those
    whose last duration still fits before the deadline, so that the
    items' runs interleave.  A set-up probe and a reference probe follow
    every item run.

    An item run's cost in reference units is its wall time over the mean
    of the reference runs just before and after it.  This machine's speed
    for the same Python work drifts by 20% and more over tens of seconds,
    alike for the items and the reference, so the ratio repeats where the
    wall time does not (see README.md, Noise)."""
    reference = [str(BENCH / "child.py"), "reference"]
    probe(wl, wl.setup_argv)  # warm-up: byte-compile and page in the package
    start = time.perf_counter()
    deadline = start + seconds
    run_end = start + RUN_CEILING_S
    walls: dict[str, list[float]] = {it.name: [] for it in wl.items}
    costs: dict[str, list[float]] = {it.name: [] for it in wl.items}
    rss: dict[str, list[float]] = {it.name: [] for it in wl.items}
    setup: list[float] = []
    refs = [probe(wl, reference)]
    queue = list(wl.items)
    while queue:
        it = queue.pop(0)
        proc = run_item(it, False, run_end, tally)
        setup.append(probe(wl, wl.setup_argv))
        refs.append(probe(wl, reference))
        if proc is not None:
            walls[it.name].append(proc.wall_s)
            costs[it.name].append(proc.wall_s / statistics.fmean(refs[-2:]))
            rss[it.name].append(proc.rss_mb)
        if not queue:
            now = time.perf_counter()
            fits = [i for i in wl.items
                    if walls[i.name] and now + walls[i.name][-1] <= deadline]
            if fits:
                queue.append(min(fits, key=lambda i: (len(walls[i.name]),
                                                      walls[i.name][-1])))
    while len(setup) < SETUP_PROBES:
        setup.append(probe(wl, wl.setup_argv))

    print(f"{wl.name}: {sum(map(len, walls.values()))} runs in "
          f"{time.perf_counter() - start:.1f} s")
    for it in wl.items:
        w = walls[it.name]
        if w:
            print(f"  {it.name:<14} runs={len(w):<3} median {statistics.median(w):.4f} s"
                  f"  min {min(w):.4f}  max {max(w):.4f}"
                  f"  cost {statistics.median(costs[it.name]):.4f} ref"
                  f"  rss {statistics.median(rss[it.name]):.1f} MB")
    for name, values in (("setup", setup), ("reference", refs)):
        print(f"  {name:<14} runs={len(values):<3} median "
              f"{statistics.median(values):.4f} s")
    if not all(walls.values()):
        return {}
    medians = [statistics.median(w) for w in walls.values()]
    cost = [statistics.median(c) for c in costs.values()]
    print(f"  wall time: {wl.codes / sum(medians)} codes/s, "
          f"item geometric mean {gmean(medians)} s")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "codes_per_ref": (wl.codes / sum(cost), "1/ref"),
        "item_ref_gmean": (gmean(cost), "ref"),
        "peak_rss_mb": (max(max(r) for r in rss.values()), "MB"),
        "rss_mb_gmean": (gmean(statistics.median(r) for r in rss.values()), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# -- traced run ---------------------------------------------------------------


@dataclass
class SpanStats:
    calls: int = 0
    incl_ns: int = 0
    self_ns: int = 0
    durations_ns: list[int] = field(default_factory=list)


class _Stats(dict):
    """Span totals by name, summed over processes; zero for a name that
    never ran."""

    def __missing__(self, name):
        return SpanStats()

    def add(self, summary: dict):
        for name, st in summary["spans"].items():
            mine = self.setdefault(name, SpanStats())
            mine.calls += st["calls"]
            mine.incl_ns += st["incl_ns"]
            mine.self_ns += st["self_ns"]
            mine.durations_ns += st["durations_ns"]
        return self


def layer_metrics(stats: _Stats, counters: dict, codes: int, json_bytes: int) -> dict:
    def incl(name):
        return stats[name].incl_ns / 1e9

    def self_s(name):
        return stats[name].self_ns / 1e9

    reports = [d / 1e6 for d in stats["cli.analysis_report"].durations_ns]
    tables = stats["regularity.SyndromeTable"].calls
    walked = counters["words_enumerated"]
    return {
        "codes.weight_distribution.s": (incl("codes.weight_distribution"), "s"),
        "codes.words_enumerated": (walked, "count"),
        # the smaller side's size over the words walked; 1 when none were
        "codes.enumeration_efficiency": (
            counters["words_needed"] / walked if walked else 1.0, "ratio"),
        "codes.rowspace_words": (counters["rowspace_words"], "count"),
        "codes.macwilliams.s": (incl("codes.macwilliams_transform"), "s"),
        "codes.pg_points.s": (incl("codes.pg_points"), "s"),
        "codes.from_parity.self_s": (self_s("codes.LinearCode.from_parity"), "s"),
        "regularity.tables_built": (tables, "count"),
        "regularity.tables_per_code": (tables / codes, "ratio"),
        "regularity.syndromes_built": (counters["syndromes_built"], "count"),
        "regularity.table.s": (incl("regularity.SyndromeTable"), "s"),
        "regularity.table.rss_rise_mb": (counters["table_rss_rise_kb"] / 1024, "MB"),
        "regularity.scan.self_s": (self_s("regularity.complete_regularity"), "s"),
        "regularity.bruteforce.s": (
            incl("regularity.complete_regularity_bruteforce"), "s"),
        "regularity.bruteforce.vectors": (counters["bruteforce_vectors"], "count"),
        "regularity.beta_solve.self_s": (self_s("regularity.beta_solve"), "s"),
        "regularity.low_weight.s": (incl("regularity.coset_low_weight_counts"), "s"),
        "regularity.low_weight_vectors": (counters["low_weight_vectors"], "count"),
        "classify.theorem41.self_s": (self_s("classify.verify_theorem41"), "s"),
        "classify.rho1.self_s": (self_s("classify.classify_rho1"), "s"),
        "classify.census.self_s": (self_s("classify.enumerate_rho1"), "s"),
        "matrix.rref.calls": (stats["matrix.rref"].calls, "count"),
        "matrix.rref.s": (incl("matrix.rref"), "s"),
        "matrix.solve_rational.s": (incl("matrix.solve_rational"), "s"),
        "field.fields_built": (stats["field.Field"].calls, "count"),
        "field.build_s": (incl("field.Field"), "s"),
        "matio.read_matrix.s": (incl("matio.read_matrix"), "s"),
        "constructions.build_family.s": (incl("constructions.build_family"), "s"),
        "cli.analysis_report.self_s": (self_s("cli.analysis_report"), "s"),
        "cli.code_ms.p50": (statistics.median(reports) if reports else 0.0, "ms"),
        "cli.code_ms.max": (max(reports, default=0.0), "ms"),
        "cli.json_bytes": (json_bytes, "bytes"),
        "trace.spans": (sum(st.calls for st in stats.values()), "count"),
    }


def traced_run(wl: Workload, tally: Tally) -> dict:
    """One untraced and one traced run of every item; the per-layer
    metrics come from the traced one, and the difference in wall time is
    the tracing overhead.  Traced output must equal untraced output."""
    probe(wl, wl.setup_argv)
    run_end = time.perf_counter() + RUN_CEILING_S
    plain_s = traced_s = 0.0
    json_bytes = 0
    dumps = []
    for it in wl.items:
        plain = run_item(it, False, run_end, tally)
        if not plain or plain.code != 0:
            continue
        written = _written(it.output)
        traced = run_item(it, True, run_end, tally, same_as=written)
        if not traced or traced.code != 0:
            continue
        plain_s += plain.wall_s
        traced_s += traced.wall_s
        if wl.name != "census":
            json_bytes += sum(len(data) for _, data in written)
        dumps.append(json.loads(it.summary.read_text()))

    if not dumps:
        return {}
    print(f"{wl.name}: traced {traced_s:.3f} s, untraced {plain_s:.3f} s")
    for it, dump in zip(wl.items, dumps):
        st, c = _Stats().add(dump), dump["counters"]
        print(f"  {it.name:<14} tables={st['regularity.SyndromeTable'].calls}"
              f" syndromes={c['syndromes_built']}"
              f" walked={c['words_enumerated']} needed={c['words_needed']}"
              f" rowspace={c['rowspace_words']} rref={st['matrix.rref'].calls}")
    counters = {k: sum(d["counters"][k] for d in dumps) for k in dumps[0]["counters"]}
    stats = _Stats()
    for dump in dumps:
        stats.add(dump)
    m = layer_metrics(stats, counters, wl.codes, json_bytes)
    m["trace.overhead_s"] = (traced_s - plain_s, "s")
    m["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# -- recording ---------------------------------------------------------------


def record(saved: Path):
    """Save the current program's outputs as the reference for every
    workload at both sizes, the random code at the default seed."""
    census = {}
    for size in ("full", "small"):
        for name in WORKLOADS:
            wl = build_workload(name, DEFAULT_SEED, size, None)
            for it in wl.items:
                tally = Tally()
                proc = run_item(it, False, time.perf_counter() + 600, tally)
                if tally.failed:
                    raise RuntimeError(f"{it.name} exited {proc.code}")
                if name == "catalog":
                    dest = saved / f"catalog-{CATALOG_BOUND[size]}"
                    shutil.rmtree(dest, ignore_errors=True)
                    shutil.copytree(it.output, dest)
                elif name == "census":
                    census.update(json.loads(it.output.read_text()))
                else:
                    (saved / "analyze").mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(it.output, saved / "analyze" / f"{it.name}.json")
                print(f"recorded {size} {it.name} in {proc.wall_s:.2f} s")
    (saved / "census.json").write_text(json.dumps(census, indent=1) + "\n")


# -- main -------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="small inputs, for checking the benchmark itself")
    ap.add_argument("--expected", type=Path, default=EXPECTED,
                    help="saved outputs to compare with")
    ap.add_argument("--record", action="store_true",
                    help="rewrite the saved outputs from the current program")
    args = ap.parse_args(argv)

    if not (SRC / "crcodes" / "__init__.py").is_file():
        print(f"error: no crcodes package under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        record(args.expected)
        return 0
    if not args.expected.is_dir():
        print(f"error: no saved outputs in {args.expected}", file=sys.stderr)
        return 2

    size = "small" if args.small else "full"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    tally = Tally()
    metrics = {}
    for name in names:
        wl = build_workload(name, args.seed, size, args.expected)
        if args.trace:
            got = traced_run(wl, tally)
        else:
            got = timed_run(wl, args.seconds, tally)
        if not got:
            print(f"error: {name} produced no measurement", file=sys.stderr)
            for note in tally.notes:
                print(f"  {note}", file=sys.stderr)
            return 1
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in got.items()})

    for key, val in metrics.items():
        print(f"{key} = {val['value']} {val['unit']}")
    for note in tally.notes:
        print(f"FAILED {note}")
    print(f"failed_frac = {tally.failed / tally.attempted} "
          f"({tally.failed} of {tally.attempted} codes)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
