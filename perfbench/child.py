"""One benchmark process; `run.py` starts it with `src` on PYTHONPATH.

  child.py setup catalog BOUND         import crcodes, build the catalog codes
  child.py setup analyze FILE...       import crcodes, read and reduce each file
  child.py setup census Q,M,N ...      import crcodes, build the census fields
  child.py census Q,M,N ...            run enumerate_rho1 on each triple and
                                       print {"Q,M,N": [entries, positives]}
  child.py reference                   fixed Python work that does not use crcodes
  child.py inputs JSON                 write the analyze input files
  child.py trace PREFIX RUN_ID cli ARG...     `crcodes ARG...` with spans
  child.py trace PREFIX RUN_ID census Q,M,N... the census with spans

The untraced `analyze` and `catalog` items do not use this file: they run
`python -m crcodes.cli` as a user would.
"""

from __future__ import annotations

import json
import sys


def _triples(specs):
    return [tuple(int(x) for x in spec.split(",")) for spec in specs]


def census(specs) -> int:
    from crcodes import enumerate_rho1

    counts = {}
    for spec, (q, m, n) in zip(specs, _triples(specs)):
        report = enumerate_rho1(q, m, n)
        counts[spec] = [len(report.entries), len(report.positives)]
    sys.stdout.write(json.dumps(counts) + "\n")
    return 0


def reference() -> int:
    """Fixed pure-Python work that does not touch crcodes: interpreter
    start-up and the stdlib modules the CLI imports, integer dictionary
    updates, exact fractions, tuple sorting and counting.  Its wall time,
    measured beside the items, tells how fast this machine runs Python at
    that moment."""
    import argparse  # noqa: F401  (start-up cost, as in the CLI)
    from collections import Counter
    from fractions import Fraction

    table: dict[int, int] = {}
    acc = 0
    for i in range(200_000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + 1
        acc ^= key
    rows = [[Fraction(i * j + 1, j + 1) for j in range(12)] for i in range(300)]
    total = sum(sum(row) for row in rows)
    shapes = Counter(
        tuple(sorted((i * 7) % 13 for i in range(k, k + 8))) for k in range(20_000)
    )
    return 0 if total > 0 and len(shapes) > 0 and len(table) > 0 else 1


def setup(workload, args) -> int:
    import crcodes

    if workload == "catalog":
        crcodes.family_catalog(int(args[0]))
    elif workload == "analyze":
        for path in args:
            crcodes.LinearCode.from_parity(crcodes.read_matrix(path))
    elif workload == "census":
        for q, _, _ in _triples(args):
            crcodes.GF(q)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return 0


def inputs(spec) -> int:
    """Write the analyze inputs with crcodes.matio.write_matrix.  spec is
    {"dir", "seed", "random": [name, n, k], "families": [[name, family,
    params], ...]}; the random binary parity matrix is redrawn until it
    has full rank, so the code is [n, k]."""
    import random
    from pathlib import Path

    from crcodes import GF, MatrixGF, build_family, rank, write_matrix

    spec = json.loads(spec)
    out = Path(spec["dir"])
    name, n, k = spec["random"]
    rng = random.Random(spec["seed"])
    while True:
        rows = [
            [(bits >> j) & 1 for j in range(n)]
            for bits in (rng.getrandbits(n) for _ in range(n - k))
        ]
        H = MatrixGF(GF(2), rows, n)
        if rank(H) == n - k:
            break
    write_matrix(H, out / f"{name}.txt", comment=name)
    for name, family, params in spec["families"]:
        _, code = build_family(family, **params)
        write_matrix(code.H, out / f"{name}.txt", comment=name)
    return 0


def trace(prefix, run_id, target, args) -> int:
    from tracer import Tracer, install

    tracer = Tracer(run_id)
    install(tracer)
    try:
        if target == "cli":
            from crcodes.cli import main

            return main(args)
        return census(args)
    finally:
        tracer.dump(prefix)


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        return setup(argv[1], argv[2:])
    if mode == "census":
        return census(argv[1:])
    if mode == "reference":
        return reference()
    if mode == "inputs":
        return inputs(argv[1])
    if mode == "trace":
        return trace(argv[1], argv[2], argv[3], argv[4:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
