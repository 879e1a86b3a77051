"""README's library example and CLI transcript, run as written, and the
call names in its prose.

Both run in a separate process from a temporary directory, and every
line they print must match the README, so the documentation cannot
drift from the program.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import crcodes

README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced_block(heading: str, lang: str) -> list[str]:
    """Lines of the first ```lang block after the `## heading` line."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(f"## {heading}")
    opening = lines.index(f"```{lang}", start)
    closing = lines.index("```", opening + 1)
    return lines[opening + 1 : closing]


def _python(args, cwd):
    package_root = str(Path(crcodes.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [package_root, inherited])),
    }
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_library_example_prints_its_comments(tmp_path):
    block = _fenced_block("Library", "python")
    expected = [
        line.split("#", 1)[1].strip() for line in block if line.startswith("print(")
    ]
    assert len(expected) == 3
    assert _python(["-c", "\n".join(block)], tmp_path) == expected


def test_cli_transcript_matches(tmp_path):
    transcript = []
    for line in _fenced_block("CLI", "text"):
        if line.startswith("$ crcodes "):
            transcript.append((shlex.split(line[len("$ crcodes "):]), []))
        elif line:
            transcript[-1][1].append(line)
    commands = [argv[0] for argv, _ in transcript]
    assert commands == ["construct", "analyze", "classify", "catalog"]
    for argv, expected in transcript:
        assert _python(["-m", "crcodes", *argv], tmp_path) == expected, argv


def test_prose_call_names_resolve():
    # a backticked call in the prose, `name(` or `Class.attr(`, names an
    # attribute path of the package, so renaming one leaves no stale text
    names = set()
    in_fence = False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
        elif not in_fence:
            names.update(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)\(", line))
    assert {"iter_projective", "LinearCode.extended", "MatrixGF"} <= names
    missing = []
    for name in sorted(names):
        obj = crcodes
        for attr in name.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert missing == []
