"""Golden output bytes: each command's output on fixed inputs, pinned by SHA-256.

Inputs are the benchmark's generated dictionaries (bench/gen.py: many-small
and tune at two seeds each) plus a small chained input built here, whose
components grow denser with every symmetry cycle. Every command runs
in-process through cli.main; its exit status, stdout, stderr and every file
it writes are hashed and compared with tests/golden_digests.tsv. A change
that alters output on purpose rewrites the table:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.tsv

and names in its change notes the commands and inputs whose bytes moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile

import pytest

from pivotlex.cli import main as cli_main

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "bench"))
import gen  # noqa: E402  (the benchmark's input generator, imported as is)

GOLDEN = os.path.join(HERE, "golden_digests.tsv")


def chained(seed: int, chains: tuple[int, ...] = (5, 10, 20, 25)) -> gen.Inputs:
    """Chains of planted groups: components that densify with every cycle.

    Each group has 1-3 pivots and drops each of its links with p = 0.15;
    each group after the first of its chain links its A- or C-word to a
    pivot of one of the five groups before it.
    """
    rng = random.Random(seed)
    out = gen.Inputs()
    pivots_of: list[list[str]] = []
    starts = {sum(chains[:i]) for i in range(len(chains))}
    for g in range(sum(chains)):
        if g in starts:
            pivots_of = []
        stem = "".join(rng.choice(gen._SYLLABLES) for _ in range(rng.randint(2, 3)))
        a, c = f"{stem}{g:03d}", f"{stem[:-2]}{rng.choice(gen._SYLLABLES)}{g:03d}"
        pivots = [f"{rng.choice(gen._SYLLABLES)}{g:03d}{i}" for i in range(rng.randint(1, 3))]
        for b in pivots:
            if rng.random() >= 0.15:
                out.ab.add((a, b))
            if rng.random() >= 0.15:
                out.cb.add((c, b))
        if pivots_of:
            b = rng.choice(rng.choice(pivots_of[-5:]))
            if rng.random() < 0.5:
                out.ab.add((a, b))
            else:
                out.cb.add((c, b))
        pivots_of.append(pivots)
        out.gold.add((a, c))
    return out


# input name -> (inputs, extra flags for every command on it)
INPUTS = {
    "many-small-1": (lambda: gen.many_small(1), []),
    "many-small-2": (lambda: gen.many_small(2), []),
    "tune-1": (lambda: gen.tune(1), []),
    "tune-2": (lambda: gen.tune(2), []),
    # the cap skips the largest component, so skip notices are pinned too;
    # cv exits 2 here (a fold holds no gold pair), which pins that message
    "chained-1": (lambda: chained(1), ["--max-edges", "100"]),
    # language A's tag sorts after C's, so each C-word sorts before every
    # A-word; argparse keeps the last flag, so these tags override LANGS
    "tune-1-c-first": (lambda: gen.tune(1), ["--lang-a", "zz", "--lang-c", "aa"]),
    "chained-1-c-first": (
        lambda: chained(1),
        ["--max-edges", "100", "--lang-a", "zz", "--lang-c", "aa"],
    ),
}

LANGS = ["--lang-a", gen.LANG_A, "--lang-b", gen.LANG_B, "--lang-c", gen.LANG_C]
# each command runs in a directory of its own beside its input's files
DICTS = ["--dict-ab", "../dict_ab.tsv", "--dict-cb", "../dict_cb.tsv", *LANGS]
GOLD = ["--gold", "../gold.tsv"]

# command name -> (argv after the dictionary flags, files or directories it writes)
COMMANDS = {
    **{
        f"induce-{m}": (
            ["induce", *DICTS, "--method", m, "--jobs", "1"]
            + ["-o", "out.tsv", "--report", "report.txt"],
            ["out.tsv", "report.txt"],
        )
        for m in ("2:S:H14", "1:C:H1", "3:M:H1")
    },
    "grid-search": (["grid-search", *DICTS, *GOLD, "--method", "2:S:H14"], []),
    "cv": (["cv", *DICTS, *GOLD, "--method", "2:S:H14", "--folds", "3"], []),
    # C sweeps a one-to-one cognate run and M a many-to-many one, and
    # neither has a synonym axis
    **{
        f"{command}-{m}": ([command, *DICTS, *GOLD, "--method", m, *flags], [])
        for command, flags in (("grid-search", []), ("cv", ["--folds", "3"]))
        for m in ("1:C:H1", "3:M:H1")
    },
    "stats": (["stats", *DICTS], []),
    "baseline-cp": (["baseline", "cp", *DICTS, "-o", "cp.tsv"], ["cp.tsv"]),
    "baseline-ic": (["baseline", "ic", *DICTS, "-o", "ic.tsv"], ["ic.tsv"]),
    "export-wcnf": (["export-wcnf", *DICTS, "--method", "2:S:H14", "--out-dir", "wcnf"], ["wcnf"]),
    # method M drops the at-most-one clauses
    "export-wcnf-1:M:H1": (
        ["export-wcnf", *DICTS, "--method", "1:M:H1", "--out-dir", "wcnf"],
        ["wcnf"],
    ),
}

CASES = [(name, command) for name in INPUTS for command in COMMANDS]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: str) -> str:
    """A file's digest; a directory's is that of its sorted (name, digest) lines."""
    if os.path.isdir(path):
        lines = "".join(
            f"{name}\t{_file_digest(os.path.join(path, name))}\n"
            for name in sorted(os.listdir(path))
        )
        return _sha(lines.encode())
    with open(path, "rb") as f:
        return _sha(f.read())


def write_inputs(directory: str) -> None:
    for name, (make, _) in INPUTS.items():
        gen.write_inputs(make(), os.path.join(directory, name))


def _spoil(path: str) -> None:
    """Overwrite the file, or each file in the directory, with longer junk.

    The junk is written over the old bytes without truncating the file, so
    a rerun's cut frees only blocks the filesystem has not yet allocated.
    """
    if os.path.isdir(path):
        for name in os.listdir(path):
            _spoil(os.path.join(path, name))
        return
    with open(path, "r+b") as f:
        f.write(b"\xff" * (os.path.getsize(path) + 4096))


def _run(workdir: str, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli_main(argv)
    finally:
        os.chdir(cwd)
    return status, out.getvalue(), err.getvalue()


def run_case(directory: str, name: str, command: str, rerun: bool = False) -> dict[str, str]:
    """Run one command on one input; returns each output's digest by name.

    With `rerun`, the command runs once in a working directory of its own,
    every file it wrote is overwritten with junk longer than the file, and
    the digests are those of a second run in the same directory.
    """
    argv, written = COMMANDS[command]
    argv = argv + INPUTS[name][1]
    workdir = os.path.join(directory, name, command + ("-rerun" if rerun else ""))
    os.makedirs(workdir)
    if rerun:
        _run(workdir, argv)
        for path in written:
            _spoil(os.path.join(workdir, path))
    status, out, err = _run(workdir, argv)
    digests = {
        "exit": str(status),
        "stdout": _sha(out.encode()),
        "stderr": _sha(err.encode()),
    }
    for path in written:
        digests[path] = _file_digest(os.path.join(workdir, path))
    return digests


def read_golden() -> dict[tuple[str, str], dict[str, str]]:
    table: dict[tuple[str, str], dict[str, str]] = {}
    with open(GOLDEN, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            name, command, output, digest = line.rstrip("\n").split("\t")
            table.setdefault((name, command), {})[output] = digest
    return table


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("golden"))
    write_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def golden():
    return read_golden()


def test_table_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name, command", CASES, ids=[f"{n}/{c}" for n, c in CASES])
def test_output_bytes_match_golden(inputs, golden, name, command):
    assert run_case(inputs, name, command) == golden[(name, command)]


WRITING_CASES = [(name, command) for name, command in CASES if COMMANDS[command][1]]


@pytest.mark.parametrize(
    "name, command", WRITING_CASES, ids=[f"{n}/{c}" for n, c in WRITING_CASES]
)
def test_rerun_over_longer_junk_matches_golden(inputs, golden, name, command):
    assert run_case(inputs, name, command, rerun=True) == golden[(name, command)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        print("# input\tcommand\toutput\tsha256 (see tests/test_golden.py)")
        for name, command in CASES:
            for output, digest in run_case(directory, name, command).items():
                print(f"{name}\t{command}\t{output}\t{digest}")
