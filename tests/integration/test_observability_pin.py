"""``trace``, ``explain``, ``opt`` and ``profile`` over the corpus, pinned.

``observability_digests.json`` holds, per ``program|argv``, the SHA-256
of the command's stdout with its wall-time figures left out, the exit
code and the ``error: ...`` line (or ``null``), over the 33 truth
programs of ``test_cli_pin.py``, written to the same relative paths:

* ``explain P F`` for every function ``F`` of the program;
* ``trace P`` and ``trace P --intra --no-events`` without the seconds
  column: phase names and counts in order, event counts, counters;
* ``opt P --print-ir`` and ``opt P --pipeline diagnose`` without the
  seconds column;
* ``profile P`` as its title line, the ``(span, count)`` pairs sorted by
  name and the hot-function table (the span rows are ordered by self
  time).

The file is generated twice, with the programs in opposite orders;
``unstable`` lists the invocations whose output differed between the two
runs, which are left unpinned.

Regenerate the file only for a change meant to move this surface:
``PYTHONPATH=src python -m tests.integration.test_observability_pin``.
"""

import io
import json
import os
from contextlib import redirect_stdout

import pytest

from tests.integration.test_cli_pin import (
    programs,
    relative_path,
    sha256,
    write_corpus,
)

HERE = os.path.dirname(__file__)
DIGESTS = os.path.join(HERE, "observability_digests.json")


def functions_of(program):
    from repro.lang import compile_source

    return sorted(compile_source(program.source).functions)


def drop_phase_seconds(text: str) -> str:
    """``trace`` output without the seconds column of its phase table."""
    lines, in_phases = [], False
    for line in text.splitlines():
        if line == "phase timings:":
            in_phases = True
        elif not line:
            in_phases = False
        elif in_phases:
            line = line.rsplit(None, 1)[0]
        lines.append(line)
    return "\n".join(lines)


def drop_pass_seconds(text: str) -> str:
    """``opt`` output without the seconds column of its pass table."""
    lines, in_table = [], True
    for line in text.splitlines():
        if line.startswith("total rewrites:"):
            in_table = False
        if in_table:
            fields = line.split()
            line = " ".join(fields[:2] + fields[3:])
        lines.append(line)
    return "\n".join(lines)


def profile_shape(text: str) -> str:
    """``profile`` output as its title, span counts by name, hot table."""
    lines = text.splitlines()
    spans, hot = [], []
    section = None
    for line in lines[1:]:
        if line.startswith("span "):
            section = "spans"
        elif line.startswith("hot functions"):
            section = "hot"
        elif not line.strip():
            section = None if section == "spans" else section
        elif section == "spans":
            name, count = line.split()[:2]
            spans.append(f"{name} {count}")
        elif section == "hot":
            hot.append(line)
    return "\n".join([lines[0]] + sorted(spans) + hot)


def invocations(program):
    """``(id, argv, normalise)`` for every pinned invocation of a program."""
    path = relative_path(program)
    rows = [
        (["explain", path, function], str) for function in functions_of(program)
    ]
    rows += [
        (["trace", path], drop_phase_seconds),
        (["trace", path, "--intra", "--no-events"], drop_phase_seconds),
        (["opt", path, "--print-ir"], drop_pass_seconds),
        (["opt", path, "--pipeline", "diagnose"], drop_pass_seconds),
        (["profile", path], profile_shape),
    ]
    return [
        (f"{program.name}|{' '.join(argv[:1] + argv[2:])}", argv, normalise)
        for argv, normalise in rows
    ]


def run_cli(argv, normalise):
    """``(normalised stdout digest, exit code, error line)`` of one run."""
    from repro.cli import main
    from repro.core import perf

    # Cold, as a fresh ``repro`` process is: ``trace`` and ``profile``
    # count the prepare spans of the functions the front-end memo did
    # not supply.
    perf.reset()
    stdout = io.StringIO()
    error = None
    with redirect_stdout(stdout):
        try:
            code = main(argv)
        except SystemExit as exit_:
            if isinstance(exit_.code, str):
                code, error = 1, exit_.code
            else:
                code = exit_.code
    return [sha256(normalise(stdout.getvalue())), code, error]


@pytest.fixture(scope="module")
def pinned():
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("corpus"))
    write_corpus(root)
    return root


PROGRAMS = programs()


def test_the_pinned_invocations_are_the_current_ones(pinned):
    ids = {id_ for program in PROGRAMS for id_, _, _ in invocations(program)}
    assert set(pinned["cli"]) | set(pinned["unstable"]) == ids


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_observability_output_matches_the_pinned_digests(
    program, pinned, corpus_dir, monkeypatch
):
    monkeypatch.chdir(corpus_dir)
    for id_, argv, normalise in invocations(program):
        if id_ in pinned["cli"]:
            assert run_cli(argv, normalise) == pinned["cli"][id_], id_


def generate(root, order):
    cwd = os.getcwd()
    os.chdir(root)
    try:
        return {
            id_: run_cli(argv, normalise)
            for program in order
            for id_, argv, normalise in invocations(program)
        }
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    import tempfile

    import tests.conftest  # noqa: F401  (the suite's defaults: IR verification on)

    with tempfile.TemporaryDirectory() as scratch:
        write_corpus(scratch)
        forward = generate(scratch, PROGRAMS)
        backward = generate(scratch, PROGRAMS[::-1])
    document = {
        "cli": {id_: row for id_, row in forward.items() if backward[id_] == row},
        "unstable": sorted(id_ for id_, row in forward.items() if backward[id_] != row),
    }
    with open(DIGESTS, "w", encoding="utf-8") as out:
        json.dump(document, out, indent=1, sort_keys=True)
        out.write("\n")
