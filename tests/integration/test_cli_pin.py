"""The CLI and served surface of the whole corpus, pinned by digest.

``cli_digests.json`` holds three tables:

* ``cli`` -- per ``program|argv`` the SHA-256 of ``repro``'s stdout,
  the exit code and the ``error: ...`` line (or ``null``), for
  ``predict``, ``ranges``, ``ir``, ``check`` in all three formats,
  ``run`` (without arguments, and with the reference arguments capped
  at 8 and the first 16 reference inputs) and four option
  combinations, over the 33 truth programs (the workload registry plus
  ``examples/*.toy``), each written to a relative path so ``check``
  reports name it the same way every time;
* ``payload`` -- the SHA-256 of ``analyze_payload``'s deterministic
  core for the five served commands on the same programs;
* ``keys`` -- the ``request_key`` of a fixed set of request bodies
  under several server-wide base options, so a disk cache written
  earlier still hits.

``excluded`` lists the invocations that ended in a traceback when the
file was generated; they must now exit 1 with one ``error:`` line.

Regenerate the file only for a change meant to move this surface:
``PYTHONPATH=src python -m tests.integration.test_cli_pin``.
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(__file__)
DIGESTS = os.path.join(HERE, "cli_digests.json")


def programs():
    from benchmarks.ledger.corpus import truth_corpus

    return truth_corpus()


def relative_path(program) -> str:
    return program.name if program.name.endswith(".toy") else f"{program.name}.toy"


def ints(values) -> str:
    return ",".join(str(value) for value in values)


def invocations(program):
    """``(id, argv)`` for every pinned CLI invocation of one program."""
    path = relative_path(program)
    argvs = [
        ["predict", path],
        ["ranges", path],
        ["ir", path],
        ["check", path],
        ["check", path, "--format", "json"],
        ["check", path, "--format", "sarif"],
        ["run", path, "--max-steps", "20000"],
        ["run", path, "--args", ints(min(arg, 8) for arg in program.args),
         "--inputs", ints(program.inputs[:16]), "--max-steps", "20000"],
        ["predict", path, "--numeric"],
        ["predict", path, "--intra"],
        ["predict", path, "--context-depth", "2"],
        ["check", path, "--track-arrays", "--max-ranges", "2"],
    ]
    return [(f"{program.name}|{' '.join(argv[:1] + argv[2:])}", argv) for argv in argvs]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(argv):
    """``(stdout digest, exit code, error line)`` of one in-process run.

    Raises whatever the CLI raises besides ``SystemExit``.
    """
    from repro.cli import main

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
    return [sha256(stdout.getvalue()), code, error]


def write_corpus(root):
    for program in programs():
        target = os.path.join(root, relative_path(program))
        os.makedirs(os.path.dirname(target), exist_ok=True)
        with open(target, "w", encoding="utf-8") as out:
            out.write(program.source)


def payload_requests(program):
    """``(id, command, options)`` for the pinned ``analyze_payload`` calls."""
    run_options = {
        "args": [min(arg, 8) for arg in program.args],
        "inputs": program.inputs[:16],
        "max_steps": 20000,
    }
    return [
        (f"{program.name}|predict", "predict", {}),
        (f"{program.name}|ranges", "ranges", {"numeric": True}),
        (f"{program.name}|ir", "ir", {}),
        (f"{program.name}|check", "check", {"format": "sarif", "fail_on": "warning"}),
        (f"{program.name}|run", "run", dict(run_options, profile=True)),
        (f"{program.name}|run-no-args", "run", {}),
    ]


def payload_digest(program, command, options) -> str:
    from repro.server.service import analyze_payload

    payload = analyze_payload(command, program.source, program.name, options)
    return sha256(json.dumps(payload, sort_keys=True))


KEY_SOURCE = "func main(n) { if (n > 3) { return 1; } return 0; }\n"

KEY_BODIES = [
    {"command": "predict", "source": KEY_SOURCE},
    {"command": "predict", "source": KEY_SOURCE, "name": "a.toy"},
    {"command": "predict", "source": KEY_SOURCE, "options": {"trace": True}},
    {"command": "predict", "source": KEY_SOURCE,
     "options": {"intra": True, "numeric": True, "no_derive": True,
                 "track_arrays": True, "max_ranges": 2, "context_depth": 1}},
    {"command": "predict", "source": KEY_SOURCE, "options": {"max_ranges": 4}},
    {"command": "ranges", "source": KEY_SOURCE, "options": {"context_depth": 2}},
    {"command": "ir", "source": KEY_SOURCE, "name": "b.toy"},
    {"command": "check", "source": KEY_SOURCE, "name": "c.toy"},
    {"command": "check", "source": KEY_SOURCE, "name": "c.toy",
     "options": {"format": "json", "fail_on": "never"}},
    {"command": "check", "source": KEY_SOURCE,
     "options": {"format": "text", "fail_on": "error"}},
    {"command": "run", "source": KEY_SOURCE},
    {"command": "run", "source": KEY_SOURCE,
     "options": {"args": [4], "inputs": [1, 2], "max_steps": 100, "profile": True}},
    {"command": "run", "source": KEY_SOURCE, "options": {"max_steps": 5000000}},
]

KEY_BASES = {
    "none": None,
    "numeric": {"numeric": True, "max_ranges": 2},
    "intra": {"intra": True},
    "context": {"context_depth": 1, "track_arrays": True, "no_derive": True},
}


def key_table():
    from repro.server.service import request_identity

    return {
        f"{base}|{index}": request_identity(body, None, options)[-1]
        for base, options in KEY_BASES.items()
        for index, body in enumerate(KEY_BODIES)
    }


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
    ids = {id_ for program in PROGRAMS for id_, _ in invocations(program)}
    assert set(pinned["cli"]) | set(pinned["excluded"]) == ids


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_cli_output_matches_the_pinned_digests(
    program, pinned, corpus_dir, monkeypatch
):
    monkeypatch.chdir(corpus_dir)
    for id_, argv in invocations(program):
        if id_ in pinned["excluded"]:
            continue
        assert run_cli(argv) == pinned["cli"][id_], id_


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_excluded_invocations_exit_with_an_error_line(
    program, pinned, corpus_dir, monkeypatch
):
    monkeypatch.chdir(corpus_dir)
    for id_, argv in invocations(program):
        if id_ not in pinned["excluded"]:
            continue
        _, code, error = run_cli(argv)
        assert code == 1, id_
        assert error is not None and error.startswith("error: "), id_


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_payloads_match_the_pinned_digests(program, pinned):
    for id_, command, options in payload_requests(program):
        assert payload_digest(program, command, options) == pinned["payload"][id_], id_


def test_request_keys_match_the_pinned_keys(pinned):
    assert key_table() == pinned["keys"]


def generate(root):
    cli, excluded = {}, {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for program in PROGRAMS:
            for id_, argv in invocations(program):
                try:
                    cli[id_] = run_cli(argv)
                except Exception as error:  # noqa: BLE001 - a traceback at the CLI
                    excluded[id_] = f"{type(error).__name__}: {error}"
    finally:
        os.chdir(cwd)
    payload = {
        id_: payload_digest(program, command, options)
        for program in PROGRAMS
        for id_, command, options in payload_requests(program)
    }
    return {"cli": cli, "excluded": excluded, "payload": payload, "keys": key_table()}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        write_corpus(scratch)
        document = generate(scratch)
    with open(DIGESTS, "w", encoding="utf-8") as out:
        json.dump(document, out, indent=1, sort_keys=True)
        out.write("\n")
