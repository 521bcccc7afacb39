"""The analysis service: byte parity with the CLI, caching, degradation."""

import json

import pytest

from repro.cli import main
from repro.incremental.store import TwoTierStore
from repro.server.protocol import ProtocolError
from repro.server.service import AnalysisService, analyze_payload

PROGRAM = """
func main(n) {
  var total = 0;
  for (i = 0; i < 100; i = i + 1) {
    if (i > 90) { total = total + i; }
  }
  if (total < 0) { total = 0; }
  return total;
}
"""

BROKEN = "func main( { oops"


def cli_stdout(capsys, argv):
    code = main(argv)
    return capsys.readouterr().out, code


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "program.toy"
    path.write_text(PROGRAM, encoding="utf-8")
    return str(path)


class TestByteParityWithCli:
    @pytest.mark.parametrize("command", ["predict", "ranges", "ir"])
    def test_matches_one_shot_output(self, capsys, program_file, command):
        expected, _ = cli_stdout(capsys, [command, program_file])
        response = AnalysisService().execute(
            {"command": command, "source": PROGRAM}
        )
        assert response["output"] == expected
        assert response["exit_code"] == 0
        assert response["degraded"] is False

    def test_run_matches(self, capsys, program_file):
        expected, _ = cli_stdout(capsys, ["run", program_file, "--args", "5"])
        response = AnalysisService().execute(
            {"command": "run", "source": PROGRAM, "options": {"args": [5]}}
        )
        assert response["output"] == expected

    @pytest.mark.parametrize("fmt", ["text", "json", "sarif"])
    def test_check_matches_including_program_name(
        self, capsys, program_file, fmt
    ):
        expected, code = cli_stdout(
            capsys, ["check", program_file, "--format", fmt]
        )
        response = AnalysisService().execute(
            {
                "command": "check",
                "source": PROGRAM,
                "name": program_file,
                "options": {"format": fmt},
            }
        )
        assert response["output"] == expected
        assert response["exit_code"] == code

    def test_warm_tiers_are_byte_identical(self, tmp_path, capsys, program_file):
        expected, _ = cli_stdout(capsys, ["predict", program_file])
        disk = tmp_path / "cache"
        request = {"command": "predict", "source": PROGRAM}

        warm = AnalysisService(cache=TwoTierStore(disk_dir=str(disk)))
        cold = warm.execute(request)
        memory_hit = warm.execute(request)
        # A fresh service over the same disk dir simulates a restart.
        restarted = AnalysisService(cache=TwoTierStore(disk_dir=str(disk)))
        disk_hit = restarted.execute(request)

        assert cold["cached"] is None
        assert memory_hit["cached"] == "memory"
        assert disk_hit["cached"] == "disk"
        assert cold["output"] == memory_hit["output"] == disk_hit["output"]
        assert cold["output"] == expected
        assert cold["key"] == memory_hit["key"] == disk_hit["key"]

    def test_damaged_disk_entry_is_recomputed_and_overwritten(
        self, tmp_path, capsys, program_file
    ):
        # Valid JSON without the response core must not be served as a
        # success with no status and no output.
        expected, _ = cli_stdout(capsys, ["predict", program_file])
        disk = tmp_path / "cache"
        request = {"command": "predict", "source": PROGRAM}
        key = AnalysisService(
            cache=TwoTierStore(disk_dir=str(disk))
        ).execute(request)["key"]
        entry = disk / key[:2] / f"{key}.json"
        entry.write_text("{}", encoding="utf-8")

        store = TwoTierStore(disk_dir=str(disk))
        restarted = AnalysisService(cache=store)
        response = restarted.execute(request)
        assert response["cached"] is None
        assert response["status"] == "ok"
        assert response["output"] == expected
        assert json.loads(entry.read_text(encoding="utf-8"))["output"] == expected
        # A disk error, not a hit; the memory tier holds the fresh result.
        assert store.stats()["disk"] == {
            "hits": 0, "misses": 1, "errors": 1, "enabled": True
        }
        assert store.stats()["memory"]["entries"] == 1
        assert store.get(key)[0]["output"] == expected
        again = AnalysisService(cache=TwoTierStore(disk_dir=str(disk)))
        assert again.execute(request)["cached"] == "disk"


class TestCacheKeys:
    def test_display_name_does_not_shatter_predict(self):
        service = AnalysisService()
        a = service.execute(
            {"command": "predict", "source": PROGRAM, "name": "a.toy"}
        )
        b = service.execute(
            {"command": "predict", "source": PROGRAM, "name": "b.toy"}
        )
        assert a["key"] == b["key"]
        assert b["cached"] == "memory"

    def test_display_name_is_key_material_for_check(self):
        # The name appears verbatim in check reports, so it must key.
        service = AnalysisService()
        a = service.execute(
            {"command": "check", "source": PROGRAM, "name": "a.toy"}
        )
        b = service.execute(
            {"command": "check", "source": PROGRAM, "name": "b.toy"}
        )
        assert a["key"] != b["key"]
        assert "a.toy" in a["output"] and "b.toy" in b["output"]

    def test_spelled_out_defaults_hit_the_same_key(self):
        service = AnalysisService()
        a = service.execute({"command": "predict", "source": PROGRAM})
        b = service.execute(
            {
                "command": "predict",
                "source": PROGRAM,
                "options": {"max_ranges": 4, "intra": False},
            }
        )
        assert a["key"] == b["key"]
        assert b["cached"] == "memory"

    def test_engine_knobs_change_the_key(self):
        service = AnalysisService()
        a = service.execute({"command": "predict", "source": PROGRAM})
        b = service.execute(
            {
                "command": "predict",
                "source": PROGRAM,
                "options": {"max_ranges": 8},
            }
        )
        assert a["key"] != b["key"]


class TestErrors:
    def test_parse_errors_are_deterministic_responses(self):
        response = AnalysisService().execute(
            {"command": "predict", "source": BROKEN}
        )
        assert response["status"] == "error"
        assert response["exit_code"] == 1
        assert response["error"]

    def test_parse_errors_are_cached(self):
        service = AnalysisService()
        service.execute({"command": "predict", "source": BROKEN})
        again = service.execute({"command": "predict", "source": BROKEN})
        assert again["cached"] == "memory"
        assert again["status"] == "error"

    def test_protocol_errors_raise(self):
        with pytest.raises(ProtocolError):
            AnalysisService().execute({"command": "predict"})
        with pytest.raises(ProtocolError):
            AnalysisService().execute(
                {"command": "predict", "source": PROGRAM, "options": {"typo": 1}}
            )

    def test_execute_item_turns_protocol_errors_into_responses(self):
        response = AnalysisService().execute_item({"command": "nope", "source": "x"})
        assert response["status"] == "error"
        assert response["exit_code"] == 1
        assert response["cached"] is None


class TestDegradation:
    def test_predict_degrades_to_heuristics_only(self):
        service = AnalysisService(timeout_s=0.0)
        response = service.execute({"command": "predict", "source": PROGRAM})
        assert response["degraded"] is True
        assert response["status"] == "ok"
        body = response["output"].splitlines()[1:]
        assert body and all("heuristic" in line for line in body)

    def test_check_degrades_to_empty_report(self):
        service = AnalysisService(timeout_s=0.0)
        response = service.execute(
            {"command": "check", "source": PROGRAM, "name": "p.toy"}
        )
        assert response["degraded"] is True
        assert response["exit_code"] == 0

    def test_ranges_answers_a_timeout_error(self):
        service = AnalysisService(timeout_s=0.0)
        response = service.execute({"command": "ranges", "source": PROGRAM})
        assert response["degraded"] is True
        assert response["status"] == "error"
        assert "timed out" in response["error"]

    def test_zero_timeout_always_degrades(self):
        # The analysis must not get to race a zero deadline: a fast
        # program used to finish before the deadline was checked.
        service = AnalysisService(timeout_s=0.0)
        responses = [
            service.execute({"command": "predict", "source": PROGRAM})
            for _ in range(200)
        ]
        assert sum(response["degraded"] is True for response in responses) == 200

    def test_degraded_results_are_never_cached(self):
        service = AnalysisService(timeout_s=0.0)
        service.execute({"command": "predict", "source": PROGRAM})
        assert service.cache.stats()["stores"] == 0
        # Lifting the deadline serves (and caches) the full result.
        service.timeout_s = None
        full = service.execute({"command": "predict", "source": PROGRAM})
        assert full["degraded"] is False
        assert full["cached"] is None
        assert service.cache.stats()["stores"] == 1

    def test_degraded_output_differs_from_full(self, capsys, program_file):
        expected, _ = cli_stdout(capsys, ["predict", program_file])
        degraded = AnalysisService(timeout_s=0.0).execute(
            {"command": "predict", "source": PROGRAM}
        )
        assert degraded["output"] != expected  # ranges rows became heuristic


class TestBatches:
    """Batch items, as a shard runs them: one ``execute_item`` each."""

    def test_one_bad_item_fails_alone(self):
        service = AnalysisService()
        results = [
            service.execute_item(item)
            for item in (
                {"command": "predict", "source": PROGRAM},
                {"command": "predict"},  # missing source
                {"command": "predict", "source": PROGRAM},
            )
        ]
        assert [r["status"] for r in results] == ["ok", "error", "ok"]

    def test_batch_shares_the_result_cache(self):
        service = AnalysisService()
        service.execute({"command": "predict", "source": PROGRAM})
        item = service.execute_item({"command": "predict", "source": PROGRAM})
        assert item["cached"] == "memory"


class TestAnalyzePayloadDirect:
    def test_unknown_command_raises(self):
        with pytest.raises(ProtocolError):
            analyze_payload("explode", PROGRAM, "-", {})


class TestBaseOptions:
    """Server-wide base options pass the same table, once, up front."""

    @pytest.mark.parametrize(
        "options,message",
        [
            ({"max_ranges": 0}, "option 'max_ranges' must be >= 1"),
            ({"context_depth": -1}, "option 'context_depth' must be >= 0"),
            ({"numeric": 1}, "option 'numeric' must be a boolean"),
            ({"format": "json"}, "unknown option 'format'"),
        ],
    )
    def test_invalid_base_options_are_refused(self, options, message):
        from repro.server.frontend import ShardedServer

        with pytest.raises(ValueError, match=message):
            AnalysisService(base_options=options)
        with pytest.raises(ValueError, match=message):
            ShardedServer(shards=1, base_options=options)

    def test_valid_base_options_apply(self, capsys, program_file):
        expected, _ = cli_stdout(capsys, ["ranges", program_file, "--numeric"])
        service = AnalysisService(base_options={"numeric": True, "max_ranges": 2})
        response = service.execute(
            {"command": "ranges", "source": PROGRAM, "options": {"max_ranges": 4}}
        )
        assert response["output"] == expected


def table_rows():
    """``(group, row)`` for every row of the option tables."""
    from repro import commands

    rows = [("analysis", row) for row in commands.ANALYSIS_OPTIONS]
    rows += [
        (command, row)
        for command, group in commands.COMMAND_OPTIONS.items()
        for row in group
    ]
    return rows


#: The CLI subcommands that expose each group's flags (``serve`` hides
#: them), plus the rows a subcommand takes outside its group.
EXPOSED = {
    "analysis": {
        "predict", "opt", "ranges", "check", "watch", "trace", "explain",
        "serve", "submit", "profile",
    },
    "check": {"check", "submit"},
    "run": {"run", "submit"},
}
EXTRA = {"format": {"watch"}, "context_depth": {"evaluate"}}

#: ``run`` needs main's argument whichever row is under test.
RUN_BASE = {"args": [3]}


def subcommand_flags():
    import argparse

    from repro.cli import build_parser

    sub = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: {flag for action in parser._actions for flag in action.option_strings}
        for name, parser in sub.choices.items()
    }


def sample(row):
    """A value of ``row`` other than its default."""
    if row.kind is bool:
        return True
    if row.choices:
        return row.choices[-1]
    if row.kind is list:
        return [4]
    return row.default + 1


def flag_argv(options):
    from repro.commands import OPTIONS

    argv = []
    for name, value in options.items():
        row = OPTIONS[name]
        if row.kind is bool:
            argv.append(row.flag)
        elif row.kind is list:
            argv += [row.flag, ",".join(map(str, value))]
        else:
            argv += [row.flag, str(value)]
    return argv


ROWS = table_rows()
ROW_IDS = [f"{group}-{row.name}" for group, row in ROWS]


class TestOptionTableParity:
    """Every table row, through both front ends; a new row is covered
    without a new hand-written pair."""

    @pytest.mark.parametrize("group,row", ROWS, ids=ROW_IDS)
    def test_the_right_subcommands_expose_the_flag(self, group, row):
        exposing = {
            name for name, flags in subcommand_flags().items() if row.flag in flags
        }
        assert exposing == EXPOSED[group] | EXTRA.get(row.name, set())

    @pytest.mark.parametrize("group,row", ROWS, ids=ROW_IDS)
    def test_the_protocol_accepts_the_option(self, group, row):
        from repro.commands import COMMANDS
        from repro.server.protocol import validate_request

        for command in COMMANDS if group == "analysis" else (group,):
            body = {"command": command, "source": PROGRAM,
                    "options": {row.name: sample(row)}}
            assert validate_request(body)[3] == {row.name: sample(row)}

    @pytest.mark.parametrize("group,row", ROWS, ids=ROW_IDS)
    def test_cli_output_and_key_equal_the_served_ones(
        self, group, row, capsys, program_file
    ):
        from repro.cli import _request_options, build_parser
        from repro.commands import COMMANDS, accepted
        from repro.server.service import request_identity

        flags = subcommand_flags()
        compared = 0
        for command in COMMANDS:
            if row not in accepted(command) or row.flag not in flags[command]:
                continue
            options = dict(RUN_BASE if command == "run" else {})
            options[row.name] = sample(row)
            argv = [command, program_file, *flag_argv(options)]
            expected, code = cli_stdout(capsys, argv)
            payload = analyze_payload(command, PROGRAM, program_file, options)
            assert (payload["output"], payload["exit_code"]) == (expected, code)

            served = {"command": command, "source": PROGRAM,
                      "name": program_file, "options": options}
            submitted = dict(
                served,
                options=_request_options(build_parser().parse_args(argv), command),
            )
            assert request_identity(submitted)[-1] == request_identity(served)[-1]
            compared += 1
        assert compared
