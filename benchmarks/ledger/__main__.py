"""Command line of the performance ledger.

    python -m benchmarks.ledger run [--workload W] [--seed N] [--seconds S]
                                    [--trace [0|1]] [--quick] [--out FILE]
                                    [--trace-dir DIR]
    python -m benchmarks.ledger compare RUN_A.json... -- RUN_B.json...
    python -m benchmarks.ledger truth [--check | --write]
    python -m benchmarks.ledger probe-coverage [--units 16,32,...]

Run it from the repository root; it analyses the sources under ``src/``.
``python3 benchmarks/ledger run ...`` (the directory as a script) is the
same command.  That is the command of ``BENCHMARK.json``, which is
invoked with ``--workload W --seed N --seconds S --trace 0|1``; so
``--seconds`` stays an option (default: ``run_seconds``) and ``--trace``
takes an optional 0 or 1.  ``compare`` refuses runs of different lengths.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

if not __package__:  # run as ``python3 benchmarks/ledger``
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from benchmarks.ledger import corpus  # noqa: E402

DEFAULT_SEED = 11
DEFAULT_SECONDS = 20.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    sub = parser.add_subparsers(dest="command", required=True)

    def measurement(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload",
                       help="one workload (default: the three gated ones, all but serve-mixed)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--seconds", type=float, default=None,
                       help=f"measured seconds per workload (default {DEFAULT_SECONDS:g})")
        p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                       help="also run a traced pass and report the per-layer metrics")
        p.add_argument("--quick", action="store_true",
                       help="about a tenth of the samples (smoke testing)")
        p.add_argument("--trace-dir", help="write a Chrome trace per workload here")

    run = sub.add_parser("run", help="measure workloads; exit 1 if a check fails")
    measurement(run)
    run.add_argument("--out", help="write the run document (JSON) here")

    worker = sub.add_parser("worker")  # one workload in this process (internal)
    measurement(worker)
    worker.add_argument("--setup-only", action="store_true")
    worker.add_argument("--work-dir", required=True)
    worker.add_argument("--t0", type=float, required=True)

    child = sub.add_parser("serve-child")  # the server process of serve-mixed (internal)
    child.add_argument("--shards", type=int, required=True)
    child.add_argument("--cache-dir", required=True)

    compare = sub.add_parser("compare", help="compare two sets of run documents")
    compare.add_argument("runs", nargs="+", help="RUN_A... -- RUN_B...")

    truth = sub.add_parser("truth", help="recompute the interpreter truth and diff it")
    truth.add_argument("--check", action="store_true", help="diff only (the default)")
    truth.add_argument("--write", action="store_true", help="rewrite truth.json")

    probe = sub.add_parser("probe-coverage", help="branch coverage of synthetic_program(N)")
    probe.add_argument("--units", default="16,24,32,40,41,42,48,64,96,128")
    return parser


def _use_repo_sources() -> bool:
    """Put ``src/`` first on the path; False when the engine is not there."""
    sys.path.insert(0, str(corpus.REPO_ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"error: cannot import the engine from src/: {error}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        # argparse drops the "--" separating the two sides, so read it raw.
        from benchmarks.ledger.compare import compare_main

        return compare_main(argv[1:])
    args = build_parser().parse_args(argv)
    if not _use_repo_sources():
        return 2
    if args.command in ("run", "worker"):
        from benchmarks.ledger import runner

        if args.seconds is None:
            args.seconds = DEFAULT_SECONDS / 10 if args.quick else DEFAULT_SECONDS
        if args.workload and args.workload not in runner.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        return runner.run(args) if args.command == "run" else runner.worker_main(args)
    if args.command == "serve-child":
        from benchmarks.ledger.serve import serve_child

        return serve_child(args.shards, args.cache_dir)
    if args.command == "truth":
        from benchmarks.ledger.probes import truth_main

        return truth_main(write=args.write)
    from benchmarks.ledger.probes import probe_coverage

    return probe_coverage([int(unit) for unit in args.units.split(",")])


if __name__ == "__main__":
    sys.exit(main())
