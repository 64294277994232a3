"""Command-line entry point: ``python -m repro``.

Runs the paper experiments and prints their tables::

    python -m repro --list
    python -m repro --experiment E8
    python -m repro --all

executes a directive program (including ``DO``/``END DO`` loops, which
lower into the optimizer's IR) under a chosen backend and opt level::

    python -m repro run program.f --backend spmd -p 4 -D N=64
    python -m repro run examples/jacobi_do.hpf --opt 2 -p 4 -D N=48

statically verifies programs without running them (stable ``RPR``
diagnostic codes; exit 1 on any error-severity finding)::

    python -m repro lint examples/jacobi_do.hpf -D N=48
    python -m repro lint examples/*.py --opt 2 --format json

and regenerates the modelled-counts snapshot that
``tests/test_bench_snapshot.py`` holds by exact equality (measured time
is ``benchmarks/perf``'s job)::

    python -m repro bench -o BENCH_core.json

and the long-running session service plus its submission client::

    python -m repro serve --socket /tmp/repro.sock
    python -m repro submit jacobi.hpf --socket /tmp/repro.sock \
        --backend spmd --pool-mode thread --opt 2
    python -m repro submit --socket /tmp/repro.sock --stats
    python -m repro submit --socket /tmp/repro.sock --shutdown
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.experiments import EXPERIMENTS, run_experiment

__all__ = ["main"]


def _run_bench(args: argparse.Namespace) -> int:
    from repro.bench.harness import (
        format_table,
        run_quick_bench,
        write_bench_json,
    )

    rows = run_quick_bench()
    print(format_table(rows, ("name", "size", "words_moved", "messages",
                              "barriers", "cache_hit_rate")))
    write_bench_json(rows, args.output)
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _run_program_file(args: argparse.Namespace) -> int:
    from repro.directives.analyzer import run_program

    if args.file == "-":
        source = sys.stdin.read()
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            source = fh.read()
    inputs = {}
    for item in args.define or ():
        name, sep, value = item.partition("=")
        try:
            if not sep:
                raise ValueError
            inputs[name] = int(value)
        except ValueError:
            raise SystemExit(
                f"bad -D {item!r}; use NAME=VALUE with an integer value"
            ) from None
    from repro.machine.backend import Backend

    if args.backend == "spmd":
        backend = Backend.spmd(workers=args.workers, mode=args.pool_mode,
                               replay=not args.no_replay)
    else:
        backend = Backend.simulate()
    opt = args.opt if args.opt == "auto" else int(args.opt)
    result = run_program(source, n_processors=args.processors,
                         inputs=inputs, machine=True,
                         backend=backend, opt_level=opt)
    opt_label = "auto" if args.opt == "auto" else f"-O{args.opt}"
    print(f"backend={args.backend} processors={args.processors} "
          f"opt={opt_label}")
    for report in result.reports:
        print(report.summary())
    adaptations = getattr(result, "adaptations", ()) or ()
    for adaptation in adaptations:
        print(adaptation.describe())
    if result.machine is not None:
        stats = result.machine.stats
        print(stats.summary())
        # NB: args.opt is a string; "0" must not truthy-print savings
        if args.opt != "0" and (stats.total_words_saved
                                or stats.total_msgs_saved):
            per_pass = ", ".join(
                f"{k}: {w} words / {stats.opt_msgs_saved.get(k, 0)} msgs"
                for k, w in sorted(stats.opt_words_saved.items()))
            print(f"optimizer savings: {per_pass}")
        print(f"modeled elapsed: {result.machine.elapsed:.1f}")
    return 0


def _parse_defines(items) -> dict:
    defines = {}
    for item in items or ():
        name, sep, value = item.partition("=")
        try:
            if not sep:
                raise ValueError
            defines[name] = int(value)
        except ValueError:
            raise SystemExit(
                f"bad -D {item!r}; use NAME=VALUE with an integer value"
            ) from None
    return defines


def _lint_directive_file(path: str, args: argparse.Namespace):
    from repro.directives.analyzer import lint_program

    if path == "-":
        source = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    diagnostics, _ = lint_program(
        source, n_processors=args.processors,
        inputs=_parse_defines(args.define), opt_level=args.opt)
    return diagnostics


def _lint_python_file(path: str, args: argparse.Namespace):
    """Drive a Python example under ``REPRO_LINT=1``: every
    ``Session.run()`` lints its graph before executing and logs the
    findings; an error-severity finding aborts the script."""
    import os
    import runpy

    from repro.engine.diagnostics import LINT_LOG, DiagnosticError

    del LINT_LOG[:]
    saved_argv = sys.argv
    saved_env = {k: os.environ.get(k)
                 for k in ("REPRO_LINT", "REPRO_LINT_OPT")}
    os.environ["REPRO_LINT"] = "1"
    os.environ["REPRO_LINT_OPT"] = str(args.opt)
    sys.argv = [path]
    try:
        runpy.run_path(path, run_name="__main__")
    except DiagnosticError as exc:
        extra = [d for d in exc.diagnostics if d not in LINT_LOG]
        LINT_LOG.extend(extra)
    except SystemExit:
        pass
    finally:
        sys.argv = saved_argv
        for k, v in saved_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    diagnostics = list(LINT_LOG)
    del LINT_LOG[:]
    return diagnostics


def _run_lint(args: argparse.Namespace) -> int:
    import contextlib
    import io

    from repro.engine.diagnostics import (
        has_errors, render_json, render_text,
    )

    failed = False
    for path in args.files:
        if path.endswith(".py"):
            # example scripts print their own output; swallow it so the
            # lint report stays machine-readable
            with contextlib.redirect_stdout(io.StringIO()):
                diagnostics = _lint_python_file(path, args)
        else:
            diagnostics = _lint_directive_file(path, args)
        if args.format == "json":
            print(render_json(diagnostics, file=path))
        else:
            print(f"== {path} (-O{args.opt})")
            print(render_text(diagnostics, prefix="  "))
        failed = failed or has_errors(diagnostics)
    return 1 if failed else 0


def _tune_directive_file(path: str, args: argparse.Namespace):
    """Report-only autotune of a directive program: lower it without
    executing (the lint collect path), then run the advisor."""
    from repro.autotune import tune_graph
    from repro.directives.analyzer import lint_program

    if path == "-":
        source = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    _, result = lint_program(
        source, n_processors=args.processors,
        inputs=_parse_defines(args.define), perf=False)
    if result is None or result.graph is None:
        return []
    return [tune_graph(result.ds, result.graph)]


def _tune_python_file(path: str, args: argparse.Namespace):
    """Drive a Python example under ``REPRO_TUNE=1``: every
    ``Session.run()`` consults the advisor and logs its report instead
    of executing (the script's own output is swallowed)."""
    import contextlib
    import io
    import os
    import runpy

    from repro.autotune import TUNE_LOG

    del TUNE_LOG[:]
    saved_argv = sys.argv
    saved_env = os.environ.get("REPRO_TUNE")
    os.environ["REPRO_TUNE"] = "1"
    sys.argv = [path]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(path, run_name="__main__")
    except SystemExit:
        pass
    finally:
        sys.argv = saved_argv
        if saved_env is None:
            os.environ.pop("REPRO_TUNE", None)
        else:
            os.environ["REPRO_TUNE"] = saved_env
    reports = list(TUNE_LOG)
    del TUNE_LOG[:]
    return reports


def _run_tune(args: argparse.Namespace) -> int:
    for path in args.files:
        if path.endswith(".py"):
            reports = _tune_python_file(path, args)
        else:
            reports = _tune_directive_file(path, args)
        print(f"== {path}")
        if not reports:
            print("  (no recorded program reached the advisor)")
        for report in reports:
            for line in report.render().splitlines():
                print(f"  {line}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.serve import SessionService, serve_forever

    service = SessionService(default_timeout=args.timeout)
    print(f"repro serve: listening on {args.socket}", file=sys.stderr)
    try:
        serve_forever(args.socket, authkey=args.authkey.encode(),
                      service=service)
    finally:
        service.close()
    print("repro serve: shut down", file=sys.stderr)
    return 0


def _run_submit(args: argparse.Namespace) -> int:
    from repro.serve import ServiceClient

    client = ServiceClient(args.socket, authkey=args.authkey.encode())
    if args.shutdown:
        client.shutdown()
        print("service shut down")
        return 0
    if args.stats:
        stats = client.stats()
        store = stats.get("plan_store", {})
        print(f"sessions={stats.get('sessions')} "
              f"timeouts={stats.get('timeouts')} "
              f"restarts={stats.get('restarts')}")
        print(f"plan store: entries={store.get('entries')} "
              f"hits={store.get('hits')} misses={store.get('misses')} "
              f"hit_rate={store.get('hit_rate', 0.0):.3f}")
        return 0
    if not args.file:
        raise SystemExit("submit: need a program file "
                         "(or --stats / --shutdown)")
    if args.file == "-":
        source = sys.stdin.read()
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            source = fh.read()
    defines = {}
    for item in args.define or ():
        name, sep, value = item.partition("=")
        try:
            if not sep:
                raise ValueError
            defines[name] = int(value)
        except ValueError:
            raise SystemExit(
                f"bad -D {item!r}; use NAME=VALUE with an integer value"
            ) from None
    reply = client.run_source(
        source, processors=args.processors, backend=args.backend,
        workers=args.workers, mode=args.pool_mode, opt=args.opt,
        defines=defines, timeout=args.timeout)
    print(f"backend={args.backend} processors={args.processors} "
          f"opt=-O{args.opt}")
    for line in reply["reports"]:
        print(line)
    if "total_words" in reply:
        print(f"total words: {reply['total_words']}  "
              f"modeled elapsed: {reply['elapsed']:.1f}")
    store = reply["plan_store"]
    print(f"plan store: +{reply['request_hits']} hits / "
          f"+{reply['request_misses']} misses this request "
          f"(cumulative hit_rate={store['hit_rate']:.3f})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Experiments reproducing 'High Performance Fortran "
                     "Without Templates' (Chapman, Mehrotra, Zima; "
                     "PPoPP 1993)"))
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids and titles")
    parser.add_argument("--experiment", "-e", metavar="ID",
                        help="run one experiment (e.g. E8)")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    parser.add_argument("--output", "-o", metavar="FILE",
                        help="also write the rendered results to FILE")
    sub = parser.add_subparsers(dest="command")
    bench = sub.add_parser(
        "bench", help="run the deterministic counter probes (words, "
                      "messages, barriers, hit rates, patterns, modelled "
                      "times) and write BENCH_core.json")
    bench.add_argument("--output", "-o", metavar="FILE",
                       default="BENCH_core.json",
                       help="JSON output path (default BENCH_core.json)")
    runp = sub.add_parser(
        "run", help="execute a directive program file under a chosen "
                    "execution backend")
    runp.add_argument("file", help="program file, or '-' for stdin")
    runp.add_argument("--backend", choices=["simulate", "spmd"],
                      default="simulate",
                      help="execution backend (default simulate)")
    runp.add_argument("--workers", type=int, default=None, metavar="W",
                      help="SPMD worker count (default: one per "
                           "processor)")
    runp.add_argument("--pool-mode", choices=["auto", "fork", "process",
                                              "thread"],
                      default="auto",
                      help="SPMD worker substrate (default auto)")
    runp.add_argument("--no-replay", action="store_true",
                      help="SPMD: dispatch every loop trip from the "
                           "coordinator instead of compiling trip-"
                           "invariant loops into worker-resident replay "
                           "programs")
    runp.add_argument("--opt", type=str,
                      choices=["0", "1", "2", "auto"], default="0",
                      help="communication optimizer level (default 0; "
                           "1 = halo validity + CSE, 2 = + coalescing, "
                           "auto = -O2 + feedback-driven "
                           "redistribution)")
    runp.add_argument("--processors", "-p", type=int, default=4,
                      help="machine width (default 4)")
    runp.add_argument("--define", "-D", action="append", metavar="N=V",
                      help="integer program input (repeatable)")
    lint = sub.add_parser(
        "lint", help="statically verify programs without executing them: "
                     "bounds, storage lifecycle, dead remaps, window "
                     "races, and modeled-cost perf lints")
    lint.add_argument("files", nargs="+", metavar="FILE",
                      help="directive program files (or '-' for stdin); "
                           ".py files run under lint-before-run mode")
    lint.add_argument("--opt", type=int, choices=[0, 1, 2], default=0,
                      help="analyze assuming this optimizer level "
                           "(default 0; -O2 suppresses hoistable-remap "
                           "perf lints)")
    lint.add_argument("--format", choices=["text", "json"],
                      default="text", help="report format (default text)")
    lint.add_argument("--processors", "-p", type=int, default=4,
                      help="declared machine width (default 4)")
    lint.add_argument("--define", "-D", action="append", metavar="N=V",
                      help="integer program input (repeatable)")
    tune = sub.add_parser(
        "tune", help="report-only autotuning: print the layout "
                     "proposals an opt='auto' run would act on, "
                     "without executing anything")
    tune.add_argument("files", nargs="+", metavar="FILE",
                      help="directive program files (or '-' for stdin); "
                           ".py files run under tune-instead-of-run "
                           "mode")
    tune.add_argument("--processors", "-p", type=int, default=4,
                      help="declared machine width (default 4)")
    tune.add_argument("--define", "-D", action="append", metavar="N=V",
                      help="integer program input (repeatable)")
    serve = sub.add_parser(
        "serve", help="start the long-running session service on a unix "
                      "socket; submitted programs share one "
                      "content-addressed plan store")
    serve.add_argument("--socket", default=".repro-serve.sock",
                       metavar="PATH",
                       help="unix socket path (default .repro-serve.sock)")
    serve.add_argument("--authkey", default="repro-serve",
                       help="connection auth key")
    serve.add_argument("--timeout", type=float, default=None,
                       metavar="SECS",
                       help="default per-request timeout (default: none)")
    submit = sub.add_parser(
        "submit", help="submit a directive program to a running "
                       "`repro serve` service (or query/stop it)")
    submit.add_argument("file", nargs="?",
                        help="program file, or '-' for stdin")
    submit.add_argument("--socket", default=".repro-serve.sock",
                        metavar="PATH", help="service socket path")
    submit.add_argument("--authkey", default="repro-serve",
                        help="connection auth key")
    submit.add_argument("--backend", choices=["simulate", "spmd"],
                        default="simulate",
                        help="execution backend (default simulate)")
    submit.add_argument("--workers", type=int, default=None, metavar="W",
                        help="SPMD worker count")
    submit.add_argument("--pool-mode", choices=["auto", "fork", "process",
                                                "thread"],
                        default="auto", help="SPMD worker substrate")
    submit.add_argument("--opt", type=int, choices=[0, 1, 2], default=0,
                        help="communication optimizer level (default 0)")
    submit.add_argument("--processors", "-p", type=int, default=4,
                        help="machine width (default 4)")
    submit.add_argument("--define", "-D", action="append", metavar="N=V",
                        help="integer program input (repeatable)")
    submit.add_argument("--timeout", type=float, default=None,
                        metavar="SECS", help="per-request timeout")
    submit.add_argument("--stats", action="store_true",
                        help="print service and plan-store counters")
    submit.add_argument("--shutdown", action="store_true",
                        help="stop the service")
    args = parser.parse_args(argv)

    if args.command == "serve":
        return _run_serve(args)
    if args.command == "submit":
        return _run_submit(args)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "run":
        return _run_program_file(args)
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "tune":
        return _run_tune(args)

    if args.list:
        for key, (title, _) in EXPERIMENTS.items():
            print(f"{key:4s} {title}")
        return 0

    ids: list[str]
    if args.all:
        ids = list(EXPERIMENTS)
    elif args.experiment:
        if args.experiment.upper() not in EXPERIMENTS:
            parser.error(f"unknown experiment {args.experiment!r}; "
                         f"choose from {', '.join(EXPERIMENTS)}")
        ids = [args.experiment]
    else:
        parser.print_help()
        return 2

    failures = 0
    rendered: list[str] = []
    for exp_id in ids:
        result = run_experiment(exp_id)
        text = result.render()
        print(text)
        print()
        rendered.append(text)
        if not result.all_checks_pass:
            failures += 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("\n\n".join(rendered) + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    if failures:
        print(f"{failures} experiment(s) had failing checks",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
