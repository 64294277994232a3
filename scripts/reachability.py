"""Reachability audit: which ``src/repro`` functions does a user surface run?

Every module-level function and every method in ``src/repro`` falls in
one of three classes:

* **surface** -- at least one user surface below executes it;
* **tests** -- only the tier-1 suite executes it (with ``--tests``);
* **never** -- nothing executes it.

The surfaces, each run from the repository root in a subprocess:

* ``repro --all`` and ``repro bench``;
* the 8 examples, with the arguments ``tests/test_examples_run.py`` uses;
* ``repro run examples/jacobi_do.hpf -D N=48 -p 4`` at ``--opt 0``,
  ``2`` and ``auto``, and at ``--opt 2 --backend spmd``;
* ``repro lint`` on ``jacobi_do.hpf`` and on ``examples/*.py``, at
  ``-O0`` and ``-O2``;
* ``repro tune`` on ``jacobi_do.hpf`` and on ``load_balancing.py``;
* ``repro serve``, then ``repro submit FILE``, ``--stats`` and
  ``--shutdown`` against it;
* ``benchmarks/perf/run.py --smoke``.

The hook is a ``sitecustomize`` module on ``PYTHONPATH``, so every
Python subprocess a surface starts is recorded too; ``subprocess.Popen``
calls that pass their own ``env`` get the hook put back on it.  A
``sys.setprofile`` hook on every thread notes each code object called,
and each process writes what it saw when it exits -- through
``atexit``, ``os._exit`` (fork-mode SPMD workers) or ``SIGTERM`` --
together with every frame still on a thread's stack.  Methods
decorated ``@abstractmethod`` or ``@overload`` and the bodies of
``Protocol`` classes cannot run by construction and are left out of
the counts.

This is a measurement, not a gate.  Run it as::

    python scripts/reachability.py [--tests] [--list never|tests|surface]

It takes a few minutes (``--tests`` adds one profiled tier-1 run).
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
HPF = "examples/jacobi_do.hpf"

HOOK = r'''
import atexit, os, signal, subprocess, sys, threading, time

_OUT = os.environ.get("REPRO_REACH_OUT")
if _OUT:
    _HOOK = os.path.dirname(os.path.abspath(__file__))
    _seen = {}                  # id(code) -> code, which keeps the id unique
    _flushed = [None]

    def _profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in _seen:
                _seen[id(code)] = code

    def _flush():
        if _flushed[0] == os.getpid():
            return
        _flushed[0] = os.getpid()
        codes = list(_seen.values())
        for frame in sys._current_frames().values():
            while frame is not None:
                codes.append(frame.f_code)
                frame = frame.f_back
        keys = {(c.co_filename, c.co_firstlineno) for c in codes}
        name = f"hits-{os.getpid()}-{time.monotonic_ns()}.txt"
        with open(os.path.join(_OUT, name), "w") as fh:
            fh.writelines(f"{f}\t{n}\n" for f, n in keys)

    _exit = os._exit

    def _flush_and_exit(code):
        _flush()
        _exit(code)

    def _on_term(signum, frame):
        _flush()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    _popen_init = subprocess.Popen.__init__

    def _popen(self, *args, **kwargs):
        env = kwargs.get("env")
        if env is not None:
            env = dict(env, REPRO_REACH_OUT=_OUT)
            path = env.get("PYTHONPATH", "")
            if _HOOK not in path.split(os.pathsep):
                env["PYTHONPATH"] = os.pathsep.join(
                    p for p in (_HOOK, path) if p)
            kwargs["env"] = env
        _popen_init(self, *args, **kwargs)

    os._exit = _flush_and_exit
    subprocess.Popen.__init__ = _popen
    atexit.register(_flush)
    if signal.getsignal(signal.SIGTERM) == signal.SIG_DFL:
        signal.signal(signal.SIGTERM, _on_term)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
'''


@dataclass(frozen=True)
class Function:
    path: Path
    name: str
    first: int          # first line of the code object: its first decorator
    lines: int
    exempt: bool        # abstract, @overload or a Protocol member

    @property
    def key(self) -> tuple[str, int]:
        return str(self.path), self.first

    @property
    def dunder(self) -> bool:
        leaf = self.name.rsplit(".", 1)[-1]
        return leaf.startswith("__") and leaf.endswith("__")


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _walk(body, path: Path, prefix: str, protocol: bool):
    for node in body:
        if isinstance(node, ast.ClassDef):
            is_protocol = protocol or any(
                _decorator_name(base) == "Protocol" for base in node.bases)
            yield from _walk(node.body, path, f"{prefix}{node.name}.",
                             is_protocol)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decorators = {_decorator_name(d) for d in node.decorator_list}
            first = min([d.lineno for d in node.decorator_list]
                        + [node.lineno])
            yield Function(
                path, prefix + node.name, first, node.end_lineno - first + 1,
                protocol or bool(decorators & {"abstractmethod", "overload"}))


def functions() -> list[Function]:
    """Every module-level function and method under ``src/repro``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend(_walk(tree.body, path.resolve(), "", False))
    return found


def _surfaces() -> list[list[str]]:
    py = sys.executable
    repro = [py, "-m", "repro"]
    examples = [("quickstart.py", []), ("staggered_grid.py", ["32"]),
                ("load_balancing.py", []), ("dynamic_remapping.py", []),
                ("section_arguments.py", []),
                ("jacobi_iteration.py", ["32", "3"]),
                ("indirect_distribution.py", []),
                ("phase_change.py", ["48", "3"])]
    scripts = sorted(str(p.relative_to(ROOT))
                     for p in (ROOT / "examples").glob("*.py"))
    run = [*repro, "run", HPF, "-D", "N=48", "-p", "4"]
    return [
        [*repro, "--all"],
        [*repro, "bench", "-o", os.devnull],
        *([py, f"examples/{name}", *args] for name, args in examples),
        [*run, "--opt", "0"], [*run, "--opt", "2"], [*run, "--opt", "auto"],
        [*run, "--opt", "2", "--backend", "spmd"],
        [*repro, "lint", HPF, "-D", "N=48"],
        [*repro, "lint", HPF, "-D", "N=48", "--opt", "2"],
        [*repro, "lint", *scripts], [*repro, "lint", *scripts, "--opt", "2"],
        [*repro, "tune", HPF, "-D", "N=48"],
        [*repro, "tune", "examples/load_balancing.py"],
        [py, "benchmarks/perf/run.py", "--smoke"],
    ]


def _check(argv: list[str], env: dict) -> None:
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True)
    shown = " ".join(a.replace(sys.executable, "python") for a in argv)
    print(f"  [{time.perf_counter() - started:6.1f} s] {shown}",
          file=sys.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"surface failed ({proc.returncode}): {shown}\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")


def _serve_surface(env: dict) -> None:
    """``repro serve`` in the background, driven by ``repro submit``."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.serve import ServiceClient

    socket = os.path.relpath(
        Path(env["REPRO_REACH_OUT"]) / "serve.sock", ROOT)
    repro = [sys.executable, "-m", "repro"]
    server = subprocess.Popen([*repro, "serve", "--socket", socket],
                              cwd=ROOT, env=env, stderr=subprocess.DEVNULL)
    try:
        client = ServiceClient(socket)
        deadline = time.monotonic() + 60
        while True:
            try:
                if client.ping():
                    break
            except (OSError, EOFError):
                if time.monotonic() > deadline or server.poll() is not None:
                    raise SystemExit("repro serve did not come up")
                time.sleep(0.05)
        submit = [*repro, "submit", "--socket", socket]
        _check([*submit, HPF, "-D", "N=48", "--backend", "spmd",
                "--pool-mode", "thread", "--opt", "2"], env)
        _check([*submit, "--stats"], env)
        _check([*submit, "--shutdown"], env)
        if server.wait(timeout=60) != 0:
            raise SystemExit("repro serve exited nonzero")
    finally:
        if server.poll() is None:
            server.kill()


def _run_surfaces(env: dict) -> None:
    for argv in _surfaces():
        _check(argv, env)
    _serve_surface(env)


def _run_tests(env: dict) -> None:
    _check([sys.executable, "-m", "pytest", "-x", "-q",
            "-p", "no:cacheprovider"], env)


def record(out: Path, drive) -> set:
    """Call ``drive(env)`` with the hook on ``env``; return the
    ``(file, line)`` keys of every code object any process executed."""
    hook = out / "hook"
    hook.mkdir(parents=True)
    (hook / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
    path = os.environ.get("PYTHONPATH", "")
    env = dict(os.environ, REPRO_REACH_OUT=str(out),
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(hook), str(ROOT / "src"), path) if p))
    drive(env)
    hits = set()
    for name in out.glob("hits-*.txt"):
        for line in name.read_text(encoding="utf-8").splitlines():
            filename, _, first = line.rpartition("\t")
            hits.add((filename, int(first)))
    # a relative ``co_filename`` is relative to the repository root
    resolved = {f: str((ROOT / f).resolve()) for f, _ in hits}
    return {(resolved[f], n) for f, n in hits}


def _summary(label: str, funcs: list[Function]) -> str:
    dunders = sum(f.dunder for f in funcs)
    return (f"{label:8s} {len(funcs):5d} functions "
            f"{sum(f.lines for f in funcs):6d} lines  ({dunders} dunders)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests", action="store_true",
                        help="also record a tier-1 run, to split the "
                             "non-surface functions into tests/never")
    parser.add_argument("--list", choices=["never", "tests", "surface"],
                        action="append", default=[],
                        help="print the functions of a class")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        print("surfaces:", file=sys.stderr)
        surface = record(Path(scratch) / "surface", _run_surfaces)
        tested: set = set()
        if args.tests:
            print("tier-1:", file=sys.stderr)
            tested = record(Path(scratch) / "tests", _run_tests)

    every = functions()
    exempt = [f for f in every if f.exempt]
    classes: dict[str, list[Function]] = {
        "surface": [], "tests": [], "never": []}
    for f in every:
        if f.exempt:
            continue
        if f.key in surface:
            classes["surface"].append(f)
        elif f.key in tested:
            classes["tests"].append(f)
        else:
            classes["never"].append(f)

    for label, funcs in classes.items():
        if label == "tests" and not args.tests:
            continue
        print(_summary(label, funcs))
    print(f"exempt   {len(exempt):5d} abstract, @overload or Protocol members")
    for label in args.list:
        print(f"\n== {label}")
        for f in classes[label]:
            rel = f.path.relative_to(ROOT)
            print(f"  {rel}:{f.first}  {f.name}  ({f.lines} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
