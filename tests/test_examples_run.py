"""Every example script must run cleanly (they are part of the public
deliverable; this keeps them from rotting)."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

_CASES = [
    ("quickstart.py", []),
    ("staggered_grid.py", ["32"]),
    ("load_balancing.py", []),
    ("dynamic_remapping.py", []),
    ("section_arguments.py", []),
    ("jacobi_iteration.py", ["32", "3"]),
    ("indirect_distribution.py", []),
    ("phase_change.py", ["48", "3"]),
]


def _run(argv):
    return subprocess.run(argv, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("script,args",
                         _CASES, ids=[c[0] for c in _CASES])
def test_example_runs(script, args):
    path = EXAMPLES / script
    assert path.exists(), f"missing example {script}"
    proc = _run([sys.executable, str(path), *args])
    assert proc.returncode == 0, \
        f"{script} failed:\n{proc.stdout}\n{proc.stderr}"
    assert proc.stdout.strip(), f"{script} produced no output"


def test_do_loop_directive_program_runs():
    """The shipped DO-loop program through the CLI front door at -O2."""
    proc = _run([sys.executable, "-m", "repro", "run",
                 str(EXAMPLES / "jacobi_do.hpf"),
                 "--opt", "2", "-p", "4", "-D", "N=16"])
    assert proc.returncode == 0, proc.stderr
    assert "optimizer savings" in proc.stdout


def test_example_inventory_complete():
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    assert on_disk == {c[0] for c in _CASES}, \
        "update _CASES when adding examples"
    assert (EXAMPLES / "jacobi_do.hpf").exists()
