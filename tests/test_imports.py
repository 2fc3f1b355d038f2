"""What importing the package and running a command or script loads, each
checked in a fresh interpreter: the point commands run without numpy, and
the package's public names survive any import order."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qutritxxz

SRC = Path(qutritxxz.__file__).resolve().parent.parent


def run_fresh(args):
    """Run `python -X importtime <args>` with the library on the path;
    return the exit code, stdout and the modules it imported."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=SRC.parent,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    return proc.returncode, proc.stdout, imported


def test_import_loads_no_numpy():
    code, _, imported = run_fresh(["-c", "import qutritxxz"])
    assert code == 0 and "qutritxxz.validate" in imported
    assert "numpy" not in imported


@pytest.mark.parametrize("module", ["qutritxxz", "qutritxxz.cli"])
def test_import_loads_no_dataclasses_or_inspect(module):
    # the records are namedtuples and plain classes; dataclasses would pull
    # in inspect, together most of the import time of the package
    code, _, imported = run_fresh(["-c", f"import {module}"])
    assert code == 0 and module in imported
    assert not {"dataclasses", "inspect"} & imported, sorted({"dataclasses", "inspect"} & imported)


def test_partition_functions_load_no_numpy():
    # Z and ln Z are scalar reads of the float levels, at r > 0 and at r = 0
    probe = "\n".join([
        "from qutritxxz import ModelParams, partition_function, thermal_point",
        "for p in (ModelParams(R=0.5, Dz=1.0, B=0.3), ModelParams(Dz=0.0, j_override=0.0)):",
        "    print(partition_function(p, 0.5), thermal_point(p, 0.0)[3])",
    ])
    code, out, imported = run_fresh(["-c", probe])
    assert code == 0 and len(out.splitlines()) == 2
    assert "numpy" not in imported


@pytest.mark.parametrize("argv", [
    ["negativity", "--R", "0.5", "--Dz", "1", "--B", "0.3", "--T", "0.5"],
    ["sweep", "--vary", "B", "--from", "0", "--to", "1", "--steps", "4", "--Dz", "1"],
    ["figure", "fig4c"],
    ["critical", "--axis", "B", "--R", "1", "--Dz", "1"],
    ["critical", "--axis", "Dz", "--R", "0.3", "--B", "0.5", "--T", "0.08"],
], ids=["negativity", "sweep", "figure", "critical-B", "critical-Dz"])
def test_point_commands_load_no_numpy(argv):
    code, out, imported = run_fresh(["-m", "qutritxxz.cli", *argv])
    assert code == 0 and out
    assert "numpy" not in imported


def test_cli_parser_is_built_on_first_use_and_once():
    # importing builds no parser; the first main call builds the one that
    # every later call reuses
    probe = "\n".join([
        "import qutritxxz.cli as cli",
        "print(cli.build_parser.cache_info().currsize)",
        "assert cli.main(['negativity', '--R', '0.5', '--Dz', '1']) == 0",
        "assert cli.main(['negativity', '--J', '0.3', '--T', '0', '--format', 'json']) == 0",
        "assert cli.build_parser() is cli.build_parser()",
        "info = cli.build_parser.cache_info()",
        "print(info.currsize, info.misses)",
    ])
    code, out, imported = run_fresh(["-c", probe])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0" and lines[-1] == "1 1"
    assert "numpy" not in imported


@pytest.mark.parametrize("argv", [
    ["spectrum", "--R", "0.5", "--Dz", "1", "--B", "0.3"],
    ["validate", "--fast"],
], ids=["spectrum", "validate"])
def test_matrix_commands_load_numpy_and_work(argv):
    code, out, imported = run_fresh(["-m", "qutritxxz.cli", *argv])
    assert code == 0 and out
    assert "numpy" in imported


def test_critical_points_survey_script():
    # the script runs both scans on the point path: one row per R, no numpy
    script = SRC.parent / "scripts" / "critical_points_survey.py"
    code, out, imported = run_fresh([str(script), "--r-values", "0.5", "1.0"])
    assert code == 0
    header, *rows = out.splitlines()
    assert header.split()[0] == "R"
    assert [row.split()[0] for row in rows] == ["0.50", "1.00"]
    assert "qutritxxz.sweeps" in imported and "numpy" not in imported


def test_public_names_survive_importing_the_validate_submodule_first():
    # importing a submodule binds it on the package; qutritxxz.validate must
    # stay the function that __init__ exports
    probe = "\n".join([
        "import ast, inspect, qutritxxz.validate",
        "import qutritxxz",
        "assert callable(qutritxxz.validate), qutritxxz.validate",
        "assert not inspect.ismodule(qutritxxz.validate)",
        "tree = ast.parse(open(qutritxxz.__file__).read())",
        "names = [a.asname or a.name for node in tree.body",
        "         if isinstance(node, ast.ImportFrom) for a in node.names]",
        "missing = [n for n in names if not hasattr(qutritxxz, n)]",
        "assert len(names) > 20 and not missing, missing",
        "print(len(names))",
    ])
    code, out, imported = run_fresh(["-c", probe])
    assert code == 0, out
    assert int(out) > 20 and "numpy" not in imported
