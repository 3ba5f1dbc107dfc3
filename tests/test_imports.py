"""Names load on first use, and each CLI command loads only the modules it runs.

The import sets are read in fresh interpreters, since the test process may
have loaded any module already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kreincalc
import kreincalc.krein

PARENT = Path(kreincalc.__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"


def _fresh(code: str):
    """The value that `code` leaves in `result`, and the kreincalc submodules
    loaded, from a new interpreter that imports the package under test."""
    script = (code + "\nimport json, sys\n"
              "print(json.dumps([result, sorted(m for m in sys.modules if m.startswith('kreincalc.'))]))")
    env = dict(os.environ, PYTHONPATH=str(PARENT))
    proc = subprocess.run([sys.executable, "-c", "result = None\n" + script],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    result, modules = json.loads(proc.stdout.splitlines()[-1])
    return result, {m.removeprefix("kreincalc.") for m in modules}


def test_import_loads_no_submodule():
    assert _fresh("import kreincalc")[1] == set()


def test_cli_import_leaves_krein_and_jetcalc_out():
    modules = _fresh("import kreincalc.cli")[1]
    assert "cli" in modules
    assert not modules & {"krein", "jetcalc"}


@pytest.mark.parametrize("runs,loaded,absent", [
    ([("spectrum", "pencil.json"), ("rational-apply", "running_rational.json")], set(), {"krein", "jetcalc"}),
    ([("definitize", "running.json")], {"krein"}, {"jetcalc"}),
    ([("calculus", "running.json")], {"krein", "jetcalc"}, set()),
])
def test_each_command_loads_only_what_it_runs(runs, loaded, absent):
    argvs = [[command, "--input", str(FIXTURES / name), "--output", os.devnull] for command, name in runs]
    codes, modules = _fresh(f"from kreincalc.cli import main\nresult = [main(a) for a in {argvs!r}]")
    assert codes == [0] * len(runs)
    assert loaded <= modules
    assert not modules & absent


def _imported_by_a_cli_run():
    """The modules that a `-X importtime -m kreincalc.cli calculus` process imports."""
    env = dict(os.environ, PYTHONPATH=str(PARENT))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "kreincalc.cli", "calculus",
                           "--input", str(FIXTURES / "running.json"), "--output", os.devnull],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {"numpy", "kreincalc.krein", "kreincalc.jetcalc"} <= imported
    return imported


def test_a_cli_process_loads_no_argument_parser():
    # argv is read without argparse, so neither it nor its gettext and locale are imported
    assert not _imported_by_a_cli_run() & {"argparse", "gettext", "locale"}


def test_a_cli_process_loads_no_dataclasses():
    # the records are plain classes: a `-m` run, and an import of cli and jetcalc, leave dataclasses out
    assert "dataclasses" not in _imported_by_a_cli_run()
    assert _fresh("import sys, kreincalc.cli, kreincalc.jetcalc\nresult = 'dataclasses' in sys.modules")[0] is False


def test_the_cli_as_main_collects_nothing_from_numpy_on_and_an_import_leaves_the_collector_alone():
    # run as `-m` runs it; the collections logged are those that start once numpy is loading
    argv = ["kreincalc.cli", "calculus", "--input", str(FIXTURES / "running.json"), "--output", os.devnull]
    # the entry ends the process with os._exit, here stubbed to raise SystemExit as sys.exit does
    run = ("import gc, os, runpy, sys\n"
           f"sys.argv = {argv!r}\n"
           "def _exit(code):\n"
           "    raise SystemExit(code)\n"
           "os._exit = _exit\n"
           "late = []\n"
           "gc.callbacks.append(lambda phase, info:\n"
           "                    phase == 'start' and 'numpy' in sys.modules and late.append(info))\n"
           "try:\n"
           "    runpy.run_module('kreincalc.cli', run_name='__main__', alter_sys=True)\n"
           "except SystemExit as exc:\n"
           "    result = [exc.code, gc.isenabled(), late]")
    assert _fresh(run)[0] == [0, False, []]
    for state in ("enable", "disable"):
        result = _fresh(f"import gc\ngc.{state}()\nimport kreincalc.cli\nresult = gc.isenabled()")[0]
        assert result is (state == "enable")


def test_submodules_are_attributes_of_the_package():
    result = _fresh("import kreincalc\n"
                    "result = [kreincalc.tolerances.PSD_TOL, kreincalc.errors.ValidationError.__name__]")[0]
    assert result == [kreincalc.tolerances.PSD_TOL, "ValidationError"]
    # a name read first does not change which submodules are attributes
    result = _fresh("import kreincalc\nkreincalc.GramSpace\n"
                    "result = [m.__name__ for m in (kreincalc.krein, kreincalc.jetcalc, kreincalc.spectral)]")[0]
    assert result == ["kreincalc.krein", "kreincalc.jetcalc", "kreincalc.spectral"]


def test_assignment_to_the_package_shadows_the_name_until_deleted():
    result = _fresh("import kreincalc\nkreincalc.xi = 1\nshadowed = kreincalc.xi\ndel kreincalc.xi\n"
                    "result = [shadowed, kreincalc.xi is kreincalc.krein.xi]")[0]
    assert result == [1, True]


def test_every_name_resolves_to_its_home_module():
    for name in kreincalc.__all__:
        home = importlib.import_module(f"kreincalc.{kreincalc._HOME[name]}")
        value = getattr(kreincalc, name)
        assert value is getattr(home, name), name
        if callable(value):
            assert value.__module__ == home.__name__, name
    assert set(kreincalc.__all__) <= set(dir(kreincalc))


def test_unknown_name_is_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="'kreincalc' has no attribute 'no_such_name'"):
        kreincalc.no_such_name  # noqa: B018
    from kreincalc import cli

    with pytest.raises(AttributeError, match="'kreincalc.cli' has no attribute 'no_such_name'"):
        cli.no_such_name  # noqa: B018


def test_patch_of_the_home_module_is_seen_through_the_package(monkeypatch):
    original = kreincalc.krein.verify_definitizing

    def fake(*args, **kwargs):
        raise AssertionError("not called")

    with monkeypatch.context() as patch:
        patch.setattr(kreincalc.krein, "verify_definitizing", fake)
        assert kreincalc.verify_definitizing is fake
    assert kreincalc.verify_definitizing is original
