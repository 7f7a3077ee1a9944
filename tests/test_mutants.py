"""The mutant list of tools/mutants.py still applies to this checkout."""

import importlib.util
import subprocess
import sys

import pytest

from conftest import SRC, subprocess_env

ROOT = SRC.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old
    for path in mutant.tests:
        assert (ROOT / path.split("::")[0]).is_file(), path


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


def test_every_mutant_collects_a_test():
    # a renamed test would otherwise leave its mutant to fail only as a broken run of the runner
    paths = sorted({path for m in mutants.MUTANTS for path in m.tests})
    argv = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *paths]
    proc = subprocess.run(argv, cwd=ROOT, env=subprocess_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    collected = proc.stdout.splitlines()
    for path in paths:
        assert any(node == path or node.startswith((path + "::", path + "[")) for node in collected), path
