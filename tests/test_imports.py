"""Which modules a fresh `nilgeo` process loads: the package imports no
layer, and each subcommand loads only the layers it runs."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import nilgeo
import nilgeo.cli

SRC = str(Path(nilgeo.__file__).resolve().parents[1])


def loaded_after(*argv) -> set:
    """The modules in sys.modules of a fresh interpreter after `import
    nilgeo.cli` and, when argv is given, cli.main(argv) with its report
    discarded."""
    code = (
        "import contextlib, io, json, sys\n"
        "import nilgeo.cli\n"
        f"argv = {list(argv)!r}\n"
        "if argv:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert nilgeo.cli.main(argv) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def nilgeo_modules(modules: set) -> set:
    return {m for m in modules if m.split(".")[0] == "nilgeo"}


H3_CCY = ("--algebra", "(0,0,12)", "--alpha", "2*e3", "--J", "pairs:(1,2)", "--epsilon", "e1 + i*e2")


def test_importing_the_cli_loads_no_layer_and_no_numpy():
    modules = loaded_after()
    assert nilgeo_modules(modules) == {"nilgeo", "nilgeo.cli", "nilgeo.errors"}
    assert not modules & {"numpy", "argparse"}


def test_betti_loads_neither_numpy_nor_the_structure_layers():
    modules = loaded_after("betti", "--algebra", "(0,0,12)")
    assert "nilgeo.cealg" in modules
    assert not modules & {"numpy", "nilgeo.curvature", "nilgeo.classify", "nilgeo.legendrian"}


def test_only_sampled_comass_loads_numpy():
    assert "numpy" in loaded_after("comass", *H3_CCY, "--samples", "10")
    assert "numpy" not in loaded_after("comass", *H3_CCY, "--samples", "0", "--probe", "X1")


def run_cli(*argv) -> tuple[int, str, set]:
    """Exit code, stdout and imported modules of a fresh `python -m nilgeo.cli
    argv` (main() reads sys.argv), its imports listed by -X importtime."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-X", "importtime", "-m", "nilgeo.cli", *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc.returncode, proc.stdout, imported


def in_process(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = nilgeo.cli.main(list(argv))
    return code, out.getvalue()


def test_a_valid_request_never_imports_argparse_and_a_usage_error_does():
    code, out, imported = run_cli("check-ccy", *H3_CCY)
    assert "nilgeo.structures" in imported and "argparse" not in imported
    assert (code, out) == in_process("check-ccy", *H3_CCY) == (0, out)
    code, out, imported = run_cli("check-ccy", *H3_CCY[:4])  # no --J, no --epsilon
    assert "argparse" in imported
    assert (code, out) == in_process("check-ccy", *H3_CCY[:4])
    assert code == 2 and "the following arguments are required: --J, --epsilon" in json.loads(out)["error"]
