"""Which modules a fresh `nilgeo` process loads: the package imports no
layer, and each subcommand loads only the layers it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import nilgeo

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
    assert "numpy" not in modules


def test_betti_loads_neither_numpy_nor_the_structure_layers():
    modules = loaded_after("betti", "--algebra", "(0,0,12)")
    assert "nilgeo.cealg" in modules
    assert not modules & {"numpy", "nilgeo.curvature", "nilgeo.classify", "nilgeo.legendrian"}


def test_only_sampled_comass_loads_numpy():
    assert "numpy" in loaded_after("comass", *H3_CCY, "--samples", "10")
    assert "numpy" not in loaded_after("comass", *H3_CCY, "--samples", "0", "--probe", "X1")
