"""The package surface and its layering: what ``import cctsim`` binds and loads.

The package imports its layers on first use, so which layers an entry point
loads is checked in a fresh interpreter: this one has loaded them all.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cctsim
from cctsim import stages, zeno

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LAYERS = ("inputs", "hilbert", "gates", "protocol", "stages", "zeno")


def _fresh(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports cctsim from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestSurface:
    def test_each_public_name_is_the_object_of_its_defining_layer(self):
        for name in cctsim.__all__:
            if name == "__version__":
                continue
            value = getattr(cctsim, name)
            assert value.__module__ == f"cctsim.{cctsim._HOMES[name]}", name
            assert getattr(sys.modules[value.__module__], name) is value, name

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from cctsim import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(cctsim.__all__)
        assert all(value is getattr(cctsim, name) for name, value in namespace.items())

    def test_an_unknown_attribute_is_named(self):
        with pytest.raises(AttributeError, match="^module 'cctsim' has no attribute 'no_such_name'$"):
            getattr(cctsim, "no_such_name")

    def test_the_one_config_stage_wrappers_are_not_package_names(self):
        # They stay on stages (and on zeno, for perfbench's tracer) only.
        for name in ("stage_probabilities_general", "stage_probabilities_bell"):
            with pytest.raises(AttributeError, match=f"^module 'cctsim' has no attribute '{name}'$"):
                getattr(cctsim, name)
            assert name not in cctsim.__all__ and name not in dir(cctsim)

    def test_a_bare_import_lists_every_name_and_binds_each_on_first_use(self):
        code = (
            "import sys, cctsim\n"
            f"layers = {LAYERS!r}\n"
            "print(sorted({*cctsim.__all__, *layers} - set(dir(cctsim))))\n"
            "print([getattr(cctsim, layer).__name__ for layer in layers])\n"
            "print(cctsim.zeno.simulate_cct is cctsim.simulate_cct, 'simulate_cct' in vars(cctsim))\n"
        )
        assert _fresh(code).splitlines() == [
            "[]",
            str([f"cctsim.{layer}" for layer in LAYERS]),
            "True True",
        ]


def _benchmark_closed_forms() -> tuple[str, ...]:
    """The closed-form names perfbench's tracer wraps on ``zeno``, read from
    its module, which loads no cctsim module until it is installed."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.CLOSED_FORMS


class TestZenoReExports:
    """perfbench reaches the closed forms through ``zeno``, where they no
    longer live, so the names it reads there are pinned."""

    def test_closed_forms_are_the_stages_objects(self):
        for name in ("CycleConfig", *_benchmark_closed_forms()):
            assert getattr(zeno, name) is getattr(stages, name), name

    def test_samplers_are_zeno_objects(self):
        for name in ("simulate_cct", "gate_statistics", "simulate_qz", "simulate_cqz", "AbsorberModel"):
            assert getattr(zeno, name).__module__ == "cctsim.zeno", name


# The cctsim submodules each entry point loads.  cli loads the dense run
# (hilbert, gates, protocol) only when a run or a campaign needs it, and the
# samplers (zeno) only for a campaign; only verify imports the checklist.
LOADS = {
    "cctsim": [],
    "cctsim.inputs": ["inputs"],
    "cctsim.hilbert": ["hilbert", "inputs"],
    "cctsim.stages": ["inputs", "stages"],
    "cctsim.protocol": ["gates", "hilbert", "inputs", "protocol"],
    "cctsim.zeno": ["gates", "hilbert", "inputs", "protocol", "stages", "zeno"],
    "cctsim.cli": ["cli", "inputs", "stages"],
    "cctsim.checks": ["checks", "gates", "hilbert", "inputs", "protocol", "stages", "zeno"],
}

# The cctsim submodules reading one public name leaves loaded, one name per
# home layer: that layer and its own imports.
NAME_LOADS = {
    "BellInput": ["inputs"],
    "fidelity": ["hilbert", "inputs"],
    "CycleConfig": ["inputs", "stages"],
    "run_general": ["gates", "hilbert", "inputs", "protocol"],
    "simulate_cct": ["gates", "hilbert", "inputs", "protocol", "stages", "zeno"],
}

# The cctsim submodules a whole subcommand leaves loaded, on examples.json.  A
# sweep evaluates closed forms only; run executes the dense run, and
# montecarlo samples it too.
DENSE = ["cli", "gates", "hilbert", "inputs", "protocol", "stages"]
COMMAND_LOADS = {
    "sweep": (["sweep", "--axis", "M", "--values", "5"], ["cli", "inputs", "stages"]),
    "run": (["run"], DENSE),
    "montecarlo": (["montecarlo", "--trials", "100"], [*DENSE, "zeno"]),
}


def _loaded(names) -> str:
    return f"{[f'cctsim.{name}' for name in names]}\n"


class TestLayering:
    @pytest.mark.parametrize("entry", LOADS)
    def test_each_entry_point_loads_only_its_layers(self, entry):
        code = f"import sys, {entry}; print(sorted(m for m in sys.modules if m.startswith('cctsim.')))"
        assert _fresh(code) == _loaded(LOADS[entry])

    @pytest.mark.parametrize("name", NAME_LOADS)
    def test_each_public_name_loads_only_its_home_layer(self, name):
        code = f"import sys, cctsim; cctsim.{name}; print(sorted(m for m in sys.modules if m.startswith('cctsim.')))"
        assert _fresh(code) == _loaded(NAME_LOADS[name])

    @pytest.mark.parametrize("command", COMMAND_LOADS)
    def test_each_subcommand_loads_only_the_layers_it_runs(self, command):
        # The imports at the entry point do not show a lazy import that a
        # subcommand's own path reaches; a whole run does.
        flags, loaded = COMMAND_LOADS[command]
        argv = [*flags, "--config", str(ROOT / "examples.json")]
        code = (
            "import contextlib, io, sys, cctsim.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cctsim.cli.main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('cctsim.')))\n"
        )
        assert _fresh(code) == _loaded(loaded)
