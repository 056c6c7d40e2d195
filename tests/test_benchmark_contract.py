"""The benchmark's contract with tmlab: the functions perfbench/tracing.py traces.

perfbench/tracing.py rebinds every function named in its TARGETS dict, and a
traced benchmark run fails if one of them is gone.  These tests load that file
by path, without importing perfbench as a package, and change nothing in it.
"""

import importlib.util
import math
import pathlib
import sys

import pytest

import tmlab.cli  # imports every module that TARGETS names

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tmlab_bindings():
    """(module, attribute) -> id of the bound object, for every tmlab module."""
    return {(name, attr): id(val) for name, mod in sys.modules.items()
            if name == "tmlab" or name.startswith("tmlab.")
            for attr, val in vars(mod).items()}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files beside the script
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def test_every_target_resolves(tracing):
    for modname, fns in tracing.TARGETS.items():
        module = sys.modules[f"tmlab.{modname}"]
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"tmlab.{modname}.{fn}"
    # install() also wraps this one, which TARGETS does not name
    assert callable(getattr(sys.modules["tmlab.optimizer"], "_ascend", None))


def test_install_traces_and_uninstall_restores(tracing, tmp_path):
    # at N = 3, where J is integrated (at N = 2 it is a closed form)
    argv = ["transform-check", "--dim", "3", "--alpha-ratio", "0.5", "--beta",
            "1.0", "--gamma", "0.5", "--count", "3",
            "--output", str(tmp_path / "out.csv")]
    before = _tmlab_bindings()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        # looked up at call time, so the traced cli.run is the one called
        assert tmlab.cli.run(argv) == 0
    finally:
        uninstall()
    assert _tmlab_bindings() == before
    metrics = tracer.metrics()
    assert metrics["cli.run.calls"] == 1
    # each random profile is pushed once and pulled back once
    assert metrics["transform.push_profile.calls"] == 3
    assert metrics["transform.pull_profile.calls"] == 3
    # J at N = 3 comes from quadrature.segment_functional, one fixed pass
    # that TARGETS does not name: the adaptive integrator is never called
    assert metrics["quadrature.integrate_segments.calls"] == 0


def test_micro_runs(tracing):
    before = _tmlab_bindings()
    out = tracing.micro(reps=1)
    assert set(out) == set(tracing.MICRO)
    # micro() splits integrate_segments inside an N = 2 J, which is a closed
    # form without it: those two may read exactly 0
    split = {"micro.integrate_segments_setup_ms",
             "micro.integrate_segments_integrand_ms"}
    assert all(math.isfinite(v) and (v > 0.0 or (k in split and v == 0.0))
               for k, v in out.items())
    assert _tmlab_bindings() == before
