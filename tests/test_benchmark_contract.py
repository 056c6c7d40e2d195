"""The benchmark's contract with tmlab: the functions perfbench/tracing.py traces.

perfbench/tracing.py rebinds every function named in its TARGETS dict, and a
traced benchmark run fails if one of them is gone.  These tests load that file
by path, without importing perfbench as a package, and change nothing in it.
"""

import importlib.util
import math
import pathlib
import sys

import numpy as np
import pytest

import tmlab.cli  # imports every module that TARGETS names

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_TRACING = _ROOT / "perfbench" / "tracing.py"
_DIGEST = _ROOT / "tools" / "output_digest.py"

# the traced functions that no operation of either workload calls: each
# reads 0 on its calls and self_s metrics whatever the code costs
UNCALLED = {
    "core.phi_derivative",
    "optimizer._dilation_polish", "optimizer._lbfgs_ascend",
    "profiles.functional_gradient", "profiles.norms_gradient",
    "quadrature.integrate_segments",
    "transform.pull_profile", "transform.push_profile",
    "transform.verify_integral_identity",
}


def _tmlab_bindings():
    """(module, attribute) -> id of the bound object, for every tmlab module."""
    return {(name, attr): id(val) for name, mod in sys.modules.items()
            if name == "tmlab" or name.startswith("tmlab.")
            for attr, val in vars(mod).items()}


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files beside the script
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("perfbench_tracing", _TRACING)


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
        u = tmlab.profiles.random_profile(np.random.default_rng(1))
        spec = tmlab.transform.TransformSpec(dim=3, gamma=0.5)
        tmlab.transform.pull_profile(tmlab.transform.push_profile(u, spec), spec)
    finally:
        uninstall()
    assert _tmlab_bindings() == before
    metrics = tracer.metrics()
    assert metrics["cli.run.calls"] == 1
    # transform-check pushes and pulls back its (count, m) node arrays with
    # push_nodes and pull_nodes: the one-profile maps are called only above
    assert metrics["transform.push_profile.calls"] == 1
    assert metrics["transform.pull_profile.calls"] == 1
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


def test_uncalled_targets(tracing, tmp_path):
    # every distinct operation of both workloads once, traced; a change that
    # stops (or starts) calling a traced function shows here first, since
    # its per-layer metrics then read 0 (or stop reading 0)
    digest = _load("output_digest", _DIGEST)
    workloads = digest.load_workloads()
    ops = digest.distinct(workloads.build("optimize", str(tmp_path))
                          + workloads.build("family", str(tmp_path)))
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        # looked up at call time, so the traced cli.run is the one called
        records = [digest.run_op(lambda argv: tmlab.cli.run(argv), op, 3,
                                 str(tmp_path)) for op in ops]
    finally:
        uninstall()
    assert len(ops) == 216
    assert [r["exit"] for r in records] == [0] * len(ops)
    metrics = tracer.metrics()
    assert metrics["cli.run.calls"] == len(ops)
    assert {name for name in tracing.function_names()
            if metrics[f"{name}.calls"] == 0} == UNCALLED
