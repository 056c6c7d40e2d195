"""The benchmark's workloads: sequences of tmlab CLI commands.

Every command is one operation. It carries a timing class, which names the
end-to-end metric its time counts towards, and the parameters the output
checks need. Each workload has a main part, which is what it is chosen to
load, and a probe: small runs of each command class the main part lacks,
so that every end-to-end metric is measured on every workload.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

# (dim, beta, gamma): the parameter matrix of the test suite.
MATRIX = [
    (2, 0.0, 0.0),
    (2, 1.0, 0.5),
    (2, 1.0, 1.0),
    (3, 1.0, 0.5),
    (3, 0.0, -1.0),
    (4, 2.0, 1.0),
]

# Configs of the main parts. A round must be a few seconds long, so that a
# run repeats it often enough for the median of each operation's times to be
# steady (see run.py); the default config's 15 s and 20 s optimize commands
# are not.
OPTIMIZE_OPTIMIZER = {"max_iters": 10, "polish_rounds": 1, "random_starts": 0}
RELATION_OPTIMIZER = {"node_count": 33, "moser_starts": [3], "random_starts": 1,
                      "max_iters": 10, "polish_rounds": 1}
RELATION_POINTS = 4
# Small configs of the optimizer and relation probes.
OPTIMIZE_PROBE_OPTIMIZER = {"node_count": 33, "moser_starts": [5],
                            "random_starts": 0, "max_iters": 10,
                            "polish_rounds": 1}
RELATION_PROBE_OPTIMIZER = {"node_count": 33, "moser_starts": [3],
                            "random_starts": 0, "max_iters": 3,
                            "dilation_polish": False}

# Copies of the probe in each round, spread over the main part.
PROBE_COPIES = 3

# The moser run that fails today: e^(-n/(N-beta)) underflows for n >= 75.
UNDERFLOW_CELL = (2, 1.9, 0.0)

# Timing class -> end-to-end metric. Classes not listed count in wall_s only.
CLASS_METRIC = {
    "optimize_A": "optimize_A_s",
    "optimize_B": "optimize_B_s",
    "moser": "moser_s",
    "transform_check": "transform_check_s",
    "eval": "eval_sweep_s",
    "orbit": "orbit_s",
}


@dataclass(frozen=True)
class Op:
    cls: str
    argv: tuple
    meta: dict = field(default_factory=dict)
    seed: int | None = None  # fixed seed of a probe; None: the run's seed


def _cell_args(dim, beta, gamma, ratio):
    return ("--dim", str(dim), "--beta", repr(beta), "--gamma", repr(gamma),
            "--alpha-ratio", repr(ratio))


def _meta(dim, beta, gamma, ratio, **extra):
    return dict(dim=dim, beta=beta, gamma=gamma, ratio=ratio, **extra)


def _config_file(tmpdir, name, optimizer):
    path = os.path.join(tmpdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"optimizer": optimizer}, fh)
    return path


def _optimize(config_path):
    cfg = ("--config", config_path)
    return [Op("optimize_A", ("optimize", "--mode", "A") + cfg
               + _cell_args(2, 0.0, 0.0, 0.5), _meta(2, 0.0, 0.0, 0.5, mode="A")),
            Op("optimize_B", ("optimize", "--mode", "B") + cfg
               + _cell_args(2, 0.0, 0.0, 1.0), _meta(2, 0.0, 0.0, 1.0, mode="B"))]


def _relation(config_path, count):
    return [Op("relation", ("relation", "--config", config_path)
               + _cell_args(3, 1.0, 0.5, 0.5) + ("--alpha-count", str(count)),
               _meta(3, 1.0, 0.5, 0.5, points=count))]


def _moser(cell, ratio, n_max, cls="moser"):
    return Op(cls, ("moser",) + _cell_args(*cell, ratio) + ("--n-max", str(n_max)),
              _meta(*cell, ratio, n_max=n_max))


def _transform_check(cell, count, seed=None):
    return Op("transform_check", ("transform-check",) + _cell_args(*cell, 0.5)
              + ("--count", str(count)), _meta(*cell, 0.5, count=count), seed)


def _evals(cell, indices):
    return [Op("eval", ("eval",) + _cell_args(*cell, 1.0)
               + ("--moser-index", str(n)), _meta(*cell, 1.0, n=n))
            for n in indices]


def _orbits(weights, ratios, indices):
    return [Op("orbit", ("orbit",) + _cell_args(2, w, w, r)
               + ("--moser-index", str(n)), _meta(2, w, w, r, n=n))
            for w in weights for r in ratios for n in indices]


def _cells():
    """The family's main part: one group of commands per cell, then the
    failing moser run."""
    ratios = (0.9, 0.99, 0.999, 0.9999)
    orbits = _orbits((0.0, 0.5, 1.0), (0.3, 0.6), (1, 5, 10, 20))
    # the 24 orbit runs go 4 to a cell, spread like the other classes
    groups = [[_moser(cell, 0.5, 100), _transform_check(cell, 30),
               Op("asymptotic", ("asymptotic",) + _cell_args(*cell, 0.5)
                  + ("--alpha-ratios", ",".join(map(repr, ratios))),
                  _meta(*cell, 0.5, ratios=ratios))]
              + _evals(cell, range(25, 501, 25)) + orbits[4 * i:4 * (i + 1)]
              for i, cell in enumerate(MATRIX)]
    groups.append([_moser(UNDERFLOW_CELL, 0.5, 200, cls="moser_underflow")])
    return [op for group in groups for op in group]


def _family_probe():
    # transform-check draws its profiles from the seed, and the time of a few
    # dozen of them moves by 10% from seed to seed: the probe's are fixed
    cell = (2, 1.0, 0.5)
    return ([_moser(cell, 0.5, 200), _transform_check(cell, 25, seed=0)]
            + _evals(cell, range(1, 41))
            + _orbits((0.5,), (0.3, 0.6), (1, 2, 3, 4)))


def _spread(main, probe):
    """PROBE_COPIES copies of the probe, one after each part of the main ops.

    A probe metric is then a sum over copies run at different moments of the
    round: more work per round, and less weight on any one spell of the
    host, than one copy.
    """
    ops = []
    for k in range(PROBE_COPIES):
        ops += main[k * len(main) // PROBE_COPIES:(k + 1) * len(main) // PROBE_COPIES]
        ops += probe
    return ops


def build(workload: str, tmpdir: str):
    """The operations of one round of ``workload``; config files go to tmpdir."""
    def config(name, optimizer):
        return _config_file(tmpdir, name + ".json", optimizer)

    if workload == "optimize":
        return _spread(
            _optimize(config("optimize", OPTIMIZE_OPTIMIZER))
            + _relation(config("relation", RELATION_OPTIMIZER), RELATION_POINTS),
            _family_probe())
    if workload == "family":
        return _spread(
            _cells(),
            _optimize(config("optimize-probe", OPTIMIZE_PROBE_OPTIMIZER))
            + _relation(config("relation-probe", RELATION_PROBE_OPTIMIZER), 2))
    raise ValueError(f"unknown workload {workload!r}")
