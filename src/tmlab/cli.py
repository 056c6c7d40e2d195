"""Batch experiment front door.

One JSON config document per run; command-line flags override file keys.
Every command validates its inputs before computing, echoes the resolved
config into the output header, and is byte-deterministic under a fixed seed.
Exit codes: 0 success (flagged rows allowed), 2 I/O or parse failure,
3 precondition or infeasible-parameter failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import namedtuple
from dataclasses import replace

import numpy as np

from . import __version__, analysis, moser, transform
from .core import ProblemParams, critical_alpha_beta
from .errors import (DegenerateInputError, DivergentWeightError, DomainError,
                     PreconditionError, ValidationError)
from .optimizer import OptimizerConfig, _is_int, maximize_A, maximize_B
from .profiles import (LiveSegments, RadialProfile, functional_log_batch,
                       grad_norm_pow, norms, random_profile,
                       weighted_lp_pow_batch)
from .report import ScanTable


class ConfigError(Exception):
    """Structural problem with the config document or flags."""


def _is_number(value) -> bool:
    # no key takes a bool; an int is a number if it converts to a float
    return isinstance(value, float) or (_is_int(value)
                                        and abs(value) <= sys.float_info.max)


# each kind's name, its test of a config value and its flag's keywords; a
# tuple kind is the tuple of allowed values, which its flag takes as choices
_KINDS = {
    int: ("an integer", _is_int, {"type": int}),
    float: ("a number", _is_number, {"type": float}),
    str: ("a string", lambda v: isinstance(v, str), {}),
    dict: ("a JSON object", lambda v: isinstance(v, dict), {}),
    list: ("a non-empty list of numbers",
           lambda v: isinstance(v, list) and v != [] and all(map(_is_number, v)),
           {"type": lambda s: [float(x) for x in s.split(",")]}),
}

# a key's kind, least value, the commands with a --flag for it (None: every
# command), whether JSON null means the key is not set, and its flag's help
_Key = namedtuple("_Key", "kind least flag_on null_unsets help",
                  defaults=(None, None, False, None))

# every config key, in the order of the flags in each command's help
_KEYS = {
    "dim": _Key(int),
    "alpha": _Key(float, null_unsets=True),
    "alpha_ratio": _Key(float, null_unsets=True, help="alpha as a fraction "
                        "of the critical coefficient"),
    "beta": _Key(float),
    "gamma": _Key(float),
    "seed": _Key(int, 0),
    "jobs": _Key(int, 1, help="accepted and echoed, no effect: the multistart "
                 "legs always run in lock step in one process"),
    "output": _Key(str, null_unsets=True, help="write here instead of stdout"),
    "format": _Key(("csv", "json")),
    "profile": _Key(str, None, ("eval", "orbit"), True, "profile JSON file"),
    "moser_index": _Key(int, None, ("eval", "orbit"), True,
                        "use the n-th normalized concentrating element"),
    "mode": _Key(("A", "B"), None, ("optimize",)),
    "n_min": _Key(int, 1, ("moser",)),
    "n_max": _Key(int, 1, ("moser",)),
    "alpha_count": _Key(int, 1, ("relation", "asymptotic"), True),
    "alpha_ratios": _Key(list, None, ("relation", "asymptotic"), True),
    "count": _Key(int, 1, ("transform-check",)),
    "optimizer": _Key(dict, None, ()),
}


# the commands that write one JSON document: format json, and only json
_JSON_ONLY = ("eval", "optimize", "orbit")


def _kind(kind) -> tuple:
    return _KINDS.get(kind) or (" or ".join(kind), kind.__contains__,
                                {"choices": kind})


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = data.keys() - _KEYS.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return data


def _resolve(args: argparse.Namespace) -> dict:
    cfg = _load_config_file(args.config) if args.config else {}
    # each flag overrides the config key of the same name
    for key in _KEYS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    json_only = args.command in _JSON_ONLY
    cfg = {"seed": 0, "format": "json" if json_only else "csv", "jobs": 1, **cfg}
    # every value checked once, before any computation
    for key, val in cfg.items():
        kind, least, _, null_unsets, _ = _KEYS[key]
        if key == "format" and json_only:
            kind = ("json",)
        name, ok, _ = _kind(kind)
        if not (val is None and null_unsets
                or ok(val) and (least is None or val >= least)):
            at_least = "" if least is None else f" >= {least}"
            raise ConfigError(f"{key} must be {name}{at_least}, got {val!r}")
    return cfg


def _params_from(cfg: dict) -> ProblemParams:
    missing = [k for k in ("dim", "beta", "gamma") if k not in cfg]
    if missing:
        raise ConfigError(f"missing required parameter keys: {missing}")
    probe = ProblemParams(dim=cfg["dim"], alpha=1.0, beta=cfg["beta"],
                          gamma=cfg["gamma"])
    if cfg.get("alpha") is not None:
        alpha = cfg["alpha"]
    elif cfg.get("alpha_ratio") is not None:
        alpha = cfg["alpha_ratio"] * critical_alpha_beta(probe)
    else:
        raise ConfigError("one of alpha / alpha_ratio is required")
    return replace(probe, alpha=alpha)


def _optimizer_config(cfg: dict) -> OptimizerConfig:
    return OptimizerConfig.from_dict({"seed": cfg["seed"],
                                      **cfg.get("optimizer", {})})


def _echo(cfg: dict) -> dict:
    # the destination path is not semantic config: keep provenance echoes
    # byte-identical across reruns that only differ in where they write
    return {k: v for k, v in cfg.items() if k != "output"}


def _emit_text(text: str, cfg: dict) -> None:
    out = cfg.get("output")
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(table: ScanTable, cfg: dict) -> None:
    echo = json.dumps(_echo(cfg), sort_keys=True, separators=(",", ":"))
    table.comments.insert(0, f"config: {echo}")
    table.comments.insert(0, f"tmlab {__version__}")
    _emit_text(table.to_csv() if cfg["format"] == "csv" else table.to_json(), cfg)


def _emit_json(payload: dict, cfg: dict) -> None:
    payload = {"tool": f"tmlab {__version__}", "config": _echo(cfg), **payload}
    _emit_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", cfg)


def _load_profile(cfg: dict, params: ProblemParams) -> RadialProfile:
    if cfg.get("profile"):
        path = cfg["profile"]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read profile {path}: {exc}") from exc
        try:
            return RadialProfile.from_json(text)
        except (ValidationError, json.JSONDecodeError, TypeError) as exc:
            raise ConfigError(f"malformed profile {path}: {exc}") from exc
    if cfg.get("moser_index") is not None:
        return moser.normalized(cfg["moser_index"], params).profile
    raise ConfigError("one of profile / moser_index is required")


def cmd_eval(cfg: dict) -> int:
    params = _params_from(cfg)
    profile = _load_profile(cfg, params)
    live = LiveSegments.of([profile])  # one table for the weight and J
    g = grad_norm_pow(profile, params)
    (w,) = weighted_lp_pow_batch(live, params.dim, params.gamma, params)
    (lv,) = functional_log_batch(live, params)
    _emit_json({
        "norms": {"grad_pow": g, "weight_pow": w, "full_pow": g + w},
        "functional": {"value": lv.value if not lv.saturated else None,
                       "log": lv.log, "saturated": lv.saturated},
        "profile_nodes": profile.num_nodes,
    }, cfg)
    return 0


def cmd_optimize(cfg: dict) -> int:
    params = _params_from(cfg)
    if "mode" not in cfg:
        raise ConfigError("missing required key: mode")
    maximize = maximize_A if cfg["mode"] == "A" else maximize_B
    result = maximize(params, _optimizer_config(cfg))
    _emit_json({"result": result.to_dict()}, cfg)
    return 0


def cmd_moser(cfg: dict) -> int:
    params = _params_from(cfg)
    n_min, n_max = cfg.get("n_min", 1), cfg.get("n_max", 50)
    if n_min > n_max:
        raise ConfigError(f"need n_min <= n_max, got {n_min} > {n_max}")
    _emit_table(moser.family_table(params, n_min, n_max), cfg)
    return 0


def _alpha_grid(cfg: dict, params: ProblemParams, default_ratios) -> list:
    crit = critical_alpha_beta(params)
    if cfg.get("alpha_ratios") is not None:
        ratios = cfg["alpha_ratios"]
    elif cfg.get("alpha_count") is not None:
        ratios = np.linspace(0.1, 0.95, cfg["alpha_count"])
    else:
        ratios = default_ratios
    return [r * crit for r in ratios]


def cmd_relation(cfg: dict) -> int:
    params = _params_from(cfg)
    grid = _alpha_grid(cfg, params, np.linspace(0.1, 0.95, 16))
    scan = analysis.relation_scan(params, grid, _optimizer_config(cfg))
    if cfg["format"] == "json":
        _emit_json({
            "rows": [row.__dict__ for row in scan.rows],
            "summary": {"sup_product": scan.sup_product,
                        "b_estimate": scan.b_result.value,
                        "gap": scan.gap,
                        "b_converged": scan.b_result.converged},
        }, cfg)
    else:
        _emit_table(scan.table(), cfg)
    return 0


def cmd_asymptotic(cfg: dict) -> int:
    params = _params_from(cfg)
    grid = _alpha_grid(cfg, params, (0.9, 0.99, 0.999))
    _emit_table(moser.asymptotic_lower_scan(params, grid), cfg)
    return 0


def cmd_orbit(cfg: dict) -> int:
    params = _params_from(cfg)
    profile = _load_profile(cfg, params)
    rep = norms(profile, params)
    if rep.full_pow <= 0:
        raise DegenerateInputError("cannot run the orbit on the zero profile")
    profile = profile.scaled(rep.full_pow ** (-1.0 / params.dim))
    report = analysis.orbit_derivative(profile, params.alpha, params)
    _emit_json({"orbit": report.to_dict()}, cfg)
    return 0


def cmd_transform_check(cfg: dict) -> int:
    params = _params_from(cfg)
    rng = np.random.default_rng(cfg["seed"])
    spec = transform.TransformSpec.from_params(params)
    table = ScanTable(
        columns=("index", "grad_rel_err", "weight_map_rel_err",
                 "identity_residual", "roundtrip_rel_err"),
        comments=["radial change-of-functions checks on seeded random profiles"])
    n = params.dim
    us = [random_profile(rng) for _ in range(cfg.get("count", 20))]
    vs = [transform.push_profile(u, spec) for u in us]
    w_us = weighted_lp_pow_batch(us, n, params.gamma, params)
    w_vs = weighted_lp_pow_batch(vs, n, 0.0, params)
    resids = transform.verify_integral_identity_batch(us, vs, params)
    for i, (u, v, w_u, w_v, resid) in enumerate(zip(us, vs, w_us, w_vs, resids)):
        g_u, g_v = grad_norm_pow(u, params), grad_norm_pow(v, params)
        grad_err = abs(g_u - g_v) / max(g_u, 1e-300)
        weight_err = abs(w_u - w_v) / max(w_u, 1e-300)
        back = transform.pull_profile(v, spec)
        rt = max(float(np.max(np.abs(back.radii - u.radii) / u.radii)),
                 float(np.max(np.abs(back.values - u.values)
                              / np.maximum(u.values, 1e-300))))
        table.append(i, grad_err, weight_err, resid, rt)
    _emit_table(table, cfg)
    return 0


_HANDLERS = {
    "eval": cmd_eval,
    "optimize": cmd_optimize,
    "moser": cmd_moser,
    "relation": cmd_relation,
    "asymptotic": cmd_asymptotic,
    "orbit": cmd_orbit,
    "transform-check": cmd_transform_check,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on first use and reused: parse_args keeps no state between calls
    parser = argparse.ArgumentParser(
        prog="tmlab",
        description="weighted exponential-functional laboratory on radial profiles")
    parser.add_argument("--version", action="version",
                        version=f"tmlab {__version__}")
    sub = parser.add_subparsers(dest="command")
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config document")
        for key, spec in _KEYS.items():
            if spec.flag_on is None or name in spec.flag_on:
                p.add_argument("--" + key.replace("_", "-"), dest=key,
                               help=spec.help, **_kind(spec.kind)[2])
    return parser


def run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        cfg = _resolve(args)
        return _HANDLERS[args.command](cfg)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PreconditionError, DegenerateInputError,
            DivergentWeightError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
