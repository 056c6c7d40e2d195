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


_ALLOWED_KEYS = {
    "dim", "alpha", "alpha_ratio", "beta", "gamma", "optimizer", "seed",
    "jobs", "output", "format", "mode", "profile", "moser_index", "n_min",
    "n_max", "alpha_ratios", "alpha_count", "count",
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(data) - _ALLOWED_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return data


_KIND_NAMES = {int: "an integer", float: "a number"}


def _convert(key: str, val, kind):
    """kind(val) for the config value of key; a refusal names the key.  An
    integer key takes an int and nothing else: int() would cut 3.9 to 3 and
    read true as 1.  No key takes a bool: float() would read true as 1.0."""
    try:
        if isinstance(val, bool) or kind is int and not _is_int(val):
            raise TypeError
        return kind(val)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(
            f"{key} must be {_KIND_NAMES[kind]}, got {val!r}") from exc


def _resolve(args: argparse.Namespace) -> dict:
    cfg = _load_config_file(args.config) if args.config else {}
    # each flag overrides the config key of the same name (optimizer has no flag)
    for key in sorted(_ALLOWED_KEYS):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg.setdefault("seed", 0)
    cfg.setdefault("format", "csv")
    cfg.setdefault("jobs", 1)
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg['format']!r}")
    if not _is_int(cfg["seed"]) or cfg["seed"] < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {cfg['seed']!r}")
    return cfg


def _params_from(cfg: dict) -> ProblemParams:
    missing = [k for k in ("dim", "beta", "gamma") if k not in cfg]
    if missing:
        raise ConfigError(f"missing required parameter keys: {missing}")
    dim = cfg["dim"]
    if not isinstance(dim, int):
        raise ConfigError(f"dim must be an integer, got {dim!r}")
    probe = ProblemParams(dim=dim, alpha=1.0,
                          beta=_convert("beta", cfg["beta"], float),
                          gamma=_convert("gamma", cfg["gamma"], float))
    if "alpha" in cfg and cfg["alpha"] is not None:
        alpha = _convert("alpha", cfg["alpha"], float)
    elif "alpha_ratio" in cfg and cfg["alpha_ratio"] is not None:
        ratio = _convert("alpha_ratio", cfg["alpha_ratio"], float)
        alpha = ratio * critical_alpha_beta(probe)
    else:
        raise ConfigError("one of alpha / alpha_ratio is required")
    return replace(probe, alpha=alpha)


def _optimizer_config(cfg: dict) -> OptimizerConfig:
    data = cfg.get("optimizer", {})
    if not isinstance(data, dict):
        raise ConfigError(f"optimizer must be a JSON object, got {data!r}")
    return OptimizerConfig.from_dict({"seed": cfg.get("seed", 0), **data})


def _echo(cfg: dict) -> str:
    # the destination path is not semantic config: keep provenance echoes
    # byte-identical across reruns that only differ in where they write
    semantic = {k: v for k, v in cfg.items() if k != "output"}
    return json.dumps(semantic, sort_keys=True, separators=(",", ":"))


def _emit_text(text: str, cfg: dict) -> None:
    out = cfg.get("output")
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(table: ScanTable, cfg: dict) -> None:
    table.comments.insert(0, f"config: {_echo(cfg)}")
    table.comments.insert(0, f"tmlab {__version__}")
    _emit_text(table.to_csv() if cfg["format"] == "csv" else table.to_json(), cfg)


def _emit_json(payload: dict, cfg: dict) -> None:
    semantic = {k: v for k, v in cfg.items() if k != "output"}
    payload = {"tool": f"tmlab {__version__}", "config": semantic, **payload}
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
        return moser.normalized(_convert("moser_index", cfg["moser_index"], int),
                                params).profile
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
    mode = cfg.get("mode")
    if mode not in ("A", "B"):
        raise ConfigError("mode must be A or B")
    opt = _optimizer_config(cfg)
    result = (maximize_A if mode == "A" else maximize_B)(params, opt)
    _emit_json({"result": result.to_dict()}, cfg)
    return 0


def cmd_moser(cfg: dict) -> int:
    params = _params_from(cfg)
    n_min = _convert("n_min", cfg.get("n_min", 1), int)
    n_max = _convert("n_max", cfg.get("n_max", 50), int)
    if not 1 <= n_min <= n_max:
        raise ConfigError("need 1 <= n_min <= n_max")
    table = ScanTable(
        columns=("n", "amplitude", "log_depth", "lam", "grad_pow",
                 "weight_closed_form", "weight_quadrature", "rel_err",
                 "plateau_lower_bound_log"),
        comments=["concentrating-family table",
                  "weight columns: Moser closed form vs segment closed form"])
    elems = [moser.build(n, params) for n in range(n_min, n_max + 1)]
    quadded = weighted_lp_pow_batch([e.profile for e in elems], params.dim,
                                    params.gamma, params)
    for elem, w in zip(elems, quadded):
        closed = elem.weight_pow
        rel = abs(closed - w) / max(closed, 1e-300)
        table.append(elem.index, elem.amplitude, elem.log_depth, elem.lam,
                     grad_norm_pow(elem.profile, params), closed, w, rel,
                     moser.plateau_lower_bound(elem.index, params, closed).log)
    _emit_table(table, cfg)
    return 0


def _alpha_grid(cfg: dict, params: ProblemParams, default_ratios) -> list:
    crit = critical_alpha_beta(params)
    if cfg.get("alpha_ratios") is not None:
        given = cfg["alpha_ratios"]
        if not isinstance(given, list):
            raise ConfigError(f"alpha_ratios must be a list, got {given!r}")
        ratios = [_convert("alpha_ratios", r, float) for r in given]
        if not ratios:
            raise ConfigError("alpha_ratios must not be empty")
    elif cfg.get("alpha_count") is not None:
        count = _convert("alpha_count", cfg["alpha_count"], int)
        if count < 1:
            raise ConfigError("alpha_count must be >= 1")
        ratios = list(np.linspace(0.1, 0.95, count))
    else:
        ratios = list(default_ratios)
    return [r * crit for r in ratios]


def cmd_relation(cfg: dict) -> int:
    params = _params_from(cfg)
    grid = _alpha_grid(cfg, params, np.linspace(0.1, 0.95, 16))
    # jobs is echoed and changes nothing, since every maximization runs its
    # legs in lock step in one process; a value below 1 is still refused
    jobs = _convert("jobs", cfg["jobs"], int)
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
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
    count = _convert("count", cfg.get("count", 20), int)
    if count < 1:
        raise ConfigError("count must be >= 1")
    rng = np.random.default_rng(cfg["seed"])  # an int >= 0: _resolve checks it
    spec = transform.TransformSpec.from_params(params)
    table = ScanTable(
        columns=("index", "grad_rel_err", "weight_map_rel_err",
                 "identity_residual", "roundtrip_rel_err"),
        comments=["radial change-of-functions checks on seeded random profiles"])
    n = params.dim
    us = [random_profile(rng) for _ in range(count)]
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
        p.add_argument("--dim", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument("--alpha-ratio", dest="alpha_ratio", type=float,
                       help="alpha as a fraction of the critical coefficient")
        p.add_argument("--beta", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--jobs", type=int,
                       help="accepted and echoed, no effect: the multistart "
                       "legs always run in lock step in one process")
        p.add_argument("--output", help="write here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"))
        if name in ("eval", "orbit"):
            p.add_argument("--profile", help="profile JSON file")
            p.add_argument("--moser-index", dest="moser_index", type=int,
                           help="use the n-th normalized concentrating element")
        if name == "optimize":
            p.add_argument("--mode", choices=("A", "B"))
        if name == "moser":
            p.add_argument("--n-min", dest="n_min", type=int)
            p.add_argument("--n-max", dest="n_max", type=int)
        if name in ("relation", "asymptotic"):
            p.add_argument("--alpha-count", dest="alpha_count", type=int)
            p.add_argument("--alpha-ratios", dest="alpha_ratios",
                           type=lambda s: [float(x) for x in s.split(",")])
        if name == "transform-check":
            p.add_argument("--count", type=int)
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PreconditionError, DegenerateInputError,
            DivergentWeightError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
