"""How far the outputs of a benchmark workload move between two checkouts.

    python3 tools/output_moves.py --base ../parent --head . --workload optimize --seed 3

Every distinct operation of the workload (read from this checkout's
perfbench/workloads.py) runs once in each checkout, in a subprocess that
imports tmlab from that checkout's src/, with the flags the benchmark passes
(see tools/output_digest.py). The JSON outputs are then compared number by
number. A column is a command and a path into its output with list indices
dropped; a table's column is its name, and a number in a table comment of
the form key=value is a column named by the key. The echoed config is left
out. For each column the tool prints the largest relative move
|a - b| / max(|a|, |b|) over every operation and row, with the operation
where it happens, and the largest absolute move |a - b|, the one to read for
columns that are themselves rounding-level errors. It lists the operations
whose exit code or output shape differ.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile

_HERE = os.path.dirname(os.path.abspath(__file__))
_COMMENT_NUMBER = re.compile(r"(\w+)=([-+0-9.eE]+|inf|nan)$")


def _load_digest():
    spec = importlib.util.spec_from_file_location(
        "output_digest", os.path.join(_HERE, "output_digest.py"))
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def collect(root, workload, seed, classes=None):
    """[record of run_op] of the workload's distinct operations, run in root."""
    cmd = [sys.executable, os.path.abspath(__file__), "--collect", root,
           "--workload", workload, "--seed", str(seed)]
    if classes:
        cmd += ["--classes", ",".join(classes)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, env=env)
    return [json.loads(line) for line in out.stdout.splitlines()]


def _collect_here(root, workload, seed, classes):
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import tmlab.cli

    if not os.path.abspath(tmlab.__file__).startswith(os.path.join(src, "")):
        sys.exit(f"output_moves: tmlab was imported from {tmlab.__file__}")
    digest = _load_digest()
    with tempfile.TemporaryDirectory() as tmpdir:
        ops = digest.distinct(digest.load_workloads().build(workload, tmpdir))
        for op in ops:
            if classes is None or op.cls in classes:
                print(json.dumps(digest.run_op(tmlab.cli.run, op, seed, tmpdir)))


def _leaves(obj, path):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for item in obj:
            yield from _leaves(item, path)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path, float(obj)


def columns(text):
    """[(column, number)] of one output, in output order."""
    data = json.loads(text)
    if {"columns", "rows", "comments"} <= set(data):  # a ScanTable
        out = []
        for line in data["comments"]:
            for word in line.split():
                match = _COMMENT_NUMBER.match(word)
                if match:
                    out.append((match.group(1), float(match.group(2))))
        for row in data["rows"]:
            out += [(name, float(v)) for name, v in zip(data["columns"], row)
                    if isinstance(v, (int, float)) and not isinstance(v, bool)]
        return out
    return list(_leaves({k: v for k, v in data.items()
                         if k not in ("config", "tool")}, ""))


def relative_move(a, b):
    if a == b:
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def moves(base, head):
    """({(command, column): (relative move, op, absolute move)}, [(op, why)]).

    The moves are the largest of the column; the list names the operations
    that differ in exit code or output shape.
    """
    largest = {}
    differ = []
    head_by_op = {r["op"]: r for r in head}
    for old in base:
        new = head_by_op.get(old["op"])
        if new is None:
            differ.append((old["op"], "missing from head"))
            continue
        if old["exit"] != new["exit"]:
            differ.append((old["op"], f"exit {old['exit']!r} -> {new['exit']!r}"))
        if old["text"] is None or new["text"] is None:
            continue
        a, b = columns(old["text"]), columns(new["text"])
        if [k for k, _ in a] != [k for k, _ in b]:
            differ.append((old["op"], "output shape changed"))
            continue
        command = old["op"].split()[0]
        for (name, x), (_, y) in zip(a, b):
            key = (command, name)
            move, op, gap = largest.get(key, (0.0, None, 0.0))
            if op is None or relative_move(x, y) > move:
                move, op = relative_move(x, y), old["op"]
            largest[key] = (move, op, max(gap, abs(x - y) if x != y else 0.0))
    return largest, differ


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="the checkout compared against")
    parser.add_argument("--head", default=os.path.dirname(_HERE),
                        help="the checkout whose outputs moved (default: this one)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--classes", help="comma-separated timing classes to run")
    parser.add_argument("--collect", help=argparse.SUPPRESS)
    args = parser.parse_args()
    classes = args.classes.split(",") if args.classes else None
    if args.collect:
        _collect_here(args.collect, args.workload, args.seed, classes)
        return
    if not args.base:
        parser.error("--base is required")
    base = collect(args.base, args.workload, args.seed, classes)
    head = collect(args.head, args.workload, args.seed, classes)
    largest, differ = moves(base, head)
    same = sum(old["text"] == new["text"] for old, new in zip(base, head))
    print(f"# {args.workload} seed {args.seed}: {len(base)} operations, "
          f"{same} with identical output")
    print("# command\tcolumn\trelative\tabsolute\toperation")
    for (command, name), (move, op, gap) in sorted(largest.items()):
        print(f"{command}\t{name}\t{move:.3g}\t{gap:.3g}"
              + (f"\t{op}" if move else ""))
    for op, why in differ:
        print(f"DIFFERS\t{op}\t{why}")


if __name__ == "__main__":
    main()
