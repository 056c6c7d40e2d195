"""One line per distinct operation of a benchmark workload: how it ended.

    python3 tools/output_digest.py --workload optimize --seed 3 > optimize-3.txt

Run from the root of a checkout; tmlab is imported from that checkout's src/.
The workload is read from perfbench/workloads.py, loaded by path and left
unchanged. Every distinct operation runs once, in-process through
tmlab.cli.run, with the flags the benchmark passes (--seed, --jobs 1,
--format json, --output <file>). Each line is a JSON object with the
command line, the exit code, the sha256 of the output file, the text written
to stderr and every warning raised. Two checkouts give the same outputs
when their files are the same: diff them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import traceback
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_WORKLOADS = os.path.join(ROOT, "perfbench", "workloads.py")
_TMP = "<tmp>"


def load_workloads():
    """perfbench/workloads.py as a module, without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def distinct(ops):
    """The operations in first-run order, each (argv, seed) once."""
    seen = set()
    out = []
    for op in ops:
        key = (op.argv, op.seed)
        if key not in seen:
            seen.add(key)
            out.append(op)
    return out


def run_op(run, op, seed, tmpdir):
    """Run one operation through run(argv): its command line, exit and output.

    Returns a dict with the command line ("op", the temporary directory
    written as <tmp>), the exit code (or the exception text), the output
    file's text (None when none was written), stderr and every warning.
    """
    path = os.path.join(tmpdir, "output.json")
    argv = list(op.argv) + ["--seed", str(seed if op.seed is None else op.seed),
                            "--jobs", "1", "--format", "json", "--output", path]
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = run(argv)
        except Exception as exc:  # the operation failed; the run goes on
            traceback.print_exc(file=sys.__stderr__)
            code = f"{type(exc).__name__}: {exc}"
    text = None
    if os.path.exists(path):
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        os.remove(path)
    return {"op": " ".join(argv[:-1] + [_TMP]).replace(tmpdir, _TMP),
            "exit": code, "text": text, "stderr": stderr.getvalue(),
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught]}


def digest(run, op, seed, tmpdir):
    """The record of one operation: run_op with the output's sha256."""
    record = run_op(run, op, seed, tmpdir)
    text = record.pop("text")
    record["sha256"] = (None if text is None
                        else hashlib.sha256(text.encode("utf-8")).hexdigest())
    return record


def digest_lines(workload, seed, select=None):
    """The JSON lines of a workload's distinct operations (those select keeps)."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import tmlab.cli

    workloads = load_workloads()
    with tempfile.TemporaryDirectory() as tmpdir:
        ops = distinct(workloads.build(workload, tmpdir))
        ops = [op for op in ops if select is None or select(op)]
        return [json.dumps(digest(tmlab.cli.run, op, seed, tmpdir), sort_keys=True)
                for op in ops]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    # as in perfbench/run.py: tmlab's arrays are small, keep numpy's BLAS to
    # one thread (set before tmlab imports numpy)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    for line in digest_lines(args.workload, args.seed):
        print(line)


if __name__ == "__main__":
    main()
