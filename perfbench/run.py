"""tmlab benchmark: one workload, timed end to end or traced per module.

    python3 perfbench/run.py --workload optimize --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; tmlab is imported from that checkout's src/.
Every operation is one tmlab CLI command, run in-process through
tmlab.cli.run with --jobs 1 and its output written to a temporary file. The
run repeats whole rounds of its workload until --seconds have passed (at
least one round), checks every output, and prints one JSON object as the
last line of standard output. --trace 0 reports the end-to-end metrics of
BENCHMARK.json: each operation's median time over the rounds, scaled to a
reference host speed (hostspeed.py); --trace 1 runs one round untraced and
one traced, and reports the per-layer metrics. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback

# tmlab's arrays are small; keep numpy's BLAS to the benchmark's one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def since_process_start():
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def import_tmlab():
    """Import tmlab from this checkout's src/, and refuse any other copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import tmlab.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import tmlab from {src}: {exc}")
    if not os.path.abspath(tmlab.__file__).startswith(os.path.join(src, "")):
        sys.exit(f"perfbench: tmlab was imported from {tmlab.__file__}, "
                 f"not from {src}")
    return tmlab.cli


def run_round(cli, ops, seed, tmpdir, host):
    """Run every operation once; returns (op, exit code, seconds, output) each.

    Between operations, ``host`` samples the host's speed.
    """
    path = os.path.join(tmpdir, "output.json")
    results = []
    for op in ops:
        argv = list(op.argv) + ["--seed", str(seed if op.seed is None else op.seed),
                                "--jobs", "1",
                                "--format", "json", "--output", path]
        t0 = time.perf_counter()
        try:
            code = cli.run(argv)
        except Exception:  # the operation failed; the run goes on
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - t0
        text = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(path)
        results.append((op, code, seconds, text if code == 0 else None))
        host.maybe_sample()
    return results


def typical(rounds, host):
    """The first round's results, each op timed by its median over the rounds
    at the reference host speed; the rounds' outputs are checked to be equal."""
    return [(op, code, host.scale(statistics.median(rnd[i][2] for rnd in rounds)),
             text)
            for i, (op, code, _, text) in enumerate(rounds[0])]


def round_metrics(results, class_metric):
    """End-to-end metrics of one round (values: None if their op failed)."""
    m = dict.fromkeys(class_metric.values(), 0.0)
    m["wall_s"] = sum(r[2] for r in results)
    m.update(sup_A=None, sup_B=None, relation_B=None, relation_sup_gA=None)
    for op, code, seconds, text in results:
        if op.cls in class_metric:
            m[class_metric[op.cls]] += seconds
        if text is None:
            continue
        if op.cls in ("optimize_A", "optimize_B"):
            m["sup_" + op.cls[-1]] = json.loads(text)["result"]["value"]
        elif op.cls == "relation":
            summary = json.loads(text)["summary"]
            m["relation_B"] = summary["b_estimate"]
            m["relation_sup_gA"] = summary["sup_product"]
    return m


def check_round(results, problems):
    """Run the output check of every operation that succeeded."""
    import checks

    for op, code, _, text in results:
        if text is None:
            continue
        try:
            checks.CHECKS[op.cls](op.meta, json.loads(text))
        except checks.CheckFailed as exc:
            problems.append(f"{' '.join(op.argv)}: {exc}")


def same_outputs(first, other, what, problems):
    for (op, code_a, _, text_a), (_, code_b, _, text_b) in zip(first, other):
        if (code_a, text_a) != (code_b, text_b):
            problems.append(f"{' '.join(op.argv)}: output differs {what}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    cli = import_tmlab()
    import hostspeed
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        ops = workloads.build(args.workload, tmpdir)
        setup_s = since_process_start()
        rounds = []
        problems = []
        host = hostspeed.HostSpeed()
        if args.trace:
            import tracing

            rounds.append(run_round(cli, ops, args.seed, tmpdir, host))
            micro = tracing.micro()
            tracer = tracing.Tracer()
            tracing.install(tracer)
            rounds.append(run_round(cli, ops, args.seed, tmpdir, host))
            same_outputs(rounds[0], rounds[1], "with tracing on", problems)
            walls = [sum(r[2] for r in rnd) for rnd in rounds]
            metrics = {**tracer.metrics(), **micro,
                       "trace.overhead_s": walls[1] - walls[0],
                       "host.ref_loop_ms": 1e3 * host.loop_s()}
            wanted = spec["per_layer"]
            tracer.save(os.path.join(
                OUT, f"trace-{args.workload}-seed{args.seed}.npz"))
        else:
            # whole rounds, the last one ending before --seconds if it can
            began = time.perf_counter()
            elapsed = round_s = 0.0
            while not rounds or elapsed + round_s <= args.seconds:
                rounds.append(run_round(cli, ops, args.seed, tmpdir, host))
                round_s = time.perf_counter() - began - elapsed
                elapsed += round_s
            for later in rounds[1:]:
                same_outputs(rounds[0], later, "between rounds", problems)
            metrics = {"setup_s": setup_s,
                       **round_metrics(typical(rounds, host), workloads.CLASS_METRIC)}
            for name, value in metrics.items():
                if value is None:
                    problems.append(f"{name}: the operation that reports it failed")
                    metrics[name] = 0.0
            wanted = spec["end_to_end"]
        check_round(rounds[0], problems)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    if set(metrics) != {m["name"] for m in wanted}:
        sys.exit("perfbench: measured metrics do not match BENCHMARK.json: "
                 f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    result = {
        "correct": not problems,
        "attempted": sum(len(r) for r in rounds),
        "failed": sum(1 for r in rounds for res in r if res[1] != 0),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    for line in problems[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
