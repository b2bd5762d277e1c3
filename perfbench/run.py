"""The lifetaint benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --trace 1             # every workload, per-layer
    python3 perfbench/run.py --workload wide --seed 7 --seconds 30 --trace 0

Each workload runs in its own child process (perfbench/worker.py), one after
another.  Set-up time is measured in separate fresh processes
(perfbench/probe_setup.py).  Inputs are made from --seed; the analyzer only
receives the .app files.  Every metric is printed by name with its unit; the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See perfbench/README.md.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, BENCH)
import gen  # noqa: E402
import hostspeed  # noqa: E402

WORKLOADS = ("corpus", "wide", "deep")
CORPUS_M_MAX = 3
CORPUS_JOBS = 2
SETUP_PROBES = 11
TIME_LIMIT = 170.0          # seconds for the whole command, per workload
PERCENTILE_SAMPLES = 100    # passes needed before p90 is reported
LAYER_TIMES = ("ir.load_s", "lifecycle.derive_s", "sequences.plan_s", "analysis.self_s",
               "cfg.s", "symbols.snapshot_s", "symbols.merge_s", "detectors.dedup_s",
               "detectors.render_s")


def prepare(workload, seed, workdir):
    """Write the workload's inputs and batch description under `workdir`;
    returns the batch description's path."""
    outdir = os.path.join(workdir, "inputs", workload)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    jobs_cap = os.cpu_count() or 1
    if workload == "corpus":
        apps = sorted(glob.glob(os.path.join(ROOT, "corpus", "*.app")))
        with open(os.path.join(BENCH, "expected_corpus.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
        m_max, jobs = CORPUS_M_MAX, CORPUS_JOBS
    else:
        apps = gen.write_family(workload, seed, outdir)
        with open(os.path.join(outdir, "expected.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
        m_max, jobs = gen.FAMILIES[workload].m_max, 1
    batch = {
        "workload": workload,
        "apps": apps,
        "app_ids": [os.path.splitext(os.path.basename(p))[0] for p in apps],
        "expected": expected,
        "m_max": m_max,
        "jobs": min(jobs, jobs_cap),
    }
    path = os.path.join(outdir, "batch.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(batch, fh, indent=1)
    return path


def run_child(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting %s" % os.path.basename(args[0]))
    proc = subprocess.run([sys.executable] + args, stdout=subprocess.PIPE,
                          text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with status %d" % (os.path.basename(args[0]),
                                                         proc.returncode))
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(deadline):
    """Median set-up time of fresh processes, in reference seconds."""
    probe = os.path.join(BENCH, "probe_setup.py")
    times, tasks = [], [hostspeed.task_seconds()]
    for _ in range(SETUP_PROBES):
        times.append(float(run_child([probe], deadline)))
        tasks.append(hostspeed.task_seconds())
    return statistics.median(hostspeed.normalize(times, tasks))


def run_workload(workload, seed, seconds, trace):
    """Returns (result dict as printed, human-readable lines)."""
    deadline = time.monotonic() + TIME_LIMIT
    batch = prepare(workload, seed, WORK)
    setup = None if trace else setup_seconds(deadline)
    spans = os.path.join(WORK, "spans-%s" % workload)
    raw = json.loads(run_child([os.path.join(BENCH, "worker.py"), batch, str(seconds),
                                str(trace), spans], deadline))
    wall = raw["pass_s"]
    times = hostspeed.normalize(wall, raw["task_s"])
    stable = len(raw["digests"]) == 1
    lines = ["%s: %d passes, %d apps attempted, %d failed, failed_share %.4f, "
             "report digest %s" % (workload, len(times), raw["attempted"], raw["failed"],
                                   raw["failed"] / raw["attempted"],
                                   raw["digests"][0] if stable else
                                   "UNSTABLE %s" % raw["digests"])]
    lines += ["  " + p for p in raw["problems"]]
    if trace:
        metrics = raw["layers"]
        lines.append("  %d spans written to %s.bin" % (raw["spans"], spans))
        layer_s = {n: metrics[n]["value"] for n in LAYER_TIMES}
        total = sum(layer_s.values())
        lines.append("  share of layer self time: " + ", ".join(
            "%s %.0f%%" % (n, 100 * v / total) for n, v in layer_s.items() if v >= 0.005 * total))
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "pass_s.p50": {"value": statistics.median(times), "unit": "s"},
            # every pass analyzes the same sequences, so this is their count
            # over the median pass, which is steadier than the mean
            "sequences_per_s": {"value": raw["sequences"] / len(times) / statistics.median(times),
                                "unit": "seq/s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
        lines.append("  wall clock: pass_s.p50 %.6f s" % statistics.median(wall))
        if len(times) >= PERCENTILE_SAMPLES:
            p90 = statistics.quantiles(times, n=10)[-1]
            lines.append("  pass_s.p90 %.6f s" % p90)
    for name, m in metrics.items():
        lines.append("  %-34s %14.6f %s" % (name, m["value"], m["unit"]))
    result = {
        "correct": raw["failed"] == 0 and stable,
        "attempted": raw["attempted"],
        "failed": raw["failed"] if stable else max(raw["failed"], 1),
        "metrics": metrics,
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "lifetaint")) or not os.path.isdir(
            os.path.join(ROOT, "corpus")):
        print("run.py: src/lifetaint and corpus/ not found under %s" % ROOT, file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for w in workloads:
            results[w], lines = run_workload(w, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, name): m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
