"""spintip benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {dense_n10,small_batch,traced_init}
                             --seed N --seconds S --trace {0,1}

The run generates the workload's circuits and input states from the seed
under .perfbench_out/, then starts a fresh interpreter (perfbench/worker.py)
that runs them as a closed loop with one client. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run. The
last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed`` counts ops that raised, exited non-zero or failed their output
check; ``attempted`` is their base. Both count each op of the workload once,
however many passes the run made, so they are the same on every run of a
seed. ``correct`` is false when one of the benchmark's own invariants broke:
the golden report differs from tests/data/golden_report.json, an op's output
changed when it ran again, the traced outputs differ from the untraced ones,
or a tracing wrapper was left installed. Lines before the result give the
environment, the failed ratio with its base, and the latency tail (the
highest percentile with ten samples beyond it, over every run of every op)
with its sample count. Those two are printed but not result metrics: the
failed ratio is 0 on two of the three workloads, and the tail follows the
slow spells of a shared host rather than the program.

Host-time metrics of small_batch and traced_init, and ``setup_s``, are
scaled to a reference host speed: a fixed pure-Python loop (hostspeed.py) is
timed just before and just after every op and every set-up start, and each
time is converted to seconds on a host that runs that loop in
``hostspeed.REFERENCE_S``. That takes out most of the slow spells of a
shared host, which can slow a whole run by half. dense_n10's times are not
scaled (worker.py says why). An op's time is the median of its runs over
the run's passes, and ``setup_s`` is the median of the set-up starts. The
unscaled median latency and the host speed (reference loop time over
measured loop time) are printed in ``info``. ``sim_time_s`` is simulated
seconds of the modelled machine and is exact for a seed.
``engine.pulse.bytes_computed`` is the bytes of the state each pulse reads
and writes, computed from array sizes; it is not a measured bandwidth.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed  # perfbench/ is sys.path[0] when run as a script
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: setup_s samples: fresh interpreters, half before and half after the worker so that they cover
#: the whole run, each after one untimed warm-up start and scaled like the worker's op times.
SETUP_SAMPLES = 24
SETUP_PROBE = "import spintip\nspintip.MachineConfig().validate()\nprint('ready', flush=True)\n"
#: A run must finish well inside the 180 s limit.
WORKER_TIMEOUT_S = 170
#: Printed beside a metric's value.
NOTES = {
    "sim_time_s": "simulated seconds of the modelled machine, one pass over the op set",
    "engine.pulse.bytes_computed": "state bytes read + written per pass, computed from array "
    "sizes; not a measured bandwidth",
}


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_start(env):
    """Host seconds for a fresh interpreter to import spintip and validate a default config."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_PROBE], stdout=subprocess.PIPE,
                          env=env, cwd=ROOT, text=True) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
        code = probe.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {code}")
    return elapsed


def setup_samples(env, count):
    """``count`` set-up times, each scaled by the loop times just before and after it."""
    setup_start(env)
    samples = []
    before = hostspeed.loop_seconds()
    for _ in range(count):
        elapsed = setup_start(env)
        after = hostspeed.loop_seconds()
        samples.append(hostspeed.scaled(elapsed, before, after))
        before = after
    return samples


def main(argv=None):
    parser = argparse.ArgumentParser(description="spintip benchmark (one run)")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spintip" / "__init__.py").is_file():
        print(f"error: no spintip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Only the latest run's files are kept: traced runs write tens of MB of spans.
    if OUT.exists():
        shutil.rmtree(OUT)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl.generate(args.workload, args.seed, run_dir)
    env = child_env()

    setup = [] if args.trace else setup_samples(env, SETUP_SAMPLES // 2)
    command = [sys.executable, str(HERE / "worker.py"), str(run_dir),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    completed = subprocess.run(command, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if completed.returncode != 0:
        print(f"error: worker exited {completed.returncode}", file=sys.stderr)
        return 1
    result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    metrics = dict(result["metrics"])
    if not args.trace:
        setup += setup_samples(env, SETUP_SAMPLES - len(setup))
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}

    info = result["info"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print("checks " + json.dumps(result["checks"], sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_ratio {failed / attempted!r} ratio "
          f"({failed} failed of {attempted} attempted ops; printed, not gated)")
    for reason, count in sorted(result["failures"].items()):
        print(f"  failure x{count}: {reason}")
    if "latency_tail_s" in info:
        print(f"latency_tail_s {info['latency_tail_s']!r} s (p{info['latency_tail_percentile']:.3f}"
              f" of {info['latency_samples']} samples; printed, not gated)")
    for name, metric in metrics.items():
        note = f"  ({NOTES[name]})" if name in NOTES else ""
        print(f"{name} {metric['value']!r} {metric['unit']}{note}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
