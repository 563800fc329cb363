"""Benchmark of semiweyl's time to verdict.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs nothing built.  Each
run starts fresh single-threaded interpreters, one at a time:

- ``--trace 0``: five set-up probes (spawn, import, load the specs), then
  one worker that verifies the workload pass after pass for ``S`` seconds
  (at least one pass).  Prints the end-to-end metrics.  Their times are at
  a fixed reference host speed (see ``hostspeed.py``); the wall times are
  printed beside them.
- ``--trace 1``: one worker that times an untraced pass of the workload,
  a traced pass of every workload (a span around each check) and the
  per-layer microbenchmarks, all at the reference host speed.  Prints the
  per-layer metrics, each with the end-to-end metric it should move and on
  which workload.

``N`` is added to every spec's own ``[run] seed``.  Every emitted report is
checked against ``reference.json``.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` (checks whose
outcome or point counts differ from the reference) and ``metrics``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
DEADLINE_S = 175.0


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(script, args, deadline):
    """Run ``script args`` to completion; returns its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / script), *args]
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{script} did not finish in time")
        finally:
            if proc.poll() is None:
                proc.kill()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def setup_probe(workload, deadline):
    """Seconds from spawning a process to its imports done and specs loaded."""
    return run_child("setup_probe.py", [repr(time.monotonic()), workload], deadline)


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    fields = out.stdout.split()
    if out.returncode != 0 or len(fields) != 2 or Path(fields[0]).resolve() != ROOT:
        return "unknown"
    return fields[1]


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def end_to_end(workload, seed, seconds, deadline):
    setup = [setup_probe(workload, deadline) for _ in range(SETUP_PROBES)]
    args = ["run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = run_child("worker.py", args, deadline)
    passes = out["passes"]
    verify = [p["verify_s"] for p in passes]
    attempted = sum(p["attempted"] for p in passes)
    wrong = [w for p in passes for w in p["wrong"]]
    metrics = {
        "verify_s": (statistics.median(verify), "s"),
        "points_per_s": (statistics.median(p["points"] / p["verify_s"] for p in passes), "1/s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        "right_outcome_ratio": ((attempted - len(wrong)) / attempted, "ratio"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    q1, _, q3 = quartiles(verify)
    print(f"passes: {len(passes)}; verify_s quartiles {q1:.4f} / {q3:.4f} s")
    print(f"wall seconds: verify {statistics.median(p['wall_s'] for p in passes):.4f}, "
          f"setup {statistics.median(s['wall_s'] for s in setup):.4f}")
    probes = ", ".join(f"{s['setup_s']:.4f}" for s in setup)
    print(f"setup_s probes: {probes}")
    print(f"wrong_outcome_ratio: {len(wrong) / attempted:.4f} ({len(wrong)} of {attempted} checks)")
    return attempted, wrong, metrics, out["env"]


def per_layer(workload, seed, deadline):
    out = run_child("worker.py", ["trace", "--workload", workload, "--seed", str(seed)], deadline)
    values = out["metrics"]
    metrics = {}
    for name, unit, _better, moves, on in layers.per_layer():
        metrics[name] = (values[name], unit)
        print(f"{name} = {values[name]:.6g} {unit}  (moves {moves} on {on})")
    print(f"traced workload: {workload}; peak_rss_mb {out['peak_rss_mb']:.1f}")
    return out["attempted"], out["wrong"], metrics, out["env"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    missing = [p for p in ("src/semiweyl/__init__.py", *WORKLOADS[args.workload]) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a semiweyl source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # so children get killed
    deadline = time.monotonic() + DEADLINE_S
    load_start = os.getloadavg()
    try:
        if args.trace:
            attempted, wrong, metrics, env = per_layer(args.workload, args.seed, deadline)
        else:
            attempted, wrong, metrics, env = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for spec, check, reason in wrong:
        print(f"WRONG {spec}.{check}: {reason}")
    env.update(cpu_count=os.cpu_count(), loadavg_start=load_start, loadavg_end=os.getloadavg(), commit=git_commit())
    print("env: " + json.dumps(env))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(wrong),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
