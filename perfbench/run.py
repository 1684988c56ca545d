"""numvar end-to-end benchmark: CLI workloads timed in fresh processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition starts a new Python process (perfbench/child.py) that
imports numvar.cli from src/ and runs the workload's commands through
numvar.cli.main, with the seed passed as --seed.  Repetitions run back
to back (a closed loop with one client) until the next one would end
after S seconds; at least one always runs.  Eight set-up-only processes
run first, so set-up time has many samples.  Every command's output
is checked (checks.py); a non-zero exit or a failed check counts as a
failed operation.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced repetitions and reports its per-layer
metrics, including the tracing overhead against the untraced wall time.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Everything above it is a human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_state"

REFERENCE_SEED = 0
SETUP_ONLY_CHILDREN = 8
RUN_DEADLINE_S = 170.0  # a whole run, children included, ends within this

_SQ = ["--seq", "monomial:d=2"]

# commands: the CLI argv list run per repetition (--seed is appended).
# tiny: the same commands at a size that runs in about a second.
# seeded: False when the commands draw nothing from the seed, so the
# stored reference applies at every seed.
WORKLOADS: Dict[str, Dict] = {
    "variance-exact-1e6": {
        "commands": [["variance", *_SQ, "--schedule", "n=1000000", "--beta", "0.3",
                      "--alphas", "4", "--workers", "1"]],
        "tiny": [["variance", *_SQ, "--schedule", "n=1000", "--beta", "0.3",
                  "--alphas", "2", "--workers", "1"]],
        "seeded": True,
    },
    "variance-mc-mid": {
        "commands": [["variance", *_SQ, "--schedule", "m=300..303", "--beta", "0.3",
                      "--alphas", "8", "--mc", "200000", "--workers", "2"]],
        "tiny": [["variance", *_SQ, "--schedule", "m=30..31", "--beta", "0.3",
                  "--alphas", "2", "--mc", "2000", "--workers", "2"]],
        "seeded": True,
    },
    "spectral-paircorr": {
        "commands": [["paircorr", *_SQ, "--schedule", "n=300", "--beta", "0.3",
                      "--tol", "1e-2", "--alphas", "1"]],
        "tiny": [["paircorr", *_SQ, "--schedule", "n=30", "--beta", "0.3",
                  "--tol", "1e-2", "--alphas", "1"]],
        "seeded": True,
    },
    "energy-structure": {
        "commands": [["energy", *_SQ, "--schedule", "n=2048,4096"],
                     ["coeffs", *_SQ, "--schedule", "n=1024", "--kmax", "32"]],
        "tiny": [["energy", *_SQ, "--schedule", "n=64,128"],
                 ["coeffs", *_SQ, "--schedule", "n=64", "--kmax", "8"]],
        "seeded": False,
    },
}


def load_spec() -> Dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def commands_for(workload: str, seed: int, tiny: bool) -> List[List[str]]:
    base = WORKLOADS[workload]["tiny" if tiny else "commands"]
    return [argv + ["--seed", str(seed)] for argv in base]


def load_reference(workload: str, seed: int, tiny: bool) -> Optional[List[str]]:
    """Stored outputs when they apply to this seed and size, else None."""
    if tiny or (WORKLOADS[workload]["seeded"] and seed != REFERENCE_SEED):
        return None
    with open(HERE / "reference" / (workload + ".json"), encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def spawn(commands: List[List[str]], trace: bool, timeout: float) -> Dict:
    """Run one child; its JSON payload, or {"error": ...} if it died."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawned = time.monotonic()
    spec = json.dumps({"spawned": spawned, "commands": commands, "trace": trace})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), spec],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": "child exceeded %.0f s" % timeout}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": "child exit %d: %s" % (proc.returncode, proc.stderr.strip()[-500:])}
    return json.loads(lines[-1])


def machine_header(workload: str, seed: int, seconds: int, trace: bool) -> List[str]:
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    load = " ".join("%.2f" % v for v in os.getloadavg())
    return [
        "# numvar benchmark  workload=%s seed=%d seconds=%d trace=%d"
        % (workload, seed, seconds, int(trace)),
        "# nproc=%d cpu=%s" % (os.cpu_count() or 0, model),
        "# python=%s numpy=%s loadavg_at_start=%s"
        % (platform.python_version(), numpy.__version__, load),
    ]


class Run:
    """Repetitions of one workload, their checks and their samples."""

    def __init__(self, workload: str, seed: int, tiny: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.commands = commands_for(workload, seed, tiny)
        self.reference = load_reference(workload, seed, tiny)
        self.first_outputs: List[Optional[str]] = [None] * len(self.commands)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.setup_s: List[float] = []
        self.reps: List[Dict] = []  # {"trace", "wall_s", "rows", "rss_mb", "spans"}
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def spawn(self, commands: List[List[str]], trace: bool) -> Dict:
        return spawn(commands, trace, max(1.0, self.deadline - time.monotonic()))

    def check(self, index: int, argv: List[str], code, output: str) -> List[str]:
        if code != 0:
            return ["exit code %r" % (code,)]
        first = self.first_outputs[index]
        if first is not None:
            # same seed, same inputs: the output must repeat byte for byte
            return [] if output == first else ["output differs from the first repetition"]
        ref = self.reference[index] if self.reference is not None else None
        problems = checks.check_command(argv, output, self.seed, ref)
        if not problems:
            self.first_outputs[index] = output
        return problems

    def record(self, payload: Dict, trace: bool) -> Optional[float]:
        """Fold in one workload child; returns its wall time if it ran."""
        if "error" in payload:
            self.attempted += len(self.commands)
            self.failed += len(self.commands)
            self.problems.append(payload["error"])
            return None
        self.setup_s.append(payload["setup_s"])
        wall = rows = 0
        for i, cmd in enumerate(payload["commands"]):
            problems = self.check(i, cmd["argv"], cmd["code"], cmd["output"])
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend("%s: %s" % (cmd["argv"][0], p) for p in problems[:5])
            wall += cmd["wall_s"]
            rows += checks.count_rows(cmd["output"])
        self.reps.append({"trace": trace, "wall_s": wall, "rows": rows,
                          "rss_mb": payload["peak_rss_kb"] / 1024.0,
                          "spans": payload["spans"]})
        return wall

    def execute(self, seconds: float, trace: bool) -> None:
        for _ in range(SETUP_ONLY_CHILDREN):
            payload = self.spawn([], False)
            if "error" not in payload:
                self.setup_s.append(payload["setup_s"])
        modes = [False, True] if trace else [False]
        start = time.monotonic()
        last = 0.0
        done = 0
        while True:
            mode = modes[done % len(modes)]
            elapsed = time.monotonic() - start
            if done >= len(modes) and elapsed + last > seconds:
                break
            wall = self.record(self.spawn(self.commands, mode), mode)
            last = time.monotonic() - start - elapsed
            done += 1
            if wall is None and done >= len(modes):
                break


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(run: Run) -> Dict[str, List[float]]:
    reps = [r for r in run.reps if not r["trace"]]
    return {
        "wall_s": [r["wall_s"] for r in reps],
        "rows_per_s": [r["rows"] / r["wall_s"] for r in reps],
        # the high-water mark over the run: with two pool threads a single
        # child's peak depends on whether their largest arrays overlap
        "peak_rss_mb": [max(r["rss_mb"] for r in reps)],
        "setup_s": run.setup_s,
    }


def per_layer(run: Run, workers: int) -> tuple:
    """Median per-layer metrics over traced repetitions, and count flags."""
    traced = [tracing.layer_metrics(r["spans"], workers) for r in run.reps if r["trace"]]
    untraced = [r["wall_s"] for r in run.reps if not r["trace"]]
    traced_wall = [r["wall_s"] for r in run.reps if r["trace"]]
    # counts are taken from the first traced repetition and flagged if they vary
    merged = {key: statistics.median(m[key] for m in traced) if isinstance(v, float) else v
              for key, v in traced[0].items()}
    merged["trace.traced_wall_s"] = statistics.median(traced_wall)
    merged["trace.untraced_wall_s"] = statistics.median(untraced)
    merged["trace.overhead_frac"] = (
        merged["trace.traced_wall_s"] / merged["trace.untraced_wall_s"] - 1.0
    )
    counts = {k: v for k, v in traced[0].items() if not isinstance(v, float)}
    flags = ["%s differs between traced repetitions" % k
             for k in counts if any(m[k] != counts[k] for m in traced)]
    flags += compare_saved_counts("%s/%s" % (run.workload, "tiny" if run.tiny else "full"), counts)
    return merged, flags


def compare_saved_counts(key: str, counts: Dict[str, int]) -> List[str]:
    """Flag counts that differ from the last traced run in this checkout."""
    path = STATE / "trace_counts.json"
    saved = json.loads(path.read_text()) if path.exists() else {}
    before = saved.get(key)
    flags = []
    if before is not None:
        flags = ["%s = %s, previous traced run had %s" % (k, v, before.get(k))
                 for k, v in counts.items() if before.get(k) != v]
    saved[key] = counts
    STATE.mkdir(exist_ok=True)
    path.write_text(json.dumps(saved, indent=1, sort_keys=True))
    return flags


def workers_of(run: Run) -> int:
    return int(checks.options(run.commands[0]).get("workers", "1"))


def layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_frac"):
        return "ratio"
    return "B" if key.endswith("bytes_computed") else "count"


def report(run: Run, spec: Dict, trace: bool) -> Dict:
    """Print the human-readable report; return the metrics for the JSON line."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = end_to_end(run)
    print("# repetitions: %d untraced, %d traced; set-up samples: %d"
          % (len(e2e["wall_s"]), sum(r["trace"] for r in run.reps), len(run.setup_s)))
    for r in run.reps:
        print("rep trace=%d wall_s=%.4f rows=%d peak_rss_mb=%.1f"
              % (r["trace"], r["wall_s"], r["rows"], r["rss_mb"]))
    print("%-34s %12s %12s %12s %4s  %s" % ("end-to-end metric", "median", "q1", "q3", "n", "unit"))
    medians = {}
    for m in spec["end_to_end"]:
        q1, med, q3 = quartiles(e2e[m["name"]])
        medians[m["name"]] = med
        print("%-34s %12.6g %12.6g %12.6g %4d  %s"
              % (m["name"], med, q1, q3, len(e2e[m["name"]]), m["unit"]))
    print("error_rate = failed/attempted = %d/%d = %.4g"
          % (run.failed, run.attempted, run.failed / max(run.attempted, 1)))
    for p in run.problems[:20]:
        print("FAILED: %s" % p)
    if not trace:
        return {name: {"value": v, "unit": units[name]} for name, v in medians.items()}

    layers, flags = per_layer(run, workers_of(run))
    print("%-50s %14s  %s" % ("per-layer metric (traced median)", "value", "unit"))
    for key in sorted(layers):
        value = layers[key]
        shown = "%14.6g" % value if isinstance(value, float) else "%14d" % value
        print("%-50s %s  %s" % (key, shown, units.get(key) or layer_unit(key)))
    print("harness.pool.busy_frac base: %d workers x %.4f s sweep"
          % (workers_of(run), layers["harness.pool.sweep_s"]))
    print("trace.overhead_frac base: untraced wall_s %.4f s (traced %.4f s)"
          % (layers["trace.untraced_wall_s"], layers["trace.traced_wall_s"]))
    print("energy.pair_table_bytes_computed: computed from array sizes, not measured")
    for f in flags:
        print("COUNT FLAG: %s" % f)
    if not flags:
        print("counts repeat exactly (across traced repetitions and the previous traced run)")
    return {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the commands at a small size (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "numvar" / "cli.py").is_file():
        print("numvar sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    for line in machine_header(args.workload, args.seed, seconds, bool(args.trace)):
        print(line)
    run = Run(args.workload, args.seed, args.tiny)
    run.execute(seconds, bool(args.trace))
    if not any(not r["trace"] for r in run.reps) or (args.trace and not any(
            r["trace"] for r in run.reps)):
        for p in run.problems:
            print("FAILED: %s" % p, file=sys.stderr)
        return 1
    metrics = report(run, spec, bool(args.trace))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
