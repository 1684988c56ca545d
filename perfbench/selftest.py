"""Self-test of the benchmark itself, in about half a minute.

Usage (from the repository root):

    python3 perfbench/selftest.py

1. Every workload runs at its tiny size, untraced and traced; the last
   line must carry every metric of BENCHMARK.json with its unit, and
   the outputs must pass their checks.
2. One row of each command's real output is corrupted; the benchmark's
   own bookkeeping must then count a failed operation (error_rate > 0).
   The stored references must pass their checks, and fail them once
   corrupted.
3. A copy holding only BENCHMARK.json and perfbench/ must exit non-zero
   without printing a result line.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import checks
import run

# the field each corruption changes, per command
_CORRUPT_FIELD = {"variance": "sigma2", "paircorr": "r2_fourier",
                  "energy": "energy", "coeffs": "value"}


def corrupt(command: str, text: str) -> str:
    """Change one field of the last data row by 1%, or an integer by one."""
    lines = text.split("\r\n")
    header = lines[0].split(",")
    col = header.index(_CORRUPT_FIELD[command])
    last = max(i for i, line in enumerate(lines) if line)
    fields = lines[last].split(",")
    value = fields[col]
    fields[col] = str(int(value) + 1) if value.isdigit() else repr(float(value) * 1.01 + 1e-6)
    lines[last] = ",".join(fields)
    return "\r\n".join(lines)


def check_metrics(spec) -> None:
    for name in sorted(run.WORKLOADS):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", name, "--seed", "7", "--seconds", "1",
                                 "--trace", str(trace), "--tiny"])
            lines = out.getvalue().splitlines()
            result = json.loads(lines[-1])
            assert code == 0, name
            assert result["correct"] and result["failed"] == 0, (name, lines[-30:])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1
            for metric in listed:
                got = result["metrics"][metric["name"]]
                assert got["unit"] == metric["unit"], (name, metric)
                assert isinstance(got["value"], (int, float)), (name, metric)
            assert len(result["metrics"]) == len(listed)
            if trace:
                assert any(line.startswith("trace.overhead_frac base:") for line in lines)
            print("ok  %-20s trace=%d  %d metrics" % (name, trace, len(listed)))


def check_corruption() -> None:
    for name in sorted(run.WORKLOADS):
        bench = run.Run(name, 7, tiny=True)
        payload = run.spawn(bench.commands, False, run.RUN_DEADLINE_S)
        for cmd in payload["commands"]:
            cmd["output"] = corrupt(cmd["argv"][0], cmd["output"])
        bench.record(payload, False)
        assert bench.failed == bench.attempted == len(bench.commands), (name, bench.problems)
        print("ok  %-20s corrupted rows -> error_rate %.2f (%s)"
              % (name, bench.failed / bench.attempted, "; ".join(bench.problems)))


def check_references() -> None:
    """Stored outputs pass their own checks; a corrupted copy does not."""
    for name in sorted(run.WORKLOADS):
        commands = run.commands_for(name, run.REFERENCE_SEED, tiny=False)
        for argv, ref in zip(commands, run.load_reference(name, run.REFERENCE_SEED, False)):
            assert checks.check_command(argv, ref, run.REFERENCE_SEED, ref) == [], (name, argv)
            bad = corrupt(argv[0], ref)
            assert checks.check_command(argv, bad, run.REFERENCE_SEED, ref), (name, argv)
        print("ok  %-20s reference passes, corrupted reference fails" % name)


def check_bare_copy() -> None:
    bare = run.STATE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectral-paircorr",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print("ok  bare copy exits %d without a result line" % proc.returncode)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    check_metrics(run.load_spec())
    check_corruption()
    check_references()
    check_bare_copy()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
