"""Benchmark of the sdsosc CLI on three closed-loop workloads.

    python3 bench/run.py --workload thermo-curves --seed 1 --seconds 25 --trace 0

One client in one process issues in-process ``sdsosc.cli.main(argv)`` calls,
each after the previous one returns, in whole rounds until ``--seconds`` of
round time have passed.  After every round a separate checker process
(``checks.py``, which never imports sdsosc) verifies each output file; a
mismatch or a nonzero exit counts the operation as failed.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of ``tracer.py`` with ``--trace 1``.  The line before it
holds run diagnostics.  See README.md in this directory.
"""

import os

# One worker thread everywhere, set before NumPy loads: OpenBLAS helper
# threads busy-wait inside eigvalsh and the thermo pool suffers under CPU
# steal, which made earlier measurements unsteady.  Output is identical.
THREAD_SETTINGS = {"SDS_OSC_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_SETTINGS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9
TRACE_ROUNDS = 4  # untraced, traced, untraced, traced

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


def read_steal_s():
    """Cumulative CPU steal of the machine in seconds, or None (read only)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def setup_sample() -> float:
    """Seconds to import sdsosc.cli in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import sdsosc.cli; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    return float(out)


class Checker:
    """The checker process; one request and one reply per round."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "checks.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def check(self, ops: list) -> list:
        self.proc.stdin.write(json.dumps(ops) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("checker process ended unexpectedly")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_op(cli, op: dict) -> tuple[float, bool]:
    """(wall seconds, exited 0) of one in-process CLI call."""
    start = time.perf_counter()
    try:
        ok = cli.main(op["argv"]) == 0
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - a crash is a failed operation
        print(f"op {op['id']} {' '.join(op['argv'])}: {type(exc).__name__}: {exc}", file=sys.stderr)
        ok = False
    return time.perf_counter() - start, ok


def tail(times: list):
    """Highest whole percentile with at least ten samples beyond it."""
    if len(times) < 40:
        return None
    ordered = sorted(times)
    pct = int(100 * (1 - 10 / len(ordered)))
    index = min(len(ordered) - 1, -(-pct * len(ordered) // 100) - 1)
    return {"percentile": pct, "value_s": ordered[index], "samples": len(ordered),
            "samples_beyond": len(ordered) - index - 1}


def blas_info(np) -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sdsosc" / "cli.py").is_file():
        print(f"error: no sdsosc sources under {SRC}", file=sys.stderr)
        return 2
    steal0 = read_steal_s()
    setup_sample()  # warms the bytecode and file caches
    # further samples are spread between rounds, so that one busy moment of
    # the machine does not set the median
    setup_samples = [setup_sample(), setup_sample()]
    sys.path.insert(0, str(SRC))
    import numpy as np
    import sdsosc.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "sdsosc":
        print(f"error: imported sdsosc from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer

    outdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    checker = Checker()
    try:
        # a whole untimed round first, so that lazy set-up and the allocator's
        # growth to the largest arrays happen before timing starts
        warm = workloads.round_ops(args.workload, args.seed, -1, outdir, 0)
        warm_ok = [op for op in warm if run_op(cli, op)[1]]
        warm_fail = [f for fails in checker.check(warm_ok) for f in fails]
        if len(warm_ok) < len(warm):
            warm_fail.append("warm-up operation exited nonzero")

        op_times, round_walls, round_cpus = [], [], []
        traced_walls, untraced_walls = [], []
        attempted = failed = mismatched = 0
        first = None
        next_id = len(warm)
        round_index = 0
        while True:
            ops = workloads.round_ops(args.workload, args.seed, round_index, outdir, next_id)
            next_id += len(ops)
            traced = tracer is not None and round_index % 2 == 1
            if traced:
                tracer.install()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            exited = []
            for op in ops:
                if traced:
                    tracer.op = op["id"]
                seconds, ok = run_op(cli, op)
                op_times.append(seconds)
                exited.append(ok)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if traced:
                tracer.uninstall()
                traced_walls.append(wall)
            else:
                untraced_walls.append(wall)
            round_walls.append(wall)
            round_cpus.append(cpu)
            results = checker.check([op for op, ok in zip(ops, exited) if ok])
            for op, ok in zip(ops, exited):
                fails = results.pop(0) if ok else []
                attempted += 1
                if not ok or fails:
                    failed += 1
                    mismatched += bool(fails)
                    for line in fails:
                        print(f"op {op['id']} {' '.join(op['argv'])}: {line}", file=sys.stderr)
            if first is None and exited[0]:
                first = ops[0]
                first["bytes"] = [Path(f).read_bytes() for f in first["files"]]
            for op in ops:
                for f in op["files"]:
                    Path(f).unlink(missing_ok=True)
            if len(setup_samples) < SETUP_SAMPLES:
                setup_samples.append(setup_sample())
            round_index += 1
            if tracer is not None:
                if round_index == TRACE_ROUNDS:
                    break
            elif sum(round_walls) >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_sample())
    finally:
        checker.close()

    # a repeated argv must give byte-identical files
    if first is not None:
        stem = f"op{first['id']:05d}"
        again = dict(first, argv=[a.replace(stem, "repeat") for a in first["argv"]],
                     files=[f.replace(stem, "repeat") for f in first["files"]])
        _, ok = run_op(cli, again)
        attempted += 1
        if not (ok and [Path(f).read_bytes() for f in again["files"]] == first["bytes"]):
            print(f"repeat of op {first['id']} did not give byte-identical output", file=sys.stderr)
            failed += 1
            mismatched += 1
    shutil.rmtree(outdir, ignore_errors=True)
    steal1 = read_steal_s()

    diagnostics = {
        "workload": args.workload, "seed": args.seed, "rounds": len(round_walls),
        "round_wall_s": round_walls, "setup_samples_s": setup_samples,
        "operations": len(op_times), "op_tail": tail(op_times), "warm_up_failures": warm_fail,
        "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
        "cpu_count": os.cpu_count(), "threads": {k: os.environ.get(k) for k in THREAD_SETTINGS},
        "python": sys.version.split()[0], "numpy": np.__version__, "blas": blas_info(np),
    }
    if tracer is None:
        metrics = {
            "wall_s": {"value": statistics.median(round_walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(round_cpus), "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        }
    else:
        metrics = tracer.summary()
        overhead = statistics.mean(traced_walls) - statistics.mean(untraced_walls)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{args.workload}.npz")
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({"correct": mismatched == 0 and not warm_fail, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
