"""jetstress benchmark driver.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  One process drives a closed loop: one
client, one ``python -m jetstress.cli ...`` child at a time, each op timed
from spawn to exit and checked against the oracle.  ``--trace 0`` measures
the end-to-end metrics for ``--seconds``; ``--trace 1`` runs the workload's
op pool once untraced and once through ``tracer.py`` and reports per-layer
metrics.  The last line of stdout is one JSON object; see README.md.
"""
from __future__ import annotations

import argparse
import json
import marshal
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

import gen
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
CONTROL_REPEATS = 5
LAYER_NAMES = {"_linalg": "linalg"}
LAYERS = ("cli", "fileio", "hyperstress", "polyfield", "jet", "symtensor", "altforms", "linalg", "multiindex")


class Launcher:
    """Starts ops through ``spawn.py`` so each child's rusage is its own."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-I", str(HERE / "spawn.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def run(self, argv: list[str], out_path: Path, err_path: Path) -> tuple[float, float, int, int]:
        """Wall ms, CPU ms, max RSS KiB and exit code of one child."""
        self.proc.stdin.write("\t".join([str(out_path), str(err_path), *argv]) + "\n")
        self.proc.stdin.flush()
        wall, utime, stime, rss, code = self.proc.stdout.readline().split("\t")
        return int(wall) / 1e6, (float(utime) + float(stime)) * 1e3, int(rss), int(code)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.inputs = work / "in"
        self.pycache = work / "pycache"
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONPYCACHEPREFIX"] = str(self.pycache)
        env["PYTHONHASHSEED"] = "0"
        self.launcher = Launcher(env)
        self.ops: list[gen.Op] = []
        self.expected: list = []

    def spawn(self, argv: list[str]):
        return self.launcher.run(argv, self.work / "stdout", self.work / "stderr")

    def child(self, args: list[str], traced_to: Path | None = None):
        if traced_to is None:
            return self.spawn([sys.executable, "-m", "jetstress.cli", *args])
        return self.spawn([sys.executable, str(HERE / "tracer.py"), str(traced_to), *args])

    def setup_once(self) -> float:
        """Generate inputs, then compile and warm the CLI with one cheap op, from nothing."""
        shutil.rmtree(self.inputs, ignore_errors=True)
        shutil.rmtree(self.pycache, ignore_errors=True)
        start = time.perf_counter()
        self.inputs.mkdir(parents=True)
        self.ops = gen.build(self.workload, self.seed, str(self.inputs.relative_to(ROOT)))
        for op in self.ops:
            for path, data in op.files.items():
                (ROOT / path).write_bytes(data)
        self.child(["dims", "--n", "2", "--l", "2"])
        return time.perf_counter() - start

    def check(self, op: gen.Op, want, code: int) -> tuple[bool, bool]:
        """(op met its contract, op gave no wrong answer)."""
        out = (self.work / "stdout").read_bytes()
        err = (self.work / "stderr").read_bytes()
        out_file = ROOT / op.out if op.out else None
        if want is None:
            wrote = out_file is not None and out_file.exists()
            clean = code == 1 and not out and err.startswith(b"error:") and err.count(b"\n") == 1
            return clean and not wrote, True
        stdout, file_bytes = want
        ok = code == 0 and out == stdout
        if file_bytes is not None:
            ok = ok and out_file.exists() and out_file.read_bytes() == file_bytes
        return ok, ok

    def run(self, op: gen.Op, want, traced_to: Path | None = None):
        if op.out:
            (ROOT / op.out).unlink(missing_ok=True)
        wall, cpu, rss, code = self.child(op.args, traced_to)
        ok, right = self.check(op, want, code)
        return wall, cpu, rss, ok, right

    def run_op(self, i: int, traced_to: Path | None = None):
        return self.run(self.ops[i], self.expected[i], traced_to)

    def probe_errors(self) -> list[str]:
        """Run one op of every malformed-input kind; the kinds that break the error contract."""
        probes = gen.error_probes(self.seed, str((self.inputs / "errors").relative_to(ROOT)))
        (self.inputs / "errors").mkdir()
        for op in probes:
            for path, data in op.files.items():
                (ROOT / path).write_bytes(data)
        return [op.kind for op in probes if not self.run(op, None)[3]]

    def controls(self) -> dict:
        interp = [self.spawn([sys.executable, "-c", "pass"])[0] for _ in range(CONTROL_REPEATS)]
        imports = [self.spawn([sys.executable, "-c", "import jetstress.cli"])[0] for _ in range(CONTROL_REPEATS)]
        ref = [host_ref_ms() for _ in range(CONTROL_REPEATS)]
        start = statistics.median(interp)
        return {
            "interp.start_ms": start,
            "cli.import_ms": statistics.median(imports) - start,
            "host.ref_ms": statistics.median(ref),
        }


def host_ref_ms() -> float:
    """A fixed pure-Python Fraction loop, the host's speed reference."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(8000):
        total += Fraction(k % 97 + 1, k % 89 + 2)
    return (time.perf_counter() - start) * 1e3


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 ops beyond it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    i = max(n - 11, 0)
    return ordered[i], 100.0 * (i + 1) / n


RATIONAL = re.compile(r"-?\d+(/\d+)?")


def max_result_bits(expected: list) -> int:
    """Largest numerator or denominator bit length among the rationals the CLI prints or writes."""
    best = 0
    for want in expected:
        for blob in want or ():
            if blob is None:
                continue
            text = blob.decode()
            try:
                tokens = _strings(json.loads(text))
            except ValueError:
                tokens = text.split()
            for token in tokens:
                if RATIONAL.fullmatch(token):
                    value = Fraction(token)
                    best = max(best, value.numerator.bit_length(), value.denominator.bit_length())
    return best


def _strings(obj):
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _strings(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _strings(value)


def timed(bench: Bench, seconds: float) -> tuple[dict, int, int, bool, list[str]]:
    """Closed loop over the pool for ``seconds``, at least one whole pass.

    Host speed on a shared VM drifts by up to 2x over seconds to minutes, so
    each op of the pool is charged the fastest wall and CPU time of its repeats
    in the run, once per whole pass, and the timings are taken from those
    charges.
    """
    n = len(bench.ops)
    walls: list[list[float]] = [[] for _ in range(n)]
    cpus: list[list[float]] = [[] for _ in range(n)]
    peak = 0
    failed_kinds: dict = {}
    right_all = True
    attempted = 0
    start = time.perf_counter()
    while attempted < n or time.perf_counter() - start < seconds:
        op = attempted % n
        wall, cpu, rss, ok, right = bench.run_op(op)
        walls[op].append(wall)
        cpus[op].append(cpu)
        peak = max(peak, rss)
        if not ok:
            kind = bench.ops[op].kind
            failed_kinds[kind] = failed_kinds.get(kind, 0) + 1
        right_all = right_all and right
        attempted += 1
    elapsed = time.perf_counter() - start
    failed = sum(failed_kinds.values())
    broken = bench.probe_errors()
    kinds = len(gen.ERROR_KINDS)
    fastest_wall = [min(w) for w in walls]
    fastest_cpu = [min(c) for c in cpus]
    charged = fastest_wall * (attempted // n)
    tail_ms, pct = tail(charged)
    metrics = {
        "ops_per_s": (n / sum(fastest_wall) * 1e3, "1/s"),
        "op_p50_ms": (statistics.median(fastest_wall), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "cpu_ms_per_op": (sum(fastest_cpu) / n, "ms"),
        "peak_rss_mb": (peak / 1024, "MB"),
        "error_contract_ratio": ((kinds - len(broken)) / kinds, "ratio"),
    }
    notes = [
        f"{attempted} ops in {elapsed:.2f} s ({attempted / elapsed:.4f} ops/s as run) over a pool of {n} ops",
        f"op_tail_ms is p{pct:.1f}: {len(charged) - 1 - max(len(charged) - 11, 0)} of {len(charged)} charged ops took longer",
        f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} ops failed their contract)",
        f"error probe: {kinds - len(broken)} of {kinds} malformed-input kinds end in one clean error line",
    ]
    if failed_kinds:
        notes.append("failed ops by kind: " + ", ".join(f"{k} {v}" for k, v in sorted(failed_kinds.items())))
    if broken:
        notes.append("malformed-input kinds breaking the error contract: " + ", ".join(sorted(broken)))
    return metrics, attempted, failed, right_all, notes


def self_times(path: Path) -> tuple[dict, dict, float]:
    """Per-layer calls and self ms of one traced op, its counters, and summed self ms."""
    data = marshal.loads(path.read_bytes())
    fid = array("H", data["fid"])
    parent = array("q", data["parent"])
    start = array("q", data["start"])
    end = array("q", data["end"])
    outer = array("q", data["outer"])
    self_ns = [end[i] - start[i] for i in range(len(fid))]
    for i, p in enumerate(parent):
        if p >= 0:
            self_ns[p] -= outer[i] - start[i]
    layers: dict = {}
    for i, f in enumerate(fid):
        layer = LAYER_NAMES.get(data["names"][f][0], data["names"][f][0])
        calls, ns = layers.get(layer, (0, 0))
        layers[layer] = (calls + 1, ns + self_ns[i])
    return layers, data["counts"], sum(self_ns) / 1e6


def traced(bench: Bench) -> tuple[dict, int, int, bool, list[str]]:
    """One untraced and one traced pass over the pool; per-layer metrics."""
    plain_wall = traced_wall = 0.0
    failed, right_all, over_wall = 0, True, 0
    layers = {layer: [0, 0] for layer in LAYERS}
    counts: dict = {}
    spans = bench.work / "spans.bin"
    for i in range(len(bench.ops)):
        wall, _, _, ok, right = bench.run_op(i)
        plain_wall += wall
        failed += not ok
        right_all = right_all and right
        spans.unlink(missing_ok=True)
        wall, _, _, ok, right = bench.run_op(i, traced_to=spans)
        traced_wall += wall
        failed += not ok
        right_all = right_all and right
        op_layers, op_counts, self_ms = self_times(spans)
        over_wall += self_ms > wall
        for layer, (calls, ns) in op_layers.items():
            layers[layer][0] += calls
            layers[layer][1] += ns
        for key, value in op_counts.items():
            counts[key] = max(counts.get(key, 0), value) if key.endswith("bits") else counts.get(key, 0) + value
    metrics = {}
    for layer, (calls, ns) in layers.items():
        metrics[f"{layer}.self_ms"] = (ns / 1e6, "ms")
        if layer != "cli":
            metrics[f"{layer}.calls"] = (calls, "count")
    rank_calls = counts.pop("altforms.frame_rank_calls")
    distinct = counts.pop("altforms.distinct_frames")
    metrics["altforms.rank_check_yield"] = (distinct / rank_calls if rank_calls else 0.0, "ratio")
    for key, value in counts.items():
        unit = "bits" if key.endswith("bits") else "bytes" if ".bytes_" in key else "count"
        metrics[key] = (value, unit)
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    metrics["cli.max_coeff_bits"] = (max_result_bits(bench.expected), "bits")
    attempted = 2 * len(bench.ops)
    notes = [
        f"traced {len(bench.ops)} ops: {plain_wall:.0f} ms untraced, {traced_wall:.0f} ms traced",
        f"ops whose summed self time exceeds their wall time: {over_wall}",
    ]
    return metrics, attempted, failed, right_all and over_wall == 0, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.BUILDERS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "jetstress" / "cli.py").is_file():
        print(f"error: no jetstress sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, work)
    try:
        setups = [bench.setup_once() for _ in range(SETUP_REPEATS)]
        bench.expected = [oracle.expected(op.spec) if op.spec else None for op in bench.ops]
        controls = bench.controls()
        if args.trace:
            metrics, attempted, failed, correct, notes = traced(bench)
            metrics.update({key: (value, "ms") for key, value in controls.items()})
        else:
            metrics, attempted, failed, correct, notes = timed(bench, args.seconds)
            metrics["setup_s"] = (statistics.median(setups), "s")
    finally:
        bench.launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    if not args.trace:
        for name, value in controls.items():
            print(f"  control {name:20s} {value:14.4f} ms")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
