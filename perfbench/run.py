"""Benchmark of the gridthresh command line, one closed-loop client per process.

    python3 perfbench/run.py --workload {count-large,bfile,verify} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--out FILE]

A workload run imports ``gridthresh`` from ``src/`` of the checkout holding
this file, warms up, then runs whole cycles of its seeded request list
(see workloads.py) through ``gridthresh.cli.main`` with stdout captured,
until at least ``--seconds`` have passed.  Outputs are checked against
reference.py after the timed loop.  The last line of stdout is the result
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics (spans.py) with ``--trace 1``; the line
before it records the seed, the input digest and the environment.  The
exit code is 1 when any output is wrong and 2 when ``src/gridthresh`` is
missing.

``--workload all`` runs every workload untraced and traced in child
processes, prints every metric with its unit, and with ``--out`` writes
the full records as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import LAYERS, PER_LAYER, Tracer, per_layer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_PROBES = 6        # extra cold set-ups in child processes, for the setup_s median
HARD_STOP_FACTOR = 2    # a run stops mid-cycle after this many times --seconds

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
}


try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim  # glibc only
except (OSError, AttributeError):
    _MALLOC_TRIM = None


def _release_memory() -> None:
    """Collect garbage and return freed heap pages to the OS.

    Each request then pays for the memory it touches, as a fresh CLI
    process would, whatever the request before it left in the heap.
    """
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


class MissingProgram(Exception):
    pass


def _import_cli():
    if not (SRC / "gridthresh" / "cli.py").is_file():
        raise MissingProgram(f"no gridthresh package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gridthresh.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "gridthresh":
        raise MissingProgram(f"imported gridthresh from {cli.__file__}, not from {SRC}")
    return cli


def execute(cli, request: workloads.Request) -> tuple[float, tuple, tuple[str, ...]]:
    """Run one request; return its latency in seconds, exit codes and stdout texts.

    Only the ``main`` calls are timed.  An exception escaping ``main`` is
    recorded in place of the exit code.
    """
    elapsed = 0.0
    codes = []
    texts = []
    for argv in request:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            started = time.perf_counter()
            try:
                code = cli.main(list(argv))
            except Exception as exc:  # a failed request, reported by the checker
                code = f"{type(exc).__name__}: {exc}"
            elapsed += time.perf_counter() - started
        codes.append(code)
        texts.append(out.getvalue())
    return elapsed, tuple(codes), tuple(texts)


def setup(workload: str):
    """Import the package and run the warm-up requests; return (cli, seconds)."""
    started = time.perf_counter()
    cli = _import_cli()
    for request in workloads.WARMUP[workload]:
        execute(cli, request)
    return cli, time.perf_counter() - started


def _normalized(texts: tuple[str, ...]) -> tuple[str, ...]:
    # JSON records carry a wall-clock elapsed_ms; everything else is exact
    out = []
    for text in texts:
        if text.startswith("{"):
            try:
                record = json.loads(text)
                record.pop("elapsed_ms", None)
                text = json.dumps(record, sort_keys=True)
            except ValueError:
                pass
        out.append(text)
    return tuple(out)


class Loop:
    """Closed loop over whole request cycles, recording latencies and outcomes.

    ``latencies`` holds the untraced latencies in seconds, of whole cycles
    only, and ``traced`` those of the traced executions, one per request of
    ``latencies`` in the same order.  Each distinct request keeps its first
    outcome for the checker; a later execution whose outcome differs from
    the first counts as failed.
    """

    def __init__(self, cli, requests, rng, seconds: float, tracer=None):
        self.cli, self.requests, self.rng = cli, requests, rng
        self.seconds, self.tracer = seconds, tracer
        self.latencies: list[float] = []
        self.traced: list[float] = []
        self.cycles = 0
        self.first: dict = {}
        self.runs = dict.fromkeys(requests, 0)
        self.differs = dict.fromkeys(requests, 0)
        self.elapsed = 0.0

    def _one(self, request, traced: bool) -> None:
        _release_memory()
        if traced:
            self.tracer.install(len(self.traced))
            try:
                latency, codes, texts = execute(self.cli, request)
            finally:
                self.tracer.uninstall()
            self.traced.append(latency)
        else:
            latency, codes, texts = execute(self.cli, request)
            self.latencies.append(latency)
        outcome = (codes, _normalized(texts))
        self.runs[request] += 1
        if request not in self.first:
            self.first[request] = (codes, texts, outcome)
        elif self.first[request][2] != outcome:
            self.differs[request] += 1

    def run(self) -> None:
        started = time.perf_counter()
        while True:
            order = list(self.requests)
            self.rng.shuffle(order)
            cycle_start = len(self.latencies)
            for request in order:
                if self.tracer is None:
                    self._one(request, False)
                else:
                    # alternate which of the pair runs first, so warm caches
                    # favour neither side of the overhead comparison
                    first_traced = len(self.traced) % 2 == 1
                    self._one(request, first_traced)
                    self._one(request, not first_traced)
                self.elapsed = time.perf_counter() - started
                if (self.elapsed >= HARD_STOP_FACTOR * self.seconds
                        and len(self.latencies) >= 2):
                    if self.cycles:
                        del self.latencies[cycle_start:]  # keep whole cycles only
                    return
            self.cycles += 1
            if self.elapsed >= self.seconds:
                return

    def failures(self) -> tuple[int, list[str]]:
        """Failed executions and the reasons, checked against the references."""
        import reference

        answers = reference.expected(list(self.first))
        failed, reasons = 0, []
        for request, (codes, texts, _) in self.first.items():
            reason = reference.check(request, codes, texts, answers[request])
            if reason is None and self.differs[request]:
                failed += self.differs[request]
                reason = "output changed between runs"
            elif reason is not None:
                failed += self.runs[request]
            if reason is not None:
                reasons.append(f"{' / '.join(' '.join(a) for a in request)}: {reason}")
        return failed, reasons


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
    }


def _probe_setup(workload: str) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(proc.stdout.strip().splitlines()[-1])


def run_workload(args: argparse.Namespace) -> int:
    requests, rng = workloads.generate(args.workload, args.seed)
    cli, setup_s = setup(args.workload)
    tracer = Tracer() if args.trace else None
    loop = Loop(cli, requests, rng, args.seconds, tracer)
    loop.run()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, reasons = loop.failures()
    for reason in reasons[:10]:
        print(f"check failed: {reason}", file=sys.stderr)

    lat = loop.latencies
    attempted = sum(loop.runs.values())
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": workloads.digest(requests),
        "distinct_requests": len(requests),
        "cycles": loop.cycles,
        "samples": len(lat),
        "loop_s": round(loop.elapsed, 3),
        "failed_ratio": failed / attempted,
        "environment": environment(),
    }
    if args.trace:
        metrics = per_layer(tracer.spans, len(loop.traced), loop.traced, lat)
        units = PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}.jsonl"
        tracer.write(str(spans_path))
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        setups = [setup_s] + [_probe_setup(args.workload) for _ in range(SETUP_PROBES)]
        metrics = {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
            "throughput_rps": len(lat) / sum(lat),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        info["setup_samples_s"] = setups
    print(json.dumps({"info": info}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# Shares of request self time the traced runs should show if each workload
# isolates the layers it was built for: (spans or layers, relation, share).
ISOLATION = {
    "count-large": [(("numtheory",), ">=", 0.80)],
    "bfile": [(("numtheory.v_fast", "numtheory.u_mobius"), ">=", 0.80),
              (("numtheory.sieve",), "<=", 0.05)],
    "verify": [(("teaching", "geometry", "oracle"), ">=", 0.80), (("numtheory",), "<=", 0.05)],
}


def isolation(workload: str, metrics: dict) -> list[dict]:
    """The ISOLATION shares of one traced result, and whether each holds."""
    total = sum(metrics[f"{layer}.self_ms"]["value"] for layer in LAYERS)
    rows = []
    for names, relation, limit in ISOLATION[workload]:
        share = sum(metrics[f"{name}.self_ms"]["value"] for name in names) / total
        holds = share >= limit if relation == ">=" else share <= limit
        rows.append({"spans": " + ".join(names), "share": share,
                     "expected": f"{relation} {limit}", "holds": holds})
    return rows


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in its own process."""
    records: dict = {}
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            kind = "traced" if trace else "untraced"
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=900, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                status = 1
            if len(lines) < 2:
                print(f"{workload} {kind}: no result (exit {proc.returncode})")
                continue
            info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
            record = records.setdefault(workload, {})[kind] = {"info": info, **result}
            print(f"\n{workload} ({kind}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
            if not trace:
                rows.append(("failed_ratio", info["failed_ratio"], "ratio"))
            for name, value, unit in rows:
                print(f"  {name:40s} {value:14.6g} {unit}")
            if trace:
                record["isolation"] = isolation(workload, result["metrics"])
                for row in record["isolation"]:
                    print(f"  share of {row['spans']}: {row['share']:.4f} "
                          f"(expected {row['expected']}: {'holds' if row['holds'] else 'FAILS'})")
    if args.out:
        report = {"seed": args.seed, "seconds": args.seconds, "workloads": records}
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write every record here as JSON")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(setup(args.workload)[1])
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
