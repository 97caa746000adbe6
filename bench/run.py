"""Benchmark of loopsing: seeded report workloads, verified, end to end.

Run from the repository root:

    python3 bench/run.py --workload functional|jacobian|tower
                         [--seed N] [--seconds S] [--trace 0|1]

Workloads (each a closed loop with one client, one report at a time, in a
fresh worker process; all output structured):

- functional: checks lambda, support, linearity and derivative with the
  functional emitted, on Fermat and GL-transformed Fermat inputs (d 1-3,
  delta 2-6, window 1-4).  Almost all loopfun and exactalg.
- jacobian: check milnor on GL-transformed Fermat inputs (d 2-4, delta 3-5),
  one in eight a GL transform of a non-isolated form.  Almost all grobner.
- tower: check cohomology on Fermat inputs (d 1-4, n-max 20-60).  Almost
  all cohom.

With --trace 0 the run reports the end-to-end metrics: verified reports per
second, median and tail report latency, set-up time (median wall time of a
fresh interpreter that writes one structured `z^2` report through
`loopsing.cli.main`) and the worker's peak RSS.  With --trace 1 it runs the
same reports twice, in two fresh workers, untraced and then traced, and
reports per-report layer numbers from the trace plus the tracing overhead.

--seconds fixes the amount of work, not a clock: a run issues the rounds of
reports that take about that long on the reference machine (workloads.py),
so two versions of the program are timed on identical reports.  Times are
stated at the reference machine speed, measured by a calibration probe
between reports (calibrate.py); the run and its children stay on one CPU.

Every report is checked against answers computed without loopsing
(references.py); a report that raises, has the wrong exit status or verdict,
or disagrees with a reference or a pinned digest counts as failed.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; details (raw seconds, sample counts, the tail's
percentile, fail_ratio, machine and git SHA, digests) go to
.bench_out/<workload>-seed<N>-trace<0|1>/result.json under the repository
root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import references
import workloads

BENCH_DIR = Path(__file__).resolve().parent
PINS_PATH = BENCH_DIR / "pins.json"
DEFAULT_SEED = 1  # the seed whose reports are pinned in pins.json
DEFAULT_SECONDS = 20.0
SETUP_PROBES = 11
# A run must end within 180 s; the worker passes get what the probes leave.
RUN_BUDGET_S = 170.0
TAIL_BEYOND = 10

PROBE = """\
import sys, time
t0 = time.perf_counter()
import loopsing.cli
t1 = time.perf_counter()
status = loopsing.cli.main(["-f", "z^2", "--format", "structured"])
sys.stderr.write("import_s %r\\n" % (t1 - t0))
sys.exit(status)
"""


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    sha = None
    if Path(".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


def setup_probes(env: dict) -> tuple[list[float], list[float], list[str]]:
    """Wall and import seconds of fresh CLI interpreters, at reference speed.

    Calibration probes bracket each interpreter.
    """
    walls, imports, problems = [], [], []
    with calibrate.Calibrator() as calibrator:
        calibrator.measure()
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60
            )
            walls.append(time.perf_counter() - t0)
            calibrator.measure()
            try:
                ok = done.returncode == 0 and json.loads(done.stdout)["milnor_number"] == 1
                imports.append(float(done.stderr.rsplit("import_s ", 1)[1]))
            except (ValueError, KeyError, IndexError):
                ok = False
                imports.append(float("nan"))
            if not ok:
                problems.append(f"setup probe: exit {done.returncode}, {done.stderr.strip()[-200:]}")
    probes = calibrator.probes
    return (
        calibrate.at_reference_speed(walls, probes),
        calibrate.at_reference_speed(imports, probes),
        problems,
    )


def worker_pass(args, env: dict, out_dir: Path, trace: bool, deadline: float) -> dict:
    out_dir.mkdir(parents=True)
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        args.workload, str(args.seed), str(args.seconds), "1" if trace else "0", str(out_dir),
    ]
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within the run budget ({exc.timeout:.0f} s)")
    if done.returncode != 0:
        raise BenchError(f"worker failed with exit {done.returncode}:\n{done.stderr[-2000:]}")
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    summary["records"] = list(read_reports(out_dir / "reports.bin"))
    return summary


def read_reports(path: Path):
    """(header, text) per report, as the worker wrote them."""
    with open(path, "rb") as fh:
        while True:
            line = fh.readline()
            if not line:
                return
            header = json.loads(line)
            body = fh.read(header["bytes"])
            yield header, (body.decode() if header["error"] is None else None)


def check_reports(cases, records, pins: dict) -> tuple[list[str], list[str | None]]:
    """Per-report problems (one line per failed report) and digests."""
    failures, digests = [], []
    if len(records) != len(cases):
        failures.append(f"{len(records)} reports for {len(cases)} requests")
    for case, (header, text) in zip(cases, records):
        problems = (
            [header["error"]]
            if header["error"]
            else references.verify(case, text, header["status"], pins)
        )
        digests.append(None if text is None else references.digest(json.loads(text)))
        if problems:
            failures.append(f"{case.key}: {'; '.join(problems)}")
    return failures, digests


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def reference_latencies(summary: dict) -> list[float]:
    return calibrate.at_reference_speed(summary["latencies"], summary["probes"])


def load_pins() -> dict[str, str]:
    if not PINS_PATH.exists():
        return {}
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def run(args) -> dict:
    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    root = Path.cwd()
    if not (root / "src" / "loopsing" / "cli" / "main.py").is_file():
        raise BenchError(f"no loopsing sources under {root / 'src'}; run from the repository root")
    out_dir = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    cases = workloads.generate(args.workload, args.seed, args.seconds)
    pins = load_pins()
    walls, imports, problems = setup_probes(env)
    metrics: dict[str, dict] = {}

    def metric(name: str, value: float, unit: str, **detail) -> None:
        metrics[name] = {"value": value, "unit": unit, **detail}

    if args.trace:
        plain = worker_pass(args, env, out_dir / "untraced", False, deadline)
        traced = worker_pass(args, env, out_dir / "traced", True, deadline)
        failures, digests = check_reports(cases, traced["records"], pins)
        _, plain_digests = check_reports(cases, plain["records"], {})
        if plain_digests != digests:
            problems.append("traced and untraced runs produced different reports")
        for name, value in traced["layers"].items():
            unit = "s" if name.endswith("_s") else "ratio" if name.endswith(".share") else "count"
            metric(name, value, unit, samples=len(cases))
        metric("cli.import_s", statistics.median(imports), "s", samples=len(imports))
        overhead = sum(reference_latencies(traced)) / sum(reference_latencies(plain))
        metric("trace.overhead", overhead, "ratio", spans=traced["spans"])
    else:
        summary = worker_pass(args, env, out_dir / "untraced", False, deadline)
        failures, digests = check_reports(cases, summary["records"], pins)
        latencies = reference_latencies(summary)
        verified = len(cases) - len(failures)
        percentile, tail_value = tail(latencies)
        n = len(latencies)
        metric("reports_per_s", verified / sum(latencies), "1/s", samples=n,
               raw=verified / sum(summary["latencies"]))
        metric("report_p50_s", statistics.median(latencies), "s", samples=n,
               raw=statistics.median(summary["latencies"]))
        metric("report_tail_s", tail_value, "s", samples=n, percentile=percentile,
               raw=tail(summary["latencies"])[1])
        metric("setup_s", statistics.median(walls), "s", samples=len(walls))
        metric("peak_rss_mb", summary["peak_rss_mb"], "MB", samples=1)

    attempted = len(cases)
    failed = min(attempted, len(failures))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems,
        "failures": failures[:50],
        "metrics": metrics,
        "digests": dict(zip((c.key for c in cases), digests)),
        "wall_s": time.perf_counter() - started,
    }
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    calibrate.pin_to_one_cpu()
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    print(f"{args.workload} seed {args.seed}: {result['attempted']} reports, "
          f"{result['failed']} failed (fail_ratio {result['fail_ratio']:.4f})")
    for line in result["problems"] + result["failures"][:10]:
        print(f"  FAIL {line[:300]}")
    for name, entry in result["metrics"].items():
        extra = ", ".join(f"{k} {v:.4g}" for k, v in entry.items() if k not in ("value", "unit"))
        print(f"  {name:<30} {entry['value']:.6g} {entry['unit']}  ({extra})")
    correct = result["failed"] == 0 and not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
