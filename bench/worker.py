"""One pass of a benchmark workload, in a fresh interpreter.

Issues the workload's reports through `loopsing.cli.run` and
`Report.to_json` as a closed loop with one client: each report starts after
the previous one has been rendered.  Rendered reports go to a file for the
parent process to verify, so no checking happens inside this process and its
peak RSS is the program's.

Usage: python3 bench/worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR
(with PYTHONPATH naming the repository's src directory).
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

import calibrate
import workloads


def render(cli_main, case: workloads.Case) -> tuple[str, int]:
    """One structured report through the public API, and its exit status."""
    config = cli_main.RunConfig(
        function_source=case.source,
        window_bottom=case.window,
        n_max=case.n_max,
        checks=case.checks,
        output_format="structured",
        emit_lambda=case.emit_lambda,
    )
    # Looked up on the module at call time, so that a traced run() is used.
    report = cli_main.run(config)
    return report.to_json(), report.exit_status


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, out_dir = argv
    cases = workloads.generate(workload, int(seed), float(seconds))

    import loopsing.cli  # noqa: F401  (loads every layer before timing)

    cli_main = sys.modules["loopsing.cli.main"]
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    one_report = functools.partial(render, cli_main)
    if tracer is not None:
        one_report = tracer.wrap("report", one_report)

    latencies = []
    clock = time.perf_counter
    with calibrate.Calibrator() as calibrator, open(os.path.join(out_dir, "reports.bin"), "wb") as out:
        calibrator.measure()
        for index, case in enumerate(cases):
            error = None
            text, status = None, None
            t0 = clock()
            try:
                text, status = one_report(case)
            except Exception as exc:  # a report that raises is a failed report
                error = f"{type(exc).__name__}: {exc}"
            latencies.append(clock() - t0)
            calibrator.measure()
            body = b"" if text is None else text.encode()
            header = {"index": index, "status": status, "error": error, "bytes": len(body)}
            out.write(json.dumps(header).encode() + b"\n" + body)

    summary = {
        "reports": len(cases),
        "latencies": latencies,
        "probes": calibrator.probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        summary["layers"] = tracer.metrics(len(cases), calibrator.scale())
        summary["spans"] = len(tracer.span_name)
        tracer.write(os.path.join(out_dir, "spans.json.gz"))
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
