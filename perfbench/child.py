"""Run one ``hopfcensus`` CLI command in this fresh interpreter.

    python3 child.py STAMP MODE SPAN_PATH ARGV_JSON

STAMP is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start-up and the import of
``hopfcensus.cli``.  MODE is ``plain``; ``trace``, which times each module's
import and installs the tracer, then writes the spans to SPAN_PATH; or
``fault``, which makes ``cli.run`` raise, for the self-test.  Prints one
JSON object on stdout with the exit code, timings, peak RSS and the
command's output.
"""

import io
import json
import resource
import sys
import time
import traceback


def main() -> None:
    stamp, mode, span_path, argv = (float(sys.argv[1]), sys.argv[2],
                                    sys.argv[3], json.loads(sys.argv[4]))
    loads = {}
    if mode == "trace":
        import importlib
        for layer in ("cyclotomic", "groups", "fusion", "census", "hopfcore",
                      "cli"):
            start = time.perf_counter()
            importlib.import_module(f"hopfcensus.{layer}")
            loads[layer] = time.perf_counter() - start
    import hopfcensus
    import hopfcensus.cli as cli
    setup_s = time.monotonic() - stamp

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(hopfcensus)
    elif mode == "fault":
        def broken_parser():
            raise RuntimeError("fault injected by the benchmark self-test")
        cli.build_parser = broken_parser

    out = io.StringIO()
    tb = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        code = cli.run(argv, out)
    except Exception:
        tb = traceback.format_exc()
        sys.stderr.write(tb)
        code = 1
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    result = {"code": code, "setup_s": setup_s, "run_s": run_s,
              "cpu_s": cpu_s, "traceback": tb,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              / 1024.0,
              "output": out.getvalue()}
    if tracer is not None:
        result["trace"] = {"load_s": loads, **tracer.summary()}
        tracer.write_spans(span_path, " ".join(argv))
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
