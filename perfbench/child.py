"""One benchmark repetition in a fresh process.

Usage: python3 child.py '<json spec>'

The spec is {"spawned": <monotonic time the parent started this process>,
"commands": [[argv...], ...], "trace": bool}.  The child imports
numvar.cli (that is the set-up a CLI user pays), runs each command
through numvar.cli.main with stdout captured, and prints one JSON line:
set-up time, per-command exit code, wall time and output text, peak
RSS, and the spans when tracing is on.  An empty command list measures
set-up only.
"""

import io
import json
import resource
import sys
import time


def main() -> None:
    spec = json.loads(sys.argv[1])
    import numvar.cli

    setup_s = time.monotonic() - spec["spawned"]
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    results = []
    real_stdout = sys.stdout
    for argv in spec["commands"]:
        buf = io.StringIO()
        sys.stdout = buf
        start = time.perf_counter()
        try:
            if tracer is None:
                code = numvar.cli.main(argv)
            else:
                code = tracer.call(tracing.MAIN_SPAN, numvar.cli.main, (argv,))
        except Exception as exc:  # reported as a failed operation, not a crash
            code = "exception: %r" % (exc,)
        finally:
            wall = time.perf_counter() - start
            sys.stdout = real_stdout
        results.append({"argv": argv, "code": code, "wall_s": wall, "output": buf.getvalue()})
    payload = {
        "setup_s": setup_s,
        "commands": results,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer is not None else None,
    }
    real_stdout.write(json.dumps(payload) + "\n")


if __name__ == "__main__":
    main()
