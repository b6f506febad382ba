"""Long-lived process that runs ``cli.main`` on request, for warm and traced calls.

Reads one JSON request per line on stdin and answers one JSON line on
stdout.  A request is ``{"argv": [...]}`` for a plain call, with
``"trace": true`` and ``"spans": <path or null>`` for a traced one.  The
answer holds the exit code and the wall seconds of ``cli.main`` alone, or
the traceback when it raised; a traced answer adds the layer metrics.  What
the CLI prints is discarded.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback

import semigrouplab.cli as cli
from layertrace import LayerTracer


def serve() -> None:
    print(json.dumps({"ready": True, "module": cli.__file__}), flush=True)
    calls = 0
    for line in sys.stdin:
        request = json.loads(line)
        calls += 1
        tracer = LayerTracer(run_id=f"call-{calls}") if request.get("trace") else None
        answer = {}
        try:
            if tracer is not None:
                tracer.install()
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                answer["rc"] = cli.main(request["argv"])
                answer["wall_s"] = time.perf_counter() - start
        except Exception:  # a crash or a failed install is a failed call; keep serving
            answer = {"rc": None, "error": traceback.format_exc()}
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            answer["metrics"] = tracer.metrics()
            if request.get("spans"):
                tracer.write_spans(request["spans"])
        print(json.dumps(answer), flush=True)


if __name__ == "__main__":
    serve()
