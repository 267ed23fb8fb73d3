"""Run a workload's ops in one fresh interpreter, one client, closed loop.

    python3 perfbench/worker.py RUN_DIR MODE [SECONDS]

RUN_DIR holds ``plan.json`` (from ``workloads.build``) and ``specs/``.
MODE is ``timed`` (regular ops in order until SECONDS have passed or the
list ends, then the edge probes), ``prefix`` (the fixed traced-run prefix,
untraced) or ``traced`` (the same prefix with spans recorded).

Each op is one in-process call of ``zetareg.cli.main`` with ``--out`` in
RUN_DIR/MODE/, under a per-op deadline enforced by SIGALRM; a timeout
counts against the op and the loop goes on.  Around every op the worker
times ``calibrate()``.  It writes RUN_DIR/MODE/result.json with per-op
latency, calibration, exit status and output hash, and keeps the output
of each op for checking.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

DEADLINE_S = {"frac_sweep": 10.0, "exact_traces": 20.0, "branch_grid": 20.0}
EDGE_DEADLINE_S = 1.0


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (int and Fraction arithmetic,
    like the interpreter-bound work of the ops).  Run beside every op, it
    tracks how fast the shared host is running at that moment."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(12000):
        acc += (i * i) % 7
    f = Fraction(1, 3)
    for i in range(1, 120):
        f = f * Fraction(i, i + 2) + Fraction(1, i)
    return time.perf_counter() - t0


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that overran its deadline.

    A BaseException, so that no ``except Exception`` in the program under
    test can swallow it."""


_armed = [False]


def _on_alarm(signum, frame):
    if _armed[0]:
        raise OpTimeout()


def run_op(call, deadline: float) -> dict:
    """Time ``call()``; a timeout, an exception or SystemExit is recorded,
    never propagated."""
    rec = {"rc": None, "status": "ok", "error": ""}
    signal.signal(signal.SIGALRM, _on_alarm)
    _armed[0] = True
    signal.setitimer(signal.ITIMER_REAL, deadline)
    t0 = time.perf_counter()
    try:
        rec["rc"] = call()
    except OpTimeout:
        rec["status"] = "timeout"
    except SystemExit as exc:
        rec["rc"] = exc.code
    except Exception as exc:  # the op failed; record it and keep going
        rec["status"] = "raised"
        rec["error"] = f"{type(exc).__name__}: {exc}"[:300]
    finally:
        _armed[0] = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        rec["t_s"] = time.perf_counter() - t0
    return rec


def _cli_call(argv: list):
    from zetareg import cli
    err = io.StringIO()

    def call():
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
            return cli.main(argv)   # looked up at call time: sees tracing wrappers
    return call, err


def run_ops(ops: list, run_dir: str, out_dir: str, seconds: float | None,
            deadline: float, tracer=None) -> list:
    """Run ``ops`` in order, each at most once, until ``seconds`` have
    passed (when given) or the list ends."""
    spec_dir = os.path.join(run_dir, "specs")
    records = []
    start = time.perf_counter()
    cal = calibrate()
    for op in ops:
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        out = os.path.join(out_dir, f"op-{op['id']}.out")
        if os.path.exists(out):
            os.remove(out)
        argv = list(op["argv"]) + ["--out", out]
        if op["gen"] is not None:
            argv += ["--generator", os.path.join(spec_dir, op["gen"] + ".json")]
        call, err = _cli_call(argv)
        if tracer is not None:
            tracer.op = op["id"]
        rec = run_op(call, deadline)
        cal_after = calibrate()
        rec.update(id=op["id"], stderr=err.getvalue()[-300:], cal_s=[cal, cal_after])
        cal = cal_after
        if os.path.exists(out):
            with open(out, "rb") as fh:
                rec["sha"] = hashlib.sha256(fh.read()).hexdigest()
            os.replace(out, os.path.join(out_dir, f"op-{op['id']}-{rec['sha'][:12]}.out"))
        else:
            rec["sha"] = None
        records.append(rec)
    return records


def _peak_rss_mib() -> float:
    """Peak RSS of this process image.  VmHWM starts afresh at exec, while
    ru_maxrss can carry the peak of the parent that forked us."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list) -> int:
    run_dir, mode = argv[0], argv[1]
    seconds = float(argv[2]) if len(argv) > 2 else None
    with open(os.path.join(run_dir, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    out_dir = os.path.join(run_dir, mode)
    os.makedirs(out_dir, exist_ok=True)

    import numpy
    import zetareg
    import zetareg.cli  # noqa: F401  (the entry point every op calls)
    info = {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "zetareg_file": zetareg.__file__}

    regular = [op for op in plan["ops"] if op["edge"] is None]
    edges = [op for op in plan["ops"] if op["edge"] is not None]
    deadline = DEADLINE_S[plan["workload"]]
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    if mode == "timed":
        records = run_ops(regular, run_dir, out_dir, seconds, deadline)
        info["exhausted"] = len(records) == len(regular)
        info["peak_rss_mib"] = _peak_rss_mib()
        # the edge probes are reported, not timed: they run after the
        # peak RSS of the regular ops is read
        records += run_ops(edges, run_dir, out_dir, None, EDGE_DEADLINE_S)
    else:
        records = run_ops(regular[:plan["trace_prefix"]], run_dir, out_dir, None,
                          deadline, tracer)

    result = {"info": info, "records": records}
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        tracer.dump(os.path.join(out_dir, "spans.csv.gz"))
        result["n_spans"] = len(tracer.spans)
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
