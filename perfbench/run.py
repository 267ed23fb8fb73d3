"""zetareg benchmark: seeded closed-loop workloads over the ``zetareg`` CLI.

    python3 perfbench/run.py --workload frac_sweep --seed 1 --seconds 24 --trace 0
    python3 -m pytest perfbench/tests -q        # the benchmark's own tests

Run from the root of a zetareg source checkout; the program is imported
from ``src/``.  Workloads (see ``workloads.py``):

* ``frac_sweep``  -- ``frac --crosscheck``, ``zeta`` and ``product`` over the
  demo Hankel specs plus seeded random Hankel polynomials, some repeated and
  some one-off; afterwards a fixed set of edge probes (integer snap, h = 1
  near alpha = -1, large alpha and a steep generator, non-Hankel specs that
  must be refused), which are reported but not gated;
* ``exact_traces`` -- ``trace --m-range 0..M`` (M up to 60) and ``fermion``
  on seeded rational generators of degree 0..6, some of them series-only;
* ``branch_grid`` -- ``branchmap`` on the demo generators over windows and
  sizes 61^2..161^2, at seeded alphas (two in seven of them integers).

One client calls ``zetareg.cli.main`` in process, one op after another, in a
fresh interpreter with BLAS/OpenMP threads pinned to 1.  Every output is
checked against an independent oracle (``oracles.py``, ``check.py``)
afterwards, outside the timed region.

``--trace 0`` runs regular ops for ``--seconds`` and prints the end-to-end
metrics; ``--trace 1`` runs a fixed prefix of the op list once untraced and
once with spans (``tracer.py``), each in a fresh interpreter, and prints the
per-layer metrics and the tracing overhead.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}; the lines before
it are a readable summary, and the run record (versions, nproc, CPU, seed,
op-list hash, unscaled times, failure breakdown, edge probes) and the spans
go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path[:0] = [HERE, SRC]   # the checks cross-check with the library's own trace routes

import workloads  # noqa: E402

SETUP_LAUNCHES = 7
# Times are scaled to a host on which worker.calibrate() takes CAL_REF_S:
# t * CAL_REF_S / c, with c the calibration measured around that op (the
# median over its neighbours).  On a shared host whose speed swings by tens
# of percent over seconds to minutes this cancels the swing; the unscaled
# times are kept in the run record.
CAL_REF_S = 0.002
CAL_WINDOW = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# end-to-end metrics: name -> unit
END_TO_END = {"values_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "min_digits": "digits", "setup_s": "s", "peak_rss_mib": "MiB"}
FAILURE_KINDS = ("raised", "timeout", "wrong", "not_refused")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _python(args: list, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable] + args, env=_env(), cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _write_plan(plan: dict, run_dir: str):
    spec_dir = os.path.join(run_dir, "specs")
    os.makedirs(spec_dir)
    for name, spec in plan["specs"].items():
        with open(os.path.join(spec_dir, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
    with open(os.path.join(run_dir, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh)


def measure_setup(run_dir: str, launches: int) -> tuple:
    """Wall times of fresh interpreters that import zetareg and load every
    generator spec of the workload (after one unmeasured launch), with the
    calibration measured around each."""
    from worker import calibrate
    code = ("import glob, sys; import zetareg; from zetareg.generator import load_generator; "
            "[load_generator(p) for p in sorted(glob.glob(sys.argv[1] + '/*.json'))]")
    times, cals = [], []
    for i in range(launches + 1):
        before = calibrate()
        t0 = time.perf_counter()
        proc = _python(["-c", code, os.path.join(run_dir, "specs")], timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up launch failed: {proc.stderr.strip()[-500:]}")
        if i:
            times.append(dt)
            cals.append(statistics.median([before, calibrate(), calibrate()]))
    return times, cals


def run_worker(run_dir: str, mode: str, seconds: float | None = None) -> dict:
    """Run worker.py in a fresh interpreter; each record gets the directory
    holding its output as ``dir``."""
    args = [os.path.join(HERE, "worker.py"), run_dir, mode]
    if seconds is not None:
        args.append(str(seconds))
    proc = _python(args, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) failed: {proc.stderr.strip()[-2000:]}")
    out_dir = os.path.join(run_dir, mode)
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    for rec in result["records"]:
        rec["dir"] = out_dir
    src_pkg = os.path.join(SRC, "zetareg")
    if os.path.dirname(os.path.abspath(result["info"]["zetareg_file"])) != src_pkg:
        raise RuntimeError(f"worker imported zetareg from {result['info']['zetareg_file']}")
    return result


def check_records(plan: dict, records: list) -> list:
    """Check every executed op against its oracle."""
    import check
    ops = {op["id"]: op for op in plan["ops"]}
    results = []
    for rec in records:
        op = ops[rec["id"]]
        text = None
        if rec["sha"]:
            path = os.path.join(rec["dir"], f"op-{rec['id']}-{rec['sha'][:12]}.out")
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        spec = plan["specs"].get(op["gen"]) if op["gen"] else None
        results.append(check.check_op(op, spec, rec, text, plan["seed"]))
    return results


def scaled_times(records: list) -> list:
    """Each op's latency scaled to the reference host speed."""
    cals = [r["cal_s"][0] for r in records] + ([records[-1]["cal_s"][1]] if records else [])
    out = []
    for i, rec in enumerate(records):
        local = statistics.median(cals[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 2])
        out.append(rec["t_s"] * CAL_REF_S / local)
    return out


def op_stats(plan: dict, records: list, checks: list, times: list | None = None) -> dict:
    """Latency, throughput, failures and digits over the records given;
    ``times`` (seconds per record) default to the raw latencies."""
    ops = {op["id"]: op for op in plan["ops"]}
    times = [r["t_s"] for r in records] if times is None else times
    lat = sorted(t * 1e3 for t in times)
    n = len(lat)
    fails = {k: 0 for k in FAILURE_KINDS}
    for c in checks:
        if c["status"] != "pass":
            fails[c["status"]] += 1
    values = sum(ops[r["id"]]["values"] for r, c in zip(records, checks) if c["status"] == "pass")
    busy = sum(times)
    passed_digits = [d for c in checks if c["status"] == "pass" for d in c["digits"]]
    # the highest percentile with at least ten ops beyond it: the 11th
    # largest latency, at percentile 100 * (n - 10) / n (the largest if n <= 10)
    tail_rank = n - 11 if n > 10 else n - 1
    return {
        "ops": n,
        "values": values,
        "values_per_s": values / busy if busy else 0.0,
        "op_p50_ms": statistics.median(lat) if lat else 0.0,
        "op_tail_ms": lat[tail_rank] if lat else 0.0,
        "op_tail_pct": 100.0 * (tail_rank + 1) / n if n else 0.0,
        "failed": sum(fails.values()),
        "failed_frac": sum(fails.values()) / n if n else 0.0,
        "failures": fails,
        "min_digits": min(passed_digits) if passed_digits else 0.0,
        "busy_s": busy,
    }


def _edge_report(plan: dict, records: list, checks: list) -> dict:
    ops = {op["id"]: op for op in plan["ops"]}
    report = {}
    for rec, chk in zip(records, checks):
        op = ops[rec["id"]]
        cls = report.setdefault(op["edge"], {"attempted": 0, "failed": 0, "causes": {}})
        cls["attempted"] += 1
        if chk["status"] != "pass":
            cls["failed"] += 1
            cls["causes"][chk["status"]] = cls["causes"].get(chk["status"], 0) + 1
    return report


def _machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": sys.platform}


def _split(plan: dict, result: dict):
    ops = {op["id"]: op for op in plan["ops"]}
    regular = [r for r in result["records"] if ops[r["id"]]["edge"] is None]
    edges = [r for r in result["records"] if ops[r["id"]]["edge"] is not None]
    return regular, edges


def timed_run(plan: dict, run_dir: str, seconds: int) -> tuple:
    setup, setup_cals = measure_setup(run_dir, SETUP_LAUNCHES)
    result = run_worker(run_dir, "timed", seconds=seconds)
    records, edges = _split(plan, result)
    t0 = time.perf_counter()
    checks = check_records(plan, records)
    edge_checks = check_records(plan, edges)
    check_s = time.perf_counter() - t0
    # metrics over the whole blocks run, so every seed has the same mix
    n = len(records)
    if n >= plan["block"]:
        n -= n % plan["block"]
    times = scaled_times(records)[:n]
    stats = op_stats(plan, records[:n], checks[:n], times)
    raw = op_stats(plan, records[:n], checks[:n])
    all_stats = op_stats(plan, records + edges, checks + edge_checks)
    stats["attempted"] = len(records)
    stats["failed"] = sum(c["status"] != "pass" for c in checks)
    setup_scaled = [t * CAL_REF_S / c for t, c in zip(setup, setup_cals)]
    metrics = {
        "values_per_s": stats["values_per_s"],
        "op_p50_ms": stats["op_p50_ms"],
        "op_tail_ms": stats["op_tail_ms"],
        "min_digits": stats["min_digits"],
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mib": result["info"]["peak_rss_mib"],
    }
    record = {
        "info": result["info"], "setup_launches_s": setup, "setup_cal_s": setup_cals,
        "scaled": stats, "raw": raw, "raw_setup_s": statistics.median(setup),
        "cal_ref_s": CAL_REF_S, "scaled_ms": [t * 1e3 for t in times], "check_s": check_s,
        "all_ops": all_stats,
        "edge_probes": _edge_report(plan, edges, edge_checks),
        "failures": [dict(id=r["id"], **c) for r, c in zip(records + edges, checks + edge_checks)
                     if c["status"] != "pass"],
    }
    lines = [f"{name:<14} {metrics[name]:.6g} {unit}" for name, unit in END_TO_END.items()]
    lines.insert(3, f"{'':<14} (op_tail_ms is p{stats['op_tail_pct']:.1f} of {stats['ops']} ops)")
    lines.append(f"{'unscaled':<14} values_per_s {raw['values_per_s']:.6g}, op_p50_ms "
                 f"{raw['op_p50_ms']:.6g}, op_tail_ms {raw['op_tail_ms']:.6g}, setup_s "
                 f"{record['raw_setup_s']:.6g} "
                 f"(times scaled to calibrate() = {CAL_REF_S * 1e3} ms)")
    if result["info"]["exhausted"]:
        lines.append(f"warning: all {len(records)} regular ops ran before {seconds} s had "
                     "passed; the workload needs a longer op list")
    f = all_stats["failures"]
    lines.append(f"{'failed_frac':<14} {all_stats['failed_frac']:.6g} ratio "
                 f"({all_stats['failed']}/{all_stats['ops']} ops: "
                 + ", ".join(f"{k} {f[k]}" for k in FAILURE_KINDS)
                 + f"; regular ops {stats['failed']}/{stats['attempted']} failed)")
    for cls, rep in record["edge_probes"].items():
        causes = ", ".join(f"{k} {v}" for k, v in sorted(rep["causes"].items())) or "none"
        lines.append(f"  edge probe {cls:<15} {rep['failed']}/{rep['attempted']} failed ({causes})")
    return metrics, stats, record, lines


def traced_run(plan: dict, run_dir: str) -> tuple:
    import tracer
    plain = run_worker(run_dir, "prefix")
    traced = run_worker(run_dir, "traced")
    plain_checks = check_records(plan, plain["records"])
    t_regular = traced["records"]
    t_checks = check_records(plan, t_regular)
    same = [a["sha"] == b["sha"] for a, b in zip(plain["records"], t_regular)]
    identical = len(same) == len(t_regular) and all(same)
    s0 = op_stats(plan, plain["records"], plain_checks, scaled_times(plain["records"]))
    s1 = op_stats(plan, t_regular, t_checks, scaled_times(t_regular))
    metrics = dict(traced["per_layer"])
    metrics["tracing.op_p50_ms_delta"] = s1["op_p50_ms"] - s0["op_p50_ms"]
    metrics["tracing.values_per_s_delta"] = s1["values_per_s"] - s0["values_per_s"]
    metrics["tracing.op_s_ratio"] = s1["busy_s"] / s0["busy_s"] if s0["busy_s"] else 0.0
    record = {"info": traced["info"], "untraced": s0, "traced": s1,
              "outputs_identical": identical, "n_spans": traced["n_spans"]}
    units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    lines = [f"{name:<50} {value:.6g} {units[name]}" for name, value in metrics.items()]
    lines.append(f"outputs byte-identical with tracing on and off: {identical}")
    s1["attempted"] = s1["ops"]
    if not identical:
        s1["failed"] += 1
    return metrics, s1, record, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "zetareg", "cli.py")):
        print(f"error: no zetareg sources under {SRC}; run from a zetareg checkout",
              file=sys.stderr)
        return 2

    plan = workloads.build(args.workload, args.seed)
    run_dir = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        _write_plan(plan, run_dir)
        if args.trace:
            metrics, stats, record, lines = traced_run(plan, run_dir)
        else:
            metrics, stats, record, lines = timed_run(plan, run_dir, args.seconds)
        record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, ops_digest=workloads.digest(plan), machine=_machine(),
                      metrics=metrics)
        with open(run_dir + ".json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        spans = os.path.join(run_dir, "traced", "spans.csv.gz")
        if os.path.exists(spans):
            os.replace(spans, run_dir + "-spans.csv.gz")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = dict(END_TO_END)
    if args.trace:
        import tracer
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    print(f"zetareg benchmark: workload {args.workload}, seed {args.seed}, "
          f"ops {workloads.digest(plan)}, trace {args.trace}")
    for line in lines:
        print(line)
    failed = stats["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": stats["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
