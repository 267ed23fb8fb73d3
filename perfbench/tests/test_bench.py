"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import oracles as O  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def work_dir():
    path = os.path.join(run.OUT, f"test-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_ops_deterministic_per_seed_and_differ_across_seeds(workload):
    a, b = workloads.build(workload, 7), workloads.build(workload, 7)
    assert a == b
    assert workloads.digest(a) == workloads.digest(b)
    assert workloads.digest(workloads.build(workload, 8)) != workloads.digest(a)
    regular = [op for op in a["ops"] if op["edge"] is None]
    assert len(regular) % workloads.N_BLOCKS[workload] == 0
    assert all(op["gen"] in a["specs"] for op in a["ops"])


def test_frac_sweep_mix():
    plan = workloads.build("frac_sweep", 3)
    edges = [op for op in plan["ops"] if op["edge"]]
    assert len(edges) == sum(n for _, n in workloads.EDGE_MIX)
    assert any(op["gen"] == "near-linear" and op["expect"] == "refusal" for op in edges)
    regular = [op for op in plan["ops"] if op["edge"] is None]
    grids = [float(a) for op in regular if op["kind"] != "product" for a in op["alphas"]]
    assert max(grids) <= 4.0 and any(g == int(g) for g in grids)
    used = [op["gen"] for op in regular]
    once = [g for g in used if g.startswith("once-")]
    assert len(once) == len(set(once)) == workloads.N_BLOCKS["frac_sweep"]
    assert any(used.count(g) > 1 for g in set(used))


def test_trace_oracle_known_values():
    assert O.trace_row(O.RIEMANN, 1)[2] == F(-1, 12)
    assert O.trace_row((F(1), F(0), F(3)), 2)[2] == 0
    assert O.trace_row((F(1), F(2)), 2)[2] == -20
    assert O.trace_row((F(1), F(2), F(3)), 2)[2] == 4


def test_trace_oracle_agrees_with_other_routes():
    from zetareg import make_generator
    from zetareg.integer_trace import trace_closed_form, trace_laurent_oracle
    coeffs = (F(3, 2), F(-2, 3), F(1, 2), F(3), F(-1, 3))
    g = make_generator(coeffs)
    for m in range(4):
        assert O.trace_row(coeffs, m)[2] == trace_closed_form(g, m)
    for m in (5, 11):
        assert O.trace_row(coeffs, m)[2] == trace_laurent_oracle(g, m)
    assert O.trace_row(coeffs, 6)[2] == O.trace_sympy(coeffs, 6)


def test_product_oracle_known_values():
    assert O.product(O.RIEMANN)[1] == pytest.approx(math.sqrt(2 * math.pi), rel=1e-15)
    want = math.sqrt(2 * math.pi) * math.exp(-math.pi / 2)
    assert O.product(O.CUBIC)[1] == pytest.approx(want, rel=1e-15)
    # the same cubic with a trailing zero takes the quadrature route
    assert O.product(O.CUBIC + (F(0),))[1] == pytest.approx(want, rel=1e-13)


def test_quadrature_oracle_matches_cubic_closed_form():
    for a in (F(-3, 4), F(1, 2), F(9, 4), F(15, 4)):
        assert abs(O.regulator(O.CUBIC + (F(0),), a) - O.regulator(O.CUBIC, a)) < 1e-15
    assert O.regulator(O.RIEMANN, F(1)) == F(-1, 12)


def test_polylog_oracle_closed_form():
    z = complex(0.5, 0.25)
    w = complex(math.e ** -z.real) * complex(math.cos(-z.imag), math.sin(-z.imag))
    assert abs(O.polylog_at(O.RIEMANN, F(1), z) - w / (1 - w) ** 2) < 1e-14


def test_hanging_op_is_a_timeout_and_later_ops_run():
    def hang():
        while True:
            pass

    t0 = time.perf_counter()
    rec = worker.run_op(hang, 0.2)
    assert rec["status"] == "timeout" and 0.2 <= rec["t_s"] < 2.0
    assert worker.run_op(lambda: 0, 1.0) == {"rc": 0, "status": "ok", "error": "",
                                            "t_s": pytest.approx(0, abs=0.1)}
    time.sleep(0.3)     # no alarm may be left armed after an op
    assert worker.run_op(lambda: time.sleep(5), 0.1)["status"] == "timeout"
    assert time.perf_counter() - t0 < 3.0
    bad = worker.run_op(lambda: 1 / 0, 1.0)
    assert bad["status"] == "raised" and "ZeroDivisionError" in bad["error"]


def _frac_op(alphas):
    grid = f"{alphas[0]}:{alphas[-1]}:0.25"
    return {"id": 0, "kind": "frac", "gen": "cubic-odd", "argv": ["frac", f"--alpha-grid={grid}"],
            "expect": "value", "values": len(alphas), "edge": None, "alphas": alphas}


def _cli_output(op, spec, work_dir):
    from zetareg import cli
    path = os.path.join(work_dir, "spec.json")
    with open(path, "w") as fh:
        json.dump(spec, fh)
    out = os.path.join(work_dir, "out.csv")
    assert cli.main(op["argv"] + ["--generator", path, "--out", out]) == 0
    with open(out) as fh:
        return fh.read()


def test_wrong_values_are_failures(work_dir):
    spec = {"name": "cubic-odd", "inv_h": ["1", "0", "3"], "polynomial": True}
    op = _frac_op(["0.5", "0.75", "1.0"])
    op["argv"].append("--crosscheck")
    text = _cli_output(op, spec, work_dir)
    ok = {"status": "ok", "rc": 0, "error": "", "stderr": ""}
    good = check.check_op(op, spec, ok, text, 1)
    assert good["status"] == "pass" and min(good["digits"]) > 11
    lines = text.splitlines()
    fields = lines[1].split(",")
    fields[1] = repr(float(fields[1]) * (1 + 1e-9))
    lines[1] = ",".join(fields)
    bad = check.check_op(op, spec, ok, "\n".join(lines) + "\n", 1)
    assert bad["status"] == "wrong"
    # NaN compares False with any bound: a NaN value, error estimate or
    # cross-check delta must still fail
    header = lines[0].split(",")
    for column in ("re_total", "err_estimate", "crosscheck_delta"):
        fields = text.splitlines()[1].split(",")
        fields[header.index(column)] = "nan"
        nan_text = "\n".join([lines[0], ",".join(fields)] + text.splitlines()[2:]) + "\n"
        res = check.check_op(op, spec, ok, nan_text, 1)
        assert res["status"] == "wrong" and "nan" in res["detail"], column
    # an exact integer point must be exact: the integer snap shows as wrong
    snap = _frac_op(["1.0001"])
    snap["argv"] = ["frac", "--alpha-grid=1.0001:1.0001:1"]
    res = check.check_op(snap, spec, ok, _cli_output(snap, spec, work_dir), 1)
    assert res["status"] == "wrong"


def test_wrong_trace_rows_are_failures(work_dir):
    spec = {"name": "rat", "inv_h": ["2", "-1/2", "3"], "polynomial": False}
    op = {"id": 0, "kind": "trace", "gen": "rat", "argv": ["trace", "--m-range=0..9"],
          "expect": "value", "values": 10, "edge": None, "m_hi": 9}
    text = _cli_output(op, spec, work_dir)
    ok = {"status": "ok", "rc": 0, "error": "", "stderr": ""}
    assert check.check_op(op, spec, ok, text, 1)["status"] == "pass"
    lines = text.splitlines()
    m, zeta, corr, total = lines[6].split(",")
    lines[6] = ",".join([m, zeta, str(F(corr) + F(1, 10**30)), total])
    assert check.check_op(op, spec, ok, "\n".join(lines) + "\n", 1)["status"] == "wrong"


def test_refusals_are_checked():
    op = {"id": 0, "kind": "frac", "gen": "near-linear", "expect": "refusal",
          "argv": ["frac"], "values": 0, "edge": "non_hankel", "alphas": ["-0.5"]}
    rec = {"status": "ok", "rc": 0, "error": "", "stderr": ""}
    assert check.check_op(op, None, rec, "", 1)["status"] == "not_refused"
    assert check.check_op(op, None, dict(rec, rc=3), None, 1)["status"] == "pass"
    assert check.check_op(op, None, dict(rec, rc=2), None, 1)["status"] == "raised"
    timeout = dict(rec, status="timeout", rc=None)
    assert check.check_op(op, None, timeout, None, 1)["status"] == "timeout"


def _mini_plan():
    """Two regular ops of each workload, with their specs, as one plan."""
    ops, specs = [], {}
    for wl in workloads.WORKLOADS:
        plan = workloads.build(wl, 5)
        picks = [op for op in plan["ops"] if op["edge"] is None
                 and op.get("m_hi", 0) <= 20 and op.get("n", 0) <= 81][:2]
        for op in picks:
            ops.append(dict(op, id=len(ops)))
            specs[op["gen"]] = plan["specs"][op["gen"]]
    return {"workload": "branch_grid", "seed": 5, "ops": ops, "specs": specs,
            "trace_prefix": len(ops)}


def test_tracing_keeps_outputs_identical_and_reports_layers(work_dir):
    import tracer
    plan = _mini_plan()
    run._write_plan(plan, os.path.join(work_dir, "run"))
    plain = run.run_worker(os.path.join(work_dir, "run"), "prefix")
    traced = run.run_worker(os.path.join(work_dir, "run"), "traced")
    assert [r["sha"] for r in plain["records"]] == [r["sha"] for r in traced["records"]]
    assert all(r["status"] == "ok" and r["rc"] == 0 for r in traced["records"])
    layers = traced["per_layer"]
    assert set(layers) == {n for n, _, _ in tracer.PER_LAYER if not n.startswith("tracing.")}
    for key in ("cli.main.self_s", "contour.branch_map.calls", "integer_trace.trace_integer.calls",
                "quadrature.adaptive_quadrature.evals", "series.cpow_complex.calls"):
        assert layers[key] > 0, key
    checks = run.check_records(plan, traced["records"])
    assert [c["status"] for c in checks] == ["pass"] * len(plan["ops"])
    # a timed run that reaches the end of the op list stops there
    timed = run.run_worker(os.path.join(work_dir, "run"), "timed", seconds=60)
    assert [r["id"] for r in timed["records"]] == [op["id"] for op in plan["ops"]]
    assert timed["info"]["exhausted"]


def test_fails_without_program_sources(work_dir):
    shutil.copytree(BENCH, os.path.join(work_dir, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), work_dir)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "frac_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=work_dir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
