"""CLI surface: CSV formats, exit codes, determinism, verify report."""

import argparse
import json
from fractions import Fraction
from pathlib import Path

import pytest

from zetareg.cli import build_parser, main, parse_alpha_grid, parse_grid, parse_m_range
from zetareg.generator import load_generator
from zetareg.verify import check_bernoulli_expansion

DEMO_SPECS = sorted((Path(__file__).resolve().parents[1] / "demos" / "generators").glob("*.json"))


@pytest.fixture
def cubic_spec(tmp_path):
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(
        {"name": "cubic", "inv_h": ["1", "0", "3"], "polynomial": True}))
    return str(path)


@pytest.fixture
def linear_spec(tmp_path):
    path = tmp_path / "linear.json"
    path.write_text(json.dumps(
        {"name": "linear", "inv_h": ["1", "2"], "polynomial": True}))
    return str(path)


class TestParsers:
    def test_alpha_grid(self):
        assert parse_alpha_grid("0:1:0.5") == [0.0, 0.5, 1.0]
        assert len(parse_alpha_grid("-0.5:2.5:0.25")) == 13

    def test_m_range(self):
        assert parse_m_range("0..3") == [0, 1, 2, 3]

    def test_grid(self):
        assert parse_grid("-3:3:-2:2:10:5") == (-3.0, 3.0, -2.0, 2.0, 10, 5)

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            parse_alpha_grid("1:0:0.5")
        with pytest.raises(ValueError):
            parse_m_range("3..1")
        with pytest.raises(ValueError):
            parse_grid("-3:3:-2:2:0:5")

    def test_options_only_where_they_act(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        opts = {name: {o for a in p._actions for o in a.option_strings}
                for name, p in sub.choices.items()}
        assert {n for n, o in opts.items() if "--tol" in o} == {"frac", "zeta", "branchmap"}
        assert {n for n, o in opts.items() if "--rho" in o} == {"frac"}
        assert {n for n, o in opts.items() if "--generator" not in o} == {"stirling"}
        assert all("--out" in o for o in opts.values())


class TestTrace:
    def test_exact_rationals(self, cubic_spec, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        rc = main(["trace", "--generator", cubic_spec, "--m-range", "0..3",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,zeta_part,correction,total"
        assert lines[1] == "0,-1/2,0,-1/2"
        assert lines[2] == "1,-1/12,-2,-25/12"
        assert lines[3] == "2,0,0,0"
        assert lines[4] == "3,1/120,60,7201/120"

    def test_linear_triple(self, linear_spec, tmp_path):
        out = tmp_path / "t.csv"
        main(["trace", "--generator", linear_spec, "--m-range", "0..2",
              "--out", str(out)])
        assert out.read_text().splitlines()[-1].endswith(",-20")

    def test_riemann_default_generator(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["trace", "--m-range", "0..3", "--out", str(out)])
        totals = [ln.split(",")[-1] for ln in out.read_text().splitlines()[1:]]
        assert totals == ["-1/2", "-1/12", "0", "1/120"]

    def test_row_count_matches_range(self, cubic_spec, tmp_path):
        out = tmp_path / "t.csv"
        main(["trace", "--generator", cubic_spec, "--m-range", "0..6",
              "--out", str(out)])
        assert len(out.read_text().splitlines()) == 8

    @pytest.mark.parametrize("spec", DEMO_SPECS, ids=lambda p: p.stem)
    def test_demo_rows_match_laurent_route(self, spec, tmp_path, laurent_traces):
        out = tmp_path / "t.csv"
        assert main(["trace", "--generator", str(spec), "--m-range", "0..60",
                     "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        want = laurent_traces(load_generator(spec), 60)
        assert [int(r[0]) for r in rows] == list(range(61))
        assert [Fraction(r[3]) for r in rows] == want
        assert all(Fraction(r[1]) + Fraction(r[2]) == Fraction(r[3]) for r in rows)


class TestFrac:
    def test_route_switches_at_integers(self, cubic_spec, tmp_path):
        out = tmp_path / "f.csv"
        rc = main(["frac", "--generator", cubic_spec,
                   "--alpha-grid", "0.5:1.5:0.5", "--out", str(out)])
        assert rc == 0
        routes = [ln.split(",")[3] for ln in out.read_text().splitlines()[1:]]
        assert routes == ["fp_mellin", "integer_formula", "fp_mellin"]

    def test_crosscheck_column(self, cubic_spec, tmp_path):
        out = tmp_path / "f.csv"
        main(["frac", "--generator", cubic_spec, "--alpha-grid", "0.5:0.5:1",
              "--crosscheck", "--out", str(out)])
        row = out.read_text().splitlines()[1].split(",")
        assert row[3] == "fp_mellin"
        assert float(row[5]) <= 1e-7

    def test_hankel_failure_exit_code(self, linear_spec, tmp_path):
        rc = main(["frac", "--generator", linear_spec,
                   "--alpha-grid", "0.5:0.5:1", "--out", str(tmp_path / "f.csv")])
        assert rc == 3

    def test_row_count(self, cubic_spec, tmp_path):
        out = tmp_path / "f.csv"
        main(["frac", "--generator", cubic_spec, "--alpha-grid=-0.5:2.5:0.25",
              "--out", str(out)])
        assert len(out.read_text().splitlines()) == 1 + 13

    def test_determinism(self, cubic_spec, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["frac", "--generator", cubic_spec, "--alpha-grid", "0.3:1.3:0.5"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestFermion:
    def test_three_classifications(self, tmp_path):
        cases = [
            (["1", "0", "3"], "0", "zero"),
            (["1", "2"], "-20", "repulsive"),
            (["1", "2", "3"], "4", "restoring"),
        ]
        for coeffs, total, kind in cases:
            spec = tmp_path / "g.json"
            spec.write_text(json.dumps(
                {"name": "g", "inv_h": coeffs, "polynomial": True}))
            out = tmp_path / "fermion.csv"
            rc = main(["fermion", "--generator", str(spec), "--out", str(out)])
            assert rc == 0
            row = out.read_text().splitlines()[1].split(",")
            assert row[1] == total and row[3] == kind

    def test_riemann_zero_force(self, tmp_path):
        out = tmp_path / "fermion.csv"
        main(["fermion", "--out", str(out)])
        assert out.read_text().splitlines()[1].split(",")[3] == "zero"

    def test_stiffness_scaling(self, tmp_path):
        spec = tmp_path / "g.json"
        spec.write_text(json.dumps(
            {"name": "g", "inv_h": ["1", "2", "3"], "polynomial": True}))
        out = tmp_path / "f.csv"
        main(["fermion", "--generator", str(spec), "--planck-h", "2.0",
              "--mass", "4.0", "--box-length", "1.0", "--out", str(out)])
        stiffness = float(out.read_text().splitlines()[1].split(",")[2])
        assert stiffness == pytest.approx(48.0 * 4.0 / 4.0 * 4.0)


class TestZetaAndProduct:
    def test_zeta_csv(self, tmp_path):
        out = tmp_path / "z.csv"
        rc = main(["zeta", "--alpha-grid", "0:0.5:0.5", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "alpha,re_value,im_value"
        assert float(rows[1].split(",")[1]) == -0.5

    def test_product_csv(self, cubic_spec, tmp_path):
        import math
        out = tmp_path / "p.csv"
        rc = main(["product", "--generator", cubic_spec, "--out", str(out)])
        assert rc == 0
        product = float(out.read_text().splitlines()[1].split(",")[2])
        assert product == pytest.approx(
            math.sqrt(2 * math.pi) * math.exp(-math.pi / 2), abs=1e-6)


class TestStirlingAndBranchmap:
    def test_stirling_table(self, tmp_path):
        import math
        out = tmp_path / "s.csv"
        rc = main(["stirling", "--alpha", "0.5", "--k-max", "3", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 4
        assert float(rows[2].split(",")[2]) == pytest.approx(
            (math.sqrt(2) - 2) / 2, abs=1e-13)

    def test_branchmap_dimensions(self, cubic_spec, tmp_path):
        out = tmp_path / "map.csv"
        rc = main(["branchmap", "--generator", cubic_spec, "--alpha", "0.5",
                   "--grid=-2:2:-2:2:9:7", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "re,im,abs,arg,defined"
        assert len(rows) == 1 + 9 * 7


class TestVerify:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["verify", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["passed"] and report["counts"]["fail"] == 0

    def test_hankel_failure_reported_as_skip(self, linear_spec, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["verify", "--generator", linear_spec, "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        skips = {c["name"]: c for c in report["checks"] if c["status"] == "skip"}
        assert "generator_fractional_routes" in skips
        assert "Hankel" in skips["generator_fractional_routes"]["detail"]

    def test_sabotaged_bernoulli_fails(self):
        from fractions import Fraction
        from zetareg.special import bernoulli_values
        bad = list(bernoulli_values(20))
        bad[4] = Fraction(1, 7)  # wrong B_4
        result = check_bernoulli_expansion(tuple(bad))
        assert result.status == "fail"


class TestErrors:
    def test_malformed_generator_exit_2(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"name": "bad", "inv_h": ["1/x"]}))
        assert main(["trace", "--generator", str(spec), "--m-range", "0..1"]) == 2

    def test_missing_file_exit_2(self):
        assert main(["trace", "--generator", "/nonexistent.json"]) == 2

    def test_nonpositive_constant_exit_2(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"name": "bad", "inv_h": ["-1", "2"]}))
        assert main(["trace", "--generator", str(spec)]) == 2

    def test_nonfinite_quadrature_exit_3(self, capsys):
        # Z(0.95) = R(-0.95): the mapped [1, inf) panels shrink until a/u**2
        # overflows and the error estimate turns NaN
        with pytest.warns(RuntimeWarning):
            assert main(["zeta", "--alpha-grid=0.95:0.95:1"]) == 3
        assert capsys.readouterr().err.startswith("error: quadrature")

    def test_overflow_exit_3(self, cubic_spec, tmp_path, capsys):
        rc = main(["branchmap", "--generator", cubic_spec, "--alpha", "100.5",
                   "--grid=-3:3:-3:3:41:41", "--out", str(tmp_path / "map.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_out_of_region_exit_3(self, cubic_spec):
        assert main(["frac", "--generator", cubic_spec,
                     "--alpha-grid=-1.5:-1.5:1"]) == 3
