"""Sweep harness, CSV schema, band checks, CLI subcommands, file formats."""
import math
from fractions import Fraction

import pytest

from pemlab import fileio
from pemlab.bench import (
    CSV_HEADER,
    DEFAULT_CRIT_BAND,
    DEFAULT_MISS_BAND,
    ScenarioRow,
    check_bands,
    instance,
    measure,
    parse_csv,
    parse_sweep_config,
    rows_to_csv,
    run_scenario,
    run_sweep,
)
from pemlab.cli import main
from pemlab.machine import Machine, MachineConfig, MachineFault

F = Fraction


def ok_row(algo="sort", n=256, p=2, M=256, B=8, seed=0, ratio=1.0,
           crit_path=100):
    return ScenarioRow(algo=algo, n=n, p=p, M=M, B=B, seed=seed,
                       ops=10, crit_path=crit_path, cache_misses=int(ratio),
                       block_misses=0, rounds=1, retries=0, bound=1.0,
                       ratio=ratio)


class TestSchema:
    def test_header_pinned(self):
        assert CSV_HEADER == ("algo,n,p,M,B,seed,status,ops,crit_path,"
                              "cache_misses,block_misses,rounds,retries,"
                              "bound,ratio")

    def test_csv_round_trip(self):
        rows = [ok_row(), ScenarioRow(algo="hull", n=3, p=1, M=64, B=8,
                                      seed=2, status="skipped(too small)")]
        back = parse_csv(rows_to_csv(rows))
        assert back == rows

    def test_parse_rejects_wrong_header(self):
        with pytest.raises(MachineFault):
            parse_csv("algo,n\nsort,1\n")


class TestSweepConfig:
    def test_sections_and_defaults(self):
        cfg = "# comment\n[sort]\nn = 8 16\nseed = 1 2\n[prefix]\nn = 4\n"
        parsed = parse_sweep_config(cfg)
        assert parsed[0][0] == "sort"
        assert parsed[0][1] == {"n": [8, 16], "seed": [1, 2]}
        assert parsed[1] == ("prefix", {"n": [4]})

    def test_rejects_bad_configs(self):
        with pytest.raises(MachineFault):
            parse_sweep_config("[quantum]\nn = 4\n")
        with pytest.raises(MachineFault):
            parse_sweep_config("[sort]\nq = 4\nn = 2\n")
        with pytest.raises(MachineFault):
            parse_sweep_config("[sort]\np = 1\n")  # no n
        with pytest.raises(MachineFault):
            parse_sweep_config("n = 4\n")  # key before any section
        with pytest.raises(MachineFault):
            parse_sweep_config("[sort]\nn = four\n")


class TestRunSweep:
    def test_empty_sweep_header_only(self):
        assert rows_to_csv(run_sweep("")) == CSV_HEADER + "\n"

    def test_single_sort_row_has_ratio(self):
        rows = run_sweep("[sort]\nn = 4096\np = 1\nM = 1024\nB = 8\n")
        assert len(rows) == 1
        row = rows[0]
        assert row.status == "ok"
        assert row.ratio == pytest.approx(row.cache_misses / row.bound)
        assert row.bound == pytest.approx(
            (4096 / 8) * math.log(4096) / math.log(1024))
        assert row.ratio > 0
        assert row.ops > 0 and row.crit_path > 0 and row.rounds > 0

    def test_rerun_byte_identical(self):
        cfg = ("[sort]\nn = 128 256\np = 2\nM = 256\nB = 8\nseed = 0 1\n"
               "[prefix]\nn = 200\np = 4\n[hull]\nn = 32\np = 2\nM = 256\n")
        a = rows_to_csv(run_sweep(cfg))
        b = rows_to_csv(run_sweep(cfg))
        assert a == b
        assert a.encode() == b.encode()

    def test_rows_sorted(self):
        cfg = "[sort]\nn = 256 64 128\np = 2\nM = 256\nseed = 1 0\n"
        rows = run_sweep(cfg)
        assert [r.sort_key() for r in rows] == \
            sorted(r.sort_key() for r in rows)

    def test_exported_seed_is_ignored(self, monkeypatch):
        # A sweep reads only its config: an exported PEMLAB_SEED, which
        # once replaced every seed list, leaves the rows as the config says.
        monkeypatch.setenv("PEMLAB_SEED", "9")
        rows = run_sweep("[prefix]\nn = 50\nseed = 1 2 3\n")
        assert [r.seed for r in rows] == [1, 2, 3]

    def test_skipped_rows_carry_reason(self):
        row = run_scenario("sort", 64, 1, 1, 8, 0)  # M=1: log base broken
        assert row.status.startswith("skipped(")
        assert "M >= 2" in row.status
        assert row.ratio is None and row.ops is None
        row = run_scenario("hull", 4, 1, 256, 8, 0)
        assert row.status.startswith("skipped(")
        row = run_scenario("sort", 0, 1, 256, 8, 0)
        assert row.status.startswith("skipped(")
        # skipped rows survive the CSV round trip
        text = rows_to_csv([row])
        assert parse_csv(text)[0] == row
        assert "," not in row.status  # schema keeps 15 cells exactly

    def test_unknown_algo_raises(self):
        with pytest.raises(MachineFault):
            run_scenario("quantum", 8, 1, 64, 8, 0)

    def test_prefix_bound_has_no_log(self):
        row = run_scenario("prefix", 64, 1, 1, 1, 0)  # M=1 fine here
        assert row.status == "ok"
        assert row.bound == pytest.approx(64.0)
        # the same degenerate M skips the log-based algorithms instead
        assert run_scenario("sort", 64, 1, 1, 1, 0).status.startswith(
            "skipped(")


class TestCheckBands:
    def test_constant_series_passes_tight_band(self):
        rows = [ok_row(n=64, ratio=2.0), ok_row(n=128, ratio=2.0),
                ok_row(n=256, ratio=2.0)]
        report = check_bands(rows, band=1.001)
        assert report.passed
        assert report.series[0].status == "pass"
        assert report.series[0].spread == pytest.approx(1.0)

    def test_outlier_fails_band_four(self):
        rows = [ok_row(n=64, ratio=1.0), ok_row(n=128, ratio=10.0)]
        report = check_bands(rows)  # default miss band 4
        assert report.band == DEFAULT_MISS_BAND == 4.0
        assert not report.passed
        assert "FAIL" in report.format()

    def test_insufficient_rows_inconclusive(self):
        report = check_bands([ok_row()])
        assert report.series[0].status == "inconclusive"
        assert report.passed  # inconclusive is not a failure
        assert "inconclusive" in report.format()

    def test_skipped_rows_ignored(self):
        rows = [ok_row(n=64, ratio=1.0), ok_row(n=128, ratio=1.0),
                ScenarioRow(algo="sort", n=256, p=2, M=256, B=8, seed=0,
                            status="skipped(reason)")]
        report = check_bands(rows, band=1.5)
        assert report.passed and report.series[0].count == 2

    def test_crit_metric_perfect_halving(self):
        # crit_path exactly (n/p) log2 n: normalized value is constant
        rows = [ok_row(n=1024, p=p, crit_path=(1024 // p) * 10)
                for p in (1, 2, 4, 8)]
        report = check_bands(rows, metric="crit")
        assert report.band == DEFAULT_CRIT_BAND == 2.5
        assert report.passed
        assert report.series[0].spread == pytest.approx(1.0)

    def test_crit_metric_detects_flat_path(self):
        rows = [ok_row(n=1024, p=p, crit_path=10240) for p in (1, 2, 4, 8)]
        report = check_bands(rows, metric="crit")
        assert not report.passed  # no speedup: spread is 8x

    def test_unknown_metric(self):
        with pytest.raises(MachineFault):
            check_bands([], metric="latency")


class TestCli:
    def test_sweep_and_check_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("[sort]\nn = 64 128 256\np = 2\nM = 256\nB = 8\n")
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        first = out.read_bytes()
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_bytes() == first
        assert main(["check", "--csv", str(out)]) == 0
        report = capsys.readouterr().out
        assert "PASS" in report

    def test_check_exit_code_on_failure(self, tmp_path):
        bad = [ok_row(n=64, ratio=1.0), ok_row(n=128, ratio=100.0)]
        path = tmp_path / "bad.csv"
        path.write_text(rows_to_csv(bad))
        assert main(["check", "--csv", str(path), "--band", "4"]) == 1

    def test_sort_one_shot(self, tmp_path, capsys):
        keys = tmp_path / "keys.txt"
        fileio.write_keys(keys, [5, 3, 9, 1])
        rc = main(["sort", "--n", "4", "--p", "2", "--M", "256",
                   "--keys", str(keys)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("sorted 4 keys, digest ")
        assert lines[1] == CSV_HEADER
        assert lines[2].startswith("sort,4,2,256,")

    def test_hull_one_shot_writes_vertices(self, tmp_path, capsys):
        planes = tmp_path / "planes.txt"
        fileio.write_planes(planes, [(1, 0, 4), (-1, 0, 4), (0, 1, 4),
                                     (0, -1, 4), (1, 1, 6)])
        out = tmp_path / "hull.txt"
        rc = main(["hull", "--n", "5", "--p", "2", "--M", "256",
                   "--planes", str(planes), "--out", str(out)])
        assert rc == 0
        assert fileio.read_points(out) == [
            (F(-4), F(-4)), (F(4), F(-4)), (F(4), F(2)),
            (F(2), F(4)), (F(-4), F(4))]

    def test_prefix_one_shot(self, capsys):
        rc = main(["prefix", "--n", "8", "--p", "2", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "prefix over 8 keys" in out

    def test_error_exit_code(self, tmp_path, capsys):
        rc = main(["sweep", "--config", str(tmp_path / "missing.cfg"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_non_integer_seed_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("[sort]\nn = 64\nseed = abc\n")
        rc = main(["sweep", "--config", str(cfg),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "error: non-integer value on line 3" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["hull", "--n", "64", "--p", "2", "--seed", "-2"],
        ["sort", "--n", "5000", "--p", "4", "--M", "64", "--seed", "-1"],
        ["sort", "--n", "64", "--p", "1", "--seed", "-1"],
        ["prefix", "--n", "8", "--p", "2", "--seed", "-3"],
    ])
    def test_negative_seed_is_an_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: seed must be >= 0" in captured.err
        assert captured.out == ""

    def test_negative_seed_skips_the_row(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("[sort]\nn = 64\np = 2\nM = 256\nseed = -1\n")
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        (row,) = parse_csv(out.read_text())
        assert row.seed == -1
        assert row.status == "skipped(seed must be >= 0)"
        assert "(1 skipped)" in capsys.readouterr().out

    @pytest.mark.parametrize("algo, n, p", [
        ("sort", 3000, 4), ("hull", 300, 3), ("prefix", 500, 2)])
    def test_generated_one_shot_prints_the_sweep_row(self, algo, n, p,
                                                     capsys):
        assert main([algo, "--n", str(n), "--p", str(p), "--seed", "1"]) == 0
        row = capsys.readouterr().out.splitlines()[-1]
        assert row == run_scenario(algo, n, p, 1024, 8, 1).to_csv()

    def test_sort_keys_file_prints_the_runners_row(self, tmp_path, capsys):
        words = instance("sort", 700, 2)
        keys = tmp_path / "keys.txt"
        fileio.write_keys(keys, words)
        assert main(["sort", "--n", "1", "--p", "2", "--M", "256",
                     "--seed", "5", "--keys", str(keys)]) == 0
        lines = capsys.readouterr().out.splitlines()
        machine = Machine(MachineConfig(p=2, M=256, B=8, seed=5))
        row, out = measure("sort", machine, words)
        assert lines[-1] == row.to_csv()
        assert lines[0].startswith("sorted 700 keys, digest ")
        assert machine.snapshot_memory(out) == sorted(words)

    def test_hull_below_generated_floor_is_an_error(self, capsys):
        # Below n = 5 the generator returns only its four box planes.
        assert main(["hull", "--n", "3"]) == 2
        captured = capsys.readouterr()
        assert "error: hull needs n >= 5" in captured.err
        assert captured.out == ""
        assert main(["hull", "--n", "5"]) == 0
        row = capsys.readouterr().out.splitlines()[-1]
        assert row.startswith("hull,5,1,1024,8,0,ok,")

    def test_input_file_needs_no_size(self, tmp_path, capsys):
        keys = tmp_path / "keys.txt"
        fileio.write_keys(keys, [5, 3, 9, 1])
        planes = tmp_path / "planes.txt"
        fileio.write_planes(planes, [(1, 0, 1), (-1, 0, 1), (0, 1, 1),
                                     (0, -1, 1), (1, 1, 1)])
        for argv, prefix in ((["sort", "--keys", str(keys)], "sort,4,"),
                             (["prefix", "--keys", str(keys)], "prefix,4,"),
                             (["hull", "--planes", str(planes)], "hull,5,")):
            assert main(argv + ["--p", "2", "--M", "256"]) == 0
            assert capsys.readouterr().out.splitlines()[-1].startswith(prefix)

    @pytest.mark.parametrize("algo, source", [
        ("sort", "--keys"), ("prefix", "--keys"), ("hull", "--planes")])
    def test_neither_size_nor_file_is_an_error(self, algo, source, capsys):
        assert main([algo, "--p", "2"]) == 2
        captured = capsys.readouterr()
        assert f"error: {algo} needs --n or {source}" in captured.err
        assert captured.out == ""


class TestFileio:
    def test_keys_text_round_trip(self, tmp_path):
        path = tmp_path / "k.txt"
        fileio.write_keys(path, [3, -7, 0, 2 ** 40])
        assert fileio.read_keys(path) == [3, -7, 0, 2 ** 40]

    def test_keys_binary_round_trip(self, tmp_path):
        path = tmp_path / "k.bin"
        fileio.write_keys(path, [3, -7, 0, 2 ** 40], binary=True)
        assert fileio.read_keys(path, binary=True) == [3, -7, 0, 2 ** 40]
        assert path.read_bytes()[:8] == (3).to_bytes(8, "little")

    def test_keys_errors(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x01\x02\x03")  # not a multiple of 8
        with pytest.raises(MachineFault):
            fileio.read_keys(bad, binary=True)
        badtxt = tmp_path / "bad.txt"
        badtxt.write_text("12\nseven\n")
        with pytest.raises(MachineFault):
            fileio.read_keys(badtxt)

    def test_points_and_planes_rationals(self, tmp_path):
        pts = tmp_path / "p.txt"
        fileio.write_points(pts, [(F(3, 4), F(-2)), (5, 6)])
        assert pts.read_text() == "3/4 -2\n5 6\n"
        assert fileio.read_points(pts) == [(F(3, 4), F(-2)), (F(5), F(6))]
        pls = tmp_path / "h.txt"
        fileio.write_planes(pls, [(1, F(1, 2), 3)])
        assert fileio.read_planes(pls) == [(F(1), F(1, 2), F(3))]

    def test_geometry_file_errors(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(MachineFault):
            fileio.read_points(path)  # three fields on a point line
        path.write_text("1/0 2\n")
        with pytest.raises(MachineFault):
            fileio.read_points(path)
