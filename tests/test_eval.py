import json
import math

import numpy as np
import pytest

from meshslam.ate import (
    TRAJECTORY_HEADER,
    TooFewAssociationsError,
    TrajectoryFormatError,
    compute_ate,
    load_trajectory_csv,
    trajectory_from_csv,
    trajectory_to_csv,
)
from meshslam.cli import main as cli_main
from meshslam.geometry import Rotation, Sim3Transform, vec3


def synthetic_rows(rng, agents=(0, 1), n=50, noise=0.0):
    """Helical trajectories; curved so similarity alignment is well posed."""
    rows = []
    for aid in agents:
        base = rng.uniform(-5, 5, 3)
        radius = rng.uniform(1.0, 3.0)
        for k in range(n):
            t = 0.1 * (k + 1)
            angle = 0.15 * k
            pos = base + np.array([radius * math.cos(angle),
                                   radius * math.sin(angle),
                                   0.05 * k]) + rng.normal(0, noise, 3)
            quat = np.array([1.0, 0.0, 0.0, 0.0])
            rows.append((t, aid, pos, quat))
    return rows


class TestComputeAte:
    def test_identical_zero(self):
        rng = np.random.default_rng(0)
        rows = synthetic_rows(rng)
        rep = compute_ate(rows, rows)
        assert rep.rms_m < 1e-12
        assert rep.n_pairs == len(rows)

    def test_similarity_transform_absorbed(self):
        rng = np.random.default_rng(1)
        gt = synthetic_rows(rng)
        t = Sim3Transform(2.0, Rotation.from_axis_angle(vec3(0, 0, 1), 0.9),
                          vec3(4, -2, 1))
        est = [(r[0], r[1], t.apply(r[2]), r[3]) for r in gt]
        rep = compute_ate(est, gt)
        assert rep.rms_m < 1e-9

    def test_any_extra_transform_leaves_rms_unchanged(self):
        rng = np.random.default_rng(2)
        gt = synthetic_rows(rng, noise=0.0)
        est = [(r[0], r[1], r[2] + rng.normal(0, 0.05, 3), r[3]) for r in gt]
        base = compute_ate(est, gt).rms_m
        extra = Sim3Transform(0.7, Rotation.from_axis_angle(vec3(0, 1, 0), 1.2),
                              vec3(-3, 5, 2))
        moved = [(r[0], r[1], extra.apply(r[2]), r[3]) for r in est]
        assert abs(compute_ate(moved, gt).rms_m - base) < 1e-9

    def test_gaussian_noise_rms_statistics(self):
        rng = np.random.default_rng(3)
        gt = synthetic_rows(rng, agents=(0,), n=1000)
        sigma = 0.01
        est = [(r[0], r[1], r[2] + rng.normal(0, sigma, 3), r[3]) for r in gt]
        rep = compute_ate(est, gt)
        assert abs(rep.rms_m - sigma * math.sqrt(3)) / (sigma * math.sqrt(3)) < 0.10

    def test_too_few_pairs(self):
        rows = [(0.1, 0, np.zeros(3), np.array([1.0, 0, 0, 0]))]
        with pytest.raises(TooFewAssociationsError):
            compute_ate(rows, rows)

    def test_association_window(self):
        rng = np.random.default_rng(10)
        gt = synthetic_rows(rng, agents=(0,))
        est = [(t + 0.019, a, p, q) for t, a, p, q in gt]  # inside 20 ms
        assert compute_ate(est, gt).n_pairs == len(gt)
        est_far = [(t + 0.05, a, p, q) for t, a, p, q in gt]  # outside
        with pytest.raises(TooFewAssociationsError):
            compute_ate(est_far, gt)

    def test_rms_matches_error_list(self):
        rng = np.random.default_rng(4)
        gt = synthetic_rows(rng)
        est = [(r[0], r[1], r[2] + rng.normal(0, 0.02, 3), r[3]) for r in gt]
        rep = compute_ate(est, gt)
        assert rep.rms_m == pytest.approx(
            float(np.sqrt(np.mean(rep.errors ** 2))), abs=0)

    def test_length_is_gt_segment_sum(self):
        rng = np.random.default_rng(11)
        gt = synthetic_rows(rng, agents=(0,), n=10)
        pts = np.array([r[2] for r in gt])
        expected = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
        rep = compute_ate(gt, gt)
        assert rep.length_m == pytest.approx(expected)


class TestTrajectoryCsv:
    def test_round_trip_lossless(self):
        rng = np.random.default_rng(5)
        rows = synthetic_rows(rng, noise=0.123456789)
        text = trajectory_to_csv(rows)
        back = trajectory_from_csv(text)
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert a[0] == b[0] and a[1] == b[1]
            assert np.array_equal(a[2], b[2])
            assert np.array_equal(a[3], b[3])

    def test_header_mismatch_names_columns(self):
        with pytest.raises(TrajectoryFormatError, match="missing columns"):
            trajectory_from_csv("timestamp,agent_id,x,y\n0.1,0,1,2\n")

    def test_empty_file(self):
        with pytest.raises(TrajectoryFormatError):
            trajectory_from_csv("")


class TestCli:
    def write_pair(self, tmp_path, rng):
        gt = synthetic_rows(rng)
        est = [(r[0], r[1], r[2] + rng.normal(0, 0.01, 3), r[3]) for r in gt]
        est_p = tmp_path / "est.csv"
        gt_p = tmp_path / "gt.csv"
        est_p.write_text(trajectory_to_csv(est))
        gt_p.write_text(trajectory_to_csv(gt))
        return str(est_p), str(gt_p)

    def test_eval_command(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        est_p, gt_p = self.write_pair(tmp_path, rng)
        json_p = str(tmp_path / "report.json")
        code = cli_main(["eval", "--est", est_p, "--gt", gt_p, "--json", json_p])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"rms_m", "length_m", "n_pairs", "alignment"}
        with open(json_p) as fh:
            assert json.load(fh)["n_pairs"] == out["n_pairs"]

    def test_eval_identical_zero(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        _, gt_p = self.write_pair(tmp_path, rng)
        code = cli_main(["eval", "--est", gt_p, "--gt", gt_p])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["rms_m"] < 1e-12

    def test_eval_matches_compute_ate(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        est_p, gt_p = self.write_pair(tmp_path, rng)
        cli_main(["eval", "--est", est_p, "--gt", gt_p])
        out = json.loads(capsys.readouterr().out)
        rep = compute_ate(load_trajectory_csv(est_p), load_trajectory_csv(gt_p))
        assert out["rms_m"] == rep.rms_m

    def test_eval_single_row_error(self, tmp_path, capsys):
        p = tmp_path / "one.csv"
        p.write_text(trajectory_to_csv(
            [(0.1, 0, np.zeros(3), np.array([1.0, 0, 0, 0]))]))
        code = cli_main(["eval", "--est", str(p), "--gt", str(p)])
        assert code == 2
        assert "pose pairs" in capsys.readouterr().err

    def test_eval_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,agent,x,y,z\n")
        good = tmp_path / "good.csv"
        good.write_text(trajectory_to_csv(synthetic_rows(np.random.default_rng(9))))
        code = cli_main(["eval", "--est", str(bad), "--gt", str(good)])
        assert code == 2
        assert "missing columns" in capsys.readouterr().err

    def bad_field(self, tmp_path, column, value):
        rows = synthetic_rows(np.random.default_rng(12))
        lines = trajectory_to_csv(rows).splitlines()
        fields = lines[3].split(",")
        fields[TRAJECTORY_HEADER.index(column)] = value
        lines[3] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        good = tmp_path / "good.csv"
        good.write_text(trajectory_to_csv(rows))
        return str(bad), str(good)

    def test_eval_non_numeric_field(self, tmp_path, capsys):
        bad, good = self.bad_field(tmp_path, "y", "abc")
        code = cli_main(["eval", "--est", bad, "--gt", good])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: line 4:")
        assert "'abc'" in captured.err

    def test_eval_non_finite_field(self, tmp_path, capsys):
        bad, good = self.bad_field(tmp_path, "x", "nan")
        code = cli_main(["eval", "--est", good, "--gt", bad])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: line 4: non-finite")

    def test_sim_rejects_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("agents: []\n")
        code = cli_main(["sim", "--scenario", str(bad), "--seed", "1",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "agents" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_sim_rejects_seed_outside_u64(self, tmp_path, capsys, seed):
        out = tmp_path / "out"
        code = cli_main(["sim", "--scenario", "unread.yaml", "--seed", str(seed),
                         "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: seed {seed} is outside [0, 2^64 - 1]\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    def test_sim_accepts_seed_bounds(self, tmp_path, seed):
        scenario = tmp_path / "line.yaml"
        scenario.write_text("agents:\n  - id: 0\n    waypoints: [[0, 0, 0], [1, 0, 0]]\n"
                            "run: {duration: 1.0}\n")
        out = tmp_path / "out"
        code = cli_main(["sim", "--scenario", str(scenario), "--seed", str(seed),
                         "--out", str(out)])
        assert code == 0 and (out / "events.jsonl").exists()

    def test_sim_rejects_out_that_is_a_file(self, tmp_path, capsys):
        scenario = tmp_path / "line.yaml"
        scenario.write_text("agents:\n  - id: 0\n    waypoints: [[0, 0, 0], [1, 0, 0]]\n"
                            "run: {duration: 1.0}\n")
        out = tmp_path / "out"
        out.write_text("kept\n")
        code = cli_main(["sim", "--scenario", str(scenario), "--seed", "1",
                         "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(out) in captured.err
        assert out.read_text() == "kept\n"

    def test_eval_rejects_json_in_missing_dir(self, tmp_path, capsys):
        est_p, gt_p = self.write_pair(tmp_path, np.random.default_rng(13))
        json_p = tmp_path / "missing" / "report.json"
        code = cli_main(["eval", "--est", est_p, "--gt", gt_p, "--json", str(json_p)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(json_p) in captured.err
        assert not json_p.parent.exists()

    def collinear_run(self, tmp_path):
        scenario = tmp_path / "line.yaml"
        scenario.write_text("agents:\n  - id: 0\n    waypoints: [[0, 0, 0], [1, 0, 0]]\n")
        out = tmp_path / "out"
        code = cli_main(["sim", "--scenario", str(scenario), "--seed", "1",
                         "--out", str(out)])
        return code, out

    def test_sim_collinear_trajectory_skips_ate(self, tmp_path, capsys):
        code, out = self.collinear_run(tmp_path)
        assert code == 0
        assert "ate skipped: covariance rank below 2" in capsys.readouterr().err
        assert (out / "events.jsonl").exists() and not (out / "ate.json").exists()

    def test_eval_collinear_trajectory_error(self, tmp_path, capsys):
        _, out = self.collinear_run(tmp_path)
        capsys.readouterr()
        code = cli_main(["eval", "--est", str(out / "trajectory_est.csv"),
                         "--gt", str(out / "trajectory_gt.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: covariance rank below 2")

    def test_sim_nonexistent_config(self, tmp_path, capsys):
        code = cli_main(["sim", "--scenario", str(tmp_path / "nope.yaml"),
                         "--seed", "1", "--out", str(tmp_path / "out")])
        assert code == 2

    def test_report_command(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.csv"
        ledger.write_text(
            "agent,category,bytes_sent,bytes_received,bytes_dropped,avg_kbps\n"
            "0,Key Frames,10000,9000,1000,1.0\n"
            "1,Key Frames,0,10000,0,0.0\n"
            "0,BoWs,500,400,100,0.05\n"
        )
        code = cli_main(["report", "--ledger", str(ledger)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Key Frames" in out and "BoWs" in out and "Total" in out

    def test_report_missing_file(self, tmp_path, capsys):
        code = cli_main(["report", "--ledger", str(tmp_path / "nope.csv")])
        assert code == 2

    def test_report_missing_column(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.csv"
        ledger.write_text("agent,category,bytes_sent\n0,Key Frames,10000\n")
        code = cli_main(["report", "--ledger", str(ledger)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {ledger}: missing columns")
        assert "bytes_received" in captured.err

    def test_report_non_numeric_field(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.csv"
        ledger.write_text(
            "agent,category,bytes_sent,bytes_received,bytes_dropped,avg_kbps\n"
            "0,Key Frames,10000,9000,1000,1.0\n"
            "x,BoWs,500,400,100,0.05\n"
        )
        code = cli_main(["report", "--ledger", str(ledger)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {ledger}: line 3:")
        assert "'x'" in captured.err

    @pytest.mark.parametrize("row, message", [
        ("0,Bogus,12000,12000,0,1.2", "line 3: unknown category 'Bogus'"),
        ("0,Key Frames,12000,12000,0,1.2",
         "line 3: a second row for agent 0, category 'Key Frames'"),
    ], ids=["unknown-category", "repeated-row"])
    def test_report_rejects_a_row_it_cannot_place(self, tmp_path, capsys, row, message):
        # the totals would leave the row's bytes out
        ledger = tmp_path / "ledger.csv"
        ledger.write_text(
            "agent,category,bytes_sent,bytes_received,bytes_dropped,avg_kbps\n"
            "0,Key Frames,1000,1000,0,0.1\n"
            f"{row}\n"
        )
        code = cli_main(["report", "--ledger", str(ledger)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {ledger}: {message}\n"
