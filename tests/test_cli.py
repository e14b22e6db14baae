import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import hcplab
import hcplab.cli
from hcplab.cli import build_schedule, build_spec, build_window, main
from hcplab.hcp import replicate
from hcplab.measures import AtomicMeasure
from oracles import run_hcp_loop, seed_sequence_rng, thinned_z


BASE_CONFIG = {
    "seed": 5,
    "epochs": 2,
    "replicas": 2,
    "initial_law": {"kind": "dirac", "value": 1.0},
    "process": {"variant": "periodic"},
    "schedule": {"thresholds": "geometric", "a": 2.0, "rates": "east"},
    "window": {"n_intervals": 4000},
    "analytic": {"l_max": 300.0, "j_max": 48.0},
}


def write_config(tmp_path, overrides=None, name="cfg.json"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, val in (overrides or {}).items():
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_law(path) -> AtomicMeasure:
    """The measure an ``interval_law_epochNN.csv`` of ``analytic`` holds."""
    with open(path) as fh:
        meta = dict(tok.split("=") for tok in fh.readline()[1:].split())
        next(fh)  # column names
        pos, mas = np.array([[float(v) for v in line.split(",")] for line in fh]).T
    return AtomicMeasure(pos, mas, float(meta["l_max"]), float(meta["deficit"]))


class TestSimulate:
    def test_outputs_and_manifest_rerun(self, tmp_path):
        cfg = write_config(tmp_path)
        out1 = str(tmp_path / "a")
        assert main(["simulate", "--config", cfg, "--out", out1]) == 0
        assert os.path.exists(os.path.join(out1, "samples.csv"))
        out2 = str(tmp_path / "b")
        manifest = os.path.join(out1, "manifest.json")
        assert main(["simulate", "--config", manifest, "--out", out2]) == 0
        for name in ("samples.csv", "replicas.csv"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b

    def test_replicas_flag_equivalent_to_config(self, tmp_path):
        cfg4 = write_config(tmp_path, {"replicas": 4}, name="c4.json")
        cfg1 = write_config(tmp_path, {"replicas": 1}, name="c1.json")
        out_a = str(tmp_path / "c")
        out_b = str(tmp_path / "d")
        assert main(["simulate", "--config", cfg4, "--out", out_a]) == 0
        assert main(["simulate", "--config", cfg1, "--replicas", "4",
                     "--out", out_b]) == 0
        assert open(os.path.join(out_a, "samples.csv")).read() == \
            open(os.path.join(out_b, "samples.csv")).read()

    def test_refuses_nonempty_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "e")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        assert main(["simulate", "--config", cfg, "--out", out]) == 2
        assert "overwrite" in capsys.readouterr().err
        assert main(["simulate", "--config", cfg, "--out", out, "--overwrite"]) == 0

    def test_invalid_schedule_names_epoch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schedule.thresholds": "explicit",
                                      "schedule.values": [1.0, 2.0, 8.0],
                                      "epochs": 2})
        out = str(tmp_path / "f")
        assert main(["simulate", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config field 'schedule.values'")
        assert "epoch 2: (A2) violated" in err

    @pytest.mark.parametrize("overrides, field", [
        ({"schedule.rates": "constant", "schedule.left": -1.0}, "schedule.left"),
        ({"schedule.gamma": 0.5}, "schedule.gamma"),
    ])
    def test_invalid_rates_name_field(self, tmp_path, overrides, field):
        err = run_rejected(tmp_path, "simulate", overrides)
        assert err.startswith(f"config error: config field '{field}'")
        assert err.count("violated") <= 1  # the first violation only

    def test_invalid_geometric_ratio(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schedule.a": 2.5})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "g")]) == 2
        assert "schedule.a" in capsys.readouterr().err

    def test_bad_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"seed": 5,,}')
        assert main(["simulate", "--config", str(path), "--out",
                     str(tmp_path / "h")]) == 2
        assert "line 1" in capsys.readouterr().err


README_CONFIG = {
    "seed": 1,
    "epochs": 10,
    "replicas": 4,
    "initial_law": {"kind": "geometric", "q": 0.1},
    "process": {"variant": "periodic"},
    "schedule": {"thresholds": "geometric", "a": 2.0, "rates": "east"},
    "window": {"n_intervals": 200000, "buffer_factor": 16.0},
}


def read_samples(path):
    """(stride per epoch, data rows, epoch of the last stride line before each row)."""
    strides, marks, lines = {}, [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("# epoch "):
                _, _, epoch, _, stride = line.split()
                strides[int(epoch)] = int(stride)
            elif not line.startswith("#"):
                lines.append(line)
                marks.append(max(strides, default=0))
    assert lines[0] == "replica,epoch,z,y,first_point_survived,origin_alive\n"
    rows = np.loadtxt(lines[1:], delimiter=",", ndmin=2) if len(lines) > 1 \
        else np.empty((0, 6))
    return strides, rows, np.array(marks[1:])


class TestSamplesCsv:
    def test_readme_config_keeps_every_stride_th_z(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(README_CONFIG))
        out = str(tmp_path / "sim")
        assert main(["simulate", "--config", str(path), "--out", out]) == 0
        strides, rows, marks = read_samples(os.path.join(out, "samples.csv"))
        np.testing.assert_array_equal(rows[:, 1], marks)
        full = replicate(build_spec(README_CONFIG), build_schedule(README_CONFIG), 10, 4, 1,
                         build_window(README_CONFIG))
        for summary in full:
            stride, z = thinned_z(summary, 50_000)
            assert strides[summary.epoch] == stride > 0
            at = rows[rows[:, 1] == summary.epoch]
            np.testing.assert_array_equal(at[:, 2], z)
            held = -(-summary.core_sizes // stride)
            np.testing.assert_array_equal(at[:, 0], np.repeat(np.arange(4), held))
            np.testing.assert_array_equal(at[:, 3], np.repeat(summary.y, held))
        # epoch 1 draws from every replica; epoch 10 keeps every core z
        assert strides[1] == 16 and set(rows[rows[:, 1] == 1, 0]) == {0, 1, 2, 3}
        assert strides[10] == 1 and np.sum(rows[:, 1] == 10) == full[9].core_sizes.sum() == 8747

    def test_zero_keeps_no_rows(self, tmp_path):
        cfg = write_config(tmp_path, {"samples_per_epoch": 0})
        out = str(tmp_path / "sim")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        strides, rows, _ = read_samples(os.path.join(out, "samples.csv"))
        assert strides == {1: 0, 2: 0} and rows.size == 0


class TestSimulateBytes:
    """``simulate``'s files on dyadic configs, pinned by their sha256: the
    bytes must not change with how z are picked or formatted, or batched."""

    PINNED = {
        "periodic": ("4efe2e1efdebbea179d64a85e83e42a6eae499665949f4de6819d1e6178f1349",
                     "8acd65f3b2c751df15843cf8a8e2b793a407ca8a090e89f2552c3b554aa0dfd5"),
        "left_bounded": ("3c4b1bf6003222875f2ddb630e9a5c441af63b5741ea1cd99d33e6e5a7d96d91",
                         "5a3c02801d22abe8580880e24737fde0fb681985f3db6ecd42feac72c618614f"),
    }

    @pytest.mark.parametrize("batch_points", [hcplab.hcp._BATCH_POINTS, 1])
    @pytest.mark.parametrize("variant", list(PINNED))
    def test_files_pinned(self, tmp_path, monkeypatch, variant, batch_points):
        # one replica per batch at 1 point, so the stride grows batch by batch
        monkeypatch.setattr(hcplab.hcp, "_BATCH_POINTS", batch_points)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 11, "epochs": 8, "replicas": 3, "samples_per_epoch": 5000,
            "initial_law": {"kind": "geometric", "q": 0.1}, "process": {"variant": variant},
            "schedule": {"thresholds": "geometric", "a": 2.0, "rates": "east"},
            "window": {"n_intervals": 20000}}))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        strides, _, _ = read_samples(out / "samples.csv")
        assert list(strides.values()) == [16, 16, 16, 8, 4, 4, 2, 1]
        assert tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                     for name in ("samples.csv", "replicas.csv")) == self.PINNED[variant]


class TestReplicasCsv:
    @pytest.mark.parametrize("variant", ["contains_origin", "periodic"])
    def test_merges_prior_is_the_oracle_erasure_count(self, tmp_path, variant):
        # the column is derived from consecutive summaries; the oracle counts
        # the points each epoch's alive mask erased
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg.update({"epochs": 4, "replicas": 3, "process": {"variant": variant},
                    "initial_law": {"kind": "geometric", "q": 0.5},
                    "window": {"n_intervals": 300, "buffer_factor": 2.0}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        with open(out / "replicas.csv") as fh:
            lines = [line.rstrip("\n").split(",") for line in fh if not line.startswith("#")]
        column = lines[0].index("merges_prior")
        got = {(int(row[0]), int(row[1])): int(row[column]) for row in lines[1:]}
        want = {}
        for r in range(3):
            _, erased = run_hcp_loop(build_spec(cfg), build_schedule(cfg), 4, build_window(cfg),
                                     seed_sequence_rng(cfg["seed"], r))
            want.update({(r, n): count for n, count in enumerate(erased, start=1)})
        assert got == want and len(want) == 12 and sum(want.values()) > 0


class TestAnalytic:
    def test_survival_table_values(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "ana")
        assert main(["analytic", "--config", cfg, "--out", out]) == 0
        rows = [line.split(",") for line in
                open(os.path.join(out, "survival.csv")).read().splitlines()[2:]]
        assert float(rows[0][2]) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert float(rows[1][2]) == pytest.approx(math.exp(-11.0 / 6.0), rel=1e-12)

    def test_explicit_schedule_from_one(self, tmp_path):
        # d(1) = 1, the smallest first threshold the transported primitive takes
        cfg = write_config(tmp_path, {"schedule.thresholds": "explicit",
                                      "schedule.values": [1, 2, 4]})
        out = str(tmp_path / "and")
        assert main(["analytic", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "transported_primitive.csv")) as fh:
            rows = [line for line in fh if line[0].isdigit()]
        assert len(rows) == 10  # 2 epochs x 5 default probes

    def test_c0_report_converged_for_finite_mean(self, tmp_path):
        cfg = write_config(tmp_path, {"initial_law": {"kind": "geometric", "q": 0.5}})
        out = str(tmp_path / "anb")
        assert main(["analytic", "--config", cfg, "--out", out]) == 0
        report = json.load(open(os.path.join(out, "c0_report.json")))
        assert report["converged"] is True
        assert abs(report["estimate"] - 1.0) < 1e-3

    def test_c0_report_flags_oscillating_law(self, tmp_path, capsys):
        p = 1.0 - math.exp(-0.5)
        cfg = write_config(tmp_path, {
            "initial_law": {"kind": "exp_geometric", "p": p},
            "epochs": 2,
            "analytic": {"l_max": 4e5, "j_max": 32.0}})
        out = str(tmp_path / "anc")
        # the heavy tail genuinely exceeds the deficit bound at this l_max;
        # without --strict each epoch's law over it gets one warning line
        assert main(["analytic", "--config", cfg, "--out", out]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(" at epoch ")[1][:1] for line in lines] == ["1", "2"]
        for line in lines:
            assert line.startswith("warning: truncation deficit ")
            assert "analytic.deficit_bound = 1e-06" in line and "analytic.l_max" in line
        report = json.load(open(os.path.join(out, "c0_report.json")))
        assert report["converged"] is False

    def test_strict_mode_escalates_deficit(self, tmp_path, capsys):
        p = 1.0 - math.exp(-0.5)
        cfg = write_config(tmp_path, {
            "initial_law": {"kind": "exp_geometric", "p": p},
            "epochs": 2,
            "analytic": {"l_max": 4e5, "j_max": 32.0}})
        out = str(tmp_path / "ans")
        assert main(["analytic", "--config", cfg, "--out", out, "--strict"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("measure error: truncation deficit ") and " at epoch 1 " in err
        assert "analytic.l_max" in err and "analytic.deficit_bound" in err
        assert "Traceback" not in err
        assert os.listdir(out) == []  # judged before any file is written

    def test_law_csv_round_trip(self, tmp_path):
        m = AtomicMeasure(np.array([1.0, 2.5]), np.array([0.5, 0.25]), 30.0, 0.25)
        path = tmp_path / "m.csv"
        hcplab.cli._write_law(str(path), m)
        header, columns, *rows = path.read_text().splitlines()
        assert (header, columns) == ("# l_max=30.0 deficit=0.25", "position,mass")
        back = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.array_equal(back, np.column_stack((m.positions, m.masses)))

    def test_atom_budget_names_l_max(self, tmp_path, capsys):
        # off-lattice atoms multiply epoch by epoch; at the default l_max the
        # generic convolution would need gigabytes
        cfg = write_config(tmp_path, {
            "initial_law": {"kind": "two_point", "a": 1.0, "b": math.sqrt(2.0)},
            "epochs": 4,
            "analytic": {"j_max": 48.0}})
        assert main(["analytic", "--config", cfg, "--out", str(tmp_path / "tp")]) == 2
        assert "analytic.l_max" in capsys.readouterr().err

    @pytest.mark.parametrize("b", [5.0 / 3.0, 1.1])
    def test_non_dyadic_two_point_law(self, tmp_path, b):
        # atoms on the lattice of 1/3 or 0.1, which no power of two divides,
        # at the default l_max and j_max
        cfg = tmp_path / "tp.json"
        cfg.write_text(json.dumps({"initial_law": {"kind": "two_point", "a": 1.0, "b": b}}))
        out = tmp_path / "tp"
        assert main(["analytic", "--config", str(cfg), "--out", str(out)]) == 0
        law4 = read_law(out / "interval_law_epoch04.csv")
        assert law4.n_atoms > 100
        assert law4.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_integer_probe_x_echoed(self, tmp_path):
        cfg = write_config(tmp_path, {"analytic.probe_x": [1, 2.5]})
        out = tmp_path / "ane"
        assert main(["analytic", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "transported_primitive.csv").read_text().splitlines()[2:]
        assert [r.split(",")[:2] for r in rows] == [["1", "1"], ["1", "2.5"],
                                                     ["2", "1"], ["2", "2.5"]]

    def test_measure_csvs_written(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "and")
        assert main(["analytic", "--config", cfg, "--out", out]) == 0
        law2 = read_law(os.path.join(out, "interval_law_epoch02.csv"))
        assert law2.mass_on(1.5, 2.5) == pytest.approx(0.5, rel=1e-12)


class TestLimitsCommand:
    def test_tabulates_cdf_and_transforms(self, tmp_path):
        out = str(tmp_path / "lim")
        assert main(["limits", "--out", out]) == 0
        lines = open(os.path.join(out, "limit_cdf.csv")).read().splitlines()
        xs = [float(l.split(",")[0]) for l in lines[2:]]
        vals = [float(l.split(",")[1]) for l in lines[2:]]
        i2 = xs.index(2.0)
        assert vals[i2] == pytest.approx(math.log(2.0), abs=1e-4)
        tlines = open(os.path.join(out, "limit_transforms.csv")).read().splitlines()
        s0 = tlines[2].split(",")
        assert float(s0[1]) == 1.0 and float(s0[2]) == 1.0


class TestFigB:
    def test_geometric_thresholds_curve(self, tmp_path):
        cfg = write_config(tmp_path, {"figb": {"horizon": 10, "q": [0.1, 0.8]}})
        out = str(tmp_path / "figb")
        assert main(["reproduce-figb", "--config", cfg, "--out", out]) == 0
        rows = [line.split(",") for line in
                open(os.path.join(out, "transport_ratio.csv")).read().splitlines()[2:]]
        by_q = {}
        for q, n, d, ratio in rows:
            by_q.setdefault(float(q), []).append((int(n), float(d), float(ratio)))
        tail = [v for _, _, v in by_q[0.1][-3:]]
        assert all(abs(v - 1.0) < 0.02 for v in tail)
        osc = [v for _, _, v in by_q[0.8][-6:]]
        assert max(osc) - min(osc) > 0.02

    def test_one_law_per_sweep_writes_same_bytes(self, tmp_path):
        # each law is solved on its own lattice: a list of three q writes the
        # data rows of three runs with a single q each, byte for byte
        def data_rows(name, qs):
            cfg = write_config(tmp_path, {"figb": {"horizon": 8, "q": qs}}, name=f"{name}.json")
            out = str(tmp_path / name)
            assert main(["reproduce-figb", "--config", cfg, "--out", out]) == 0
            return open(os.path.join(out, "transport_ratio.csv"), "rb").read().splitlines()[2:]

        rows = data_rows("all", [0.1, 0.5, 0.8])
        assert len(rows) == 3 * 8
        assert rows == [row for q in (0.1, 0.5, 0.8) for row in data_rows(f"q{q}", [q])]

    def test_arithmetic_remap(self, tmp_path):
        cfg_g = write_config(tmp_path, {"figb": {"horizon": 5, "q": [0.5]}},
                             name="geo.json")
        cfg_a = write_config(tmp_path, {"figb": {"horizon": 16, "q": [0.5],
                                                 "arithmetic": True}},
                             name="ari.json")
        out_g, out_a = str(tmp_path / "fg"), str(tmp_path / "fa")
        assert main(["reproduce-figb", "--config", cfg_g, "--out", out_g]) == 0
        assert main(["reproduce-figb", "--config", cfg_a, "--out", out_a]) == 0

        def read(path):
            rows = [line.split(",") for line in
                    open(os.path.join(path, "transport_ratio.csv")).read().splitlines()[2:]]
            return {float(d): float(r) for _, n, d, r in rows}

        geo, ari = read(out_g), read(out_a)
        # the curve depends on the threshold value only: the arithmetic curve
        # sampled at powers of two reproduces the geometric one
        for d, v in geo.items():
            if d in ari:
                assert ari[d] == pytest.approx(v, rel=1e-12)


class TestFigBInputs:
    """Bad figb configs exit 2 with the field named, never a traceback."""

    def run(self, tmp_path, figb, budget=None):
        return run_rejected(tmp_path, "reproduce-figb", {"figb": figb}, budget=budget)

    @pytest.mark.parametrize("figb, field", [
        ({"lattice": 0}, "figb.lattice"),
        ({"lattice": -0.5}, "figb.lattice"),
        ({"x": 0}, "figb.x"),
        ({"x": -3}, "figb.x"),
        ({"horizon": 0}, "figb.horizon"),
        # at 2e and above the law's first atom e rounds to site 0 and is lost
        ({"lattice": 2 * math.e}, "figb.lattice"),
        ({"lattice": 5.5}, "figb.lattice"),
        ({"lattice": 40}, "figb.lattice"),
        ({"lattice": 1e300}, "figb.lattice"),
    ])
    def test_nonpositive_field_named(self, tmp_path, figb, field):
        assert f"config error: config field '{field}'" in self.run(tmp_path, figb)

    def test_site_budget_names_knobs(self, tmp_path):
        # horizon 4 needs 1,441 sites per law at the default x and lattice;
        # a budget of 1,000 sites at 9 bytes each stands in for an oversized request
        err = self.run(tmp_path, {"horizon": 4, "q": [0.5]}, budget=1000 * 9)
        assert err.startswith("budget error: the transport lattice of 1441 sites per law ")
        for field in ("figb.horizon", "figb.x", "figb.lattice"):
            assert field in err

    def test_horizon_beyond_float_range(self, tmp_path):
        err = self.run(tmp_path, {"horizon": 2000, "q": [0.5]})
        assert "figb.horizon" in err

    @pytest.mark.parametrize("q, index", [
        (["a"], 0),
        ([0.5, 0], 1),
        ([1], 0),
        ([0.1, 0.5, 1.5], 2),
        ([True], 0),
        ([math.nan], 0),
    ])
    def test_bad_q_entry_named(self, tmp_path, q, index):
        err = self.run(tmp_path, {"horizon": 4, "q": q})
        assert f"config error: config field 'figb.q[{index}]'" in err
        assert "p = 1 - q" in err


_CHILD = """
import json, sys
import hcplab.budget, hcplab.cli
budget, argv = json.loads(sys.argv[1])
if budget is not None:
    hcplab.budget.BUDGET_BYTES = budget
sys.exit(hcplab.cli.main(argv))
"""


def run_child(tmp_path, argv, budget=None):
    """Run ``hcplab.cli.main(argv)`` in a fresh interpreter whose memory budget
    is ``budget`` bytes (None: unchanged)."""
    src = os.path.dirname(os.path.dirname(hcplab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", _CHILD, json.dumps([budget, argv])],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


def run_rejected(tmp_path, command, overrides, *flags, budget=None):
    """Run the CLI in a child on BASE_CONFIG with overrides; it must exit 2
    without a traceback.  Returns stderr."""
    proc = run_child(tmp_path, [command, "--config", write_config(tmp_path, overrides),
                                "--out", str(tmp_path / "out"), *flags], budget)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 2, proc.stderr
    return proc.stderr


def names_field(err, field):
    """A field check names the field; a budget stop names it as a knob to lower."""
    return (f"config error: config field '{field}'" in err
            or err.startswith("budget error: ") and f"; lower {field}" in err)


class TestConfigInputs:
    """Bad law, count, schedule, window, analytic and limits fields exit 2
    with the field named."""

    @pytest.mark.parametrize("c0, gamma, field", [
        (1.5, 0.0, "limits.c0"),
        (math.nan, 0.0, "limits.c0"),
        (1.0, -1.0, "limits.gamma"),
        (1.0, math.nan, "limits.gamma"),
    ])
    def test_limits_fields(self, tmp_path, c0, gamma, field):
        err = run_rejected(tmp_path, "limits", {"limits": {"c0": c0, "gamma": gamma}})
        assert f"config error: config field '{field}'" in err

    @pytest.mark.parametrize("command, law, field", [
        ("simulate", {"kind": "geometric"}, "initial_law.q"),
        ("simulate", {"kind": "geometric", "q": 0}, "initial_law.q"),
        ("simulate", {"kind": "two_point", "a": 1.0, "b": 2.0, "p_a": 1.5}, "initial_law.p_a"),
        ("analytic", {"kind": "two_point", "a": 1.0, "b": 2.0, "p_a": 1.5}, "initial_law.p_a"),
        ("simulate", {"kind": "exp_geometric", "p": "x"}, "initial_law.p"),
        ("simulate", {"kind": "dirac", "value": math.nan}, "initial_law.value"),
    ])
    def test_initial_law_fields(self, tmp_path, command, law, field):
        err = run_rejected(tmp_path, command, {"initial_law": law})
        assert f"config error: config field '{field}'" in err

    def test_mixture_component_field(self, tmp_path):
        process = {"variant": "exchangeable", "components": [
            [0.5, {"kind": "dirac"}], [0.5, {"kind": "geometric", "q": 2}]]}
        err = run_rejected(tmp_path, "simulate", {"process": process})
        assert "config error: config field 'process.components[1].q'" in err

    @pytest.mark.parametrize("overrides, flags, field", [
        ({"epochs": 0}, (), "epochs"),
        ({"replicas": 0}, (), "replicas"),
        ({}, ("--replicas", "0"), "replicas"),
        ({"window.n_intervals": 0}, (), "window.n_intervals"),
        ({"window.n_intervals": True}, (), "window.n_intervals"),
        ({"schedule.thresholds": "explicit", "schedule.values": [1.0, 1.0, 2.0]}, (),
         "schedule.values"),
        ({"schedule.thresholds": "explicit", "schedule.values": [1.0, 2.0]}, (),
         "schedule.values"),
        ({"schedule.rates": "north"}, (), "schedule.rates"),
        ({"window.buffer_factor": math.nan}, (), "window.buffer_factor"),
        ({"window.buffer_factor": -1.0}, (), "window.buffer_factor"),
        ({"window.buffer_factor": math.nan, "process.variant": "left_bounded"}, (),
         "window.buffer_factor"),
        ({"seed": -1}, (), "seed"),
        ({}, ("--seed", "-1"), "seed"),
        ({"samples_per_epoch": -1}, (), "samples_per_epoch"),
        ({"process.variant": "circle"}, (), "process.variant"),
        ({"schedule.thresholds": "quadratic"}, (), "schedule.thresholds"),
        ({"initial_law.kind": "poisson"}, (), "initial_law.kind"),
        ({"replicas": 2**32 + 1}, (), "replicas"),  # replica indices stay below 2^32
        ({}, ("--replicas", str(2**32 + 1)), "replicas"),
        # past the memory budget at 64 bytes per point, caught before drawing
        ({"window.n_intervals": 10**11}, (), "window.n_intervals"),
        ({"window": {"target_core": 10**12}}, (), "window.target_core"),
        ({"schedule.rates": "linear", "schedule.right": math.inf}, (), "schedule.right"),
        # no exponential kind: it has mass below every d(1) > 0
        ({"initial_law": {"kind": "exponential"}, "epochs": 1}, (), "initial_law.kind"),
        # initial lengths below d(1) = 1, even when no epoch runs
        ({"initial_law": {"kind": "dirac", "value": 0.5}}, (), "initial_law"),
        ({"process": {"variant": "exchangeable", "components": [[1.0, {"kind": "exponential"}]]}},
         (), "process.components[0].kind"),
        ({"process": {"variant": "exchangeable",
                      "components": [[1.0, {"kind": "dirac", "value": 0.5}]]}, "epochs": 1},
         (), "process.components"),
        ({"process": {"variant": "left_bounded", "first_point": math.nan}}, (),
         "process.first_point"),
    ])
    def test_simulate_fields(self, tmp_path, overrides, flags, field):
        err = run_rejected(tmp_path, "simulate", overrides, *flags)
        assert names_field(err, field), err

    @pytest.mark.parametrize("overrides, field", [
        ({"analytic.probe_x": ["a"]}, "analytic.probe_x[0]"),
        ({"analytic.probe_x": [1.0, True]}, "analytic.probe_x[1]"),
        ({"analytic.c0_s_min": 0}, "analytic.c0_s_min"),
        ({"analytic.c0_s_min": math.nan}, "analytic.c0_s_min"),
        ({"analytic.c0_s_max": 1e-12}, "analytic.c0_s_max"),
        ({"analytic.c0_s_max": math.inf}, "analytic.c0_s_max"),
        ({"epochs": 4, "analytic.l_max": 3.0}, "analytic.l_max"),
        ({"analytic.l_max": math.inf}, "analytic.l_max"),
        ({"analytic.j_max": 1}, "analytic.j_max"),
        ({"analytic.j_max": math.nan}, "analytic.j_max"),
        # above l_max / d(1), the truncation of the rescaled epoch-1 law
        ({"analytic.l_max": 20.0, "analytic.j_max": 64.0}, "analytic.j_max"),
        ({"analytic.deficit_bound": -1.0}, "analytic.deficit_bound"),
        ({"analytic.deficit_bound": math.nan}, "analytic.deficit_bound"),
        ({"initial_law": {"kind": "exponential"}}, "initial_law.kind"),
        ({"analytic.probe_x": [math.nan, -1, 1]}, "analytic.probe_x[0]"),
        ({"analytic.probe_x": [1, math.inf]}, "analytic.probe_x[1]"),
        # the transported primitive needs d(1) >= 1
        ({"schedule.thresholds": "explicit", "schedule.values": [0.5, 1, 2]},
         "schedule.values"),
        # the rates are checked for every command, not only simulate
        ({"schedule.rates": "constant", "schedule.left": -1}, "schedule.left"),
        ({"schedule.rates": "constant", "schedule.left": 1, "schedule.right": 0,
          "schedule.gamma": 0.5}, "schedule.gamma"),
        ({"schedule.rates": "constant", "schedule.left": 0, "schedule.right": 0},
         "schedule.right"),
        # (A2) at epoch 2, as for simulate
        ({"schedule.thresholds": "explicit", "schedule.values": [1, 2, 5, 8, 16], "epochs": 3},
         "schedule.values"),
        ({"initial_law": {"kind": "dirac", "value": 0.5}}, "initial_law"),
    ])
    def test_analytic_fields(self, tmp_path, overrides, field):
        err = run_rejected(tmp_path, "analytic", overrides)
        assert f"config error: config field '{field}'" in err

    @pytest.mark.parametrize("overrides, flags, field", [
        ({"seed": -1}, (), "seed"),
        ({}, ("--seed", "-2"), "seed"),
        ({"validate.scale": math.nan}, (), "validate.scale"),
        ({"validate.scale": 0}, (), "validate.scale"),
        # criteria 3 and 6 scale a 250,000-interval window past the memory budget
        ({"validate.scale": 135}, (), "validate.scale"),
        ({"validate.scale": 1e300}, (), "validate.scale"),
    ])
    def test_validate_fields(self, tmp_path, overrides, flags, field):
        err = run_rejected(tmp_path, "validate", overrides, *flags)
        assert names_field(err, field), err

    @pytest.mark.parametrize("command", ["simulate", "analytic"])
    def test_below_explicit_d1_names_both_fields(self, tmp_path, command):
        err = run_rejected(tmp_path, command, {
            "initial_law": {"kind": "geometric", "q": 0.5},
            "schedule": {"thresholds": "explicit", "values": [2, 3, 4], "rates": "east"},
            "analytic": {"l_max": 300.0, "j_max": 48.0}})
        assert "config error: config field 'initial_law'" in err and "schedule.values" in err

    def test_exhausted_window_names_it(self, tmp_path):
        err = run_rejected(tmp_path, "simulate", {"window.n_intervals": 1})
        assert "window exhausted at epoch" in err and "window.n_intervals" in err


class TestFileInputs:
    """A --config or --out the file system cannot serve exits 2 with one line
    naming the flag, never a traceback."""

    @pytest.mark.parametrize("config, out, flag", [
        ("missing.json", "out", "--config"),
        (".", "out", "--config"),  # a directory
        ("string.json", "out", "--config"),  # top level "config command"
        ("latin1.json", "out", "--config"),  # not UTF-8
        ("deep.json", "out", "--config"),  # nested past the recursion limit
        ("cfg.json", "cfg.json", "--out"),  # an existing file
        ("cfg.json", "cfg.json/out", "--out"),  # a path below a file
    ])
    def test_names_flag(self, tmp_path, capsys, config, out, flag):
        write_config(tmp_path)
        (tmp_path / "string.json").write_text(json.dumps("config command"))
        (tmp_path / "latin1.json").write_bytes(b'{"seed": "\xe9"}')
        (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
        assert main(["limits", "--config", str(tmp_path / config),
                     "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert flag in err and "Traceback" not in err


class TestAcceptedInputs:
    """Inputs that pass the field checks but that the run cannot honour exit 2
    naming the knobs to change; no exception leaves ``main``."""

    EXPLICIT = {"thresholds": "explicit", "values": [0.001, 0.002, 0.004], "rates": "east"}

    @pytest.mark.parametrize("overrides, knobs", [
        # a stationary variant needs a finite-mean law
        ({"initial_law": {"kind": "exp_geometric", "p": 0.5}, "process.variant": "stationary"},
         ("initial_law", "process.variant")),
        ({"initial_law": {"kind": "exp_geometric", "p": 0.5},
          "process.variant": "lattice_stationary"}, ("initial_law", "process.variant")),
        # a lattice-stationary one integer lengths
        ({"initial_law": {"kind": "exp_geometric", "p": 0.9},
          "process.variant": "lattice_stationary"}, ("initial_law", "process.variant")),
        ({"initial_law": {"kind": "dirac", "value": 1.5},
          "process.variant": "lattice_stationary"}, ("initial_law", "process.variant")),
        ({"initial_law": {"kind": "two_point", "a": 1.0, "b": 1.5},
          "process.variant": "lattice_stationary"}, ("initial_law", "process.variant")),
        # e^G past the float range: G > 709 has probability 0.49 at p = 0.001
        ({"initial_law": {"kind": "exp_geometric", "p": 0.001}},
         ("initial_law", "process.variant")),
        ({"process": {"variant": "left_bounded", "first_point": math.inf}},
         ("process.first_point",)),
        # below d(1) by more than the gap floor, whether or not an epoch runs
        ({"initial_law": {"kind": "dirac", "value": 0.0009999995}, "schedule": EXPLICIT,
          "epochs": 1}, ("initial_law", "schedule.values")),
        ({"initial_law": {"kind": "dirac", "value": 0.0009999995}, "schedule": EXPLICIT,
          "epochs": 2}, ("initial_law", "schedule.values")),
        # d(1025) = 2^1024 is past the float range
        ({"epochs": 1024}, ("epochs", "schedule.a")),
        # 100 lengths of 1e307 sum past it
        ({"initial_law": {"kind": "dirac", "value": 1e307}, "window.n_intervals": 100},
         ("initial_law", "window.n_intervals")),
    ])
    def test_simulate_names_knobs(self, tmp_path, capsys, overrides, knobs):
        self.assert_names_knobs(tmp_path, capsys, "simulate", overrides, knobs)

    @pytest.mark.parametrize("overrides, knobs", [
        ({"epochs": 1024}, ("epochs", "schedule.a")),
        # the c0 view's atoms e^k run to k = 3 ln(1/c0_s_min), inf above k = 709
        ({"initial_law": {"kind": "exp_geometric", "p": 0.5}, "analytic.c0_s_min": 1e-300},
         ("analytic.c0_s_min",)),
        ({"initial_law": {"kind": "exp_geometric", "p": 0.5}, "analytic.c0_s_min": 5e-324},
         ("analytic.c0_s_min",)),
        # with no analytic section l_max defaults to 50 * d(epochs + 1) = 50 * 2^1019,
        # past the float range
        ({"epochs": 1019, "analytic": {}}, ("analytic.l_max", "epochs")),
        # the c0 grid: a subnormal s_min, an s_max / s_min past the float range,
        # and an s_max whose product with the view's last atom overflows
        ({"analytic.c0_s_min": 5e-324}, ("analytic.c0_s_min",)),
        ({"analytic.c0_s_max": 1e308}, ("analytic.c0_s_max",)),
        ({"analytic.c0_s_min": 1e-300, "analytic.c0_s_max": 1e300}, ("analytic.c0_s_max",)),
        ({"initial_law": {"kind": "geometric", "q": 0.1}, "analytic.c0_s_min": 1.0,
          "analytic.c0_s_max": 1e307}, ("analytic.c0_s_max",)),
        ({"initial_law": {"kind": "exp_geometric", "p": 0.5}, "analytic.c0_s_min": 1.0,
          "analytic.c0_s_max": 1e283}, ("analytic.c0_s_max",)),
    ])
    def test_analytic_names_knobs(self, tmp_path, capsys, overrides, knobs):
        self.assert_names_knobs(tmp_path, capsys, "analytic", overrides, knobs)

    @pytest.mark.parametrize("l_max", [1e11, 1e8])
    def test_geometric_atoms_past_budget(self, tmp_path, capsys, l_max):
        # q = 1e-9 keeps an atom at every integer up to l_max: 4.2 TB and
        # 4.2 GB at 43 bytes each, refused before any of it is allocated
        overrides = {"initial_law": {"kind": "geometric", "q": 1e-9}, "analytic.l_max": l_max}
        tracemalloc.start()
        try:
            self.assert_names_knobs(tmp_path, capsys, "analytic", overrides,
                                    ("analytic.l_max", "initial_law.q"), "budget error: ")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 24, peak

    @staticmethod
    def assert_names_knobs(tmp_path, capsys, command, overrides, knobs, prefix="config error: "):
        cfg = write_config(tmp_path, overrides)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, err
        for knob in knobs:
            assert knob in err

    def test_stationary_finite_mean_exp_geometric(self, tmp_path):
        cfg = write_config(tmp_path, {"initial_law": {"kind": "exp_geometric", "p": 0.9},
                                      "process.variant": "stationary"})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("s_min, s_max", [(sys.float_info.min, 1e-2), (1e-300, 1e8)])
    def test_c0_grid_extremes_run(self, tmp_path, capsys, s_min, s_max):
        # the smallest normal s_min, and a ratio s_max / s_min near the float
        # range, still run: no warning (Tier-1 makes each an error), converged
        cfg = write_config(tmp_path, {"analytic.c0_s_min": s_min, "analytic.c0_s_max": s_max})
        assert main(["analytic", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        with open(tmp_path / "out" / "c0_report.json") as fh:
            report = json.load(fh)
        assert report["converged"] and report["s_min"] == s_min

    EXP_GEOMETRIC = {"initial_law": {"kind": "exp_geometric", "p": 0.5},
                     "analytic.deficit_bound": 1.0}

    def test_c0_row_past_budget(self, tmp_path):
        # the c0 view of exp_geometric holds e^k to k = 3 ln(1/c0_s_min): 690
        # atoms at 1e-100, whose one grid row and weights take 12,420 bytes
        # at 9 bytes each; at the default c0_s_min (62 atoms) the same budget runs
        cfg = dict(self.EXP_GEOMETRIC, **{"analytic.c0_s_min": 1e-100})
        err = run_rejected(tmp_path, "analytic", cfg, budget=12_000)
        assert err.startswith("budget error: a 1 x 690 block of the transform grid ")
        assert err.count("\n") == 1 and err.rstrip().endswith(
            "; lower analytic.l_max, or raise analytic.c0_s_min"), err
        argv = ["analytic", "--config", write_config(tmp_path, self.EXP_GEOMETRIC),
                "--out", str(tmp_path / "ok")]
        proc = run_child(tmp_path, argv, budget=12_000)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_c0_grid_in_row_blocks(self, tmp_path):
        # a budget of 100,000 bytes evaluates the 141 x 300 grid of
        # geometric(0.1) at l_max 300 in blocks of 36 rows; nothing else
        # needs as much
        cfg = write_config(tmp_path, {"initial_law": {"kind": "geometric", "q": 0.1}})
        reports = []
        for budget in (None, 100_000):
            out = tmp_path / f"out{budget}"
            proc = run_child(tmp_path, ["analytic", "--config", cfg, "--out", str(out)], budget)
            assert (proc.returncode, proc.stderr) == (0, "")
            with open(out / "c0_report.json") as fh:
                reports.append(json.load(fh))
        whole, blocked = reports
        assert blocked == dict(whole, estimate=pytest.approx(whole["estimate"], rel=1e-13))
        assert whole["converged"]


class TestOffLatticeSimulate:
    def test_irrational_lengths_run_to_the_end(self, tmp_path):
        # gaps of sums of 1 and sqrt(2) come out a few ulps off; a true unit
        # gap read below d(1) = 1 once never rang and stopped epoch 2
        cfg = write_config(tmp_path, {
            "epochs": 3, "replicas": 1, "seed": 0,
            "initial_law": {"kind": "two_point", "a": 1.0, "b": math.sqrt(2.0)},
            "process": {"variant": "left_bounded"},
            "window": {"n_intervals": 20_000}})
        proc = run_child(tmp_path, ["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.returncode == 0, proc.stderr
        with open(tmp_path / "out" / "replicas.csv") as fh:
            epochs = [line.split(",")[1] for line in fh if line[0].isdigit()]
        assert epochs == ["1", "2", "3"]


_SCIPY_PROBE = """
import json, sys
import hcplab, hcplab.cli
argv = json.loads(sys.argv[1])
if argv:
    assert hcplab.cli.main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


class TestColdStart:
    """No command but validate imports scipy, and importing the CLI leaves
    numpy.random unloaded."""

    @pytest.mark.parametrize("command, overrides", [
        (None, {}),
        ("simulate", {"window": {"n_intervals": 200}}),
        ("analytic", {}),
        ("reproduce-figb", {"figb": {"horizon": 4, "q": [0.5]}}),
        ("limits", {}),
    ])
    def test_scipy_modules_loaded(self, tmp_path, command, overrides):
        argv = []
        if command is not None:
            argv = [command, "--config", write_config(tmp_path, overrides),
                    "--out", str(tmp_path / "out")]
        src = os.path.dirname(os.path.dirname(hcplab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(argv)],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []


    def test_import_leaves_numpy_random_unloaded(self, tmp_path):
        src = os.path.dirname(os.path.dirname(hcplab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", "import sys, hcplab.cli; "
                               "print('numpy.random' in sys.modules)"],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestValidateCommand:
    def test_reduced_scale_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"validate": {"scale": 0.05}})
        out = str(tmp_path / "val")
        code = main(["validate", "--config", cfg, "--out", out])
        printed = capsys.readouterr().out
        assert code == 0
        assert printed.count("PASS") == 10
        report = json.load(open(os.path.join(out, "validation.json")))
        assert len(report) == 10 and all(r["passed"] for r in report)
