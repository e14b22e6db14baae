"""Exact invariances of the model, checked byte for byte on the files the
commands write (run in-process through ``hcplab.cli.main``).

Rate scale: multiplying ``schedule.left`` and ``schedule.right`` by a common
power of two rescales the time axis only, so ``simulate`` writes the same
bytes below each CSV's provenance line.

Length scale: multiplying every length and threshold by 2^k (the initial
law's lengths, the explicit thresholds and ``analytic.l_max``) multiplies the
columns that hold a length by 2^k, exactly, and leaves every other byte as
it was.  Thresholds are explicit, since geometric and arithmetic ones fix
d(1) = 1.
"""

import json
import os

import pytest

from hcplab.cli import main

K = [-40, -3, 1, 7]
RATES = ["constant", "linear"]


def run(tmp_path, command: str, cfg: dict) -> dict:
    """{file name: its text} of one run of ``command`` on ``cfg``."""
    out = tmp_path / f"out{len(os.listdir(tmp_path))}"
    path = tmp_path / f"cfg{len(os.listdir(tmp_path))}.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    return {name: (out / name).read_text() for name in sorted(os.listdir(out))}


def below_provenance(files: dict) -> dict:
    """Each CSV without its provenance line, which holds the config."""
    assert all(text.startswith("# hcplab ") for name, text in files.items()
               if name.endswith(".csv"))
    return {name: text.split("\n", 1)[1] for name, text in files.items()
            if name.endswith(".csv")}


# ---------------------------------------------------------------------------
# rate scale
# ---------------------------------------------------------------------------

RATE_CONFIG = {"seed": 11, "epochs": 4, "replicas": 5,
               "initial_law": {"kind": "geometric", "q": 0.3},
               "process": {"variant": "periodic"},
               "window": {"n_intervals": 400, "buffer_factor": 2.0}}


def rate_config(rates: str, scale: float) -> dict:
    return {**RATE_CONFIG, "schedule": {"thresholds": "geometric", "rates": rates,
                                        "left": 0.5 * scale, "right": 1.5 * scale}}


@pytest.mark.parametrize("exponent", K + [1023, -1073])
@pytest.mark.parametrize("rates", RATES)
def test_rate_scale(tmp_path, rates, exponent):
    # 1.5 * 2^1023 is within the float range, the rate sum 2^1025 is not;
    # 0.5 * 2^-1073 is the least subnormal, and a time over a rate that small
    # is past the float range
    want = below_provenance(run(tmp_path, "simulate", rate_config(rates, 1.0)))
    got = below_provenance(run(tmp_path, "simulate", rate_config(rates, 2.0 ** exponent)))
    assert got == want


def test_rate_scale_warns_nothing(tmp_path, capsys):
    run(tmp_path, "simulate", rate_config("linear", 2.0 ** 1023))
    captured = capsys.readouterr()
    assert captured.out == captured.err == ""


# ---------------------------------------------------------------------------
# length scale
# ---------------------------------------------------------------------------

LENGTH_CONFIG = {"seed": 5, "epochs": 3, "replicas": 4,
                 "initial_law": {"kind": "two_point", "a": 1.0, "b": 3.0},
                 "window": {"n_intervals": 300},
                 "analytic": {"l_max": 400.0}}
THRESHOLDS = [1.0, 2.0, 4.0, 8.0]

# the columns (by index) that hold a length, per file of either command
LENGTH_COLUMNS = {"replicas.csv": [2], "active_mass.csv": [1], "survival.csv": [1]}
INTERVAL_LAW = [0]  # interval_law_epochNN.csv: position


def length_config(variant: str, rates: str, scale: float) -> dict:
    cfg = json.loads(json.dumps(LENGTH_CONFIG))
    cfg["initial_law"]["a"] *= scale
    cfg["initial_law"]["b"] *= scale
    cfg["analytic"]["l_max"] *= scale
    cfg["process"] = {"variant": variant}
    cfg["schedule"] = {"thresholds": "explicit", "values": [d * scale for d in THRESHOLDS],
                       "rates": rates, "left": 1.0, "right": 2.0}
    return cfg


def unscaled(name: str, text: str, scale: float) -> str:
    """``text`` with each length divided by ``scale``: the listed columns of
    a row, and an interval law's ``l_max``."""
    columns = INTERVAL_LAW if name.startswith("interval_law_") else LENGTH_COLUMNS.get(name, [])
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line.startswith("# l_max="):
            l_max, deficit = line[len("# l_max="):].split(" deficit=")
            lines[i] = f"# l_max={float(l_max) / scale!r} deficit={deficit}"
        elif line[:1].isdigit() and columns:
            cells = line.split(",")
            for c in columns:
                cells[c] = repr(float(cells[c]) / scale)
            lines[i] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("exponent", K + [-1030])  # at -1030 d(1) is subnormal
@pytest.mark.parametrize("rates", RATES)
def test_length_scale_analytic(tmp_path, rates, exponent):
    scale = 2.0 ** exponent
    want = run(tmp_path, "analytic", length_config("periodic", rates, 1.0))
    got = run(tmp_path, "analytic", length_config("periodic", rates, scale))
    assert got.keys() == want.keys()
    # c0 is estimated on the law in units of d(1), on the grid as given
    c0 = json.loads(got["c0_report.json"]), json.loads(want["c0_report.json"])
    got, want = below_provenance(got), below_provenance(want)
    for name in want:
        assert unscaled(name, got[name], scale) == want[name], name
    assert c0[0] == c0[1]


@pytest.mark.parametrize("exponent", K)
@pytest.mark.parametrize("variant", ["periodic", "left_bounded", "stationary"])
def test_length_scale_simulate(tmp_path, variant, exponent):
    scale = 2.0 ** exponent
    want = below_provenance(run(tmp_path, "simulate", length_config(variant, "linear", 1.0)))
    got = below_provenance(run(tmp_path, "simulate", length_config(variant, "linear", scale)))
    assert got.keys() == want.keys() == {"replicas.csv", "samples.csv"}
    for name in want:
        assert unscaled(name, got[name], scale) == want[name], name
