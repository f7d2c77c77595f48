import json
import math

import pytest

from ym2d.cli import main


def test_version(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip()


def test_requires_subcommand():
    assert main([]) == 2


def test_empty_config_is_schema_violation(tmp_path, capsys):
    cfg = tmp_path / "empty.json"
    cfg.write_text("")
    assert main(["check-identities", "--config", str(cfg)]) == 2
    assert "config" in capsys.readouterr().err


def test_unknown_config_key_is_schema_violation(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"gird": 32}))
    out = tmp_path / "d.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2


def test_wrong_config_type_is_schema_violation(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"grid": "large"}))
    out = tmp_path / "d.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2


def test_check_identities(tmp_path, capsys):
    out = tmp_path / "id.jsonl"
    rc = main(["check-identities", "--seeds", "2", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == 9
    rows = [json.loads(l) for l in out.read_text().strip().split("\n")]
    assert all(r["pass"] for r in rows)
    manifest = json.loads((tmp_path / "id.manifest.json").read_text())
    assert manifest["command"] == "check-identities"
    assert manifest["config"]["seeds"] == 2


def test_check_symbols_small(tmp_path, capsys):
    out = tmp_path / "sym.jsonl"
    rc = main(["check-symbols", "--count", "5000", "--out", str(out)])
    assert rc == 0
    rows = [json.loads(l) for l in out.read_text().strip().split("\n")]
    assert len(rows) == 8
    for r in rows:
        assert r["pass"] and r["supRatio"] <= r["threshold"]


def test_simulate_zero_scale_is_zero_trajectory(tmp_path):
    out = tmp_path / "zero.csv"
    rc = main([
        "simulate", "--grid", "16", "--dt", "0.01", "--t-end", "0.03",
        "--scale", "0", "--monitor-every", "1", "--out", str(out),
    ])
    assert rc == 0
    rows = out.read_text().strip().split("\n")[1:]
    for row in rows:
        assert [float(x) for x in row.split(",")[1:]] == [0.0] * 5


def test_simulate_artifacts_bit_identical(tmp_path):
    args = [
        "simulate", "--grid", "32", "--dt", "0.002", "--t-end", "0.01",
        "--scale", "0.01", "--monitor-every", "5", "--snapshot-every", "5",
    ]
    outs = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        out = d / "diag.csv"
        assert main(args + ["--out", str(out)]) == 0
        snaps = sorted(d.glob("*.ymf2"))
        assert len(snaps) == 2  # steps 0 and 5
        outs.append((out.read_bytes(), [s.read_bytes() for s in snaps]))
    assert outs[0] == outs[1]


def test_simulate_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 16, "dt": 0.01, "t_end": 0.02, "scale": 0.0}))
    out = tmp_path / "d.csv"
    rc = main([
        "simulate", "--config", str(cfg), "--t-end", "0.01", "--out", str(out),
    ])
    assert rc == 0
    manifest = json.loads((tmp_path / "d.manifest.json").read_text())
    assert manifest["config"]["grid"] == 16  # from file
    assert manifest["config"]["t_end"] == 0.01  # flag overrides file


def test_simulate_half_wave_stepper(tmp_path):
    out = tmp_path / "hw.csv"
    rc = main([
        "simulate", "--grid", "32", "--dt", "0.002", "--t-end", "0.01",
        "--scale", "0.01", "--stepper", "ExpRK2", "--monitor-every", "5",
        "--out", str(out),
    ])
    assert rc == 0
    rows = out.read_text().strip().split("\n")[1:]
    for row in rows:
        vals = [float(x) for x in row.split(",")]
        assert vals[2] < 1e-6 and vals[3] < 1e-6  # lorenz, gauss stay small


def test_check_estimates_small(tmp_path, capsys):
    out = tmp_path / "est.jsonl"
    rc = main([
        "check-estimates", "--grid", "16", "--trials", "1",
        "--estimate-ids", "24", "--sweep-count", "50", "--out", str(out),
    ])
    # the elliptic sweep honestly exceeds its threshold near tau = |xi|,
    # so the command reports a numerical failure
    assert rc == 3
    stdout = capsys.readouterr().out
    assert "PASS estimate24" in stdout
    assert "PASS deltaIntegralCircle" in stdout
    assert "FAIL ellipticISweep" in stdout


def test_check_estimates_rejects_bad_id(tmp_path):
    rc = main([
        "check-estimates", "--estimate-ids", "99",
        "--out", str(tmp_path / "e.jsonl"),
    ])
    assert rc == 2
    assert not list(tmp_path.iterdir())  # no manifest


@pytest.mark.parametrize("argv", [
    ["simulate", "--grid", "63"],
    ["simulate", "--dt", "-1"],
    ["simulate", "--n", "1"],
    ["simulate", "--monitor-every", "0"],
    ["simulate", "--scale", "-0.01"],
    ["check-identities", "--scale", "-0.01"],
    ["check-symbols", "--count", "0"],
    ["check-estimates", "--estimate-ids", "x"],
    ["picard", "--iterations", "0"],
    ["picard", "--iterations", "1"],
    ["convergence", "--grid", "8"],
])
def test_invalid_config_exits_2_without_manifest(tmp_path, argv, capsys):
    out = tmp_path / "o.out"
    assert main(argv + ["--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_simulate_half_wave_measures_twin_diff(tmp_path):
    out = tmp_path / "hw.csv"
    rc = main([
        "simulate", "--grid", "32", "--dt", "0.002", "--t-end", "0.006",
        "--scale", "0.01", "--stepper", "ExpRK2", "--monitor-every", "1",
        "--out", str(out),
    ])
    assert rc == 0
    rows = [[float(x) for x in row.split(",")]
            for row in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 4
    assert rows[0][5] == 0.0
    for row in rows[1:]:
        assert math.isfinite(row[5]) and 0.0 < row[5] <= 1e-5
