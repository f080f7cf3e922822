"""Config parsing, CLI verbs, exports, determinism, checkpoint resume."""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqgci import cli, iteration
from sqgci.cli import main, parse_config, render_json
from sqgci.errors import ParseError, ValidationError
from sqgci.fields import TorusField, read_sqf1, write_sqf1

TINY = """\
# two cheap steps, zero base
lambda0 = 4
b = 1.35
beta = 0.25
nu = 0.0
gamma = 1.0
steps = 2
grid_cap = 1024
seed = 0
base = zero
"""

SYNTH = """\
lambda0 = 4
b = 1.35
beta = 0.25
nu = 1.0
gamma = 1.0
steps = 1
grid_cap = 1024
base = synthetic
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_minimal_and_defaults():
    cfg = parse_config("lambda0=2\nb=5\nbeta=0.25\nnu=0\ngamma=1\n")
    assert cfg.params.lambda0 == 2
    assert cfg.params.steps == 1
    assert cfg.params.c0 == 2.0
    assert cfg.grid_cap == 4096
    assert cfg.base == "zero"
    assert cfg.emit == frozenset({"fields", "ledger", "csv", "reports"})


def test_parse_comments_and_emit_list():
    cfg = parse_config(TINY + "emit = ledger, reports\n")
    assert cfg.emit == frozenset({"ledger", "reports"})
    assert cfg.params.steps == 2


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as ei:
        parse_config("lambda0 = 2\nwhat is this\n")
    assert "line 2" in str(ei.value)
    with pytest.raises(ParseError) as ei:
        parse_config("lambda0 = 2\nzeta = 3\n")
    assert "line 2" in str(ei.value) and "zeta" in str(ei.value)
    with pytest.raises(ParseError) as ei:
        parse_config("lambda0 = 2\nlambda0 = 3\nb=1.2\nbeta=.2\nnu=0\ngamma=1")
    assert "duplicate" in str(ei.value)
    with pytest.raises(ParseError) as ei:
        parse_config("lambda0 = x\nb=1.2\nbeta=.2\nnu=0\ngamma=1")
    assert "line 1" in str(ei.value)
    with pytest.raises(ParseError):
        parse_config("b = 1.2\n")  # missing required keys


@settings(max_examples=200, deadline=None)
@given(nu=st.floats(), c0=st.floats())
@example(nu=math.nan, c0=math.inf)
def test_parse_config_float_values_valid_or_rejected(nu, c0):
    text = f"lambda0=2\nb=5\nbeta=0.25\ngamma=1\nnu = {nu!r}\nc0 = {c0!r}\n"
    try:
        cfg = parse_config(text)
    except ValidationError as e:
        # every non-finite value is reported, not only the first
        for name, v in (("nu", nu), ("c0", c0)):
            assert math.isfinite(v) or f"{name} must be finite" in str(e)
        return
    assert math.isfinite(cfg.params.nu) and cfg.params.nu >= 0.0
    assert math.isfinite(cfg.params.c0) and cfg.params.c0 >= 2.0


_CONFIG_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e400", "0x10", "1_000", "all", "ledger, csv",
                     "warn", "strict48", "synthetic", "zero", "."]),
)
_CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(sorted(cli._ALL_KEYS) + ["zeta"]), _CONFIG_VALUES)
    .map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_CONFIG_LINES, max_size=14))
def test_parse_config_fuzz_raises_only_config_errors(lines):
    try:
        parse_config("\n".join(lines))
    except (ParseError, ValidationError):
        pass


def test_validation_collects_everything():
    with pytest.raises(ValidationError) as ei:
        parse_config("lambda0=1\nb=0.5\nbeta=0.9\nnu=0\ngamma=1\n"
                     "grid_cap=100\nbase=other\n")
    msg = str(ei.value)
    assert len(ei.value.problems) >= 4
    assert "grid_cap" in msg and "base" in msg


def test_knife_edge_exponent_accepted():
    from sqgci.iteration import lambda_at
    cfg = parse_config("lambda0=2\nb=6.585\nbeta=0.25\nnu=0\ngamma=1\n")
    assert lambda_at(cfg.params.lambda0, cfg.params.b, 1) == 97


def test_render_json_is_deterministic():
    s = render_json({"x": 0.1, "flag": True, "n": 3, "sub": {"y": -1.5}})
    assert s == ('{"x": 0.10000000000000001, "flag": true, "n": 3,'
                 ' "sub": {"y": -1.5}}')
    with pytest.raises(ValueError):
        render_json({"bad": math.inf})


def test_cli_feasibility_verb(tmp_path, capsys):
    cfg = _write(tmp_path, "lambda0=2\nb=1.001\nbeta=0.3\nnu=1\ngamma=1\n"
                           "eps0=0.001\n")
    assert main(["feasibility", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["exponents"]["mismatch"] + 0.0007) < 1e-12
    assert abs(out["exponents"]["dissipation"] + 0.34985014985014984) < 1e-15
    assert out["constraints"] == {"beta_range": True, "gamma_range": True,
                                  "b_range": True, "alpha_window": True}

    bad = _write(tmp_path, "lambda0=2\nb=1.2\nbeta=0.4\nnu=1\ngamma=1.4\n",
                 "bad.cfg")
    assert main(["feasibility", "--config", bad]) == 0  # reports, not rejects
    out = json.loads(capsys.readouterr().out)
    assert out["constraints"]["beta_range"] is False
    assert out["all_pass"] is False


def test_cli_run_writes_everything(tmp_path):
    cfg = _write(tmp_path, TINY)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
    names = sorted(os.listdir(out))
    for want in ("ledger.jsonl", "theta.sqf1", "f.sqf1", "run.json",
                 "theta.spectrum.csv", "theta.shells.csv",
                 "f_leq_1.sqf1", "q_1.sqf1", "state_1.json",
                 "f_leq_2.sqf1", "q_2.sqf1", "state_2.json"):
        assert want in names
    rows = [json.loads(line) for line in
            open(os.path.join(out, "ledger.jsonl"), encoding="utf-8")]
    assert [r["n"] for r in rows] == [0, 1]
    assert rows[0]["lambda_next"] == 7 and rows[1]["lambda_next"] == 13
    run_meta = json.load(open(os.path.join(out, "run.json"), encoding="utf-8"))
    assert run_meta["config"]["lambda0"] == 4
    assert "feasibility" in run_meta


def test_cli_run_deterministic(tmp_path):
    cfg = _write(tmp_path, SYNTH)
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
        outs.append(out)
    for name in ("ledger.jsonl", "theta.sqf1", "f.sqf1"):
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b, name


def test_cli_resume_bit_identical(tmp_path):
    full_cfg = _write(tmp_path, TINY, "full.cfg")
    out_full = str(tmp_path / "full")
    assert main(["run", "--config", full_cfg, "--out", out_full,
                 "--quiet"]) == 0

    short_cfg = _write(tmp_path, TINY.replace("steps = 2", "steps = 1"),
                       "short.cfg")
    out_res = str(tmp_path / "res")
    assert main(["run", "--config", short_cfg, "--out", out_res,
                 "--quiet"]) == 0
    # extend to two steps in the same directory: picks up the checkpoint
    assert main(["run", "--config", full_cfg, "--out", out_res,
                 "--quiet"]) == 0

    for name in ("ledger.jsonl", "theta.sqf1", "f.sqf1"):
        a = open(os.path.join(out_full, name), "rb").read()
        b = open(os.path.join(out_res, name), "rb").read()
        assert a == b, name


def test_cli_resume_ignores_foreign_checkpoint(tmp_path):
    cfg_a = _write(tmp_path, SYNTH + "seed = 0\n", "a.cfg")
    out = str(tmp_path / "mix")
    assert main(["run", "--config", cfg_a, "--out", out, "--quiet"]) == 0
    theta_a = open(os.path.join(out, "theta.sqf1"), "rb").read()
    # different seed: checkpoints in the directory must not be reused
    cfg_b = _write(tmp_path, SYNTH + "seed = 9\n", "b.cfg")
    assert main(["run", "--config", cfg_b, "--out", out, "--quiet"]) == 0
    theta_b = open(os.path.join(out, "theta.sqf1"), "rb").read()
    assert theta_a != theta_b
    rows = [json.loads(line) for line in
            open(os.path.join(out, "ledger.jsonl"), encoding="utf-8")]
    assert [r["n"] for r in rows] == [0]


def test_cli_verify_passes(tmp_path):
    cfg = _write(tmp_path, TINY)
    out = str(tmp_path / "v")
    assert main(["verify", "--config", cfg, "--out", out, "--quiet"]) == 0
    checks = json.load(open(os.path.join(out, "reports.json"),
                            encoding="utf-8"))
    names = [c["check"] for c in checks]
    assert names == ["algebraic", "leibniz", "riesz_pairing",
                     "plane_wave_flux", "commutator_ratio_finite"]
    assert all(c["pass"] for c in checks)


def test_cli_export_spectrum_and_shells(tmp_path):
    f = TorusField.from_modes(1, {(1, 0): 0.5}, mean_zero=True)
    path = str(tmp_path / "cosx1.sqf1")
    write_sqf1(f, path)
    out = str(tmp_path)
    assert main(["export", path, "--format", "spectrum", "--out", out,
                 "--quiet"]) == 0
    lines = open(os.path.join(out, "cosx1.spectrum.csv"),
                 encoding="utf-8").read().splitlines()
    assert lines[0] == "k1,k2,|k|,re,im,modulus"
    assert len(lines) == 3  # the two conjugate modes
    cells = [line.split(",") for line in lines[1:]]
    assert {c[0] for c in cells} == {"-1", "1"}
    assert all(float(c[3]) == 0.5 for c in cells)

    assert main(["export", path, "--format", "shells", "--out", out,
                 "--quiet"]) == 0
    lines = open(os.path.join(out, "cosx1.shells.csv"),
                 encoding="utf-8").read().splitlines()
    assert lines[0] == "shell,energy"
    assert lines[1].startswith("1,0.5")
    assert len(lines) == 2


def test_cli_exit_codes(tmp_path):
    bad_cfg = _write(tmp_path, "lambda0=1\nb=0.5\nbeta=0.9\nnu=0\ngamma=1\n")
    assert main(["run", "--config", bad_cfg, "--quiet"]) == 2
    assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                 "--quiet"]) == 4
    assert main(["export", str(tmp_path / "nope.sqf1"), "--quiet"]) == 4
    # config whose first step overflows the grid budget
    big = _write(tmp_path, "lambda0=2\nb=11\nbeta=0.25\nnu=0\ngamma=1\n"
                           "grid_cap=1024\n", "big.cfg")
    assert main(["run", "--config", big, "--out", str(tmp_path / "big"),
                 "--quiet"]) == 3
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_cli_run_echo_roundtrip(tmp_path):
    cfg_text = TINY + "emit = ledger, reports\noversample = 4\n"
    cfg = parse_config(cfg_text)
    echo = cfg.echo()
    assert echo["lambda0"] == 4
    assert echo["emit"] == ["ledger", "reports"]
    assert echo["separation"] == "warn"


def test_failed_run_keeps_ledger_and_resumes(tmp_path, monkeypatch):
    two = _write(tmp_path, TINY, "two.cfg")
    fresh = str(tmp_path / "fresh")
    assert main(["run", "--config", two, "--out", fresh, "--quiet"]) == 0
    # the third step of this config breaks positivity (exit 3)
    out = str(tmp_path / "failed")
    three = _write(tmp_path, TINY.replace("steps = 2", "steps = 3"), "three.cfg")
    assert main(["run", "--config", three, "--out", out, "--quiet"]) == 3
    ledger = open(os.path.join(out, "ledger.jsonl"), "rb").read()
    assert ledger == open(os.path.join(fresh, "ledger.jsonl"), "rb").read()

    def no_step(*args, **kwargs):
        raise AssertionError("a resumed run recomputed a finished step")

    monkeypatch.setattr(iteration, "step", no_step)
    assert main(["run", "--config", two, "--out", out, "--quiet"]) == 0
    for name in ("ledger.jsonl", "theta.sqf1", "f.sqf1"):
        a = open(os.path.join(fresh, name), "rb").read()
        b = open(os.path.join(out, name), "rb").read()
        assert a == b, name


@pytest.mark.parametrize("broken", ["q_1.sqf1", "f_leq_1.sqf1"])
def test_resume_skips_a_corrupt_checkpoint(tmp_path, broken):
    two = _write(tmp_path, SYNTH.replace("steps = 1", "steps = 2"), "two.cfg")
    fresh = str(tmp_path / "fresh")
    assert main(["run", "--config", two, "--out", fresh, "--quiet"]) == 0
    out = str(tmp_path / "broken")
    one = _write(tmp_path, SYNTH, "one.cfg")
    assert main(["run", "--config", one, "--out", out, "--quiet"]) == 0
    path = os.path.join(out, broken)
    with open(path, "r+b") as fh:
        fh.truncate(100)
    # the checkpoint no longer reads: start again from the base
    assert main(["run", "--config", two, "--out", out, "--quiet"]) == 0
    for name in ("ledger.jsonl", "theta.sqf1", "f.sqf1", broken):
        a = open(os.path.join(fresh, name), "rb").read()
        b = open(os.path.join(out, name), "rb").read()
        assert a == b, name


def test_resume_rejects_a_ledger_another_config_wrote(tmp_path):
    text = SYNTH.replace("steps = 1", "steps = 2")
    own = _write(tmp_path, text + "seed = 0\n", "own.cfg")
    out = str(tmp_path / "mix")
    ledger_path = os.path.join(out, "ledger.jsonl")
    assert main(["run", "--config", own, "--out", out, "--quiet"]) == 0
    own_ledger = open(ledger_path, "rb").read()
    # another seed overwrites the ledger but leaves the checkpoints alone
    other = _write(tmp_path, text + "seed = 9\nemit = ledger\n", "other.cfg")
    assert main(["run", "--config", other, "--out", out, "--quiet"]) == 0
    assert open(ledger_path, "rb").read() != own_ledger
    # the checkpoints still match the config, but the ledger rows do not
    assert main(["run", "--config", own, "--out", out, "--quiet"]) == 0
    assert open(ledger_path, "rb").read() == own_ledger
