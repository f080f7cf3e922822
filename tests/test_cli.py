"""Config parsing, CLI verbs, exports, determinism, checkpoint resume."""

from __future__ import annotations

import builtins
import json
import math
import os
import pathlib
import random
import stat
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqgci import cli
from sqgci.cli import main, parse_config, render_json
from sqgci.errors import ParseError, ValidationError
from sqgci.fields import TorusField, random_field, read_sqf1, write_sqf1
from sqgci.iteration import step
from sqgci.multipliers import lambda_s
from sqgci.norms import sobolev

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
    st.tuples(st.sampled_from(sorted(cli._KEYS) + ["zeta"]), _CONFIG_VALUES)
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
                     "grid_cap=100\nbase=other\nemit=fields,bogus\nseed=-1\n")
    msg = str(ei.value)
    assert len(ei.value.problems) >= 6
    assert "grid_cap" in msg and "base" in msg
    assert "unknown emit targets: bogus" in msg and "seed must be >= 0" in msg


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
    with pytest.raises(TypeError, match="cannot render complex"):
        render_json({"bad": 1j})


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


@pytest.mark.parametrize("key, value", [("b", "0"), ("b", "inf"), ("b", "nan"),
                                        ("b", "1e-320"), ("gamma", "nan")])
def test_cli_feasibility_reports_degenerate_parameters(tmp_path, capsys, key, value):
    # b = 0 divides by zero and b = 1e-320 overflows beta/(2b): values
    # that are not finite print as null with a failing verdict, and every
    # window that reads the bad parameter fails
    params = {"lambda0": "2", "b": "1.35", "beta": "0.25", "nu": "1", "gamma": "1"}
    params[key] = value
    cfg = _write(tmp_path, "".join(f"{k}={v}\n" for k, v in params.items()))
    assert main(["feasibility", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_pass"] is False
    values = [out["alpha"], *out["exponents"].values()]
    assert None in values
    assert all(v is None or math.isfinite(v) for v in values)
    assert all(out["verdicts"][k] is False for k, v in out["exponents"].items() if v is None)
    reads = {"b": ("b_range", "alpha_window"),
             "gamma": ("beta_range", "gamma_range", "alpha_window")}
    assert not any(out["constraints"][c] for c in reads[key])


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


def test_cli_run_deterministic(tmp_path, monkeypatch):
    # one CPU, then two with every grid above the crossover: the row
    # blocks of the samplings and products run inline, then pooled, and
    # the transforms on one worker, then two
    from sqgci import fields
    cfg = _write(tmp_path, SYNTH.replace("steps = 1", "steps = 2"))
    monkeypatch.setattr(fields, "THREADED_GRID_MIN", 0)
    submit = fields._POOL.submit
    outs, submits = [], []
    monkeypatch.setattr(fields._POOL, "submit", lambda *a: submits.append(sub) or submit(*a))
    for sub, cpus in (("a", 1), ("b", 2)):
        out = str(tmp_path / sub)
        monkeypatch.setattr(fields, "_cpu_count", lambda: cpus)
        assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
        outs.append(out)
    assert "a" not in submits and "b" in submits
    a, b = (_files(out) for out in outs)
    names = ["ledger.jsonl"] + [n for n in a if n.endswith(".sqf1")]
    assert len(names) == 7
    for name in names:
        assert a[name] == b[name], name
    theta = read_sqf1(os.path.join(outs[0], "theta.sqf1"))
    f = read_sqf1(os.path.join(outs[0], "f.sqf1"))
    assert sobolev(theta, -0.5) > 0.0
    np.testing.assert_array_equal(theta.coeffs, lambda_s(f, 1.0).coeffs)


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


def test_rerun_without_a_ledger_starts_afresh(tmp_path, capsys, monkeypatch):
    # a checkpoint's sidecar records the ledger it extends, so with no
    # ledger written no sidecar is either: a longer rerun cannot resume
    # and computes every step
    fields_only = TINY + "emit = fields\n"
    two = _write(tmp_path, fields_only, "two.cfg")
    fresh = str(tmp_path / "fresh")
    assert main(["run", "--config", two, "--out", fresh, "--quiet"]) == 0
    assert not [n for n in os.listdir(fresh) if n.startswith("state_")]
    assert os.path.exists(os.path.join(fresh, "q_2.sqf1"))
    out = str(tmp_path / "rerun")
    one = _write(tmp_path, fields_only.replace("steps = 2", "steps = 1"), "one.cfg")
    assert main(["run", "--config", one, "--out", out, "--quiet"]) == 0
    steps = []

    def counted(state, *args):
        steps.append(state.n)
        return step(state, *args)

    monkeypatch.setattr(cli, "step", counted)
    capsys.readouterr()
    assert main(["run", "--config", two, "--out", out]) == 0
    assert steps == [0, 1] and "resuming" not in capsys.readouterr().out
    assert not os.path.exists(os.path.join(out, "ledger.jsonl"))
    names = sorted(os.listdir(fresh))
    assert sorted(os.listdir(out)) == names
    for name in names:
        if name.endswith(".sqf1"):
            a = open(os.path.join(fresh, name), "rb").read()
            assert a == open(os.path.join(out, name), "rb").read(), name


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


def test_resume_ignores_a_checkpoint_from_another_grid_cap(tmp_path):
    # the cap picks linf's sampling grids: at 1024 the second row's
    # X-norms are measured on a coarser grid than at 4096
    two = SYNTH.replace("steps = 1", "steps = 2")
    capped = _write(tmp_path, two, "capped.cfg")
    fresh = str(tmp_path / "fresh")
    assert main(["run", "--config", capped, "--out", fresh, "--quiet"]) == 0
    out = str(tmp_path / "mix")
    wide = _write(tmp_path, two.replace("grid_cap = 1024", "grid_cap = 4096"), "wide.cfg")
    assert main(["run", "--config", wide, "--out", out, "--quiet"]) == 0
    wide_ledger = open(os.path.join(out, "ledger.jsonl"), "rb").read()
    assert main(["run", "--config", capped, "--out", out, "--quiet"]) == 0
    ledger = open(os.path.join(out, "ledger.jsonl"), "rb").read()
    assert ledger != wide_ledger
    assert ledger == open(os.path.join(fresh, "ledger.jsonl"), "rb").read()


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

    # a non-finite coefficient, or a modulus that overflows, is refused
    # and leaves no file behind
    for c in (math.inf, 1.5e308 + 1.5e308j):
        half = np.zeros((3, 2), dtype=np.complex128)
        half[2, 1] = c
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError):
            cli.export_spectrum(TorusField._exact(half), str(path))
        assert not path.exists()
        assert not list(tmp_path.glob(".part.*"))


@pytest.mark.parametrize("f", [TorusField.constant(0.0), TorusField.constant(-3.0),
                               TorusField.from_modes(6, {(2, 5): 0.5 - 0.25j, (0, 3): 1.0}),
                               random_field(9, np.random.default_rng(9), mean_zero=False)],
                         ids=["zero", "constant", "empty rows", "disc"])
def test_export_spectrum_writes_the_nonzero_box_entries_in_order(tmp_path, f):
    # the file, written one chunk per k1 row, holds the joined lines of
    # every nonzero entry of the whole box in row-major order
    K = f.band
    box = f.box()
    lines = ["k1,k2,|k|,re,im,modulus"]
    for i1, i2 in np.argwhere(box != 0):
        k1, k2 = int(i1) - K, int(i2) - K
        c = complex(box[i1, i2])
        lines.append(",".join((str(k1), str(k2)) + tuple(
            render_json(x) for x in (math.hypot(k1, k2), c.real, c.imag, abs(c)))))
    path = tmp_path / "s.csv"
    cli.export_spectrum(f, str(path))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_export_spectrum_holds_no_box(tmp_path):
    # at band 400 the box takes 9.8 MiB; the export rebuilds one k1 row
    # of it at a time, 12.8 kB
    f = TorusField.from_modes(400, {(400, -400): 1.0, (-3, 7): 0.5j, (0, 400): 2.0})
    path = tmp_path / "s.csv"
    tracemalloc.start()
    try:
        cli.export_spectrum(f, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1 + 6


@pytest.mark.parametrize("band, mean", [(0, True), (1, False), (7, False), (7, True),
                                        (40, True)])
def test_export_shells_equals_the_whole_box_energies(tmp_path, band, mean):
    # the half, its k2 > 0 columns counted twice, against the whole box
    f = random_field(band, np.random.default_rng(band), mean_zero=not mean)
    path = str(tmp_path / "shells.csv")
    cli.export_shells(f, path)
    k = np.arange(-band, band + 1, dtype=np.float64)
    shells = np.rint(np.hypot(k[:, None], k[None, :])).astype(np.int64).ravel()
    want = np.bincount(shells, weights=(np.abs(f.box()) ** 2).ravel())
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0] == "shell,energy"
    got = {int(a): float(b) for a, b in (line.split(",") for line in lines[1:])}
    assert sorted(got) == [s for s, e in enumerate(want) if e > 0.0]
    for s, e in got.items():
        assert abs(e - want[s]) <= 1e-14 * want[s]


def test_cli_exit_codes(tmp_path, capsys):
    bad_cfg = _write(tmp_path, "lambda0=1\nb=0.5\nbeta=0.9\nnu=0\ngamma=1\n")
    assert main(["run", "--config", bad_cfg, "--quiet"]) == 2
    # a config that is not UTF-8 text is a config error naming the file
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(TINY.encode("ascii") + b"# caf\xe9\n")
    capsys.readouterr()
    assert main(["run", "--config", str(latin1), "--quiet"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError" and str(latin1) in err["message"]
    assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                 "--quiet"]) == 4
    capsys.readouterr()
    assert main(["verify", "--quiet"]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == "missing --config PATH"
    assert main(["export", str(tmp_path / "nope.sqf1"), "--quiet"]) == 4
    # config whose first step overflows the grid budget
    big = _write(tmp_path, "lambda0=2\nb=11\nbeta=0.25\nnu=0\ngamma=1\n"
                           "grid_cap=1024\n", "big.cfg")
    assert main(["run", "--config", big, "--out", str(tmp_path / "big"),
                 "--quiet"]) == 3
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_a_grid_too_large_for_memory_exits_3(tmp_path, capsys):
    # the amplitudes' sqrt grid has 16777216 points a side, at the cap;
    # its 2 PiB spectrum exceeds any 48-bit user address space, so numpy
    # refuses it before touching any memory, whatever the overcommit rule
    cfg = _write(tmp_path, TINY.replace("grid_cap = 1024", "grid_cap = 16777216")
                 + "oversample = 8388608\n")
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["exit"] == 3 and "allocate" in err["message"]
    assert not os.path.exists(os.path.join(out, "ledger.jsonl"))


@pytest.mark.parametrize("exc, code", [
    (ParseError("p"), 2), (ValidationError(["v"]), 2), (OSError("o"), 4),
    (FileNotFoundError("f"), 4), (ArithmeticError("a"), 3), (MemoryError("m"), 3),
    (RuntimeError("r"), 3), (ValueError("v"), 3)])
def test_each_error_class_maps_to_its_exit_code(tmp_path, capsys, monkeypatch, exc, code):
    def failing(cfg, quiet=False):
        raise exc

    monkeypatch.setattr(cli, "cmd_run", failing)
    assert main(["run", "--config", _write(tmp_path, TINY), "--quiet"]) == code
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": type(exc).__name__, "message": str(exc), "exit": code}


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["022", "077"])
def test_every_file_a_run_writes_takes_its_mode_from_the_umask(tmp_path, umask, mode):
    # 0o666 less the umask, as open() gives, not a temp file's 0o600
    cfg = _write(tmp_path, TINY.replace("steps = 2", "steps = 1"))
    out = str(tmp_path / "out")
    old = os.umask(umask)
    try:
        assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
    finally:
        os.umask(old)
    modes = {n: stat.S_IMODE(os.stat(os.path.join(out, n)).st_mode) for n in os.listdir(out)}
    assert len(modes) > 1 and set(modes.values()) == {mode}, modes


def test_synthetic_base_respects_the_grid_cap(tmp_path, capsys, monkeypatch):
    # the base's flux at band 4 lambda0 = 80 needs a 162-point product
    # grid: the run stops before drawing, with no transform over the cap
    import scipy.fft
    sizes = []
    for name in ("rfft2", "irfft", "ifft"):
        def spy(x, *args, _fft=getattr(scipy.fft, name), **kwargs):
            sizes.append(max(x.shape[0], kwargs.get("n") or 0))
            return _fft(x, *args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, spy)
    cfg = _write(tmp_path, "lambda0 = 20\nb = 1.2\nbeta = 0.25\nnu = 0\ngamma = 1\n"
                           "grid_cap = 64\nbase = synthetic\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "GridBudgetExceeded" and "cap is 64" in err["message"]
    assert max(sizes, default=0) <= 64


@pytest.mark.parametrize("verb", ["run", "verify"])
def test_ladder_beyond_the_float_range_is_a_config_error(tmp_path, capsys, verb):
    # lambda_1 = 2^(10^12): each verb used to stop with exit 3 and the
    # message "[<class 'decimal.Overflow'>]"
    cfg = _write(tmp_path, "lambda0 = 2\nb = 1e12\nbeta = 0.25\nnu = 0\n"
                           "gamma = 1\neps0 = 1e-14\n")
    assert main([verb, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "lambda_1" in err["message"] and "lambda0 = 2" in err["message"]
    assert "b = 1000000000000.0" in err["message"]


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
    # the third step of this config needs a 1080-point sqrt sampling
    # grid, over the 1024 cap (exit 3)
    out = str(tmp_path / "failed")
    three = _write(tmp_path, TINY.replace("steps = 2", "steps = 3"), "three.cfg")
    assert main(["run", "--config", three, "--out", out, "--quiet"]) == 3
    ledger = open(os.path.join(out, "ledger.jsonl"), "rb").read()
    assert ledger == open(os.path.join(fresh, "ledger.jsonl"), "rb").read()

    def no_step(*args, **kwargs):
        raise AssertionError("a resumed run recomputed a finished step")

    monkeypatch.setattr(cli, "step", no_step)
    assert main(["run", "--config", two, "--out", out, "--quiet"]) == 0
    for name in ("ledger.jsonl", "theta.sqf1", "f.sqf1"):
        a = open(os.path.join(fresh, name), "rb").read()
        b = open(os.path.join(out, name), "rb").read()
        assert a == b, name


def _files(out):
    return {name: pathlib.Path(out, name).read_bytes() for name in sorted(os.listdir(out))}


def test_a_fault_at_any_write_exits_4_and_a_rerun_finishes_the_run(tmp_path, monkeypatch):
    # two synthetic-base steps write 13 files: per step the ledger,
    # f_leq_n, q_n and state_n; then theta, f, both CSVs and run.json.
    # The k-th write fails after its first chunk; the run exits 4 with
    # no temp file left, and a clean rerun in the same directory ends
    # with the uninterrupted run's bytes.
    from sqgci import fields
    cfg = _write(tmp_path, SYNTH.replace("steps = 1", "steps = 2"))
    real = fields._write_atomic
    calls = []

    def faulty(fail_at):
        def write(path, chunks):
            calls.append(path)
            if len(calls) != fail_at:
                return real(path, chunks)

            def cut():
                yield next(iter(chunks))
                raise OSError("injected write fault")

            return real(path, cut())
        return write

    def run(out, fail_at=0):
        calls.clear()
        monkeypatch.setattr(fields, "_write_atomic", faulty(fail_at))
        monkeypatch.setattr(cli, "_write_atomic", faulty(fail_at))
        return main(["run", "--config", cfg, "--out", out, "--quiet"])

    clean = str(tmp_path / "clean")
    assert run(clean) == 0
    assert len(calls) == 13
    want = _files(clean)
    del want["run.json"]  # it echoes the output directory
    for k in range(1, 14):
        out = str(tmp_path / f"cut{k}")
        assert run(out, fail_at=k) == 4, k
        assert len(calls) == k
        assert not [n for n in os.listdir(out) if n.startswith(".part.")], k
        assert run(out) == 0, k
        got = _files(out)
        assert json.loads(got.pop("run.json"))["config"]["out_dir"] == out
        assert got == want, k


def _child_run(cfg, out):
    """`sqgci run --config cfg --out out` in a child process."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, "-B", "-m", "sqgci.cli", "run", "--config", cfg,
                             "--out", out, "--quiet"], env=dict(os.environ, PYTHONPATH=path),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _wait_for_dir(proc, out):
    """Poll until the child has made its output directory, which it does
    once its imports are done, or has exited."""
    end = time.monotonic() + 120.0
    while not os.path.isdir(out) and proc.poll() is None:
        assert time.monotonic() < end, "the child never started its run"
        time.sleep(0.002)


def test_a_killed_run_resumes_to_the_uninterrupted_bytes(tmp_path, monkeypatch):
    # SIGKILL a child `sqgci run` of two synthetic-base steps at seeded
    # instants of its run, one child at a time. A rerun in the same
    # directory exits 0 with the uninterrupted run's bytes, and opens no
    # temp file a killed write left behind (those may remain)
    cfg = _write(tmp_path, SYNTH.replace("steps = 1", "steps = 2"))
    clean = str(tmp_path / "clean")
    proc = _child_run(cfg, clean)
    _wait_for_dir(proc, clean)
    start = time.monotonic()
    assert proc.wait(timeout=300) == 0
    span = time.monotonic() - start
    want = _files(clean)
    del want["run.json"]  # it echoes the output directory
    opened = []

    def spy(file, *args, **kwargs):
        opened.append(os.path.basename(str(file)))
        return real_open(file, *args, **kwargs)

    real_open = builtins.open
    rng = random.Random(0)
    for k in range(3):
        out = str(tmp_path / f"killed{k}")
        proc = _child_run(cfg, out)
        _wait_for_dir(proc, out)
        time.sleep(rng.uniform(0.0, span))
        proc.kill()
        proc.wait(timeout=300)
        opened.clear()
        with monkeypatch.context() as m:
            m.setattr(builtins, "open", spy)
            assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 0, k
        assert opened and not [n for n in opened if n.startswith(".part.")], k
        got = {n: b for n, b in _files(out).items() if not n.startswith(".part.")}
        assert json.loads(got.pop("run.json"))["config"]["out_dir"] == out
        assert got == want, k


def test_sqrt_sampling_grid_over_the_cap_stops_the_run(tmp_path, capsys):
    # step 2 samples its amplitudes on a 648-point grid, over the cap
    text = SYNTH.replace("steps = 1", "steps = 2").replace("grid_cap = 1024",
                                                           "grid_cap = 512")
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "capped")
    assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "GridBudgetExceeded" and "648" in err["message"]
    rows = open(os.path.join(out, "ledger.jsonl"), encoding="utf-8").read().splitlines()
    assert [json.loads(r)["n"] for r in rows] == [0]
    for name in ("f_leq_1.sqf1", "q_1.sqf1", "state_1.json"):
        assert os.path.exists(os.path.join(out, name)), name
    assert not os.path.exists(os.path.join(out, "state_2.json"))


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


def test_checkpoints_without_a_sidecar_drop_the_old_one(tmp_path, monkeypatch):
    # another seed with emit = fields overwrites the step-1 pair; the
    # sidecar the first run left must go with it, or the first config
    # would resume from the other seed's fields
    own = _write(tmp_path, SYNTH + "seed = 0\n", "own.cfg")
    fresh = str(tmp_path / "fresh")
    assert main(["run", "--config", own, "--out", fresh, "--quiet"]) == 0
    out = str(tmp_path / "mix")
    assert main(["run", "--config", own, "--out", out, "--quiet"]) == 0
    other = _write(tmp_path, SYNTH + "seed = 9\nemit = fields\n", "other.cfg")
    assert main(["run", "--config", other, "--out", out, "--quiet"]) == 0
    assert not os.path.exists(os.path.join(out, "state_1.json"))
    steps = []

    def counted(state, *args):
        steps.append(state.n)
        return step(state, *args)

    monkeypatch.setattr(cli, "step", counted)
    assert main(["run", "--config", own, "--out", out, "--quiet"]) == 0
    assert steps == [0]
    for name in ("ledger.jsonl", "theta.sqf1", "f.sqf1", "f_leq_1.sqf1",
                 "q_1.sqf1", "state_1.json"):
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


@pytest.mark.parametrize("name, blob", [
    ("state_1.json", b"[1, 2]\n"),           # valid JSON, not an object
    ("state_1.json", b"{\"n\": \xff\xfe}\n"),  # not UTF-8
    ("state_1.json", b"[" * 100000),           # nested past the decoder's depth
    ("ledger.jsonl", b"\xff\xfe\x00\n"),       # not UTF-8
], ids=["list-sidecar", "undecodable-sidecar", "deep-sidecar", "undecodable-ledger"])
def test_rerun_over_a_hostile_checkpoint_starts_afresh(tmp_path, name, blob):
    cfg = _write(tmp_path, SYNTH)
    fresh = str(tmp_path / "fresh")
    assert main(["run", "--config", cfg, "--out", fresh, "--quiet"]) == 0
    out = str(tmp_path / "hostile")
    assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
    with open(os.path.join(out, name), "wb") as fh:
        fh.write(blob)
    assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == 0
    names = sorted(os.listdir(fresh))
    assert sorted(os.listdir(out)) == names
    for f in names:
        if f != "run.json":  # it echoes out_dir
            a = open(os.path.join(fresh, f), "rb").read()
            assert a == open(os.path.join(out, f), "rb").read(), f


def test_resume_scan_probes_the_directory_not_every_step(tmp_path, monkeypatch):
    cfg = parse_config(SYNTH.replace("steps = 1", "steps = 1000000"))
    cfg.out_dir = str(tmp_path)
    probes = []

    def counted(fn):
        def probe(*args, **kwargs):
            probes.append(fn.__name__)
            if len(probes) > 10:
                raise AssertionError(f"more than 10 filesystem probes: {probes[:10]}")
            return fn(*args, **kwargs)
        return probe

    # patched only around the scan, so an early failure leaves os intact
    with monkeypatch.context() as m:
        for owner, attr in ((os.path, "exists"), (os.path, "isfile"), (os, "stat"),
                            (os, "listdir"), (os, "scandir")):
            m.setattr(owner, attr, counted(getattr(owner, attr)))
        found = cli._find_resume(cfg, "digest")
    assert found == (None, [])
    assert len(probes) <= 2, probes
