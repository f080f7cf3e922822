"""Command-line surface: run, verify, feasibility, export.

Config files are flat `key = value` lines with `#` comments. Required
keys: lambda0, b, beta, nu, gamma. Optional (with defaults): c0=2,
eps0=0.01, steps=1, grid_cap=4096, oversample=4, separation=warn,
seed=0, out_dir=., emit=all, base=zero.

Outputs are deterministic byte-for-byte for a fixed config: floats are
printed with 17 significant digits and every file is written atomically
(temp + rename). A run emits ledger.jsonl (one JSON object per step),
SQF1 checkpoints (f_leq_<n>.sqf1, q_<n>.sqf1, state_<n>.json), final
theta.sqf1 / f.sqf1, CSV spectra, and run.json with the parameter echo
and feasibility report. The ledger is rewritten as each step completes,
before that step's checkpoint, so a run that fails keeps the rows and
checkpoints of its finished steps. Each state_<n>.json records the
sha256 of ledger rows 1..n. Rerunning on a directory holding a matching
checkpoint, whose ledger still starts with those rows, resumes from it;
the resumed ledger is identical to an unbroken run's.

Exit codes: 0 success, 2 config/validation failure, 3 numeric failure
(broken positivity, separation, grid budget), 4 I/O failure. Errors are
reported as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from .errors import ParseError, ValidationError
from .fields import (
    TorusField,
    _write_atomic,
    inner,
    multiply,
    random_field,
    read_sqf1,
    write_sqf1,
)
from .iteration import (
    IterationParams,
    StepState,
    iterate,
    lambda_at,
    make_base,
    params_hash,
    scales_for,
)
from .multipliers import DIRECTIONS, L1, _kgrids, lambda_s, modulate, riesz, riesz_commutator
from .norms import sobolev
from .verify import (
    check_algebraic,
    commutator_ratio,
    feasibility,
    leibniz_residual,
    report,
    weak_residual,
)

EMIT_ALL = frozenset({"fields", "ledger", "csv", "reports"})

_REQUIRED = ("lambda0", "b", "beta", "nu", "gamma")
_INT_KEYS = {"lambda0", "steps", "grid_cap", "oversample", "seed"}
_FLOAT_KEYS = {"b", "beta", "nu", "gamma", "c0", "eps0"}
_STR_KEYS = {"separation", "out_dir", "base", "emit"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS


class RunConfig:
    """Validated run configuration."""

    def __init__(self, params: IterationParams, grid_cap=4096, seed=0,
                 out_dir=".", emit=EMIT_ALL, base="zero"):
        self.params = params
        self.grid_cap = int(grid_cap)
        self.seed = int(seed)
        self.out_dir = str(out_dir)
        self.emit = frozenset(emit)
        self.base = str(base)

    def echo(self) -> dict:
        p = self.params
        return {
            "lambda0": p.lambda0, "b": p.b, "beta": p.beta, "nu": p.nu,
            "gamma": p.gamma, "c0": p.c0, "eps0": p.eps0, "steps": p.steps,
            "grid_cap": self.grid_cap, "oversample": p.oversample,
            "separation": p.separation, "seed": self.seed,
            "out_dir": self.out_dir, "emit": sorted(self.emit),
            "base": self.base,
        }


def parse_config(text: str, validate: bool = True) -> RunConfig:
    """Parse and (optionally) validate a config. ParseError carries the
    offending line number; ValidationError lists every violation."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ParseError(f"expected key = value, got {body!r}", line=lineno)
        key, _, val = body.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _ALL_KEYS:
            raise ParseError(f"unknown key {key!r}", line=lineno)
        if key in raw:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        if not val:
            raise ParseError(f"empty value for {key!r}", line=lineno)
        raw[key] = (val, lineno)

    missing = [k for k in _REQUIRED if k not in raw]
    if missing:
        raise ParseError("missing required keys: " + ", ".join(missing))

    vals = {}
    for key, (val, lineno) in raw.items():
        try:
            if key in _INT_KEYS:
                vals[key] = int(val)
            elif key in _FLOAT_KEYS:
                vals[key] = float(val)
            else:
                vals[key] = val
        except ValueError:
            raise ParseError(f"bad value for {key}: {val!r}", line=lineno) from None

    emit_raw = vals.get("emit", "all")
    emit = EMIT_ALL if emit_raw == "all" else frozenset(
        tok.strip() for tok in emit_raw.split(",") if tok.strip())

    params = IterationParams(
        lambda0=vals["lambda0"], b=vals["b"], beta=vals["beta"],
        nu=vals["nu"], gamma=vals["gamma"], c0=vals.get("c0", 2.0),
        eps0=vals.get("eps0", 0.01), steps=vals.get("steps", 1),
        oversample=vals.get("oversample", 4),
        separation=vals.get("separation", "warn"),
    )
    cfg = RunConfig(params, grid_cap=vals.get("grid_cap", 4096),
                    seed=vals.get("seed", 0), out_dir=vals.get("out_dir", "."),
                    emit=emit, base=vals.get("base", "zero"))
    if validate:
        problems = params.validate()
        gc = cfg.grid_cap
        if gc < 64 or gc & (gc - 1):
            problems.append(f"grid_cap must be a power of two >= 64, got {gc}")
        bad = cfg.emit - EMIT_ALL
        if bad:
            problems.append(f"unknown emit targets: {', '.join(sorted(bad))}")
        if cfg.base not in ("zero", "synthetic"):
            problems.append(f"base must be zero or synthetic, got {cfg.base!r}")
        if cfg.seed < 0:
            problems.append(f"seed must be >= 0, got {cfg.seed}")
        if problems:
            raise ValidationError(problems)
    return cfg


# -- deterministic JSON ------------------------------------------------

def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isnan(v) or math.isinf(v):
            raise ValueError(f"non-finite value {v} in output record")
        return format(v, ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    if v is None:
        return "null"
    raise TypeError(f"cannot render {type(v).__name__} in JSON output")


def render_json(obj) -> str:
    """Compact JSON with insertion-order keys and .17g floats."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {render_json(v)}"
                               for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in obj) + "]"
    return _scalar(obj)


def _write_text(path: str, text: str):
    _write_atomic(path, text.encode("utf-8"))


# -- CSV exports -------------------------------------------------------

def export_spectrum(f: TorusField, path: str):
    """Nonzero coefficients as rows k1,k2,|k|,re,im,modulus."""
    K = f.band
    lines = ["k1,k2,|k|,re,im,modulus"]
    for i1, i2 in np.argwhere(f.coeffs != 0):
        k1 = int(i1) - K
        k2 = int(i2) - K
        c = complex(f.coeffs[i1, i2])
        lines.append(",".join((str(k1), str(k2), _scalar(math.hypot(k1, k2)),
                               _scalar(c.real), _scalar(c.imag), _scalar(abs(c)))))
    _write_text(path, "\n".join(lines) + "\n")


def export_shells(f: TorusField, path: str):
    """Energy per integer radial shell (shell = nearest integer to |k|)."""
    _, _, kn = _kgrids(f.band)
    shells = np.rint(kn).astype(np.int64).ravel()
    energy = np.bincount(shells, weights=(np.abs(f.coeffs) ** 2).ravel())
    lines = ["shell,energy"]
    for s, e in enumerate(energy):
        if e > 0.0:
            lines.append(f"{s},{_scalar(float(e))}")
    _write_text(path, "\n".join(lines) + "\n")


# -- run / resume ------------------------------------------------------

def _checkpoint_paths(out_dir: str, n: int):
    return (os.path.join(out_dir, f"f_leq_{n}.sqf1"),
            os.path.join(out_dir, f"q_{n}.sqf1"),
            os.path.join(out_dir, f"state_{n}.json"))


def _ledger_text(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _ledger_sha256(lines) -> str:
    return hashlib.sha256(_ledger_text(lines).encode("utf-8")).hexdigest()


def _find_resume(cfg: RunConfig, digest: str):
    """Locate the newest usable checkpoint: its sidecar must match the
    parameter digest, the ledger's first n rows must be the ones the
    sidecar recorded (so rows another config wrote are never kept), and
    both SQF1 files must read back. Anything else falls back to an older
    checkpoint or a fresh base."""
    ledger_path = os.path.join(cfg.out_dir, "ledger.jsonl")
    try:
        with open(ledger_path, "r", encoding="utf-8") as fh:
            ledger_lines = fh.read().splitlines()
    except OSError:
        ledger_lines = []
    for n in range(cfg.params.steps, 0, -1):
        fpath, qpath, spath = _checkpoint_paths(cfg.out_dir, n)
        if not (os.path.exists(fpath) and os.path.exists(qpath)
                and os.path.exists(spath)):
            continue
        try:
            with open(spath, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if meta.get("params_hash") != digest or meta.get("n") != n:
            continue
        if meta.get("ledger_sha256") != _ledger_sha256(ledger_lines[:n]):
            continue
        try:
            state = StepState(n=n, f_leq=read_sqf1(fpath), q=read_sqf1(qpath))
        except (ParseError, OSError):
            continue
        return state, ledger_lines[:n]
    return None, []


def cmd_run(cfg: RunConfig, quiet: bool = False) -> int:
    p = cfg.params
    os.makedirs(cfg.out_dir, exist_ok=True)
    digest = params_hash(p, cfg.seed, cfg.base)

    state, lines = _find_resume(cfg, digest)
    resumed = state is not None
    if state is None:
        state = make_base(p, cfg.seed, cfg.base)
        lines = []
    if not quiet and resumed:
        print(f"resuming from checkpoint step {state.n}")

    def write_ledger():
        if "ledger" in cfg.emit:
            _write_text(os.path.join(cfg.out_dir, "ledger.jsonl"), _ledger_text(lines))

    if state.n == p.steps:
        write_ledger()  # nothing left to compute; a shorter rerun truncates
    for state, row in iterate(state, p, cfg.grid_cap):
        # the row lands before its checkpoint, so a checkpoint never
        # outruns the ledger and a failed run can resume
        lines.append(render_json(row))
        write_ledger()
        if "fields" in cfg.emit:
            fpath, qpath, spath = _checkpoint_paths(cfg.out_dir, state.n)
            write_sqf1(state.f_leq, fpath)
            write_sqf1(state.q, qpath)
            sc = scales_for(p, state.n)
            _write_text(spath, render_json({
                "n": state.n, "lambda_n": sc.lambda_n, "r_n": sc.r_n,
                "params_hash": digest, "ledger_sha256": _ledger_sha256(lines)}) + "\n")
        if not quiet:
            print(f"step {row['n']}: |q|_X/r = {row['ratio_q_over_r']:.6g}, "
                  f"master residual = {row['master_residual']:.3e}")

    theta = lambda_s(state.f_leq, 1.0)
    if "fields" in cfg.emit:
        write_sqf1(theta, os.path.join(cfg.out_dir, "theta.sqf1"))
        write_sqf1(state.f_leq, os.path.join(cfg.out_dir, "f.sqf1"))
    if "csv" in cfg.emit:
        export_spectrum(theta, os.path.join(cfg.out_dir, "theta.spectrum.csv"))
        export_shells(theta, os.path.join(cfg.out_dir, "theta.shells.csv"))
    if "reports" in cfg.emit:
        fz = feasibility(p)
        _write_text(os.path.join(cfg.out_dir, "run.json"), render_json({
            "config": cfg.echo(),
            "params_hash": digest,
            "feasibility": {
                "alpha": fz.alpha,
                "exponents": fz.exponents,
                "verdicts": fz.verdicts,
                "constraints": fz.constraints,
            },
        }) + "\n")
    if not quiet:
        print(f"done: {p.steps} step(s), outputs in {cfg.out_dir}")
    return 0


# -- verify ------------------------------------------------------------

def _verify_checks(cfg: RunConfig) -> list:
    p = cfg.params
    rng = np.random.default_rng(cfg.seed)
    checks = []

    checks.append(report("algebraic", {"kmax": 64}, check_algebraic(64), 1e-10))

    lam1 = lambda_at(p.lambda0, p.b, 1)
    lam5 = 5 * lam1 if 5 * lam1 <= 640 else 160
    worst = 0.0
    for l in DIRECTIONS:
        for band in (4, min(16, lam5 // 8)):
            a = random_field(band, rng, mean_zero=True)
            worst = max(worst, leibniz_residual(a, lam5, l))
    checks.append(report("leibniz", {"lambda5": lam5}, worst, 1e-11))

    worst = 0.0
    for _ in range(5):
        th = random_field(6, rng, mean_zero=True)
        ph = random_field(6, rng, mean_zero=True)
        scale = sobolev(th, 0.0) ** 2 * sobolev(ph, 0.0)
        if scale == 0.0:
            continue
        for j in (1, 2):
            lhs = inner(multiply(th, riesz(th, j)), ph)
            rhs = -0.5 * inner(th, riesz_commutator(ph, th, j))
            worst = max(worst, abs(lhs - rhs) / scale)
    checks.append(report("riesz_pairing", {"band": 6, "trials": 5}, worst, 1e-11))

    wave = modulate(TorusField.constant(1.0), L1.wave(5 * 8), "cos")
    th = lambda_s(TorusField(wave.coeffs, mean_zero=True), 1.0)
    reps = weak_residual(th, None, 0.0, 1.0,
                         [(1, 0), (0, 1), (1, 1), (2, 1)])
    scale = max(sobolev(th, 0.0) ** 2, 1e-30)
    worst = max(abs(r.nonlinear) for r in reps) / scale
    checks.append(report("plane_wave_flux", {"lambda5": 40}, worst, 1e-10))

    stats = commutator_ratio(20, 6, 12, cfg.seed)
    checks.append(report("commutator_ratio_finite",
                         {"trials": 20, "band_phi": 6, "band_theta": 12,
                          "max_ratio": stats["max"]},
                         0.0 if math.isfinite(stats["max"]) else math.inf, 1.0))
    return checks


def cmd_verify(cfg: RunConfig, quiet: bool = False) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    checks = _verify_checks(cfg)
    _write_text(os.path.join(cfg.out_dir, "reports.json"),
                render_json(checks) + "\n")
    ok = True
    for c in checks:
        ok = ok and c["pass"]
        if not quiet:
            status = "PASS" if c["pass"] else "FAIL"
            print(f"{status} {c['check']}: defect {c['maxDefect']:.3e} "
                  f"(tolerance {c['tolerance']:g})")
    return 0 if ok else 3


def cmd_feasibility(cfg: RunConfig) -> int:
    fz = feasibility(cfg.params)
    print(render_json({
        "alpha": fz.alpha,
        "exponents": fz.exponents,
        "verdicts": fz.verdicts,
        "constraints": fz.constraints,
        "all_pass": fz.all_pass,
    }))
    return 0


def cmd_export(field_file: str, fmt: str, out_dir: str,
               quiet: bool = False) -> int:
    f = read_sqf1(field_file)
    stem = os.path.splitext(os.path.basename(field_file))[0]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{stem}.{fmt}.csv")
    if fmt == "spectrum":
        export_spectrum(f, path)
    elif fmt == "shells":
        export_shells(f, path)
    else:
        raise ValidationError([f"unknown export format {fmt!r}"])
    if not quiet:
        print(f"wrote {path}")
    return 0


# -- entry point -------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="config file")
    common.add_argument("--out", metavar="DIR", help="override output directory")
    common.add_argument("--quiet", action="store_true")
    ap = argparse.ArgumentParser(prog="sqgci", description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="verb", required=True)
    sub.add_parser("run", parents=[common], help="execute the iteration")
    sub.add_parser("verify", parents=[common], help="run the identity suite")
    sub.add_parser("feasibility", parents=[common],
                   help="print the exponent report (no validation)")
    ex = sub.add_parser("export", parents=[common], help="SQF1 to CSV")
    ex.add_argument("field", metavar="FIELD.sqf1")
    ex.add_argument("--format", default="spectrum", choices=("spectrum", "shells"))
    return ap


def _load_config(args, validate: bool = True) -> RunConfig:
    if not args.config:
        raise ParseError("missing --config PATH")
    with open(args.config, "r", encoding="utf-8") as fh:
        text = fh.read()
    cfg = parse_config(text, validate=validate)
    if args.out:
        cfg.out_dir = args.out
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "run":
            return cmd_run(_load_config(args), quiet=args.quiet)
        if args.verb == "verify":
            return cmd_verify(_load_config(args), quiet=args.quiet)
        if args.verb == "feasibility":
            return cmd_feasibility(_load_config(args, validate=False))
        if args.verb == "export":
            return cmd_export(args.field, args.format, args.out or ".",
                              quiet=args.quiet)
        raise ValidationError([f"unknown verb {args.verb!r}"])
    except (ParseError, ValidationError) as e:
        _emit_error(e, 2)
        return 2
    except OSError as e:
        _emit_error(e, 4)
        return 4
    except (ArithmeticError, RuntimeError, ValueError) as e:
        _emit_error(e, 3)
        return 3


def _emit_error(e: Exception, code: int):
    sys.stderr.write(render_json({
        "error": type(e).__name__, "message": str(e), "exit": code}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
