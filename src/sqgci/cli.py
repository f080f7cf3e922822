"""Command-line surface: run, verify, feasibility, export.

Config files are flat `key = value` lines with `#` comments. The keys
are the fields of IterationParams and RunConfig, with their types and
defaults; a field with no default is a required key.

Outputs are deterministic byte-for-byte for a fixed config: floats are
printed with 17 significant digits and every file is written atomically
(temp + rename). A run emits ledger.jsonl (one JSON object per step),
SQF1 checkpoints (f_leq_<n>.sqf1, q_<n>.sqf1, and a state_<n>.json
sidecar when the ledger is emitted too), final theta.sqf1 / f.sqf1, CSV
spectra, and run.json with the parameter echo and feasibility report.
The ledger is rewritten as each step completes, before that step's
checkpoint, so a run that fails keeps the rows and checkpoints of its
finished steps. Each state_<n>.json records the sha256 of ledger rows
1..n. Rerunning on a directory holding a matching checkpoint, whose
ledger still starts with those rows, resumes from it; the resumed
ledger is identical to an unbroken run's.

Exit codes: 0 success, 2 config/validation failure, 3 numeric failure
(broken positivity, separation, grid budget, or a grid too large for
memory), 4 I/O failure. Errors are reported as one JSON object on
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import sys
import typing

import numpy as np

from .errors import ParseError, ValidationError
from .fields import TorusField, _write_atomic, read_sqf1, write_sqf1
from .iteration import IterationParams, StepState, make_base, params_hash, scales_for, step
from .multipliers import _knorm, lambda_s
from .verify import feasibility, identity_checks

EMIT_ALL = frozenset({"fields", "ledger", "csv", "reports"})


@dataclasses.dataclass
class RunConfig:
    """Validated run configuration: the iteration's parameters and the
    run's own keys."""

    params: IterationParams
    grid_cap: int = 4096
    seed: int = 0
    out_dir: str = "."
    emit: frozenset = EMIT_ALL
    base: str = "zero"

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


# config key -> the type of its field; emit has its own parser
_KEYS = {**typing.get_type_hints(IterationParams), **typing.get_type_hints(RunConfig)}
del _KEYS["params"]


def _emit_targets(val: str) -> frozenset:
    return EMIT_ALL if val == "all" else frozenset(
        tok.strip() for tok in val.split(",") if tok.strip())


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
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}", line=lineno)
        if key in raw:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        if not val:
            raise ParseError(f"empty value for {key!r}", line=lineno)
        raw[key] = (val, lineno)

    declared = dataclasses.fields(IterationParams) + dataclasses.fields(RunConfig)
    missing = [f.name for f in declared if f.name in _KEYS and f.name not in raw
               and f.default is dataclasses.MISSING]
    if missing:
        raise ParseError("missing required keys: " + ", ".join(missing))

    vals = {}
    for key, (val, lineno) in raw.items():
        try:
            vals[key] = _emit_targets(val) if key == "emit" else _KEYS[key](val)
        except ValueError:
            raise ParseError(f"bad value for {key}: {val!r}", line=lineno) from None

    def given(cls):
        return {f.name: vals[f.name] for f in dataclasses.fields(cls) if f.name in vals}

    params = IterationParams(**given(IterationParams))
    cfg = RunConfig(params, **given(RunConfig))
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
    _write_atomic(path, (text.encode("utf-8"),))


# -- CSV exports -------------------------------------------------------

def export_spectrum(f: TorusField, path: str):
    """Nonzero coefficients as rows k1,k2,|k|,re,im,modulus, written
    one chunk per k1 row of the box, each rebuilt from the half, so
    neither the box nor the whole text is held."""
    K = f.band

    def chunks():
        yield b"k1,k2,|k|,re,im,modulus\n"
        for k1 in range(-K, K + 1):
            row = f.box_rows(k1 + K, k1 + K + 1)[0]
            nz = np.flatnonzero(row)
            if not np.isfinite(np.abs(row[nz])).all():  # as _scalar refuses them
                raise ValueError(f"non-finite value in spectrum row k1 = {k1}")
            lines = [f"{k1},{k2},{math.hypot(k1, k2):.17g},{c.real:.17g},{c.imag:.17g},"
                     f"{abs(c):.17g}"
                     for k2, c in zip((nz - K).tolist(), row[nz].tolist())]
            if lines:
                yield ("\n".join(lines) + "\n").encode("utf-8")

    _write_atomic(path, chunks())


def export_shells(f: TorusField, path: str):
    """Energy per integer radial shell (shell = nearest integer to |k|)."""
    shells = np.rint(_knorm(f.band)).astype(np.int64).ravel()
    mass = np.abs(f.coeffs) ** 2
    mass[:, 1:] *= 2.0  # a k2 > 0 column of the half stands for itself and its mirror
    energy = np.bincount(shells, weights=mass.ravel())
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


_STATE_NAME = re.compile(r"state_([1-9][0-9]*)\.json")


def _find_resume(cfg: RunConfig, digest: str):
    """Locate the newest usable checkpoint n <= steps: its sidecar must
    be a JSON object matching the parameter digest, the ledger's first n
    rows must be the ones the sidecar recorded (so rows another config
    wrote are never kept), and both SQF1 files must read back. Anything
    else, an undecodable sidecar or ledger included, falls back to an
    older checkpoint or a fresh base."""
    ledger_path = os.path.join(cfg.out_dir, "ledger.jsonl")
    try:
        with open(ledger_path, "r", encoding="utf-8") as fh:
            ledger_lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError):
        ledger_lines = []
    found = [int(m[1]) for m in map(_STATE_NAME.fullmatch, os.listdir(cfg.out_dir)) if m]
    for n in sorted((n for n in found if n <= cfg.params.steps), reverse=True):
        fpath, qpath, spath = _checkpoint_paths(cfg.out_dir, n)
        if not (os.path.exists(fpath) and os.path.exists(qpath)):
            continue
        try:
            with open(spath, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
        except (OSError, ValueError, RecursionError):  # undecodable or too deep
            continue
        if (not isinstance(meta, dict) or meta.get("params_hash") != digest
                or meta.get("n") != n):
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
    digest = params_hash(p, cfg.seed, cfg.base, cfg.grid_cap)

    state, lines = _find_resume(cfg, digest)
    resumed = state is not None
    if state is None:
        state = make_base(p, cfg.seed, cfg.base, cfg.grid_cap)
        lines = []
    if not quiet and resumed:
        print(f"resuming from checkpoint step {state.n}")

    def write_ledger():
        if "ledger" in cfg.emit:
            _write_text(os.path.join(cfg.out_dir, "ledger.jsonl"), _ledger_text(lines))

    if state.n == p.steps:
        write_ledger()  # nothing left to compute; a shorter rerun truncates
    while state.n < p.steps:
        state, row = step(state, p, cfg.grid_cap)
        # the row lands before its checkpoint, so a checkpoint never
        # outruns the ledger and a failed run can resume
        lines.append(render_json(row))
        write_ledger()
        if "fields" in cfg.emit:
            fpath, qpath, spath = _checkpoint_paths(cfg.out_dir, state.n)
            # an older run's sidecar must never vouch for this pair
            try:
                os.remove(spath)
            except FileNotFoundError:
                pass
            write_sqf1(state.f_leq, fpath)
            write_sqf1(state.q, qpath)
            if "ledger" in cfg.emit:  # the sidecar's digest names ledger rows
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
        _write_text(os.path.join(cfg.out_dir, "run.json"), render_json({
            "config": cfg.echo(),
            "params_hash": digest,
            "feasibility": dataclasses.asdict(feasibility(p)),
        }) + "\n")
    if not quiet:
        print(f"done: {p.steps} step(s), outputs in {cfg.out_dir}")
    return 0


# -- verify ------------------------------------------------------------

def cmd_verify(cfg: RunConfig, quiet: bool = False) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    checks = identity_checks(cfg.params, cfg.seed)
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
    print(render_json({**dataclasses.asdict(fz), "all_pass": fz.all_pass}))
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
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{args.config}: not UTF-8 text ({e.reason} at byte "
                             f"{e.start})") from None
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
    except (ArithmeticError, MemoryError, RuntimeError, ValueError) as e:
        _emit_error(e, 3)
        return 3


def _emit_error(e: Exception, code: int):
    sys.stderr.write(render_json({
        "error": type(e).__name__, "message": str(e), "exit": code}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
