"""One workload of the benchmark, run in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --tmp DIR --setup-only
    python3 perfbench/worker.py --workload W --seed N --tmp DIR --seconds S --trace 0|1

`--setup-only` imports the package, builds the workload's inputs and
exits; `run.py` times such processes to get `setup_s`. Otherwise the
worker sets up, runs operations for about S seconds, checks every
operation's output and prints one JSON result line. `peak_rss_mb` is
this process's own peak, so the worker must be fresh for every run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import spans  # noqa: E402

GATE_TOL = {"master": 1e-8, "decomp": 1e-9, "pairing": 1e-8}
# The pairings workload draws one gate-6 test mode from each of these
# test-function bands max(|k1|, |k2|). The band sets the product grid
# (1000 points up to band 6, 1024 from band 7), so every operation pairs
# on both grid sizes whatever the seed.
PAIRING_BANDS = ((1, 6), (7, 8))
ITERATE_TIMEOUT_S = 120.0


def row_digest(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()


def fill_ratio(f) -> float:
    """Coefficients above 1e-16 of the largest, over coefficients stored."""
    a = np.abs(f.coeffs)
    return float(np.count_nonzero(a > 1e-16 * a.max()) / a.size)


def lambda96_config(seed) -> str:
    """The gate-4 config (lambda1 = 96): step96 steps it in-process,
    pairings runs it through `sqgci run`."""
    return (f"lambda0 = 2\nb = {math.log2(96)!r}\nbeta = 0.25\nnu = 0.0\ngamma = 1.0\n"
            f"steps = 1\ngrid_cap = 2048\nbase = synthetic\nseed = {seed}\n")


class Workload:
    """setup() is what `setup_s` times in a fresh process; prepare()
    makes check data and any input too costly to set up more than once
    (returning the seconds that count as set-up); op() is the timed
    operation; check() returns None or the reason the operation failed,
    plus per-operation facts for the traced run."""

    def __init__(self, seed, tmp):
        self.seed = seed
        self.tmp = tmp
        self.digests = []

    def prepare(self):
        return 0.0

    def cleanup(self, result):
        pass


class Step96(Workload):
    """One iteration.step of the seeded lambda1=96 synthetic base on a
    2048 grid (acceptance gate 4)."""

    def setup(self):
        from sqgci import cli, iteration
        self.iteration, self.cli = iteration, cli
        cfg = cli.parse_config(lambda96_config(self.seed))
        self.params, self.grid_cap = cfg.params, cfg.grid_cap
        self.base = iteration.make_base(self.params, seed=cfg.seed, kind=cfg.base)

    def op(self, tracer):
        return self.iteration.step(self.base, self.params, grid_cap=self.grid_cap)

    def check(self, result):
        state, row = result
        digest = row_digest(self.cli.render_json(row))
        if self.digests and digest != self.digests[0]:
            return "ledger row differs from the first repeat", {}
        self.digests = [digest]
        facts = {"fields.fill_ratio": fill_ratio(state.q)}
        if not row["master_residual"] < GATE_TOL["master"]:
            return f"master residual {row['master_residual']:.3e}", facts
        if not row["decomp_residual"] < GATE_TOL["decomp"]:
            return f"decomposition residual {row['decomp_residual']:.3e}", facts
        bad = [k for k, v in row["xnorm"].items() if not math.isfinite(v)]
        if bad:
            return f"non-finite X-norm {bad}", facts
        return None, facts


class Ladder(Workload):
    """CLI sequence on lambda0=4, b=1.35, nu=1: run steps=1, resume to
    steps=2 in the same directory, export both formats, verify."""

    CONFIG = ("lambda0 = 4\nb = 1.35\nbeta = 0.25\nnu = 1.0\ngamma = 1.0\n"
              "steps = {steps}\ngrid_cap = 1024\nbase = synthetic\nseed = {seed}\n")

    def setup(self):
        from sqgci import cli, fields
        self.cli, self.fields = cli, fields
        self.cfg = {}
        for steps in (1, 2):
            path = os.path.join(self.tmp, f"ladder{steps}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self.CONFIG.format(steps=steps, seed=self.seed))
            self.cfg[steps] = path

    def prepare(self):
        ref = os.path.join(self.tmp, "reference")
        code = self.cli.main(["run", "--config", self.cfg[2], "--out", ref, "--quiet"])
        if code != 0:
            raise RuntimeError(f"reference steps=2 run exited {code}")
        with open(os.path.join(ref, "ledger.jsonl"), "rb") as fh:
            self.reference = fh.read()
        shutil.rmtree(ref)
        self.digests = [row_digest(line) for line in self.reference.decode().splitlines()]
        return 0.0

    def op(self, tracer):
        out = tempfile.mkdtemp(dir=self.tmp, prefix="op-")
        theta = os.path.join(out, "theta.sqf1")
        stages = (
            ("ladder.run", [["run", "--config", self.cfg[1], "--out", out]]),
            ("ladder.resume", [["run", "--config", self.cfg[2], "--out", out]]),
            ("ladder.export", [["export", theta, "--format", fmt,
                                "--out", os.path.join(out, "export")]
                               for fmt in ("spectrum", "shells")]),
            ("ladder.verify", [["verify", "--config", self.cfg[2], "--out", out]]),
        )
        codes = []
        written = []   # size of each file a stage created or replaced
        for name, calls in stages:
            before = _snapshot(out) if tracer else None
            with tracer.span(name) if tracer else contextlib.nullcontext() as idx:
                if name == "ladder.resume" and tracer:
                    tracer.spans[idx][5] = 2   # steps the resumed run asks for
                for argv in calls:
                    codes.append(self.cli.main(argv + ["--quiet"]))
            if tracer:
                after = _snapshot(out)
                written += [after[p][1] for p in after if after[p] != before.get(p)]
        return out, codes, written

    def check(self, result):
        out, codes, written = result
        facts = {"cli.files_written": len(written),
                 "cli.bytes_written": sum(written)}
        if any(codes):
            return f"exit codes {codes}", facts
        with open(os.path.join(out, "ledger.jsonl"), "rb") as fh:
            if fh.read() != self.reference:
                return "resumed ledger differs from a fresh steps=2 run", facts
        with open(os.path.join(out, "reports.json"), encoding="utf-8") as fh:
            failed = [c["check"] for c in json.load(fh) if not c["pass"]]
        if failed:
            return f"verify checks failed: {failed}", facts
        for fmt in ("spectrum", "shells"):
            name = f"theta.{fmt}.csv"
            with open(os.path.join(out, name), "rb") as a, \
                    open(os.path.join(out, "export", name), "rb") as b:
                if a.read() != b.read():
                    return f"exported {name} differs from the run's own", facts
        facts["fields.fill_ratio"] = fill_ratio(
            self.fields.read_sqf1(os.path.join(out, "q_2.sqf1")))
        return None, facts

    def cleanup(self, result):
        if result is not None:
            shutil.rmtree(result[0], ignore_errors=True)


def _snapshot(d):
    """Path -> (inode, size, mtime) of the files under d; an atomic
    rewrite shows up as a changed entry."""
    out = {}
    for base, _, names in os.walk(d):
        for n in names:
            st = os.stat(os.path.join(base, n))
            out[os.path.join(base, n)] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return out


class Pairings(Workload):
    """read_sqf1 of a lambda1=96 iterate and the gate-6 weak-residual
    pairings over a seeded subset of the test modes |k| <= 8."""

    def setup(self):
        from sqgci import fields, verify
        self.fields, self.verify = fields, verify
        self.out = os.path.join(self.tmp, "iterate")
        self.cfg = os.path.join(self.tmp, "iterate.cfg")
        with open(self.cfg, "w", encoding="utf-8") as fh:
            fh.write(lambda96_config(self.seed) + "emit = fields, ledger\n")
        modes = [(k1, k2) for k1 in range(0, 9) for k2 in range(-8, 9)
                 if (k1 > 0 or k2 > 0) and k1 * k1 + k2 * k2 <= 64]
        rng = np.random.default_rng(self.seed)
        self.modes = []
        for lo, hi in PAIRING_BANDS:
            band = [k for k in modes if lo <= max(abs(k[0]), abs(k[1])) <= hi]
            self.modes.append(band[rng.integers(len(band))])

    def prepare(self):
        """Write the iterate with `sqgci run` in its own process."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "sqgci.cli", "run", "--config", self.cfg,
             "--out", self.out, "--quiet"],
            cwd=str(ROOT), env=env, timeout=ITERATE_TIMEOUT_S)
        took = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"sqgci run for the iterate exited {proc.returncode}")
        with open(os.path.join(self.out, "ledger.jsonl"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        self.digests = [row_digest(line) for line in lines]
        self.r1 = json.loads(lines[0])["r_next"]
        # one untimed operation: its pairings are what every timed repeat
        # must reproduce, and it lets the first timed one start warm
        self.reference = self.op(None)[1]
        return took

    def op(self, tracer):
        theta = self.fields.read_sqf1(os.path.join(self.out, "theta.sqf1"))
        q = self.fields.read_sqf1(os.path.join(self.out, "q_1.sqf1"))
        return q, self.verify.weak_residual(theta, q, 0.0, 1.0, self.modes)

    def check(self, result):
        q, reports = result
        facts = {"fields.fill_ratio": fill_ratio(q)}
        if len(reports) != 2 * len(self.modes):
            return f"{len(reports)} pairings for {len(self.modes)} modes", facts
        if reports != self.reference:
            return "pairings differ from the first evaluation", facts
        worst = max(abs(r.total) for r in reports) / self.r1
        defect = max(abs(r.pressure) for r in reports)
        if not worst < GATE_TOL["pairing"]:
            return f"max |total|/r1 {worst:.3e}", facts
        if not defect < self.r1:
            return f"|pressure| {defect:.3e} >= r1 {self.r1:.6f}", facts
        return None, facts


WORKLOADS = {"step96": Step96, "ladder": Ladder, "pairings": Pairings}


def machine() -> dict:
    import scipy
    import scipy.fft
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "llc": _last_level_cache(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "scipy_fft_workers": scipy.fft.get_workers(),
    }


def _last_level_cache():
    """Size string of cpu0's highest-level cache, as sysfs reports it."""
    best = (0, None)
    for d in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((d / "level").read_text())
            size = (d / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, size))
    return best[1]


def _threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def run_ops(wl, seconds, tracer):
    """Closed loop, one operation at a time: stop once the next
    operation, at the median length so far, would end past `seconds`.
    At least one operation runs."""
    ops, layers = [], []
    t_start = time.perf_counter()
    while True:
        op_id = len(ops)
        result, err = None, None
        with tracer.operation(op_id) if tracer else contextlib.nullcontext() as root:
            t0 = time.perf_counter()
            try:
                result = wl.op(tracer)
            except Exception as e:  # an operation that raises is a failed operation
                err = f"{type(e).__name__}: {e}"
            took = time.perf_counter() - t0
        facts = {}
        if err is None:
            try:
                err, facts = wl.check(result)
            except Exception as e:
                err = f"check raised {type(e).__name__}: {e}"
        wl.cleanup(result)
        result = None
        ops.append({"s": took, "ok": err is None, "why": err})
        if tracer:
            layers.append(spans.op_metrics(tracer, root, facts))
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(o["s"] for o in ops) > seconds:
            return ops, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tmp = tempfile.mkdtemp(dir=args.tmp, prefix=f"{args.workload}-")
    try:
        wl = WORKLOADS[args.workload](args.seed, tmp)
        wl.setup()
        if args.setup_only:
            return 0
        extra_setup_s = wl.prepare()
        tracer = spans.Tracer() if args.trace else None
        rebound = tracer.install() if tracer else 0
        try:
            ops, layers = run_ops(wl, args.seconds, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            tracer.dump(out / f"spans-{args.workload}.jsonl")
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "ops": ops,
            "extra_setup_s": extra_setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "threads": _threads(),
            "digests": wl.digests,
            "rebound": rebound,
            "layers": ({k: statistics.median(m[k] for m in layers) for k in layers[0]}
                       if layers else None),
            "machine": machine(),
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
