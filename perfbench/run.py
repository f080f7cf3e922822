"""The sqgci benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload {step96,ladder,pairings} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it times the package in that
checkout's `src/`. Set-up is timed as the wall time of SETUP_SAMPLES
fresh `worker.py --setup-only` processes (median reported); the
operations then run in one more fresh process, whose own peak RSS is
`peak_rss_mb`. With `--trace 1` that process wraps the layers
(`spans.py`) and the layer metrics replace the end-to-end ones.

Human-readable lines come first; the last line of standard output is
the JSON result. Scratch files live in `.perfbench_tmp/` and are removed
before exit; a traced run leaves its spans in `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("step96", "ladder", "pairings")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
TAIL_BEYOND = 10   # samples that must lie beyond the reported tail percentile


class BenchError(Exception):
    pass


def tail(times):
    """(value, percentile): the highest percentile with at least
    TAIL_BEYOND samples above it, or the maximum when there are too few
    samples for any."""
    xs = sorted(times)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _run(cmd, deadline, capture):
    """Run a worker in its own process group; on overrun kill the group
    (the worker may have started `sqgci run`) and wait for it."""
    what = " ".join(cmd[2:])
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"out of time before {what}")
    proc = subprocess.Popen(cmd, cwd=str(ROOT), text=True, start_new_session=True,
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
    try:
        out, _ = proc.communicate(timeout=left)
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise BenchError(f"{what} did not finish within {DEADLINE_S:g} s") from None
    except BaseException:
        _kill(proc)
        raise
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}")
    return out


def _kill(proc):
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def measure(args, tmp, deadline):
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--tmp", tmp]
    setups = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        _run(worker + ["--setup-only"], deadline, capture=False)
        setups.append(time.perf_counter() - t0)
    out = _run(worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
               deadline, capture=True)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return setups, json.loads(lines[-1])


def report(args, setups, res):
    ops = res["ops"]
    times = [o["s"] for o in ops]
    failed = [o for o in ops if not o["ok"]]
    print("machine: " + json.dumps(res["machine"], sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(ops)} operation(s) in one closed loop, {res['threads']} thread(s)")
    for o in failed:
        print(f"  failed operation: {o['why']}")
    print("ledger_sha256: " + json.dumps(res["digests"]))
    setup_s = statistics.median(setups) + res["extra_setup_s"]
    if args.trace:
        layers = res["layers"]
        print(f"  rebound {res['rebound']} names; spans in .perfbench_out/")
        for k, v in layers.items():
            note = "  (computed, not measured)" if k in spans.COMPUTED else ""
            print(f"  {k:32s} {v:.6g} {spans.METRICS[k]}{note}")
        metrics = {k: {"value": v, "unit": spans.METRICS[k]} for k, v in layers.items()}
    else:
        op_s = statistics.median(times)
        tail_s, pct = tail(times)
        peak = res["peak_rss_mb"]
        tail_note = (f"p{pct:.4g} of {len(times)}" if pct < 100.0 else
                     f"max of {len(times)}: too few operations for a percentile "
                     f"with {TAIL_BEYOND} beyond it")
        extra = (f" + {res['extra_setup_s']:.4f} s producing the iterate"
                 if res["extra_setup_s"] else "")
        print(f"  op_s        = {op_s:.4f} s   (median of {len(times)})")
        print(f"  op_s_tail   = {tail_s:.4f} s   ({tail_note})")
        print(f"  peak_rss_mb = {peak:.1f} MB")
        print(f"  setup_s     = {setup_s:.4f} s   (median of {len(setups)} set-ups{extra})")
        print(f"  failed_ops  = {len(failed)} / {len(ops)}")
        metrics = {
            "op_s": {"value": op_s, "unit": "s"},
            "op_s_tail": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0 or not math.isfinite(args.seconds):
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "sqgci" / "__init__.py").is_file():
        print(f"perfbench: no sqgci package under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch, prefix="run-")
    try:
        setups, res = measure(args, tmp, deadline)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    report(args, setups, res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
