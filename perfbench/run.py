"""Benchmark of the sl2prop CLI: one workload per run, one pass at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or a checkout of it); sl2prop is imported from
``src/`` there.  A pass runs every CLI invocation of the workload in order in
a fresh interpreter (``worker.py``), writing CSV to a scratch directory under
the checkout; passes repeat, one after the other, while one more pass (at
the mean length so far) would end no later than half a pass after S seconds,
so that a run takes S seconds on average whatever the length of a pass.
Outputs of the first pass are checked against references that never go
through sl2prop (``reference.py``); later passes must reproduce them byte for
byte.

With --trace 0 the end-to-end metrics are printed; with --trace 1 untraced
and traced passes alternate, and the per-layer metrics come from the traced
ones.

wall_s and setup_s leave out steal: the time in which the host ran something
else on the VM's CPUs, as the worker reads it from /proc/stat around each
call and import (``worker.steal_s``).  On a shared VM steal comes and goes
over minutes and reaches a quarter of the wall time, so a pass that takes
8 s one minute takes 10 s the next; a change to sl2prop does not move it.
The raw wall times and the steal are printed on the comment lines.

The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import reference as ref
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_SAMPLES = 3  # import-only passes, on top of the import of every timed pass
PASS_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "pass_frac": "fraction", "accuracy_digits": "digits", "oracle_digits": "digits"}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def environment(seed: int) -> dict:
    commit = "unknown"
    git_dir = ROOT / ".git"
    if git_dir.is_dir():
        out = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or commit
    blas_threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            blas_threads = fn()
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"commit": commit, "seed": seed, "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads}


def _sha256(path: Path) -> str | None:
    if not path.exists():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _data_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if not line.startswith("#")) - 1  # minus the header


def run_pass(invs, work: Path, traced: bool) -> dict:
    """Run one pass in a fresh interpreter; with no invocations it only
    imports sl2prop.cli, which times set-up."""
    work.mkdir(parents=True)
    outputs = [work / f"out{i}.csv" for i in range(len(invs))]
    job = {"src": str(SRC), "trace": traced, "result": str(work / "result.json"),
           "calls": [[*inv.argv, "--output", str(p)] for inv, p in zip(invs, outputs)]}
    (work / "job.json").write_text(json.dumps(job), encoding="utf-8")
    with open(work / "stderr.log", "w", encoding="utf-8") as err:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "job.json")],
                              stdout=subprocess.DEVNULL, stderr=err, timeout=PASS_TIMEOUT_S,
                              check=False)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker failed:\n{(work / 'stderr.log').read_text()[-2000:]}")
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    result["traced"] = traced
    result["hashes"] = [_sha256(p) for p in outputs]
    result["outputs"] = outputs
    return result


def run_passes(invs, seconds: float, trace: bool, scratch: Path) -> list[dict]:
    """Passes while one more would end no later than half a pass after
    `seconds`; with tracing, alternate untraced and traced passes and run at
    least one of each.  Only the first pass of each kind keeps its CSV files."""
    passes, spent = [], []
    start = time.perf_counter()
    while len(passes) < (2 if trace else 1) or \
            time.perf_counter() - start + statistics.mean(spent) / 2 <= seconds:
        t0 = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        p = run_pass(invs, scratch / f"pass{len(passes)}", traced)
        if any(q["traced"] == traced for q in passes):
            for path in p["outputs"]:
                path.unlink(missing_ok=True)
        passes.append(p)
        spent.append(time.perf_counter() - t0)
    return passes


def judge(invs, passes) -> tuple[list, int, int, bool, list[str]]:
    """Check outputs; return per-invocation verdicts, attempted, failed,
    correct and notes.  A failure is allowed (keeps `correct`) only when it is
    the declared known defect of that invocation."""
    first = passes[0]
    verdicts, notes = [], []
    for inv, path, rc in zip(invs, first["outputs"], (c["rc"] for c in first["calls"])):
        try:
            verdicts.append(workloads.check(inv, str(path), rc))
        except (OSError, ValueError) as e:  # missing or malformed CSV
            verdicts.append(workloads.Verdict(rc == 0, False, np.inf, note=f"bad output: {e}"))
    attempted = failed = 0
    correct = True
    for p in passes:
        for i, (inv, v) in enumerate(zip(invs, verdicts)):
            attempted += 1
            bad = v.failed_checks()
            if p["calls"][i]["rc"] != 0:
                bad.add("exit")
            if p["hashes"][i] != first["hashes"][i]:
                bad.add("traced-output" if p["traced"] else "determinism")
            if bad:
                failed += 1
                allowed = {inv.known_defect[0]} if inv.known_defect else set()
                note = f"unexpected failure of {inv.label}: {sorted(bad)} {v.note}"
                if not bad <= allowed:
                    correct = False
                    if note not in notes:
                        notes.append(note)
    return verdicts, attempted, failed, correct, notes


def times(passes, setup, less_steal: bool) -> dict:
    """Median over passes of the wall and CPU seconds of the CLI calls, and
    median import seconds over `setup` (passes too); with `less_steal`, wall
    and import times leave out the steal in them."""
    k = 1.0 if less_steal else 0.0
    return {"wall_s": statistics.median(sum(c["wall"] - k * c["steal"] for c in p["calls"])
                                        for p in passes),
            "cpu_s": statistics.median(sum(c["cpu"] for c in p["calls"]) for p in passes),
            "setup_s": statistics.median(s["import_s"] - k * s["import_steal"] for s in setup)}


def end_to_end(passes, setup, verdicts, attempted, failed) -> dict:
    oracle = [v.oracle_err for v in verdicts if v.oracle_err is not None]
    return {
        **times(passes, setup, less_steal=True),
        "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in passes),
        "pass_frac": 1.0 - failed / attempted,
        "accuracy_digits": ref.digits(max(v.err for v in verdicts)),
        # A workload without an oracle output reads at the cap.
        "oracle_digits": ref.digits(max(oracle)) if oracle else ref.DIGITS_CAP,
    }


def per_layer(passes, required) -> tuple[dict, list[str], bool]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    runs = [tracer.layer_metrics(p["spans"]) for p in traced]
    m = {k: (runs[0][k] if k in tracer.COUNT_METRICS else statistics.median(r[k] for r in runs))
         for k in runs[0]}
    outputs = [path for path in passes[0]["outputs"] if path.exists()]
    m["cli.bytes"] = float(sum(path.stat().st_size for path in outputs))
    m["cli.rows"] = float(sum(_data_rows(path) for path in outputs))
    wall = [statistics.median(sum(c["wall"] for c in p["calls"]) for p in group)
            for group in (traced, plain)]
    m["trace.overhead_frac"] = wall[0] / wall[1] - 1.0
    notes = [f"absent layer: {name}" for name in traced[0]["absent"]]
    ok = True
    for layer in required:
        if layer in traced[0]["absent"]:
            continue
        if tracer.calls_of(traced[0]["spans"], layer) == 0:
            ok = False
            notes.append(f"error: layer {layer} recorded no calls")
    return m, notes, ok


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    if not (SRC / "sl2prop" / "cli.py").is_file():
        raise BenchmarkError(f"no sl2prop sources under {SRC}")
    build, required = workloads.WORKLOADS[workload]
    invs = build(seed, smoke)
    env = environment(seed)
    scratch = SCRATCH / f"{workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        setup = [] if trace else [run_pass([], scratch / f"setup{i}", False)
                                  for i in range(SETUP_SAMPLES)]
        passes = run_passes(invs, seconds, trace, scratch)
        setup += passes
        verdicts, attempted, failed, correct, notes = judge(invs, passes)
        if trace:
            metrics, layer_notes, layers_ok = per_layer(passes, required)
            notes += layer_notes
            correct = correct and layers_ok
            units = tracer.PER_LAYER
        else:
            metrics = end_to_end(passes, setup, verdicts, attempted, failed)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    return {"env": env, "trace": trace, "invocations": invs, "verdicts": verdicts, "notes": notes,
            "passes": passes, "setup": setup,
            "result": {"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                                   for k in units}}}


def report(workload: str, out: dict):
    print("# env " + json.dumps(out["env"], sort_keys=True))
    for inv, v in zip(out["invocations"], out["verdicts"]):
        status = "ok" if not v.failed_checks() else "FAIL " + ",".join(sorted(v.failed_checks()))
        known = f" (known defect: {inv.known_defect[1]})" if inv.known_defect and \
            v.failed_checks() else ""
        oracle = "" if v.oracle_err is None else f" oracle_err={v.oracle_err:.3g}"
        print(f"# {workload} {inv.label}: {status} err={v.err:.3g}{oracle}{known} {v.note}")
    for note in out["notes"]:
        print(f"# {note}")
    for p in out["passes"]:
        calls = " ".join(f"{c['wall']:.3f}" for c in p["calls"])
        print(f"# pass{' traced' if p['traced'] else ''}: import {p['import_s']:.3f} s, "
              f"calls {calls} s, cpu {sum(c['cpu'] for c in p['calls']):.3f} s, "
              f"rss {p['maxrss_mb']:.1f} MB")
    if not out["trace"]:
        raw = times(out["passes"], out["setup"], less_steal=False)
        steal = [sum(c["steal"] for c in p["calls"]) for p in out["passes"]]
        print("# raw (steal kept): " + ", ".join(f"{k} {v:.6g} s" for k, v in raw.items())
              + "; steal per pass " + " ".join(f"{v:.3f}" for v in steal) + " s")
    n_pass, n_inv = len(out["passes"]), len(out["invocations"])
    n_traced = sum(p["traced"] for p in out["passes"])
    how = {"wall_s": f"median of {n_pass} passes, less steal",
           "setup_s": f"median of {len(out['setup'])} imports, less steal",
           "pass_frac": f"{out['result']['attempted']} invocations",
           "accuracy_digits": f"worst of {n_inv} invocations",
           "oracle_digits": f"worst of {n_inv} invocations",
           "trace.overhead_frac": f"{n_traced} traced / {n_pass - n_traced} untraced passes"}
    for name, m in out["result"]["metrics"].items():
        if name in how:
            detail = how[name]
        elif out["trace"] and name in tracer.COUNT_METRICS:
            detail = "count from the first traced pass"
        else:
            detail = f"median of {n_traced if out['trace'] else n_pass} passes"
        print(f"{name} {m['value']:.6g} {m['unit']} ({detail})")
    print(json.dumps(out["result"]))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report(args.workload, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
