"""Self-test of the benchmark on reduced-size workloads (about a minute).

    python3 perfbench/smoke.py

Runs one reduced pass of every workload untraced and traced and asserts that
every metric is reported, that the layers each workload must exercise were
seen and that every binding site was patched; then checks that the output
checker rejects deliberately perturbed CSVs and that a deleted function is
reported as an absent layer.
"""

from __future__ import annotations

import importlib
import shutil
import sys

import run
import tracer
import workloads

BINDING_SITES = ("sl2prop.evolve.kernel_values", "sl2prop.oracle.bessel_j",
                 "sl2prop.oracle.integrate_oscillatory", "sl2prop.kernels.bessel_i_complex",
                 "sl2prop.kernels.factor_coeffs", "sl2prop.numerics.bessel_j",
                 "sl2prop.kernels.kernel_values", "sl2prop.sl2rep.factor_coeffs")


def check_metrics():
    for name in workloads.WORKLOADS:
        for trace, expected in ((False, run.END_TO_END), (True, tracer.PER_LAYER)):
            out = run.run(name, seed=7, seconds=0, trace=trace, smoke=True)
            res = out["result"]
            assert set(res["metrics"]) == set(expected), (name, trace)
            assert res["correct"], (name, trace, out["notes"])
            assert res["attempted"] >= 1
            if trace:
                bindings = next(p for p in out["passes"] if p["traced"])["bindings"]
                missing = [b for b in BINDING_SITES if b not in bindings]
                assert not missing, missing
        print(f"smoke: {name} reports every metric")


def perturb(path, column, rel=1e-6):
    """Scale the largest value of one column by (1 + rel)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    data = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    col = lines[data[0]].split(",").index(column)
    row = max(data[1:], key=lambda i: abs(float(lines[i].split(",")[col])))
    fields = lines[row].split(",")
    fields[col] = repr(float(fields[col]) * (1.0 + rel))
    lines[row] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def check_checker():
    work = run.SCRATCH / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for builder, pick, column in ((workloads.kernel_table, 3, "re"),
                                      (workloads.oracle_verify, 1, "closed_re"),
                                      (workloads.packet_evolve, 0, "re")):
            inv = builder(7, smoke=True)[pick]
            p = run.run_pass([inv], work / inv.argv[0], False)
            path = str(p["outputs"][0])
            assert not workloads.check(inv, path, 0).failed_checks(), inv.label
            perturb(path, column)
            assert "accuracy" in workloads.check(inv, path, 0).failed_checks(), inv.label
            print(f"smoke: checker rejects a perturbed {inv.argv[0]} CSV")
    finally:
        shutil.rmtree(run.SCRATCH, ignore_errors=True)


def check_absent_layer():
    sys.path.insert(0, str(run.SRC))
    importlib.import_module("sl2prop.cli")
    numerics = sys.modules["sl2prop.numerics"]
    del numerics.bessel_j  # as if a later change removed it
    t = tracer.Tracer()
    t.install()
    assert "numerics.bessel_j" in t.absent, t.absent
    assert tracer.layer_metrics(t.spans)["numerics.bessel_j.calls"] == 0
    print("smoke: a deleted function is reported as an absent layer")


if __name__ == "__main__":
    check_metrics()
    check_checker()
    check_absent_layer()
    print("smoke ok")
