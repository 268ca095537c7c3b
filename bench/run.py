"""faultmech benchmark: the conceptual UGS scenario, end to end and per layer.

    python3 bench/run.py                      # every workload, one process each
    python3 bench/run.py --workload paper_v1_r8 --seed 0 --seconds 10 --trace 0

With --workload, the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The full record of the
run (environment, problem size, per-march outcomes, flags) is printed on
the line before it and written to bench/out/BENCH_<workload>[_trace].json;
a traced run also writes its spans to bench/out/SPANS_<workload>.jsonl.
"""
import os

# BLAS and OpenMP pools are sized when numpy loads, so pin them first
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _import_workloads():
    """Load the benchmark against the checkout's own faultmech sources."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import faultmech
    except ImportError as exc:
        sys.exit(f"bench: cannot import faultmech from {src}: {exc}")
    if Path(faultmech.__file__).resolve().parent.parent != src:
        sys.exit(f"bench: faultmech resolves to {faultmech.__file__}, not under {src}")
    import workloads
    return workloads


def run_one(args, workloads):
    wl = workloads.WORKLOADS[args.workload]
    result, record = workloads.run(wl, args.seconds, args.trace, args.seed)
    spans = record.pop("spans", None)
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    suffix = "_trace" if args.trace else ""
    (OUT / f"BENCH_{wl.name}{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with open(OUT / f"SPANS_{wl.name}.jsonl", "w") as fh:
            for sp in spans:
                fh.write(json.dumps(sp.as_dict()) + "\n")
    for line in record["flags"] + record["problems"]:
        print(f"bench: {wl.name}: {line}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


def run_all(args, workloads):
    """Each workload in its own process; a table of every metric."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}  correct={result['correct']}  "
              f"attempted={result['attempted']}  failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32s} {m['value']:>16.6g} {m['unit']}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None):
    workloads = _import_workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                    help="run one workload in this process (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded only: no input depends on it")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="march time to measure with --trace 0 (at least one march)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return (run_one if args.workload else run_all)(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
