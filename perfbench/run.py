"""minircnn benchmark: one workload per invocation.

    python3 perfbench/run.py --workload detect-300 --seed 1 --seconds 20 --trace 0

Runs against the package sources in `src/` next to this directory. With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs
the workload once untraced and once traced and prints the per-layer table
and the tracing overhead. The last line of output is one JSON object,
`{"correct", "attempted", "failed", "metrics"}`, whose metrics are those
BENCHMARK.json lists. Exits 2 when the sources are missing.
"""
import os

# The package is single-threaded by design; pin BLAS before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# The metrics the result line carries. The raw times are printed but not
# there: on a shared 2-core machine whose speed changes by up to 2x for
# seconds to minutes at a time, they spread over 10 seeded runs, and drift
# between sets of runs, by more than any allowed bound. The normalized ones
# divide that speed out (README.md).
END_TO_END = {"setup_s": "s", "image_ms_p50_norm": "ms", "image_ms_p90_norm": "ms",
              "peak_rss_mb": "MB"}
UNITS = {**END_TO_END, "setup_wall_s": "s", "images_per_s": "1/s",
         "image_ms_p50": "ms", "image_ms_p90": "ms", "ref_ms": "ms",
         "failed_ratio": "ratio", "map_0.5": "ratio", "recall_0.7": "ratio",
         "final_loss": "loss"}


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_facts(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for p in sorted((SRC / "minircnn").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "cpu": _cpu_model(), "seed": seed,
            "git_commit": _git_commit(ROOT), "src_sha256": src.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["detect-300", "train-joint", "train-onestage"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "minircnn" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'minircnn'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import spans
    import workloads

    items = workloads.n_items(args.workload, args.seconds)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} items={items}")
    print("facts " + json.dumps(run_facts(args.seed), sort_keys=True))

    if args.trace:
        plain = workloads.run_workload(args.workload, args.seed, items, WORK, setups=1)
        with spans.Tracer() as tracer:
            run = workloads.run_workload(args.workload, args.seed, items, WORK,
                                         setups=1, tracer=tracer)
        plain_ms = float(np.median(workloads.normalized_ms(plain)))
        overhead = float(np.median(workloads.normalized_ms(run))) - plain_ms
        glue = tracer.item_glue(run.bounds)
        loop = {"train-joint": "training.loop.self_ms",
                "train-onestage": "onestage.loop.self_ms"}.get(args.workload)
        glue_ms = {loop: 1e3 * sum(glue.values()) / len(glue)} if loop else {}
        if plain.digest != run.digest:
            run.problems.append("traced and untraced outputs differ")
        values = spans.per_layer(tracer, len(run.item_s), glue_ms, run.minibatch_skipped,
                                  overhead)
        units = spans.metric_units()
        for name, v in values.items():
            print(f"layer {name} {v:.6g} {units[name]}")
        print(f"trace overhead {overhead:.3f} ms/item "
              f"({100 * overhead / plain_ms:.1f} %), "
              f"{len(tracer)} spans")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    else:
        run = workloads.run_workload(args.workload, args.seed, items, WORK,
                                     setups=workloads.SETUP_REPS[args.workload])
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        n = len(run.item_s)
        item_ms = 1e3 * np.array(run.item_s)
        norm_ms = workloads.normalized_ms(run)
        ref_ms = 1e3 * statistics.median(run.ref_s)
        setup_s = statistics.median(run.setup_s)
        values = {"setup_s": setup_s * workloads.REF_MS / ref_ms,
                  "image_ms_p50_norm": float(np.median(norm_ms)),
                  "image_ms_p90_norm": float(np.percentile(norm_ms, 90)),
                  "setup_wall_s": setup_s,
                  "images_per_s": n / sum(run.item_s),
                  "image_ms_p50": float(np.median(item_ms)),
                  "image_ms_p90": float(np.percentile(item_ms, 90)),
                  "ref_ms": ref_ms,
                  "peak_rss_mb": rss_mb,
                  "failed_ratio": run.failed / run.attempted, **run.quality}
        for name, v in values.items():
            print(f"metric {name} {v:.6g} {UNITS[name]}")
        print(f"timed items {n}; p90 has {n - int(0.9 * n)} items above it; "
              f"failed {run.failed} of {run.attempted}; "
              f"set-ups (s) " + " ".join(f"{s:.3f}" for s in run.setup_s))
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    print(f"digest sha256 {run.digest}")
    for p in run.problems[:20]:
        print(f"problem {p}")
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
