"""gloss benchmark: one workload, one seed, one closed-loop process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gloss checkout; the program is imported from its
``src``. The run sets the workload up at least three times (``setup_s``
is the median), then runs whole rounds of operations, each waiting for the one
before, until ``--seconds`` have passed, then checks the outputs. The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). The line before it holds the environment, the
determinism digest and the per-workload breakdown.

With ``--trace 1`` every other round runs with the layer boundaries traced;
the untraced rounds in between give the tracing overhead. Spans are written
to ``.perfbench/spans-<workload>-<seed>.jsonl``.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

# BLAS may not pick its own thread count: on a 2-core machine that made
# classifier pre-training 4x slower. The count is fixed before numpy loads.
BLAS_THREADS = 1
# set-up is repeated at least this often and this long; setup_s is the median
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
ROOT = Path(__file__).resolve().parent.parent


def blas_info(np) -> dict:
    info = {"requested_threads": BLAS_THREADS}
    with contextlib.suppress(TypeError, KeyError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas['name']} {blas['version']}"
    # numpy wheels bundle scipy-openblas; ask it how many threads it runs
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        with contextlib.suppress(OSError, AttributeError):
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
            get.restype = ctypes.c_int
            info["threads"] = get()
    return info


def per_layer(tracer, rounds) -> dict:
    """The per-layer metrics named in BENCHMARK.json, for every workload.

    Per-example figures cover the traced measured rounds; the set-up layers
    (synth, pre-training, checkpoints, JSONL, CLI) are averaged over every
    traced call in the run, set-up included.
    """
    m = tracer.select(lambda trace: trace >= 0)
    w = tracer.select(lambda trace: True)
    examples = sum(r.examples for r in rounds)

    def per_example(seconds):
        return 1e3 * seconds / examples

    out = {"autodiff.ops_per_example": (m.leaf_n["autodiff"] / examples, "count")}
    for layer in ("autodiff", "models", "data", "metrics", "framework"):
        out[f"{layer}.self_ms_per_example"] = (per_example(m.self_s[layer]), "ms")
    for part, names in (("encoder", ["models.encoder"]),
                        ("generator", ["models.generator", "models.decode"]),
                        ("classifier", ["models.classifier"])):
        out[f"models.{part}_ms_per_example"] = (per_example(m.total_s(*names)), "ms")
    synth = ("synth.numeric", "synth.text")
    out.update({
        "cli.self_ms_per_command": (1e3 * w.self_s["cli"] / w.calls("cli.main"), "ms"),
        "checkpoint.save_ms": (1e3 * w.mean_s("checkpoint.save"), "ms"),
        "checkpoint.load_ms": (1e3 * w.mean_s("checkpoint.load"), "ms"),
        "checkpoint.bytes_per_load": (w.count("checkpoint.load") / w.calls("checkpoint.load"),
                                      "bytes"),
        "data.load_jsonl_ms": (1e3 * w.mean_s("data.load_jsonl"), "ms"),
        "synth.examples_per_s": (w.count(*synth) / w.total_s(*synth), "examples/s"),
        "framework.pretrain_classifier_s": (w.mean_s("framework.pretrain_classifier"), "s"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def trace_detail(tracer, rounds) -> dict:
    """Finer per-layer figures, each on the workloads it applies to."""
    m = tracer.select(lambda trace: trace >= 0)
    steps = sum(r.attempted for r in rounds)
    out = {}
    decode_s = m.total_s("models.decode")
    if decode_s:
        out["models.decode_tokens_per_s"] = m.count("models.decode") / decode_s
    if m.calls("framework.train"):
        def per_step(seconds):
            return 1e3 * seconds / steps
        out.update({
            "autodiff.ops_per_step": m.leaf_n["autodiff"] / steps,
            "autodiff.backward_ms_per_step": per_step(m.total_s("autodiff.backward")),
            "autodiff.adam_ms_per_step": per_step(m.total_s("autodiff.adam")),
            "models.encoder_ms_per_step": per_step(m.total_s("models.encoder")),
            "models.generator_ms_per_step": per_step(m.total_s("models.generator")),
            "models.classifier_ms_per_step": per_step(m.total_s("models.classifier")),
            "data.encode_ms_per_step": per_step(m.leaf_s("data.vocab_encode")
                                                + m.total_s("data.pad_batch")),
            "framework.train_self_ms_per_step": per_step(
                sum(s.self_s for s in m.named("framework.train"))),
        })
        if decode_s:
            out["models.decode_ms_per_step"] = per_step(decode_s)
    else:
        examples = sum(r.examples for r in rounds)
        cli_spans = m.named("cli.main")
        out.update({
            "autodiff.forward_ops_per_example": m.leaf_n["autodiff"] / examples,
            "models.encoder_ms_per_example": 1e3 * m.total_s("models.encoder") / examples,
            "data.load_jsonl_ms": 1e3 * m.mean_s("data.load_jsonl"),
            "checkpoint.load_ms": 1e3 * m.mean_s("checkpoint.load"),
            "checkpoint.bytes": m.count("checkpoint.load") / m.calls("checkpoint.load"),
            "metrics.bleu_ms_per_round": 1e3 * m.total_s("metrics.bleu") / len(rounds),
            "metrics.topk_ms": 1e3 * m.mean_s("metrics.topk"),
            "framework.evaluate_ms": 1e3 * m.mean_s("framework.evaluate"),
            "cli.self_ms": 1e3 * sum(s.self_s for s in cli_spans) / len(cli_spans),
        })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (ROOT / "src" / "gloss" / "__init__.py").is_file():
        print(f"error: no gloss sources under {ROOT / 'src'}; run from a gloss checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    tracer = Tracer() if args.trace else None

    def traced(trace_id):
        return tracer.installed("bench.run", trace_id) if tracer else contextlib.nullcontext()

    try:
        setup_times = []
        while (len(setup_times) < SETUP_MIN_REPEATS
               or sum(setup_times) < SETUP_MIN_SECONDS):
            k = len(setup_times)
            rep_dir = workdir / f"setup{k}"
            rep_dir.mkdir()
            start = perf_counter()
            with traced(-1 - k):
                workload.setup(rep_dir, args.seed)
            setup_times.append(perf_counter() - start)

        rounds, start = [], perf_counter()
        while len(rounds) < 1 + args.trace or perf_counter() - start < args.seconds:
            trace_this = bool(tracer) and len(rounds) % 2 == 1
            with traced(len(rounds)) if trace_this else contextlib.nullcontext():
                r = workload.round()
            r.traced = trace_this
            rounds.append(r)
        errors = workload.check()
        digest = workload.digest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    plain = [r for r in rounds if not r.traced]
    report = {"workload": args.workload, "seed": args.seed, "digest": digest,
              "attempted": attempted, "failed": failed, "rounds": len(rounds),
              "setup_s_each": setup_times, "errors": errors,
              "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                      "blas": blas_info(np), "nproc": os.cpu_count()}}
    if tracer:
        tr = [r for r in rounds if r.traced]
        metrics = per_layer(tracer, tr)
        spans_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_file)
        report["trace"] = {
            **trace_detail(tracer, tr),
            "overhead_pct": 100.0 * (workload.latency_ms(tr)
                                     / workload.latency_ms(plain) - 1.0),
            "spans_file": str(spans_file.relative_to(ROOT)),
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "latency_ms_min": {"value": workload.latency_ms(rounds), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
        report["detail"] = workload.detail(plain)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
