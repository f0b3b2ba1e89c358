"""Benchmark of qborel's exact verification jobs.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs one workload of workloads.py in this process (``all`` runs each
in a fresh process, one after another) from a checkout of the
repository, importing the library from its ``src`` directory.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a copy of the result, with
the machine facts, goes to bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Clock
from tracer import LAYERS, PACKAGE, Tracer
from workloads import WORKLOADS, Tally

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
HASH_SEED = "0"
SETUPS_PER_ROUND = 5

END_TO_END = {   # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "ops_per_s": "1/s",
}

# per-layer metric -> (unit, how to read it off a Tracer)
PER_LAYER = {
    "coeffring.self_s": ("s", lambda tr: tr.layer_self["coeffring"]),
    "coeffring.mul_calls": ("count", lambda tr: tr.mul_calls),
    "coeffring.mul_term_pairs": ("count", lambda tr: tr.mul_term_pairs),
    "coeffring.add_calls": ("count", lambda tr: tr.add_calls),
    "coeffring.max_terms": ("count", lambda tr: tr.max_terms),
    "coeffring.exact_divide_calls":
        ("count", lambda tr: tr.calls["coeffring.LaurentPoly.exact_divide"]),
    "latticemod.self_s": ("s", lambda tr: tr.layer_self["latticemod"]),
    "latticemod.e_on_datum.calls":
        ("count", lambda tr: tr.calls["latticemod.LatticeModule.e_on_datum"]),
    "latticemod.e_on_datum.distinct": ("count", lambda tr: len(tr.e_keys)),
    "latticemod.e_on_datum.reuse_ratio": ("ratio", lambda tr: _reuse(tr)),
    "latticemod.apply_e.calls":
        ("count", lambda tr: tr.calls["latticemod.LatticeModule.apply_e"]),
    "latticemod.apply_k.calls":
        ("count", lambda tr: tr.calls["latticemod.LatticeModule.apply_k"]),
    "latticemod.enumerate_data.data": ("count", lambda tr: tr.enumerated),
    "opalg.self_s": ("s", lambda tr: tr.layer_self["opalg"]),
    "opalg.evaluate.calls": ("count", lambda tr: tr.calls["opalg.evaluate"]),
    "chars.self_s": ("s", lambda tr: tr.layer_self["chars"]),
    "chars.product_character.calls":
        ("count", lambda tr: tr.calls["chars.product_character"]),
    "chars.module_character.calls":
        ("count", lambda tr: tr.calls["chars.module_character"]),
    "drinfeld.self_s": ("s", lambda tr: tr.layer_self["drinfeld"]),
    "drinfeld.E.calls": ("count", lambda tr: tr.calls["drinfeld.CurrentEngine.E"]),
    "microrec.self_s": ("s", lambda tr: tr.layer_self["microrec"]),
    "microrec.E.calls": ("count", lambda tr: tr.calls["microrec.StringEngine.E"]),
    "microrec.negative_closed_form.calls":
        ("count", lambda tr: tr.calls["microrec.negative_closed_form"]),
    "rootdata.self_s": ("s", lambda tr: tr.layer_self["rootdata"]),
    "rootvec.self_s": ("s", lambda tr: tr.layer_self["rootvec"]),
}

# spans kept in the result file only: each is zero on the workloads that
# never call the function, so none is a per-layer metric of every run
FUNCTION_TIMES = {
    "latticemod.apply_e.self_s": ("self", "latticemod.LatticeModule.apply_e"),
    "latticemod.apply_k.self_s": ("self", "latticemod.LatticeModule.apply_k"),
    "latticemod.enumerate_data.s":
        ("total", "latticemod.LatticeModule.enumerate_data"),
    "opalg.evaluate.self_s": ("self", "opalg.evaluate"),
    "chars.product_character.s": ("total", "chars.product_character"),
    "chars.module_character.s": ("total", "chars.module_character"),
    "microrec.negative_closed_form.s":
        ("total", "microrec.negative_closed_form"),
}


def _reuse(tr):
    calls = tr.calls["latticemod.LatticeModule.e_on_datum"]
    return 1.0 - len(tr.e_keys) / calls if calls else 0.0


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu": cpu, "machine": platform.machine(),
            "system": platform.system(), "release": platform.release()}


def drop_library():
    """Forget the imported qborel and free it, outside any timed segment."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    gc.collect()


def import_library(tracer=None):
    """Import qborel from src; call drop_library() first."""
    pkg = tracer.import_traced() if tracer else importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"imported {pkg.__file__}, not the checkout's src")
    return pkg


def run_untraced(workload, seed, seconds):
    """Set-ups and rounds until `seconds` is spent, whole rounds only.
    Each time is (raw, rescaled to the nominal host speed)."""
    setups, rounds, total = [], [], Tally()
    begin = time.perf_counter()
    with Clock() as clock:
        while True:
            for _ in range(SETUPS_PER_ROUND):
                qb = state = None
                drop_library()
                clock.start()
                qb = import_library()
                state = workload.setup(qb, seed)
                setups.append(clock.stop())
            clock.start()
            total.add(workload.round(qb, state))
            rounds.append(clock.stop())
            elapsed = time.perf_counter() - begin
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
    wall = statistics.median(scaled for _, scaled in rounds)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "wall_s": wall,
        "peak_rss_mib": peak_rss_mib(),
        "ops_per_s": total.attempted / len(rounds) / wall,
    }
    return total, metrics, {"setups_s": setups, "rounds_s": rounds}


def run_traced(workload, seed):
    """One untraced round, then set-up and one round under the tracer;
    the work is fixed, so the counts repeat exactly for a given seed."""
    drop_library()
    qb = import_library()
    state = workload.setup(qb, seed)
    start = time.perf_counter()
    total = workload.round(qb, state)
    base = time.perf_counter() - start
    qb = state = None
    drop_library()
    tracer = Tracer()
    qb = import_library(tracer)
    state = workload.setup(qb, seed)
    start = time.perf_counter()
    total.add(workload.round(qb, state))
    traced = time.perf_counter() - start
    metrics = {name: read(tracer) for name, (_, read) in PER_LAYER.items()}
    metrics["trace.overhead_s"] = traced - base
    functions = {name: (tracer.fn_self if kind == "self" else tracer.fn_total)
                 .get(key, 0.0) for name, (kind, key) in FUNCTION_TIMES.items()}
    extra = {"untraced_round_s": base, "traced_round_s": traced,
             "layer_self_s": {layer: tracer.layer_self[layer]
                              for layer in LAYERS},
             "function_times_s": functions,
             "calls": dict(sorted(tracer.calls.items()))}
    return total, metrics, extra


def units(trace):
    if trace:
        out = {name: unit for name, (unit, _) in PER_LAYER.items()}
        out["trace.overhead_s"] = "s"
        return out
    return END_TO_END


def write_result(record):
    RESULTS.mkdir(exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = RESULTS / (f"{record['workload']}-seed{record['seed']}-"
                      f"trace{record['trace']}-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def run_one(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    if trace:
        total, values, extra = run_traced(workload, seed)
    else:
        total, values, extra = run_untraced(workload, seed, seconds)
    unit = units(trace)
    metrics = {k: {"value": values[k], "unit": unit[k]} for k in unit}
    correct = total.wrong == 0
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
              "machine": machine_facts(), "correct": correct,
              "attempted": total.attempted, "failed": total.failed,
              "wrong": total.wrong, "metrics": metrics, **extra}
    path = write_result(record)
    print(f"{name}: attempted {total.attempted}, failed {total.failed}, "
          f"wrong {total.wrong}; result in {path.relative_to(ROOT)}")
    for k, m in metrics.items():
        print(f"  {k} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in a fresh process, one after another."""
    correct, attempted, failed, metrics, status = True, 0, 0, {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONHASHSEED": HASH_SEED})
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            print(proc.stdout, end="")
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = proc.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    if status:
        return status
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    if not (SRC / PACKAGE / "__init__.py").is_file():
        sys.exit(f"run.py: no {PACKAGE} package under {SRC}; run from a "
                 f"checkout of the repository")
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # set iteration order over hashed strings is part of the work done
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    # set-up imports from cached bytecode, as an installed package does,
    # whatever PYTHONDONTWRITEBYTECODE says; the cache stays in src/
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    sys.exit(main())
