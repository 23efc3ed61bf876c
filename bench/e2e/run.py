#!/usr/bin/env python3
"""One-command end-to-end benchmark of the HET-KG library (see README.md).

    python3 bench/e2e/run.py                  # every workload once
    python3 bench/e2e/run.py --reps 5 --out DIR
    python3 bench/e2e/run.py --workload fb15k-hetkgd --seed 7 --trace 0
    python3 bench/e2e/run.py --trace          # per-layer metrics instead
    python3 bench/e2e/run.py --smoke          # every workload at ~1/20 size

It builds the library and the bench_e2e program under .bench_build/,
generates each workload's dataset from --seed (cached there, never
timed), runs each workload in a fresh process, prints every metric with
its unit, checks the outputs, and writes one JSON file per run. The last
line of standard output is one JSON object: correct, attempted, failed,
and the end-to-end metrics (with --trace, the per-layer ones) of the run
(of the last run when several are made). The exit code is 0 only when
every check of every run passed.
"""

import argparse
import ctypes
import datetime
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170

sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import trace_profile  # noqa: E402


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def load_definitions():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"{ROOT} is not a HET-KG source tree; the benchmark builds the library from it")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        spec = json.loads((HERE / "workloads.json").read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read the benchmark definitions: {e}")
    workloads = {}
    for w in spec["workloads"]:
        if "base" in w:
            base = workloads[w["base"]]
            w = {**base, **w, "args": {**base["args"], **w["args"]},
                 "smoke_args": {**base["smoke_args"], **w["smoke_args"]}}
        workloads[w["name"]] = w
    declared = [w["name"] for w in bench["workloads"]]
    if sorted(declared) != sorted(workloads):
        die("workloads.json and BENCHMARK.json name different workloads")
    return bench, spec["datasets"], [workloads[n] for n in declared]


def run_logged(cmd, log):
    with open(log, "a") as f:
        f.write("$ " + " ".join(map(str, cmd)) + "\n")
        f.flush()
        done = subprocess.run([str(c) for c in cmd], stdout=f, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        tail = Path(log).read_text().splitlines()[-40:]
        print("\n".join(tail), file=sys.stderr)
        die(f"build step failed (full log: {log})")


def build():
    """Two stages: the repository's own Release libhetkg.a, then bench_e2e."""
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "e2e-build.log"
    lib_dir, program_dir = BUILD / "lib", BUILD / "e2e"
    jobs = str(nproc())
    if not (lib_dir / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", ROOT, "-B", lib_dir, "-DCMAKE_BUILD_TYPE=Release"], log)
    run_logged(["cmake", "--build", lib_dir, "--target", "hetkg", "-j", jobs], log)
    if not (program_dir / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", HERE, "-B", program_dir, "-DCMAKE_BUILD_TYPE=Release",
                    f"-DHETKG_ROOT={ROOT}",
                    f"-DHETKG_LIBRARY={lib_dir / 'src' / 'libhetkg.a'}"], log)
    run_logged(["cmake", "--build", program_dir, "-j", jobs], log)
    return program_dir / "bench_e2e"


def flag_args(args):
    out = []
    for key, value in sorted(args.items()):
        if isinstance(value, bool):
            value = "true" if value else "false"
        out.append(f"--{key}={value}")
    return out


def become_subreaper():
    """Makes workers orphaned by a crashed bench_e2e our children to reap."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def run_group(cmd, log):
    """Runs `cmd` in its own process group with stderr to `log`, then kills
    whatever is left of the group (the proc runtime's workers, should the
    program crash or time out) and reaps it. Returns (exit code or None on
    timeout, stderr)."""
    with open(log, "w") as err:
        proc = subprocess.Popen([str(c) for c in cmd], stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        while True:
            try:
                os.waitpid(-1, 0)
            except ChildProcessError:
                break
    return code, Path(log).read_text()


def dataset(program, datasets, name, seed, smoke):
    """Generates (once per parameter set and seed) the workload's inputs."""
    args = dict(datasets[name]["args"])
    if smoke:
        args.update(datasets[name]["smoke_args"])
    key = "-".join(f"{k}{v}" for k, v in sorted(args.items()) if k != "dataset")
    path = BUILD / "e2e-data" / f"{name}-{key}-seed{seed}.bin"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_suffix(".partial")
        code, err = run_group([program, "--mode=generate", f"--seed={seed}",
                               f"--data={partial}"] + flag_args(args),
                              path.with_suffix(".log"))
        if code != 0:
            die(f"dataset generation failed: {err.strip() or f'exit code {code}'}")
        partial.rename(path)
    return path


def run_program(program, name, args, data, seed, seconds, trace):
    """Runs one workload in a fresh bench_e2e process; (raw result, error)."""
    work = BUILD / "e2e-work" / name
    work.mkdir(parents=True, exist_ok=True)
    out = work / "result.json"
    if out.exists():
        out.unlink()
    args = {**args, "mode": "run", "data": data, "seed": seed, "seconds": seconds,
            "trace": bool(trace), "work_dir": work, "out": out}
    code, err = run_group([program] + flag_args(args), work / "bench_e2e.log")
    if code is None:
        return None, f"bench_e2e exceeded {RUN_TIMEOUT_S} s"
    if code != 0 or not out.exists():
        lines = err.strip().splitlines()
        return None, lines[-1] if lines else f"exit code {code}"
    return json.loads(out.read_text()), None


def median(values):
    return statistics.median(list(values))


def epochs_key(epochs):
    return [(e["mean_loss"], e["remote_bytes"]) for e in epochs]


def setup_samples(trials, part=None):
    """Every set-up of the run: one part of it, or the whole."""
    parts = [part] if part else ["load_s", "make_engine_s", "fork_s"]
    return [sum(s[p] for p in parts) for t in trials for s in t["setups"]]


def end_to_end(raw):
    """Training speed and CPU come from the fastest trial of the run: other
    tenants of a shared machine only ever add time, so the fastest repeat
    is the steadiest estimate of what the code costs. Set-up time is the
    median over every set-up of the run."""
    trials = raw["trials"]
    triples = raw["counts"]["engine.triples_trained"]
    epochs = trials[0]["epochs"]
    return {
        "setup_s": median(setup_samples(trials)),
        "train_triples_per_s": triples / min(t["train_s"] for t in trials),
        "train_cpu_s_per_mtriple": min(t["cpu_s"] for t in trials) * 1e6 / triples,
        "peak_rss_mb": raw["peak_rss_bytes"] / 2**20,
        "remote_bytes_per_triple": sum(e["remote_bytes"] for e in epochs) / triples,
        "sim_epoch_s": sum(e["sim_s"] for e in epochs) / len(epochs),
        "final_loss": epochs[-1]["mean_loss"],
        "test_mean_rank": raw["test"]["mean_rank"],
    }


def per_layer(raw, args):
    trials = raw["trials"]
    counts = raw["counts"]
    traced = raw["traced_trial"]
    probes = raw["probes"]
    prof = trace_profile.profile(raw["trace_path"])
    wall = prof["wall_s"]
    out = {
        "graph.load_s": median(setup_samples(trials, "load_s")),
        "core.make_engine_s": median(setup_samples(trials, "make_engine_s")),
        "net.fork_s": median(setup_samples(trials, "fork_s")),
        "core.traced_wall_s": wall,
    }
    for stage in ("sample", "cache", "pull", "compute", "push", "sched"):
        layer = prof["layers"][f"core.{stage}"]
        calls = layer["calls"]
        out[f"core.{stage}.self_s"] = layer["self_s"]
        out[f"core.{stage}.calls"] = calls
        out[f"core.{stage}.ns_per_call"] = layer["self_s"] * 1e9 / calls if calls else 0.0
        out[f"core.{stage}.share"] = layer["self_s"] / wall
    out["core.unaccounted_s"] = prof["unaccounted_s"]
    every = args.get("checkpoint_every", 0)
    halt = args.get("halt_after", 0)
    out.update({
        "core.ckpt.save_s": prof["layers"]["core.ckpt.save"]["self_s"],
        "core.ckpt.saves": counts.get("checkpoint.saves", 0),
        "core.ckpt.bytes": counts.get("checkpoint.bytes", 0),
        "core.resume_s": prof["layers"]["core.resume"]["self_s"],
        "core.replayed_iterations": halt % every if halt else 0,
        "embedding.kernel.self_s": prof["layers"]["embedding.kernel"]["self_s"],
        "embedding.kernel.ns_per_pair": probes["kernel_ns_per_pair"],
        "embedding.adagrad.ns_per_row": probes["adagrad_ns_per_row"],
        "embedding.tier.decode_ns_per_row": probes["tier_decode_ns_per_row"],
        "embedding.tier.encode_ns_per_row": probes["tier_encode_ns_per_row"],
        "tier.cold_reads": counts.get("tier.cold_reads", 0),
        "tier.promotions": counts.get("tier.promotions", 0),
        "tier.bytes_mapped": counts.get("tier.bytes_mapped", 0),
        "ps.pull.self_s": prof["layers"]["ps.pull"]["self_s"],
        "ps.push.self_s": prof["layers"]["ps.push"]["self_s"],
        "ps.pull_rows": counts.get("ps.remote_pull_rows", 0) + counts.get("ps.local_pull_rows", 0),
        "ps.push_rows": counts.get("ps.remote_push_rows", 0) + counts.get("ps.local_push_rows", 0),
        "ps.remote_messages": counts.get("net.remote_messages", 0),
    })
    hits, misses = counts.get("cache.hits", 0), counts.get("cache.misses", 0)
    rpc = raw["traced_histograms"].get("net.rpc.latency_us.shm", {})
    out.update({
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.refresh_rows": counts.get("cache.refresh_rows", 0),
        "cache.rebuilds": counts.get("cache.rebuilds", 0),
        "net.rpc_round_trips": counts["net_totals.rpc_round_trips"],
        "net.frames_sent": counts["net_totals.frames_sent"],
        "net.bytes_sent": counts["net_totals.bytes_sent"],
        "net.send_stalls": counts["net_totals.send_stalls"],
        "net.rpc_latency_us.p50": rpc.get("p50", 0.0),
        "net.rpc_latency_us.p99": rpc.get("p99", 0.0),
        "net.shm_rtt_us.p50": probes["shm_rtt_p50_us"],
        "net.shm_rtt_us.p99": probes["shm_rtt_p99_us"],
        "eval.pass_s": median(p["pass_s"] for p in raw["eval_passes"]),
        "eval.test_mrr": raw["test"]["mrr"],
        "obs.trace_overhead_ratio": traced["train_s"] / median(t["train_s"] for t in trials) - 1,
        "obs.trace_dropped_events": traced["trace_dropped"],
    })
    return out


def checks(raw, args, mrr_floor, trace, bench, produced):
    """(name, ok, detail) for every correctness check of one run."""
    out = []
    counts = raw["counts"]
    trials = raw["trials"]
    reference = epochs_key(trials[0]["epochs"])
    out.append(("epochs", len(reference) == args["epochs"],
                f"{len(reference)} epoch reports"))
    runs = measured_trials(raw)
    same = all(epochs_key(t["epochs"]) == reference for t in runs)
    out.append(("trials bit-identical", same,
                f"{len(runs)} trials{' incl. the traced one' if trace else ''}"))
    if raw["sim_reference_epochs"] is not None:
        sim = epochs_key(raw["sim_reference_epochs"])
        out.append(("proc equals sim", sim == reference,
                    "per-epoch mean_loss and remote_bytes"))
    # Each worker covers its share of the train split once per epoch and
    # runs as many steps as the largest share needs.
    epochs = args["epochs"]
    machines = raw["machines"]
    steps = epochs * trials[0]["iterations_per_epoch"] * machines
    low, high = epochs * raw["train_triples"], steps * args["batch"]
    triples = counts["engine.triples_trained"]
    out.append(("triples trained", low <= triples <= high, f"{low} <= {triples} <= {high}"))
    if mrr_floor is not None:
        mrr = raw["test"]["mrr"]
        out.append(("test_mrr floor", mrr >= mrr_floor, f"{mrr:.4f} >= {mrr_floor}"))
    failed = failed_ops(raw)
    out.append(("failed ops", failed == 0, f"{failed}"))
    if trace:
        dropped = raw["traced_trial"]["trace_dropped"]
        out.append(("trace dropped events", dropped == 0, f"{dropped}"))
    if args.get("runtime") == "proc":
        out.append(("connections <= nproc", machines <= nproc(), f"{machines} <= {nproc()}"))
    declared = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    out.append(("metric set", set(produced) == declared,
                f"missing {sorted(declared - set(produced))}, "
                f"undeclared {sorted(set(produced) - declared)}"))
    return out


def measured_trials(raw):
    return raw["trials"] + ([raw["traced_trial"]] if "traced_trial" in raw else [])


def attempted_ops(raw):
    """Pull and push rows of every trial of the run."""
    return sum(t["attempted_ops"] for t in measured_trials(raw))


def failed_ops(raw):
    """Failed pulls, lost push rows, degraded reads and abnormal worker
    exits, over every trial of the run."""
    return sum(t["failed_ops"] + t["worker_exits"] for t in measured_trials(raw))


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return rev.stdout.strip() if rev.returncode == 0 else "unknown"


def host(raw):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_revision": git_revision(),
        "nproc": nproc(),
        "cpu_model": model,
        "cpu_features": raw["cpu_features"] if raw else "unknown",
        "kernel_path": raw["kernel_path"] if raw else "unknown",
    }


def run_one(program, bench, datasets, workload, seed, seconds, trace, smoke, out_dir):
    args = dict(workload["args"])
    if smoke:
        args.update(workload["smoke_args"])
        args["eval_triples"] = 200
        seconds = 0
    data = dataset(program, datasets, workload["dataset"], seed, smoke)
    raw, error = run_program(program, workload["name"], args, data, seed, seconds, trace)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    e2e, layers, results = {}, {}, []
    if raw is None:
        results = [("bench_e2e status OK", False, str(error))]
    else:
        e2e = end_to_end(raw)
        if trace:
            layers = per_layer(raw, args)
        # Smoke datasets are too small to learn much; only full runs
        # hold the floor.
        floor = None if smoke else workload["mrr_floor"]
        results = checks(raw, args, floor, trace, bench, layers if trace else e2e)
    correct = all(ok for _, ok, _ in results)
    reported = layers if trace else e2e

    label = f"{workload['name']} seed={seed}{' trace' if trace else ''}{' smoke' if smoke else ''}"
    print(f"== {label}")
    for name, value in list(e2e.items()) + list(layers.items()):
        print(f"  {name:34s} {value:>16.6g} {units.get(name, '')}")
    for name, ok, detail in results:
        print(f"  check {name:28s} {'ok' if ok else 'FAILED'}  {detail}")

    if raw and "trace_path" in raw:
        raw["trace_path"] = os.path.relpath(raw["trace_path"], ROOT)
    record = {
        "workload": workload["name"], "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": host(raw),
        "correct": correct,
        "attempted": attempted_ops(raw) if raw else 0,
        "failed": failed_ops(raw) if raw else 0,
        "end_to_end": e2e, "per_layer": layers,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in results],
        "raw": raw,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
    kind = ("trace" if trace else "e2e") + ("-smoke" if smoke else "")
    path = out_dir / f"{workload['name']}-seed{seed}-{kind}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    line = {
        "correct": correct,
        "attempted": max(1, record["attempted"]),
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items() if k in units},
    }
    return correct, line


def main():
    bench, datasets, workloads = load_definitions()
    names = [w["name"] for w in workloads]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"],
                        help="accepted only as BENCHMARK.json's run_seconds: "
                             "every run measures for the same time")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from an added traced trial")
    parser.add_argument("--reps", type=int, default=1, help="repetitions of each workload")
    parser.add_argument("--out", type=Path, default=BUILD / "e2e-results",
                        help="directory receiving one JSON file per run")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at ~1/20 size; numbers are never compared")
    args = parser.parse_args()
    if args.seconds != bench["run_seconds"]:
        die(f"--seconds must be BENCHMARK.json's run_seconds ({bench['run_seconds']})")

    become_subreaper()
    program = build()
    selected = [w for w in workloads if args.workload in (None, w["name"])]
    all_correct, line = True, None
    for _ in range(args.reps):
        for w in selected:
            correct, line = run_one(program, bench, datasets, w, args.seed, args.seconds,
                                    args.trace, args.smoke, args.out)
            all_correct = all_correct and correct
    print(json.dumps(line))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
