"""triauth benchmark: closed-loop workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload all                  # everything, every workload
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, one client that waits for each op.  Every op is
checked; a failed check counts the op as failed.  `--trace 0` measures the
end-to-end metrics with no tracing at all; `--trace 1` repeats a fixed,
seed-derived list of ops, each once untraced and once under a profile hook,
and reports the per-module metrics.  The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The metrics, their
units and what each should move are listed in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import ssl
import statistics
import subprocess
import sys
import time
from array import array
from itertools import islice
from pathlib import Path

from hostspeed import HostSpeed, timed
from tracehook import Totals, Tracer, watched_codes
from workloads import WORKLOADS, load_program

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
SETUP_REPEATS = 7

# actor function -> (party, message) in the honest-flow T_h table
ACTOR_ROLES = {
    "register_user": ("cs", "registration"),
    "card_login": ("card", "M1"),
    "server_forward": ("server", "M2"),
    "cs_authenticate": ("cs", "M3"),
    "server_verify": ("server", "M4"),
    "card_verify": ("card", "M4 check"),
}
ACTOR_FNS = tuple(ACTOR_ROLES)


def environment(seed: int) -> str:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    return (f"environment: python {platform.python_version()}; hashlib {ssl.OPENSSL_VERSION}; "
            f"nproc {os.cpu_count()}; cpu {cpu}; seed {seed}; commit {commit}")


def reference_for(name: str, seed: int) -> str:
    """Concatenated per-op reference digests, recorded for DEFAULT_SEED only."""
    if seed != DEFAULT_SEED:
        return ""
    data = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    return data["ops"].get(name, "")


def set_up(name: str, seed: int, workdir: Path):
    workload = WORKLOADS[name](load_program(), seed, reference_for(name, seed), workdir)
    workload.warm_up()
    return workload


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


class Failures:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.run_digest = hashlib.sha256()

    def record(self, workload, op, outcome) -> None:
        reason, d = workload.check(op, outcome)
        self.attempted += 1
        self.run_digest.update(d.encode("ascii"))
        if reason is not None:
            self.failed += 1
            if self.first is None:
                self.first = f"op {op.index}: {reason}"


def measure(workload, seconds: float, max_ops: int | None, set_up_again=None):
    """Untraced closed loop.

    Returns ((op starts in s since run start, latencies in ns, candidates),
    Failures, HostSpeed).  The per-op figures are kept in arrays, so that the
    benchmark's own bookkeeping barely moves the peak resident set.
    Calibration bursts run between ops, outside the timed part.
    set_up_again() is called at SETUP_REPEATS - 1 evenly spaced points of the
    run, so that the set-up times sample the host at different moments.
    """
    starts, latencies, candidates = array("d"), array("q"), array("q")
    failures = Failures()
    host = HostSpeed(workload.probe)
    setups = 1
    for op in workload.ops():
        host.maybe_sample()
        start = host.now()
        t0 = time.perf_counter_ns()
        outcome = workload.run(op)
        latencies.append(time.perf_counter_ns() - t0)
        starts.append(start)
        candidates.append(workload.candidates(op))
        failures.record(workload, op, outcome)
        elapsed = host.now()
        if len(latencies) >= max_ops if max_ops else elapsed >= seconds:
            break
        if set_up_again and setups < SETUP_REPEATS and elapsed >= seconds * setups / SETUP_REPEATS:
            set_up_again()
            setups += 1
    return (starts, latencies, candidates), failures, host


def measure_traced(workload, seconds: float):
    """Repeat a fixed op list, each op untraced then traced, for whole passes until time is up."""
    ops = list(islice(workload.ops(), workload.trace_ops))
    totals = Totals()
    failures = Failures()
    untraced_ns = traced_ns = 0
    deadline = time.perf_counter() + seconds
    while True:
        for op in ops:
            outcomes, plain_ns, trace_ns = workload.traced_pair(op, totals)
            untraced_ns += plain_ns
            traced_ns += trace_ns
            for outcome in outcomes:
                failures.record(workload, op, outcome)
        if time.perf_counter() >= deadline:
            break
    return ops, totals, failures, traced_ns / untraced_ns if untraced_ns else 0.0


def per_layer_metrics(workload, ops, totals, overhead_ratio) -> dict:
    """name -> (value, unit).  A function the workload never calls reads 0."""
    empty = dict.fromkeys(Totals.FIELDS, 0)

    def row(name):
        return totals.fn.get(name, empty)

    def per_call(name, key, scale):
        r = row(name)
        return r[key] / r["calls"] / scale if r["calls"] else 0.0

    def per_op(name, key, scale=1):
        return row(name)[key] / totals.ops / scale if totals.ops else 0.0

    def share(*names):
        return sum(row(n)["self_ns"] for n in names) / totals.op_ns if totals.op_ns else 0.0

    def median_ms(key):
        samples = getattr(workload, "samples", {}).get(key)
        return statistics.median(samples) / 1e6 if samples else 0.0

    crypto = ("crypto.hash_bytes", "crypto.h", "crypto.concat", "crypto.xor")
    m = {}
    for name in crypto:
        m[f"{name}.calls_per_op"] = (per_op(name, "calls"), "count")
    m["crypto.h.self_us_per_call"] = (per_call("crypto.h", "self_ns", 1e3), "us")
    m["crypto.concat.self_share"] = (share("crypto.concat"), "ratio")
    m["crypto.xor.self_share"] = (share("crypto.xor"), "ratio")
    m["crypto.self_share"] = (share(*crypto), "ratio")
    for fn in ACTOR_FNS:
        m[f"actors.{fn}.hash_calls"] = (per_call(f"actors.{fn}", "h_inside", 1), "count")
    for fn in ACTOR_FNS:
        m[f"actors.{fn}.us_per_call"] = (per_call(f"actors.{fn}", "total_ns", 1e3), "us")
    m["actors.self_share"] = (share(*(f"actors.{fn}" for fn in ACTOR_FNS)), "ratio")
    m["attacks.knows.calls_per_op"] = (per_op("attacks.knows", "calls"), "count")
    m["attacks.knows.us_per_call"] = (per_call("attacks.knows", "total_ns", 1e3), "us")
    m["attacks.knows.hash_calls_per_call"] = (per_call("attacks.knows", "h_inside", 1), "count")
    m["attacks.knows.seen_values"] = (per_call("attacks.knows", "extra", 1), "count")
    guess = row("attacks.guess_credentials")
    m["attacks.guess_credentials.candidates_per_s"] = (
        guess["extra"] / (guess["total_ns"] / 1e9) if guess["total_ns"] else 0.0, "1/s")
    m["attacks.guess_credentials.hash_calls_per_candidate"] = (
        guess["h_inside"] / guess["extra"] if guess["extra"] else 0.0, "count")
    m["attacks.guess.repeat_share"] = (workload.repeat_share(ops), "ratio")
    m["attacks.Dictionary.from_pairs.ms_per_op"] = (
        per_op("attacks.Dictionary.from_pairs", "total_ns", 1e6), "ms")
    m["simulator.send.calls_per_op"] = (per_op("simulator.send", "calls"), "count")
    for name in ("encode_message", "decode_message", "adversary_tap"):
        m[f"simulator.{name}.us_per_call"] = (per_call(f"simulator.{name}", "total_ns", 1e3), "us")
    m["simulator.ScenarioConfig.validate.ms_per_call"] = (
        per_call("simulator.ScenarioConfig.validate", "total_ns", 1e6), "ms")
    m["simulator.verify_transcript.self_us"] = (
        per_call("simulator.verify_transcript", "self_ns", 1e3), "us")
    m["simulator.to_jsonl.us_per_op"] = (per_op("simulator.to_jsonl", "total_ns", 1e3), "us")
    m["simulator.to_jsonl.bytes_per_op"] = (per_op("simulator.to_jsonl", "extra"), "bytes")
    m["simulator.from_jsonl.us_per_op"] = (per_op("simulator.from_jsonl", "total_ns", 1e3), "us")
    m["simulator.run_scenario.self_share"] = (share("simulator.run_scenario"), "ratio")
    m["cli.interpreter_ms"] = (median_ms("interpreter"), "ms")
    m["cli.import_ms"] = (median_ms("import"), "ms")
    m["cli.main_ms.run"] = (median_ms("main.run"), "ms")
    m["cli.main_ms.verify"] = (median_ms("main.verify"), "ms")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m


def honest_flow_table(seed: int) -> list[str]:
    """Hash cost (T_h) per party and message of one honest run_scenario."""
    import triauth.simulator as sim
    totals = Totals()
    tracer = Tracer(watched_codes())
    with tracer:
        sim.run_scenario(sim.ScenarioConfig(kind="honest", seed=seed))
    tracer.fold_into(totals, 0)
    lines = [f"honest-flow hash cost (T_h), seed {seed}:",
             f"  {'party':<7}{'message':<14}{'function':<17}{'h':>4}{'hash_bytes':>12}"]
    for fn in ACTOR_FNS:
        r = totals.fn.get(f"actors.{fn}")
        party, message = ACTOR_ROLES[fn]
        h_calls = r["h_inside"] // r["calls"] if r else 0
        hb_calls = r["hash_bytes_inside"] // r["calls"] if r else 0
        lines.append(f"  {party:<7}{message:<14}{fn:<17}{h_calls:>4}{hb_calls:>12}")
    hb = totals.fn.get("crypto.hash_bytes", {}).get("calls", 0)
    h = totals.fn.get("crypto.h", {}).get("calls", 0)
    lines.append(f"  per honest run_scenario: {h} h calls, {hb} hash_bytes calls")
    return lines


def fmt(value: float) -> str:
    return f"{value:.6g}"


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    print(environment(args.seed))
    setup_times = []  # (raw s, s scaled to the reference host)

    def timed_set_up():
        workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}-{len(setup_times)}"
        workload, raw, scaled = timed(lambda: set_up(args.workload, args.seed, workdir),
                                      WORKLOADS[args.workload].probe)
        setup_times.append((raw, scaled))
        return workload

    workload = timed_set_up()
    try:
        if args.trace:
            ops, totals, failures, overhead = measure_traced(workload, args.seconds)
            metrics = per_layer_metrics(workload, ops, totals, overhead)
            print(f"workload {args.workload}: traced run, {len(ops)} fixed ops repeated "
                  f"{totals.ops // len(ops)} times, each once untraced and once traced")
            for line in honest_flow_table(args.seed):
                print(line)
        else:
            samples, failures, host = measure(workload, args.seconds, args.ops,
                                              lambda: timed_set_up().close())
            metrics = end_to_end_metrics(args.workload, setup_times, samples, failures, host)
    finally:
        workload.close()
    print(f"  transcripts_sha256 {failures.run_digest.hexdigest()} over {failures.attempted} ops")
    if failures.first:
        print(f"  first failure: {failures.first}")
    print(json.dumps({
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def end_to_end_metrics(name, setup_times, samples, failures, host) -> dict:
    peak_rss = peak_rss_mb(name)
    starts, raw, candidates = samples
    scales = host.scales()
    scaled = [ns * host.scale_at(scales, t) for t, ns in zip(starts, raw)]
    n = len(raw)

    def p50_p90(values):
        p90 = statistics.quantiles(values, n=10)[8] if n > 1 else values[0]
        return statistics.median(values) / 1e6, p90 / 1e6

    p50, p90 = p50_p90(scaled)
    raw_p50, raw_p90 = p50_p90(raw)
    busy_s = sum(scaled) / 1e9
    beyond = sum(1 for v in scaled if v / 1e6 > p90)
    candidates = sum(candidates)
    probe_ms = statistics.median(ns for _, ns in host.samples) / 1e6
    m = {
        "setup_s": (statistics.median(s for _, s in setup_times), "s"),
        "ops_per_s": (n / busy_s, "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_p90": (p90, "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    print(f"workload {name}: closed loop, 1 client, {n} ops; timings scaled to a host where the "
          f"calibration probe takes {host.probe.reference_ns / 1e6:g} ms (here: median "
          f"{probe_ms:.4g} ms over {len(host.samples)} probes), raw figures in brackets")
    print(f"  setup_s          {fmt(m['setup_s'][0])} s (median of {len(setup_times)} set-ups; "
          f"[{fmt(statistics.median(r for r, _ in setup_times))}])")
    print(f"  ops_per_s        {fmt(m['ops_per_s'][0])} 1/s (n={n}; [{fmt(n / (sum(raw) / 1e9))}])")
    print(f"  op_ms_p50        {fmt(p50)} ms (n={n}; [{fmt(raw_p50)}])")
    print(f"  op_ms_p90        {fmt(p90)} ms (n={n}, {beyond} beyond; [{fmt(raw_p90)}])")
    print(f"  candidates_per_s {fmt(candidates / busy_s)} 1/s ({candidates} dictionary evaluations; "
          f"[{fmt(candidates / (sum(raw) / 1e9))}])")
    print(f"  failed_ratio     {fmt(failures.failed / failures.attempted)} "
          f"({failures.failed}/{failures.attempted})")
    print(f"  peak_rss_mb      {fmt(m['peak_rss_mb'][0])} MB")
    return m


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            status |= subprocess.run(cmd).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "replay", "guess", "cli", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="untraced: stop after this many ops instead of --seconds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "triauth" / "__init__.py").is_file():
        print(f"error: no triauth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
