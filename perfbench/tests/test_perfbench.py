"""Tests of the benchmark itself: metric names, traced-count determinism, failure gates.

Run with: python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        capture_output=True, text=True, check=True, timeout=170,
    ).stdout
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_the_metrics_benchmark_json_names(name, trace):
    result, out = bench("--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", str(trace))
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == {m["name"]: m["unit"] for m in spec}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "environment: python" in out and "transcripts_sha256" in out


def test_traced_counts_repeat_exactly_and_honest_flow_costs_52_hash_bytes():
    first, out = bench("--workload", "sweep", "--seed", "5", "--seconds", "0.2", "--trace", "1")
    second, _ = bench("--workload", "sweep", "--seed", "5", "--seconds", "0.2", "--trace", "1")
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert "per honest run_scenario: 41 h calls, 52 hash_bytes calls" in out


def test_fixed_op_count_gives_identical_transcripts():
    _, a = bench("--workload", "replay", "--seed", "9", "--ops", "5")
    _, b = bench("--workload", "replay", "--seed", "9", "--ops", "5")
    digest = [line for line in a.splitlines() if "transcripts_sha256" in line]
    assert digest and digest == [line for line in b.splitlines() if "transcripts_sha256" in line]


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def failed_ops(name, seed, tmp_path, patch_target, patch_attr, replacement, ops=3):
    workload = workloads.WORKLOADS[name](
        workloads.load_program(), seed, run.reference_for(name, seed), tmp_path)
    module = workload.sim if patch_target == "sim" else getattr(workload.sim, patch_target)
    with mock.patch.object(module, patch_attr, replacement(getattr(module, patch_attr))):
        _, failures, _ = run.measure(workload, seconds=60, max_ops=ops)
    return failures.attempted, failures.failed


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, 4])
def test_corrupted_transcript_counts_as_failed(seed, tmp_path):
    def corrupt(to_jsonl):
        return lambda self: workloads.flip_payload_digit(to_jsonl(self), 0)
    assert failed_ops("sweep", seed, tmp_path, "Transcript", "to_jsonl", corrupt) == (3, 3)


def test_wrong_verify_status_counts_as_failed(tmp_path):
    def always_consistent(verify):
        return lambda text: (0, "transcript consistent")
    assert failed_ops("sweep", 4, tmp_path, "sim", "verify_transcript", always_consistent) == (3, 3)


def test_wrong_guess_count_counts_as_failed(tmp_path):
    def one_extra(guess):
        def patched(extracted, dictionary):
            result = guess(extracted, dictionary)
            return type(result)(result.user_id, result.password, result.evaluations + 1)
        return patched
    assert failed_ops("guess", 4, tmp_path, "sim", "guess_credentials", one_extra, ops=2) == (2, 2)


def test_a_clean_run_has_no_failed_ops(tmp_path):
    assert failed_ops("guess", 4, tmp_path, "sim", "guess_credentials", lambda guess: guess, ops=2) == (2, 0)
