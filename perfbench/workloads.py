"""Seeded workloads: op streams, op bodies and per-op correctness checks.

A workload turns the workload seed into an endless, deterministic stream of
op inputs.  `run(op)` makes only program calls and is the part the
benchmark times; `check(op, outcome)` runs afterwards and returns why the
op failed (None when it passed) together with a digest of the transcripts
the op produced.
"""

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostspeed import KERNEL, interpreter_probe
from tracehook import Totals, Tracer, watched_codes

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGEST_CHARS = 16
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))


def load_program():
    """Import the program afresh, dropping any earlier import; returns triauth.simulator."""
    for name in [n for n in sys.modules if n == "triauth" or n.startswith("triauth.")]:
        del sys.modules[name]
    return importlib.import_module("triauth.simulator")


def digest(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()[:DIGEST_CHARS]


def flip_payload_digit(text: str, r: int) -> str:
    """Copy of a transcript with one hex digit of one event payload changed."""
    key = '"payload":"'
    starts = []
    i = text.find(key)
    while i >= 0:
        starts.append(i + len(key))
        i = text.find(key, i + 1)
    start = starts[r % len(starts)]
    end = text.index('"', start)
    pos = start + (r // len(starts)) % (end - start)
    return text[:pos] + "0123456789abcdef"[int(text[pos], 16) ^ 1] + text[pos + 1:]


@dataclass
class Op:
    index: int          # position in the stream; -1 for warm-up ops
    inputs: object
    reference: str | None = None


class Workload:
    """One closed-loop client: the next op starts when the previous one returned."""

    name = ""
    trace_ops = 1       # size of the fixed op list a traced run repeats
    warmup_ops = 1
    probe = KERNEL      # host-speed calibration probe

    def __init__(self, sim, seed: int, reference: str, workdir: Path):
        self.sim = sim
        self.seed = seed
        self.reference = reference
        self.workdir = workdir
        self.tracer = None

    def ops(self, label: str = "ops"):
        rng = random.Random(f"{self.name}:{self.seed}:{label}")
        i = 0
        while True:
            ref = self.reference[i * DIGEST_CHARS:(i + 1) * DIGEST_CHARS] if label == "ops" else ""
            yield Op(i if label == "ops" else -1, self.make_inputs(rng, i), ref or None)
            i += 1

    def warm_up(self) -> None:
        stream = self.ops("warmup")
        for _ in range(self.warmup_ops):
            op = next(stream)
            self.check(op, self.run(op))

    def check(self, op: Op, outcome) -> tuple[str | None, str]:
        reason, texts = self.verify_outcome(op, outcome)
        d = digest(*texts)
        if reason is None and op.reference is not None and d != op.reference:
            reason = f"transcript digest {d} != reference {op.reference}"
        return reason, d

    def candidates(self, op: Op) -> int:
        """Dictionary evaluations the op makes, counting those made by verify."""
        return 0

    def repeat_share(self, ops: list) -> float:
        return 0.0

    def traced_pair(self, op: Op, totals: Totals) -> tuple[list, int, int]:
        """Run op untraced, then traced; returns (outcomes, untraced ns, traced ns)."""
        if self.tracer is None:
            self.tracer = Tracer(watched_codes())
        t0 = time.perf_counter_ns()
        plain = self.run(op)
        untraced_ns = time.perf_counter_ns() - t0
        with self.tracer:
            t0 = time.perf_counter_ns()
            traced = self.run(op)
            traced_ns = time.perf_counter_ns() - t0
        self.tracer.fold_into(totals, traced_ns)
        return [plain, traced], untraced_ns, traced_ns

    def close(self) -> None:
        pass


class Sweep(Workload):
    """Honest, masquerade and every mutation target in turn, each with a fresh seed."""

    name = "sweep"
    trace_ops = 38
    warmup_ops = 19

    def __init__(self, *args):
        super().__init__(*args)
        self.cycle = [("honest", None), ("masquerade", None)]
        self.cycle += [("mutation", t) for t in sorted(self.sim.MUTATION_TARGETS)]

    def make_inputs(self, rng, i):
        kind, target = self.cycle[i % len(self.cycle)]
        cfg = self.sim.ScenarioConfig(kind=kind, seed=rng.getrandbits(32), mutation_target=target)
        return cfg, rng.getrandbits(32)

    def run(self, op):
        cfg, flip = op.inputs
        sim = self.sim
        transcript = sim.run_scenario(cfg)
        text = transcript.to_jsonl()
        same = sim.Transcript.from_jsonl(text) == transcript
        status = sim.verify_transcript(text)[0]
        flipped_status = sim.verify_transcript(flip_payload_digit(text, flip))[0]
        return transcript, text, same, status, flipped_status

    def verify_outcome(self, op, outcome):
        transcript, text, same, status, flipped_status = outcome
        if not transcript.result.expectations_met:
            return f"expectations not met: {transcript.result.detail}", [text]
        if not same:
            return "from_jsonl round trip differs", [text]
        if status != 0:
            return f"verify returned {status}, expected 0", [text]
        if flipped_status != 1:
            return f"verify of a flipped payload returned {flipped_status}, expected 1", [text]
        return None, [text]


class Replay(Workload):
    """Replay scenarios; each op runs one with the full tap and one with the user link only."""

    name = "replay"
    trace_ops = 8
    warmup_ops = 2

    def make_inputs(self, rng, i):
        return tuple(
            self.sim.ScenarioConfig(kind="replay", seed=rng.getrandbits(32), tap_server_cs_link=tap)
            for tap in (True, False)
        )

    def run(self, op):
        results = []
        for cfg in op.inputs:
            transcript = self.sim.run_scenario(cfg)
            text = transcript.to_jsonl()
            results.append((transcript, text, self.sim.verify_transcript(text)[0]))
        return results

    def verify_outcome(self, op, outcome):
        texts = [text for _, text, _ in outcome]
        for transcript, _, status in outcome:
            if not transcript.result.expectations_met:
                return f"expectations not met: {transcript.result.detail}", texts
            if status != 0:
                return f"verify returned {status}, expected 0", texts
        return None, texts


class Guess(Workload):
    """Offline guessing over 3000 candidates; ops alternate a cross product and distinct pairs."""

    name = "guess"
    trace_ops = 4
    warmup_ops = 2
    IDS, PASSWORDS, PAIRS = 50, 60, 3000

    def make_inputs(self, rng, i):
        tag = f"{rng.getrandbits(32):08x}"
        if i % 2 == 0:
            ids = [f"user{tag}i{k}" for k in range(self.IDS)]
            passwords = [f"pw{tag}p{k}" for k in range(self.PASSWORDS)]
            entries = tuple((u, p) for u in ids for p in passwords)
        else:
            entries = tuple((f"user{tag}i{k}", f"pw{tag}p{k}") for k in range(self.PAIRS))
        pos = rng.randrange(len(entries) // 2, len(entries))
        user_id, password = entries[pos]
        cfg = self.sim.ScenarioConfig(
            kind="guess", seed=rng.getrandbits(32), user_id=user_id, password=password,
            dictionary=entries,
        )
        return cfg, pos

    def run(self, op):
        cfg, _ = op.inputs
        transcript = self.sim.run_scenario(cfg)
        text = transcript.to_jsonl()
        return transcript, text, self.sim.verify_transcript(text)[0]

    def verify_outcome(self, op, outcome):
        cfg, pos = op.inputs
        transcript, text, status = outcome
        report = transcript.report
        if not transcript.result.expectations_met:
            return f"expectations not met: {transcript.result.detail}", [text]
        if report.work != pos + 1:
            return f"guess took {report.work} evaluations, expected {pos + 1}", [text]
        if report.recovered != {"user_id": cfg.user_id, "password": cfg.password}:
            return f"wrong credentials recovered: {report.recovered}", [text]
        if status != 0:
            return f"verify returned {status}, expected 0", [text]
        return None, [text]

    def candidates(self, op):
        return 2 * (op.inputs[1] + 1)

    def repeat_share(self, ops):
        repeats = total = 0
        for op in ops:
            entries = op.inputs[0].dictionary
            repeats += len(entries) - len({p for _, p in entries})
            total += len(entries)
        return repeats / total if total else 0.0


class Cli(Workload):
    """Sequential `triauth run` / `triauth verify` child processes over every kind."""

    name = "cli"
    trace_ops = 10
    warmup_ops = 2
    DICT_PAIRS = 64
    KINDS = ("honest", "replay", "masquerade", "guess", "mutation")
    probe = interpreter_probe(CHILD_ENV)

    def __init__(self, *args):
        super().__init__(*args)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.transcript = self.workdir / "transcript.jsonl"
        rng = random.Random(f"{self.name}:{self.seed}:dict")
        tag = f"{rng.getrandbits(32):08x}"
        self.dictionary = [(f"user{tag}i{k}", f"pw{tag}p{k}") for k in range(self.DICT_PAIRS)]
        self.dict_path = self.workdir / "dict.tsv"
        self.dict_path.write_text("".join(f"{u}\t{p}\n" for u, p in self.dictionary), encoding="utf-8")
        self.mutation_targets = sorted(self.sim.MUTATION_TARGETS)
        self.samples = {"interpreter": [], "import": [], "main.run": [], "main.verify": []}

    def make_inputs(self, rng, i):
        item = i // 2
        if i % 2 == 1:
            return ["verify", str(self.transcript)], None
        kind = self.KINDS[item % len(self.KINDS)]
        args = ["run", kind, "--seed", str(rng.getrandbits(32)), "--out", str(self.transcript)]
        expected = None
        if kind == "guess":
            pos = rng.randrange(self.DICT_PAIRS // 2, self.DICT_PAIRS)
            user_id, password = self.dictionary[pos]
            args += ["--dict", str(self.dict_path), "--id", user_id, "--password", password]
            expected = (user_id, password, pos + 1)
        elif kind == "mutation":
            target = self.mutation_targets[(item // len(self.KINDS)) % len(self.mutation_targets)]
            args += ["--mutate-field", target]
        return args, expected

    def run(self, op):
        return subprocess.run(
            [sys.executable, "-m", "triauth.cli", *op.inputs[0]],
            cwd=self.workdir, env=CHILD_ENV, capture_output=True, text=True,
        )

    def verify_outcome(self, op, outcome):
        args, expected = op.inputs
        try:
            text = self.transcript.read_text(encoding="utf-8")
        except OSError as exc:
            return f"cannot read transcript: {exc}", []
        if outcome.returncode != 0:
            return f"{args[0]} exited {outcome.returncode}, expected 0: {outcome.stderr[-200:]}", [text]
        if args[0] == "run" and "expectations met: yes" not in outcome.stdout:
            return "run reported unmet expectations", [text]
        if expected is not None:
            user_id, password, evaluations = expected
            if f"recovered credentials: {user_id} {password}" not in outcome.stdout:
                return "wrong credentials recovered", [text]
            if f"evaluations: {evaluations}\n" not in outcome.stdout:
                return f"guess did not take {evaluations} evaluations", [text]
        return None, [text]

    def candidates(self, op):
        expected = op.inputs[1]
        return expected[2] if expected else 0

    def traced_pair(self, op, totals):
        """One child: import, main() untraced, then main() again under the tracer."""
        self.samples["interpreter"] += self.probe.times(1)
        result_path = self.workdir / "child.json"
        outcome = subprocess.run(
            [sys.executable, str(BENCH_DIR / "cli_child.py"), str(result_path), *op.inputs[0]],
            cwd=self.workdir, env=CHILD_ENV, capture_output=True, text=True,
        )
        if outcome.returncode != 0 and not result_path.exists():
            return [outcome], 0, 0
        child = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        totals.merge(Totals.from_dict(child["totals"]))
        self.samples["import"].append(child["import_ns"])
        self.samples[f"main.{op.inputs[0][0]}"].append(child["main_ns"])
        return [outcome], child["main_ns"], child["traced_ns"]

    def close(self):
        for path in (self.transcript, self.dict_path):
            path.unlink(missing_ok=True)
        for directory in (self.workdir, self.workdir.parent):
            try:
                directory.rmdir()
            except OSError:
                break


WORKLOADS = {w.name: w for w in (Sweep, Replay, Guess, Cli)}
