"""Profile-hook tracer: spans and exact counts for chosen program functions.

The tracer watches the code objects of a fixed list of public program
functions.  For each call of one of them it records a span (name, start,
end, parent span) plus the number of `h` and `hash_bytes` calls made inside
it, and after every op it folds the spans into per-function totals.  Self
time is a span's duration minus the durations of its direct child spans.
Nothing in the program is modified: the hook is installed with
`sys.setprofile` around traced ops only.
"""

import importlib
import sys
import time

# (metric prefix, module, attribute path).  A name the program no longer
# has is skipped, and its metrics then read 0.
WATCHED = (
    ("crypto.hash_bytes", "triauth.crypto", "hash_bytes"),
    ("crypto.h", "triauth.crypto", "h"),
    ("crypto.concat", "triauth.crypto", "concat"),
    ("crypto.xor", "triauth.crypto", "xor"),
    ("actors.register_user", "triauth.actors", "register_user"),
    ("actors.card_login", "triauth.actors", "card_login"),
    ("actors.server_forward", "triauth.actors", "server_forward"),
    ("actors.cs_authenticate", "triauth.actors", "cs_authenticate"),
    ("actors.server_verify", "triauth.actors", "server_verify"),
    ("actors.card_verify", "triauth.actors", "card_verify"),
    ("attacks.knows", "triauth.attacks", "AdversaryKnowledge.knows"),
    ("attacks.guess_credentials", "triauth.attacks", "guess_credentials"),
    ("attacks.Dictionary.from_pairs", "triauth.attacks", "Dictionary.from_pairs"),
    ("simulator.send", "triauth.simulator", "_Run.send"),
    ("simulator.encode_message", "triauth.simulator", "encode_message"),
    ("simulator.decode_message", "triauth.simulator", "decode_message"),
    ("simulator.adversary_tap", "triauth.simulator", "adversary_tap"),
    ("simulator.ScenarioConfig.validate", "triauth.simulator", "ScenarioConfig.validate"),
    ("simulator.verify_transcript", "triauth.simulator", "verify_transcript"),
    ("simulator.to_jsonl", "triauth.simulator", "Transcript.to_jsonl"),
    ("simulator.from_jsonl", "triauth.simulator", "Transcript.from_jsonl"),
    ("simulator.run_scenario", "triauth.simulator", "run_scenario"),
)

H = "crypto.h"
HASH_BYTES = "crypto.hash_bytes"


def _seen_values(frame, arg):
    """Size of the adversary's observed set when knows() is entered."""
    seen = getattr(frame.f_locals.get("self"), "_seen", None)
    return len(seen) if seen is not None else 0


def _evaluations(frame, arg):
    return getattr(arg, "evaluations", 0)


def _text_bytes(frame, arg):
    return len(arg.encode("utf-8")) if isinstance(arg, str) else 0


# name -> (event, extractor): a number summed into the function's "extra".
EXTRAS = {
    "attacks.knows": ("call", _seen_values),
    "attacks.guess_credentials": ("return", _evaluations),
    "simulator.to_jsonl": ("return", _text_bytes),
}


def watched_codes() -> dict:
    """Map the code object of every WATCHED function the program has to its name."""
    codes = {}
    for name, module_name, path in WATCHED:
        try:
            obj = importlib.import_module(module_name)
            for attr in path.split("."):
                obj = getattr(obj, attr)
        except (ImportError, AttributeError):
            continue
        code = getattr(getattr(obj, "__func__", obj), "__code__", None)
        if code is not None:
            codes[code] = name
    return codes


class Totals:
    """Per-function sums over traced ops; plain numbers, so they merge and serialize."""

    FIELDS = ("calls", "total_ns", "self_ns", "h_inside", "hash_bytes_inside", "extra")

    def __init__(self):
        self.ops = 0
        self.op_ns = 0
        self.fn = {}

    def row(self, name: str) -> dict:
        return self.fn.setdefault(name, dict.fromkeys(self.FIELDS, 0))

    def merge(self, other: "Totals") -> None:
        self.ops += other.ops
        self.op_ns += other.op_ns
        for name, row in other.fn.items():
            mine = self.row(name)
            for key in self.FIELDS:
                mine[key] += row[key]

    def to_dict(self) -> dict:
        return {"ops": self.ops, "op_ns": self.op_ns, "fn": self.fn}

    @classmethod
    def from_dict(cls, data: dict) -> "Totals":
        totals = cls()
        totals.ops = data["ops"]
        totals.op_ns = data["op_ns"]
        for name, row in data["fn"].items():
            totals.row(name).update(row)
        return totals


class Tracer:
    """Records spans of watched functions while active (`with tracer:`)."""

    def __init__(self, codes: dict):
        self._codes = codes
        self.spans = []  # [name, start_ns, end_ns, parent_index, h_inside, hash_bytes_inside, extra]
        self._hook = self._make_hook()

    def _make_hook(self):
        codes = self._codes
        spans = self.spans
        stack = []  # indices into spans of the open spans
        counter = {H: 0, HASH_BYTES: 0}
        clock = time.perf_counter_ns

        def hook(frame, event, arg):
            if event == "call":
                name = codes.get(frame.f_code)
                if name is None:
                    return
                if name in counter:
                    counter[name] += 1
                extra = EXTRAS.get(name)
                value = extra[1](frame, arg) if extra and extra[0] == "call" else 0
                stack.append(len(spans))
                spans.append([name, clock(), 0, stack[-2] if len(stack) > 1 else -1,
                              counter[H], counter[HASH_BYTES], value])
            elif event == "return":
                name = codes.get(frame.f_code)
                if name is None or not stack:
                    return
                span = spans[stack.pop()]
                span[2] = clock()
                span[4] = counter[H] - span[4]
                span[5] = counter[HASH_BYTES] - span[5]
                extra = EXTRAS.get(name)
                if extra and extra[0] == "return":
                    span[6] = extra[1](frame, arg)

        return hook

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False

    def fold_into(self, totals: Totals, op_ns: int) -> None:
        """Add the spans of one finished op to totals, deriving self time, then clear them."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, parent, h_in, hb_in, extra), children in zip(self.spans, child_ns):
            row = totals.row(name)
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - children
            row["h_inside"] += h_in
            row["hash_bytes_inside"] += hb_in
            row["extra"] += extra
        totals.ops += 1
        totals.op_ns += op_ns
        self.spans.clear()
