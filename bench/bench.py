#!/usr/bin/env python3
"""The lexsem benchmark: end-to-end and per-layer figures on three workloads.

    python3 bench/bench.py --workload corpus|copred|cli --seed N \\
        --seconds S --trace 0|1 [--out FILE]
    python3 bench/bench.py --smoke

One process, one client, a closed loop, no threads.  `corpus` and `copred`
drive the package in-process; `cli` runs the `lexsem` command in a
subprocess per batch.  A run repeats whole rounds (one pass over the
workload's inputs) until the next round would end after S seconds, and
always runs at least one.  With `--trace 1` every operation runs twice,
untraced and traced in alternating order; the run reports the per-layer
figures of the traced copies and the tracing overhead.  Every reported
time is scaled to a host of fixed speed by a reference loop run between
operations (see HostSpeed).

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (each with its value and unit).  The
full report, with samples, quartiles and a row per copredication tree,
goes to FILE (default `.bench_out/BENCH_<workload>_seed<N>_trace<T>.json`).
See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("corpus", "copred", "cli")
SETUP_REPEATS = 25
# The reference loop's time on a quiet host, and the share of a run's wall
# time spent on it.  See HostSpeed.
REFERENCE_S = 0.0011
REFERENCE_SHARE = 0.2
# The tail percentile per workload: over single operations on corpus, over
# per-case mean latencies on copred and cli.  See "Latency" in README.md.
TAIL_PERCENTILE = {"corpus": 99.0, "copred": 90.0, "cli": 90.0}


def percentile(values, p: float) -> float:
    s = sorted(values)
    pos = p / 100 * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def summary(values) -> dict:
    """Median, quartiles and upper percentiles of a metric's samples."""
    if not values:
        return {"n": 0}
    return {"n": len(values), "median": statistics.median(values),
            "q1": percentile(values, 25), "q3": percentile(values, 75),
            "p90": percentile(values, 90), "p99": percentile(values, 99),
            "p99.9": percentile(values, 99.9),
            "min": min(values), "max": max(values)}


def run_rounds(do_round, seconds: float) -> int:
    """Whole rounds until the next would end after `seconds`; at least one."""
    n = 0
    start = time.perf_counter()
    while True:
        do_round()
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / n > seconds:
            return n


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def probe_input(workload: str, seed: int, tiny: bool) -> dict:
    """What a set-up probe loads and judges: the workload's lexica and its
    first tree."""
    import inputs
    if workload == "corpus":
        texts = {n: inputs.fixture_text(n) for n in inputs.FIXTURE_LEXICA}
        lexicon, tree = inputs.corpus_cases()[0]
    else:
        ci = inputs.copred_inputs(seed, tiny)
        texts = {k: spec.text for k, spec in ci.lexica.items()}
        lexicon = ci.cases[0].lexicon
        tree = ci.cases[0].tree(ci.lexica[lexicon].word)
    return {"lexica": texts, "lexicon": lexicon, "tree": tree}


def probe(input_file: Path) -> tuple:
    """Set-up seconds and time to the first answer, in a fresh process."""
    t0 = time.perf_counter()
    p = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "probe", str(input_file)],
        capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=120)
    if p.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {p.stderr.strip()}")
    got = json.loads(p.stdout.strip().splitlines()[-1])
    return got["setup_s"], got["first_at"] - t0


class Probes:
    """Set-up measurements in fresh processes, spread over the run between
    operations.  Each sample is (start, end, what `measure` returned)."""

    def __init__(self, measure, seconds: float, tiny: bool):
        self.measure = measure
        self.left = 1 if tiny else SETUP_REPEATS
        self.every = seconds / (self.left + 1)
        self.due = time.perf_counter()
        self.samples = []

    def take(self):
        t0 = time.perf_counter()
        got = self.measure()
        self.samples.append((t0, time.perf_counter(), got))
        self.left -= 1

    def tick(self):
        if self.left and time.perf_counter() >= self.due:
            self.take()
            self.due = time.perf_counter() + self.every

    def finish(self) -> list:
        while self.left:
            self.take()
        return self.samples


def reference_unit():
    """A fixed piece of interpreter work that touches no lexsem code:
    build a tree of tuples, walk it recursively, count labels in a dict.
    Never change it: every reported time is scaled by its speed."""
    def build(d, i):
        if d == 0:
            return ("leaf", i)
        return ("node", build(d - 1, 2 * i), build(d - 1, 2 * i + 1))

    def walk(t, acc):
        if t[0] == "leaf":
            k = "x%d" % (t[1] % 97)
            acc[k] = acc.get(k, 0) + 1
            return 1
        return walk(t[1], acc) + walk(t[2], acc)

    acc = {}
    return sum(walk(build(9, 1), acc) for _ in range(3)), len(acc)


class HostSpeed:
    """The host's speed over a run, from `reference_unit` run between
    operations.

    On a shared host a vCPU's speed switches between states up to 1.8x
    apart, each lasting from half a second to many seconds, as neighbours
    load the machine; every time a run measures moves with it, and raw
    times of the same code spread by 0.1 to 0.35 from run to run.  So the
    benchmark spends REFERENCE_SHARE of the run's wall time on the
    reference unit, between operations, and scales each time it measures
    by REFERENCE_S / (the unit's mean time over the WINDOW samples just
    before it and the WINDOW just after): a time is reported as it would
    be on a host where the unit takes REFERENCE_S.  The unit runs with the
    collector off, so that the program's heap does not change its time."""

    WINDOW = 10

    def __init__(self):
        self.start = time.perf_counter()
        self.samples = array("d")
        self.at = array("d")
        self.spent = 0.0

    def tick(self):
        """Runs the unit until it has had its share of the run so far."""
        clock = time.perf_counter
        while self.spent < REFERENCE_SHARE * (clock() - self.start):
            self.sample()

    def sample(self):
        was = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_unit()
        t1 = time.perf_counter()
        if was:
            gc.enable()
        self.samples.append(t1 - t0)
        self.at.append(t0)
        self.spent += t1 - t0

    def finish(self):
        """Samples after the last operation, for its window."""
        for _ in range(self.WINDOW):
            self.sample()

    def scale(self) -> float:
        """The factor for a run's totals: from every sample."""
        return REFERENCE_S / statistics.fmean(self.samples)

    def scale_at(self, start: float, end: float) -> float:
        """The factor for a time measured from `start` to `end`."""
        i = bisect.bisect_left(self.at, start)
        j = bisect.bisect_left(self.at, end)
        near = (self.samples[max(0, i - self.WINDOW):i]
                + self.samples[j:j + self.WINDOW])
        return REFERENCE_S / statistics.fmean(near)

    def report(self) -> dict:
        return {"reference_s": REFERENCE_S, "scale": self.scale(),
                "unit_s": summary(self.samples),
                "share": self.spent / (time.perf_counter() - self.start)}


def pin_to_one_cpu():
    """Keeps the benchmark and every process it starts on one CPU, the
    lowest it may use, so that the reference unit measures the CPU the
    timed work runs on.  Where affinity cannot be set, it does nothing."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def ticks(*clocks):
    """One tick, called before each operation, that ticks every clock."""
    def tick():
        for c in clocks:
            c.tick()
    return tick


class Pass:
    """The timed operations of one pass, untraced or traced."""

    def __init__(self):
        # Flat arrays, so that the benchmark's own memory barely grows
        # with the number of operations.
        self.times = array("d")
        self.ends = array("d")
        self.cases = array("H")
        self.names = {}
        self.trees = 0
        self.readings = 0

    def add(self, name, seconds, end, trees, readings):
        self.times.append(seconds)
        self.ends.append(end)
        self.cases.append(self.names.setdefault(name, len(self.names)))
        self.trees += trees
        self.readings += readings

    def scaled(self, host) -> array:
        return array("d", (d * host.scale_at(e - d, e)
                           for d, e in zip(self.times, self.ends)))

    def by_case(self, times) -> dict:
        """Each case's times, by case name."""
        cases = {name: [] for name in self.names}
        names = list(self.names)
        for i, d in zip(self.cases, times):
            cases[names[i]].append(d)
        return cases


def passes(trace: bool):
    """Per operation: untraced only, or both passes, in an order that
    alternates so that neither pass always runs second."""
    if not trace:
        return itertools.repeat((False,))
    return itertools.cycle(((True, False), (False, True)))


# ---------------------------------------------------------------------------
# corpus and copred: in-process


class InProcess:
    def __init__(self, workload: str, seed: int, tiny: bool, trace: bool,
                 tick):
        import checks
        import inputs
        from lexsem import composition, kernel, lexicon, logic
        self.api = (composition.parse_tree, composition.felicity,
                    logic.render_formula, kernel.render_term)
        self.rng = random.Random(f"{workload}-order-{seed}")
        if workload == "corpus":
            texts = {n: inputs.fixture_text(n) for n in inputs.FIXTURE_LEXICA}
            self.cases = [(tree, lex, tree)
                          for lex, tree in inputs.corpus_cases()]
            self.check = checks.corpus_problems
        else:
            ci = inputs.copred_inputs(seed, tiny)
            texts = {k: s.text for k, s in ci.lexica.items()}
            self.cases = [(c.name, c.lexicon,
                           c.tree(ci.lexica[c.lexicon].word))
                          for c in ci.cases]
            shapes = {c.name: (ci.lexica[c.lexicon], c.shape)
                      for c in ci.cases}
            self.check = lambda name, v, lex: checks.copred_problems(
                name, *shapes[name], v, lex)
        self.lexica = {k: lexicon.load_lexicon(t) for k, t in texts.items()}
        self.plain, self.traced = Pass(), Pass()
        self.outputs, self.rows = {}, {}
        self.problems, self.errors = [], []
        self.attempted = self.failed = 0
        self.passes = passes(trace)
        self.tick = tick
        # A copred tree leaves megabytes of garbage and a fragmented heap.
        # Its trees run in a fixed order, each after an untimed collection,
        # so that neither a tree's latency nor the peak memory depends on
        # which trees ran before it.  Collections that a tree's own
        # allocations trigger still count.
        self.isolate = workload == "copred"
        if trace:
            from tracing import Tracer, layer_metrics, lexsem_modules
            load = Tracer(span_cap=0)
            load.install(lexsem_modules())
            try:
                for text in texts.values():
                    load.entry(lexicon.load_lexicon)(text)
            finally:
                load.disable()
            self.load_self_s = layer_metrics(load.dump(), 1, 0)[
                "lexicon.load_lexicon.self_s"]
            self.tracer = Tracer(span_cap=50_000)
            self.tracer.install(lexsem_modules())
            self.tracer.disable()
            self.traced_api = tuple(self.tracer.entry(fn) for fn in self.api)

    def round(self):
        from child import judge
        order = list(self.cases)
        if not self.isolate:
            self.rng.shuffle(order)
        clock = time.perf_counter
        for name, lex, text in order:
            for traced in next(self.passes):
                self.tick()
                self.attempted += 1
                if self.isolate:
                    gc.collect()
                if traced:
                    self.tracer.enable()
                t0 = clock()
                try:
                    v, out = judge(*(self.traced_api if traced else self.api),
                                   text, self.lexica[lex])
                except Exception as err:      # recorded; the run goes on
                    self.failed += 1
                    self.errors.append(f"{name}: {type(err).__name__}: {err}")
                    continue
                finally:
                    t1 = clock()
                    if traced:
                        self.tracer.disable()
                (self.traced if traced else self.plain).add(
                    name, t1 - t0, t1, 1, len(v.readings))
                if name not in self.outputs:
                    self.outputs[name] = out
                    self.rows[name] = (len(v.readings), len(v.rejection_log))
                    self.problems += self.check(name, v, self.lexica[lex])
                elif out != self.outputs[name]:
                    self.problems.append(f"{name}: output changed")


def end_to_end(workload, p: Pass, times, firsts, setup, rss):
    """The end-to-end metrics, as (value, summary of its samples) pairs,
    from the operations' times, scaled or not (see HostSpeed).

    Scaling leaves each case a wider spread of times in a run than the
    code alone gives, and a median over single operations would jump
    between cases as it moves.  So the latency median is taken over each
    case's (tree's, or batch's) mean latency in the run.  For the same
    reason `first_block_s` on cli is a mean over invocations of every
    batch; in-process it is the median of the set-up probes, which all
    do the same work."""
    busy = sum(times)
    case_ms = [statistics.fmean(x) * 1000
               for x in p.by_case(times).values()]
    tail = ([x * 1000 for x in times] if workload == "corpus"
            else case_ms)
    return {
        "trees_per_s": (p.trees / busy, None),
        "readings_per_s": (p.readings / busy, None),
        "latency_p50_ms": (statistics.median(case_ms), summary(case_ms)),
        "latency_tail_ms": (percentile(tail, TAIL_PERCENTILE[workload]),
                            summary(tail)),
        "first_block_s": ((statistics.fmean if workload == "cli"
                           else statistics.median)(firsts), summary(firsts)),
        "setup_s": (statistics.median(setup), summary(setup)),
        "peak_rss_mb": (max(rss), summary(rss)),
    }


def in_process(workload, seed, seconds, trace, tiny) -> dict:
    probe_file = OUT / f"probe_{workload}_seed{seed}.json"
    probe_file.write_text(json.dumps(probe_input(workload, seed, tiny)))
    probes = Probes(lambda: probe(probe_file), seconds, tiny)
    host = HostSpeed()
    w = InProcess(workload, seed, tiny, trace, ticks(probes, host))
    rounds = run_rounds(w.round, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probed = probes.finish()
    host.finish()
    s = w.plain
    times = s.scaled(host)
    setup = [x[2][0] for x in probed]
    first = [x[2][1] for x in probed]
    factors = [host.scale_at(t0, t1) for t0, t1, _ in probed]
    res = {"rounds": rounds, "attempted": w.attempted, "failed": w.failed,
           "problems": w.problems, "errors": w.errors,
           "samples": len(s.times), "host_speed": host.report(),
           "e2e": end_to_end(workload, s, times,
                             [x * f for x, f in zip(first, factors)],
                             [x * f for x, f in zip(setup, factors)],
                             [peak_mb]),
           "e2e_unscaled": end_to_end(workload, s, s.times, first, setup,
                                      [peak_mb])}
    if trace:
        from tracing import layer_metrics
        res["layers"] = layer_metrics(w.tracer.dump(), rounds, 0,
                                      w.load_self_s)
        res["layers"]["trace.overhead_pct"] = (
            sum(w.traced.times) / sum(s.times) - 1) * 100
        res["spans"] = [w.tracer.dump()]
    if workload == "copred":
        cases = s.by_case(times)
        res["trees"] = [
            {"tree": name, "lexicon": lex, "text": text,
             "readings": w.rows.get(name, (None, None))[0],
             "rejections": w.rows.get(name, (None, None))[1],
             "latency_ms": summary([x * 1000
                                    for x in cases.get(name, [])])}
            for name, lex, text in w.cases]
    return res


# ---------------------------------------------------------------------------
# cli: the lexsem command in a subprocess


def invoke(cmd) -> dict:
    """Run one command on empty stdin; time it, its first block and its
    peak memory."""
    t0 = time.perf_counter()
    with open(OUT / "cli-stderr.txt", "wb") as err:
        p = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE,
                             stderr=err, env=child_env(), cwd=ROOT)
        fd = p.stdout.fileno()
        chunks, first = [], None
        while True:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
            if first is None and b"\n\n" in b"".join(chunks[-2:]):
                first = time.perf_counter() - t0
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
    end = time.perf_counter()
    wall = end - t0
    out = b"".join(chunks)
    if first is None and out:
        first = wall
    return {"wall": wall, "end": end, "first": first, "rc": p.returncode,
            "rss_mb": usage.ru_maxrss / 1024, "stdout": out,
            "stderr": (OUT / "cli-stderr.txt").read_text(errors="replace")}


def cli_texts() -> tuple:
    """The term and source texts of each felicitous fixture tree, from the
    library in-process, after checking its verdict against the
    hand-written expectation."""
    import checks
    import inputs
    from lexsem import felicity, load_lexicon, parse_tree, render_term
    texts, problems = {}, []
    for lex_name in inputs.FIXTURE_LEXICA:
        lex = load_lexicon(inputs.fixture_text(lex_name))
        for tree in inputs.fixture_trees(lex_name):
            v = felicity(parse_tree(tree), lex)
            problems += checks.corpus_problems(tree, v, lex)
            e = checks.CORPUS.get(tree)
            if e is not None and v.readings:
                texts[tree] = checks.TreeText(
                    e, render_term(v.readings[0].term),
                    render_term(v.readings[0].source))
            elif e is not None:
                texts[tree] = checks.TreeText(e)
    return texts, problems


class Cli:
    def __init__(self, seed: int, tiny: bool, trace: bool, tick):
        import inputs
        self.batches = inputs.cli_batches(seed, tiny)
        self.rng = random.Random(f"cli-order-{seed}")
        self.texts, self.problems = cli_texts()
        (OUT / "cli").mkdir(parents=True, exist_ok=True)
        for b in self.batches:
            (OUT / "cli" / f"{b.name}.txt").write_text(b.input_text())
        self.plain, self.traced = Pass(), Pass()
        self.runs, self.dumps = [], []
        self.attempted = self.failed = self.traced_bytes = 0
        self.failures = {}
        self.passes = passes(trace)
        self.tick = tick

    def args(self, b) -> list:
        return (["--lexicon",
                 str(ROOT / "tests" / "fixtures" / f"{b.lexicon}.mgl"),
                 "--format", b.format, "--input",
                 str(OUT / "cli" / f"{b.name}.txt")]
                + (["--all-readings"] if b.all_readings else []))

    def round(self):
        order = list(self.batches)
        self.rng.shuffle(order)
        for b in order:
            for traced in next(self.passes):
                self.tick()
                if traced:
                    stats = OUT / "cli-trace.json"
                    r = invoke([sys.executable, str(BENCH / "child.py"),
                                "cli-traced", str(stats)] + self.args(b))
                    dump = json.loads(stats.read_text())
                    if len(self.dumps) >= len(self.batches):
                        dump["spans"] = []    # keep the first round's only
                    self.dumps.append(dump)
                    self.traced_bytes += len(r["stdout"])
                else:
                    r = invoke([sys.executable, "-m", "lexsem.cli"]
                               + self.args(b))
                    self.runs.append(r)
                readings = self.check(b, r)
                (self.traced if traced else self.plain).add(
                    b.name, r["wall"], r["end"], len(b.lines), readings)
                r["stdout"] = r["stderr"] = None

    def check(self, b, r) -> int:
        """Checks one invocation; returns the readings of the lines it
        answered."""
        import checks
        text = r["stdout"].decode().rstrip("\n")
        blocks = ([blk.split("\n") for blk in text.split("\n\n")]
                  if text else [])
        self.attempted += len(b.lines)
        answered = min(len(blocks), len(b.lines))
        if answered < len(b.lines):
            self.failed += len(b.lines) - answered
            last = (r["stderr"].strip().splitlines() or ["no output"])[-1]
            self.failures[b.name] = (f"{len(b.lines) - answered} of"
                                     f" {len(b.lines)} trees unanswered,"
                                     f" exit {r['rc']}: {last}")
        elif len(blocks) > len(b.lines):
            self.problems.append(f"{b.name}: {len(blocks)} blocks for"
                                 f" {len(b.lines)} trees")
        elif r["rc"] != checks.expected_exit(b.lines):
            self.problems.append(f"{b.name}: exit {r['rc']}, expected"
                                 f" {checks.expected_exit(b.lines)}")
        readings = 0
        for line, block in zip(b.lines, blocks):
            for p in checks.block_problems(line, block, b.format,
                                           self.texts, b.lexicon):
                self.problems.append(f"{b.name}: {line.text[:60]}: {p}")
            if line.kind == "tree":
                readings += self.texts[line.tree].expect.readings
        del self.problems[100:]
        return readings


def cli(seed, seconds, trace, tiny) -> dict:
    lexicon = str(ROOT / "tests" / "fixtures" / "liverpool.mgl")
    probes = Probes(lambda: invoke([sys.executable, "-m", "lexsem.cli",
                                    "--lexicon", lexicon])["wall"],
                    seconds, tiny)
    host = HostSpeed()
    w = Cli(seed, tiny, trace, ticks(probes, host))
    rounds = run_rounds(w.round, seconds)
    probed = probes.finish()
    host.finish()
    setup = [x[2] for x in probed]
    answered = [r for r in w.runs if r["first"] is not None]
    firsts = [r["first"] for r in answered]
    rss = [r["rss_mb"] for r in w.runs]
    p = w.plain
    res = {"rounds": rounds, "attempted": w.attempted, "failed": w.failed,
           "failures": w.failures, "problems": w.problems,
           "samples": len(p.times), "host_speed": host.report(),
           "e2e": end_to_end(
               "cli", p, p.scaled(host),
               [r["first"] * host.scale_at(r["end"] - r["wall"], r["end"])
                for r in answered],
               [x * host.scale_at(t0, t1) for t0, t1, x in probed], rss),
           "e2e_unscaled": end_to_end("cli", p, p.times, firsts, setup,
                                      rss)}
    if trace:
        from tracing import empty_dump, layer_metrics, merge
        dump = empty_dump()
        for d in w.dumps:
            merge(dump, d)
        res["layers"] = layer_metrics(dump, rounds, w.traced_bytes)
        res["layers"]["trace.overhead_pct"] = (
            sum(w.traced.times) / sum(w.plain.times) - 1) * 100
        res["spans"] = w.dumps
    return res


# ---------------------------------------------------------------------------


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lexsem").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, cwd=ROOT, timeout=30)
    except OSError:
        return None
    return p.stdout.strip() or None


def run_workload(workload, seed, seconds, trace, tiny=False):
    """Returns (result line, full report)."""
    OUT.mkdir(exist_ok=True)
    if workload == "cli":
        res = cli(seed, seconds, trace, tiny)
    else:
        res = in_process(workload, seed, seconds, trace, tiny)
    b = spec()
    if trace:
        # Layer times are scaled by the host's speed like end-to-end ones.
        units = {m["name"]: m["unit"] for m in b["per_layer"]}
        scale = res["host_speed"]["scale"]
        values = {name: (res["layers"][name]
                         * (scale if unit == "s" else 1.0), None)
                  for name, unit in units.items()}
    else:
        units = {m["name"]: m["unit"] for m in b["end_to_end"]}
        values = {name: res["e2e"][name] for name in units}
    result = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name][0], "unit": units[name]}
                    for name in units},
    }
    spans_file = None
    if trace:
        spans_file = OUT / f"spans_{workload}_seed{seed}.jsonl"
        from tracing import write_spans
        write_spans(spans_file, res["spans"])
    report = {
        "workload": workload, "seed": seed, "trace": trace,
        "git_rev": git_rev(), "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(), "platform": platform.platform(),
        "cpus_used": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "run_seconds": seconds, "rounds": res["rounds"],
        "attempted": res["attempted"], "failed": res["failed"],
        "samples": res["samples"],
        "tail_percentile": TAIL_PERCENTILE[workload],
        "metrics": {name: {"value": v, "unit": units[name],
                           **(s or {})} for name, (v, s) in values.items()},
        "host_speed": res["host_speed"],
        "end_to_end": {name: {"value": v, **(s or {})}
                       for name, (v, s) in res["e2e"].items()},
        "end_to_end_unscaled": {name: {"value": v, **(s or {})}
                                for name, (v, s) in
                                res["e2e_unscaled"].items()},
        "problems": res["problems"],
        "failures": res.get("failures", {}),
        "errors": res.get("errors", []),
        "trees": res.get("trees", []),
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file
        else None,
    }
    return result, report


def smoke() -> int:
    """Every workload on a tiny budget, traced and untraced; checks the
    shape of each result line against BENCHMARK.json.  No timing gate."""
    b = spec()
    bad = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, _ = run_workload(workload, 1, 0, trace, tiny=True)
            want = b["per_layer"] if trace else b["end_to_end"]
            tag = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                bad.append(f"{tag}: keys {sorted(result)}")
            if result["correct"] is not True:
                bad.append(f"{tag}: not correct")
            if not (isinstance(result["attempted"], int)
                    and isinstance(result["failed"], int)
                    and 0 <= result["failed"] <= result["attempted"]
                    and result["attempted"] >= 1):
                bad.append(f"{tag}: attempted/failed")
            if list(result["metrics"]) != [m["name"] for m in want]:
                bad.append(f"{tag}: metric names")
            for m in want:
                got = result["metrics"].get(m["name"], {})
                v = got.get("value")
                if (got.get("unit") != m["unit"]
                        or not isinstance(v, (int, float))
                        or not math.isfinite(v)
                        or (not trace and v <= 0)):
                    bad.append(f"{tag}: {m['name']} = {got}")
            print(f"smoke {tag}: attempted {result['attempted']},"
                  f" failed {result['failed']}", file=sys.stderr)
    for line in bad:
        print(f"smoke: {line}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not bad else "failed",
                      "problems": bad}))
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="where to write the full report")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload on a tiny budget and check"
                         " the shape of the output")
    args = ap.parse_args(argv)
    if not (SRC / "lexsem" / "__init__.py").is_file():
        print(f"no lexsem package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    pin_to_one_cpu()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    result, report = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace)
    out = Path(args.out) if args.out else (
        OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    for p in report["problems"][:10]:
        print(f"problem: {p}")
    for name, why in report["failures"].items():
        print(f"failed: {name}: {why}")
    print(f"report: {out}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
