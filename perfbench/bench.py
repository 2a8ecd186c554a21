"""One benchmark run: set-up, a train phase and an evaluate phase, then checks.

Both phases run in this one process with a single closed-loop caller: the
study is an offline batch job, so there is no arrival process to model.
Train and evaluate samples alternate until each phase has used about half of
``--seconds``. A train sample is one ``trainer.train`` call (one epoch) of one
variant, taking the variants in turn; an evaluate sample is one
``cli.evaluate_examples`` call of one variant on one chunk of its evaluated split,
taking the (variant, chunk) units in turn. Each end-to-end rate is the work of
all units over the sum of each unit's median sample time, so a rate neither
mixes units that cost different amounts nor rests on a few long samples.

After each train() call the model is reset to its seeded initial state, so
every sample does the same work and evaluation always decodes the untrained
seeded model. Decode work depends on when hypotheses finish; decoding a model
that no training code path touches keeps a change to training (its dropout
draw order, say) from moving ``eval_img_per_s``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import reviewnet
from reviewnet import cli as rn_cli
from reviewnet import trainer as rn_trainer
from reviewnet.dataset import END_ID
from reviewnet.errors import NumericError

import checks
import probes
import reference
import trace
from workloads import BEAM_SIZE, MAX_LEN, WORKLOADS, set_up

SETUP_REPEATS = 5  # set-ups per run, and imports timed per run


class Capture:
    """Keeps what beam_search and score_corpus return, so that checks can run
    after the timed call instead of inside it."""

    def __init__(self):
        self.pools: list = []
        self.corpora: list = []

    def clear(self) -> None:
        self.pools.clear()
        self.corpora.clear()

    def replacements(self):
        def beam(fn):
            def captured(model, inputs, *args, **kwargs):
                pool = fn(model, inputs, *args, **kwargs)
                self.pools.append((inputs, pool))
                return pool
            return captured

        def score(fn):
            def captured(pairs):
                scores = fn(pairs)
                self.corpora.append((list(pairs), scores))
                return scores
            return captured

        return [(rn_cli, "beam_search", beam), (rn_cli, "score_corpus", score)]


def run_interleaved(samplers: dict, budget: float, minimum: dict[str, int],
                    between=(), after_each=lambda seconds: None) -> dict[str, int]:
    """Alternate the kinds of sample, each taking an equal share of ``budget``
    seconds, until the next sample would likely overrun it; return the number
    of samples of each kind.

    ``samplers`` maps a kind to ``sample(k)``. Interleaving spreads
    every kind's samples over the whole run, so a slow spell of the machine
    lands on all of them instead of on one. The callables in ``between`` run
    one after each sample, and all of them before returning.
    """
    counts = dict.fromkeys(samplers, 0)
    spent = dict.fromkeys(samplers, 0.0)
    pending = list(between)
    start = perf_counter()
    while True:
        kind = min(spent, key=spent.get)
        t0 = perf_counter()
        samplers[kind](counts[kind])
        counts[kind] += 1
        spent[kind] += perf_counter() - t0
        after_each(perf_counter() - t0)
        if pending:
            pending.pop(0)()
        if any(counts[k] < n for k, n in minimum.items()):
            continue
        nxt = min(spent, key=spent.get)
        if perf_counter() - start + spent[nxt] / max(1, counts[nxt]) > budget:
            for task in pending:
                task()
            return counts


def import_seconds(root: Path) -> float:
    """Time to import the package and the benchmark in a fresh interpreter,
    under the same thread pinning."""
    probe = ("import sys, time; t = time.perf_counter(); "
             f"sys.path[:0] = [{str(root / 'src')!r}, {str(Path(__file__).parent)!r}]; "
             "import bench; print(time.perf_counter() - t)")
    return float(subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                                text=True, timeout=120).stdout)


class SetUps:
    """Repeated set-ups of one workload: their times, imports timed in fresh
    interpreters, and the exact counts each must reproduce.

    Only the first set-up precedes the phases; the others run between phase
    samples, so that set-up times see the same spells of the machine as the
    phases do.
    """

    def __init__(self, args, workload, root: Path, work_dir: Path, tracer, import_s: float):
        self.args, self.workload, self.root, self.work_dir = args, workload, root, work_dir
        self.tracer = tracer
        self.times: list[float] = []
        self.imports = [import_s]
        self.signatures: list[tuple] = []
        self.tape: list[tuple[float, float]] = []

    def run(self, k: int):
        self.tracer.run = f"setup{k}"
        t0 = perf_counter()
        jobs = set_up(self.workload, self.args.seed, self.work_dir / f"setup{k}", self.tracer)
        self.times.append(perf_counter() - t0)
        shutil.rmtree(self.work_dir / f"setup{k}", ignore_errors=True)
        self.signatures.append((workload_counts(jobs), init_param_sum(jobs)))
        if self.args.trace and k < 2:
            self.tape.append(probes.tape_counts(jobs))
        if k > 0 and not self.args.trace:
            self.imports.append(import_seconds(self.root))
        return jobs

    def later(self) -> list:
        return [lambda k=k: self.run(k) for k in range(1, SETUP_REPEATS)]

    def check(self, ledger: checks.Ledger) -> None:
        for kind, values in (("set-up", self.signatures), ("tape count", self.tape)):
            if values:
                same = all(v == values[0] for v in values)
                ledger.record("reproducibility",
                              None if same else f"{kind} differs between set-ups")


class Phases:
    """The train and evaluate phases over one set-up, with their checks.

    Train sample ``k`` trains variant ``k % len(jobs)``; evaluate sample ``k``
    decodes unit ``k % len(units)``, a unit being one variant's evaluated images
    ``chunk * eval_images`` to ``(chunk + 1) * eval_images``.
    """

    def __init__(self, jobs, eval_images: int, ledger: checks.Ledger, tracer, capture: Capture):
        self.jobs = jobs
        self.units = [(job, job.evaluated[start:start + eval_images], start // eval_images)
                      for job in jobs for start in range(0, len(job.evaluated), eval_images)]
        # seconds of each sample, per job and per unit
        self.train_seconds: list[list[float]] = [[] for _ in jobs]
        self.eval_seconds: list[list[float]] = [[] for _ in self.units]
        self.ledger = ledger
        self.tracer = tracer
        self.capture = capture
        self.final_losses: dict[str, float] = {}
        # (variant, chunk) -> per evaluate call, (rounds, capped, pool size) per image
        self.decodes: dict[tuple[str, int], list[tuple]] = defaultdict(list)

    def train_sample(self, k: int) -> None:
        train = self.tracer.wrap("trainer.train", rn_trainer.train)
        job = self.jobs[k % len(self.jobs)]
        self.tracer.run = f"train{k}:{job.variant.value}"
        result = error = None
        t0 = perf_counter()
        try:
            result = train(job.model, job.data, job.config)
        except NumericError as exc:
            error = exc
        self.train_seconds[k % len(self.jobs)].append(perf_counter() - t0)
        checks.check_training(self.ledger, job, result, error)
        if result is not None:
            self.final_losses[job.variant.value] = result.log[-1].train_loss
        job.model.load_param_state(job.init_state)

    def eval_sample(self, k: int) -> None:
        evaluate = self.tracer.wrap("cli.evaluate_examples", rn_cli.evaluate_examples)
        job, examples, chunk = self.units[k % len(self.units)]
        self.tracer.run = f"eval{k}:{job.variant.value}:{chunk}"
        self.capture.clear()
        t0 = perf_counter()
        outcome = evaluate(job.model, examples, job.data.vocab,
                           beam_size=BEAM_SIZE, max_len=MAX_LEN)
        self.eval_seconds[k % len(self.units)].append(perf_counter() - t0)
        checks.check_decodes(self.ledger, job, self.capture.pools, outcome.generations, MAX_LEN)
        checks.check_corpus(self.ledger, self.capture.corpora, outcome,
                            [int(ex.label) for ex in examples])
        self.decodes[job.variant.value, chunk].append(tuple(
            (max(len(h.tokens) for h in pool),
             sum(len(h.tokens) == MAX_LEN and h.tokens[-1] != END_ID for h in pool),
             len(pool))
            for _, pool in self.capture.pools))

    def train_rate(self) -> float:
        """Training instances per second of one epoch of every variant."""
        return (sum(len(job.instances) for job in self.jobs)
                / sum(statistics.median(s) for s in self.train_seconds))

    def eval_rate(self) -> float:
        """Evaluated images per second of one pass over every unit."""
        return (sum(len(examples) for _, examples, _ in self.units)
                / sum(statistics.median(s) for s in self.eval_seconds))

    def samples(self) -> dict[str, list[list[float]]]:
        return {"train": self.train_seconds, "eval": self.eval_seconds}

    def samplers(self, replacements) -> dict:
        """Train and evaluate samplers that install ``replacements`` while they run."""
        def patched(sample):
            def run(k: int) -> None:
                with trace.patched(replacements):
                    return sample(k)
            return run
        return {"train": patched(self.train_sample), "eval": patched(self.eval_sample)}

    def check_decodes_repeat(self) -> None:
        """Repeated evaluate calls on the same images decode the same pools."""
        for (variant, chunk), runs in self.decodes.items():
            same = len(set(runs)) == 1
            self.ledger.record("reproducibility",
                               None if same else f"{variant}: decodes of chunk {chunk} differ")


def workload_counts(jobs) -> dict[str, float]:
    vocabs = {id(j.data): len(j.data.vocab) for j in jobs}
    captions = [len(inst.caption) for j in jobs if j.variant.has_generator for inst in j.instances]
    return {
        "dataset.vocab_size": statistics.mean(vocabs.values()),
        "dataset.tokens_per_instance": statistics.mean(captions),
    }


def init_param_sum(jobs) -> float:
    return float(sum(float(a.sum()) for j in jobs for a in j.init_state.values()))


def decode_counts(phases: Phases) -> dict[str, float]:
    """Beam statistics over every evaluated image (the first decode of each chunk)."""
    rows = [row for runs in phases.decodes.values() for row in runs[0]]
    return {
        "inference.rounds_per_image": statistics.mean(r[0] for r in rows) if rows else 0.0,
        "inference.length_cap_share": sum(r[1] for r in rows) / sum(r[2] for r in rows)
        if rows else 0.0,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD's commit; 'unknown' outside a git checkout."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                              capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment(args, threads: int, root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "commit": git_commit(root),
    }


def run(args, threads: int, started: float, root: Path) -> int:
    import_s = perf_counter() - started
    src = (root / "src").resolve()
    if src not in Path(reviewnet.__file__).resolve().parents:
        print(f"imported reviewnet from {reviewnet.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = root / ".perfbench"
    work_dir = out_dir / f"work-{os.getpid()}"
    tracer = trace.Tracer() if args.trace else trace.NullTracer()
    ledger = checks.Ledger()
    try:
        result = _measure(args, workload, root, work_dir, tracer, ledger, import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if args.trace:
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")

    env = environment(args, threads, root)
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"why {args.workload}: {workload.why}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    for kind in sorted(ledger.attempted):
        print(f"  operations {kind:<28} attempted {ledger.attempted[kind]:>7} "
              f"failed {ledger.failed[kind]}")
    print(f"  meteor-lite pairs checked against the oracle: "
          f"{ledger.meteor_checked} of {ledger.meteor_pairs}")
    for message in ledger.messages:
        print(f"  FAILED {message}")
    print("counts " + json.dumps(result["counts"], sort_keys=True))
    if "unscaled" in result:
        print("unscaled " + json.dumps(result["unscaled"], sort_keys=True))
    print("samples " + json.dumps(result["samples"]))
    attempted = sum(ledger.attempted.values())
    failed = sum(ledger.failed.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


def _measure(args, workload, root: Path, work_dir: Path, tracer, ledger: checks.Ledger,
             import_s: float) -> dict:
    setups = SetUps(args, workload, root, work_dir, tracer, import_s)
    jobs = setups.run(0)
    counts = setups.signatures[0][0]
    capture = Capture()
    if args.trace:
        return _measure_traced(args, workload, jobs, tracer, ledger, capture, counts, setups)

    phases = Phases(jobs, workload.eval_images, ledger, tracer, capture)
    ref = reference.Reference(workload.width, workload.reference_ms)
    # every variant and every unit at least once, so that each rate covers all
    # of them and the decode counts cover the whole evaluated split
    run_interleaved(phases.samplers(capture.replacements()), args.seconds,
                    {"train": len(jobs), "eval": len(phases.units)}, setups.later(), ref.run)
    setups.check(ledger)
    phases.check_decodes_repeat()
    counts.update(decode_counts(phases))
    samples = phases.samples()
    samples["import_s"], samples["setup_s"] = setups.imports, setups.times
    samples["reference"] = ref.seconds
    setup_s = statistics.median(setups.imports) + statistics.median(setups.times)
    # measured, then scaled to the nominal speed of the reference kernel
    unscaled = {"train_inst_per_s": phases.train_rate(), "eval_img_per_s": phases.eval_rate(),
                "setup_s": setup_s, "slowdown": ref.slowdown()}
    metrics = {
        "train_inst_per_s": (phases.train_rate() * ref.scale(), "instances/s"),
        "eval_img_per_s": (phases.eval_rate() * ref.scale(), "images/s"),
        "setup_s": (setup_s / ref.scale(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {"samples": samples, "counts": counts, "unscaled": unscaled,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _measure_traced(args, workload, jobs, tracer: trace.Tracer, ledger: checks.Ledger,
                    capture: Capture, counts: dict, setups: SetUps) -> dict:
    timings = probes.layer_timings(jobs, args.seed)
    # traced samples alternate with the same samples untraced, for the tracing overhead
    traced = Phases(jobs, workload.eval_images, ledger, tracer, capture)
    plain = Phases(jobs, workload.eval_images, ledger, trace.NullTracer(), capture)
    samplers = traced.samplers(capture.replacements() + trace.span_targets(tracer))
    samplers.update({f"ref_{kind}": sample
                     for kind, sample in plain.samplers(capture.replacements()).items()})
    # every variant and unit, and the first unit twice, to check the beam call counts repeat
    run_interleaved(samplers, args.seconds,
                    {"train": len(jobs), "eval": len(traced.units) + 1,
                     "ref_train": len(jobs), "ref_eval": len(plain.units)}, setups.later())
    setups.check(ledger)
    traced.check_decodes_repeat()
    counts.update(decode_counts(traced))
    if decode_counts(plain) != decode_counts(traced):
        ledger.record("reproducibility", "decode counts differ between traced and untraced runs")
    counts.update(beam_call_counts(jobs, tracer.spans, ledger))
    counts["tensor.nodes_per_instance"], counts["tensor.grad_mb_per_instance"] = setups.tape[0]

    timings.update(trace.span_timings(tracer.spans))
    metrics = {}
    for name, unit in trace.TIMINGS:
        p50, tail, n = trace.summarize(timings.get(name, []))
        metrics[f"{name}.p50"] = {"value": p50, "unit": unit}
        metrics[f"{name}.tail"] = {"value": tail, "unit": unit}
        metrics[f"{name}.n"] = {"value": n, "unit": "count"}
    scalars = dict(counts)
    scalars["trainer.final_train_loss"] = statistics.mean(traced.final_losses.values())
    scalars["metrics.meteor_oracle_pairs"] = ledger.meteor_checked
    scalars["trace.train_overhead_pct"] = 100 * (plain.train_rate() / traced.train_rate() - 1)
    scalars["trace.eval_overhead_pct"] = 100 * (plain.eval_rate() / traced.eval_rate() - 1)
    for name, unit, _ in trace.SCALARS:
        metrics[name] = {"value": scalars[name], "unit": unit}
    samples = {"traced": traced.samples(), "untraced": plain.samples()}
    return {"samples": samples, "metrics": metrics, "counts": counts}


def beam_call_counts(jobs, spans, ledger: checks.Ledger) -> dict[str, float]:
    """Candidates (log_probs calls x vocabulary size) per image and advance calls
    per candidate, over the first traced decode of each chunk; later decodes of
    the same chunk must make the same calls."""
    vocab_of = {job.variant.value: len(job.data.vocab) for job in jobs}
    per_chunk = defaultdict(list)
    for run_id, beams in trace.decode_calls(spans).items():
        _, variant, chunk = run_id.split(":")
        per_chunk[variant, chunk].append(beams)
    for (variant, chunk), decodes in per_chunk.items():
        same = all(d == decodes[0] for d in decodes)
        ledger.record("reproducibility",
                      None if same else f"{variant}: beam calls of chunk {chunk} differ")
    first = [(variant, decodes[0]) for (variant, _), decodes in per_chunk.items()]
    images = sum(len(beams) for _, beams in first)
    candidates = sum(lp * vocab_of[v] for v, beams in first for lp, _ in beams)
    kept = sum(adv for _, beams in first for _, adv in beams)
    return {"inference.candidates_per_image": candidates / images if images else 0.0,
            "inference.kept_per_candidate": kept / candidates if candidates else 0.0}
