"""Traced run: each layer's public calls in-process, timed by spans.

A span records name, start, end, parent span and run id. Spans stay in
memory and are written to `perfbench/out/` when the run ends; the
per-layer metrics are medians of span durations at full size. Each
iteration runs the pipeline traced and untraced at full size (their
difference is `bench.trace_overhead_s`) and three times traced at a
quarter size, from which the `*_exp` scaling exponents are fitted. On
`chain` a further run at N = 100 completes the N = 100/400/1600 table.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import statistics
import subprocess
import sys
import time

import gen
from common import BENCH_DIR, CHECKS, SRC, known_failure, tm_env

sys.path.insert(0, str(SRC))
from tmkit import dot, dsl, events, model, sim, uml  # noqa: E402

#: spans whose median duration at full size is the metric `<span>_s`
TIMED = ("dsl.parse", "dsl.print_text", "model.validate_static",
         "model.canonicalize", "events.check_behavior", "sim.init_world",
         "sim.simulate", "sim.trace_to_text", "sim.trace_to_json",
         "dot.emit_static", "dot.emit_behavior", "uml.tm_to_class",
         "uml.write_class_json", "uml.read_class_json", "uml.class_to_tm")
FITTED = ("dsl.parse", "events.check_behavior", "sim.simulate")
IMPORT_SAMPLES = 5
#: quarter-size runs are short, so each iteration takes several
QUARTER_REPS = 3


class Tracer:
    """In-memory spans; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.run_id = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        record = {"id": len(self.spans), "name": name, "run": self.run_id,
                  "parent": self._open[-1]["id"] if self._open else None,
                  "start_ns": time.perf_counter_ns(), "end_ns": None}
        self.spans.append(record)
        self._open.append(record)
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()


def pipeline(wl, tr: Tracer, checked: list) -> dict:
    """Call every layer the `tm` commands use, check each output, and
    return the counts read from the results. `checked` receives one
    (metric, ok, known failure) triple per output."""
    def verify(metric, code, out):
        checked.append((metric, CHECKS[metric](wl, code, out), False))

    with tr.span("dsl.parse"):
        static, evs, behavior = dsl.parse(dsl.SourceUnit(wl.source))
    with tr.span("model.validate_static"):
        report = model.validate_static(static)
    check_failed = 0
    with tr.span("events.check_behavior"):
        try:
            report.diagnostics += events.check_behavior(
                behavior, static).diagnostics
        except RecursionError as exc:
            # the CLI reports an uncaught exception as exit 3
            check_failed = 1
            checked.append(("check_s", False, known_failure(
                wl.name, "check_s", 3, f"internal error: {exc}")))
    if not check_failed:
        verify("check_s", 0 if report.ok else 1, "".join(
            f"{d.severity}\t{d.location}\t{d.message}\n"
            for d in report.diagnostics))
    with tr.span("model.canonicalize"):
        model.canonicalize(static)
    with tr.span("dsl.print_text"):
        verify("fmt_s", 0, dsl.print_text(static, evs, behavior))

    with tr.span("sim.init_world"):
        world = sim.init_world(static, wl.fills)
    with tr.span("sim.simulate"):
        trace = sim.simulate(static, behavior, world)
    with tr.span("sim.trace_to_text"):
        text = sim.trace_to_text(trace)
    verify("simulate_s", 0 if trace.outcome == "Completed" else 1, text)
    with tr.span("sim.trace_to_json"):
        as_json = sim.trace_to_json(trace)
    checked.append(("simulate_s", len(json.loads(as_json)) ==
                    len(trace.entries), False))

    with tr.span("dot.emit_static"):
        verify("dot_s", 0, dot.emit_dot(
            static, dot.RenderOptions("static", True, "LR")))
    with tr.span("dot.emit_behavior"):
        dot.emit_dot(behavior, dot.RenderOptions("behavior"))

    with tr.span("uml.tm_to_class"):
        classes = uml.tm_to_class(static)
    with tr.span("uml.write_class_json"):
        verify("to_class_s", 0, uml.write_class_json(classes))
    with tr.span("uml.read_class_json"):
        classes = uml.read_class_json(wl.class_json)
    with tr.span("uml.class_to_tm"):
        scaffold = uml.class_to_tm(classes)
    with tr.span("dsl.print_text[to-tm]"):
        verify("to_tm_s", 0, dsl.print_text(scaffold))

    counts = {
        "dsl.source_chars": len(wl.source),
        "model.actions": len(static.actions),
        "model.flows": len(static.flows),
        "events.check_behavior_failed": check_failed,
        "events.events": len(behavior.events),
        "events.edges": len(behavior.edges),
        "sim.steps": len(trace.entries),
        "sim.tokens_minted": sum(a.endswith(".create")
                                 for e in trace.entries
                                 for a in e.actions_fired),
    }
    checked.append(("counts", all(counts[k] == v
                                  for k, v in wl.counts.items()), False))
    return counts


def import_seconds() -> float:
    """Median time to `import tmkit.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import tmkit.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", code], cwd=SRC,
                             env=tm_env(), capture_output=True, text=True,
                             check=True).stdout
        samples.append(float(out))
    return statistics.median(samples[1:])  # the first one compiles


def run(workload, seed, seconds) -> dict:
    full = gen.build(workload, seed)
    quarter = gen.build(workload, seed, gen.GENERATORS[workload][2])
    sweep = gen.build(workload, seed, 100) if workload == "chain" else None
    tracer = Tracer(True)
    untraced = Tracer(False)
    checked, counts = [], {}
    traced_total, untraced_total = [], []
    durations = {}  # (size, span name) -> [seconds]

    def timed(wl, tr, label):
        tr.run_id = label
        gc.collect()  # garbage of the previous run is not this run's cost
        start = time.perf_counter()
        first = len(tracer.spans)
        with tr.span("bench.pipeline"):
            counts[wl.size] = pipeline(wl, tr, checked)
        elapsed = time.perf_counter() - start
        for span in tracer.spans[first:]:
            durations.setdefault((wl.size, span["name"]), []).append(
                (span["end_ns"] - span["start_ns"]) / 1e9)
        return elapsed

    cli_import = import_seconds()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        iteration_start = time.perf_counter()
        order = (True, False) if i % 2 == 0 else (False, True)
        for enabled in order:
            if enabled:
                traced_total.append(timed(full, tracer, f"full-{i}"))
            else:
                untraced_total.append(timed(full, untraced, None))
        for rep in range(QUARTER_REPS):
            timed(quarter, tracer, f"quarter-{i}.{rep}")
        if sweep is not None:
            timed(sweep, tracer, f"sweep-{i}")
        i += 1
        now = time.perf_counter()
        if deadline - now < now - iteration_start:
            break

    def med(size, span):
        return statistics.median(durations[(size, span)])

    metrics = {f"{span}_s": {"value": med(full.size, span), "unit": "s"}
               for span in TIMED}
    for span in FITTED:
        ratio = med(full.size, span) / med(quarter.size, span)
        metrics[f"{span}_exp"] = {
            "value": math.log(ratio) / math.log(full.size / quarter.size),
            "unit": "1"}
    for key, value in counts[full.size].items():
        unit = "chars" if key == "dsl.source_chars" else "count"
        metrics[key] = {"value": value, "unit": unit}
    metrics["sim.us_per_step"] = {
        "value": metrics["sim.simulate_s"]["value"] * 1e6
        / max(1, counts[full.size]["sim.steps"]), "unit": "us"}
    metrics["cli.import_s"] = {"value": cli_import, "unit": "s"}
    metrics["bench.trace_overhead_s"] = {
        "value": statistics.median(traced_total)
        - statistics.median(untraced_total), "unit": "s"}

    failed = [(metric, known) for metric, ok, known in checked if not ok]
    unexpected = [metric for metric, known in failed if not known]
    table = []
    for wl in (sweep, quarter, full):
        if wl is not None:
            table.append({"n": wl.size, "chars": len(wl.source), **{
                span: med(wl.size, span) for span in
                ("dsl.parse", "sim.simulate", "dsl.print_text")}})
    print(f"workload {workload} seed {seed}: {i} iterations, "
          f"{len(checked)} checks, {len(failed)} failed, "
          f"{len(unexpected)} unexpected")
    print("  n       chars      parse_s    simulate_s  print_text_s")
    for row in table:
        print(f"  {row['n']:<7} {row['chars']:<10} "
              f"{row['dsl.parse']:<10.4f} {row['sim.simulate']:<11.4f} "
              f"{row['dsl.print_text']:.4f}")
    for key, metric in metrics.items():
        print(f"  {key:<28} {metric['value']:.6g} {metric['unit']}")
    for failure in unexpected[:10]:
        print(f"  UNEXPECTED failure of the {failure} output")

    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / f"spans-{workload}-{seed}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "table": table,
         "metrics": metrics, "spans": tracer.spans}) + "\n")
    return {"correct": not unexpected, "attempted": len(checked),
            "failed": len(failed), "metrics": metrics}
