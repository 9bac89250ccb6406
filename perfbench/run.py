"""Conformity-checking benchmark: time to verdict, and time per layer when traced.

Run from the repository root:

    python3 perfbench/run.py --workload golomb-detect --seed 1 --seconds 10 --trace 0

Each run is one process with one client: operations run one at a time
through the library API with jobs=1, in whole rounds, until --seconds have
passed.  The package is imported from src/ of the checkout.  Every output is
checked by perfbench/checks.py, which shares no code with the package.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are end to end (setup_s, verdict_s, verdict_cpu_s,
peak_rss_mb); with --trace 1 they are per layer, from one traced round after
the untraced ones.  Times are reference seconds (see refclock.py); raw wall
and CPU seconds, per operation, go to perfbench/results/ with the spans.
All inputs are bundled corpus files; --seed is recorded but changes nothing.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
from refclock import RefClock
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = SRC / "cpconftest" / "corpus"
RESULTS = HERE / "results"
SETUPS = 30  # set-ups per run; setup_s is their median

ORACLE = "golomb/oracle.cpm"
P_FIXED = "golomb/p_fixed.cpm"
CARSEQ = "carseq/oracle.cpm"
SLOTS = "carseq/slots10.data"


def named(raw):
    """{"x": [0, 1]} -> {"x[1]": 0, "x[2]": 1}; arrays in the corpus start at 1."""
    out = {}
    for k, v in raw.items():
        if isinstance(v, list):
            out.update((f"{k}[{i}]", x) for i, x in enumerate(v, 1))
        else:
            out[k] = v
    return out


class Ctx:
    """The imported package, the parsed inputs and the car-sequencing checker."""

    def __init__(self, pkg, parsed):
        self.pkg = pkg
        self.parsed = parsed
        self.carseq = checks.CarSeqInstance(CORPUS / SLOTS)

    def violations(self, family, witness, m):
        if family == "golomb":
            return checks.ruler_violations(checks.ruler_marks(witness, m))
        return self.carseq.violations(witness)


class Check:
    """check(oracle, program) under one relation; expect = (kind, reason)."""

    def __init__(self, name, oracle, program, expect, relation="one", m=None, bounds=None):
        self.name = name
        self.oracle, self.program = oracle, program
        self.family = oracle.split("/")[0]
        self.data = SLOTS if self.family == "carseq" else None
        self.files = [oracle, program] + ([self.data] if self.data else [])
        self.expect = expect
        self.relation, self.m, self.bounds = relation, m, bounds
        self.overrides = {"m": m} if m is not None else None

    def run(self, ctx):
        pkg, parsed = ctx.pkg, ctx.parsed
        opts = pkg.CheckOptions(relation=self.relation, bounds=self.bounds, jobs=1)
        return pkg.check(
            parsed[self.oracle], parsed[self.program], parsed.get(self.data), self.overrides, opts
        )

    def verify(self, ctx, v):
        got = (v.kind, v.reason)
        if got != self.expect:
            return [f"verdict {got}, expected {self.expect}"]
        if v.witness is None:
            return []
        errors = []
        oracle_gm, cput_gm = ctx.pkg.ground_pair(
            ctx.parsed[self.oracle], ctx.parsed[self.program], ctx.parsed.get(self.data),
            self.overrides,
        )
        rep = ctx.pkg.validate_witness(
            oracle_gm, cput_gm, ctx.pkg.expand_witness(cput_gm.space, v.witness)
        )
        if not rep.genuine or rep.direction != v.direction:
            errors.append(f"witness not revalidated: {rep.to_dict()}")
        bad = ctx.violations(self.family, v.witness, self.m)
        if v.direction == "extra-solution" and v.violated not in bad:
            errors.append(f"{v.violated} reported violated, the checker finds {sorted(bad)}")
        if v.direction == "missing-solution" and bad:
            errors.append(f"missing solution breaks the reference: {sorted(bad)}")
        if self.bounds and not self.bounds[0] <= v.witness[f"x[{self.m}]"] <= self.bounds[1]:
            errors.append(f"witness objective outside {self.bounds}")
        return errors


class Validate:
    """validate_witness on a stored corpus witness, grounding included."""

    def __init__(self, name, oracle, program, witness, direction, m=None):
        self.name = name
        self.oracle, self.program, self.witness = oracle, program, witness
        self.family = oracle.split("/")[0]
        self.data = SLOTS if self.family == "carseq" else None
        self.files = [oracle, program, witness] + ([self.data] if self.data else [])
        self.direction, self.m = direction, m
        self.overrides = {"m": m} if m is not None else None

    def run(self, ctx):
        pkg, parsed = ctx.pkg, ctx.parsed
        oracle_gm, cput_gm = pkg.ground_pair(
            parsed[self.oracle], parsed[self.program], parsed.get(self.data), self.overrides
        )
        return pkg.validate_witness(
            oracle_gm, cput_gm, pkg.expand_witness(cput_gm.space, parsed[self.witness])
        )

    def verify(self, ctx, rep):
        if not rep.genuine or rep.direction != self.direction:
            return [f"stored witness not genuine {self.direction}: {rep.to_dict()}"]
        bad = ctx.violations(self.family, named(ctx.parsed[self.witness]), self.m)
        if set(rep.reference_violations) != bad:
            return [f"reference violations {rep.reference_violations}, checker finds {sorted(bad)}"]
        return []


class Optimize:
    """Ground the Golomb reference and prove its optimum by branch and bound."""

    def __init__(self, name, m):
        self.name, self.m = name, m
        self.files = [ORACLE]

    def run(self, ctx):
        pkg = ctx.pkg
        model = ctx.parsed[ORACLE]
        gm = pkg.ground(model, pkg.build_instance(model, None, {"m": self.m}))
        out = pkg.solve_optimal(
            dict(gm.domains), [c.tree for c in gm.constraints], gm.objective, pkg.SearchConfig()
        )
        return gm, out

    def verify(self, ctx, result):
        gm, out = result
        want = checks.RULER_OPT[self.m]
        if out.status != "SAT" or not out.proven or out.value != want:
            return [f"optimum {out.status} {out.value} proven={out.proven}, published {want}"]
        w = {gm.space.pretty(v): x for v, x in out.assignment.items()}
        marks = checks.ruler_marks(w, self.m)
        if checks.ruler_violations(marks) or marks[-1] != want:
            return [f"optimal marks {marks} are no ruler of length {want}"]
        return []


def golomb_detect(name, m=10, **kw):
    return Check(f"{name}-m{m}", ORACLE, f"golomb/{name}.cpm", ("NonConf", "extra-solution"), m=m, **kw)


WORKLOADS = {
    "golomb-detect": [
        golomb_detect("cput1"),
        golomb_detect("cput2"),
        golomb_detect("cput3"),
        golomb_detect("p"),
        golomb_detect("cput1", m=8, relation="bounds", bounds=(50, 100)),
        Validate("validate-golomb_m8_extra", ORACLE, "golomb/p.cpm",
                 "witnesses/golomb_m8_extra.json", "extra-solution", m=8),
    ],
    "golomb-certify": [
        # Conf is the documented answer for the repaired program.
        Check("p_fixed-one-m6", ORACLE, P_FIXED, ("Conf", None), m=6),
        # 17 is the published optimum for 6 marks (checks.RULER_OPT).
        Check("p_fixed-best-m6", ORACLE, P_FIXED, ("Conf", None), relation="best", m=6,
              bounds=(checks.RULER_OPT[6],) * 2),
        Check("p_fixed-all-m5", ORACLE, P_FIXED, ("NonConf", "missing-solution"),
              relation="all", m=5),
    ],
    "carseq": [
        Check("cput1-one", CARSEQ, "carseq/cput1.cpm", ("NonConf", "extra-solution")),
        Check("cput2-one", CARSEQ, "carseq/cput2.cpm", ("NonConf", "extra-solution")),
        Check("cput3-one", CARSEQ, "carseq/cput3.cpm", ("NonConf", "extra-solution")),
        # cput4 asks for cars + 1 of every class in nbSlots slots (checks.self_test).
        Check("cput4-one", CARSEQ, "carseq/cput4.cpm", ("NonConf", "unsatisfiable-program")),
        Check("reference-all-reflexive", CARSEQ, CARSEQ, ("Conf", None), relation="all"),
        Validate("validate-carseq_10_missing", CARSEQ, "carseq/cput4.cpm",
                 "witnesses/carseq_10_missing.json", "missing-solution"),
    ],
    "golomb-optimize": [Optimize("optimal-m7", 7)],
}


# ---------------------------------------------------------------------------


def files_of(ops):
    return list(dict.fromkeys(f for op in ops for f in op.files))


def load(pkg, files):
    parsed = {}
    for f in files:
        path = CORPUS / f
        if f.endswith(".cpm"):
            parsed[f] = pkg.parse_model_file(path)
        elif f.endswith(".data"):
            parsed[f] = pkg.parse_data_file(path)
        else:
            parsed[f] = json.loads(path.read_text(encoding="utf-8"))
    return parsed


def set_up(files):
    """Import cpconftest afresh and parse every input; returns (span, pkg, parsed)."""
    t0 = time.perf_counter()
    for name in [k for k in sys.modules if k == "cpconftest" or k.startswith("cpconftest.")]:
        del sys.modules[name]
    pkg = importlib.import_module("cpconftest")
    parsed = load(pkg, files)
    return (t0, time.perf_counter()), pkg, parsed


def run_round(ops, ctx, tracer=None):
    """Run every operation once; returns per-operation records."""
    records = []
    for i, op in enumerate(ops):
        gc.collect()
        if tracer is not None:
            tracer.op = i
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out, errors = op.run(ctx), []
        except Exception:
            out, errors = None, [traceback.format_exc()]
        t1, cpu = time.perf_counter(), time.process_time() - c0
        if tracer is not None:
            tracer.op = None
        if not errors:
            try:
                errors = op.verify(ctx, out)
            except Exception:
                errors = [traceback.format_exc()]
        for e in errors:
            print(f"FAILED {op.name}: {e}", file=sys.stderr)
        records.append({"op": op.name, "span": (t0, t1), "wall_s": t1 - t0, "cpu_s": cpu,
                        "out": out, "errors": errors})
    return records


def add_ref_times(rounds, clock):
    """Reference seconds of each operation; CPU time scaled by the same factor."""
    for r in (r for rd in rounds for r in rd):
        r["ref_s"] = clock.seconds(*r.pop("span"))
        r["ref_cpu_s"] = r["cpu_s"] * r["ref_s"] / r["wall_s"]


def round_median(rounds, key):
    return statistics.median(sum(r[key] for r in rd) for rd in rounds)


def describe(out):
    if hasattr(out, "kind"):
        return {"verdict": out.kind, "reason": out.reason, "violated": out.violated,
                "stats": out.stats}
    if hasattr(out, "genuine"):
        return {"genuine": out.genuine, "direction": out.direction}
    if isinstance(out, tuple):
        return {"status": out[1].status, "value": out[1].value, "stats": out[1].stats.as_dict()}
    return None


def conformity_counts(records):
    """Counters every Verdict carries, summed over the check operations.  The
    precheck time is scaled to reference seconds with its operation's factor."""
    precheck = subproblems = skipped = false_alarms = 0
    for r in records:
        v = r["out"]
        if not hasattr(v, "subreports"):
            continue
        raw = v.stats["elapsed"] - sum(s.elapsed for s in v.subreports)
        precheck += raw * r["ref_s"] / r["wall_s"]
        subproblems += len(v.subreports)
        skipped += sum(s.status == "skipped" for s in v.subreports)
        false_alarms += sum(s.false_alarms for s in v.subreports)
    return {
        "conformity.precheck_s": precheck,
        "conformity.subproblems": subproblems,
        "conformity.skipped": skipped,
        "conformity.false_alarms": false_alarms,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    clock = RefClock()
    clock.start()
    try:
        return measure(args, clock)
    finally:
        clock.stop()


def measure(args, clock):
    ops = WORKLOADS[args.workload]
    files = files_of(ops)
    try:
        span, pkg, parsed = set_up(files)
    except (ImportError, OSError) as e:
        print(f"error: cannot load cpconftest and its corpus from {SRC}: {e}", file=sys.stderr)
        return 2
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        print(f"error: cpconftest was imported from {pkg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ctx = Ctx(pkg, parsed)
    selftest_errors = checks.self_test(CORPUS)
    for e in selftest_errors:
        print(f"SELF-TEST FAILED: {e}", file=sys.stderr)

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(ops, ctx))
    # Read now, when the process holds one import and the rounds' work, as a
    # user's process does; every further set-up leaves an old import behind.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [span] + [set_up(files)[0] for _ in range(SETUPS - 1)]
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_ref = [clock.seconds(*span) for span in setups]
    if args.trace:
        tracer = Tracer()
        tracer.install(pkg)
        tracer.op = "setup"
        ctx.parsed = load(pkg, files)
        tracer.op = None
        traced = run_round(ops, ctx, tracer)
        tracer.uninstall()
        add_ref_times(rounds + [traced], clock)
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
        parse_s, parse_files = tracer.outer(("parser.",), clock.seconds)
        metrics = {"parser.parse_s": parse_s, "parser.files": parse_files}
        metrics.update(tracer.layer_metrics(clock.seconds))
        metrics.update(conformity_counts(traced))
        metrics["trace.overhead_s"] = tracer.overhead(clock.seconds)
        metrics["trace.round_delta_s"] = (
            round_median([traced], "ref_s") - round_median(rounds, "ref_s")
        )
        metrics["trace.spans"] = len(tracer.spans)
        rounds.append(traced)
        declared = "per_layer"
    else:
        add_ref_times(rounds, clock)
        metrics = {
            "setup_s": statistics.median(setup_ref),
            "verdict_s": round_median(rounds, "ref_s"),
            "verdict_cpu_s": round_median(rounds, "ref_cpu_s"),
            "peak_rss_mb": peak_rss_mb,
        }
        declared = "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[declared]}
    if units.keys() != metrics.keys():
        print(f"error: metrics {sorted(metrics.keys() ^ units.keys())} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2

    records = [r for rd in rounds for r in rd]
    failed = sum(bool(r["errors"]) for r in records)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "setup_wall_s": [b - a for a, b in setups],
        "setup_ref_s": setup_ref,
        "rounds": [[{k: (describe(v) if k == "out" else v) for k, v in r.items()} for r in rd]
                   for rd in rounds],
        "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(details, indent=1, default=str))
    print(json.dumps({
        "correct": failed == 0 and not selftest_errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
