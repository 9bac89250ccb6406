"""Command line front end.

Subcommands:

  check      decide a conformity relation between a program and a reference
             model (the default when flags are given without a subcommand)
  validate   confirm that a witness file really proves non-conformity
  bench      run the bundled (or a user supplied) benchmark manifest

Exit codes for check: 0 Conf, 1 NonConf, 2 Unknown, 3 usage or input error.
For validate: 0 genuine, 1 not genuine, 3 error.  For bench: 0 when every
run gave the verdict, reason and violated label its manifest row expects
(rows without "expect" always pass), 1 when some run did not, each such row
named on stderr, 3 on manifest or input errors.  Every command exits 4,
with the traceback on stderr, on an internal error: never a verdict.
"""

import argparse
import json
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

from .conformity import (
    CheckOptions,
    ValidationReport,
    check,
    expand_witness,
    ground_pair,
    validate_witness,
)
from .corpus import corpus_path, load_manifest
from .errors import CpconfError
from .grounding import build_instance, ground
from .parser import parse_data_file, parse_model_file
from .solver import SearchConfig, solve_optimal

SCHEMA = 1


def _emit_json(obj):
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _parse_params(pairs):
    out = {}
    for item in pairs or ():
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise CpconfError(f"--param wants name=value, got {item!r}")
        try:
            out[name] = int(value)
        except ValueError:
            raise CpconfError(f"--param {name}: {value!r} is not an integer") from None
    return out or None


def _parse_bounds(text):
    if text is None:
        return None
    lo, sep, hi = text.partition(":")
    if not sep:
        raise CpconfError(f"--bounds wants lo:hi, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise CpconfError(f"--bounds {text!r}: bounds must be integers") from None


def _options(args):
    return CheckOptions(
        relation=getattr(args, "relation", "one"),
        time_limit=getattr(args, "timeout", None),
        node_limit=getattr(args, "nodes", None),
        bounds=_parse_bounds(getattr(args, "bounds", None)),
    )


def _load_inputs(args):
    oracle = parse_model_file(args.oracle)
    program = parse_model_file(args.cput)
    data = parse_data_file(args.data) if getattr(args, "data", None) else None
    overrides = _parse_params(getattr(args, "param", None))
    return oracle, program, data, overrides


def _print_verdict(v):
    print(f"verdict: {v.kind}")
    print(f"relation: {v.relation}")
    if v.reason:
        print(f"reason: {v.reason}")
    if v.violated:
        print(f"violated: {v.violated}")
    if v.witness:
        pairs = " ".join(f"{name}={val}" for name, val in v.witness.items())
        print(f"witness: {pairs}")
    for note in v.notes:
        print(f"note: {note}")
    s = v.stats
    print(
        "stats: solves={solves} nodes={nodes} failures={failures} "
        "propagations={propagations} elapsed={elapsed}s".format(**s)
    )


def _cmd_check(args):
    oracle, program, data, overrides = _load_inputs(args)
    opts = _options(args)
    verdict = check(oracle, program, data=data, overrides=overrides, opts=opts)
    if args.json:
        payload = {"schema": SCHEMA, "command": "check"}
        payload.update(verdict.to_dict())
        _emit_json(payload)
    else:
        _print_verdict(verdict)
    return {"Conf": 0, "NonConf": 1, "Unknown": 2}[verdict.kind]


def _load_witness_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if isinstance(obj, dict) and isinstance(obj.get("witness"), dict):
        obj = obj["witness"]
    if not isinstance(obj, dict):
        raise CpconfError("witness file must hold a JSON object of name/value pairs")
    return obj


def _cmd_validate(args):
    oracle, program, data, overrides = _load_inputs(args)
    raw = _load_witness_file(args.witness)
    opts = _options(args)
    deadline = None if opts.time_limit is None else time.monotonic() + opts.time_limit
    try:  # the budget counts from here, grounding included
        oracle_gm, cput_gm = ground_pair(oracle, program, data, overrides, deadline)
    except TimeoutError:
        report = ValidationReport(False, notes=("budget exhausted while grounding",))
    else:
        if deadline is not None:
            opts = replace(opts, time_limit=max(0.0, deadline - time.monotonic()))
        report = validate_witness(oracle_gm, cput_gm, expand_witness(cput_gm.space, raw), opts)
    if args.json:
        payload = {"schema": SCHEMA, "command": "validate"}
        payload.update(report.to_dict())
        _emit_json(payload)
    else:
        print(f"genuine: {'yes' if report.genuine else 'no'}")
        if report.direction:
            print(f"direction: {report.direction}")
        print(f"program satisfied: {report.program_satisfied}")
        print(f"reference satisfied: {report.reference_satisfied}")
        if report.program_violations:
            print("program violations: " + ", ".join(report.program_violations))
        if report.reference_violations:
            print("reference violations: " + ", ".join(report.reference_violations))
        for note in report.notes:
            print(f"note: {note}")
    return 0 if report.genuine else 1


def _manifest_and_root(args):
    if args.manifest:
        mpath = Path(args.manifest)
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
        root = mpath.parent
        return manifest, lambda rel: root / rel
    manifest = load_manifest()
    return manifest, lambda rel: corpus_path(*rel.split("/"))


def _cmd_bench(args):
    manifest, rpath = _manifest_and_root(args)
    rows = []
    unexpected = []
    for run in manifest.get("runs", ()):
        oracle = parse_model_file(rpath(run["oracle"]))
        program = parse_model_file(rpath(run["program"]))
        data = parse_data_file(rpath(run["data"])) if run.get("data") else None
        overrides = run.get("params") or None
        bounds = tuple(run["bounds"]) if run.get("bounds") else None
        opts = CheckOptions(
            relation=run.get("relation", "one"),
            time_limit=run.get("timeout") if args.timeout is None else args.timeout,
            bounds=bounds,
        )
        verdict = check(oracle, program, data=data, overrides=overrides, opts=opts)
        got = {"verdict": verdict.kind, "reason": verdict.reason, "violated": verdict.violated}
        if "expect" in run and run["expect"] != got:
            unexpected.append(f"{run['name']}: expected {run['expect']}, got {got}")
        rows.append(
            {
                "name": run["name"],
                "relation": opts.relation,
                "verdict": verdict.kind,
                "reason": verdict.reason,
                "violated": verdict.violated,
                "elapsed": verdict.stats["elapsed"],
                "nodes": verdict.stats["nodes"],
                "failures": verdict.stats["failures"],
                "propagations": verdict.stats["propagations"],
            }
        )
        if not args.json:
            print(
                f"{run['name']:<28} {opts.relation:<7} {verdict.kind:<8} "
                f"{(verdict.reason or ''):<26} {verdict.stats['elapsed']:>9.3f}s "
                f"{verdict.stats['nodes']:>8}"
            )
    srows = []
    scaling = manifest.get("scaling")
    if scaling:
        oracle = parse_model_file(rpath(scaling["oracle"]))
        detect = parse_model_file(rpath(scaling["detect"]))
        repaired = parse_model_file(rpath(scaling["solve"]))
        size_param = scaling.get("size_param", "m")
        budget = scaling.get("timeout") if args.timeout is None else args.timeout
        for size in scaling["sizes"]:
            overrides = {size_param: size}
            opts = CheckOptions(
                relation=scaling.get("relation", "one"), time_limit=budget
            )
            verdict = check(oracle, detect, overrides=overrides, opts=opts)
            inst = build_instance(repaired, None, overrides)
            gm = ground(repaired, inst)
            out = solve_optimal(
                gm.domains,
                [c.tree for c in gm.constraints],
                gm.objective,
                SearchConfig(deadline=None if budget is None else time.monotonic() + budget),
            )
            srows.append(
                {
                    "size": size,
                    "detect_verdict": verdict.kind,
                    "detect_elapsed": verdict.stats["elapsed"],
                    "solve_status": out.status,
                    "solve_proven": out.proven,
                    "optimum": out.value,
                    "solve_elapsed": round(out.stats.elapsed, 6),
                }
            )
            if not args.json:
                opt = "none" if out.value is None else str(out.value)
                proof = "proven" if out.proven else "unproven"
                print(
                    f"scaling {size_param}={size}: detect "
                    f"{verdict.stats['elapsed']:.3f}s ({verdict.kind})  "
                    f"solve {out.stats.elapsed:.3f}s (optimum {opt}, {proof})"
                )
    if args.json:
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "bench",
                "runs": rows,
                "scaling": srows,
            }
        )
    for line in unexpected:
        print(f"unexpected verdict: {line}", file=sys.stderr)
    return 1 if unexpected else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cpconftest",
        description="Conformity testing of constraint programs against reference models.",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p, witness=False):
        p.add_argument("--oracle", required=True, help="reference model file (.cpm)")
        p.add_argument("--cput", required=True, help="program under test (.cpm)")
        p.add_argument("--data", help="instance data file")
        p.add_argument(
            "--param",
            action="append",
            metavar="NAME=VALUE",
            help="set an integer parameter (repeatable, wins over --data)",
        )
        p.add_argument("--timeout", type=float, help="overall budget in seconds")
        p.add_argument("--json", action="store_true", help="machine readable output")

    pc = sub.add_parser("check", help="decide a conformity relation")
    common(pc)
    pc.add_argument(
        "--relation",
        choices=("one", "all", "bounds", "best"),
        default="one",
        help="which conformity relation to check",
    )
    pc.add_argument("--bounds", metavar="LO:HI", help="objective interval for bounds/best")
    pc.add_argument("--nodes", type=int, help="search node budget per solver call")
    pc.set_defaults(func=_cmd_check)

    pv = sub.add_parser("validate", help="validate a witness file")
    common(pv)
    pv.add_argument("--witness", required=True, help="witness JSON file")
    pv.set_defaults(func=_cmd_validate)

    pb = sub.add_parser("bench", help="run a benchmark manifest")
    pb.add_argument("--manifest", help="manifest file (default: bundled corpus)")
    pb.add_argument("--timeout", type=float, help="override per-run budgets")
    pb.add_argument("--json", action="store_true", help="machine readable output")
    pb.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        argv = ["check"] + argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 3
    if not getattr(args, "func", None):
        parser.print_help()
        return 3
    try:
        return args.func(args)
    except (CpconfError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except Exception:  # a bug: shown, and kept apart from every verdict's code
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
