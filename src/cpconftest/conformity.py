"""Conformity checking of a constraint program against a reference model.

Both models are grounded into one shared variable space (the program under
test claims the numbering, the reference model must reuse it), then checked
under one of four relations:

  one     the program has a solution and every solution, projected to the
          reference variables, satisfies the reference model
  all     projection equality of the two solution sets, plus nonemptiness
  bounds  like "one" but restricted to solutions whose objective value lies
          in a given interval (both models' objectives are constrained)
  best    "bounds" plus proofs that neither side can beat the lower bound

The workhorse enumerates the constraints of one side in declaration order
and asks, for each, whether the other side's solutions can violate it:
solve D and not(C_i).  D is presolved once per check, so each subproblem
simplifies only not(C_i), and a C_i that D asserts is refuted before search.
When C_i mentions variables the solving side does not have, the channeling
definitions that give them meaning are added to D, and candidate witnesses
are re-validated by the independent evaluator; false alarms are excluded
with a disequality cut over the reference variables and the search resumes.
That re-validation and validate_witness() are one judgement (_judge): the
candidate is extended through the program's channelings and evaluated on
both sides, and auxiliaries the channelings leave open are searched for.
Domain membership is itself checked as one synthetic constraint per
direction, so a point outside the other side's declared bounds counts as a
violation too.

Under one and all, the reference is first probed by root propagation, not
solved: only a refutation there stops the check, as a usage error.  The
first genuine witness decides NonConf.  A genuine extra witness is itself a
program solution, so the program's nonemptiness is solved for only when the
extra direction finds none.  If every subproblem is unsatisfiable the
verdict is Conf, a per-instance certificate.  Otherwise the budget ran out
and the verdict is Unknown (timeout).

The budget is one deadline, a time.monotonic() value fixed at the entry of
check() or validate_witness(); grounding, presolve and every solve read
that same number, and a solve that would start past it is not run.
"""

import time
from dataclasses import dataclass, field, replace

from .errors import UsageError
from .grounding import (
    AndC,
    Const,
    OrC,
    RelAtom,
    Var,
    VarSpace,
    _clock,
    build_instance,
    ctr_vars,
    gexpr_vars,
    ground,
    parse_var_name,
)
from . import solver
from .solver import SearchConfig, SolveOutcome, solve
# canonical_key is unused here; perfbench/spans.py wraps it by this name
from .transform import canonical_key, negate, poly_of  # noqa: F401


@dataclass
class CheckOptions:
    relation: str = "one"
    time_limit: float = None  # overall wall-clock budget in seconds
    node_limit: int = None  # per solver call
    bounds: tuple = None  # (lo, hi) for the bounds/best relations
    jobs: int = 1  # only 1: subproblems run one after another

    def __post_init__(self):
        if self.jobs != 1:
            raise UsageError(f"jobs must be 1, got {self.jobs!r}")


@dataclass
class SubReport:
    """Outcome and solver effort of one witness subproblem."""

    label: str
    origin: str  # "reference" | "program"
    status: str  # unsat | witness | resource_out | undecided
    nodes: int = 0
    elapsed: float = 0.0
    false_alarms: int = 0
    failures: int = 0
    propagations: int = 0
    solves: int = 0
    witness: dict = None  # variable id -> value, when status is "witness"

    def to_dict(self):
        return {
            "label": self.label,
            "origin": self.origin,
            "status": self.status,
            "solves": self.solves,
            "nodes": self.nodes,
            "failures": self.failures,
            "propagations": self.propagations,
            "elapsed": round(self.elapsed, 6),
            "false_alarms": self.false_alarms,
        }


@dataclass
class Verdict:
    kind: str  # Conf | NonConf | Unknown
    relation: str
    reason: str = None
    witness: dict = None  # variable name -> value
    violated: str = None  # label of the constraint witnessed against
    direction: str = None  # extra-solution | missing-solution
    notes: tuple = ()
    subreports: tuple = ()
    stats: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "verdict": self.kind,
            "relation": self.relation,
            "reason": self.reason,
            "witness": self.witness,
            "violated": self.violated,
            "direction": self.direction,
            "notes": list(self.notes),
            "subproblems": [s.to_dict() for s in self.subreports],
            "stats": self.stats,
        }


@dataclass
class _Effort:
    """Solver calls, nodes, failures and propagator runs, summed."""

    solves: int = 0
    nodes: int = 0
    failures: int = 0
    propagations: int = 0


def ground_pair(oracle_model, cput_model, data=None, overrides=None, deadline=None):
    """Ground both models into a shared variable space.

    Instance parameters are bound per model from the same data and overrides
    (each model may add its own computed parameters).  The program under test
    is grounded first and owns the numbering; every reference-model variable
    must then resolve to an existing cell.  TimeoutError past `deadline`.
    """
    space = VarSpace()
    cput_gm = ground(cput_model, build_instance(cput_model, data, overrides), space, deadline=deadline)
    oracle_gm = ground(
        oracle_model,
        build_instance(oracle_model, data, overrides),
        space,
        require_existing=True,
        deadline=deadline,
    )
    return oracle_gm, cput_gm


def _timed_solve(effort, deadline, domains, hard, extras, opts, **kw):
    """solve() until the deadline, not started once it has passed; the
    call's solver effort is added to `effort` (an _Effort or a SubReport)."""
    if deadline is not None and time.monotonic() >= deadline:
        return SolveOutcome("RESOURCE_OUT")
    out = solve(domains, hard, extras, SearchConfig(deadline=deadline, node_limit=opts.node_limit), **kw)
    effort.solves += 1
    effort.nodes += out.stats.nodes
    effort.failures += out.stats.failures
    effort.propagations += out.stats.propagations
    return out


def _domain_tree(gm, vids):
    """v in lo..hi for every given variable, as one conjunction."""
    atoms = []
    for v in vids:
        lo, hi = gm.domains[v]
        atoms.append(RelAtom(">=", Var(v), Const(lo)))
        atoms.append(RelAtom("<=", Var(v), Const(hi)))
    return AndC(tuple(atoms))


def _channel_closure(cput_gm, base_vids, v_need):
    """Channeling trees (in declaration order) defining the needed variables,
    plus every auxiliary variable those trees touch."""
    defs_by_vid = {}
    for cd in cput_gm.channel_defs:
        defs_by_vid.setdefault(cd.vid, []).append(cd)
    needed = set(v_need)
    labels = []
    seen = set()
    frontier = list(v_need)
    while frontier:
        v = frontier.pop()
        for cd in defs_by_vid.get(v, ()):
            if cd.label in seen:
                continue
            seen.add(cd.label)
            labels.append(cd.label)
            tree = cput_gm.constraint(cd.label).tree
            for u in ctr_vars(tree):
                if u not in needed and u not in base_vids:
                    needed.add(u)
                    frontier.append(u)
    order = {c.label: i for i, c in enumerate(cput_gm.constraints)}
    labels.sort(key=lambda lb: order[lb])
    return needed, [cput_gm.constraint(lb).tree for lb in labels]


def _widened_box(oracle_gm, cput_gm, aux_vids):
    """Domains for a missing-solution subproblem.

    Channeled auxiliaries get their interval hull widened by what their
    definitions can produce over the reference domains, so a forced value
    outside the program's declared bounds is representable (and caught by
    the synthetic domain constraint).
    """
    box = {v: oracle_gm.domains[v] for v in oracle_gm.vids}
    for v in aux_vids:
        box[v] = cput_gm.domains[v]
    defs = [cd for cd in cput_gm.channel_defs if cd.vid in aux_vids]
    for _ in range(len(defs) + 1):
        changed = False
        for cd in defs:
            rhs_vids = gexpr_vars(cd.rhs)
            if not rhs_vids <= box.keys():
                continue
            doms = {v: solver.make_dom(*box[v]) for v in rhs_vids}
            lo, hi = solver.poly_interval(poly_of(cd.rhs), doms)
            clo, chi = box[cd.vid]
            nlo, nhi = min(clo, lo), max(chi, hi)
            if (nlo, nhi) != (clo, chi):
                box[cd.vid] = (nlo, nhi)
                changed = True
        if not changed:
            break
    return box


def _judge(oracle_gm, cput_gm, assignment, deadline, effort, opts):
    """(full, open_vids, reference_ok, program_ok) of a candidate witness:
    the assignment extended through the program's channelings, the
    auxiliaries they leave open, and whether each side accepts it.  Open
    auxiliaries are decided by search, its effort added to `effort`;
    program_ok is None when that search is undecided within the budget.
    UsageError when the extension misses a reference variable."""
    full, open_vids = cput_gm.extend_assignment(assignment)
    missing = [v for v in oracle_gm.vids if v not in full]
    if missing:
        names = ", ".join(oracle_gm.space.pretty(v) for v in missing[:5])
        raise UsageError(f"witness does not cover reference variables: {names}")
    wo = {v: full[v] for v in oracle_gm.vids}
    reference_ok = oracle_gm.in_domains(wo) and oracle_gm.evaluate(wo)
    if not open_vids:
        return full, open_vids, reference_ok, cput_gm.in_domains(full) and cput_gm.evaluate(full)
    hard = [c.tree for c in cput_gm.constraints]
    hard += [RelAtom("==", Var(v), Const(x)) for v, x in full.items()]
    out = _timed_solve(effort, deadline, dict(cput_gm.domains), hard, (), opts)
    return full, open_vids, reference_ok, {"SAT": True, "UNSAT": False}.get(out.status)


def _genuine_extra(oracle_gm, cput_gm, w, deadline, effort, opts):
    """Does w prove an extra solution: program-valid but reference-invalid?
    True / False / None (undecided)."""
    _, _, reference_ok, program_ok = _judge(oracle_gm, cput_gm, w, deadline, effort, opts)
    return program_ok and not reference_ok


def _genuine_missing(oracle_gm, cput_gm, w, deadline, effort, opts):
    """Does w prove a missing solution?  True / False / None (undecided).
    Only w's reference projection is judged: the program's auxiliaries are
    recomputed from the channelings, or searched for."""
    wo = {v: w[v] for v in oracle_gm.vids}
    _, _, reference_ok, program_ok = _judge(oracle_gm, cput_gm, wo, deadline, effort, opts)
    if not reference_ok:
        return False
    return None if program_ok is None else not program_ok


def _run_subproblem(run, direction, label, tree, domains, hard, pre):
    """Solve D and not(C), cutting false alarms, until a genuine witness,
    a refutation or the end of the check's budget.  `hard` holds D's trees
    and `pre` their presolved state, or None to presolve them in solve()."""
    rep = SubReport(label, "reference" if direction == "extra" else "program", "unsat")
    t0 = time.monotonic()
    try:
        neg = negate(tree, _clock(run.deadline))
    except TimeoutError:  # the budget ran out before any solve
        rep.status, rep.elapsed = "resource_out", time.monotonic() - t0
        return rep
    oracle_gm, cput_gm, opts = run.oracle_gm, run.cput_gm, run.opts
    while True:
        out = _timed_solve(rep, run.deadline, domains, pre or hard, [neg], opts)
        if out.status == "UNSAT":
            break
        if out.status == "RESOURCE_OUT":
            rep.status = "resource_out"
            break
        w = out.assignment
        genuine = (_genuine_extra if direction == "extra" else _genuine_missing)(
            oracle_gm, cput_gm, w, run.deadline, rep, opts
        )
        if genuine is None:
            rep.status = "undecided"
            break
        if genuine:
            rep.status = "witness"
            rep.witness = w
            break
        # false alarm: exclude this projection and keep looking; the cut
        # extends D, which is presolved afresh from then on
        rep.false_alarms += 1
        hard = hard + [OrC(tuple(RelAtom("!=", Var(v), Const(w[v])) for v in oracle_gm.vids))]
        pre = None
    rep.elapsed = time.monotonic() - t0
    return rep


def _run_direction(run, direction, extra_atoms):
    """SubReports of one direction's subproblems, up to the first witness:
    one per constraint of the negated side C, plus the synthetic
    domain-membership constraint, each solved against the solving side D
    plus `extra_atoms`.  Those that pull in no channelings share one
    presolved state of D."""
    oracle_gm, cput_gm = run.oracle_gm, run.cput_gm
    d_gm, c_gm = (cput_gm, oracle_gm) if direction == "extra" else (oracle_gm, cput_gm)
    d_trees = [c.tree for c in d_gm.constraints] + list(extra_atoms)
    base_vids = set(oracle_gm.vids)
    # membership in the other side's declared bounds, as a constraint
    items = [(c.label, c.tree) for c in c_gm.constraints]
    items.append(("(domains)", _domain_tree(c_gm, c_gm.vids)))
    reports = []
    for label, tree in items:
        if direction == "extra":
            domains, chans = dict(cput_gm.domains), []
        else:
            v_need = {v for v in ctr_vars(tree) if v not in base_vids}
            aux, chans = _channel_closure(cput_gm, base_vids, v_need)
            domains = _widened_box(oracle_gm, cput_gm, aux)
        pre = None if chans else run.presolved(d_gm, extra_atoms)
        reports.append(_run_subproblem(run, direction, label, tree, domains, d_trees + chans, pre))
        if reports[-1].status == "witness":
            break
    return reports


def witness_names(space, assignment):
    return {space.pretty(v): assignment[v] for v in sorted(assignment)}


def _bounds_atoms(gm, lo, hi, what):
    if gm.objective is None:
        raise UsageError(f"the {what} model has no objective, required by this relation")
    return [
        RelAtom(">=", gm.objective, Const(lo)),
        RelAtom("<=", gm.objective, Const(hi)),
    ]


class _Run:
    """The state of one check that its phases share: the grounded pair, when
    the check started and its deadline, the solver effort outside subproblems
    and the SubReports so far."""

    def __init__(self, oracle_gm, cput_gm, opts, start, deadline):
        self.oracle_gm = oracle_gm
        self.cput_gm = cput_gm
        self.opts = opts
        self.start = start
        self.deadline = deadline
        self.effort = _Effort()
        self.reports = []
        self.states = {}  # presolved states, by side and extra atoms
        # objective-interval atoms of each side (bounds and best only)
        self.f_atoms = self.fp_atoms = []
        if opts.relation in ("bounds", "best"):
            lo, hi = opts.bounds
            self.f_atoms = _bounds_atoms(oracle_gm, lo, hi, "reference")
            self.fp_atoms = _bounds_atoms(cput_gm, lo, hi, "program")

    def presolved(self, gm, extra_atoms):
        """One side's constraints plus the given atoms, presolved once per
        check (through the solver module, where perfbench/spans.py looks)."""
        key = (gm is self.cput_gm, tuple(extra_atoms))
        if key not in self.states:
            hard = [c.tree for c in gm.constraints] + list(extra_atoms)
            self.states[key] = solver.presolve(hard, self.deadline)
        return self.states[key]

    def solve(self, gm, extra_atoms, opts=None, **kw):
        """Solve one side's constraints plus the given atoms, `kw` to solve()."""
        pre = self.presolved(gm, extra_atoms)
        return _timed_solve(self.effort, self.deadline, dict(gm.domains), pre, (), opts or self.opts, **kw)

    def verdict(self, kind, reason=None, witness=None, **kw):
        if witness is not None:
            witness = witness_names(self.cput_gm.space, witness)
        return Verdict(kind, self.opts.relation, reason=reason, witness=witness, **kw)

    def stats(self):
        parts = [self.effort, *self.reports]
        return {
            "solves": sum(p.solves for p in parts),
            "nodes": sum(p.nodes for p in parts),
            "failures": sum(p.failures for p in parts),
            "propagations": sum(p.propagations for p in parts),
            "elapsed": round(time.monotonic() - self.start, 6),
        }


# Phases: each returns the deciding Verdict or None to go on.


def _reference_probe(run):
    """Root propagation on the reference, no search: no verdict needs a
    reference solution (an extra witness is genuine on its own; Conf puts a
    program solution inside it), so only a refutation decides.  A budget
    already spent ends the check before any subproblem is planned."""
    if run.solve(run.oracle_gm, [], replace(run.opts, node_limit=0)).status == "UNSAT":
        raise UsageError("the reference model is unsatisfiable on this instance")
    if run.deadline is not None and time.monotonic() >= run.deadline:
        return run.verdict("Unknown", "timeout")
    return None


def _program_sat(run):
    # any solution will do, so no optimum is proven on the way to one
    out = run.solve(run.cput_gm, run.fp_atoms, first_fail=False)
    if out.status == "RESOURCE_OUT":
        if any(r.status == "resource_out" and r.solves for r in run.reports):
            return run.verdict("Unknown", "timeout")  # an extra subproblem spent the budget
        return run.verdict(
            "Unknown",
            "timeout",
            notes=("budget exhausted while checking the program for solutions",),
        )
    if out.status == "SAT":
        return None
    if run.fp_atoms:
        lo, hi = run.opts.bounds
        return run.verdict(
            "NonConf",
            "no-solution-within-bounds",
            notes=(
                f"the program under test has no solution with its objective in [{lo}, {hi}]",
            ),
        )
    return run.verdict(
        "NonConf",
        "unsatisfiable-program",
        notes=(
            "the program under test has no solution on this instance, "
            "so its projected solution set cannot match the reference",
        ),
    )


def _witness_search(run, direction, extra_atoms):
    reports = _run_direction(run, direction, extra_atoms)
    run.reports.extend(reports)
    if reports and reports[-1].status == "witness":
        hit = reports[-1]
        return run.verdict(
            "NonConf",
            f"{direction}-solution",
            witness=hit.witness,
            violated=hit.label,
            direction=f"{direction}-solution",
        )
    return None


def _extra(run):
    return _witness_search(run, "extra", tuple(run.f_atoms + run.fp_atoms))


def _missing(run):
    return _witness_search(run, "missing", ())


def _settle(run):
    """Unknown when the budget left some subproblem open, else go on."""
    if any(r.status in ("resource_out", "undecided") for r in run.reports):
        return run.verdict("Unknown", "timeout")
    return None


def _beats_lower_bound(run):
    """NonConf when the reference, or else the program, reaches an
    objective below the interval's lower bound."""
    lo = run.opts.bounds[0]
    sides = (
        (run.oracle_gm, "reference-beats-lower-bound",
         f"the reference model reaches an objective below {lo}, "
         "so the given interval is not its optimum"),
        (run.cput_gm, "program-beats-lower-bound",
         f"the program under test reaches an objective below {lo}"),
    )
    for gm, reason, note in sides:
        out = run.solve(gm, [RelAtom("<", gm.objective, Const(lo))])
        if out.status == "RESOURCE_OUT":
            return run.verdict("Unknown", "timeout")
        if out.status == "SAT":
            return run.verdict("NonConf", reason, witness=out.assignment, notes=(note,))
    return None


_PHASES = {
    "one": (_reference_probe, _extra, _program_sat, _settle),
    "all": (_reference_probe, _extra, _program_sat, _missing, _settle),
    "bounds": (_extra, _program_sat, _settle),
    "best": (_extra, _program_sat, _settle, _beats_lower_bound),
}


def check(oracle_model, cput_model, data=None, overrides=None, opts=None):
    """Check one conformity relation; returns a Verdict with a full report.

    The relation's phases run in order and the first verdict decides; when
    every phase passes the verdict is Conf.  The time limit counts from
    entry, grounding included: the deadline is fixed here, once.
    """
    opts = opts or CheckOptions()
    phases = _PHASES.get(opts.relation)
    if phases is None:
        raise UsageError(f"unknown relation {opts.relation!r}")
    if opts.relation in ("bounds", "best") and opts.bounds is None:  # before grounding can time out
        raise UsageError("this relation needs --bounds lo:hi")
    start = time.monotonic()
    deadline = None if opts.time_limit is None else start + opts.time_limit
    try:
        oracle_gm, cput_gm = ground_pair(oracle_model, cput_model, data, overrides, deadline)
    except TimeoutError:
        stats = {**vars(_Effort()), "elapsed": round(time.monotonic() - start, 6)}
        return Verdict("Unknown", opts.relation, "timeout", stats=stats)
    run = _Run(oracle_gm, cput_gm, opts, start, deadline)
    for phase in phases:
        verdict = phase(run)
        if verdict is not None:
            break
    else:
        verdict = run.verdict("Conf")
    verdict.subreports = tuple(run.reports)
    verdict.stats = run.stats()
    return verdict


# ---------------------------------------------------------------------------
# Witness validation


@dataclass
class ValidationReport:
    genuine: bool
    direction: str = None
    program_satisfied: bool = None  # None: undecided within budget
    reference_satisfied: bool = None
    program_violations: tuple = ()
    reference_violations: tuple = ()
    notes: tuple = ()

    def to_dict(self):
        return {
            "genuine": self.genuine,
            "direction": self.direction,
            "program_satisfied": self.program_satisfied,
            "reference_satisfied": self.reference_satisfied,
            "program_violations": list(self.program_violations),
            "reference_violations": list(self.reference_violations),
            "notes": list(self.notes),
        }


def expand_witness(space, raw):
    """Resolve a {name: value} mapping to variable ids.

    Names may be scalars ("cost"), cells ("x[3]"), or whole arrays given as
    lists ({"x": [0, 1, 3]}), matched against declaration order.
    """
    out = {}
    by_base = {}
    for vid, (base, key) in enumerate(space.keys):
        by_base.setdefault(base, []).append(vid)
    for name, value in raw.items():
        if isinstance(value, list):
            vids = by_base.get(name)
            if vids is None:
                raise UsageError(f"witness names unknown array {name!r}")
            if len(vids) != len(value):
                raise UsageError(
                    f"witness array {name!r} has {len(value)} values, "
                    f"model has {len(vids)} cells"
                )
            for vid, v in zip(vids, value):
                out[vid] = _as_int(name, v)
            continue
        base, key = parse_var_name(name)
        vid = space.lookup(base, key)
        if vid is None:
            raise UsageError(f"witness names unknown variable {name!r}")
        out[vid] = _as_int(name, value)
    return out


def _as_int(name, v):
    if isinstance(v, bool) or not isinstance(v, int):
        raise UsageError(f"witness value for {name!r} must be an integer")
    return v


def validate_witness(oracle_gm, cput_gm, assignment, opts=None):
    """Decide whether an assignment is a genuine non-conformity witness by
    the judgement check() applies to its candidates, and list the labels
    each side finds violated.  The assignment may give only part of the
    variables: the channelings derive the rest, which must cover every
    reference variable, and search decides the auxiliaries left open.
    """
    opts = opts or CheckOptions()
    deadline = None if opts.time_limit is None else time.monotonic() + opts.time_limit
    full, open_vids, oracle_ok, cput_ok = _judge(
        oracle_gm, cput_gm, assignment, deadline, _Effort(), opts
    )
    names = ", ".join(cput_gm.space.pretty(v) for v in open_vids[:5])
    left_open = f"variables left open by the channelings, deciding by search: {names}"
    notes = (left_open,) if open_vids else ()
    oracle_viol = cput_viol = ()
    if not oracle_ok:
        wo = {v: full[v] for v in oracle_gm.vids}
        oracle_viol = tuple(oracle_gm.evaluate_with_failures(wo))
    if cput_ok is False and not open_vids:
        cput_viol = tuple(cput_gm.evaluate_with_failures(full))
    if cput_ok and not oracle_ok:
        return ValidationReport(True, "extra-solution", True, False, (), oracle_viol, notes)
    if oracle_ok and cput_ok is False:
        return ValidationReport(True, "missing-solution", False, True, cput_viol, (), notes)
    return ValidationReport(False, None, cput_ok, oracle_ok, cput_viol, oracle_viol, notes)
