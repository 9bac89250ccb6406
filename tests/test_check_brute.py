"""check() against brute force on random small model pairs.

Each pair is a reference over x[1..n] in 0..3 with a minimize objective and
a program derived from it by dropping, replacing and adding constraints,
sometimes with a narrower domain, a channeled auxiliary y == x[1] + x[2],
an auxiliary z that no channeling defines, or a different objective.
Both solution sets are enumerated by brute_solutions, and the verdict of
every relation must follow from the set definitions.
"""

import random

import pytest

from cpconftest import (
    CheckOptions,
    UsageError,
    check,
    expand_witness,
    ground_pair,
    parse_model,
    validate_witness,
)
from cpconftest import conformity
from cpconftest.grounding import eval_gexpr, evaluate_ground
from cpconftest.solver import solve, solve_optimal

from conftest import brute_solutions

OPS = ("==", "!=", "<", "<=", ">", ">=")
# (reference objective, the same objective written with y where y exists)
OBJECTIVES = (
    ("x[1] + 2 * x[2]", "y + x[2]"),
    ("x[1] + x[2]", "y"),
    ("x[2]", "x[2]"),
)


def _term(rng, n):
    i, j = rng.sample(range(1, n + 1), 2)
    return rng.choice(
        (f"x[{i}]", f"x[{i}] + x[{j}]", f"2 * x[{i}]", f"x[{i}] - x[{j}]", str(rng.randint(0, 4)))
    )


def _atom(rng, n):
    return f"{_term(rng, n)} {rng.choice(OPS)} {_term(rng, n)}"


def _constraint(rng, n, aux):
    roll = rng.random()
    if aux and roll < 0.15:
        return rng.choice((f"y <= {rng.randint(1, 5)}", f"y != x[{n}]", f"y >= x[{n}] + 1"))
    if roll < 0.55:
        return _atom(rng, n)
    if roll < 0.7:
        return f"{_atom(rng, n)} => {_atom(rng, n)}"
    if roll < 0.8:
        return f"allDifferent(all (i in 1..{n}) x[i])"
    if roll < 0.9:
        return f"count(all (i in 1..{n}) x[i], {rng.randint(0, 3)}) <= {rng.randint(0, 2)}"
    i, j = rng.sample(range(1, n + 1), 2)
    return f"x[{i}] * x[{j}] {rng.choice(OPS)} {rng.randint(0, 6)}"


def random_pair(seed):
    """(reference, program) for one seed, each side as (declarations,
    objective, rows) with rows of (label, text, annotation), so that render()
    can emit the constraints in any order."""
    rng = random.Random(seed)
    n = rng.randint(2, 3)
    aux = rng.random() < 0.5
    ref_obj, aux_obj = rng.choice(OBJECTIVES)
    ref = [(f"c{k}", _constraint(rng, n, False), "") for k in range(1, rng.randint(1, 3) + 1)]
    prog = [(f"k{k}", text, "") for k, (_, text, _) in enumerate(ref, 1)]
    if prog and rng.random() < 0.4:
        prog.pop(rng.randrange(len(prog)))
    if prog and rng.random() < 0.4:
        i = rng.randrange(len(prog))
        prog[i] = (prog[i][0], _constraint(rng, n, aux), "")
    if rng.random() < 0.5:
        prog.append(("k9", _constraint(rng, n, aux), ""))
    ref_decls = f"dvar int x[1..{n}] in 0..3;"
    prog_decls = f"dvar int x[1..{n}] in 0..{rng.choice((3, 3, 3, 2))};"
    prog_obj = ref_obj
    if aux:
        prog_decls += f"\ndvar int y in 0..{rng.choice((4, 6))};"
        prog.insert(0, ("k0", "y == x[1] + x[2]", "  @channeling"))
        prog_obj = aux_obj
    if not prog:
        prog.append(("k1", "x[1] >= 0", ""))
    if rng.random() < 0.25:  # objectives that disagree
        prog_obj = rng.choice(("x[1]", "x[2] + 1"))
    if rng.random() < 0.3:  # an auxiliary no channeling defines
        prog_decls += "\ndvar int z in 0..1;"
        prog.append(("k8", rng.choice(("z != x[1]", "z <= x[2]", "z + x[1] >= 1")), ""))
    return (ref_decls, ref_obj, ref), (prog_decls, prog_obj, prog)


def expected(oracle_gm, cput_gm, relation, bounds):
    """(kind, reason) from the brute-force solution sets."""
    ref_sols = brute_solutions(
        {v: oracle_gm.domains[v] for v in oracle_gm.vids}, [c.tree for c in oracle_gm.constraints]
    )
    prog_sols = brute_solutions(
        {v: cput_gm.domains[v] for v in cput_gm.vids}, [c.tree for c in cput_gm.constraints]
    )

    def proj(a):
        return tuple(a[v] for v in oracle_gm.vids)

    refs = {proj(r) for r in ref_sols}

    def obj_r(a):
        return eval_gexpr(oracle_gm.objective, a)

    def obj_p(a):
        return eval_gexpr(cput_gm.objective, a)

    if relation in ("one", "all"):
        if not prog_sols:
            return "NonConf", "unsatisfiable-program"
        if any(proj(p) not in refs for p in prog_sols):
            return "NonConf", "extra-solution"
        if relation == "all" and refs - {proj(p) for p in prog_sols}:
            return "NonConf", "missing-solution"
        return "Conf", None
    lo, hi = bounds
    inside = [p for p in prog_sols if lo <= obj_p(p) <= hi]
    if not inside:
        return "NonConf", "no-solution-within-bounds"
    if any(lo <= obj_r(p) <= hi and proj(p) not in refs for p in inside):
        return "NonConf", "extra-solution"
    if relation == "best":
        if any(obj_r(r) < lo for r in ref_sols):
            return "NonConf", "reference-beats-lower-bound"
        if any(obj_p(p) < lo for p in prog_sols):
            return "NonConf", "program-beats-lower-bound"
    return "Conf", None


def check_witness(oracle_gm, cput_gm, v, bounds):
    a = expand_witness(cput_gm.space, v.witness)
    if v.reason in ("extra-solution", "missing-solution"):
        rep = validate_witness(oracle_gm, cput_gm, a)
        assert rep.genuine and rep.direction == v.direction, rep.to_dict()
        if v.relation in ("bounds", "best"):
            lo, hi = bounds
            assert lo <= eval_gexpr(cput_gm.objective, a) <= hi
            assert lo <= eval_gexpr(oracle_gm.objective, a) <= hi
    elif v.reason == "reference-beats-lower-bound":
        assert oracle_gm.in_domains(a) and oracle_gm.evaluate(a)
        assert eval_gexpr(oracle_gm.objective, a) < bounds[0]
    else:
        assert v.reason == "program-beats-lower-bound", v.reason
        assert cput_gm.in_domains(a) and all(evaluate_ground(c.tree, a) for c in cput_gm.constraints)
        assert eval_gexpr(cput_gm.objective, a) < bounds[0]


def render(side, order=None):
    """Model text of one side, its constraints in the given order."""
    decls, objective, rows = side
    rows = rows if order is None else [rows[i] for i in order]
    body = "\n".join(f"  {label}: {text};{tail}" for label, text, tail in rows)
    return f"{decls}\nminimize {objective};\nsubject to {{\n{body}\n}}\n"


SEEDS = range(150)
RELATIONS = ("one", "all", "bounds", "best")


def _grounded(seeds):
    """(seed, ref, prog, oracle_gm, cput_gm, reference solutions) per seed."""
    for seed in seeds:
        ref, prog = random_pair(seed)
        oracle_gm, cput_gm = ground_pair(parse_model(render(ref)), parse_model(render(prog)))
        ref_sols = brute_solutions(
            {v: oracle_gm.domains[v] for v in oracle_gm.vids},
            [c.tree for c in oracle_gm.constraints],
        )
        yield seed, ref, prog, oracle_gm, cput_gm, ref_sols


def _pairs():
    """Pairs with a nonempty reference; test_empty_reference_under_one_and_all
    covers the others.

    Odd seeds put the objective interval at the reference optimum, where
    best is decided by the program; even seeds draw it at random."""
    for seed, ref, prog, oracle_gm, cput_gm, ref_sols in _grounded(SEEDS):
        if not ref_sols:
            continue
        if seed % 2:
            lo = min(eval_gexpr(oracle_gm.objective, r) for r in ref_sols)
        else:
            lo = random.Random(seed).randint(0, 6)
        bounds = (lo, lo + seed % 3)
        yield seed, ref, prog, bounds, oracle_gm, cput_gm


def test_check_matches_brute_force():
    seen = set()
    for seed, ref, prog, bounds, oracle_gm, cput_gm in _pairs():
        for relation in RELATIONS:
            opts = CheckOptions(relation=relation, bounds=bounds)
            v = check(parse_model(render(ref)), parse_model(render(prog)), opts=opts)
            want = expected(oracle_gm, cput_gm, relation, bounds)
            assert (v.kind, v.reason) == want, (seed, relation, render(ref), render(prog))
            seen.add(want)
            if v.witness is not None:
                check_witness(oracle_gm, cput_gm, v, bounds)
    # the generator reaches every verdict the four relations can give
    assert {r for _, r in seen} >= {
        None,
        "unsatisfiable-program",
        "extra-solution",
        "missing-solution",
        "no-solution-within-bounds",
        "reference-beats-lower-bound",
        "program-beats-lower-bound",
    }


def test_verdict_invariant_under_constraint_order():
    for seed, ref, prog, bounds, _, _ in _pairs():
        rng = random.Random(seed)
        ref_order = rng.sample(range(len(ref[2])), len(ref[2]))
        prog_order = rng.sample(range(len(prog[2])), len(prog[2]))
        for relation in RELATIONS:
            kinds = set()
            for order in (False, True):
                o = render(ref, ref_order if order else None)
                p = render(prog, prog_order if order else None)
                opts = CheckOptions(relation=relation, bounds=bounds)
                v = check(parse_model(o), parse_model(p), opts=opts)
                kinds.add(v.kind)
            assert len(kinds) == 1, (seed, relation, kinds)


def test_empty_reference_under_one_and_all():
    # one and all probe the reference by root propagation only, without
    # search: an empty reference is a usage error when propagation refutes
    # it, and otherwise gets the verdict the solution sets give, never Conf
    verdicts = 0
    for seed, ref, prog, oracle_gm, cput_gm, ref_sols in _grounded(range(400)):
        if ref_sols:
            continue
        for relation in ("one", "all"):
            opts = CheckOptions(relation=relation)
            try:
                v = check(parse_model(render(ref)), parse_model(render(prog)), opts=opts)
            except UsageError:
                continue
            want = expected(oracle_gm, cput_gm, relation, None)
            assert want[0] != "Conf"
            assert (v.kind, v.reason) == want, (seed, relation, render(ref), render(prog))
            if v.witness is not None:
                check_witness(oracle_gm, cput_gm, v, None)
            verdicts += 1
    assert verdicts > 0


@pytest.mark.parametrize("relation", RELATIONS)
def test_overflow_in_normalization_keeps_verdict(relation):
    # c1's two sides fit in 64 bits for x in 0..1, but their difference has
    # coefficient 2^63: normal forms are exact integers, so canonical keys
    # and presolve must not read it as 64-bit arithmetic would
    oracle = """
    dvar int x in 0..1;
    dvar int z in 0..3;
    minimize z;
    subject to {
      c1: x * 4611686018427387904 == x * -4611686018427387904;
      c2: z >= 1;
    }
    """
    program = """
    dvar int x in 0..1;
    dvar int z in 0..3;
    minimize z;
    subject to {
      k1: z >= 1;
      k2: x * 4611686018427387904 == x * -4611686018427387904;
    }
    """
    # without k2 the program admits x = 1, which c1 rejects
    leaky = program.replace("k2: x * 4611686018427387904 == x * -4611686018427387904", "k2: x >= 0")
    # k1's left side is K or 0 at every point, but its expansion holds the
    # term -2K*x*y, past 64 bits: the program has no solution, and that term
    # must not read as 0 != 0
    y_ref = """
    dvar int x in 0..1;
    dvar int y in 0..1;
    minimize x + y;
    subject to {
      r1: x >= 0;
    }
    """
    y_prog = """
    dvar int x in 0..1;
    dvar int y in 0..1;
    minimize x + y;
    subject to {
      k1: (x - y) * (x - y) * 6917529027641081856 != 0 => x == 5;
      k2: x != y;
    }
    """
    # the same expression as an objective and as a count item: its value is
    # 0 or K, and the solver bounds it through that expansion
    square = "(x - y) * (x - y) * 6917529027641081856"
    y_obj = y_ref.replace("minimize x + y", f"minimize {square}")
    y_count = y_ref.replace("r1: x >= 0", f"k1: count(all (i in 1..1) {square}, 0) == 1")
    pairs = ((oracle, program), (oracle, leaky), (y_obj, y_obj), (y_ref, y_count), (y_ref, y_prog))
    for ref, prog in pairs:
        oracle_gm, cput_gm = ground_pair(parse_model(ref), parse_model(prog))
        bounds = (1, 2)
        want = expected(oracle_gm, cput_gm, relation, bounds)
        opts = CheckOptions(relation=relation, bounds=bounds)
        v = check(parse_model(ref), parse_model(prog), opts=opts)
        assert (v.kind, v.reason) == want
        if v.witness is not None:
            check_witness(oracle_gm, cput_gm, v, bounds)
    # the last pair's program has no solution, and the solver must agree
    assert want[0] == "NonConf"
    hard = [c.tree for c in cput_gm.constraints]
    assert solve(dict(cput_gm.domains), hard).status == "UNSAT"
    gm, _ = ground_pair(parse_model(y_obj), parse_model(y_obj))
    out = solve_optimal(dict(gm.domains), [c.tree for c in gm.constraints], gm.objective)
    assert (out.status, out.value, out.proven) == ("SAT", 0, True)


@pytest.mark.parametrize("relation", RELATIONS)
def test_verdict_and_validation_agree_past_64_bits(relation):
    # k1's left side is 2^63 at x = 1, one past the 64-bit range.  Both check
    # and validate evaluate it exactly: the pair is Conf in both orders, and
    # validate finds both sides satisfied at every point
    plain = "dvar int x in 0..1;\nminimize x;\nsubject to {\n  r1: x >= 0;\n}\n"
    big = plain.replace("r1: x >= 0", "k1: x * 4611686018427387904 + x * 4611686018427387904 >= 0")
    for ref, prog in ((big, plain), (plain, big)):
        oracle_gm, cput_gm = ground_pair(parse_model(ref), parse_model(prog))
        bounds = (0, 1)
        v = check(parse_model(ref), parse_model(prog), opts=CheckOptions(relation=relation, bounds=bounds))
        assert (v.kind, v.reason) == expected(oracle_gm, cput_gm, relation, bounds) == ("Conf", None)
        for x in (0, 1):
            rep = validate_witness(oracle_gm, cput_gm, {oracle_gm.vids[0]: x})
            assert (rep.genuine, rep.program_satisfied, rep.reference_satisfied) == (False, True, True)


K62 = 2**62


def _big_term(rng):
    """A term over x[1], x[2] whose constants lie near 2^62."""
    i, j = rng.sample((1, 2), 2)
    k = K62 + rng.randint(-2, 2)
    return rng.choice((
        f"{k} * x[{i}]",
        f"x[{i}] * {k} + x[{j}] * {k}",
        f"{k} * x[{i}] - {k} * x[{j}]",
        f"x[{i}] * x[{j}] * {k}",
        f"{rng.randint(-3, 3)} * {k}",
    ))


def big_pair(seed):
    """(reference, program) over x[1..2] in 0..2 whose atoms compare terms
    with constants near 2^62, so that sums and products leave 64 bits; the
    program replaces and adds constraints, as random_pair's does."""
    rng = random.Random(seed)

    def atom():
        return f"{_big_term(rng)} {rng.choice(OPS)} {_big_term(rng)}"

    ref = [(f"c{k}", atom(), "") for k in range(1, rng.randint(1, 2) + 1)]
    prog = [(f"k{k}", text, "") for k, (_, text, _) in enumerate(ref, 1)]
    if rng.random() < 0.5:
        i = rng.randrange(len(prog))
        prog[i] = (prog[i][0], atom(), "")
    if rng.random() < 0.5:
        prog.append(("k9", atom(), ""))
    decls = "dvar int x[1..2] in 0..2;"
    objective = rng.choice(("x[1] + 2 * x[2]", f"{K62} * x[1] + x[2]"))
    return (decls, objective, ref), (decls, objective, prog)


def test_constants_near_2_62_match_brute_force():
    verdicts = set()
    for seed in range(120):
        ref, prog = big_pair(seed)
        oracle_gm, cput_gm = ground_pair(parse_model(render(ref)), parse_model(render(prog)))
        ref_sols = brute_solutions(oracle_gm.domains, [c.tree for c in oracle_gm.constraints])
        if not ref_sols:
            continue
        lo = min(eval_gexpr(oracle_gm.objective, r) for r in ref_sols)
        bounds = (lo, lo + seed % 2)
        for relation in RELATIONS:
            opts = CheckOptions(relation=relation, bounds=bounds)
            v = check(parse_model(render(ref)), parse_model(render(prog)), opts=opts)
            want = expected(oracle_gm, cput_gm, relation, bounds)
            assert (v.kind, v.reason) == want, (seed, relation, render(ref), render(prog))
            verdicts.add(want)
            if v.witness is not None:
                check_witness(oracle_gm, cput_gm, v, bounds)
    assert {r for _, r in verdicts} >= {None, "extra-solution", "missing-solution"}


def test_witness_found_after_a_false_alarm():
    # The program rejects only x = 1: k1 rules out z == x and z + 1 == x, and
    # the auxiliary z, which no channeling defines, can dodge both at every
    # other x.  not(k1) is first met at x = 0, z = 0, which the program
    # accepts with z = 1: a false alarm.  Only the search resumed past its
    # cut reaches x = 1, and no reference point leaves the program's domains.
    oracle = "dvar int x in 0..3;\nsubject to {\n  c1: x >= 0;\n}\n"
    program = (
        "dvar int x in 0..3;\ndvar int z in 0..1;\n"
        "subject to {\n  k1: (z - x) * (z + 1 - x) != 0;\n}\n"
    )
    oracle_gm, cput_gm = ground_pair(parse_model(oracle), parse_model(program))
    assert expected(oracle_gm, cput_gm, "all", None) == ("NonConf", "missing-solution")
    v = check(parse_model(oracle), parse_model(program), opts=CheckOptions(relation="all"))
    assert (v.kind, v.reason, v.violated) == ("NonConf", "missing-solution", "k1")
    assert v.witness["x"] == 1
    (deciding,) = [s for s in v.subreports if s.status == "witness"]
    assert deciding.false_alarms >= 1
    check_witness(oracle_gm, cput_gm, v, None)


@pytest.mark.parametrize("relation", ("one", "all"))
@pytest.mark.parametrize("limit, w_hi", ((2, 12), (6, 12), (8, 12), (10, 12), (8, 6)))
def test_auxiliary_channeled_from_an_auxiliary(relation, limit, w_hi):
    # w is channeled from y, which is channeled from the x cells, so the
    # missing direction's subproblem for k2 pulls in both channelings
    oracle = "dvar int x[1..2] in 0..3;\nsubject to {\n  c1: x[1] + x[2] <= 4;\n}\n"
    program = (
        f"dvar int x[1..2] in 0..3;\ndvar int y in 0..6;\ndvar int w in 0..{w_hi};\n"
        "subject to {\n  k0: y == x[1] + x[2];  @channeling\n"
        f"  k1: w == 2 * y;  @channeling\n  k2: w <= {limit};\n}}\n"
    )
    oracle_gm, cput_gm = ground_pair(parse_model(oracle), parse_model(program))
    w, y = cput_gm.space.lookup("w", ()), cput_gm.space.lookup("y", ())
    needed, trees = conformity._channel_closure(cput_gm, set(oracle_gm.vids), {w})
    assert needed == {w, y} and len(trees) == 2
    v = check(parse_model(oracle), parse_model(program), opts=CheckOptions(relation=relation))
    assert (v.kind, v.reason) == expected(oracle_gm, cput_gm, relation, None)
    if v.witness is None:
        return
    check_witness(oracle_gm, cput_gm, v, None)
    # the witness's x cells lie in one solution set and not in the other
    xs = oracle_gm.vids

    def points(gm):
        sols = brute_solutions(gm.domains, [c.tree for c in gm.constraints])
        return {tuple(a[v] for v in xs) for a in sols}

    point = tuple(v.witness[oracle_gm.space.pretty(x)] for x in xs)
    progs, refs = points(cput_gm), points(oracle_gm)
    assert point in (progs - refs if v.reason == "extra-solution" else refs - progs)


def _carseq_constraint(rng, n, k):
    """A demand count over the classes x, a window count over the option
    flags s, or an implication between one-variable atoms; counts take any
    of the six relations and a constant right-hand side."""
    roll = rng.random()
    if roll < 0.3:
        conf = rng.randint(1, k)
        return f"count(all (i in 1..{n}) x[i], {conf}) {rng.choice(OPS)} {rng.randint(0, n)}"
    if roll < 0.55:
        a = rng.randint(1, n - 1)
        b = rng.randint(a + 1, n)
        return f"count(all (j in {a}..{b}) s[j], 1) {rng.choice(OPS)} {rng.randint(0, b - a + 1)}"
    i, j = rng.randint(1, n), rng.randint(1, n)
    then = rng.choice((
        f"s[{j}] == {rng.randint(0, 1)}",
        f"x[{j}] {rng.choice(OPS)} {rng.randint(1, k)}",
        f"2 * s[{j}] {rng.choice(OPS)} {rng.randint(0, 2)}",
    ))
    return f"x[{i}] == {rng.randint(1, k)} => {then}"


def carseq_pair(seed):
    """(reference, program) shaped like car sequencing: slots x[1..n] take a
    class in 1..k and option flags s[1..n] in 0..1; the program drops,
    replaces and adds constraints, as random_pair's does."""
    rng = random.Random(seed)
    n, k = rng.randint(3, 4), rng.randint(2, 3)
    ref = [(f"c{c}", _carseq_constraint(rng, n, k), "") for c in range(1, rng.randint(2, 4) + 1)]
    prog = [(f"k{c}", text, "") for c, (_, text, _) in enumerate(ref, 1)]
    if rng.random() < 0.4:
        prog.pop(rng.randrange(len(prog)))
    if rng.random() < 0.4:
        i = rng.randrange(len(prog))
        prog[i] = (prog[i][0], _carseq_constraint(rng, n, k), "")
    if rng.random() < 0.5:
        prog.append(("k9", _carseq_constraint(rng, n, k), ""))
    decls = f"dvar int x[1..{n}] in 1..{k};\ndvar int s[1..{n}] in 0..1;"
    return (decls, "x[1]", ref), (decls, "x[1]", prog)


def test_carseq_shaped_models_match_brute_force():
    seen = set()
    for seed in range(200):
        ref, prog = carseq_pair(seed)
        oracle_gm, cput_gm = ground_pair(parse_model(render(ref)), parse_model(render(prog)))
        ref_sols = brute_solutions(
            {v: oracle_gm.domains[v] for v in oracle_gm.vids},
            [c.tree for c in oracle_gm.constraints],
        )
        if not ref_sols:
            continue
        for relation in ("one", "all"):
            opts = CheckOptions(relation=relation)
            v = check(parse_model(render(ref)), parse_model(render(prog)), opts=opts)
            want = expected(oracle_gm, cput_gm, relation, None)
            assert (v.kind, v.reason) == want, (seed, relation, render(ref), render(prog))
            seen.add(want)
            if v.witness is not None:
                check_witness(oracle_gm, cput_gm, v, None)
    assert {r for _, r in seen} == {None, "unsatisfiable-program", "extra-solution", "missing-solution"}
