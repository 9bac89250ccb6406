"""Independent output checks for the benchmark.

Nothing here imports cpconftest: each checker restates the problem from its
definition (Golomb rulers) or from the instance file itself (car sequencing),
so a fault in the package cannot agree with itself.
"""

import itertools
import json
import re
from pathlib import Path

# Optimal Golomb ruler lengths as published (OEIS A003022); brute_ruler_optimum
# recomputes them.
RULER_OPT = {6: 17, 7: 25}


def ruler_marks(witness, m):
    return [witness[f"x[{i}]"] for i in range(1, m + 1)]


def ruler_violations(xs):
    """Reference-model labels a mark vector breaks: c1 ordering, c2 differences,
    (domains) marks outside 0..m*m."""
    m = len(xs)
    bad = set()
    if any(b <= a for a, b in zip(xs, xs[1:])):
        bad.add("c1")
    diffs = [b - a for a, b in itertools.combinations(xs, 2)]
    if len(diffs) != len(set(diffs)):
        bad.add("c2")
    if any(not 0 <= x <= m * m for x in xs):
        bad.add("(domains)")
    return bad


def brute_ruler_optimum(m):
    """Smallest last mark of any m-mark ruler starting at 0."""
    for length in itertools.count(m - 1):
        for mid in itertools.combinations(range(1, length), m - 2):
            if not ruler_violations((0,) + mid + (length,)):
                return length


class CarSeqInstance:
    """Demands, capacities and option table read straight from a .data file."""

    def __init__(self, path):
        text = re.sub(r"//[^\n]*", "", Path(path).read_text(encoding="utf-8"))
        ints = dict(
            (k, int(v)) for k, v in re.findall(r"(\w+)\s*=\s*(-?\d+)\s*;", text)
        )
        sets = {
            k: [tuple(int(x) for x in t.split(",")) for t in re.findall(r"<([^>]*)>", body)]
            for k, body in re.findall(r"(\w+)\s*=\s*\{(.*?)\}\s*;", text, re.S)
        }
        self.slots = ints["nbSlots"]
        self.demands = dict(sets["demands"])  # class -> cars
        self.capacities = sets["capacities"]  # (option, cap, window)
        self.has = {(o, c): h for o, c, h in sets["options"]}  # (option, class) -> 0/1

    def violations(self, witness):
        """Reference-model labels a schedule breaks.

        c1 class demands, c2 window capacities over the setup values, c3 setup
        values that disagree with the slot's class.  Without setup values in
        the witness they are derived from the classes, so c3 cannot fail.
        """
        slot = [witness[f"slot[{s}]"] for s in range(1, self.slots + 1)]
        setup = {}
        bad = set()
        for (opt, _, _) in self.capacities:
            for s in range(1, self.slots + 1):
                derived = self.has.get((opt, slot[s - 1]))
                given = witness.get(f"setup[{opt},{s}]", derived)
                setup[opt, s] = given
                if given != derived:
                    bad.add("c3")
        for conf, cars in self.demands.items():
            if slot.count(conf) != cars:
                bad.add("c1")
        for opt, cap, win in self.capacities:
            for s in range(1, self.slots - win + 2):
                if sum(setup[opt, j] for j in range(s, s + win)) > cap:
                    bad.add("c2")
        if any(c not in self.demands for c in slot):
            bad.add("(domains)")
        return bad


def self_test(corpus):
    """Check the checkers on the stored corpus witnesses and recompute the
    published optimum lengths by brute force (about a second); returns failures.

    golomb_m8_extra repeats a difference, so it is no ruler; carseq_10_missing
    is a valid schedule.
    """
    errors = []
    extra = json.loads((corpus / "witnesses" / "golomb_m8_extra.json").read_text())
    marks = extra["x"]
    if ruler_violations(marks) != {"c2"}:
        errors.append(f"golomb_m8_extra: expected only c2 broken, got {ruler_violations(marks)}")
    if ruler_violations([0, 1, 4, 10, 12, 17]):
        errors.append("the optimal 6-mark ruler 0 1 4 10 12 17 was rejected")
    carseq = CarSeqInstance(corpus / "carseq" / "slots10.data")
    missing = json.loads((corpus / "witnesses" / "carseq_10_missing.json").read_text())
    named = {f"slot[{s}]": v for s, v in enumerate(missing["slot"], 1)}
    if carseq.violations(named):
        errors.append(f"carseq_10_missing: expected a valid schedule, got {carseq.violations(named)}")
    if sum(cars + 1 for cars in carseq.demands.values()) <= carseq.slots:
        errors.append("carseq: cput4's loads (cars + 1 per class) now fit the slots")
    swapped = dict(named, **{"slot[1]": named["slot[2]"], "slot[2]": named["slot[1]"]})
    if "c2" not in carseq.violations(swapped):
        errors.append("carseq: swapping slots 1 and 2 of the stored schedule should break a window")
    for m, length in RULER_OPT.items():
        found = brute_ruler_optimum(m)
        if found != length:
            errors.append(f"brute force gives {found} for {m} marks, published {length}")
    return errors
