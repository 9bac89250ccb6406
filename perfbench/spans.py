"""Spans around calls into cpconftest's layers, recorded from outside.

`Tracer.install(pkg)` replaces the module attributes through which the
package and the benchmark reach each layer with wrappers that record a span
(name, start, end, parent, operation id).  Nothing under src/ changes; the
spans stay in memory until `write` and `layer_metrics` read them.
"""

import json
import statistics
import time


def _tree_size(tree):
    """Leaves (atoms and global constraints) of a ground constraint tree."""
    if type(tree).__name__ in ("AndC", "OrC"):
        return sum(_tree_size(t) for t in tree.items)
    return 1


def ground_atoms(gm):
    return sum(_tree_size(c.tree) for c in gm.constraints)


def wrapper_cost(seconds, calls=20000):
    """Time one wrapper adds to a call, in the units of seconds(start, end),
    from a no-op function called without and then with a wrapper."""

    class Probe:
        @staticmethod
        def noop():
            return None

    plain = Probe.noop
    probe = Tracer()
    probe.op = "probe"
    probe._wrap(Probe, "noop", "probe")
    wrapped = Probe.noop
    t0 = time.perf_counter()
    for _ in range(calls):
        plain()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, seconds(t1, t2) - seconds(t0, t1)) / calls


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation id]
        self.stack = []
        self.op = None
        self.hooks = []  # (start, end) of each counting hook run after a call
        self.counts = {"ground_atoms": 0, "solve_unsat": 0, "solve_resource_out": 0,
                       "nodes": 0, "failures": 0, "propagations": 0,
                       "candidates": 0, "genuine": 0}
        self._undo = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, owner, attr, name, after=None):
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None
            span = [name, time.perf_counter(), None, parent, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                t = time.perf_counter()
                after(out)
                self.hooks.append((t, time.perf_counter()))
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def install(self, pkg):
        """Wrap every layer boundary of an imported cpconftest package."""
        conf, grd, slv, prs = pkg.conformity, pkg.grounding, pkg.solver, pkg.parser

        def count_ground(gm):
            self.counts["ground_atoms"] += ground_atoms(gm)

        def count_candidate(genuine):
            self.counts["candidates"] += 1
            self.counts["genuine"] += genuine is True

        def count_solve(out):
            c = self.counts
            c["nodes"] += out.stats.nodes
            c["failures"] += out.stats.failures
            c["propagations"] += out.stats.propagations
            if out.status == "UNSAT":
                c["solve_unsat"] += 1
            elif out.status == "RESOURCE_OUT":
                c["solve_resource_out"] += 1

        for mod in (prs, pkg):
            self._wrap(mod, "parse_model_file", "parser.parse_model_file")
            self._wrap(mod, "parse_data_file", "parser.parse_data_file")
        for mod in (conf, pkg):
            self._wrap(mod, "ground_pair", "grounding.ground_pair")
        for mod in (conf, grd, pkg):
            self._wrap(mod, "ground", "grounding.ground", count_ground)
        for attr in ("evaluate", "in_domains", "extend_assignment", "evaluate_with_failures"):
            self._wrap(grd.GroundModel, attr, f"grounding.{attr}")
        for mod in (conf, pkg):
            self._wrap(mod, "canonical_key", "transform.canonical_key")
            self._wrap(mod, "negate", "transform.negate")
        for mod in (conf, slv, pkg):
            self._wrap(mod, "solve", "solver.solve", count_solve)
        for mod in (slv, pkg):
            self._wrap(mod, "solve_optimal", "solver.solve_optimal", count_solve)
        self._wrap(slv, "presolve", "solver.presolve")
        self._wrap(slv.Engine, "search", "solver.search")
        for mod in (conf, pkg):
            self._wrap(mod, "check", "conformity.check")
            self._wrap(mod, "validate_witness", "conformity.validate_witness")
        self._wrap(conf, "_genuine_extra", "conformity.revalidate", count_candidate)
        self._wrap(conf, "_genuine_missing", "conformity.revalidate", count_candidate)

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- reading -------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")

    def overhead(self, seconds):
        """Time the tracing added: one wrapper's cost per span, timed on a
        no-op function (median of five), plus the time of the counting hooks."""
        per_span = statistics.median(wrapper_cost(seconds) for _ in range(5))
        return len(self.spans) * per_span + sum(seconds(a, b) for a, b in self.hooks)

    def self_times(self, seconds):
        """Span duration minus the time its child spans cover."""
        own = [seconds(start, end) for _, start, end, _, _ in self.spans]
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                own[parent] -= seconds(self.spans[i][1], self.spans[i][2])
        return own

    def outer(self, prefixes, seconds):
        """(total time, count) of spans with the given name prefixes that are
        not nested inside another such span; seconds(start, end) measures one."""
        total, count = 0.0, 0
        for name, start, end, parent, _ in self.spans:
            if not name.startswith(prefixes):
                continue
            p = parent
            while p is not None and not self.spans[p][0].startswith(prefixes):
                p = self.spans[p][3]
            if p is None:
                total += seconds(start, end)
                count += 1
        return total, count

    def layer_metrics(self, seconds):
        """Per-layer times, in the units of seconds(start, end), and counters."""
        c = self.counts
        own = self.self_times(seconds)
        check_self = sum(t for t, s in zip(own, self.spans) if s[0] == "conformity.check")

        def outer(*prefixes):
            return self.outer(prefixes, seconds)

        solve_s, solve_calls = outer("solver.solve")
        presolve_s, _ = outer("solver.presolve")
        search_s, _ = outer("solver.search")
        canonical_s, canonical_calls = outer("transform.canonical_key")
        negate_s, negate_calls = outer("transform.negate")
        return {
            "grounding.ground_s": outer("grounding.ground")[0],
            "grounding.ground_atoms": c["ground_atoms"],
            "grounding.eval_s": outer(
                "grounding.evaluate", "grounding.in_domains", "grounding.extend_assignment"
            )[0],
            "transform.canonical_key_s": canonical_s,
            "transform.canonical_key_calls": canonical_calls,
            "transform.negate_s": negate_s,
            "transform.negate_calls": negate_calls,
            "solver.presolve_s": presolve_s,
            "solver.search_s": search_s,
            "solver.post_s": solve_s - presolve_s - search_s,
            "solver.solve_calls": solve_calls,
            "solver.solve_s": solve_s,
            "solver.nodes": c["nodes"],
            "solver.failures": c["failures"],
            "solver.propagations": c["propagations"],
            "solver.nodes_per_s": c["nodes"] / search_s if search_s else 0.0,
            "solver.propagations_per_node": c["propagations"] / c["nodes"] if c["nodes"] else 0.0,
            "solver.unsat_calls": c["solve_unsat"],
            "solver.resource_out_calls": c["solve_resource_out"],
            "conformity.check_s": outer("conformity.check")[0],
            "conformity.self_s": check_self,
            "conformity.witness_yield": c["genuine"] / c["candidates"] if c["candidates"] else 0.0,
            "conformity.validate_s": outer(
                "conformity.revalidate", "conformity.validate_witness"
            )[0],
        }
