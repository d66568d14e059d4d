"""Spans around the public entry points of each usbvet layer, recorded from
outside the program.

Each wrapper is installed at the name its callers resolve at call time:
``cli`` reaches ``usbstatic``, ``queries`` and ``usbdb`` through module
attributes; ``queries`` imported ``execute`` by name; ``Solver`` methods and
``Executor._enumerate`` call the module-level ``solver.check``;
``LiftedProgram.block`` calls ``lifter.lift_block``; every caller decodes
through ``isa.decode``. A span is (name, start, end, parent, operation);
spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from collections import Counter

from usbvet import cli, fwkit, isa, lifter, machine, queries, solver, usbdb, \
    usbstatic
from workloads import TEMPLATES

TERM_REASONS = ("exit-image", "infeasible", "loop-pruned", "target",
                "listener-stop", "listener-kill", "unfinished",
                "mem-index-out-of-region", "indirect-undecodable",
                "decode-error")

# Top-level calls made by cli.run_pipeline, by pipeline stage.
STAGES = {
    "usbstatic.scan_with_xrefs": "scan",
    "usbstatic.reachable_instructions": "ep0",
    "usbstatic.find_devspec_to_ep0": "ep0",
    "queries.find_symbolic_locations": "symset",
    "queries.query1": "query1",
    "queries.query2_unexpected": "query2_unexpected",
    "queries.find_counters": "query2_inconsistent",
    "queries.query2_inconsistent": "query2_inconsistent",
    "usbdb.parse_device_descriptor": "model",
    "usbdb.parse_configuration": "model",
    "usbdb.match_drivers": "model",
    "usbdb.compare_models": "model",
}
STAGE_NAMES = ("scan", "ep0", "symset", "query1", "query2_unexpected",
               "query2_inconsistent", "model")

_WRAPPED = [
    (cli, "main"), (fwkit, "generate_fixture"),
    (usbstatic, "scan_with_xrefs"), (usbstatic, "reachable_instructions"),
    (usbstatic, "find_devspec_to_ep0"), (usbstatic, "prop_const_mem"),
    (queries, "find_symbolic_locations"), (queries, "query1"),
    (queries, "query2_unexpected"), (queries, "query2_inconsistent"),
    (queries, "find_counters"), (queries, "execute"),
    (usbdb, "parse_device_descriptor"), (usbdb, "parse_configuration"),
    (usbdb, "match_drivers"), (usbdb, "compare_models"),
    (solver, "check"),
    (lifter, "lift_program"), (lifter, "lift_block"), (lifter, "run_lifted"),
    (isa, "decode"), (machine, "step_concrete"),
]


def _term_key(reason: str) -> str:
    key = reason.split(":", 1)[0]
    return key if key in TERM_REASONS else "other"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op_of = array("l")
        self.stack = [-1]
        self.op = -1
        self.counts: Counter = Counter()
        self.lifted: set = set()           # (operation, block address)
        self.query_sizes = array("l")
        self._originals: list = []
        self._wrappers: list = []
        for module, attr in _WRAPPED:
            name = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
            fn = getattr(module, attr)
            self._wrappers.append((module, attr, self._wrap(name, fn)))
            self._originals.append((module, attr, fn))

    # -- installation ------------------------------------------------------

    def attach(self):
        for module, attr, w in self._wrappers:
            setattr(module, attr, w)

    def detach(self):
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        clock = time.perf_counter_ns
        name_of, start, end = self.name_of, self.start, self.end
        parent, op_of, stack = self.parent, self.op_of, self.stack

        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            op_of.append(self.op)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- facts taken from arguments and return values ------------------------

    def _on_solver_check(self, args, res):
        self.query_sizes.append(len(args[0]))
        self.counts["solver.unsat"] += not res.sat
        self.counts["solver.timeouts"] += res.timed_out

    def _on_lifter_lift_block(self, args, blk):
        key = (self.op, args[1])
        self.counts["lifter.relifts"] += key in self.lifted
        self.lifted.add(key)
        self.counts["lifter.instrs"] += len(blk.instr_addrs)

    def _on_lifter_run_lifted(self, args, executed):
        self.counts["lifter.eval_instrs"] += executed

    def _on_queries_execute(self, args, res):
        c = self.counts
        c["symexec.states"] += res.states_created
        c["symexec.blocks"] += res.blocks_executed
        c["symexec.coverage"] += len(res.coverage)
        for s in res.ended:
            c["symexec.term." + _term_key(s.terminated)] += 1

    def _on_queries_find_symbolic_locations(self, args, symset):
        self.counts["queries.symset_runs"] += len(symset.log)
        self.counts["queries.symset_locations"] += len(symset.locations)

    def _on_queries_query2_unexpected(self, args, rep):
        self.counts["queries.q2_flagged"] += len(rep.flagged)
        self.counts["queries.q2_ranked"] += len(rep.ranked)

    _on_queries_query2_inconsistent = _on_queries_query2_unexpected

    # -- output ------------------------------------------------------------

    def spans_json(self) -> str:
        return json.dumps({"names": self.names,
                           "fields": ["name", "start_ns", "end_ns", "parent",
                                      "op"],
                           "spans": list(zip(self.name_of, self.start,
                                             self.end, self.parent,
                                             self.op_of))},
                          separators=(",", ":"))

    def op_stage_seconds(self) -> dict[int, dict[str, float]]:
        """Pipeline stage seconds per analysed operation."""
        out: dict[int, dict[str, float]] = {}
        names = self.names
        for i in range(len(self.start)):
            p = self.parent[i]
            if p < 0 or names[self.name_of[p]] != "cli.main":
                continue
            stage = STAGES.get(names[self.name_of[i]])
            if stage:
                row = out.setdefault(self.op_of[i], {})
                row[stage] = (row.get(stage, 0.0)
                              + (self.end[i] - self.start[i]) / 1e9)
        return out

    def layer_metrics(self, op_templates: dict[int, str],
                      op_stages: dict[int, dict[str, float]]
                      ) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far, given each
        operation's template and its op_stage_seconds() row."""
        n = len(self.start)
        names = self.names
        dur = [(self.end[i] - self.start[i]) / 1e9 for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        total: Counter = Counter()
        self_t: Counter = Counter()
        calls: Counter = Counter()
        for i in range(n):
            name = names[self.name_of[i]]
            total[name] += dur[i]
            self_t[name] += dur[i] - child[i]
            calls[name] += 1
        c = self.counts
        lift_block = names.index("lifter.lift_block")
        decodes_in_lift = sum(1 for i in range(n)
                              if names[self.name_of[i]] == "isa.decode"
                              and self.parent[i] >= 0
                              and self.name_of[self.parent[i]] == lift_block)
        check_us = [dur[i] * 1e6 for i in range(n)
                    if names[self.name_of[i]] == "solver.check"]

        def ratio(a, b):
            return a / b if b else 0.0

        m: dict[str, float] = {}
        stage_total: Counter = Counter()
        for row in op_stages.values():
            stage_total.update(row)
        for stage in STAGE_NAMES:
            m[f"cli.stage.{stage}_s"] = stage_total[stage]
        m["cli.self_s"] = self_t["cli.main"]
        per_template: dict[str, list[float]] = {t: [] for t in TEMPLATES}
        for i in range(n):
            if names[self.name_of[i]] == "cli.main":
                t = op_templates.get(self.op_of[i])
                if t in per_template:
                    per_template[t].append(dur[i])
        for t in TEMPLATES:
            xs = per_template[t]
            m[f"cli.image_s.{t}"] = statistics.median(xs) if xs else 0.0

        for k in ("symset_runs", "symset_locations", "q2_flagged",
                  "q2_ranked"):
            m[f"queries.{k}"] = c[f"queries.{k}"]

        states, blocks = c["symexec.states"], c["symexec.blocks"]
        ended = sum(c["symexec.term." + r] for r in TERM_REASONS + ("other",))
        m["symexec.executions"] = calls["queries.execute"]
        m["symexec.states"] = states
        m["symexec.blocks"] = blocks
        m["symexec.coverage"] = c["symexec.coverage"]
        for r in TERM_REASONS + ("other",):
            m[f"symexec.term.{r}"] = c[f"symexec.term.{r}"]
        m["symexec.self_s"] = self_t["queries.execute"]
        m["symexec.blocks_per_s"] = ratio(blocks, total["queries.execute"])
        m["symexec.wasted_frac"] = ratio(
            c["symexec.term.infeasible"] + c["symexec.term.loop-pruned"],
            ended)

        queries_n = calls["solver.check"]
        m["solver.queries"] = queries_n
        m["solver.timeouts"] = c["solver.timeouts"]
        m["solver.check_s"] = total["solver.check"]
        m["solver.query_us_p50"] = (statistics.median(check_us)
                                    if check_us else 0.0)
        m["solver.query_us_p99"] = (
            statistics.quantiles(check_us, n=100, method="inclusive")[98]
            if len(check_us) > 1 else sum(check_us))   # the one query, or 0
        m["solver.constraints_per_query"] = ratio(sum(self.query_sizes),
                                                  queries_n)
        m["solver.unsat_frac"] = ratio(c["solver.unsat"], queries_n)
        m["solver.queries_per_block"] = ratio(queries_n, blocks)

        lifted = calls["lifter.lift_block"]
        m["lifter.blocks_lifted"] = lifted
        m["lifter.lift_s"] = total["lifter.lift_block"]
        m["lifter.relift_frac"] = ratio(c["lifter.relifts"], lifted)
        m["lifter.lift_instrs_per_s"] = ratio(c["lifter.instrs"],
                                              total["lifter.lift_block"])
        m["lifter.eval_instrs_per_s"] = ratio(c["lifter.eval_instrs"],
                                              self_t["lifter.run_lifted"])

        m["isa.decodes"] = calls["isa.decode"]
        m["isa.decode_s"] = total["isa.decode"]
        m["isa.decodes_per_s"] = ratio(calls["isa.decode"],
                                       total["isa.decode"])
        m["isa.decodes_per_lifted_instr"] = ratio(decodes_in_lift,
                                                  c["lifter.instrs"])

        m["machine.steps"] = calls["machine.step_concrete"]
        m["machine.step_s"] = total["machine.step_concrete"]
        m["machine.instrs_per_s"] = ratio(calls["machine.step_concrete"],
                                          total["machine.step_concrete"])

        m["usbstatic.scan_s"] = total["usbstatic.scan_with_xrefs"]
        m["usbstatic.prop_s"] = total["usbstatic.prop_const_mem"]
        m["fwkit.assemble_s"] = total["fwkit.generate_fixture"]
        m["trace.spans"] = n
        return m
