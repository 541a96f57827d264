"""One benchmark run: set-up, then either the timed closed loop or the traced pass.

Timed run (trace 0): one caller solves the seeded problem set, one solve after
another, pass after pass, until the time is up (at least one whole pass).
Each solve is timed alone and checked against its oracle outside the timer.

Traced run (trace 1): one pass over the same problem set in which every
(problem, solver) is solved untraced and then traced, so the iteration counts
and eigenvalues of the two can be compared and the tracing overhead measured.
"""

import json
import math
import os
import resource
import shutil
import statistics
import time

import machine
import spans
import workloads

# setup_s is the median over the set-ups of up to SETUP_ROUNDS rounds spread
# evenly over the timed solves, each round at least SETUP_ROUND_S long. The
# host's speed changes within seconds, so many short rounds sample it better
# than a few long ones; rounds stop after the third once set-up has taken
# SETUP_BUDGET_S in all (direct's set-up takes about 5 s).
SETUP_ROUNDS, SETUP_ROUND_S, SETUP_BUDGET_S = 8, 0.15, 10.0
FLOOR_SIZES = (10, 100, 200)

# (module, attribute, span name): the lookup sites callers go through
TRACE_TARGETS = (
    ("dual_eig", "adjoint", "adjoint.adjoint"),
    ("dual_eig", "vec_map_f_inverse", "adjoint.vec_maps"),
    ("dual_eig", "eig_hermitian", "hermitian_eig.eig_hermitian"),
    ("dual_eig", "cluster_eigenvalues", "hermitian_eig.cluster_eigenvalues"),
    ("dual_eig", "eig_dual_complex_hermitian", "dual_eig.eig_dual_complex_hermitian"),
    ("dual_eig", "orthogonalize_eigenvectors", "dual_eig.orthogonalize_eigenvectors"),
    ("dual_eig", "eddcam_ea", "dual_eig.eddcam_ea"),
    ("power", "adjoint", "adjoint.adjoint"),
    ("power", "vec_map_f", "adjoint.vec_maps"),
    ("power", "vec_map_f_inverse", "adjoint.vec_maps"),
    ("power", "vec_map_h", "adjoint.vec_maps"),
    ("power", "power_method_spectrum", "power.power_method_spectrum"),
    ("power", "power_method_baseline", "power.power_method_baseline"),
    ("power", "dcama_pm", "power.dcama_pm"),
    ("power", "dcam_pm", "power.dcam_pm"),
    ("power", "adcam_pm", "power.adcam_pm"),
    ("power", "pair_residual", "power.pair_residual"),
    ("cli", "load_matrix", "cli.load_matrix"),
    ("cli", "eddcam_ea", "dual_eig.eddcam_ea"),
    ("cli", "save_matrix", "cli.save_matrix"),
    ("bench", "random_graph", "bench.random_graph"),
    ("bench", "build_laplacian", "bench.build_laplacian"),
    ("bench", "random_hermitian", "bench.random_hermitian"),
    ("bench", "synth_known_spectrum", "bench.synth_known_spectrum"),
)


def _gs_info(args, result):
    return {"candidates": len(args[0]), "kept": len(result)}


def install(tracer, m):
    for module, attr, name in TRACE_TARGETS:
        info = _gs_info if attr == "orthogonalize_eigenvectors" else None
        tracer.install(getattr(m, module), attr, name, info)
    for cls, vec, tag in (("DualQuaternionMatrix", "DualQuaternionVector", "dq"),
                          ("DualComplexMatrix", "DualComplexVector", "dc")):
        owner = getattr(m.matrices, cls, None)
        if owner is None:
            tracer.absent.append(f"matrices.{cls}")
            continue
        vec_type = getattr(m.matrices, vec)
        tracer.install(owner, "__matmul__", lambda args, v=vec_type, t=tag: (
            f"matrices.{t}_matvec" if isinstance(args[1], v) else f"matrices.{t}_matmat"))


# -- statistics ---------------------------------------------------------------

def tail(values):
    """(value, percentile, samples beyond it): the highest percentile with at
    least ten samples beyond it, or the largest sample when there are fewer
    than 21 samples."""
    v = sorted(values)
    i = len(v) - 11 if len(v) >= 21 else len(v) - 1
    return v[i], 100.0 * (i + 1) / len(v), len(v) - 1 - i


def geomean(values):
    return math.exp(statistics.fmean(math.log(x) for x in values))


def floor_op_s(probe, solver, n, seconds):
    """Time of the floor operation a solver's work is counted in: one raw dual
    matvec for the power loops, one bare eigh for the direct solves."""
    if solver in workloads.ITERATIVE:
        return probe.dual_matvec_s(n, seconds)
    return probe.eigh_s(n, seconds)


def did_work(o):
    """A solve whose work can be set against its floor: it succeeded, or its
    power loop ran to the iteration cap."""
    return o.error is None or (not o.converged and o.iterations > 0)


def _summary(outcomes):
    """Latency median and tail over the successful solves; the solve time over
    the floor time of its work over every solve that did its work."""
    lat = [o.seconds for o in outcomes if o.error is None]
    x_floor = [o.seconds / o.floor_s for o in outcomes if did_work(o)]
    out = {"samples": len(lat), "work_samples": len(x_floor)}
    if lat:
        t, pct, beyond = tail(lat)
        out.update(s_p50=statistics.median(lat), s_tail=t, tail_pct=pct, tail_beyond=beyond)
    if x_floor:
        out.update(x_floor_p50=statistics.median(x_floor), x_floor_tail=tail(x_floor)[0])
    return out


def x_floor_cells(outcomes):
    """Solve time over floor time, median over the passes of each (solver,
    problem) that did its work; the end-to-end metric is their geometric mean,
    so every solver weighs alike and every problem within it."""
    ratios = {}
    for o in outcomes:
        if did_work(o):
            ratios.setdefault(f"{o.solver} {o.key}", []).append(o.seconds / o.floor_s)
    return {k: statistics.median(v) for k, v in ratios.items()}


def solver_stats(outcomes, solvers):
    """Per solver, and per solver and size."""
    stats = {}
    for s in solvers:
        mine = [o for o in outcomes if o.solver == s]
        stats[s] = _summary(mine)
        stats[s]["by_size"] = {
            n: _summary([o for o in mine if o.n == n]) for n in sorted({o.n for o in mine})}
    return stats


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the run ------------------------------------------------------------------

class Run:
    def __init__(self, workload, seed, root, spec=None, out_dir=None):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.spec = (spec or workloads.FULL)[workload]
        self.solvers = workloads.SOLVERS[workload]
        self.out_dir = out_dir or os.path.join(root, "perfbench", "out")
        self.work_dir = os.path.join(self.out_dir, f"work-{os.getpid()}")
        self.m = workloads.Modules()
        self.outcomes = []
        self.wrong = []
        self.probe = machine.Probe()

    def setup(self):
        problems = workloads.build(self.m, self.workload, self.seed, self.spec, self.work_dir)
        for n in workloads.sizes(self.workload, self.spec):
            machine.warm_up(n)
        return problems

    def _solve_checked(self, p, solver, tracer=None, solve_id=None):
        """Solve, then check against the oracle. An untraced solve is
        bracketed by timings of its floor operation (the one after lasts a
        twentieth of the solve), so its floor sees the machine state the
        solve saw. The floor is that operation times the operations the
        input needs, which the solver's own work does not change: the
        iterations its oracle spectrum implies for a power loop (raw dual
        matvecs), one eigh for a direct solve."""
        if tracer is None:
            before = floor_op_s(self.probe, solver, p.n, 0.003)
        out, vector = workloads.solve(self.m, p, solver, self.work_dir, tracer, solve_id)
        if tracer is None:
            after = floor_op_s(self.probe, solver, p.n, max(0.003, 0.05 * out.seconds))
            out.op_s = 0.5 * (before + after)
            ops = p.model_iters if solver in workloads.ITERATIVE else 1
            out.floor_s = ops * out.op_s
        if out.error is None:
            reason = workloads.check(p, out, vector)
            if reason is not None:
                out.error = "oracle: " + reason
                self.wrong.append(out)
        return out

    def timed(self, seconds):
        setup_times = []

        def set_up():
            """Set up repeatedly for at least SETUP_ROUND_S; the last problem set.
            Each set is dropped before the next is built, so peak_rss_mb does
            not depend on how many set-ups fit in a round."""
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                problems = self.setup()
                setup_times.append(time.perf_counter() - t0)
                if t0 - start + setup_times[-1] >= SETUP_ROUND_S:
                    return problems
                del problems

        def more_rounds(rounds):
            return rounds < SETUP_ROUNDS and (rounds < 3 or sum(setup_times) < SETUP_BUDGET_S)

        problems = set_up()
        workloads.attach_references(problems)

        # One whole pass, then the same order again until `seconds` of solving
        # have passed; the metric weighs every (solver, problem) alike however
        # often it was solved. The other set-up rounds are spread over the
        # solving, so setup_s samples the machine as the solves do; the solves
        # keep the first, identical, problem set. Set-up time does not count
        # as solving.
        order = [(p, s) for p in problems for s in self.solvers]
        start = time.perf_counter()
        solves, rounds = 0, 1
        while solves < len(order) or time.perf_counter() - start < seconds:
            p, s = order[solves % len(order)]
            self.outcomes.append(self._solve_checked(p, s))
            solves += 1
            if more_rounds(rounds) and (
                    time.perf_counter() - start >= rounds * seconds / SETUP_ROUNDS):
                t0 = time.perf_counter()
                set_up()
                rounds += 1
                start += time.perf_counter() - t0
        while more_rounds(rounds):
            set_up()
            rounds += 1

        stats = solver_stats(self.outcomes, self.solvers)
        cells = x_floor_cells(self.outcomes)
        metrics = {
            "solve_x_floor_p50": (geomean(cells.values()), "x"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        detail = {"setup_times_s": setup_times, "passes": solves / len(order), "solvers": stats,
                  "x_floor_cells": cells}
        return metrics, detail

    def traced(self):
        tracer = spans.Tracer()
        install(tracer, self.m)
        setup_span = tracer.open("setup")
        problems = self.setup()
        tracer.close(setup_span)
        tracer.uninstall()
        workloads.attach_references(problems)
        sizes = sorted(set(FLOOR_SIZES) | set(workloads.sizes(self.workload, self.spec)))
        floors = {n: machine.floors(self.probe, n) for n in sizes}

        traced_outcomes, mismatches = [], []
        for p in problems:
            for s in self.solvers:
                plain = self._solve_checked(p, s)
                install(tracer, self.m)
                seen = self._solve_checked(p, s, tracer, len(traced_outcomes))
                tracer.uninstall()
                self.outcomes.append(plain)
                traced_outcomes.append(seen)
                if (plain.iterations, plain.eigenvalues) != (seen.iterations, seen.eigenvalues):
                    mismatches.append(f"{s} {p.key}")
        metrics, detail = layer_metrics(
            tracer, setup_span, self.outcomes, traced_outcomes, floors)
        detail["absent_spans"] = sorted(set(tracer.absent))
        detail["trace_mismatches"] = mismatches
        os.makedirs(self.out_dir, exist_ok=True)
        detail["spans_file"] = os.path.join(
            self.out_dir, f"{self.workload}-seed{self.seed}.spans.jsonl")
        tracer.write(detail["spans_file"])
        return metrics, detail

    def execute(self, seconds, trace):
        os.makedirs(self.work_dir, exist_ok=True)
        try:
            metrics, detail = self.traced() if trace else self.timed(seconds)
        finally:
            shutil.rmtree(self.work_dir, ignore_errors=True)
        failed = [o for o in self.outcomes if o.error is not None]
        correct = not self.wrong and not detail.get("trace_mismatches")
        detail["failures"] = [f"{o.solver} {o.key}: {o.error}" for o in failed]
        detail["solves"] = [[o.solver, o.key, o.seconds, o.op_s, o.floor_s, o.iterations, o.error]
                            for o in self.outcomes]
        result = {
            "correct": correct,
            "attempted": len(self.outcomes),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return result, detail


def layer_metrics(tracer, setup_span, plain, traced, floors):
    """Per-layer numbers from the traced pass; times are shares of the traced
    solve time (or of set-up, for the generators)."""
    own = tracer.self_times()
    rows = tracer.spans
    dur = [r[spans.END] - r[spans.START] for r in rows]
    self_s, calls = {}, {}
    for r, t in zip(rows, own):
        self_s[r[spans.NAME]] = self_s.get(r[spans.NAME], 0.0) + t
        calls[r[spans.NAME]] = calls.get(r[spans.NAME], 0) + 1
    roots = [i for i, r in enumerate(rows) if r[spans.PARENT] == -1 and i != setup_span]
    solve_s = sum(dur[i] for i in roots)
    setup_s = dur[setup_span]

    def share(names, base=solve_s):
        return sum(self_s.get(n, 0.0) for n in names) / base

    by_solver = {}
    for o in plain:
        by_solver.setdefault(o.solver, []).append(o)
    iters = {s: sum(o.iterations for o in by_solver.get(s, ())) for s in workloads.ITERATIVE}
    adcam = by_solver.get("adcam", [])
    gs = [r[spans.INFO] for r in rows if r[spans.NAME] == "dual_eig.orthogonalize_eigenvectors"]
    candidates = sum(g["candidates"] for g in gs)
    eddcam = [dur[i] / plain[r[spans.SOLVE]].floor_s for i, r in enumerate(rows)
              if r[spans.NAME] == "dual_eig.eddcam_ea"]
    cli = [o for o in plain if o.solver == "cli_solve" and "output_mb" in o.extra]
    cli_self = sum(own[i] for i in roots if rows[i][spans.NAME] == "solve.cli_solve")

    def over_matvec(s):
        ok = [o.seconds / (o.iterations * o.op_s)
              for o in by_solver.get(s, ()) if did_work(o) and o.iterations]
        return statistics.median(ok) if ok else 0.0

    plain_s = sum(o.seconds for o in plain)
    metrics = {}
    for s in workloads.ITERATIVE:
        metrics[f"power.iters.{s}"] = (iters[s], "count")
    for s in workloads.ITERATIVE:
        metrics[f"ratio.over_matvec.{s}"] = (over_matvec(s), "x")
    metrics.update({
        "power.aitken_exit_frac": (
            sum(o.aitken_exit for o in adcam) / len(adcam) if adcam else 0.0, "frac"),
        "power.self_frac": (
            share([n for n in self_s if n.startswith("power.")]), "frac"),
        "matrices.dq_matvec.calls": (calls.get("matrices.dq_matvec", 0), "count"),
        "matrices.dq_matvec_frac": (share(["matrices.dq_matvec"]), "frac"),
        "matrices.dc_matvec.calls": (calls.get("matrices.dc_matvec", 0), "count"),
        "matrices.dc_matvec_frac": (share(["matrices.dc_matvec"]), "frac"),
        "adjoint.adjoint_frac": (share(["adjoint.adjoint"]), "frac"),
        "adjoint.vec_maps_frac": (share(["adjoint.vec_maps"]), "frac"),
        "hermitian_eig.eig_hermitian.calls": (
            calls.get("hermitian_eig.eig_hermitian", 0), "count"),
        "hermitian_eig.eig_hermitian_frac": (share(["hermitian_eig.eig_hermitian"]), "frac"),
        "hermitian_eig.cluster_frac": (share(["hermitian_eig.cluster_eigenvalues"]), "frac"),
        "dual_eig.decompose_self_frac": (
            share(["dual_eig.eig_dual_complex_hermitian"]), "frac"),
        "dual_eig.orthogonalize_frac": (
            share(["dual_eig.orthogonalize_eigenvectors"]), "frac"),
        "dual_eig.eddcam_self_frac": (share(["dual_eig.eddcam_ea"]), "frac"),
        "dual_eig.gs_candidates": (candidates, "count"),
        "dual_eig.gs_kept_frac": (
            sum(g["kept"] for g in gs) / candidates if candidates else 0.0, "frac"),
        "dual_eig.groups": (len(gs), "count"),
        "dual_eig.max_group": (max((g["candidates"] for g in gs), default=0), "count"),
        "ratio.eddcam_over_eigh": (
            statistics.median(eddcam) if eddcam else 0.0, "x"),
        "cli.load_matrix_frac": (share(["cli.load_matrix"]), "frac"),
        "cli.output_self_frac": (cli_self / solve_s, "frac"),
        "cli.input_mb": (
            statistics.fmean(o.extra["input_mb"] for o in cli) if cli else 0.0, "MB"),
        "cli.output_mb": (
            statistics.fmean(o.extra["output_mb"] for o in cli) if cli else 0.0, "MB"),
        "bench.random_graph_frac": (share(["bench.random_graph"], setup_s), "frac"),
        "bench.build_laplacian_frac": (share(["bench.build_laplacian"], setup_s), "frac"),
        "bench.random_hermitian_frac": (share(["bench.random_hermitian"], setup_s), "frac"),
        "bench.synth_known_spectrum_frac": (
            share(["bench.synth_known_spectrum"], setup_s), "frac"),
        "bench.save_matrix_frac": (share(["cli.save_matrix"], setup_s), "frac"),
    })
    for n in FLOOR_SIZES:
        f = floors[n]
        metrics[f"floor.dual_matvec_us.n{n}"] = (f["dual_matvec_s"] * 1e6, "us")
        metrics[f"floor.eigh_s.n{n}"] = (f["eigh_s"], "s")
        metrics[f"computed.dual_matvec_flop.n{n}"] = (f["dual_matvec_flop"], "flop")
        metrics[f"computed.dual_matvec_bytes.n{n}"] = (f["dual_matvec_bytes"], "B")
        metrics[f"computed.eigh_flop.n{n}"] = (f["eigh_flop"], "flop")
        metrics[f"computed.eigh_bytes.n{n}"] = (f["eigh_bytes"], "B")
    metrics["trace.overhead_frac"] = (
        sum(o.seconds for o in traced) / plain_s - 1.0, "frac")
    metrics["trace.spans"] = (len(rows), "count")

    detail = {
        "solve_s_traced": solve_s,
        "setup_s_traced": setup_s,
        "layer_self_s": dict(sorted(self_s.items())),
        "layer_calls": dict(sorted(calls.items())),
        "floors": floors,
        "ratio_bases": {
            "ratio.over_matvec.*": "iterations x raw dual matvec at the solve's n, "
                                   "timed around the untraced solve",
            "ratio.eddcam_over_eigh": "bare eigh at the solve's n, timed around the "
                                      "untraced solve",
        },
        "solvers_untraced": solver_stats(plain, sorted(by_solver)),
    }
    return metrics, detail


def write_report(path, args, env, result, detail):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"args": args, "env": env, "result": result, "detail": detail}, fh,
                  indent=1, default=str)
