"""Worker process of the in-process workloads and of the traced run.

    python3 perfbench/worker.py <request.json>

The request names the mode, the workload inputs and where to write the result.
Only the standard library and the benchmark's own stdlib-only modules are
imported before set-up is timed, so set-up time covers importing needlecomp
and everything it imports.  The worker imports no scipy or numpy of
its own: the oracles run in the parent process, so this process's imports and
peak memory are the program's.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import needlecomp from the checkout's src/ and return its modules."""
    from needlecomp import cli, geometry, model1d, needle
    src = (ROOT / "src").resolve()
    if Path(cli.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"needlecomp imported from {cli.__file__}, not from {src}")
    return cli, geometry, model1d, needle


class FamilySweep:
    """Each operation parses one configuration and runs it, writing CSV."""

    def __init__(self, program, request):
        self.cli = program[0]
        self.texts = request["texts"]
        self.paths = [f"{request['tmp']}/op{i}.csv" for i in range(len(self.texts))]
        self.size = len(self.texts)

    def setup(self):
        pass

    def op(self, index):
        stdout = io.StringIO()
        config = self.cli.parse_config(self.texts[index])
        with contextlib.redirect_stdout(stdout):
            code = self.cli.run(config)
        return code, stdout

    def output(self, index, result):
        code, stdout = result
        return {"code": code, "stdout": stdout.getvalue(),
                "csv": Path(self.paths[index]).read_text()}


def sturm_sweep(needle_mod, profile, N: float, kappa: float, grid: int):
    """The ten-base-point comparison sweep that `needlecomp run` performs."""
    u = profile.power(1.0 / (N - 1.0))
    worst, ok = -math.inf, True
    for j in range(10):
        r0 = u.a + (u.b - u.a) * (j + 1.0) / 11.0
        report = needle_mod.sturm_bound_check(u, kappa, r0, grid_size=grid)
        worst = max(worst, report.max_excess)
        ok = ok and report.passed
    return [ok, worst]


class NeedleGrid:
    """Each operation is one needle check on a decomposition built in set-up."""

    def __init__(self, program, request):
        self.geometry, self.model1d, self.needle = program[1], program[2], program[3]
        self.cases = request["cases"]
        self.ops = request["ops"]
        self.size = len(self.ops)
        self.decs = []

    def _decompose(self, case):
        g, m = self.geometry, self.model1d
        kind = case["kind"]
        if kind == "round-sphere":
            geom = g.RoundSphere(case["n"], case["radius"])
        elif kind == "euclidean-ball":
            geom = g.EuclideanBall(case["n"], case["R"])
        elif kind == "spherical-suspension":
            geom = g.SphericalSuspension(m.CurvatureDimension(case["K"], case["N"]),
                                         case["base_volume"])
        else:
            geom = g.model_interval(m.CurvatureDimension(case["K"], case["N"]),
                                    length=case["length"])
        surface = (g.LevelPoint if kind == "weighted-interval" else g.GeodesicSphere)(case["r0"])
        return g.decompose(geom, surface)

    def setup(self):
        self.decs = [self._decompose(case) for case in self.cases]

    def run_check(self, dec, check, grid, K=None):
        """One check on the decomposition's needle; K overrides the curvature bound."""
        cd = dec.cd if K is None else self.model1d.CurvatureDimension(K, dec.cd.N)
        needle = dec.needles[0]
        if check == "cd-density":
            report = self.needle.check_cd_density(needle.profile, cd, grid)
            return [report.passed, report.worst_violation]
        if check == "sturm":
            return sturm_sweep(self.needle, needle.profile, cd.N, cd.K / (cd.N - 1.0), grid)
        report = self.needle.density_ratio_check(needle, cd, grid_size=grid)
        return [report.passed, report.max_excess]

    def op(self, index):
        op = self.ops[index]
        return self.run_check(self.decs[op["case"]], op["check"], op["grid"])

    def output(self, index, result):
        return result

    def violations(self):
        """Each needle against a curvature bound it does not satisfy: 2K, or
        K = 1 for the flat ball.  cd-density and sturm must both fail."""
        out = []
        for dec in self.decs:
            K = 2.0 * dec.cd.K if dec.cd.K > 0.0 else 1.0
            out.append({check: self.run_check(dec, check, 24, K=K)
                        for check in ("cd-density", "sturm")})
        return out


WORKLOADS = {"family_sweep": FamilySweep, "needle_grid": NeedleGrid}


def run_passes(workload, clock, passes, on_op=None):
    """Time `passes` whole passes; keep pass-0 outputs, compare later passes.
    Returns (raw and normalized ms per operation, pass-0 outputs, indices
    that differed)."""
    raw, norm, outputs, mismatched = [], [], [], []
    for p in range(passes):
        for index in range(workload.size):
            if on_op is not None:
                on_op(index)
            result, seconds, normalized = clock.time(workload.op, index)
            raw.append(seconds * 1e3)
            norm.append(normalized * 1e3)
            out = workload.output(index, result)
            if p == 0:
                outputs.append(out)
            elif out != outputs[index]:
                mismatched.append(index)
    return raw, norm, outputs, mismatched


def timed(request):
    clock = hostspeed.Clock()

    def setup():
        workload = WORKLOADS[request["workload"]](import_program(), request)
        workload.setup()
        for index in range(workload.size):  # warm-up pass
            workload.output(index, workload.op(index))
        return workload

    workload, setup_raw, setup_norm = clock.time(setup)
    raw, norm, outputs, mismatched = run_passes(workload, clock, request["passes"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"setup_raw_s": setup_raw, "setup_norm_s": setup_norm, "op_raw_ms": raw,
              "op_norm_ms": norm, "peak_rss_mb": peak_rss_mb, "outputs": outputs,
              "mismatched": mismatched}
    if isinstance(workload, NeedleGrid):
        result["violations"] = workload.violations()
    return result


def traced(request):
    """Untraced segments, then two traced ones, of each in-process workload.

    A segment is the workload's set-up (building its decompositions) and one
    pass.  The per-layer figures come from the first traced segment; the second
    must repeat its counts exactly.  The clock samples ten times less often
    than in timed runs, since its samples land inside the spans.
    """
    import tracer

    program = import_program()
    workloads = {name: WORKLOADS[name](program, request[name]) for name in WORKLOADS}
    clock = hostspeed.Clock(interval_s=10 * hostspeed.SAMPLE_INTERVAL_S)

    def segment(name, on_op=None):
        workload = workloads[name]
        workload.setup()
        raw, norm, outputs, _ = run_passes(workload, clock, 1, on_op)
        return sum(norm), outputs

    untraced = {name: segment(name) for name in workloads}
    spy = tracer.Tracer()
    bindings = spy.install()
    runs = []
    for attempt in range(2):
        per_workload = {}
        for name in workloads:
            spy.reset()
            spy.op = f"{name}:setup"
            total, outputs = segment(name, lambda i, name=name: setattr(spy, "op", f"{name}:{i}"))
            if outputs != untraced[name][1]:
                raise RuntimeError(f"{name}: traced outputs differ from untraced ones")
            per_workload[name] = {"norm_ms": total, "metrics": spy.metrics()}
            if attempt == 0:
                with open(request["spans"], "a") as fh:
                    for span in spy.spans:
                        fh.write(json.dumps(span) + "\n")
        runs.append(per_workload)
    return {"untraced_norm_ms": {name: untraced[name][0] for name in workloads},
            "outputs": {name: untraced[name][1] for name in workloads},
            "runs": runs, "bindings": bindings, "absent": spy.absent}


def main(argv):
    request = json.loads(Path(argv[1]).read_text())
    result = timed(request) if request["mode"] == "timed" else traced(request)
    Path(request["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
