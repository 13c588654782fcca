"""needlecomp benchmark.

    python3 perfbench/run.py --workload {cli_cold,family_sweep,needle_grid} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  needlecomp is imported from the checkout's
src/.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics of the traced run with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import tomllib
from pathlib import Path

import cases
import hostspeed
import oracles
import tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("cli_cold", "family_sweep", "needle_grid")

# Set-ups per run: each segment sets up afresh and then runs its share of the
# passes, so setup_s is the median of SEGMENTS measurements.
SEGMENTS = 3
# Wall seconds of one pass on the host described in README.md.  They only turn
# --seconds into a fixed number of whole passes; no run reads the clock to
# decide how much to do.
NOMINAL_PASS_S = {"cli_cold": 6.2, "family_sweep": 2.0, "needle_grid": 0.67}
# op_tail_ms needs at least ten operations beyond the percentile it reports.
MIN_OPS = 40
WORKER_TIMEOUT_S = 150.0
CLI_TIMEOUT_S = 30.0
IMPORT_PROFILES = 3


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, a child crashed or hung)."""


def child_env(**extra) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def run_child(argv, timeout: float, cwd: Path, env=None):
    """Run one child to completion; return (exit code, stdout, stderr, peak RSS MB)."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env or child_env(), stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(), err.read().decode(),
                usage.ru_maxrss / 1024.0)


def passes_for(workload: str, seconds: int, ops_per_pass: int) -> int:
    passes = max(math.ceil(seconds / NOMINAL_PASS_S[workload]),
                 math.ceil(MIN_OPS / ops_per_pass))
    return SEGMENTS * math.ceil(passes / SEGMENTS)


# ----------------------------------------------------------------- outputs

def parse_number(text: str):
    if text in ("", None):
        return None
    if text in ("true", "false"):
        return text == "true"
    return float(text)


NEEDLE_STATEMENTS = ("cd-density", "sturm", "ratio")


def _row(fields: dict) -> dict:
    return {"statement": fields["statement"], "t": parse_number(fields.get("t", "")),
            "lhs": parse_number(fields.get("lhs", "")), "rhs": parse_number(fields.get("rhs", "")),
            "equality": parse_number(fields.get("equality", ""))}


def parse_csv(text: str) -> list[dict]:
    """Summary rows (and the needle-check rows) of a CSV artifact."""
    return [_row(fields) for fields in csv.DictReader(io.StringIO(text))
            if fields["statement"] in NEEDLE_STATEMENTS or not fields["H_plus"]]


def parse_report(text: str) -> tuple[list[dict], list[str]]:
    """(summary rows, names of checks reported FAIL) of a report artifact."""
    rows, failed = [], []
    for line in text.splitlines():
        match = re.match(r"check (\S+): (PASS|FAIL)$", line)
        if match and match.group(2) == "FAIL":
            failed.append(match.group(1))
        if line.startswith("  statement="):
            fields = dict(token.split("=", 1) for token in line.split())
            if fields["kind"] == "summary" or fields["statement"] in NEEDLE_STATEMENTS:
                rows.append(_row(fields))
    return rows, failed


def read_config(path: Path) -> dict:
    """Sections of a shipped configuration file (full-line comments only)."""
    sections, current = {}, None
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            current = sections.setdefault(line.strip("[]"), {})
        else:
            key, _, value = line.partition("=")
            current[key.strip()] = value.strip()
    return sections


def shipped_case(sections: dict) -> tuple[dict, list[str], list[float], str]:
    """(case, checks, t_values, format) of a shipped configuration."""
    geometry = dict(sections["geometry"])
    case = {"kind": geometry.pop("kind"), "r0": float(sections["surface"]["r0"])}
    if geometry.pop("density", "model") != "model":
        raise BenchmarkError("only model densities have closed forms here")
    for key, value in geometry.items():
        case[key] = int(value) if key == "n" else float(value)
    run = sections["run"]
    checks = [c.strip() for c in run["checks"].split(",")]
    t_values = [float(t) for t in run.get("t_values", "").split(",") if t.strip()]
    return case, checks, t_values, sections.get("output", {}).get("format", "report")


# --------------------------------------------------------------- cli_cold

def cli_command(args) -> list[str]:
    return [sys.executable, "-m", "needlecomp.cli", *args]


def cli_segment(ops, passes: int) -> dict:
    # The children inherit this CPU, so the samples this process takes while
    # it waits for a child measure the speed of the CPU the child runs on.
    # Sampling as often as in-process would take a tenth of that CPU from the
    # child, so this clock samples four times less often.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    clock = hostspeed.Clock(interval_s=4 * hostspeed.SAMPLE_INTERVAL_S)

    def setup():
        warm = run_child(cli_command(("version",)), CLI_TIMEOUT_S, ROOT)
        if warm[0] != 0:
            raise BenchmarkError(f"needlecomp version failed: {warm[2].strip()[-500:]}")
        return Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))

    tmp, setup_raw, setup_norm = clock.time(setup)
    raw, norm, outputs, rss = [], [], [], []
    for _ in range(passes):
        for op in ops:
            args = [arg.replace("{tmp}", str(tmp)) for arg in op]
            (code, out, err, peak), seconds, normalized = clock.time(
                run_child, cli_command(args), CLI_TIMEOUT_S, ROOT)
            raw.append(seconds * 1e3)
            norm.append(normalized * 1e3)
            rss.append(peak)
            artifact = None
            if op[0] == "run":
                target = Path(args[3])
                artifact = target.read_text() if target.exists() else None
            outputs.append({"op": list(op), "code": code, "stdout": out,
                            "stderr": err[-2000:], "artifact": artifact})
    shutil.rmtree(tmp, ignore_errors=True)
    return {"setup_raw_s": setup_raw, "setup_norm_s": setup_norm, "op_raw_ms": raw,
            "op_norm_ms": norm, "peak_rss_mb": max(rss), "outputs": outputs}


def verify_cli(outputs) -> list[str]:
    """Check every cli_cold operation against its closed form."""
    version = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["version"]
    errors = []
    for out in outputs:
        op = out["op"]
        label = " ".join(op)
        if out["code"] != 0:
            errors.append(f"{label}: exit {out['code']}: {out['stdout'][-300:]} {out['stderr'][-300:]}")
            continue
        if op[0] == "version":
            if out["stdout"] != f"needlecomp {version}\n":
                errors.append(f"version printed {out['stdout']!r}, pyproject says {version}")
        elif op[0] == "profile":
            if not oracles.close(float(out["stdout"]), math.sqrt(0.5 * 0.5), 1e-9):
                errors.append(f"profile printed {out['stdout']!r}, expected 0.5")
        elif op[0] == "jacobian":
            if not oracles.close(float(out["stdout"]), 1.5, 1e-12):
                errors.append(f"jacobian printed {out['stdout']!r}, expected 1.5")
        else:
            case, checks, t_values, fmt = shipped_case(read_config(ROOT / op[1]))
            if out["artifact"] is None:
                errors.append(f"{label}: no output file")
                continue
            if fmt == "csv":
                rows, failed = parse_csv(out["artifact"]), []
            else:
                rows, failed = parse_report(out["artifact"])
            errors += [f"{label}: check {name} reported FAIL" for name in failed]
            errors += [f"{label}: {e}" for e in oracles.check_rows(case, checks, t_values, rows)]
    return errors


# ---------------------------------------------------- in-process workloads

FAULT_LINE = re.compile(r"FAIL check=corollaries reason=InequalityViolation: "
                        r"corollary-diameter: lhs \S+ exceeds rhs \S+ beyond slack; "
                        r"this indicates a software defect\n")


def family_request(seed: int, tmp: Path) -> dict:
    ops = cases.family_ops(seed)
    return {"ops": ops, "tmp": str(tmp),
            "texts": [cases.config_text(op, f"{tmp}/op{i}.csv") for i, op in enumerate(ops)]}


def needle_request(seed: int) -> dict:
    return {"cases": cases.needle_cases(seed), "ops": cases.needle_ops()}


def verify_family(ops, outputs) -> tuple[list[str], int]:
    """Oracle check of one pass; returns (errors, failed operations)."""
    errors, failed = [], 0
    for op, out in zip(ops, outputs):
        label = f"{op['case']}"
        if out["code"] != 0:
            if op["predicted_fault"] and FAULT_LINE.fullmatch(out["stdout"]):
                failed += 1
            else:
                errors.append(f"{label}: unexpected failure, exit {out['code']}: "
                              f"{out['stdout'][-400:]}")
                continue
        errors += [f"{label}: {e}" for e in
                   oracles.check_rows(op["case"], op["checks"], op["t_values"],
                                      parse_csv(out["csv"]))]
    return errors, failed


def verify_needle(request, outputs, violations=None) -> list[str]:
    errors = []
    for op, (passed, worst) in zip(request["ops"], outputs):
        if not passed or not worst <= oracles.INEQ_SLACK:
            errors.append(f"{op['check']} G={op['grid']} on {request['cases'][op['case']]}: "
                          f"passed={passed} worst={worst!r}")
    for case, found in zip(request["cases"], violations or []):
        for check, (passed, worst) in found.items():
            if passed or not worst > oracles.INEQ_SLACK:
                errors.append(f"{check} did not flag the violated bound on {case}: "
                              f"passed={passed} worst={worst!r}")
    return errors


def worker(request: dict, name: str) -> dict:
    request_path = OUT / f"{name}.request.json"
    result_path = OUT / f"{name}.result.json"
    request["result"] = str(result_path)
    request_path.write_text(json.dumps(request))
    result_path.unlink(missing_ok=True)
    code, out, err, _ = run_child([sys.executable, str(ROOT / "perfbench" / "worker.py"),
                                   str(request_path)], WORKER_TIMEOUT_S, ROOT)
    if code != 0 or not result_path.exists():
        raise BenchmarkError(f"worker exited {code}: {err.strip()[-1500:]}")
    result = json.loads(result_path.read_text())
    request_path.unlink()
    result_path.unlink()
    return result


def inprocess_segments(workload: str, seed: int, seconds: int):
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        request = family_request(seed, tmp) if workload == "family_sweep" else needle_request(seed)
        passes = passes_for(workload, seconds, len(request["ops"]))
        request.update(mode="timed", workload=workload, passes=passes // SEGMENTS)
        segments = [worker(request, f"{workload}-{seed}-{i}") for i in range(SEGMENTS)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    errors, failed = [], 0
    first = segments[0]["outputs"]
    for segment in segments:
        if segment["mismatched"] or segment["outputs"] != first:
            errors.append("outputs differ between passes of identical operations")
    if workload == "family_sweep":
        errors_pass, failed_pass = verify_family(request["ops"], first)
        errors += errors_pass
        failed = failed_pass * passes
    else:
        for segment in segments:
            errors += verify_needle(request, segment["outputs"], segment["violations"])
    return segments, errors, failed


# ---------------------------------------------------------------- reports

def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    if workload == "cli_cold":
        ops = cases.cli_ops(seed)
        passes = passes_for(workload, seconds, len(ops))
        segments = [cli_segment(ops, passes // SEGMENTS) for _ in range(SEGMENTS)]
        errors, failed = verify_cli([o for s in segments for o in s["outputs"]]), 0
    else:
        segments, errors, failed = inprocess_segments(workload, seed, seconds)
    norm = [v for s in segments for v in s["op_norm_ms"]]
    raw = [v for s in segments for v in s["op_raw_ms"]]
    summary, raw_summary = hostspeed.percentile_summary(norm), hostspeed.percentile_summary(raw)
    setups = [s["setup_norm_s"] for s in segments]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (summary["median"], "ms"),
        "op_tail_ms": (summary["tail"], "ms"),
        "ops_per_s": (len(norm) / (sum(norm) / 1e3), "1/s"),
        "peak_rss_mb": (max(s["peak_rss_mb"] for s in segments), "MB"),
    }
    raw_metrics = {
        "setup_s": statistics.median(s["setup_raw_s"] for s in segments),
        "op_p50_ms": raw_summary["median"], "op_tail_ms": raw_summary["tail"],
        "ops_per_s": len(raw) / (sum(raw) / 1e3),
    }
    print(f"workload {workload} seed {seed}: {len(norm)} operations in {SEGMENTS} segments, "
          f"{failed} failed; op_tail_ms is the {summary['tail_percentile']:.1f}th percentile")
    for name, (value, unit) in metrics.items():
        raw_note = f"  (raw {raw_metrics[name]:.6g})" if name in raw_metrics else ""
        print(f"  {name:<12} {value:.6g} {unit}{raw_note}")
    print("  set-ups (s, normalized / raw): " + ", ".join(
        f"{s['setup_norm_s']:.4g} / {s['setup_raw_s']:.4g}" for s in segments))
    for error in errors[:20]:
        print(f"  WRONG: {error}")
    result = {"correct": not errors, "attempted": len(norm), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, {"raw": raw_metrics, "setups_norm_s": setups,
                    "tail_percentile": summary["tail_percentile"], "errors": errors}


def import_profile() -> dict[str, float]:
    """Import times (ms) of needlecomp, and of scipy and numpy modules inside it,
    from PYTHONPROFILEIMPORTTIME in a fresh child."""
    code, out, err, _ = run_child([sys.executable, "-c", "import needlecomp"], CLI_TIMEOUT_S,
                                  ROOT, env=child_env(PYTHONPROFILEIMPORTTIME="1"))
    if code != 0:
        raise BenchmarkError(f"import needlecomp failed: {err.strip()[-500:]}")
    totals = {"import.needlecomp_ms": 0.0, "import.scipy_ms": 0.0, "import.numpy_ms": 0.0}
    for line in err.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$", line)
        if not match:
            continue
        self_us, cumulative_us, module = int(match.group(1)), int(match.group(2)), match.group(4)
        if module == "needlecomp":
            totals["import.needlecomp_ms"] = cumulative_us / 1e3
        for package in ("scipy", "numpy"):
            if module == package or module.startswith(package + "."):
                totals[f"import.{package}_ms"] += self_us / 1e3
    return totals


EVALUATED_LAYER = {count: layer for layer, count in tracer.EVAL_COUNTERS.items()}


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    spans = OUT / f"trace-{seed}.jsonl"
    spans.unlink(missing_ok=True)
    imports = [import_profile() for _ in range(IMPORT_PROFILES)]
    tmp = Path(tempfile.mkdtemp(prefix="trace-", dir=OUT))
    try:
        family, needle = family_request(seed, tmp), needle_request(seed)
        result = worker({"mode": "trace", "family_sweep": family, "needle_grid": needle,
                         "spans": str(spans)}, f"trace-{seed}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    errors, family_failed = verify_family(family["ops"], result["outputs"]["family_sweep"])
    errors += verify_needle(needle, result["outputs"]["needle_grid"])
    first, second = result["runs"]
    metrics = {name: statistics.median(i[name] for i in imports) for name in imports[0]}
    absent = set(result["absent"])
    for metric, workloads in tracer.METRICS.items():
        metrics[metric] = sum(first[w]["metrics"][metric] for w in workloads)
        layer = EVALUATED_LAYER.get(metric) or metric.rsplit(".", 1)[0]
        if not metric.endswith("_ms"):
            for w in tracer.METRICS[metric]:
                if first[w]["metrics"][metric] != second[w]["metrics"][metric]:
                    errors.append(f"{metric} on {w}: {first[w]['metrics'][metric]} then "
                                  f"{second[w]['metrics'][metric]} in two traced runs")
        for w in workloads:
            if (first[w]["metrics"][metric] <= 0 and layer not in absent
                    and metric not in tracer.MAY_READ_ZERO):
                errors.append(f"{metric} reads {first[w]['metrics'][metric]} on {w}")
    if metrics["import.needlecomp_ms"] <= 0:
        errors.append("import.needlecomp_ms not found in the import profile")
    traced_ms = sum(first[w]["norm_ms"] for w in first)
    untraced_ms = sum(result["untraced_norm_ms"].values())
    metrics["trace.overhead_pct"] = 100.0 * (traced_ms / untraced_ms - 1.0)

    print(f"traced run, seed {seed}: {result['bindings']} bindings wrapped; "
          f"absent layers: {sorted(absent) or 'none'}; spans in {spans.relative_to(ROOT)}")
    print(f"  {'metric':<44} {'family_sweep':>14} {'needle_grid':>14}")
    for metric in tracer.METRICS:
        print(f"  {metric:<44} {first['family_sweep']['metrics'][metric]:>14.6g} "
              f"{first['needle_grid']['metrics'][metric]:>14.6g}")
    for name in imports[0]:
        print(f"  {name:<44} {metrics[name]:>14.6g}")
    print(f"  trace.overhead_pct {metrics['trace.overhead_pct']:.4g} "
          f"(traced {traced_ms:.1f} ms vs untraced {untraced_ms:.1f} ms, normalized)")
    for error in errors[:20]:
        print(f"  WRONG: {error}")

    # attempted/failed count the requested workload's operations in this run:
    # cold imports for cli_cold, the three segments of the in-process ones.
    if workload == "cli_cold":
        attempted, failed = IMPORT_PROFILES, 0
    else:
        attempted = 3 * len(family["ops"] if workload == "family_sweep" else needle["ops"])
        failed = 3 * family_failed if workload == "family_sweep" else 0
    units = {"calls": "count", "raised": "count", "evals": "count"}
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value,
                                 "unit": "%" if name.endswith("_pct") else
                                 units.get(re.split(r"[._]", name)[-1], "ms")}
                          for name, value in metrics.items()}}
    return result, {"per_workload": {w: first[w]["metrics"] for w in first}, "errors": errors}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "needlecomp" / "__init__.py").is_file():
        print(f"no needlecomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        # Byte-compile the program once, so that no timed import compiles.
        build = run_child([sys.executable, "-m", "compileall", "-q", "src"], 600.0, ROOT)
        if build[0] != 0:
            raise BenchmarkError(f"compileall failed: {build[1][-500:]}")
        if args.trace:
            result, details = traced_run(args.workload, args.seed)
        else:
            result, details = end_to_end(args.workload, args.seed, args.seconds)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    kind = "trace" if args.trace else "result"
    (OUT / f"{kind}-{args.workload}-{args.seed}.json").write_text(
        json.dumps({"result": result, **details}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
