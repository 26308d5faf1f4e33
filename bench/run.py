"""Benchmark of the ``qes-sextic`` command, end to end and layer by layer.

    python3 bench/run.py --workload series-exact --seed 1 --seconds 30 --trace 0

Run from a source checkout; the package is imported from ``src/``.

``--trace 0`` measures end to end.  One client runs the workload's call
list as a closed loop: one ``qes-sextic`` process at a time, the next
started only after the previous one has exited.  Whole passes over the
list repeat while another pass still fits in ``--seconds``.

``--trace 1`` measures layers.  It calls ``qes_sextic.cli.main`` in this
process on one pass of the same calls, once plain and once with spans
recorded (see ``spans.py``); ``--seconds`` does not apply.  The spans go
to ``bench/out/``.

Every call's output is judged by ``check.py``, outside the timed path.
The report goes to standard output; its last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed``
counts unexpected failures only: the seed commit's known defects that
the workloads keep on purpose are reported as ``fail_ratio`` in the
report and lower ``ok_ratio``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
IMPORT_PROBES = 7
CALL_TIMEOUT_S = 60.0
# stop starting calls after this long, so a run ends well within 180 s
MEASURE_LIMIT_S = 140.0
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_s": "s",
    "call_tail_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "kac.involution_s": "s",
    "kac.conjugate_s": "s",
    "model.split_s": "s",
    "model.qes_matrix_s": "s",
    "model.general_matrix_s": "s",
    "rspt.series_s": "s",
    "rspt.energy_series_s": "s",
    "rspt.max_coeff_bits": "bits",
    "rspt.w_nonzeros": "count",
    "rspt.w_bandwidth_max": "count",
    "rspt.non_dyadic_denominators": "count",
    "exact.matmul_s": "s",
    "exact.matmul_calls": "count",
    "exact.tpoly_mul_calls": "count",
    "oracle.from_exact_s": "s",
    "oracle.bisection_s": "s",
    "oracle.sturm_counts": "count",
    "oracle.inverse_iteration_s": "s",
    "oracle.inverse_iteration_failed": "count",
    "oracle.self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# child processes

class Outcome:
    __slots__ = ("rc", "out", "err", "secs", "rss_kb", "timed_out")

    def __init__(self, rc, out, err, secs, rss_kb=0, timed_out=False):
        self.rc, self.out, self.err = rc, out, err
        self.secs, self.rss_kb, self.timed_out = secs, rss_kb, timed_out


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args, env, timeout: float) -> Outcome:
    """Run ``python <args>``; its wall time and max RSS come from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    for pipe in chunks:
        pipe.close()
    _, status, usage = os.wait4(proc.pid, 0)
    secs = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, b"".join(chunks[proc.stdout]).decode(),
                   b"".join(chunks[proc.stderr]).decode(), secs, usage.ru_maxrss,
                   timed_out)


def probe(code: str, env) -> Outcome:
    outcome = run_child(["-c", code], env, CALL_TIMEOUT_S)
    if outcome.rc != 0:
        raise RuntimeError(f"probe failed: {outcome.err.strip()[-300:]}")
    return outcome


def check_origin(env) -> None:
    """The children must import the package from this checkout."""
    where = probe("import qes_sextic.cli as c; print(c.__file__)", env).out.strip()
    if Path(where).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"qes_sextic imported from {where}, not from {SRC}")


# ---------------------------------------------------------------------------
# end to end

def run_end_to_end(calls, seconds: float, checker) -> dict:
    env = child_env()
    run_start = time.perf_counter()
    check_origin(env)  # also leaves any byte-code cache warm

    def call_job(call):
        remaining = run_start + MEASURE_LIMIT_S - time.perf_counter()
        if remaining <= 0:
            return Outcome(None, "", "", 0.0, timed_out=True)
        return run_child(["-m", "qes_sextic", *call.argv], env,
                         min(CALL_TIMEOUT_S, remaining))

    probes, probe_refs = interleaved(
        [lambda: probe("import qes_sextic.cli", env)] * SETUP_PROBES)
    setup = nominal(probes, probe_refs)

    records, walls, raw_walls, times, refs_all, measured = [], [], [], [], [], 0.0
    while True:
        pass_start = time.perf_counter()
        outcomes, refs = interleaved([lambda c=c: call_job(c) for c in calls])
        pass_s = time.perf_counter() - pass_start
        scaled = nominal(outcomes, refs)
        records += zip(calls, outcomes)
        walls.append(sum(scaled))
        raw_walls.append(sum(o.secs for o in outcomes))
        times += scaled
        refs_all += [r for batch in refs for r in batch]
        measured += pass_s
        if measured + pass_s > seconds or time.perf_counter() - run_start > MEASURE_LIMIT_S:
            break

    verdicts = judge_all(records, checker)
    times.sort()
    raw_times = sorted(o.secs for _, o in records)
    beyond = TAIL_BEYOND * len(times) // len(calls)
    tail = max(0, len(times) - beyond - 1)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "call_p50_s": statistics.median(times),
        "call_tail_s": times[tail],
        "peak_rss_mb": max(o.rss_kb for _, o in records) / 1024.0,
        "ok_ratio": verdicts.count("ok") / len(verdicts),
    }
    raw_setup = statistics.median(o.secs for o in probes)
    notes = {
        "setup_s": f"median of {SETUP_PROBES} bare-import probes; raw {raw_setup:.4f} s",
        "wall_s": f"median of {len(walls)} passes of {len(calls)} calls; "
                  f"raw {statistics.median(raw_walls):.4f} s",
        "call_p50_s": f"{len(times)} calls; raw {statistics.median(raw_times):.4f} s",
        "call_tail_s": f"p{tail_percentile(len(calls))} of {len(times)} calls; "
                       f"raw {raw_times[tail]:.4f} s",
        "peak_rss_mb": "largest child max-RSS",
        "ok_ratio": "calls that behaved as expected",
    }
    print(f"# reference task: median {statistics.median(refs_all) * 1e3:.3f} ms, "
          f"nominal {REFERENCE_NOMINAL_S * 1e3:.3f} ms")
    return {"mode": "end to end, one client, closed loop",
            "metrics": metrics, "units": END_TO_END, "notes": notes,
            "verdicts": verdicts}


# The speed of the shared machine drifts by tens of percent within
# seconds and between minutes, the same for the program and for any
# fixed piece of Python.  So after every call the harness runs a fixed
# reference task for a share REFERENCE_DUTY of the call's time, and
# reports the call's time in nominal seconds: scaled by
# REFERENCE_NOMINAL_S over the mean reference time just before and after
# it.
REFERENCE_NOMINAL_S = 0.005
REFERENCE_DUTY = 0.25
_REFERENCE_SOURCE = "def f(x):\n" + "".join(
    f"    x = x * {i} + {i} // (x or 1)\n" for i in range(60)) + "    return x\n"


def reference_s() -> float:
    """Time of a fixed task that mixes what the calls spend their time
    on: rational and float arithmetic, and compiling source."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i * i + 1)
    x = 0.0
    for i in range(30000):
        x += (i % 7) * 0.5
    compile(_REFERENCE_SOURCE, "<reference>", "exec")
    return time.perf_counter() - start


def reference_batch(count: int) -> list[float]:
    return [reference_s() for _ in range(max(2, count))]


def interleaved(jobs) -> tuple[list[Outcome], list[list[float]]]:
    """Run the jobs in turn, each followed by a batch of reference samples;
    one more batch comes before the first."""
    batches = [reference_batch(4)]
    results = []
    for job in jobs:
        results.append(job())
        batches.append(reference_batch(
            round(results[-1].secs * REFERENCE_DUTY / REFERENCE_NOMINAL_S)))
    return results, batches


def nominal(outcomes, batches) -> list[float]:
    """Times in nominal seconds; outcome i lies between batches i and i+1."""
    return [o.secs * REFERENCE_NOMINAL_S / statistics.fmean(batches[i] + batches[i + 1])
            for i, o in enumerate(outcomes)]


def tail_percentile(calls_per_pass: int) -> int:
    """Highest percentile with TAIL_BEYOND calls of a pass beyond it."""
    return 100 * (calls_per_pass - TAIL_BEYOND) // calls_per_pass


# ---------------------------------------------------------------------------
# in process, traced

def invoke(main, argv) -> tuple:
    """``main(argv)`` as the console script would run it: exit status,
    standard output, standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def timed_invoke(main, call) -> tuple:
    start = time.perf_counter()
    rc, out, err = invoke(main, call.argv)
    return call, Outcome(rc, out, err, time.perf_counter() - start)


def run_traced(calls, checker, dump: Path) -> dict:
    from spans import ROOT as ROOT_SPAN, Tracer

    env = child_env()
    check_origin(env)
    import_code = ("import time; t = time.perf_counter(); import qes_sextic.cli; "
                   "print(time.perf_counter() - t)")
    import_s = statistics.median(
        float(probe(import_code, env).out) for _ in range(IMPORT_PROBES))

    sys.path.insert(0, str(SRC))
    from qes_sextic import cli, exact, kac, oracle, rspt

    # each call runs plain, then traced, so that drift in the machine's
    # speed cancels out of the overhead ratio
    tracer = Tracer()
    traced_main = tracer.span(*ROOT_SPAN, cli.main)
    plain, traced = [], []
    for call in calls:
        plain.append(timed_invoke(cli.main, call))
        with tracer.installed(cli, rspt, oracle, kac, exact):
            traced.append(timed_invoke(traced_main, call))
    plain_s = sum(o.secs for _, o in plain)
    traced_s = sum(o.secs for _, o in traced)

    verdicts = judge_all(plain + traced, checker)
    self_s = tracer.self_times()
    structure = series_structure(tracer.results["rspt.perturbation_series"])
    metrics = {name: self_s.get(name, 0.0) for name, unit in PER_LAYER.items() if unit == "s"}
    metrics.update(structure)
    metrics.update({
        "cli.import_s": import_s,
        "exact.matmul_calls": sum(1 for s in tracer.spans if s[0] == "exact.matmul"),
        "exact.tpoly_mul_calls": tracer.count("exact.tpoly_mul"),
        "oracle.sturm_counts": tracer.count("oracle.sturm_count"),
        "oracle.inverse_iteration_failed": sum(
            1 for s in tracer.spans if s[0] == "oracle.inverse_iteration" and s[4]),
        "trace.wall_s": traced_s,
        "trace.unattributed_s": traced_s - sum(self_s.values()),
        "trace.overhead_ratio": traced_s / plain_s,
    })
    dump.parent.mkdir(exist_ok=True)
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    dump.write_text(json.dumps({
        "calls": [list(c.argv) for c in calls],
        "fields": ["name", "start_s", "end_s", "parent", "error"],
        "spans": [[n, s - origin, e - origin, p, x] for n, s, e, p, x in tracer.spans],
    }))
    notes = {
        "cli.import_s": f"median of {IMPORT_PROBES} import probes",
        "trace.wall_s": f"traced pass of {len(calls)} calls; untraced {plain_s:.4f} s",
        "trace.unattributed_s": "traced wall minus all self times",
    }
    return {"mode": "in process, traced", "metrics": metrics, "units": PER_LAYER, "notes": notes,
            "verdicts": verdicts}


def series_structure(results) -> dict:
    """Size and shape of the exact numbers in every SeriesResult."""
    bits = nonzeros = band = non_dyadic = 0
    for result in results:
        polys = [p for row in result.eps for p in row]
        for w in result.w:
            for i, row in enumerate(w.rows):
                for j, entry in enumerate(row):
                    if not entry.is_zero:
                        nonzeros += 1
                        band = max(band, abs(i - j))
                        polys.append(entry)
        for poly in polys:
            for c in poly.coeffs:
                bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
                non_dyadic += c.denominator & (c.denominator - 1) != 0
    return {
        "rspt.max_coeff_bits": bits,
        "rspt.w_nonzeros": nonzeros,
        "rspt.w_bandwidth_max": band,
        "rspt.non_dyadic_denominators": non_dyadic,
    }


# ---------------------------------------------------------------------------
# reporting

def judge_all(records, checker) -> list[str]:
    verdicts = []
    for call, o in records:
        verdict, reason = checker.judge(call, o.rc, o.out, o.err, o.timed_out)
        if verdict == "fail":
            print(f"FAIL {' '.join(call.argv)}: {reason}", file=sys.stderr)
        verdicts.append(verdict)
    return verdicts


def report(workload: str, seed: int, result: dict) -> dict:
    verdicts = result["verdicts"]
    attempted = len(verdicts)
    failed = verdicts.count("fail")
    defects = verdicts.count("defect")
    print(f"# workload {workload}  seed {seed}  {result['mode']}")
    for name, value in result["metrics"].items():
        unit = result["units"][name]
        note = result["notes"].get(name, "")
        print(f"{name:32s} {value:14.6g} {unit:6s} {note}")
    print(f"{'fail_ratio':32s} {(failed + defects) / attempted:14.6g} {'ratio':6s} "
          f"{failed + defects} of {attempted} calls: {defects} known seed defects, "
          f"{failed} unexpected")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS, calls

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                        help="one workload, or all of them in both modes")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qes_sextic" / "cli.py").is_file():
        print(f"error: no qes_sextic sources under {SRC}", file=sys.stderr)
        return 2
    try:
        from check import Checker
    except ImportError as exc:
        print(f"error: the checker needs numpy: {exc}", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    for workload, traced in runs:
        call_list = calls(workload, args.seed)
        try:
            if traced:
                dump = BENCH / "out" / f"trace-{workload}-{args.seed}.json"
                result = run_traced(call_list, Checker(), dump)
            else:
                result = run_end_to_end(call_list, args.seconds, Checker())
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(report(workload, args.seed, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
