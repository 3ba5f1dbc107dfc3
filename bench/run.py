"""kreincalc benchmark: planted definitizable pairs through the whole pipeline.

    python3 bench/run.py --workload {calc16,critical,cli} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout that has ``src/kreincalc`` and
``tests/fixtures``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe each metric and list every failed request.

With ``--trace 0`` a closed loop with one client runs requests for ``S``
seconds, untraced, and reports the end-to-end metrics; their times are
scaled to a reference machine speed by the probes in ``probe.py``.  With ``--trace 1`` a
fixed number of requests (the first ones of the seed) runs once untraced and
once under ``tracing.Tracer``, and the per-layer metrics are reported per
request; their counts repeat exactly for a fixed seed.

Every result is checked against a reference planted in the model basis
(``planted.py``) or, for CLI fixtures, against the documented exit code.  A
request fails when it raises, returns the wrong exit code, or misses its
reference by more than CHECK_TOL; failures are counted in ``failed`` and
listed, and ``correct`` is true only when no request failed.  The workloads
draw from pools on which no request failed at the commit that added this
benchmark; the known defects are measured by the hard panel of the traced
run (``planted.hard_cases``), whose failures are listed and counted in the
``hard.failed`` metric, not in ``failed``.
"""

import os

# BLAS threads are fixed for this process and every child before numpy loads;
# at n <= 16 threading gains nothing and only adds run-to-run noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
WORK = ROOT / ".bench_out"

CHECK_TOL = 1e-6        # relative Frobenius error allowed against a reference
SETUP_REPS = 11         # fresh interpreters timed for setup_s
IMPORTTIME_REPS = 3     # fresh interpreters parsed for the import.* metrics
WARMUP = 3              # untimed requests before a loop
TRACE_REQUESTS = {"calc16": 220, "critical": 220, "cli": 20}
TRACE_CHUNK = 5         # requests run untraced, then traced, in turn
# probe kind, one probe after every k-th request, and the half width (in
# requests) of the window whose probe median scales a request time; see probe.py
PROBES = {"calc16": ("compute", 1, 4), "critical": ("compute", 1, 4),
          "cli": ("import", 2, 3), "setup": ("import", 1, 1)}
CHILD_TIMEOUT = 120.0

COMMANDS = ("spectrum", "adjoint", "definitize", "factorize", "theta", "xi",
            "rational-apply", "calculus", "project", "norm-f")

# (command, fixture, expected exit code), as documented by the CLI tests
FIXTURE_RUNS = [
    ("definitize", "running.json", 0),
    ("project", "running.json", 0),
    ("calculus", "running.json", 0),
    ("norm-f", "running.json", 0),
    ("adjoint", "running.json", 0),
    ("spectrum", "pencil.json", 0),
    ("rational-apply", "running_rational.json", 0),
    ("theta", "running_rational.json", 0),
    ("xi", "degenerate.json", 0),
    ("factorize", "mul.json", 0),
    ("definitize", "err_bad_json.json", 2),
    ("spectrum", "err_ragged.json", 2),
    ("calculus", "err_bad_label.json", 2),
    ("definitize", "err_pole_on_spectrum.json", 3),
    ("definitize", "err_not_selfadjoint.json", 3),
    ("definitize", "err_not_positive.json", 3),
    ("project", "err_unknown_delta.json", 3),
    ("definitize", "err_inconsistency.json", 4),
]
CLI_SOURCES = ("calc16", "critical")
CLI_POOL = 200          # first pool cases of each source that CLI problems come from
CLI_PER_COMMAND = 2     # generated problems per command and source in a run


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, capture=False, check=True) -> subprocess.CompletedProcess:
    """Run one child with PYTHONPATH=src and wait for it to end.

    subprocess polls with sleeps of up to 50 ms when it is given a timeout,
    which would round every child's time up to the next sleep; here the wait
    blocks, and a timer kills a child still running after CHILD_TIMEOUT.
    """
    pipe = subprocess.PIPE if capture else None
    with subprocess.Popen(argv, env=child_env(), stdout=pipe, stderr=pipe, text=True) as proc:
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    if check and proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, argv, out, err)
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


# -- outcomes ------------------------------------------------------------------


class Outcome:
    """One request: its wall time, whether its result was right, and why not."""

    __slots__ = ("seconds", "ok", "detail")

    def __init__(self, seconds, ok, detail=""):
        self.seconds = seconds
        self.ok = ok
        self.detail = detail


def rel_error(got, want) -> float:
    import numpy as np

    got = np.asarray(got, dtype=complex)
    if got.shape != want.shape:
        return float("inf")
    return float(np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)))


def raised_in(exc) -> str:
    """module.function of the deepest kreincalc frame the exception passed."""
    where = "?"
    for frame in traceback.extract_tb(exc.__traceback__):
        path = Path(frame.filename)
        if path.parent.name == "kreincalc":
            where = f"{path.stem}.{frame.name}"
    return where


# -- in-process workloads: calc16 and critical ------------------------------------


class InProcess:
    """verify -> factorize -> calculus on planted jets -> two projections."""

    def __init__(self, name, seed):
        import kreincalc

        self.kc = kreincalc
        self.name = name
        self.seed = seed

    def case(self, index):
        import planted

        return planted.request_case(self.name, self.seed, index)

    def _point(self, p):
        return self.kc.INF if p == "inf" else p

    def _solve(self, case, stage):
        kc = self.kc
        stage[0] = "verify"
        space = kc.GramSpace(case.gram)
        rel = kc.LinearRelation.from_graph_columns(case.x, case.y)
        q = kc.RationalFunction(kc.Polynomial(case.q_num), kc.Polynomial(case.q_den))
        pair = kc.verify_definitizing(space, rel, q)
        stage[0] = "factorize"
        fact = kc.gram_factorize(pair)
        stage[0] = "calculus"
        phi = kc.JetFunction.from_points(pair, {self._point(p): j for p, j in case.jets.items()})
        r_matrix = kc.apply_calculus(fact, phi)
        stage[0] = "projection"
        delta_proj = kc.spectral_projection(fact, [self._point(p) for p in case.delta])
        stage[0] = "complement"
        rest_proj = kc.spectral_projection(fact, [self._point(p) for p in case.rest])
        return r_matrix, delta_proj, rest_proj

    def run(self, case, tracer=None) -> Outcome:
        stage = ["?"]
        start = time.perf_counter()
        try:
            if tracer is None:
                out = self._solve(case, stage)
            else:
                out = tracer.request(self._solve, case, stage)
        except Exception as exc:
            seconds = time.perf_counter() - start
            kind = exc.code if isinstance(exc, self.kc.KreinCalcError) else f"raw {type(exc).__name__}"
            return Outcome(seconds, False, f"stage={stage[0]} raised_in={raised_in(exc)} "
                                           f"error={kind}: {exc}")
        seconds = time.perf_counter() - start
        errors = {
            "calculus": rel_error(out[0], case.r_matrix),
            "projection": rel_error(out[1], case.delta_proj),
            "complement": rel_error(out[2], case.rest_proj),
        }
        worst = max(errors, key=errors.get)
        if errors[worst] > CHECK_TOL:
            return Outcome(seconds, False, f"stage={worst} wrong result: residual {errors[worst]:.2e} "
                                           f"> {CHECK_TOL:.0e}")
        return Outcome(seconds, True)

    def run_traced(self, cases):
        from tracing import Tracer

        tracer = Tracer()
        with tracer:
            outcomes = [self.run(case, tracer) for case in cases]
        return outcomes, [tracer.totals()]


# -- the CLI workload ----------------------------------------------------------------


def _enc_scalar(z):
    z = complex(z)
    return [z.real, z.imag]


def _enc_point(p):
    return "inf" if p == "inf" else _enc_scalar(p)


def _enc_matrix(mat):
    return [[_enc_scalar(e) for e in row] for row in mat]


def problem_json(case, command) -> dict:
    """A problem file for one command; calculus and norm-f get the planted jets."""
    if command in ("calculus", "norm-f"):
        function = {"jets": {("inf" if p == "inf" else json.dumps(_enc_scalar(p))): [_enc_scalar(v) for v in jet]
                             for p, jet in case.jets.items()}}
    else:
        function = {"rational": {"num": [float(c) for c in case.r_num], "den": [float(c) for c in case.r_den]}}
    return {
        "gram": _enc_matrix(case.gram),
        "relation": {"X": _enc_matrix(case.x), "Y": _enc_matrix(case.y)},
        "q": {"num": [float(c) for c in case.q_num], "den": [float(c) for c in case.q_den]},
        "function": function,
        "delta": [_enc_point(p) for p in case.delta],
    }


class CliEntry:
    __slots__ = ("command", "path", "expected", "reference", "source")

    def __init__(self, command, path, expected, reference=None, source=""):
        self.command = command
        self.path = path
        self.expected = expected
        self.reference = reference
        self.source = source

    def label(self) -> str:
        return f"command={self.command} {self.source}"


def generated_entry(source, k, workdir) -> CliEntry:
    """Pool case k of `source` as a problem file for command COMMANDS[k % 10]."""
    import planted

    case = planted.MAKERS[source](planted.POOL_SEED, k)
    command = COMMANDS[k % len(COMMANDS)]
    path = workdir / f"problem-{source}-{k}.json"
    path.write_text(json.dumps(problem_json(case, command)), encoding="utf-8")
    reference = {"project": case.delta_proj, "calculus": case.r_matrix,
                 "rational-apply": case.r_matrix}.get(command)
    return CliEntry(command, path, 0, reference, case.label())


def cli_choice(source, seed) -> list[int]:
    """Pool cases of a run: the first CLI_PER_COMMAND for each command, in the
    order that the seed picks.  Each of the CLI_POOL first cases of both pools
    ran with its command at the commit that added this benchmark; only
    critical case 174, which pool_order skips, failed."""
    import planted

    taken = {command: 0 for command in range(len(COMMANDS))}
    chosen = []
    for k in planted.pool_order(source, seed, CLI_POOL):
        command = k % len(COMMANDS)
        if taken[command] < CLI_PER_COMMAND:
            taken[command] += 1
            chosen.append(k)
    return chosen


class Cli:
    """One `python -m kreincalc.cli <command> --input <file>` process per request."""

    def __init__(self, seed, workdir):
        self.dir = workdir
        fixtures = [CliEntry(cmd, FIXTURES / name, code, source=f"fixture={name}")
                    for cmd, name, code in FIXTURE_RUNS]
        generated = [[generated_entry(source, k, workdir) for k in cli_choice(source, seed)]
                     for source in CLI_SOURCES]
        # round robin over the three sources, so that every prefix of a run
        # has the same mix of fixtures, generated problems and commands
        streams = [*generated, fixtures]
        self.entries = [stream[i] for i in range(max(map(len, streams))) for stream in streams if i < len(stream)]

    def case(self, index):
        return self.entries[index % len(self.entries)]

    def run(self, entry, totals=None) -> Outcome:
        """One child process; with a totals list, a traced child appends its totals."""
        totals_path = self.dir / "totals.json"
        if totals is None:
            argv = [sys.executable, "-m", "kreincalc.cli"]
        else:
            argv = [sys.executable, str(HERE / "cli_child.py"), str(totals_path)]
        argv += [entry.command, "--input", str(entry.path)]
        start = time.perf_counter()
        proc = run_child(argv, capture=True, check=False)
        seconds = time.perf_counter() - start
        if totals is not None:
            totals.append(json.loads(totals_path.read_text(encoding="utf-8")))
        where = f"exit={proc.returncode}"
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return Outcome(seconds, False, f"{where} unreadable report: "
                                           f"{proc.stderr.strip()[-200:]}")
        status = report.get("status")
        code = report.get("error", {}).get("code", "")
        if proc.returncode != entry.expected:
            msg = report.get("error", {}).get("message", "")
            return Outcome(seconds, False, f"{where} expected={entry.expected} "
                                           f"status={status} error={code}: {msg}")
        if (status == "ok") != (entry.expected == 0):
            return Outcome(seconds, False, f"{where} status={status}")
        if entry.reference is not None:
            import numpy as np

            try:
                rows = report["results"]["matrix"]
                got = np.array([[complex(e[0], e[1]) for e in row] for row in rows], dtype=complex)
            except (KeyError, TypeError, IndexError, ValueError):
                return Outcome(seconds, False, f"{where} report without a matrix")
            err = rel_error(got, entry.reference)
            if err > CHECK_TOL:
                return Outcome(seconds, False, f"{where} wrong result: residual {err:.2e} > {CHECK_TOL:.0e}")
        return Outcome(seconds, True)

    def run_traced(self, entries):
        totals: list[dict] = []
        outcomes = [self.run(entry, totals) for entry in entries]
        return outcomes, totals


# -- set-up and import measurements ----------------------------------------------


def fresh_import_seconds(reps, probe):
    """Wall times of fresh interpreters running `import kreincalc.cli`, with probes."""
    argv = [sys.executable, "-c", "import kreincalc.cli"]
    run_child(argv)  # writes bytecode caches
    times, probes = [], []
    for _ in range(reps):
        start = time.perf_counter()
        run_child(argv)
        times.append(time.perf_counter() - start)
        probes.append(probe.sample())
    return times, probes


def import_times_ms(reps) -> dict:
    """Median cumulative `-X importtime` of the kreincalc, scipy and numpy trees."""
    samples = {"kreincalc": [], "scipy": [], "numpy": []}
    for _ in range(reps):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import kreincalc.cli"], capture=True)
        for pkg, total in cumulative_by_package(proc.stderr, samples).items():
            samples[pkg].append(total)
    return {pkg: statistics.median(vals) / 1e3 for pkg, vals in samples.items()}


def cumulative_by_package(stderr, packages) -> dict:
    """Sum of cumulative microseconds over the outermost modules of each package.

    importtime prints children before their parent, indented by nesting
    depth; read in reverse, the lines come in pre-order, so a stack of open
    ancestors tells whether a module sits inside another of the same package.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative), name.strip()))
    totals = {pkg: 0 for pkg in packages}
    stack: list[tuple[int, str]] = []
    for depth, cumulative, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        pkg = name.split(".")[0]
        if pkg in totals and all(p != pkg for _, p in stack):
            totals[pkg] += cumulative
        stack.append((depth, pkg))
    return totals


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- runs ---------------------------------------------------------------------------


def make_workload(name, seed, workdir):
    return Cli(seed, workdir) if name == "cli" else InProcess(name, seed)


def report_failures(args, workload, outcomes, indices):
    for index, out in zip(indices, outcomes):
        if not out.ok:
            print(f"FAILED workload={args.workload} seed={args.seed} request={index} {workload.case(index).label()} "
                  f"time_ms={1e3 * out.seconds:.2f} {out.detail}")


def warm_up(workload):
    """Untimed requests on cases outside the measured index range."""
    for i in range(WARMUP):
        workload.run(workload.case(10**6 + i))


def untraced_loop(workload, seconds, probe, every):
    """Closed loop for `seconds`; a probe sample follows every `every`-th request.

    Besides the outcomes it returns the wall time of each loop step: making
    the case, the request and checking its result, without the probe.
    """
    warm_up(workload)
    outcomes, indices, steps, probes = [], [], [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        outcomes.append(workload.run(workload.case(index)))
        steps.append(time.perf_counter() - start)
        probes.append(probe.sample() if index % every == 0 else [])
        indices.append(index)
        index += 1
    return outcomes, indices, steps, probes


def p50_p90(values):
    """Median and 90th percentile, interpolated linearly between the order
    statistics around rank 0.9 (n - 1), as numpy's default percentile is."""
    if len(values) < 2:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(args, workdir):
    from probe import ComputeProbe, ImportProbe, scaled

    probes_of = {"compute": ComputeProbe, "import": lambda: ImportProbe(run_child)}
    setup_probe = probes_of[PROBES["setup"][0]]()
    setup_raw, setup_probes = fresh_import_seconds(SETUP_REPS, setup_probe)
    setup = scaled(setup_raw, setup_probes, PROBES["setup"][2], setup_probe.reference_s)
    workload = make_workload(args.workload, args.seed, workdir)
    kind, every, half_width = PROBES[args.workload]
    probe = probes_of[kind]()
    outcomes, indices, steps, probes = untraced_loop(workload, args.seconds, probe, every)
    report_failures(args, workload, outcomes, indices)
    raw = [o.seconds for o in outcomes]
    times_ms = [1e3 * t for t in scaled(raw, probes, half_width, probe.reference_s)]
    raw_p50, raw_p90 = p50_p90([1e3 * t for t in raw])
    p50, p90 = p50_p90(times_ms)
    good = sum(o.ok for o in outcomes)
    wall = sum(scaled(steps, probes, half_width, probe.reference_s))
    probe_ms = 1e3 * statistics.median(p for group in probes for p in group)
    metrics = {
        "request_ms.p50": (p50, "ms"),
        "request_ms.p90": (p90, "ms"),
        "goodput_rps": (good / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(children=args.workload == "cli"), "MB"),
    }
    notes = {
        "request_ms.p50": f"raw wall {raw_p50:.4g} ms; {kind} probe median {probe_ms:.4g} ms, "
                          f"reference {1e3 * probe.reference_s:g} ms",
        "request_ms.p90": f"raw wall {raw_p90:.4g} ms; samples={len(times_ms)} beyond={len(times_ms) // 10} "
                          f"valid={'yes' if len(times_ms) >= 100 else 'no (fewer than 100 requests)'}",
        "goodput_rps": f"correct={good} of attempted={len(outcomes)}, scaled wall_s={wall:.3f} "
                       f"raw wall_s={sum(steps):.3f} (loop without probes); closed loop, one client",
        "setup_s": "raw wall of fresh `import kreincalc.cli`: " + " ".join(f"{s:.3f}" for s in setup_raw),
    }
    return outcomes, metrics, notes


def traced(args, workdir):
    from tracing import layer_metrics, merge_totals

    imports = import_times_ms(IMPORTTIME_REPS)
    workload = make_workload(args.workload, args.seed, workdir)
    count = TRACE_REQUESTS[args.workload]
    indices = list(range(count))
    cases = [workload.case(i) for i in indices]
    warm_up(workload)
    # alternate short untraced and traced passes, so that a drift in host
    # speed does not end up in the tracing overhead
    plain, outcomes, totals = [], [], []
    for start in range(0, count, TRACE_CHUNK):
        chunk = cases[start: start + TRACE_CHUNK]
        plain += [workload.run(case) for case in chunk]
        chunk_outcomes, chunk_totals = workload.run_traced(chunk)
        outcomes += chunk_outcomes
        totals += chunk_totals
    report_failures(args, workload, outcomes, indices)
    totals = merge_totals(totals)
    metrics = layer_metrics(totals)
    p50_plain = statistics.median(1e3 * o.seconds for o in plain)
    p50_traced = statistics.median(1e3 * o.seconds for o in outcomes)
    hard_failed, hard_attempted = hard_panel(args)
    metrics.update({
        "import.kreincalc_ms": (imports["kreincalc"], "ms"),
        "import.scipy_ms": (imports["scipy"], "ms"),
        "import.numpy_ms": (imports["numpy"], "ms"),
        "trace.untraced_p50_ms": (p50_plain, "ms"),
        "trace.traced_p50_ms": (p50_traced, "ms"),
        "trace.overhead_ms": (p50_traced - p50_plain, "ms"),
        "hard.failed": (hard_failed, "count"),
    })
    notes = {"hard.failed": f"of attempted={hard_attempted} in the hard panel, the same for every run; "
                            "not counted in `failed`"}
    return outcomes, metrics, notes


def hard_panel(args) -> tuple[int, int]:
    """Run the fixed panel of known defects untraced; list and count its failures."""
    import planted

    runner = InProcess("hard", 0)
    cases = planted.hard_cases()
    failed = 0
    for case in cases:
        out = runner.run(case)
        if not out.ok:
            failed += 1
            print(f"HARD-FAILED workload={args.workload} {case.label()} "
                  f"time_ms={1e3 * out.seconds:.2f} {out.detail}")
    return failed, len(cases)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("calc16", "critical", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kreincalc" / "__init__.py").is_file() or not FIXTURES.is_dir():
        print(f"bench: no kreincalc sources under {ROOT}; run inside a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as workdir:
        outcomes, metrics, notes = (traced if args.trace else end_to_end)(args, Path(workdir))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"blas_threads=1 ({', '.join(THREAD_VARS)})")
    for name, (value, unit) in metrics.items():
        extra = f"  [{notes[name]}]" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{extra}")
    failed = sum(not o.ok for o in outcomes)
    print(f"failed={failed} attempted={len(outcomes)} failed_frac={failed / len(outcomes):.4g}")
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
