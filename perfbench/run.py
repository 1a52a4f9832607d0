"""Benchmark entry point for reflectal.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy. With `--trace 0` the
operations of the workload are cycled, untraced, for about `--seconds`
seconds and the end-to-end metrics are reported. Every timing is rescaled
to a fixed CPU speed by a reference computation run next to it (see
`SpeedGauge`). With `--trace 1` one pass
runs untraced and the same pass runs again under the span tracer, and the
per-layer metrics are reported. Either way the last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}; the lines
before it print every metric by name and unit, the per-operation medians,
the output checks' facts and the provenance of the run.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 1
SETUP_SAMPLES = 7
MAX_REPS = 48                 # input sets built per run; passes beyond stop the loop
# Seconds that SpeedGauge.seconds() takes on the reference machine, a 2-core
# Intel Xeon VM, at the fast end of the speeds it showed.
REF_GAUGE_S = 0.013


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def import_package():
    """Import reflectal from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import reflectal
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import reflectal from {src}: {exc}")
    where = os.path.realpath(reflectal.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"perfbench: reflectal imported from {where}, not {src}")


def provenance():
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    import scipy
    info["numpy"], info["scipy"] = np.__version__, scipy.__version__
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name")), None)
    except OSError:
        info["cpu_model"] = None
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            level, kind, size = (_read(os.path.join(base, index, f))
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    info["caches"] = caches
    info["git_commit"] = _git_commit()
    src = os.path.join(ROOT, "src")
    lines = 0
    for dirpath, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    lines += sum(1 for _ in fh)
    info["src_lines"] = lines
    return info


def _read(path):
    with open(path) as fh:
        return fh.read().strip()


def _git_commit():
    """HEAD of the checkout read from .git directly; None outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        head = _read(os.path.join(git, "HEAD"))
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            return _read(os.path.join(git, ref))
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


class SpeedGauge:
    """Reads the host's current CPU speed with a fixed computation that mixes
    what the workloads do: interpreter arithmetic; a sequence of some twenty
    numpy calls on a 9x2 path, shaped like one evaluation of a discrete path
    action; and element-wise work on a 2048-vector with fresh normal draws.

    On a shared host the speed of one core drifts: the same work took from
    14 to 24 ms in successive 5-second windows, with no steal time, so CPU
    time drifts as much as wall time. Each timing is therefore divided by the
    mean of a gauge reading just before and just after it and multiplied by
    REF_GAUGE_S. A change in the program's own work moves the rescaled time
    in full; a change in the host's speed moves the gauge with it. The many
    distinct small numpy calls matter: a gauge of a few calls repeated slowed
    less than the workloads did when the host was busy.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.path = rng.uniform(-0.5, 0.5, (9, 2))
        self.eye = np.broadcast_to(np.eye(2), (8, 2, 2))
        self.wide = rng.standard_normal(2048)

    def seconds(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1)
        path, dt = self.path, 0.125
        acc = 0.0
        for i in range(100):
            for j in range(40):
                acc += (i * j) % 7 * 0.5
            r = (path[1:] - path[:-1]) / dt + path[:-1]
            sig = np.array(self.eye)
            a = sig @ np.swapaxes(sig, -1, -2)
            acc += float(np.min(np.linalg.eigvalsh(a)[..., 0]))
            ainv = np.linalg.inv(a)
            norm = np.linalg.norm(path[1:], axis=-1)
            normal = path[1:] / norm[:, None]
            nan_ = np.einsum("ni,nij,nj->n", normal, ainv, normal)
            push = np.einsum("ni,ni->n", normal, np.einsum("nij,nj->ni", ainv, r))
            lam = np.where((np.abs(1.0 - norm) <= 0.1) & (nan_ > 0),
                           np.maximum(0.0, push / nan_), 0.0)
            resid = r - lam[:, None] * normal
            cost = np.maximum(np.einsum("ni,nij,nj->n", resid, ainv, resid), 0.0)
            rho = np.concatenate([np.zeros((1, 2)),
                                  np.cumsum((lam * dt)[:, None] * normal, axis=0)])
            acc += float(np.sum(cost)) + float(rho[-1, 0])
            z = np.clip(self.wide + rng.standard_normal(self.wide.size), -1.0, 1.0)
            acc += float(np.abs(z).sum())
        return time.perf_counter() - t0

    def rescale(self, seconds, before, after):
        return seconds * REF_GAUGE_S / (0.5 * (before + after))


class Tally:
    """Operations attempted and failed; failure messages go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, op_name, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            for msg in failures:
                print(f"perfbench: FAILED {op_name}: {msg}", file=sys.stderr)


def run_op(op, run, inputs, tally, gauge):
    """Time run(inputs) between two gauge readings and check its output;
    returns (wall seconds, rescaled seconds, facts)."""
    before = gauge.seconds()
    t0 = time.perf_counter()
    try:
        out = run(inputs)
    except Exception:
        seconds = time.perf_counter() - t0
        tally.record(op.name, ["raised\n" + traceback.format_exc()])
        return seconds, gauge.rescale(seconds, before, gauge.seconds()), {}
    seconds = time.perf_counter() - t0
    scaled = gauge.rescale(seconds, before, gauge.seconds())
    try:
        failures, facts = op.check(inputs, out)
    except Exception:
        failures, facts = ["check raised\n" + traceback.format_exc()], {}
    tally.record(op.name, failures)
    return seconds, scaled, facts


def measure(workload, inputs, seconds, tally, gauge):
    """Cycle the operations until the next one would end past `seconds`
    (every operation runs at least once); returns per-op wall and rescaled
    samples and the facts of the first pass."""
    wall = {op.name: [] for op in workload.ops}
    scaled = {op.name: [] for op in workload.ops}
    facts = {}
    start = time.perf_counter()
    for i in itertools.count():
        rep, k = divmod(i, len(workload.ops))
        op = workload.ops[k]
        if rep >= len(inputs):
            break
        if rep > 0 and time.perf_counter() - start + wall[op.name][-1] > seconds:
            break
        dt, dt_scaled, op_facts = run_op(op, op.run, inputs[rep], tally, gauge)
        wall[op.name].append(dt)
        scaled[op.name].append(dt_scaled)
        if rep == 0:
            facts.update(op_facts)
    return wall, scaled, facts


def setup_seconds(args, gauge):
    """Median rescaled time of fresh processes that import the package and
    build the run's inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES):
        before = gauge.seconds()
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
                       timeout=120)
        seconds = time.perf_counter() - t0
        times.append(gauge.rescale(seconds, before, gauge.seconds()))
    return statistics.median(times)


def layer_metrics(tracer, facts, overhead_frac):
    per_name, per_layer = tracer.summary()
    c = tracer.counters

    def name_stat(name, key):
        return per_name.get(name, {}).get(key, 0)

    def layer_stat(layer, key):
        return per_layer.get(layer, {}).get(key, 0.0)

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    steps = c["forward.path_steps"]
    project_points = c["geometry.project.points"]
    evals = name_stat("action.evaluate_action", "calls")
    iters = c["action.iterations"]
    pi_calls = name_stat("backward.apply_pi", "calls")
    samples = c["backward.mc_samples"]
    rows = c["cli.csv_rows"]
    return {
        "forward.path_steps": steps,
        "forward.self_s": layer_stat("forward", "self_s"),
        "forward.ns_per_path_step": ratio(layer_stat("forward", "outer_incl_s"),
                                          steps, 1e9),
        "forward.rng_streams": c["forward.rng_streams"],
        "forward.boundary_contact_frac": ratio(c["forward.contact_steps"], steps),
        "forward.path_bytes": c["forward.path_bytes"],
        "geometry.project.calls": name_stat("geometry.project", "calls"),
        "geometry.project.points": project_points,
        "geometry.project.ns_per_point": ratio(
            name_stat("geometry.project", "incl_s"), project_points, 1e9),
        "geometry.self_s": layer_stat("geometry", "self_s"),
        "coefficients.calls": sum(v["calls"] for k, v in per_name.items()
                                  if k.startswith("coefficients.")),
        "coefficients.self_s": layer_stat("coefficients", "self_s"),
        "action.evaluate_action.calls": evals,
        "action.evaluate_action.us_per_call": ratio(
            name_stat("action.evaluate_action", "incl_s"), evals, 1e6),
        "action.self_s": layer_stat("action", "self_s"),
        "action.iterations": iters,
        "action.evals_per_iter": ratio(evals, iters),
        "action.accepted_frac": ratio(c["action.accepted"], iters),
        "action.stalled": c["action.stalled"],
        "action.gap_rel": facts.get("action.gap_rel", 0.0),
        "backward.apply_pi.calls": pi_calls,
        "backward.apply_pi.points": c["backward.apply_pi.points"],
        "backward.apply_pi.us_per_call": ratio(
            name_stat("backward.apply_pi", "incl_s"), pi_calls, 1e6),
        "backward.solve_bsde_grid.self_s": name_stat("backward.solve_bsde_grid",
                                                     "self_s"),
        "backward.mc_samples": samples,
        "backward.ns_per_mc_sample": ratio(
            name_stat("backward.solve_bsde_grid", "incl_s"), samples, 1e9),
        "backward.rng_streams": c["backward.rng_streams"],
        "backward.limit_value_field.self_s": name_stat(
            "backward.limit_value_field", "self_s"),
        "harness.self_s": layer_stat("harness", "self_s"),
        "harness.paths": c["harness.paths"],
        "harness.tail_z_exact": facts.get("harness.tail_z_exact", 0.0),
        "cli.self_s": layer_stat("cli", "self_s"),
        "cli.csv_rows": rows,
        "cli.csv_bytes": c["cli.csv_bytes"],
        "cli.us_per_row": ratio(layer_stat("cli", "self_s"), rows, 1e6),
        "trace.overhead_frac": overhead_frac,
    }


def traced_pass(workload, inputs, args, tally, gauge):
    """One untraced and one traced pass over the same inputs; returns the
    per-layer metrics and the facts of the traced pass."""
    import tracing

    untraced = sum(run_op(op, op.run, inputs, tally, gauge)[1]
                   for op in workload.ops)
    tracer = tracing.Tracer()
    traced_inputs = tracer.wrap_inputs(inputs)
    facts = {}
    traced = 0.0
    tracer.install()
    try:
        for op in workload.ops:
            _, dt, op_facts = run_op(op, tracer.wrap(f"bench.{op.name}", op.run),
                                     traced_inputs, tally, gauge)
            traced += dt
            facts.update(op_facts)
    finally:
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.save(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.npz"))
    return layer_metrics(tracer, facts, traced / untraced - 1.0), facts


def print_report(title, rows):
    print(f"# {title}")
    for name, value, unit in rows:
        print(f"  {name:<38} {value:>16.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; defaults to run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy sizes are for the self-test only")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = load_spec()
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    scratch = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")

    def build_inputs():
        return [workload.make_inputs(args.seed, rep, args.size, scratch)
                for rep in range(MAX_REPS)]

    if args.setup_only:
        build_inputs()
        return 0

    result = run_workload(workload, build_inputs, scratch, spec, args, seconds)
    print(json.dumps(result))
    return 0


def run_workload(workload, build_inputs, scratch, spec, args, seconds):
    """Measure one workload and return the result object of the last line."""
    tally = Tally()
    gauge = SpeedGauge()
    os.makedirs(scratch, exist_ok=True)
    try:
        if args.trace:
            inputs = build_inputs()
            values, facts = traced_pass(workload, inputs[0], args, tally, gauge)
            wanted = spec["per_layer"]
        else:
            setup_s = setup_seconds(args, gauge)
            inputs = build_inputs()
            wall, scaled, facts = measure(workload, inputs, seconds, tally, gauge)
            op_s = {name: statistics.median(v) for name, v in scaled.items()}
            print_report("operations (median rescaled seconds over n passes)",
                         [(f"{name} (n={len(scaled[name])})", op_s[name], "s")
                          for name in op_s])
            print_report("operations (median wall seconds, not rescaled)",
                         [(name, statistics.median(v), "s")
                          for name, v in wall.items()])
            print_report("per-operation metrics",
                         [(k, v, u) for k, (v, u)
                          in workload.summary(inputs[0], op_s).items()]
                         + [("failed_frac", tally.failed / tally.attempted, "frac")])
            values = {
                "pass_s": sum(op_s.values()),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_frac": 1.0 - tally.failed / tally.attempted,
            }
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print_report("metrics", [(k, v["value"], v["unit"]) for k, v in metrics.items()])
    print("# facts " + json.dumps(facts, sort_keys=True, default=str))
    print("# provenance " + json.dumps(provenance(), sort_keys=True))
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
