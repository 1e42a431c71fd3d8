#!/usr/bin/env python3
"""End-to-end campaign benchmark for dring.

Runs a committed campaign grid through the shipped tools, the way a user
checks a paper claim: `dring_campaign --spec ... --out ... --threads $(nproc)`
into a canonical store (telemetry off), then `dring_report` over that store.
Both stages are timed as whole processes and their outputs are checked.

    python3 perfbench/run.py --workload mixed_grid --seed 1 --seconds 50 \
        --trace 0

Run it from the root of a dring checkout; it builds the library, the two
tools and perfbench_probe from source into .bench_build/ first.

--trace 0  end-to-end metrics: cells_per_s, report_rows_per_s, setup_s and
           the peak RSS of each stage's process.
--trace 1  per-layer metrics from perfbench_probe, which calls the library
           entry points the tools compose and times each from outside.  Its
           store and report must equal the CLI's byte for byte.

--seed is the spec's salt (the per-cell seeds derive from it); the committed
specs use salt 1, the default.  For every salt in perfbench/digests.json the
store rows, the report and the exact counts must equal the committed values;
on any other salt those are skipped and the read-back, re-simulation and
traced-vs-CLI identity checks still run.

The last line of stdout is one JSON object: correct, attempted (cells the
CLI ran), failed (cells missing, unparsable or differing from the expected
rows) and metrics.  The lines before it give each metric's median,
quartiles and sample count.

Maintenance (rewrites files under perfbench/):
    python3 perfbench/run.py --record-results
        runs every workload both ways, prints each summary and writes
        perfbench/results.json: per workload its input properties, the
        end-to-end medians with quartiles and sample counts, and the traced
        layer table (self time and share of the traced wall per layer).
    python3 perfbench/run.py --record-spread 1-10 [--seconds S]
        runs every workload once per seed, two sets over the same seeds,
        and writes the `spread` block of perfbench/results.json: per
        end-to-end metric each run's value, each set's median and
        IQR/median across seeds, and the second median over the first.
        These are the figures the bounds in BENCHMARK.json rest on.
    python3 perfbench/run.py --record-digests 0-31 [--workload NAME]
        re-records the committed digests; only after a deliberate change
        of engine semantics or store/report format.
"""
import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
TOOLS = ("dring_campaign", "dring_report", "perfbench_probe")
CHILD_TIMEOUT_S = 150

WORKLOADS = {
    "mixed_grid": {
        "report": ["--group-by", "algorithm,n,agents,adversary,t_interval",
                   "--metric", "explored_round"],
        "report_reps": 1,
        "setup_reps": 3,
        "exercises": ["scenario_spec", "sweep", "sim", "algo", "adversary",
                      "campaign write", "campaign read", "analysis"],
        "bypasses": [],
    },
    "adversarial_many_agents": {
        "report": ["--group-by", "algorithm,n,agents,adversary",
                   "--metric", "rounds"],
        "report_reps": 10,
        "setup_reps": 10,
        "exercises": ["sweep", "sim", "algo", "adversary"],
        "bypasses": ["scenario_spec (3,600 cells)", "campaign write/read "
                     "(1.8 MB store)", "analysis"],
    },
}

END_TO_END = {  # name -> unit
    "cells_per_s": "1/s",
    "report_rows_per_s": "1/s",
    "setup_s": "s",
    "campaign_peak_rss_mb": "MB",
    "report_peak_rss_mb": "MB",
}

PER_LAYER = {  # name -> unit
    "scenario_spec.parse_us": "us",
    "scenario_spec.expand_us": "us",
    "scenario_spec.fingerprint_us": "us",
    "scenario_spec.to_task_us": "us",
    "scenario_spec.cells": "count",
    "sweep.run_scenarios_us": "us",
    "sweep.simulate_us": "us",
    "sweep.tail_us": "us",
    "sim.rounds": "count",
    "sim.moves": "count",
    "sim.rounds_per_s": "1/s",
    "campaign.row_build_us": "us",
    "campaign.encode_us": "us",
    "campaign.sort_us": "us",
    "campaign.store_write_us": "us",
    "campaign.write_fsync_us": "us",
    "campaign.store_bytes": "bytes",
    "campaign.read_parse_us": "us",
    "campaign.parse_ns_per_row": "ns/row",
    "campaign.merge_us": "us",
    "analysis.fold_us": "us",
    "analysis.render_us": "us",
    "analysis.groups": "count",
    "trace.campaign_unattributed_frac": "ratio",
    "trace.report_unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "check.cells_failed_frac": "ratio",
}

# Counts that must repeat exactly for a given salt.
EXACT_COUNTS = ("scenario_spec.cells", "sim.rounds", "sim.moves",
                "campaign.store_bytes", "analysis.groups")


def die(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


# --- build -------------------------------------------------------------------

def build(root):
    """Configure and build the benchmarked binaries; returns their dir."""
    for rel in ("CMakeLists.txt", "src/core/campaign.hpp"):
        if not (root / rel).is_file():
            die(f"no dring source tree here ({rel} is missing)", 2)
    out = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = out / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(len(os.sched_getaffinity(0)))
    with open(log, "wb") as sink:
        for cmd in (["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", str(build_dir), "-j", jobs,
                     "--target", *TOOLS]):
            if subprocess.run(cmd, stdout=sink, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-20:]
                die("build failed:\n" + "\n".join(tail))
    return build_dir, out / "work"


def tool_path(build_dir, name):
    return build_dir / ("dring" if name != "perfbench_probe" else "") / name


# --- processes ---------------------------------------------------------------

def run_child(cmd, stdout_path):
    """Run one process to completion; its stdout goes to `stdout_path`."""
    err_path = Path(str(stdout_path) + ".err")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([str(c) for c in cmd], stdout=out, stderr=err,
                                start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and its children
            proc.wait()
    if proc.returncode != 0:
        die(f"{Path(cmd[0]).name} {cmd[1]} exited {proc.returncode}: "
            + err_path.read_text(errors="replace")[-2000:])


def probe(build_dir, args, out_path):
    run_child([tool_path(build_dir, "perfbench_probe"), *args], out_path)
    return json.loads(Path(out_path).read_text())


def timed(build_dir, cmd, stdout_path):
    """Run a tool through `perfbench_probe spawn`: (wall s, peak RSS MB)."""
    spawn_out = Path(str(stdout_path) + ".spawn.json")
    t = probe(build_dir, ["spawn", stdout_path, "--", *cmd], spawn_out)
    if t["exit"] != 0:
        err = Path(str(spawn_out) + ".err").read_text(errors="replace")
        die(f"{Path(cmd[0]).name} exited {t['exit']}: {err[-2000:]}")
    return t["wall_s"], t["peak_rss_kb"] / 1024.0


# --- outputs -----------------------------------------------------------------

def store_rows(path):
    """The store's row lines (header excluded: it names the build)."""
    data = Path(path).read_bytes()
    return data[data.index(b"\n") + 1:]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def spread(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if min(values) == max(values):  # exact counts stay exact
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


class Workload:
    def __init__(self, name, seed, build_dir, work_root):
        self.name = name
        self.cfg = WORKLOADS[name]
        self.seed = seed
        self.build_dir = build_dir
        self.work = work_root / name
        self.work.mkdir(parents=True, exist_ok=True)
        spec = json.loads((HERE / "specs" / f"{name}.json").read_text())
        spec["salt"] = f"0x{seed & (2**64 - 1):x}"
        self.spec = self.work / "spec.json"
        self.spec.write_text(json.dumps(spec, indent=1) + "\n")
        self.store = self.work / "store.jsonl"
        self.report = self.work / "report.md"
        self.threads = len(os.sched_getaffinity(0))
        digests = json.loads((HERE / "digests.json").read_text())
        self.expected = digests.get(name, {}).get(str(seed))

    def campaign(self, store):
        return timed(self.build_dir,
                     [tool_path(self.build_dir, "dring_campaign"),
                      "--spec", self.spec, "--out", store,
                      "--threads", self.threads],
                     self.work / "campaign.out")

    def render(self, store, report):
        return timed(self.build_dir,
                     [tool_path(self.build_dir, "dring_report"),
                      "--store", store, *self.cfg["report"]], report)

    def check(self, store, report):
        """Independent read-back of a CLI store and report."""
        return probe(self.build_dir,
                     ["check", "--spec", self.spec, "--store", store,
                      "--report", report, *self.cfg["report"]],
                     self.work / "check.json")

    def setup_seconds(self):
        out = probe(self.build_dir,
                    ["setup", "--spec", self.spec,
                     "--reps", self.cfg["setup_reps"]],
                    self.work / "setup.json")
        return [us / 1e6 for us in out["setup_us"]]

    def digest_entry(self, check, rows_bytes, report_bytes):
        counts = check["counts"]
        return {"store_rows_sha256": sha256(rows_bytes),
                "report_sha256": sha256(report_bytes),
                "cells": check["cells"], "rounds": counts["rounds"],
                "moves": counts["moves"], "groups": check["groups"],
                "store_row_bytes": len(rows_bytes)}


def verify(wl, problems):
    """Check the final CLI store and report; returns (failed cells, entry)."""
    check = wl.check(wl.store, wl.report)
    rows = store_rows(wl.store)
    entry = wl.digest_entry(check, rows, wl.report.read_bytes())
    failed = check["failed_cells"]  # each expanded cell counted once
    if failed or check["stray_rows"]:
        problems.append(f"{failed} cells failed the read-back, "
                        f"{check['stray_rows']} stray rows: {check}")
    for flag in ("header_ok", "order_ok", "report_ok"):
        if not check[flag]:
            problems.append(f"check: {flag} is false")
    if wl.expected is not None:
        for key, want in wl.expected.items():
            if entry[key] != want:
                problems.append(f"{key} = {entry[key]}, committed {want}")
        if entry["store_rows_sha256"] != wl.expected["store_rows_sha256"]:
            failed = check["cells"]  # which rows differ is unknown
    return failed, check, entry


# --- the two modes -----------------------------------------------------------

@dataclass
class Run:
    wl: Workload
    samples: dict   # metric -> values, one per repetition
    units: dict     # the metrics this mode reports -> unit
    attempted: int  # cells the CLI ran
    failed: int     # of those, cells missing, unparsable or differing
    problems: list  # every failed check, for stderr
    check: dict     # perfbench_probe check output for the final CLI store
    entry: dict     # that store's digests and exact counts


def measure_end_to_end(wl, seconds):
    samples = {name: [] for name in END_TO_END}
    problems, digests, report_digests = [], set(), set()
    campaign_reps = 0
    deadline = time.perf_counter() + seconds
    # Every stage is sampled in every round, so host-speed drift over the
    # window reaches all metrics alike.
    while campaign_reps == 0 or time.perf_counter() < deadline:
        samples["setup_s"] += wl.setup_seconds()
        wall, rss = wl.campaign(wl.store)
        campaign_reps += 1
        rows = store_rows(wl.store)
        digests.add(sha256(rows))
        cells = rows.count(b"\n")
        samples["cells_per_s"].append(cells / wall)
        samples["campaign_peak_rss_mb"].append(rss)
        for _ in range(wl.cfg["report_reps"]):
            wall, rss = wl.render(wl.store, wl.report)
            report_digests.add(sha256(wl.report.read_bytes()))
            samples["report_rows_per_s"].append(cells / wall)
            samples["report_peak_rss_mb"].append(rss)
    failed, check, entry = verify(wl, problems)
    if len(digests) > 1 or len(report_digests) > 1:
        problems.append(f"outputs differ between repetitions: "
                        f"{len(digests)} store / {len(report_digests)} "
                        f"report digests")
        failed = check["cells"]
    return Run(wl, samples, END_TO_END, check["cells"] * campaign_reps,
               failed * campaign_reps, problems, check, entry)


def measure_layers(wl, seconds):
    samples = {name: [] for name in PER_LAYER}
    problems, seen_counts = [], set()
    traced_store = wl.work / "traced.jsonl"
    traced_report = wl.work / "traced.md"
    reps = 0
    deadline = time.perf_counter() + seconds
    while reps == 0 or time.perf_counter() < deadline:
        reps += 1
        campaign_wall, _ = wl.campaign(wl.store)
        report_wall, _ = wl.render(wl.store, wl.report)
        t = probe(wl.build_dir,
                  ["trace", "--spec", wl.spec, "--threads", wl.threads,
                   "--store", traced_store, "--report", traced_report,
                   *wl.cfg["report"]],
                  wl.work / "trace.json")
        if traced_store.read_bytes() != wl.store.read_bytes():
            problems.append("traced store differs from the CLI store")
        if traced_report.read_bytes() != wl.report.read_bytes():
            problems.append("traced report differs from the CLI report")
        if not t["trace.children_match"]:
            problems.append("re-timed children rebuilt different rows")
        counts = t["counts"]
        derived = {
            "sim.rounds": counts["rounds"],
            "sim.moves": counts["moves"],
            "sim.rounds_per_s":
                counts["rounds"] / (t["sweep.simulate_us"] / 1e6),
            "campaign.write_fsync_us": t["campaign.store_write_us"]
            - t["campaign.encode_us"] - t["campaign.sort_us"],
            "campaign.store_bytes": traced_store.stat().st_size,
            "campaign.parse_ns_per_row": t["campaign.read_parse_us"] * 1e3
            / max(1, t["campaign.store_rows"]),
            "trace.campaign_unattributed_frac": 1
            - t["trace.campaign_attributed_us"] / t["trace.campaign_wall_us"],
            "trace.report_unattributed_frac": 1
            - t["trace.report_attributed_us"] / t["trace.report_wall_us"],
            "trace.overhead_frac":
                (t["trace.campaign_wall_us"] + t["trace.report_wall_us"]) / 1e6
                / (campaign_wall + report_wall) - 1,
        }
        for name in PER_LAYER:
            if name in derived:
                samples[name].append(derived[name])
            elif name in t:
                samples[name].append(t[name])
        seen_counts.add(tuple(samples[c][-1] for c in EXACT_COUNTS))
        for name in ("trace.campaign_wall_us", "trace.report_wall_us",
                     "analysis.report_write_us"):
            samples.setdefault(name, []).append(t[name])
    if len(seen_counts) > 1:
        problems.append(f"exact counts varied between repetitions: "
                        f"{sorted(seen_counts)}")
    failed, check, entry = verify(wl, problems)
    samples["check.cells_failed_frac"] = [failed / check["cells"]]
    return Run(wl, samples, PER_LAYER, check["cells"] * reps, failed * reps,
               problems, check, entry)


def layer_table(samples):
    """Self time (median us) and share of the traced wall per layer."""
    med = {k: spread(v)[0] for k, v in samples.items() if v}
    wall = med["trace.campaign_wall_us"] + med["trace.report_wall_us"]
    layers = {
        "scenario_spec (parse, expand, fingerprint, to_task)":
            med["scenario_spec.parse_us"] + med["scenario_spec.expand_us"]
            + med["scenario_spec.fingerprint_us"]
            + med["scenario_spec.to_task_us"],
        "sweep + sim (run_sweep_runs)": med["sweep.simulate_us"],
        "campaign write: row build": med["campaign.row_build_us"],
        "campaign write: encode (row_line)": med["campaign.encode_us"],
        "campaign write: sort": med["campaign.sort_us"],
        "campaign write: write + fsync (derived)":
            med["campaign.write_fsync_us"],
        "campaign read: read + parse": med["campaign.read_parse_us"],
        "campaign read: merge": med["campaign.merge_us"],
        "analysis (fold, render, write)": med["analysis.fold_us"]
            + med["analysis.render_us"] + med["analysis.report_write_us"],
    }
    attributed = sum(layers.values())
    table = {name: {"self_us": us, "share": us / wall}
             for name, us in layers.items()}
    table["unattributed"] = {"self_us": wall - attributed,
                             "share": 1 - attributed / wall}
    return table, wall


def run_workload(name, seed, seconds, trace, build_dir, work_root):
    wl = Workload(name, seed, build_dir, work_root)
    return (measure_layers if trace else measure_end_to_end)(wl, seconds)


def input_properties(run):
    cells = run.check["cells"]
    counts = run.check["counts"]
    return {"cells": cells,
            "fast_lane_share": counts["fast_lane_cells"] / cells,
            "mean_rounds_per_cell": counts["rounds"] / cells,
            "rows_per_store_mb": cells / (run.entry["store_row_bytes"] / 1e6)}


def stats(run):
    """Median, quartiles and sample count of every metric of a run."""
    out = {}
    for metric, unit in run.units.items():
        median, q1, q3 = spread(run.samples[metric])
        out[metric] = {"median": median, "q1": q1, "q3": q3,
                       "n": len(run.samples[metric]), "unit": unit}
    return out


def print_run(run, trace):
    """The human-readable summary of one run."""
    print(f"workload {run.wl.name}, seed {run.wl.seed}, threads "
          f"{run.wl.threads}, committed digests "
          f"{'checked' if run.wl.expected else 'not recorded for this seed'}")
    print("input: " + json.dumps(input_properties(run)))
    print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}  unit")
    for name, s in stats(run).items():
        print(f"{name:36} {s['median']:14.6g} {s['q1']:14.6g} "
              f"{s['q3']:14.6g} {s['n']:4d}  {s['unit']}")
    if trace:
        table, wall = layer_table(run.samples)
        print(f"layer table (share of traced wall {wall:.0f} us):")
        for layer, row in table.items():
            print(f"  {layer:52} {row['self_us']:12.0f} us "
                  f"{100 * row['share']:6.2f}%")
    for problem in run.problems:
        print(f"FAIL: {problem}", file=sys.stderr)


def main_run(args, root):
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; one of "
            + ", ".join(WORKLOADS), 2)
    build_dir, work_root = build(root)
    run = run_workload(args.workload, args.seed, args.seconds, args.trace,
                       build_dir, work_root)
    print_run(run, args.trace)
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": spread(run.samples[name])[0], "unit": unit}
                    for name, unit in run.units.items()},
    }
    print(json.dumps(result))
    return 0


# --- maintenance -------------------------------------------------------------

def parse_seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record_digests(args, root):
    build_dir, work_root = build(root)
    digests = json.loads((HERE / "digests.json").read_text())
    for name in [args.workload] if args.workload else WORKLOADS:
        digests[name] = {}
        for seed in parse_seed_range(args.record_digests):
            wl = Workload(name, seed, build_dir, work_root)
            wl.campaign(wl.store)
            wl.render(wl.store, wl.report)
            check = wl.check(wl.store, wl.report)
            if (check["failed_cells"] or check["stray_rows"]
                    or not check["report_ok"]):
                die(f"{name} seed {seed}: read-back failed: {check}")
            digests[name][str(seed)] = wl.digest_entry(
                check, store_rows(wl.store), wl.report.read_bytes())
            print(f"{name} seed {seed}: {digests[name][str(seed)]}")
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def record_results(args, root):
    """Measure every workload both ways and write perfbench/results.json."""
    build_dir, work_root = build(root)
    why = {w["name"]: w["why"] for w in
           json.loads((root / "BENCHMARK.json").read_text())["workloads"]}
    results = {
        "host": f"{cpu_model()}, {len(os.sched_getaffinity(0))} CPUs, "
                f"{platform.system()}, Release build",
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    for name, cfg in WORKLOADS.items():
        e2e = run_workload(name, args.seed, args.seconds, 0, build_dir,
                           work_root)
        layers = run_workload(name, args.seed, args.seconds, 1, build_dir,
                              work_root)
        for trace, run in enumerate((e2e, layers)):
            print_run(run, trace)
            if run.problems or run.failed:
                die(f"{name}: run failed: {run.problems}")
        table, wall = layer_table(layers.samples)
        per_layer = stats(layers)
        results["workloads"][name] = {
            "why": why[name],
            "exercises": cfg["exercises"],
            "bypasses": cfg["bypasses"],
            "report_args": cfg["report"],
            "input": input_properties(e2e),
            "end_to_end": stats(e2e),
            "traced_wall_us": wall,
            "layers": table,
            "trace_overhead_frac": per_layer["trace.overhead_frac"]["median"],
            "per_layer": per_layer,
        }
    if "spread" in load_results():  # kept: --record-spread writes it
        results["spread"] = load_results()["spread"]
    (HERE / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    return 0


def load_results():
    path = HERE / "results.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def record_spread(args, root):
    """Two sets of runs over the same seeds; writes results.json's spread."""
    build_dir, work_root = build(root)
    seeds = parse_seed_range(args.record_spread)
    values = {name: [{m: [] for m in END_TO_END} for _ in range(2)]
              for name in WORKLOADS}
    for set_index in range(2):
        for name in WORKLOADS:
            for seed in seeds:
                run = run_workload(name, seed, args.seconds, 0, build_dir,
                                   work_root)
                if run.problems or run.failed:
                    die(f"{name} seed {seed}: run failed: {run.problems}")
                medians = {m: spread(run.samples[m])[0] for m in END_TO_END}
                for metric, value in medians.items():
                    values[name][set_index][metric].append(value)
                print(f"set {set_index + 1} {name} seed {seed}: "
                      + json.dumps(medians), flush=True)
    out = {"seeds": args.record_spread, "seconds": args.seconds,
           "workloads": {}}
    for name, per_set in values.items():
        out["workloads"][name] = table = {}
        for metric in END_TO_END:
            runs = [per_set[i][metric] for i in range(2)]
            quartiles = [spread(v) for v in runs]  # (median, q1, q3)
            median = [q[0] for q in quartiles]
            iqr = [(q[2] - q[1]) / q[0] for q in quartiles]
            table[metric] = {"set_medians": median, "set_iqr_frac": iqr,
                             "second_over_first": median[1] / median[0],
                             "runs": runs}
            print(f"{name:24} {metric:22} iqr/median {iqr[0]:.4f} "
                  f"{iqr[1]:.4f}  second/first {median[1] / median[0]:.4f}")
    results = load_results()
    results["spread"] = out
    (HERE / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="LO-HI")
    parser.add_argument("--record-results", action="store_true")
    parser.add_argument("--record-spread", metavar="LO-HI")
    args = parser.parse_args()
    root = Path.cwd()
    if args.record_digests:
        return record_digests(args, root)
    if args.record_results:
        return record_results(args, root)
    if args.record_spread:
        return record_spread(args, root)
    if not args.workload:
        parser.error("--workload is required")
    return main_run(args, root)


if __name__ == "__main__":
    sys.exit(main())
