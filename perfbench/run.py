#!/usr/bin/env python3
"""End-to-end benchmark of varbench (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and builds
the varbench CLI and perfbench_probe (Release) into .bench_build/; inputs and
outputs live in .bench_work/<workload>/. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of the named workload; with
--trace 1 the run is the per-layer suite (every per-layer metric).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
WORK_DIR = ROOT / ".bench_work"
VARBENCH = BUILD_DIR / "varbench" / "varbench"
PROBE = BUILD_DIR / "perfbench_probe"
REFERENCE_FILE = BENCH_DIR / "reference_digests.json"
# Metric names, units and bounds are defined once, in BENCHMARK.json.
BENCHMARK_FILE = BENCH_DIR.parent / "BENCHMARK.json"
PAPER_SPEC = "examples/paper_figures.json"

# The machine has 4 cores: 3 campaign workers leave one for the
# coordinator and this script, and no workload runs more than 4 processes.
WORKERS = 3
SHARDS = 4
CAMPAIGN_TASKS = 68
CAMPAIGN_MERGES = 17
SETUP_REPS = 3  # setup_s is the median of this many complete set-ups
# Reduced sizes for warm-up runs: they page in the binary and the inputs and
# run every code path once without paying for a second timed-size run.
WARMUP_CAMPAIGN = ["--set", "scale=0.02"]
WARMUP_REPORT = ["--set", "resamples=100", "--set", "permutations=1000"]
# The study kinds that hold almost all of the campaign's task time.
TASK_KINDS = ["fig01_variance_sources", "figG3_normality", "figF2_hpo_curves",
              "table8_mhc_models", "multi_dataset", "fig06_detection_rates"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


# ----------------------------------------------------------------- processes

class Sample:
    """One finished child: wall time, CPU time and peak RSS of its tree."""

    def __init__(self, wall_s, cpu_s, peak_rss_mb, returncode):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.peak_rss_mb = peak_rss_mb
        self.returncode = returncode


def run(argv, stdout=None, log=None):
    """Run argv to completion from ROOT.

    os.wait4 reports the child's rusage including every descendant it
    reaped (the campaign coordinator reaps its workers), so cpu_s is the
    whole tree's user+sys time and peak_rss_mb the largest process in it.
    """
    out = open(stdout, "wb") if stdout else subprocess.DEVNULL
    err = open(log, "ab") if log else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT, stdout=out,
                                stderr=err, start_new_session=True)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        for f in (out, err):
            if f is not subprocess.DEVNULL:
                f.close()
    return Sample(wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, proc.returncode)


def must(sample, what, log):
    if sample.returncode != 0:
        fail(f"{what} exited with code {sample.returncode} (log: {log})")


def require_checkout():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a varbench source checkout (no CMakeLists.txt "
             "and src/); run from the repository root")


def build():
    BUILD_DIR.mkdir(exist_ok=True)
    log = BUILD_DIR / "perfbench-build.log"
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        must(run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release", *generator], log=log),
             "cmake configure", log)
    must(run(["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
              "varbench_cli", "perfbench_probe"], log=log), "build", log)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_reference():
    if REFERENCE_FILE.is_file():
        return json.loads(REFERENCE_FILE.read_text())
    return {}


# ------------------------------------------------------------------ workloads
#
# Each workload sets up (inputs + warm-up), then runs one command per timed
# iteration and checks that command's outputs. check() returns the number
# of failed operations and a digest of the outputs.

class PaperCampaign:
    """The whole-paper campaign: what users run to reproduce the paper."""

    name = "paper_campaign"
    ops = CAMPAIGN_TASKS + CAMPAIGN_MERGES
    stdout_path = None
    unchecked = ("merged outputs only checked to exist and repeat across "
                 "iterations")

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.state = work / "state"
        self.log = work / "campaign.log"

    def campaign_argv(self, state, *extra):
        return [VARBENCH, "campaign", PAPER_SPEC, "--shards", SHARDS,
                "--workers", WORKERS, "--set", f"seed={self.seed}",
                "--dir", state, *extra]

    def setup(self):
        warm = fresh_dir(self.work / "warmup") / "state"
        must(run(self.campaign_argv(warm, *WARMUP_CAMPAIGN), log=self.log),
             "warm-up campaign", self.log)

    def prepare(self):
        shutil.rmtree(self.state, ignore_errors=True)

    def argv(self):
        return self.campaign_argv(self.state)

    def check(self, sample, reference):
        return campaign_check(self.state, sample, reference)


def merged_digests(state):
    merged = state / "merged"
    if not merged.is_dir():
        return {}
    return {p.name: sha256(p.read_bytes())[:16]
            for p in sorted(merged.glob("*.json"))}


def campaign_check(state, sample, reference):
    """Failed operations of one campaign: a task that failed or needed a
    retry, and a merged output that is missing or differs from the
    reference. A nonzero exit fails every operation."""
    if sample.returncode != 0:
        return CAMPAIGN_TASKS + CAMPAIGN_MERGES, None
    manifest = read_manifest(state)
    ok_tasks = sum(1 for t in manifest["tasks"]
                   if t["status"] == "done" and t["attempts"] == 1)
    failed = max(0, CAMPAIGN_TASKS - ok_tasks)
    digests = merged_digests(state)
    if reference is None:
        failed += max(0, CAMPAIGN_MERGES - len(digests))
    else:
        failed += sum(1 for name, d in reference.items()
                      if digests.get(name) != d)
    return failed, digests


def read_manifest(state):
    return json.loads((state / "campaign.json").read_text())


def task_times(manifest):
    """(study kind, seconds) of every task, from its wall_time_ms."""
    kinds = [s["kind"] for s in manifest["studies"]]
    return [(kinds[t["study"]], t["wall_time_ms"] / 1e3)
            for t in manifest["tasks"]]


class ReportCompare:
    """`varbench report A.vbt --compare B.vbt`: the paper's comparison of two
    paired algorithms (P(A>B), its paired bootstrap CI, the permutation
    test) on 20 000 paired rows, ReportSpec defaults, one thread."""

    name = "report_compare"
    ops = 1
    unchecked = "report bytes only checked to repeat across iterations"

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.out = work / "report.txt"
        self.stdout_path = self.out
        self.log = work / "report.log"

    def setup(self):
        fresh_dir(self.work)
        must(run([PROBE, "gen-compare", self.seed, self.work], log=self.log),
             "input generator", self.log)
        must(run(self.report_argv(*WARMUP_REPORT), stdout=self.out,
                 log=self.log), "warm-up report", self.log)

    def report_argv(self, *extra):
        return [VARBENCH, "report", self.work / "A.vbt", "--compare",
                self.work / "B.vbt", "--threads", "1", *extra]

    def prepare(self):
        self.out.unlink(missing_ok=True)

    def argv(self):
        return self.report_argv()

    def check(self, sample, reference):
        if sample.returncode != 0 or not self.out.is_file():
            return 1, None
        digest = sha256(self.out.read_bytes())
        return int(reference is not None and digest != reference), digest


class MergeShards:
    """`varbench merge` of four VBT1 shards (2 000 000 rows, 7 columns,
    ~100 MB): the io layer at scale, reads and writes, no ml or stats."""

    name = "merge_shards"
    ops = 1
    stdout_path = None
    unchecked = "merged.vbt still checked against the generator's expected.vbt"

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.out = work / "merged.vbt"
        self.log = work / "merge.log"

    def setup(self):
        fresh_dir(self.work)
        must(run([PROBE, "gen-shards", self.seed, self.work], log=self.log),
             "input generator", self.log)
        must(run(self.argv(), log=self.log), "warm-up merge", self.log)

    def prepare(self):
        self.out.unlink(missing_ok=True)

    def argv(self):
        return [VARBENCH, "merge", self.work / "shards", "--out", self.out,
                "--format", "binary"]

    def check(self, sample, reference):
        if sample.returncode != 0 or not self.out.is_file():
            return 1, None
        digest = file_digest(self.out)
        # expected.vbt is the unsharded table, written by the generator
        # through the streaming encoder: merge must reproduce it exactly.
        wrong = digest != file_digest(self.work / "expected.vbt")
        wrong |= reference is not None and digest != reference
        return int(wrong), digest


WORKLOADS = {w.name: w for w in (PaperCampaign, ReportCompare, MergeShards)}


# ------------------------------------------------------------------ reporting

def nearest_rank(values, p):
    """Nearest-rank percentile, p in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered))) - 1]


def percentile_line(values, unit):
    """Median plus the highest percentile with at least ten samples beyond
    it, and the sample count."""
    n = len(values)
    line = f"median {statistics.median(values):.6g} {unit}"
    for p in (0.999, 0.99, 0.95, 0.9, 0.75, 0.5):
        if n * (1 - p) >= 10:
            line += f", p{p * 100:g} {nearest_rank(values, p):.6g} {unit}"
            break
    else:
        line += ", no percentile has 10 samples beyond it"
    return line + f" (n={n})"


def emit(correct, attempted, failed, section, values):
    """Print the result line: every metric of BENCHMARK.json's `section`,
    with its unit, valued from `values` (name -> number)."""
    bench = json.loads(BENCHMARK_FILE.read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in bench[section]} if values else {}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": int(failed), "metrics": metrics}))


# ------------------------------------------------------------ end-to-end run

def end_to_end(workload_cls, seed, seconds):
    work = fresh_dir(WORK_DIR / workload_cls.name)
    workload = workload_cls(seed, work)
    reference = load_reference().get(workload.name, {}).get(str(seed))

    setup_s = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - start)

    samples, failed, digests = [], 0, []
    start = time.perf_counter()
    # Run whole iterations while the next one (predicted from the longest
    # so far) still fits in the measuring window; always at least one.
    while not samples or (time.perf_counter() - start +
                          max(s.wall_s for s in samples) <= seconds):
        workload.prepare()
        sample = run(workload.argv(), stdout=workload.stdout_path,
                     log=workload.log)
        bad, digest = workload.check(sample, reference)
        samples.append(sample)
        failed += bad
        digests.append(digest)
    if reference is None:
        # Without a reference the outputs must at least repeat, which a
        # deterministic but wrong program also does: say what went unchecked.
        failed += workload.ops * sum(1 for d in digests[1:]
                                     if d is not None and d != digests[0])
        print(f"perfbench: no reference digests for seed {seed} (see "
              f"{REFERENCE_FILE.name}); {workload.unchecked}", file=sys.stderr)

    attempted = workload.ops * len(samples)
    walls = [s.wall_s for s in samples]
    cpus = [s.cpu_s for s in samples]
    rss = [s.peak_rss_mb for s in samples]
    print(f"{workload.name} seed={seed}: {len(samples)} timed iteration(s), "
          f"{SETUP_REPS} set-up(s)")
    print(f"  wall_s       {percentile_line(walls, 's')}")
    print(f"  cpu_s        {percentile_line(cpus, 's')}")
    print(f"  peak_rss_mb  {percentile_line(rss, 'MB')}")
    print(f"  setup_s      {percentile_line(setup_s, 's')}")
    print(f"  failed_ratio {failed}/{attempted}")
    if workload.name == PaperCampaign.name and samples[-1].returncode == 0:
        tasks = task_times(read_manifest(workload.state))
        print(f"  task_sum_s   {sum(t for _, t in tasks):.6g} s "
              f"(last iteration)")
        print(f"  longest_task_s {max(t for _, t in tasks):.6g} s")
    print("  outputs      " + ("match the reference digests" if reference
                             else f"NOT checked against a reference for seed "
                                  f"{seed}: {workload.unchecked}"))
    emit(failed == 0, attempted, failed, "end_to_end", {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup_s),
    })


# -------------------------------------------------------------- traced run

def read_trace(path):
    doc = json.loads(path.read_text())
    labels = {e["ident"]: e["label"] for e in doc.get("labels", [])}
    return doc["spans"], labels


def campaign_layers(seed, work, reference):
    """Untraced then traced paper campaign; per-layer campaign/study
    metrics from the manifests, the coordinator and worker traces and the
    campaign's --metrics block."""
    campaign = PaperCampaign(seed, work)
    campaign.setup()
    plain = run(campaign.argv(), log=campaign.log)
    failed, plain_digests = campaign_check(campaign.state, plain, reference)
    tasks = task_times(read_manifest(campaign.state))

    traced_state = work / "traced"
    shutil.rmtree(traced_state, ignore_errors=True)
    traced = run(campaign.campaign_argv(traced_state, "--trace", "--metrics",
                                        "all"), log=campaign.log)
    # Traces are provenance: the traced run must write the same bytes.
    bad, _ = campaign_check(traced_state, traced, reference or plain_digests)
    failed += bad
    if plain.returncode or traced.returncode:
        return None, failed
    counters = read_manifest(traced_state)["metrics"]

    spans, labels = read_trace(traced_state / "traces" /
                               "coordinator.trace.json")
    running, merges = {}, []
    for s in spans:
        if s["span"] == "campaign.task_running":
            running[s["ident"]] = s
        elif s["span"] == "campaign.study_merged":
            merges.append(s["dur_ns"] / 1e9)
    # claimed_at to launched_at around the launcher call, so it holds the
    # spawn; p50/p90 are log2-bin upper bounds of the coordinator's timer.
    claim = counters["campaign.claim_to_start_ns"]
    spawn_ms = []
    for ident, span in running.items():
        worker = traced_state / "traces" / f"worker-{labels[ident]}.trace.json"
        study = [w["dur_ns"] for w in read_trace(worker)[0]
                 if w["span"] == "study.run"]
        spawn_ms.append((span["dur_ns"] - sum(study)) / 1e6)
    busy_s = sum(s["dur_ns"] for s in running.values()) / 1e9

    task_sum = sum(t for _, t in tasks)
    longest = max(t for _, t in tasks)
    values = {
        "campaign.tasks_launched": counters["campaign.tasks_launched"]["sum"],
        "campaign.task_retries": counters["campaign.task_retries"]["sum"],
        "campaign.claim_to_start_ms.p50": claim["p50"] / 1e6,
        "campaign.claim_to_start_ms.p90": claim["p90"] / 1e6,
        "campaign.worker_idle_s": WORKERS * traced.wall_s - busy_s,
        "campaign.makespan_over_floor":
            plain.wall_s / max(longest, task_sum / WORKERS),
        "campaign.spawn_overhead_ms.p50": nearest_rank(spawn_ms, 0.5),
        "campaign.merge_s": sum(merges),
        "task_sum_s": task_sum,
        "longest_task_s": longest,
        "trace.overhead_ratio": traced.wall_s / plain.wall_s,
    }
    for kind in TASK_KINDS:
        values[f"study.task_s.{kind}"] = sum(t for k, t in tasks if k == kind)
    return values, failed


def traced(seed):
    """The per-layer suite. Every per-layer metric is emitted whichever
    workload is named, so one traced run covers all layers."""
    work = fresh_dir(WORK_DIR / "layers")
    reference = {name: digests.get(str(seed))
                 for name, digests in load_reference().items()}
    attempted = 2 * (CAMPAIGN_TASKS + CAMPAIGN_MERGES) + 3
    campaign, failed = campaign_layers(seed, work / "campaign",
                                       reference.get(PaperCampaign.name))

    inputs = work / "inputs"
    log = work / "layers.log"
    must(run([PROBE, "gen-compare", seed, inputs], log=log), "generator", log)
    must(run([PROBE, "gen-shards", seed, inputs], log=log), "generator", log)
    cli_report = work / "cli_report.txt"
    report = run(ReportCompare(seed, inputs).report_argv(), stdout=cli_report,
                 log=log)
    failed += report.returncode != 0
    # io runs in a process of its own: its RSS is the loaded shards only.
    probe_args = {"layers": [seed, inputs, ROOT], "io": [seed, inputs]}
    probes = [run([PROBE, part, *args], stdout=work / f"probe-{part}.json",
                  log=log) for part, args in probe_args.items()]
    if any(p.returncode for p in probes) or campaign is None:
        emit(False, attempted, failed + 2, "per_layer", None)
        return
    # The probe's in-process report and merge must match the CLI's report
    # and the unsharded table, and those the reference digests.
    expected = {ReportCompare.name: sha256(cli_report.read_bytes()),
                MergeShards.name: file_digest(inputs / "expected.vbt")}
    failed += sha256((inputs / "probe_report.txt").read_bytes()) != \
        expected[ReportCompare.name]
    failed += file_digest(inputs / "probe_merged.vbt") != \
        expected[MergeShards.name]
    failed += sum(1 for name, digest in expected.items()
                  if reference.get(name) not in (None, digest))
    unchecked = [name for name in WORKLOADS if reference.get(name) is None]
    if unchecked:
        print(f"perfbench: no reference digests for seed {seed}; outputs of "
              f"{', '.join(unchecked)} only checked against each other",
              file=sys.stderr)

    layers = {}
    for part in probe_args:
        layers.update(json.loads(
            (work / f"probe-{part}.json").read_text().splitlines()[-1]))
    values = {**campaign, **layers}
    print(f"per-layer suite seed={seed}: ml.fit_ms over "
          f"{layers['ml.fit_samples']} fits; failed {failed}/{attempted}")
    for name, value in values.items():
        print(f"  {name:36s} {value:.6g}")
    emit(failed == 0, attempted, failed, "per_layer", values)


# ---------------------------------------------------------------- reference

def record_reference(workload_cls, seed):
    """Write this commit's output digest of one workload for `seed` into
    reference_digests.json (one untimed iteration)."""
    reference = load_reference()
    workload = workload_cls(seed, fresh_dir(WORK_DIR / workload_cls.name))
    workload.setup()
    workload.prepare()
    sample = run(workload.argv(), stdout=workload.stdout_path,
                 log=workload.log)
    bad, digest = workload.check(sample, None)
    if bad:
        fail(f"{workload.name} seed {seed}: {bad} failed operation(s)")
    reference.setdefault(workload.name, {})[str(seed)] = digest
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                              + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="record output digests for --seed instead of "
                             "measuring")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    require_checkout()
    # A terminated run still kills and reaps the command it is waiting on
    # (run() handles the SystemExit), campaign workers included.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # Compilers and children keep their temporary files inside the checkout.
    tmp = WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    build()
    if args.record_reference:
        record_reference(WORKLOADS[args.workload], args.seed)
    elif args.trace:
        traced(args.seed)
    else:
        end_to_end(WORKLOADS[args.workload], args.seed, args.seconds)


if __name__ == "__main__":
    main()
