#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload chat_knee --seed 20251116 --seconds 12 --trace 0

Run from the root of a checkout.  The first run builds hetis_core and the
driver into .bench_build/perfbench.  Each run then

  * starts SETUP_PROCS set-up processes, each setting up SETUP_REPEAT times
    (trace generation plus engine::make, which runs the planner), half of
    them before the measured process and half after it, and takes setup_s
    as the median of all their set-ups;
  * starts one measured process on the plan the first set-up printed: one
    event loop and the slo_rate_rps search, or with --trace 1 repeated
    untraced loops for about --seconds / 2 and one traced loop;
  * checks the outputs and prints, as the last line of stdout, one JSON
    object: end-to-end metrics with --trace 0, per-layer metrics with
    --trace 1.

A process that dies is counted in "failed" with its signal and is never
retried.  The set-ups plan with one search thread, because the
multi-threaded search has a data race that kills a few percent of them.
See perfbench/NOTES.md for the workloads, the metrics and the checks.
"""
import argparse
import fcntl
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench")
WORKLOADS = ("chat_knee", "longctx_kv", "spot_dc64", "chat_hexgen")
# Set-ups run in SETUP_PROCS processes of SETUP_REPEAT set-ups each, the
# first half before the measured process and the rest after it, so that
# setup_s samples the machine at both ends of the run.  A process prints
# each set-up as it completes, so a crash keeps the set-ups before it.
SETUP_PROCS = 4
SETUP_REPEAT = 16
RUN_LIMIT_S = 150  # a run must end within 180 s once the driver is built
AFTER_RUN_S = 20   # kept back from the measured run for the later set-ups


def log(msg):
    print(msg, flush=True)


def fail_early(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail_early("no hetis sources next to perfbench/ (run from a full checkout)")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench"])
        with open(os.path.join(BUILD, "build.log"), "w") as out:
            for cmd in steps:
                if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                    fail_early("build failed; see " + os.path.relpath(out.name, ROOT))


def tree_fingerprint():
    """Hash of every file the driver is built from, so digests remembered
    for one version of the code are compared only with runs of the same
    version."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), os.path.join(ROOT, "CMakeLists.txt"),
                os.path.join(HERE, "src"), os.path.join(HERE, "CMakeLists.txt")):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def describe_exit(code):
    if code < 0:
        try:
            return "killed by " + signal.Signals(-code).name
        except ValueError:
            return "killed by signal %d" % -code
    return "exited with code %d" % code


def launch(args, timeout):
    """Runs the driver; returns (every JSON line it printed, failure text or
    None).  Lines printed before a crash are kept."""
    try:
        p = subprocess.run([DRIVER] + args, capture_output=True, text=True,
                           timeout=max(1.0, timeout))
        out, code, err = p.stdout, p.returncode, p.stderr
    except subprocess.TimeoutExpired as e:
        out, code, err = e.stdout or b"", None, ""
        out = out.decode() if isinstance(out, bytes) else out
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            pass
    if code is None:
        return lines, "timed out after %.0f s" % timeout
    if code != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        return lines, describe_exit(code) + (": " + tail[0] if tail[0] else "")
    return lines, None if lines else "printed no result"


class Digests:
    """Run digests remembered across runs of one version of the code."""

    def __init__(self):
        self.path = os.path.join(BUILD, "digests-%s.json" % tree_fingerprint())
        try:
            with open(self.path) as f:
                self.known = json.load(f)
        except (OSError, ValueError):
            self.known = {}

    def check(self, workload, seed, digest):
        errors = []
        key = "%s:%d" % (workload, seed)
        if key in self.known and self.known[key] != digest:
            errors.append("digest %s differs from an earlier run of the same seed (%s)"
                          % (digest, self.known[key]))
        for other, d in self.known.items():
            if other != key and other.startswith(workload + ":") and d == digest:
                errors.append("seed %d gives the same digest as %s" % (seed, other))
        self.known.setdefault(key, digest)
        tmp = self.path + ".tmp%d" % os.getpid()
        with open(tmp, "w") as f:
            json.dump(self.known, f, indent=0, sort_keys=True)
        os.replace(tmp, self.path)
        return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=20251116)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    deadline = time.monotonic() + RUN_LIMIT_S
    traced = a.trace == 1
    log("perfbench %s seed=%d %s" % (a.workload, a.seed, "traced" if traced else "untraced"))

    attempted = failed = 0
    errors = []
    setups = []

    def set_up(procs):
        nonlocal attempted, failed
        for i in procs:
            attempted += 1
            done, why = launch(["setup", a.workload, str(a.seed), str(SETUP_REPEAT)],
                               deadline - time.monotonic())
            for j, res in enumerate(done):
                log("setup %d.%d: generate %.6f s, make %.6f s, plan %s"
                    % (i + 1, j + 1, res["generate_s"], res["make_s"],
                       res["plan"] or "(fixed)"))
            setups.extend(done)
            if why:
                failed += 1
                log("setup process %d: %s after %d set-ups (counted as failed, not retried)"
                    % (i + 1, why, len(done)))

    set_up(range(SETUP_PROCS // 2))
    run_args = ["run", a.workload, str(a.seed)]
    if setups and setups[0]["plan"]:
        run_args += ["--plan", setups[0]["plan"]]
    if traced:
        spans = os.path.join(BUILD, "spans", a.workload + ".csv")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        run_args += ["--traced", "--spans", spans, "--loop-seconds", "%g" % (0.5 * a.seconds)]
    run = None
    if setups:
        attempted += 1
        done, why = launch(run_args, deadline - AFTER_RUN_S - time.monotonic())
        if why:
            failed += 1
            errors.append("measured run " + why)
        else:
            run = done[-1]
    else:
        errors.append("every set-up before the measured run failed; nothing to measure")
    set_up(range(SETUP_PROCS // 2, SETUP_PROCS))
    plans = sorted({s["plan"] for s in setups})
    if len(plans) > 1:
        errors.append("set-ups produced %d different plans: %s" % (len(plans), plans))

    metrics = {}
    if run is not None:
        errors += run["errors"]
        # "finished" is the collector's count and "unfinished" is counted
        # from the records, so the sum is a check across the two.
        log("main: sent=%d finished=%d unfinished=%d sent=finished+unfinished:%s"
            % (run["sent"], run["finished"], run["unfinished"],
               run["sent"] == run["finished"] + run["unfinished"]))
        log("digest %s events %d" % (run["digest"], run["events"]))
        log("samples: ttft %d, tpot %d; event loop wall s: %s"
            % (run["ttft_samples"], run["tpot_samples"],
               " ".join("%.4f" % w for w in run["loop_wall_s"])))
        if run["sent"] != run["finished"] + run["unfinished"]:
            errors.append("sent != finished + unfinished")
        if run["slo_attainment"] > 1.0 - run["unfinished_frac"]:
            errors.append("slo_attainment %.17g > 1 - unfinished_frac %.17g"
                          % (run["slo_attainment"], run["unfinished_frac"]))
        for p in run.get("probes", []):
            log("probe %-9.6g horizon %g s sent=%d finished=%d unfinished=%d"
                " sent=finished+unfinished:%s attainment=%.6f wall %.2f s %s%s"
                % (p["rate"], p["horizon"], p["sent"], p["finished"], p["unfinished"],
                   p["sent"] == p["finished"] + p["unfinished"],
                   p["attainment"], p["wall_s"], "pass" if p["pass"] else "fail",
                   " (stopped once the target was out of reach)" if p["stopped_early"] else ""))
            if p["sent"] != p["finished"] + p["unfinished"]:
                errors.append("probe %g: sent != finished + unfinished" % p["rate"])
        if run["plan"] and setups and run["plan"] != setups[0]["plan"]:
            errors.append("measured run served a different plan than its set-up")
        errors += Digests().check(a.workload, a.seed, run["digest"])

        if traced:
            values = dict(run)
            values["workload.generate_s"] = statistics.median(s["generate_s"] for s in setups)
            values["planner.make_s"] = statistics.median(s["make_s"] for s in setups)
            values["planner.configs_evaluated"] = setups[0]["configs_evaluated"]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            values = dict(run)
            values["finished_frac"] = 1.0 - run["unfinished_frac"]
            values["setup_s"] = statistics.median(s["generate_s"] + s["make_s"] for s in setups)
            log("unfinished_frac %.17g (every request sent finishes or counts here)"
                % run["unfinished_frac"])
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        missing = sorted(set(units) - set(values))
        if missing:
            errors.append("missing metrics: " + ", ".join(missing))
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}

    for e in errors:
        log("check failed: " + e)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
