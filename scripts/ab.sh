#!/usr/bin/env bash
# A/B referee for timing claims: perfbench at REV (A) against perfbench
# built from the working tree (B), in interleaved pairs on every workload.
#
# Usage: ./scripts/ab.sh [--aa] REV
#   REV    the baseline revision (e.g. the parent commit)
#   --aa   also run an A/A pass (REV against itself, same pairs) and print
#          the host's noise floor beside each bound
#
# It always runs 10 pairs on every workload of BENCHMARK.json, each
# perfbench run lasting BENCHMARK.json's run_seconds.
# REV is read with `git archive` (as scripts/loc.sh does) into
# ${AB_SCRATCH:-${TMPDIR:-/tmp}/pdn-ab}/<commit>, and its perfbench is
# built there once (in its own perfbench/target, whatever CARGO_TARGET_DIR
# says) and reused; the working tree's perfbench is built in
# perfbench/target. Pair i runs A then B when i is even and B then A when
# it is odd, so a drift of the host's speed hits both sides alike. Every
# run's last stdout line (perfbench's JSON) is kept in runs.jsonl beside
# REV's build.
#
# For each workload and each end-to-end metric of BENCHMARK.json it prints
# both medians, A's quartiles, B's win count over the pairs and a verdict
# against the metric's bound:
#   ok       B's median is within the bound of A's
#   BREACH   B's median is worse than A's by more than the bound
#   NOISY    A's own interquartile range exceeds the bound, so the runs
#            spread too widely to tell, and some run of B is no better than
#            some run of A (when every run of B beats every run of A, the
#            spread does not matter: the verdict is ok)
# A larger failed share of operations on B is a breach too. It exits 1 if
# any verdict is BREACH or NOISY, else 0.
# Bounds are read from BENCHMARK.json, never widened here; --aa only
# reports how the host's noise compares with them.
set -euo pipefail
cd "$(dirname "$0")/.."

aa=0
rev=""
while (($# > 0)); do
  case "$1" in
    --aa) aa=1 ;;
    -h | --help) sed -n '2,33p' "$0"; exit 0 ;;
    -*) echo "ab.sh: unknown flag $1" >&2; exit 2 ;;
    *) rev="$1" ;;
  esac
  shift
done
if [[ -z "${rev}" ]]; then
  echo "usage: ./scripts/ab.sh [--aa] REV" >&2
  exit 2
fi

commit=$(git rev-parse --verify "${rev}^{commit}")
scratch="${AB_SCRATCH:-${TMPDIR:-/tmp}/pdn-ab}"
base="${scratch}/${commit}"
base_bin="${base}/perfbench/target/release/perfbench"
if [[ ! -x "${base_bin}" ]]; then
  echo "==> building perfbench at ${commit:0:12} in ${base}" >&2
  rm -rf "${base}"
  mkdir -p "${base}"
  git archive "${commit}" | tar -x -C "${base}"
  cargo build --release --offline --quiet --manifest-path "${base}/perfbench/Cargo.toml" \
    --target-dir "${base}/perfbench/target"
fi
echo "==> building perfbench from the working tree" >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml \
  --target-dir perfbench/target
head_bin="${PWD}/perfbench/target/release/perfbench"

AB_A="${base_bin}" AB_B="${head_bin}" AB_AA="${aa}" AB_LOG="${base}/runs.jsonl" \
  AB_REV="${rev}" python3 - <<'EOF'
import json
import os
import statistics
import subprocess
import sys

bench = json.load(open("BENCHMARK.json"))
seconds = str(bench["run_seconds"])
pairs = 10
workloads = [w["name"] for w in bench["workloads"]]
metrics = bench["end_to_end"]
log = open(os.environ["AB_LOG"], "a")


def run(binary, workload, side):
    out = subprocess.run(
        [binary, "--workload", workload, "--seconds", seconds],
        check=True, capture_output=True, text=True,
    ).stdout
    last = out.strip().splitlines()[-1]
    log.write(json.dumps({"workload": workload, "side": side, "result": json.loads(last)}) + "\n")
    log.flush()
    return json.loads(last)


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def interleaved(a_bin, b_bin, workload, label):
    a, b = [], []
    for i in range(pairs):
        order = [("A", a_bin, a), ("B", b_bin, b)]
        if i % 2:
            order.reverse()
        for side, binary, into in order:
            into.append(run(binary, workload, label + side))
        print(f"  {label}pair {i + 1}/{pairs} done", file=sys.stderr)
    return a, b


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs]


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def worse(delta, better):
    """`delta` (B over A, relative) turned so that positive is worse."""
    return delta if better == "lower" else -delta


bad = False
for workload in workloads:
    print(f"==> {workload}: {pairs} interleaved pairs, {seconds} s each", file=sys.stderr)
    a, b = interleaved(os.environ["AB_A"], os.environ["AB_B"], workload, "")
    noise = {}
    if os.environ["AB_AA"] == "1":
        a1, a2 = interleaved(os.environ["AB_A"], os.environ["AB_A"], workload, "A/A ")
        for m in metrics:
            x, y = values(a1, m["name"]), values(a2, m["name"])
            mx = statistics.median(x)
            q1, q3 = quartiles(x + y)
            drift = abs(statistics.median(y) / mx - 1) if mx else 0.0
            spread = (q3 - q1) / statistics.median(x + y) if mx else 0.0
            noise[m["name"]] = max(drift, spread)
    print(f"\n{workload} (A = {os.environ['AB_REV']}, B = working tree)")
    head = f"{'metric':<14} {'A median':>11} {'B median':>11} {'A q1':>11} {'A q3':>11} {'change':>8} {'B wins':>7} {'bound':>6}"
    if noise:
        head += f" {'noise':>6}"
    print(head + "  verdict")
    for m in metrics:
        name, bound, better = m["name"], m["bound"], m["better"]
        x, y = values(a, name), values(b, name)
        ma, mb = statistics.median(x), statistics.median(y)
        q1, q3 = quartiles(x)
        delta = mb / ma - 1 if ma else 0.0
        wins = sum(1 for p, q in zip(x, y) if worse(q - p, better) < 0)
        # Every run of B beats every run of A: B's worst against A's best.
        worst_b, best_a = (max(y), min(x)) if better == "lower" else (min(y), max(x))
        separated = worse(worst_b - best_a, better) < 0
        if worse(delta, better) > bound:
            verdict = "BREACH"
        elif ma and (q3 - q1) / ma > bound and not separated:
            verdict = "NOISY"
        else:
            verdict = "ok"
        bad |= verdict != "ok"
        row = f"{name:<14} {ma:>11.4g} {mb:>11.4g} {q1:>11.4g} {q3:>11.4g} {delta:>+8.1%} {wins:>4}/{pairs:<2} {bound:>6.0%}"
        if noise:
            row += f" {noise[name]:>6.1%}"
            if noise[name] > bound:
                verdict += " (noise floor exceeds the bound)"
        print(row + "  " + verdict)
    fa, fb = failed_share(a), failed_share(b)
    verdict = "BREACH" if fb > fa else "ok"
    bad |= verdict != "ok"
    print(f"{'failed share':<14} {fa:>11.4g} {fb:>11.4g}{'':>62}  {verdict}")
sys.exit(1 if bad else 0)
EOF
