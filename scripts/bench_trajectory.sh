#!/usr/bin/env bash
# Merge every committed BENCH_*.json into one trajectory summary:
# the headline number(s) each bench pins, in one place, so a PR that
# regenerates one file can be read against the rest without opening six
# JSON blobs. Pure read-only; exits non-zero if any expected file is
# missing or unparseable.
#
# Usage: ./scripts/bench_trajectory.sh [--json]
#   --json  emit the merged summary as a single JSON object on stdout
#           (default is an aligned human-readable table)
set -euo pipefail
cd "$(dirname "$0")/.."

fmt="table"
if [[ "${1:-}" == "--json" ]]; then
  fmt="json"
fi

FMT="$fmt" python3 - <<'EOF'
import glob
import json
import os
import signal
import sys

# Die quietly when the consumer closes the pipe (e.g. `| head`).
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

files = sorted(glob.glob("BENCH_*.json"))
if not files:
    print("no BENCH_*.json files found in the repo root", file=sys.stderr)
    sys.exit(1)

# Per-bench headline extraction: (label, key) pairs pulled from each
# file's top level. Keys absent from a given file are skipped, so older
# snapshots of a bench still merge cleanly.
HEADLINES = {
    "BENCH_crypto.json": [
        ("stun checks/s (fast)", "stun_checks_per_sec_new"),
        ("stun speedup", "stun_speedup"),
        ("jwt verifies/s (fast)", "jwt_verifies_per_sec_new"),
        ("jwt speedup", "jwt_speedup"),
        ("dtls worst-case speedup", "dtls_worst_speedup"),
        ("dtls seal_into allocs/record", "dtls_seal_into_allocs_per_record"),
        ("dtls open_into allocs/record", "dtls_open_into_allocs_per_record"),
        ("aes-gcm backend", "aes_gcm_backend"),
    ],
    "BENCH_scan.json": [
        ("corpus sites", "corpus_sites"),
        ("detections", "detections"),
        ("matcher speedup", "speedup_matcher"),
        ("total speedup", "speedup_total"),
    ],
    "BENCH_service.json": [
        ("knee joins-ok/s", "knee_joins_ok_per_sec"),
        ("goodput at 2x", "goodput_2x_per_sec"),
        ("goodput at 10x", "goodput_10x_per_sec"),
        ("federation K=1 knee", "federation_k1_knee_joins_ok_per_sec"),
        ("federation K=4 knee", "federation_k4_knee_joins_ok_per_sec"),
        ("federation scaling", "federation_scaling_x"),
        ("per-join cpu fast ns", "per_join_cpu_fast_ns"),
    ],
    "BENCH_sim.json": [
        ("queue events/s (fast)", "queue_events_per_sec_new"),
        ("queue speedup", "queue_speedup"),
        ("probe cost ns", "probe_cost_ns"),
    ],
    "BENCH_swarm.json": [
        ("events/s at 10k peers", "events_per_sec_10k"),
        ("events/s at 1m peers", "events_per_sec_1m"),
        ("peers/GB at 1m", "peers_per_gb_1m"),
        ("offload % at 1m", "offload_pct_1m"),
    ],
    "BENCH_wire.json": [
        ("signal msgs/s (binary)", "signal_msgs_per_sec_binary"),
        ("signal codec speedup", "signal_speedup"),
        ("p2p codec speedup", "p2p_speedup"),
        ("binary allocs/msg", "binary_allocs_per_msg_steady_state"),
    ],
}

merged = {}
rows = []
for path in files:
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"failed to read {path}: {e}", file=sys.stderr)
        sys.exit(1)
    bench = path.removeprefix("BENCH_").removesuffix(".json")
    picks = {}
    for label, key in HEADLINES.get(path, []):
        if key in data:
            picks[key] = data[key]
            rows.append((bench, label, data[key]))
    if not picks:
        # A bench this script doesn't know yet: surface its scalar keys
        # rather than dropping it silently.
        for key, val in data.items():
            if isinstance(val, (int, float, str, bool)):
                picks[key] = val
                rows.append((bench, key, val))
    merged[bench] = picks

if os.environ.get("FMT") == "json":
    print(json.dumps(merged, indent=2))
else:
    wide_b = max(len(r[0]) for r in rows)
    wide_l = max(len(r[1]) for r in rows)
    last = None
    for bench, label, val in rows:
        if bench != last:
            if last is not None:
                print()
            last = bench
        if isinstance(val, float):
            val = f"{val:,.2f}"
        elif isinstance(val, int) and not isinstance(val, bool):
            val = f"{val:,}"
        print(f"{bench:<{wide_b}}  {label:<{wide_l}}  {val}")
EOF
