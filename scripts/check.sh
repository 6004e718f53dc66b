#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, formatting.
# Run from the repo root: ./scripts/check.sh
#
# Every gate runs through run_gate, which names a failed gate (and its
# exit code) and records it, then goes on to the next gate: one run
# reports every failed gate, and the script exits non-zero at the end if
# any failed. The expected-vs-actual detail is in the gate's own output
# just above its failure line.
set -uo pipefail
cd "$(dirname "$0")/.."

failed=()

run_gate() {
  local name="$1"
  shift
  echo "==> ${name}"
  # NB: not `if ! "$@"` / fall-through-if — both leave $? = 0 on failure.
  "$@" && return 0
  local code=$?
  echo "" >&2
  echo "FAILED gate: ${name}" >&2
  echo "  command : $*" >&2
  echo "  expected: exit 0, actual: exit ${code} (expected-vs-actual detail in the output above)" >&2
  failed+=("${name} (exit ${code})")
}

run_gate "cargo build --release" \
  cargo build --release --offline --workspace

run_gate "cargo test" \
  cargo test --offline --workspace --quiet

# A test registered twice in one binary runs twice and counts twice (a
# macro that adds its own #[test] beside the caller's does this). Equal
# names in different binaries are legal, so names are compared within
# each binary: cargo prints a "Running"/"Doc-tests" header on stderr
# before each binary's list.
no_duplicate_tests() {
  local listing
  listing=$(cargo test --offline --workspace -- --list 2>&1) || {
    echo "${listing}" >&2
    return 1
  }
  awk '
    /^ *(Running|Doc-tests) / { bin = $0; sub(/^ +/, "", bin); next }
    /: (test|bench)$/ {
      if (seen[bin, $0]++ == 1) {
        print "listed twice in " bin ": " $0 > "/dev/stderr"
        dup = 1
      }
    }
    END { exit dup }
  ' <<<"${listing}"
}
run_gate "duplicate-registration gate (no test name listed twice by one test binary)" \
  no_duplicate_tests

run_gate "determinism gate (worker counts 1/2/4/8)" \
  cargo test --offline -p pdn-bench --test pool_determinism --quiet

run_gate "shard determinism gate (shard counts 1/2/4/8, inline + threaded)" \
  cargo test --offline -p pdn-bench --test shard_determinism --quiet

# Selected by test target, not by name filter: cargo exits 0 when a name
# filter matches nothing, which would pass this gate with zero tests.
run_gate "crypto differential tests (SHA-256/HMAC vs the reference oracle; AES-128-GCM known answers and hardware vs portable)" \
  cargo test --offline -p pdn-crypto --test reference_diff --test aes_gcm_diff --quiet
run_gate "crypto gate (fast-path speedup/alloc asserts)" \
  cargo run --release --offline -p pdn-oracle --bin crypto_bench -- --quick

run_gate "wire gate (binary vs JSON codec speedup + zero-alloc asserts)" \
  cargo run --release --offline -p pdn-oracle --bin wire_bench -- --quick

# The three work gates compare exact, host-independent counts with the
# goldens under tests/goldens/. Each binary embeds its golden and prints
# golden vs actual on a mismatch through pdn_bench::assert_matches_golden,
# the helper the paper-golden tests use. Wall time is printed, never
# gated: perfbench's A/B run is the only wall-clock referee. sim_bench
# also gates the calendar queue at >= 2x the heap+hashmap one, an
# in-process ratio of interleaved runs like crypto_bench's and wire_bench's.
run_gate "sim work gate (table5+ablations output hash and profiler phase entries equal tests/goldens/sim_quick.txt; calendar queue >= 2x heap+hashmap on the churn microbench)" \
  cargo run --release --offline -p pdn-oracle --bin sim_bench -- --quick

run_gate "swarm work gate (10k-peer table identical at shards 1/2/4/8, peers/GB floor, events, bytes/peer and table equal tests/goldens/swarm_quick.txt)" \
  cargo run --release --offline -p pdn-bench --bin swarm_scale_bench -- --quick

run_gate "service SLO and work gate (p999 JTFS under budget, goodput plateau at 2x, quick rows equal tests/goldens/service_quick.txt, federation K=4 knee >= 3x K=1 with shard-mode identity)" \
  cargo run --release --offline -p pdn-bench --bin service_bench -- --quick

# The perfbench checkout builds the library crates from source against its
# own lockfile; a new normal dependency anywhere in its graph would make
# that lockfile stale. Dev-dependencies are outside it.
perfbench_lock_valid() {
  cargo metadata --offline --locked --format-version 1 \
    --manifest-path perfbench/Cargo.toml >/dev/null
}
run_gate "perfbench lockfile valid (cargo metadata --locked)" perfbench_lock_valid

# perfbench's own checks: every workload's golden output at its default
# seed must match the committed file byte for byte, and the replay-parity
# tests (a hand-written mirror of the service harness) must pass.
perfbench_goldens() {
  local manifest=perfbench/Cargo.toml workload bin actual
  cargo build --release --offline --quiet --manifest-path "${manifest}" || return 1
  bin=perfbench/target/release/perfbench
  for workload in paper_repro tracker_knee tracker_overload swarm_100k; do
    actual=$("${bin}" --workload "${workload}" --print-golden) || return 1
    if ! diff -u "perfbench/goldens/${workload}.txt" - <<<"${actual}"; then
      echo "perfbench ${workload}: --print-golden differs from perfbench/goldens/${workload}.txt" >&2
      return 1
    fi
  done
  cargo test --release --offline --quiet --manifest-path "${manifest}"
}
run_gate "perfbench goldens (--print-golden for all four workloads) and replay-parity tests" perfbench_goldens

# Oracles are dev-only: no production crate (nor pdn-bench) may link
# pdn-oracle as a normal dependency, so each production type exists once.
no_oracle_in_normal_deps() {
  local crate tree
  for crate in pdn-crypto pdn-simnet pdn-media pdn-webrtc pdn-provider \
    pdn-detector pdn-core pdn-bench; do
    tree=$(cargo tree --offline -e normal -p "${crate}") || return 1
    if grep -q "pdn-oracle" <<<"${tree}"; then
      echo "pdn-oracle is a normal dependency of ${crate}; oracles are dev-dependencies only" >&2
      return 1
    fi
  done
}
run_gate "dependency direction (pdn-oracle never a normal dependency)" no_oracle_in_normal_deps

# pdn-crypto denies `unsafe_code` and the other library crates forbid it;
# the two CPU-intrinsic backends are the only modules allowed to opt back in.
unsafe_confined() {
  local allowed=(crates/crypto/src/sha256.rs crates/crypto/src/aes_gcm.rs)
  local found bad=0 file
  found=$(grep -rlE '^\s*#!?\[allow\([^)]*unsafe_code' crates perfbench/src --include='*.rs')
  for file in ${found}; do
    if [[ " ${allowed[*]} " != *" ${file} "* ]]; then
      echo "#[allow(unsafe_code)] outside the hardware crypto backends: ${file}" >&2
      bad=1
    fi
  done
  return "${bad}"
}
run_gate "unsafe confinement (#[allow(unsafe_code)] only in sha256.rs and aes_gcm.rs)" unsafe_confined

# Process-global mutable switches make behaviour depend on hidden state;
# production code takes its configuration through values. A `thread_local!`
# is the same thing per thread: a memo or switch in one would carry state
# from one world into the next on the same thread, so worlds own their
# state instead. The allowlist is the profiler's counters, enable flag and
# per-thread shard cells (perfbench's traced run turns profiling on) and
# the shard runner's cached host parallelism.
no_global_switches() {
  local allowed=(
    crates/simnet/src/profile.rs:ENABLED
    crates/simnet/src/profile.rs:NANOS
    crates/simnet/src/profile.rs:COUNTS
    crates/simnet/src/profile.rs:PROBE_COST_NANOS
    crates/simnet/src/profile.rs:LOCAL
    crates/simnet/src/shard.rs:HOST
  )
  local dirs=(crates/{crypto,simnet,media,webrtc,provider,detector,core}/src)
  local found tls_files bad=0 entry
  found=$(grep -rnoE \
    'static +(mut +)?[A-Za-z_0-9]+ *: *\[? *([a-z_]+::)*(Atomic[A-Za-z0-9]*|OnceLock)' \
    "${dirs[@]}" \
    | sed -E 's/^([^:]+):[0-9]+:static +(mut +)?([A-Za-z_0-9]+).*/\1:\3/')
  # Every static declared inside a `thread_local!` invocation, as
  # file:NAME (comment lines skipped; the invocation ends where its
  # brackets close).
  tls_files=$(grep -rl 'thread_local!' "${dirs[@]}")
  if [[ -n "${tls_files}" ]]; then
    found+=$'\n'$(awk '
      /^[[:space:]]*\/\// { next }
      !inside && /thread_local!/ { inside = 1; depth = 0; opened = 0 }
      inside {
        rest = $0
        while (match(rest, /static +(mut +)?[A-Za-z_0-9]+/)) {
          name = substr(rest, RSTART, RLENGTH)
          sub(/static +(mut +)?/, "", name)
          print FILENAME ":" name
          rest = substr(rest, RSTART + RLENGTH)
        }
        opens = gsub(/[{(]/, "&")
        depth += opens - gsub(/[})]/, "&")
        if (opens > 0) opened = 1
        if (opened && depth <= 0) inside = 0
      }
    ' ${tls_files})
  fi
  for entry in ${found}; do
    if [[ " ${allowed[*]} " != *" ${entry} "* ]]; then
      echo "global or thread-local static outside the allowlist: ${entry}" >&2
      bad=1
    fi
  done
  return "${bad}"
}
run_gate "no global switches (static Atomic*/OnceLock and thread_local! only on the allowlist)" no_global_switches

# The signaling server, SDK scheduler, simnet router, route table, address
# registry and shard runner, the DTLS record layer and data channel, the
# bounded inboxes and open-loop harness, the federation config, the CDN
# edge, the segment-digest memo and the paper-world loop all run on
# FxHash/slab/bitmap structures. SipHash maps must not creep back into those files; test
# code and the oracles in pdn-oracle are exempt by not being listed here.
no_std_hashmap_on_hot_paths() {
  local hot_paths=(
    crates/media/src/cdn.rs
    crates/media/src/digest.rs
    crates/provider/src/sdk.rs
    crates/provider/src/signaling.rs
    crates/provider/src/swarm.rs
    crates/provider/src/world.rs
    crates/provider/src/service/inbox.rs
    crates/provider/src/service/harness.rs
    crates/provider/src/service/federation.rs
    crates/simnet/src/net.rs
    crates/simnet/src/route.rs
    crates/simnet/src/geo.rs
    crates/simnet/src/shard.rs
    crates/webrtc/src/dtls.rs
    crates/webrtc/src/channel.rs
  )
  if grep -n "std::collections::HashMap" "${hot_paths[@]}"; then
    echo "expected: no std::collections::HashMap in the files above, actual: the matches listed" >&2
    echo "  (use FxHashMap/slab/bitmap structures)" >&2
    return 1
  fi
}
run_gate "hot-path hash lint (no std::collections::HashMap on swarm-state hot paths)" \
  no_std_hashmap_on_hot_paths

run_gate "cargo clippy -D warnings" \
  cargo clippy --offline --workspace --all-targets -- -D warnings

run_gate "cargo fmt --check" \
  cargo fmt --all -- --check

# Information only, never a gate: non-test lines per production crate.
echo "==> production non-test lines (information only)"
./scripts/loc.sh || echo "scripts/loc.sh failed (information only)"

if ((${#failed[@]} > 0)); then
  echo "" >&2
  echo "${#failed[@]} gate(s) failed:" >&2
  printf '  - %s\n' "${failed[@]}" >&2
  exit 1
fi
echo "All checks passed."
