#!/usr/bin/env bash
# Full local verification: the tier-1 gate (release build + tests) plus
# lints and formatting. Run before sending a change.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> metric-name registry lint (scripts/check_metrics.sh)"
bash scripts/check_metrics.sh

echo "==> one ledger tree: a BENCH_<workload>.json for every workload of BENCHMARK.json, all naming one commit"
# A claim lives in the ledgers; ledgers measured on different trees compare
# nothing with each other. Regenerate all of them together
# (scripts/bench_ledger.sh with no arguments).
ledger_commits=""
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
    [ -f "BENCH_$w.json" ] || { echo "BENCH_$w.json is missing; run scripts/bench_ledger.sh" >&2; exit 1; }
    ledger_commits+="$(jq -r .commit "BENCH_$w.json")"$'\n'
done
[ "$(sort -u <<< "$ledger_commits" | grep -c .)" = 1 ] ||
    { echo "the BENCH_*.json ledgers name different commits; regenerate all four together:" >&2; echo "$ledger_commits" >&2; exit 1; }

echo "==> metric names are built only where the recorder is on: no .count(&format!( in crates/*/src"
# A disabled recorder costs one atomic load per count; a name formatted in
# the call's argument costs an allocation on every call even then. Build
# the name inside `if obs.is_enabled()`, as insert_group's EWMAs do.
formatted_counts="$(grep -rnF '.count(&format!(' crates/*/src || true)"
[ -z "$formatted_counts" ] ||
    { echo "a metric name formatted on every call; build it under is_enabled():" >&2; echo "$formatted_counts" >&2; exit 1; }

echo "==> one CRC implementation, one external crate (rand, resolved from benchmark/vendor by .cargo/config.toml)"
crc_files="$(grep -rl '0xEDB8_8320' crates/*/src)"
[ "$crc_files" = crates/codec/src/frame.rs ] ||
    { echo "the CRC-32 polynomial must appear in crates/codec/src/frame.rs only, found in: $crc_files" >&2; exit 1; }
# `--locked` fails when a manifest and Cargo.lock disagree and `--offline`
# when anything needs the network; after it, the lock's sourced packages
# are exactly the manifests' registry dependencies.
cargo metadata --locked --offline --format-version 1 > /dev/null
registry="$(grep -B2 '^source = ' Cargo.lock | sed -n 's/^name = "\(.*\)"$/\1/p' | tr '\n' ' ')"
[ "$registry" = "rand " ] ||
    { echo "rand is the one registry crate; Cargo.lock sources: $registry" >&2; exit 1; }

echo "==> one GCM open: product code outside gcm.rs opens in place (AesGcm::open_in_place), never through the allocating AesGcm::open"
# Every other `.open(` in crates/*/src is a file open through OpenOptions.
# Comments may name either.
gcm_opens="$(grep -rnE '\.open\(' --include='*.rs' crates/*/src | grep -v '^crates/primitives/src/gcm\.rs:' |
    grep -vE '^[^:]+:[0-9]+: *//' | grep -v 'OpenOptions' || true)"
[ -z "$gcm_opens" ] ||
    { echo "an allocating GCM open outside gcm.rs; open in place into a reused buffer:" >&2; echo "$gcm_opens" >&2; exit 1; }

echo "==> unsafe inventory: the three std::arch files (primitives/src/isa.rs, codec/src/clmul.rs, bigint/src/ifma.rs) and the key wipe in keys.rs, nowhere else"
# Comments may say the word; code may not. primitives, codec and bigint deny
# unsafe code outside these files (and allow it on those modules only);
# every other crate root forbids it.
unsafe_inventory="crates/bigint/src/ifma.rs crates/codec/src/clmul.rs crates/primitives/src/isa.rs crates/primitives/src/keys.rs"
unsafe_files="$(grep -rlE '^[^/]*\bunsafe\b' --include='*.rs' crates/*/src src | sort | tr '\n' ' ')"
[ "$unsafe_files" = "$unsafe_inventory " ] ||
    { echo "unsafe outside the inventory: $unsafe_files" >&2; exit 1; }
[ "$(grep -cE '^[^/]*\bunsafe\b' crates/primitives/src/keys.rs)" = 1 ] ||
    { echo "keys.rs may hold one unsafe block, the zeroizing drop" >&2; exit 1; }
for root in crates/*/src/lib.rs crates/cloudd/src/main.rs src/lib.rs; do
    case "$root" in
        crates/primitives/src/lib.rs | crates/codec/src/lib.rs | crates/bigint/src/lib.rs) lint=deny ;;
        *) lint=forbid ;;
    esac
    grep -q "^#!\[$lint(unsafe_code)\]" "$root" ||
        { echo "$root must carry #![$lint(unsafe_code)]" >&2; exit 1; }
done
[ "$(grep -c 'allow(unsafe_code)' crates/codec/src/lib.rs)" = 1 ] ||
    { echo "codec may allow unsafe code on one module, clmul" >&2; exit 1; }
[ "$(grep -c 'allow(unsafe_code)' crates/bigint/src/lib.rs)" = 1 ] ||
    { echo "bigint may allow unsafe code on one module, ifma" >&2; exit 1; }
# Each unsafe block states why it is sound within the three lines above it.
# shellcheck disable=SC2086
awk '/^[^\/]*unsafe \{/ && (p1 p2 p3) !~ /SAFETY:/ { print FILENAME ":" FNR ": unsafe block without a SAFETY comment"; bad = 1 }
     { p3 = p2; p2 = p1; p1 = $0 } END { exit bad }' $unsafe_inventory

echo "==> every suite in the gate: each tests/*.rs and crates/*/tests/*.rs is a test target of a default member, so a bare cargo test runs it"
# The workspace's default-members (Cargo.toml) make `cargo test -q` at the
# root reach every crate; a suite outside them, or one with `test = false`,
# would run in no gate.
reached="$(cargo metadata --locked --offline --format-version 1 --no-deps | jq -r '
    . as $m | $m.packages[] | select(.id as $id | $m.workspace_default_members | index($id))
    | .targets[] | select((.kind | index("test")) and .test) | .src_path' | sed "s|^$PWD/||" | LC_ALL=C sort)"
suites="$(printf '%s\n' tests/*.rs crates/*/tests/*.rs | LC_ALL=C sort)"
unreached="$(LC_ALL=C comm -23 <(echo "$suites") <(echo "$reached") | tr '\n' ' ')"
[ -z "$unreached" ] ||
    { echo "suites a bare cargo test does not run: $unreached" >&2; exit 1; }

echo "==> cluster layering: only cluster/replica.rs names the engine and its files on disk; one Vec per slot"
# The coordinator's data path speaks routes to a Replica. Comments may name
# the engine; code may not, beyond `with_node_engine`'s public signature.
cluster=crates/core/src/cluster
[ ! -e "$cluster.rs" ] ||
    { echo "$cluster.rs is back; the cluster lives in $cluster/" >&2; exit 1; }
engine_leaks="$(grep -nE 'CloudEngine|open_durable_with|wal_path|snapshot_path|read_frames' "$cluster"/*.rs |
    grep -vE "^$cluster/replica\.rs:|^[^:]+:[0-9]+: *//" |
    grep -vE "^$cluster/mod\.rs:[0-9]+:(use crate::cloud::CloudEngine;|    pub fn with_node_engine<T>\()" || true)"
[ -z "$engine_leaks" ] ||
    { echo "the engine or its disk layout named outside $cluster/replica.rs:" >&2; echo "$engine_leaks" >&2; exit 1; }
[ "$(cat "$cluster"/*.rs | grep -c 'open_durable_with')" = 1 ] ||
    { echo "a node's engine is opened in one place, LocalNode::restart" >&2; exit 1; }
if grep -nE '(channels|node_ops|node_errors)\[' "$cluster"/*.rs; then
    echo "per-slot state lives in Topology's one Vec<Replica>, not in parallel arrays" >&2
    exit 1
fi

echo "==> one resync path: WAL tails, then the owned-range pull; no snapshot stream, no durable/volatile branch"
if grep -rnE 'sync/(begin|chunk|end)|PinnedTransfer|TransferBegin|ChunkRequest|snapshot_body' crates/*/src; then
    echo "the snapshot stream is gone; a rejoin pulls its owned ranges like a handoff" >&2
    exit 1
fi
if grep -rn 'is_durable' "$cluster"; then
    echo "durable and volatile nodes resync through one path in $cluster/" >&2
    exit 1
fi

echo "==> one aggregate split: a whole-collection aggregate asks each node for the ring ranges it serves first, never for an id list"
if grep -rn 'agg_plain_ids' crates/*/src; then
    echo "doc/agg_plain_ids is gone; a plain aggregate sends each node doc/agg_plain_ranges" >&2
    exit 1
fi
[ "$(grep -c 'union_ids(' "$cluster"/read.rs)" = 3 ] ||
    { echo "union_ids( belongs in $cluster/read.rs three times: its definition and the doc/count and doc/list_ids callers" >&2; exit 1; }

echo "==> one write path: gateway.rs seals and batches only in send_write_groups, protects only in protect_items, lists a collection in one place, and calls the channel only in call, send_write_groups and recover_pending"
# Every write group (insert, delete, insert_many, migrate, a rotation, a
# schema's indexes) ships as one sealed call from one function, protected
# by one planner; reads go through `call`. Comments may name any of these;
# code may not, anywhere else.
gateway=crates/core/src/gateway.rs
write_path_leaks="$(awk '
    /^ *\/\// { next }
    /^ *(pub(\([a-z]+\))? )?fn / { name = $0; sub(/^.*fn /, "", name); sub(/[^a-z0-9_].*$/, "", name) }
    /"batch"|(^|[^A-Z_])BATCH_ROUTE/ && name != "" && name != "send_write_groups" { print FILENAME ":" FNR ": a batch built in " name }
    /self\.seal\(/ && name != "send_write_groups" { print FILENAME ":" FNR ": a write sealed in " name }
    /\.protect\(/ && name != "protect_items" { print FILENAME ":" FNR ": a protect outside protect_items, in " name }
    /self\.channel\.call\(/ && name !~ /^(call|send_write_groups|recover_pending)$/ { print FILENAME ":" FNR ": the channel called in " name }
' "$gateway")"
[ -z "$write_path_leaks" ] ||
    { echo "a second write path in the gateway:" >&2; echo "$write_path_leaks" >&2; exit 1; }
[ "$(grep -v '^ *//' "$gateway" | grep -c '"doc/list_ids"')" = 1 ] ||
    { echo "$gateway must list a collection's ids in one place, stored_documents" >&2; exit 1; }
if grep -rnE 'protect_document_calls|protect_documents_batch|DeleteWork' crates/*/src src tests; then
    echo "the per-document protection paths are gone; every write protects through insert_group" >&2
    exit 1
fi

echo "==> one read path: gateway.rs builds \"doc/get_many\" in one function and the fused doc/fetch (FETCH_ROUTE) in one"
# Every find_* route reads its documents through one helper, whichever of
# the two requests its tactic needs. Comments may name either; code may not,
# anywhere else.
for route in '"doc/get_many"' 'FETCH_ROUTE'; do
    builders="$(awk -v route="$route" '
        /^ *\/\// { next }
        /^ *(pub(\([a-z]+\))? )?fn / { name = $0; sub(/^.*fn /, "", name); sub(/[^a-z0-9_].*$/, "", name) }
        index($0, route) && name != "" { print name }
    ' "$gateway" | sort -u)"
    [ "$(grep -c . <<< "$builders")" = 1 ] ||
        { echo "$gateway must build $route in exactly one function, found: ${builders:-none}" >&2; exit 1; }
done

echo "==> one path per tactic job: no batch-protect twin, no cipher cache, and the crypto crates record nothing"
# A partition protects through one loop over `protect`; a per-label cipher
# is built where it is used. Comments may name what is gone; code may not.
batch_twins="$(grep -rnE 'protect_many|ProtectItem|encrypt_many|CipherCache|cipher_cache' crates/*/src |
    grep -vE '^[^:]+:[0-9]+: *//' || true)"
[ -z "$batch_twins" ] ||
    { echo "a second protect path or a cipher cache is back:" >&2; echo "$batch_twins" >&2; exit 1; }
if grep -n 'datablinder-obs' crates/primitives/Cargo.toml crates/sse/Cargo.toml; then
    echo "primitives and sse do not depend on datablinder-obs; the gateway exports what they would" >&2
    exit 1
fi

echo "==> one route table: only cloudproto.rs classifies a route string (Route::parse over ROUTES), and a refusal is matched by its kind, never its text"
# Everything else matches the parsed Route and NetError::Remote's Refusal.
# Comments may name any of these; code may not.
route_strings="$(grep -rnE 'strip_prefix\("doc/"\)|starts_with\("(sync|tactic)/"\)|"document not found"' --include='*.rs' crates/*/src |
    grep -v '^crates/core/src/cloudproto\.rs:' | grep -vE '^[^:]+:[0-9]+: *//' || true)"
[ -z "$route_strings" ] ||
    { echo "a route or a refusal classified by its text outside cloudproto.rs:" >&2; echo "$route_strings" >&2; exit 1; }

echo "==> one WAL write path: core consults the crash injector once, durability.rs appends only in drain, and the flush and dedup knobs stay gone"
# A crash storm runs the group commit the product runs, and every queued
# byte reaches the WAL through one function, the one that latches a failed
# append. Comments may name any of these; code may not.
[ "$(grep -rn 'on_append(' crates/core/src | grep -cvE '^[^:]+:[0-9]+: *//')" = 1 ] ||
    { echo "crates/core/src consults the crash injector in one place, Durability::journal" >&2; exit 1; }
wal_appends="$(awk '
    /^ *\/\// { next }
    /^ *(pub(\([a-z]+\))? )?fn / { name = $0; sub(/^.*fn /, "", name); sub(/[^a-z0-9_].*$/, "", name) }
    /append_raw\(/ { print name }
' crates/core/src/durability.rs)"
[ "$wal_appends" = drain ] ||
    { echo "crates/core/src/durability.rs appends once, in drain; found in: ${wal_appends:-none}" >&2; exit 1; }
if grep -rnwE 'with_flush_every|dedup_capacity' crates src tests; then
    echo "FrameWriter::with_flush_every and DurabilityOptions::dedup_capacity are gone; the WAL drains through append_raw" >&2
    exit 1
fi

echo "==> nothing without a caller: every pub fn is named somewhere besides its definition, and the deleted twins and knobs stay gone"
# A name counts as used when it appears twice or more in the Rust sources,
# comments and tests included; a name that appears once is its own
# definition and nothing else.
pub_fns="$(grep -rhoE '^\s*pub(\(crate\))? fn [a-z_][a-z0-9_]*' crates/*/src | sed -E 's/.* fn //' | LC_ALL=C sort -u)"
once="$(grep -rhowE '[A-Za-z_][A-Za-z0-9_]*' --include='*.rs' crates src tests examples benchmark/src |
    LC_ALL=C sort | uniq -c | awk '$1 == 1 { print $2 }')"
uncalled="$(LC_ALL=C comm -12 <(echo "$pub_fns") <(echo "$once") | tr '\n' ' ')"
[ -z "$uncalled" ] ||
    { echo "pub fns nothing calls (delete them): $uncalled" >&2; exit 1; }
dead_names="$(grep -rnwE 'KvStats|log_it|replay_log|ReplayReport|decrypt_block|seal_many|open_many|open_into|anti_entropy_every|retry_remote|node_deadline|with_span_capacity|metrics_handle|mont_mul_into|to_mont_into|is_write_route|is_not_found|recover_stored|PayloadShadow|payload_of|fetch_stored|DigestCache|DigestWork|MutationScope|MerkleTree|DirtyLeaves|ClwwOre|ClwwCiphertext' crates/*/src |
    grep -vE '^[^:]+:[0-9]+: *//' || true)"
[ -z "$dead_names" ] ||
    { echo "a deleted write twin, batch call, decrypt or GCM open path, one-value setting, run-time-width Montgomery kernel, route/refusal text match, second document opener, replica digest cache or CLWW ORE is back:" >&2; echo "$dead_names" >&2; exit 1; }

echo "==> one OPE descent: ope/src/lib.rs samples a split in one place (descend), and builds the PRF input in coins on the stack"
# encrypt and decrypt walk the tree through one loop that resumes from the
# last descent; a second `self.split(` call is a second walk that does not.
ope=crates/ope/src/lib.rs
[ "$(grep -v '^ *//' "$ope" | grep -c 'self\.split(')" = 1 ] ||
    { echo "$ope must call self.split( exactly once, in descend" >&2; exit 1; }
coins_vec="$(awk '/^    fn coins\(/ { inside = 1 } inside && /Vec|vec!/ { print FILENAME ":" FNR ": " $0 } inside && /^    }$/ { inside = 0 }' "$ope")"
[ -z "$coins_vec" ] ||
    { echo "coins allocates a Vec; build the PRF input in a stack array:" >&2; echo "$coins_vec" >&2; exit 1; }
grep -q '^    fn coins(' "$ope" ||
    { echo "$ope lost fn coins; update this check" >&2; exit 1; }

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --release --test resilience (crash storms under optimization)"
cargo test --release -q --test resilience

echo "==> cargo test --release --test concurrency (shared-gateway model suite)"
cargo test --release -q --test concurrency

echo "==> cargo test --release: symmetric differentials (hardware tier ≡ portable tier ≡ published vectors; both ≡ the bitwise definitions)"
cargo test --release -q -p datablinder-primitives --test isa_differential
cargo test --release -q -p datablinder-primitives --test symmetric_props

echo "==> cargo test --release: Paillier differentials (Montgomery product fold + linear decode, IFMA lanes ≡ scalar kernel, sum ≡ iterated add, factor-drawn obfuscators ≡ r^n mod n², batched refill ≡ sequential draws, carried cloud sum ≡ a fresh fold over 1,000 seeded schedules)"
cargo test --release -q -p datablinder-bigint --test kernels_differential
cargo test --release -q -p datablinder-paillier --test sum_differential
cargo test --release -q -p datablinder-paillier --test obfuscator_differential
cargo test --release -q -p datablinder-core --test paillier_fold_differential

echo "==> cargo test --release: read-path differentials (folded CRC-32 ≡ slicing-by-8 ≡ the bitwise definition, one-pass recover ≡ decode-then-recover, resumed OPE descent ≡ a cold one, index-walking scan ≡ predicate ≡ find)"
cargo test --release -q -p datablinder-codec --test crc_differential
cargo test --release -q -p datablinder-core --test recover_differential
cargo test --release -q -p datablinder-ope --test order
cargo test --release -q -p datablinder-docstore --test model

echo "==> cargo test --release --test cluster (replicated-cloud crash + membership-churn storms under optimization)"
cargo test --release -q -p datablinder-core --test cluster
cargo test --release -q -p datablinder-core --test cluster membership_churn_storm_converges -- --exact

echo "==> observability: route counters, snapshot JSON and trace trees"
cargo test --release -q --test observability
cargo test --release -q -p datablinder-core --test trace

echo "==> fig5 smoke: one run of S_A/S_B/S_C prints Figure 5, the latency table and both headline losses; zero failed requests"
FIG5_OUT="$(cargo run --release -q --example fig5 -- --net instant --workers 4 --requests 200)" ||
    { echo "fig5 smoke: non-zero exit (failed requests?)" >&2; exit 1; }
for needle in 'Figure 5' 'avg        p50        p75        p99' 'loss S_A -> S_C (tactics)' 'loss S_B -> S_C (middleware)'; do
    grep -qF -- "$needle" <<< "$FIG5_OUT" ||
        { echo "fig5 smoke: output lacks '$needle'" >&2; echo "$FIG5_OUT" >&2; exit 1; }
done
status=0
cargo run --release -q --example fig5 -- --bogus > /dev/null 2>&1 || status=$?
[ "$status" = 2 ] ||
    { echo "fig5 smoke: an unknown flag must exit 2, got $status" >&2; exit 1; }

echo "==> tcp transport: frame/pipelining suites and the netsim-vs-TCP differential oracle"
cargo test --release -q -p datablinder-netsim --test tcp_transport
cargo test --release -q -p datablinder-netsim --test tcpframe_props
cargo test --release -q -p datablinder-core --test transport_differential

echo "==> tcp smoke: loopback datablinder-cloudd answers a wire ping"
cargo build --release -q -p datablinder-cloudd
# --listen :0 makes the kernel pick a free port (port-in-use safe); the
# daemon prints "LISTENING <addr>" for us to parse.
CLOUDD_LOG="$(mktemp -t cloudd.XXXXXX.log)"
./target/release/datablinder-cloudd --listen 127.0.0.1:0 > "$CLOUDD_LOG" &
CLOUDD_PID=$!
trap 'kill "$CLOUDD_PID" 2> /dev/null || true' EXIT
CLOUDD_ADDR=""
for _ in $(seq 1 50); do
    CLOUDD_ADDR="$(sed -n 's/^LISTENING //p' "$CLOUDD_LOG")"
    [ -n "$CLOUDD_ADDR" ] && break
    sleep 0.1
done
[ -n "$CLOUDD_ADDR" ] ||
    { echo "tcp smoke: daemon never printed LISTENING" >&2; cat "$CLOUDD_LOG" >&2; exit 1; }
grep -qE '^BACKEND [a-z+-]+ crc32=(pclmulqdq|portable)$' "$CLOUDD_LOG" ||
    { echo "tcp smoke: daemon did not say which symmetric and CRC backends it runs" >&2; cat "$CLOUDD_LOG" >&2; exit 1; }
./target/release/datablinder-cloudd --smoke "$CLOUDD_ADDR" | grep -q '^PONG' ||
    { echo "tcp smoke: ping against $CLOUDD_ADDR failed" >&2; exit 1; }
kill "$CLOUDD_PID" 2> /dev/null || true
wait "$CLOUDD_PID" 2> /dev/null || true
trap - EXIT
rm -f "$CLOUDD_LOG"

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify: all green"
