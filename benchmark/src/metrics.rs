//! The metric and workload registry: every name the benchmark prints, with
//! unit, direction and (for end-to-end metrics) the regression bound.
//! `BENCHMARK.json` is generated from this table (`dbbench --manifest`).

use std::collections::BTreeMap;

/// How long one run measures; `BENCHMARK.json`'s `run_seconds`. Every timing
/// below is the value of a quiet round (`workloads::typical`) of the 16.
pub const RUN_SECONDS: u32 = 20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub meaning: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64, meaning: &'static str) -> EndToEnd {
    EndToEnd { name, unit, higher_is_better: false, bound, meaning }
}

const fn higher(name: &'static str, unit: &'static str, bound: f64, meaning: &'static str) -> EndToEnd {
    EndToEnd { name, unit, higher_is_better: true, bound, meaning }
}

pub const END_TO_END: [EndToEnd; 15] = [
    lower("setup_s", "s", 0.25, "key generation, schema registration and corpus preload: the fixture, built 4 times"),
    higher("ops_per_s", "1/s", 0.25, "operations per second of the main window"),
    lower("insert_mean_us", "us", 0.25, "GatewayEngine::insert, mean (carries the Paillier pool refill)"),
    lower("insert_p50_us", "us", 0.25, "GatewayEngine::insert, median (does not)"),
    lower("eq_mean_us", "us", 0.25, "find_equal on subject, retrieval and decryption included, mean"),
    lower("eq_p50_us", "us", 0.25, "the same, median"),
    lower("bool_mean_us", "us", 0.25, "find_boolean, status AND code, mean"),
    lower("range_mean_us", "us", 0.25, "find_range on effective, mean"),
    lower("aggregate_mean_us", "us", 0.25, "aggregate(Avg) over the whole collection, mean"),
    lower("get_mean_us", "us", 0.25, "get(id) point read, mean"),
    higher("batch_docs_per_s", "1/s", 0.25, "insert_many in batches of 64 with WorkerPool(2)"),
    lower("wire_bytes_per_op", "B", 0.02, "bytes sent + received on the gateway's transport per main-window op"),
    lower("stored_bytes_per_plain_byte", "ratio", 0.02, "bytes in the durable directory per canonical plaintext byte"),
    lower("recovery_s", "s", 0.25, "opening the cloud from the fixture's directory: a snapshot and a WAL tail"),
    lower("peak_rss_mb", "MiB", 0.20, "VmHWM of the workload's process"),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn l(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: false }
}

const fn h(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: true }
}

/// Kernel rungs carry the name and unit on the rung itself
/// (`sut::kernels`); they are appended to this list by [`per_layer`].
const PER_LAYER_FIXED: [PerLayer; 51] = [
    // gateway: op span minus its transport spans
    l("gateway.insert_self_us", "us"),
    l("gateway.eq_self_us", "us"),
    l("gateway.bool_self_us", "us"),
    l("gateway.range_self_us", "us"),
    l("gateway.aggregate_self_us", "us"),
    l("gateway.get_self_us", "us"),
    // netsim transport
    l("transport.call_us", "us"),
    l("transport.self_us", "us"),
    l("transport.calls_per_op", "count"),
    l("transport.bytes_sent_per_op", "B"),
    l("transport.bytes_recv_per_op", "B"),
    l("transport.retries", "count"),
    // cloud
    l("cloud.handle_us_per_op", "us"),
    l("cloud.doc_us_per_op", "us"),
    l("cloud.tactic_us_per_op", "us"),
    l("cloud.batch_us_per_op", "us"),
    l("cloud.calls_per_op", "count"),
    l("cloud.dedup_hits", "count"),
    // durability
    l("durability.wal_records_per_doc", "count"),
    h("durability.records_per_commit", "count"),
    l("durability.wal_bytes_per_record", "B"),
    l("durability.wal_bytes_per_doc", "B"),
    l("durability.snapshot_bytes", "B"),
    h("durability.replay_records_per_s", "1/s"),
    l("durability.overhead_us_per_insert", "us"),
    l("durability.snapshot_stall_ms", "ms"),
    // cluster
    l("cluster.handle_us_per_op", "us"),
    l("cluster.fanout_overhead_us", "us"),
    l("cluster.applies_per_write", "count"),
    l("cluster.read_repairs", "count"),
    l("cluster.resync_ms", "ms"),
    l("cluster.antientropy_rounds", "count"),
    // counters of the product's own registry
    h("primitives.cipher_cache_hit_ratio", "ratio"),
    h("paillier.pool_hit_ratio", "ratio"),
    // workload diagnostics (tails are too noisy on a shared box to gate)
    l("workload.insert_p99_us", "us"),
    l("workload.insert_samples", "count"),
    l("workload.eq_p99_us", "us"),
    l("workload.eq_samples", "count"),
    l("workload.aggregate_p99_us", "us"),
    l("workload.aggregate_samples", "count"),
    l("workload.bool_p50_us", "us"),
    l("workload.range_p50_us", "us"),
    l("workload.max_us", "us"),
    h("workload.total_ops_per_s", "1/s"),
    h("workload.scaling_2c", "ratio"),
    h("workload.traced_ops", "count"),
    l("trace.overhead_pct", "%"),
    h("trace.closure_pct", "%"),
    l("trace.spans", "count"),
    l("workload.setup_s", "s"),
    l("workload.recovery_s", "s"),
];

pub fn per_layer() -> Vec<PerLayer> {
    let mut all: Vec<PerLayer> = PER_LAYER_FIXED.into_iter().collect();
    all.extend(crate::sut::KERNELS.iter().map(|k| l(k.name, k.unit)));
    all
}

/// Name, unit and meaning of the metrics one kind of run reports, in order.
pub fn reported(traced: bool) -> Vec<(&'static str, &'static str, &'static str)> {
    if traced {
        per_layer().iter().map(|m| (m.name, m.unit, "")).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit, m.meaning)).collect()
    }
}

/// Metric values by name, as one run produced them.
#[derive(Default, Debug, Clone)]
pub struct Values(pub BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// A JSON number with all the digits measured; non-finite values (a bug)
/// become 0 so the line stays parseable and the run is marked incorrect
/// by the caller.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, traced: bool, values: &Values) -> String {
    let metrics: Vec<String> = reported(traced)
        .iter()
        .map(|(name, unit, _)| {
            let v = values.get(name).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(v))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// `BENCHMARK.json`, generated so it cannot drift from what the binary prints.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let specs = crate::workloads::SPECS;
    for (i, w) in specs.iter().enumerate() {
        let sep = if i + 1 == specs.len() { "" } else { "," };
        out.push_str(&format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n", w.name, w.why));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let better = if m.higher_is_better { "higher" } else { "lower" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}{sep}\n",
            m.name, m.unit, m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let sep = if i + 1 == layers.len() { "" } else { "," };
        let better = if m.higher_is_better { "higher" } else { "lower" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}{sep}\n",
            m.name, m.unit
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
