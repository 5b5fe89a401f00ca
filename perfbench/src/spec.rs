//! The benchmark's contract in one place: workload names, metric names,
//! units and bounds.  `BENCHMARK.json` at the repository root is
//! `perfbench --emit-spec`; a unit test pins the two against each other.

/// The ten registry algorithms every machine workload runs.
pub const BASKET: [&str; 10] = [
    "permutation-qrqw",
    "linear-compaction",
    "load-balance-qrqw",
    "multiple-compaction",
    "hashing",
    "cyclic-efficient",
    "integer-sort",
    "sample-sort-qrqw",
    "fetch-add",
    "list-rank",
];

/// `(name, why)` of every workload, in the order `run.sh` runs them.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "native-large",
        "basket at n=2^18 on a fresh 2-thread NativeMachine per call: sweeps, claims and arena growth dominate, pool dispatch is under 2% of wall",
    ),
    (
        "native-small",
        "basket at n=2^12 on warm reused machines: a step is a few us, so per-step pool and barrier cost is a tenth of wall or more",
    ),
    (
        "model",
        "basket at n=2^14 on Pram and BspMachine: host speed of simulator and router, bypassing exec.machine; exact counts cross-checked",
    ),
    (
        "serve-churn",
        "qrqw-serve, write-heavy zipf hash/counter/task mix on small live state at 150k/s: per-write apply and checkpoint cost",
    ),
    (
        "serve-resident",
        "qrqw-serve, read-mostly uniform mix over 2^18 resident keys at 40k/s: the O(state) checkpoint dominates server wall",
    ),
];

/// Seconds one driver run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Gate bound; end-to-end metrics only.
    pub bound: Option<f64>,
}

fn m(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

pub fn end_to_end() -> Vec<MetricSpec> {
    let gated = |name: &str, unit, better, bound| MetricSpec {
        bound: Some(bound),
        ..m(name, unit, better)
    };
    vec![
        gated("setup_s", "s", "lower", 0.25),
        gated("ops_per_s", "1/s", "higher", 0.25),
        gated("lat_us", "us", "lower", 0.25),
        gated("peak_rss_mib", "MiB", "lower", 0.20),
    ]
}

pub fn per_layer() -> Vec<MetricSpec> {
    let mut v = Vec::new();
    for a in BASKET {
        v.push(m(format!("core.{a}.wall_ms"), "ms", "lower"));
        v.push(m(format!("core.{a}.steal_ratio"), "ratio", "lower"));
        v.push(m(format!("core.{a}.steps"), "count", "lower"));
        v.push(m(format!("core.{a}.contended_ratio"), "ratio", "lower"));
    }
    for name in [
        "pool.dispatch_ns.chunked",
        "pool.dispatch_ns.stealing",
        "pool.fused3_ns.chunked",
        "pool.fused3_ns.stealing",
        "exec.machine.par_for_ns_per_cell",
        "exec.machine.par_for_step_ns",
        "exec.machine.claim_excl_ns_per_attempt",
        "exec.machine.claim_occupy_ns_per_attempt",
        "exec.machine.claim_hot_ns_per_attempt",
        "exec.machine.scan_ns_per_cell",
        "exec.machine.compact_ns_per_cell",
        "exec.machine.global_or_ns_per_cell",
        "exec.machine.gather_ns_per_cell",
        "exec.arena.grow_ns_per_cell",
        "exec.arena.load_ns_per_cell",
        "exec.arena.dump_ns_per_cell",
    ] {
        v.push(m(name, "ns", "lower"));
    }
    v.push(m("exec.arena.heap_cells_end", "count", "lower"));
    v.push(m("exec.handle.snapshot_ns_per_cell", "ns", "lower"));
    v.push(m("exec.handle.restore_ns_per_cell", "ns", "lower"));
    v.push(m("sim.host_ns_per_work", "ns", "lower"));
    for a in BASKET {
        v.push(m(format!("sim.{a}.time_qrqw"), "count", "lower"));
        v.push(m(format!("sim.{a}.max_contention"), "count", "lower"));
    }
    v.push(m("bsp.host_ns_per_msg", "ns", "lower"));
    v.push(m("bsp.msgs_total", "count", "lower"));
    v.push(m("bsp.measured_over_predicted_max", "ratio", "lower"));
    v.push(m("serve.state.checkpoint_us_per_batch", "us", "lower"));
    v.push(m("serve.state.apply_us_per_batch", "us", "lower"));
    v.push(m("serve.state.apply_ns_per_req", "ns", "lower"));
    v.push(m("serve.state.restore_us", "us", "lower"));
    v.push(m("serve.state.steps_per_batch", "count", "lower"));
    v.push(m("serve.state.contended_per_batch", "count", "lower"));
    v.push(m("serve.runtime.mean_batch", "count", "higher"));
    v.push(m("serve.runtime.batches", "count", "lower"));
    v.push(m("serve.runtime.apply_share", "ratio", "lower"));
    v.push(m("serve.runtime.snapshot_share", "ratio", "lower"));
    v.push(m("serve.runtime.wait_us", "us", "lower"));
    v.push(m("serve.runtime.shed", "count", "lower"));
    v.push(m("serve.runtime.deadline_shed", "count", "lower"));
    v.push(m("serve.runtime.panicked_batches", "count", "lower"));
    v.push(m("serve.server.submit_ns", "ns", "lower"));
    v.push(m("serve.client.lat_p50_us", "us", "lower"));
    v.push(m("serve.client.lat_p90_us", "us", "lower"));
    v.push(m("serve.client.lat_p99_us", "us", "lower"));
    v.push(m("serve.client.late_p99_us", "us", "lower"));
    v.push(m("serve.client.achieved_over_target", "ratio", "higher"));
    v.push(m("proc.cpu_ns_per_op", "ns", "lower"));
    v.push(m("proc.ctx_switches_per_kop", "count", "lower"));
    v.push(m("bench.setup_cold_s", "s", "lower"));
    v.push(m("bench.trace_overhead_ratio", "ratio", "lower"));
    v.push(m("bench.host.chase_ns", "ns", "lower"));
    v.push(m("bench.host.sweep_gbs", "GB/s", "higher"));
    v.push(m("bench.host.futex_us", "us", "lower"));
    v
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let metric = |e: &MetricSpec| {
        let bound = e
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            e.name, e.unit, e.better
        )
    };
    format!(
        "{{\n  \"command\": [\"bash\", \"perfbench/run.sh\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        rows(workloads),
        rows(end_to_end().iter().map(metric).collect()),
        rows(per_layer().iter().map(metric).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.as_bytes()[0].is_ascii_alphanumeric()
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_units_and_counts_respect_the_contract() {
        let layers = per_layer();
        assert!(layers.len() <= 110, "{} per-layer metrics", layers.len());
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(layers)
            .map(|m| {
                assert!(valid_name(&m.name), "bad name {}", m.name);
                assert!(m.unit.len() <= 16);
                assert!(m
                    .unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
                assert!(m.better == "lower" || m.better == "higher");
                assert!(m.bound.is_none_or(|b| b <= 0.25));
                m.name
            })
            .collect();
        for (w, why) in WORKLOADS {
            assert!(valid_name(w));
            assert!(why.len() <= 200 && !why.contains('\n'), "{w}");
            names.push(w.to_string());
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(end_to_end()
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn committed_benchmark_json_is_the_emitted_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "BENCHMARK.json drifted from src/spec.rs: regenerate with `perfbench --emit-spec`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
