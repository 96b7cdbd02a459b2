//! Every metric the benchmark reports, by name. `BENCHMARK.json` at the
//! repository's root repeats this table for the driver; a test keeps
//! the two in step.

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// What a user of the system waits for or pays. The three middle ones
/// mean, per workload, what `Kind::meaning` says.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "op_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "write_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// One layer each, measured from outside through the layer's public
/// functions on the workload's own inputs. No bounds: they attribute,
/// they do not gate.
pub const PER_LAYER: [PerLayer; 25] = [
    layer("lang.parse_us", "us", Better::Lower),
    layer("calculus.prepare_us", "us", Better::Lower),
    layer("calculus.explain_us", "us", Better::Lower),
    layer("calculus.join_ns_per_row", "ns", Better::Lower),
    layer("core.us_per_round", "us", Better::Lower),
    layer("core.ns_per_derived_tuple", "ns", Better::Lower),
    layer("core.load_ns_per_tuple", "ns", Better::Lower),
    layer("index.build_ns_per_tuple", "ns", Better::Lower),
    layer("index.add_ns", "ns", Better::Lower),
    layer("index.probe_ns", "ns", Better::Lower),
    layer("index.stats_add_ns", "ns", Better::Lower),
    layer("relation.union_into_ns_per_tuple", "ns", Better::Lower),
    layer("relation.cow_detach_ns_per_tuple", "ns", Better::Lower),
    layer("relation.digest_ns_per_tuple", "ns", Better::Lower),
    layer("relation.delta_ns_per_tuple", "ns", Better::Lower),
    layer("exec.thread_ratio", "ratio", Better::Higher),
    layer("server.publish_us", "us", Better::Lower),
    layer("server.begin_us", "us", Better::Lower),
    layer("server.warm_query_ms", "ms", Better::Lower),
    layer("server.first_query_after_commit_ms", "ms", Better::Lower),
    layer("server.commit_nosub_ms", "ms", Better::Lower),
    layer("subscribe.refresh_ms", "ms", Better::Lower),
    layer("subscribe.warm_ratio", "ratio", Better::Higher),
    layer("trace.armed_overhead_pct", "%", Better::Lower),
    layer("bench.trace_overhead_pct", "%", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::Kind;

    /// The driver reads `BENCHMARK.json`, the program this table: a
    /// metric renamed in one and not the other would go unreported.
    #[test]
    fn benchmark_json_repeats_this_table() {
        let file =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |key: &str| file.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, Kind::ALL.map(|k| k.name().to_string()));

        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (def, j) in END_TO_END.iter().zip(&end_to_end) {
            assert_eq!(def.name, text(j, "name"));
            assert_eq!(def.unit, text(j, "unit"));
            assert_eq!(def.better.as_str(), text(j, "better"));
            assert_eq!(Some(def.bound), j.get("bound").and_then(Json::as_f64));
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (def, j) in PER_LAYER.iter().zip(&per_layer) {
            assert_eq!(def.name, text(j, "name"));
            assert_eq!(def.unit, text(j, "unit"));
            assert_eq!(def.better.as_str(), text(j, "better"));
        }
    }
}
