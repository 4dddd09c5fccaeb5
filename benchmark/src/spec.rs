//! The benchmark's contract in one place: workloads, end-to-end metrics and
//! per-layer metrics, by name. `BENCHMARK.json`, the README tables and the
//! self-test are all checked against these tables.

/// Seed used when none is given; the pinned values in `expected/` are for it.
pub const DEFAULT_SEED: u64 = 11;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 10.0;

/// `--quick` divides the measured time and every fixed count by this.
pub const QUICK_DIVISOR: u64 = 50;

pub const SERVE_STEADY: &str = "serve_steady";
pub const SERVE_OBSERVED: &str = "serve_observed";
pub const SERVE_STREAM: &str = "serve_stream";
pub const SERVE_STREAM_INT8: &str = "serve_stream_int8";
pub const KB_ESTABLISH: &str = "kb_establish";
pub const FLEET_REPLAY: &str = "fleet_replay";

/// One named workload and why it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: SERVE_STEADY,
        why: "bare per-message path: sequential send_message, 32 users, default codec, AWGN 8 dB, no training, no recorder; bypasses fl, par, edge, obs and cache writes",
    },
    Workload {
        name: SERVE_OBSERVED,
        why: "serve_steady inputs with a traced wall-clock Recorder attached and snapshots taken: the only workload with semcom-obs on the hot path",
    },
    Workload {
        name: SERVE_STREAM,
        why: "send_stream on a 32-message cross-user batch, wide 128/32/1024 codec, link adaptation, fp32: pipeline and NN-kernel heavy; bypasses train/sync and edge",
    },
    Workload {
        name: SERVE_STREAM_INT8,
        why: "serve_stream after enable_quantized_serving, nothing else differs: the int8 kernels on the same path, so fp32 and int8 changes separate",
    },
    Workload {
        name: KB_ESTABLISH,
        why: "96 cold Zipf users with training on, a cache smaller than the working set and migrations over a coded ARQ link: train, sync, cache writes, bit-level PHY",
    },
    Workload {
        name: FLEET_REPLAY,
        why: "sharded fleet DES at 70% utilisation with batching, adaptation and offload: no serving crate does work here, so it is the control for codec changes",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see, reported by every workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const MSGS_PER_S: &str = "msgs_per_s";
pub const CALL_P50: &str = "call_latency_p50_us";
pub const PEAK_RSS: &str = "peak_rss_mb";

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: MSGS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: CALL_P50,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: PEAK_RSS,
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of one layer (layer = crate). It is measured on the workloads in
/// `on`, which exercise the layer, and reads 0 on the workloads that bypass
/// it. `moves` names the end-to-end metric it is predicted to move there.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub on: &'static [&'static str],
    pub moves: &'static str,
}

const SERVING: &[&str] = &[
    SERVE_STEADY,
    SERVE_OBSERVED,
    SERVE_STREAM,
    SERVE_STREAM_INT8,
    KB_ESTABLISH,
];
const SEQUENTIAL: &[&str] = &[SERVE_STEADY, SERVE_OBSERVED, KB_ESTABLISH];
const STREAMS: &[&str] = &[SERVE_STREAM, SERVE_STREAM_INT8];
const ALL: &[&str] = &[
    SERVE_STEADY,
    SERVE_OBSERVED,
    SERVE_STREAM,
    SERVE_STREAM_INT8,
    KB_ESTABLISH,
    FLEET_REPLAY,
];
const KB: &[&str] = &[KB_ESTABLISH];
const FLEET: &[&str] = &[FLEET_REPLAY];
const OBSERVED: &[&str] = &[SERVE_OBSERVED];
const FP32_STREAM: &[&str] = &[SERVE_STREAM];
const INT8_STREAM: &[&str] = &[SERVE_STREAM_INT8];
const LINKED: &[&str] = &[SERVE_STREAM, SERVE_STREAM_INT8, FLEET_REPLAY];

use Better::{Higher, Lower};

macro_rules! layer {
    ($name:literal, $unit:literal, $better:expr, $on:expr, $moves:expr) => {
        Layer {
            name: $name,
            unit: $unit,
            better: $better,
            on: $on,
            moves: $moves,
        }
    };
}

pub const PER_LAYER: [Layer; 71] = [
    // Outputs of the system that repeat exactly for a seed (fixed-count
    // prefix); a drift here is a behaviour change, not a speed-up.
    layer!("token_accuracy", "share", Higher, SERVING, MSGS_PER_S),
    layer!("symbols_per_msg", "count", Lower, SERVING, MSGS_PER_S),
    layer!("user_model_share", "share", Higher, KB, MSGS_PER_S),
    layer!("sync_bytes_per_msg", "B", Lower, KB, MSGS_PER_S),
    layer!("sim_p99_ms", "ms", Lower, FLEET, MSGS_PER_S),
    layer!("sim_hit_rate", "share", Higher, FLEET, MSGS_PER_S),
    // Tail and stall timings too unsteady or too workload-specific to bound.
    layer!("train_stall_p50_ms", "ms", Lower, KB, MSGS_PER_S),
    layer!("call_latency_p95_us", "us", Lower, ALL, CALL_P50),
    layer!("batch_latency_p99_ms", "ms", Lower, STREAMS, CALL_P50),
    // semcom-text
    layer!("text.compose_us", "us", Lower, SERVING, CALL_P50),
    // semcom-select
    layer!("select.select_us", "us", Lower, SERVING, CALL_P50),
    layer!("select.accuracy", "share", Higher, SERVING, MSGS_PER_S),
    // semcom-cache
    layer!("cache.lookup_ns", "ns", Lower, SERVING, CALL_P50),
    layer!("cache.insert_evict_us", "us", Lower, KB, MSGS_PER_S),
    layer!("cache.hit_ratio", "share", Higher, KB, MSGS_PER_S),
    layer!("cache.evictions", "count", Lower, KB, MSGS_PER_S),
    layer!("cache.replay_mreq_per_s", "1/us", Higher, FLEET, MSGS_PER_S),
    // semcom-codec
    layer!("codec.encode_us", "us", Lower, SEQUENTIAL, CALL_P50),
    layer!("codec.decode_us", "us", Lower, SEQUENTIAL, CALL_P50),
    layer!(
        "codec.encode_batch32_wide_us",
        "us",
        Lower,
        FP32_STREAM,
        CALL_P50
    ),
    layer!("codec.decode_wide_us", "us", Lower, FP32_STREAM, CALL_P50),
    layer!(
        "codec.encode_int8_batch32_wide_us",
        "us",
        Lower,
        INT8_STREAM,
        CALL_P50
    ),
    layer!(
        "codec.decode_int8_wide_us",
        "us",
        Lower,
        INT8_STREAM,
        CALL_P50
    ),
    layer!("codec.quantize_ms", "ms", Lower, INT8_STREAM, SETUP_S),
    layer!("codec.train_round_ms", "ms", Lower, KB, MSGS_PER_S),
    layer!("codec.pretrain_s", "s", Lower, SERVING, SETUP_S),
    layer!("codec.kb_bytes", "B", Lower, SERVING, PEAK_RSS),
    // semcom-nn
    layer!(
        "nn.matmul_gflops_default",
        "GFLOP/s",
        Higher,
        SEQUENTIAL,
        CALL_P50
    ),
    layer!(
        "nn.matmul_gflops_wide",
        "GFLOP/s",
        Higher,
        FP32_STREAM,
        MSGS_PER_S
    ),
    layer!(
        "nn.qmatmul_gops_wide",
        "GOP/s",
        Higher,
        INT8_STREAM,
        MSGS_PER_S
    ),
    // semcom-channel
    layer!("channel.f32_transmit_us", "us", Lower, SEQUENTIAL, CALL_P50),
    layer!(
        "channel.adaptive_transmit_us",
        "us",
        Lower,
        STREAMS,
        CALL_P50
    ),
    layer!("channel.link_step_ns", "ns", Lower, LINKED, MSGS_PER_S),
    layer!("channel.bitpipe_us_per_kb", "us/KB", Lower, KB, MSGS_PER_S),
    layer!(
        "channel.arq_attempts_per_frame",
        "count",
        Lower,
        KB,
        MSGS_PER_S
    ),
    // semcom-fl
    layer!("fl.frame_build_us", "us", Lower, KB, MSGS_PER_S),
    layer!("fl.frame_apply_us", "us", Lower, KB, MSGS_PER_S),
    layer!("fl.sync_bytes_per_round", "B", Lower, KB, MSGS_PER_S),
    layer!("fl.sync_rejected", "count", Lower, KB, MSGS_PER_S),
    layer!("fl.resyncs", "count", Lower, KB, MSGS_PER_S),
    layer!("fl.migrate_ms", "ms", Lower, KB, MSGS_PER_S),
    // semcom-fl, serving side: the mismatch-buffer fill every message pays.
    layer!("fl.buffer_push_us", "us", Lower, SERVING, CALL_P50),
    // semcom (core)
    layer!("core.msg_us", "us", Lower, SERVING, MSGS_PER_S),
    layer!("core.stage_sum_us", "us", Lower, SERVING, MSGS_PER_S),
    layer!("core.glue_us", "us", Lower, SERVING, CALL_P50),
    layer!("core.layer_sum_ratio", "ratio", Higher, SERVING, MSGS_PER_S),
    layer!("core.msg_p99_us", "us", Lower, SEQUENTIAL, CALL_P50),
    layer!("core.trainings", "count", Lower, KB, MSGS_PER_S),
    layer!("core.migrations", "count", Lower, KB, MSGS_PER_S),
    layer!(
        "core.stream_vs_seq_ratio",
        "ratio",
        Higher,
        STREAMS,
        MSGS_PER_S
    ),
    // semcom-par
    layer!("par.workers", "count", Higher, ALL, MSGS_PER_S),
    layer!("par.spsc_handoff_ns", "ns", Lower, STREAMS, MSGS_PER_S),
    layer!(
        "par.pipeline_item_overhead_us",
        "us",
        Lower,
        STREAMS,
        MSGS_PER_S
    ),
    // semcom-edge
    layer!("edge.events_per_s", "1/s", Higher, FLEET, MSGS_PER_S),
    layer!(
        "edge.shard_wall_imbalance",
        "ratio",
        Lower,
        FLEET,
        MSGS_PER_S
    ),
    layer!(
        "edge.arrival_stream_mreq_per_s",
        "1/us",
        Higher,
        FLEET,
        MSGS_PER_S
    ),
    layer!(
        "edge.single_loop_requests_per_s",
        "1/s",
        Higher,
        FLEET,
        MSGS_PER_S
    ),
    layer!("edge.plan_ms", "ms", Lower, FLEET, CALL_P50),
    layer!("edge.merge_us", "us", Lower, FLEET, CALL_P50),
    layer!("edge.offloaded_share", "share", Lower, FLEET, MSGS_PER_S),
    layer!("edge.mean_batch", "count", Higher, FLEET, MSGS_PER_S),
    layer!("edge.utilization_mean", "share", Lower, FLEET, MSGS_PER_S),
    layer!("edge.queue_depth_peak", "count", Lower, FLEET, MSGS_PER_S),
    // semcom-obs
    layer!("obs.span_ns", "ns", Lower, OBSERVED, CALL_P50),
    layer!("obs.trace_span_ns", "ns", Lower, OBSERVED, CALL_P50),
    layer!("obs.counter_add_ns", "ns", Lower, OBSERVED, CALL_P50),
    layer!("obs.snapshot_us", "us", Lower, OBSERVED, MSGS_PER_S),
    layer!("obs.spans_dropped", "count", Lower, OBSERVED, MSGS_PER_S),
    layer!("obs.tax_us_per_msg", "us", Lower, OBSERVED, CALL_P50),
    // The benchmark itself
    layer!("bench.trace_overhead_pct", "%", Lower, ALL, MSGS_PER_S),
    layer!("bench.window_spread_pct", "%", Lower, ALL, MSGS_PER_S),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}
