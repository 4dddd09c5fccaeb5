//! Multi-edge fleet simulation: request assignment across several edge
//! servers, exposing the locality-vs-load-balance tradeoff (experiment
//! F12).
//!
//! Each edge has its own model cache and its own FIFO service queue. The
//! [`Assignment`] strategy decides which edge serves each request:
//! stickiness maximizes cache locality (a model lives on one edge), while
//! load-oriented strategies spread queueing delay but duplicate models
//! across caches.
//!
//! There is **one engine**: [`replay`] draws arrivals from a
//! constant-memory [`semcom_cache::workload::ArrivalStream`] and injects
//! them one at a time between strict [`Sim::run_while_before`] drains, so
//! the event heap only ever holds in-flight fetch/dispatch events.
//! [`FleetSim`] runs it over the whole fleet; [`crate::orchestrator`]
//! runs it once per shard on `semcom-par` workers. Everything a run can
//! vary — cache policy, latency sink, recorder, series + SLO, serving
//! backend — is a [`RunOptions`] value, not another entry point. The
//! driver this replaced (materialise the trace, pre-schedule every arrival
//! as a boxed event) survives only as the `replay_prescheduled` test
//! oracle below, which the streaming loop is property-pinned against.

use crate::engine::Sim;
use crate::metrics::{LatencyHist, LatencySummary};
use crate::placement::MessageCost;
use crate::topology::{Link, Topology};
use rand::rngs::StdRng;
use rand::Rng;
use semcom_cache::policy::{EvictionPolicy, Lru};
use semcom_cache::workload::{ModelSpec, Workload};
use semcom_cache::ModelCache;
use semcom_channel::adapt::{AdaptError, AdaptSpec, LinkState};
use semcom_nn::rng::derive_seed;
use semcom_obs::{
    Recorder, SloEvaluator, SloSpec, SpanContext, Stage, TimeSeriesSampler, TraceSpan,
};
use serde::{Deserialize, Serialize};

/// Seed-stream tag for per-cell link-adaptation RNGs (one stream per edge,
/// disjoint from the arrival-trace stream, so switching adaptation on or
/// off never perturbs the workload draws).
const ADAPT_STREAM: u64 = 0xADA0_0000;

/// How requests are assigned to edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Assignment {
    /// Model-affine: each model id hashes to one fixed edge. Maximal cache
    /// locality, no load awareness.
    Sticky,
    /// Rotate through the edges regardless of content or load.
    RoundRobin,
    /// Send each request to the edge that will be free soonest.
    LeastLoaded,
}

impl Assignment {
    /// All strategies.
    pub const ALL: [Assignment; 3] = [
        Assignment::Sticky,
        Assignment::RoundRobin,
        Assignment::LeastLoaded,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Assignment::Sticky => "sticky",
            Assignment::RoundRobin => "round_robin",
            Assignment::LeastLoaded => "least_loaded",
        }
    }
}

/// A rejected fleet or orchestrator configuration. Every invalid knob is
/// caught at construction with a typed error instead of panicking deep in
/// the event loop (a non-finite arrival rate, for example, used to
/// surface as a "delay must be finite" panic from the scheduler).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `n_edges == 0`.
    ZeroEdges,
    /// `max_batch == 0` (a service round must hold at least one request).
    ZeroBatch,
    /// `arrival_rate_hz` non-finite or not positive.
    BadArrivalRate(f64),
    /// `zipf_alpha` non-finite or negative.
    BadZipf(f64),
    /// `n_domains == 0 && n_users == 0`: there is no model to request.
    EmptyUniverse,
    /// [`RunOptions::series`] interval non-finite or not positive (a window
    /// would close every simulated instant and the replay never advance).
    BadSeriesInterval(f64),
    /// The orchestrator was asked for zero shards.
    ZeroShards,
    /// More shards than edges: a shard must own at least one node.
    MoreShardsThanEdges {
        /// Requested shard count.
        shards: usize,
        /// Available edges.
        edges: usize,
    },
    /// A shard would own no models (domain + user split both empty).
    EmptyShardUniverse {
        /// The starved shard index.
        shard: usize,
    },
    /// Node weights missing a node, or holding a non-finite/non-positive
    /// weight.
    BadNodeWeights {
        /// Expected weight count (`n_edges`).
        expected: usize,
        /// Provided weight count.
        got: usize,
    },
    /// The link-adaptation spec is invalid (non-stochastic Markov row,
    /// empty SNR→config table, bad code rate, …).
    BadAdapt(AdaptError),
    /// Adaptive airtime payload is non-finite or negative.
    BadPayloadBits(f64),
    /// Adaptive symbol rate is non-finite or not positive.
    BadSymbolRate(f64),
    /// `full_feature_dim` is zero or smaller than a table entry's
    /// `feature_dim` (the table could then select more dims than exist).
    BadFullFeatureDim {
        /// Configured full feature dimension.
        full: usize,
        /// Largest `feature_dim` in the SNR→config table.
        max_entry: usize,
    },
    /// The offload backhaul has zero (or non-finite/negative) bandwidth —
    /// every offloaded request would take forever.
    ZeroBandwidthBackhaul(f64),
    /// The offload backhaul latency is non-finite or negative.
    BadBackhaulLatency(f64),
    /// The offload busy-fraction threshold is non-finite or negative.
    BadOffloadThreshold(f64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroEdges => write!(f, "fleet needs at least one edge"),
            ConfigError::ZeroBatch => write!(f, "max_batch must be at least 1"),
            ConfigError::BadArrivalRate(r) => {
                write!(f, "arrival_rate_hz must be finite and positive (got {r})")
            }
            ConfigError::BadZipf(a) => {
                write!(f, "zipf_alpha must be finite and non-negative (got {a})")
            }
            ConfigError::EmptyUniverse => {
                write!(f, "fleet needs at least one model (n_domains + n_users > 0)")
            }
            ConfigError::BadSeriesInterval(i) => {
                write!(f, "series interval must be finite and positive (got {i} s)")
            }
            ConfigError::ZeroShards => write!(f, "orchestrator needs at least one shard"),
            ConfigError::MoreShardsThanEdges { shards, edges } => write!(
                f,
                "{shards} shards need at least {shards} edges (got {edges})"
            ),
            ConfigError::EmptyShardUniverse { shard } => write!(
                f,
                "shard {shard} would own no models; grow the universe or cut n_shards"
            ),
            ConfigError::BadNodeWeights { expected, got } => write!(
                f,
                "node weights must be finite and positive, one per edge ({expected} expected, {got} usable)"
            ),
            ConfigError::BadAdapt(e) => write!(f, "adaptive link config: {e}"),
            ConfigError::BadPayloadBits(b) => {
                write!(f, "payload_bits must be finite and non-negative (got {b})")
            }
            ConfigError::BadSymbolRate(r) => {
                write!(f, "symbol_rate_hz must be finite and positive (got {r})")
            }
            ConfigError::BadFullFeatureDim { full, max_entry } => write!(
                f,
                "full_feature_dim ({full}) must be positive and cover the largest table entry ({max_entry})"
            ),
            ConfigError::ZeroBandwidthBackhaul(b) => write!(
                f,
                "offload backhaul bandwidth must be finite and positive (got {b} bytes/s)"
            ),
            ConfigError::BadBackhaulLatency(l) => write!(
                f,
                "offload backhaul latency must be finite and non-negative (got {l} s)"
            ),
            ConfigError::BadOffloadThreshold(t) => write!(
                f,
                "offload busy-fraction threshold must be finite and non-negative (got {t})"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Per-cell link adaptation for the fleet DES: every edge node is a radio
/// cell whose channel follows a seeded Markov SNR trace; each arrival
/// advances the cell's [`LinkState`] and pays the airtime of shipping the
/// selected feature payload at the selected modulation and code rate
/// before it can be served.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetAdapt {
    /// Markov channel, SNR→config table, hysteresis, and EWMA alpha.
    pub spec: AdaptSpec,
    /// Semantic payload per request at `full_feature_dim` dims, in bits
    /// (scaled linearly by the selected entry's `feature_dim`). `0.0`
    /// makes airtime exactly zero — the regression anchor that reproduces
    /// non-adaptive reports bit for bit.
    pub payload_bits: f64,
    /// Feature dimension the payload is quoted at.
    pub full_feature_dim: usize,
    /// Channel symbol rate (symbols/second).
    pub symbol_rate_hz: f64,
}

impl FleetAdapt {
    /// A degenerate adaptation: single fixed entry, constant SNR, zero
    /// payload — adaptive machinery on, reports identical to `adapt: None`.
    pub fn degenerate() -> Self {
        FleetAdapt {
            spec: AdaptSpec::fixed(
                10.0,
                semcom_channel::LinkConfig {
                    modulation: semcom_channel::Modulation::Qpsk,
                    code_rate: 0.5,
                    feature_dim: 64,
                },
            ),
            payload_bits: 0.0,
            full_feature_dim: 64,
            symbol_rate_hz: 1e6,
        }
    }

    fn validate(&self) -> Result<(), ConfigError> {
        self.spec.validate().map_err(ConfigError::BadAdapt)?;
        if !self.payload_bits.is_finite() || self.payload_bits < 0.0 {
            return Err(ConfigError::BadPayloadBits(self.payload_bits));
        }
        if !self.symbol_rate_hz.is_finite() || self.symbol_rate_hz <= 0.0 {
            return Err(ConfigError::BadSymbolRate(self.symbol_rate_hz));
        }
        let max_entry = self.spec.max_feature_dim();
        if self.full_feature_dim == 0 || self.full_feature_dim < max_entry {
            return Err(ConfigError::BadFullFeatureDim {
                full: self.full_feature_dim,
                max_entry,
            });
        }
        Ok(())
    }
}

/// Edge→cloud offloading over a modeled backhaul: when a node's busy
/// fraction (the same accumulated busy-seconds the PR 8 telemetry gauges
/// publish, divided by sim time) exceeds the threshold, the decode half of
/// a service round runs on the cloud tier instead. The edge frees after
/// dispatch + encode; the request completes after the backhaul round trip
/// plus the cloud decode. Cloud capacity is modeled as elastic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OffloadConfig {
    /// Offload when `busy_time / now` exceeds this fraction.
    pub busy_frac_threshold: f64,
    /// Backhaul bandwidth (bytes/second).
    pub backhaul_bytes_per_sec: f64,
    /// One-way backhaul propagation latency (seconds), paid both ways.
    pub backhaul_latency_s: f64,
    /// Feature payload shipped per offloaded request (bytes).
    pub request_bytes: usize,
}

impl Default for OffloadConfig {
    /// 1 Gbit/s backhaul at 10 ms one-way, 8 KiB per offloaded request,
    /// offloading past 80% busy.
    fn default() -> Self {
        OffloadConfig {
            busy_frac_threshold: 0.8,
            backhaul_bytes_per_sec: 125_000_000.0,
            backhaul_latency_s: 0.010,
            request_bytes: 8_192,
        }
    }
}

impl OffloadConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        if !self.busy_frac_threshold.is_finite() || self.busy_frac_threshold < 0.0 {
            return Err(ConfigError::BadOffloadThreshold(self.busy_frac_threshold));
        }
        if !self.backhaul_bytes_per_sec.is_finite() || self.backhaul_bytes_per_sec <= 0.0 {
            return Err(ConfigError::ZeroBandwidthBackhaul(
                self.backhaul_bytes_per_sec,
            ));
        }
        if !self.backhaul_latency_s.is_finite() || self.backhaul_latency_s < 0.0 {
            return Err(ConfigError::BadBackhaulLatency(self.backhaul_latency_s));
        }
        Ok(())
    }
}

/// Configuration of a fleet replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of edge servers.
    pub n_edges: usize,
    /// Requests to simulate (aggregate).
    pub n_requests: usize,
    /// Aggregate arrival rate (requests/second, Poisson).
    pub arrival_rate_hz: f64,
    /// Cache capacity **per edge** in bytes.
    pub capacity_bytes: usize,
    /// Zipf exponent of model popularity.
    pub zipf_alpha: f64,
    /// Domain-general KBs in the universe.
    pub n_domains: usize,
    /// User KBs in the universe.
    pub n_users: usize,
    /// Per-message codec workload.
    pub message: MessageCost,
    /// Request-to-edge assignment strategy.
    pub assignment: Assignment,
    /// Maximum requests an edge packs into one batched service round.
    /// `1` (the default) reproduces the classic one-at-a-time pipeline
    /// exactly; larger values let a busy edge drain its queue in batches,
    /// paying [`MessageCost::dispatch_ops`] once per round instead of once
    /// per message.
    pub max_batch: usize,
    /// Per-cell link adaptation; `None` (the default) reproduces the
    /// fixed-config F12/F13 behavior exactly.
    pub adapt: Option<FleetAdapt>,
    /// Edge→cloud offloading; `None` (the default) keeps every decode on
    /// the edge.
    pub offload: Option<OffloadConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            n_edges: 3,
            n_requests: 3_000,
            arrival_rate_hz: 60.0,
            capacity_bytes: 2_000_000,
            zipf_alpha: 0.9,
            n_domains: 4,
            n_users: 60,
            message: MessageCost::default(),
            assignment: Assignment::Sticky,
            max_batch: 1,
            adapt: None,
            offload: None,
        }
    }
}

impl FleetConfig {
    /// Validates every knob that would otherwise panic (or loop) deep in
    /// the event loop.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_edges == 0 {
            return Err(ConfigError::ZeroEdges);
        }
        if self.max_batch == 0 {
            return Err(ConfigError::ZeroBatch);
        }
        if !self.arrival_rate_hz.is_finite() || self.arrival_rate_hz <= 0.0 {
            return Err(ConfigError::BadArrivalRate(self.arrival_rate_hz));
        }
        if !self.zipf_alpha.is_finite() || self.zipf_alpha < 0.0 {
            return Err(ConfigError::BadZipf(self.zipf_alpha));
        }
        if self.n_domains == 0 && self.n_users == 0 {
            return Err(ConfigError::EmptyUniverse);
        }
        if let Some(adapt) = &self.adapt {
            adapt.validate()?;
        }
        if let Some(offload) = &self.offload {
            offload.validate()?;
        }
        Ok(())
    }
}

/// Results of a fleet replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// End-to-end request latency statistics (all edges pooled).
    pub latency: LatencySummary,
    /// Fleet-wide cache hit ratio.
    pub hit_rate: f64,
    /// Busy-time fraction per edge over the simulated duration.
    pub utilization: Vec<f64>,
    /// Total seconds spent fetching models from the cloud.
    pub fetch_time_total: f64,
    /// Mean requests per service round (1.0 when batching is off or the
    /// fleet never queues deep enough to coalesce).
    pub mean_batch: f64,
    /// Requests whose decode ran on the cloud tier (0 when offloading is
    /// off or never triggered).
    pub offloaded: u64,
    /// Simulated duration.
    pub duration: f64,
}

/// A real serving backend that [`RunOptions::server`] routes dispatched
/// service rounds through: the DES decides *which* requests coalesce into
/// a round on *which* edge and *when*; the backend actually serves them.
/// The T10 harness implements this by mapping model ids to registered
/// users and calling `SemanticEdgeSystem::send_stream`, so the fleet's
/// dispatch loop drives the serving path end to end.
pub trait BatchServer {
    /// Serves one dispatched round on `edge`; `model_ids` are in queue
    /// (FIFO) order.
    fn serve_round(&mut self, edge: usize, model_ids: &[u64]);
}

/// Everything a replay can vary besides its [`FleetConfig`] and seed. The
/// default — per-edge LRU caches, exact latency samples, no recorder, no
/// series, no backend — is what [`FleetSim::run`] uses; none of the fields
/// perturbs the simulated timeline.
pub struct RunOptions<'a> {
    /// Builds one fresh eviction policy per edge.
    pub policy: &'a dyn Fn() -> Box<dyn EvictionPolicy<u64> + Send>,
    /// Record latencies into the constant-size [`LatencyHist`] instead of
    /// the exact sample vector: `count`, `mean` and `max` stay exact,
    /// percentiles become bucket lower bounds (≤ 1/16 low).
    pub hist: bool,
    /// Observability sink: fleet counters, the per-request `message`
    /// latency histogram (virtual-time ns) and — when it carries a trace
    /// buffer — one causal span tree per request. Every timestamp is
    /// virtual, so exports are byte-identical at any `SEMCOM_THREADS`.
    pub recorder: Recorder,
    /// Close a [`TimeSeriesSampler`] window over `recorder` every `.0`
    /// simulated seconds (plus one final partial window at drain),
    /// optionally evaluating an SLO watchdog on the same cadence, which
    /// emits `slo_breach` journal events into `recorder`.
    pub series: Option<(f64, Option<SloSpec>)>,
    /// Serve every dispatched round `(edge, model ids)` through a real
    /// backend, in simulation-time order.
    pub server: Option<&'a mut dyn BatchServer>,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions {
            policy: &|| Box::new(Lru::new()),
            hist: false,
            recorder: Recorder::disabled(),
            series: None,
            server: None,
        }
    }
}

/// Execution statistics of one replay loop, reported alongside its
/// [`FleetReport`].
///
/// Everything except `wall_ns` is a pure function of the DES and
/// therefore identical at any `SEMCOM_THREADS`; `wall_ns` is wall-clock
/// and scheduling-dependent, so exports prefix it `sched_` (excluded from
/// the deterministic snapshot, like PR 7's queue-depth gauges).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStats {
    /// Arrivals injected plus derived events fired by this loop.
    pub events_total: u64,
    /// Deepest any node queue grew (0 for `max_batch <= 1`).
    pub queue_depth_peak: usize,
    /// Cache hits summed over the loop's nodes.
    pub hits: u64,
    /// Cache lookups summed over the loop's nodes.
    pub lookups: u64,
    /// Wall-clock nanoseconds the replay took (scheduling-dependent;
    /// never golden-checked).
    pub wall_ns: u64,
}

/// What [`FleetSim::run_with`] returns.
#[derive(Debug)]
pub struct FleetRun {
    /// The simulated results.
    pub report: FleetReport,
    /// Execution statistics of the loop.
    pub stats: ShardStats,
    /// The closed series windows, when [`RunOptions::series`] was set.
    pub series: Option<TimeSeriesSampler>,
    /// The SLO watchdog's tallies, when one was armed.
    pub slo: Option<SloEvaluator>,
}

/// Where per-request latencies go: the exact sample vector (O(n) memory,
/// exact percentiles) or the constant-size [`LatencyHist`].
enum LatencySink {
    Exact(Vec<f64>),
    Hist(LatencyHist),
}

impl LatencySink {
    fn record(&mut self, latency: f64) {
        match self {
            LatencySink::Exact(v) => v.push(latency),
            LatencySink::Hist(h) => h.record(latency),
        }
    }

    fn summary(&self) -> LatencySummary {
        match self {
            LatencySink::Exact(v) => LatencySummary::from_samples(v),
            LatencySink::Hist(h) => h.summary(),
        }
    }
}

/// The lower placement tier: maps each session/request onto a node. The
/// three classic [`Assignment`]s are reproduced verbatim; the sharded
/// engine adds seeded weighted-random spreading and telemetry-driven
/// (deliberately stale) load-aware placement.
pub(crate) enum Picker {
    Sticky,
    RoundRobin {
        next: usize,
    },
    LeastLoaded,
    /// Weighted random: node i drawn with probability `w[i] / Σw`, from a
    /// dedicated placement RNG (the trace RNG is never touched).
    RandomWeighted {
        rng: StdRng,
        cum: Vec<f64>,
    },
    /// Argmin over the *last published* per-node busy-seconds gauges in
    /// `rec` — the dispatch path publishes each node's accumulated busy
    /// seconds there after every service round, so the picker reads load
    /// that is stale between completions, like real telemetry.
    LoadAware {
        rec: Recorder,
        names: Vec<String>,
    },
}

impl Picker {
    pub(crate) fn from_assignment(a: Assignment) -> Self {
        match a {
            Assignment::Sticky => Picker::Sticky,
            Assignment::RoundRobin => Picker::RoundRobin { next: 0 },
            Assignment::LeastLoaded => Picker::LeastLoaded,
        }
    }

    fn pick(&mut self, edges: &[EdgeState], model_id: u64) -> usize {
        match self {
            Picker::Sticky => (model_id as usize) % edges.len(),
            Picker::RoundRobin { next } => {
                let e = *next;
                *next = (*next + 1) % edges.len();
                e
            }
            Picker::LeastLoaded => {
                let mut best = 0;
                for (i, e) in edges.iter().enumerate() {
                    if e.free_at < edges[best].free_at {
                        best = i;
                    }
                }
                best
            }
            Picker::RandomWeighted { rng, cum } => {
                let total = *cum.last().expect("non-empty weights");
                let u: f64 = rng.gen::<f64>() * total;
                match cum.binary_search_by(|c| c.partial_cmp(&u).expect("finite weights")) {
                    Ok(i) => i,
                    Err(i) => i.min(cum.len() - 1),
                }
            }
            Picker::LoadAware { rec, names } => {
                let mut best = 0;
                let mut best_busy = f64::INFINITY;
                for (i, name) in names.iter().enumerate() {
                    let busy = rec.gauge(name).unwrap_or(0.0);
                    if busy < best_busy {
                        best = i;
                        best_busy = busy;
                    }
                }
                best
            }
        }
    }
}

struct EdgeState {
    cache: ModelCache<u64, ModelSpec>,
    free_at: f64,
    busy_time: f64,
    /// Ready requests awaiting a batched service round, FIFO by ready
    /// time: `(ready_at, arrive_at, model_id, request_seq)`. Only used
    /// when `max_batch > 1`; `request_seq` is the fleet-wide arrival
    /// sequence number a traced request's spans are keyed by.
    queue: std::collections::VecDeque<(f64, f64, u64, u64)>,
}

/// Per-cell adaptation runtime carried by the [`World`]: one seeded
/// [`LinkState`] per edge plus the airtime parameters.
struct AdaptRuntime {
    links: Vec<LinkState>,
    payload_bits: f64,
    full_feature_dim: usize,
    symbol_rate_hz: f64,
    /// Precomputed per-entry counter names (`fleet_adapt_<label>`), so
    /// the hot arrival path never formats strings.
    counter_names: Vec<String>,
}

/// Precomputed offload parameters (derived from [`OffloadConfig`]).
struct OffloadRuntime {
    threshold: f64,
    latency_s: f64,
    transfer_s: f64,
}

struct World<'a> {
    edges: Vec<EdgeState>,
    sink: LatencySink,
    fetch_time_total: f64,
    service_time: f64,
    /// The encode half of `service_time` (same first summand, so the
    /// non-offload path still adds the precomputed sum and stays
    /// bit-identical to the pre-offload engine).
    encode_time: f64,
    /// Decode compute time on the cloud tier, for offloaded rounds.
    cloud_decode_time: f64,
    dispatch_time: f64,
    max_batch: usize,
    batches: u64,
    served: u64,
    offloaded: u64,
    adapt: Option<AdaptRuntime>,
    offload: Option<OffloadRuntime>,
    /// The link a missed model is fetched over.
    edge_cloud: Link,
    picker: Picker,
    /// Deepest any node's service queue has grown (0 when `max_batch <= 1`
    /// — the classic pipeline never queues).
    queue_peak: usize,
    /// Backend every dispatched round is served through, when attached.
    server: Option<&'a mut dyn BatchServer>,
    /// Observability sink; a disabled recorder makes every call a single
    /// branch.
    obs: Recorder,
    /// Fleet-wide arrival sequence number; a traced request's trace id.
    seq: u64,
    /// Virtual-time series sampling + SLO watchdog, when attached.
    series: Option<SeriesRuntime>,
    /// Wall-clock start of the replay, for [`ShardStats::wall_ns`].
    started: std::time::Instant,
}

/// Time-series sampling state for an instrumented replay: windows close
/// on virtual-time interval boundaries (checked at each arrival), so the
/// exported curves are a pure function of the simulated workload.
struct SeriesRuntime {
    interval_s: f64,
    next_tick: u64,
    sampler: TimeSeriesSampler,
    slo: Option<SloEvaluator>,
}

impl<'a> World<'a> {
    /// Builds a fleet world over `n_edges` fresh caches with the latency
    /// setup derived from `cfg` and `topology`.
    fn new(
        cfg: &FleetConfig,
        topology: &Topology,
        seed: u64,
        picker: Picker,
        opts: RunOptions<'a>,
    ) -> Result<Self, ConfigError> {
        let started = std::time::Instant::now();
        let series = match opts.series {
            Some((interval_s, _)) if !(interval_s.is_finite() && interval_s > 0.0) => {
                return Err(ConfigError::BadSeriesInterval(interval_s));
            }
            Some((interval_s, slo)) => Some(SeriesRuntime {
                interval_s,
                next_tick: 0,
                sampler: TimeSeriesSampler::new(&opts.recorder),
                slo: slo.map(SloEvaluator::new),
            }),
            None => None,
        };
        Ok(World {
            edges: (0..cfg.n_edges)
                .map(|_| EdgeState {
                    cache: ModelCache::new(cfg.capacity_bytes, (opts.policy)()),
                    free_at: 0.0,
                    busy_time: 0.0,
                    queue: std::collections::VecDeque::new(),
                })
                .collect(),
            sink: if opts.hist {
                LatencySink::Hist(LatencyHist::new())
            } else {
                LatencySink::Exact(Vec::with_capacity(cfg.n_requests))
            },
            fetch_time_total: 0.0,
            service_time: topology.edge.compute_time(cfg.message.encode_ops)
                + topology.edge.compute_time(cfg.message.decode_ops),
            encode_time: topology.edge.compute_time(cfg.message.encode_ops),
            cloud_decode_time: topology.cloud.compute_time(cfg.message.decode_ops),
            dispatch_time: topology.edge.compute_time(cfg.message.dispatch_ops),
            max_batch: cfg.max_batch.max(1),
            batches: 0,
            served: 0,
            offloaded: 0,
            adapt: cfg.adapt.as_ref().map(|a| AdaptRuntime {
                links: (0..cfg.n_edges)
                    .map(|e| LinkState::new(&a.spec, derive_seed(seed, ADAPT_STREAM + e as u64)))
                    .collect(),
                payload_bits: a.payload_bits,
                full_feature_dim: a.full_feature_dim.max(1),
                symbol_rate_hz: a.symbol_rate_hz,
                counter_names: a
                    .spec
                    .entries
                    .iter()
                    .map(|e| format!("fleet_adapt_{}", e.link.label()))
                    .collect(),
            }),
            offload: cfg.offload.as_ref().map(|o| OffloadRuntime {
                threshold: o.busy_frac_threshold,
                latency_s: o.backhaul_latency_s,
                transfer_s: o.request_bytes as f64 / o.backhaul_bytes_per_sec,
            }),
            edge_cloud: topology.edge_cloud,
            picker,
            queue_peak: 0,
            server: opts.server,
            obs: opts.recorder,
            seq: 0,
            series,
            started,
        })
    }

    /// Closes every series window whose virtual-time boundary has passed.
    /// Called at each arrival (and once at drain), so windows land on
    /// deterministic simulated-time boundaries regardless of host timing.
    fn tick_series(&mut self, now: f64) {
        let Some(s) = &mut self.series else {
            return;
        };
        let depth: usize = self.edges.iter().map(|e| e.queue.len()).sum();
        while (s.next_tick as f64 + 1.0) * s.interval_s <= now {
            self.obs.set_gauge("fleet_queue_depth", depth as f64);
            s.sampler.sample(s.next_tick, &self.obs);
            if let Some(slo) = &mut s.slo {
                slo.observe(&self.obs);
            }
            s.next_tick += 1;
        }
    }

    /// Flushes the final (partial) series window at drain time. When an
    /// SLO is armed and the report sink is a histogram, also publishes
    /// `fleet_over_slo` — the run-total count of requests whose latency
    /// exceeded the SLO target ([`LatencyHist::count_over`]).
    fn flush_series(&mut self, now: f64) {
        self.tick_series(now);
        if let Some(s) = &mut self.series {
            self.obs.set_gauge("fleet_queue_depth", 0.0);
            s.sampler.sample(s.next_tick, &self.obs);
            if let Some(slo) = &mut s.slo {
                slo.observe(&self.obs);
            }
            if let (LatencySink::Hist(h), Some(slo)) = (&self.sink, &s.slo) {
                let target_s = slo.spec().target_p99_ns as f64 / 1e9;
                self.obs
                    .set_counter("fleet_over_slo", h.count_over(target_s));
            }
        }
    }

    /// Records one completed request's latency into the report sink and
    /// the observability histogram (virtual-time nanoseconds).
    fn record_latency(&mut self, latency: f64) {
        self.sink.record(latency);
        self.obs.record_ns(Stage::Message, vns(latency));
    }

    /// Emits the causal span tree for one completed request: a `request`
    /// root, an `edge` child, and — when the decode half was offloaded —
    /// `backhaul` and `cloud` children. All timestamps are virtual-time
    /// ns, so the export is byte-identical at any thread count.
    fn trace_request(
        &self,
        seq: u64,
        arrive: f64,
        start: f64,
        edge_dur: f64,
        done: f64,
        offload: Option<(f64, f64)>,
    ) {
        if !self.obs.tracing_enabled() {
            return;
        }
        let root = SpanContext::root(seq);
        let parent = Some(root.span);
        self.obs.trace_span(TraceSpan::new(
            root.child(0),
            parent,
            "edge",
            vns(start),
            vns(edge_dur),
        ));
        if let Some((backhaul_dur, cloud_dur)) = offload {
            let done_edge = start + edge_dur;
            self.obs.trace_span(TraceSpan::new(
                root.child(1),
                parent,
                "backhaul",
                vns(done_edge),
                vns(backhaul_dur),
            ));
            self.obs.trace_span(TraceSpan::new(
                root.child(2),
                parent,
                "cloud",
                vns(done - cloud_dur),
                vns(cloud_dur),
            ));
        }
        self.obs.trace_span(TraceSpan::new(
            root,
            None,
            "request",
            vns(arrive),
            vns(done - arrive),
        ));
    }

    /// Advances edge `e`'s cell link one step (when adaptation is on) and
    /// returns the airtime of this request's feature payload at the
    /// selected operating point. Exactly zero when adaptation is off or
    /// `payload_bits == 0`.
    fn airtime(&mut self, e: usize) -> f64 {
        let Some(a) = &mut self.adapt else {
            return 0.0;
        };
        let d = a.links[e].step();
        if d.switched {
            self.obs.add("fleet_adapt_switches", 1);
        }
        self.obs.add(&a.counter_names[d.index], 1);
        let bits = a.payload_bits * d.link.feature_dim as f64 / a.full_feature_dim as f64;
        if bits == 0.0 {
            return 0.0;
        }
        bits / d.link.bits_per_symbol_coded() / a.symbol_rate_hz
    }

    /// Whether edge `e` should offload decode work right now: its busy
    /// fraction (the same quantity the telemetry gauges publish, divided
    /// by sim time) exceeds the configured threshold.
    fn should_offload(&self, e: usize, now: f64) -> bool {
        match &self.offload {
            Some(o) if now > 0.0 => self.edges[e].busy_time / now > o.threshold,
            _ => false,
        }
    }

    fn pick_edge(&mut self, model_id: u64) -> usize {
        self.picker.pick(&self.edges, model_id)
    }

    /// Accounts `cost` busy seconds to edge `e` and publishes the node's
    /// new total to the gauge a [`Picker::LoadAware`] reads back.
    fn note_busy(&mut self, e: usize, cost: f64) {
        self.edges[e].busy_time += cost;
        if let Picker::LoadAware { rec, names } = &self.picker {
            rec.set_gauge(&names[e], self.edges[e].busy_time);
        }
    }

    /// Starts one batched service round on edge `e` if it is idle and has
    /// queued requests; returns the completion time of the round (so the
    /// caller can schedule the next drain) or `None`.
    fn try_dispatch(&mut self, e: usize, now: f64) -> Option<f64> {
        if now < self.edges[e].free_at || self.edges[e].queue.is_empty() {
            return None;
        }
        let k = self.max_batch.min(self.edges[e].queue.len());
        let offload_round = self.should_offload(e, now);
        // Edge-side cost: the full round when serving locally, only
        // dispatch + encode when the decode half ships to the cloud.
        let (cost, done, offload_durs) = if offload_round {
            let o = self.offload.as_ref().expect("should_offload checked");
            let edge_cost = self.dispatch_time + k as f64 * self.encode_time;
            let done_edge = now + edge_cost;
            // Batch round trip: features out, one backhaul transfer per
            // request (serialized), elastic cloud decodes sequentially,
            // results return after another propagation delay.
            let backhaul = 2.0 * o.latency_s + k as f64 * o.transfer_s;
            let cloud = k as f64 * self.cloud_decode_time;
            let done_req = done_edge + backhaul + cloud;
            (edge_cost, done_req, Some((backhaul, cloud)))
        } else {
            let cost = self.dispatch_time + k as f64 * self.service_time;
            (cost, now + cost, None)
        };
        let free_at = now + cost;
        if let Some(server) = &mut self.server {
            let ids: Vec<u64> = self.edges[e].queue.iter().take(k).map(|r| r.2).collect();
            server.serve_round(e, &ids);
        }
        for _ in 0..k {
            let (_, arrive, _, seq) = self.edges[e]
                .queue
                .pop_front()
                .expect("k bounded by queue length");
            self.record_latency(done - arrive);
            self.trace_request(seq, arrive, now, cost, done, offload_durs);
        }
        self.edges[e].free_at = free_at;
        self.note_busy(e, cost);
        self.batches += 1;
        self.served += k as u64;
        self.obs.add("fleet_served", k as u64);
        self.obs.add("fleet_batches", 1);
        if offload_round {
            self.offloaded += k as u64;
            self.obs.add("fleet_offloaded", k as u64);
        }
        Some(free_at)
    }

    /// Drains the event heap and folds the world into its results.
    /// `injected` counts arrivals that entered the loop without being
    /// events themselves.
    fn finish(mut self, mut sim: Sim<Self>, injected: u64) -> FleetRun {
        sim.run(&mut self);
        self.flush_series(sim.now());
        let duration = sim.now().max(1e-9);
        let (hits, lookups) = self.cache_totals();
        let report = FleetReport {
            latency: self.sink.summary(),
            hit_rate: if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            utilization: self.edges.iter().map(|e| e.busy_time / duration).collect(),
            fetch_time_total: self.fetch_time_total,
            mean_batch: if self.batches == 0 {
                0.0
            } else {
                self.served as f64 / self.batches as f64
            },
            offloaded: self.offloaded,
            duration,
        };
        let stats = ShardStats {
            events_total: injected + sim.processed(),
            queue_depth_peak: self.queue_peak,
            hits,
            lookups,
            wall_ns: self.started.elapsed().as_nanos() as u64,
        };
        let (series, slo) = match self.series {
            Some(s) => (Some(s.sampler), s.slo),
            None => (None, None),
        };
        FleetRun {
            report,
            stats,
            series,
            slo,
        }
    }

    /// Aggregate cache hit / lookup counts across the fleet's nodes.
    fn cache_totals(&self) -> (u64, u64) {
        let (mut hits, mut lookups) = (0u64, 0u64);
        for e in &self.edges {
            hits += e.cache.stats().hits;
            lookups += e.cache.stats().lookups();
        }
        (hits, lookups)
    }
}

/// Drains edge `e` one round at a time: each completed round schedules the
/// next drain at its completion time, so batches form from whatever has
/// queued while the edge was busy.
fn dispatch_loop<'a>(sim: &mut Sim<World<'a>>, w: &mut World<'a>, e: usize) {
    if let Some(done) = w.try_dispatch(e, sim.now()) {
        sim.schedule_at(
            done,
            Box::new(move |sim, w: &mut World| dispatch_loop(sim, w, e)),
        );
    }
}

/// Handles one request arrival at `sim.now()`: the *entire* per-request
/// fleet logic.
fn on_arrival<'a>(sim: &mut Sim<World<'a>>, w: &mut World<'a>, spec: ModelSpec) {
    let now = sim.now();
    w.tick_series(now);
    let seq = w.seq;
    w.seq += 1;
    w.obs.add("fleet_requests", 1);
    let e = w.pick_edge(spec.id);
    let fetch = if w.edges[e].cache.get(&spec.id).is_some() {
        w.obs.add("fleet_cache_hits", 1);
        0.0
    } else {
        w.obs.add("fleet_cache_misses", 1);
        let f = w.edge_cloud.transfer_time(spec.size);
        w.fetch_time_total += f;
        w.edges[e].cache.insert(spec.id, spec, spec.size, spec.cost);
        f
    };
    // Link adaptation: the cell's Markov channel advances once per
    // arrival; the request pays the airtime of its (possibly punctured)
    // feature payload before it is ready to serve. Exactly 0.0 when
    // adaptation is off, so `+ air` preserves the fixed-config timeline
    // bit for bit.
    let air = w.airtime(e);
    if w.max_batch <= 1 {
        // Classic pipeline: service chains off the edge's running
        // completion time immediately (dispatch overhead is per message,
        // so batching is moot).
        let start = (now + fetch + air).max(w.edges[e].free_at);
        if w.should_offload(e, now) {
            // Decode half runs on the cloud: the edge frees after
            // dispatch + encode; the request completes after the backhaul
            // round trip and the cloud decode.
            let o = w.offload.as_ref().expect("should_offload checked");
            let (latency_s, transfer_s) = (o.latency_s, o.transfer_s);
            let edge_cost = w.dispatch_time + w.encode_time;
            let done_edge = start + edge_cost;
            let backhaul = 2.0 * latency_s + transfer_s;
            let done = done_edge + backhaul + w.cloud_decode_time;
            w.edges[e].free_at = done_edge;
            w.note_busy(e, edge_cost);
            w.record_latency(done - now);
            w.trace_request(
                seq,
                now,
                start,
                edge_cost,
                done,
                Some((backhaul, w.cloud_decode_time)),
            );
            w.offloaded += 1;
            w.obs.add("fleet_offloaded", 1);
        } else {
            let cost = w.dispatch_time + w.service_time;
            let done = start + cost;
            w.edges[e].free_at = done;
            w.note_busy(e, cost);
            w.record_latency(done - now);
            w.trace_request(seq, now, start, cost, done, None);
        }
        w.batches += 1;
        w.served += 1;
        w.obs.add("fleet_served", 1);
        w.obs.add("fleet_batches", 1);
        if let Some(server) = &mut w.server {
            server.serve_round(e, &[spec.id]);
        }
    } else {
        // Batched mode: the request queues once its model is resident and
        // its payload is off the air; a busy edge drains whatever has
        // accumulated when it frees, one dispatch per round.
        sim.schedule_at(
            now + fetch + air,
            Box::new(move |sim, w: &mut World| {
                w.edges[e].queue.push_back((sim.now(), now, spec.id, seq));
                w.queue_peak = w.queue_peak.max(w.edges[e].queue.len());
                dispatch_loop(sim, w, e);
            }),
        );
    }
}

/// Virtual simulated seconds → trace nanoseconds. The DES timeline is
/// deterministic at any `SEMCOM_THREADS`, so spans stamped this way export
/// byte-identically regardless of host scheduling.
fn vns(t: f64) -> u64 {
    (t * 1e9).round() as u64
}

fn arrivals(cfg: &FleetConfig, seed: u64) -> semcom_cache::workload::ArrivalStream {
    Workload::standard(cfg.n_domains, cfg.n_users, cfg.zipf_alpha)
        .into_stream(cfg.arrival_rate_hz, seed)
}

/// Replays `cfg` to completion: the one fleet event loop. Called by
/// [`FleetSim`] over a whole fleet and by the orchestrator's `semcom-par`
/// fan-out once per shard; the result depends only on the arguments.
///
/// Arrivals are drawn lazily and injected one at a time: fire everything
/// strictly earlier than the arrival, move the clock onto it, run the
/// arrival body. The strict (`< t`) drain makes an arrival win a tie
/// against a derived event at the same instant — the order a heap holding
/// every arrival up front (lowest sequence numbers) would produce, which
/// is what `replay_prescheduled` pins.
pub(crate) fn replay(
    cfg: &FleetConfig,
    topology: &Topology,
    seed: u64,
    picker: Picker,
    opts: RunOptions<'_>,
) -> Result<FleetRun, ConfigError> {
    let mut world = World::new(cfg, topology, seed, picker, opts)?;
    let mut sim = Sim::new();
    let mut stream = arrivals(cfg, seed);
    for _ in 0..cfg.n_requests {
        let (t, spec) = stream.next_arrival();
        sim.run_while_before(&mut world, t);
        sim.advance_to(t);
        on_arrival(&mut sim, &mut world, spec);
    }
    Ok(world.finish(sim, cfg.n_requests as u64))
}

/// Test oracle for [`replay`]: the driver it replaced. Materialises the
/// whole trace and pre-schedules every arrival as a boxed event
/// (O(`n_requests`) memory) before the heap runs once.
#[cfg(test)]
fn replay_prescheduled(
    cfg: &FleetConfig,
    topology: &Topology,
    seed: u64,
    picker: Picker,
    opts: RunOptions<'_>,
) -> Result<FleetRun, ConfigError> {
    let world = World::new(cfg, topology, seed, picker, opts)?;
    let mut sim = Sim::new();
    let trace: Vec<(f64, ModelSpec)> = arrivals(cfg, seed).take(cfg.n_requests).collect();
    for (t, spec) in trace {
        sim.schedule_at(
            t,
            Box::new(move |sim, w: &mut World| on_arrival(sim, w, spec)),
        );
    }
    Ok(world.finish(sim, 0))
}

/// The multi-edge fleet simulator. See the module-level documentation.
#[derive(Debug)]
pub struct FleetSim {
    config: FleetConfig,
    topology: Topology,
}

impl FleetSim {
    /// Creates a simulator over a topology, validating the configuration.
    pub fn try_new(config: FleetConfig, topology: Topology) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(FleetSim { config, topology })
    }

    /// Creates a simulator over a topology.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (see [`FleetConfig::validate`]);
    /// use [`FleetSim::try_new`] for a typed error.
    pub fn new(config: FleetConfig, topology: Topology) -> Self {
        Self::try_new(config, topology).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Replays the workload with the default [`RunOptions`]: per-edge LRU
    /// caches, exact latency percentiles.
    pub fn run(&self, seed: u64) -> FleetReport {
        self.run_with(seed, RunOptions::default())
            .expect("no series interval to reject")
            .report
    }

    /// [`FleetSim::run`] with [`RunOptions::hist`] set — the summary a
    /// shard of `ShardedFleetSim` produces for the same config and seed.
    pub fn run_hist(&self, seed: u64) -> FleetReport {
        let opts = RunOptions {
            hist: true,
            ..RunOptions::default()
        };
        self.run_with(seed, opts)
            .expect("no series interval to reject")
            .report
    }

    /// Replays the workload under `opts`. The arrival process and the
    /// simulated timeline are those of [`FleetSim::run`] for the same
    /// seed, whatever the options.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadSeriesInterval`] when [`RunOptions::series`]
    /// carries a non-finite or non-positive interval.
    pub fn run_with(&self, seed: u64, opts: RunOptions<'_>) -> Result<FleetRun, ConfigError> {
        let picker = Picker::from_assignment(self.config.assignment);
        replay(&self.config, &self.topology, seed, picker, opts)
    }
}

#[cfg(test)]
mod equivalence;

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(assignment: Assignment) -> FleetSim {
        FleetSim::new(
            FleetConfig {
                assignment,
                ..FleetConfig::default()
            },
            Topology::default(),
        )
    }

    #[test]
    fn sticky_assignment_maximizes_hit_rate() {
        let sticky = sim(Assignment::Sticky).run(1);
        let rr = sim(Assignment::RoundRobin).run(1);
        assert!(
            sticky.hit_rate > rr.hit_rate,
            "sticky {} vs round-robin {}",
            sticky.hit_rate,
            rr.hit_rate
        );
    }

    #[test]
    fn fleet_utilization_is_accounted_per_edge() {
        let r = sim(Assignment::RoundRobin).run(2);
        assert_eq!(r.utilization.len(), 3);
        for &u in &r.utilization {
            assert!((0.0..=1.0).contains(&u), "utilization {u}");
        }
        // Round robin spreads load nearly evenly.
        let max = r.utilization.iter().cloned().fold(0.0f64, f64::max);
        let min = r.utilization.iter().cloned().fold(1.0f64, f64::min);
        assert!(
            max - min < 0.1,
            "uneven round-robin load: {:?}",
            r.utilization
        );
    }

    #[test]
    fn more_edges_cut_queueing_latency_under_load() {
        let mk = |n_edges: usize| {
            FleetSim::new(
                FleetConfig {
                    n_edges,
                    // Heavy compute (10 ms service) at 300 req/s: a single
                    // edge is overloaded (utilization 3.0), four are not.
                    arrival_rate_hz: 300.0,
                    message: MessageCost {
                        encode_ops: 5e8,
                        decode_ops: 5e8,
                        ..MessageCost::default()
                    },
                    // Everything fits: isolate queueing from fetch misses.
                    capacity_bytes: 40_000_000,
                    assignment: Assignment::LeastLoaded,
                    ..FleetConfig::default()
                },
                Topology::default(),
            )
            .run(3)
        };
        let one = mk(1);
        let four = mk(4);
        assert!(
            four.latency.p95 < one.latency.p95,
            "4 edges p95 {} vs 1 edge p95 {}",
            four.latency.p95,
            one.latency.p95
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let a = sim(Assignment::Sticky).run(7);
        let b = sim(Assignment::Sticky).run(7);
        assert_eq!(a, b);
    }

    /// `run_with` under the given cache policy, everything else default.
    fn run_policy(
        sim: &FleetSim,
        seed: u64,
        policy: &dyn Fn() -> Box<dyn EvictionPolicy<u64> + Send>,
    ) -> FleetReport {
        let opts = RunOptions {
            policy,
            ..RunOptions::default()
        };
        sim.run_with(seed, opts).unwrap().report
    }

    #[test]
    fn run_with_lru_policy_matches_run() {
        let a = sim(Assignment::Sticky).run(5);
        let b = run_policy(&sim(Assignment::Sticky), 5, &|| Box::new(Lru::new()));
        assert_eq!(a, b);
    }

    #[test]
    fn run_hist_matches_run_on_exact_fields() {
        let exact = sim(Assignment::Sticky).run(5);
        let hist = sim(Assignment::Sticky).run_hist(5);
        assert_eq!(hist.latency.count, exact.latency.count);
        assert_eq!(hist.latency.max, exact.latency.max);
        assert!((hist.latency.mean - exact.latency.mean).abs() < 1e-12);
        assert_eq!(hist.hit_rate, exact.hit_rate);
        assert_eq!(hist.utilization, exact.utilization);
        assert_eq!(hist.fetch_time_total, exact.fetch_time_total);
        assert_eq!(hist.duration, exact.duration);
        // Bucket lower bounds: at most 1/16 below the exact percentile.
        assert!(hist.latency.p95 <= exact.latency.p95);
        assert!(hist.latency.p95 >= exact.latency.p95 * (1.0 - 1.0 / 16.0) - 1e-12);
    }

    #[test]
    fn cost_aware_fleet_runs() {
        use semcom_cache::policy::SemanticCost;
        let r = run_policy(&sim(Assignment::Sticky), 5, &|| {
            Box::new(SemanticCost::new())
        });
        assert!(
            r.hit_rate > 0.0 && r.hit_rate < 1.0,
            "hit rate {}",
            r.hit_rate
        );
    }

    #[test]
    fn max_batch_one_reproduces_classic_pipeline() {
        let classic = sim(Assignment::Sticky).run(9);
        let batched = FleetSim::new(
            FleetConfig {
                max_batch: 1,
                ..FleetConfig::default()
            },
            Topology::default(),
        )
        .run(9);
        assert_eq!(classic, batched);
        assert!((classic.mean_batch - 1.0).abs() < 1e-12);
    }

    /// An overloaded single edge with per-dispatch overhead: batching
    /// amortizes the overhead across coalesced requests and cuts latency.
    fn overloaded(max_batch: usize) -> FleetReport {
        FleetSim::new(
            FleetConfig {
                n_edges: 1,
                arrival_rate_hz: 300.0,
                capacity_bytes: 40_000_000,
                message: MessageCost {
                    encode_ops: 1e8,
                    decode_ops: 1e8,
                    dispatch_ops: 4e8,
                    ..MessageCost::default()
                },
                max_batch,
                ..FleetConfig::default()
            },
            Topology::default(),
        )
        .run(4)
    }

    #[test]
    fn batching_amortizes_dispatch_overhead_under_load() {
        let solo = overloaded(1);
        let batched = overloaded(16);
        assert!(
            batched.mean_batch > 2.0,
            "queue never coalesced: mean batch {}",
            batched.mean_batch
        );
        assert!(
            batched.latency.p95 < solo.latency.p95,
            "batched p95 {} vs solo p95 {}",
            batched.latency.p95,
            solo.latency.p95
        );
    }

    #[test]
    fn batched_replay_is_deterministic() {
        assert_eq!(overloaded(8), overloaded(8));
    }

    /// Counts what a backend would serve; used to pin the
    /// [`RunOptions::server`] contract.
    #[derive(Default)]
    struct CountingServer {
        rounds: Vec<(usize, Vec<u64>)>,
    }

    impl BatchServer for CountingServer {
        fn serve_round(&mut self, edge: usize, model_ids: &[u64]) {
            self.rounds.push((edge, model_ids.to_vec()));
        }
    }

    fn run_serving(sim: &FleetSim, seed: u64, server: &mut CountingServer) -> FleetReport {
        let opts = RunOptions {
            server: Some(server),
            ..RunOptions::default()
        };
        sim.run_with(seed, opts).unwrap().report
    }

    #[test]
    fn served_run_serves_every_request_and_matches_run() {
        let fleet = sim(Assignment::Sticky);
        let mut server = CountingServer::default();
        let served = run_serving(&fleet, 11, &mut server);
        assert_eq!(served, fleet.run(11), "serving rounds perturbed the DES");
        let total: usize = server.rounds.iter().map(|(_, ids)| ids.len()).sum();
        assert_eq!(total, fleet.config.n_requests);
        assert!(server.rounds.iter().all(|&(e, _)| e < fleet.config.n_edges));
    }

    #[test]
    fn served_rounds_coalesce_under_batching() {
        let fleet = FleetSim::new(
            FleetConfig {
                n_edges: 1,
                arrival_rate_hz: 300.0,
                capacity_bytes: 40_000_000,
                message: MessageCost {
                    encode_ops: 1e8,
                    decode_ops: 1e8,
                    dispatch_ops: 4e8,
                    ..MessageCost::default()
                },
                max_batch: 16,
                ..FleetConfig::default()
            },
            Topology::default(),
        );
        let mut server = CountingServer::default();
        let report = run_serving(&fleet, 4, &mut server);
        assert_eq!(report, overloaded(16));
        let total: usize = server.rounds.iter().map(|(_, ids)| ids.len()).sum();
        assert_eq!(total, fleet.config.n_requests);
        let widest = server
            .rounds
            .iter()
            .map(|(_, ids)| ids.len())
            .max()
            .unwrap();
        assert!(widest > 2, "queue never coalesced: widest round {widest}");
    }

    #[test]
    #[should_panic(expected = "at least one edge")]
    fn zero_edges_rejected() {
        FleetSim::new(
            FleetConfig {
                n_edges: 0,
                ..FleetConfig::default()
            },
            Topology::default(),
        );
    }

    #[test]
    fn validation_catches_every_bad_knob() {
        let base = FleetConfig::default;
        assert!(base().validate().is_ok());
        let cases = [
            (
                FleetConfig {
                    n_edges: 0,
                    ..base()
                },
                ConfigError::ZeroEdges,
            ),
            (
                FleetConfig {
                    max_batch: 0,
                    ..base()
                },
                ConfigError::ZeroBatch,
            ),
            (
                FleetConfig {
                    arrival_rate_hz: f64::NAN,
                    ..base()
                },
                ConfigError::BadArrivalRate(f64::NAN),
            ),
            (
                FleetConfig {
                    arrival_rate_hz: 0.0,
                    ..base()
                },
                ConfigError::BadArrivalRate(0.0),
            ),
            (
                FleetConfig {
                    arrival_rate_hz: f64::INFINITY,
                    ..base()
                },
                ConfigError::BadArrivalRate(f64::INFINITY),
            ),
            (
                FleetConfig {
                    zipf_alpha: f64::NAN,
                    ..base()
                },
                ConfigError::BadZipf(f64::NAN),
            ),
            (
                FleetConfig {
                    zipf_alpha: -0.5,
                    ..base()
                },
                ConfigError::BadZipf(-0.5),
            ),
            // Used to construct, then panic in `Workload::new` on `run`.
            (
                FleetConfig {
                    n_domains: 0,
                    n_users: 0,
                    ..base()
                },
                ConfigError::EmptyUniverse,
            ),
        ];
        for (cfg, want) in cases {
            let got = FleetSim::try_new(cfg.clone(), Topology::default())
                .err()
                .unwrap_or_else(|| panic!("{cfg:?} should be rejected"));
            // NaN != NaN: compare the rendered error instead.
            assert_eq!(got.to_string(), want.to_string(), "{cfg:?}");
        }
    }

    /// The new adaptive/offload knobs are validated at construction with
    /// typed errors instead of panicking deep in the event loop (the
    /// satellite-3 hardening).
    #[test]
    fn validation_catches_bad_adaptive_and_offload_knobs() {
        let base = FleetConfig::default;
        let mut non_stochastic = FleetAdapt::degenerate();
        non_stochastic.spec.markov.transition[0] = [0.5, 0.4, 0.0];
        let mut empty_table = FleetAdapt::degenerate();
        empty_table.spec.entries.clear();
        let mut bad_payload = FleetAdapt::degenerate();
        bad_payload.payload_bits = f64::NAN;
        let mut bad_rate = FleetAdapt::degenerate();
        bad_rate.symbol_rate_hz = 0.0;
        let mut small_full = FleetAdapt::degenerate();
        small_full.full_feature_dim = 8; // table entry keeps 64 dims
        let cases: Vec<(FleetConfig, &str)> = vec![
            (
                FleetConfig {
                    adapt: Some(non_stochastic),
                    ..base()
                },
                "sum to 1",
            ),
            (
                FleetConfig {
                    adapt: Some(empty_table),
                    ..base()
                },
                "table must not be empty",
            ),
            (
                FleetConfig {
                    adapt: Some(bad_payload),
                    ..base()
                },
                "payload_bits",
            ),
            (
                FleetConfig {
                    adapt: Some(bad_rate),
                    ..base()
                },
                "symbol_rate_hz",
            ),
            (
                FleetConfig {
                    adapt: Some(small_full),
                    ..base()
                },
                "full_feature_dim",
            ),
            (
                FleetConfig {
                    offload: Some(OffloadConfig {
                        backhaul_bytes_per_sec: 0.0,
                        ..OffloadConfig::default()
                    }),
                    ..base()
                },
                "backhaul bandwidth",
            ),
            (
                FleetConfig {
                    offload: Some(OffloadConfig {
                        backhaul_latency_s: f64::NEG_INFINITY,
                        ..OffloadConfig::default()
                    }),
                    ..base()
                },
                "backhaul latency",
            ),
            (
                FleetConfig {
                    offload: Some(OffloadConfig {
                        busy_frac_threshold: f64::NAN,
                        ..OffloadConfig::default()
                    }),
                    ..base()
                },
                "busy-fraction threshold",
            ),
        ];
        for (cfg, needle) in cases {
            let err = FleetSim::try_new(cfg.clone(), Topology::default())
                .err()
                .unwrap_or_else(|| panic!("{cfg:?} should be rejected"));
            assert!(err.to_string().contains(needle), "{err} missing {needle:?}");
        }
        // Valid adaptive + offload configs construct.
        assert!(FleetConfig {
            adapt: Some(FleetAdapt::degenerate()),
            offload: Some(OffloadConfig::default()),
            ..base()
        }
        .validate()
        .is_ok());
    }

    /// The regression anchor of the refactor: a degenerate single-state
    /// Markov trace with zero payload reproduces the fixed-config report
    /// exactly, classic and batched.
    #[test]
    fn degenerate_adapt_reproduces_fixed_config_exactly() {
        for max_batch in [1usize, 8] {
            let fixed = FleetSim::new(
                FleetConfig {
                    max_batch,
                    ..FleetConfig::default()
                },
                Topology::default(),
            )
            .run_hist(21);
            let adaptive = FleetSim::new(
                FleetConfig {
                    max_batch,
                    adapt: Some(FleetAdapt::degenerate()),
                    ..FleetConfig::default()
                },
                Topology::default(),
            )
            .run_hist(21);
            assert_eq!(fixed, adaptive, "max_batch {max_batch}");
        }
    }

    /// Adaptive airtime shows up in latency but never perturbs the
    /// workload: cache behavior is identical with and without adaptation.
    #[test]
    fn adaptive_airtime_defers_service_without_touching_the_trace() {
        let plain = sim(Assignment::Sticky).run(13);
        let adaptive = FleetSim::new(
            FleetConfig {
                adapt: Some(FleetAdapt {
                    payload_bits: 200_000.0,
                    ..FleetAdapt::degenerate()
                }),
                ..FleetConfig::default()
            },
            Topology::default(),
        )
        .run(13);
        assert_eq!(plain.hit_rate, adaptive.hit_rate, "trace perturbed");
        assert_eq!(plain.fetch_time_total, adaptive.fetch_time_total);
        assert!(
            adaptive.latency.mean > plain.latency.mean,
            "airtime should defer completion: {} vs {}",
            adaptive.latency.mean,
            plain.latency.mean
        );
    }

    /// Offloading kicks in only past the busy threshold, strictly cuts an
    /// overloaded fleet's tail latency, and is deterministic.
    #[test]
    fn offloading_relieves_an_overloaded_edge() {
        let mk = |offload: Option<OffloadConfig>| {
            FleetSim::new(
                FleetConfig {
                    n_edges: 1,
                    arrival_rate_hz: 300.0,
                    capacity_bytes: 40_000_000,
                    message: MessageCost {
                        encode_ops: 1e8,
                        decode_ops: 9e8,
                        ..MessageCost::default()
                    },
                    offload,
                    ..FleetConfig::default()
                },
                Topology::default(),
            )
            .run(6)
        };
        let local = mk(None);
        assert_eq!(local.offloaded, 0);
        let offloaded = mk(Some(OffloadConfig {
            busy_frac_threshold: 0.5,
            ..OffloadConfig::default()
        }));
        assert!(
            offloaded.offloaded > 0,
            "overloaded edge never offloaded ({:?})",
            offloaded.offloaded
        );
        assert!(
            offloaded.latency.p95 < local.latency.p95,
            "offload p95 {} vs local p95 {}",
            offloaded.latency.p95,
            local.latency.p95
        );
        assert_eq!(
            offloaded,
            mk(Some(OffloadConfig {
                busy_frac_threshold: 0.5,
                ..OffloadConfig::default()
            }))
        );
    }

    /// A non-positive or non-finite series interval used to be clamped to
    /// a nanosecond, closing ~10⁷ windows before the first arrival; it is
    /// now refused before the loop starts.
    #[test]
    fn bad_series_interval_is_rejected_before_the_loop() {
        let fleet = sim(Assignment::Sticky);
        let observed = |interval_s: f64| {
            let opts = RunOptions {
                hist: true,
                recorder: Recorder::with_ticks(),
                series: Some((interval_s, None)),
                ..RunOptions::default()
            };
            fleet.run_with(3, opts)
        };
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = observed(bad).expect_err("interval should be rejected");
            assert_eq!(
                err.to_string(),
                ConfigError::BadSeriesInterval(bad).to_string()
            );
        }
        let run = observed(5.0).expect("a positive interval runs");
        assert_eq!(run.report, fleet.run_hist(3), "series perturbed the DES");
        // 3 000 requests at 60 Hz ≈ 50 s: about ten 5 s windows.
        let windows = run.series.expect("series requested").len();
        assert!((5..=20).contains(&windows), "{windows} windows");
    }

    /// The one-edge workload replay behind experiment F4's latency rows:
    /// `n_edges: 1`, 20 Hz, one cache.
    mod one_edge {
        use super::*;
        use semcom_cache::policy::SemanticCost;

        fn sim(capacity: usize) -> FleetSim {
            FleetSim::new(
                FleetConfig {
                    n_edges: 1,
                    n_requests: 1500,
                    arrival_rate_hz: 20.0,
                    capacity_bytes: capacity,
                    ..FleetConfig::default()
                },
                Topology::default(),
            )
        }

        #[test]
        fn larger_cache_improves_hit_rate_and_latency() {
            let small = sim(1_000_000).run(1);
            let large = sim(8_000_000).run(1);
            assert!(large.hit_rate > small.hit_rate, "{large:?} vs {small:?}");
            assert!(large.latency.mean < small.latency.mean);
        }

        #[test]
        fn zero_capacity_cache_always_misses() {
            let r = sim(1).run(2);
            assert_eq!(r.hit_rate, 0.0);
            assert!(r.fetch_time_total > 0.0);
        }

        #[test]
        fn replay_is_deterministic() {
            assert_eq!(sim(2_000_000).run(3), sim(2_000_000).run(3));
        }

        #[test]
        fn latencies_are_at_least_service_time() {
            let r = run_policy(&sim(4_000_000), 4, &|| Box::new(SemanticCost::new()));
            let topo = Topology::default();
            let msg = MessageCost::default();
            let service =
                topo.edge.compute_time(msg.encode_ops) + topo.edge.compute_time(msg.decode_ops);
            assert!(r.latency.p50 >= service - 1e-12);
            assert!(r.latency.count == 1500);
        }

        #[test]
        fn duration_covers_all_arrivals() {
            let r = sim(2_000_000).run(5);
            // 1500 requests at 20 Hz ≈ 75 s expected.
            assert!(r.duration > 30.0 && r.duration < 200.0, "{}", r.duration);
        }
    }

    #[test]
    fn config_errors_render_actionable_messages() {
        assert!(ConfigError::ZeroEdges
            .to_string()
            .contains("at least one edge"));
        assert!(ConfigError::ZeroBatch.to_string().contains("max_batch"));
        assert!(ConfigError::BadArrivalRate(f64::NAN)
            .to_string()
            .contains("finite and positive"));
        assert!(ConfigError::BadZipf(-1.0)
            .to_string()
            .contains("non-negative"));
        let e: Box<dyn std::error::Error> = Box::new(ConfigError::ZeroShards);
        assert!(e.to_string().contains("shard"));
    }
}
