//! Two-level sharded fleet orchestration (experiment F13).
//!
//! One event heap serializes all of a [`FleetSim`](crate::FleetSim)'s
//! work. This module scales the *same replay loop* to a million users
//! with a two-tier design borrowed from edge orchestration practice:
//!
//! * **Orchestrator tier** — [`ShardedFleetSim::plan`] partitions the
//!   model universe (domains + users) and the edge fleet into `n_shards`
//!   disjoint sub-fleets, deriving each shard's RNG seed with the same
//!   SplitMix64 stream-splitting (`derive_seed(seed, shard)`) the rest of
//!   the workspace uses.
//! * **Placement tier** — within a shard, a [`SessionPlacement`] maps
//!   each request onto a node: the classic [`Assignment`] strategies,
//!   seeded weighted-random spreading, or telemetry-driven load-aware
//!   placement fed by per-node busy gauges published through a
//!   `semcom-obs` [`Recorder`].
//!
//! Each shard replays its slice through the crate's one event loop
//! (`fleet::replay`: constant-memory [`ArrivalStream`] trace, with
//! [`LatencyHist`] aggregation), shards fan out over `semcom-par`
//! workers, and per-shard reports merge in **fixed shard-index order** —
//! so a run is byte-identical at `SEMCOM_THREADS` 1, 2, or 4, and equals a
//! serial [`FleetSim::run_hist`](crate::FleetSim::run_hist) replay of each
//! shard's sub-config merged the same way.
//!
//! [`ArrivalStream`]: semcom_cache::workload::ArrivalStream
//! [`LatencyHist`]: crate::metrics::LatencyHist

use crate::fleet::{
    replay, Assignment, ConfigError, FleetConfig, FleetReport, Picker, RunOptions, ShardStats,
};
use crate::metrics::LatencySummary;
use crate::topology::Topology;
use semcom_nn::rng::{derive_seed, seeded_rng};
use semcom_obs::Recorder;
use semcom_par::par_map_indexed;
use serde::{Deserialize, Serialize};

/// Stream index for the placement RNG, so `RandomWeighted` draws never
/// perturb the shard's trace RNG (`plan.seed` itself).
const PLACEMENT_STREAM: u64 = 0x706c_6163; // "plac"

/// The lower-tier session-to-node placement strategy used inside each
/// shard.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SessionPlacement {
    /// One of the classic deterministic [`Assignment`] strategies — the
    /// placements a [`FleetSim`](crate::FleetSim) also speaks, so a shard
    /// under them equals a `FleetSim` over its [`ShardPlan`].
    Assigned(Assignment),
    /// Seeded weighted-random spreading: node `i` drawn with probability
    /// `w[i] / Σw` from [`ShardedFleetConfig::node_weights`] (uniform when
    /// absent), using a placement RNG stream-split from the shard seed so
    /// the trace draws are untouched.
    RandomWeighted,
    /// Telemetry-driven: pick the node with the smallest *last published*
    /// busy-seconds gauge. Gauges update only when a service round
    /// completes, so the picker acts on deliberately stale load — the
    /// honest version of [`Assignment::LeastLoaded`], which peeks at
    /// ground-truth `free_at`.
    LoadAware,
}

impl SessionPlacement {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SessionPlacement::Assigned(a) => a.name(),
            SessionPlacement::RandomWeighted => "random_weighted",
            SessionPlacement::LoadAware => "load_aware",
        }
    }
}

/// Configuration of a sharded fleet replay: the aggregate fleet knobs
/// plus the orchestration tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedFleetConfig {
    /// Aggregate fleet: totals across all shards (edges, requests,
    /// domains, users, rate). [`ShardedFleetSim::plan`] splits these evenly.
    pub fleet: FleetConfig,
    /// Number of independent shards (each runs its own event loop).
    pub n_shards: usize,
    /// Session-to-node placement within each shard.
    pub placement: SessionPlacement,
    /// Optional per-node capacity weights for
    /// [`SessionPlacement::RandomWeighted`], one per edge (global index);
    /// `None` means uniform.
    pub node_weights: Option<Vec<f64>>,
}

impl ShardedFleetConfig {
    /// Validates the fleet knobs plus the orchestration tier.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.fleet.validate()?;
        if self.n_shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if self.n_shards > self.fleet.n_edges {
            return Err(ConfigError::MoreShardsThanEdges {
                shards: self.n_shards,
                edges: self.fleet.n_edges,
            });
        }
        let domains = split_even(self.fleet.n_domains, self.n_shards);
        let users = split_even(self.fleet.n_users, self.n_shards);
        for s in 0..self.n_shards {
            if domains[s] == 0 && users[s] == 0 {
                return Err(ConfigError::EmptyShardUniverse { shard: s });
            }
        }
        if let Some(w) = &self.node_weights {
            let expected = self.fleet.n_edges;
            let usable = w.iter().filter(|x| x.is_finite() && **x > 0.0).count();
            if w.len() != expected || usable != expected {
                return Err(ConfigError::BadNodeWeights {
                    expected,
                    got: if w.len() == expected { usable } else { w.len() },
                });
            }
        }
        Ok(())
    }
}

/// One shard's fully resolved work order: its slice of the fleet as a
/// plain [`FleetConfig`] plus the derived seed. Because a shard's
/// behavior depends only on the *counts* it owns (model ids are local
/// ranks), the plan is itself a valid [`FleetSim`](crate::FleetSim) input
/// — which is exactly how the equivalence tests replay it.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// Shard index (also the merge position).
    pub shard: usize,
    /// SplitMix64-derived seed: `derive_seed(run_seed, shard)`.
    pub seed: u64,
    /// This shard's slice of the fleet (edges, requests, domains, users,
    /// and an even share of the arrival rate).
    pub config: FleetConfig,
    /// Global index of this shard's first edge (node `j` here is global
    /// node `edge_offset + j`).
    pub edge_offset: usize,
    /// This shard's slice of the node weights, when weighted placement is
    /// configured.
    pub weights: Option<Vec<f64>>,
}

impl ShardPlan {
    /// The node picker `placement` means for this shard.
    fn picker(&self, placement: SessionPlacement) -> Picker {
        match placement {
            SessionPlacement::Assigned(a) => Picker::from_assignment(a),
            SessionPlacement::RandomWeighted => {
                // Running sums of the (default uniform) node weights.
                let mut cum = match &self.weights {
                    Some(w) => w.clone(),
                    None => vec![1.0; self.config.n_edges],
                };
                for i in 1..cum.len() {
                    cum[i] += cum[i - 1];
                }
                Picker::RandomWeighted {
                    rng: seeded_rng(derive_seed(self.seed, PLACEMENT_STREAM)),
                    cum,
                }
            }
            // A shard-private recorder closes the telemetry loop: the
            // dispatch path publishes per-node busy gauges, the picker
            // polls them back. Deterministic because the DES is.
            SessionPlacement::LoadAware => Picker::LoadAware {
                rec: Recorder::with_ticks(),
                names: (0..self.config.n_edges)
                    .map(|j| format!("node{j}_busy_s"))
                    .collect(),
            },
        }
    }
}

/// Splits `total` into `parts` near-even counts, the first `total % parts`
/// one larger — the same convention as `semcom-par`'s range partition, so
/// shard layouts and worker layouts agree.
pub(crate) fn split_even(total: usize, parts: usize) -> Vec<usize> {
    let base = total / parts;
    let extra = total % parts;
    (0..parts).map(|p| base + usize::from(p < extra)).collect()
}

/// Results of a sharded fleet replay.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScaleReport {
    /// Per-shard reports, indexed by shard.
    pub shards: Vec<FleetReport>,
    /// Per-shard execution statistics (only `wall_ns` is
    /// scheduling-dependent).
    pub stats: Vec<ShardStats>,
    /// Fleet-wide merge of `shards` (see [`merge_reports`]).
    pub merged: FleetReport,
}

/// Merges per-shard reports into one fleet-wide report, **in slice
/// order** — merging is a pure fold over the input sequence, so two runs
/// that produce the same per-shard reports merge bit-identically no
/// matter how many workers computed them.
///
/// `count`, `max`, `fetch_time_total`, and `duration` (max) are exact;
/// `utilization` concatenates in shard order (shards own disjoint edge
/// ranges); `mean`, percentiles, and `hit_rate` are request-count-weighted
/// means of the per-shard values — an approximation of the pooled order
/// statistics, traded for constant-memory shards.
pub fn merge_reports(reports: &[FleetReport]) -> FleetReport {
    let total: usize = reports.iter().map(|r| r.latency.count).sum();
    let tw = total.max(1) as f64;
    let mut latency = LatencySummary {
        count: total,
        ..LatencySummary::default()
    };
    let mut hit_rate = 0.0;
    let mut utilization = Vec::new();
    let mut fetch_time_total = 0.0;
    let mut served_batched = 0.0;
    let mut batches = 0.0;
    let mut offloaded = 0u64;
    let mut duration = 0.0f64;
    for r in reports {
        let w = r.latency.count as f64 / tw;
        latency.mean += w * r.latency.mean;
        latency.p50 += w * r.latency.p50;
        latency.p95 += w * r.latency.p95;
        latency.p99 += w * r.latency.p99;
        latency.max = latency.max.max(r.latency.max);
        hit_rate += w * r.hit_rate;
        utilization.extend_from_slice(&r.utilization);
        fetch_time_total += r.fetch_time_total;
        if r.mean_batch > 0.0 {
            // Recover the shard's round count from served / mean width.
            served_batched += r.latency.count as f64;
            batches += r.latency.count as f64 / r.mean_batch;
        }
        offloaded += r.offloaded;
        duration = duration.max(r.duration);
    }
    FleetReport {
        latency,
        hit_rate,
        utilization,
        fetch_time_total,
        mean_batch: if batches == 0.0 {
            0.0
        } else {
            served_batched / batches
        },
        offloaded,
        duration,
    }
}

/// The sharded two-level fleet simulator. See the module docs.
#[derive(Debug, Clone)]
pub struct ShardedFleetSim {
    config: ShardedFleetConfig,
    topology: Topology,
}

impl ShardedFleetSim {
    /// Creates a sharded simulator, validating the configuration.
    pub fn try_new(config: ShardedFleetConfig, topology: Topology) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(ShardedFleetSim { config, topology })
    }

    /// Creates a sharded simulator.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (see
    /// [`ShardedFleetConfig::validate`]); use [`ShardedFleetSim::try_new`]
    /// for a typed error.
    pub fn new(config: ShardedFleetConfig, topology: Topology) -> Self {
        Self::try_new(config, topology).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The upper orchestration tier: partitions the fleet into per-shard
    /// work orders for `seed`.
    ///
    /// Edges, requests, domains, and users split near-evenly (first
    /// shards take the remainder); the aggregate arrival rate splits
    /// exactly evenly so every shard sees the same process intensity per
    /// request. Seeds derive per shard, so two shards never share an RNG
    /// stream and a shard's replay is independent of how many siblings
    /// exist.
    pub fn plan(&self, seed: u64) -> Vec<ShardPlan> {
        let fleet = &self.config.fleet;
        let n = self.config.n_shards;
        let edges = split_even(fleet.n_edges, n);
        let requests = split_even(fleet.n_requests, n);
        let domains = split_even(fleet.n_domains, n);
        let users = split_even(fleet.n_users, n);
        let assignment = match self.config.placement {
            SessionPlacement::Assigned(a) => a,
            _ => fleet.assignment,
        };
        let mut plans = Vec::with_capacity(n);
        let mut edge_offset = 0;
        for s in 0..n {
            let config = FleetConfig {
                n_edges: edges[s],
                n_requests: requests[s],
                arrival_rate_hz: fleet.arrival_rate_hz / n as f64,
                n_domains: domains[s],
                n_users: users[s],
                assignment,
                ..fleet.clone()
            };
            let weights = self
                .config
                .node_weights
                .as_ref()
                .map(|w| w[edge_offset..edge_offset + edges[s]].to_vec());
            plans.push(ShardPlan {
                shard: s,
                seed: derive_seed(seed, s as u64),
                config,
                edge_offset,
                weights,
            });
            edge_offset += edges[s];
        }
        plans
    }

    /// Replays all shards — fanned out over `semcom-par` workers — and
    /// merges their reports in shard order. Byte-identical at any
    /// `SEMCOM_THREADS`: each shard is a pure function of its plan, and
    /// both the fan-out ([`par_map_indexed`]) and the merge preserve
    /// shard-index order.
    pub fn run(&self, seed: u64) -> FleetScaleReport {
        self.run_observed(seed, &Recorder::disabled())
    }

    /// Bit to isolate a shard's local request sequence inside a merged
    /// trace id: sequences are always `< 2^48`, so offsetting shard `s`
    /// by `(s + 1) << 48` keeps every shard's traces globally disjoint
    /// while staying readable (high bits = shard + 1, low bits = local
    /// request sequence).
    pub const TRACE_SHARD_SHIFT: u32 = 48;

    /// Like [`ShardedFleetSim::run`], but publishing per-shard telemetry
    /// through `rec`: `shard{s}_events_total` counters,
    /// `shard{s}_queue_depth` and `shard{s}_node{j}_busy_frac` gauges
    /// (global node index), fleet-wide totals, and — prefixed `sched_` so
    /// the deterministic snapshot export drops them, like the stage
    /// queue-depth gauges before them — per-shard wall times.
    ///
    /// When `rec` carries a trace buffer, each shard also records
    /// `request`/`edge`/`backhaul`/`cloud` spans into a shard-private
    /// buffer, and the buffers merge into `rec`'s in **fixed shard-index
    /// order**, remapping only the trace id by `(shard + 1) << 48` (span
    /// ids stay content-derived from the local sequence, so parent links
    /// survive the merge untouched) — byte-identical at any
    /// `SEMCOM_THREADS` for the same reason the reports are.
    pub fn run_observed(&self, seed: u64, rec: &Recorder) -> FleetScaleReport {
        let plans = self.plan(seed);
        let traced = rec.tracing_enabled();
        let runs = par_map_indexed(&plans, |_, plan| {
            let shard_rec = if traced {
                Recorder::with_ticks_and_trace()
            } else {
                Recorder::disabled()
            };
            let opts = RunOptions {
                hist: true,
                recorder: shard_rec.clone(),
                ..RunOptions::default()
            };
            let picker = plan.picker(self.config.placement);
            let run = replay(&plan.config, &self.topology, plan.seed, picker, opts)
                .expect("no series interval to reject");
            let spans = shard_rec.trace_buffer().map(|b| b.spans());
            (run.report, run.stats, spans.unwrap_or_default())
        });
        let (mut shards, mut stats) = (Vec::new(), Vec::new());
        for (s, (report, stat, spans)) in runs.into_iter().enumerate() {
            let offset = (s as u64 + 1) << Self::TRACE_SHARD_SHIFT;
            for mut span in spans {
                debug_assert!(span.trace < (1 << Self::TRACE_SHARD_SHIFT));
                span.trace |= offset;
                rec.trace_span(span);
            }
            shards.push(report);
            stats.push(stat);
        }
        let out = FleetScaleReport {
            merged: merge_reports(&shards),
            shards,
            stats,
        };
        if rec.is_enabled() {
            Self::publish_shard_telemetry(&plans, &out, rec);
        }
        out
    }

    fn publish_shard_telemetry(plans: &[ShardPlan], out: &FleetScaleReport, rec: &Recorder) {
        let mut requests_total = 0u64;
        let mut hits_total = 0u64;
        for (s, (report, stats)) in out.shards.iter().zip(&out.stats).enumerate() {
            rec.set_counter(&format!("shard{s}_events_total"), stats.events_total);
            rec.set_gauge(
                &format!("shard{s}_queue_depth"),
                stats.queue_depth_peak as f64,
            );
            for (j, u) in report.utilization.iter().enumerate() {
                let node = plans[s].edge_offset + j;
                rec.set_gauge(&format!("shard{s}_node{node}_busy_frac"), *u);
            }
            rec.set_gauge(&format!("sched_shard{s}_wall_ns"), stats.wall_ns as f64);
            requests_total += report.latency.count as u64;
            hits_total += stats.hits;
        }
        rec.set_counter("fleet_shards", out.shards.len() as u64);
        rec.set_counter("fleet_requests_total", requests_total);
        rec.set_counter("fleet_hits_total", hits_total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::MessageCost;

    fn cfg(n_shards: usize, placement: SessionPlacement) -> ShardedFleetConfig {
        ShardedFleetConfig {
            fleet: FleetConfig {
                n_edges: 6,
                n_requests: 2_000,
                n_domains: 4,
                n_users: 60,
                ..FleetConfig::default()
            },
            n_shards,
            placement,
            node_weights: None,
        }
    }

    #[test]
    fn plan_partitions_everything_exactly_once() {
        let sim = ShardedFleetSim::new(
            cfg(4, SessionPlacement::Assigned(Assignment::Sticky)),
            Topology::default(),
        );
        let plans = sim.plan(42);
        assert_eq!(plans.len(), 4);
        let sum = |f: &dyn Fn(&ShardPlan) -> usize| plans.iter().map(f).sum::<usize>();
        assert_eq!(sum(&|p| p.config.n_edges), 6);
        assert_eq!(sum(&|p| p.config.n_requests), 2_000);
        assert_eq!(sum(&|p| p.config.n_domains), 4);
        assert_eq!(sum(&|p| p.config.n_users), 60);
        // Contiguous disjoint edge ranges in shard order.
        let mut offset = 0;
        for p in &plans {
            assert_eq!(p.edge_offset, offset);
            offset += p.config.n_edges;
        }
        // Derived seeds are distinct per shard.
        let mut seeds: Vec<u64> = plans.iter().map(|p| p.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), 4);
        // Rate splits evenly.
        for p in &plans {
            assert!((p.config.arrival_rate_hz - 60.0 / 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sharded_run_matches_serial_fleet_sims_over_its_plans() {
        let sim = ShardedFleetSim::new(
            cfg(3, SessionPlacement::Assigned(Assignment::Sticky)),
            Topology::default(),
        );
        let sharded = sim.run(7);
        let serial: Vec<FleetReport> = sim
            .plan(7)
            .into_iter()
            .map(|p| crate::FleetSim::new(p.config, Topology::default()).run_hist(p.seed))
            .collect();
        assert_eq!(sharded.shards, serial);
        assert_eq!(sharded.merged, merge_reports(&serial));
    }

    #[test]
    fn sharded_run_is_deterministic() {
        let sim = ShardedFleetSim::new(cfg(3, SessionPlacement::LoadAware), Topology::default());
        let a = sim.run(5);
        let b = sim.run(5);
        assert_eq!(a.shards, b.shards);
        assert_eq!(a.merged, b.merged);
    }

    #[test]
    fn random_weighted_respects_node_weights() {
        // Within each 2-node shard, node 0 carries 9x the weight of node 1:
        // its busy fraction must dominate.
        let mut c = cfg(3, SessionPlacement::RandomWeighted);
        c.node_weights = Some(vec![9.0, 1.0, 9.0, 1.0, 9.0, 1.0]);
        let r = ShardedFleetSim::new(c, Topology::default()).run(11);
        for shard in &r.shards {
            assert!(
                shard.utilization[0] > 2.0 * shard.utilization[1],
                "weights ignored: {:?}",
                shard.utilization
            );
        }
    }

    #[test]
    fn load_aware_spreads_load_across_nodes() {
        // Sticky with a hot Zipf head piles onto few nodes; load-aware
        // placement must keep every node of every shard busy.
        let mk = |placement| {
            ShardedFleetSim::new(
                ShardedFleetConfig {
                    fleet: FleetConfig {
                        n_edges: 6,
                        n_requests: 2_000,
                        arrival_rate_hz: 300.0,
                        message: MessageCost {
                            encode_ops: 1e8,
                            decode_ops: 1e8,
                            ..MessageCost::default()
                        },
                        ..FleetConfig::default()
                    },
                    n_shards: 3,
                    placement,
                    node_weights: None,
                },
                Topology::default(),
            )
            .run(3)
        };
        let aware = mk(SessionPlacement::LoadAware);
        let min_util = aware
            .merged
            .utilization
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(min_util > 0.01, "idle node: {:?}", aware.merged.utilization);
    }

    #[test]
    fn merge_is_a_pure_fold_in_shard_order() {
        let sim = ShardedFleetSim::new(
            cfg(3, SessionPlacement::Assigned(Assignment::RoundRobin)),
            Topology::default(),
        );
        let r = sim.run(9);
        assert_eq!(r.merged, merge_reports(&r.shards));
        assert_eq!(
            r.merged.utilization.len(),
            6,
            "utilization must cover every node"
        );
        assert_eq!(
            r.merged.latency.count,
            r.shards.iter().map(|s| s.latency.count).sum::<usize>()
        );
        // Merging a permuted slice is a *different* (still deterministic)
        // fold — shard order is part of the contract.
        let mut rev = r.shards.clone();
        rev.reverse();
        assert_eq!(merge_reports(&rev).latency.count, r.merged.latency.count);
    }

    #[test]
    fn orchestrator_validation_catches_bad_tiers() {
        let base = cfg(3, SessionPlacement::Assigned(Assignment::Sticky));
        let check = |mutate: &dyn Fn(&mut ShardedFleetConfig), want: ConfigError| {
            let mut c = base.clone();
            mutate(&mut c);
            let got =
                ShardedFleetSim::try_new(c, Topology::default()).expect_err("should be rejected");
            assert_eq!(got.to_string(), want.to_string());
        };
        check(&|c| c.n_shards = 0, ConfigError::ZeroShards);
        check(
            &|c| c.n_shards = 7,
            ConfigError::MoreShardsThanEdges {
                shards: 7,
                edges: 6,
            },
        );
        check(
            &|c| {
                c.fleet.n_domains = 0;
                c.fleet.n_users = 2;
            },
            ConfigError::EmptyShardUniverse { shard: 2 },
        );
        check(
            &|c| c.node_weights = Some(vec![1.0; 5]),
            ConfigError::BadNodeWeights {
                expected: 6,
                got: 5,
            },
        );
        check(
            &|c| c.node_weights = Some(vec![1.0, 1.0, f64::NAN, 1.0, -2.0, 1.0]),
            ConfigError::BadNodeWeights {
                expected: 6,
                got: 4,
            },
        );
        // Fleet-level errors surface through the same path.
        check(&|c| c.fleet.max_batch = 0, ConfigError::ZeroBatch);
    }

    /// The adaptive/offload knobs added for F14 are validated before the
    /// orchestrator ever plans a shard: a non-stochastic Markov row, an
    /// empty SNR→config table, or a zero-bandwidth backhaul come back as
    /// typed [`ConfigError`]s instead of deep event-loop panics.
    #[test]
    fn orchestrator_validation_covers_adaptive_and_offload_knobs() {
        use crate::fleet::{FleetAdapt, OffloadConfig};
        let base = cfg(2, SessionPlacement::Assigned(Assignment::Sticky));
        let check = |mutate: &dyn Fn(&mut ShardedFleetConfig), needle: &str| {
            let mut c = base.clone();
            mutate(&mut c);
            let got =
                ShardedFleetSim::try_new(c, Topology::default()).expect_err("should be rejected");
            assert!(got.to_string().contains(needle), "{got} missing {needle:?}");
        };
        check(
            &|c| {
                let mut a = FleetAdapt::degenerate();
                a.spec.markov.transition[2] = [0.3, 0.3, 0.3];
                c.fleet.adapt = Some(a);
            },
            "sum to 1",
        );
        check(
            &|c| {
                let mut a = FleetAdapt::degenerate();
                a.spec.entries.clear();
                c.fleet.adapt = Some(a);
            },
            "table must not be empty",
        );
        check(
            &|c| {
                c.fleet.offload = Some(OffloadConfig {
                    backhaul_bytes_per_sec: 0.0,
                    ..OffloadConfig::default()
                });
            },
            "backhaul bandwidth",
        );
        // A valid adaptive + offload sharded config plans cleanly, and the
        // per-shard plans inherit both knobs.
        let mut ok = base.clone();
        ok.fleet.adapt = Some(FleetAdapt::degenerate());
        ok.fleet.offload = Some(OffloadConfig::default());
        let sim = ShardedFleetSim::try_new(ok, Topology::default()).expect("valid");
        for plan in sim.plan(3) {
            assert!(plan.config.adapt.is_some());
            assert!(plan.config.offload.is_some());
        }
    }

    #[test]
    fn run_observed_publishes_shard_telemetry() {
        let rec = Recorder::with_ticks();
        let sim = ShardedFleetSim::new(
            cfg(3, SessionPlacement::Assigned(Assignment::Sticky)),
            Topology::default(),
        );
        let r = sim.run_observed(7, &rec);
        assert_eq!(rec.counter("fleet_shards"), Some(3));
        assert_eq!(
            rec.counter("fleet_requests_total"),
            Some(r.merged.latency.count as u64)
        );
        assert!(rec.counter("shard0_events_total").unwrap() > 0);
        assert!(rec.gauge("shard1_queue_depth").is_some());
        assert!(rec.gauge("sched_shard2_wall_ns").unwrap() > 0.0);
        // Node gauges use global node indices: shard 1 owns nodes 2..4.
        assert!(rec.gauge("shard1_node2_busy_frac").is_some());
        assert!(rec.gauge("shard1_node0_busy_frac").is_none());
        // Telemetry does not perturb the replay, and an untraced recorder
        // collects no spans.
        assert_eq!(r.merged, sim.run(7).merged);
        assert!(rec.trace_buffer().is_none());
    }

    #[test]
    fn run_observed_merges_disjoint_shard_traces_in_order() {
        let rec = Recorder::with_ticks_and_trace();
        let sim = ShardedFleetSim::new(
            cfg(3, SessionPlacement::Assigned(Assignment::Sticky)),
            Topology::default(),
        );
        let r = sim.run_observed(7, &rec);
        // Tracing never perturbs the replay.
        assert_eq!(r.merged, sim.run(7).merged);
        let buf = rec.trace_buffer().unwrap();
        assert_eq!(buf.dropped(), 0);
        let roots = buf.roots_per_trace();
        assert_eq!(roots.len(), 2_000, "one trace per request");
        assert!(roots.values().all(|&n| n == 1), "one root per trace");
        // Trace ids carry shard + 1 in the high bits; every shard present.
        let shards: std::collections::BTreeSet<u64> = roots
            .keys()
            .map(|t| (t >> ShardedFleetSim::TRACE_SHARD_SHIFT) - 1)
            .collect();
        assert_eq!(shards.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        // Fixed merge order: a re-run exports byte-identically.
        let rec2 = Recorder::with_ticks_and_trace();
        sim.run_observed(7, &rec2);
        assert_eq!(
            buf.to_perfetto_json(),
            rec2.trace_buffer().unwrap().to_perfetto_json()
        );
    }

    #[test]
    fn split_even_front_loads_the_remainder() {
        assert_eq!(split_even(10, 3), vec![4, 3, 3]);
        assert_eq!(split_even(2, 2), vec![1, 1]);
        assert_eq!(split_even(1, 2), vec![1, 0]);
    }
}
