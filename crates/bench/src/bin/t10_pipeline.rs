//! T10 — staged serving pipeline: `send_stream` equivalence + fleet-driven
//! serving rounds.
//!
//! Two sections, both golden-checked (`tests/goldens/t10_pipeline.stdout`)
//! and required by `scripts/ci.sh` to be **byte-identical at
//! `SEMCOM_THREADS=1/2/4`** — the PR 7 determinism contract: the staged
//! pipeline (bounded SPSC queues, cross-user encode batching, sequence
//! tickets, training barriers) must not change a single bit of output at
//! any worker count.
//!
//! * **A — stream vs sequential**: a mixed 6-user trace (all four domains,
//!   idiolect strengths 0.2–0.9, training triggers mid-stream) is served
//!   once through per-message [`SemanticEdgeSystem::send_message`] and once
//!   through the staged [`SemanticEdgeSystem::send_stream`] on a twin
//!   system; the harness asserts outcome-by-outcome equality and prints
//!   the shared metrics. Run once in fp32 and once with int8 quantized
//!   serving enabled.
//! * **B — fleet-driven rounds**: [`FleetSim::run_with`] routes the
//!   batched discrete-event dispatch loop of F12 through a
//!   [`BatchServer`] backend ([`RunOptions::server`]) that maps each model id to a registered user
//!   and serves every dispatched round with one `send_stream` call — the
//!   paper's edge serving loop (Fig. 1) driven end to end by the DES.
//!
//! Stdout ends with `Snapshot::to_json_deterministic()` of the section-B
//! backend recorder: per-stage histogram *counts* (one entry per message:
//! ingress/encode/PHY/decode/commit), the `system_*` counters, and the
//! journal without timestamps. Scheduling-dependent `sched_*` metrics
//! (queue peaks, observed batch widths, worker counts) are excluded from
//! the deterministic export by design — they are *expected* to vary with
//! `SEMCOM_THREADS` and go to stderr with the full snapshot instead.

use semcom::{MessageOutcome, SemanticEdgeSystem, SystemConfig, UserId};
use semcom_bench::banner;
use semcom_edge::placement::MessageCost;
use semcom_edge::{BatchServer, FleetConfig, FleetSim, RunOptions, Topology};
use semcom_obs::Recorder;
use semcom_text::Domain;
use std::collections::HashMap;

/// Section A: the mixed trace served twice; returns (sequential, streamed)
/// systems' shared summary line after asserting bit-identity.
fn stream_section(quantized: bool) {
    let tag = if quantized { "int8" } else { "fp32" };
    let mut config = SystemConfig::tiny();
    config.n_edges = 3;
    config.buffer_threshold = 24; // trains mid-trace: barriers exercised
    let build = |seed: u64| -> (SemanticEdgeSystem, Vec<UserId>) {
        let mut system = SemanticEdgeSystem::build(config.clone(), seed);
        if quantized {
            system.enable_quantized_serving();
        }
        let users = (0..6)
            .map(|i| {
                system.register_user_at(
                    Domain::ALL[i % Domain::ALL.len()],
                    0.2 + 0.7 * (i as f64 / 5.0),
                    i % 3,
                    (i + 1) % 3,
                )
            })
            .collect();
        (system, users)
    };

    let (mut sequential, users) = build(71);
    // Mixed trace: skewed toward users 0/1 so their buffers fill first and
    // training barriers land between other users' in-flight messages.
    let trace: Vec<UserId> = (0..180).map(|i| users[(i * 5 + i / 7) % 6]).collect();
    let expected: Vec<MessageOutcome> = trace.iter().map(|&u| sequential.send_message(u)).collect();

    let (mut streamed, _) = build(71);
    let got = streamed.send_stream(&trace);
    assert_eq!(
        got, expected,
        "{tag}: send_stream diverged from send_message"
    );
    assert_eq!(
        streamed.metrics(),
        sequential.metrics(),
        "{tag}: metrics diverged"
    );

    let m = streamed.metrics();
    println!(
        "{tag},{},{:.4},{},{},{}",
        m.messages,
        m.token_accuracy(),
        m.trainings,
        m.user_model_messages,
        m.payload_symbols
    );
}

/// Section B backend: maps fleet model ids to registered users (first-seen
/// order, which is DES-deterministic) and serves each dispatched round
/// with one `send_stream` call.
struct PipelineBackend {
    system: SemanticEdgeSystem,
    users: HashMap<u64, UserId>,
    rounds: u64,
    messages: u64,
    widest: usize,
}

impl PipelineBackend {
    fn new(seed: u64) -> Self {
        let mut config = SystemConfig::tiny();
        config.n_edges = 3;
        let mut system = SemanticEdgeSystem::build(config, seed);
        system.attach_recorder(Recorder::with_ticks());
        PipelineBackend {
            system,
            users: HashMap::new(),
            rounds: 0,
            messages: 0,
            widest: 0,
        }
    }
}

impl BatchServer for PipelineBackend {
    fn serve_round(&mut self, _edge: usize, model_ids: &[u64]) {
        let batch: Vec<UserId> = model_ids
            .iter()
            .map(|&id| {
                *self.users.entry(id).or_insert_with(|| {
                    // Placement derived from the id so the mapping is pure.
                    self.system.register_user_at(
                        Domain::ALL[(id % 4) as usize],
                        0.25 + 0.5 * ((id % 3) as f64 / 2.0),
                        (id % 3) as usize,
                        ((id + 1) % 3) as usize,
                    )
                })
            })
            .collect();
        self.system.send_stream(&batch);
        self.rounds += 1;
        self.messages += batch.len() as u64;
        self.widest = self.widest.max(batch.len());
    }
}

fn main() {
    banner(
        "T10",
        "staged serving pipeline: stream equivalence + fleet-driven rounds",
        "serving many users per edge (Sec. I's 6G/Metaverse scale) needs \
         stage-overlapped encode/PHY/decode with cross-user batching — and \
         the overlap must not change what any user receives",
    );

    println!("\n-- A: 180-message mixed trace, send_stream vs send_message --");
    println!("serving,messages,token_accuracy,trainings,user_model_msgs,payload_symbols");
    stream_section(false);
    stream_section(true);
    println!("(both rows asserted bit-identical to the sequential reference)");

    println!("\n-- B: fleet DES dispatch loop driving send_stream per round --");
    let fleet = FleetSim::new(
        FleetConfig {
            n_edges: 2,
            n_requests: 400,
            arrival_rate_hz: 300.0,
            n_users: 10,
            n_domains: 4,
            max_batch: 6,
            // Heavy per-round dispatch overhead + everything cached: the
            // queues run deep enough that rounds actually coalesce.
            capacity_bytes: 40_000_000,
            message: MessageCost {
                encode_ops: 1e8,
                decode_ops: 1e8,
                dispatch_ops: 4e8,
                ..MessageCost::default()
            },
            ..FleetConfig::default()
        },
        Topology::default(),
    );
    let mut backend = PipelineBackend::new(402);
    let opts = RunOptions {
        server: Some(&mut backend),
        ..RunOptions::default()
    };
    let report = fleet.run_with(13, opts).expect("no series").report;
    let m = backend.system.metrics();
    println!("metric,value");
    println!("des_requests,400");
    println!("service_rounds,{}", backend.rounds);
    println!("widest_round,{}", backend.widest);
    println!("served_messages,{}", m.messages);
    println!("distinct_users,{}", backend.users.len());
    println!("token_accuracy,{:.4}", m.token_accuracy());
    println!("trainings,{}", m.trainings);
    println!("des_hit_rate,{:.4}", report.hit_rate);
    println!("des_mean_batch,{:.4}", report.mean_batch);
    assert_eq!(
        m.messages, backend.messages,
        "backend served every dispatched request"
    );

    // Deterministic export (golden-checked): stage histogram counts,
    // counters, journal without timestamps. `sched_*` metrics
    // are excluded here and reported on stderr with the full snapshot.
    let snapshot = backend.system.observability_snapshot();
    println!("\n=== deterministic snapshot ===");
    println!("{}", snapshot.to_json_deterministic());

    eprintln!("=== full snapshot (JSON, stderr) ===");
    eprintln!("{}", snapshot.to_json());

    println!("\nexpected shape: section A's two rows are identical between the staged");
    println!("pipeline and the per-message path — same accuracy, same trainings, same");
    println!("payload symbols. Section B's system_messages counter equals the 400 DES");
    println!("requests, and the ingress/semantic_encode/channel/semantic_decode/commit");
    println!("histogram counts are 400 each, at every SEMCOM_THREADS.");
}
