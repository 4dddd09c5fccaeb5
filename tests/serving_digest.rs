//! Pins message serving by value.
//!
//! A 336-message mixed trace on `SystemConfig::tiny()` — seven users over
//! three edges, senders repeated back to back, 60 training rounds, a
//! user-model cache that holds two models per edge (so trained models
//! evict each other) and a restart of edge 1 two thirds in — is folded into one FNV-1a digest:
//! every `MessageOutcome` field of every message, then the final
//! `SystemMetrics`. The four constants (fixed channel / `AdaptSpec::standard`
//! × fp32 / int8 serving) were recorded through the sequential
//! `send_message` walk that existed before serving was collapsed onto the
//! window engine; that walk is gone, and these digests are what says the
//! one remaining path still behaves like it — one message at a time and in
//! uneven `send_stream` chunks, at 1, 2 and 4 workers (`scripts/ci.sh` also
//! runs this file at `SEMCOM_THREADS` = 1 and 4).

use semcom::{MessageOutcome, SemanticEdgeSystem, SystemConfig, SystemMetrics, UserId};
use semcom_channel::adapt::AdaptSpec;
use semcom_text::Domain;

/// `(adaptive link, int8 serving, digest)`. Re-recorded once, when the
/// fp32 text KB's `size_bytes` began counting its frozen power norm (one
/// size rule for every KB): the user-model cache then evicts differently.
/// The parent commit with only that rule patched in gives the same four
/// values.
const EXPECTED: [(bool, bool, u64); 4] = [
    (false, false, 0x1aa9_9329_3e63_8421),
    (false, true, 0x4953_c5b7_957d_d481),
    (true, false, 0x4b0b_38d5_3fa9_9bfd),
    (true, true, 0xae1b_1a0d_e15b_4aee),
];

const MESSAGES: usize = 336;
const RESTART_AT: usize = 224;
/// `send_stream` call sizes, cycled; a call never crosses the restart.
const CHUNKS: [usize; 7] = [1, 9, 2, 17, 5, 1, 30];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn outcome(&mut self, o: &MessageOutcome) {
        self.u64(o.user);
        self.u64(o.true_domain.index() as u64);
        self.u64(o.selected_domain.index() as u64);
        for list in [&o.sent, &o.decoded] {
            self.u64(list.len() as u64);
            for c in list {
                self.u64(c.index() as u64);
            }
        }
        self.u64(o.used_user_model as u64);
        self.u64(o.trained as u64);
        self.u64(o.sync_bytes as u64);
        self.u64(o.symbols as u64);
    }

    fn metrics(&mut self, m: &SystemMetrics) {
        let c = &m.user_cache;
        for v in [
            m.messages,
            m.tokens,
            m.correct_tokens,
            m.selection_correct,
            m.payload_symbols,
            m.sync_bytes,
            m.sync_rejected,
            m.sync_rej_decode,
            m.sync_rej_gap,
            m.sync_rej_digest,
            m.sync_rej_other,
            m.sync_resyncs,
            m.trainings,
            m.user_model_messages,
            c.hits,
            c.misses,
            c.evictions,
            c.insertions,
            c.bytes_evicted,
            c.rejected,
        ] {
            self.u64(v);
        }
    }
}

fn build(adaptive: bool, int8: bool) -> (SemanticEdgeSystem, Vec<UserId>) {
    let mut config = SystemConfig::tiny();
    config.n_edges = 3;
    config.user_cache_bytes = 20_000;
    if adaptive {
        config.adapt = Some(AdaptSpec::standard(config.codec.feature_dim));
    }
    let mut system = SemanticEdgeSystem::build(config, 2024);
    if int8 {
        system.enable_quantized_serving();
    }
    let users = (0..7)
        .map(|i| {
            let domain = Domain::ALL[i % Domain::ALL.len()];
            system.register_user_at(domain, 0.4 + 0.3 * i as f64, i % 3, (i + 1) % 3)
        })
        .collect();
    (system, users)
}

/// The user of every message: a seeded walk that favours low indices and
/// repeats the previous sender about one time in five.
fn trace(users: &[UserId]) -> Vec<UserId> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut order: Vec<UserId> = Vec::with_capacity(MESSAGES);
    for _ in 0..MESSAGES {
        let user = match order.last() {
            Some(&last) if next() % 5 == 0 => last,
            _ => users[(next() % users.len()).min(next() % users.len())],
        };
        order.push(user);
    }
    order
}

/// Serves the trace in `send_stream` calls of the given sizes (cycled),
/// or one `send_message` at a time when `chunks` is `None`.
fn serve(adaptive: bool, int8: bool, chunks: Option<&[usize]>) -> u64 {
    let (mut system, users) = build(adaptive, int8);
    let order = trace(&users);
    let mut digest = Fnv::new();
    let mut sizes = chunks.unwrap_or(&[1]).iter().cycle();
    let mut at = 0;
    while at < order.len() {
        if at == RESTART_AT {
            system.restart_edge(1);
        }
        let limit = if at < RESTART_AT {
            RESTART_AT
        } else {
            order.len()
        };
        let end = (at + sizes.next().expect("cycled")).min(limit);
        if chunks.is_some() {
            for o in system.send_stream(&order[at..end]) {
                digest.outcome(&o);
            }
        } else {
            for &user in &order[at..end] {
                digest.outcome(&system.send_message(user));
            }
        }
        at = end;
    }
    let m = system.metrics();
    assert_eq!(m.messages as usize, MESSAGES);
    assert!(m.trainings >= 20, "training rounds fire: {m:?}");
    assert!(m.user_cache.evictions > 0, "the cache evicts: {m:?}");
    assert!(m.user_model_messages > 0, "user models serve: {m:?}");
    digest.metrics(&m);
    digest.0
}

#[test]
fn serving_is_bit_identical_to_the_recorded_digests() {
    for (adaptive, int8, expected) in EXPECTED {
        for workers in [None, Some(1usize), Some(2), Some(4)] {
            if let Some(w) = workers {
                semcom_par::set_workers(w);
            }
            let message = serve(adaptive, int8, None);
            let stream = serve(adaptive, int8, Some(&CHUNKS));
            semcom_par::reset_workers();
            assert_eq!(
                message, expected,
                "send_message moved (adaptive={adaptive} int8={int8} workers={workers:?}): {message:#018x}"
            );
            assert_eq!(
                stream, expected,
                "send_stream moved (adaptive={adaptive} int8={int8} workers={workers:?}): {stream:#018x}"
            );
        }
    }
}
