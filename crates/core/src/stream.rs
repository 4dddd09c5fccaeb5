//! Window-parallel message serving: [`SemanticEdgeSystem::send_stream`].
//!
//! The sequential [`SemanticEdgeSystem::send_message`] walks one message at
//! a time through *compose → select → encode → channel → decode → commit*.
//! Semantic decode is ≈85 % of that walk, so overlapping *stages* gains
//! nothing; this module instead serves a **window** of mutually independent
//! messages at once and splits the window's messages across workers:
//!
//! ```text
//! caller thread            semcom_par::par_chunks workers            caller thread
//! ┌──────────────────┐     ┌───────────────────────────────────┐     ┌────────────────┐
//! │ Ingress a window ├──┬─►│ chunk 0: encode → PHY → decode    ├──┬─►│ Commit window  │
//! │ (≤ 1 ticket per  │  ├─►│ chunk 1: encode → PHY → decode    ├──┤  │ in ticket order│
//! │  user, ≤ cap)    │  └─►│ …        (contiguous slices)      ├──┘  └────────────────┘
//! └──────────────────┘     └───────────────────────────────────┘
//! ```
//!
//! * **Ingress** (caller thread, needs `&mut self`): composes the sentence,
//!   runs §III-A selection and the home-edge cache lookup, captures frozen
//!   `Arc` handles to the serving encoder/decoder, and pre-assigns the
//!   message's channel RNG from the same `derive_seed` schedule the
//!   sequential path uses. Tickets are the positions in the caller's list.
//! * **Encode** packs the chunk's slots that share an encoder (`Arc`
//!   identity) into one forward pass; **decode** does the same per decoder.
//!   Every row flows through either network independently, so a packed
//!   pass is bit-identical to per-message calls at any grouping.
//! * **PHY** transmits each slot's features in place through one per-chunk
//!   [`FeatureScratch`] using the slot's own pre-assigned RNG.
//! * **Commit** (caller thread) applies cache/buffer/training/metrics/sync
//!   effects strictly in ticket order, emitting deferred journal events
//!   (e.g. `DomainMisselected`) at that point.
//!
//! # Determinism contract
//!
//! `send_stream` is **bit-identical to the equivalent sequence of
//! `send_message` calls at any `SEMCOM_THREADS`** (pinned by the
//! `pipeline_equivalence` property test). Every slot carries its own
//! channel RNG, seeded from its message index at ingress, so noise draws
//! never depend on which worker transmits it; and a window closes before
//! anything a later ingress reads could still be changed by an uncommitted
//! ticket:
//!
//! 1. **One ticket per user**: selector state, link state and buffer
//!    occupancy are read at ingress, so a user's next message starts the
//!    next window, after the previous ticket has committed.
//! 2. **Training closes the window**: ingress predicts from buffer
//!    occupancy whether a message will trigger training (`min(len +
//!    tokens, capacity) ≥ threshold`, the exact
//!    [`semcom_fl::DomainBuffer`] readiness rule). Such a ticket is the
//!    last of its window, so model mutation, cache eviction and twin
//!    invalidation never race a captured handle.
//! 3. **Size cap**: [`crate::SystemConfig::encode_batch_size`] `× max_workers()`
//!    tickets, one full encode batch per worker.
//!
//! There is one schedule. A window is fanned out only when there is more
//! than one worker, the caller is not itself a `semcom-par` worker, and the
//! window's decoder work reaches [`semcom_nn::PAR_WORK`] (a thread spawn
//! costs more than a small window); otherwise the same chunk function runs
//! once, on the caller thread, over the whole window. Spans, counters and
//! events are recorded identically either way.

use crate::metrics::MessageOutcome;
use crate::server::UserKey;
use crate::system::{
    adaptive_transmit_in_place, MsgTraceTimings, SemanticEdgeSystem, SlotLink, UserId,
};
use rand::rngs::StdRng;
use semcom_channel::{Channel, FeatureScratch};
use semcom_codec::{
    DecodeScratch, EncodeScratch, KnowledgeBase, QuantizedDecoder, QuantizedEncoder,
};
use semcom_nn::rng::{derive_seed, seeded_rng};
use semcom_nn::Tensor;
use semcom_obs::{Event, Recorder, Stage};
use semcom_text::{ConceptId, CorpusGenerator, Domain, Rendering, Sentence};
use std::sync::Arc;

/// Frozen serving-model handle captured at ingress: the f32 knowledge base
/// or its int8 twin `Q`. Workers read it without locking or cloning
/// weight tables.
#[derive(Clone)]
enum StreamModel<Q> {
    F32(Arc<KnowledgeBase>),
    Int8(Arc<Q>),
}

type StreamEncoder = StreamModel<QuantizedEncoder>;
type StreamDecoder = StreamModel<QuantizedDecoder>;

impl<Q> StreamModel<Q> {
    /// Identity of the shared model: two live handles are the same model
    /// exactly when they point at the same allocation.
    fn addr(&self) -> usize {
        match self {
            StreamModel::F32(kb) => Arc::as_ptr(kb) as usize,
            StreamModel::Int8(twin) => Arc::as_ptr(twin) as usize,
        }
    }
}

/// One in-flight message: everything ingress decided, the frozen model
/// handles, and the pre-assigned channel RNG. Mutated in place by the
/// worker that owns its chunk.
struct StreamSlot {
    msg_idx: u64,
    user: UserId,
    home: usize,
    peer: usize,
    true_domain: Domain,
    selected: Domain,
    key: UserKey,
    used_user_model: bool,
    misselected: bool,
    will_train: bool,
    sentence: Sentence,
    enc: Option<StreamEncoder>,
    dec: Option<StreamDecoder>,
    /// The adaptive link decision for this message (`None` when link
    /// adaptation is disabled).
    link: Option<SlotLink>,
    rng: StdRng,
    features: Option<Tensor>,
    decoded: Vec<ConceptId>,
    /// Ingress time, accumulated into this message's `Message` entry.
    ingress_ns: u64,
    /// Encode + channel + decode time accumulated across the stages.
    stage_ns: u64,
    /// Per-phase `(start, dur)` pairs for the causal trace; `None` unless
    /// the recorder has a trace buffer. Workers fill the timings in place;
    /// the commit emits the spans on the caller thread in ticket order.
    trace: Option<MsgTraceTimings>,
}

/// The chunk's slots that carry a model, grouped by that model's identity:
/// `(model, member indices)`, groups and members in first-seen order.
fn group_slots<Q: Clone>(
    chunk: &[StreamSlot],
    model: impl Fn(&StreamSlot) -> Option<&StreamModel<Q>>,
) -> Vec<(StreamModel<Q>, Vec<usize>)> {
    let mut groups: Vec<(StreamModel<Q>, Vec<usize>)> = Vec::new();
    for (i, slot) in chunk.iter().enumerate() {
        let Some(m) = model(slot) else { continue };
        match groups.iter_mut().find(|(g, _)| g.addr() == m.addr()) {
            Some((_, members)) => members.push(i),
            None => groups.push((m.clone(), vec![i])),
        }
    }
    groups
}

/// Books one NN stage's wall time since `t0` to the grouped slots in equal
/// shares (histogram entry, message total, trace span) and returns how many
/// slots that was.
fn share_stage_time<Q>(
    chunk: &mut [StreamSlot],
    groups: &[(StreamModel<Q>, Vec<usize>)],
    stage: Stage,
    t0: u64,
    obs: &Recorder,
    set_trace: impl Fn(&mut MsgTraceTimings, (u64, u64)),
) -> u64 {
    let n: u64 = groups.iter().map(|(_, g)| g.len() as u64).sum();
    if let Some(share) = obs.now_ns().saturating_sub(t0).checked_div(n) {
        for &i in groups.iter().flat_map(|(_, g)| g) {
            obs.record_ns(stage, share);
            chunk[i].stage_ns += share;
            if let Some(t) = chunk[i].trace.as_mut() {
                set_trace(t, (t0, share));
            }
        }
    }
    n
}

/// Encode stage: groups the chunk by serving encoder and packs each group
/// into one forward pass.
fn run_encode(chunk: &mut [StreamSlot], obs: &Recorder) {
    let t0 = obs.now_ns();
    let groups = group_slots(chunk, |s| s.enc.as_ref());
    let mut scratch = EncodeScratch::new();
    let mut packed: Vec<usize> = Vec::new();
    for (enc, g) in &groups {
        match enc {
            StreamModel::F32(kb) => {
                let lists: Vec<&[usize]> = g
                    .iter()
                    .map(|&i| chunk[i].sentence.tokens.as_slice())
                    .collect();
                let feats = kb.encoder.encode_batch(&lists);
                for (&i, f) in g.iter().zip(feats) {
                    chunk[i].features = Some(f);
                }
            }
            StreamModel::Int8(enc) => {
                packed.clear();
                for &i in g {
                    packed.extend_from_slice(&chunk[i].sentence.tokens);
                }
                let flat = enc.encode_batch_into(&packed, &mut scratch);
                let dim = enc.feature_dim();
                let mut row = 0;
                for &i in g {
                    let len = chunk[i].sentence.tokens.len();
                    let part = flat[row * dim..(row + len) * dim].to_vec();
                    chunk[i].features =
                        Some(Tensor::from_vec(len, dim, part).expect("split preserves shape"));
                    row += len;
                }
            }
        }
    }
    let n = share_stage_time(chunk, &groups, Stage::SemanticEncode, t0, obs, |t, span| {
        t.encode = span
    });
    if n > 0 {
        obs.add("pipeline_stage_encode", n);
        obs.add("sched_stream_encode_batches", 1);
    }
}

/// PHY stage: in-place feature transmission of every slot on its
/// pre-assigned RNG through the chunk's scratch (zero allocations once
/// warm).
fn run_phy(chunk: &mut [StreamSlot], channel: &dyn Channel, obs: &Recorder) {
    let mut scratch = FeatureScratch::new();
    let mut n = 0u64;
    for slot in chunk {
        let Some(f) = slot.features.as_mut() else {
            continue;
        };
        let t0 = obs.now_ns();
        match &slot.link {
            Some(link) => {
                let (rows, cols) = (f.rows(), f.cols());
                let data = f.as_mut_slice();
                adaptive_transmit_in_place(data, rows, cols, link, &mut scratch, &mut slot.rng);
            }
            None => channel.transmit_f32_in_place(f.as_mut_slice(), &mut scratch, &mut slot.rng),
        }
        let elapsed = obs.now_ns().saturating_sub(t0);
        obs.record_ns(Stage::Channel, elapsed);
        slot.stage_ns += elapsed;
        if let Some(t) = slot.trace.as_mut() {
            t.channel = (t0, elapsed);
        }
        n += 1;
    }
    if n > 0 {
        obs.add("pipeline_stage_phy", n);
    }
}

/// Decode stage: groups the chunk by the peer-edge decoder captured at
/// ingress and runs one packed `predict` per group.
fn run_decode(chunk: &mut [StreamSlot], obs: &Recorder) {
    let t0 = obs.now_ns();
    let groups = group_slots(chunk, |s| s.dec.as_ref());
    let mut scratch = DecodeScratch::new();
    let mut packed: Vec<f32> = Vec::new();
    let mut concepts: Vec<ConceptId> = Vec::new();
    for (dec, g) in &groups {
        packed.clear();
        for &i in g {
            let f = chunk[i].features.as_ref().expect("encoded before decode");
            packed.extend_from_slice(f.as_slice());
        }
        match dec {
            StreamModel::F32(kb) => {
                let dim = kb.decoder.feature_dim();
                let rows = packed.len() / dim;
                let received = Tensor::from_vec(rows, dim, std::mem::take(&mut packed))
                    .expect("whole feature rows were packed");
                concepts = kb.decoder.predict(&received);
                packed = received.into_vec();
            }
            StreamModel::Int8(qd) => {
                let rows = packed.len() / qd.feature_dim();
                qd.predict_into(&packed, rows, &mut scratch, &mut concepts);
            }
        }
        let mut row = 0;
        for &i in g {
            let len = chunk[i].sentence.tokens.len();
            chunk[i].decoded = concepts[row..row + len].to_vec();
            row += len;
        }
    }
    let n = share_stage_time(chunk, &groups, Stage::SemanticDecode, t0, obs, |t, span| {
        t.decode = span
    });
    if n > 0 {
        obs.add("pipeline_stage_decode", n);
        obs.add("sched_stream_decode_batches", 1);
    }
}

/// Everything between ingress and commit for one contiguous run of slots;
/// the unit of work a worker (or, inline, the caller) executes.
fn run_chunk(chunk: &mut [StreamSlot], channel: &dyn Channel, obs: &Recorder) {
    run_encode(chunk, obs);
    run_phy(chunk, channel, obs);
    run_decode(chunk, obs);
}

impl SemanticEdgeSystem {
    /// Sends one message for every listed user, serving them a
    /// **dependency-free window** at a time: ingress and ordered commit on
    /// the caller thread, encode → PHY → decode of whole messages on
    /// `semcom-par` workers, each taking a contiguous chunk of the window
    /// and packing the slots that share a model into one NN pass. Results
    /// are returned in input order and are **bit-identical to the
    /// equivalent sequence of [`Self::send_message`] calls at any
    /// `SEMCOM_THREADS`** — see the [module docs](crate::stream) for the
    /// window rules that guarantee it. Small windows, one worker, and calls
    /// from inside a worker run the same chunk function inline.
    ///
    /// # Panics
    ///
    /// Panics if any user is unknown.
    pub fn send_stream(&mut self, users: &[UserId]) -> Vec<MessageOutcome> {
        for user in users {
            assert!(self.users.contains_key(user), "user is registered");
        }
        if users.is_empty() {
            return Vec::new();
        }
        self.obs.add("pipeline_messages", users.len() as u64);
        let base = self.metrics.messages;
        let workers = if semcom_par::in_worker() {
            1
        } else {
            semcom_par::max_workers()
        };
        let cap = self.config.encode_batch_size.max(1) * workers;
        // Decoder flops per feature row (the `2·m·k·n` of its two matmuls).
        let codec = &self.config.codec;
        let row_flops = 2 * codec.hidden_dim * (codec.feature_dim + self.language.concept_count());

        let mut outcomes = Vec::with_capacity(users.len());
        let mut window: Vec<StreamSlot> = Vec::with_capacity(cap.min(users.len()));
        let (mut windows, mut window_peak, mut fanouts, mut chunks_peak) = (0u64, 0, 0u64, 1);
        let mut next = 0;
        while next < users.len() {
            // Ingress until a dependency would be crossed (see module docs).
            while next < users.len()
                && window.len() < cap
                && window.iter().all(|s| s.user != users[next])
            {
                let slot = self.stream_ingress(users[next], base + next as u64);
                next += 1;
                let closes = slot.will_train;
                window.push(slot);
                if closes {
                    break;
                }
            }
            windows += 1;
            window_peak = window_peak.max(window.len());

            let rows: usize = window.iter().map(|s| s.sentence.tokens.len()).sum();
            let fan_out = workers > 1 && rows.saturating_mul(row_flops) >= semcom_nn::PAR_WORK;
            let chunk_len = if fan_out {
                fanouts += 1;
                window.len().div_ceil(workers)
            } else {
                window.len()
            };
            chunks_peak = chunks_peak.max(window.len().div_ceil(chunk_len));
            let (channel, obs) = (self.channel.as_ref(), &self.obs);
            semcom_par::par_chunks(&mut window, chunk_len, |_, chunk| {
                run_chunk(chunk, channel, obs)
            });

            for slot in window.drain(..) {
                outcomes.push(self.stream_commit(slot));
            }
        }
        self.obs.add("sched_stream_windows", windows);
        self.obs.add("sched_stream_fanouts", fanouts);
        self.obs
            .set_gauge("sched_stream_window_peak", window_peak as f64);
        self.obs
            .set_gauge("sched_stream_workers", chunks_peak as f64);
        outcomes
    }

    /// Ingress for message index `msg_idx`: compose, select, cache lookup,
    /// model capture, training prediction, RNG pre-assignment. Runs on the
    /// caller thread; the only stage besides commit that touches
    /// `&mut self`.
    fn stream_ingress(&mut self, user: UserId, msg_idx: u64) -> StreamSlot {
        let t0 = self.obs.now_ns();
        let (sentence, home, peer, true_domain) = {
            let profile = self.users.get(&user).expect("user is registered");
            let mut gen = CorpusGenerator::new(
                &self.language,
                derive_seed(self.seed, 1_000_000 + msg_idx * 7 + user),
            );
            (
                gen.sentence(profile.domain, Rendering::Idiolect(&profile.idiolect)),
                profile.home,
                profile.peer,
                profile.domain,
            )
        };
        let link = self.advance_link(user);
        let (selected, key, used_user_model, misselected) =
            self.select_and_lookup(user, true_domain, home, &sentence.tokens);

        // Capture frozen serving handles. A training ticket closes its
        // window, so the captured models are exactly what the sequential path
        // would read at its encode/decode time.
        let (enc, dec) = if sentence.tokens.is_empty() {
            (None, None)
        } else {
            let enc = match &mut self.quant {
                None => StreamEncoder::F32(if used_user_model {
                    self.servers[home]
                        .peek_user_kb_shared(&key)
                        .expect("lookup_user_kb reported residency")
                } else {
                    self.servers[home].general_kb_shared(selected)
                }),
                Some(q) => StreamEncoder::Int8(if used_user_model {
                    let kb = self.servers[home]
                        .peek_user_kb(&key)
                        .expect("lookup_user_kb reported residency");
                    q.user_encoders
                        .entry(key)
                        .or_insert_with(|| Arc::new(QuantizedEncoder::from_encoder(&kb.encoder)))
                        .clone()
                } else {
                    q.general[&selected].0.clone()
                }),
            };
            let dec = match &mut self.quant {
                None => StreamDecoder::F32(
                    self.servers[peer]
                        .user_decoder_shared(&key)
                        .unwrap_or_else(|| self.servers[peer].general_kb_shared(selected)),
                ),
                Some(q) => StreamDecoder::Int8(match self.servers[peer].user_decoder(&key) {
                    Some(kb) => q
                        .user_decoders
                        .entry(key)
                        .or_insert_with(|| Arc::new(QuantizedDecoder::from_decoder(&kb.decoder)))
                        .clone(),
                    None => q.general[&selected].1.clone(),
                }),
            };
            (Some(enc), Some(dec))
        };

        // Exact readiness prediction: the buffer drops oldest at capacity,
        // so post-commit occupancy is min(len + tokens, capacity).
        let will_train = {
            let buf = self.servers[home].buffer_mut(
                key,
                self.config.buffer_capacity,
                self.config.buffer_threshold,
            );
            (buf.len() + sentence.tokens.len()).min(self.config.buffer_capacity)
                >= self.config.buffer_threshold
        };

        let rng = seeded_rng(derive_seed(self.seed, 2_000_000 + msg_idx));
        let ingress_ns = self.obs.now_ns().saturating_sub(t0);
        self.obs.record_ns(Stage::Ingress, ingress_ns);
        self.obs.add("pipeline_stage_ingress", 1);
        StreamSlot {
            msg_idx,
            user,
            home,
            peer,
            true_domain,
            selected,
            key,
            used_user_model,
            misselected,
            will_train,
            sentence,
            enc,
            dec,
            link,
            rng,
            features: None,
            decoded: Vec::new(),
            ingress_ns,
            stage_ns: 0,
            trace: self.obs.tracing_enabled().then(|| MsgTraceTimings {
                start_ns: t0,
                ..MsgTraceTimings::default()
            }),
        }
    }

    /// Ordered commit: deferred journal events, then the shared back half
    /// of serving (buffers, training, sync, metrics, selector feedback).
    fn stream_commit(&mut self, slot: StreamSlot) -> MessageOutcome {
        let t0 = self.obs.now_ns();
        let StreamSlot {
            msg_idx,
            user,
            home,
            peer,
            true_domain,
            selected,
            key,
            used_user_model,
            misselected,
            will_train,
            sentence,
            link,
            decoded,
            ingress_ns,
            stage_ns,
            trace,
            ..
        } = slot;
        // The unbound fields (enc, dec, rng, features) drop here, so a
        // training round's `Arc::make_mut` never clones weights for a
        // handle this slot was still holding.
        if misselected {
            self.obs.emit(Event::DomainMisselected {
                user,
                selected: selected.index() as u8,
                actual: true_domain.index() as u8,
            });
        }
        let kept_dim = link.map(|l| l.kept(self.config.codec.feature_dim));
        let outcome = self.finalize_core(
            user,
            home,
            peer,
            true_domain,
            selected,
            key,
            used_user_model,
            msg_idx,
            &sentence,
            decoded,
            kept_dim,
            trace,
        );
        debug_assert_eq!(
            outcome.trained, will_train,
            "ingress training prediction must match the commit"
        );
        let commit_ns = self.obs.now_ns().saturating_sub(t0);
        self.obs.record_ns(Stage::Commit, commit_ns);
        // Per-message parity with the sequential path's envelope spans.
        self.obs.record_ns(Stage::SemanticTransmit, stage_ns);
        self.obs
            .record_ns(Stage::Message, ingress_ns + stage_ns + commit_ns);
        self.obs.add("pipeline_stage_commit", 1);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;

    /// A chunk that mixes decoders (users spread over the domains) and has
    /// an empty message in the middle: every slot's share of a packed
    /// decode equals `predict` on its own features, on both model arms.
    #[test]
    fn grouped_decode_matches_per_slot_predict() {
        for quant in [false, true] {
            let mut system = SemanticEdgeSystem::build(SystemConfig::tiny(), 3);
            if quant {
                system.enable_quantized_serving();
            }
            let mut chunk: Vec<StreamSlot> = (0..8)
                .map(|i| {
                    let user = system.register_user(Domain::ALL[i % Domain::ALL.len()], 0.2);
                    system.stream_ingress(user, i as u64)
                })
                .collect();
            chunk[3].sentence.tokens.clear();
            (chunk[3].enc, chunk[3].dec) = (None, None);
            let groups = group_slots(&chunk, |s| s.dec.as_ref()).len();
            assert!((2..7).contains(&groups), "mixed and shared decoders");

            run_chunk(&mut chunk, system.channel.as_ref(), &Recorder::disabled());
            for (i, slot) in chunk.iter().enumerate() {
                let expected = match (&slot.dec, &slot.features) {
                    (Some(StreamModel::F32(kb)), Some(f)) => kb.decoder.predict(f),
                    (Some(StreamModel::Int8(qd)), Some(f)) => qd.predict(f),
                    _ => Vec::new(),
                };
                assert_eq!(slot.decoded, expected, "quant={quant} slot {i}");
                assert_eq!(slot.decoded.is_empty(), i == 3);
            }
        }
    }
}
