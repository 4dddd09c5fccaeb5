//! Message serving: [`SemanticEdgeSystem::send_stream`] and its one-ticket
//! form [`SemanticEdgeSystem::send_message`].
//!
//! Every message crosses the system the one way the paper's Fig. 1 draws
//! it: *compose → select → encode → channel → decode → commit*. Semantic
//! decode is ≈85 % of that walk, so overlapping *stages* gains nothing;
//! this module instead serves a **window** of mutually independent messages
//! at once and splits the window's messages across workers:
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
//!   message's channel RNG from its message index. Tickets are the
//!   positions in the caller's list.
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
//! `pipeline_equivalence` property test, and by value in
//! `tests/serving_digest.rs`). Every slot carries its own
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
//! events are recorded identically either way. A one-ticket window — all
//! `send_message` ever opens — has nothing to group or fan out and runs
//! ingress → encode → PHY → decode → commit strictly in order: sequential
//! serving is this engine at width 1, not a second implementation.

use crate::config::ChannelModel;
use crate::metrics::MessageOutcome;
use crate::server::UserKey;
use crate::system::{SemanticEdgeSystem, UserId};
use rand::rngs::StdRng;
use rand::RngCore;
use semcom_channel::{AwgnChannel, Channel, FeatureScratch, RayleighChannel};
use semcom_codec::{
    DecodeScratch, EncodeScratch, KnowledgeBase, QuantizedDecoder, QuantizedEncoder,
};
use semcom_fl::BufferSample;
use semcom_nn::rng::{derive_seed, seeded_rng};
use semcom_nn::Tensor;
use semcom_obs::{Counter, Event, Gauge, Recorder, SpanContext, Stage, TraceSpan};
use semcom_text::{ConceptId, Domain, Sentence};
use std::sync::Arc;

/// The per-message transmit configuration the link-adaptation loop picked:
/// the instantaneous SNR the message actually experiences and the selected
/// table entry's kept feature dims. Captured once per message at ingress,
/// in arrival order, so the per-user link trajectory does not depend on how
/// messages are windowed.
#[derive(Debug, Clone, Copy)]
struct SlotLink {
    /// Instantaneous channel SNR from the user's Markov trace (dB).
    snr_db: f64,
    /// Feature dims the selected entry transmits (clamped to the codec
    /// dim at use).
    keep: usize,
    /// Whether the slot's channel is Rayleigh fading (else AWGN).
    rayleigh: bool,
}

impl SlotLink {
    /// Feature dims actually transmitted for a codec of `full_dim`.
    fn kept(&self, full_dim: usize) -> usize {
        self.keep.min(full_dim).max(1)
    }
}

/// Link-adaptive PHY: transmits only the first `kept` feature dims of each
/// token row through a channel realized at the slot's instantaneous SNR,
/// zero-filling the punctured dims for the fixed-width decoder — all in the
/// caller's buffer: each row's kept prefix is compacted to the front,
/// `data[..rows·kept]` is transmitted, and the rows are expanded again from
/// the last one backwards (a row's destination never reaches below its own
/// or an earlier row's compacted source). With `kept == cols` every move is
/// onto itself and this is a plain full-width transmit at the slot SNR.
fn adaptive_transmit_in_place(
    data: &mut [f32],
    rows: usize,
    cols: usize,
    link: &SlotLink,
    scratch: &mut FeatureScratch,
    rng: &mut dyn RngCore,
) {
    let keep = link.kept(cols);
    for r in 1..rows {
        data.copy_within(r * cols..r * cols + keep, r * keep);
    }
    let sent = &mut data[..rows * keep];
    if link.rayleigh {
        RayleighChannel::new(link.snr_db).transmit_f32_in_place(sent, scratch, rng);
    } else {
        AwgnChannel::new(link.snr_db).transmit_f32_in_place(sent, scratch, rng);
    }
    for r in (0..rows).rev() {
        data.copy_within(r * keep..(r + 1) * keep, r * cols);
        data[r * cols + keep..(r + 1) * cols].fill(0.0);
    }
}

/// Per-stage `(start_ns, dur_ns)` pairs captured while one message moves
/// through the stages, emitted as child spans of the message's trace root
/// at commit time. Only populated when the recorder carries a trace buffer,
/// so tracing-off runs take no extra clock reads.
#[derive(Debug, Clone, Copy, Default)]
struct MsgTraceTimings {
    /// Message start (ingress).
    start_ns: u64,
    /// Semantic encode (per-message share of a packed pass).
    encode: (u64, u64),
    /// Channel transit (adaptive or fixed).
    channel: (u64, u64),
    /// Semantic decode at the peer edge.
    decode: (u64, u64),
}

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

/// The distinct models the chunk's slots carry, in first-seen order: one
/// packed NN pass each. A group's members are the slots whose handle has
/// that model's [`StreamModel::addr`].
fn group_slots<Q: Clone>(
    chunk: &[StreamSlot],
    model: impl Fn(&StreamSlot) -> Option<&StreamModel<Q>>,
) -> Vec<StreamModel<Q>> {
    let mut models: Vec<StreamModel<Q>> = Vec::new();
    for m in chunk.iter().filter_map(model) {
        if models.iter().all(|g| g.addr() != m.addr()) {
            models.push(m.clone());
        }
    }
    models
}

/// Collects into `members` the chunk positions whose handle is model `of`.
fn gather_members<Q>(
    chunk: &[StreamSlot],
    model: impl Fn(&StreamSlot) -> Option<&StreamModel<Q>>,
    of: &StreamModel<Q>,
    members: &mut Vec<usize>,
) {
    members.clear();
    members.extend(
        (0..chunk.len()).filter(|&i| model(&chunk[i]).is_some_and(|m| m.addr() == of.addr())),
    );
}

/// The `sched_stream_*` counters and gauges every `send_stream` call
/// updates, resolved once per attached recorder so the hot path takes no
/// lock and makes no allocation.
#[derive(Default)]
pub(crate) struct StreamCounters {
    encode_batches: Counter,
    decode_batches: Counter,
    windows: Counter,
    fanouts: Counter,
    window_peak: Gauge,
    workers: Gauge,
}

impl StreamCounters {
    pub(crate) fn resolve(obs: &Recorder) -> Self {
        StreamCounters {
            encode_batches: obs.counter_handle("sched_stream_encode_batches"),
            decode_batches: obs.counter_handle("sched_stream_decode_batches"),
            windows: obs.counter_handle("sched_stream_windows"),
            fanouts: obs.counter_handle("sched_stream_fanouts"),
            window_peak: obs.gauge_handle("sched_stream_window_peak"),
            workers: obs.gauge_handle("sched_stream_workers"),
        }
    }
}

/// Books one NN stage's wall time since `t0` to the slots that took part
/// in equal shares (histogram entry, message total, trace span).
fn share_stage_time(
    chunk: &mut [StreamSlot],
    took_part: impl Fn(&StreamSlot) -> bool,
    stage: Stage,
    t0: u64,
    obs: &Recorder,
    set_trace: impl Fn(&mut MsgTraceTimings, (u64, u64)),
) {
    let n = chunk.iter().filter(|s| took_part(s)).count() as u64;
    if let Some(share) = obs.now_ns().saturating_sub(t0).checked_div(n) {
        for slot in chunk.iter_mut().filter(|s| took_part(s)) {
            obs.record_ns(stage, share);
            slot.stage_ns += share;
            if let Some(t) = slot.trace.as_mut() {
                set_trace(t, (t0, share));
            }
        }
    }
}

/// Encode stage: groups the chunk by serving encoder and packs each group
/// into one forward pass.
fn run_encode(chunk: &mut [StreamSlot], obs: &Recorder, batches: &Counter) {
    let t0 = obs.now_ns();
    let models = group_slots(chunk, |s| s.enc.as_ref());
    let mut scratch = EncodeScratch::new();
    let (mut members, mut packed) = (Vec::new(), Vec::new());
    for enc in &models {
        gather_members(chunk, |s| s.enc.as_ref(), enc, &mut members);
        // A lone member's token list is the packed input as it stands.
        let tokens: &[usize] = match members[..] {
            [i] => &chunk[i].sentence.tokens,
            _ => {
                packed.clear();
                for &i in &members {
                    packed.extend_from_slice(&chunk[i].sentence.tokens);
                }
                &packed
            }
        };
        let features;
        let (flat, dim) = match enc {
            StreamModel::F32(kb) => {
                features = kb.encoder.encode(tokens);
                (features.as_slice(), features.cols())
            }
            StreamModel::Int8(enc) => (
                enc.encode_batch_into(tokens, &mut scratch),
                enc.feature_dim(),
            ),
        };
        let mut row = 0;
        for &i in &members {
            let len = chunk[i].sentence.tokens.len();
            let part = flat[row * dim..(row + len) * dim].to_vec();
            chunk[i].features =
                Some(Tensor::from_vec(len, dim, part).expect("split preserves shape"));
            row += len;
        }
    }
    share_stage_time(
        chunk,
        |s| s.enc.is_some(),
        Stage::SemanticEncode,
        t0,
        obs,
        |t, span| t.encode = span,
    );
    if !models.is_empty() {
        batches.add(1);
    }
}

/// PHY stage: in-place feature transmission of every slot on its
/// pre-assigned RNG through the chunk's scratch (zero allocations once
/// warm).
fn run_phy(chunk: &mut [StreamSlot], channel: &dyn Channel, obs: &Recorder) {
    let mut scratch = FeatureScratch::new();
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
    }
}

/// Decode stage: groups the chunk by the peer-edge decoder captured at
/// ingress and runs one packed `predict` per group.
fn run_decode(chunk: &mut [StreamSlot], obs: &Recorder, batches: &Counter) {
    let t0 = obs.now_ns();
    let models = group_slots(chunk, |s| s.dec.as_ref());
    let mut scratch = DecodeScratch::new();
    let (mut members, mut packed) = (Vec::new(), Vec::new());
    let mut concepts: Vec<ConceptId> = Vec::new();
    for dec in &models {
        gather_members(chunk, |s| s.dec.as_ref(), dec, &mut members);
        let features = |i: usize| chunk[i].features.as_ref().expect("encoded before decode");
        // A lone member's rows are the packed input as they stand.
        let lone = match members[..] {
            [i] => Some(features(i)),
            _ => {
                packed.clear();
                for &i in &members {
                    packed.extend_from_slice(features(i).as_slice());
                }
                None
            }
        };
        match dec {
            StreamModel::F32(kb) => match lone {
                Some(received) => concepts = kb.decoder.predict(received),
                None => {
                    // The tensor borrows `packed`'s buffer for the call.
                    let dim = features(members[0]).cols();
                    let rows = std::mem::take(&mut packed);
                    let received = Tensor::from_vec(rows.len() / dim, dim, rows)
                        .expect("whole feature rows were packed");
                    concepts = kb.decoder.predict(&received);
                    packed = received.into_vec();
                }
            },
            StreamModel::Int8(qd) => {
                let flat = lone.map_or(&packed[..], Tensor::as_slice);
                let rows = flat.len() / qd.feature_dim();
                qd.predict_into(flat, rows, &mut scratch, &mut concepts);
            }
        }
        let mut row = 0;
        for &i in &members {
            let len = chunk[i].sentence.tokens.len();
            chunk[i].decoded = concepts[row..row + len].to_vec();
            row += len;
        }
    }
    share_stage_time(
        chunk,
        |s| s.dec.is_some(),
        Stage::SemanticDecode,
        t0,
        obs,
        |t, span| t.decode = span,
    );
    if !models.is_empty() {
        batches.add(1);
    }
}

/// Everything between ingress and commit for one contiguous run of slots;
/// the unit of work a worker (or, inline, the caller) executes.
fn run_chunk(
    chunk: &mut [StreamSlot],
    channel: &dyn Channel,
    obs: &Recorder,
    counters: &StreamCounters,
) {
    run_encode(chunk, obs, &counters.encode_batches);
    run_phy(chunk, channel, obs);
    run_decode(chunk, obs, &counters.decode_batches);
}

impl SemanticEdgeSystem {
    /// Sends one message for `user` through the full pipeline: selection →
    /// (user or general) semantic encoding at the home edge → channel →
    /// decoding at the peer edge → sender-side mismatch bookkeeping via the
    /// decoder copy → buffer fill → possible user-model training and
    /// decoder sync. This is [`Self::send_stream`] on a one-ticket window.
    ///
    /// # Panics
    ///
    /// Panics if the user is unknown.
    pub fn send_message(&mut self, user: UserId) -> MessageOutcome {
        let mut outcomes = self.send_stream(&[user]);
        outcomes.pop().expect("one outcome per ticket")
    }

    /// Sends one message for every listed user, serving them a
    /// **dependency-free window** at a time: ingress and ordered commit on
    /// the caller thread, encode → PHY → decode of whole messages on
    /// `semcom-par` workers, each taking a contiguous chunk of the window
    /// and packing the slots that share a model into one NN pass. Results
    /// are returned in input order and are **bit-identical at any
    /// `SEMCOM_THREADS` and any split of the list into calls** — see the
    /// [module docs](crate::stream) for the window rules that guarantee
    /// it. Small windows, one worker, and calls from inside a worker run
    /// the same chunk function inline.
    ///
    /// # Panics
    ///
    /// Panics if any user is unknown, before any state changes.
    pub fn send_stream(&mut self, users: &[UserId]) -> Vec<MessageOutcome> {
        for user in users {
            assert!(self.users.contains_key(user), "user is registered");
        }
        if users.is_empty() {
            return Vec::new();
        }
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
            let (channel, obs, counters) =
                (self.channel.as_ref(), &self.obs, &self.stream_counters);
            semcom_par::par_chunks(&mut window, chunk_len, |_, chunk| {
                run_chunk(chunk, channel, obs, counters)
            });

            for slot in window.drain(..) {
                outcomes.push(self.stream_commit(slot));
            }
        }
        let counters = &self.stream_counters;
        counters.windows.add(windows);
        counters.fanouts.add(fanouts);
        counters.window_peak.set(window_peak as f64);
        counters.workers.set(chunks_peak as f64);
        outcomes
    }

    /// Ingress for message index `msg_idx`: compose, link step, select,
    /// cache lookup, model capture, training prediction, RNG
    /// pre-assignment. Runs on the caller thread; the only stage besides
    /// commit that touches `&mut self`.
    fn stream_ingress(&mut self, user: UserId, msg_idx: u64) -> StreamSlot {
        let t0 = self.obs.now_ns();
        let profile = self.users.get(&user).expect("user is registered");
        let (home, peer, true_domain) = (profile.home, profile.peer, profile.domain);
        let sentence = self.compose(user, profile, msg_idx);

        // The user's link advances exactly once per message, in arrival
        // order, so the per-user Markov trace is independent of windowing.
        let link = self.links.get_mut(&user).map(|state| {
            let d = state.step();
            self.adapt_messages += 1;
            self.adapt_switches += d.switched as u64;
            SlotLink {
                snr_db: d.snr_db,
                keep: d.link.feature_dim,
                rayleigh: matches!(self.config.channel, ChannelModel::Rayleigh { .. }),
            }
        });

        // §III-A: pick the domain model from message content + context,
        // then look it up (recording hit/miss) in the home edge's
        // user-model cache. A misselection is journaled at commit.
        let selected = self
            .selectors
            .get_mut(&user)
            .expect("selector per registered user")
            .select(&sentence.tokens);
        let key: UserKey = (user, selected);
        let used_user_model = self.servers[home].lookup_user_kb(&key);

        // Capture frozen serving handles. A training ticket closes its
        // window, so the captured models are exactly what is resident when
        // every earlier message has committed.
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
        StreamSlot {
            msg_idx,
            user,
            home,
            peer,
            true_domain,
            selected,
            key,
            used_user_model,
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

    /// Ordered commit: the deferred misselection event, mismatch
    /// bookkeeping, buffer fill, training trigger, metrics, selector
    /// feedback and the message's trace tree.
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
        if selected != true_domain {
            self.obs.emit(Event::DomainMisselected {
                user,
                selected: selected.index() as u8,
                actual: true_domain.index() as u8,
            });
        }

        // §II-C: the home edge has the decoder copy (d_i^m = d_j^m) and the
        // ground truth, so it records the mismatch locally — no output is
        // echoed back over the network.
        let buffer = self.servers[home].buffer_mut(
            key,
            self.config.buffer_capacity,
            self.config.buffer_threshold,
        );
        let mut correct = 0u64;
        for ((&token, concept), got) in sentence.tokens.iter().zip(&sentence.concepts).zip(&decoded)
        {
            correct += (got == concept) as u64;
            buffer.push(BufferSample {
                token,
                concept: concept.index(),
                correct: got == concept,
            });
        }
        let trained = buffer.is_ready();
        debug_assert_eq!(
            trained, will_train,
            "ingress training prediction must match the commit"
        );

        // §II-D: enough data in b_m → train the user-specific model and
        // ship the decoder update to the peer edge.
        let sync_bytes = if trained {
            self.train_and_sync(key, home, peer, msg_idx)
        } else {
            0
        };

        // Bookkeeping. A punctured adaptive transmit spends fewer channel
        // symbols per token (`kept / 2` complex uses instead of `dim / 2`).
        let codec = &self.config.codec;
        let symbols_per_token = match link {
            Some(l) => l.kept(codec.feature_dim).div_ceil(2),
            None => codec.symbols_per_token(),
        };
        let tokens = sentence.tokens.len();
        let outcome = MessageOutcome {
            user,
            true_domain,
            selected_domain: selected,
            sent: sentence.concepts,
            decoded,
            used_user_model,
            trained,
            sync_bytes,
            symbols: symbols_per_token * tokens,
        };
        self.metrics.messages += 1;
        self.metrics.tokens += tokens as u64;
        self.metrics.correct_tokens += correct;
        self.metrics.selection_correct += outcome.selection_correct() as u64;
        self.metrics.payload_symbols += outcome.symbols as u64;
        self.metrics.user_model_messages += used_user_model as u64;
        self.metrics.trainings += trained as u64;
        // §III-A feedback loop: the home edge's decoder copy tells it how
        // well this selection decoded; RL selectors learn from it.
        self.selectors
            .get_mut(&user)
            .expect("selector per registered user")
            .observe(outcome.accuracy());

        // Causal trace: one tree per message, identical in structure at
        // any window width. Child ordinals are fixed (0 = encode,
        // 1 = channel, 2 = decode; train/sync children 3/4 are emitted by
        // `train_and_sync`), and all spans land here, on the caller
        // thread, in commit order.
        if let Some(t) = trace {
            let root = SpanContext::root(msg_idx);
            for (ordinal, name, (start, dur)) in [
                (0, "semantic_encode", t.encode),
                (1, "channel", t.channel),
                (2, "semantic_decode", t.decode),
            ] {
                self.obs.trace_span(TraceSpan::new(
                    root.child(ordinal),
                    Some(root.span),
                    name,
                    start,
                    dur,
                ));
            }
            let dur = self.obs.now_ns().saturating_sub(t.start_ns);
            self.obs
                .trace_span(TraceSpan::new(root, None, "message", t.start_ns, dur));
        }

        let commit_ns = self.obs.now_ns().saturating_sub(t0);
        self.obs.record_ns(Stage::Commit, commit_ns);
        self.obs.record_ns(Stage::SemanticTransmit, stage_ns);
        self.obs
            .record_ns(Stage::Message, ingress_ns + stage_ns + commit_ns);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;

    /// The pack → transmit → copy back form the in-place puncture replaced,
    /// kept as its reference.
    fn adaptive_transmit_reference(
        data: &mut [f32],
        rows: usize,
        cols: usize,
        link: &SlotLink,
        rng: &mut dyn RngCore,
    ) {
        let keep = link.kept(cols);
        let mut packed = Vec::with_capacity(rows * keep);
        for r in 0..rows {
            packed.extend_from_slice(&data[r * cols..r * cols + keep]);
        }
        let mut scratch = FeatureScratch::new();
        if link.rayleigh {
            RayleighChannel::new(link.snr_db).transmit_f32_in_place(&mut packed, &mut scratch, rng);
        } else {
            AwgnChannel::new(link.snr_db).transmit_f32_in_place(&mut packed, &mut scratch, rng);
        }
        for r in 0..rows {
            data[r * cols..r * cols + keep].copy_from_slice(&packed[r * keep..(r + 1) * keep]);
            data[r * cols + keep..(r + 1) * cols].fill(0.0);
        }
    }

    #[test]
    fn in_place_puncture_matches_pack_and_copy_back_bit_for_bit() {
        let cols = 8;
        let mut scratch = FeatureScratch::new();
        for rayleigh in [false, true] {
            for keep in [1, cols / 2, cols - 1, cols] {
                for rows in [1, 2, 7] {
                    let link = SlotLink {
                        snr_db: 3.5,
                        keep,
                        rayleigh,
                    };
                    let features: Vec<f32> = (0..rows * cols)
                        .map(|i| (i as f32 * 0.37).sin() + 0.01 * i as f32)
                        .collect();
                    let seed = (rows * 100 + keep) as u64;
                    let mut expected = features.clone();
                    adaptive_transmit_reference(
                        &mut expected,
                        rows,
                        cols,
                        &link,
                        &mut seeded_rng(seed),
                    );
                    let mut got = features;
                    adaptive_transmit_in_place(
                        &mut got,
                        rows,
                        cols,
                        &link,
                        &mut scratch,
                        &mut seeded_rng(seed),
                    );
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got),
                        bits(&expected),
                        "rayleigh={rayleigh} keep={keep} rows={rows}"
                    );
                }
            }
        }
    }

    /// A chunk that mixes decoders (users spread over the domains and over
    /// three peer edges) and has an empty message in the middle: every
    /// slot's share of a packed decode equals `predict` on its own
    /// features, on both model arms. The edges share their general KBs, so
    /// the groups are the domains, not the (edge, domain) pairs.
    #[test]
    fn grouped_decode_matches_per_slot_predict() {
        for quant in [false, true] {
            let config = SystemConfig {
                n_edges: 3,
                ..SystemConfig::tiny()
            };
            let mut system = SemanticEdgeSystem::build(config, 3);
            if quant {
                system.enable_quantized_serving();
            }
            let mut chunk: Vec<StreamSlot> = (0..12)
                .map(|i| {
                    let domain = Domain::ALL[i % Domain::ALL.len()];
                    let user = system.register_user_at(domain, 0.2, i % 3, (i + 1) % 3);
                    system.stream_ingress(user, i as u64)
                })
                .collect();
            chunk[3].sentence.tokens.clear();
            (chunk[3].enc, chunk[3].dec) = (None, None);
            let groups = group_slots(&chunk, |s| s.dec.as_ref()).len();
            assert!(
                (2..=Domain::ALL.len()).contains(&groups),
                "mixed decoders, shared across peer edges: {groups} groups"
            );

            run_chunk(
                &mut chunk,
                system.channel.as_ref(),
                &Recorder::disabled(),
                &StreamCounters::default(),
            );
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
