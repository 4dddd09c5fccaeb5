//! The traced pass's staged replay: before each real `send_message` /
//! `send_stream` call, the same users' messages are walked stage by stage
//! through the layers' **public** functions, one timed span per call. The
//! per-stage means are the layer budget; what the real call costs beyond
//! their sum is the unattributed remainder (`core.glue_us`).

use crate::measure::Origin;
use rand::rngs::StdRng;
use semcom::{ChannelModel, SemanticEdgeSystem, UserId};
use semcom_channel::adapt::LinkState;
use semcom_channel::{AwgnChannel, Channel, FeatureScratch, RayleighChannel};
use semcom_codec::{quantize_model, KnowledgeBase, QuantizedDecoder, QuantizedEncoder};
use semcom_fl::{BufferSample, DomainBuffer};
use semcom_nn::rng::{derive_seed, seeded_rng};
use semcom_nn::Tensor;
use semcom_obs::{SpanContext, TraceBuffer, TraceSpan};
use semcom_select::{ContextualSelector, DomainSelector, NaiveBayesSelector};
use semcom_text::{CorpusGenerator, Domain, Rendering, Sentence};
use std::collections::HashMap;
use std::sync::Arc;

/// Stages of the replay, in pipeline order.
#[derive(Clone, Copy)]
pub enum Stage {
    Compose,
    LinkStep,
    Select,
    Lookup,
    Encode,
    Channel,
    Decode,
    BufferPush,
}

impl Stage {
    fn span_name(self) -> &'static str {
        match self {
            Stage::Compose => "text.compose",
            Stage::LinkStep => "channel.link_step",
            Stage::Select => "select.select",
            Stage::Lookup => "cache.lookup",
            Stage::Encode => "codec.encode",
            Stage::Channel => "channel.transmit",
            Stage::Decode => "codec.decode",
            Stage::BufferPush => "fl.buffer_push",
        }
    }
}

/// Messages whose spans are kept for the exported trace; stage statistics
/// cover every replayed message, the trace file is this leading sample.
const TRACED_MESSAGES: u64 = 4096;

/// One message mid-replay.
struct Slot {
    user: UserId,
    home: usize,
    peer: usize,
    sentence: Sentence,
    selected: Domain,
    user_kb: Option<Arc<KnowledgeBase>>,
    /// `(snr_db, kept feature dims)` when the link adapts.
    link: Option<(f64, usize)>,
    features: Option<Tensor>,
}

/// Shadow per-user state plus the stage accumulators.
pub struct Replay {
    origin: Origin,
    selectors: HashMap<UserId, ContextualSelector>,
    links: HashMap<UserId, LinkState>,
    buffers: HashMap<(UserId, Domain), DomainBuffer>,
    int8: Option<HashMap<Domain, (QuantizedEncoder, QuantizedDecoder)>>,
    rng: StdRng,
    scratch: FeatureScratch,
    stage_ns: [u64; 8],
    stage_calls: [u64; 8],
    pub messages: u64,
    pub selection_correct: u64,
    pub trace: TraceBuffer,
    /// Seconds `quantize_model` took for the four general KBs (int8 only).
    pub quantize_s: f64,
}

impl Replay {
    /// Builds the shadow state for `users` of `sys`: a contextual-over-
    /// naive-Bayes selector fitted on a corpus drawn from `sys.language()`,
    /// a link state per user when the system adapts, and int8 twins of the
    /// general KBs when it serves quantized.
    pub fn new(sys: &SemanticEdgeSystem, users: &[UserId], seed: u64, origin: Origin) -> Self {
        let cfg = sys.config();
        let mut corpus = Vec::new();
        for d in Domain::ALL {
            let mut gen =
                CorpusGenerator::new(sys.language(), derive_seed(seed, 0xBE00 + d.index() as u64));
            corpus.extend(gen.sentences(d, Rendering::Mixed(0.15), cfg.pretrain_sentences));
        }
        let template = NaiveBayesSelector::fit(sys.language(), &corpus);
        let decay = match cfg.selection {
            semcom::SelectionStrategy::Contextual { decay } => decay,
            semcom::SelectionStrategy::Bandit { .. } => 0.7,
        };
        let selectors = users
            .iter()
            .map(|&u| {
                (
                    u,
                    ContextualSelector::new(Box::new(template.clone()), decay),
                )
            })
            .collect();
        let links = match &cfg.adapt {
            Some(spec) => users
                .iter()
                .map(|&u| (u, LinkState::new(spec, derive_seed(seed, 0xBE_0000 + u))))
                .collect(),
            None => HashMap::new(),
        };
        let mut quantize_s = 0.0;
        let int8 = sys.quantized_serving().then(|| {
            let t0 = std::time::Instant::now();
            let twins = Domain::ALL
                .iter()
                .map(|&d| {
                    let q = quantize_model(sys.edge(0).general_kb(d));
                    (d, (q.encoder, q.decoder))
                })
                .collect();
            quantize_s = t0.elapsed().as_secs_f64();
            twins
        });
        Replay {
            origin,
            selectors,
            links,
            buffers: HashMap::new(),
            int8,
            rng: seeded_rng(derive_seed(seed, 0xBE01)),
            scratch: FeatureScratch::new(),
            stage_ns: [0; 8],
            stage_calls: [0; 8],
            messages: 0,
            selection_correct: 0,
            trace: TraceBuffer::new((TRACED_MESSAGES as usize) * 12),
            quantize_s,
        }
    }

    /// Mean seconds per call of one stage (0 when it never ran).
    pub fn stage_mean_s(&self, stage: Stage) -> f64 {
        let i = stage as usize;
        if self.stage_calls[i] == 0 {
            0.0
        } else {
            self.stage_ns[i] as f64 / 1e9 / self.stage_calls[i] as f64
        }
    }

    /// Total seconds spent in one stage.
    pub fn stage_total_s(&self, stage: Stage) -> f64 {
        self.stage_ns[stage as usize] as f64 / 1e9
    }

    /// Total stage time per replayed message, in seconds.
    pub fn stage_sum_per_message_s(&self) -> f64 {
        self.stage_ns.iter().sum::<u64>() as f64 / 1e9 / self.messages.max(1) as f64
    }

    /// Times `f` as one call of `stage`, recording a child span of `root`
    /// while the trace sample is open.
    fn timed<R>(
        &mut self,
        stage: Stage,
        root: Option<(SpanContext, u64)>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let t0 = self.origin.ns();
        let out = f(self);
        let dur = self.origin.ns() - t0;
        self.stage_ns[stage as usize] += dur;
        self.stage_calls[stage as usize] += 1;
        if let Some((root, ordinal)) = root {
            self.trace.record(TraceSpan::new(
                root.child(ordinal),
                Some(root.span),
                stage.span_name(),
                t0,
                dur,
            ));
        }
        out
    }

    /// Replays one closed-loop call's messages (one user for
    /// `send_message`, the whole batch for `send_stream`) and returns the
    /// root context plus its start, so the caller can close the root span
    /// around the real call.
    pub fn replay(
        &mut self,
        sys: &SemanticEdgeSystem,
        users: &[UserId],
        trace_id: u64,
    ) -> (Option<SpanContext>, u64) {
        let start_ns = self.origin.ns();
        let root = (self.messages < TRACED_MESSAGES).then(|| SpanContext::root(trace_id));
        let span = |i: usize, stage: Stage| root.map(|r| (r, (i * 8 + stage as usize) as u64));

        // Ingress, one message at a time: compose, link step, select, lookup.
        let mut slots = Vec::with_capacity(users.len());
        for (i, &user) in users.iter().enumerate() {
            let (home, peer) = sys.user_edges(user);
            let sentence = self.timed(Stage::Compose, span(i, Stage::Compose), |_| {
                sys.compose_message(user)
            });
            let link = if self.links.is_empty() {
                None
            } else {
                Some(self.timed(Stage::LinkStep, span(i, Stage::LinkStep), |r| {
                    let d = r.links.get_mut(&user).expect("link per user").step();
                    (d.snr_db, d.link.feature_dim)
                }))
            };
            let selected = self.timed(Stage::Select, span(i, Stage::Select), |r| {
                r.selectors
                    .get_mut(&user)
                    .expect("selector per user")
                    .select(&sentence.tokens)
            });
            if selected == sys.user_domain(user) {
                self.selection_correct += 1;
            }
            let user_kb = self.timed(Stage::Lookup, span(i, Stage::Lookup), |_| {
                sys.edge(home).peek_user_kb_shared(&(user, selected))
            });
            slots.push(Slot {
                user,
                home,
                peer,
                sentence,
                selected,
                user_kb,
                link,
                features: None,
            });
        }

        // Encode: messages that resolve to the same encoder share one packed
        // pass, as the serving paths group them.
        type EncoderKey = (usize, Option<UserId>, Domain);
        let mut groups: Vec<(EncoderKey, Vec<usize>)> = Vec::new();
        for (i, s) in slots.iter().enumerate() {
            if s.sentence.tokens.is_empty() {
                continue;
            }
            let key = (s.home, s.user_kb.is_some().then_some(s.user), s.selected);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        for ((home, _, selected), members) in &groups {
            let first = members[0];
            let lists: Vec<&[usize]> = members
                .iter()
                .map(|&i| slots[i].sentence.tokens.as_slice())
                .collect();
            let features = self.timed(Stage::Encode, span(first, Stage::Encode), |r| {
                match &r.int8 {
                    Some(twins) if slots[first].user_kb.is_none() => {
                        let packed: Vec<usize> =
                            lists.iter().flat_map(|l| l.iter().copied()).collect();
                        let all = twins[selected].0.encode(&packed);
                        split_rows(&all, &lists)
                    }
                    _ => match &slots[first].user_kb {
                        Some(kb) => kb.encoder.encode_batch(&lists),
                        None => sys
                            .edge(*home)
                            .general_kb(*selected)
                            .encoder
                            .encode_batch(&lists),
                    },
                }
            });
            for (&i, f) in members.iter().zip(features) {
                slots[i].features = Some(f);
            }
        }

        // Channel, decode and the mismatch-buffer fill, per message.
        let fixed_channel = sys.config().channel;
        for (i, slot) in slots.iter_mut().enumerate() {
            let Some(mut features) = slot.features.take() else {
                continue;
            };
            self.timed(Stage::Channel, span(i, Stage::Channel), |r| {
                transmit(
                    &mut features,
                    slot.link,
                    fixed_channel,
                    &mut r.scratch,
                    &mut r.rng,
                )
            });
            let key = (slot.user, slot.selected);
            let decoded = self.timed(Stage::Decode, span(i, Stage::Decode), |r| {
                let user_dec = sys.edge(slot.peer).user_decoder_shared(&key);
                match (&r.int8, user_dec) {
                    (_, Some(kb)) => kb.decoder.predict(&features),
                    (Some(twins), None) => twins[&slot.selected].1.predict(&features),
                    (None, None) => sys
                        .edge(slot.peer)
                        .general_kb(slot.selected)
                        .decoder
                        .predict(&features),
                }
            });
            let cfg = sys.config();
            let (capacity, threshold) = (cfg.buffer_capacity, cfg.buffer_threshold);
            self.timed(Stage::BufferPush, span(i, Stage::BufferPush), |r| {
                let buffer = r
                    .buffers
                    .entry(key)
                    .or_insert_with(|| DomainBuffer::new(capacity.min(4096), threshold.min(4096)));
                for ((&token, concept), got) in slot
                    .sentence
                    .tokens
                    .iter()
                    .zip(&slot.sentence.concepts)
                    .zip(&decoded)
                {
                    buffer.push(BufferSample {
                        token,
                        concept: concept.index(),
                        correct: got == concept,
                    });
                }
                let acc = semcom_text::metrics::concept_accuracy(&slot.sentence.concepts, &decoded);
                r.selectors
                    .get_mut(&slot.user)
                    .expect("selector per user")
                    .observe(acc);
            });
        }
        self.messages += users.len() as u64;
        (root, start_ns)
    }

    /// Closes a replayed call's trace: the real call as one child span and
    /// the root around replay and call together.
    pub fn close(
        &mut self,
        root: Option<SpanContext>,
        start_ns: u64,
        call_name: &'static str,
        call_start_ns: u64,
        call_dur_ns: u64,
    ) {
        let Some(root) = root else { return };
        self.trace.record(TraceSpan::new(
            root.child(u64::MAX - 1),
            Some(root.span),
            call_name,
            call_start_ns,
            call_dur_ns,
        ));
        let end = call_start_ns + call_dur_ns;
        self.trace
            .record(TraceSpan::new(root, None, "call", start_ns, end - start_ns));
    }
}

/// Splits a packed `[total, dim]` feature tensor back into one tensor per
/// token list.
fn split_rows(all: &Tensor, lists: &[&[usize]]) -> Vec<Tensor> {
    let dim = all.cols();
    let flat = all.as_slice();
    let mut row = 0;
    lists
        .iter()
        .map(|l| {
            let part = flat[row * dim..(row + l.len()) * dim].to_vec();
            row += l.len();
            Tensor::from_vec(l.len(), dim, part).expect("split preserves shape")
        })
        .collect()
}

/// The PHY leg of one message through the channel crate's public functions:
/// the fixed channel as configured, or — when the link adapts — only the
/// kept feature dims at the slot's SNR, the punctured dims zero-filled.
fn transmit(
    features: &mut Tensor,
    link: Option<(f64, usize)>,
    fixed: ChannelModel,
    scratch: &mut FeatureScratch,
    rng: &mut StdRng,
) {
    let (rows, cols) = (features.rows(), features.cols());
    let rayleigh = matches!(fixed, ChannelModel::Rayleigh { .. });
    let through = |snr_db: f64, buf: &mut [f32], scratch: &mut FeatureScratch, rng: &mut StdRng| {
        if rayleigh {
            RayleighChannel::new(snr_db).transmit_f32_in_place(buf, scratch, rng);
        } else {
            AwgnChannel::new(snr_db).transmit_f32_in_place(buf, scratch, rng);
        }
    };
    match link {
        None => {
            let snr_db = match fixed {
                ChannelModel::Awgn { snr_db } | ChannelModel::Rayleigh { snr_db } => snr_db,
            };
            // The fixed-channel serving path transmits out of place.
            let received = if rayleigh {
                RayleighChannel::new(snr_db).transmit_f32(features.as_slice(), rng)
            } else {
                AwgnChannel::new(snr_db).transmit_f32(features.as_slice(), rng)
            };
            *features = Tensor::from_vec(rows, cols, received).expect("channel preserves length");
        }
        Some((snr_db, keep)) => {
            let keep = keep.min(cols).max(1);
            let data = features.as_mut_slice();
            if keep == cols {
                through(snr_db, data, scratch, rng);
                return;
            }
            let mut packed = Vec::with_capacity(rows * keep);
            for r in 0..rows {
                packed.extend_from_slice(&data[r * cols..r * cols + keep]);
            }
            through(snr_db, &mut packed, scratch, rng);
            for r in 0..rows {
                data[r * cols..r * cols + keep].copy_from_slice(&packed[r * keep..(r + 1) * keep]);
                data[r * cols + keep..(r + 1) * cols].fill(0.0);
            }
        }
    }
}
