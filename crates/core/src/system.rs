use crate::config::{ChannelModel, SelectionStrategy, SystemConfig};
use crate::metrics::SystemMetrics;
use crate::server::{EdgeServer, UserKey};
use crate::stream::StreamCounters;
use semcom_channel::adapt::LinkState;
use semcom_channel::{AwgnChannel, Channel, RayleighChannel};
use semcom_codec::train::Trainer;
use semcom_codec::{
    quantize_model, KbScope, KnowledgeBase, QuantizedDecoder, QuantizedEncoder, QuantizedKb,
};
use semcom_fl::{
    run_sync_round, RoundOutcome, SyncLink, SyncReceiver, SyncSender, TransportConfig,
    TransportStats,
};
use semcom_nn::params::ParamVec;
use semcom_nn::rng::{derive_seed, seeded_rng};
use semcom_obs::{Event, Recorder, RejectCause, Snapshot, SpanContext, Stage, TraceSpan};
use semcom_select::{BanditSelector, ContextualSelector, DomainSelector, NaiveBayesSelector};
use semcom_text::{
    CorpusGenerator, Domain, Idiolect, IdiolectConfig, Rendering, Sentence, SyntheticLanguage,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Stable user identifier.
pub type UserId = u64;

#[derive(Debug, Clone)]
pub(crate) struct UserProfile {
    pub(crate) domain: Domain,
    pub(crate) idiolect: Idiolect,
    /// Edge server `i` the user attaches to (sender side).
    pub(crate) home: usize,
    /// Edge server `j` the user's conversation partner attaches to.
    pub(crate) peer: usize,
}

/// Cached int8 twins used while quantized serving is enabled. User-model
/// twins are dropped at every point the f32 originals change (training,
/// sync, eviction, edge restart), so a cached twin always mirrors the
/// currently-resident model; general twins are frozen at enable time,
/// matching the frozen general KBs.
/// Twins are held behind [`Arc`] so `send_stream` can hand frozen
/// references to its workers without cloning weight tables.
pub(crate) struct QuantServing {
    pub(crate) general: HashMap<Domain, (Arc<QuantizedEncoder>, Arc<QuantizedDecoder>)>,
    pub(crate) user_encoders: HashMap<UserKey, Arc<QuantizedEncoder>>,
    pub(crate) user_decoders: HashMap<UserKey, Arc<QuantizedDecoder>>,
}

/// The complete semantic edge computing and caching system of the paper's
/// Fig. 1: a fleet of edge servers, cloud-pretrained general KBs cached on
/// each (including the sender-side **decoder copies**), user-specific
/// models trained from domain buffers and cached under a byte budget,
/// FL-style decoder sync between each user's home and peer edges, and
/// context-aware model selection.
///
/// See the [crate documentation](crate) for an end-to-end example.
pub struct SemanticEdgeSystem {
    pub(crate) config: SystemConfig,
    pub(crate) language: SyntheticLanguage,
    pub(crate) servers: Vec<EdgeServer>,
    pub(crate) channel: Box<dyn Channel + Send + Sync>,
    selector_template: NaiveBayesSelector,
    pub(crate) selectors: HashMap<UserId, Box<dyn DomainSelector + Send>>,
    pub(crate) users: HashMap<UserId, UserProfile>,
    next_user: UserId,
    pub(crate) metrics: SystemMetrics,
    pub(crate) obs: Recorder,
    /// `obs`'s serving counters, resolved when it is attached.
    pub(crate) stream_counters: StreamCounters,
    pub(crate) quant: Option<QuantServing>,
    /// Per-user link-adaptation state (Markov SNR trace + EWMA estimator +
    /// policy), present only when [`SystemConfig::adapt`] is set.
    pub(crate) links: HashMap<UserId, LinkState>,
    /// Messages served through the adaptive link path.
    pub(crate) adapt_messages: u64,
    /// Link-config switches the adaptation policy made.
    pub(crate) adapt_switches: u64,
    /// Completed [`Self::migrate_user`] calls (also the per-migration RNG
    /// stream index).
    pub(crate) migrations: u64,
    pub(crate) seed: u64,
}

/// What one [`SemanticEdgeSystem::migrate_user`] handoff moved, dropped,
/// and spent on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationReport {
    /// The migrated user.
    pub user: UserId,
    /// Source edge index.
    pub from: usize,
    /// Destination edge index.
    pub to: usize,
    /// Cached user models re-established at the destination (decoder state
    /// carried over the sync transport).
    pub models_moved: usize,
    /// Cached user models dropped because the transfer round failed (the
    /// destination re-derives and retrains from subsequent traffic).
    pub models_dropped: usize,
    /// Domain buffers carried to the destination.
    pub buffers_moved: usize,
    /// Transport counters for the migration's sync rounds.
    pub transport: TransportStats,
}

impl std::fmt::Debug for SemanticEdgeSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SemanticEdgeSystem({} users, {} messages, {} edges)",
            self.users.len(),
            self.metrics.messages,
            self.servers.len()
        )
    }
}

impl SemanticEdgeSystem {
    /// Builds the system: constructs the language, pre-trains one general
    /// KB per domain in the "cloud", installs them (encoders **and**
    /// decoder copies) on every edge server, and fits the domain selector.
    ///
    /// Deterministic for a given `(config, seed)` pair.
    ///
    /// # Panics
    ///
    /// Panics, before any pre-training, if `buffer_capacity` is zero or
    /// below `buffer_threshold`.
    pub fn build(config: SystemConfig, seed: u64) -> Self {
        assert!(
            config.buffer_capacity > 0 && config.buffer_threshold <= config.buffer_capacity,
            "buffer_capacity ({}) must be positive and at least buffer_threshold ({})",
            config.buffer_capacity,
            config.buffer_threshold
        );
        let language = config.language.build(derive_seed(seed, 1));
        let mut trainer = Trainer::new(config.pretrain);

        // Cloud pre-training of the domain-specialized general models.
        let mut general = HashMap::new();
        let mut selector_corpus = Vec::new();
        for d in Domain::ALL {
            let mut gen = CorpusGenerator::new(&language, derive_seed(seed, 10 + d.index() as u64));
            let corpus = gen.sentences(d, Rendering::Mixed(0.15), config.pretrain_sentences);
            let mut kb = KnowledgeBase::new(
                config.codec,
                language.vocab().len(),
                language.concept_count(),
                KbScope::DomainGeneral(d),
                derive_seed(seed, 20 + d.index() as u64),
            );
            trainer.fit(&mut kb, &corpus, derive_seed(seed, 30 + d.index() as u64));
            selector_corpus.extend(corpus);
            general.insert(d, Arc::new(kb));
        }
        let selector_template = NaiveBayesSelector::fit(&language, &selector_corpus);

        // "we cache general decoders at both the sender edge server i and
        // receiver edge server j, which means d_j^m = d_i^m" — and "general
        // models remain the same during all time", so every edge holds the
        // one frozen model per domain: a window's messages then share a
        // serving model across edges and pack into one NN pass per domain.
        let n_edges = config.n_edges.max(2);
        let servers = (0..n_edges)
            .map(|i| {
                let shared = general.iter().map(|(&d, kb)| (d, Arc::clone(kb)));
                EdgeServer::new(i, shared.collect(), config.user_cache_bytes)
            })
            .collect();

        let channel: Box<dyn Channel + Send + Sync> = match config.channel {
            ChannelModel::Awgn { snr_db } => Box::new(AwgnChannel::new(snr_db)),
            ChannelModel::Rayleigh { snr_db } => Box::new(RayleighChannel::new(snr_db)),
        };

        SemanticEdgeSystem {
            config,
            language,
            servers,
            channel,
            selector_template,
            selectors: HashMap::new(),
            users: HashMap::new(),
            next_user: 1,
            metrics: SystemMetrics::default(),
            obs: Recorder::disabled(),
            stream_counters: StreamCounters::default(),
            quant: None,
            links: HashMap::new(),
            adapt_messages: 0,
            adapt_switches: 0,
            migrations: 0,
            seed,
        }
    }

    /// Switches message serving to the int8 quantized inference path: the
    /// frozen general KBs are converted via [`quantize_model`] up front, and
    /// user-specific models are quantized lazily on first use (re-quantized
    /// whenever a training round updates them). Quantization trades a
    /// bounded task-accuracy loss for ~4x smaller model bytes and integer
    /// arithmetic in the encode/decode hot path; training always runs in
    /// f32 — only inference is quantized.
    pub fn enable_quantized_serving(&mut self) {
        let general = Domain::ALL
            .iter()
            .map(|&d| {
                let QuantizedKb {
                    encoder, decoder, ..
                } = quantize_model(self.servers[0].general_kb(d));
                (d, (Arc::new(encoder), Arc::new(decoder)))
            })
            .collect();
        self.quant = Some(QuantServing {
            general,
            user_encoders: HashMap::new(),
            user_decoders: HashMap::new(),
        });
    }

    /// Returns serving to the f32 path and drops all cached int8 twins.
    pub fn disable_quantized_serving(&mut self) {
        self.quant = None;
    }

    /// Whether messages are currently served by the quantized path.
    pub fn quantized_serving(&self) -> bool {
        self.quant.is_some()
    }

    /// Attaches an observability recorder: message/training/sync stages are
    /// timed, lifecycle events (training triggers, sync rejections with
    /// cause, resyncs, evictions, domain misselections) are journaled, and
    /// every edge server's user-model cache is instrumented with a clone.
    /// The default is the disabled recorder, whose overhead is one branch
    /// per site.
    pub fn attach_recorder(&mut self, recorder: Recorder) {
        for s in &mut self.servers {
            s.set_recorder(recorder.clone());
        }
        self.stream_counters = StreamCounters::resolve(&recorder);
        self.obs = recorder;
    }

    /// The attached recorder (disabled unless [`Self::attach_recorder`] was
    /// called).
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Captures a unified observability snapshot: the recorder's stage
    /// histograms and event journal, plus [`SystemMetrics`], every edge's
    /// cache statistics, receiver-side sync counters, and transport
    /// counters, all published as `system_*` / `cache_*` / `receiver_*` /
    /// `transport_*` counters and derived-rate gauges. Publishing uses
    /// absolute values, so repeated snapshots never double-count. Works on
    /// an un-instrumented system too (a fresh deterministic recorder is
    /// used, so the snapshot carries the counters but no timings).
    pub fn observability_snapshot(&self) -> Snapshot {
        let rec = if self.obs.is_enabled() {
            self.obs.clone()
        } else {
            Recorder::with_ticks()
        };
        let m = self.metrics();
        rec.set_counter("system_messages", m.messages);
        rec.set_counter("system_tokens", m.tokens);
        rec.set_counter("system_correct_tokens", m.correct_tokens);
        rec.set_counter("system_selection_correct", m.selection_correct);
        rec.set_counter("system_payload_symbols", m.payload_symbols);
        rec.set_counter("system_sync_bytes", m.sync_bytes);
        rec.set_counter("system_sync_rejected", m.sync_rejected);
        rec.set_counter("system_sync_rejected_decode", m.sync_rej_decode);
        rec.set_counter("system_sync_rejected_gap", m.sync_rej_gap);
        rec.set_counter("system_sync_rejected_digest", m.sync_rej_digest);
        rec.set_counter("system_sync_rejected_other", m.sync_rej_other);
        rec.set_counter("system_sync_resyncs", m.sync_resyncs);
        rec.set_counter("system_trainings", m.trainings);
        rec.set_counter("system_user_model_messages", m.user_model_messages);
        rec.set_counter("cache_hits", m.user_cache.hits);
        rec.set_counter("cache_misses", m.user_cache.misses);
        rec.set_counter("cache_evictions", m.user_cache.evictions);
        rec.set_counter("cache_insertions", m.user_cache.insertions);
        rec.set_counter("cache_bytes_evicted", m.user_cache.bytes_evicted);
        rec.set_counter("cache_rejected", m.user_cache.rejected);
        let mut recv = semcom_fl::ReceiverStats::default();
        let mut transport = semcom_fl::TransportStats::default();
        for s in &self.servers {
            let r = s.receiver_stats_total();
            recv.applied += r.applied;
            recv.applied_full += r.applied_full;
            recv.stale += r.stale;
            recv.rej_decode += r.rej_decode;
            recv.rej_gap += r.rej_gap;
            recv.rej_digest += r.rej_digest;
            recv.rej_desync += r.rej_desync;
            recv.rej_layout += r.rej_layout;
            transport.merge(s.transport_stats());
        }
        rec.set_counter("receiver_applied", recv.applied);
        rec.set_counter("receiver_applied_full", recv.applied_full);
        rec.set_counter("receiver_stale", recv.stale);
        rec.set_counter("receiver_rej_decode", recv.rej_decode);
        rec.set_counter("receiver_rej_gap", recv.rej_gap);
        rec.set_counter("receiver_rej_digest", recv.rej_digest);
        rec.set_counter("receiver_rej_desync", recv.rej_desync);
        rec.set_counter("receiver_rej_layout", recv.rej_layout);
        rec.set_counter("transport_rounds", transport.rounds);
        rec.set_counter("transport_frames_sent", transport.frames_sent);
        rec.set_counter("transport_wire_bytes", transport.wire_bytes);
        rec.set_counter("transport_retries", transport.retries);
        rec.set_counter("transport_resyncs", transport.resyncs);
        rec.set_counter("transport_backoff_ticks", transport.backoff_ticks);
        rec.set_counter("transport_failures", transport.failures);
        if self.config.adapt.is_some() || self.migrations > 0 {
            rec.set_counter("adapt_messages", self.adapt_messages);
            rec.set_counter("adapt_switches", self.adapt_switches);
            rec.set_counter("user_migrations", self.migrations);
        }
        rec.set_gauge("system_token_accuracy", m.token_accuracy());
        rec.set_gauge("system_selection_accuracy", m.selection_accuracy());
        rec.set_gauge("system_sync_rejection_rate", m.sync_rejection_rate());
        rec.set_gauge("cache_hit_rate", m.user_cache.hit_rate());
        rec.snapshot()
    }

    /// The synthetic language in use.
    pub fn language(&self) -> &SyntheticLanguage {
        &self.language
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Number of edge servers.
    pub fn edge_count(&self) -> usize {
        self.servers.len()
    }

    /// A specific edge server.
    ///
    /// # Panics
    ///
    /// Panics if `i >= edge_count()`.
    pub fn edge(&self, i: usize) -> &EdgeServer {
        &self.servers[i]
    }

    /// Mutable access to a specific edge server (e.g. to feed received
    /// sync frames in through [`EdgeServer::receive_sync`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= edge_count()`.
    pub fn edge_mut(&mut self, i: usize) -> &mut EdgeServer {
        &mut self.servers[i]
    }

    /// The default sender edge (server 0) — convenience for the two-edge
    /// topology.
    pub fn sender_edge(&self) -> &EdgeServer {
        &self.servers[0]
    }

    /// The default receiver edge (server 1) — convenience for the two-edge
    /// topology.
    pub fn receiver_edge(&self) -> &EdgeServer {
        &self.servers[1]
    }

    /// Registers a user on the default edge pair `0 → 1`, communicating in
    /// `domain` with an idiolect of the given strength (`0.0` = speaks the
    /// canonical lexicon, `1.0` = the default synonym/confusion rates of
    /// [`IdiolectConfig`]).
    pub fn register_user(&mut self, domain: Domain, idiolect_strength: f64) -> UserId {
        self.register_user_at(domain, idiolect_strength, 0, 1)
    }

    /// Registers a user attached to edge `home` whose conversation partner
    /// sits behind edge `peer`.
    ///
    /// # Panics
    ///
    /// Panics if `home` or `peer` is out of range.
    pub fn register_user_at(
        &mut self,
        domain: Domain,
        idiolect_strength: f64,
        home: usize,
        peer: usize,
    ) -> UserId {
        assert!(home < self.servers.len(), "home edge out of range");
        assert!(peer < self.servers.len(), "peer edge out of range");
        let id = self.next_user;
        self.next_user += 1;
        let idiolect = Idiolect::sample(
            &self.language,
            domain,
            IdiolectConfig::with_strength(idiolect_strength),
            derive_seed(self.seed, 100 + id),
        );
        self.users.insert(
            id,
            UserProfile {
                domain,
                idiolect,
                home,
                peer,
            },
        );
        let selector: Box<dyn DomainSelector + Send> = match self.config.selection {
            SelectionStrategy::Contextual { decay } => Box::new(ContextualSelector::new(
                Box::new(self.selector_template.clone()),
                decay,
            )),
            SelectionStrategy::Bandit {
                epsilon,
                learning_rate,
            } => Box::new(BanditSelector::new(
                Box::new(self.selector_template.clone()),
                epsilon,
                learning_rate,
                derive_seed(self.seed, 500 + id),
            )),
        };
        self.selectors.insert(id, selector);
        if let Some(spec) = &self.config.adapt {
            // Per-user link stream, disjoint from composition (1M+) and
            // channel-noise (2M+) seed schedules.
            self.links.insert(
                id,
                LinkState::new(spec, derive_seed(self.seed, 4_000_000 + id)),
            );
        }
        id
    }

    /// Link-adaptation counters: `(messages served adaptively, config
    /// switches made)`. Both zero unless [`SystemConfig::adapt`] is set.
    pub fn adapt_stats(&self) -> (u64, u64) {
        (self.adapt_messages, self.adapt_switches)
    }

    /// The domain a user was registered with.
    ///
    /// # Panics
    ///
    /// Panics if the user is unknown.
    pub fn user_domain(&self, user: UserId) -> Domain {
        self.users[&user].domain
    }

    /// The `(home, peer)` edge pair of a user.
    ///
    /// # Panics
    ///
    /// Panics if the user is unknown.
    pub fn user_edges(&self, user: UserId) -> (usize, usize) {
        let p = &self.users[&user];
        (p.home, p.peer)
    }

    /// Cumulative metrics (cache statistics aggregated over all edges on
    /// read).
    pub fn metrics(&self) -> SystemMetrics {
        let mut m = self.metrics.clone();
        let mut cache = semcom_cache::CacheStats::default();
        let mut sync = 0u64;
        for s in &self.servers {
            let cs = s.user_cache_stats();
            cache.hits += cs.hits;
            cache.misses += cs.misses;
            cache.evictions += cs.evictions;
            cache.insertions += cs.insertions;
            cache.bytes_evicted += cs.bytes_evicted;
            cache.rejected += cs.rejected;
            sync += s.total_sync_bytes();
        }
        m.user_cache = cache;
        m.sync_bytes = sync;
        m
    }

    /// Generates the next message a user would utter (their domain, their
    /// idiolect) without sending it.
    ///
    /// # Panics
    ///
    /// Panics if the user is unknown.
    pub fn compose_message(&self, user: UserId) -> Sentence {
        let profile = self.users.get(&user).expect("user is registered");
        self.compose(user, profile, self.metrics.messages)
    }

    /// The sentence `user` utters as message number `msg_idx`.
    pub(crate) fn compose(&self, user: UserId, profile: &UserProfile, msg_idx: u64) -> Sentence {
        let mut gen = CorpusGenerator::new(
            &self.language,
            derive_seed(self.seed, 1_000_000 + msg_idx * 7 + user),
        );
        gen.sentence(profile.domain, Rendering::Idiolect(&profile.idiolect))
    }

    /// Trains the user model for `key` from its buffer on edge `home` and
    /// synchronizes the decoder to edge `peer`. Returns the sync bytes
    /// spent.
    pub(crate) fn train_and_sync(
        &mut self,
        key: UserKey,
        home: usize,
        peer: usize,
        msg_idx: u64,
    ) -> usize {
        let (user, domain) = key;
        // The f32 model and its synced decoder are about to change; any
        // cached int8 twins are stale the moment training finishes.
        if let Some(q) = &mut self.quant {
            q.user_encoders.remove(&key);
            q.user_decoders.remove(&key);
        }
        let pairs = self.servers[home]
            .buffer_mut(
                key,
                self.config.buffer_capacity,
                self.config.buffer_threshold,
            )
            .training_pairs();
        self.servers[home]
            .buffer_mut(
                key,
                self.config.buffer_capacity,
                self.config.buffer_threshold,
            )
            .clear();
        self.obs.emit(Event::TrainingTriggered {
            user,
            samples: pairs.len() as u64,
        });

        // Fetch the cached user KB, or derive a fresh one from the general
        // model (installing the matching baseline decoder at the peer).
        let mut kb = match self.servers[home].take_user_kb(&key) {
            Some(kb) => kb,
            None => {
                let derived = self.servers[home]
                    .general_kb(domain)
                    .derive_user_model(user, domain);
                self.servers[peer].install_user_decoder(key, derived.clone());
                self.servers[home].drop_session(&key);
                derived
            }
        };
        // The peer may have lost its decoder (the sender model was evicted
        // earlier and the peer copy dropped); reinstall a baseline.
        if self.servers[peer].user_decoder(&key).is_none() {
            self.servers[peer].install_user_decoder(key, kb.clone());
            self.servers[home].drop_session(&key);
        }

        // When tracing, the train and sync legs become children 3/4 of the
        // triggering message's trace tree (the message root is emitted
        // later by the commit; content-derived ids need no ordering).
        let tracing = self.obs.tracing_enabled();
        let trace_root = SpanContext::root(msg_idx);
        let mut trainer = Trainer::new(self.config.finetune);
        let train_t0 = tracing.then(|| self.obs.now_ns());
        let train_span = self.obs.span(Stage::TrainRound);
        trainer.fit_pairs(&mut kb, &pairs, derive_seed(self.seed, 3_000_000 + msg_idx));
        train_span.finish();
        if let Some(t0) = train_t0 {
            let dur = self.obs.now_ns().saturating_sub(t0);
            self.obs.trace_span(TraceSpan::new(
                trace_root.child(3),
                Some(trace_root.span),
                "train_round",
                t0,
                dur,
            ));
        }

        // Decoder gradient/delta to the peer (§II-D), carried as a
        // validated sync frame: the receiver edge checks decode, sequence,
        // layout, and the rolling parameter digest before committing, and a
        // rejected frame triggers graceful degradation to a full-model
        // resync instead of silent drift.
        let sync_t0 = tracing.then(|| self.obs.now_ns());
        let sync_span = self.obs.span(Stage::SyncRound);
        let after = ParamVec::values_of(&kb.decoder.params_mut());
        let protocol = self.config.sync_protocol;
        let baseline = {
            let receiver = self.servers[peer]
                .user_decoder_mut(&key)
                .expect("baseline installed above");
            ParamVec::values_of(&receiver.decoder.params_mut())
        };
        let frame = self.servers[home]
            .session_entry(key, protocol, || baseline)
            .next_frame(&after);
        let frame_bytes = frame.to_bytes();
        let mut bytes = frame_bytes.len();
        let verdict = self.servers[peer]
            .receive_sync(&key, &frame_bytes)
            .expect("baseline installed above");
        let applied = matches!(verdict, semcom_fl::SyncVerdict::Applied { .. });
        if applied {
            self.servers[home]
                .session_mut(&key)
                .expect("session created above")
                .confirm();
        } else {
            // The update was rejected (corrupt, out of sequence, or the
            // session desynced): fall back to shipping the full model.
            self.metrics.sync_rejected += 1;
            self.metrics.sync_resyncs += 1;
            let cause = classify_rejection(&verdict);
            match cause {
                RejectCause::Decode => self.metrics.sync_rej_decode += 1,
                RejectCause::SeqGap => self.metrics.sync_rej_gap += 1,
                RejectCause::Digest => self.metrics.sync_rej_digest += 1,
                RejectCause::Desync | RejectCause::Layout | RejectCause::Stale => {
                    self.metrics.sync_rej_other += 1;
                }
            }
            self.obs.emit(Event::SyncRejected {
                user,
                seq: frame.seq,
                cause,
            });
            let resync = self.servers[home]
                .session_mut(&key)
                .expect("session created above")
                .resync_frame(&after);
            self.obs.emit(Event::Resync {
                user,
                seq: resync.seq,
            });
            let resync_bytes = resync.to_bytes();
            bytes += resync_bytes.len();
            let verdict = self.servers[peer]
                .receive_sync(&key, &resync_bytes)
                .expect("baseline installed above");
            if matches!(verdict, semcom_fl::SyncVerdict::Applied { .. }) {
                self.servers[home]
                    .session_mut(&key)
                    .expect("session created above")
                    .confirm();
            } else {
                // Even the resync was refused (e.g. the receiver session
                // was poisoned into expecting a future sequence number):
                // tear the session down and reinstall the decoder outright,
                // the same re-baseline path used after a receiver restart.
                self.servers[home].drop_session(&key);
                self.servers[peer].install_user_decoder(key, kb.clone());
            }
        }
        let t = self.servers[home].transport_mut();
        t.rounds += 1;
        t.frames_sent += if applied { 1 } else { 2 };
        t.wire_bytes += bytes as u64;
        if !applied {
            t.resyncs += 1;
        }
        sync_span.finish();
        if let Some(t0) = sync_t0 {
            let dur = self.obs.now_ns().saturating_sub(t0);
            self.obs.trace_span(TraceSpan::new(
                trace_root.child(4),
                Some(trace_root.span),
                "sync_round",
                t0,
                dur,
            ));
        }

        // Cache the trained model; cost = estimated re-establishment time.
        let cost = pairs.len() as f64 * self.config.finetune.epochs as f64 * 1e-3;
        let evicted = self.servers[home].store_user_kb(key, kb, cost);
        for ev in evicted {
            self.obs.emit(Event::CacheEviction {
                user: ev.0,
                domain: ev.1.index() as u8,
            });
            // The evicted key may belong to a user with a different peer.
            let ev_peer = self.users.get(&ev.0).map(|p| p.peer).unwrap_or(peer);
            self.servers[ev_peer].drop_user_decoder(&ev);
            self.servers[home].drop_session(&ev);
            if let Some(q) = &mut self.quant {
                q.user_encoders.remove(&ev);
                q.user_decoders.remove(&ev);
            }
        }
        bytes
    }

    /// Moves a user's sender-side session from their current home edge to
    /// edge `to` (mobility handoff): per-domain mismatch buffers travel
    /// with the user, and each cached user model is re-established at the
    /// destination by carrying its trained decoder state over `link` with
    /// the validated sync transport (destination baseline = the same
    /// general-model derivation both edges share). A transfer round that
    /// exhausts the transport budget drops that model — the destination
    /// re-derives and retrains it from subsequent traffic, the same
    /// recovery path as an eviction. The peer edge and its synchronized
    /// decoders are untouched; the sender sync sessions are re-baselined
    /// at the new home on the next training round.
    ///
    /// Deterministic for a given `(seed, migration order)`; emits
    /// [`Event::UserMigrated`] on the attached recorder.
    ///
    /// # Panics
    ///
    /// Panics if the user is unknown or `to` is out of range.
    pub fn migrate_user(
        &mut self,
        user: UserId,
        to: usize,
        link: &mut dyn SyncLink,
    ) -> MigrationReport {
        assert!(to < self.servers.len(), "destination edge out of range");
        let from = self.users.get(&user).expect("user is registered").home;
        let mut report = MigrationReport {
            user,
            from,
            to,
            models_moved: 0,
            models_dropped: 0,
            buffers_moved: 0,
            transport: TransportStats::default(),
        };
        if from == to {
            return report;
        }
        let mut rng = seeded_rng(derive_seed(self.seed, 0x4D49_0000 + self.migrations));
        let transport_config = TransportConfig::default();
        // Migration traces live in their own trace-id range (high byte 1)
        // so they never collide with message traces. Without tracing the
        // transport sees a disabled recorder — byte-identical journals and
        // histograms to the pre-trace behavior.
        let tracing = self.obs.tracing_enabled();
        let trace_root = SpanContext::root((1u64 << 56) | self.migrations);
        let trace_t0 = tracing.then(|| self.obs.now_ns());
        let transport_rec = if tracing {
            self.obs.clone()
        } else {
            Recorder::disabled()
        };
        for d in Domain::ALL {
            let key: UserKey = (user, d);
            if let Some(buf) = self.servers[from].take_buffer(&key) {
                self.servers[to].install_buffer(key, buf);
                report.buffers_moved += 1;
            }
            // The old sender session's baseline is meaningless at the new
            // home; the next training round re-baselines against the
            // peer's current decoder.
            self.servers[from].drop_session(&key);
            if let Some(q) = &mut self.quant {
                q.user_encoders.remove(&key);
                q.user_decoders.remove(&key);
            }
            let Some(mut kb) = self.servers[from].take_user_kb(&key) else {
                continue;
            };
            // Decoder-copy migration over the sync transport: both edges
            // can derive the identical baseline from the shared general
            // model, so only the trained state rides the backhaul.
            let after = ParamVec::values_of(&kb.decoder.params_mut());
            let baseline = {
                let mut derived = self.servers[to].general_kb(d).derive_user_model(user, d);
                ParamVec::values_of(&derived.decoder.params_mut())
            };
            let mut sender = SyncSender::new(self.config.sync_protocol, baseline.clone());
            let mut receiver = SyncReceiver::new();
            let mut params = baseline;
            let outcome = run_sync_round(
                &mut sender,
                &mut receiver,
                &mut params,
                &after,
                link,
                &mut rng,
                &transport_config,
                &mut report.transport,
                &transport_rec,
                user,
                tracing.then_some((trace_root, d.index() as u64)),
            );
            match outcome {
                RoundOutcome::Synced { .. } => {
                    // The trained state arrived intact: install the model
                    // at its new home, costed like a re-establishment.
                    let cost = self.config.buffer_threshold as f64
                        * self.config.finetune.epochs as f64
                        * 1e-3;
                    let evicted = self.servers[to].store_user_kb(key, kb, cost);
                    report.models_moved += 1;
                    for ev in evicted {
                        self.obs.emit(Event::CacheEviction {
                            user: ev.0,
                            domain: ev.1.index() as u8,
                        });
                        let ev_peer = self.users.get(&ev.0).map(|p| p.peer).unwrap_or(to);
                        self.servers[ev_peer].drop_user_decoder(&ev);
                        self.servers[to].drop_session(&ev);
                        if let Some(q) = &mut self.quant {
                            q.user_encoders.remove(&ev);
                            q.user_decoders.remove(&ev);
                        }
                    }
                }
                RoundOutcome::Failed => {
                    report.models_dropped += 1;
                }
            }
        }
        self.users.get_mut(&user).expect("user is registered").home = to;
        self.obs.emit(Event::UserMigrated {
            user,
            from: from as u8,
            to: to as u8,
        });
        if let Some(t0) = trace_t0 {
            let dur = self.obs.now_ns().saturating_sub(t0);
            self.obs
                .trace_span(TraceSpan::new(trace_root, None, "migration", t0, dur));
        }
        self.migrations += 1;
        report
    }

    /// Simulates a crash/restart of edge server `i`: every user model,
    /// receiver decoder, buffer, and sync session on it is lost; the
    /// durable general KBs survive. The adaptation loop re-establishes
    /// user state on subsequent traffic (re-derivation from the general
    /// models and fresh sync baselines), so this is the system's
    /// failure-recovery path.
    ///
    /// # Panics
    ///
    /// Panics if `i >= edge_count()`.
    pub fn restart_edge(&mut self, i: usize) {
        assert!(i < self.servers.len(), "edge index out of range");
        self.servers[i].restart();
        // All user state on this edge is gone; drop every cached int8 user
        // twin rather than track which keys touched edge `i`.
        if let Some(q) = &mut self.quant {
            q.user_encoders.clear();
            q.user_decoders.clear();
        }
        // Senders whose peer decoders just vanished must not keep shipping
        // deltas against a baseline the peer no longer has: their next
        // training round detects the missing decoder and re-baselines, but
        // the session must be dropped so the new baseline is used.
        let stale: Vec<(u64, usize)> = self
            .users
            .iter()
            .filter(|(_, p)| p.peer == i && p.home != i)
            .map(|(&u, p)| (u, p.home))
            .collect();
        for (user, home) in stale {
            for d in Domain::ALL {
                self.servers[home].drop_session(&(user, d));
            }
        }
    }

    /// Measures the user's current end-to-end semantic accuracy on `n`
    /// fresh messages **without** side effects (no buffers, no stats, no
    /// training).
    ///
    /// # Panics
    ///
    /// Panics if the user is unknown.
    pub fn probe_accuracy(&self, user: UserId, n: usize, seed: u64) -> f64 {
        let profile = &self.users[&user];
        let mut gen = CorpusGenerator::new(&self.language, derive_seed(seed, 5));
        let mut rng = seeded_rng(derive_seed(seed, 6));
        let mut correct = 0usize;
        let mut total = 0usize;
        for _ in 0..n {
            let s = gen.sentence(profile.domain, Rendering::Idiolect(&profile.idiolect));
            let key: UserKey = (user, profile.domain);
            let enc = self.servers[profile.home]
                .peek_user_kb(&key)
                .unwrap_or_else(|| self.servers[profile.home].general_kb(profile.domain));
            let dec = self.servers[profile.peer]
                .user_decoder(&key)
                .unwrap_or_else(|| self.servers[profile.peer].general_kb(profile.domain));
            let decoded = enc.transmit(dec, &s.tokens, self.channel.as_ref(), &mut rng);
            total += s.concepts.len();
            correct += s
                .concepts
                .iter()
                .zip(&decoded)
                .filter(|(a, b)| a == b)
                .count();
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }
}

/// The journal/metrics cause for a non-applied sync verdict.
fn classify_rejection(verdict: &semcom_fl::SyncVerdict) -> RejectCause {
    use semcom_fl::{SyncReject, SyncVerdict};
    match verdict {
        SyncVerdict::Rejected(SyncReject::Decode(_)) => RejectCause::Decode,
        SyncVerdict::Rejected(SyncReject::SeqGap { .. }) => RejectCause::SeqGap,
        SyncVerdict::Rejected(SyncReject::DigestMismatch) => RejectCause::Digest,
        SyncVerdict::Rejected(SyncReject::Desynced) => RejectCause::Desync,
        SyncVerdict::Rejected(SyncReject::Layout) => RejectCause::Layout,
        SyncVerdict::Stale { .. } | SyncVerdict::Applied { .. } => RejectCause::Stale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MessageOutcome;
    use semcom_codec::CodecConfig;

    fn system() -> SemanticEdgeSystem {
        SemanticEdgeSystem::build(SystemConfig::tiny(), 42)
    }

    #[test]
    fn build_rejects_a_bad_buffer_config_before_pretraining() {
        for (capacity, threshold) in [(10, 11), (0, 0)] {
            let config = SystemConfig {
                buffer_capacity: capacity,
                buffer_threshold: threshold,
                ..SystemConfig::tiny()
            };
            let err = std::panic::catch_unwind(|| SemanticEdgeSystem::build(config, 1))
                .expect_err("build must reject the buffer config");
            let message = *err.downcast::<String>().unwrap();
            assert!(
                message.contains("buffer_capacity") && message.contains("buffer_threshold"),
                "{message}"
            );
        }
    }

    #[test]
    fn every_edge_holds_the_same_general_kb_per_domain() {
        let mut s = SemanticEdgeSystem::build(
            SystemConfig {
                n_edges: 3,
                ..SystemConfig::tiny()
            },
            1,
        );
        let shared = |s: &SemanticEdgeSystem, d| {
            let last = s.edge_count() - 1;
            Arc::ptr_eq(
                &s.edge(0).general_kb_shared(d),
                &s.edge(last).general_kb_shared(d),
            )
        };
        for d in Domain::ALL {
            // d_j^m = d_i^m: not equal copies, the one frozen model.
            assert!(shared(&s, d), "{d:?} after build");
        }
        s.restart_edge(2);
        for d in Domain::ALL {
            assert!(shared(&s, d), "{d:?} after restart_edge");
        }
    }

    #[test]
    fn canonical_user_communicates_accurately_with_general_models() {
        let mut s = system();
        let u = s.register_user(Domain::It, 0.0);
        let mut acc = 0.0;
        let n = 10;
        for _ in 0..n {
            acc += s.send_message(u).accuracy();
        }
        assert!(acc / n as f64 > 0.7, "accuracy {}", acc / n as f64);
    }

    #[test]
    fn idiolectic_user_triggers_training_and_sync() {
        let mut s = system();
        let u = s.register_user(Domain::News, 1.0);
        let mut trained = false;
        let mut total_sync = 0;
        for _ in 0..40 {
            let o = s.send_message(u);
            trained |= o.trained;
            total_sync += o.sync_bytes;
        }
        assert!(trained, "buffer never filled in 40 messages");
        assert!(total_sync > 0, "no decoder sync traffic");
        let key = (u, Domain::News);
        assert!(s.sender_edge().peek_user_kb(&key).is_some());
        assert!(s.receiver_edge().user_decoder(&key).is_some());
    }

    #[test]
    fn user_model_improves_idiolectic_accuracy() {
        let mut s = system();
        // A strongly idiolectic user (rates beyond the default profile),
        // so the general model has plenty of mismatch to fix.
        let u = s.register_user(Domain::It, 2.5);
        let before = s.probe_accuracy(u, 25, 9);
        for _ in 0..120 {
            s.send_message(u);
        }
        let after = s.probe_accuracy(u, 25, 9);
        assert!(
            after > before + 0.05,
            "user model should help: before {before}, after {after}"
        );
    }

    #[test]
    fn metrics_accumulate() {
        let mut s = system();
        let u = s.register_user(Domain::Medical, 0.5);
        for _ in 0..15 {
            s.send_message(u);
        }
        let m = s.metrics();
        assert_eq!(m.messages, 15);
        assert!(m.tokens >= 15);
        assert!(m.payload_symbols > 0);
        assert!(m.selection_accuracy() > 0.0);
        assert!(m.user_cache.lookups() >= 15);
    }

    #[test]
    fn build_is_deterministic() {
        let mut a = system();
        let mut b = system();
        let ua = a.register_user(Domain::It, 0.8);
        let ub = b.register_user(Domain::It, 0.8);
        for _ in 0..5 {
            let oa = a.send_message(ua);
            let ob = b.send_message(ub);
            assert_eq!(oa.sent, ob.sent);
            assert_eq!(oa.decoded, ob.decoded);
        }
    }

    #[test]
    fn multi_edge_topology_routes_per_user_pairs() {
        let config = SystemConfig {
            n_edges: 3,
            ..SystemConfig::tiny()
        };
        let mut s = SemanticEdgeSystem::build(config, 11);
        assert_eq!(s.edge_count(), 3);
        // Three users on distinct directed edge pairs.
        let u01 = s.register_user_at(Domain::It, 1.5, 0, 1);
        let u12 = s.register_user_at(Domain::News, 1.5, 1, 2);
        let u20 = s.register_user_at(Domain::Medical, 1.5, 2, 0);
        for _ in 0..50 {
            s.send_message(u01);
            s.send_message(u12);
            s.send_message(u20);
        }
        // Each user's model is cached on their home edge only, and each
        // peer edge holds the matching synced decoder.
        assert!(s.edge(0).peek_user_kb(&(u01, Domain::It)).is_some());
        assert!(s.edge(1).user_decoder(&(u01, Domain::It)).is_some());
        assert!(s.edge(1).peek_user_kb(&(u12, Domain::News)).is_some());
        assert!(s.edge(2).user_decoder(&(u12, Domain::News)).is_some());
        assert!(s.edge(2).peek_user_kb(&(u20, Domain::Medical)).is_some());
        assert!(s.edge(0).user_decoder(&(u20, Domain::Medical)).is_some());
        // No cross-contamination.
        assert!(s.edge(2).peek_user_kb(&(u01, Domain::It)).is_none());
        assert!(s.edge(0).user_decoder(&(u12, Domain::News)).is_none());
    }

    #[test]
    fn edge_restart_loses_user_state_and_recovers() {
        let mut s = system();
        let u = s.register_user(Domain::It, 2.0);
        for _ in 0..80 {
            s.send_message(u);
        }
        let adapted = s.probe_accuracy(u, 20, 9);
        assert!(s.sender_edge().peek_user_kb(&(u, Domain::It)).is_some());

        // Crash the sender edge: the user model is gone, accuracy falls
        // back toward the general-model level.
        s.restart_edge(0);
        assert!(s.sender_edge().peek_user_kb(&(u, Domain::It)).is_none());
        assert_eq!(s.sender_edge().cached_user_models(), 0);

        // Traffic re-establishes the user model.
        for _ in 0..80 {
            s.send_message(u);
        }
        let recovered = s.probe_accuracy(u, 20, 9);
        assert!(s.sender_edge().peek_user_kb(&(u, Domain::It)).is_some());
        assert!(
            recovered > adapted - 0.1,
            "recovery too weak: adapted {adapted}, recovered {recovered}"
        );
    }

    #[test]
    fn receiver_edge_restart_recovers_via_rebaseline() {
        let mut s = system();
        let u = s.register_user(Domain::News, 2.0);
        for _ in 0..80 {
            s.send_message(u);
        }
        s.restart_edge(1); // receiver loses the synced decoder
        assert!(s.receiver_edge().user_decoder(&(u, Domain::News)).is_none());
        for _ in 0..80 {
            s.send_message(u);
        }
        // Sync re-established a receiver decoder and accuracy is healthy.
        assert!(s.receiver_edge().user_decoder(&(u, Domain::News)).is_some());
        assert!(s.probe_accuracy(u, 20, 5) > 0.75);
    }

    #[test]
    fn tampered_sync_frames_are_rejected_without_poisoning_state() {
        use semcom_fl::{param_digest, SyncFrame, SyncReject, SyncUpdate, SyncVerdict};
        let mut s = system();
        let u = s.register_user(Domain::News, 2.0);
        for _ in 0..60 {
            s.send_message(u);
        }
        let key = (u, Domain::News);
        let before = {
            let kb = s
                .edge_mut(1)
                .user_decoder_mut(&key)
                .expect("decoder synced");
            ParamVec::values_of(&kb.decoder.params_mut())
        };
        let expected = s
            .edge(1)
            .sync_receiver(&key)
            .expect("session live")
            .expected_seq();

        // An in-sequence delta whose digest does not vouch for the result:
        // must be rejected by the digest check, receiver state untouched.
        let mut delta = before.zeros_like();
        delta.as_mut_slice()[0] = 0.5;
        let forged = SyncFrame {
            seq: expected,
            digest: 0xBAD_C0DE,
            update: SyncUpdate::Delta(delta),
        };
        let verdict = s
            .edge_mut(1)
            .receive_sync(&key, &forged.to_bytes())
            .unwrap();
        assert_eq!(verdict, SyncVerdict::Rejected(SyncReject::DigestMismatch));

        // Undecodable garbage is rejected at the wire layer.
        let verdict = s
            .edge_mut(1)
            .receive_sync(&key, &[0x00, 0x01, 0x02])
            .unwrap();
        assert!(matches!(
            verdict,
            SyncVerdict::Rejected(SyncReject::Decode(_))
        ));

        let after = {
            let kb = s
                .edge_mut(1)
                .user_decoder_mut(&key)
                .expect("decoder synced");
            ParamVec::values_of(&kb.decoder.params_mut())
        };
        assert_eq!(param_digest(&before), param_digest(&after));
        let r = s.edge(1).sync_receiver(&key).unwrap().stats();
        assert!(r.rej_digest >= 1 && r.rej_decode >= 1, "{r:?}");
    }

    #[test]
    fn poisoned_receiver_session_recovers_and_counts_resyncs() {
        use semcom_fl::{param_digest, SyncFrame, SyncUpdate, SyncVerdict};
        let mut s = system();
        let u = s.register_user(Domain::News, 2.0);
        let mut trained_once = false;
        for _ in 0..60 {
            trained_once |= s.send_message(u).trained;
        }
        assert!(trained_once, "no training in 60 messages");
        let key = (u, Domain::News);

        // Poison the receiver session: a forged full frame far ahead in
        // sequence space (with a self-consistent digest) re-anchors the
        // receiver at seq 10_000, so the sender's next genuine update
        // looks stale.
        let params = {
            let kb = s
                .edge_mut(1)
                .user_decoder_mut(&key)
                .expect("decoder synced");
            ParamVec::values_of(&kb.decoder.params_mut())
        };
        let forged = SyncFrame {
            seq: 9_999,
            digest: param_digest(&params),
            update: SyncUpdate::Full(params),
        };
        let verdict = s
            .edge_mut(1)
            .receive_sync(&key, &forged.to_bytes())
            .unwrap();
        assert!(matches!(verdict, SyncVerdict::Applied { full: true, .. }));

        // Subsequent traffic hits the stale-rejection, escalates through
        // the resync fallback, and ultimately re-baselines the session —
        // all without panicking, and the metrics record the repair.
        let rejected_before = s.metrics().sync_rejected;
        let mut trained_again = false;
        for _ in 0..80 {
            trained_again |= s.send_message(u).trained;
        }
        assert!(trained_again, "no training after poisoning");
        let m = s.metrics();
        assert!(m.sync_rejected > rejected_before, "{m:?}");
        assert!(m.sync_resyncs > 0, "{m:?}");
        // The session healed: sender shadow and receiver decoder agree.
        let rx = {
            let kb = s
                .edge_mut(1)
                .user_decoder_mut(&key)
                .expect("decoder synced");
            ParamVec::values_of(&kb.decoder.params_mut())
        };
        let shadow_digest = {
            let home = s.edge_mut(0);
            home.session_mut(&key)
                .map(|sess| param_digest(sess.shadow()))
        };
        if let Some(d) = shadow_digest {
            assert_eq!(d, param_digest(&rx));
        }
        assert!(s.probe_accuracy(u, 20, 5) > 0.7);
    }

    #[test]
    fn attached_recorder_times_stages_and_journals_events() {
        let mut s = system();
        let rec = Recorder::with_ticks();
        s.attach_recorder(rec.clone());
        let u = s.register_user(Domain::News, 2.0);
        let mut trainings = 0u64;
        for _ in 0..40 {
            if s.send_message(u).trained {
                trainings += 1;
            }
        }
        assert!(trainings > 0, "no training in 40 messages");
        assert_eq!(rec.stage_histogram(Stage::Message).unwrap().count(), 40);
        // Every message reports the whole stage waterfall, and nothing
        // duplicates the histogram counts as counters.
        for stage in [
            Stage::Ingress,
            Stage::SemanticEncode,
            Stage::Channel,
            Stage::SemanticDecode,
            Stage::Commit,
            Stage::SemanticTransmit,
        ] {
            assert_eq!(rec.stage_histogram(stage).unwrap().count(), 40, "{stage:?}");
        }
        assert_eq!(
            rec.stage_histogram(Stage::TrainRound).unwrap().count(),
            trainings
        );
        assert_eq!(
            rec.stage_histogram(Stage::SyncRound).unwrap().count(),
            trainings
        );
        // Cache spans flow through the edge servers' instrumented caches.
        assert!(rec.stage_histogram(Stage::CacheLookup).unwrap().count() >= 40);
        let snap = s.observability_snapshot();
        assert!(!snap
            .counters
            .iter()
            .any(|(name, _)| name.starts_with("pipeline_")));
        assert!(snap
            .events
            .iter()
            .any(|r| matches!(r.event, Event::TrainingTriggered { user, .. } if user == u)));
        assert_eq!(snap.counter("system_messages"), Some(40));
        assert_eq!(snap.counter("system_trainings"), Some(trainings));
        assert!(snap.counter("receiver_applied").unwrap_or(0) > 0);
        assert!(snap.gauge("system_token_accuracy").unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn observability_snapshot_works_without_attached_recorder() {
        let mut s = system();
        let u = s.register_user(Domain::It, 0.5);
        for _ in 0..5 {
            s.send_message(u);
        }
        assert!(!s.recorder().is_enabled());
        let snap = s.observability_snapshot();
        assert_eq!(snap.counter("system_messages"), Some(5));
        // Un-instrumented: counters only, no stage timings or events.
        assert_eq!(snap.histogram("message").unwrap().count, 0);
        assert!(snap.events.is_empty());
        // Snapshots are idempotent (absolute republish, no double count).
        assert_eq!(
            s.observability_snapshot().counter("system_messages"),
            Some(5)
        );
        // And the export round-trips.
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn rejected_syncs_are_classified_by_cause() {
        use semcom_fl::{param_digest, SyncFrame, SyncUpdate, SyncVerdict};
        let mut s = system();
        let rec = Recorder::with_ticks();
        s.attach_recorder(rec.clone());
        let u = s.register_user(Domain::News, 2.0);
        for _ in 0..60 {
            s.send_message(u);
        }
        let key = (u, Domain::News);
        // Poison the receiver session far ahead in sequence space so the
        // next genuine update is Stale → classified as "other".
        let params = {
            let kb = s
                .edge_mut(1)
                .user_decoder_mut(&key)
                .expect("decoder synced");
            ParamVec::values_of(&kb.decoder.params_mut())
        };
        let forged = SyncFrame {
            seq: 9_999,
            digest: param_digest(&params),
            update: SyncUpdate::Full(params),
        };
        let verdict = s
            .edge_mut(1)
            .receive_sync(&key, &forged.to_bytes())
            .unwrap();
        assert!(matches!(verdict, SyncVerdict::Applied { .. }));
        for _ in 0..80 {
            s.send_message(u);
        }
        let m = s.metrics();
        assert!(m.sync_rejected > 0);
        assert_eq!(
            m.sync_rej_decode + m.sync_rej_gap + m.sync_rej_digest + m.sync_rej_other,
            m.sync_rejected,
            "per-cause counters must partition the total: {m:?}"
        );
        assert!(m.sync_rej_other > 0, "stale rejections classified: {m:?}");
        assert!(m.sync_rejection_rate() > 0.0);
        let snap = s.observability_snapshot();
        assert!(snap
            .events
            .iter()
            .any(|r| matches!(r.event, Event::SyncRejected { .. })));
        assert!(snap
            .events
            .iter()
            .any(|r| matches!(r.event, Event::Resync { .. })));
    }

    #[test]
    fn quantized_serving_tracks_f32_accuracy() {
        let mut f32_sys = system();
        let mut int8_sys = system();
        let uf = f32_sys.register_user(Domain::News, 1.5);
        let uq = int8_sys.register_user(Domain::News, 1.5);
        int8_sys.enable_quantized_serving();
        assert!(int8_sys.quantized_serving());
        // Full adaptation loop on both paths: training and sync run in f32
        // either way; only inference differs.
        for _ in 0..60 {
            f32_sys.send_message(uf);
            int8_sys.send_message(uq);
        }
        let mf = f32_sys.metrics();
        let mq = int8_sys.metrics();
        assert!(
            mq.trainings > 0,
            "quantized serving must not stall training"
        );
        let loss = mf.token_accuracy() - mq.token_accuracy();
        assert!(
            loss < 0.05,
            "int8 serving accuracy loss too large: f32 {} vs int8 {}",
            mf.token_accuracy(),
            mq.token_accuracy()
        );
        int8_sys.disable_quantized_serving();
        assert!(!int8_sys.quantized_serving());
        int8_sys.send_message(uq); // f32 path serves again without issue
    }

    #[test]
    fn quantized_serving_batch_uses_user_models() {
        let mut s = system();
        s.enable_quantized_serving();
        let u = s.register_user(Domain::It, 2.0);
        let mut used_user_model = false;
        for _ in 0..40 {
            for o in s.send_stream(&[u]) {
                used_user_model |= o.used_user_model;
            }
        }
        assert!(used_user_model, "user model never served");
        assert!(s.probe_accuracy(u, 20, 9) > 0.5);
    }

    #[test]
    fn same_edge_pair_is_allowed() {
        let mut s = system();
        let u = s.register_user_at(Domain::It, 1.0, 0, 0);
        for _ in 0..10 {
            s.send_message(u);
        }
        assert_eq!(s.user_edges(u), (0, 0));
    }

    #[test]
    fn adaptive_send_paths_are_equivalent() {
        use semcom_channel::adapt::AdaptSpec;
        let config = SystemConfig {
            adapt: Some(AdaptSpec::standard(CodecConfig::tiny().feature_dim)),
            ..SystemConfig::tiny()
        };
        let mut seq = SemanticEdgeSystem::build(config.clone(), 77);
        let mut stm = SemanticEdgeSystem::build(config, 77);
        let domains = [Domain::It, Domain::News];
        let us: Vec<UserId> = domains.iter().map(|&d| seq.register_user(d, 1.5)).collect();
        let ut: Vec<UserId> = domains.iter().map(|&d| stm.register_user(d, 1.5)).collect();
        for _ in 0..25 {
            let a: Vec<MessageOutcome> = us.iter().map(|&u| seq.send_message(u)).collect();
            let c = stm.send_stream(&ut);
            for (x, z) in a.iter().zip(&c) {
                assert_eq!(x.sent, z.sent);
                assert_eq!(x.decoded, z.decoded);
                assert_eq!(x.symbols, z.symbols);
                assert_eq!(x.trained, z.trained);
            }
        }
        assert_eq!(seq.adapt_stats(), stm.adapt_stats());
        let (msgs, _) = seq.adapt_stats();
        assert_eq!(msgs, 50);
        // Punctured transmits spend fewer symbols than the fixed path
        // would have at least once under the standard 3-row table.
        let full = CodecConfig::tiny().symbols_per_token();
        assert!(
            seq.metrics().payload_symbols < (seq.metrics().tokens as usize * full) as u64,
            "no message was ever punctured"
        );
    }

    #[test]
    fn degenerate_fixed_spec_matches_adapt_none_exactly() {
        use semcom_channel::adapt::{AdaptSpec, LinkConfig};
        use semcom_channel::Modulation;
        let tiny = SystemConfig::tiny();
        let snr_db = match tiny.channel {
            ChannelModel::Awgn { snr_db } => snr_db,
            ChannelModel::Rayleigh { snr_db } => snr_db,
        };
        let fixed = SystemConfig {
            adapt: Some(AdaptSpec::fixed(
                snr_db,
                LinkConfig {
                    modulation: Modulation::Qpsk,
                    code_rate: 0.5,
                    feature_dim: tiny.codec.feature_dim,
                },
            )),
            ..tiny.clone()
        };
        let mut plain = SemanticEdgeSystem::build(tiny, 13);
        let mut degen = SemanticEdgeSystem::build(fixed, 13);
        let up = plain.register_user(Domain::News, 1.5);
        let ud = degen.register_user(Domain::News, 1.5);
        for _ in 0..30 {
            let a = plain.send_message(up);
            let b = degen.send_message(ud);
            assert_eq!(a.sent, b.sent);
            assert_eq!(a.decoded, b.decoded, "degenerate spec must be a no-op");
            assert_eq!(a.symbols, b.symbols);
            assert_eq!(a.trained, b.trained);
            assert_eq!(a.sync_bytes, b.sync_bytes);
        }
        assert_eq!(
            plain.metrics().correct_tokens,
            degen.metrics().correct_tokens
        );
    }

    #[test]
    fn migration_moves_session_state_and_preserves_accuracy() {
        use semcom_fl::PerfectLink;
        let config = SystemConfig {
            n_edges: 3,
            ..SystemConfig::tiny()
        };
        let mut s = SemanticEdgeSystem::build(config, 23);
        let rec = Recorder::with_ticks();
        s.attach_recorder(rec);
        let u = s.register_user_at(Domain::It, 2.0, 0, 1);
        for _ in 0..80 {
            s.send_message(u);
        }
        let key = (u, Domain::It);
        assert!(s.edge(0).peek_user_kb(&key).is_some());
        let adapted = s.probe_accuracy(u, 20, 9);

        let mut link = PerfectLink;
        let report = s.migrate_user(u, 2, &mut link);
        assert_eq!((report.from, report.to), (0, 2));
        assert!(report.models_moved >= 1, "{report:?}");
        assert_eq!(report.models_dropped, 0);
        assert!(report.buffers_moved >= 1, "{report:?}");
        assert!(report.transport.rounds >= 1);
        assert!(report.transport.wire_bytes > 0);
        // The model and its trained weights now live on edge 2; the old
        // home is clean and the peer's synced decoder is untouched.
        assert_eq!(s.user_edges(u), (2, 1));
        assert!(s.edge(0).peek_user_kb(&key).is_none());
        assert!(s.edge(2).peek_user_kb(&key).is_some());
        assert!(s.edge(1).user_decoder(&key).is_some());
        let migrated = s.probe_accuracy(u, 20, 9);
        assert!(
            (migrated - adapted).abs() < 1e-9,
            "handoff must carry the trained model: {adapted} vs {migrated}"
        );
        // Serving continues from the new home, training included.
        for _ in 0..40 {
            s.send_message(u);
        }
        assert!(s.probe_accuracy(u, 20, 9) > 0.5);
        let snap = s.observability_snapshot();
        assert!(snap
            .events
            .iter()
            .any(|r| matches!(r.event, Event::UserMigrated { user, from: 0, to: 2 } if user == u)));
        assert_eq!(snap.counter("user_migrations"), Some(1));
    }

    #[test]
    fn failed_migration_transfer_drops_the_model_and_recovers() {
        use semcom_channel::{FaultConfig, FaultyLink};
        let mut s = system();
        let u = s.register_user(Domain::News, 2.0);
        for _ in 0..80 {
            s.send_message(u);
        }
        let key = (u, Domain::News);
        assert!(s.edge(0).peek_user_kb(&key).is_some());
        // A link that destroys every frame: the transfer round exhausts its
        // budget and the model is dropped rather than installed corrupt.
        let mut link = FaultyLink::new(FaultConfig::uniform(1.0), 3);
        let report = s.migrate_user(u, 1, &mut link);
        assert_eq!(report.models_moved, 0, "{report:?}");
        assert!(report.models_dropped >= 1, "{report:?}");
        assert!(report.transport.failures >= 1);
        assert!(s.edge(1).peek_user_kb(&key).is_none());
        // The eviction-recovery path re-establishes the model from traffic.
        for _ in 0..80 {
            s.send_message(u);
        }
        assert!(s.edge(1).peek_user_kb(&key).is_some());
        assert!(s.probe_accuracy(u, 20, 5) > 0.5);
    }

    #[test]
    #[should_panic(expected = "peer edge out of range")]
    fn out_of_range_edge_panics() {
        let mut s = system();
        s.register_user_at(Domain::It, 0.0, 0, 5);
    }

    #[test]
    #[should_panic(expected = "user is registered")]
    fn unknown_user_panics() {
        let mut s = system();
        s.send_message(999);
    }
}
