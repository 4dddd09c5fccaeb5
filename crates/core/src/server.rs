use semcom_cache::policy::SemanticCost;
use semcom_cache::{CacheStats, ModelCache};
use semcom_codec::KnowledgeBase;
use semcom_fl::{
    DomainBuffer, ReceiverStats, SyncProtocol, SyncReceiver, SyncSender, SyncVerdict,
    TransportStats,
};
use semcom_nn::params::ParamVec;
use semcom_obs::Recorder;
use semcom_text::Domain;
use std::collections::HashMap;
use std::sync::Arc;

/// A `(user, domain)` model key — the unit of user-specific caching.
pub type UserKey = (u64, Domain);

/// One edge server of the paper's Fig. 1.
///
/// Holds the domain-specialized general KBs `{e^m, d^m}` (whose decoders
/// double as the **decoder copies** of §II-C), a byte-budgeted cache of
/// user-specific models, the per-user domain buffers `b_m`, and — in its
/// receiver role — the synchronized user decoders.
pub struct EdgeServer {
    id: usize,
    /// Models are stored behind [`Arc`] so the staged serving pipeline can
    /// hand frozen snapshots to encode/decode workers without cloning
    /// parameters; mutation goes through [`Arc::make_mut`] (copy-on-write,
    /// a no-op while no pipeline slot holds a reference). The general KBs
    /// are never mutated: every edge of a system holds the same `Arc`.
    general: HashMap<Domain, Arc<KnowledgeBase>>,
    /// Sender role: cached user-specific KBs under a byte budget.
    user_kbs: ModelCache<UserKey, Arc<KnowledgeBase>>,
    /// Receiver role: user decoders kept in sync by the sender's updates.
    user_decoders: HashMap<UserKey, Arc<KnowledgeBase>>,
    /// Sender role: per-user-per-domain mismatch buffers.
    buffers: HashMap<UserKey, DomainBuffer>,
    /// Sender role: sequence-numbered sync sessions.
    sessions: HashMap<UserKey, SyncSender>,
    /// Receiver role: validating sync sessions, one per user decoder.
    receivers: HashMap<UserKey, SyncReceiver>,
    /// Sender role: aggregate transport counters (frames, bytes, resyncs).
    transport: TransportStats,
}

impl std::fmt::Debug for EdgeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EdgeServer({}: {} general KBs, {} user KBs cached, {} receiver decoders)",
            self.id,
            self.general.len(),
            self.user_kbs.len(),
            self.user_decoders.len()
        )
    }
}

impl EdgeServer {
    /// Creates a server holding the given pre-trained general KBs, with a
    /// cost-aware ([`SemanticCost`]) user-model cache of `cache_bytes`.
    /// The general KBs are frozen, so a fleet's servers share one `Arc`
    /// per domain.
    pub fn new(
        id: usize,
        general: HashMap<Domain, Arc<KnowledgeBase>>,
        cache_bytes: usize,
    ) -> Self {
        EdgeServer {
            id,
            general,
            user_kbs: ModelCache::new(cache_bytes, Box::new(SemanticCost::new())),
            user_decoders: HashMap::new(),
            buffers: HashMap::new(),
            sessions: HashMap::new(),
            receivers: HashMap::new(),
            transport: TransportStats::default(),
        }
    }

    /// Server id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Attaches an observability recorder to this server's user-model
    /// cache (lookup and insertion timings).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.user_kbs.set_recorder(recorder);
    }

    /// Receiver role: per-cause frame counters summed over every live sync
    /// session on this server. Sessions torn down (decoder dropped or
    /// server restart) take their counts with them.
    pub fn receiver_stats_total(&self) -> ReceiverStats {
        let mut total = ReceiverStats::default();
        for r in self.receivers.values() {
            let s = r.stats();
            total.applied += s.applied;
            total.applied_full += s.applied_full;
            total.stale += s.stale;
            total.rej_decode += s.rej_decode;
            total.rej_gap += s.rej_gap;
            total.rej_digest += s.rej_digest;
            total.rej_desync += s.rej_desync;
            total.rej_layout += s.rej_layout;
        }
        total
    }

    /// The general KB for a domain.
    ///
    /// # Panics
    ///
    /// Panics if no general KB was installed for `domain`.
    pub fn general_kb(&self, domain: Domain) -> &KnowledgeBase {
        self.general
            .get(&domain)
            .expect("general KB installed for every domain at build time")
    }

    /// Shared handle to the general KB for a domain (pipeline ingress
    /// captures these for the encode/decode workers).
    ///
    /// # Panics
    ///
    /// Panics if no general KB was installed for `domain`.
    pub fn general_kb_shared(&self, domain: Domain) -> Arc<KnowledgeBase> {
        Arc::clone(
            self.general
                .get(&domain)
                .expect("general KB installed for every domain at build time"),
        )
    }

    /// Records a user-KB cache lookup (hit/miss statistics) and reports
    /// residency.
    pub fn lookup_user_kb(&mut self, key: &UserKey) -> bool {
        self.user_kbs.get(key).is_some()
    }

    /// Borrows a resident user KB without touching statistics.
    pub fn peek_user_kb(&self, key: &UserKey) -> Option<&KnowledgeBase> {
        self.user_kbs.peek(key).map(Arc::as_ref)
    }

    /// Shared handle to a resident user KB, without touching statistics.
    pub fn peek_user_kb_shared(&self, key: &UserKey) -> Option<Arc<KnowledgeBase>> {
        self.user_kbs.peek(key).map(Arc::clone)
    }

    /// Removes a user KB from the cache (e.g. to train it). If a pipeline
    /// slot still holds the model, the cache's copy is detached from it.
    pub fn take_user_kb(&mut self, key: &UserKey) -> Option<KnowledgeBase> {
        self.user_kbs
            .remove(key)
            .map(|arc| Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Inserts a user KB, returning any evicted keys.
    pub fn store_user_kb(&mut self, key: UserKey, kb: KnowledgeBase, cost: f64) -> Vec<UserKey> {
        let size = kb.size_bytes();
        match self.user_kbs.insert(key, Arc::new(kb), size, cost) {
            semcom_cache::InsertOutcome::Inserted { evicted } => evicted,
            semcom_cache::InsertOutcome::TooLarge => Vec::new(),
        }
    }

    /// User-model cache statistics.
    pub fn user_cache_stats(&self) -> &CacheStats {
        self.user_kbs.stats()
    }

    /// Number of cached user KBs.
    pub fn cached_user_models(&self) -> usize {
        self.user_kbs.len()
    }

    /// Receiver role: the synchronized decoder for a user, if present.
    pub fn user_decoder(&self, key: &UserKey) -> Option<&KnowledgeBase> {
        self.user_decoders.get(key).map(Arc::as_ref)
    }

    /// Receiver role: shared handle to a synchronized user decoder.
    pub fn user_decoder_shared(&self, key: &UserKey) -> Option<Arc<KnowledgeBase>> {
        self.user_decoders.get(key).map(Arc::clone)
    }

    /// Receiver role: mutable access for applying sync updates
    /// (copy-on-write if a pipeline slot still holds the decoder).
    pub fn user_decoder_mut(&mut self, key: &UserKey) -> Option<&mut KnowledgeBase> {
        self.user_decoders.get_mut(key).map(Arc::make_mut)
    }

    /// Receiver role: installs the baseline user decoder and starts a
    /// fresh validating sync session for it (expected sequence number 0 —
    /// the sender session is recreated alongside, so both stay aligned).
    pub fn install_user_decoder(&mut self, key: UserKey, kb: KnowledgeBase) {
        self.user_decoders.insert(key, Arc::new(kb));
        self.receivers.insert(key, SyncReceiver::new());
    }

    /// Receiver role: drops a user decoder (its sender model was evicted)
    /// and the sync session tracking it.
    pub fn drop_user_decoder(&mut self, key: &UserKey) {
        self.user_decoders.remove(key);
        self.receivers.remove(key);
    }

    /// Receiver role: validates a sync frame for `key` and, only if every
    /// check passes (decode, sequence, layout, digest), applies it to the
    /// user decoder. Returns `None` if no decoder is installed for `key`.
    pub fn receive_sync(&mut self, key: &UserKey, frame_bytes: &[u8]) -> Option<SyncVerdict> {
        let kb = Arc::make_mut(self.user_decoders.get_mut(key)?);
        let receiver = self.receivers.entry(*key).or_default();
        let mut params = ParamVec::values_of(&kb.decoder.params_mut());
        let verdict = receiver.receive(frame_bytes, &mut params);
        if matches!(verdict, SyncVerdict::Applied { .. }) {
            params
                .assign_to(&mut kb.decoder.params_mut())
                .expect("receive() only commits layout-checked states");
            kb.bump_version();
        }
        Some(verdict)
    }

    /// Receiver role: the validating sync session for a key, if any.
    pub fn sync_receiver(&self, key: &UserKey) -> Option<&SyncReceiver> {
        self.receivers.get(key)
    }

    /// Number of receiver-side user decoders.
    pub fn receiver_decoders(&self) -> usize {
        self.user_decoders.len()
    }

    /// The buffer `b_m` for a user key, created on first use.
    pub fn buffer_mut(
        &mut self,
        key: UserKey,
        capacity: usize,
        threshold: usize,
    ) -> &mut DomainBuffer {
        self.buffers
            .entry(key)
            .or_insert_with(|| DomainBuffer::new(capacity, threshold))
    }

    /// Read access to a buffer.
    pub fn buffer(&self, key: &UserKey) -> Option<&DomainBuffer> {
        self.buffers.get(key)
    }

    /// Number of per-user-per-domain mismatch buffers resident on this
    /// edge (observability: migration harnesses assert state actually
    /// moved).
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// Number of sender-side sync sessions resident on this edge.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Detaches a buffer from this server (mobility handoff: the samples
    /// travel with the user to the new home edge).
    pub(crate) fn take_buffer(&mut self, key: &UserKey) -> Option<DomainBuffer> {
        self.buffers.remove(key)
    }

    /// Installs a buffer carried over from another edge.
    pub(crate) fn install_buffer(&mut self, key: UserKey, buffer: DomainBuffer) {
        self.buffers.insert(key, buffer);
    }

    pub(crate) fn session_entry(
        &mut self,
        key: UserKey,
        protocol: SyncProtocol,
        baseline: impl FnOnce() -> ParamVec,
    ) -> &mut SyncSender {
        self.sessions
            .entry(key)
            .or_insert_with(|| SyncSender::new(protocol, baseline()))
    }

    pub(crate) fn session_mut(&mut self, key: &UserKey) -> Option<&mut SyncSender> {
        self.sessions.get_mut(key)
    }

    pub(crate) fn drop_session(&mut self, key: &UserKey) {
        self.sessions.remove(key);
    }

    /// Sender role: aggregate sync-transport counters.
    pub fn transport_stats(&self) -> &TransportStats {
        &self.transport
    }

    pub(crate) fn transport_mut(&mut self) -> &mut TransportStats {
        &mut self.transport
    }

    /// Total decoder-sync bytes shipped by this server (frame bytes put on
    /// the wire, headers and resyncs included).
    pub fn total_sync_bytes(&self) -> u64 {
        self.transport.wire_bytes
    }

    /// Simulates a server restart: all volatile state — cached user models,
    /// receiver-side user decoders, buffers, sync sessions — is lost. The
    /// general KBs survive (they live in durable storage; the paper's
    /// "general models remain the same during all time").
    pub fn restart(&mut self) {
        self.user_kbs.clear();
        self.user_decoders.clear();
        self.buffers.clear();
        self.sessions.clear();
        self.receivers.clear();
    }
}
