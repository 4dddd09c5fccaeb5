//! Fault-tolerant sync transport for §II-D decoder synchronization.
//!
//! The in-memory sync path ([`crate::DecoderSync`] + [`SyncUpdate::apply`])
//! assumes a perfect transport. This module makes synchronization survive a
//! real link:
//!
//! * [`SyncFrame`] — a [`SyncUpdate`] wrapped with a sequence number and a
//!   rolling parameter digest, so the receiver can detect loss, replay,
//!   *and* applied-but-wrong states;
//! * [`SyncSender`] / [`SyncReceiver`] — a sequence-numbered session. The
//!   sender keeps a *shadow* of the receiver's committed state and computes
//!   deltas against it (error feedback for free: anything quantization or
//!   sparsification left out is still in `after − shadow` next round); the
//!   receiver verifies every frame against the digest *before* committing,
//!   so a corrupt-but-decodable delta can never poison its parameters;
//! * [`run_sync_round`] — retry with bounded attempts and exponential
//!   backoff, escalating to a [`SyncUpdate::Full`] resync on detected
//!   desync or retry exhaustion (graceful degradation instead of drift);
//! * [`SyncLink`] — the transport abstraction: [`PerfectLink`] (tests),
//!   `semcom_channel::FaultyLink` (frame-plane fault injection), and
//!   [`ArqLink`] (real CRC-framed ARQ over a PHY [`Channel`]).

use crate::sync::{SyncProtocol, SyncUpdate};
use crate::wire::WireError;
use rand::RngCore;
use semcom_channel::{ArqPipeline, Channel, FaultyLink};
use semcom_nn::params::ParamVec;
use semcom_obs::{Event, Recorder, RejectCause, SpanContext, Stage, TraceSpan};

/// First byte of every [`SyncFrame`] wire encoding.
pub const FRAME_MAGIC: u8 = 0xA7;
/// Fixed frame header size: magic + u64 seq + u64 digest.
pub const FRAME_HEADER_BYTES: usize = 17;

/// FNV-1a 64-bit over a byte slice, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Rolling digest of a parameter vector: FNV-1a 64 over the layout (u32 LE
/// rows/cols per shape) and every `f32` bit pattern (LE). Bit-exact and
/// platform-independent; cheap enough to run per sync frame.
pub fn param_digest(pv: &ParamVec) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    for &(r, c) in pv.shapes() {
        h = fnv1a(h, &(r as u32).to_le_bytes());
        h = fnv1a(h, &(c as u32).to_le_bytes());
    }
    for &v in pv.as_slice() {
        h = fnv1a(h, &v.to_bits().to_le_bytes());
    }
    h
}

/// A sync update framed for transport: sequence number + the digest the
/// receiver's parameters must have *after* applying the update.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncFrame {
    /// Monotonic per-session sequence number.
    pub seq: u64,
    /// Expected [`param_digest`] of the post-apply receiver state.
    pub digest: u64,
    /// The payload.
    pub update: SyncUpdate,
}

impl SyncFrame {
    /// Serializes the frame: magic ‖ seq (u64 LE) ‖ digest (u64 LE) ‖
    /// update wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + self.update.wire_bytes());
        out.push(FRAME_MAGIC);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.digest.to_le_bytes());
        out.extend_from_slice(&self.update.to_bytes());
        out
    }

    /// Deserializes a frame.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadTag`] on a wrong magic byte and
    /// [`WireError`] for any malformed payload.
    pub fn from_bytes(buf: &[u8]) -> Result<SyncFrame, WireError> {
        if buf.is_empty() {
            return Err(WireError::Truncated);
        }
        if buf[0] != FRAME_MAGIC {
            return Err(WireError::BadTag(buf[0]));
        }
        if buf.len() < FRAME_HEADER_BYTES {
            return Err(WireError::Truncated);
        }
        let seq = u64::from_le_bytes(buf[1..9].try_into().expect("8 bytes"));
        let digest = u64::from_le_bytes(buf[9..17].try_into().expect("8 bytes"));
        let update = SyncUpdate::from_bytes(&buf[FRAME_HEADER_BYTES..])?;
        Ok(SyncFrame {
            seq,
            digest,
            update,
        })
    }

    /// Wire size: header plus the update's accounted size.
    pub fn wire_bytes(&self) -> usize {
        FRAME_HEADER_BYTES + self.update.wire_bytes()
    }
}

/// Why a frame was rejected by [`SyncReceiver::receive`].
#[derive(Debug, Clone, PartialEq)]
pub enum SyncReject {
    /// The frame failed wire decoding.
    Decode(WireError),
    /// A delta frame skipped ahead of the expected sequence number — an
    /// earlier update was lost, so applying this one would corrupt state.
    SeqGap {
        /// Sequence number carried by the frame.
        got: u64,
        /// Sequence number the receiver expected next.
        expected: u64,
    },
    /// The session is desynced; only a full resync frame is accepted.
    Desynced,
    /// The update applied cleanly but the resulting state's digest did not
    /// match the sender's — the payload was corrupted in flight.
    DigestMismatch,
    /// The update's parameter layout does not match the receiver's model.
    Layout,
}

/// Outcome of offering one received frame to a [`SyncReceiver`].
#[derive(Debug, Clone, PartialEq)]
pub enum SyncVerdict {
    /// The frame was verified and committed.
    Applied {
        /// Its sequence number.
        seq: u64,
        /// Whether it was a full-model frame.
        full: bool,
    },
    /// Duplicate or late frame already superseded; ignored.
    Stale {
        /// Its sequence number.
        seq: u64,
    },
    /// The frame was rejected; receiver state is untouched.
    Rejected(SyncReject),
}

/// Receiver-side counters, summed over a session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// Frames verified and committed.
    pub applied: u64,
    /// Committed frames that were full-model resyncs.
    pub applied_full: u64,
    /// Duplicate/late frames ignored.
    pub stale: u64,
    /// Frames failing wire decode.
    pub rej_decode: u64,
    /// Delta frames arriving past a sequence gap.
    pub rej_gap: u64,
    /// Frames whose post-apply digest did not match.
    pub rej_digest: u64,
    /// Delta frames refused while desynced.
    pub rej_desync: u64,
    /// Frames with a mismatched parameter layout.
    pub rej_layout: u64,
}

/// Receiver half of a sync session: validates every incoming frame
/// (decode, sequence, layout, digest) and commits only verified states.
#[derive(Debug, Clone, Default)]
pub struct SyncReceiver {
    expected_seq: u64,
    desynced: bool,
    stats: ReceiverStats,
}

impl SyncReceiver {
    /// Creates a receiver expecting sequence number 0.
    pub fn new() -> Self {
        SyncReceiver::default()
    }

    /// The next sequence number the receiver will accept a delta at.
    pub fn expected_seq(&self) -> u64 {
        self.expected_seq
    }

    /// Whether the session is desynced (a delta was lost; only a full
    /// resync will be accepted).
    pub fn is_desynced(&self) -> bool {
        self.desynced
    }

    /// Session counters.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// Validates `bytes` and, if it checks out, applies it to `params`.
    ///
    /// Verify-then-commit: the update is applied to a scratch copy and the
    /// digest checked *before* `params` is touched, so no rejection path
    /// can leave the receiver holding a poisoned state.
    pub fn receive(&mut self, bytes: &[u8], params: &mut ParamVec) -> SyncVerdict {
        let frame = match SyncFrame::from_bytes(bytes) {
            Ok(f) => f,
            Err(e) => {
                self.stats.rej_decode += 1;
                return SyncVerdict::Rejected(SyncReject::Decode(e));
            }
        };
        if frame.seq < self.expected_seq {
            self.stats.stale += 1;
            return SyncVerdict::Stale { seq: frame.seq };
        }
        let full = matches!(frame.update, SyncUpdate::Full(_));
        if !full {
            if self.desynced {
                self.stats.rej_desync += 1;
                return SyncVerdict::Rejected(SyncReject::Desynced);
            }
            if frame.seq > self.expected_seq {
                // A delta went missing: everything after it is unusable
                // until a full resync re-anchors the session.
                self.desynced = true;
                self.stats.rej_gap += 1;
                return SyncVerdict::Rejected(SyncReject::SeqGap {
                    got: frame.seq,
                    expected: self.expected_seq,
                });
            }
        }
        // Full frames re-anchor at any seq >= expected; deltas only at the
        // exact expected seq. Either way: verify on a scratch copy first.
        let mut candidate = params.clone();
        if frame.update.apply_to_vec(&mut candidate).is_err() {
            self.stats.rej_layout += 1;
            return SyncVerdict::Rejected(SyncReject::Layout);
        }
        if param_digest(&candidate) != frame.digest {
            self.stats.rej_digest += 1;
            return SyncVerdict::Rejected(SyncReject::DigestMismatch);
        }
        *params = candidate;
        self.expected_seq = frame.seq + 1;
        self.desynced = false;
        self.stats.applied += 1;
        if full {
            self.stats.applied_full += 1;
        }
        SyncVerdict::Applied {
            seq: frame.seq,
            full,
        }
    }
}

/// Sender half of a sync session.
///
/// Keeps a *shadow* copy of the receiver's last committed parameters and
/// derives each update from `after − shadow`. Because the shadow advances
/// by exactly what was put on the wire (not by the sender's true state),
/// quantization and sparsification error never accumulates: whatever a
/// lossy update failed to convey is still present in the next round's
/// delta.
#[derive(Debug, Clone)]
pub struct SyncSender {
    protocol: SyncProtocol,
    shadow: ParamVec,
    next_seq: u64,
    needs_resync: bool,
    frames_built: u64,
    resyncs_built: u64,
}

impl SyncSender {
    /// Creates a session. `initial` is the parameter state both sides
    /// start from (receiver decoders are installed from the same copy).
    pub fn new(protocol: SyncProtocol, initial: ParamVec) -> Self {
        SyncSender {
            protocol,
            shadow: initial,
            next_seq: 0,
            needs_resync: false,
            frames_built: 0,
            resyncs_built: 0,
        }
    }

    /// The protocol in use.
    pub fn protocol(&self) -> SyncProtocol {
        self.protocol
    }

    /// The sender's model of the receiver's committed state.
    pub fn shadow(&self) -> &ParamVec {
        &self.shadow
    }

    /// Whether the next frame will be a forced full resync.
    pub fn needs_resync(&self) -> bool {
        self.needs_resync
    }

    /// Frames built so far (including resyncs).
    pub fn frames_built(&self) -> u64 {
        self.frames_built
    }

    /// Full-resync frames built so far.
    pub fn resyncs_built(&self) -> u64 {
        self.resyncs_built
    }

    /// Builds the next sync frame moving the receiver toward `after`.
    /// Emits a full resync instead if one is pending.
    ///
    /// # Panics
    ///
    /// Panics if `after`'s layout differs from the session's.
    pub fn next_frame(&mut self, after: &ParamVec) -> SyncFrame {
        if self.needs_resync {
            return self.resync_frame(after);
        }
        assert_eq!(
            self.shadow.shapes(),
            after.shapes(),
            "sync session layout changed"
        );
        let update = match self.protocol {
            SyncProtocol::FullModel => SyncUpdate::Full(after.clone()),
            SyncProtocol::DenseDelta => SyncUpdate::Delta(self.delta_vs_shadow(after)),
            SyncProtocol::TopK(k) => {
                let dense = self.delta_vs_shadow(after);
                SyncUpdate::Sparse(crate::gradient::SparseGradient::top_k(&dense, k))
            }
            SyncProtocol::QuantizedInt8 => {
                let dense = self.delta_vs_shadow(after);
                SyncUpdate::Quantized(crate::gradient::QuantizedGradient::quantize(&dense))
            }
        };
        // Advance the shadow by exactly what the wire carries.
        let mut next = self.shadow.clone();
        update
            .apply_to_vec(&mut next)
            .expect("update layout matches by construction");
        self.shadow = next;
        let digest = param_digest(&self.shadow);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.frames_built += 1;
        SyncFrame {
            seq,
            digest,
            update,
        }
    }

    /// Builds a full-model resync frame and re-anchors the shadow on
    /// `after`.
    pub fn resync_frame(&mut self, after: &ParamVec) -> SyncFrame {
        self.needs_resync = false;
        self.shadow = after.clone();
        let digest = param_digest(&self.shadow);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.frames_built += 1;
        self.resyncs_built += 1;
        SyncFrame {
            seq,
            digest,
            update: SyncUpdate::Full(after.clone()),
        }
    }

    /// Records that the last frame was confirmed applied.
    pub fn confirm(&mut self) {
        self.needs_resync = false;
    }

    /// Records that the last frame could not be delivered: the receiver's
    /// state is unknown, so the next frame must be a full resync.
    pub fn mark_failed(&mut self) {
        self.needs_resync = true;
    }

    fn delta_vs_shadow(&self, after: &ParamVec) -> ParamVec {
        let data = after
            .as_slice()
            .iter()
            .zip(self.shadow.as_slice())
            .map(|(a, s)| a - s)
            .collect();
        ParamVec::from_parts(self.shadow.shapes().to_vec(), data)
            .expect("delta layout matches shadow")
    }
}

/// A transport that moves opaque sync frames from sender to receiver.
///
/// `deliver` returns the frames that come out the far end in arrival
/// order: possibly none (loss), possibly several (duplication / delayed
/// release of an earlier frame).
pub trait SyncLink {
    /// Pushes one frame through the link.
    fn deliver(&mut self, frame: &[u8], rng: &mut dyn RngCore) -> Vec<Vec<u8>>;

    /// Channel symbols spent so far, if the link models a PHY.
    fn symbols_used(&self) -> u64 {
        0
    }
}

/// The identity link: every frame arrives exactly once, intact.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfectLink;

impl SyncLink for PerfectLink {
    fn deliver(&mut self, frame: &[u8], _rng: &mut dyn RngCore) -> Vec<Vec<u8>> {
        vec![frame.to_vec()]
    }
}

impl SyncLink for FaultyLink {
    fn deliver(&mut self, frame: &[u8], _rng: &mut dyn RngCore) -> Vec<Vec<u8>> {
        self.transit(frame)
    }
}

/// A real PHY link: frames ride the CRC-framed stop-and-wait
/// [`ArqPipeline`] over a [`Channel`]. An undelivered ARQ frame (CRC never
/// verified within the pipeline's attempt budget) surfaces as a loss.
pub struct ArqLink {
    arq: ArqPipeline,
    channel: Box<dyn Channel>,
    symbols: u64,
    frames: u64,
    delivered: u64,
}

impl ArqLink {
    /// Wraps an ARQ pipeline and a channel as a sync link.
    pub fn new(arq: ArqPipeline, channel: Box<dyn Channel>) -> Self {
        ArqLink {
            arq,
            channel,
            symbols: 0,
            frames: 0,
            delivered: 0,
        }
    }

    /// Frames offered / frames CRC-delivered.
    pub fn delivery_counts(&self) -> (u64, u64) {
        (self.frames, self.delivered)
    }
}

impl SyncLink for ArqLink {
    fn deliver(&mut self, frame: &[u8], rng: &mut dyn RngCore) -> Vec<Vec<u8>> {
        self.frames += 1;
        let out = self.arq.transmit_bytes(frame, &*self.channel, rng);
        self.symbols += out.symbols as u64;
        if out.delivered {
            self.delivered += 1;
            vec![out.bytes]
        } else {
            vec![]
        }
    }

    fn symbols_used(&self) -> u64 {
        self.symbols
    }
}

/// Retry/backoff budgets for [`run_sync_round`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Delivery attempts for a regular update frame before escalating.
    pub update_attempts: u32,
    /// Delivery attempts for the escalated full-resync frame.
    pub resync_attempts: u32,
    /// Base backoff delay (abstract ticks); doubles per retry.
    pub backoff_base: u64,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            update_attempts: 3,
            resync_attempts: 5,
            backoff_base: 1,
        }
    }
}

/// Transport-level counters, summed over a session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Sync rounds attempted.
    pub rounds: u64,
    /// Frames pushed onto the link (including retransmissions).
    pub frames_sent: u64,
    /// Total frame bytes pushed onto the link.
    pub wire_bytes: u64,
    /// Retransmissions of an already-built frame.
    pub retries: u64,
    /// Rounds that fell back to a full resync.
    pub resyncs: u64,
    /// Abstract backoff ticks accumulated across retries.
    pub backoff_ticks: u64,
    /// Rounds that exhausted even the resync budget.
    pub failures: u64,
}

impl TransportStats {
    /// Accumulates another session's counters into this one (aggregation
    /// across edges, sessions, or migration rounds).
    pub fn merge(&mut self, other: &TransportStats) {
        self.rounds += other.rounds;
        self.frames_sent += other.frames_sent;
        self.wire_bytes += other.wire_bytes;
        self.retries += other.retries;
        self.resyncs += other.resyncs;
        self.backoff_ticks += other.backoff_ticks;
        self.failures += other.failures;
    }
}

/// Outcome of one [`run_sync_round`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundOutcome {
    /// The receiver committed the sender's state.
    Synced {
        /// Sequence number of the committed frame.
        seq: u64,
        /// Whether the round needed a full resync to converge.
        resynced: bool,
    },
    /// Even the resync budget was exhausted; the session is marked for a
    /// forced resync next round.
    Failed,
}

/// Drives one synchronization round over an unreliable link: build the
/// frame, deliver with bounded retries and exponential backoff, and on
/// detected desync or retry exhaustion degrade gracefully to a full-model
/// resync.
///
/// The whole round is timed into the recorder's `sync_round` histogram,
/// every per-frame rejection (and stale drop) is journaled as
/// [`Event::SyncRejected`] with its cause, and every full-model escalation
/// as [`Event::Resync`]; `session` labels the journal entries (a user id
/// inside a full system, any harness-chosen id for standalone sessions). A
/// disabled recorder costs one branch per site.
///
/// With `trace = Some((parent, ordinal))` and a trace buffer on the
/// recorder, the round becomes span `parent.child(ordinal)` (named
/// `sync_round`) with one `attempt` child per delivery attempt and a
/// zero-duration `resync` marker child when the round degrades to a
/// full-model resync. `ordinal` must be unique among the parent's sync
/// children (a migration uses the domain index, a harness its round index).
#[allow(clippy::too_many_arguments)]
pub fn run_sync_round(
    sender: &mut SyncSender,
    receiver: &mut SyncReceiver,
    receiver_params: &mut ParamVec,
    after: &ParamVec,
    link: &mut dyn SyncLink,
    rng: &mut dyn RngCore,
    config: &TransportConfig,
    stats: &mut TransportStats,
    recorder: &Recorder,
    session: u64,
    trace: Option<(SpanContext, u64)>,
) -> RoundOutcome {
    let traced = trace.filter(|_| recorder.tracing_enabled());
    let ctx = traced.map(|(parent, ordinal)| parent.child(ordinal));
    let t0 = ctx.map(|_| recorder.now_ns());
    let span = recorder.span(Stage::SyncRound);
    stats.rounds += 1;
    let forced_resync = sender.needs_resync();
    if forced_resync {
        stats.resyncs += 1;
    }
    let frame = sender.next_frame(after);
    if forced_resync {
        recorder.emit(Event::Resync {
            user: session,
            seq: frame.seq,
        });
    }
    let budget = if forced_resync {
        config.resync_attempts
    } else {
        config.update_attempts
    };
    // `(committed seq, needed a resync)`, or `None` when the round failed.
    let synced = 'round: {
        match deliver_with_retries(
            &frame,
            receiver,
            receiver_params,
            link,
            rng,
            budget,
            stats,
            recorder,
            session,
            ctx,
            0,
        ) {
            DeliveryResult::Applied => break 'round Some((frame.seq, forced_resync)),
            // The forced resync itself never landed.
            DeliveryResult::Exhausted if forced_resync => break 'round None,
            DeliveryResult::Desynced | DeliveryResult::Exhausted => {}
        }
        // Graceful degradation: the update could not be confirmed (lost,
        // persistently corrupted, or the receiver flagged a gap) — fall
        // back to shipping the full model.
        stats.resyncs += 1;
        let resync = sender.resync_frame(after);
        recorder.emit(Event::Resync {
            user: session,
            seq: resync.seq,
        });
        if let Some(ctx) = ctx {
            // Zero-duration marker: the round escalated to a full resync.
            let now = recorder.now_ns();
            recorder.trace_span(TraceSpan::new(
                ctx.child(RESYNC_ORDINAL_BASE),
                Some(ctx.span),
                "resync",
                now,
                0,
            ));
        }
        match deliver_with_retries(
            &resync,
            receiver,
            receiver_params,
            link,
            rng,
            config.resync_attempts,
            stats,
            recorder,
            session,
            ctx,
            RESYNC_ORDINAL_BASE,
        ) {
            DeliveryResult::Applied => Some((resync.seq, true)),
            _ => None,
        }
    };
    let outcome = match synced {
        Some((seq, resynced)) => {
            sender.confirm();
            RoundOutcome::Synced { seq, resynced }
        }
        None => {
            // The session is marked for a forced resync next round.
            sender.mark_failed();
            stats.failures += 1;
            RoundOutcome::Failed
        }
    };
    span.finish();
    if let (Some(ctx), Some((parent, _)), Some(t0)) = (ctx, traced, t0) {
        let dur = recorder.now_ns().saturating_sub(t0);
        recorder.trace_span(TraceSpan::new(
            ctx,
            Some(parent.span),
            "sync_round",
            t0,
            dur,
        ));
    }
    outcome
}

/// The journal cause for a receiver rejection.
fn cause_of(reject: &SyncReject) -> RejectCause {
    match reject {
        SyncReject::Decode(_) => RejectCause::Decode,
        SyncReject::SeqGap { .. } => RejectCause::SeqGap,
        SyncReject::DigestMismatch => RejectCause::Digest,
        SyncReject::Desynced => RejectCause::Desync,
        SyncReject::Layout => RejectCause::Layout,
    }
}

enum DeliveryResult {
    Applied,
    Desynced,
    Exhausted,
}

/// Child-ordinal base separating resync-pass spans from update-pass spans
/// in a traced round. Attempt budgets are far below 64, so the ranges
/// `1..=attempts` (update) and `65..` (resync) never collide; 64 itself is
/// the `resync` marker.
const RESYNC_ORDINAL_BASE: u64 = 64;

#[allow(clippy::too_many_arguments)]
fn deliver_with_retries(
    frame: &SyncFrame,
    receiver: &mut SyncReceiver,
    receiver_params: &mut ParamVec,
    link: &mut dyn SyncLink,
    rng: &mut dyn RngCore,
    attempts: u32,
    stats: &mut TransportStats,
    recorder: &Recorder,
    session: u64,
    trace: Option<SpanContext>,
    ordinal_base: u64,
) -> DeliveryResult {
    let bytes = frame.to_bytes();
    let attempts = attempts.max(1);
    for attempt in 1..=attempts {
        let attempt_t0 = trace.map(|_| recorder.now_ns());
        if attempt > 1 {
            stats.retries += 1;
            // Simulated exponential backoff (abstract ticks, no wall clock
            // in a deterministic harness).
            stats.backoff_ticks += 1u64 << (attempt - 2).min(16);
        }
        stats.frames_sent += 1;
        stats.wire_bytes += bytes.len() as u64;
        let mut applied = false;
        let mut escalate = false;
        // Feed *every* arrival to the receiver (duplicates and released
        // reordered frames included) before deciding the attempt's fate.
        for arrived in link.deliver(&bytes, rng) {
            match receiver.receive(&arrived, receiver_params) {
                SyncVerdict::Applied { seq, .. } if seq == frame.seq => applied = true,
                SyncVerdict::Applied { .. } => {}
                SyncVerdict::Stale { seq } => recorder.emit(Event::SyncRejected {
                    user: session,
                    seq,
                    cause: RejectCause::Stale,
                }),
                SyncVerdict::Rejected(reject) => {
                    recorder.emit(Event::SyncRejected {
                        user: session,
                        seq: frame.seq,
                        cause: cause_of(&reject),
                    });
                    if matches!(reject, SyncReject::SeqGap { .. } | SyncReject::Desynced) {
                        escalate = true;
                    }
                }
            }
        }
        if let (Some(ctx), Some(t0)) = (trace, attempt_t0) {
            let dur = recorder.now_ns().saturating_sub(t0);
            recorder.trace_span(TraceSpan::new(
                ctx.child(ordinal_base + attempt as u64),
                Some(ctx.span),
                "attempt",
                t0,
                dur,
            ));
        }
        if applied {
            return DeliveryResult::Applied;
        }
        if escalate {
            // Retrying this delta cannot succeed: an earlier one is gone.
            return DeliveryResult::Desynced;
        }
    }
    DeliveryResult::Exhausted
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcom_channel::{FaultConfig, NoiselessChannel};
    use semcom_nn::rng::seeded_rng;

    fn pv(values: &[f32]) -> ParamVec {
        ParamVec::from_parts(vec![(1, values.len())], values.to_vec()).unwrap()
    }

    fn shifted(base: &ParamVec, amount: f32) -> ParamVec {
        let data = base.as_slice().iter().map(|v| v + amount).collect();
        ParamVec::from_parts(base.shapes().to_vec(), data).unwrap()
    }

    #[test]
    fn digest_is_sensitive_to_values_and_layout() {
        let a = pv(&[1.0, 2.0, 3.0]);
        let b = pv(&[1.0, 2.0, 3.0001]);
        assert_eq!(param_digest(&a), param_digest(&a.clone()));
        assert_ne!(param_digest(&a), param_digest(&b));
        let c = ParamVec::from_parts(vec![(3, 1)], vec![1.0, 2.0, 3.0]).unwrap();
        assert_ne!(param_digest(&a), param_digest(&c));
    }

    #[test]
    fn frame_roundtrip() {
        let f = SyncFrame {
            seq: 7,
            digest: 0xDEAD_BEEF,
            update: SyncUpdate::Delta(pv(&[0.5, -0.25])),
        };
        let bytes = f.to_bytes();
        // Accounted wire size is an upper bound on the actual encoding.
        assert!(bytes.len() <= f.wire_bytes());
        assert_eq!(SyncFrame::from_bytes(&bytes).unwrap(), f);
        assert_eq!(SyncFrame::from_bytes(&[0x55]), Err(WireError::BadTag(0x55)));
        assert_eq!(
            SyncFrame::from_bytes(&bytes[..10]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn perfect_link_session_tracks_sender() {
        for protocol in [
            SyncProtocol::FullModel,
            SyncProtocol::DenseDelta,
            SyncProtocol::TopK(64),
            SyncProtocol::QuantizedInt8,
        ] {
            let initial = pv(&[0.0; 32]);
            let mut sender = SyncSender::new(protocol, initial.clone());
            let mut receiver = SyncReceiver::new();
            let mut rx_params = initial.clone();
            let mut link = PerfectLink;
            let mut rng = seeded_rng(1);
            let mut stats = TransportStats::default();
            let cfg = TransportConfig::default();
            let mut state = initial;
            for round in 0..6 {
                state = shifted(&state, 0.1 * (round as f32 + 1.0));
                let out = run_sync_round(
                    &mut sender,
                    &mut receiver,
                    &mut rx_params,
                    &state,
                    &mut link,
                    &mut rng,
                    &cfg,
                    &mut stats,
                    &Recorder::disabled(),
                    0,
                    None,
                );
                assert!(matches!(
                    out,
                    RoundOutcome::Synced {
                        resynced: false,
                        ..
                    }
                ));
                // Receiver holds exactly the shadow state.
                assert_eq!(param_digest(&rx_params), param_digest(sender.shadow()));
            }
            assert_eq!(stats.failures, 0);
            assert_eq!(stats.resyncs, 0);
            assert_eq!(stats.retries, 0);
            // Shadow-based error feedback: divergence from the true state
            // is bounded by one round's compression error.
            if matches!(protocol, SyncProtocol::FullModel | SyncProtocol::DenseDelta) {
                let max_err = rx_params
                    .as_slice()
                    .iter()
                    .zip(state.as_slice())
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f32, f32::max);
                assert!(max_err < 1e-5, "{protocol:?}: {max_err}");
            }
        }
    }

    #[test]
    fn corrupt_decodable_delta_is_caught_by_digest() {
        let initial = pv(&[0.0; 8]);
        let mut sender = SyncSender::new(SyncProtocol::DenseDelta, initial.clone());
        let mut receiver = SyncReceiver::new();
        let mut rx_params = initial.clone();
        let after = shifted(&initial, 1.0);
        let frame = sender.next_frame(&after);
        let mut bytes = frame.to_bytes();
        // Flip a bit inside a payload value: still decodes, applies wrong.
        let n = bytes.len();
        bytes[n - 2] ^= 0x10;
        let verdict = receiver.receive(&bytes, &mut rx_params);
        assert_eq!(verdict, SyncVerdict::Rejected(SyncReject::DigestMismatch));
        // Verify-then-commit: state untouched.
        assert_eq!(rx_params, initial);
        // The clean retransmission still lands.
        let verdict = receiver.receive(&frame.to_bytes(), &mut rx_params);
        assert!(matches!(verdict, SyncVerdict::Applied { .. }));
        assert_eq!(param_digest(&rx_params), param_digest(sender.shadow()));
    }

    #[test]
    fn sequence_gap_desyncs_until_full_resync() {
        let initial = pv(&[0.0; 4]);
        let mut sender = SyncSender::new(SyncProtocol::DenseDelta, initial.clone());
        let mut receiver = SyncReceiver::new();
        let mut rx_params = initial.clone();

        let s1 = shifted(&initial, 1.0);
        let lost = sender.next_frame(&s1); // seq 0: never delivered
        let s2 = shifted(&s1, 1.0);
        let f2 = sender.next_frame(&s2); // seq 1
        assert_eq!(
            receiver.receive(&f2.to_bytes(), &mut rx_params),
            SyncVerdict::Rejected(SyncReject::SeqGap {
                got: 1,
                expected: 0
            })
        );
        assert!(receiver.is_desynced());
        // Late arrival of the lost frame is now refused too (its seq is
        // current, but the session only trusts a full re-anchor).
        assert_eq!(
            receiver.receive(&lost.to_bytes(), &mut rx_params),
            SyncVerdict::Rejected(SyncReject::Desynced)
        );
        // Full resync re-anchors.
        let resync = sender.resync_frame(&s2);
        let verdict = receiver.receive(&resync.to_bytes(), &mut rx_params);
        assert!(matches!(verdict, SyncVerdict::Applied { full: true, .. }));
        assert!(!receiver.is_desynced());
        assert_eq!(rx_params, s2);
    }

    #[test]
    fn stale_duplicates_are_ignored() {
        let initial = pv(&[0.0; 4]);
        let mut sender = SyncSender::new(SyncProtocol::DenseDelta, initial.clone());
        let mut receiver = SyncReceiver::new();
        let mut rx_params = initial.clone();
        let f = sender.next_frame(&shifted(&initial, 0.5));
        assert!(matches!(
            receiver.receive(&f.to_bytes(), &mut rx_params),
            SyncVerdict::Applied { .. }
        ));
        let snapshot = rx_params.clone();
        assert_eq!(
            receiver.receive(&f.to_bytes(), &mut rx_params),
            SyncVerdict::Stale { seq: 0 }
        );
        assert_eq!(rx_params, snapshot);
        assert_eq!(receiver.stats().stale, 1);
    }

    #[test]
    fn lossy_link_recovers_via_retry_and_resync() {
        let initial = pv(&[0.0; 16]);
        let mut sender = SyncSender::new(SyncProtocol::QuantizedInt8, initial.clone());
        let mut receiver = SyncReceiver::new();
        let mut rx_params = initial.clone();
        let mut link = FaultyLink::new(FaultConfig::uniform(0.3), 17);
        let mut rng = seeded_rng(2);
        let cfg = TransportConfig {
            update_attempts: 3,
            resync_attempts: 8,
            backoff_base: 1,
        };
        let mut stats = TransportStats::default();
        let mut state = initial;
        let mut synced_rounds = 0;
        let rounds = 20;
        for round in 0..rounds {
            state = shifted(&state, 0.05 * ((round % 3) as f32 + 1.0));
            let out = run_sync_round(
                &mut sender,
                &mut receiver,
                &mut rx_params,
                &state,
                &mut link,
                &mut rng,
                &cfg,
                &mut stats,
                &Recorder::disabled(),
                0,
                None,
            );
            if matches!(out, RoundOutcome::Synced { .. }) {
                synced_rounds += 1;
                // Whenever a round reports success the receiver must hold
                // exactly the sender's shadow — corruption either never
                // commits or is repaired by resync.
                assert_eq!(param_digest(&rx_params), param_digest(sender.shadow()));
            }
        }
        assert!(
            synced_rounds >= rounds - 2,
            "only {synced_rounds}/{rounds} synced"
        );
        let injected = link.stats();
        assert!(injected.corrupted > 0, "seed never corrupted: {injected:?}");
        let r = receiver.stats();
        assert!(
            r.rej_decode + r.rej_digest + r.rej_gap + r.rej_desync > 0,
            "corruption was injected but never rejected: {r:?} / {injected:?}"
        );
        assert!(r.stale > 0, "duplicates/reorders never surfaced: {r:?}");
    }

    #[test]
    fn arq_link_carries_frames_over_a_phy() {
        use semcom_channel::{coding::IdentityCode, BitPipeline, Modulation};
        let initial = pv(&[0.0; 8]);
        let mut sender = SyncSender::new(SyncProtocol::DenseDelta, initial.clone());
        let mut receiver = SyncReceiver::new();
        let mut rx_params = initial.clone();
        let arq = ArqPipeline::new(
            BitPipeline::new(Box::new(IdentityCode), Modulation::Bpsk),
            4,
        );
        let mut link = ArqLink::new(arq, Box::new(NoiselessChannel));
        let mut rng = seeded_rng(3);
        let cfg = TransportConfig::default();
        let mut stats = TransportStats::default();
        let after = shifted(&initial, 0.75);
        let out = run_sync_round(
            &mut sender,
            &mut receiver,
            &mut rx_params,
            &after,
            &mut link,
            &mut rng,
            &cfg,
            &mut stats,
            &Recorder::disabled(),
            0,
            None,
        );
        assert!(matches!(
            out,
            RoundOutcome::Synced {
                resynced: false,
                ..
            }
        ));
        assert_eq!(rx_params, after);
        assert!(link.symbols_used() > 0);
        assert_eq!(link.delivery_counts(), (1, 1));
    }

    #[test]
    fn observed_round_journals_rejections_and_resyncs() {
        struct DropFirst {
            dropped: bool,
        }
        impl SyncLink for DropFirst {
            fn deliver(&mut self, frame: &[u8], _rng: &mut dyn RngCore) -> Vec<Vec<u8>> {
                if self.dropped {
                    vec![frame.to_vec()]
                } else {
                    self.dropped = true;
                    vec![]
                }
            }
        }
        let rec = Recorder::with_ticks();
        let initial = pv(&[0.0; 8]);
        let mut sender = SyncSender::new(SyncProtocol::DenseDelta, initial.clone());
        let mut receiver = SyncReceiver::new();
        let mut rx_params = initial.clone();
        let mut rng = seeded_rng(6);
        let cfg = TransportConfig {
            update_attempts: 1, // first loss exhausts the update budget
            resync_attempts: 2,
            backoff_base: 1,
        };
        let mut stats = TransportStats::default();
        let after = shifted(&initial, 1.0);
        let out = run_sync_round(
            &mut sender,
            &mut receiver,
            &mut rx_params,
            &after,
            &mut DropFirst { dropped: false },
            &mut rng,
            &cfg,
            &mut stats,
            &rec,
            42,
            None,
        );
        assert!(matches!(out, RoundOutcome::Synced { resynced: true, .. }));
        let snap = rec.snapshot();
        assert_eq!(
            rec.stage_histogram(Stage::SyncRound).unwrap().count(),
            1,
            "round span recorded"
        );
        // The escalation to a full resync for session 42 is journaled.
        assert!(snap
            .events
            .iter()
            .any(|r| r.event == Event::Resync { user: 42, seq: 1 }));
    }

    #[test]
    fn failed_round_forces_resync_next_round() {
        struct BlackHole;
        impl SyncLink for BlackHole {
            fn deliver(&mut self, _frame: &[u8], _rng: &mut dyn RngCore) -> Vec<Vec<u8>> {
                vec![]
            }
        }
        let initial = pv(&[0.0; 4]);
        let mut sender = SyncSender::new(SyncProtocol::DenseDelta, initial.clone());
        let mut receiver = SyncReceiver::new();
        let mut rx_params = initial.clone();
        let mut rng = seeded_rng(4);
        let cfg = TransportConfig {
            update_attempts: 2,
            resync_attempts: 2,
            backoff_base: 1,
        };
        let mut stats = TransportStats::default();
        let after = shifted(&initial, 1.0);
        let out = run_sync_round(
            &mut sender,
            &mut receiver,
            &mut rx_params,
            &after,
            &mut BlackHole,
            &mut rng,
            &cfg,
            &mut stats,
            &Recorder::disabled(),
            0,
            None,
        );
        assert_eq!(out, RoundOutcome::Failed);
        assert!(sender.needs_resync());
        assert_eq!(stats.failures, 1);
        assert!(stats.backoff_ticks > 0);
        // Once the link heals, the forced resync lands and the session
        // recovers completely.
        let healed = run_sync_round(
            &mut sender,
            &mut receiver,
            &mut rx_params,
            &after,
            &mut PerfectLink,
            &mut rng,
            &cfg,
            &mut stats,
            &Recorder::disabled(),
            0,
            None,
        );
        assert!(matches!(
            healed,
            RoundOutcome::Synced { resynced: true, .. }
        ));
        assert_eq!(rx_params, after);
    }
}
