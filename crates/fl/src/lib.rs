//! # semcom-fl
//!
//! Federated-style model synchronization for the `semcom` reproduction of
//! *"Semantic Communications, Semantic Edge Computing, and Semantic
//! Caching"* (Yu & Zhao, ICDCS 2023).
//!
//! Paper §II-D: after a user-specific model is trained on the sender edge
//! from the data collected in the domain buffer `b_m`, "the gradient of
//! decoder `∇d_u^m` will be transmitted to the receiver … to synchronize
//! `d_u^m`, which is similar to the update process in traditional Federated
//! Learning". This crate implements that wire protocol and its cost
//! accounting:
//!
//! * [`DomainBuffer`] — the bounded per-domain sample store `b_m` with a
//!   training-readiness threshold;
//! * [`SparseGradient`] / [`QuantizedGradient`] — top-k and int8 gradient
//!   compression with exact wire-size accounting;
//! * [`DecoderSync`] — the sender-side session producing [`SyncUpdate`]
//!   messages (full model / dense delta / top-k with error feedback / int8)
//!   and the receiver-side [`SyncUpdate::apply`];
//!
//! Experiment F3 sweeps the protocol choice and measures synchronization
//! bytes versus post-sync mismatch.
//!
//! # Example
//!
//! ```
//! use semcom_fl::{DecoderSync, SyncProtocol};
//! use semcom_nn::layers::{Linear, DenseLayer};
//! use semcom_nn::params::ParamVec;
//!
//! let mut sender = Linear::new(4, 3, 1);
//! let mut receiver = Linear::new(4, 3, 1); // same init = in sync
//! let before = ParamVec::values_of(&sender.params_mut());
//!
//! // …sender trains locally (here: fake a weight change)…
//! sender.params_mut()[0].value.set(0, 0, 9.0);
//! let after = ParamVec::values_of(&sender.params_mut());
//!
//! let mut sync = DecoderSync::new(SyncProtocol::DenseDelta);
//! let update = sync.make_update(&before, &after);
//! update.apply(&mut receiver.params_mut())?;
//! assert_eq!(ParamVec::values_of(&receiver.params_mut()), after);
//! # Ok::<(), semcom_nn::NnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod gradient;
mod sync;
mod transport;
mod wire;

pub use buffer::{BufferSample, DomainBuffer};
pub use gradient::{GradientError, QuantizedGradient, SparseGradient};
pub use sync::{DecoderSync, SyncProtocol, SyncUpdate};
pub use transport::{
    param_digest, run_sync_round, ArqLink, PerfectLink, ReceiverStats, RoundOutcome, SyncFrame,
    SyncLink, SyncReceiver, SyncReject, SyncSender, SyncVerdict, TransportConfig, TransportStats,
    FRAME_HEADER_BYTES, FRAME_MAGIC,
};
pub use wire::WireError;
