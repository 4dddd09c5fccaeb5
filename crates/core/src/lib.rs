//! # semcom
//!
//! The primary contribution of *"Semantic Communications, Semantic Edge
//! Computing, and Semantic Caching"* (Yu & Zhao, ICDCS 2023), implemented
//! end-to-end: a semantic edge computing system whose edge servers **cache
//! domain-specialized general models and user-specific individual models**
//! (the paper's Fig. 1).
//!
//! A [`SemanticEdgeSystem`] wires together every substrate crate:
//!
//! * per-domain general KBs `e^m / d^m` pre-trained in the cloud and cached
//!   on both edges ([`semcom_codec`]);
//! * **decoder copies on the sender edge** (§II-C), so encoder/decoder
//!   mismatch is measured locally instead of echoing decoded output back;
//! * per-user-per-domain buffers `b_m` collecting mismatch samples
//!   ([`semcom_fl::DomainBuffer`]);
//! * user-specific models trained from the buffers once they fill (§II-D)
//!   and cached under a byte budget ([`semcom_cache`]);
//! * FL-style **decoder synchronization** to the receiver edge
//!   ([`semcom_fl::DecoderSync`]);
//! * context-aware **model selection** (§III-A, [`semcom_select`]);
//! * a physical channel between the edges ([`semcom_channel`]).
//!
//! Messages cross the system one way — the window engine of [`stream`]:
//! [`SemanticEdgeSystem::send_stream`] serves a list of users a
//! dependency-free window at a time, and
//! [`SemanticEdgeSystem::send_message`] is the same engine on a one-ticket
//! window. `system` keeps build, registration, training + decoder sync,
//! migration, restart and probing.
//!
//! # Example
//!
//! ```
//! use semcom::{SemanticEdgeSystem, SystemConfig};
//! use semcom_text::Domain;
//!
//! let mut system = SemanticEdgeSystem::build(SystemConfig::tiny(), 7);
//! let user = system.register_user(Domain::It, 1.0); // strongly idiolectic
//! for _ in 0..30 {
//!     system.send_message(user);
//! }
//! let m = system.metrics();
//! assert!(m.messages == 30);
//! assert!(m.token_accuracy() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod metrics;
mod server;
pub mod stream;
mod system;

pub use config::{ChannelModel, SelectionStrategy, SystemConfig};
pub use metrics::{MessageOutcome, SystemMetrics};
pub use server::EdgeServer;
pub use system::{MigrationReport, SemanticEdgeSystem, UserId};
