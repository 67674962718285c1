//! The user domain: everything the kernel design project moved out.
//!
//! Four subsystems that ran inside the old supervisor run here as
//! ordinary, unprivileged code composed from the small kernel gate set:
//!
//! * [`namespace`] — tree-name expansion (Bratt): repeated calls of the
//!   single-directory search gate, with a per-process prefix cache —
//!   the reason the extracted name space manager "ran somewhat faster";
//! * [`linker`] — the dynamic linker (Janson): linkage faults resolved
//!   by reading symbol tables out of object segments through ordinary
//!   reads, at the cost of extra gate crossings — the reason the
//!   extracted linker ran "somewhat slower";
//! * [`answering`] — the answering service (Montgomery): login policy,
//!   session management and accounting presentation, over the sub-1000
//!   line kernel residue gate;
//! * [`network`] — per-network protocol code (Ciccarelli) over the
//!   network-independent kernel demultiplexer; attaching a third
//!   network adds user code and a framing spec, not kernel code.

pub mod answering;
pub mod linker;
pub mod namespace;
pub mod network;

pub use answering::{Admission, AdmitPass, AnsweringService};
pub use linker::{publish_library, UserLinker};
pub use namespace::NameSpace;
pub use network::{ArpanetTerminal, FrontEndTerminal, ThirdNetTerminal};
