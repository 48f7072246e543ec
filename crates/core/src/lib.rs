//! The paper's contribution: comprehensive Global Garbage Detection (GGD) by
//! tracking causal dependencies of relevant mutator events, with a lazy
//! log-keeping mechanism (Louboutin & Cahill, ICDCS 1997).
//!
//! # What lives here
//!
//! * [`RootedVector`] — a dependency vector plus the root knowledge that
//!   travels with it on the wire (the paper's `root(·)` predicate made
//!   explicit and dynamic), its stamps kept sorted in a [`RootStamps`].
//! * [`CausalMessage`] — the single GGD control-message format. A message
//!   whose entry for its sending vertex is destroyed (`Ē`) is an
//!   *edge-destruction* control message; otherwise it is a *propagation* of
//!   the sender's latest dependency vector (§3.3). Edge-creation news is
//!   never sent on its own: it is recorded lazily and bundled (§3.4).
//! * [`CausalEngine`] — the per-site engine: lazy log-keeping, the `Receive`
//!   / `ComputeV` reconstruction of vector-times (Fig. 6), garbage verdicts,
//!   and the finalisation cascade.
//!
//! # How a site uses the engine
//!
//! 1. feed it reference *exports* ([`CausalEngine::on_export`]) and
//!    *third-party sends* ([`CausalEngine::on_third_party_send`]) as the
//!    mutator performs them (no control messages result — this is the lazy
//!    log-keeping);
//! 2. feed it the heap's [`ggd_heap::EdgeDelta`] after local mutation and
//!    after every local collection ([`CausalEngine::apply_delta`]), or a
//!    whole [`ggd_heap::ReachabilitySnapshot`]
//!    ([`CausalEngine::apply_snapshot`], which diffs it against the
//!    engine's own view and applies the result as a delta); destroyed
//!    edges turn into edge-destruction control messages;
//! 3. deliver incoming [`CausalMessage`]s ([`CausalEngine::on_message`]);
//! 4. drain [`CausalEngine::take_outgoing`] into the transport and
//!    [`CausalEngine::take_verdicts`] into the heap
//!    (`unregister_global_root`).
//!
//! The `ggd-sim` crate wires these steps into a full cluster; the example
//! below drives two engines by hand.
//!
//! ```
//! use ggd_causal::CausalEngine;
//! use ggd_heap::{ObjRef, SiteHeap};
//! use ggd_types::SiteId;
//!
//! // Site 0 holds the root; site 1 holds an exported object.
//! let (s0, s1) = (SiteId::new(0), SiteId::new(1));
//! let mut heap0 = SiteHeap::new(s0);
//! let mut heap1 = SiteHeap::new(s1);
//! let mut eng0 = CausalEngine::new(s0);
//! let mut eng1 = CausalEngine::new(s1);
//!
//! // Site 1 allocates `obj` and exports it to site 0's root.
//! let obj = heap1.alloc();
//! heap1.register_global_root(obj).unwrap();
//! let obj_addr = heap1.addr_of(obj);
//! eng1.on_export(obj_addr, ggd_types::VertexId::site_root(s0.index()));
//! eng1.apply_snapshot(&heap1.snapshot());
//!
//! let root = heap0.alloc_local_root();
//! heap0.add_ref(root, ObjRef::Remote(obj_addr)).unwrap();
//! eng0.apply_snapshot(&heap0.snapshot());
//!
//! // The root drops the reference: an edge-destruction message is produced.
//! heap0.remove_ref(root, ObjRef::Remote(obj_addr)).unwrap();
//! eng0.apply_snapshot(&heap0.snapshot());
//! // One creation announcement (the edge source is a root) and one
//! // edge-destruction message.
//! let out = eng0.take_outgoing();
//! assert_eq!(out.len(), 2);
//!
//! // Delivering it lets site 1 detect the object as garbage.
//! for m in out { eng1.on_message(m.message); }
//! let verdicts = eng1.take_verdicts();
//! assert_eq!(verdicts, vec![obj_addr]);
//! ```

mod checkpoint;
mod engine;
mod log;
mod message;
mod stamps;
mod table;

pub use checkpoint::{EngineCheckpoint, EngineImageSink, EngineImageSource};
pub use engine::{CausalEngine, EngineStats, Outgoing};
pub use log::{DkLog, RootedVector};
pub use message::CausalMessage;
pub use stamps::{RootStamps, Stamp};
