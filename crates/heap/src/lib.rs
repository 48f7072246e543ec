//! Per-site object heap, local mark-sweep collection and the reachability
//! snapshots from which the global root graph is derived.
//!
//! The paper decouples *local garbage collection* from *global garbage
//! detection* (§2.1): each site collects its own objects using, as the root
//! set, its designated local roots plus its *global roots* — local objects
//! that have been referenced from other sites and must conservatively be
//! assumed live. This crate is that per-site substrate:
//!
//! * [`SiteHeap`] — a slotted object heap with local roots, a global-root
//!   table and reference slots that may point to local objects or to remote
//!   objects (proxies);
//! * [`SiteHeap::collect`] — the local collector: mark-sweep semantics at a
//!   cost proportional to what changed since the previous collection;
//! * [`ReachabilitySnapshot`] — for each vertex the site hosts (its
//!   actual-root anchor and each global root), the set of remote objects
//!   reachable from it through the local object graph. Successive snapshots
//!   are diffed by the GGD layer into the paper's *edge-creation* and
//!   *edge-destruction* log-keeping events (§3.1).
//!
//! # Example
//!
//! ```
//! use ggd_heap::{ObjRef, SiteHeap};
//! use ggd_types::{GlobalAddr, SiteId};
//!
//! let mut heap = SiteHeap::new(SiteId::new(0));
//! let root = heap.alloc_local_root();
//! let child = heap.alloc();
//! heap.add_ref(root, ObjRef::Local(child)).unwrap();
//! heap.add_ref(child, ObjRef::Remote(GlobalAddr::new(1, 5))).unwrap();
//!
//! let snapshot = heap.snapshot();
//! assert!(snapshot.root_reaches(GlobalAddr::new(1, 5)));
//!
//! let outcome = heap.collect();
//! assert_eq!(outcome.freed.len(), 0); // everything is reachable
//! ```

mod arena;
mod collect;
mod image;
mod model;
mod object;
mod preds;
#[cfg(any(test, feature = "reference-model"))]
mod reference;
mod site_heap;
mod snapshot;

pub use arena::{ObjectView, Refs};
pub use collect::{CollectionOutcome, HeapStats};
pub use image::{HeapImage, HeapImageSink, HeapImageSource};
pub use model::ObjectModel;
pub use object::ObjRef;
#[cfg(any(test, feature = "reference-model"))]
pub use reference::{HeapObject, RefHeap};
pub use site_heap::{HeapError, SiteHeap};
pub use snapshot::{EdgeDelta, ReachabilitySnapshot, VertexEdgeDelta};
