//! Byte-stream pins for perf-shaped runs: an FNV-1a digest over every
//! encoded control frame, in send order, over every engine checkpoint
//! image and, on the durable runs, over the heap image of every site's
//! final heap, on the three shapes the repo benchmark's `remote_churn`,
//! `wide_durable` and `ring_reclaim` workloads scale up.
//!
//! The causal engine's and the heap's in-memory layouts are free to change;
//! what they put on the wire and into checkpoints is not. The control-frame
//! digests were generated before the engine's per-vertex state moved from
//! ordered maps to dense tables, so a representation change that reorders
//! a single row, entry or message fails here. The engine-checkpoint and
//! heap-image digests were generated at durable format v3
//! (`ggd_store::FORMAT_VERSION`): a change that moves either changes the
//! durable layout and needs a format bump with it. They cover the control
//! frames and the images only, never the WAL's framing or its records, so
//! format v4 (a varint frame length, site-relative record addresses) left
//! every digest as it was. The wrappers see the
//! collector and the transport from outside, the way
//! `benchmark/src/traced.rs` does.

use std::cell::RefCell;
use std::rc::Rc;

use ggd_causal::CausalMessage;
use ggd_heap::{EdgeDelta, ReachabilitySnapshot};
use ggd_mutator::generator::{build_perf_scenario, PerfSpec};
use ggd_mutator::{MutatorOp, ObjName, Scenario};
use ggd_net::{Delivery, Frame, MessageClass, NetMetrics, Payload, SimNetwork, Transport};
use ggd_sim::{
    CausalCollector, Cluster, ClusterConfig, Collector, DurabilityConfig, MembershipAnnouncement,
    SimPayload,
};
use ggd_store::wire::write_heap_image;
use ggd_types::{GlobalAddr, SiteId};

type Wire = SimPayload<CausalMessage>;

/// A running FNV-1a (64-bit) digest and the number of images folded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    images: u64,
    hash: u64,
}

impl Digest {
    const fn new() -> Self {
        Digest {
            images: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Folds one image in: its length first, so image boundaries count.
    fn fold(&mut self, bytes: &[u8]) {
        self.images += 1;
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The three digests of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Streams {
    control_frames: Digest,
    checkpoints: Digest,
    /// Every site's final heap image, in site order; durable runs only.
    heaps: Digest,
}

type Shared = Rc<RefCell<Streams>>;

/// Delegates to the simulated network, folding every control frame it is
/// handed into the shared digest before it travels.
struct FoldingTransport {
    inner: SimNetwork<Wire>,
    streams: Shared,
}

impl Transport<Wire> for FoldingTransport {
    fn send(&mut self, from: SiteId, to: SiteId, payload: Wire) {
        if payload.class() == MessageClass::Control {
            let frame = Frame::encode(&payload);
            self.streams
                .borrow_mut()
                .control_frames
                .fold(frame.wire_bytes());
        }
        self.inner.send(from, to, payload);
    }

    fn poll(&mut self) -> Option<Delivery<Wire>> {
        self.inner.poll()
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn metrics_snapshot(&self) -> NetMetrics {
        self.inner.metrics_snapshot()
    }
}

/// Delegates to the causal collector, folding every checkpoint image it
/// produces into the shared digest.
struct FoldingCollector {
    inner: CausalCollector,
    streams: Shared,
}

impl Collector for FoldingCollector {
    type Msg = CausalMessage;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_export(&mut self, exported: GlobalAddr, recipient: GlobalAddr) {
        self.inner.on_export(exported, recipient);
    }

    fn on_third_party_send(&mut self, target: GlobalAddr, recipient: GlobalAddr) {
        self.inner.on_third_party_send(target, recipient);
    }

    fn on_receive_ref(&mut self, recipient: GlobalAddr, target: GlobalAddr) {
        self.inner.on_receive_ref(recipient, target);
    }

    fn apply_snapshot(&mut self, snapshot: &ReachabilitySnapshot) {
        self.inner.apply_snapshot(snapshot);
    }

    fn apply_delta(&mut self, delta: &EdgeDelta, snapshot: &ReachabilitySnapshot) {
        self.inner.apply_delta(delta, snapshot);
    }

    fn needs_every_sync(&self) -> bool {
        self.inner.needs_every_sync()
    }

    fn checkpoint_state(&mut self) -> Option<Vec<u8>> {
        let image = self.inner.checkpoint_state();
        if let Some(bytes) = &image {
            self.streams.borrow_mut().checkpoints.fold(bytes);
        }
        image
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        self.inner.restore_state(bytes)
    }

    fn restore_state_below(&mut self, bytes: &[u8], next_object: u64) -> bool {
        self.inner.restore_state_below(bytes, next_object)
    }

    fn on_membership(&mut self, ann: &MembershipAnnouncement) {
        self.inner.on_membership(ann);
    }

    fn mentions_site(&self, site: SiteId) -> bool {
        self.inner.mentions_site(site)
    }

    fn obs_counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.obs_counters()
    }

    fn on_message(&mut self, from: SiteId, message: Self::Msg) {
        self.inner.on_message(from, message);
    }

    fn take_outgoing(&mut self) -> Vec<(SiteId, Self::Msg)> {
        self.inner.take_outgoing()
    }

    fn take_verdicts(&mut self) -> Vec<GlobalAddr> {
        self.inner.take_verdicts()
    }
}

/// Runs `spec` at `seed` with `durability` and returns its digests.
fn streams_of(spec: &PerfSpec, seed: u64, durability: DurabilityConfig) -> Streams {
    streams_of_scenario(&build_perf_scenario(spec, seed), durability)
}

/// Runs `scenario` with `durability` and returns its digests.
fn streams_of_scenario(scenario: &Scenario, durability: DurabilityConfig) -> Streams {
    let durable = durability.is_on();
    let config = ClusterConfig {
        safety_oracle: false,
        durability,
        ..ClusterConfig::default()
    };
    let streams: Shared = Rc::new(RefCell::new(Streams {
        control_frames: Digest::new(),
        checkpoints: Digest::new(),
        heaps: Digest::new(),
    }));
    let net = FoldingTransport {
        inner: SimNetwork::with_faults(config.net, config.faults.clone(), config.seed),
        streams: Rc::clone(&streams),
    };
    let factory = {
        let streams = Rc::clone(&streams);
        move |site| FoldingCollector {
            inner: CausalCollector::new(site),
            streams: Rc::clone(&streams),
        }
    };
    let mut cluster = Cluster::with_transport(scenario.site_count(), config, net, factory);
    let report = cluster.run(scenario);
    assert!(report.reclaimed > 0, "the run must reclaim something");
    let mut out = *streams.borrow();
    if durable {
        let mut image = Vec::new();
        for heap in cluster.heaps() {
            image.clear();
            write_heap_image(&mut image, heap);
            out.heaps.fold(&image);
        }
    }
    out
}

#[test]
fn remote_churn_shape_control_stream_is_pinned() {
    let got = streams_of(&PerfSpec::mix(64, 800, 15_000), 17, DurabilityConfig::off());
    assert_eq!(
        got,
        Streams {
            control_frames: Digest {
                images: 10_766,
                hash: 0x427c8fd035a54685,
            },
            checkpoints: Digest::new(),
            heaps: Digest::new(),
        },
        "remote_churn-shaped control stream moved"
    );
}

#[test]
fn wide_durable_shape_control_stream_and_checkpoints_are_pinned() {
    let got = streams_of(
        &PerfSpec::mix(256, 5_000, 6_000),
        17,
        // At this scale a site appends a few hundred WAL records, so the
        // benchmark's cadence of 512 would never checkpoint.
        DurabilityConfig::memory().with_checkpoint_every(64),
    );
    assert!(
        got.checkpoints.images > 0,
        "the durable run must checkpoint"
    );
    assert_eq!(
        got,
        Streams {
            control_frames: Digest {
                images: 3_707,
                hash: 0x74e09dc3aecb55ab,
            },
            checkpoints: Digest {
                images: 449,
                hash: 0x417ccdff275c753d,
            },
            heaps: Digest {
                images: 256,
                hash: 0xede7bed367447084,
            },
        },
        "wide_durable-shaped control stream, checkpoint or heap images moved"
    );
}

/// The splitmix64 step, for ring placement apart from the ballast stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A `ring_reclaim`-shaped scenario on 64 sites: clean ballast, then
/// `rings` times an 8-site ring hung off a rooted anchor, settled, the
/// anchor cut, settled. Every ring member carries root stamps until the
/// cut, so this is the shape whose wire and checkpoint bytes pin the
/// engine's stamp encoding.
fn ring_scenario(seed: u64, ballast_objects: u32, rings: u32) -> Scenario {
    const SITES: u32 = 64;
    const SPAN: u32 = 8;
    let ballast = PerfSpec {
        islands: 0,
        hubs: 0,
        churn_ops: 0,
        ..PerfSpec::mix(SITES, ballast_objects, 0)
    };
    let mut s = build_perf_scenario(&ballast, seed);
    let mut rng = seed;
    for _ in 0..rings {
        let base = (splitmix64(&mut rng) % u64::from(SITES)) as u32;
        let stride = 1 + (splitmix64(&mut rng) % 7) as u32;
        let sites: Vec<SiteId> = (0..SPAN)
            .map(|k| SiteId::new((base + k * stride) % SITES))
            .collect();
        let anchor = s.alloc(sites[0], true);
        let members: Vec<ObjName> = sites.iter().map(|&site| s.alloc(site, false)).collect();
        s.send_ref(sites[0], anchor, members[0]);
        for k in 0..members.len() {
            let next = (k + 1) % members.len();
            s.send_ref(sites[next], members[k], members[next]);
        }
        s.settle();
        s.op(MutatorOp::Unlink {
            site: sites[0],
            from: anchor,
            to: members[0],
        });
        s.settle();
    }
    s
}

#[test]
fn ring_reclaim_shape_control_stream_and_checkpoints_are_pinned() {
    let got = streams_of_scenario(
        &ring_scenario(17, 2_000, 40),
        DurabilityConfig::memory().with_checkpoint_every(16),
    );
    assert!(
        got.checkpoints.images > 0,
        "the durable run must checkpoint"
    );
    assert_eq!(
        got,
        Streams {
            control_frames: Digest {
                images: 2_152,
                hash: 0x4d766614abedbc93,
            },
            checkpoints: Digest {
                images: 576,
                hash: 0x9569efb3e05cfe92,
            },
            heaps: Digest {
                images: 64,
                hash: 0x2afc40e739e01739,
            },
        },
        "ring_reclaim-shaped control stream, checkpoint or heap images moved"
    );
}
