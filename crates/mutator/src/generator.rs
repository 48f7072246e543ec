//! Composable, seeded scenario generation — the explorer's workload DSL —
//! and the shape builders every generator of this crate shares.
//!
//! Each of the paper's evaluation structures — the doubly linked list,
//! the disconnected inter-site ring, the live local chain and the
//! third-party exchange hub — is laid out by exactly one builder here. The
//! hand workloads in [`workloads`](crate::workloads) are fixed-site
//! parameterizations of those shapes; the [`Segment`]s below place the same
//! shapes over seeded site draws and mix them freely, with random churn,
//! within one scenario; [`build_perf_scenario`] cuts its garbage islands
//! with the same ring. Every op stream is held byte-identical by the
//! crate's `stream_pin` test, so a layout change is a deliberate re-pin.
//!
//! A [`ScenarioSpec`] is a site count plus a list of [`Segment`]s. Segments
//! are *object-disjoint* (each allocates and manipulates only its own
//! objects) but share the sites and the network, so their message traffic
//! and settling points interleave — which is exactly where collectors
//! disagree. [`ScenarioSpec::build`] returns the concrete [`Scenario`]
//! together with metadata the differential checks need, e.g. which objects
//! end the run as members of disconnected inter-site cycles (the garbage an
//! acyclic collector can never reclaim).
//!
//! # Example
//!
//! ```
//! use ggd_mutator::generator::{ScenarioSpec, SegmentWeights};
//!
//! let spec = ScenarioSpec::generate(7, &SegmentWeights::default());
//! assert!((2..=ScenarioSpec::MAX_SITES).contains(&spec.sites));
//! let built = spec.build(7);
//! assert_eq!(built.scenario, spec.build(7).scenario, "same seed, same scenario");
//! ```

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use ggd_types::SiteId;

use crate::{MutatorOp, ObjName, Scenario};

/// One composable building block of a generated scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Segment {
    /// A doubly-linked list of `k` elements on `k` distinct sites, hung off
    /// a fresh root and disconnected at the end: every element becomes a
    /// member of a 2-cycle of distributed garbage.
    List {
        /// Number of elements (≥ 2).
        k: u32,
    },
    /// A ring of `k` objects on `k` distinct sites, disconnected at the end:
    /// one big cycle of distributed garbage.
    Ring {
        /// Number of ring members (≥ 2).
        k: u32,
    },
    /// A ring over `island` distinct sites, each of which also hosts a live
    /// chain of `live_per_site` objects; the island is disconnected at the
    /// end while the live population stays reachable.
    Island {
        /// Number of island sites (≥ 2).
        island: u32,
        /// Live objects allocated per island site.
        live_per_site: u32,
    },
    /// A third-party exchange hub: a hub root repeatedly forwards a
    /// reference to a remote target object to `spokes` spoke roots. Nothing
    /// becomes garbage; the segment exists to generate third-party traffic.
    Hub {
        /// Number of spokes (≥ 1).
        spokes: u32,
    },
    /// `ops` random mutator operations (allocations, local links, reference
    /// sends including third-party forwards, unlinks, slot clears) over the
    /// segment's own objects, settling every 8 ops.
    Churn {
        /// Number of random operations.
        ops: u32,
    },
    /// Zipf-skewed churn: a small *hot set* of exported objects receives
    /// the bulk of the link/send/clear traffic (rank `r` drawn with weight
    /// `∝ 1/r`), while a cold population accumulates underneath. This is
    /// the access pattern real object spaces exhibit, and the one that
    /// stresses dependency-vector growth on a handful of heavily-shared
    /// vertices — exactly what elastic membership must retire cleanly.
    HotChurn {
        /// Number of random operations.
        ops: u32,
        /// Size of the hot set (≥ 1).
        hot: u32,
    },
}

impl Segment {
    /// Short, stable name used in corpus statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            Segment::List { .. } => "list",
            Segment::Ring { .. } => "ring",
            Segment::Island { .. } => "island",
            Segment::Hub { .. } => "hub",
            Segment::Churn { .. } => "churn",
            Segment::HotChurn { .. } => "hot-churn",
        }
    }
}

/// Relative weights for sampling segment kinds in [`ScenarioSpec::generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentWeights {
    /// Weight of [`Segment::List`].
    pub list: u32,
    /// Weight of [`Segment::Ring`].
    pub ring: u32,
    /// Weight of [`Segment::Island`].
    pub island: u32,
    /// Weight of [`Segment::Hub`].
    pub hub: u32,
    /// Weight of [`Segment::Churn`].
    pub churn: u32,
    /// Weight of [`Segment::HotChurn`]. Defaults to 0 so the classic
    /// corpora (whose op sequences are pinned by equivalence tests) stay
    /// byte-identical; the membership corpus turns it on.
    pub hot_churn: u32,
}

impl Default for SegmentWeights {
    fn default() -> Self {
        SegmentWeights {
            list: 2,
            ring: 2,
            island: 2,
            hub: 1,
            churn: 3,
            hot_churn: 0,
        }
    }
}

impl SegmentWeights {
    fn total(&self) -> u32 {
        self.list + self.ring + self.island + self.hub + self.churn + self.hot_churn
    }
}

/// A generated scenario specification: a site count plus the segments to
/// compose. Everything downstream — the concrete op sequence, the fault
/// schedule, the verdicts — is a pure function of `(spec, seed)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Number of sites the scenario runs over (2..=[`ScenarioSpec::MAX_SITES`]).
    pub sites: u32,
    /// The segments, emitted in order into one shared scenario.
    pub segments: Vec<Segment>,
}

/// A concrete scenario plus the generation metadata the differential
/// checks consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuiltScenario {
    /// The replayable op sequence.
    pub scenario: Scenario,
    /// Objects that end the run as members of disconnected *inter-site*
    /// cycles: comprehensive collectors must reclaim them, acyclic
    /// reference listing must never reclaim any of them.
    pub cyclic: Vec<ObjName>,
}

impl ScenarioSpec {
    /// Upper bound on generated site counts.
    pub const MAX_SITES: u32 = 16;

    /// Samples a specification from `seed`: a site count in
    /// `2..=MAX_SITES` and 1–3 weighted segments sized to fit the sites.
    pub fn generate(seed: u64, weights: &SegmentWeights) -> ScenarioSpec {
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let sites = rng.gen_range(2u32..=Self::MAX_SITES);
        let count = rng.gen_range(1u32..=3);
        let segments = (0..count)
            .map(|_| Self::sample_segment(&mut rng, sites, weights))
            .collect();
        ScenarioSpec { sites, segments }
    }

    fn sample_segment(rng: &mut ChaCha8Rng, sites: u32, weights: &SegmentWeights) -> Segment {
        let total = weights.total().max(1);
        let mut pick = rng.gen_range(0..total);
        let cycle_k = |rng: &mut ChaCha8Rng| rng.gen_range(2u32..=sites.min(6));
        if pick < weights.list {
            return Segment::List { k: cycle_k(rng) };
        }
        pick -= weights.list;
        if pick < weights.ring {
            return Segment::Ring { k: cycle_k(rng) };
        }
        pick -= weights.ring;
        if pick < weights.island {
            return Segment::Island {
                island: rng.gen_range(2u32..=sites.min(5)),
                live_per_site: rng.gen_range(0u32..=3),
            };
        }
        pick -= weights.island;
        // A hub needs a hub site, a target site and at least one spoke site.
        if pick < weights.hub && sites >= 3 {
            return Segment::Hub {
                spokes: rng.gen_range(1u32..=(sites - 2).min(6)),
            };
        }
        pick = pick.saturating_sub(weights.hub);
        if pick < weights.hot_churn {
            return Segment::HotChurn {
                ops: rng.gen_range(24u32..=64),
                hot: rng.gen_range(3u32..=10),
            };
        }
        Segment::Churn {
            ops: rng.gen_range(16u32..=64),
        }
    }

    /// Builds the concrete scenario for this spec, deterministically from
    /// `seed` (placements and churn draws come from a `ChaCha8` stream).
    pub fn build(&self, seed: u64) -> BuiltScenario {
        assert!(self.sites >= 2, "a generated scenario needs two sites");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6765_6e5f_6767_6421);
        let mut scenario = Scenario::new(self.sites);
        let mut cyclic = Vec::new();
        for segment in &self.segments {
            match *segment {
                Segment::List { k } => emit_cut(
                    &mut scenario,
                    &mut rng,
                    self.sites,
                    k,
                    &mut cyclic,
                    cut_list,
                ),
                Segment::Ring { k } => emit_cut(
                    &mut scenario,
                    &mut rng,
                    self.sites,
                    k,
                    &mut cyclic,
                    cut_ring,
                ),
                Segment::Island {
                    island,
                    live_per_site,
                } => emit_island(
                    &mut scenario,
                    &mut rng,
                    self.sites,
                    island,
                    live_per_site,
                    &mut cyclic,
                ),
                Segment::Hub { spokes } => emit_hub(&mut scenario, &mut rng, self.sites, spokes),
                Segment::Churn { ops } => {
                    emit_churn(&mut scenario, &mut rng, self.sites, ops, false)
                }
                Segment::HotChurn { ops, hot } => {
                    emit_hot_churn(&mut scenario, &mut rng, self.sites, ops, hot)
                }
            }
        }
        scenario.settle();
        BuiltScenario { scenario, cyclic }
    }
}

/// `k` distinct sites drawn uniformly from `0..sites`.
fn distinct_sites(rng: &mut ChaCha8Rng, sites: u32, k: u32) -> Vec<SiteId> {
    let mut pool: Vec<SiteId> = (0..sites).map(SiteId::new).collect();
    pool.shuffle(rng);
    pool.truncate(k as usize);
    pool
}

fn random_site(rng: &mut ChaCha8Rng, sites: u32) -> SiteId {
    SiteId::new(rng.gen_range(0..sites))
}

// ----------------------------------------------------------------------
// Shape builders
// ----------------------------------------------------------------------
//
// Each evaluation structure is laid out by exactly one function below:
// which site exports what, in which order, and where the settling points
// fall. The hand workloads, the explorer segments and the perf scenario
// differ only in the sites they pass in and in the settling they do after.

/// Hangs a live chain of `len` fresh objects off `head` on `site`, linked
/// locally, and returns its last object (`head` itself when `len` is 0).
pub(crate) fn chain(s: &mut Scenario, site: SiteId, head: ObjName, len: u32) -> ObjName {
    (0..len).fold(head, |prev, _| {
        let obj = s.alloc(site, false);
        s.op(MutatorOp::LinkLocal {
            site,
            from: prev,
            to: obj,
        });
        obj
    })
}

/// A doubly linked list with one element per entry of `sites`, hung off
/// `root` through a head reference, settled, then cut off `root`: every
/// element ends as a member of a 2-cycle of distributed garbage. Returns
/// the elements.
///
/// Each element's site exports its own reference to its neighbours (lazy
/// rule 1 both ways), and the list is fully linked before the settling
/// point so no element is collected while under construction.
pub(crate) fn cut_list(
    s: &mut Scenario,
    root_site: SiteId,
    root: ObjName,
    sites: &[SiteId],
) -> Vec<ObjName> {
    let elements: Vec<ObjName> = sites.iter().map(|&site| s.alloc(site, false)).collect();
    s.send_ref(sites[0], root, elements[0]);
    for i in 1..elements.len() {
        s.send_ref(sites[i], elements[i - 1], elements[i]); // next
        s.send_ref(sites[i - 1], elements[i], elements[i - 1]); // prev
    }
    s.settle();
    s.op(MutatorOp::Unlink {
        site: root_site,
        from: root,
        to: elements[0],
    });
    elements
}

/// A ring with one member per entry of `sites`, hung off `anchor`, fully
/// linked (each member's site exports it to its predecessor), settled, then
/// cut off `anchor`: one disconnected inter-site cycle. Returns the members.
pub(crate) fn cut_ring(
    s: &mut Scenario,
    anchor_site: SiteId,
    anchor: ObjName,
    sites: &[SiteId],
) -> Vec<ObjName> {
    let members: Vec<ObjName> = sites.iter().map(|&site| s.alloc(site, false)).collect();
    s.send_ref(sites[0], anchor, members[0]);
    for (i, &member) in members.iter().enumerate() {
        let next = (i + 1) % members.len();
        s.send_ref(sites[next], member, members[next]);
    }
    s.settle();
    s.op(MutatorOp::Unlink {
        site: anchor_site,
        from: anchor,
        to: members[0],
    });
    members
}

/// Third-party exchanges (lazy rule 2): a hub root on `hub_site` holds a
/// target object of `target_site`; for each entry of `spoke_sites` a fresh
/// spoke root is exported to the hub, a settle, and the hub forwards the
/// target's reference to the spoke. Nothing becomes garbage.
pub(crate) fn exchange_hub(
    s: &mut Scenario,
    hub_site: SiteId,
    target_site: SiteId,
    spoke_sites: impl IntoIterator<Item = SiteId>,
) {
    let hub = s.alloc(hub_site, true);
    let target = s.alloc(target_site, false);
    s.send_ref(target_site, hub, target);
    s.settle();
    for spoke_site in spoke_sites {
        let spoke = s.alloc(spoke_site, true);
        s.send_ref(spoke_site, hub, spoke);
        s.settle();
        s.send_ref(hub_site, spoke, target);
    }
}

/// Builds a list or a ring of `k` elements on distinct sites, hung off a
/// fresh root on a random site and cut off it; its elements are cyclic.
fn emit_cut(
    s: &mut Scenario,
    rng: &mut ChaCha8Rng,
    sites: u32,
    k: u32,
    cyclic: &mut Vec<ObjName>,
    build: fn(&mut Scenario, SiteId, ObjName, &[SiteId]) -> Vec<ObjName>,
) {
    let element_sites = distinct_sites(rng, sites, k.clamp(2, sites));
    let root_site = random_site(rng, sites);
    let root = s.alloc(root_site, true);
    cyclic.extend(build(s, root_site, root, &element_sites));
    s.settle();
}

fn emit_island(
    s: &mut Scenario,
    rng: &mut ChaCha8Rng,
    sites: u32,
    island: u32,
    live_per_site: u32,
    cyclic: &mut Vec<ObjName>,
) {
    let island_sites = distinct_sites(rng, sites, island.clamp(2, sites));
    // Live population on the island's sites: a local root with a chain of
    // local objects, never dropped.
    for &site in &island_sites {
        let head = s.alloc(site, true);
        chain(s, site, head, live_per_site);
    }
    // The island: a ring over the island sites hanging off a root on the
    // first island site, then disconnected.
    let anchor = s.alloc(island_sites[0], true);
    cyclic.extend(cut_ring(s, island_sites[0], anchor, &island_sites));
    s.settle();
}

fn emit_hub(s: &mut Scenario, rng: &mut ChaCha8Rng, sites: u32, spokes: u32) {
    let mut picked = distinct_sites(rng, sites, sites.min(spokes + 2));
    let hub_site = picked.remove(0);
    let target_site = picked.remove(0);
    // On a two-site system the spokes live with the target.
    if picked.is_empty() {
        picked.push(target_site);
    }
    // Spokes beyond the distinct pool wrap around over the picked sites.
    let spoke_sites = (0..spokes as usize).map(|i| picked[i % picked.len()]);
    exchange_hub(s, hub_site, target_site, spoke_sites);
    s.settle();
}

/// The churn segment: `ops` random allocations, reference sends, unlinks
/// and slot clears over fresh per-site roots, settling every eight ops.
/// With `any_recipient` any object may receive a reference message (the
/// hand workload [`random_churn`](crate::workloads::random_churn)); the
/// explorer's segment draws anchored recipients only.
pub(crate) fn emit_churn(
    s: &mut Scenario,
    rng: &mut ChaCha8Rng,
    sites: u32,
    ops: u32,
    any_recipient: bool,
) {
    // One segment-local root per site; all tracking below is segment-local,
    // so concurrent segments never touch each other's objects.
    let roots: Vec<ObjName> = (0..sites).map(|i| s.alloc(SiteId::new(i), true)).collect();
    let mut objects: Vec<(ObjName, SiteId)> = roots
        .iter()
        .enumerate()
        .map(|(i, &name)| (name, SiteId::new(i as u32)))
        .collect();
    let mut links: Vec<(SiteId, ObjName, ObjName)> = Vec::new();
    // Sites that legitimately hold (or have been sent) a reference to each
    // object besides its own site — a real mutator cannot forge references.
    let mut forwarders: std::collections::BTreeMap<ObjName, Vec<SiteId>> =
        std::collections::BTreeMap::new();
    // Objects that may legally *receive* a reference message, unless
    // `any_recipient`: local roots (well-known anchors) and objects whose own reference has been
    // exported before (which pins them as global-root vertices until
    // proven unreachable). A message to anything else could not have been
    // addressed by a real mutator — see "anchored recipients" in the
    // module docs of `ggd-explore`.
    let mut anchored: Vec<(ObjName, SiteId)> = objects.clone();

    for step in 0..ops {
        match rng.gen_range(0..5u8) {
            0 => {
                let site = random_site(rng, sites);
                let name = s.alloc(site, false);
                let holder = objects
                    .iter()
                    .filter(|(_, hosting)| *hosting == site)
                    .map(|&(n, _)| n)
                    .collect::<Vec<_>>()
                    .choose(rng)
                    .copied()
                    .unwrap_or(roots[site.index() as usize]);
                s.op(MutatorOp::LinkLocal {
                    site,
                    from: holder,
                    to: name,
                });
                links.push((site, holder, name));
                objects.push((name, site));
            }
            1 | 2 => {
                let &(target, target_site) = objects.choose(rng).expect("objects");
                let &(recipient, recipient_site) = if rng.gen_bool(0.5) {
                    let idx = rng.gen_range(0..sites) as usize;
                    &(roots[idx], SiteId::new(idx as u32))
                } else {
                    let pool = if any_recipient { &objects } else { &anchored };
                    pool.choose(rng).expect("roots are always in the pool")
                };
                if target_site != recipient_site {
                    let mut senders = vec![target_site];
                    senders.extend(forwarders.get(&target).into_iter().flatten().copied());
                    let from_site = *senders.choose(rng).expect("nonempty");
                    s.send_ref(from_site, recipient, target);
                    // The export pins `target` as a global root: it is now
                    // an anchored, addressable vertex.
                    if !anchored.iter().any(|&(n, _)| n == target) {
                        anchored.push((target, target_site));
                    }
                    if roots.contains(&recipient) {
                        forwarders.entry(target).or_default().push(recipient_site);
                    }
                }
            }
            3 => {
                if !links.is_empty() {
                    let idx = rng.gen_range(0..links.len());
                    let (site, from, to) = links.swap_remove(idx);
                    s.op(MutatorOp::Unlink { site, from, to });
                }
            }
            _ => {
                let candidates: Vec<ObjName> = objects
                    .iter()
                    .map(|&(n, _)| n)
                    .filter(|n| !roots.contains(n))
                    .collect();
                if let Some(&name) = candidates.choose(rng) {
                    let site = objects
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map(|&(_, hosting)| hosting)
                        .expect("known object");
                    s.op(MutatorOp::ClearRefs { site, name });
                }
            }
        }
        if step % 8 == 7 {
            s.settle();
        }
    }
    s.settle();
}

/// Draws a zipf-ish rank in `0..n`: rank `r` with weight `∝ 1/(r+1)`.
/// Integer cumulative weights keep the draw bit-stable across platforms.
fn zipf_rank(rng: &mut ChaCha8Rng, n: u32) -> u32 {
    debug_assert!(n >= 1);
    let scale = 720_720u64; // divisible by 1..=16, so weights stay exact
    let weights: Vec<u64> = (0..n).map(|r| scale / u64::from(r + 1)).collect();
    let total: u64 = weights.iter().sum();
    let mut pick = rng.gen_range(0..total);
    for (rank, w) in weights.iter().enumerate() {
        if pick < *w {
            return rank as u32;
        }
        pick -= w;
    }
    n - 1
}

fn emit_hot_churn(s: &mut Scenario, rng: &mut ChaCha8Rng, sites: u32, ops: u32, hot: u32) {
    let hot = hot.max(1);
    // Segment-local roots, as in `emit_churn`.
    let roots: Vec<ObjName> = (0..sites).map(|i| s.alloc(SiteId::new(i), true)).collect();
    // The hot set: round-robin over the sites, each member exported once to
    // the next site's root — pinned as an addressable global root, so every
    // later send to or of it is legal.
    let hot_objs: Vec<(ObjName, SiteId)> = (0..hot)
        .map(|i| {
            let site = SiteId::new(i % sites);
            let name = s.alloc(site, false);
            s.send_ref(site, roots[((i + 1) % sites) as usize], name);
            (name, site)
        })
        .collect();
    s.settle();

    let mut links: Vec<(SiteId, ObjName, ObjName)> = Vec::new();
    let mut cold: Vec<ObjName> = Vec::new();
    for step in 0..ops {
        // Hot-set members are ranked: member 0 sees roughly `hot`× the
        // traffic of member `hot-1`.
        let (hot_name, hot_site) = hot_objs[zipf_rank(rng, hot) as usize];
        match rng.gen_range(0..6u8) {
            0 | 1 => {
                // Grow the cold population under a hot parent.
                let obj = s.alloc(hot_site, false);
                s.op(MutatorOp::LinkLocal {
                    site: hot_site,
                    from: hot_name,
                    to: obj,
                });
                links.push((hot_site, hot_name, obj));
                cold.push(obj);
            }
            2 | 3 => {
                // Re-export the hot member to another site's root: the host
                // always holds its own object's reference, so this is legal
                // from `hot_site` regardless of earlier sends.
                let other = (hot_site.index() + 1 + rng.gen_range(0..sites - 1)) % sites;
                s.send_ref(hot_site, roots[other as usize], hot_name);
            }
            4 => {
                if !links.is_empty() {
                    let idx = rng.gen_range(0..links.len() as u32) as usize;
                    let (site, from, to) = links.swap_remove(idx);
                    s.op(MutatorOp::Unlink { site, from, to });
                }
            }
            _ => {
                // Clear a hot member's slots (dropping a swath of cold
                // children at once) — the heavy-tail destruction pattern.
                s.op(MutatorOp::ClearRefs {
                    site: hot_site,
                    name: hot_name,
                });
                links.retain(|&(_, from, _)| from != hot_name);
            }
        }
        if step % 8 == 7 {
            s.settle();
        }
    }
    s.settle();
}

// ----------------------------------------------------------------------
// Membership schedules
// ----------------------------------------------------------------------

/// Splices a deterministic elastic-membership schedule into a generated
/// scenario: up to one `Join` of a fresh site plus up to one departure
/// (`PlannedLeave` or `Evict`), inserted at settling points so every
/// change lands on a quiescent-ish cluster the way an operator would
/// schedule it. The schedule shape, the departing site and the insertion
/// points are all pure functions of `seed`.
///
/// Ops that target a departed site after its departure stay in the
/// scenario on purpose — the drivers skip them under the same legality
/// tracking crash faults use, and the explorer must exercise exactly that
/// path.
pub fn splice_membership(scenario: &crate::Scenario, seed: u64) -> crate::Scenario {
    use crate::{MembershipEvent, MembershipKind, Step};

    let founding = scenario.site_count();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6d65_6d62_6572_2121);
    // Schedule shapes: join-only / leave-only / evict-only / join+leave /
    // join+evict / join-then-leave-of-the-joiner. A two-site fleet never
    // shrinks below two: departures there are always paired with a join.
    let mut shape = rng.gen_range(0u8..6);
    if founding <= 2 && (shape == 1 || shape == 2) {
        shape += 2;
    }
    let joiner = SiteId::new(founding);
    let departing_founder = SiteId::new(rng.gen_range(0..founding));
    let mut events: Vec<(MembershipKind, SiteId)> = Vec::new();
    match shape {
        0 => events.push((MembershipKind::Join, joiner)),
        1 => events.push((MembershipKind::PlannedLeave, departing_founder)),
        2 => events.push((MembershipKind::Evict, departing_founder)),
        3 => {
            events.push((MembershipKind::Join, joiner));
            events.push((MembershipKind::PlannedLeave, departing_founder));
        }
        4 => {
            events.push((MembershipKind::Join, joiner));
            events.push((MembershipKind::Evict, departing_founder));
        }
        _ => {
            events.push((MembershipKind::Join, joiner));
            events.push((MembershipKind::PlannedLeave, joiner));
        }
    }

    // Insertion points: distinct settling points, in order. Schedules
    // longer than the settle list spill to the end of the scenario.
    let settle_positions: Vec<usize> = scenario
        .steps()
        .iter()
        .enumerate()
        .filter_map(|(i, step)| matches!(step, Step::Settle).then_some(i))
        .collect();
    let mut slots: Vec<Option<usize>> = Vec::new();
    let mut cursor = 0usize;
    for _ in &events {
        if cursor < settle_positions.len() {
            let idx = cursor + rng.gen_range(0..(settle_positions.len() - cursor) as u32) as usize;
            slots.push(Some(settle_positions[idx]));
            cursor = idx + 1;
        } else {
            slots.push(None);
        }
    }

    let mut steps: Vec<Step> = Vec::with_capacity(scenario.len() + events.len() + 1);
    let mut epoch = 0u64;
    let mut pending = events.iter().zip(slots.iter()).peekable();
    for (i, step) in scenario.steps().iter().enumerate() {
        steps.push(*step);
        while let Some(&(&(kind, site), &slot)) = pending.peek() {
            if slot == Some(i) {
                epoch += 1;
                steps.push(Step::Membership(MembershipEvent { epoch, kind, site }));
                pending.next();
            } else {
                break;
            }
        }
    }
    for (&(kind, site), _) in pending {
        epoch += 1;
        steps.push(Step::Membership(MembershipEvent { epoch, kind, site }));
    }
    // Let the reshaped fleet reach quiescence before the final checks.
    steps.push(Step::Settle);
    crate::Scenario::from_steps(founding, steps)
}

// ----------------------------------------------------------------------
// Large-scale perf scenarios
// ----------------------------------------------------------------------

/// Parameters of a large-scale performance scenario (the repo benchmark's
/// workloads, `benchmark/`). Unlike the explorer segments, these
/// builders do all bookkeeping in O(1) per op — site-bucketed object pools,
/// no linear scans — so scenarios with hundreds of thousands of ops build
/// in milliseconds.
///
/// The generated heap shape mirrors a production object space: each site
/// hosts a handful of *arena anchors* — objects exported once (to a
/// neighbouring site's root) and therefore pinned as global roots — and the
/// bulk of the objects hang in trees under those anchors. Site roots hold
/// only remote references, so mutator churn under one anchor leaves every
/// other vertex's reachability untouched — exactly the locality the
/// incremental delta pipeline exploits and a full rescan cannot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfSpec {
    /// Number of sites.
    pub sites: u32,
    /// Objects pre-populated before churn begins (roots and anchors
    /// included).
    pub objects: u32,
    /// Arena anchors per site.
    pub anchors_per_site: u32,
    /// Random mutator operations after pre-population.
    pub churn_ops: u32,
    /// Disconnected inter-site garbage rings woven into the heap.
    pub islands: u32,
    /// Sites spanned by each island ring.
    pub island_span: u32,
    /// Third-party exchange hubs.
    pub hubs: u32,
    /// Spokes per hub.
    pub hub_spokes: u32,
    /// Settling cadence during churn (every `settle_every` ops).
    pub settle_every: u32,
}

impl PerfSpec {
    /// The churn + island + hub mix at a given scale, with proportions
    /// tuned so runs exercise exports, third-party sends, destructions and
    /// verdicts together.
    pub fn mix(sites: u32, objects: u32, churn_ops: u32) -> PerfSpec {
        PerfSpec {
            sites,
            objects,
            anchors_per_site: if objects / sites >= 512 { 32 } else { 8 },
            churn_ops,
            islands: (sites / 8).max(1),
            island_span: 4.min(sites).max(2),
            hubs: (sites / 16).max(1),
            hub_spokes: 6.min(sites.saturating_sub(2)).max(1),
            settle_every: 512,
        }
    }
}

/// Builds the concrete scenario for `spec`, deterministically from `seed`.
pub fn build_perf_scenario(spec: &PerfSpec, seed: u64) -> Scenario {
    assert!(spec.sites >= 2, "perf scenarios need at least two sites");
    let sites = spec.sites;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7065_7266_5f67_6764);
    let mut s = Scenario::new(sites);

    // One root per site; roots only ever hold remote references.
    let roots: Vec<ObjName> = (0..sites).map(|i| s.alloc(SiteId::new(i), true)).collect();

    // Arena anchors: exported to the next site's root, so each is pinned as
    // a live global root for the whole run.
    let anchors = spec.anchors_per_site.max(1);
    let mut pools: Vec<Vec<Vec<ObjName>>> = (0..sites).map(|_| Vec::new()).collect();
    for site in 0..sites {
        for _ in 0..anchors {
            let anchor = s.alloc(SiteId::new(site), false);
            s.send_ref(
                SiteId::new(site),
                roots[((site + 1) % sites) as usize],
                anchor,
            );
            pools[site as usize].push(vec![anchor]);
        }
    }

    // Filler objects: trees under the anchors, bucketed per site so every
    // placement choice is O(1).
    let prepopulated = (sites + sites * anchors).min(spec.objects);
    for i in 0..spec.objects.saturating_sub(prepopulated) {
        let site = (i % sites) as usize;
        let pool_idx = rng.gen_range(0..anchors) as usize;
        let obj = s.alloc(SiteId::new(site as u32), false);
        let pool = &mut pools[site][pool_idx];
        let parent = pool[rng.gen_range(0..pool.len() as u32) as usize];
        s.op(MutatorOp::LinkLocal {
            site: SiteId::new(site as u32),
            from: parent,
            to: obj,
        });
        pool.push(obj);
    }
    s.settle();

    // Garbage islands: inter-site rings hung off a dedicated root, then
    // disconnected — the work comprehensive collectors must find.
    for island in 0..spec.islands {
        let span = spec.island_span.clamp(2, sites);
        let base = (island * 3) % sites;
        let member_sites: Vec<SiteId> =
            (0..span).map(|k| SiteId::new((base + k) % sites)).collect();
        let anchor = s.alloc(member_sites[0], true);
        cut_ring(&mut s, member_sites[0], anchor, &member_sites);
    }

    // Hubs: third-party exchange traffic (lazy rule 2 on the hot path),
    // without the settle between spokes the explorer's hubs make.
    for hub_idx in 0..spec.hubs {
        let hub_site = SiteId::new((hub_idx * 5) % sites);
        let target_site = SiteId::new((hub_idx * 5 + 1) % sites);
        let hub = s.alloc(hub_site, true);
        let target = s.alloc(target_site, false);
        s.send_ref(target_site, hub, target);
        for spoke_idx in 0..spec.hub_spokes {
            let spoke_site = SiteId::new((hub_idx * 5 + 2 + spoke_idx) % sites);
            let spoke = s.alloc(spoke_site, true);
            s.send_ref(spoke_site, hub, spoke);
            s.send_ref(hub_site, spoke, target);
        }
    }
    s.settle();

    // Churn: allocation, linking, cross-site sends, unlinks and clears over
    // the anchor pools. Site roots stay out of the local graph, so each op
    // dirties exactly one arena.
    let mut links: Vec<(SiteId, ObjName, ObjName)> = Vec::new();
    let mut cross_refs: Vec<(SiteId, ObjName, ObjName)> = Vec::new();
    let settle_every = spec.settle_every.max(1);
    for step in 0..spec.churn_ops {
        let site = rng.gen_range(0..sites) as usize;
        let pool_idx = rng.gen_range(0..anchors) as usize;
        match rng.gen_range(0..8u8) {
            0..=2 => {
                let obj = s.alloc(SiteId::new(site as u32), false);
                let parent = {
                    let pool = &pools[site][pool_idx];
                    pool[rng.gen_range(0..pool.len() as u32) as usize]
                };
                s.op(MutatorOp::LinkLocal {
                    site: SiteId::new(site as u32),
                    from: parent,
                    to: obj,
                });
                links.push((SiteId::new(site as u32), parent, obj));
                pools[site][pool_idx].push(obj);
            }
            3..=4 => {
                // Send a reference to a random object to an anchor of
                // another site (anchors are exported, hence addressable).
                let target = {
                    let pool = &pools[site][pool_idx];
                    pool[rng.gen_range(0..pool.len() as u32) as usize]
                };
                let other = (site + 1 + rng.gen_range(0..sites - 1) as usize) % sites as usize;
                let recipient = pools[other][rng.gen_range(0..anchors) as usize][0];
                s.send_ref(SiteId::new(site as u32), recipient, target);
                cross_refs.push((SiteId::new(other as u32), recipient, target));
            }
            5 => {
                if let Some(idx) = non_empty_index(&mut rng, links.len()) {
                    let (link_site, from, to) = links.swap_remove(idx);
                    s.op(MutatorOp::Unlink {
                        site: link_site,
                        from,
                        to,
                    });
                }
            }
            6 => {
                if let Some(idx) = non_empty_index(&mut rng, cross_refs.len()) {
                    let (ref_site, from, to) = cross_refs.swap_remove(idx);
                    s.op(MutatorOp::Unlink {
                        site: ref_site,
                        from,
                        to,
                    });
                }
            }
            _ => {
                let pool = &pools[site][pool_idx];
                if pool.len() > 1 {
                    let victim = pool[rng.gen_range(1..pool.len() as u32) as usize];
                    s.op(MutatorOp::ClearRefs {
                        site: SiteId::new(site as u32),
                        name: victim,
                    });
                }
            }
        }
        if step % settle_every == settle_every - 1 {
            s.settle();
        }
    }
    s.settle();
    s
}

fn non_empty_index(rng: &mut ChaCha8Rng, len: usize) -> Option<usize> {
    if len == 0 {
        None
    } else {
        Some(rng.gen_range(0..len as u32) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Step;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for seed in 0..20u64 {
            let a = ScenarioSpec::generate(seed, &SegmentWeights::default());
            let b = ScenarioSpec::generate(seed, &SegmentWeights::default());
            assert_eq!(a, b);
            assert_eq!(a.build(seed), b.build(seed));
        }
        let a = ScenarioSpec::generate(1, &SegmentWeights::default());
        let b = ScenarioSpec::generate(2, &SegmentWeights::default());
        assert!(a != b || a.build(1) != b.build(2));
    }

    #[test]
    fn specs_respect_the_site_bound() {
        for seed in 0..200u64 {
            let spec = ScenarioSpec::generate(seed, &SegmentWeights::default());
            assert!((2..=ScenarioSpec::MAX_SITES).contains(&spec.sites));
            assert!((1..=3).contains(&spec.segments.len()));
            let built = spec.build(seed);
            assert_eq!(built.scenario.site_count(), spec.sites);
            for step in built.scenario.steps() {
                if let Step::Op(op) = step {
                    for site in op.sites() {
                        assert!(site.index() < spec.sites, "op targets site out of range");
                    }
                }
            }
        }
    }

    #[test]
    fn cyclic_members_come_from_cycle_segments_only() {
        let spec = ScenarioSpec {
            sites: 6,
            segments: vec![Segment::Ring { k: 4 }, Segment::Churn { ops: 24 }],
        };
        let built = spec.build(3);
        assert_eq!(built.cyclic.len(), 4, "the ring contributes its members");
        let spec = ScenarioSpec {
            sites: 4,
            segments: vec![Segment::Hub { spokes: 2 }],
        };
        assert!(spec.build(3).cyclic.is_empty(), "hubs produce no garbage");
    }

    #[test]
    fn perf_scenarios_are_deterministic_and_legal() {
        let spec = PerfSpec::mix(16, 2_000, 500);
        let a = build_perf_scenario(&spec, 9);
        let b = build_perf_scenario(&spec, 9);
        assert_eq!(a, b, "same spec and seed must build the same scenario");

        let mut defined = std::collections::BTreeSet::new();
        let mut allocs = 0u32;
        for step in a.steps() {
            if let Step::Op(op) = step {
                if let Some(name) = op.defined_name() {
                    assert!(defined.insert(name), "names are unique");
                    allocs += 1;
                }
                for used in op.used_names() {
                    assert!(defined.contains(&used), "op uses undefined name");
                }
                for site in op.sites() {
                    assert!(site.index() < spec.sites);
                }
            }
        }
        assert!(
            allocs >= spec.objects,
            "pre-population must reach the requested object count"
        );
    }

    #[test]
    fn default_weights_never_sample_hot_churn() {
        // The classic corpora are pinned by equivalence tests; the zipf
        // segment must stay opt-in.
        for seed in 0..200u64 {
            let spec = ScenarioSpec::generate(seed, &SegmentWeights::default());
            assert!(
                !spec
                    .segments
                    .iter()
                    .any(|s| matches!(s, Segment::HotChurn { .. })),
                "seed {seed} sampled a hot-churn segment under default weights"
            );
        }
    }

    #[test]
    fn hot_churn_scenarios_are_deterministic_and_legal() {
        let weights = SegmentWeights {
            hot_churn: 10,
            ..SegmentWeights::default()
        };
        let mut sampled = 0u32;
        for seed in 0..40u64 {
            let spec = ScenarioSpec::generate(seed, &weights);
            sampled += spec
                .segments
                .iter()
                .filter(|s| matches!(s, Segment::HotChurn { .. }))
                .count() as u32;
            let built = spec.build(seed);
            assert_eq!(built.scenario, spec.build(seed).scenario);
            let mut defined = std::collections::BTreeSet::new();
            for step in built.scenario.steps() {
                if let Step::Op(op) = step {
                    if let Some(name) = op.defined_name() {
                        assert!(defined.insert(name), "names are unique");
                    }
                    for used in op.used_names() {
                        assert!(defined.contains(&used), "op uses undefined name");
                    }
                    for site in op.sites() {
                        assert!(site.index() < spec.sites);
                    }
                }
            }
        }
        assert!(sampled >= 10, "the weight must actually bias sampling");
    }

    #[test]
    fn zipf_ranks_skew_toward_the_head() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut counts = [0u32; 8];
        for _ in 0..8_000 {
            counts[zipf_rank(&mut rng, 8) as usize] += 1;
        }
        assert!(
            counts[0] > counts[7] * 4,
            "rank 0 must dominate: {counts:?}"
        );
        assert!(counts.iter().all(|&c| c > 0), "the tail still appears");
    }

    #[test]
    fn splice_membership_is_deterministic_and_well_formed() {
        use crate::MembershipKind;
        for seed in 0..60u64 {
            let spec = ScenarioSpec::generate(seed, &SegmentWeights::default());
            let base = spec.build(seed).scenario;
            let spliced = splice_membership(&base, seed);
            assert_eq!(
                spliced,
                splice_membership(&base, seed),
                "same seed, same schedule"
            );
            assert!(spliced.has_membership(), "a schedule is always spliced");
            assert_eq!(spliced.site_count(), base.site_count());
            let events: Vec<_> = spliced.membership_events().collect();
            assert!((1..=2).contains(&events.len()));
            let mut active: std::collections::BTreeSet<u32> = (0..base.site_count()).collect();
            for (i, ev) in events.iter().enumerate() {
                assert_eq!(ev.epoch, i as u64 + 1, "epochs are dense and ordered");
                match ev.kind {
                    MembershipKind::Join => {
                        assert!(ev.site.index() >= base.site_count());
                        assert!(active.insert(ev.site.index()), "no double join");
                    }
                    MembershipKind::PlannedLeave | MembershipKind::Evict => {
                        assert!(active.remove(&ev.site.index()), "departure of a member");
                    }
                }
            }
            assert!(active.len() >= 2, "the fleet never shrinks below two");
            // The mutator ops themselves are untouched.
            let base_ops: Vec<_> = base
                .steps()
                .iter()
                .filter(|s| matches!(s, Step::Op(_)))
                .collect();
            let spliced_ops: Vec<_> = spliced
                .steps()
                .iter()
                .filter(|s| matches!(s, Step::Op(_)))
                .collect();
            assert_eq!(base_ops, spliced_ops);
        }
    }

    #[test]
    fn every_generated_op_references_defined_names() {
        for seed in 0..50u64 {
            let spec = ScenarioSpec::generate(seed, &SegmentWeights::default());
            let built = spec.build(seed);
            let mut defined = std::collections::BTreeSet::new();
            for step in built.scenario.steps() {
                if let Step::Op(op) = step {
                    if let Some(name) = op.defined_name() {
                        assert!(defined.insert(name), "names are unique");
                    }
                    for used in op.used_names() {
                        assert!(defined.contains(&used), "op uses undefined name");
                    }
                }
            }
        }
    }
}
