//! Codec round-trips over the explorer's pinned seed corpora.
//!
//! `encode ∘ decode ∘ encode` must be the byte-identity for every value the
//! durable format carries. Synthetic values are covered by the unit tests
//! in `ggd-store`; here the values are *real*: WAL records derived from
//! every op of pinned generated scenarios, every control message the causal
//! engines of those runs actually put on the wire, and the full engine
//! checkpoints of every site at end of run. Malformed vectors and root
//! stamps — keys out of order or repeated — must fail the decode with
//! `CodecError::Invalid`, and the sorted stamp type must encode exactly as
//! the ordered map it replaced. (Corrupted-record rejection — bad checksum,
//! truncated tail — is pinned in `ggd-store`'s `wal` and `store` test
//! modules.) A payload the engine builds in the storage of one it received
//! must encode exactly as one built in fresh storage.

use std::collections::BTreeMap;

use ggd_causal::{CausalEngine, CausalMessage, DkLog, EngineCheckpoint, RootStamps, RootedVector};
use ggd_explore::corpus_triple;
use ggd_heap::{ObjRef, SiteHeap};
use ggd_mutator::generator::SegmentWeights;
use ggd_mutator::{MutatorOp, Step};
use ggd_sim::{CausalCollector, Cluster};
use ggd_store::{decode_from_slice, encode_to_vec, CodecError, Encode, WalRecord};
use ggd_types::{write_varint, DependencyVector, GlobalAddr, SiteId, Timestamp, VertexId};

const PINNED_SEED: u64 = 7;
const PINNED_INDICES: &[u32] = &[0, 1, 2, 3, 4, 5, 6, 7, 11, 19];

fn assert_bit_identical<T>(value: &T, what: &str)
where
    T: ggd_store::Encode + ggd_store::Decode + PartialEq + std::fmt::Debug,
{
    let bytes = encode_to_vec(value);
    let decoded: T = decode_from_slice(&bytes).unwrap_or_else(|e| {
        panic!("{what}: decode failed: {e} (value {value:?})");
    });
    assert_eq!(&decoded, value, "{what}: decode changed the value");
    assert_eq!(
        encode_to_vec(&decoded),
        bytes,
        "{what}: re-encode is not bit-identical"
    );
}

/// Maps a scenario op to the WAL records a site would log for it (address
/// resolution simplified: names map to synthetic addresses — the codec does
/// not care which addresses, only that every record shape round-trips).
fn records_for(op: &MutatorOp) -> Vec<WalRecord<CausalMessage>> {
    let addr = |n: ggd_mutator::ObjName| GlobalAddr::new(n.0 % 7, u64::from(n.0) + 1);
    match op {
        MutatorOp::Alloc { local_root, .. } => vec![WalRecord::Alloc {
            local_root: *local_root,
        }],
        MutatorOp::LinkLocal { from, to, .. } => vec![WalRecord::LinkLocal {
            from: addr(*from),
            to: addr(*to),
        }],
        MutatorOp::Unlink { from, to, .. } => vec![WalRecord::Unlink {
            from: addr(*from),
            to: addr(*to),
        }],
        MutatorOp::SendRef {
            from_site,
            recipient,
            target,
        } => vec![
            WalRecord::Export {
                target: addr(*target),
                recipient: addr(*recipient),
            },
            WalRecord::ReceiveRef {
                from: *from_site,
                recipient: addr(*recipient),
                target: addr(*target),
            },
        ],
        MutatorOp::DropLocalRoot { name, .. } => {
            vec![WalRecord::DropLocalRoot { addr: addr(*name) }]
        }
        MutatorOp::ClearRefs { name, .. } => vec![WalRecord::ClearRefs { addr: addr(*name) }],
        MutatorOp::CollectSite { .. } | MutatorOp::CollectAll => vec![WalRecord::Collect],
    }
}

#[test]
fn wal_records_of_pinned_scenarios_round_trip_bit_identically() {
    let weights = SegmentWeights::default();
    let mut records = 0u64;
    for &index in PINNED_INDICES {
        let (_, triple) = corpus_triple(PINNED_SEED, index, &weights);
        for step in triple.scenario.steps() {
            let Step::Op(op) = step else { continue };
            for record in records_for(op) {
                assert_bit_identical(&record, &format!("triple #{index} record"));
                records += 1;
            }
        }
    }
    assert!(
        records > 500,
        "the corpus must exercise many records, got {records}"
    );
}

#[test]
fn engine_checkpoints_and_wire_messages_of_pinned_runs_round_trip() {
    let weights = SegmentWeights::default();
    let mut checkpoints = 0u64;
    let mut messages = 0u64;
    for &index in PINNED_INDICES[..4].iter() {
        let (_, triple) = corpus_triple(PINNED_SEED, index, &weights);
        let (_, cluster) =
            Cluster::run_seeded(&triple.scenario, triple.config(), CausalCollector::new);
        for site in 0..triple.scenario.site_count() {
            let engine = cluster.collector(SiteId::new(site)).engine();
            let checkpoint = engine.checkpoint();
            assert_bit_identical(
                &checkpoint,
                &format!("triple #{index} site {site} checkpoint"),
            );
            checkpoints += 1;

            // Every row of the engine's log is knowledge that travelled (or
            // could travel) on the wire: round-trip it as a message payload.
            for (vertex, row) in engine.log().rows() {
                let message = CausalMessage {
                    from: vertex,
                    to: vertex,
                    payload: row.to_rooted(),
                };
                assert_bit_identical(
                    &message,
                    &format!("triple #{index} site {site} row message"),
                );
                messages += 1;
            }

            // A decoded checkpoint restores to an engine with the same
            // observable log.
            let bytes = encode_to_vec(&checkpoint);
            let decoded: EngineCheckpoint = decode_from_slice(&bytes).expect("decodes");
            let restored = ggd_causal::CausalEngine::restore(decoded);
            assert_eq!(
                restored.log().to_string(),
                engine.log().to_string(),
                "restored engine log differs"
            );
        }
    }
    assert!(checkpoints >= 8, "too few checkpoints exercised");
    assert!(messages >= 20, "too few wire messages exercised");
}

/// The bytes of a length-prefixed list of `(key, value)` entries, in the
/// order given — the layout of a dependency vector and of a stamp map.
fn entry_list<K: Encode, V: Encode>(entries: &[(K, V)]) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, entries.len() as u64);
    for (key, value) in entries {
        key.encode(&mut out);
        value.encode(&mut out);
    }
    out
}

/// A control message frame `from → to` around a raw payload.
fn message_frame(vector: &[u8], stamps: &[u8]) -> Vec<u8> {
    let mut out = encode_to_vec(&VertexId::object(1, 1));
    VertexId::object(2, 1).encode(&mut out);
    out.extend_from_slice(vector);
    out.extend_from_slice(stamps);
    out
}

fn is_invalid<T: std::fmt::Debug>(decoded: Result<T, CodecError>) -> bool {
    matches!(decoded, Err(CodecError::Invalid(_)))
}

#[test]
fn disordered_or_repeated_keys_fail_the_decode() {
    let v = |obj: u64| VertexId::object(3, obj);
    let ts = Timestamp::created(1);
    let sorted_vector = |n: u64| (1..=n).map(|obj| (v(obj), ts)).collect::<Vec<_>>();
    let sorted_stamps = |n: u64| (1..=n).map(|obj| (v(obj), (obj, true))).collect::<Vec<_>>();
    let no_stamps = entry_list::<VertexId, (u64, bool)>(&[]);
    let no_vector = entry_list::<VertexId, Timestamp>(&[]);

    // Inline-sized and spilled vectors alike.
    for n in [2u64, 3, 6] {
        let good = sorted_vector(n);
        let frame = message_frame(&entry_list(&good), &no_stamps);
        assert!(
            decode_from_slice::<CausalMessage>(&frame).is_ok(),
            "{n} sorted"
        );

        let mut swapped = good.clone();
        swapped.swap(0, 1);
        let mut repeated = good.clone();
        repeated[1].0 = repeated[0].0;
        let mut never = good.clone();
        never[n as usize - 1].1 = Timestamp::NEVER;
        for (what, bad) in [
            ("out of order", swapped),
            ("repeated", repeated),
            ("Never", never),
        ] {
            let bytes = entry_list(&bad);
            assert!(
                is_invalid(decode_from_slice::<DependencyVector>(&bytes)),
                "{n}-entry vector {what}"
            );
            let frame = message_frame(&bytes, &no_stamps);
            assert!(
                is_invalid(decode_from_slice::<CausalMessage>(&frame)),
                "{n}-entry payload vector {what}"
            );
        }

        let good = sorted_stamps(n);
        assert!(decode_from_slice::<RootStamps>(&entry_list(&good)).is_ok());
        let mut swapped = good.clone();
        swapped.swap(n as usize - 2, n as usize - 1);
        let mut repeated = good.clone();
        repeated[1].0 = repeated[0].0;
        for (what, bad) in [("out of order", swapped), ("repeated", repeated)] {
            let bytes = entry_list(&bad);
            assert!(
                is_invalid(decode_from_slice::<RootStamps>(&bytes)),
                "{n} stamps {what}"
            );
            let frame = message_frame(&no_vector, &bytes);
            assert!(
                is_invalid(decode_from_slice::<CausalMessage>(&frame)),
                "{n} payload stamps {what}"
            );
        }
    }

    // The log-wide stamps of an engine checkpoint: the image of a log with
    // stamps and no rows, its stamp list spliced out of order.
    let site = SiteId::new(3);
    let mut log = DkLog::new(site);
    log.stamp_root(v(1), 4, true);
    log.stamp_root(v(2), 5, false);
    let mut checkpoint = ggd_causal::CausalEngine::new(site).checkpoint();
    checkpoint.log = log;
    let bytes = encode_to_vec(&checkpoint);
    assert!(decode_from_slice::<EngineCheckpoint>(&bytes).is_ok());
    let stamps = encode_to_vec(&checkpoint.log.root_flags());
    let at = bytes
        .windows(stamps.len())
        .position(|window| window == stamps.as_slice())
        .expect("the image holds the stamp list");
    let mut spliced = bytes[..at].to_vec();
    spliced.extend(entry_list(&[(v(2), (5u64, false)), (v(1), (4, true))]));
    spliced.extend_from_slice(&bytes[at + stamps.len()..]);
    assert_eq!(spliced.len(), bytes.len());
    assert!(is_invalid(decode_from_slice::<EngineCheckpoint>(&spliced)));
}

#[test]
fn root_stamps_encode_exactly_as_the_ordered_map() {
    // Seeded stamp sequences over anchors and objects of a few sites, each
    // applied to the sorted stamp type and to the ordered map it replaced
    // under the same freshest-stamp-wins rule: the bytes must agree, alone
    // and inside a rooted vector, and decode back to the same stamps.
    let mut state = 0x0b7e_e5a9_5eed_c0deu64;
    let mut next = move |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    let mut total = 0;
    for _ in 0..300 {
        let mut stamps = RootStamps::new();
        let mut map: BTreeMap<VertexId, (u64, bool)> = BTreeMap::new();
        let mut vector = DependencyVector::new();
        for _ in 0..next(24) {
            let site = next(6) as u32;
            let vertex = if next(5) == 0 {
                VertexId::site_root(site)
            } else {
                VertexId::object(site, next(1 << 20))
            };
            let (as_of, is_root) = (next(1 << 40), next(2) == 0);
            stamps.stamp(vertex, as_of, is_root);
            match map.get(&vertex) {
                Some(&(existing, _)) if existing >= as_of => {}
                _ => {
                    map.insert(vertex, (as_of, is_root));
                }
            }
            vector.merge_entry(vertex, Timestamp::created(as_of + 1));
        }
        total += map.len();
        let bytes = encode_to_vec(&stamps);
        assert_eq!(bytes, encode_to_vec(&map));
        assert_eq!(decode_from_slice::<RootStamps>(&bytes), Ok(stamps.clone()));

        let mut old_layout = encode_to_vec(&vector);
        map.encode(&mut old_layout);
        let rooted = RootedVector {
            vector,
            root_flags: stamps,
        };
        assert_eq!(encode_to_vec(&rooted), old_layout);
    }
    assert!(total > 2_000, "only {total} stamps exercised");
}

/// Every payload an engine builds in the storage of a payload it received —
/// here first a wide one, nine entries and three stamps, both spilled —
/// equals, entry for entry and byte for byte, the payload its twin builds:
/// the engine restored from a checkpoint taken right after that receipt,
/// which holds no received storage. Covers a destruction and a root
/// announcement built in that storage, then propagations, each built in the
/// storage of the message that caused it and cloned for a second target.
#[test]
fn payloads_built_in_received_storage_equal_a_fresh_engines() {
    let site = SiteId::new(0);
    let remote = |site: u32, obj: u64| VertexId::object(site, obj);
    let mut heap = SiteHeap::new(site);
    let mut engine = CausalEngine::new(site);

    // `sender` holds three remote references, `quiet` none; both exported.
    let (sender, quiet) = (heap.alloc(), heap.alloc());
    for (obj, holder) in [(sender, remote(5, 1)), (quiet, remote(6, 1))] {
        heap.register_global_root(obj).unwrap();
        engine.on_export(heap.addr_of(obj), holder);
    }
    let targets = [1, 2, 3].map(|obj| GlobalAddr::new(3, obj));
    for target in targets {
        heap.add_ref(sender, ObjRef::Remote(target)).unwrap();
    }
    engine.apply_delta(&heap.take_delta());
    assert!(
        engine.take_outgoing().is_empty(),
        "lazy creations send nothing"
    );

    // The wide message: `quiet` has no out-edges, so its receipt propagates
    // nothing and its payload stays behind as the spare. It names vertices
    // of site 8, which no later payload mentions: a stamp of theirs left in
    // the spare would show in the next payload built there.
    let wide = |from: VertexId, to: VertexId, index: u64, site: u32| {
        let mut payload = RootedVector::new();
        payload.vector.set(from, Timestamp::created(index));
        for k in 0..8 {
            payload
                .vector
                .set(remote(site, k + 1), Timestamp::created(index + k));
        }
        for k in 0..3 {
            payload.stamp_root(remote(site, k + 1), index, k != 1);
        }
        CausalMessage { from, to, payload }
    };
    let quiet_vertex = VertexId::from(heap.addr_of(quiet));
    let message = wide(remote(6, 1), quiet_vertex, 1, 8);
    assert!(!message.payload.vector.is_inline());
    engine.on_message(message);
    assert!(engine.take_outgoing().is_empty());
    let mut twin = CausalEngine::restore(engine.checkpoint());

    // Every later event goes to both engines; their messages must agree.
    let mut checked = 0;
    let mut compare = |engine: &mut CausalEngine, twin: &mut CausalEngine, what: &str| {
        let (ours, theirs) = (engine.take_outgoing(), twin.take_outgoing());
        assert!(!ours.is_empty(), "{what}: nothing sent");
        assert_eq!(ours, theirs, "{what}");
        for (a, b) in ours.iter().zip(&theirs) {
            assert_eq!(
                encode_to_vec(&a.message),
                encode_to_vec(&b.message),
                "{what}"
            );
        }
        checked += ours.len();
    };
    heap.remove_ref(sender, ObjRef::Remote(targets[0])).unwrap();
    let delta = heap.take_delta();
    engine.apply_delta(&delta);
    twin.apply_delta(&delta);
    compare(&mut engine, &mut twin, "destruction");
    let root = heap.alloc_local_root();
    heap.add_ref(root, ObjRef::Remote(targets[1])).unwrap();
    let delta = heap.take_delta();
    engine.apply_delta(&delta);
    twin.apply_delta(&delta);
    compare(&mut engine, &mut twin, "root announcement");
    let sender_vertex = VertexId::from(heap.addr_of(sender));
    for index in 2..5 {
        let message = wide(remote(5, 1), sender_vertex, index, 7);
        engine.on_message(message.clone());
        twin.on_message(message);
        compare(&mut engine, &mut twin, "propagation");
    }
    assert_eq!(checked, 2 + 3 * 2);
}
