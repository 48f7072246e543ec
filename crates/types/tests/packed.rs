//! Pins of the packed identities and timestamps: `VertexId` and
//! `GlobalAddr` order, compare and hash exactly as the pair and enum forms
//! they replaced, `Timestamp` orders as `(index, destroyed)`, every type
//! keeps its size, and the `Debug`, `Display` and wire forms are the ones
//! the enum forms printed and wrote.

use std::cmp::Ordering;
use std::hash::{BuildHasher, BuildHasherDefault};

use ggd_types::{write_varint, GlobalAddr, IdHasher, Timestamp, VertexId};

/// A xorshift stream: the same draws on every run.
fn stream(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

const SITES: [u32; 6] = [0, 1, 2, 7, u32::MAX - 1, u32::MAX];
const OBJECTS: [u64; 7] = [0, 1, 2, 300, 1 << 32, u64::MAX - 1, u64::MAX];

/// A vertex drawn from the edge values above, or at random, with its model
/// `(kind, site, object)`: kind 0 for an anchor (object 0), 1 for an object.
fn draw_vertex(next: &mut impl FnMut() -> u64) -> (VertexId, (u8, u32, u64)) {
    let site = match next() % 3 {
        0 => next() as u32,
        _ => SITES[(next() % SITES.len() as u64) as usize],
    };
    let object = match next() % 3 {
        0 => next(),
        _ => OBJECTS[(next() % OBJECTS.len() as u64) as usize],
    };
    if next() % 3 == 0 {
        (VertexId::site_root(site), (0, site, 0))
    } else {
        (VertexId::object(site, object), (1, site, object))
    }
}

/// A timestamp and its model `(index, destroyed)`; `NEVER` is `(0, false)`.
fn draw_timestamp(next: &mut impl FnMut() -> u64) -> (Timestamp, (u64, bool)) {
    let index = match next() % 4 {
        0 => next() >> 1,
        1 => u64::MAX >> 1,
        _ => next() % 5 + 1,
    };
    match next() % 5 {
        0 => (Timestamp::NEVER, (0, false)),
        1 | 2 => (Timestamp::created(index.max(1)), (index.max(1), false)),
        _ => (Timestamp::destroyed(index.max(1)), (index.max(1), true)),
    }
}

#[test]
fn vertex_order_and_equality_follow_the_tuple_model() {
    let mut next = stream(0x0bad_5eed_1d5a_11ce);
    for _ in 0..20_000 {
        let (a, ma) = draw_vertex(&mut next);
        let (b, mb) = draw_vertex(&mut next);
        assert_eq!(a.cmp(&b), ma.cmp(&mb), "{a:?} vs {b:?}");
        assert_eq!(a.partial_cmp(&b), Some(ma.cmp(&mb)));
        assert_eq!(a == b, ma == mb, "{a:?} vs {b:?}");
        assert_eq!(a.cmp(&a), Ordering::Equal);
        assert_eq!(a.site().index(), ma.1);
        assert_eq!(a.is_site_root(), ma.0 == 0);
        assert_eq!(
            a.as_site_root().map(|s| s.index()),
            (ma.0 == 0).then_some(ma.1)
        );
        assert_eq!(
            a.as_object()
                .map(|addr| (addr.site().index(), addr.object().index())),
            (ma.0 == 1).then_some((ma.1, ma.2))
        );
    }
}

#[test]
fn global_addr_order_and_equality_follow_the_pair_model() {
    let mut next = stream(0xadd7_0b5e_55ed_0001);
    let mut draw = || {
        let site = SITES[(next() % SITES.len() as u64) as usize] ^ (next() % 2) as u32;
        let object = OBJECTS[(next() % OBJECTS.len() as u64) as usize] ^ (next() % 2);
        (GlobalAddr::new(site, object), (site, object))
    };
    for _ in 0..20_000 {
        let (a, ma) = draw();
        let (b, mb) = draw();
        assert_eq!(a.cmp(&b), ma.cmp(&mb), "{a} vs {b}");
        assert_eq!(a == b, ma == mb, "{a} vs {b}");
        // A global root orders among vertices as its address does.
        assert_eq!(VertexId::from(a).cmp(&VertexId::from(b)), ma.cmp(&mb));
    }
}

#[test]
fn timestamp_order_and_equality_follow_the_pair_model() {
    let mut next = stream(0x7135_7a3b_0123_4567);
    for _ in 0..20_000 {
        let (a, ma) = draw_timestamp(&mut next);
        let (b, mb) = draw_timestamp(&mut next);
        assert_eq!(a.cmp(&b), ma.cmp(&mb), "{a:?} vs {b:?}");
        assert_eq!(a == b, ma == mb, "{a:?} vs {b:?}");
        assert_eq!(a.merged(b), if ma >= mb { a } else { b });
        assert_eq!(a.index(), ma.0);
        assert_eq!(a.is_live(), ma.0 > 0 && !ma.1);
        assert_eq!(a.is_absent(), !a.is_live());
        assert_eq!(a.live_index(), if ma.1 { 0 } else { ma.0 });
        assert_eq!(a.wire(), ma.0 << 1 | u64::from(ma.1));
        assert_eq!(Timestamp::from_wire(a.wire()), Ok(a));
    }
}

#[test]
fn packed_types_keep_their_sizes() {
    assert_eq!(std::mem::size_of::<VertexId>(), 16);
    assert_eq!(std::mem::size_of::<GlobalAddr>(), 16);
    assert_eq!(std::mem::size_of::<Timestamp>(), 8);
    assert_eq!(std::mem::size_of::<(VertexId, Timestamp)>(), 24);
}

#[test]
fn debug_and_display_forms_are_the_enum_forms() {
    let m = u32::MAX;
    let vertices = [
        (VertexId::site_root(0), "SiteRoot(SiteId(0))", "root(s0)"),
        (
            VertexId::site_root(m),
            "SiteRoot(SiteId(4294967295))",
            "root(s4294967295)",
        ),
        (
            VertexId::object(2, 7),
            "Object(GlobalAddr { site: SiteId(2), object: ObjectId(7) })",
            "s2/o7",
        ),
        (
            VertexId::object(m, u64::MAX),
            "Object(GlobalAddr { site: SiteId(4294967295), object: ObjectId(18446744073709551615) })",
            "s4294967295/o18446744073709551615",
        ),
    ];
    for (vertex, debug, display) in vertices {
        assert_eq!(format!("{vertex:?}"), debug);
        assert_eq!(vertex.to_string(), display);
    }
    let timestamps = [
        (Timestamp::NEVER, "Never", "0"),
        (Timestamp::created(1), "Created(EventIndex(1))", "1"),
        (
            Timestamp::destroyed(300),
            "Destroyed(EventIndex(300))",
            "Ē300",
        ),
    ];
    for (ts, debug, display) in timestamps {
        assert_eq!(format!("{ts:?}"), debug);
        assert_eq!(ts.to_string(), display);
    }
}

#[test]
fn vertices_hash_as_the_enum_did() {
    // `IdHasher` values of the two-variant enum, so every `IdMap` keyed by
    // vertices keeps its layout.
    let hash = |v: VertexId| BuildHasherDefault::<IdHasher>::default().hash_one(v);
    let m = u32::MAX;
    let pinned = [
        (VertexId::site_root(0), 0x0),
        (VertexId::site_root(3), 0xf476_4525_7566_1fbf),
        (VertexId::site_root(m), 0xd5a5_48dd_d8dd_f56b),
        (VertexId::object(0, 0), 0x9741_01c9_64ba_25d5),
        (VertexId::object(2, 7), 0xb7d8_1fac_43ed_d6d2),
        (VertexId::object(1, 300), 0xabbc_e51d_4dce_fed3),
        (VertexId::object(m, u64::MAX), 0xfaa6_4825_3a6d_3d77),
    ];
    for (vertex, expected) in pinned {
        assert_eq!(hash(vertex), expected, "{vertex}");
    }
}

#[test]
fn timestamp_wire_bytes_are_the_enum_codec_bytes() {
    // The codec writes a timestamp as one varint of its wire form; these
    // are the bytes the three-variant enum's codec wrote.
    let max = u64::MAX >> 1;
    let pinned: [(Timestamp, &[u8]); 7] = [
        (Timestamp::NEVER, &[0]),
        (Timestamp::created(1), &[2]),
        (Timestamp::destroyed(1), &[3]),
        (Timestamp::created(64), &[128, 1]),
        (Timestamp::destroyed(300), &[217, 4]),
        (
            Timestamp::created(max),
            &[254, 255, 255, 255, 255, 255, 255, 255, 255, 1],
        ),
        (
            Timestamp::destroyed(max),
            &[255, 255, 255, 255, 255, 255, 255, 255, 255, 1],
        ),
    ];
    for (ts, bytes) in pinned {
        let mut out = Vec::new();
        write_varint(&mut out, ts.wire());
        assert_eq!(out, bytes, "{ts:?}");
    }
}
