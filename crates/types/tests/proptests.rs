//! Property-based tests for the dependency-vector lattice and the
//! vector-time partial order.

use ggd_types::{CausalOrder, DependencyVector, Timestamp, VertexId};
use proptest::prelude::*;

fn arb_addr() -> impl Strategy<Value = VertexId> {
    (0u32..4, 0u64..4).prop_map(|(s, o)| VertexId::object(s, o))
}

fn arb_timestamp() -> impl Strategy<Value = Timestamp> {
    prop_oneof![
        Just(Timestamp::NEVER),
        (1u64..64).prop_map(Timestamp::created),
        (1u64..64).prop_map(Timestamp::destroyed),
    ]
}

fn arb_vector() -> impl Strategy<Value = DependencyVector> {
    proptest::collection::vec((arb_addr(), arb_timestamp()), 0..12)
        .prop_map(|entries| entries.into_iter().collect())
}

proptest! {
    /// Merging is idempotent: v ⊔ v = v.
    #[test]
    fn merge_idempotent(v in arb_vector()) {
        prop_assert_eq!(v.merged_with(&v), v);
    }

    /// Merging is commutative: a ⊔ b = b ⊔ a.
    #[test]
    fn merge_commutative(a in arb_vector(), b in arb_vector()) {
        prop_assert_eq!(a.merged_with(&b), b.merged_with(&a));
    }

    /// Merging is associative: (a ⊔ b) ⊔ c = a ⊔ (b ⊔ c).
    #[test]
    fn merge_associative(a in arb_vector(), b in arb_vector(), c in arb_vector()) {
        prop_assert_eq!(
            a.merged_with(&b).merged_with(&c),
            a.merged_with(&b.merged_with(&c))
        );
    }

    /// The merge dominates both of its inputs entry-wise in the information
    /// (freshness) order: no merge can ever lose knowledge.
    #[test]
    fn merge_is_upper_bound(a in arb_vector(), b in arb_vector()) {
        let join = a.merged_with(&b);
        for (addr, ts) in a.iter().chain(b.iter()) {
            prop_assert!(join.get(addr) >= ts);
        }
    }

    /// Timestamp merge picks one of its operands and is monotone.
    #[test]
    fn timestamp_merge_selects_operand(a in arb_timestamp(), b in arb_timestamp()) {
        let m = a.merged(b);
        prop_assert!(m == a || m == b);
        prop_assert!(m >= a && m >= b);
    }

    /// The causal order is antisymmetric on the Before/After classification.
    #[test]
    fn causal_order_antisymmetric(a in arb_vector(), b in arb_vector()) {
        let ab = a.causal_order(&b);
        let ba = b.causal_order(&a);
        let flipped = match ab {
            CausalOrder::Before => CausalOrder::After,
            CausalOrder::After => CausalOrder::Before,
            other => other,
        };
        prop_assert_eq!(ba, flipped);
    }

    /// `dominated_by` is a partial order: reflexive and transitive.
    #[test]
    fn dominated_by_partial_order(a in arb_vector(), b in arb_vector(), c in arb_vector()) {
        prop_assert!(a.dominated_by(&a));
        if a.dominated_by(&b) && b.dominated_by(&c) {
            prop_assert!(a.dominated_by(&c));
        }
    }

    /// The entry-list conversion pair (the serde wire format declared by the
    /// `#[serde(from, into)]` attributes) round-trips the vector exactly.
    #[test]
    fn entry_list_round_trip(v in arb_vector()) {
        let entries: Vec<(VertexId, Timestamp)> = v.clone().into();
        let back = DependencyVector::from(entries);
        prop_assert_eq!(v, back);
    }

    /// Explicitly destroyed and absent entries are indistinguishable for the
    /// causal (reachability) order.
    #[test]
    fn destroyed_equivalent_to_absent(v in arb_vector(), addr in arb_addr(), idx in 1u64..32) {
        let mut with_destroyed = v.clone();
        with_destroyed.set(addr, Timestamp::destroyed(idx));
        let mut without = v.clone();
        without.set(addr, Timestamp::NEVER);
        prop_assert_eq!(with_destroyed.causal_order(&without), CausalOrder::Equal);
    }
}
