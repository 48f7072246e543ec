//! Stream-identity pin: an FNV-1a digest over the `Debug` rendering of the
//! steps of every hand workload (over a parameter grid), of 600 generated
//! explorer scenarios and of the perf scenarios behind the repo benchmark's
//! mix workloads at 1/10 scale.
//!
//! The hand workloads, the explorer segments and the perf scenario share
//! their structure builders; every digest below was generated before they
//! did, so a builder change that moves a single op, name or settling point
//! fails here.

use std::fmt::{self, Write};

use ggd_mutator::generator::{build_perf_scenario, PerfSpec, ScenarioSpec, SegmentWeights};
use ggd_mutator::{workloads, Scenario};

/// A running FNV-1a (64-bit) digest over formatted text.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn digest(scenarios: impl IntoIterator<Item = Scenario>) -> u64 {
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    for scenario in scenarios {
        write!(fnv, "{:?};", scenario.steps()).expect("hashing cannot fail");
    }
    fnv.0
}

fn generated(weights: SegmentWeights) -> u64 {
    digest((0..300u64).map(|seed| ScenarioSpec::generate(seed, &weights).build(seed).scenario))
}

fn digests() -> Vec<(&'static str, u64)> {
    let islands = (2..=8u32).flat_map(|total| {
        (1..total).flat_map(move |island| {
            (0..=3).map(move |live| workloads::garbage_island(total, island, live))
        })
    });
    let perf = [(64, 10_000, 2_000), (64, 800, 15_000), (256, 5_000, 6_000)]
        .into_iter()
        .flat_map(|(sites, objects, churn)| {
            [17, 23].map(|seed| build_perf_scenario(&PerfSpec::mix(sites, objects, churn), seed))
        });
    let churn = (2..=8u32).flat_map(|sites| {
        [0, 1, 7, 60, 400]
            .into_iter()
            .flat_map(move |ops| (0..=5).map(move |seed| workloads::random_churn(sites, ops, seed)))
    });
    let exports = (2..=6u32)
        .flat_map(|sites| (0..=5).map(move |rounds| workloads::export_churn(sites, rounds)));
    vec![
        (
            "doubly_linked_list",
            digest((1..=11).map(workloads::doubly_linked_list)),
        ),
        ("ring", digest((2..=11).map(workloads::ring))),
        (
            "third_party_exchanges",
            digest((1..=9).map(workloads::third_party_exchanges)),
        ),
        ("garbage_island", digest(islands)),
        ("paper_example", digest([workloads::paper_example()])),
        ("random_churn", digest(churn)),
        ("export_churn", digest(exports)),
        ("generated_default", generated(SegmentWeights::default())),
        (
            "generated_hot_churn",
            generated(SegmentWeights {
                hot_churn: 2,
                ..SegmentWeights::default()
            }),
        ),
        ("perf_mix", digest(perf)),
    ]
}

#[test]
fn op_streams_are_unchanged() {
    const PINNED: [(&str, u64); 10] = [
        ("doubly_linked_list", 0xe595_c302_4d78_7a85),
        ("ring", 0xca11_dd58_6b1a_cf2d),
        ("third_party_exchanges", 0x4d4e_d673_5a23_f697),
        ("garbage_island", 0x01fc_6e27_05d8_3a3a),
        ("paper_example", 0x5cb1_163a_3b34_ca05),
        ("random_churn", 0x74f6_c72a_42d5_1e19),
        ("export_churn", 0xf747_a6e1_b129_2bf8),
        ("generated_default", 0x1a31_09e7_72cb_4a0f),
        ("generated_hot_churn", 0x5acc_ab7c_8b9c_8649),
        ("perf_mix", 0xcb22_2534_8fba_35c1),
    ];
    assert_eq!(digests(), PINNED);
}
