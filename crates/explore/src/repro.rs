//! Self-contained reproducer printing: a shrunk failing triple becomes a
//! Rust test snippet that can be pasted into `tests/` verbatim.

use ggd_mutator::{MembershipKind, MutatorOp, Step};

use crate::runner::Triple;

fn format_op(op: &MutatorOp) -> String {
    match op {
        MutatorOp::Alloc {
            site,
            name,
            local_root,
        } => format!(
            "MutatorOp::Alloc {{ site: SiteId::new({}), name: ObjName({}), local_root: {} }}",
            site.index(),
            name.0,
            local_root
        ),
        MutatorOp::LinkLocal { site, from, to } => format!(
            "MutatorOp::LinkLocal {{ site: SiteId::new({}), from: ObjName({}), to: ObjName({}) }}",
            site.index(),
            from.0,
            to.0
        ),
        MutatorOp::Unlink { site, from, to } => format!(
            "MutatorOp::Unlink {{ site: SiteId::new({}), from: ObjName({}), to: ObjName({}) }}",
            site.index(),
            from.0,
            to.0
        ),
        MutatorOp::SendRef {
            from_site,
            recipient,
            target,
        } => format!(
            "MutatorOp::SendRef {{ from_site: SiteId::new({}), recipient: ObjName({}), target: ObjName({}) }}",
            from_site.index(),
            recipient.0,
            target.0
        ),
        MutatorOp::DropLocalRoot { site, name } => format!(
            "MutatorOp::DropLocalRoot {{ site: SiteId::new({}), name: ObjName({}) }}",
            site.index(),
            name.0
        ),
        MutatorOp::ClearRefs { site, name } => format!(
            "MutatorOp::ClearRefs {{ site: SiteId::new({}), name: ObjName({}) }}",
            site.index(),
            name.0
        ),
        MutatorOp::CollectSite { site } => {
            format!("MutatorOp::CollectSite {{ site: SiteId::new({}) }}", site.index())
        }
        MutatorOp::CollectAll => "MutatorOp::CollectAll".to_owned(),
    }
}

/// Renders `triple` as a self-contained `#[test]` snippet asserting the
/// universal invariant (zero safety violations for every collector that
/// runs on the triple's plan). `failure_kind` is recorded in the test's
/// doc comment so the pasted test explains itself.
pub fn reproducer(triple: &Triple, failure_kind: &str) -> String {
    let mut out = String::new();
    out.push_str("/// Shrunk reproducer generated by `ggd-explore` (failure kind:\n");
    out.push_str(&format!(
        "/// `{failure_kind}`). Paste into `tests/` and adjust the\n"
    ));
    out.push_str("/// assertions to the invariant being pinned.\n");
    out.push_str("#[test]\n");
    out.push_str("fn shrunk_explorer_reproducer() {\n");
    out.push_str("    use ggd::prelude::*;\n\n");
    out.push_str(&format!(
        "    let mut s = Scenario::new({});\n",
        triple.scenario.site_count()
    ));
    for step in triple.scenario.steps() {
        match step {
            Step::Op(op) => {
                out.push_str(&format!("    s.op({});\n", format_op(op)));
            }
            Step::Settle => out.push_str("    s.settle();\n"),
            // The builders re-stamp epochs monotonically, which preserves
            // behaviour: the protocol orders by schedule position, never by
            // epoch value.
            Step::Membership(ev) => {
                let builder = match ev.kind {
                    MembershipKind::Join => "join",
                    MembershipKind::PlannedLeave => "planned_leave",
                    MembershipKind::Evict => "evict",
                };
                out.push_str(&format!(
                    "    s.{builder}(SiteId::new({}));\n",
                    ev.site.index()
                ));
            }
        }
    }
    out.push_str("\n    let config = || ClusterConfig {\n");
    out.push_str(&format!(
        "        net: SimNetworkConfig::reordering({}),\n",
        triple.jitter
    ));
    out.push_str(&format!("        faults: {},\n", triple.fault.plan.code()));
    out.push_str(&format!("        seed: {},\n", triple.seed));
    if triple.durability.is_on() {
        let base = match &triple.durability.mode {
            ggd_sim::DurabilityMode::Memory => "DurabilityConfig::memory()".to_owned(),
            ggd_sim::DurabilityMode::Disk(dir) => {
                format!("DurabilityConfig::disk({:?})", dir.display().to_string())
            }
            ggd_sim::DurabilityMode::Off => unreachable!("is_on() checked"),
        };
        let cadence = if triple.durability.checkpoint_every != 0 {
            format!(
                ".with_checkpoint_every({})",
                triple.durability.checkpoint_every
            )
        } else {
            String::new()
        };
        out.push_str(&format!("        durability: {base}{cadence},\n"));
    }
    out.push_str("        ..ClusterConfig::default()\n");
    out.push_str("    };\n\n");
    out.push_str(
        "    let mut causal = Cluster::from_scenario(&s, config(), CausalCollector::new);\n",
    );
    out.push_str("    let report = causal.run(&s);\n");
    out.push_str("    assert_eq!(report.safety_violations, 0, \"causal must stay safe\");\n\n");
    out.push_str("    let mut tracing =\n");
    out.push_str(
        "        Cluster::from_scenario(&s, config(), TracingCollector::factory(s.site_count()));\n",
    );
    out.push_str("    let report = tracing.run(&s);\n");
    out.push_str("    assert_eq!(report.safety_violations, 0, \"tracing must stay safe\");\n");
    if triple.fault.plan.is_loss_free() && !triple.scenario.has_evict() {
        out.push_str("\n    let mut reflisting =\n");
        out.push_str("        Cluster::from_scenario(&s, config(), RefListingCollector::new);\n");
        out.push_str("    let report = reflisting.run(&s);\n");
        out.push_str(
            "    assert_eq!(report.safety_violations, 0, \"reflisting must stay safe\");\n",
        );
    }
    out.push_str("}\n");
    out
}
