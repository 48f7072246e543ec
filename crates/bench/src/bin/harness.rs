//! Regenerates every experiment table of EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p ggd-bench --bin harness            # all experiments
//! cargo run --release -p ggd-bench --bin harness -- e3 e6   # a subset
//! ```
//!
//! Ids are case-insensitive; `baseline` writes `BENCH_baseline.json` into
//! the working directory. An unknown id runs nothing and exits 2; a failed
//! write of the baseline exits 1.

use ggd_bench as bench;

/// Every id the harness accepts, in the order it runs them.
const IDS: [&str; 10] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e10", "baseline",
];

fn wanted(args: &[String], id: &str) -> bool {
    args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(id))
}

/// The first argument that names no experiment, if any.
fn unknown_id(args: &[String]) -> Option<&String> {
    args.iter()
        .find(|a| !IDS.iter().any(|id| a.eq_ignore_ascii_case(id)))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(id) = unknown_id(&args) {
        eprintln!(
            "harness: unknown experiment {id:?} (known: {})",
            IDS.join(", ")
        );
        std::process::exit(2);
    }

    if wanted(&args, "e1") || wanted(&args, "e2") {
        let (report, logs) = bench::experiment_paper_example();
        println!("## E1/E2 — the paper's running example (Figures 3-5, 8)");
        println!("{report}");
        println!("final per-site DK logs:\n{logs}");
    }
    if wanted(&args, "e3") {
        let rows = bench::experiment_list_collapse(&[2, 4, 8, 16, 24]);
        println!(
            "{}",
            bench::render(
                "E3 — doubly-linked list collapse (§4, Schelvis comparison; schelvis* is the analytical O(k²) packet count)",
                &rows
            )
        );
    }
    if wanted(&args, "e4") {
        let rows =
            bench::experiment_faults(&[(0.0, 0.0), (0.1, 0.0), (0.3, 0.0), (0.0, 0.3), (0.3, 0.3)]);
        println!(
            "{}",
            bench::render("E4 — safety under message loss / duplication", &rows)
        );
    }
    if wanted(&args, "e5") {
        let rows = bench::experiment_lazy_vs_eager(&[2, 4, 8, 16]);
        println!(
            "{}",
            bench::render(
                "E5 — lazy vs eager log-keeping on third-party exchanges",
                &rows
            )
        );
    }
    if wanted(&args, "e6") {
        let rows = bench::experiment_cycles(&[2, 4, 8, 12]);
        println!(
            "{}",
            bench::render("E6 — comprehensiveness: inter-site cycles", &rows)
        );
    }
    if wanted(&args, "e7") {
        let rows = bench::experiment_stalled_site(&[6, 10, 14]);
        println!(
            "{}",
            bench::render(
                "E7 — consensus bottleneck: one unrelated site stalled",
                &rows
            )
        );
    }
    if wanted(&args, "e8") {
        let rows = bench::experiment_live_population(&[1, 4, 16, 32]);
        println!(
            "{}",
            bench::render("E8 — fixed garbage, growing live population", &rows)
        );
    }
    if wanted(&args, "e10") {
        println!("## E10 — per-object detection latency (obs ledger, oracle on)");
        println!("{}", bench::experiment_detection_latency());
    }
    if wanted(&args, "baseline") {
        let entries = bench::baseline();
        let json = bench::baseline_json(&entries);
        let path = "BENCH_baseline.json";
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {} baseline entries to {path}", entries.len()),
            Err(err) => {
                eprintln!("harness: could not write {path}: {err}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn every_known_id_is_accepted_in_any_case() {
        assert_eq!(unknown_id(&args(&[])), None);
        assert_eq!(unknown_id(&args(&IDS)), None);
        assert_eq!(unknown_id(&args(&["E1", "Baseline", "e10"])), None);
    }

    #[test]
    fn an_unknown_id_is_named() {
        assert_eq!(
            unknown_id(&args(&["e1", "e9", "e11"])),
            Some(&"e9".to_string())
        );
        assert_eq!(unknown_id(&args(&["--all"])), Some(&"--all".to_string()));
    }
}
