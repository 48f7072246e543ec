//! The differential scenario explorer (see `ggd-explore`).
//!
//! ```sh
//! cargo run --release -p ggd-bench --bin explore -- --corpus 200 --seed 7
//! cargo run --release -p ggd-bench --bin explore -- --corpus 20 --self-test
//! cargo run --release -p ggd-bench --bin explore -- --corpus 200 --membership
//! ```
//!
//! `--crashes` switches to the crash corpus: fault plans from the crash
//! matrix, every crashed site recovering by checkpoint-load + WAL replay.
//! `--membership` switches to the elastic-membership corpus: every triple
//! gets a join/leave/evict schedule spliced in, draws its fault plan from
//! the partition matrix (scheduled split-and-heal windows), and runs with
//! the zero-references-to-departed-sites oracle armed. Given both flags,
//! the membership corpus runs.
//!
//! `--trace` re-runs every failing triple's shrunk form with full
//! observability on and prints its JSONL event timeline (schema
//! `ggd-obs-trace/v1`) next to the reproducer — replay determinism makes
//! the traced run the same run that failed. `--validate-traces` instead
//! traces the first `--corpus` classic triples and schema-validates every
//! timeline (the CI obs-smoke gate), running no differential checks.
//!
//! Exit code 0 when the corpus ran clean (violating triples: 0, and —
//! under `--strict` — no divergences either); 1 otherwise, with every
//! failing triple shrunk and printed as a paste-ready test snippet. In
//! `--self-test` mode the expectation flips: the deliberately sabotaged
//! causal collector *must* be caught, so a clean corpus exits 1.

use ggd_explore::{corpus_triple, explore, trace_triple, CorpusFamily, ExplorerConfig, RunMode};
use ggd_obs::validate_jsonl;

fn parse_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_u64(args: &[String], name: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Parses a corpus size: out-of-range or zero values are rejected (falling
/// back to the default) rather than silently truncated — a truncated-to-0
/// corpus would make the CI oracle "pass" having verified nothing.
fn parse_corpus(args: &[String], name: &str) -> Option<u32> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u32>().ok())
        .filter(|&corpus| corpus > 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let self_test = parse_flag(&args, "--self-test");
    let trace = parse_flag(&args, "--trace");
    let validate_traces = parse_flag(&args, "--validate-traces");
    let config = ExplorerConfig {
        corpus: parse_corpus(&args, "--corpus").unwrap_or(200),
        seed: parse_u64(&args, "--seed").unwrap_or(7),
        strict: parse_flag(&args, "--strict"),
        // `--membership` wins over `--crashes`.
        family: if parse_flag(&args, "--membership") {
            CorpusFamily::Membership
        } else if parse_flag(&args, "--crashes") {
            CorpusFamily::Crashes
        } else {
            CorpusFamily::Classic
        },
        mode: if self_test {
            RunMode::SabotagedCausal { arm_after: 3 }
        } else {
            RunMode::Standard
        },
        ..ExplorerConfig::default()
    };

    if validate_traces {
        println!(
            "## ggd-explore — trace-schema validation (corpus={}, seed={})",
            config.corpus, config.seed
        );
        let mut event_lines = 0usize;
        for index in 0..config.corpus {
            let (_, triple) = corpus_triple(config.seed, index, &config.weights);
            let timeline = trace_triple(&triple);
            match validate_jsonl(&timeline) {
                Ok(lines) => event_lines += lines,
                Err(err) => {
                    println!("triple #{index}: INVALID trace — {err}");
                    std::process::exit(1);
                }
            }
        }
        println!(
            "{} traces schema-valid ({event_lines} event/object lines)",
            config.corpus
        );
        return;
    }

    println!(
        "## ggd-explore — differential corpus (corpus={}, seed={}{}{}{})",
        config.corpus,
        config.seed,
        if config.strict { ", strict" } else { "" },
        match config.family {
            CorpusFamily::Classic => "",
            CorpusFamily::Crashes => ", CRASH MATRIX + durability",
            CorpusFamily::Membership => ", MEMBERSHIP + PARTITION MATRIX + durability",
        },
        if self_test { ", SELF-TEST" } else { "" },
    );
    let exploration = explore(&config);
    println!("{}", exploration.stats);

    for failure in &exploration.failures {
        println!(
            "\n### triple #{} failed ({}), shrunk to {} ops over {} sites on plan `{}`:",
            failure.index,
            failure.kind,
            failure.shrunk.op_count(),
            failure.shrunk.scenario.site_count(),
            failure.shrunk.fault.name,
        );
        for f in &failure.failures {
            println!("  - {f:?}");
        }
        println!("\n{}", failure.reproducer);
        if trace {
            let timeline = trace_triple(&failure.shrunk);
            match validate_jsonl(&timeline) {
                Ok(_) => println!("event timeline of the shrunk triple:\n{timeline}"),
                Err(err) => println!("event timeline INVALID ({err}):\n{timeline}"),
            }
        }
    }

    if self_test {
        // The sabotaged collector must be detected and shrink to a tiny
        // reproducer, proving the oracle and the shrinker actually work.
        let caught = exploration.stats.violating_triples > 0;
        let tiny = exploration
            .failures
            .iter()
            .any(|f| f.kind == "safety" && f.shrunk.op_count() <= 10);
        if caught && tiny {
            println!("\nself-test OK: unsafe sweep caught and shrunk to ≤ 10 ops");
        } else {
            println!(
                "\nself-test FAILED: caught={caught} tiny={tiny} — the differential oracle \
                 or the shrinker is broken"
            );
            std::process::exit(1);
        }
        return;
    }

    if exploration.stats.violating_triples > 0
        || (config.strict && !exploration.failures.is_empty())
    {
        std::process::exit(1);
    }
}
