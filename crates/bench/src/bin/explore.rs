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
//! causal collector *must* be caught, so a clean corpus exits 1. An
//! unknown argument, or a `--corpus` or `--seed` without a valid value (a
//! corpus must be at least 1), runs nothing and exits 2.

use ggd_explore::{corpus_triple, explore, trace_triple, CorpusFamily, ExplorerConfig, RunMode};
use ggd_obs::validate_jsonl;

/// The flags the explorer takes.
const FLAGS: [&str; 6] = [
    "--self-test",
    "--trace",
    "--validate-traces",
    "--strict",
    "--membership",
    "--crashes",
];

/// The options the explorer takes, each followed by its value.
const OPTIONS: [&str; 2] = ["--corpus", "--seed"];

/// The first argument that is neither a flag nor an option with its value:
/// a mistyped flag must not run a corpus other than the one asked for.
fn unknown_arg(args: &[String]) -> Option<&String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if OPTIONS.contains(&arg.as_str()) {
            rest.next();
        } else if !FLAGS.contains(&arg.as_str()) {
            return Some(arg);
        }
    }
    None
}

fn parse_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The value after option `name`: `Ok(None)` when the option is absent,
/// an error when its value is missing or does not parse.
fn parse_option<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{name}: cannot parse {value:?}"))
}

/// Parses a corpus size: out-of-range or zero values are errors, not
/// silently replaced — a corpus of 0 would make the CI oracle "pass"
/// having verified nothing, and any other substitute checks a corpus
/// nobody asked for.
fn parse_corpus(args: &[String], name: &str) -> Result<Option<u32>, String> {
    match parse_option::<u32>(args, name)? {
        Some(0) => Err(format!("{name} must be at least 1")),
        corpus => Ok(corpus),
    }
}

/// Exits 2 with `message` on bad usage.
fn usage_error(message: String) -> ! {
    eprintln!("explore: {message}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(arg) = unknown_arg(&args) {
        usage_error(format!("unknown argument {arg:?}"));
    }
    let self_test = parse_flag(&args, "--self-test");
    let trace = parse_flag(&args, "--trace");
    let validate_traces = parse_flag(&args, "--validate-traces");
    let corpus = parse_corpus(&args, "--corpus").unwrap_or_else(|e| usage_error(e));
    let seed = parse_option::<u64>(&args, "--seed").unwrap_or_else(|e| usage_error(e));
    let config = ExplorerConfig {
        corpus: corpus.unwrap_or(200),
        seed: seed.unwrap_or(7),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn absent_options_take_the_defaults() {
        let none = args(&["--crashes"]);
        assert_eq!(parse_corpus(&none, "--corpus"), Ok(None));
        assert_eq!(parse_option::<u64>(&none, "--seed"), Ok(None));
    }

    #[test]
    fn valid_values_parse() {
        let given = args(&["--corpus", "30", "--seed", "7"]);
        assert_eq!(parse_corpus(&given, "--corpus"), Ok(Some(30)));
        assert_eq!(parse_option::<u64>(&given, "--seed"), Ok(Some(7)));
    }

    #[test]
    fn only_known_arguments_are_accepted() {
        let golden = args(&["--corpus", "12", "--seed", "7", "--crashes", "--self-test"]);
        assert_eq!(unknown_arg(&golden), None);
        assert_eq!(unknown_arg(&args(&FLAGS)), None);
        // An option's value is not taken for an argument of its own.
        assert_eq!(unknown_arg(&args(&["--seed", "--crashes"])), None);
        for bad in [&["--crash"][..], &["200"], &["--corpus", "30", "-v"]] {
            assert_eq!(
                unknown_arg(&args(bad)),
                bad.last().map(|a| a.to_string()).as_ref()
            );
        }
    }

    #[test]
    fn bad_values_are_errors_not_defaults() {
        for bad in [
            &["--seed", "0x11"][..],
            &["--seed", "-1"],
            &["--seed"],
            &["--seed", "18446744073709551616"],
        ] {
            assert!(
                parse_option::<u64>(&args(bad), "--seed").is_err(),
                "{bad:?}"
            );
        }
        for bad in [
            &["--corpus", "0"][..],
            &["--corpus", "4294967296"],
            &["--corpus", "ten"],
            &["--corpus"],
        ] {
            assert!(parse_corpus(&args(bad), "--corpus").is_err(), "{bad:?}");
        }
    }
}
