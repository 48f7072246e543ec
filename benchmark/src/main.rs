//! `cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 17`
//!
//! Generates the workloads from the seed, runs them closed-loop from one
//! thread on the sequential `Cluster`, checks the outputs and prints every
//! metric by name with its unit. The last line of standard output is one
//! JSON object `{correct, attempted, failed, metrics}` per workload run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ggd_benchmark::host::Calibrator;
use ggd_benchmark::metrics::{result_json, unit_of, END_TO_END, PER_LAYER};
use ggd_benchmark::run::{Checks, Noise, TimedSession};
use ggd_benchmark::trace::traced_session;
use ggd_benchmark::workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage: ggd-benchmark [--workload NAME] [--seed N] [--reps N | --seconds S] \
[--trace 0|1] [--quick] [--spans] [--out FILE]
  --workload NAME  run one workload (default: all four, reps interleaved round-robin)
  --seed N         workload seed (default 17)
  --reps N         timed reps per workload (default 9; 2 with --quick)
  --seconds S      time-boxed run: timed reps for S seconds per workload instead of --reps,
                   traced rounds until S seconds have passed; skips the oracle pass
  --trace 0|1      0: end-to-end metrics only; 1: per-layer metrics only (default: both)
  --quick          1/10 scale, for tests only
  --spans          keep the raw spans of the traced rep under benchmark/out/
  --out FILE       also write the results as one JSON document";

/// Reps of a run that names neither `--reps` nor `--seconds`.
const DEFAULT_REPS: usize = 9;
/// The oracle pass runs each generator at this fraction of full scale.
const ORACLE_SCALE_DIV: u32 = 10;

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    reps: Option<usize>,
    seconds: Option<f64>,
    timed: bool,
    traced: bool,
    quick: bool,
    spans: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 17,
        reps: None,
        seconds: None,
        timed: true,
        traced: true,
        quick: false,
        spans: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::by_name(name).ok_or_else(|| format!("no workload {name:?}"))?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--reps" => {
                let n: usize = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                args.reps = Some(n);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => match value()? {
                "0" => args.traced = false,
                "1" => args.timed = false,
                other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
            },
            "--quick" => args.quick = true,
            "--spans" => args.spans = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.reps.is_some() && args.seconds.is_some() {
        return Err("--reps and --seconds exclude each other".into());
    }
    Ok(args)
}

/// One workload's results, ready to print.
struct Block {
    workload: Workload,
    lines: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    checks: Checks,
}

fn banner(noise: &Noise) -> Option<String> {
    noise.disturbed().then(|| {
        format!(
            "DISTURBED: calibration spread {:.3} (limit 0.25), lowest on-CPU share {:.3} (limit 0.95); wall-clock figures of this set are suspect",
            noise.calib_spread(),
            noise.min_oncpu_share()
        )
    })
}

fn print_block(block: &Block, args: &Args) -> String {
    println!("## {}", block.workload.name);
    for line in &block.lines {
        println!("{line}");
    }
    let names: Vec<&'static str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .filter(|_| args.timed)
        .chain(PER_LAYER.iter().map(|m| m.name).filter(|_| args.traced))
        .collect();
    for name in &names {
        match block.metrics.get(name) {
            Some(value) => println!("{name:<32} {value:>18.6} {}", unit_of(name).unwrap_or("")),
            None => println!("{name:<32} {:>18} (too few samples)", "-"),
        }
    }
    for failure in &block.checks.failures {
        println!("FAILED: {failure}");
    }
    let json = result_json(
        block.checks.correct(),
        block.checks.attempted_ops.max(1),
        block.checks.failed_ops,
        names.into_iter(),
        &block.metrics,
    );
    println!("{json}");
    json
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scale_div = if args.quick { 10 } else { 1 };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# ggd-benchmark seed={} {} scale=1/{} nproc={}",
        args.seed,
        match (args.reps, args.seconds) {
            (_, Some(s)) => format!("seconds={s}"),
            (Some(n), None) => format!("reps={n}"),
            (None, None) => format!("reps={}", if args.quick { 2 } else { DEFAULT_REPS }),
        },
        scale_div,
        nproc
    );

    let mut calibrator = Calibrator::new();
    let mut blocks: Vec<Block> = args
        .workloads
        .iter()
        .map(|&workload| Block {
            workload,
            lines: Vec::new(),
            metrics: BTreeMap::new(),
            checks: Checks::default(),
        })
        .collect();

    if args.timed {
        // The oracle pass is a fixed 1/10 of full scale. Time-boxed runs skip
        // it: it takes 2 to 15 s per workload and adds no timing.
        let oracle_div = args
            .seconds
            .is_none()
            .then_some(ORACLE_SCALE_DIV / scale_div);
        let mut sessions: Vec<TimedSession> = args
            .workloads
            .iter()
            .map(|&w| TimedSession::start(w, args.seed, scale_div, oracle_div))
            .collect();
        let reps = args
            .reps
            .unwrap_or(if args.quick { 2 } else { DEFAULT_REPS });
        let started = Instant::now();
        // Reps interleave round-robin, so a noisy-neighbour window lands on
        // every workload rather than on one.
        let mut calibration = calibrator.sample();
        loop {
            for session in &mut sessions {
                calibration = session.timed_rep(calibration, &mut calibrator);
            }
            let done = match args.seconds {
                Some(s) => {
                    started.elapsed().as_secs_f64() >= s * sessions.len() as f64
                        && sessions.iter().all(TimedSession::has_tail_samples)
                }
                None => sessions[0].reps() >= reps,
            };
            if done {
                break;
            }
        }
        for (block, session) in blocks.iter_mut().zip(sessions) {
            block.lines.extend(session.describe());
            block.lines.extend(banner(&session.noise));
            block.metrics.extend(session.metrics());
            block.checks.absorb(session.checks);
        }
    }

    if args.traced {
        for block in &mut blocks {
            let result = traced_session(
                block.workload,
                args.seed,
                scale_div,
                args.seconds,
                &out_dir,
                args.spans,
                &mut calibrator,
            );
            block.lines.extend(result.notes);
            block
                .lines
                .extend(banner(&result.noise).map(|b| format!("traced session {b}")));
            block.metrics.extend(result.metrics);
            block.checks.absorb(result.checks);
        }
    }

    let mut document = format!(
        "{{\"seed\": {}, \"quick\": {}, \"nproc\": {}, \"workloads\": {{",
        args.seed, args.quick, nproc
    );
    let mut correct = true;
    for (i, block) in blocks.iter().enumerate() {
        let json = print_block(block, &args);
        correct &= block.checks.correct();
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(document, "{sep}\"{}\": {json}", block.workload.name);
    }
    document.push_str("}}\n");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, document) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_driver_form_parses() {
        let args = parse("--workload ring_reclaim --seed 23 --seconds 20 --trace 0").unwrap();
        assert_eq!(args.workloads.len(), 1);
        assert_eq!(args.workloads[0].name, "ring_reclaim");
        assert_eq!((args.seed, args.seconds), (23, Some(20.0)));
        assert!(args.timed && !args.traced);
        let args = parse("--workload bulk_build --seed 1 --seconds 5 --trace 1").unwrap();
        assert!(!args.timed && args.traced);
    }

    #[test]
    fn defaults_run_everything_on_seed_17() {
        let args = parse("").unwrap();
        assert_eq!(args.workloads.len(), WORKLOADS.len());
        assert_eq!((args.seed, args.reps, args.seconds), (17, None, None));
        assert!(args.timed && args.traced && !args.quick && !args.spans);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for line in [
            "--workload nope",
            "--seed x",
            "--reps 0",
            "--seconds 0",
            "--seconds 1 --reps 2",
            "--trace 2",
            "--seed",
            "--bogus",
        ] {
            assert!(parse(line).is_err(), "{line:?} must be refused");
        }
    }
}
