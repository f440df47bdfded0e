//! The `rtic-oracle` binary: differential fuzzing, mutation smoke, and
//! corpus maintenance, with fully deterministic output.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rtic_oracle::generate::{GenConfig, HistoryBias};
use rtic_oracle::{corpus, mutation, Mode, Mutant, Repro};

const USAGE: &str = "\
rtic-oracle — differential conformance oracle (see docs/TESTING.md)

USAGE:
  rtic-oracle [--cases N] [--seed N] [--max-formula-depth N]
              [--backends LIST] [--corpus-dir DIR] [--bias churn|resident]
  rtic-oracle --mutation-smoke [--seed N] [--cases N]
  rtic-oracle --write-workload-corpus [--corpus-dir DIR]

MODES:
  (default)                fuzz: generate cases, run every backend, diff
                           against the naive reference; on divergence,
                           shrink and write a repro into --corpus-dir
  --mutation-smoke         self-check: plant known bugs (off-by-one
                           window, dropped quiescent steps, a stale
                           row-set version accepted, a sleep deadline
                           one tick late, a catch-up one state short,
                           an expiry-index deadline one tick late, a run
                           left open after its key left the operand, a
                           partition applying flips from a stale epoch;
                           the widened window also via the serve daemon)
                           and prove the oracle catches each
  --write-workload-corpus  regenerate the golden corpus files derived
                           from the rtic-workload scenario registry

OPTIONS:
  --cases N             cases to run (default 100; env RTIC_FUZZ_CASES
                        overrides the default, the flag wins)
  --seed N              base seed (default 42); every case is a pure
                        function of (seed, index)
  --max-formula-depth N max conjuncts per generated formula (default 4)
  --backends LIST       comma-separated subset to compare; first entry is
                        the reference (default: all, naive first)
  --corpus-dir DIR      where repro files live (default tests/corpus)
  --bias B              history bias: `churn` (default: small churn-heavy
                        histories, a quarter over a resident load) or
                        `resident` (every history: a resident load, then
                        small deltas with gaps crossing every bound)
";

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("bad {flag} `{v}`: {e}")),
    }
}

fn parse_modes(args: &[String]) -> Result<Vec<Mode>, String> {
    match flag_value(args, "--backends") {
        None => Ok(Mode::ALL.to_vec()),
        Some(list) => {
            let mut out = Vec::new();
            for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let m = Mode::parse(name)?;
                if !out.contains(&m) {
                    out.push(m);
                }
            }
            if out.len() < 2 {
                return Err("--backends needs at least two entries to compare".into());
            }
            Ok(out)
        }
    }
}

fn default_cases() -> usize {
    std::env::var("RTIC_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100)
}

fn fuzz(args: &[String]) -> Result<ExitCode, String> {
    let cases = parse_num(args, "--cases", default_cases())?;
    let seed: u64 = parse_num(args, "--seed", 42)?;
    let bias = flag_value(args, "--bias").map_or(Ok(HistoryBias::Churn), HistoryBias::parse)?;
    let cfg = GenConfig {
        max_formula_depth: parse_num(args, "--max-formula-depth", 4)?,
        bias,
        ..GenConfig::default()
    };
    let modes = parse_modes(args)?;
    let corpus_dir = PathBuf::from(flag_value(args, "--corpus-dir").unwrap_or("tests/corpus"));
    let mode_names: Vec<&str> = modes.iter().map(|m| m.name()).collect();
    println!(
        "oracle: {cases} case(s), seed {seed}, depth {}, bias {bias:?}, backends {}",
        cfg.max_formula_depth,
        mode_names.join(",")
    );
    let Some(found) = rtic_oracle::fuzz(seed, cases, &cfg, &modes) else {
        println!("oracle: {cases} case(s), 0 divergences");
        return Ok(ExitCode::SUCCESS);
    };
    let path = corpus_dir.join(format!("div-{seed}-{}.repro", found.case_index));
    write_repro(&path, &found.repro)?;
    println!("{found}");
    println!(
        "shrunk to {} log line(s); repro written to {}",
        found.repro.log_lines(),
        path.display()
    );
    Ok(ExitCode::FAILURE)
}

fn mutation_smoke(args: &[String]) -> Result<ExitCode, String> {
    let cases = parse_num(args, "--cases", 200usize)?;
    let seed: u64 = parse_num(args, "--seed", 42)?;
    let cfg = GenConfig::default();
    println!(
        "mutation-smoke: {} mutant(s), up to {cases} case(s) each, seed {seed}",
        Mutant::ALL.len() + 1
    );
    let mut failed = false;
    // Every mutant in its own checker, then `off-by-one-window`'s widened
    // constraint handed to a live daemon: the serve mode has no hook.
    let planted = Mutant::ALL.map(|m| (m, None)).into_iter();
    for (m, via) in planted.chain([(Mutant::OffByOneWindow, Some(Mode::Serve))]) {
        let name = mutation::planted_name(m, via);
        match mutation::hunt(m, via, seed, cases, &cfg) {
            Ok(caught) => {
                println!(
                    "mutant {name}: caught at case {} — shrunk to {} log line(s)",
                    caught.case_index,
                    caught.repro.log_lines()
                );
                println!("--- repro ---\n{}", caught.repro.to_text());
                if caught.repro.log_lines() > 10 {
                    println!("mutant {name}: repro too large (> 10 log lines)");
                    failed = true;
                }
            }
            Err(e) => {
                println!("mutant {name}: NOT CAUGHT — {e}");
                failed = true;
            }
        }
    }
    if failed {
        println!("mutation-smoke: FAILED");
        Ok(ExitCode::FAILURE)
    } else {
        println!("mutation-smoke: ok (every planted bug was caught)");
        Ok(ExitCode::SUCCESS)
    }
}

fn write_workload_corpus(args: &[String]) -> Result<ExitCode, String> {
    let corpus_dir = PathBuf::from(flag_value(args, "--corpus-dir").unwrap_or("tests/corpus"));
    for (stem, repro) in corpus::golden() {
        let path = corpus_dir.join(format!("{stem}.repro"));
        write_repro(&path, &repro)?;
        println!("wrote {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn write_repro(path: &Path, repro: &Repro) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    }
    std::fs::write(path, repro.to_text()).map_err(|e| format!("write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = if args.iter().any(|a| a == "--mutation-smoke") {
        mutation_smoke(&args)
    } else if args.iter().any(|a| a == "--write-workload-corpus") {
        write_workload_corpus(&args)
    } else {
        fuzz(&args)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rtic-oracle: {e}");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
