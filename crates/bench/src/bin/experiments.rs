//! Prints the experiment tables as markdown, each with the relationships it
//! checks, and exits 1 naming every relationship that did not hold. See
//! EXPERIMENTS.md for the mapping to the paper's claims.
//!
//! `--json FILE` writes every reading as one machine-stamped document;
//! `--compare BASELINE` diffs the readings against a committed one
//! (`rtic_bench::readings`) and exits 1 on a moved count, a missing
//! reading or a scale mismatch. Usage errors exit 2.

use rtic_bench::experiments::{Scale, TABLES};
use rtic_bench::readings;
use rtic_obs::json;

/// What the command line asks for.
#[derive(Debug, Default, PartialEq)]
struct Options {
    help: bool,
    quick: bool,
    table: Option<&'static str>,
    json: Option<String>,
    compare: Option<String>,
}

fn usage() -> String {
    let ids = TABLES.map(|(id, _)| id);
    format!(
        "usage: experiments [--quick] [--table {}] [--json FILE] [--compare BASELINE]\n\
         Prints every table with a `holds:` or `BROKEN:` line per relationship;\n\
         a BROKEN one, or a moved count under --compare, makes the exit status 1.",
        ids.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || {
            let v = args.next().filter(|v| !v.starts_with("--"));
            v.cloned().ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => o.help = true,
            "--quick" => o.quick = true,
            "--table" => {
                let id = value()?.to_lowercase();
                let Some(&(known, _)) = TABLES.iter().find(|(t, _)| *t == id) else {
                    let ids = TABLES.map(|(id, _)| id).join(", ");
                    return Err(format!("unknown table `{id}` (one of {ids})"));
                };
                o.table = Some(known);
            }
            "--json" => o.json = Some(value()?),
            "--compare" => o.compare = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

/// Prints `why` and exits 2, the status of a usage or I/O error.
fn usage_error(why: String) -> ! {
    eprintln!("experiments: {why}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = parse(&args).unwrap_or_else(|e| usage_error(format!("{e}\n{}", usage())));
    if o.help {
        eprintln!("{}", usage());
        return;
    }
    // The baseline is read before anything runs, so a bad path costs nothing.
    let baseline = o.compare.as_deref().map(|path| {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string());
        text.and_then(|text| json::parse(&text))
            .unwrap_or_else(|e| usage_error(format!("cannot read baseline `{path}`: {e}")))
    });
    let scale = if o.quick {
        Scale::quick()
    } else {
        Scale::full()
    };
    println!("# rtic experiments — {} scale\n", scale.name);
    let mut tables = Vec::new();
    for (id, table) in TABLES {
        if o.table.is_none_or(|t| t == id) {
            tables.push(table(&scale));
            println!("{}", tables[tables.len() - 1].render());
        }
    }
    if let Some(path) = &o.json {
        let doc = readings::document(&tables, scale.name).render_pretty();
        let dir = std::path::Path::new(path)
            .parent()
            .filter(|d| !d.as_os_str().is_empty());
        let written = dir.map_or(Ok(()), std::fs::create_dir_all);
        if let Err(e) = written.and_then(|_| std::fs::write(path, doc)) {
            usage_error(format!("cannot write `{path}`: {e}"));
        }
    }
    let broken: Vec<String> = (tables.iter())
        .flat_map(|t| t.broken().map(|c| format!("{}: {}", t.id, c.claim())))
        .collect();
    if !broken.is_empty() {
        eprintln!("experiments: {} relationship(s) broken", broken.len());
        for b in &broken {
            eprintln!("  BROKEN {b}");
        }
    }
    let mut failed = !broken.is_empty();
    if let (Some(baseline), Some(path)) = (baseline, &o.compare) {
        let c = readings::compare(scale.name, &tables, &baseline, o.table);
        for w in &c.warnings {
            println!("PERF WARNING {w}");
        }
        for f in &c.failures {
            eprintln!("experiments: against {path}: {f}");
        }
        println!(
            "{} of {} readings compared against {path}",
            c.compared, c.expected
        );
        failed |= !c.failures.is_empty();
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<Options, String> {
        parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn argv_parsing() {
        let o = parsed("--quick --table T4 --json out/q.json --compare base.json").unwrap();
        assert!(o.quick && !o.help);
        assert_eq!(o.table, Some("t4"));
        assert_eq!(o.json.as_deref(), Some("out/q.json"));
        assert_eq!(o.compare.as_deref(), Some("base.json"));
        assert_eq!(parsed("").unwrap(), Options::default());
        // An unknown id names the valid ones; an unknown flag is named.
        let e = parsed("--quick --table t99").unwrap_err();
        assert!(
            e.starts_with("unknown table `t99` (one of t1, f1,") && e.ends_with("o1)"),
            "{e}"
        );
        assert_eq!(parsed("--quik").unwrap_err(), "unknown argument `--quik`");
        assert_eq!(parsed("t1").unwrap_err(), "unknown argument `t1`");
        // A value flag last on the line, or followed by a flag, has no value.
        for flag in ["--table", "--json", "--compare"] {
            assert_eq!(parsed(flag).unwrap_err(), format!("{flag} needs a value"));
            let e = parsed(&format!("{flag} --quick")).unwrap_err();
            assert_eq!(e, format!("{flag} needs a value"));
        }
        assert_eq!(
            parsed("--metrics m.json").unwrap_err(),
            "unknown argument `--metrics`"
        );
    }
}
