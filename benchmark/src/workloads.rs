//! The four workloads: what each one runs, how big it is, and the
//! seed-driven generators that make its input.
//!
//! Sizes and argv are constants here (the driver's `BENCHMARK.json`
//! schema has no room for them) and are echoed in every result
//! document. The program under test receives only the generated files.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use rtic_history::log::{format_log, parse_log};
use rtic_history::Transition;
use rtic_relation::{tuple, Catalog, Schema, Sort, Update};
use rtic_temporal::parser::parse_constraint;
use rtic_temporal::Constraint;
use rtic_workload::library::{self, ScenarioParams};
use rtic_workload::Generated;

/// How the program under test is driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// A live `rtic serve` daemon on a unix socket; one connection with
    /// `window` requests in flight (closed loop).
    Serve { window: usize },
    /// One batch `rtic check` process per pass.
    Check,
}

/// Input dimensions of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Entity-key domain (tenants, entities per scenario, clients).
    pub entities: usize,
    /// Events per update where the generator has that knob.
    pub events: usize,
    /// Updates (log lines) in one pass.
    pub updates: usize,
}

impl Sizes {
    /// `--smoke`: about one eighth of the work per pass.
    fn smoke(self) -> Sizes {
        Sizes {
            updates: (self.updates / 8).max(24),
            ..self
        }
    }

    /// `entities=… events=… updates=…`, the key results are labelled by.
    pub fn label(&self) -> String {
        format!(
            "entities={} events={} updates={}",
            self.entities, self.events, self.updates
        )
    }
}

/// One workload: name, purpose, flags, sizes and generator.
pub struct Spec {
    /// Normative name (also in `BENCHMARK.json`).
    pub name: &'static str,
    /// Which layer does the work here, in one line.
    pub why: &'static str,
    /// Daemon or batch.
    pub mode: Mode,
    /// `--vectorize`: columnar plan execution.
    pub vectorize: bool,
    /// `--batch N`: micro-batched ingestion.
    pub batch: Option<usize>,
    /// `--shard auto --shard-evict N`: the per-key shard plane.
    pub shard_evict: Option<u32>,
    /// `--checkpoint-every` cadence; `None` writes one final checkpoint.
    pub checkpoint_every: Option<u64>,
    /// Default (full-size) dimensions.
    pub sizes: Sizes,
    generate: fn(&Sizes, u64) -> Generated,
}

/// A generated input, rendered the way the binary reads it.
pub struct Input {
    /// The constraint file text.
    pub constraints_text: String,
    /// The log, one line per update (no trailing newlines).
    pub lines: Vec<String>,
    /// The same updates, parsed.
    pub transitions: Vec<Transition>,
}

impl Input {
    /// Writes `constraints.rtic`, `input.rticlog` and the one-line
    /// `tail.rticlog` a resumed `rtic check` is pointed at.
    pub fn write(&self, dir: &Path) -> Result<(), String> {
        let write = |name: &str, text: &str| {
            let path = dir.join(name);
            std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
        };
        write("constraints.rtic", &self.constraints_text)?;
        let mut log = self.lines.join("\n");
        log.push('\n');
        write("input.rticlog", &log)?;
        let last = self.transitions.last().map_or(0, |tr| tr.time.0);
        write("tail.rticlog", &format!("@{}\n", last + 1))
    }

    /// Reads back what [`Input::write`] wrote, constraint file first and
    /// the log top to bottom — the order the binary meets the strings in.
    pub fn load(dir: &Path) -> Result<Input, String> {
        let read = |name: &str| {
            let path = dir.join(name);
            std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
        };
        let constraints_text = read("constraints.rtic")?;
        let log = read("input.rticlog")?;
        let transitions = parse_log(&log).map_err(|e| format!("input.rticlog: {e}"))?;
        Ok(Input {
            constraints_text,
            lines: log.lines().map(str::to_string).collect(),
            transitions,
        })
    }
}

impl Spec {
    /// The sizes this workload runs at: full, or `--smoke`.
    pub fn sizes_for(&self, smoke: bool) -> Sizes {
        if smoke {
            self.sizes.smoke()
        } else {
            self.sizes
        }
    }

    /// Generates this workload's input for `seed`.
    pub fn input(&self, sizes: &Sizes, seed: u64) -> Input {
        let generated = (self.generate)(sizes, seed);
        let mut constraints_text = String::new();
        for name in generated.catalog.names() {
            let schema = generated
                .catalog
                .schema_of(name)
                .expect("names() lists declared relations only");
            let attrs: Vec<String> = schema.attributes().iter().map(|a| a.to_string()).collect();
            let _ = writeln!(constraints_text, "relation {name}({})", attrs.join(", "));
        }
        for c in &generated.constraints {
            let _ = writeln!(constraints_text, "{c}");
        }
        let lines = format_log(&generated.transitions)
            .lines()
            .map(str::to_string)
            .collect();
        Input {
            constraints_text,
            lines,
            transitions: generated.transitions,
        }
    }

    /// Whether the binary runs the constraint-set fleet (relevance
    /// dispatch): always in the daemon, and in `rtic check` whenever a
    /// fleet-only flag is given. Otherwise `check` steps one independent
    /// checker per constraint.
    pub fn fleet(&self) -> bool {
        matches!(self.mode, Mode::Serve { .. })
            || self.batch.is_some()
            || self.shard_evict.is_some()
    }

    /// The `rtic` argv over the files in `dir`, echoed in the output: a
    /// measured pass, or (`resume`) a restart from the pass's final
    /// checkpoint — the daemon with `--resume`, `check` against the
    /// one-line tail log. `extra` carries `--metrics` for the traced run.
    pub fn argv(&self, dir: &Path, resume: bool, extra: &[String]) -> Vec<String> {
        let p = |name: &str| dir.join(name).display().to_string();
        let serve = matches!(self.mode, Mode::Serve { .. });
        let mut argv: Vec<String> = if serve {
            vec![
                "serve".into(),
                p("constraints.rtic"),
                "--listen".into(),
                format!("unix:{}", p("rtic.sock")),
                "--report".into(),
                p("report.txt"),
            ]
        } else {
            let log = if resume {
                "tail.rticlog"
            } else {
                "input.rticlog"
            };
            vec!["check".into(), p("constraints.rtic"), p(log)]
        };
        if self.vectorize {
            argv.push("--vectorize".into());
        }
        if let Some(n) = self.batch {
            argv.extend(["--batch".into(), n.to_string()]);
        }
        if let Some(n) = self.shard_evict {
            argv.extend([
                "--shard".into(),
                "auto".into(),
                "--shard-evict".into(),
                n.to_string(),
            ]);
        }
        if resume && !serve {
            argv.extend(["--resume".into(), p("state.ckpt")]);
        } else {
            argv.extend(["--checkpoint".into(), p("state.ckpt")]);
            if let Some(every) = self.checkpoint_every {
                argv.extend(["--checkpoint-every".into(), every.to_string()]);
            }
            if resume {
                argv.push("--resume".into());
            }
        }
        argv.extend(extra.iter().cloned());
        argv
    }
}

/// Every workload, in the order results are reported.
pub static WORKLOADS: &[Spec] = &[
    Spec {
        name: "serve-oltp",
        why: "small 1-4 tuple transactions over 16 tenants: socket, protocol, queue, reply, \
              dispatch with 15 of 16 engines quiescent and a checkpoint every 64 acks are the cost",
        mode: Mode::Serve { window: 1 },
        vectorize: false,
        batch: None,
        shard_evict: None,
        checkpoint_every: Some(64),
        sizes: Sizes {
            entities: TENANTS,
            events: MAX_TUPLES,
            updates: 1_100,
        },
        generate: oltp_tenants,
    },
    Spec {
        name: "serve-mixed",
        why: "four production scenarios unioned per tick (9 constraints, ~4 KB lines), production \
              flags: log parsing and engine stepping, handed over through the queue, are the cost",
        mode: Mode::Serve { window: 8 },
        vectorize: true,
        batch: Some(64),
        shard_evict: None,
        checkpoint_every: None,
        sizes: Sizes {
            entities: 256,
            events: 8,
            updates: 1_200,
        },
        generate: mixed_union,
    },
    Spec {
        name: "check-resident",
        why: "batch check, default flags, 10^4 resident rows and 8-event deltas: all time is plan \
              execution, bindings and window maintenance; no socket, no queue, one checkpoint",
        mode: Mode::Check,
        vectorize: false,
        batch: None,
        shard_evict: None,
        checkpoint_every: None,
        sizes: Sizes {
            entities: 10_000,
            events: 8,
            updates: 48,
        },
        generate: resident_stream,
    },
    Spec {
        name: "check-sharded",
        why: "batch check --shard auto --shard-evict 8 on ratelimit with 5000 clients: the only \
              workload that runs the per-key shard plane (creation, routing, eviction)",
        mode: Mode::Check,
        vectorize: false,
        batch: None,
        shard_evict: Some(8),
        checkpoint_every: None,
        sizes: Sizes {
            entities: 5_000,
            events: 8,
            updates: 1_000,
        },
        generate: sharded_ratelimit,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the benchmark-owned generators' only randomness, so a
/// seed fixes the input without depending on any crate's RNG stream.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Tenants in `serve-oltp`; also the factor the registry `reservations`
/// bounds are scaled by, because each tenant sees every 16th tick.
pub const TENANTS: usize = 16;
const T: u64 = TENANTS as u64;
/// Registry `reservations` deadline (5) and retirement (deadline + 2), in
/// tenant turns.
const DEADLINE: u64 = 5 * T;
const RETIRE: u64 = 7 * T;
/// A reservation that never confirms is cancelled this many ticks after
/// its creation, past the end of its violation window.
const CANCEL: u64 = 8 * T;
/// Transactions carry at most this many tuples.
const MAX_TUPLES: usize = 4;

struct Reservation {
    p: String,
    f: i64,
    created: u64,
    /// `None`: never confirms (the 2 % that end cancelled).
    confirm_at: Option<u64>,
    confirmed: bool,
}

/// `serve-oltp`: tenant `i` owns `reserved_i/reserved_at_i/confirmed_i`
/// and the registry `reservations` constraint over them. Update `t`
/// belongs to tenant `t mod 16` and touches only that tenant's relations.
fn oltp_tenants(sizes: &Sizes, seed: u64) -> Generated {
    let mut catalog = Catalog::new();
    let mut constraints = Vec::new();
    let pf = || Schema::of(&[("p", Sort::Str), ("f", Sort::Int)]);
    for i in 0..sizes.entities {
        for rel in ["reserved", "reserved_at", "confirmed"] {
            catalog = catalog
                .with(format!("{rel}_{i}").as_str(), pf())
                .expect("tenant relation names are distinct");
        }
        constraints.push(
            parse_constraint(&format!(
                "deny unconfirmed_{i}: reserved_{i}(p, f) && once[{DEADLINE},{RETIRE}] \
                 reserved_at_{i}(p, f) && !once[0,{RETIRE}] confirmed_{i}(p, f)"
            ))
            .expect("tenant constraint parses"),
        );
    }
    let mut rng = SplitMix(seed);
    let mut live: Vec<VecDeque<Reservation>> =
        (0..sizes.entities).map(|_| VecDeque::new()).collect();
    let mut event: Vec<Option<(String, i64)>> = vec![None; sizes.entities];
    let mut next_flight = 0i64;
    let mut transitions = Vec::with_capacity(sizes.updates);
    for t in 1..=sizes.updates as u64 {
        let i = (t as usize) % sizes.entities;
        let (reserved, reserved_at, confirmed) = (
            format!("reserved_{i}"),
            format!("reserved_at_{i}"),
            format!("confirmed_{i}"),
        );
        let mut u = Update::new();
        let mut room = MAX_TUPLES;
        // The creation event lives for one tenant turn.
        if let Some((p, f)) = event[i].take() {
            u.delete(reserved_at.as_str(), tuple![p.as_str(), f]);
            room -= 1;
        }
        for r in live[i].iter_mut() {
            if room > 0 && !r.confirmed && r.confirm_at.is_some_and(|at| at <= t) {
                u.insert(confirmed.as_str(), tuple![r.p.as_str(), r.f]);
                r.confirmed = true;
                room -= 1;
            }
        }
        // Retire in creation order: confirmed reservations at the
        // registry's deadline + 2, never-confirmed ones by cancellation.
        while let Some(r) = live[i].front() {
            let (due, tuples) = match r.confirm_at {
                Some(_) if r.confirmed => (RETIRE, 2),
                Some(_) => break,
                None => (CANCEL, 1),
            };
            if t < r.created + due || room < tuples {
                break;
            }
            u.delete(reserved.as_str(), tuple![r.p.as_str(), r.f]);
            if r.confirmed {
                u.delete(confirmed.as_str(), tuple![r.p.as_str(), r.f]);
            }
            room -= tuples;
            live[i].pop_front();
        }
        if room >= 2 && (u.is_empty() || rng.below(2) == 0) {
            let p = format!("p{}", rng.below(50));
            let f = next_flight;
            next_flight += 1;
            u.insert(reserved.as_str(), tuple![p.as_str(), f]);
            u.insert(reserved_at.as_str(), tuple![p.as_str(), f]);
            let confirm_at = (rng.below(100) >= 2).then(|| t + T * (1 + rng.below(3)));
            event[i] = Some((p.clone(), f));
            live[i].push_back(Reservation {
                p,
                f,
                created: t,
                confirm_at,
                confirmed: false,
            });
        }
        transitions.push(Transition::new(t, u));
    }
    Generated {
        catalog: Arc::new(catalog),
        constraints,
        transitions,
        expected: Vec::new(),
    }
}

/// The production scenarios `serve-mixed` unions, in catalog order.
pub const MIXED_SCENARIOS: [&str; 4] = ["fraud", "telemetry", "ratelimit", "access"];

/// `serve-mixed`: the four production scenarios at the same seed,
/// merged tick by tick into one stream over the union catalog.
fn mixed_union(sizes: &Sizes, seed: u64) -> Generated {
    let params = ScenarioParams {
        steps: sizes.updates,
        entities: sizes.entities,
        events_per_step: sizes.events,
        seed,
        ..Default::default()
    };
    let parts: Vec<Generated> = MIXED_SCENARIOS
        .iter()
        .map(|name| {
            library::find(name)
                .expect("production scenarios are registered")
                .generate(&params)
        })
        .collect();
    union_merge(&parts)
}

/// Merges scenario streams per timestamp. Their catalogs must be
/// disjoint and their constraint names distinct (both checked).
pub fn union_merge(parts: &[Generated]) -> Generated {
    let mut catalog = Catalog::new();
    let mut constraints: Vec<Constraint> = Vec::new();
    let mut transitions: Vec<Transition> = Vec::new();
    for part in parts {
        for name in part.catalog.names() {
            assert!(
                catalog.schema_of(name).is_none(),
                "relation `{name}` is declared by two scenarios"
            );
        }
        catalog
            .try_merge(&part.catalog)
            .expect("disjoint catalogs merge");
        for c in &part.constraints {
            assert!(
                constraints.iter().all(|have| have.name != c.name),
                "constraint `{}` is declared by two scenarios",
                c.name
            );
            constraints.push(c.clone());
        }
        if transitions.is_empty() {
            transitions = part.transitions.clone();
            continue;
        }
        assert_eq!(transitions.len(), part.transitions.len());
        for (merged, tr) in transitions.iter_mut().zip(&part.transitions) {
            assert_eq!(merged.time, tr.time, "scenarios tick in lockstep");
            for (rel, tuples) in tr.update.inserts() {
                for tuple in tuples {
                    merged.update.insert(rel, tuple.clone());
                }
            }
            for (rel, tuples) in tr.update.deletes() {
                for tuple in tuples {
                    merged.update.delete(rel, tuple.clone());
                }
            }
        }
    }
    Generated {
        catalog: Arc::new(catalog),
        constraints,
        transitions,
        expected: Vec::new(),
    }
}

/// `check-resident`: the motivating constraint over a table that is
/// already resident — the last `updates` steps of the legacy recorder's
/// `batch_stream` growth to `entities` rows. Update 1 loads the keys the
/// earlier steps would have left reserved and confirmed; every later
/// update reserves `events` fresh keys, confirms the previous update's,
/// and cancels stragglers (one key in 64, rotated by the seed) three
/// updates after they reserved — one update after their age-2 violation.
fn resident_stream(sizes: &Sizes, seed: u64) -> Generated {
    let pf = || Schema::of(&[("p", Sort::Str), ("f", Sort::Int)]);
    let catalog = Catalog::new()
        .with("reserved", pf())
        .and_then(|c| c.with("confirmed", pf()))
        .expect("static schema");
    let constraint = parse_constraint(
        "deny unconfirmed: reserved(p, f) && once[2,*] reserved(p, f) && !once confirmed(p, f)",
    )
    .expect("the motivating constraint parses");
    let entities = sizes.entities.max(1);
    let events = sizes.events.max(1);
    let deltas = sizes.updates.saturating_sub(1);
    let rotate = SplitMix(seed).below(64);
    let straggler = |k: usize| (k as u64 + rotate).is_multiple_of(64);
    let row = |k: usize| tuple![format!("p{k}").as_str(), k as i64];
    let loaded = entities.saturating_sub(deltas * events);
    let mut load = Update::new();
    for k in (0..loaded).filter(|k| !straggler(*k)) {
        load.insert("reserved", row(k));
        load.insert("confirmed", row(k));
    }
    let mut transitions = vec![Transition::new(1u64, load)];
    let key = |s: usize, j: usize| (loaded + s * events + j) % entities;
    for s in 0..deltas {
        let mut u = Update::new();
        for j in 0..events {
            u.insert("reserved", row(key(s, j)));
        }
        if s >= 1 {
            for k in (0..events)
                .map(|j| key(s - 1, j))
                .filter(|k| !straggler(*k))
            {
                u.insert("confirmed", row(k));
            }
        }
        if s >= 3 {
            for k in (0..events).map(|j| key(s - 3, j)).filter(|k| straggler(*k)) {
                u.delete("reserved", row(k));
            }
        }
        transitions.push(Transition::new((s + 2) as u64, u));
    }
    Generated {
        catalog: Arc::new(catalog),
        constraints: vec![constraint],
        transitions,
        expected: Vec::new(),
    }
}

/// `check-sharded`: the registry `ratelimit` scenario as is.
fn sharded_ratelimit(sizes: &Sizes, seed: u64) -> Generated {
    library::find("ratelimit")
        .expect("ratelimit is registered")
        .generate(&ScenarioParams {
            steps: sizes.updates,
            entities: sizes.entities,
            events_per_step: sizes.events,
            seed,
            ..Default::default()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(spec: &Spec) -> Sizes {
        Sizes {
            updates: 200,
            entities: spec.sizes.entities.min(256),
            ..spec.sizes
        }
    }

    #[test]
    fn every_generator_is_deterministic_per_seed() {
        for spec in WORKLOADS {
            let sizes = small(spec);
            let (a, b, c) = (
                spec.input(&sizes, 7),
                spec.input(&sizes, 7),
                spec.input(&sizes, 8),
            );
            assert_eq!(a.constraints_text, b.constraints_text, "{}", spec.name);
            assert_eq!(a.lines, b.lines, "{}", spec.name);
            assert_ne!(
                a.lines, c.lines,
                "{}: the seed must change the input",
                spec.name
            );
            assert_eq!(a.lines.len(), sizes.updates, "{}", spec.name);
            assert_eq!(a.transitions.len(), sizes.updates, "{}", spec.name);
            // What the binary will parse is what the harness replays.
            let parsed = parse_log(&a.lines.join("\n")).unwrap();
            assert_eq!(parsed, a.transitions, "{}", spec.name);
        }
    }

    #[test]
    fn timestamps_strictly_increase() {
        for spec in WORKLOADS {
            let input = spec.input(&small(spec), 3);
            assert!(
                input.transitions.windows(2).all(|w| w[0].time < w[1].time),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn union_merge_keeps_catalogs_disjoint_and_ticks_in_lockstep() {
        let params = ScenarioParams {
            steps: 50,
            entities: 32,
            events_per_step: 4,
            seed: 5,
            ..Default::default()
        };
        let parts: Vec<Generated> = MIXED_SCENARIOS
            .iter()
            .map(|name| library::find(name).unwrap().generate(&params))
            .collect();
        let merged = union_merge(&parts);
        assert_eq!(
            merged.catalog.len(),
            parts.iter().map(|p| p.catalog.len()).sum::<usize>()
        );
        assert_eq!(merged.constraints.len(), 9);
        assert_eq!(merged.transitions.len(), 50);
        for (i, tr) in merged.transitions.iter().enumerate() {
            assert_eq!(tr.time.0, i as u64 + 1);
            let tuples: usize = parts.iter().map(|p| p.transitions[i].update.len()).sum();
            assert_eq!(
                tr.update.len(),
                tuples,
                "no tuple lost or merged away at tick {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "declared by two scenarios")]
    fn union_merge_rejects_overlapping_catalogs() {
        let params = ScenarioParams {
            steps: 5,
            ..Default::default()
        };
        let fraud = || library::find("fraud").unwrap().generate(&params);
        union_merge(&[fraud(), fraud()]);
    }

    #[test]
    fn oltp_transactions_are_small_and_single_tenant() {
        let spec = find("serve-oltp").unwrap();
        let input = spec.input(
            &Sizes {
                updates: 4_000,
                ..spec.sizes
            },
            11,
        );
        let mut cancelled = 0;
        for tr in &input.transitions {
            let tenant = format!("_{}", tr.time.0 as usize % TENANTS);
            assert!(
                (1..=MAX_TUPLES).contains(&tr.update.len()),
                "at {}",
                tr.time
            );
            let rels = tr.update.inserts().chain(tr.update.deletes());
            for (rel, _) in rels {
                assert!(rel.as_str().ends_with(&tenant), "{rel} at {}", tr.time);
            }
            // A cancellation deletes `reserved` without a `confirmed`.
            let deleted: Vec<String> = tr.update.deletes().map(|(r, _)| r.to_string()).collect();
            cancelled += usize::from(
                deleted
                    .iter()
                    .any(|r| r.starts_with("reserved_") && !r.starts_with("reserved_at_"))
                    && !deleted.iter().any(|r| r.starts_with("confirmed_")),
            );
        }
        assert!(cancelled > 0, "some reservations never confirm");
    }

    #[test]
    fn resident_stream_loads_the_table_then_sends_small_deltas() {
        let spec = find("check-resident").unwrap();
        let input = spec.input(&spec.sizes, 9);
        let rows = spec.sizes.entities - (spec.sizes.updates - 1) * spec.sizes.events;
        // Two relations per loaded key, minus the one straggler in 64.
        let loaded = input.transitions[0].update.len();
        assert!(
            loaded > rows * 2 * 62 / 64 && loaded <= rows * 2,
            "{loaded}"
        );
        for tr in &input.transitions[1..] {
            assert!(tr.update.len() <= 3 * spec.sizes.events);
        }
    }

    #[test]
    fn argv_matches_the_documented_flags() {
        let dir = Path::new("d");
        let mixed = find("serve-mixed").unwrap().argv(dir, false, &[]).join(" ");
        assert!(mixed.starts_with("serve d/constraints.rtic --listen unix:d/rtic.sock"));
        assert!(mixed.ends_with("--vectorize --batch 64 --checkpoint d/state.ckpt"));
        let oltp = find("serve-oltp").unwrap().argv(dir, true, &[]).join(" ");
        assert!(oltp.ends_with("--checkpoint d/state.ckpt --checkpoint-every 64 --resume"));
        let sharded = find("check-sharded")
            .unwrap()
            .argv(dir, true, &[])
            .join(" ");
        assert_eq!(
            sharded,
            "check d/constraints.rtic d/tail.rticlog --shard auto --shard-evict 8 --resume d/state.ckpt"
        );
    }
}
