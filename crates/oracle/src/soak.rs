//! The `serve` mode: a case streamed through a live `rtic serve` daemon.
//!
//! The daemon runs in-process on its own thread (same engine the real
//! binary runs), listening on a per-run unix socket. The case's history is
//! streamed through the wire protocol, then drained; the daemon's final
//! report file — byte-identical to batch `rtic check` output by the
//! server's checkpointed-report design — is read back as one report line
//! per step and diffed like every other mode.
//!
//! The case seed also draws a checkpoint cadence of 1–3 steps, the
//! [`script`]'s extras, and a `serve.step=abort@N` kill, after which a
//! `--resume` incarnation is sent the whole script again. Its `QUERY
//! status` before the drain must count every transition as a step, which
//! pins the report counters the checkpoint restored.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::time::Duration;

use rtic_history::log::format_log;
use rtic_history::Transition;
use rtic_relation::Catalog;
use rtic_resilience::FailPlan;
use rtic_server::{serve, Client, Closer, Listen, ServeConfig};
use rtic_temporal::Constraint;

use crate::derive_seed;

/// One request of a client script.
enum Request {
    /// A log line or `TICK t`, acked `OK`.
    Send(String),
    /// Updates sent after `PAUSE` without waiting, then `RESUME`.
    Paused(Vec<String>),
    /// A line the server must refuse with `ERR`.
    Refused(Vec<u8>),
}

/// One case's serve run: the fleet, what the client sends, the
/// checkpoint cadence, and the directory holding the daemon's socket,
/// checkpoint rotation and report.
struct ServeRun<'a> {
    fleet: &'a [Constraint],
    catalog: &'a Arc<Catalog>,
    script: Vec<Request>,
    dir: PathBuf,
    every_steps: u64,
}

impl ServeRun<'_> {
    /// The run the case seed draws, in a fresh directory under the temp
    /// dir (unique per process and run: cases may run on parallel threads).
    fn new<'a>(
        fleet: &'a [Constraint],
        catalog: &'a Arc<Catalog>,
        transitions: &[Transition],
        seed: u64,
    ) -> ServeRun<'a> {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        ServeRun {
            fleet,
            catalog,
            script: script(transitions, seed),
            dir: std::env::temp_dir().join(format!("rtic-oracle-{}-{run}", std::process::id())),
            every_steps: 1 + derive_seed(seed, 0x5E4E) % 3,
        }
    }

    /// Streams the script through one live daemon, booted from the run's
    /// checkpoint when `resume`, and returns the violation lines of its
    /// drained report. A daemon killed by the `faults` spec is an `Err`.
    fn incarnation(&self, resume: bool, faults: Option<&str>) -> Result<Vec<String>, String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create soak dir `{}`: {e}", self.dir.display()))?;
        let (sock, report) = (self.dir.join("d.sock"), self.dir.join("d.report"));
        // A killed incarnation leaves its socket file behind.
        std::fs::remove_file(&sock).ok();
        let mut config = ServeConfig::new(Listen::Unix(sock.clone()));
        config.checkpoint = Some(self.dir.join("d.ckpt").display().to_string());
        config.policy.every_steps = Some(self.every_steps);
        config.resume = resume;
        config.report_path = Some(report.display().to_string());
        if let Some(spec) = faults {
            config.faults = FailPlan::parse(spec).map_err(|e| format!("bad failpoints: {e}"))?;
        }
        let stop = Arc::new(AtomicBool::new(false));
        config.shutdown = Some(Arc::clone(&stop));

        let (fleet, catalog) = (self.fleet.to_vec(), Arc::clone(self.catalog));
        let daemon = std::thread::spawn(move || serve(fleet, catalog, config, &mut String::new()));
        let (code, streamed) = std::thread::scope(|scope| {
            let (closer, closed) = mpsc::channel();
            let client = scope.spawn(|| {
                let streamed = stream(&sock, &self.script, closer);
                // A failed stream leaves the daemon waiting for more: drain it.
                stop.store(streamed.is_err(), Ordering::SeqCst);
                streamed
            });
            // `serve` returns once drained (`Ok(0)`) or killed; a killed
            // daemon's connection is closed as the kernel would close it.
            let code = daemon.join();
            if !matches!(code, Ok(Ok(_))) {
                closed.recv().map(|c: Closer| c.close()).ok();
            }
            (code, client.join())
        });
        code.map_err(|_| "soak daemon panicked")?
            .map_err(|e| format!("soak daemon failed: {e}"))?;
        streamed
            .map_err(|_| "soak client panicked")?
            .map_err(|e| format!("soak stream failed: {e}"))?;
        let text = std::fs::read_to_string(&report)
            .map_err(|e| format!("cannot read soak report `{}`: {e}", report.display()))?;
        Ok(text.lines().map(str::to_string).collect())
    }
}

/// The client script for `transitions`: each transition as its log line
/// (`TICK t` when it changes nothing), a seed-chosen run of up to eight
/// held behind `PAUSE`, and one malformed and one non-UTF-8 update at
/// seed-chosen places.
fn script(transitions: &[Transition], seed: u64) -> Vec<Request> {
    let mut lines: Vec<String> = transitions
        .iter()
        .map(|t| match t.update.is_empty() {
            true => format!("TICK {}", t.time.0),
            false => format_log(std::slice::from_ref(t)).trim_end().to_string(),
        })
        .collect();
    let pick = |salt: u64, below: usize| (derive_seed(seed, salt) % below.max(1) as u64) as usize;
    let start = pick(0x9A05E, lines.len());
    let rest = lines.split_off((start + 1 + pick(0x4E1D, 8)).min(lines.len()));
    let held = lines.split_off(start);
    let mut script: Vec<Request> = lines.into_iter().map(Request::Send).collect();
    if !held.is_empty() {
        script.push(Request::Paused(held));
    }
    script.extend(rest.into_iter().map(Request::Send));
    for (salt, junk) in [
        (0xBAD1, &b"UPDATE @1 +s0(1"[..]),
        (0xBAD2, &b"UPDATE @1 +s0(\"\xff\")"[..]),
    ] {
        let at = pick(salt, script.len() + 1);
        script.insert(at, Request::Refused(junk.to_vec()));
    }
    script
}

/// Sends `script` to the daemon on `sock`, then `QUERY status` and
/// `DRAIN`; hands a [`Closer`] for the connection to `closer` first. The
/// status must count every transition of the script as a step, whether
/// this daemon checked it or restored it with the checkpoint's report.
fn stream(sock: &Path, script: &[Request], closer: Sender<Closer>) -> Result<(), String> {
    // Polls finer than the connect retry's 10 ms until the daemon binds.
    for _ in (0..1000).take_while(|_| !sock.exists()) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut client = Client::connect_unix_retry(sock, Duration::from_secs(10))?;
    closer.send(client.closer()?).ok();
    for request in script {
        match request {
            Request::Send(line) => {
                client.request(line.as_str())?;
            }
            Request::Paused(lines) => {
                client.request("PAUSE")?;
                let mut pipelined: Vec<&str> = lines.iter().map(String::as_str).collect();
                pipelined.push("RESUME");
                let first = client.pipeline(&pipelined)?.swap_remove(0).ok;
                if first != "resumed" {
                    return Err(format!("a held update was acked before RESUME: `{first}`"));
                }
            }
            Request::Refused(line) => match client.request(line.as_slice()) {
                Err(e) if e.starts_with("server error") => {}
                other => {
                    let line = String::from_utf8_lossy(line);
                    return Err(format!("`{line}` drew {other:?}, not ERR"));
                }
            },
        }
    }
    let transitions: usize = script
        .iter()
        .map(|request| match request {
            Request::Send(_) => 1,
            Request::Paused(lines) => lines.len(),
            Request::Refused(_) => 0,
        })
        .sum();
    let status = client.status()?;
    let steps = status
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("steps="));
    if steps != Some(transitions.to_string().as_str()) {
        return Err(format!(
            "`QUERY status` before DRAIN answered `{status}` after {transitions} transition(s)"
        ));
    }
    client.drain()?;
    Ok(())
}

/// [`crate::Mode::Serve`]: the `set` mode's fleet for `constraint` served
/// to a daemon that is killed at a seed-derived step, resumed and
/// re-streamed; one report line per step for `constraint`.
pub(crate) fn run_serve(
    constraint: &Constraint,
    catalog: &Arc<Catalog>,
    transitions: &[Transition],
    seed: u64,
) -> Result<Vec<String>, String> {
    if transitions.is_empty() {
        return Ok(Vec::new());
    }
    let fleet = crate::modes::fleet(constraint, catalog, seed);
    let run = ServeRun::new(&fleet, catalog, transitions, seed);
    let kill = 1 + derive_seed(seed, 0xC0FFEE) % transitions.len() as u64;
    let report = match run.incarnation(false, Some(&format!("serve.step=abort@{kill}"))) {
        Err(e) if e.contains("injected crash") => run.incarnation(true, None),
        Err(e) => Err(e),
        Ok(_) => Err(format!("the daemon outlived its kill at step {kill}")),
    };
    std::fs::remove_dir_all(&run.dir).ok();
    let name = constraint.name.as_str();
    let mut lines = report?
        .into_iter()
        .filter(|line| violated_constraint(line) == Some(name))
        .peekable();
    let mut steps: Vec<String> = transitions
        .iter()
        .map(|t| {
            let at = format!("{} ", t.time);
            let line = lines.next_if(|line| line.starts_with(&at));
            line.unwrap_or_else(|| crate::mutation::ok_line(constraint, t.time))
        })
        .collect();
    // A line no step claimed (out of order, or after the last step).
    steps.extend(lines);
    Ok(steps)
}

/// Extracts the constraint name from a violation line
/// (`@t VIOLATION <name> x<n>: {…}`).
fn violated_constraint(line: &str) -> Option<&str> {
    let mut tokens = line.split_whitespace();
    let _time = tokens.next()?;
    if tokens.next()? != "VIOLATION" {
        return None;
    }
    tokens.next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtic_core::ConstraintSet;
    use rtic_workload::{library, Generated, ScenarioParams};

    /// The violation lines batch `rtic check` prints for `gen`.
    fn batch(gen: &Generated) -> Vec<String> {
        let constraints = gen.constraints.iter().cloned();
        let mut set = ConstraintSet::new(constraints, Arc::clone(&gen.catalog)).unwrap();
        let mut lines = Vec::new();
        for t in &gen.transitions {
            let reports = set.step(t.time, &t.update).unwrap();
            lines.extend(reports.iter().filter(|r| !r.ok()).map(ToString::to_string));
        }
        lines
    }

    fn run(gen: &Generated, seed: u64) -> ServeRun<'_> {
        let run = ServeRun::new(&gen.constraints, &gen.catalog, &gen.transitions, seed);
        ServeRun {
            every_steps: 1,
            ..run
        }
    }

    #[test]
    fn soak_report_is_byte_identical_to_batch_check() {
        let params = ScenarioParams {
            steps: 40,
            entities: 10,
            events_per_step: 3,
            violation_rate: 0.2,
            seed: 5,
        };
        let gen = library::find("access").unwrap().generate(&params);
        let expected = batch(&gen);
        assert!(!expected.is_empty(), "seed must inject violations");
        let run = run(&gen, 5);
        let lines = run.incarnation(false, None).unwrap();
        std::fs::remove_dir_all(&run.dir).ok();
        assert_eq!(lines, expected);
    }

    #[test]
    fn killed_daemon_resumes_to_the_same_report() {
        let params = ScenarioParams {
            steps: 30,
            entities: 8,
            events_per_step: 3,
            violation_rate: 0.25,
            seed: 13,
        };
        let gen = library::find("telemetry").unwrap().generate(&params);
        let run = run(&gen, 13);
        // Incarnation 1 dies processing the 9th transition.
        let died = run.incarnation(false, Some("serve.step=abort@9"));
        assert!(died.unwrap_err().contains("injected crash"));
        assert!(
            run.dir.join("d.ckpt").exists(),
            "the kill leaves a checkpoint"
        );
        // Incarnation 2 resumes from the run's checkpoint and the full
        // re-stream converges on the batch-identical report.
        let lines = run.incarnation(true, None).unwrap();
        std::fs::remove_dir_all(&run.dir).ok();
        assert_eq!(lines, batch(&gen));
    }

    #[test]
    fn the_script_ticks_pauses_and_sends_two_refused_lines() {
        let gen = library::find("random").unwrap().generate(&ScenarioParams {
            steps: 20,
            ..ScenarioParams::default()
        });
        let mut ts = gen.transitions;
        ts[3].update = rtic_relation::Update::new();
        for seed in 0..20 {
            let script = script(&ts, seed);
            let count = |f: fn(&Request) -> bool| script.iter().filter(|r| f(r)).count();
            assert_eq!(count(|r| matches!(r, Request::Refused(_))), 2);
            assert_eq!(count(|r| matches!(r, Request::Paused(_))), 1);
            let sent: Vec<&String> = script
                .iter()
                .flat_map(|r| match r {
                    Request::Send(line) => std::slice::from_ref(line),
                    Request::Paused(lines) => lines.as_slice(),
                    Request::Refused(_) => &[],
                })
                .collect();
            assert_eq!(sent.len(), ts.len(), "every transition is sent once");
            assert_eq!(sent[3], "TICK 4");
        }
    }

    #[test]
    fn violation_lines_parse_back_to_their_constraint() {
        let params = ScenarioParams {
            steps: 60,
            entities: 12,
            events_per_step: 3,
            violation_rate: 0.2,
            seed: 3,
        };
        let gen = library::find("telemetry").unwrap().generate(&params);
        let lines = batch(&gen);
        assert!(!lines.is_empty());
        let names: Vec<&str> = gen.constraints.iter().map(|c| c.name.as_str()).collect();
        for line in &lines {
            let name = violated_constraint(line).expect("line parses");
            assert!(names.contains(&name), "unknown constraint in `{line}`");
        }
        assert_eq!(violated_constraint("@3 ok hammer"), None);
    }
}
