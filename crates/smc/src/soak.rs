//! Soak-mode sampling: every sample drives a live `rtic serve` daemon.
//!
//! The daemon runs in-process on its own thread (same engine the real
//! binary runs), listening on a per-sample unix socket. The sample's
//! history is streamed update-by-update through the wire protocol, then
//! drained; the daemon's final report file — byte-identical to batch
//! `rtic check` output by the server's checkpointed-report design — is
//! the sample's outcome. Every soak sample is cross-checked against the
//! sequential batch run of the same history, so a protocol or resume bug
//! surfaces as a mismatch in the SMC artifact, not as a skewed estimate.
//!
//! Crash-resume drills ride on the same path: forwarded failpoints kill
//! the daemon mid-sample, and a `--resume` rerun boots each sample's
//! daemon from its per-sample checkpoint, re-streams, and must converge
//! on the identical report.

use std::path::{Path, PathBuf};
use std::time::Duration;

use rtic_history::log::format_log;
use rtic_resilience::FailPlan;
use rtic_server::{serve, Client, Listen, ServeConfig};
use rtic_workload::Generated;

/// Where one soak sample keeps its socket, checkpoint, and report.
#[derive(Clone, Debug)]
pub struct SoakPaths {
    /// Per-sample working directory.
    pub dir: PathBuf,
    /// Sample tag (`s<i>`), the file-name stem.
    pub tag: String,
}

impl SoakPaths {
    /// Socket path.
    pub fn sock(&self) -> PathBuf {
        self.dir.join(format!("{}.sock", self.tag))
    }

    /// Checkpoint rotation primary path.
    pub fn checkpoint(&self) -> PathBuf {
        self.dir.join(format!("{}.ckpt", self.tag))
    }

    /// Final report path.
    pub fn report(&self) -> PathBuf {
        self.dir.join(format!("{}.report", self.tag))
    }
}

/// One soak sample's configuration.
pub struct SoakSample<'a> {
    /// The generated history to stream.
    pub gen: &'a Generated,
    /// File locations for this sample.
    pub paths: SoakPaths,
    /// Boot the daemon from the sample's checkpoint if one exists.
    pub resume: bool,
    /// Failpoint spec forwarded to the daemon (chaos drills).
    pub failpoints: Option<String>,
}

/// Outcome of a completed (drained) soak sample.
pub struct SoakOutcome {
    /// Violation lines from the daemon's final report, byte-identical to
    /// batch `rtic check` output.
    pub lines: Vec<String>,
    /// Whether the daemon resumed from a checkpoint this incarnation.
    pub resumed: bool,
}

/// Streams one sample through a live serve daemon.
///
/// On daemon death mid-stream (injected faults, crash) the daemon thread's
/// error is surfaced as `Err`; the caller may retry with `resume: true`
/// once the cause is cleared — the per-sample checkpoint carries both
/// engine state and the already-reported violations.
pub fn run_soak(sample: SoakSample<'_>) -> Result<SoakOutcome, String> {
    std::fs::create_dir_all(&sample.paths.dir).map_err(|e| {
        format!(
            "cannot create soak dir `{}`: {e}",
            sample.paths.dir.display()
        )
    })?;
    let sock = sample.paths.sock();
    std::fs::remove_file(&sock).ok();
    let resume = sample.resume && sample.paths.checkpoint().exists();

    let mut config = ServeConfig::new(Listen::Unix(sock.clone()));
    config.checkpoint = Some(sample.paths.checkpoint().display().to_string());
    config.policy.every_steps = Some(1);
    config.resume = resume;
    config.report_path = Some(sample.paths.report().display().to_string());
    if let Some(spec) = &sample.failpoints {
        config.faults = FailPlan::parse(spec).map_err(|e| format!("bad failpoints: {e}"))?;
    }

    let constraints = sample.gen.constraints.clone();
    let catalog = std::sync::Arc::clone(&sample.gen.catalog);
    let daemon = std::thread::spawn(move || {
        let mut out = String::new();
        let code = serve(constraints, catalog, config, &mut out);
        (code, out)
    });

    let stream = || -> Result<(), String> {
        let mut client = Client::connect_unix_retry(&sock, Duration::from_secs(10))?;
        for line in format_log(&sample.gen.transitions).lines() {
            if line.is_empty() {
                continue;
            }
            client.send_update(line)?;
        }
        client.drain()?;
        Ok(())
    };
    let streamed = stream();

    let (code, out) = daemon
        .join()
        .map_err(|_| "soak daemon panicked".to_string())?;
    match (streamed, code) {
        (Ok(()), Ok(0)) => {}
        (_, Err(e)) => return Err(format!("soak daemon failed: {e}")),
        (Err(e), _) => return Err(format!("soak stream failed: {e}")),
        (Ok(()), Ok(code)) => return Err(format!("soak daemon exited with code {code}: {out}")),
    }

    let lines = read_report(&sample.paths.report())?;
    Ok(SoakOutcome {
        lines,
        resumed: resume,
    })
}

/// Reads a drained report file back as violation lines.
pub fn read_report(path: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read soak report `{}`: {e}", path.display()))?;
    Ok(text.lines().map(str::to_string).collect())
}

/// Removes a sample's scratch files (socket, checkpoint rotation, report).
pub fn cleanup(paths: &SoakPaths, checkpoint_keep: usize) {
    std::fs::remove_file(paths.sock()).ok();
    std::fs::remove_file(paths.report()).ok();
    let primary = paths.checkpoint();
    std::fs::remove_file(&primary).ok();
    for generation in 1..=checkpoint_keep {
        std::fs::remove_file(PathBuf::from(format!("{}.{generation}", primary.display()))).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_batch;
    use rtic_workload::{library, ScenarioParams};

    fn scratch(tag: &str) -> SoakPaths {
        SoakPaths {
            dir: std::env::temp_dir().join(format!("rtic-smc-test-{}", std::process::id())),
            tag: tag.to_string(),
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
        let batch = run_batch(&gen).unwrap();
        assert!(!batch.is_empty(), "seed must inject violations");
        let paths = scratch("soak-eq");
        let outcome = run_soak(SoakSample {
            gen: &gen,
            paths: paths.clone(),
            resume: false,
            failpoints: None,
        })
        .unwrap();
        cleanup(&paths, 3);
        assert!(!outcome.resumed);
        assert_eq!(outcome.lines, batch);
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
        let batch = run_batch(&gen).unwrap();
        let paths = scratch("soak-kill");
        cleanup(&paths, 3);
        // Incarnation 1 dies processing the 9th transition.
        let died = run_soak(SoakSample {
            gen: &gen,
            paths: paths.clone(),
            resume: false,
            failpoints: Some("serve.step=abort@9".to_string()),
        });
        assert!(died.is_err(), "daemon must die at the failpoint");
        // Incarnation 2 resumes from the per-sample checkpoint and the
        // full re-stream converges on the batch-identical report.
        let outcome = run_soak(SoakSample {
            gen: &gen,
            paths: paths.clone(),
            resume: true,
            failpoints: None,
        })
        .unwrap();
        cleanup(&paths, 3);
        assert!(outcome.resumed);
        assert_eq!(outcome.lines, batch);
    }
}
