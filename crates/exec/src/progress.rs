//! Live campaign observability on stderr.
//!
//! Reports jobs queued/running/done, per-job wall time and an ETA while a
//! campaign executes. Output goes to stderr so it never contaminates the
//! figure tables and CSV written to stdout. Verbosity is controlled by
//! `ANOC_PROGRESS`: `0` silences it, `1` forces it, and by default it is on
//! only when stderr is a terminal (so tests and redirected runs stay clean).

// A stats-accumulation path: a counter narrowed by an `as` cast loses
// high-traffic runs silently (DESIGN.md §6, C003).
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use std::io::{IsTerminal, Write};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How often intermediate progress lines may be emitted.
const THROTTLE: Duration = Duration::from_millis(200);

/// Whether progress output is enabled for this process.
pub fn enabled() -> bool {
    match std::env::var("ANOC_PROGRESS").ok().as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => std::io::stderr().is_terminal(),
    }
}

/// The `, eta 12.3s` fragment, or empty when no estimate is possible:
/// nothing finished yet, nothing left, or a zero elapsed clock (an
/// all-cached warm rerun resolves faster than the timer resolution, and
/// `0 / 0` here used to surface as `NaN` in the printed line).
fn eta_fragment(elapsed: Duration, done: usize, total: usize) -> String {
    if done == 0 || total <= done || elapsed.is_zero() {
        return String::new();
    }
    let per_job = elapsed.as_secs_f64() / done as f64;
    format!(", eta {:.1}s", per_job * (total - done) as f64)
}

/// The ` 1.23 Mcyc/s` throughput fragment, or empty when it would be
/// meaningless: no simulated cycles (cache hits simulate nothing) or a
/// zero-duration wall clock (which would divide to `inf`).
fn rate_fragment(sim_cycles: u64, wall: Duration) -> String {
    if sim_cycles == 0 || wall.is_zero() {
        return String::new();
    }
    format!(
        " {:.2} Mcyc/s",
        sim_cycles as f64 / wall.as_secs_f64() / 1e6
    )
}

/// Renders one per-job progress line from a snapshot of the counters.
#[allow(
    clippy::too_many_arguments,
    reason = "one argument per field of the progress line"
)]
fn format_job_line(
    label: &str,
    done: usize,
    total: usize,
    running: usize,
    cache_hits: usize,
    elapsed: Duration,
    id: &str,
    wall: Duration,
    sim_cycles: Option<u64>,
) -> String {
    format!(
        "[{label}] {done}/{total} done ({running} running, {cache_hits} cached, {:.1}s elapsed{})  {id} {:.0}ms{}",
        elapsed.as_secs_f64(),
        eta_fragment(elapsed, done, total),
        wall.as_secs_f64() * 1e3,
        rate_fragment(sim_cycles.unwrap_or(0), wall),
    )
}

/// Renders the end-of-campaign summary line.
fn format_finish_line(
    label: &str,
    total: usize,
    executed: usize,
    cache_hits: usize,
    elapsed: Duration,
    sim_cycles: u64,
) -> String {
    let rate = rate_fragment(sim_cycles, elapsed);
    let rate = if rate.is_empty() {
        rate
    } else {
        format!(",{rate}")
    };
    format!(
        "[{label}] campaign complete: {total} jobs, {executed} executed, {cache_hits} cached, {:.1}s{rate}",
        elapsed.as_secs_f64(),
    )
}

/// Tracks and prints the state of one running campaign.
pub struct Progress {
    label: String,
    enabled: bool,
    state: Mutex<State>,
}

struct State {
    total: usize,
    done: usize,
    running: usize,
    cache_hits: usize,
    sim_cycles: u64,
    started: Instant,
    last_print: Option<Instant>,
}

impl Progress {
    /// Creates a tracker for `total` jobs under a campaign `label`, printing
    /// only when `enabled` (the campaign passes the `ANOC_PROGRESS` policy,
    /// off under `--quiet`).
    pub fn with_enabled(label: &str, total: usize, enabled: bool) -> Self {
        Progress {
            label: label.to_string(),
            enabled,
            state: Mutex::new(State {
                total,
                done: 0,
                running: 0,
                cache_hits: 0,
                sim_cycles: 0,
                started: Instant::now(),
                last_print: None,
            }),
        }
    }

    /// Records that `n` jobs were answered straight from the cache.
    pub fn cache_hits(&self, n: usize) {
        let mut s = self.lock();
        s.cache_hits += n;
        s.done += n;
    }

    /// Records a job moving from queued to running.
    pub fn job_started(&self) {
        self.lock().running += 1;
    }

    /// Records a job finishing; `id`, `wall` and the job's simulated cycle
    /// count (when known) feed the per-job line.
    pub fn job_finished(&self, id: &str, wall: Duration, sim_cycles: Option<u64>) {
        let line = {
            let mut s = self.lock();
            s.running = s.running.saturating_sub(1);
            s.done += 1;
            s.sim_cycles += sim_cycles.unwrap_or(0);
            let finished_all = s.done >= s.total;
            let due = s
                .last_print
                .map(|t| t.elapsed() >= THROTTLE)
                .unwrap_or(true);
            if !self.enabled || !(finished_all || due) {
                None
            } else {
                s.last_print = Some(Instant::now());
                Some(format_job_line(
                    &self.label,
                    s.done,
                    s.total,
                    s.running,
                    s.cache_hits,
                    s.started.elapsed(),
                    id,
                    wall,
                    sim_cycles,
                ))
            }
        };
        if let Some(line) = line {
            let _ = writeln!(std::io::stderr(), "{line}");
        }
    }

    /// Prints the campaign summary line (always, when enabled).
    pub fn finish(&self, executed: usize) {
        if !self.enabled {
            return;
        }
        let s = self.lock();
        let line = format_finish_line(
            &self.label,
            s.total,
            executed,
            s.cache_hits,
            s.started.elapsed(),
            s.sim_cycles,
        );
        let _ = writeln!(std::io::stderr(), "{line}");
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_lifecycle() {
        let p = Progress::with_enabled("test", 4, false);
        p.cache_hits(1);
        p.job_started();
        p.job_started();
        p.job_finished("a", Duration::from_millis(5), Some(10_000));
        p.job_finished("b", Duration::from_millis(7), None);
        let s = p.lock();
        assert_eq!(s.done, 3);
        assert_eq!(s.running, 0);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.sim_cycles, 10_000);
    }

    #[test]
    fn disabled_progress_never_prints_but_still_counts() {
        let p = Progress::with_enabled("quiet", 2, false);
        p.job_started();
        p.job_finished("x", Duration::ZERO, None);
        p.finish(1);
        assert_eq!(p.lock().done, 1);
    }

    fn assert_finite(line: &str) {
        assert!(
            !line.contains("NaN") && !line.contains("inf"),
            "non-finite value leaked into progress line: {line}"
        );
    }

    #[test]
    fn cold_run_line_reports_rate_and_eta() {
        let line = format_job_line(
            "fig9",
            1,
            4,
            2,
            0,
            Duration::from_secs(2),
            "ssca2/FP-VAXX/s42",
            Duration::from_secs(1),
            Some(3_000_000),
        );
        assert_finite(&line);
        assert!(line.contains("1/4 done"), "{line}");
        assert!(line.contains("eta 6.0s"), "{line}");
        assert!(line.contains("3.00 Mcyc/s"), "{line}");
    }

    #[test]
    fn all_cached_rerun_prints_no_nan_or_inf() {
        // A warm rerun answers everything from the cache: zero wall, zero
        // simulated cycles, zero executed jobs. Every divide must vanish
        // from the line instead of rendering NaN/inf.
        let line = format_job_line(
            "fig9",
            8,
            8,
            0,
            8,
            Duration::ZERO,
            "cached",
            Duration::ZERO,
            Some(0),
        );
        assert_finite(&line);
        assert!(!line.contains("eta"), "{line}");
        assert!(!line.contains("Mcyc/s"), "{line}");
        let summary = format_finish_line("fig9", 8, 0, 8, Duration::ZERO, 0);
        assert_finite(&summary);
        assert!(summary.contains("0 executed, 8 cached"), "{summary}");
        assert!(!summary.contains("Mcyc/s"), "{summary}");
    }

    #[test]
    fn zero_elapsed_with_pending_jobs_suppresses_eta() {
        assert_eq!(eta_fragment(Duration::ZERO, 1, 4), "");
        assert_eq!(eta_fragment(Duration::from_secs(1), 0, 4), "");
        assert_eq!(eta_fragment(Duration::from_secs(1), 4, 4), "");
        assert_eq!(rate_fragment(0, Duration::from_secs(1)), "");
        assert_eq!(rate_fragment(1_000, Duration::ZERO), "");
    }

    #[test]
    fn env_policy_parses() {
        // Cannot mutate the environment safely in parallel tests; just make
        // sure the function is callable and total.
        let _ = enabled();
    }
}
