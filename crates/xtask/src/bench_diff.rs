//! `cargo xtask bench-diff` — the benchmark regression gate.
//!
//! Compares two benchmark artifact trees (or two single files) of
//! `*.metrics.json` documents, counter by counter, and fails on
//! regression. The simulation is deterministic, so the default
//! tolerance is **zero**: any drift in a counter is a behaviour change
//! someone must either justify (regenerate the committed baselines) or
//! fix. `--tol PCT` relaxes the gate to percentage drift for use on
//! trees produced at different scales.
//!
//! Regression policy:
//!
//! * A counter present in the old tree but missing from the new one is
//!   a regression (a silently vanished measurement is the worst kind).
//! * A counter whose value drifts beyond the tolerance is a regression.
//! * Counters whose name ends in `interventions` regress on **any**
//!   increase, tolerance notwithstanding — the paper's headline claim
//!   is that warm windows need zero host interventions, and no
//!   tolerance buys that back.
//! * Wall-clock counters (`wall_ms`, `events_per_sec` path suffixes —
//!   the engine self-benchmark numbers) are held to their own
//!   `--wall-tol` band (default 900%) instead of the exact gate: host
//!   time varies with machine and load, simulated counters never do.
//!   The band is one-sided: a `wall_ms` regresses when new/old exceeds
//!   1 + band, an `events_per_sec` when old/new does, and a speed-up
//!   never does.
//! * New-only counters are fine (instrumentation grows).
//! * Files only in the old tree are reported but do not fail the gate
//!   (benches can be retired); files only in the new tree are ignored.

use std::fmt;
use std::fs;
use std::path::Path;

use obs::Json;

/// Gate configuration.
#[derive(Clone, Copy, Debug)]
pub struct DiffOptions {
    /// Allowed relative drift per counter, in percent.
    pub tol_pct: f64,
    /// Allowed relative slowdown for wall-clock counters (`wall_ms`,
    /// `events_per_sec` suffixes), in percent. Wall numbers
    /// come from the engine self-benchmark and vary with machine and
    /// load, so they get their own generous band while every simulated
    /// counter stays under `tol_pct` (zero by default). Disappearance is
    /// still a regression — a wall counter may drift, not vanish.
    pub wall_tol_pct: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            tol_pct: 0.0,
            wall_tol_pct: 900.0,
        }
    }
}

/// One counter that regressed.
#[derive(Clone, Debug)]
pub struct Regression {
    /// Artifact file (relative name, e.g. `fig11_12_stencil`).
    pub file: String,
    /// Dotted counter path, e.g. `totals.warm_window_interventions`.
    pub counter: String,
    /// Old value (`None` when the counter is new-only — not emitted).
    pub old: Option<f64>,
    /// New value (`None` when the counter disappeared).
    pub new: Option<f64>,
    /// Why this counts as a regression.
    pub why: &'static str,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_v = |v: Option<f64>| match v {
            Some(v) => format!("{v}"),
            None => "<missing>".to_string(),
        };
        write!(
            f,
            "{}: {}: {} -> {} ({})",
            self.file,
            self.counter,
            fmt_v(self.old),
            fmt_v(self.new),
            self.why
        )
    }
}

/// Outcome of one tree comparison.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Artifact files compared.
    pub files: usize,
    /// Counters compared across all files.
    pub counters: usize,
    /// Regressions found (gate fails if non-empty).
    pub regressions: Vec<Regression>,
    /// Non-fatal observations (old-only files, parse notes).
    pub notes: Vec<String>,
}

impl DiffReport {
    /// Whether the gate passes.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Flatten every numeric leaf of a metrics document into dotted paths.
/// The identity fields (`bench`, `schema`) are skipped at top level.
fn flatten(j: &Json, prefix: &str, out: &mut Vec<(String, f64)>) {
    match j {
        Json::Obj(members) => {
            for (k, v) in members {
                if prefix.is_empty() && (k == "bench" || k == "schema") {
                    continue;
                }
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(v, &path, out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten(v, &format!("{prefix}[{i}]"), out);
            }
        }
        Json::Num(n) => out.push((prefix.to_string(), *n)),
        _ => {}
    }
}

/// Counters where any increase is a regression regardless of tolerance.
fn increase_is_always_bad(counter: &str) -> bool {
    counter.ends_with("interventions")
}

/// Wall-clock counters: host-time measurements from the engine
/// self-benchmark, compared under `wall_tol_pct` instead of `tol_pct`.
/// Matched by the suffix of the last path segment.
fn is_wall_counter(counter: &str) -> bool {
    let last = counter.rsplit('.').next().unwrap_or(counter);
    last.ends_with("wall_ms") || last.ends_with("events_per_sec")
}

/// How far `new` lies from `old`, in percent of `old`.
fn drift_pct(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        ((new - old) / old).abs() * 100.0
    }
}

/// How much slower a wall counter reads, in percent: a `wall_ms` is
/// slower when it grows (new/old), an `events_per_sec` when it shrinks
/// (old/new), and a speed-up reads 0.
fn wall_slowdown_pct(counter: &str, old: f64, new: f64) -> f64 {
    let (fast, slow) = if counter.ends_with("wall_ms") {
        (old, new)
    } else {
        (new, old)
    };
    if slow <= fast {
        0.0
    } else {
        drift_pct(fast, slow)
    }
}

/// Diff two parsed documents under `file`, appending to `report`.
pub fn diff_docs(file: &str, old: &Json, new: &Json, opts: &DiffOptions, report: &mut DiffReport) {
    let mut old_counters = Vec::new();
    let mut new_counters = Vec::new();
    flatten(old, "", &mut old_counters);
    flatten(new, "", &mut new_counters);
    let new_map: std::collections::BTreeMap<&str, f64> =
        new_counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    for (counter, old_v) in &old_counters {
        report.counters += 1;
        let Some(&new_v) = new_map.get(counter.as_str()) else {
            report.regressions.push(Regression {
                file: file.to_string(),
                counter: counter.clone(),
                old: Some(*old_v),
                new: None,
                why: "counter disappeared",
            });
            continue;
        };
        let (drift_pct, tol, why) = if is_wall_counter(counter) {
            (
                wall_slowdown_pct(counter, *old_v, new_v),
                opts.tol_pct.max(opts.wall_tol_pct),
                "drift beyond wall-clock tolerance",
            )
        } else {
            (
                drift_pct(*old_v, new_v),
                opts.tol_pct,
                "drift beyond tolerance",
            )
        };
        if increase_is_always_bad(counter) && new_v > *old_v {
            report.regressions.push(Regression {
                file: file.to_string(),
                counter: counter.clone(),
                old: Some(*old_v),
                new: Some(new_v),
                why: "interventions may never increase",
            });
        } else if drift_pct > tol {
            report.regressions.push(Regression {
                file: file.to_string(),
                counter: counter.clone(),
                old: Some(*old_v),
                new: Some(new_v),
                why,
            });
        }
    }
}

fn read_doc(path: &Path) -> Result<Json, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("{}: unreadable: {e}", path.display()))?;
    obs::parse(&text).map_err(|e| format!("{}: malformed JSON: {e}", path.display()))
}

fn metrics_files(dir: &Path) -> Result<Vec<String>, String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("{}: unreadable dir: {e}", dir.display()))?;
    let mut names: Vec<String> = entries
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".metrics.json"))
        .collect();
    names.sort();
    Ok(names)
}

/// Compare two artifact trees (directories of `*.metrics.json`) or two
/// single files.
pub fn diff_trees(old: &Path, new: &Path, opts: &DiffOptions) -> Result<DiffReport, String> {
    let mut report = DiffReport::default();
    if old.is_file() && new.is_file() {
        let name = old
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("old")
            .to_string();
        report.files = 1;
        diff_docs(&name, &read_doc(old)?, &read_doc(new)?, opts, &mut report);
        return Ok(report);
    }
    if !old.is_dir() || !new.is_dir() {
        return Err(format!(
            "bench-diff expects two directories or two files, got {} and {}",
            old.display(),
            new.display()
        ));
    }
    let old_names = metrics_files(old)?;
    let new_names = metrics_files(new)?;
    for name in &old_names {
        if !new_names.contains(name) {
            report
                .notes
                .push(format!("{name}: only in {} (skipped)", old.display()));
            continue;
        }
        report.files += 1;
        diff_docs(
            name,
            &read_doc(&old.join(name))?,
            &read_doc(&new.join(name))?,
            opts,
            &mut report,
        );
    }
    if report.files == 0 {
        return Err(format!(
            "no common *.metrics.json between {} and {}",
            old.display(),
            new.display()
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(src: &str) -> Json {
        obs::parse(src).expect("fixture parses")
    }

    const BASE: &str = r#"{
        "schema": "bluefield-offload/metrics/v1",
        "bench": "fixture",
        "totals": {"events": 100, "fin_send": 4, "warm_window_interventions": 0},
        "ranks": [{"rank": 0, "wakeups": 7}]
    }"#;

    #[test]
    fn self_compare_is_clean() {
        let mut r = DiffReport::default();
        diff_docs("f", &doc(BASE), &doc(BASE), &DiffOptions::default(), &mut r);
        assert!(r.ok(), "{:?}", r.regressions);
        assert_eq!(r.counters, 5);
    }

    #[test]
    fn drift_beyond_tolerance_regresses() {
        let new = BASE.replace("\"events\": 100", "\"events\": 103");
        let mut r = DiffReport::default();
        diff_docs("f", &doc(BASE), &doc(&new), &DiffOptions::default(), &mut r);
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].counter, "totals.events");
        // The same drift passes under a 5% tolerance.
        let mut r = DiffReport::default();
        diff_docs(
            "f",
            &doc(BASE),
            &doc(&new),
            &DiffOptions {
                tol_pct: 5.0,
                ..Default::default()
            },
            &mut r,
        );
        assert!(r.ok(), "{:?}", r.regressions);
    }

    const WALL_BASE: &str = r#"{
        "schema": "bluefield-offload/metrics/v1",
        "bench": "fixture",
        "totals": {"events": 100},
        "engine": {"events": 4032, "wall_ms": 20.0, "events_per_sec": 201600.0}
    }"#;

    #[test]
    fn wall_counters_get_their_own_band() {
        // 5x slower wall: inside the default 900% band, no regression —
        // while the exact counters still hold at zero tolerance.
        let new = WALL_BASE
            .replace("\"wall_ms\": 20.0", "\"wall_ms\": 100.0")
            .replace(
                "\"events_per_sec\": 201600.0",
                "\"events_per_sec\": 40320.0",
            );
        let mut r = DiffReport::default();
        diff_docs(
            "f",
            &doc(WALL_BASE),
            &doc(&new),
            &DiffOptions::default(),
            &mut r,
        );
        assert!(r.ok(), "{:?}", r.regressions);
        // 20x slower wall: beyond the band.
        let new = WALL_BASE.replace("\"wall_ms\": 20.0", "\"wall_ms\": 400.0");
        let mut r = DiffReport::default();
        diff_docs(
            "f",
            &doc(WALL_BASE),
            &doc(&new),
            &DiffOptions::default(),
            &mut r,
        );
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].why, "drift beyond wall-clock tolerance");
        // The band never loosens a simulated counter.
        let new = WALL_BASE.replace("\"events\": 4032", "\"events\": 4033");
        let mut r = DiffReport::default();
        diff_docs(
            "f",
            &doc(WALL_BASE),
            &doc(&new),
            &DiffOptions::default(),
            &mut r,
        );
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].counter, "engine.events");
        // A vanished wall counter is still a regression.
        let new = WALL_BASE.replace("\"wall_ms\": 20.0, ", "");
        let mut r = DiffReport::default();
        diff_docs(
            "f",
            &doc(WALL_BASE),
            &doc(&new),
            &DiffOptions::default(),
            &mut r,
        );
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].why, "counter disappeared");
    }

    #[test]
    fn the_wall_band_is_one_sided() {
        let opts = DiffOptions {
            wall_tol_pct: 100.0,
            ..DiffOptions::default()
        };
        let run = |wall_ms: &str, events_per_sec: &str| {
            let new = WALL_BASE
                .replace("\"wall_ms\": 20.0", &format!("\"wall_ms\": {wall_ms}"))
                .replace(
                    "\"events_per_sec\": 201600.0",
                    &format!("\"events_per_sec\": {events_per_sec}"),
                );
            let mut r = DiffReport::default();
            diff_docs("f", &doc(WALL_BASE), &doc(&new), &opts, &mut r);
            let mut keys: Vec<String> = r.regressions.into_iter().map(|g| g.counter).collect();
            keys.sort();
            keys
        };
        // 2x faster passes on both keys, although each drifted 100 % or
        // more of its old value.
        assert!(run("10.0", "403200.0").is_empty());
        // 2.5x slower fails on both: +150 % on wall_ms, and old/new =
        // 2.5 on events_per_sec (a symmetric band read -60 % there).
        assert_eq!(
            run("50.0", "80640.0"),
            ["engine.events_per_sec", "engine.wall_ms"]
        );
        // 2x slower is exactly the band, which still passes.
        assert!(run("40.0", "100800.0").is_empty());
    }

    #[test]
    fn interventions_increase_ignores_tolerance() {
        let new = BASE.replace(
            "\"warm_window_interventions\": 0",
            "\"warm_window_interventions\": 1",
        );
        let mut r = DiffReport::default();
        diff_docs(
            "f",
            &doc(BASE),
            &doc(&new),
            &DiffOptions {
                tol_pct: 1000.0,
                ..Default::default()
            },
            &mut r,
        );
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].why, "interventions may never increase");
        // A *decrease* is an improvement, not a regression (here: from a
        // baseline where the counter was 1).
        let old = BASE.replace(
            "\"warm_window_interventions\": 0",
            "\"warm_window_interventions\": 1",
        );
        let mut r = DiffReport::default();
        diff_docs(
            "f",
            &doc(&old),
            &doc(BASE),
            &DiffOptions {
                tol_pct: 1000.0,
                ..Default::default()
            },
            &mut r,
        );
        assert!(r.ok(), "{:?}", r.regressions);
    }

    #[test]
    fn missing_counter_regresses_and_new_counter_is_fine() {
        let new = BASE.replace("\"fin_send\": 4, ", "");
        let mut r = DiffReport::default();
        diff_docs(
            "f",
            &doc(BASE),
            &doc(&new),
            &DiffOptions {
                tol_pct: 1000.0,
                ..Default::default()
            },
            &mut r,
        );
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].why, "counter disappeared");
        // Extra counters in the new tree don't fail the gate.
        let wider = BASE.replace("\"fin_send\": 4", "\"fin_send\": 4, \"fin_extra\": 9");
        let mut r = DiffReport::default();
        diff_docs(
            "f",
            &doc(BASE),
            &doc(&wider),
            &DiffOptions::default(),
            &mut r,
        );
        assert!(r.ok(), "{:?}", r.regressions);
    }

    #[test]
    fn tenant_sections_are_additions_not_disappearances() {
        // Committed baselines predate per-tenant attribution: a new doc
        // that grows a `tenants` section and the per-tenant totals
        // (`quota_sheds`, `drr_grants`) must pass the zero-tolerance
        // gate against them — new-only counters are instrumentation
        // growth, not drift.
        let widened = BASE.replace(
            "\"ranks\": [{\"rank\": 0, \"wakeups\": 7}]",
            "\"ranks\": [{\"rank\": 0, \"wakeups\": 7}], \
             \"tenants\": [{\"tenant\": 0, \"credit_deferrals\": 0, \"quota_sheds\": 0}, \
                           {\"tenant\": 1, \"credit_deferrals\": 9, \"quota_sheds\": 1}]",
        );
        let mut r = DiffReport::default();
        diff_docs(
            "f",
            &doc(BASE),
            &doc(&widened),
            &DiffOptions::default(),
            &mut r,
        );
        assert!(
            r.ok(),
            "tenant section must be an addition: {:?}",
            r.regressions
        );
        // The reverse — a tenants section the old tree had and the new
        // one lost — is exactly the vanished-measurement case the gate
        // exists for.
        let mut r = DiffReport::default();
        diff_docs(
            "f",
            &doc(&widened),
            &doc(BASE),
            &DiffOptions::default(),
            &mut r,
        );
        assert!(!r.ok(), "a vanished tenants section must regress");
        assert!(r
            .regressions
            .iter()
            .all(|reg| reg.why == "counter disappeared" && reg.counter.starts_with("tenants[")));
    }

    #[test]
    fn health_sections_are_additions_not_disappearances() {
        // Committed baselines predate the fabric health engine (and the
        // engine defaults to disabled, so clean regenerations never emit
        // a `health` section at all). A new doc that grows one — e.g. a
        // fault-injected bench run with breakers armed — must pass the
        // zero-tolerance gate against a baseline without it.
        let widened = BASE.replace(
            "\"ranks\": [{\"rank\": 0, \"wakeups\": 7}]",
            "\"ranks\": [{\"rank\": 0, \"wakeups\": 7}], \
             \"health\": {\"breaker_trips\": 2, \"breaker_half_opens\": 2, \
                          \"breaker_closes\": 2, \"breaker_probes\": 2, \
                          \"breaker_fastpaths\": 11, \"retry_budget_sheds\": 0}",
        );
        let mut r = DiffReport::default();
        diff_docs(
            "f",
            &doc(BASE),
            &doc(&widened),
            &DiffOptions::default(),
            &mut r,
        );
        assert!(
            r.ok(),
            "health section must be an addition: {:?}",
            r.regressions
        );
        // A health section the old tree had and the new one lost is a
        // vanished measurement — the breakers silently stopped being
        // observed, which is the regression the gate exists to catch.
        let mut r = DiffReport::default();
        diff_docs(
            "f",
            &doc(&widened),
            &doc(BASE),
            &DiffOptions::default(),
            &mut r,
        );
        assert!(!r.ok(), "a vanished health section must regress");
        assert!(r
            .regressions
            .iter()
            .all(|reg| reg.why == "counter disappeared" && reg.counter.starts_with("health.")));
    }

    #[test]
    fn drift_and_disappearance_regress_together() {
        let new = BASE
            .replace("\"events\": 100", "\"events\": 103")
            .replace("\"fin_send\": 4, ", "");
        let mut r = DiffReport::default();
        diff_docs("f", &doc(BASE), &doc(&new), &DiffOptions::default(), &mut r);
        assert_eq!(r.regressions.len(), 2);
        assert_eq!(r.counters, 5);
        let gone = r
            .regressions
            .iter()
            .find(|reg| reg.why == "counter disappeared")
            .expect("disappearance regression present");
        assert_eq!((gone.old, gone.new), (Some(4.0), None));
    }

    #[test]
    fn tree_diff_over_real_dirs() {
        let scratch = std::env::temp_dir().join(format!("bench-diff-test-{}", std::process::id()));
        let old_dir = scratch.join("old");
        let new_dir = scratch.join("new");
        fs::create_dir_all(&old_dir).expect("mkdir old");
        fs::create_dir_all(&new_dir).expect("mkdir new");
        fs::write(old_dir.join("a.metrics.json"), BASE).expect("write");
        fs::write(new_dir.join("a.metrics.json"), BASE).expect("write");
        fs::write(old_dir.join("retired.metrics.json"), BASE).expect("write");
        fs::write(old_dir.join("ignored.txt"), "not metrics").expect("write");

        let r = diff_trees(&old_dir, &new_dir, &DiffOptions::default()).expect("diff runs");
        assert!(r.ok(), "{:?}", r.regressions);
        assert_eq!(r.files, 1);
        assert_eq!(r.notes.len(), 1, "old-only file is noted: {:?}", r.notes);

        let mutated = BASE.replace("\"fin_send\": 4", "\"fin_send\": 5");
        fs::write(new_dir.join("a.metrics.json"), mutated).expect("write");
        let r = diff_trees(&old_dir, &new_dir, &DiffOptions::default()).expect("diff runs");
        assert!(!r.ok(), "mutated tree must regress");

        fs::remove_dir_all(&scratch).expect("cleanup");
    }
}
