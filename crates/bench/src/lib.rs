//! Support code for the figure-regeneration binaries.
//!
//! Every `fig*` binary accepts:
//!
//! * `--full` — run at the paper's full scale (32 processes per node where
//!   the paper used 32). The default runs a reduced-PPN configuration that
//!   preserves every qualitative shape while finishing in minutes.
//! * `--quick` — tiny smoke-test scale (seconds).
//! * `--nodes N`, `--ppn N`, `--iters N` — explicit overrides.
//!
//! Output is aligned text tables, one per paper figure, with the measured
//! series the figure plots.

/// Parsed command-line options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Paper-scale run.
    pub full: bool,
    /// Smoke-test run.
    pub quick: bool,
    /// Override node count.
    pub nodes: Option<usize>,
    /// Override processes per node.
    pub ppn: Option<usize>,
    /// Override measured iterations.
    pub iters: Option<u32>,
}

impl Args {
    /// Parse from `std::env::args`. Prints a clean error and exits with
    /// status 2 on invalid input.
    pub fn parse() -> Args {
        fn die(msg: &str) -> ! {
            eprintln!("error: {msg}");
            eprintln!("options: --full | --quick | --nodes N | --ppn N | --iters N");
            std::process::exit(2);
        }
        fn value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
            match it.next() {
                Some(v) => v.parse().unwrap_or_else(|_| {
                    die(&format!("{flag} expects a positive number, got '{v}'"))
                }),
                None => die(&format!("{flag} requires a value")),
            }
        }
        let mut out = Args::default();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => out.full = true,
                "--quick" => out.quick = true,
                "--nodes" => out.nodes = Some(value(&mut it, "--nodes")),
                "--ppn" => out.ppn = Some(value(&mut it, "--ppn")),
                "--iters" => out.iters = Some(value(&mut it, "--iters")),
                "--help" | "-h" => {
                    eprintln!("options: --full | --quick | --nodes N | --ppn N | --iters N");
                    std::process::exit(0);
                }
                other => die(&format!("unknown argument '{other}'")),
            }
        }
        if out.full && out.quick {
            die("--full and --quick are exclusive");
        }
        if out.nodes == Some(0) || out.ppn == Some(0) || out.iters == Some(0) {
            die("--nodes/--ppn/--iters must be positive");
        }
        out
    }

    /// Pick a processes-per-node value: the paper's value under `--full`,
    /// a reduced default otherwise, always honouring `--ppn`.
    pub fn pick_ppn(&self, paper: usize, reduced: usize, quick: usize) -> usize {
        self.ppn.unwrap_or(if self.full {
            paper
        } else if self.quick {
            quick
        } else {
            reduced
        })
    }

    /// Pick an iteration count.
    pub fn pick_iters(&self, normal: u32, quick: u32) -> u32 {
        self.iters
            .unwrap_or(if self.quick { quick } else { normal })
    }
}

/// Directory receiving machine-readable benchmark artifacts
/// (`<bench>.metrics.json` files). `BENCH_OUT_DIR` overrides the
/// default `bench_results/` at the workspace root; `BENCH_RESULTS_DIR`
/// is honoured as a fallback for older scripts.
pub fn bench_results_dir() -> std::path::PathBuf {
    match std::env::var_os("BENCH_OUT_DIR").or_else(|| std::env::var_os("BENCH_RESULTS_DIR")) {
        Some(d) => d.into(),
        None => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results"),
    }
}

/// Write a metrics report as `bench_results/<name>.metrics.json`
/// (schema `bluefield-offload/metrics/v1`). Benchmarks keep running if
/// the filesystem refuses; the table on stdout is still the primary
/// output.
pub fn write_metrics(name: &str, report: &offload::MetricsReport) {
    let dir = bench_results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("metrics: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.metrics.json"));
    match std::fs::write(&path, report.to_json(name)) {
        Ok(()) => eprintln!("metrics: wrote {}", path.display()),
        Err(e) => eprintln!("metrics: failed to write {}: {e}", path.display()),
    }
}

/// One numeric extension section appended to a metrics/v1 document:
/// `(section name, [(key, rendered number)])`. The schema validator
/// accepts `"engine"` and `"scale"` sections whose members are all
/// numbers; `cargo xtask bench-diff` flattens them like any counter.
pub type MetricsSection = (&'static str, Vec<(String, String)>);

/// Render a metrics report with extra numeric sections spliced in ahead
/// of the closing brace. Rendering stays deterministic: sections and
/// keys keep their given order.
pub fn render_metrics_with(
    report: &offload::MetricsReport,
    name: &str,
    sections: &[MetricsSection],
) -> String {
    let doc = report.to_json(name);
    if sections.is_empty() {
        return doc;
    }
    let base = doc
        .strip_suffix("\n}\n")
        .expect("metrics/v1 documents end with a bare closing brace");
    let mut o = String::from(base);
    for (section, keys) in sections {
        o.push_str(&format!(",\n  \"{section}\": {{"));
        for (i, (k, v)) in keys.iter().enumerate() {
            let sep = if i + 1 == keys.len() { "" } else { "," };
            o.push_str(&format!("\n    \"{k}\": {v}{sep}"));
        }
        o.push_str("\n  }");
    }
    o.push_str("\n}\n");
    o
}

/// Like [`write_metrics`], with extension sections.
pub fn write_metrics_with(
    name: &str,
    report: &offload::MetricsReport,
    sections: &[MetricsSection],
) {
    let dir = bench_results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("metrics: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.metrics.json"));
    match std::fs::write(&path, render_metrics_with(report, name, sections)) {
        Ok(()) => eprintln!("metrics: wrote {}", path.display()),
        Err(e) => eprintln!("metrics: failed to write {}: {e}", path.display()),
    }
}

/// Whether wall-clock members (`wall_ms`, `events_per_sec`, and the
/// profile section's timings) go into bench artifacts. `BENCH_NO_WALL=1`
/// omits them so two runs of the same spec produce byte-identical
/// documents.
pub fn wall_enabled() -> bool {
    std::env::var_os("BENCH_NO_WALL").is_none()
}

/// Start a wall-clock timer; the returned closure yields elapsed
/// milliseconds. Host time is confined to the engine self-benchmark
/// numbers (the `wall_ms` band in bench-diff) and never feeds back into
/// simulated time, which is why the lint waiver below is sound.
pub fn wall_timer() -> impl FnOnce() -> f64 {
    let t0 = std::time::Instant::now(); // lint:allow(wall-clock)
    move || t0.elapsed().as_secs_f64() * 1e3
}

/// Whether continuous self-profiling is armed (`BENCH_PROFILE=1`):
/// benches re-run with the span profiler + telemetry bus attached and
/// emit `profile/v1` artifacts. Off by default — profiling must cost
/// nothing unless asked for.
pub fn profile_enabled() -> bool {
    std::env::var(offload::profile::BENCH_PROFILE_ENV).is_ok_and(|v| v == "1")
}

/// Telemetry snapshot interval in picoseconds of virtual time
/// (`BENCH_TELEMETRY_PS` overrides; default 1 µs — a handful of
/// windows even on the `--quick` specs).
pub fn telemetry_interval_ps() -> u64 {
    std::env::var("BENCH_TELEMETRY_PS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(1_000_000)
}

/// Directory receiving `profile/v1` artifacts (`<name>.profile.json`
/// plus the flamegraph-ready `<name>.collapsed.txt`). `BENCH_PROFILE_DIR`
/// overrides the default `target/profile/` at the workspace root.
pub fn profile_out_dir() -> std::path::PathBuf {
    match std::env::var_os("BENCH_PROFILE_DIR") {
        Some(d) => d.into(),
        None => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/profile"),
    }
}

/// Write one `profile/v1` document and its collapsed-stack sibling into
/// [`profile_out_dir`]. Like the metrics writers, filesystem refusal is
/// non-fatal.
pub fn write_profile(name: &str, doc_json: &str, collapsed: &str) {
    let dir = profile_out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("profile: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.profile.json"));
    match std::fs::write(&path, doc_json) {
        Ok(()) => eprintln!("profile: wrote {}", path.display()),
        Err(e) => eprintln!("profile: failed to write {}: {e}", path.display()),
    }
    let path = dir.join(format!("{name}.collapsed.txt"));
    if let Err(e) = std::fs::write(&path, collapsed) {
        eprintln!("profile: failed to write {}: {e}", path.display());
    }
}

/// Render a float with fixed three-decimal precision (deterministic).
pub fn fmt_f64(v: f64) -> String {
    format!("{v:.3}")
}

/// The `"scale"` section of a scale-bench artifact: the spec and the
/// run's deterministic observables. Everything here is exact-compared
/// by bench-diff.
pub fn scale_section(spec: &workloads::ScaleSpec, run: &workloads::ScaleRun) -> MetricsSection {
    (
        "scale",
        vec![
            ("ranks".into(), spec.ranks().to_string()),
            ("nodes".into(), spec.nodes.to_string()),
            ("ppn".into(), spec.ppn.to_string()),
            ("iters".into(), spec.iters.to_string()),
            ("seed".into(), spec.seed.to_string()),
            ("fingerprint".into(), run.fingerprint.to_string()),
            ("virtual_ns".into(), run.virtual_ns.to_string()),
        ],
    )
}

/// The `"engine"` section of a scale-bench artifact: the run's
/// deterministic counters (`shards` is the node count, `xshard_events`
/// the cross-node deliveries), plus — unless [`wall_enabled`] is off —
/// the self-benchmark numbers bench-diff holds to the wall tolerance
/// band.
pub fn engine_section(run: &workloads::ScaleRun, wall_ms: f64) -> MetricsSection {
    let mut keys = vec![
        ("events".into(), run.events.to_string()),
        ("shards".into(), run.shards.to_string()),
        ("xshard_events".into(), run.xshard_events.to_string()),
    ];
    if wall_enabled() {
        keys.push(("wall_ms".into(), fmt_f64(wall_ms)));
        keys.push((
            "events_per_sec".into(),
            fmt_f64(run.events as f64 / (wall_ms / 1e3).max(1e-9)),
        ));
    }
    ("engine", keys)
}

/// Artifact name for a scale bench: the bare name under `--quick` (the
/// committed baseline CI regenerates and diffs), a rank-suffixed name
/// otherwise (committed once as scale evidence; old-only files are a
/// non-fatal bench-diff note).
pub fn scale_artifact_name(base: &str, args: &Args, ranks: usize) -> String {
    if args.quick {
        base.to_string()
    } else {
        format!("{base}_{ranks}r")
    }
}

/// Run a figure body with the full observability stack: aggregate
/// metrics (always persisted) plus a causal lifecycle trace
/// ([`obs::LifecycleRecorder`]) fed from the same event stream via
/// [`workloads::fanout`]. The lifecycle document
/// (`<name>.lifecycle.json`, schema `bluefield-offload/lifecycle/v1`)
/// is written only when `BENCH_LIFECYCLE` is set — it is per-transfer
/// data, much bigger than the metrics totals, and not a committed
/// baseline.
/// With `BENCH_PROFILE=1` the run additionally arms the hot-path span
/// profiler and attaches a telemetry bus to the same fanned-out event
/// stream, then writes `<name>.profile.json` (+ collapsed stack) under
/// [`profile_out_dir`].
pub fn run_with_observability(name: &str, f: impl FnOnce()) {
    let metrics = offload::Metrics::new();
    let lifecycle = obs::LifecycleRecorder::new();
    let mut sinks = vec![metrics.sink(), lifecycle.sink()];
    let bus = profile_enabled().then(|| {
        offload::profile::set_enabled(true);
        let bus = obs::TelemetryBus::new(telemetry_interval_ps());
        sinks.push(bus.sink());
        bus
    });
    let observer = workloads::Observer {
        sink: Some(workloads::fanout(sinks)),
        trace: false,
    };
    workloads::with_observer(observer, f);
    write_metrics(name, &metrics.report());
    if let Some(bus) = bus {
        offload::profile::set_enabled(false);
        let report = offload::profile::take_report();
        let (_, snaps) = bus.finish();
        let doc = obs::render_profile(&obs::ProfileDoc {
            bench: name,
            report: &report,
            snapshots: &snaps,
            wall: wall_enabled(),
        });
        write_profile(name, &doc, &report.collapsed_stack());
    }
    if std::env::var_os("BENCH_LIFECYCLE").is_some() {
        let dir = bench_results_dir();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("lifecycle: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{name}.lifecycle.json"));
        match std::fs::write(&path, lifecycle.report().to_json().render()) {
            Ok(()) => eprintln!("lifecycle: wrote {}", path.display()),
            Err(e) => eprintln!("lifecycle: failed to write {}: {e}", path.display()),
        }
    }
}

/// Print an aligned table: a title line, a header row, then rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:>width$}  ", cell, width = widths[i]));
        }
        println!("{}", line.trim_end());
    };
    fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    fmt_row(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        fmt_row(row);
    }
}

/// Format microseconds with sensible precision.
pub fn us(v: f64) -> String {
    if v >= 10_000.0 {
        format!("{:.1}ms", v / 1000.0)
    } else {
        format!("{v:.1}us")
    }
}

/// Format a ratio as a percentage string.
pub fn pct(v: f64) -> String {
    format!("{v:.1}%")
}

/// Human-readable byte size.
pub fn bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{}MiB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{}KiB", b >> 10)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(us(12.34), "12.3us");
        assert_eq!(us(123456.0), "123.5ms");
        assert_eq!(bytes(65536), "64KiB");
        assert_eq!(bytes(1 << 21), "2MiB");
        assert_eq!(bytes(12), "12B");
        assert_eq!(pct(99.96), "100.0%");
    }

    #[test]
    fn ppn_picker() {
        let a = Args {
            full: true,
            ..Default::default()
        };
        assert_eq!(a.pick_ppn(32, 16, 4), 32);
        let a = Args::default();
        assert_eq!(a.pick_ppn(32, 16, 4), 16);
        let a = Args {
            quick: true,
            ..Default::default()
        };
        assert_eq!(a.pick_ppn(32, 16, 4), 4);
        let a = Args {
            ppn: Some(8),
            ..Default::default()
        };
        assert_eq!(a.pick_ppn(32, 16, 4), 8);
    }
}
