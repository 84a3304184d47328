//! Support code for the figure-regeneration binaries.
//!
//! Every `fig*` binary accepts:
//!
//! * `--full` — run at the paper's full scale (32 processes per node where
//!   the paper used 32). The default runs a reduced-PPN configuration that
//!   preserves every qualitative shape while finishing in minutes.
//! * `--quick` — tiny smoke-test scale (seconds).
//! * `--nodes N`, `--ppn N`, `--iters N` — explicit overrides. A binary
//!   that fixes one of them rejects it ([`Args::parse_except`]).
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
        Args::parse_except(&[])
    }

    /// [`Args::parse`] for a binary that does not read the flags in
    /// `unread` (a figure with a fixed node count, say): naming one is a
    /// usage error, as an unknown argument is, never a silent no-op.
    pub fn parse_except(unread: &[&str]) -> Args {
        let usage = usage(unread);
        match Args::from_args(std::env::args().skip(1), unread) {
            Ok(Some(args)) => args,
            Ok(None) => {
                eprintln!("{usage}");
                std::process::exit(0);
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
    }

    /// Parse `args` (program name excluded); `Ok(None)` asks for help.
    fn from_args(
        args: impl IntoIterator<Item = String>,
        unread: &[&str],
    ) -> Result<Option<Args>, String> {
        fn value<T: std::str::FromStr>(
            it: &mut impl Iterator<Item = String>,
            flag: &str,
        ) -> Result<T, String> {
            let v = it
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            v.parse()
                .map_err(|_| format!("{flag} expects a positive number, got '{v}'"))
        }
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if unread.contains(&a.as_str()) {
                return Err(format!("this binary does not read '{a}'"));
            }
            match a.as_str() {
                "--full" => out.full = true,
                "--quick" => out.quick = true,
                "--nodes" => out.nodes = Some(value(&mut it, "--nodes")?),
                "--ppn" => out.ppn = Some(value(&mut it, "--ppn")?),
                "--iters" => out.iters = Some(value(&mut it, "--iters")?),
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        if out.full && out.quick {
            return Err("--full and --quick are exclusive".into());
        }
        if out.nodes == Some(0) || out.ppn == Some(0) || out.iters == Some(0) {
            return Err("--nodes/--ppn/--iters must be positive".into());
        }
        Ok(Some(out))
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

    /// Name of this run's artifacts: `base` under `--quick` (the
    /// committed baseline CI regenerates and compares byte for byte),
    /// else suffixed with the scale, so a longer run never overwrites
    /// that baseline: a scale bench's rank count
    /// (`ext_scale_alltoall_1024r`), or `full` or `default` for a figure
    /// (`ranks` = `None`).
    pub fn artifact_name(&self, base: &str, ranks: Option<usize>) -> String {
        match ranks {
            _ if self.quick => base.to_string(),
            Some(r) => format!("{base}_{r}r"),
            None if self.full => format!("{base}_full"),
            None => format!("{base}_default"),
        }
    }
}

/// The options line printed for `--help` and after a usage error,
/// without the flags in `unread`.
fn usage(unread: &[&str]) -> String {
    let opts: Vec<&str> = ["--full", "--quick", "--nodes N", "--ppn N", "--iters N"]
        .into_iter()
        .filter(|o| !unread.iter().any(|u| o.split(' ').next() == Some(*u)))
        .collect();
    format!("options: {}", opts.join(" | "))
}

/// Directory receiving machine-readable benchmark artifacts:
/// `BENCH_OUT_DIR`, or `bench_results/` under the current directory
/// (the repository root under `cargo run`).
pub fn bench_results_dir() -> std::path::PathBuf {
    std::env::var_os("BENCH_OUT_DIR").map_or_else(|| "bench_results".into(), Into::into)
}

/// Write `contents` as `file` in [`bench_results_dir`]. Benchmarks keep
/// running if the filesystem refuses; the table on stdout is still the
/// primary output.
fn write_artifact(file: &str, contents: &str) {
    let dir = bench_results_dir();
    let path = dir.join(file);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents)) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// One numeric extension section appended to a metrics/v1 document:
/// `(section name, [(key, rendered number)])`. The schema validator
/// accepts `"engine"` and `"scale"` sections whose members are all
/// numbers.
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

/// Write a metrics report, with extension sections, as
/// `<name>.metrics.json` (schema `bluefield-offload/metrics/v1`), and the
/// tables [`print_table`] has printed so far as `<name>.table.tsv`.
pub fn write_metrics_with(
    name: &str,
    report: &offload::MetricsReport,
    sections: &[MetricsSection],
) {
    write_artifact(
        &format!("{name}.metrics.json"),
        &render_metrics_with(report, name, sections),
    );
    write_artifact(&format!("{name}.table.tsv"), &TABLES.take());
}

thread_local! {
    /// Every cell [`print_table`] has printed, one `title\tx\tseries\tcell`
    /// line each, until [`write_metrics_with`] takes them.
    static TABLES: std::cell::RefCell<String> = const { std::cell::RefCell::new(String::new()) };
}

/// Start a wall-clock timer; the returned closure yields elapsed
/// milliseconds. Host time goes only to the scale benches' `wall:`
/// line on stdout, never into an artifact or simulated time, which is
/// why the clock ban is waived here.
#[allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the scale benches' printed wall line; never feeds an artifact or simulated time"
)]
pub fn wall_timer() -> impl FnOnce() -> f64 {
    let t0 = std::time::Instant::now();
    move || t0.elapsed().as_secs_f64() * 1e3
}

/// Render a float with fixed three-decimal precision (deterministic).
pub fn fmt_f64(v: f64) -> String {
    format!("{v:.3}")
}

/// The `"scale"` section of a scale-bench artifact: the spec and the
/// run's deterministic observables.
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
/// the cross-node deliveries). No wall-clock number goes in, so a
/// rerun of the same spec writes the same bytes.
pub fn engine_section(run: &workloads::ScaleRun) -> MetricsSection {
    (
        "engine",
        vec![
            ("events".into(), run.events.to_string()),
            ("shards".into(), run.shards.to_string()),
            ("xshard_events".into(), run.xshard_events.to_string()),
        ],
    )
}

/// Run a figure body, `f(args)`, under an aggregate metrics collector and
/// write its report as the `base` artifact ([`Args::artifact_name`]).
/// With `BENCH_LIFECYCLE` set, a causal lifecycle trace
/// ([`obs::LifecycleRecorder`]) is fed from the same event stream via
/// [`workloads::fanout`] and written as `<name>.lifecycle.json` (schema
/// `bluefield-offload/lifecycle/v1`): per-transfer data, much bigger than
/// the metrics totals, and not a committed baseline. Without it, nothing
/// folds the lifecycle.
pub fn run_with_observability(base: &str, args: Args, f: impl FnOnce(Args)) {
    let name = args.artifact_name(base, None);
    let metrics = offload::Metrics::new();
    let lifecycle = std::env::var_os("BENCH_LIFECYCLE").map(|_| obs::LifecycleRecorder::new());
    let sink = match &lifecycle {
        Some(l) => workloads::fanout(vec![metrics.sink(), l.sink()]),
        None => metrics.sink(),
    };
    let observer = workloads::Observer {
        sink: Some(sink),
        trace: false,
    };
    workloads::with_observer(observer, || f(args));
    write_metrics_with(&name, &metrics.report(), &[]);
    if let Some(lifecycle) = lifecycle {
        write_artifact(
            &format!("{name}.lifecycle.json"),
            &lifecycle.report().to_json().render(),
        );
    }
}

/// Print an aligned table: a title line, a header row, then rows. Each
/// cell after a row's first is also recorded for the `.table.tsv`
/// artifact, keyed by the title, the row's first cell and its column's
/// header.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    TABLES.with_borrow_mut(|tsv| {
        for row in rows {
            for (series, cell) in headers.iter().zip(row).skip(1) {
                tsv.push_str(&format!("{title}\t{}\t{series}\t{cell}\n", row[0]));
            }
        }
    });
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

    #[test]
    fn a_flag_the_binary_does_not_read_is_a_usage_error() {
        let parse = |args: &[&str], unread: &[&str]| {
            Args::from_args(args.iter().map(|a| a.to_string()), unread)
        };
        let fixed = ["--nodes", "--ppn"];
        let read = parse(&["--quick", "--iters", "3"], &fixed)
            .unwrap()
            .unwrap();
        assert_eq!((read.quick, read.iters), (true, Some(3)));
        assert_eq!(
            parse(&["--quick", "--nodes", "2"], &fixed).unwrap_err(),
            "this binary does not read '--nodes'"
        );
        assert!(parse(&["--ppn", "2"], &fixed).is_err());
        assert!(parse(&["--nodes", "2"], &[]).unwrap().is_some());
        assert_eq!(
            parse(&["--bogus"], &[]).unwrap_err(),
            "unknown argument '--bogus'"
        );
        assert!(parse(&["--help"], &fixed).unwrap().is_none());
        assert_eq!(usage(&fixed), "options: --full | --quick | --iters N");
        assert_eq!(
            usage(&[]),
            "options: --full | --quick | --nodes N | --ppn N | --iters N"
        );
    }

    #[test]
    fn only_a_quick_run_takes_the_baseline_name() {
        let quick = Args {
            quick: true,
            nodes: Some(4),
            ..Default::default()
        };
        let full = Args {
            full: true,
            ..Default::default()
        };
        let default = Args::default();
        assert_eq!(quick.artifact_name("fig17_hpl", None), "fig17_hpl");
        assert_eq!(
            default.artifact_name("fig17_hpl", None),
            "fig17_hpl_default"
        );
        assert_eq!(full.artifact_name("fig17_hpl", None), "fig17_hpl_full");
        assert_eq!(
            quick.artifact_name("ext_scale_alltoall", Some(64)),
            "ext_scale_alltoall"
        );
        assert_eq!(
            default.artifact_name("ext_scale_alltoall", Some(1024)),
            "ext_scale_alltoall_1024r"
        );
        assert_eq!(
            full.artifact_name("ext_scale_alltoall", Some(4096)),
            "ext_scale_alltoall_4096r"
        );
    }
}
