//! The parent side: pin and isolate one child per workload, collect
//! their result documents, print the tables and write the results files.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use obs::Json;

use crate::child::Job;
use crate::spec::{find, Workload, ARMED, E2E, GATED, WORKLOADS};

/// Where and on what the numbers were taken; stamped into every results file.
pub struct Host {
    /// The CPU children are pinned to, when `taskset` exists.
    pub cpu: Option<u32>,
    nproc: usize,
    rustc: String,
    commit: String,
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The last CPU of `Cpus_allowed_list` (e.g. `0-3,8` gives 8): the
/// one least likely to also serve interrupts and the build.
fn last_allowed_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim()
        .rsplit([',', '-'])
        .next()
        .and_then(|n| n.parse().ok())
}

impl Host {
    pub fn probe() -> Host {
        let has_taskset = Command::new("taskset")
            .arg("--version")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        let cpu = last_allowed_cpu().filter(|_| has_taskset);
        if cpu.is_none() {
            eprintln!(
                "warning: taskset or the allowed-CPU list is missing: running unpinned \
                 (pinned=0); wall-clock metrics will be noisier"
            );
        }
        Host {
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: first_line_of("rustc", &["-V"]),
            commit: first_line_of("git", &["rev-parse", "HEAD"]),
        }
    }

    fn meta(&self, seed: u64, seconds: f64, quick: bool) -> Json {
        Json::Obj(vec![
            ("pinned".into(), Json::Num(self.cpu.is_some() as u8 as f64)),
            (
                "cpu".into(),
                self.cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
            ),
            ("nproc".into(), Json::Num(self.nproc as f64)),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            ("commit".into(), Json::Str(self.commit.clone())),
            ("seed".into(), Json::Num(seed as f64)),
            ("seconds".into(), Json::Num(seconds)),
            ("quick".into(), Json::Bool(quick)),
        ])
    }
}

/// Run `job` in a child of this binary, pinned to `cpu` when given, on
/// the classic single-threaded engine, and parse the result document it
/// prints. The child is waited for before this returns.
pub fn spawn(job: &Job, cpu: Option<u32>) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let mut cmd = match cpu {
        Some(cpu) => {
            let mut c = Command::new("taskset");
            c.arg("-c").arg(cpu.to_string()).arg(exe);
            c
        }
        None => Command::new(exe),
    };
    cmd.arg("child")
        .args(["--workload", job.workload.name])
        .args(["--seed", &job.seed.to_string()])
        .args(["--seconds", &job.seconds.to_string()])
        .args(["--trace", if job.trace { "1" } else { "0" }]);
    if job.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .env(simnet::SIMNET_THREADS_ENV, "1")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child for {} ended with {}",
            job.workload.name, out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    obs::parse(line).map_err(|e| format!("child for {} printed no result: {e}", job.workload.name))
}

/// Field `key` (`value`, `median`, ...) of metric `name` in a child's result.
fn reading(doc: &Json, name: &str, key: &str) -> Option<f64> {
    doc.get("metrics")?.get(name)?.get(key)?.as_num()
}

/// The line the driver reads: `correct`, `attempted`, `failed`, and the
/// metrics named in `keep` (all of them when `None`) as `{value, unit}`.
pub fn contract_line(doc: &Json, keep: Option<&[&str]>) -> Result<String, String> {
    let field = |k: &str| {
        doc.get(k)
            .cloned()
            .ok_or(format!("child result lacks `{k}`"))
    };
    let Json::Obj(all) = field("metrics")? else {
        return Err("child result `metrics` is not an object".into());
    };
    let metrics = all
        .into_iter()
        .filter(|(name, _)| keep.is_none_or(|k| k.contains(&name.as_str())))
        .map(|(name, m)| {
            let pick = |k: &str| (k.to_string(), m.get(k).cloned().unwrap_or(Json::Null));
            (name, Json::Obj(vec![pick("value"), pick("unit")]))
        })
        .collect();
    Ok(Json::Obj(vec![
        ("correct".into(), field("correct")?),
        ("attempted".into(), field("attempted")?),
        ("failed".into(), field("failed")?),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render())
}

/// The contract run: one workload, the driver's line on stdout.
pub fn contract(job: &Job) -> Result<(), String> {
    let host = Host::probe();
    let doc = spawn(job, host.cpu)?;
    if job.trace {
        let set = Set(vec![(job.workload, doc.clone())]);
        write_results(
            "trace.json",
            &host.meta(job.seed, job.seconds, job.quick),
            vec![("spans".into(), set.section("spans"))],
        )?;
    }
    report_errors(&doc);
    let gated: Vec<&str> = E2E[..GATED].iter().map(|&(name, _)| name).collect();
    let keep = if job.trace { None } else { Some(&gated[..]) };
    println!("{}", contract_line(&doc, keep)?);
    Ok(())
}

fn report_errors(doc: &Json) {
    for e in doc.get("errors").and_then(Json::as_arr).unwrap_or(&[]) {
        eprintln!("error: {}", e.as_str().unwrap_or("?"));
    }
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn write_results(file: &str, meta: &Json, mut body: Vec<(String, Json)>) -> Result<(), String> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut doc = vec![("meta".to_string(), meta.clone())];
    doc.append(&mut body);
    let path = dir.join(file);
    std::fs::write(&path, Json::Obj(doc).render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn print_metrics(doc: &Json) {
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return;
    };
    for (name, m) in metrics {
        let num = |k: &str| m.get(k).and_then(Json::as_num).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        let n = num("n");
        if n > 1.0 {
            println!(
                "  {name:<38} {:>14.4} {unit:<7} (best of {n}; q1 {:.4}, median {:.4}, q3 {:.4})",
                num("value"),
                num("q1"),
                num("median"),
                num("q3")
            );
        } else {
            println!("  {name:<38} {:>14.4} {unit}", num("value"));
        }
    }
}

/// Results of one child per workload, in `WORKLOADS` order.
pub struct Set(Vec<(&'static Workload, Json)>);

impl Set {
    fn doc(&self, workload: &str) -> Option<&Json> {
        let (_, doc) = self.0.iter().find(|(w, _)| w.name == workload)?;
        Some(doc)
    }

    fn get(&self, workload: &str, name: &str) -> f64 {
        self.doc(workload)
            .and_then(|doc| reading(doc, name, "value"))
            .unwrap_or(f64::NAN)
    }

    fn failed(&self) -> bool {
        self.0
            .iter()
            .any(|(_, doc)| doc.get("correct") != Some(&Json::Bool(true)))
    }

    /// `{workload: <field `key` of its result>}` for a results file.
    fn section(&self, key: &str) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(w, doc)| {
                    (
                        w.name.to_string(),
                        doc.get(key).cloned().unwrap_or(Json::Null),
                    )
                })
                .collect(),
        )
    }
}

/// One pinned child per workload; prints every metric it reports.
fn run_set(host: &Host, seed: u64, seconds: f64, quick: bool, trace: bool) -> Result<Set, String> {
    let mut set = Vec::new();
    for workload in &WORKLOADS {
        let job = Job {
            workload,
            seed,
            seconds,
            trace,
            quick,
        };
        let doc = spawn(&job, host.cpu)?;
        println!(
            "{} ({}, seed {seed}): {}",
            workload.name,
            if trace { "traced" } else { "untraced" },
            workload.why
        );
        print_metrics(&doc);
        report_errors(&doc);
        set.push((workload, doc));
    }
    Ok(Set(set))
}

/// The full set: untraced samples of every workload (unless
/// `traced_only`), then the traced pass, the cross-workload metrics, and
/// `results/{e2e,layers,trace}.json`. `Ok(false)` when anything failed.
pub fn full(seed: u64, seconds: f64, quick: bool, traced_only: bool) -> Result<bool, String> {
    let host = Host::probe();
    let meta = host.meta(seed, seconds, quick);

    let e2e = if traced_only {
        None
    } else {
        Some(run_set(&host, seed, seconds, quick, false)?)
    };
    let traced = run_set(&host, seed, seconds, quick, true)?;
    let mut ok = !traced.failed() && !e2e.as_ref().is_some_and(Set::failed);

    let mut derived: Vec<(String, Json)> = Vec::new();
    let mut put = |name: &str, unit: &str, value: f64| {
        println!("  {name:<38} {value:>14.4} {unit}");
        derived.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(unit.into())),
            ]),
        ));
    };
    println!("derived (across workloads)");
    // Armed-path counters on the workloads with an empty fault plan: must be 0.
    let stray: f64 = traced
        .0
        .iter()
        .filter(|(w, _)| w.clean())
        .flat_map(|(_, doc)| ARMED.iter().filter_map(|(m, _)| reading(doc, m, "value")))
        .sum();
    put("core.armed_counters_on_clean", "count", stray);
    ok &= stray == 0.0;
    if let Some(set) = &e2e {
        let mps = |w: &str| set.get(w, "msgs_per_sec");
        let msgs = |w: &str| find(w).map_or(f64::NAN, |w| w.msgs(w.rounds) as f64);
        put(
            "core.runlength_slope",
            "ratio",
            mps("basic_short") / mps("basic_long"),
        );
        put(
            "core.rss_kib_per_kmsg",
            "KiB",
            (set.get("basic_long", "peak_rss_mib") - set.get("basic_short", "peak_rss_mib"))
                * 1024.0
                / ((msgs("basic_long") - msgs("basic_short")) / 1000.0),
        );
        put(
            "obs.overhead_pct",
            "%",
            (mps("basic_short") / mps("observed") - 1.0) * 100.0,
        );
        if host.cpu.is_some() {
            let job = Job {
                workload: find("basic_short").expect("basic_short is a pinned workload"),
                seed,
                seconds,
                trace: false,
                quick,
            };
            let unpinned = spawn(&job, None)?;
            // Medians, not best samples: unpinned, the best sample is the
            // one the scheduler happened to keep on a single core.
            let median = |doc| reading(doc, "msgs_per_sec", "median").unwrap_or(f64::NAN);
            put(
                "simnet.unpinned_slowdown",
                "ratio",
                set.doc("basic_short").map_or(f64::NAN, median) / median(&unpinned),
            );
        }
        // Observation never perturbs: the simulated-time figures of the
        // traced pass must be the untraced ones, bit for bit.
        for (w, doc) in &traced.0 {
            for (plain, layered) in [
                ("virt_us_per_round", "virt.us_per_round"),
                (
                    "host_interventions_per_msg",
                    "core.host_interventions_per_msg",
                ),
            ] {
                if reading(doc, layered, "value") != Some(set.get(w.name, plain)) {
                    eprintln!(
                        "error: {}: {plain} differs between traced and untraced",
                        w.name
                    );
                    ok = false;
                }
            }
        }
    }

    write_results(
        "trace.json",
        &meta,
        vec![("spans".into(), traced.section("spans"))],
    )?;
    write_results(
        "layers.json",
        &meta,
        vec![
            ("workloads".into(), traced.section("metrics")),
            ("derived".into(), Json::Obj(derived)),
        ],
    )?;
    if let Some(set) = e2e {
        write_results(
            "e2e.json",
            &meta,
            vec![("workloads".into(), set.section("metrics"))],
        )?;
    }
    println!("results written to {}", results_dir().display());
    Ok(ok)
}

/// The repository's `BENCHMARK.json`, parsed.
pub fn benchmark_json() -> Result<Json, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    obs::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The bounds `BENCHMARK.json` fixes: `(name, bound)` per gated metric.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let doc = benchmark_json()?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_num);
            name.map(str::to_string)
                .zip(bound)
                .ok_or_else(|| "BENCHMARK.json: end_to_end entry lacks name or bound".to_string())
        })
        .collect()
}

/// The A/A test: two untraced sets of the same build must agree within
/// the bounds of `BENCHMARK.json` (exactly, for the metrics it cannot
/// gate). `Ok(false)` on disagreement.
pub fn selfcheck(seed: u64, seconds: f64, quick: bool) -> Result<bool, String> {
    let bounds = bounds()?;
    let host = Host::probe();
    let a = run_set(&host, seed, seconds, quick, false)?;
    let b = run_set(&host, seed, seconds, quick, false)?;
    let mut ok = !a.failed() && !b.failed();
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "change", "bound"
    );
    for w in &WORKLOADS {
        for (name, _) in E2E {
            let (x, y) = (a.get(w.name, name), b.get(w.name, name));
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |&(_, b)| b);
            let change = if x == y { 0.0 } else { (y - x).abs() / x.abs() };
            let agree = change <= bound;
            ok &= agree;
            println!(
                "{:<14} {name:<28} {x:>14.4} {y:>14.4} {:>8.2}% {:>6.0}% {}",
                w.name,
                change * 100.0,
                bound * 100.0,
                if agree { "" } else { "DISAGREE" }
            );
        }
    }
    Ok(ok)
}
