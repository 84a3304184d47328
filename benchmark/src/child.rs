//! What runs inside the pinned child process: one workload, one seed,
//! untraced (end-to-end metrics) or traced (per-layer metrics).

use std::time::{Duration, Instant};

use obs::Json;

use crate::layers;
use crate::run::{run_sample, Outcome};
use crate::spec::{Workload, ARMED};
use crate::stats::quartiles;
use crate::trace::Tracer;

/// Set-ups timed per untraced run; `setup_s` is the fastest.
const SETUPS: u32 = 5;

/// One measurement request: the parent hands it to a child of this
/// binary, which runs it.
#[derive(Clone, Copy)]
pub struct Job {
    pub workload: &'static Workload,
    pub seed: u64,
    /// How long to measure (set-ups and samples).
    pub seconds: f64,
    pub trace: bool,
    /// One sample at a tenth of the size, one set-up.
    pub quick: bool,
}

/// Metrics in emission order: `{value, unit}`, plus `{q1, median, q3, n}`
/// where the value was picked from several readings.
#[derive(Default)]
pub struct MetricSet(Vec<(String, Json)>);

fn reading(value: f64, unit: &str) -> Vec<(String, Json)> {
    vec![
        ("value".into(), Json::Num(value)),
        ("unit".into(), Json::Str(unit.into())),
    ]
}

impl MetricSet {
    /// A metric with a single reading (a count, a simulated time, a ratio).
    pub fn put(&mut self, name: &str, unit: &str, value: f64) {
        self.0
            .push((name.to_string(), Json::Obj(reading(value, unit))));
    }

    /// A host-time metric with one reading per sample. The value is the
    /// best reading (`best` is `f64::min` for times, `f64::max` for
    /// rates): the machine's noise only ever slows a sample down, and it
    /// comes in spells of seconds that a median over a run's window
    /// follows and the fastest sample does not (see README, "Noise").
    pub fn put_samples(
        &mut self,
        name: &str,
        unit: &str,
        samples: &[f64],
        best: fn(f64, f64) -> f64,
    ) {
        let (q1, median, q3) = quartiles(samples);
        let mut fields = reading(samples.iter().copied().fold(samples[0], best), unit);
        fields.extend([
            ("q1".into(), Json::Num(q1)),
            ("median".into(), Json::Num(median)),
            ("q3".into(), Json::Num(q3)),
            ("n".into(), Json::Num(samples.len() as f64)),
        ]);
        self.0.push((name.to_string(), Json::Obj(fields)));
    }
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// What a run measured and what its samples agreed on.
struct Timed {
    /// Host seconds of each good full-size sample.
    walls: Vec<f64>,
    /// Host seconds of each set-up.
    setups: Vec<f64>,
    /// `VmHWM` after the first set-up and the first full-size sample: a
    /// fixed amount of work, whatever number of samples the time allows.
    rss_mib: f64,
    /// The first good sample; every later one must equal it.
    reference: Outcome,
    lifecycle: Option<obs::LifecycleRecorder>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Measure for `budget`, in `cycles` equal parts: each part is one
/// set-up, then full-size samples until its share of the time is used.
/// Spreading the set-ups over the window gives each the same chance of a
/// quiet machine as the samples have.
///
/// A set-up is the correctness gate as well: a payload-verified run at an
/// eighth of the size, built and torn down like a full sample. The first
/// one runs before anything is timed, and `Err` is its failure.
fn measure(
    tr: &mut Tracer,
    job: &Job,
    rounds: u64,
    budget: Duration,
    cycles: u32,
) -> Result<Timed, String> {
    let w = job.workload;
    let warm = (rounds / 8).max(1);
    let (mut walls, mut setups, mut errors) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut reference: Option<Outcome> = None;
    let mut lifecycle = None;
    let mut rss_mib = None;
    let start = Instant::now();
    for cycle in 1..=cycles {
        let t = Instant::now();
        tr.span("setup", "harness", |_| {
            run_sample(w, job.seed, warm, true, false)
        })
        .map_err(|e| format!("correctness gate: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        let deadline = budget.mul_f64(f64::from(cycle) / f64::from(cycles));
        loop {
            attempted += 1;
            // A traced run arms `core`'s span profiler around its
            // full-size samples only, so scope counts are per sample.
            offload::profile::set_enabled(job.trace);
            let sample = tr.span("sample", "harness", |tr| {
                tr.span(w.name, w.layer(), |_| {
                    run_sample(w, job.seed, rounds, false, job.trace)
                })
            });
            offload::profile::set_enabled(false);
            match sample {
                Ok(s) if *reference.get_or_insert_with(|| s.outcome.clone()) == s.outcome => {
                    walls.push(s.wall_s);
                    lifecycle = s.lifecycle;
                }
                Ok(_) => {
                    failed += 1;
                    errors.push(format!(
                        "{}: sample {attempted} differs from the first in events, end time or counters",
                        w.name
                    ));
                }
                Err(e) => {
                    failed += 1;
                    errors.push(e);
                }
            }
            if rss_mib.is_none() {
                rss_mib = Some(peak_rss_mib()?);
            }
            if job.quick || start.elapsed() >= deadline {
                break;
            }
        }
    }
    let (Some(reference), Some(rss_mib)) = (reference, rss_mib) else {
        return Err(format!("no sample completed: {}", errors.join("; ")));
    };
    let msgs = w.msgs(rounds);
    Ok(Timed {
        walls,
        setups,
        rss_mib,
        reference,
        lifecycle,
        attempted: attempted * msgs,
        failed: failed * msgs,
        errors,
    })
}

fn end_to_end(a: &Job, rounds: u64, t: &Timed, m: &mut MetricSet) {
    let msgs = a.workload.msgs(rounds) as f64;
    let rates: Vec<f64> = t.walls.iter().map(|w| msgs / w).collect();
    m.put_samples("msgs_per_sec", "1/s", &rates, f64::max);
    m.put_samples("setup_s", "s", &t.setups, f64::min);
    m.put("peak_rss_mib", "MiB", t.rss_mib);
    m.put(
        "virt_us_per_round",
        "sim_us",
        t.reference.end_ps as f64 / 1e6 / rounds as f64,
    );
    m.put(
        "host_interventions_per_msg",
        "count",
        t.reference.counter("offload.host.interventions") as f64 / msgs,
    );
    m.put("fail_share", "share", t.failed as f64 / t.attempted as f64);
}

/// Per-layer metrics of the workload itself, from its traced samples.
fn workload_layers(
    a: &Job,
    rounds: u64,
    t: &Timed,
    profile: &offload::ProfileReport,
    m: &mut MetricSet,
) {
    let o = &t.reference;
    let msgs = a.workload.msgs(rounds) as f64;
    let per_msg = |counter: &str| o.counter(counter) as f64 / msgs;
    let rates: Vec<f64> = t.walls.iter().map(|w| o.events as f64 / w).collect();
    m.put_samples("simnet.events_per_sec", "1/s", &rates, f64::max);
    m.put("simnet.events_per_msg", "count", o.events as f64 / msgs);
    m.put("simnet.threads", "count", o.procs as f64);

    m.put("rdma.writes", "count", o.counter("rdma.write.count") as f64);
    m.put(
        "rdma.write_bytes",
        "count",
        o.counter("rdma.write.bytes") as f64,
    );
    let regs = ["rdma.reg.ib", "rdma.reg.gvmi", "rdma.reg.cross"];
    m.put(
        "rdma.reg_calls",
        "count",
        regs.iter().map(|c| o.counter(c)).sum::<u64>() as f64,
    );

    m.put(
        "core.ctrl_msgs_per_msg",
        "count",
        per_msg("offload.ctrl.host_dpu"),
    );
    m.put(
        "core.host_wakeups_per_msg",
        "count",
        per_msg("offload.host.wakeups"),
    );
    m.put(
        "core.host_interventions_per_msg",
        "count",
        per_msg("offload.host.interventions"),
    );
    let sum = |suffix: &str| {
        o.counter(&format!("offload.gvmi_cache.host.{suffix}"))
            + o.counter(&format!("offload.gvmi_cache.dpu.{suffix}"))
    };
    let lookups = sum("hit") + sum("miss") + sum("stale");
    m.put(
        "core.gvmi_cache_hit_ratio",
        "share",
        if lookups == 0 {
            0.0
        } else {
            sum("hit") as f64 / lookups as f64
        },
    );
    for (metric, counter) in ARMED {
        m.put(metric, "count", o.counter(counter) as f64);
    }

    // The profile spans every traced sample; report one sample's share.
    let n = (t.attempted / a.workload.msgs(rounds)) as f64;
    let mut attributed_ns = 0;
    for scope in obs::PROFILE_SCOPES
        .iter()
        .filter(|s| !s.starts_with("engine_"))
    {
        let (mut self_ns, mut calls) = (0, 0);
        for (path, agg) in &profile.scopes {
            if path.rsplit(';').next() == Some(scope) {
                self_ns += agg.self_ns;
                calls += agg.count;
            }
        }
        attributed_ns += self_ns;
        m.put(
            &format!("core.{scope}.self_ms"),
            "ms",
            self_ns as f64 / 1e6 / n,
        );
        m.put(&format!("core.{scope}.calls"), "count", calls as f64 / n);
    }
    let wall_ns = t.walls.iter().sum::<f64>() * 1e9;
    m.put(
        "core.profile.attributed_pct",
        "%",
        attributed_ns as f64 / wall_ns * 100.0,
    );

    m.put(
        "virt.us_per_round",
        "sim_us",
        o.end_ps as f64 / 1e6 / rounds as f64,
    );
    let phases = t
        .lifecycle
        .as_ref()
        .map(|lc| lc.report().phase_histograms())
        .unwrap_or_default();
    for phase in obs::PHASES {
        let hist = phases.iter().find(|(p, _)| *p == phase).map(|(_, h)| h);
        let ns = |ps: u64| ps as f64 / 1000.0;
        let name = phase.name();
        m.put(
            &format!("virt.{name}_p50_ns"),
            "sim_ns",
            hist.map_or(0.0, |h| ns(h.p50())),
        );
        m.put(
            &format!("virt.{name}_p99_ns"),
            "sim_ns",
            hist.map_or(0.0, |h| ns(h.p99())),
        );
    }
}

/// Run the child and return its result document:
/// `{workload, seed, trace, correct, attempted, failed, walls_s, setups_s, errors, metrics, spans}`.
///
/// `Err` means no result: the correctness gate failed before any timing,
/// or no full-size sample completed.
pub fn run(a: &Job) -> Result<Json, String> {
    let w = a.workload;
    let rounds = if a.quick {
        (w.rounds / 10).max(1)
    } else {
        w.rounds
    };
    let mut tr = Tracer::new(a.trace);
    let mut m = MetricSet::default();

    let timed = if a.trace {
        // Half the time on the workload, the rest on the fixed layer pass.
        let budget = Duration::from_secs_f64(a.seconds / 2.0);
        let timed = measure(&mut tr, a, rounds, budget, 1)?;
        let profile = offload::profile::take_report();
        workload_layers(a, rounds, &timed, &profile, &mut m);
        layers::fixed(&mut tr, a.seed, a.quick, &mut m)?;
        timed
    } else {
        let cycles = if a.quick { 1 } else { SETUPS };
        let budget = Duration::from_secs_f64(a.seconds);
        let timed = measure(&mut tr, a, rounds, budget, cycles)?;
        end_to_end(a, rounds, &timed, &mut m);
        timed
    };

    Ok(Json::Obj(vec![
        ("workload".into(), Json::Str(w.name.into())),
        ("seed".into(), Json::Num(a.seed as f64)),
        ("trace".into(), Json::Bool(a.trace)),
        ("correct".into(), Json::Bool(timed.failed == 0)),
        ("attempted".into(), Json::Num(timed.attempted as f64)),
        ("failed".into(), Json::Num(timed.failed as f64)),
        (
            "walls_s".into(),
            Json::Arr(timed.walls.iter().map(|&w| Json::Num(w)).collect()),
        ),
        (
            "setups_s".into(),
            Json::Arr(timed.setups.iter().map(|&w| Json::Num(w)).collect()),
        ),
        (
            "errors".into(),
            Json::Arr(timed.errors.into_iter().map(Json::Str).collect()),
        ),
        ("metrics".into(), Json::Obj(m.0)),
        ("spans".into(), tr.to_json()),
    ]))
}
