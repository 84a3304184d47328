//! The "nothing moved" oracle: a fixed matrix of checker scenarios, each
//! run reduced to one line of `tests/golden/fingerprints.tsv`.
//!
//! The matrix is every checker driver × every [`Overlay`] × the eight
//! [`plans`] × 1/2 proxies × 2 seeds, built from `checker`'s `*_workload`
//! constructors and run through its classifier
//! ([`run_scenario_recorded`]) with one extra sink that hashes the event
//! stream. A driver with a precondition plan runs under that plan only.
//! A row is `id verdict end_ps events stream_fnv1a stats_fnv1a`.
//! `stream_fnv1a` is a 64-bit FNV-1a hash of every emitted `ProtoEvent` as
//! its flight-dump line, time and pid included: the text
//! `tests/flight_golden.rs` pins, not `{:?}`, and not `std::hash`, whose
//! algorithm Rust does not fix across releases. `stats_fnv1a` hashes
//! `Report.stats`. A run that ends without a report has `-` in those
//! columns.
//!
//! Tier-1 runs [`SLICE`] in debug. The whole matrix is one `#[ignore]`d
//! release test, which `ci.sh` runs:
//!
//! ```text
//! cargo test --release -q --test fingerprints -- --ignored
//! ```
//!
//! A change meant to move nothing leaves every row in place. A change
//! that moves something fails with the moved rows, old → new. Once that
//! move is intended, the same command with `UPDATE_GOLDEN=1` rewrites the
//! file, and its diff names the scenarios that moved.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "test code: sinks hand rows out of the run, and the whole matrix prints its wall time"
)]

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use checker::{
    all_armed_workload, alltoall_workload, breaker_recovery_workload, brownout_workload,
    ctrl_undeliverable_workload, data_integrity_workload, deadline_workload, doomed_group_workload,
    noisy_neighbor_workload, quota_retry_workload, run_scenario_recorded, starved_flood_workload,
    stencil_workload, verified_stencil_sized, verified_stencil_workload, ConformanceConfig,
    Overlay, Scenario, Workload, ALL_ARMED_PLAN, ALL_ARMED_QUEUE_CAP, BREAKER_XREG_PM,
    NOISY_FLOOD_BURST, NOISY_QUEUE_CAP, STARVED_QUEUE_CAP,
};
use offload::{parse_flight_dump, replay_into, FaultPlan, FlightRecord, ProtoEvent};
use simnet::{EventSink, Pid, SimTime, Stats};

const GOLDEN: &str = "tests/golden/fingerprints.tsv";

const HEADER: &str = "# id\tverdict\tend_ps\tevents\tstream_fnv1a\tstats_fnv1a\n";

const REGENERATE: &str = "UPDATE_GOLDEN=1 cargo test --release -q --test fingerprints -- --ignored";

/// Every `GroupPacket` transmit dropped.
const DOOMED: FaultPlan = FaultPlan {
    drop_group_packets: true,
    ..FaultPlan::none()
};

fn parse(plan: &str) -> FaultPlan {
    FaultPlan::parse(plan).expect("plan")
}

/// The fault-plan axis. A row seeds its plan from its seed and proxy
/// count.
fn plans() -> [(&'static str, FaultPlan); 8] {
    [
        ("clean", FaultPlan::none()),
        ("lossy", parse("drop=100,dup=50,delay=50:10000")),
        ("payload", parse("flip=40,torn=40,ddrop=20")),
        ("crash", parse("crash=12")),
        ("drop-first-fin", FaultPlan::drop_first_fin()),
        ("skip-cross-reg", FaultPlan::skip_cross_reg()),
        ("doomed-group", DOOMED),
        ("all-armed", ALL_ARMED_PLAN),
    ]
}

/// `(seed, delivery jitter in ns)` of every cell.
const SEEDS: [(u64, u64); 2] = [(1, 0), (2, 2_000)];

/// The rows tier-1 runs: every driver, overlay and plan at least once,
/// and the long payload-faulted stencil.
const SLICE: [&str; 19] = [
    "stencil/default/clean/p1/s1",
    "stencil/tenants/skip-cross-reg/p2/s1",
    "stencil/staging/drop-first-fin/p1/s2",
    "verified-stencil/health/lossy/p2/s2",
    "verified-stencil/default/all-armed/p2/s1",
    "alltoall/no-cache/crash/p2/s1",
    "starved-flood/credits/clean/p2/s2",
    "noisy-solo/staging/doomed-group/p1/s2",
    "noisy-flood/tenants/payload/p2/s1",
    "quota-retry/all-armed/lossy/p1/s1",
    "deadline/staging/lossy/p2/s1",
    "all-armed/all-armed/own/p2/s2",
    "brownout/health/own/p1/s1",
    "breaker-recovery/default/own/p2/s1",
    "doomed-group/tenants/own/p1/s1",
    "ctrl-undeliverable/default/own/p1/s1",
    "data-integrity/no-cache/own/p2/s2",
    // A post-restart GroupPacket replay reinstalls a group under a live
    // instance and switches a staged send to the host path.
    "noisy-solo/no-cache/all-armed/p1/s1",
    // Its stats pin the byte kernels' stream, checksums and fault roll
    // order (DESIGN.md section 9).
    "verified-stencil-5200x150/default/flip5-torn5-ddrop3/p1/s31",
];

/// Every checker driver: its name, workload, the queue cap its checker
/// enforces, and the plan it runs under instead of the plan axis.
type Driver = (&'static str, Workload, usize, Option<FaultPlan>);

fn drivers() -> Vec<Driver> {
    let xreg = FaultPlan {
        xreg_fail_pm: BREAKER_XREG_PM,
        ..FaultPlan::none()
    };
    let noisy_flood = noisy_neighbor_workload(NOISY_FLOOD_BURST);
    vec![
        ("stencil", stencil_workload(), 0, None),
        ("verified-stencil", verified_stencil_workload(), 0, None),
        ("alltoall", alltoall_workload(), 0, None),
        (
            "starved-flood",
            starved_flood_workload(),
            STARVED_QUEUE_CAP,
            None,
        ),
        (
            "noisy-solo",
            noisy_neighbor_workload(0),
            NOISY_QUEUE_CAP,
            None,
        ),
        ("noisy-flood", noisy_flood, NOISY_QUEUE_CAP, None),
        ("quota-retry", quota_retry_workload(), 0, None),
        (
            "all-armed",
            all_armed_workload(),
            ALL_ARMED_QUEUE_CAP,
            Some(ALL_ARMED_PLAN),
        ),
        ("deadline", deadline_workload(), 0, None),
        (
            "brownout",
            brownout_workload(),
            0,
            Some(parse("ddrop=1000")),
        ),
        (
            "breaker-recovery",
            breaker_recovery_workload(),
            0,
            Some(xreg),
        ),
        ("doomed-group", doomed_group_workload(), 0, Some(DOOMED)),
        (
            "ctrl-undeliverable",
            ctrl_undeliverable_workload(),
            0,
            Some(parse("drop=1000")),
        ),
        (
            "data-integrity",
            data_integrity_workload(),
            0,
            Some(parse("ddrop=1000")),
        ),
    ]
}

/// One row of the matrix.
struct Row {
    id: String,
    workload: Workload,
    scenario: Scenario,
    checked: ConformanceConfig,
}

/// The whole matrix, in golden order. A dropped FIN under the all-armed
/// overlay's credit window spins QueueFull retries to the explorer's
/// 10 s time limit (minutes of wall time per row), so that cell is left
/// out.
fn matrix() -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, workload, queue_cap, own) in drivers() {
        let plans = match own {
            Some(plan) => vec![("own", plan)],
            None => plans().to_vec(),
        };
        let checked = ConformanceConfig {
            queue_cap,
            ..ConformanceConfig::default()
        };
        for overlay in Overlay::ALL {
            for &(plan_name, plan) in &plans {
                if overlay == Overlay::AllArmed && plan.drop_first_fin {
                    continue;
                }
                for proxies in [1, 2] {
                    for (seed, jitter_ns) in SEEDS {
                        let scenario = Scenario::baseline(seed)
                            .with_jitter(jitter_ns)
                            .with_proxies(proxies)
                            .with_overlay(overlay)
                            .with_fault(plan.with_seed(seed * 97 + proxies as u64));
                        rows.push(Row {
                            id: format!(
                                "{name}/{}/{plan_name}/p{proxies}/s{seed}",
                                overlay.label()
                            ),
                            workload: Arc::clone(&workload),
                            scenario,
                            checked: overlay.checked(checked),
                        });
                    }
                }
            }
        }
    }
    rows.push(Row {
        id: "verified-stencil-5200x150/default/flip5-torn5-ddrop3/p1/s31".to_string(),
        workload: verified_stencil_sized(5200, 150),
        scenario: Scenario::baseline(31).with_fault(parse("flip=5,torn=5,ddrop=3,seed=31")),
        checked: ConformanceConfig::default(),
    });
    rows
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A sink folding every `ProtoEvent` into `hash` as its dump line.
fn stream_sink(hash: Arc<Mutex<Fnv>>) -> EventSink {
    Arc::new(move |batch| {
        let mut hash = hash.lock().expect("hash lock");
        let mut line = String::new();
        for e in batch {
            if let Some(&event) = e.event.downcast_ref::<ProtoEvent>() {
                line.clear();
                let (at, pid) = (e.at, e.pid);
                FlightRecord { at, pid, event }.put_line(&mut line);
                line.push('\n');
                hash.write(line.as_bytes());
            }
        }
    })
}

/// Counters, then times, as `name value` lines.
fn stats_hash(stats: &Stats) -> u64 {
    let mut hash = Fnv::default();
    for (name, n) in stats.counters() {
        hash.write(format!("{name} {n}\n").as_bytes());
    }
    for (name, t) in stats.times() {
        hash.write(format!("{name} {}ps\n", t.as_ps()).as_bytes());
    }
    hash.0
}

/// Run `row` and reduce it to its golden line.
fn fingerprint(row: &Row) -> String {
    let hash = Arc::new(Mutex::new(Fnv::default()));
    let tap = stream_sink(Arc::clone(&hash));
    let (outcome, _, report) =
        run_scenario_recorded(&row.workload, &row.scenario, row.checked, Some(tap));
    let stream = hash.lock().expect("hash lock").0;
    let (id, verdict) = (&row.id, outcome.label());
    match report {
        Some(r) => format!(
            "{id}\t{verdict}\t{}\t{}\t{stream:016x}\t{:016x}",
            r.end_time.as_ps(),
            r.events,
            stats_hash(&r.stats)
        ),
        None => format!("{id}\t{verdict}\t-\t-\t{stream:016x}\t-"),
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN)
}

fn id_of(line: &str) -> &str {
    line.split('\t').next().unwrap_or(line)
}

/// `old → new` for every line that differs from its row in `golden`.
fn moved(golden: &str, lines: &[String]) -> Vec<String> {
    let rows: BTreeMap<&str, &str> = golden
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| (id_of(l), l))
        .collect();
    lines
        .iter()
        .filter(|line| rows.get(id_of(line)) != Some(&line.as_str()))
        .map(|line| {
            let old = rows.get(id_of(line)).unwrap_or(&"(no such row)");
            format!("  {old}\n→ {line}")
        })
        .collect()
}

#[test]
fn slice_matches_the_golden_on_the_classic_loop() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden file");
    let lines: Vec<String> = matrix()
        .iter()
        .filter(|row| SLICE.contains(&row.id.as_str()))
        .map(fingerprint)
        .collect();
    assert_eq!(lines.len(), SLICE.len(), "every slice id names a row");
    let moved = moved(&golden, &lines);
    assert!(
        moved.is_empty(),
        "{} slice rows moved, old → new:\n{}\nrerun the whole matrix, and \
         regenerate if intended: {REGENERATE}",
        moved.len(),
        moved.join("\n")
    );
}

#[test]
#[ignore = "release-only: the whole matrix; ci.sh runs it"]
fn full_matrix_matches_the_golden() {
    let start = Instant::now();
    // A row's panics are its verdict: keep their messages out of a
    // mismatch report, which lists only the rows that moved.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let lines: Vec<String> = matrix().iter().map(fingerprint).collect();
    std::panic::set_hook(hook);
    let doc: String = std::iter::once(HEADER.to_string())
        .chain(lines.iter().map(|line| format!("{line}\n")))
        .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path(), &doc).expect("write golden");
    }
    let golden = std::fs::read_to_string(golden_path()).expect("golden file");
    if doc != golden {
        let ids: BTreeSet<&str> = lines.iter().map(|line| id_of(line)).collect();
        let gone = golden
            .lines()
            .filter(|l| !l.starts_with('#') && !ids.contains(id_of(l)))
            .map(|old| format!("  {old}\n→ (no such row)"));
        let moved: Vec<String> = moved(&golden, &lines).into_iter().chain(gone).collect();
        panic!(
            "{} of {} rows moved, old → new:\n{}\nregenerate if intended: {REGENERATE}",
            moved.len(),
            lines.len(),
            moved.join("\n")
        );
    }
    // Past libtest's capture: this line is the CI step's report.
    let report = format!(
        "fingerprints: {} rows match {GOLDEN} in {:.1} s\n",
        lines.len(),
        start.elapsed().as_secs_f64()
    );
    std::io::stderr()
        .write_all(report.as_bytes())
        .expect("stderr");
}

/// The stream hash of `records`, delivered as a run delivers them.
fn stream_hash(records: &[FlightRecord]) -> u64 {
    let hash = Arc::new(Mutex::new(Fnv::default()));
    replay_into(records, &stream_sink(Arc::clone(&hash)));
    let h = hash.lock().expect("hash lock").0;
    h
}

#[test]
fn the_stream_hash_sees_every_time_pid_and_field() {
    let records: Vec<FlightRecord> = ProtoEvent::samples()
        .into_iter()
        .enumerate()
        .map(|(i, event)| FlightRecord {
            at: SimTime::from_ps(i as u64),
            pid: Pid::from_index(i % 3),
            event,
        })
        .collect();
    let lines: Vec<String> = records
        .iter()
        .map(|r| {
            let mut line = String::new();
            r.put_line(&mut line);
            line
        })
        .collect();
    // Every value a key takes across the samples (each field type cycles
    // through at least two): what that key can be changed to.
    let mut seen: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for tok in lines.iter().flat_map(|l| l.split(' ')) {
        let (key, value) = tok.split_once('=').expect("key=value");
        seen.entry(key).or_default().insert(value);
    }
    let all = stream_hash(&records);
    assert_ne!(all, Fnv::default().0, "the samples were hashed");
    for (record, line) in records.iter().zip(&lines) {
        let base = stream_hash(std::slice::from_ref(record));
        let toks: Vec<&str> = line.split(' ').collect();
        for (j, tok) in toks.iter().enumerate() {
            let (key, value) = tok.split_once('=').expect("key=value");
            if key == "ev" {
                continue;
            }
            let changed = seen[key]
                .iter()
                .filter(|&&v| v != value)
                .find_map(|v| {
                    let tok = format!("{key}={v}");
                    let mut toks = toks.clone();
                    toks[j] = &tok;
                    parse_flight_dump(&toks.join(" ")).ok()
                })
                .unwrap_or_else(|| panic!("no other valid value for {tok} in {line}"));
            assert_ne!(
                stream_hash(&changed),
                base,
                "changing {tok} in `{line}` left the hash as it was"
            );
        }
    }
}
