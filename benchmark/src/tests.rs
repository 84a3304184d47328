//! Checks of the benchmark against itself and against `BENCHMARK.json`.

use obs::Json;

use crate::child::{self, Job};
use crate::parent::contract_line;
use crate::run::run_sample;
use crate::spec::{find, Kind, E2E, GATED, WORKLOADS};

fn benchmark_json() -> Json {
    crate::parent::benchmark_json().expect("BENCHMARK.json")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    let text = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
    doc.get(list)
        .and_then(Json::as_arr)
        .expect(list)
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

/// `(name, unit)` of every metric a quick child run emits.
fn emitted(workload: &str, trace: bool) -> (Json, Vec<(String, String)>) {
    let doc = child::run(&Job {
        workload: find(workload).expect("pinned workload"),
        seed: 5,
        seconds: 1.0,
        trace,
        quick: true,
    })
    .expect("quick run");
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics object");
    };
    let list = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    (doc, list)
}

fn is_contract_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn shape_formulas_match_the_fabric_write_count_on_clean_workloads() {
    for w in WORKLOADS.iter().filter(|w| w.clean()) {
        let rounds = 3;
        let s = run_sample(w, 9, rounds, true, false).expect("clean sample");
        let transfers = match w.kind {
            Kind::Scale => s.outcome.events,
            _ => s.outcome.counter("rdma.write.count"),
        };
        assert_eq!(transfers, w.msgs(rounds), "{}", w.name);
    }
}

#[test]
fn seed_reaches_every_rng_and_no_shape() {
    for w in &WORKLOADS {
        if w.kind == Kind::Scale {
            let (a, b) = (w.scale_spec(1, 4), w.scale_spec(2, 4));
            assert_ne!(a.seed, b.seed);
            assert_eq!((a.nodes, a.ppn, a.iters), (b.nodes, b.ppn, b.iters));
            continue;
        }
        let (a, b) = (w.check_run(1), w.check_run(2));
        assert_eq!((a.seed, b.seed), (1, 2), "{}", w.name);
        assert_eq!((a.cfg.fault.seed, b.cfg.fault.seed), (1, 2), "{}", w.name);
        assert_eq!(a.cfg.fault.with_seed(0), b.cfg.fault.with_seed(0));
        assert_eq!(
            (a.nodes, a.ppn, a.proxies_per_dpu),
            (b.nodes, b.ppn, b.proxies_per_dpu)
        );
        assert_eq!(a.cfg.queue_cap, b.cfg.queue_cap);
        assert_eq!(a.cfg.tenants.len(), b.cfg.tenants.len());
    }
}

#[test]
fn workloads_and_end_to_end_metrics_are_the_ones_benchmark_json_lists() {
    let doc = benchmark_json();
    let listed: Vec<(String, String)> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            let text = |k: &str| w.get(k).and_then(Json::as_str).expect(k).to_string();
            (text("name"), text("why"))
        })
        .collect();
    let pinned: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(listed, pinned);
    assert!(pinned
        .iter()
        .all(|(name, why)| is_contract_name(name) && why.len() <= 200 && !why.contains('\n')));

    let gated: Vec<(String, String)> = E2E[..GATED]
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared(&doc, "end_to_end"), gated);
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_num),
        Some(crate::DEFAULT_SECONDS)
    );
}

#[test]
fn an_untraced_run_emits_the_end_to_end_metrics_and_round_trips() {
    let (doc, metrics) = emitted("basic_short", false);
    let all: Vec<(String, String)> = E2E
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(metrics, all);
    assert_eq!(obs::parse(&doc.render()).expect("result parses"), doc);

    // The driver's line: exactly four keys, gated metrics only, `{value, unit}` each.
    let gated: Vec<&str> = E2E[..GATED].iter().map(|&(n, _)| n).collect();
    let line = obs::parse(&contract_line(&doc, Some(&gated)).expect("line")).expect("parses");
    let Json::Obj(fields) = &line else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
    let Some(Json::Obj(kept)) = line.get("metrics") else {
        panic!("no metrics")
    };
    assert_eq!(kept.len(), GATED);
    for (_, m) in kept {
        let Json::Obj(kv) = m else {
            panic!("metric is not an object")
        };
        assert_eq!(kv.len(), 2);
        assert!(m
            .get("value")
            .and_then(Json::as_num)
            .is_some_and(|v| v > 0.0));
    }
}

#[test]
fn a_traced_run_emits_the_per_layer_metrics_benchmark_json_lists() {
    let (doc, metrics) = emitted("chaos_armed", true);
    assert!(metrics.iter().all(|(name, _)| is_contract_name(name)));
    assert_eq!(metrics, declared(&benchmark_json(), "per_layer"));
    assert_eq!(obs::parse(&doc.render()).expect("result parses"), doc);
    // Harness spans: samples enclose runs, the fixed pass hangs off its three groups.
    let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
    let named = |n: &str| -> Vec<&Json> {
        spans
            .iter()
            .filter(|s| s.get("name").and_then(Json::as_str) == Some(n))
            .collect()
    };
    assert!(!named("sample").is_empty());
    assert_eq!(named("ladder").len(), 1);
    let run = named("chaos_armed")[0];
    let parent = run.get("parent").and_then(Json::as_u64).expect("parent") as usize;
    assert_eq!(
        spans[parent].get("name").and_then(Json::as_str),
        Some("sample")
    );
}
