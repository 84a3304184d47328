//! The committed bench baselines are exact outputs of the simulation:
//! `ci.sh` reruns every bench and compares each fresh artifact with its
//! twin in `bench_results/` by `cmp`. This test checks the committed
//! side on its own: the directory holds only metrics/v1 documents and
//! the tables the benches print (`*.table.tsv`, four tab-separated
//! fields a line), and no document carries a wall-clock key, which no
//! rerun could reproduce byte for byte.

use std::path::PathBuf;

use obs::Json;

/// Keys that would make a baseline a measurement of the host instead of
/// a function of the simulation.
const WALL_KEYS: &[&str] = &["wall_ms", "events_per_sec"];

/// Every key path in `v` whose last member is one of [`WALL_KEYS`].
fn wall_keys(v: &Json, at: &str, out: &mut Vec<String>) {
    match v {
        Json::Obj(members) => {
            for (k, child) in members {
                let path = format!("{at}.{k}");
                if WALL_KEYS.contains(&k.as_str()) {
                    out.push(path.clone());
                }
                wall_keys(child, &path, out);
            }
        }
        Json::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                wall_keys(child, &format!("{at}[{i}]"), out);
            }
        }
        _ => {}
    }
}

#[test]
fn committed_baselines_are_wall_free_metrics_documents() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("bench_results");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert!(!names.is_empty(), "bench_results/ holds no baseline");
    let mut bad = Vec::new();
    for name in &names {
        let is_table = name.ends_with(".table.tsv");
        if !is_table && !name.ends_with(".metrics.json") {
            bad.push(format!(
                "{name}: only *.metrics.json and *.table.tsv belong here"
            ));
            continue;
        }
        let doc = match std::fs::read_to_string(dir.join(name)) {
            Ok(doc) => doc,
            Err(e) => {
                bad.push(format!("{name}: unreadable: {e}"));
                continue;
            }
        };
        if is_table {
            for (i, line) in doc.lines().enumerate() {
                if line.split('\t').count() != 4 {
                    bad.push(format!("{name}:{}: not title\\tx\\tseries\\tcell", i + 1));
                }
            }
            continue;
        }
        let v = match obs::validate_metrics(&doc) {
            Ok(v) => v,
            Err(e) => {
                bad.push(format!("{name}: invalid metrics/v1: {e}"));
                continue;
            }
        };
        let mut wall = Vec::new();
        wall_keys(&v, "", &mut wall);
        for key in wall {
            bad.push(format!("{name}: wall-clock key {key}"));
        }
    }
    assert!(bad.is_empty(), "bench_results/:\n{}", bad.join("\n"));
}
