//! Chrome-trace export: a fixed-seed ping-pong's exported timeline is
//! pinned byte-for-byte against a golden snapshot (regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test trace_export`), and the document
//! is structurally valid Trace Event Format that chrome://tracing and
//! Perfetto load directly.

use bluefield_offload::dpu::{Offload, OffloadConfig};
use bluefield_offload::net::{ClusterBuilder, ClusterSpec, Inbox};
use bluefield_offload::sim::Report;
use std::path::PathBuf;

/// One offloaded 4 KiB ping-pong between two single-rank nodes, traced.
fn traced_pingpong(seed: u64) -> Report {
    ClusterBuilder::new(ClusterSpec::new(2, 1), seed)
        .with_trace()
        .run_async(
            |rank, ctx, cluster| async move {
                let inbox = Inbox::new();
                let off = Offload::init(
                    rank,
                    ctx.clone(),
                    cluster.clone(),
                    &inbox,
                    OffloadConfig::proposed(),
                );
                let fab = cluster.fabric().clone();
                let ep = cluster.host_ep(rank);
                let buf = fab.alloc(ep, 4096);
                ctx.trace(format!("pingpong.start.{rank}"));
                let peer = 1 - rank;
                let reqs = [
                    off.send_offload(buf, 4096, peer, 1),
                    off.recv_offload(buf, 4096, peer, 1),
                ];
                // Overlap a compute slice so the exported timeline shows
                // the paper's compute/communication picture.
                ctx.compute_async(bluefield_offload::sim::SimDelta::from_us(10))
                    .await;
                off.wait_all(&reqs).await;
                ctx.trace(format!("pingpong.done.{rank}"));
                off.finalize().await;
            },
            Some(offload::proxy_fn(OffloadConfig::proposed())),
        )
        .expect("pingpong run")
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/pingpong_trace.json")
}

#[test]
fn chrome_trace_matches_golden_snapshot() {
    let doc = obs::chrome_trace(&traced_pingpong(7)).expect("tracing enabled");
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent dir")).expect("mkdir golden");
        std::fs::write(&path, &doc).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test --test trace_export",
            path.display()
        )
    });
    assert_eq!(
        doc, golden,
        "exported trace drifted from the golden snapshot; if the change \
         is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn chrome_trace_is_well_formed() {
    let report = traced_pingpong(8);
    let doc = obs::chrome_trace(&report).expect("tracing enabled");
    let v = obs::parse(&doc).expect("valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(obs::Json::as_arr)
        .expect("traceEvents array");
    assert_eq!(v.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
    let phase = |e: &obs::Json| e.get("ph").unwrap().as_str().unwrap().to_string();
    // One thread-name metadata record per simulated process.
    let names = events.iter().filter(|e| phase(e) == "M").count();
    assert_eq!(names, report.procs.len());
    // Compute slices exported as complete spans with sane geometry.
    let spans: Vec<_> = events.iter().filter(|e| phase(e) == "X").collect();
    assert!(!spans.is_empty(), "offload run must produce compute spans");
    for s in &spans {
        assert!(s.get("ts").unwrap().as_num().unwrap() >= 0.0);
        assert!(s.get("dur").unwrap().as_num().unwrap() >= 0.0);
        assert!(s.get("name").is_some() && s.get("cat").is_some());
    }
    // The explicit ctx.trace marks arrive as thread-scoped instants.
    let instants: Vec<String> = events
        .iter()
        .filter(|e| phase(e) == "i")
        .map(|e| e.get("name").unwrap().as_str().unwrap().to_string())
        .collect();
    assert!(instants.iter().any(|n| n == "pingpong.start.0"));
    assert!(instants.iter().any(|n| n == "pingpong.done.1"));
}
