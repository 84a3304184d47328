//! Renderer for `bluefield-offload/profile/v1` self-profiling reports.
//!
//! Joins the two self-profiling sources into one versioned JSON
//! document: the hot-path span tree from [`offload::profile`] and the
//! telemetry snapshot ring from [`crate::TelemetryBus`]. Scope
//! histograms reuse [`crate::Histogram`]'s log2 machinery for the
//! p50/p99 estimates.
//!
//! Wall-clock quantities (every `*_ns` field) are emitted only when
//! `wall` is set; with it off — the `BENCH_NO_WALL=1` regime — the
//! document is a pure function of the deterministic event stream and
//! scope-entry counts, so two runs of one spec render byte-identical
//! reports.

use offload::ProfileReport;

use crate::json::Json;
use crate::lifecycle::Histogram;
use crate::telemetry::TelemetrySnapshot;
use crate::PROFILE_SCHEMA_ID;

/// Everything that goes into one `profile/v1` document.
pub struct ProfileDoc<'a> {
    /// Producing benchmark or test name.
    pub bench: &'a str,
    /// Hot-path span tree (scope paths, counts, histograms).
    pub report: &'a ProfileReport,
    /// Telemetry snapshot ring.
    pub snapshots: &'a [TelemetrySnapshot],
    /// Include wall-clock durations (self/total/max/p50/p99). Pass
    /// `bench`'s wall gate here.
    pub wall: bool,
}

fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

/// Render the document as deterministic JSON (insertion-order objects,
/// compact form).
pub fn render_profile(doc: &ProfileDoc) -> String {
    let mut top: Vec<(String, Json)> = vec![
        ("schema".into(), Json::Str(PROFILE_SCHEMA_ID.into())),
        ("bench".into(), Json::Str(doc.bench.into())),
    ];
    let mut scopes = Vec::new();
    for (path, agg) in &doc.report.scopes {
        let mut s: Vec<(String, Json)> = vec![
            ("path".into(), Json::Str(path.clone())),
            ("count".into(), num(agg.count)),
        ];
        if doc.wall {
            let h = Histogram::from_log2_counts(&agg.buckets, agg.max_ns);
            s.push(("self_ns".into(), num(agg.self_ns)));
            s.push(("total_ns".into(), num(agg.total_ns)));
            s.push(("max_ns".into(), num(agg.max_ns)));
            s.push(("p50_ns".into(), num(h.p50())));
            s.push(("p99_ns".into(), num(h.p99())));
        }
        scopes.push(Json::Obj(s));
    }
    top.push(("scopes".into(), Json::Arr(scopes)));
    let snaps = doc
        .snapshots
        .iter()
        .map(|s| {
            let deltas = s.deltas.iter().map(|(k, v)| (k.clone(), num(*v))).collect();
            Json::Obj(vec![
                ("seq".into(), num(s.seq)),
                ("upto_ps".into(), num(s.upto_ps)),
                ("deltas".into(), Json::Obj(deltas)),
            ])
        })
        .collect();
    top.push(("snapshots".into(), Json::Arr(snaps)));
    Json::Obj(top).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_profile;
    use offload::ScopeAgg;

    fn sample_report() -> ProfileReport {
        let mut r = ProfileReport::default();
        let mut agg = ScopeAgg::new();
        agg.count = 3;
        agg.self_ns = 300;
        agg.total_ns = 450;
        agg.max_ns = 200;
        agg.buckets[8] = 3;
        r.scopes.insert("cq_poll;crc_verify".into(), agg.clone());
        agg.count = 7;
        r.scopes.insert("ctrl_decode".into(), agg);
        r
    }

    fn sample_snaps() -> Vec<TelemetrySnapshot> {
        vec![
            TelemetrySnapshot {
                seq: 1,
                upto_ps: 1_000,
                deltas: vec![("events".into(), 4), ("rts".into(), 2)],
            },
            TelemetrySnapshot {
                seq: 2,
                upto_ps: 2_000,
                deltas: vec![],
            },
        ]
    }

    #[test]
    fn rendered_doc_validates() {
        let snaps = sample_snaps();
        let report = sample_report();
        for wall in [false, true] {
            let doc = render_profile(&ProfileDoc {
                bench: "unit",
                report: &report,
                snapshots: &snaps,
                wall,
            });
            let v = validate_profile(&doc).unwrap();
            let scope = v.get("scopes").unwrap().as_arr().unwrap()[0].clone();
            assert_eq!(scope.get("self_ns").is_some(), wall);
        }
    }

    #[test]
    fn no_wall_doc_is_independent_of_durations() {
        let snaps = sample_snaps();
        let mut a = sample_report();
        let b = sample_report();
        // Perturb every duration in one copy; counts stay put.
        for agg in a.scopes.values_mut() {
            agg.self_ns *= 17;
            agg.total_ns *= 17;
            agg.max_ns += 5;
        }
        let render = |r: &ProfileReport| {
            render_profile(&ProfileDoc {
                bench: "unit",
                report: r,
                snapshots: &snaps,
                wall: false,
            })
        };
        assert_eq!(render(&a), render(&b));
    }

    #[test]
    fn validator_rejects_undeclared_scope() {
        let mut r = ProfileReport::default();
        r.scopes.insert("made_up_scope".into(), ScopeAgg::new());
        let doc = render_profile(&ProfileDoc {
            bench: "unit",
            report: &r,
            snapshots: &[],
            wall: false,
        });
        let err = validate_profile(&doc).unwrap_err();
        assert!(err.contains("made_up_scope"), "{err}");
    }
}
