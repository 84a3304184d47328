//! Validator for the `bluefield-offload/metrics/v1` JSON schema.
//!
//! The schema is the machine-readable contract between
//! [`offload::MetricsReport::to_json`] producers (every `fig*` bench
//! binary) and downstream consumers (`bench_results/` baselines, CI).
//! See DESIGN.md §11 for the field-by-field description.

use crate::json::{parse, Json};

// The counter key lists are not restated here: each is generated, with
// the struct whose fields it names, by `offload`'s `keyed_counters!`
// tables — `TOTAL_KEYS` (`MetricsReport::totals`), `CACHE_KEYS`
// (`CacheCounters`), `TENANT_KEYS` (rows of the optional `tenants`
// array, multi-tenant runs only) and `HEALTH_KEYS` (the optional
// `health` object, present only when the health engine acted).
use offload::{CACHE_KEYS, TOTAL_KEYS};
pub use offload::{HEALTH_KEYS, TENANT_KEYS};

/// Schema identifier every conforming document carries.
pub const SCHEMA_ID: &str = "bluefield-offload/metrics/v1";

const CACHES: &[&str] = &["host_gvmi", "host_ib", "dpu_cross"];

/// Optional extension sections: flat all-numeric objects appended by
/// the scale benches (`"engine"` carries the self-benchmark counters,
/// `"scale"` the workload spec and fingerprint, `"profile"` the
/// measured profiling-overhead figures under `BENCH_PROFILE=1`).
/// Absent in documents from the protocol benches; validated when
/// present.
const EXT_SECTIONS: &[&str] = &["engine", "scale", "profile"];

/// Schema identifier of self-profiling reports (`profile/v1`).
pub const PROFILE_SCHEMA_ID: &str = "bluefield-offload/profile/v1";

/// Every scope name a `profile/v1` report may carry. Scope names are
/// string literals at their `profile_scope!` / engine-accounting call
/// sites in `core`/`simnet`, which no type ties to this list, so the
/// analyzer's schema-drift rule does: a name listed here that no
/// producer enters fails `cargo xtask analyze`.
pub const PROFILE_SCOPES: &[&str] = &[
    "ctrl_encode",
    "ctrl_decode",
    "crc_verify",
    "credit_admission",
    "journal_truncate",
    "cache_lookup",
    "cq_poll",
    "engine_exec",
    "engine_barrier_wait",
    "engine_emit_merge",
    "engine_coordinator",
];

fn counter(obj: &Json, key: &str, at: &str) -> Result<u64, String> {
    obj.get(key)
        .ok_or_else(|| format!("{at}: missing \"{key}\""))?
        .as_u64()
        .ok_or_else(|| format!("{at}: \"{key}\" is not a non-negative integer"))
}

/// Validate a metrics document against the v1 schema. Returns the parsed
/// value on success so callers can make further assertions, or a message
/// naming the first offending field.
pub fn validate_metrics(doc: &str) -> Result<Json, String> {
    let v = parse(doc).map_err(|e| format!("not valid JSON: {e}"))?;
    if !v.is_obj() {
        return Err("top level is not an object".into());
    }
    match v.get("schema").and_then(Json::as_str) {
        Some(SCHEMA_ID) => {}
        Some(other) => return Err(format!("unknown schema \"{other}\"")),
        None => return Err("missing \"schema\"".into()),
    }
    if v.get("bench").and_then(Json::as_str).is_none() {
        return Err("missing string \"bench\"".into());
    }
    let totals = v
        .get("totals")
        .filter(|t| t.is_obj())
        .ok_or("missing object \"totals\"")?;
    for k in TOTAL_KEYS {
        counter(totals, k, "totals")?;
    }
    let caches = v
        .get("caches")
        .filter(|c| c.is_obj())
        .ok_or("missing object \"caches\"")?;
    for c in CACHES {
        let cache = caches
            .get(c)
            .filter(|x| x.is_obj())
            .ok_or_else(|| format!("caches: missing object \"{c}\""))?;
        for k in CACHE_KEYS {
            counter(cache, k, &format!("caches.{c}"))?;
        }
    }
    for section in EXT_SECTIONS {
        let Some(sec) = v.get(section) else {
            continue;
        };
        let Json::Obj(members) = sec else {
            return Err(format!("\"{section}\" is present but not an object"));
        };
        for (k, val) in members {
            match val {
                Json::Num(n) if *n >= 0.0 => {}
                _ => return Err(format!("{section}: \"{k}\" is not a non-negative number")),
            }
        }
    }
    for arr in ["ranks", "windows", "proxies", "recv_meta"] {
        let items = v
            .get(arr)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing array \"{arr}\""))?;
        if let Some(bad) = items.iter().position(|e| !e.is_obj()) {
            return Err(format!("{arr}[{bad}] is not an object"));
        }
    }
    // Optional multi-tenant section: when present, every row carries the
    // full per-tenant counter set and the rows' sheds/grants/deferrals
    // sum to at most the corresponding totals (per-tenant counters are a
    // partition of the totals, but ranks outside the tenant map may
    // contribute to totals only).
    if let Some(tenants) = v.get("tenants") {
        let rows = tenants
            .as_arr()
            .ok_or("\"tenants\" is present but not an array")?;
        if rows.len() < 2 {
            return Err("\"tenants\" is present with fewer than two rows".into());
        }
        let mut sums = [0u64; 3];
        for (i, row) in rows.iter().enumerate() {
            let at = format!("tenants[{i}]");
            for k in TENANT_KEYS {
                counter(row, k, &at)?;
            }
            sums[0] += counter(row, "quota_sheds", &at)?;
            sums[1] += counter(row, "drr_grants", &at)?;
            sums[2] += counter(row, "credit_deferrals", &at)?;
        }
        for (sum, key) in sums
            .iter()
            .zip(["quota_sheds", "drr_grants", "credit_deferrals"])
        {
            if *sum > counter(totals, key, "totals")? {
                return Err(format!("per-tenant {key} exceed totals.{key}"));
            }
        }
    }
    // Optional health section: when present, it carries exactly the
    // declared breaker/budget counter set, at least one of them nonzero
    // (an idle engine must omit the section), and the breaker state
    // machine's conservation law holds: every close was preceded by a
    // half-open, every half-open by a trip.
    if let Some(health) = v.get("health") {
        let Json::Obj(members) = health else {
            return Err("\"health\" is present but not an object".into());
        };
        for k in HEALTH_KEYS {
            counter(health, k, "health")?;
        }
        for (k, _) in members {
            if !HEALTH_KEYS.contains(&k.as_str()) {
                return Err(format!("health: undeclared counter \"{k}\""));
            }
        }
        if HEALTH_KEYS
            .iter()
            .all(|k| health.get(k).and_then(Json::as_u64) == Some(0))
        {
            return Err("\"health\" is present but all-zero".into());
        }
        let trips = counter(health, "breaker_trips", "health")?;
        let half_opens = counter(health, "breaker_half_opens", "health")?;
        let closes = counter(health, "breaker_closes", "health")?;
        if closes > half_opens {
            return Err("health: breaker_closes exceed breaker_half_opens".into());
        }
        // Proxy restarts re-arm breakers straight to half-open, so
        // half-opens may exceed trips only when restarts occurred.
        if half_opens > trips && counter(totals, "proxy_restarts", "totals")? == 0 {
            return Err("health: breaker_half_opens exceed breaker_trips without restarts".into());
        }
    }
    // Internal consistency: cache lookups decompose, per-rank wakeups sum
    // to the total, and the once-only group-metadata claim is encoded.
    let wakeups: u64 = v
        .get("ranks")
        .and_then(Json::as_arr)
        .map(|rs| {
            rs.iter()
                .filter_map(|r| r.get("wakeups").and_then(Json::as_u64))
                .sum()
        })
        .unwrap_or(0);
    if wakeups != counter(totals, "host_wakeups", "totals")? {
        return Err("per-rank wakeups do not sum to totals.host_wakeups".into());
    }
    let meta_total: u64 = v
        .get("recv_meta")
        .and_then(Json::as_arr)
        .map(|ms| {
            ms.iter()
                .filter_map(|m| m.get("count").and_then(Json::as_u64))
                .sum()
        })
        .unwrap_or(0);
    if meta_total != counter(totals, "recv_meta_total", "totals")? {
        return Err("recv_meta counts do not sum to totals.recv_meta_total".into());
    }
    Ok(v)
}

/// Validate a self-profiling document against the `profile/v1` schema.
///
/// Checks the schema id, that every `;`-separated segment of every
/// scope path is a declared [`PROFILE_SCOPES`] name, that counts and
/// durations are non-negative, and that telemetry snapshots carry
/// strictly increasing sequence numbers with non-negative counter
/// deltas. Duration fields are optional (producers omit them under
/// `BENCH_NO_WALL=1` so documents stay byte-comparable across thread
/// counts); when present they must be non-negative numbers.
pub fn validate_profile(doc: &str) -> Result<Json, String> {
    let v = parse(doc).map_err(|e| format!("not valid JSON: {e}"))?;
    if !v.is_obj() {
        return Err("top level is not an object".into());
    }
    match v.get("schema").and_then(Json::as_str) {
        Some(PROFILE_SCHEMA_ID) => {}
        Some(other) => return Err(format!("unknown schema \"{other}\"")),
        None => return Err("missing \"schema\"".into()),
    }
    if v.get("bench").and_then(Json::as_str).is_none() {
        return Err("missing string \"bench\"".into());
    }
    let scopes = v
        .get("scopes")
        .and_then(Json::as_arr)
        .ok_or("missing array \"scopes\"")?;
    for (i, s) in scopes.iter().enumerate() {
        let at = format!("scopes[{i}]");
        let path = s
            .get("path")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{at}: missing string \"path\""))?;
        for seg in path.split(';') {
            if !PROFILE_SCOPES.contains(&seg) {
                return Err(format!("{at}: undeclared scope name \"{seg}\""));
            }
        }
        counter(s, "count", &at)?;
        if let Json::Obj(members) = s {
            for (k, val) in members {
                if k == "path" {
                    continue;
                }
                match val {
                    Json::Num(n) if *n >= 0.0 => {}
                    _ => return Err(format!("{at}: \"{k}\" is not a non-negative number")),
                }
            }
        }
    }
    if let Some(totals) = v.get("engine_totals") {
        let Json::Obj(members) = totals else {
            return Err("\"engine_totals\" is present but not an object".into());
        };
        for (k, val) in members {
            match val {
                Json::Num(n) if *n >= 0.0 => {}
                _ => {
                    return Err(format!(
                        "engine_totals: \"{k}\" is not a non-negative number"
                    ))
                }
            }
        }
    }
    if let Some(engine) = v.get("engine") {
        let shards = engine
            .as_arr()
            .ok_or("\"engine\" is present but not an array")?;
        for (i, s) in shards.iter().enumerate() {
            let at = format!("engine[{i}]");
            if let Json::Obj(members) = s {
                for (k, val) in members {
                    match val {
                        Json::Num(n) if *n >= 0.0 => {}
                        _ => return Err(format!("{at}: \"{k}\" is not a non-negative number")),
                    }
                }
            } else {
                return Err(format!("{at} is not an object"));
            }
        }
    }
    let snaps = v
        .get("snapshots")
        .and_then(Json::as_arr)
        .ok_or("missing array \"snapshots\"")?;
    let mut prev_seq: Option<u64> = None;
    for (i, s) in snaps.iter().enumerate() {
        let at = format!("snapshots[{i}]");
        let seq = counter(s, "seq", &at)?;
        counter(s, "upto_ps", &at)?;
        if let Some(p) = prev_seq {
            if seq <= p {
                return Err(format!("{at}: seq {seq} not increasing (prev {p})"));
            }
        }
        prev_seq = Some(seq);
        let deltas = s
            .get("deltas")
            .filter(|d| d.is_obj())
            .ok_or_else(|| format!("{at}: missing object \"deltas\""))?;
        if let Json::Obj(members) = deltas {
            for (k, val) in members {
                match val {
                    Json::Num(n) if *n >= 0.0 => {}
                    _ => return Err(format!("{at}: delta \"{k}\" is not a non-negative number")),
                }
            }
        }
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use offload::MetricsReport;

    #[test]
    fn empty_report_is_schema_valid() {
        let doc = MetricsReport::default().to_json("unit");
        validate_metrics(&doc).unwrap();
    }

    #[test]
    fn engine_and_scale_sections_validate_when_present() {
        let base = MetricsReport::default().to_json("unit");
        let with_sections = base.replace(
            "\n  ]\n}\n",
            "\n  ],\n  \"engine\": {\n    \"events\": 4032,\n    \"wall_ms\": 20.821\n  },\n  \
             \"scale\": {\n    \"ranks\": 64,\n    \"fingerprint\": 153652376950\n  }\n}\n",
        );
        validate_metrics(&with_sections).unwrap();
        // Non-numeric members are rejected.
        let bad = with_sections.replace("\"events\": 4032", "\"events\": \"many\"");
        assert!(validate_metrics(&bad).is_err());
        // A section that is not an object is rejected.
        let bad = with_sections.replace(
            "\"scale\": {\n    \"ranks\": 64,\n    \"fingerprint\": 153652376950\n  }",
            "\"scale\": 7",
        );
        assert!(validate_metrics(&bad).is_err());
    }

    #[test]
    fn tenants_section_validates_when_present() {
        use offload::{Metrics, ProtoEvent};
        use simnet::{Emitted, Pid, SimTime};
        let m = Metrics::new();
        let sink = m.sink();
        for (tenant, rank) in [(0usize, 0usize), (1, 1)] {
            sink(&[Emitted {
                at: SimTime::ZERO,
                pid: Pid::from_index(rank),
                event: &ProtoEvent::QuotaShed {
                    tenant,
                    rank,
                    msg_id: rank as u64,
                },
            }]);
        }
        m.set_tenant_map([(0, 0), (1, 1)].into_iter().collect());
        let doc = m.report().to_json("unit");
        assert!(doc.contains("\"tenants\": ["));
        validate_metrics(&doc).unwrap();
        // A row missing a tenant counter is rejected.
        let bad = doc.replace("\"quota_sheds\": 1, \"drr_grants\": 0}", "}");
        assert!(validate_metrics(&bad).is_err());
        // Per-tenant sheds summing past the total are rejected.
        let bad = doc.replace(
            "\"tenant\": 1, \"ranks\": 1, \"wakeups\": 0, \"interventions\": 0, \"fin_send\": 0, \"fin_recv\": 0, \"fin_group\": 0, \"credit_deferrals\": 0, \"quota_sheds\": 1",
            "\"tenant\": 1, \"ranks\": 1, \"wakeups\": 0, \"interventions\": 0, \"fin_send\": 0, \"fin_recv\": 0, \"fin_group\": 0, \"credit_deferrals\": 0, \"quota_sheds\": 9",
        );
        assert!(validate_metrics(&bad).is_err());
        // A single-row section is rejected: single-tenant runs must omit
        // the section, not emit a degenerate one.
        let one_row = doc.replace(
            ",\n    {\"tenant\": 1, \"ranks\": 1, \"wakeups\": 0, \"interventions\": 0, \"fin_send\": 0, \"fin_recv\": 0, \"fin_group\": 0, \"credit_deferrals\": 0, \"quota_sheds\": 1, \"drr_grants\": 0}",
            "",
        );
        assert_ne!(one_row, doc, "the tenant-1 row must match verbatim");
        assert!(validate_metrics(&one_row).is_err());
    }

    #[test]
    fn health_section_validates_when_present() {
        use offload::{HealthPath, Metrics, ProtoEvent};
        use simnet::{Emitted, Pid, SimTime};
        let m = Metrics::new();
        let sink = m.sink();
        let feed = |ev: &ProtoEvent| {
            sink(&[Emitted {
                at: SimTime::ZERO,
                pid: Pid::from_index(2),
                event: ev,
            }])
        };
        feed(&ProtoEvent::BreakerTripped {
            peer: 1,
            path: HealthPath::CrossGvmi,
        });
        feed(&ProtoEvent::BreakerHalfOpen {
            peer: 1,
            path: HealthPath::CrossGvmi,
        });
        feed(&ProtoEvent::BreakerProbe {
            peer: 1,
            path: HealthPath::CrossGvmi,
            msg_id: 4,
        });
        feed(&ProtoEvent::BreakerClosed {
            peer: 1,
            path: HealthPath::CrossGvmi,
        });
        let doc = m.report().to_json("unit");
        assert!(doc.contains("\"health\": {"));
        validate_metrics(&doc).unwrap();
        // A missing health counter is rejected.
        let bad = doc.replace("\"breaker_probes\": 1,", "");
        assert!(validate_metrics(&bad).is_err());
        // An undeclared counter is rejected.
        let bad = doc.replace("\"breaker_probes\"", "\"breaker_mystery\"");
        assert!(validate_metrics(&bad).is_err());
        // An all-zero section is rejected: idle engines must omit it.
        let bad = doc
            .replace("\"breaker_trips\": 1", "\"breaker_trips\": 0")
            .replace("\"breaker_half_opens\": 1", "\"breaker_half_opens\": 0")
            .replace("\"breaker_closes\": 1", "\"breaker_closes\": 0")
            .replace("\"breaker_probes\": 1", "\"breaker_probes\": 0");
        assert!(validate_metrics(&bad).is_err());
        // More closes than half-opens breaks the state machine.
        let bad = doc.replace("\"breaker_closes\": 1", "\"breaker_closes\": 5");
        assert!(validate_metrics(&bad).is_err());
        // More half-opens than trips needs a proxy restart to explain it.
        let bad = doc.replace("\"breaker_half_opens\": 1", "\"breaker_half_opens\": 3");
        assert!(validate_metrics(&bad).is_err());
        let explained = bad.replace("\"proxy_restarts\": 0", "\"proxy_restarts\": 1");
        validate_metrics(&explained).unwrap();
    }

    #[test]
    fn rejects_missing_fields_and_bad_schema() {
        assert!(validate_metrics("{}").is_err());
        assert!(validate_metrics("not json").is_err());
        let doc = MetricsReport::default()
            .to_json("unit")
            .replace(SCHEMA_ID, "something/else");
        assert!(validate_metrics(&doc).is_err());
        let doc = MetricsReport::default()
            .to_json("unit")
            .replace("\"rts\": 0", "\"rts\": -1");
        assert!(validate_metrics(&doc).is_err());
    }
}
