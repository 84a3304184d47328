//! Chrome-trace / Perfetto export of a simulation run.
//!
//! Converts a [`simnet::Report`]'s trace — typed spans plus point
//! records — into the Trace Event Format that `chrome://tracing`,
//! <https://ui.perfetto.dev> and `speedscope` load directly: one JSON
//! object with a `traceEvents` array of `"M"` (thread-name metadata),
//! `"X"` (complete span) and `"i"` (instant) events. Timestamps are
//! microseconds of virtual time; each simulated process maps to one
//! thread (`tid` = pid index) of a single synthetic process (`pid` 1).

use simnet::{Report, SimTime};

use crate::json::Json;

const TRACE_PID: f64 = 1.0;

fn us(t: SimTime) -> f64 {
    t.as_ps() as f64 / 1e6
}

fn base(ph: &str, tid: usize) -> Vec<(String, Json)> {
    vec![
        ("ph".into(), Json::Str(ph.into())),
        ("pid".into(), Json::Num(TRACE_PID)),
        ("tid".into(), Json::Num(tid as f64)),
    ]
}

/// Render `report` as a Chrome-trace JSON document. Returns `None` when
/// the run was executed without tracing enabled.
pub fn chrome_trace(report: &Report) -> Option<String> {
    let trace = report.trace.as_ref()?;
    let mut events = Vec::new();
    // Thread-name metadata: one per simulated process, in pid order.
    for (tid, proc_) in report.procs.iter().enumerate() {
        let mut e = base("M", tid);
        e.push(("name".into(), Json::Str("thread_name".into())));
        e.push((
            "args".into(),
            Json::Obj(vec![("name".into(), Json::Str(proc_.name.clone()))]),
        ));
        events.push(Json::Obj(e));
    }
    // Typed spans → complete ("X") events.
    for s in trace.spans() {
        let mut e = base("X", s.pid.index());
        e.push(("ts".into(), Json::Num(us(s.start))));
        e.push(("dur".into(), Json::Num(us(s.end) - us(s.start))));
        e.push(("cat".into(), Json::Str(s.cat.clone())));
        e.push(("name".into(), Json::Str(s.name.clone())));
        events.push(Json::Obj(e));
    }
    // Point records → instant ("i") events, thread-scoped.
    for r in trace.records() {
        let mut e = base("i", r.pid.index());
        e.push(("ts".into(), Json::Num(us(r.at))));
        e.push(("s".into(), Json::Str("t".into())));
        e.push(("name".into(), Json::Str(r.label.clone())));
        events.push(Json::Obj(e));
    }
    let doc = Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ]);
    Some(doc.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{SimDelta, Simulation};

    #[test]
    fn exports_spans_and_instants() {
        let mut sim = Simulation::new(7);
        sim.enable_trace();
        sim.spawn_future("worker", async |ctx| {
            ctx.trace("start");
            ctx.compute_async(SimDelta::from_us(3)).await;
            let sp = ctx.span_begin("phase", "wrapup");
            ctx.sleep_async(SimDelta::from_us(1)).await;
            ctx.span_end(sp);
        });
        let report = sim.run().unwrap();
        let doc = chrome_trace(&report).expect("tracing was on");
        let v = crate::json::parse(&doc).unwrap();
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        let phases: Vec<&str> = evs
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert!(phases.contains(&"M"));
        assert!(phases.contains(&"X"));
        assert!(phases.contains(&"i"));
        // The compute auto-span: 3 µs duration.
        let x = evs
            .iter()
            .find(|e| {
                e.get("ph").unwrap().as_str() == Some("X")
                    && e.get("cat").unwrap().as_str() == Some("compute")
            })
            .expect("compute span exported");
        assert_eq!(x.get("dur").unwrap().as_num(), Some(3.0));
    }

    #[test]
    fn untraced_run_exports_nothing() {
        let mut sim = Simulation::new(7);
        sim.spawn_future("w", async |ctx| ctx.sleep_async(SimDelta::from_us(1)).await);
        let report = sim.run().unwrap();
        assert!(chrome_trace(&report).is_none());
    }
}
