//! Harness-side spans: one around every call the benchmark makes into a
//! layer (sample -> run -> rung / micro / replay). Kept in memory and
//! written out when the benchmark ends; spans inside the program are a
//! later change.

use std::time::Instant;

use obs::Json;

pub struct Span {
    pub name: String,
    /// The layer the call enters (`simnet`, `rdma`, `core`, `obs`, `checker`)
    /// or `harness` for the benchmark's own grouping spans.
    pub layer: &'static str,
    /// Index of the enclosing span, which caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// `on == false` records nothing: untraced runs pay one branch per call.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            parent: self.open.last().copied(),
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    /// The spans as `{name, layer, parent, start_ns, end_ns}`, `parent`
    /// an index into the same list.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(s.name.clone())),
                        ("layer".into(), Json::Str(s.layer.into())),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_ns".into(), Json::Num(s.start_ns as f64)),
                        ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("sample", "harness", |t| t.span("run", "core", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert!(t.spans[1].start_ns >= t.spans[0].start_ns);

        let mut off = Tracer::new(false);
        off.span("sample", "harness", |_| ());
        assert!(off.spans.is_empty());
    }
}
