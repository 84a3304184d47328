//! Always-on bounded flight recorder for [`ProtoEvent`] streams.
//!
//! A [`FlightRecorder`] is an [`EventSink`] that keeps the most recent
//! events *per emitting process* (rank or proxy) in fixed-size ring
//! buffers — one per pid, of plain `(seq, time, event)` records that a
//! full ring overwrites in place, with text produced only on dump —
//! cheap enough to leave on for every checker run, yet enough
//! context to reconstruct what the protocol was doing when a schedule
//! exploration shrinks a failure. The `checker` crate installs one next
//! to its conformance sink and writes [`FlightRecorder::dump`] into
//! `target/failure-dumps/` whenever a scenario fails.
//!
//! The dump is a line-oriented text format that round-trips:
//! [`parse_flight_dump`] reads it back into records and [`replay_into`]
//! feeds them to any sink — e.g. a fresh conformance checker, which must
//! reach the same verdict as the live run (asserted in the checker's
//! tests). One event per line:
//!
//! ```text
//! at_ps=1234567 pid=3 ev=WritePosted wrid=216172782113783809 bytes=8192 path=CrossGvmi msg_id=4294967297
//! ```
//!
//! Lines starting with `#` are comments (the checker prepends scenario
//! metadata); blank lines are skipped. A line is `at_ps`, `pid`, `ev`,
//! then the variant's fields in declaration order; what each variant
//! carries is read off the `proto_events!` table in `events.rs`, and this
//! module only knows how one *field type* is written (`FlightField`).
//! The parser is keyed, so fields may come in any order, but strict: a
//! dump is outside input (hand-edited, or from another build), so a
//! field the variant does not have, a field given twice, or a value out
//! of its type's range is an error naming the line, never a silently
//! different event.

use std::fmt::{self, Write as _};
use std::sync::Arc;

use parking_lot::Mutex;
use rdma::{MrKey, VAddr};
use simnet::{deliver_batched, Emitted, EventSink, Pid, SimTime};

use crate::events::{proto_sink, ProtoEvent};

/// One recorded emission: when, by whom, what.
#[derive(Clone, Debug)]
pub struct FlightRecord {
    /// Simulated instant of the emission.
    pub at: SimTime,
    /// Emitting process.
    pub pid: Pid,
    /// The event.
    pub event: ProtoEvent,
}

impl FlightRecord {
    /// Append this record's dump line, without the newline.
    pub fn put_line(&self, out: &mut String) {
        let _ = write!(out, "at_ps={} pid={} ", self.at.as_ps(), self.pid.index());
        self.event.put_flight(out);
    }
}

/// The retained tail of one pid's emissions. Records are appended until
/// the ring holds `cap` of them, then overwritten in place, oldest first;
/// the buffer grows with use, so a huge `cap` costs nothing up front.
#[derive(Default)]
struct Ring {
    /// `(seq, at, event)`; the pid is the ring's index.
    buf: Vec<(u64, SimTime, ProtoEvent)>,
    /// Oldest record once the ring is full.
    head: usize,
}

impl Ring {
    /// Record one emission; `true` if it overwrote the oldest record.
    fn push(&mut self, cap: usize, rec: (u64, SimTime, ProtoEvent)) -> bool {
        if self.buf.len() < cap {
            self.buf.push(rec);
            false
        } else {
            self.buf[self.head] = rec;
            self.head += 1;
            if self.head == cap {
                self.head = 0;
            }
            true
        }
    }

    /// Records oldest first.
    fn iter(&self) -> impl Iterator<Item = &(u64, SimTime, ProtoEvent)> {
        let (newer, older) = self.buf.split_at(self.head);
        older.iter().chain(newer)
    }
}

struct FlightInner {
    cap: usize,
    seq: u64,
    /// Ring per emitting pid, indexed by pid (pids are dense per run).
    rings: Vec<Ring>,
    dropped: u64,
}

impl FlightInner {
    fn record(&mut self, at: SimTime, pid: Pid, ev: &ProtoEvent) {
        self.seq += 1;
        let i = pid.index();
        if i >= self.rings.len() {
            self.rings.resize_with(i + 1, Ring::default);
        }
        if self.rings[i].push(self.cap, (self.seq, at, *ev)) {
            self.dropped += 1;
        }
    }

    /// All retained records, merged across processes in emission order.
    fn records(&self) -> Vec<FlightRecord> {
        let mut all: Vec<(u64, FlightRecord)> = self
            .rings
            .iter()
            .enumerate()
            .flat_map(|(pid, ring)| {
                ring.iter().map(move |(seq, at, event)| {
                    let rec = FlightRecord {
                        at: *at,
                        pid: Pid::from_index(pid),
                        event: *event,
                    };
                    (*seq, rec)
                })
            })
            .collect();
        all.sort_unstable_by_key(|&(seq, _)| seq);
        all.into_iter().map(|(_, r)| r).collect()
    }
}

/// Bounded per-process ring buffer of recent [`ProtoEvent`]s.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<FlightInner>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// Default capacity: enough for the checker's smoke workloads to be
    /// retained end to end, small enough to stay always-on.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Recorder with [`Self::DEFAULT_CAPACITY`] events per process.
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Recorder keeping at most `cap` recent events per process.
    pub fn with_capacity(cap: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(Mutex::new(FlightInner {
                cap: cap.max(1),
                seq: 0,
                rings: Vec::new(),
                dropped: 0,
            })),
        }
    }

    /// The sink to install on a simulation (compose with other sinks via
    /// `workloads::fanout`). Non-`ProtoEvent` emissions are ignored.
    pub fn sink(&self) -> EventSink {
        proto_sink(Arc::clone(&self.inner), FlightInner::record)
    }

    /// Events evicted from full rings so far (0 means the dump is the
    /// complete stream).
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// All retained records, merged across processes in emission order.
    pub fn records(&self) -> Vec<FlightRecord> {
        self.inner.lock().records()
    }

    /// Render the retained events as the round-trippable text format.
    /// Header and body are read under one lock, so a dump of a live
    /// recorder is a consistent snapshot.
    pub fn dump(&self) -> String {
        let (records, dropped) = {
            let f = self.inner.lock();
            (f.records(), f.dropped)
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# flight-recorder dump: {} events retained, {} evicted",
            records.len(),
            dropped
        );
        for r in &records {
            r.put_line(&mut out);
            out.push('\n');
        }
        out
    }
}

/// The text form of one [`ProtoEvent`] field type in a dump line.
/// Implemented once per type — here for the plain ones, by
/// `flight_enums!` in `events.rs` for the small enums — and composed per
/// variant by the `proto_events!` table.
pub(crate) trait FlightField: Copy + 'static {
    /// What a malformed value is reported as not being.
    const WHAT: &'static str;
    /// Edge values [`ProtoEvent::samples`] cycles the type through.
    const SAMPLES: &'static [Self];
    /// Append the value's text form.
    fn put(self, out: &mut String);
    /// Parse the text form; `None` when malformed or out of range.
    fn get(text: &str) -> Option<Self>;
}

macro_rules! int_flight_field {
    ($($t:ident)*) => {$(
        impl FlightField for $t {
            const WHAT: &'static str = stringify!($t);
            const SAMPLES: &'static [$t] = &[1, 0, $t::MAX];

            fn put(self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn get(text: &str) -> Option<$t> {
                text.parse().ok()
            }
        }
    )*};
}
int_flight_field!(u64 usize u32);

impl FlightField for bool {
    const WHAT: &'static str = "bool";
    const SAMPLES: &'static [bool] = &[true, false];

    fn put(self, out: &mut String) {
        out.push_str(if self { "true" } else { "false" });
    }

    fn get(text: &str) -> Option<bool> {
        match text {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        }
    }
}

impl FlightField for MrKey {
    const WHAT: &'static str = "u64";
    const SAMPLES: &'static [MrKey] = &[MrKey::from_raw(17), MrKey::from_raw(u64::MAX)];

    fn put(self, out: &mut String) {
        self.raw().put(out);
    }

    fn get(text: &str) -> Option<MrKey> {
        u64::get(text).map(MrKey::from_raw)
    }
}

/// An absent key is written `-`.
impl FlightField for Option<MrKey> {
    const WHAT: &'static str = "u64 or `-`";
    const SAMPLES: &'static [Option<MrKey>] = &[Some(MrKey::from_raw(33)), None];

    fn put(self, out: &mut String) {
        match self {
            Some(k) => k.put(out),
            None => out.push('-'),
        }
    }

    fn get(text: &str) -> Option<Option<MrKey>> {
        match text {
            "-" => Some(None),
            _ => MrKey::get(text).map(Some),
        }
    }
}

impl FlightField for VAddr {
    const WHAT: &'static str = "u64";
    const SAMPLES: &'static [VAddr] = &[VAddr(0x1000), VAddr(0), VAddr(u64::MAX)];

    fn put(self, out: &mut String) {
        self.0.put(out);
    }

    fn get(text: &str) -> Option<VAddr> {
        u64::get(text).map(VAddr)
    }
}

/// The `key=value` tokens of one dump line. Every field is taken out
/// exactly once, so what is left after the event has been decoded is
/// what the event does not have.
pub(crate) struct Fields<'a> {
    line_no: usize,
    kv: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    fn parse(line_no: usize, line: &'a str) -> Result<Fields<'a>, String> {
        let mut f = Fields {
            line_no,
            kv: Vec::new(),
        };
        for tok in line.split_ascii_whitespace() {
            let Some((k, v)) = tok.split_once('=') else {
                return Err(f.err(format_args!("bare token {tok:?}")));
            };
            if f.kv.iter().any(|&(seen, _)| seen == k) {
                return Err(f.err(format_args!("field {k:?} given twice")));
            }
            f.kv.push((k, v));
        }
        Ok(f)
    }

    /// `line N: <what>` — every parse error names its line.
    pub(crate) fn err(&self, what: fmt::Arguments<'_>) -> String {
        format!("line {}: {what}", self.line_no)
    }

    /// Take field `key` out of the line as raw text.
    pub(crate) fn raw(&mut self, key: &str) -> Result<&'a str, String> {
        match self.kv.iter().position(|&(k, _)| k == key) {
            Some(i) => Ok(self.kv.remove(i).1),
            None => Err(self.err(format_args!("missing field {key:?}"))),
        }
    }

    /// Take field `key` out of the line, decoded.
    pub(crate) fn take<T: FlightField>(&mut self, key: &str) -> Result<T, String> {
        let v = self.raw(key)?;
        T::get(v).ok_or_else(|| self.err(format_args!("field {key}={v:?} is not a {}", T::WHAT)))
    }

    /// The line must have been consumed in full.
    fn finish(self) -> Result<(), String> {
        match self.kv.first() {
            None => Ok(()),
            Some((k, _)) => {
                Err(self.err(format_args!("field {k:?} does not belong to this event")))
            }
        }
    }
}

/// Parse a [`FlightRecorder::dump`] back into records. Comment (`#`) and
/// blank lines are skipped; any malformed line is an error naming the
/// line and field.
pub fn parse_flight_dump(dump: &str) -> Result<Vec<FlightRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in dump.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut f = Fields::parse(i + 1, trimmed)?;
        let at = SimTime::from_ps(f.take("at_ps")?);
        // A pid is 32 bits wide; `Pid::from_index` would truncate.
        let pid = Pid::from_index(f.take::<u32>("pid")? as usize);
        let event = ProtoEvent::get_flight(&mut f)?;
        f.finish()?;
        out.push(FlightRecord { at, pid, event });
    }
    Ok(out)
}

/// Feed recorded events into a sink, e.g. a fresh conformance checker.
/// The replay preserves timestamps and emitting pids, so any verdict a
/// sink reaches on the live stream it reaches again on the dump. It
/// delivers in slices of `simnet::EMIT_BATCH`, as a run does.
pub fn replay_into(records: &[FlightRecord], sink: &EventSink) {
    deliver_batched(sink, records, |r| Emitted {
        at: r.at,
        pid: r.pid,
        event: &r.event,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records of `(pid, event)` emitted one picosecond apart.
    fn stream(evs: impl IntoIterator<Item = (usize, ProtoEvent)>) -> Vec<FlightRecord> {
        evs.into_iter()
            .enumerate()
            .map(|(i, (pid, event))| FlightRecord {
                at: SimTime::from_ps(i as u64),
                pid: Pid::from_index(pid),
                event,
            })
            .collect()
    }

    fn completion(wrid: u64) -> ProtoEvent {
        ProtoEvent::WriteCompleted { wrid }
    }

    #[test]
    fn dump_round_trips_every_variant() {
        let rec = FlightRecorder::with_capacity(usize::MAX);
        let samples = ProtoEvent::samples().into_iter().enumerate();
        replay_into(&stream(samples.map(|(i, ev)| (i % 3, ev))), &rec.sink());
        let dump = rec.dump();
        let parsed = parse_flight_dump(&dump).expect("parse own dump");
        let again = {
            let rec2 = FlightRecorder::with_capacity(usize::MAX);
            let sink2 = rec2.sink();
            replay_into(&parsed, &sink2);
            rec2.dump()
        };
        assert_eq!(dump, again, "dump → parse → replay → dump is a fixpoint");
    }

    #[test]
    fn ring_is_bounded_per_pid_and_counts_evictions() {
        let rec = FlightRecorder::with_capacity(4);
        let evs = (0..10).map(|i| (1, completion(i)));
        replay_into(&stream(evs.chain([(2, completion(99))])), &rec.sink());
        let records = rec.records();
        assert_eq!(records.len(), 5, "4 retained on pid 1 + 1 on pid 2");
        assert_eq!(rec.dropped(), 6);
        // The retained pid-1 events are the most recent ones, in order.
        let wrids: Vec<u64> = records
            .iter()
            .filter(|r| r.pid.index() == 1)
            .map(|r| match r.event {
                ProtoEvent::WriteCompleted { wrid } => wrid,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(wrids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn wrapped_rings_merge_in_emission_order() {
        let rec = FlightRecorder::with_capacity(3);
        // Pid 1 emits six events (three overwritten), pid 0 exactly its
        // capacity, pid 2 one.
        let pids = [1, 0, 1, 1, 0, 1, 2, 1, 0, 1].into_iter().enumerate();
        replay_into(
            &stream(pids.map(|(i, pid)| (pid, completion(i as u64)))),
            &rec.sink(),
        );
        let wrids: Vec<u64> = rec
            .records()
            .iter()
            .map(|r| match r.event {
                ProtoEvent::WriteCompleted { wrid } => wrid,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(wrids, vec![1, 4, 5, 6, 7, 8, 9]);
        assert_eq!(rec.dropped(), 3);
        assert!(rec
            .dump()
            .starts_with("# flight-recorder dump: 7 events retained, 3 evicted\n"));
    }

    #[test]
    fn parser_reports_malformed_lines() {
        let err = |line: &str| parse_flight_dump(line).expect_err(line);
        err("at_ps=1 pid=0 ev=Nonsense");
        err("at_ps=1 pid=0 ev=WriteCompleted");
        err("at_ps=x pid=0 ev=WriteCompleted wrid=1");
        // A repeated key used to be last-wins.
        assert!(
            err("at_ps=1 at_ps=2 pid=0 ev=WriteCompleted wrid=1").contains("\"at_ps\" given twice")
        );
        // A key the variant does not have (here a typo) used to be ignored.
        assert!(err("at_ps=1 pid=0 ev=WriteCompleted wrid=1 wird=7").contains("\"wird\""));
        // A pid past 32 bits used to be truncated (this one to pid 3).
        assert!(err("at_ps=1 pid=4294967299 ev=WriteCompleted wrid=1").contains("pid="));
        assert!(err("\nat_ps=1 pid=0 ev=StaleCqe").starts_with("line 2: "));
        assert!(parse_flight_dump("# comment only\n\n")
            .expect("ok")
            .is_empty());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let dump = "# header\n\nat_ps=5 pid=3 ev=HostFinalized rank=2\n";
        let recs = parse_flight_dump(dump).expect("parse");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].at.as_ps(), 5);
        assert_eq!(recs[0].pid.index(), 3);
        assert!(matches!(
            recs[0].event,
            ProtoEvent::HostFinalized { rank: 2 }
        ));
    }
}
