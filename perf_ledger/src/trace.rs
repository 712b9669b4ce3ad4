//! The benchmark's own span recorder.
//!
//! Spans are recorded from this package only, around the calls it makes into
//! each layer; spans inside the engine and server are a later change.  Each
//! client thread owns one preallocated [`SpanBuf`], so recording is a push
//! into memory that is already resident; the file is written after the run.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its thread's buffer; [`NO_PARENT`] for a root.
pub type SpanIndex = u32;
pub const NO_PARENT: SpanIndex = u32::MAX;

/// Span names, in the order of [`Name::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One request, from generating it to judging its response.
    Request,
    LoadgenGen,
    ClientSend,
    ClientFlush,
    ClientRecv,
    CoreSessionRun,
}

impl Name {
    pub const ALL: [Name; 6] = [
        Name::Request,
        Name::LoadgenGen,
        Name::ClientSend,
        Name::ClientFlush,
        Name::ClientRecv,
        Name::CoreSessionRun,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Request => "request",
            Name::LoadgenGen => "loadgen.gen",
            Name::ClientSend => "client.send",
            Name::ClientFlush => "client.flush",
            Name::ClientRecv => "client.recv",
            Name::CoreSessionRun => "core.session_run",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Sequence number of the request within its thread.
    pub request_id: u32,
    pub parent: SpanIndex,
    pub name: Name,
}

/// Nanoseconds since the run's epoch; every thread reads the same clock.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One thread's spans.  Recording stops (and is counted) once the
/// preallocated capacity is used up, so a push never allocates.
#[derive(Debug)]
pub struct SpanBuf {
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanBuf {
    /// A buffer of `capacity` spans with its pages already touched.
    pub fn with_capacity(capacity: usize) -> Self {
        let filler = Span {
            start_ns: 0,
            end_ns: 0,
            request_id: 0,
            parent: NO_PARENT,
            name: Name::Request,
        };
        let mut spans = vec![filler; capacity];
        spans.clear();
        SpanBuf { spans, dropped: 0 }
    }

    /// Record a span; returns its index for children to name as parent.
    pub fn push(&mut self, span: Span) -> SpanIndex {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as SpanIndex
    }

    /// Open a root span whose end is not known yet.
    pub fn open_root(&mut self, request_id: u32, start_ns: u64) -> SpanIndex {
        self.push(Span {
            start_ns,
            end_ns: start_ns,
            request_id,
            parent: NO_PARENT,
            name: Name::Request,
        })
    }

    pub fn close(&mut self, index: SpanIndex, end_ns: u64) {
        if let Some(span) = self.spans.get_mut(index as usize) {
            span.end_ns = end_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Per-name totals over one or more threads' spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each span its children cover.
    pub self_ns: u64,
}

impl NameTotals {
    pub fn mean_ns(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total_ns as f64 / self.count as f64)
    }
}

/// Length of the part of `[start, end)` covered by the union of `children`
/// (each `(start, end)`; they may overlap or stick out).
fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut cursor) = (0, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Totals per span name, indexed like [`Name::ALL`].  A span's self time is
/// its duration minus the part of that interval its child spans cover.
pub fn totals(threads: &[SpanBuf]) -> [NameTotals; Name::ALL.len()] {
    let mut out = [NameTotals::default(); Name::ALL.len()];
    for buf in threads {
        let spans = buf.spans();
        // Children grouped by parent: sort child indices by parent.
        let mut children: Vec<u32> = (0..spans.len() as u32)
            .filter(|&i| spans[i as usize].parent != NO_PARENT)
            .collect();
        children.sort_unstable_by_key(|&i| spans[i as usize].parent);
        let mut next = 0;
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for (index, span) in spans.iter().enumerate() {
            intervals.clear();
            while next < children.len() && spans[children[next] as usize].parent < index as u32 {
                next += 1;
            }
            while next < children.len() && spans[children[next] as usize].parent == index as u32 {
                let child = &spans[children[next] as usize];
                intervals.push((child.start_ns, child.end_ns));
                next += 1;
            }
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let covered = covered_ns(span.start_ns, span.end_ns, &mut intervals);
            let t = &mut out[span.name as usize];
            t.count += 1;
            t.total_ns += duration;
            t.self_ns += duration - covered;
        }
    }
    out
}

/// Chrome-trace ("Trace Event Format") JSON of the first `max_requests`
/// requests of every thread.  Each in-flight request gets its own row
/// (`tid`), so pipelined requests do not overlap on one row.
pub fn chrome_json(threads: &[SpanBuf], max_requests: u32, rows_per_thread: u32) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (thread, buf) in threads.iter().enumerate() {
        for (index, span) in buf.spans().iter().enumerate() {
            if span.request_id >= max_requests {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let tid = thread as u32 * rows_per_thread + span.request_id % rows_per_thread;
            let parent = if span.parent == NO_PARENT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\
                 \"tid\":{tid},\"args\":{{\"span\":{index},\"parent\":{parent},\
                 \"request_id\":{},\"thread\":{thread}}}}}",
                span.name.as_str(),
                span.start_ns as f64 / 1e3,
                span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
                span.request_id,
            );
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn child(buf: &mut SpanBuf, name: Name, parent: SpanIndex, start: u64, end: u64) {
        buf.push(Span {
            start_ns: start,
            end_ns: end,
            request_id: 0,
            parent,
            name,
        });
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut buf = SpanBuf::with_capacity(16);
        let root = buf.open_root(0, 100);
        child(&mut buf, Name::LoadgenGen, root, 100, 110);
        child(&mut buf, Name::ClientSend, root, 110, 130);
        child(&mut buf, Name::ClientRecv, root, 150, 190);
        buf.close(root, 200);
        let t = totals(&[buf]);
        assert_eq!(t[Name::Request as usize].total_ns, 100);
        assert_eq!(t[Name::Request as usize].self_ns, 30);
        assert_eq!(t[Name::ClientSend as usize].total_ns, 20);
        assert_eq!(t[Name::ClientSend as usize].self_ns, 20, "leaf: all self");
        assert_eq!(t[Name::ClientRecv as usize].mean_ns(), Some(40.0));
        assert_eq!(t[Name::CoreSessionRun as usize].mean_ns(), None);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let mut buf = SpanBuf::with_capacity(16);
        let root = buf.open_root(0, 0);
        child(&mut buf, Name::ClientRecv, root, 10, 60);
        child(&mut buf, Name::ClientSend, root, 40, 80);
        // Sticks out past the root's end: only the inside part counts.
        child(&mut buf, Name::ClientFlush, root, 90, 150);
        buf.close(root, 100);
        assert_eq!(
            totals(&[buf])[Name::Request as usize].self_ns,
            100 - 70 - 10
        );
    }

    #[test]
    fn interleaved_roots_keep_their_own_children() {
        // Two pipelined requests: the second's send sits inside the first's
        // lifetime but belongs to the second root.
        let mut buf = SpanBuf::with_capacity(16);
        let a = buf.open_root(0, 0);
        let b = buf.open_root(1, 5);
        child(&mut buf, Name::ClientSend, b, 5, 15);
        child(&mut buf, Name::ClientRecv, a, 20, 50);
        buf.close(a, 50);
        child(&mut buf, Name::ClientRecv, b, 50, 70);
        buf.close(b, 70);
        let t = totals(&[buf]);
        assert_eq!(t[Name::Request as usize].count, 2);
        assert_eq!(t[Name::Request as usize].total_ns, 50 + 65);
        assert_eq!(t[Name::Request as usize].self_ns, 20 + 35);
    }

    #[test]
    fn full_buffer_drops_and_counts() {
        let mut buf = SpanBuf::with_capacity(1);
        assert_eq!(buf.open_root(0, 0), 0);
        assert_eq!(buf.open_root(1, 0), NO_PARENT);
        buf.close(NO_PARENT, 9);
        assert_eq!((buf.spans().len(), buf.dropped()), (1, 1));
    }

    #[test]
    fn chrome_json_is_well_formed_and_bounded() {
        let mut buf = SpanBuf::with_capacity(8);
        for request in 0..3 {
            let root = buf.open_root(request, u64::from(request) * 10);
            buf.close(root, u64::from(request) * 10 + 5);
        }
        let doc = chrome_json(&[buf], 2, 8);
        let parsed = crate::json::parse(&doc).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .unwrap();
        assert_eq!(events.len(), 2, "only the first two requests are written");
        assert_eq!(events[1].get("tid").and_then(|t| t.as_f64()), Some(1.0));
        assert!(crate::json::parse(&chrome_json(&[], 1, 1)).is_some());
    }
}
