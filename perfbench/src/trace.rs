//! In-memory spans for the traced replay: name, start, end, parent and
//! request id, written out once at the end. A layer's self time is its
//! spans' durations minus their children's.

use regenr_engine::Json;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub request: usize,
    /// A span whose duration is derived from a calibration (a step count
    /// times a measured per-step cost) rather than timed directly.
    pub estimated: bool,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans when `on`; otherwise every call is a no-op, which is the
/// baseline `trace.overhead` is measured against.
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request: usize,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    pub fn set_request(&mut self, request: usize) {
        self.request = request;
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: f64::NAN,
            parent: self.stack.last().copied(),
            request: self.request,
            estimated: false,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one).
    pub fn close(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let end = self.now();
        debug_assert_eq!(self.stack.last(), Some(&id));
        self.stack.pop();
        self.spans[id].end = end;
    }

    /// Renames a recorded span (a call whose layer is known only from its
    /// outcome, e.g. a cache lookup that turned out to be a rebuild).
    pub fn rename(&mut self, id: usize, name: &'static str) {
        if self.on {
            self.spans[id].name = name;
        }
    }

    pub fn duration(&self, id: usize) -> f64 {
        if self.on {
            self.spans[id].duration()
        } else {
            0.0
        }
    }

    /// Adds an estimated child of `parent` lasting `seconds` (clamped to
    /// the parent's duration, so self times never go negative).
    pub fn add_estimated(&mut self, parent: usize, name: &'static str, seconds: f64) {
        if !self.on {
            return;
        }
        let p = &self.spans[parent];
        let dur = seconds.clamp(0.0, p.duration());
        let (start, request) = (p.start, p.request);
        self.spans.push(Span {
            name,
            start,
            end: start + dur,
            parent: Some(parent),
            request,
            estimated: true,
        });
    }

    /// Self time per span name: duration minus the children's durations.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_sum = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_sum[p] += s.duration();
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_sum) {
            *out.entry(s.name).or_default() += (s.duration() - c).max(0.0);
        }
        out
    }

    /// All spans as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(s.name.into())),
                        ("start_s".into(), Json::Num(s.start)),
                        ("end_s".into(), Json::Num(s.end)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("request".into(), Json::Num(s.request as f64)),
                        ("estimated".into(), Json::Bool(s.estimated)),
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
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        let root = tr.open("request");
        let a = tr.open("transient.sr");
        std::thread::sleep(std::time::Duration::from_millis(4));
        tr.close(a);
        tr.add_estimated(a, "sparse.step", 1e-3);
        tr.close(root);
        let st = tr.self_times();
        let sr = st["transient.sr"];
        assert!((st["sparse.step"] - 1e-3).abs() < 1e-12);
        assert!((sr + 1e-3 - tr.spans[a].duration()).abs() < 1e-9);
        assert!(st["request"] < tr.spans[root].duration() - sr);
        // Estimated children never exceed their parent.
        tr.add_estimated(a, "sparse.step", 10.0);
        assert!(tr.self_times()["transient.sr"] >= 0.0);
    }
}
