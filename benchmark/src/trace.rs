//! In-memory spans around the calls into each layer. Nothing is written
//! until the run ends; a layer's self time is its span minus its children.

use std::io::Write;
use std::time::Instant;

use crate::json::quote;

/// `parent` of a span nothing encloses.
pub const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one statement share this: `pass * 16 + query id`.
    pub request: u32,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 16), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span inside whichever span is open now.
    pub fn enter(&mut self, name: &'static str, request: u32) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.open.push(id);
        id
    }

    /// Close `id`, and any span an error return left open inside it.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Name and self time in nanoseconds of every span from index `from`
    /// on; `from` must be the index of a span nothing encloses.
    pub fn self_ns(&self, from: usize) -> Vec<(&'static str, u64)> {
        let spans = &self.spans[from..];
        let mut own: Vec<_> = spans.iter().map(|s| (s.name, s.end_ns - s.start_ns)).collect();
        for s in spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize - from;
                own[p].1 = own[p].1.saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// One span per line: `[name, start_ns, end_ns, parent, request]`.
    pub fn write_json(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{{header}, \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"request\"], \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "[{}, {}, {}, {}, {}]{comma}",
                quote(s.name),
                s.start_ns,
                s.end_ns,
                parent,
                s.request
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        let a = t.enter("a", 1);
        let b = t.enter("b", 1);
        let _left_open = t.enter("c", 1);
        t.exit(b);
        t.exit(a);
        assert_eq!(t.spans[2].parent, b);
        assert_eq!(t.spans[0].parent, NO_PARENT);
        let own = t.self_ns(0);
        let dur = |i: usize| t.spans[i].end_ns - t.spans[i].start_ns;
        assert_eq!(own[0], ("a", dur(0) - dur(1)));
        assert_eq!(own[1], ("b", dur(1) - dur(2)));
        assert_eq!(t.spans[2].end_ns, t.spans[1].end_ns);
    }
}
