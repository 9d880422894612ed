//! Client-side spans of the traced run: kept in memory, written once
//! when the run ends.

use std::fmt::Write as _;
use std::path::Path;

/// One timed call. `parent` is 0 for a root span; spans of one burst
/// share the burst span as parent.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// A span list; recording is a no-op when tracing is off.
pub struct Spans {
    on: bool,
    list: Vec<Span>,
}

/// Raw spans written per run; the per-name summary covers all of them.
const MAX_WRITTEN: usize = 50_000;

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            list: Vec::new(),
        }
    }

    /// Records a span and returns its id (0 when tracing is off).
    pub fn record(&mut self, parent: u64, name: &'static str, start: u64, end: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.list.len() as u64 + 1;
        self.list.push(Span {
            id,
            parent,
            name,
            start,
            end,
        });
        id
    }

    /// Appends `other`'s spans, renumbering them after this list's.
    pub fn absorb(&mut self, other: Spans) {
        let offset = self.list.len() as u64;
        self.list.extend(other.list.into_iter().map(|s| Span {
            id: s.id + offset,
            parent: if s.parent == 0 { 0 } else { s.parent + offset },
            ..s
        }));
    }

    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Count, total and self time per span name; self time is a span's
    /// duration minus its children's.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.list.len() + 1];
        for s in &self.list {
            child_ns[s.parent as usize] += s.end - s.start;
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for s in &self.list {
            let total = s.end - s.start;
            let own = total.saturating_sub(child_ns[s.id as usize]);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += total;
                    row.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }

    /// Writes the summary and the first [`MAX_WRITTEN`] spans as
    /// tab-separated lines.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = format!("# {header}\n# summary\tname\tcount\ttotal_ns\tself_ns\n");
        for (name, count, total, own) in self.summary() {
            let _ = writeln!(out, "summary\t{name}\t{count}\t{total}\t{own}");
        }
        out.push_str("# span\tid\tparent\tname\tstart_ns\tend_ns\n");
        for s in self.list.iter().take(MAX_WRITTEN) {
            let _ = writeln!(
                out,
                "span\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start, s.end
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
