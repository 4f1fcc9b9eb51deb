//! The traced run's recorder. Everything is recorded by the benchmark,
//! from outside the program: host spans around the calls into it, counter
//! snapshots at every slice boundary, and per-job simulated-time spans
//! rebuilt from `JobInfo::history`. All of it stays in memory and is
//! written once, as JSON, when the run ends.

use std::fmt::Write as _;

/// One host-time span. `parent` indexes [`Trace::spans`].
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One lifecycle phase of one job, in simulated microseconds. Spans of a
/// job share its id.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpan {
    pub job: String,
    pub phase: &'static str,
    pub start_us: u64,
    pub end_us: u64,
}

/// Cumulative counter values at one slice boundary.
#[derive(Debug, Clone)]
pub struct CounterSample {
    pub rep: usize,
    pub slice: u64,
    pub sim_us: u64,
    pub values: Vec<(String, f64)>,
}

#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    open: Vec<usize>,
    pub counters: Vec<CounterSample>,
    pub jobs: Vec<JobSpan>,
}

impl Trace {
    pub fn open(&mut self, name: &str, now_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            start_ns: now_ns,
            end_ns: now_ns,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize, now_ns: u64) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = now_ns;
    }

    /// Self time of span `id`: its duration minus the part its direct
    /// children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Renders the whole trace, with the run's per-layer metrics, as one
    /// JSON document.
    pub fn to_json(&self, workload: &str, seed: u64, metrics: &[(&str, f64, &str)]) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \"metrics\": {{\n",
            json_str(workload)
        );
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {}: {{\"value\": {}, \"unit\": {}}}{}",
                json_str(name),
                json_num(*value),
                json_str(unit),
                if i + 1 < metrics.len() { "," } else { "" }
            );
        }
        out.push_str("  },\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "    {{\"id\": {i}, \"parent\": {parent}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{}",
                json_str(&s.name),
                s.start_ns,
                s.end_ns,
                self.self_ns(i),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n  \"counters\": [\n");
        for (i, c) in self.counters.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"rep\": {}, \"slice\": {}, \"sim_us\": {}, \"values\": {{",
                c.rep, c.slice, c.sim_us
            );
            for (j, (k, v)) in c.values.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{}: {}",
                    if j > 0 { ", " } else { "" },
                    json_str(k),
                    json_num(*v)
                );
            }
            let _ = writeln!(
                out,
                "}}}}{}",
                if i + 1 < self.counters.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n  \"job_spans\": [\n");
        for (i, j) in self.jobs.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"job\": {}, \"phase\": {}, \"start_us\": {}, \"end_us\": {}}}{}",
                json_str(&j.job),
                json_str(j.phase),
                j.start_us,
                j.end_us,
                if i + 1 < self.jobs.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit measured (`null` for a non-finite
/// value, which validation refuses before anything is printed).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}
