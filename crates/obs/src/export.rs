//! Structured export: Chrome trace-event JSON for spans and the JSONL
//! time-series schema for windowed counter deltas.
//!
//! Both formats are documented in the repo's `EXPERIMENTS.md`
//! ("Observability" section). The span export follows the Chrome
//! trace-event *JSON array format* — complete (`"ph": "X"`) events with
//! microsecond `ts`/`dur` — which Perfetto and `chrome://tracing` load
//! directly.

use crate::recorder::WindowSample;
use crate::span::Span;
use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders spans as a Chrome trace-event JSON array (one complete event
/// per span, `ts`/`dur` in microseconds since the log's epoch).
///
/// Run-scoped spans carry `scheme`/`trace`/`filter`/`refs` in `args`
/// (plus `request` for daemon-served runs), so Perfetto's query and
/// aggregation views can group by run and by the request ID that appears
/// in the daemon's `x-request-id` headers and log lines.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut events = String::new();
    for s in spans {
        chrome_trace_event(&mut events, s);
    }
    chrome_trace_array(&events)
}

/// Appends `s` to `out` as one [`chrome_trace`] event and a newline. The
/// event itself holds no newline, because [`escape`] escapes them.
pub fn chrome_trace_event(out: &mut String, s: &Span) {
    let _ = write!(
        out,
        "{{\"name\": \"{}\", \"cat\": \"dircc\", \"ph\": \"X\", \
         \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}",
        escape(&s.name),
        s.start.as_secs_f64() * 1e6,
        s.dur.as_secs_f64() * 1e6,
        s.tid
    );
    if let Some(m) = &s.meta {
        let _ = write!(
            out,
            ", \"args\": {{\"scheme\": \"{}\", \"trace\": \"{}\", \
             \"filter\": \"{}\", \"refs\": {}",
            escape(&m.scheme),
            escape(&m.trace),
            escape(&m.filter),
            m.refs
        );
        if let Some(request) = &m.request {
            let _ = write!(out, ", \"request\": \"{}\"", escape(request));
        }
        out.push('}');
    }
    out.push_str("}\n");
}

/// The JSON array of `events`, which [`chrome_trace_event`] rendered one
/// per line.
pub fn chrome_trace_array(events: &str) -> String {
    match events.trim_end_matches('\n') {
        "" => "[\n]\n".to_string(),
        events => format!("[\n{}\n]\n", events.replace('\n', ",\n")),
    }
}

/// Renders the complete [`EventCounters`](dircc_core::EventCounters)
/// state as one JSON object — every getter, the invalidation histogram
/// and the FNV-1a digest (hex, the same rendering `dircc bench` rows
/// use). The digest is invariant across replay paths, so two responses
/// describing the same run are bit-identical however they were
/// computed; the serve daemon's `/run` responses and `dircc replay
/// --json` both embed this object, which is what lets CI diff them.
pub fn counters_json(c: &dircc_core::EventCounters) -> String {
    let mut out = String::with_capacity(1024);
    out.push('{');
    let fields: [(&str, u64); 29] = [
        ("total", c.total()),
        ("instr", c.instr()),
        ("data_refs", c.data_refs()),
        ("reads", c.reads()),
        ("writes", c.writes()),
        ("read_hits", c.read_hits()),
        ("rm", c.rm()),
        ("rm_first_ref", c.rm_first_ref()),
        ("rm_blk_cln", c.rm_blk_cln()),
        ("rm_blk_drty", c.rm_blk_drty()),
        ("rm_blk_mem", c.rm_blk_mem()),
        ("wh", c.wh()),
        ("wh_blk_drty", c.wh_blk_drty()),
        ("wh_blk_cln", c.wh_blk_cln()),
        ("wh_distrib", c.wh_distrib()),
        ("wh_local", c.wh_local()),
        ("wm", c.wm()),
        ("wm_first_ref", c.wm_first_ref()),
        ("wm_blk_cln", c.wm_blk_cln()),
        ("wm_blk_drty", c.wm_blk_drty()),
        ("wm_blk_mem", c.wm_blk_mem()),
        ("control_messages", c.control_messages()),
        ("broadcasts", c.broadcasts()),
        ("write_backs", c.write_backs()),
        ("cache_supplies", c.cache_supplies()),
        ("updates", c.updates()),
        ("aux_messages", c.aux_messages()),
        ("directory_evictions", c.directory_evictions()),
        ("cache_evictions", c.cache_evictions()),
    ];
    for (name, value) in fields {
        let _ = write!(out, "\"{name}\": {value}, ");
    }
    out.push_str("\"inval_hist\": [");
    for (i, n) in c.inval_histogram().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{n}");
    }
    let _ = write!(out, "], \"digest\": \"{:016x}\"", c.digest());
    out.push('}');
    out
}

/// Renders one window of one run as a JSONL line of the time-series
/// schema.
///
/// The counter fields are the window's *delta* (events inside the window
/// only); `cycles_per_ref` is the delta priced by the caller under its
/// chosen cost model, so the sink itself stays model-agnostic.
pub fn window_jsonl_line(
    scheme: &str,
    trace: &str,
    filter: &str,
    sample: &WindowSample,
    cycles_per_ref: f64,
) -> String {
    let c = &sample.counters;
    let mut line = String::with_capacity(512);
    let _ = write!(
        line,
        "{{\"scheme\": \"{}\", \"trace\": \"{}\", \"filter\": \"{}\", \
         \"window\": {}, \"start_ref\": {}, \"end_ref\": {}, \"refs\": {}",
        escape(scheme),
        escape(trace),
        escape(filter),
        sample.index,
        sample.start_ref,
        sample.end_ref,
        sample.refs()
    );
    let fields: [(&str, u64); 18] = [
        ("instr", c.instr()),
        ("read_hits", c.read_hits()),
        ("rm", c.rm()),
        ("rm_first_ref", c.rm_first_ref()),
        ("rm_blk_cln", c.rm_blk_cln()),
        ("rm_blk_drty", c.rm_blk_drty()),
        ("rm_blk_mem", c.rm_blk_mem()),
        ("wh", c.wh()),
        ("wh_blk_drty", c.wh_blk_drty()),
        ("wh_blk_cln", c.wh_blk_cln()),
        ("wm", c.wm()),
        ("wm_first_ref", c.wm_first_ref()),
        ("wm_blk_cln", c.wm_blk_cln()),
        ("wm_blk_drty", c.wm_blk_drty()),
        ("wm_blk_mem", c.wm_blk_mem()),
        ("control_messages", c.control_messages()),
        ("broadcasts", c.broadcasts()),
        ("write_backs", c.write_backs()),
    ];
    for (name, value) in fields {
        let _ = write!(line, ", \"{name}\": {value}");
    }
    let _ = write!(line, ", \"cycles_per_ref\": {cycles_per_ref:.6}");
    line.push_str(", \"inval_hist\": [");
    for (i, n) in c.inval_histogram().iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let _ = write!(line, "{n}");
    }
    line.push_str("]}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{RunMeta, SpanLog};
    use dircc_core::{Event, EventCounters, MissContext, Outcome};

    #[test]
    fn chrome_trace_is_a_json_array_of_complete_events() {
        let log = SpanLog::new();
        log.time("generate", None, || ());
        log.time(
            "replay",
            Some(RunMeta {
                scheme: "Dir1NB".into(),
                trace: "POPS".into(),
                filter: "full".into(),
                refs: 42,
                request: Some("ab12-0001".into()),
            }),
            || (),
        );
        log.time(
            "replay",
            Some(RunMeta {
                scheme: "Dir1NB".into(),
                trace: "POPS".into(),
                filter: "full".into(),
                refs: 21,
                request: None,
            }),
            || (),
        );
        let json = chrome_trace(&log.spans());
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"name\": \"replay\""));
        assert!(json.contains("\"scheme\": \"Dir1NB\""));
        assert!(json.contains("\"refs\": 42"));
        assert!(json.contains("\"request\": \"ab12-0001\""), "request ids join spans to logs");
        assert!(json.contains("\"refs\": 21}"), "requestless spans omit the field");
        assert_eq!(json.matches("\"cat\": \"dircc\"").count(), 3);
        // Spans with meta once emitted an unbalanced extra `}`, which
        // broke every consumer that actually parsed the export.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "braces must balance: {json}"
        );
    }

    #[test]
    fn empty_span_list_is_still_valid_json() {
        assert_eq!(chrome_trace(&[]).trim(), "[\n]");
    }

    #[test]
    fn jsonl_line_carries_the_delta_and_histogram() {
        let mut c = EventCounters::new();
        c.observe(&Outcome::quiet(Event::ReadHit));
        c.observe(&Outcome::quiet(Event::ReadMiss(MissContext::MemoryOnly)));
        let sample = WindowSample { index: 3, start_ref: 10, end_ref: 12, counters: c };
        let line = window_jsonl_line("Dir0B", "THOR", "no-spins", &sample, 0.25);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"window\": 3"));
        assert!(line.contains("\"refs\": 2"));
        assert!(line.contains("\"read_hits\": 1"));
        assert!(line.contains("\"rm_blk_mem\": 1"));
        assert!(line.contains("\"cycles_per_ref\": 0.250000"));
        assert!(line.contains("\"inval_hist\": [0, "));
        assert!(!line.contains('\n'), "one line per window");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn counters_json_carries_every_field_and_the_digest() {
        let mut c = EventCounters::new();
        c.observe(&Outcome::quiet(Event::ReadHit));
        c.observe(&Outcome::quiet(Event::ReadMiss(MissContext::MemoryOnly)));
        let json = counters_json(&c);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"total\": 2"));
        assert!(json.contains("\"read_hits\": 1"));
        assert!(json.contains("\"rm_blk_mem\": 1"));
        assert!(json.contains("\"inval_hist\": [0, "));
        assert!(json.contains(&format!("\"digest\": \"{:016x}\"", c.digest())));
        assert!(!json.contains('\n'), "single line, embeddable in JSONL");
    }
}
