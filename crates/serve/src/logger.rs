//! Serialized, timestamped structured logging for the daemon.
//!
//! Every log line is formatted *completely* into a `String` first and
//! only then written with a single `write_all` under one mutex — so
//! concurrent worker threads can never interleave mid-line (a
//! multi-threaded test pins this). Lines carry an ISO-8601 UTC
//! timestamp (hand-rolled from `SystemTime`; the container is offline
//! and the workspace is std-only), a level, a message, and typed
//! key=value fields. `--log-json` switches the same fields to one JSON
//! object per line for machine ingestion.

use std::io::Write;
use std::sync::Mutex;
use std::time::SystemTime;

use dircc_obs::escape;

/// Log severity. The daemon uses `Info` for served requests and `Warn`
/// for refusals/errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    Info,
    Warn,
    Error,
}

impl Level {
    fn label(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// A typed field value, so JSON output keeps numbers as numbers.
#[derive(Debug, Clone)]
pub enum LogValue {
    Str(String),
    Uint(u64),
    Float(f64),
}

impl From<&str> for LogValue {
    fn from(v: &str) -> Self {
        LogValue::Str(v.to_string())
    }
}

impl From<String> for LogValue {
    fn from(v: String) -> Self {
        LogValue::Str(v)
    }
}

impl From<u64> for LogValue {
    fn from(v: u64) -> Self {
        LogValue::Uint(v)
    }
}

impl From<u16> for LogValue {
    fn from(v: u16) -> Self {
        LogValue::Uint(u64::from(v))
    }
}

impl From<f64> for LogValue {
    fn from(v: f64) -> Self {
        LogValue::Float(v)
    }
}

struct Inner {
    sink: Mutex<Box<dyn Write + Send>>,
    json: bool,
}

/// A line-serialized structured logger. Cheap to share by reference;
/// [`Logger::disabled`] short-circuits every call.
pub struct Logger {
    inner: Option<Inner>,
}

impl Logger {
    /// Logs to stderr; `json` switches to JSON-lines format.
    pub fn stderr(json: bool) -> Logger {
        Logger::to_sink(Box::new(std::io::stderr()), json)
    }

    /// Logs to an arbitrary sink (tests use a shared buffer).
    pub fn to_sink(sink: Box<dyn Write + Send>, json: bool) -> Logger {
        Logger { inner: Some(Inner { sink: Mutex::new(sink), json }) }
    }

    /// Swallows everything (`--quiet` daemons, unit tests).
    pub fn disabled() -> Logger {
        Logger { inner: None }
    }

    pub fn info(&self, msg: &str, fields: &[(&str, LogValue)]) {
        self.log(Level::Info, msg, fields);
    }

    pub fn warn(&self, msg: &str, fields: &[(&str, LogValue)]) {
        self.log(Level::Warn, msg, fields);
    }

    pub fn error(&self, msg: &str, fields: &[(&str, LogValue)]) {
        self.log(Level::Error, msg, fields);
    }

    /// Formats the whole line, then writes it in one call under the
    /// sink mutex — the no-mid-line-interleaving invariant.
    pub fn log(&self, level: Level, msg: &str, fields: &[(&str, LogValue)]) {
        let Some(inner) = &self.inner else { return };
        let line = render_line(inner.json, SystemTime::now(), level, msg, fields);
        let mut sink = inner.sink.lock().expect("log sink");
        let _ = sink.write_all(line.as_bytes());
        let _ = sink.flush();
    }
}

/// Renders one complete log line, newline-terminated.
fn render_line(
    json: bool,
    at: SystemTime,
    level: Level,
    msg: &str,
    fields: &[(&str, LogValue)],
) -> String {
    use std::fmt::Write as _;
    let ts = timestamp_utc(at);
    let mut line = String::with_capacity(128);
    if json {
        let _ = write!(
            line,
            "{{\"ts\": \"{ts}\", \"level\": \"{}\", \"msg\": \"{}\"",
            level.label(),
            escape(msg)
        );
        for (name, value) in fields {
            match value {
                LogValue::Str(s) => {
                    let _ = write!(line, ", \"{}\": \"{}\"", escape(name), escape(s));
                }
                LogValue::Uint(n) => {
                    let _ = write!(line, ", \"{}\": {n}", escape(name));
                }
                LogValue::Float(f) => {
                    let _ = write!(line, ", \"{}\": {f:.3}", escape(name));
                }
            }
        }
        line.push('}');
    } else {
        let _ = write!(line, "{ts} {:<5} {msg}", level.label().to_ascii_uppercase());
        for (name, value) in fields {
            match value {
                LogValue::Str(s) => {
                    let _ = write!(line, " {name}={s}");
                }
                LogValue::Uint(n) => {
                    let _ = write!(line, " {name}={n}");
                }
                LogValue::Float(f) => {
                    let _ = write!(line, " {name}={f:.3}");
                }
            }
        }
    }
    line.push('\n');
    line
}

/// `2026-08-09T12:34:56.789Z` — ISO-8601 UTC with milliseconds,
/// computed from the Unix epoch with the standard civil-from-days
/// calendar algorithm (proleptic Gregorian).
pub fn timestamp_utc(at: SystemTime) -> String {
    let since = at.duration_since(SystemTime::UNIX_EPOCH).unwrap_or_default();
    let secs = since.as_secs();
    let millis = since.subsec_millis();
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (year, month, day) = civil_from_days(days);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}.{millis:03}Z",
        rem / 3600,
        (rem / 60) % 60,
        rem % 60
    )
}

/// Days-since-epoch → (year, month, day), proleptic Gregorian.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // day of era [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// A `Write` that appends into a shared buffer — lets the test
    /// inspect exactly what reached the sink, across threads.
    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn timestamps_are_iso8601_utc() {
        let t = SystemTime::UNIX_EPOCH + Duration::from_millis(0);
        assert_eq!(timestamp_utc(t), "1970-01-01T00:00:00.000Z");
        // 2026-08-09 00:00:00 UTC = 1786233600.
        let t = SystemTime::UNIX_EPOCH + Duration::from_secs(1_786_233_600);
        assert_eq!(timestamp_utc(t), "2026-08-09T00:00:00.000Z");
        // Leap-year day: 2024-02-29 12:30:45.678 = 1709209845.678.
        let t = SystemTime::UNIX_EPOCH + Duration::from_millis(1_709_209_845_678);
        assert_eq!(timestamp_utc(t), "2024-02-29T12:30:45.678Z");
    }

    #[test]
    fn text_lines_carry_level_message_and_fields() {
        let line = render_line(
            false,
            SystemTime::UNIX_EPOCH,
            Level::Info,
            "request",
            &[("path", "/run".into()), ("status", 200u16.into()), ("wall_ms", 1.25f64.into())],
        );
        assert_eq!(
            line,
            "1970-01-01T00:00:00.000Z INFO  request path=/run status=200 wall_ms=1.250\n"
        );
    }

    #[test]
    fn json_lines_parse_and_keep_number_types() {
        let line = render_line(
            true,
            SystemTime::UNIX_EPOCH,
            Level::Warn,
            "refused",
            &[("status", 429u16.into()), ("peer", "with \"quotes\"".into())],
        );
        assert!(line.ends_with('\n'));
        let v = crate::json::parse(line.trim_end().as_bytes()).expect("valid JSON");
        let obj = v.as_obj().expect("object");
        assert_eq!(obj.get("level").and_then(crate::json::Json::as_str), Some("warn"));
        assert_eq!(obj.get("status").and_then(crate::json::Json::as_u64), Some(429));
        assert_eq!(obj.get("peer").and_then(crate::json::Json::as_str), Some("with \"quotes\""));
    }

    #[test]
    fn concurrent_loggers_never_interleave_mid_line() {
        // The satellite pin: 8 threads x 200 lines through one logger;
        // every line in the sink must be complete and well-formed.
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let logger = Logger::to_sink(Box::new(buf.clone()), false);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let logger = &logger;
                s.spawn(move || {
                    for i in 0..200u64 {
                        logger.info("request", &[("thread", t.into()), ("seq", i.into())]);
                    }
                });
            }
        });
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).expect("utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1600);
        for line in &lines {
            assert!(
                line.contains(" INFO  request thread=") && line.contains(" seq="),
                "torn line: {line:?}"
            );
            assert_eq!(line.matches("INFO").count(), 1, "two lines fused: {line:?}");
        }
    }

    #[test]
    fn disabled_logger_is_silent() {
        // Nothing to assert beyond "does not panic and writes nowhere".
        Logger::disabled().info("x", &[("k", "v".into())]);
    }
}
