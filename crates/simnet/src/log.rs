//! Captured simulation logs.
//!
//! Every node writes through [`crate::Ctx::log`] into a global, time-ordered
//! buffer. DUPTester's failure oracle (paper §6.1.1) treats error log
//! messages, exceptions, and crashes as indications of an upgrade failure, so
//! the buffer offers query helpers over levels and substrings.

use crate::time::SimTime;
use std::fmt;

/// Severity of a log record, mirroring the levels the studied systems use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LogLevel {
    /// Verbose diagnostics; never consulted by the oracle.
    Debug,
    /// Normal operational messages.
    Info,
    /// Suspicious but non-fatal conditions.
    Warn,
    /// Failed operations; the oracle flags these.
    Error,
    /// Conditions that terminate the node; the oracle flags these.
    Fatal,
}

impl LogLevel {
    /// Number of levels (size of per-level count tables).
    pub const COUNT: usize = 5;

    /// The level as a dense index (`Debug == 0` … `Fatal == 4`).
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for LogLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LogLevel::Debug => "DEBUG",
            LogLevel::Info => "INFO",
            LogLevel::Warn => "WARN",
            LogLevel::Error => "ERROR",
            LogLevel::Fatal => "FATAL",
        };
        f.write_str(s)
    }
}

/// One captured log line.
#[derive(Debug, Clone)]
pub struct LogRecord {
    /// When the line was emitted.
    pub time: SimTime,
    /// Emitting node id, or `None` for harness-level records.
    pub node: Option<u32>,
    /// Node generation (incremented on every restart/upgrade of the slot).
    pub generation: u64,
    /// Severity.
    pub level: LogLevel,
    /// Message text.
    pub message: String,
}

impl fmt::Display for LogRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            Some(n) => write!(
                f,
                "[{} n{}g{} {}] {}",
                self.time, n, self.generation, self.level, self.message
            ),
            None => write!(f, "[{} sim {}] {}", self.time, self.level, self.message),
        }
    }
}

/// A cursor into a [`LogBuffer`]: the buffer length and per-level counts at
/// the moment the mark was taken.
///
/// The buffer is append-only, so a mark stays valid forever and lets
/// consumers (the failure oracle, harness phases) scan only the records
/// appended since — and answer "any ERROR since the mark?" in O(1) by
/// differencing the count snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogMark {
    index: usize,
    counts: [usize; LogLevel::COUNT],
}

impl LogMark {
    /// The record index this mark points at (== buffer length at mark time).
    pub fn index(self) -> usize {
        self.index
    }
}

/// An append-only, time-ordered buffer of log records.
///
/// Per-level counts are maintained on push, so level queries
/// ([`LogBuffer::has_at_or_above`], [`LogBuffer::count_at_or_above`]) are
/// O(1) instead of a scan — they run inside oracle checks on every case.
#[derive(Debug, Default)]
pub struct LogBuffer {
    records: Vec<LogRecord>,
    level_counts: [usize; LogLevel::COUNT],
}

impl LogBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: LogRecord) {
        self.level_counts[record.level.index()] += 1;
        self.records.push(record);
    }

    /// Makes this buffer byte-identical to `src`, reusing retained record
    /// capacity (element-wise `clone_from`, so message strings keep their
    /// allocations when they fit).
    pub(crate) fn copy_from(&mut self, src: &LogBuffer) {
        self.records.truncate(src.records.len());
        for (dst, s) in self.records.iter_mut().zip(&src.records) {
            dst.time = s.time;
            dst.node = s.node;
            dst.generation = s.generation;
            dst.level = s.level;
            dst.message.clone_from(&s.message);
        }
        for s in &src.records[self.records.len()..] {
            self.records.push(s.clone());
        }
        self.level_counts = src.level_counts;
    }

    /// Returns all records in emission order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Returns the number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no records were captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Returns records whose message contains `needle`.
    pub fn matching<'a>(&'a self, needle: &'a str) -> impl Iterator<Item = &'a LogRecord> {
        self.records
            .iter()
            .filter(move |r| r.message.contains(needle))
    }

    /// Number of records at `level` or above. O(1).
    pub fn count_at_or_above(&self, level: LogLevel) -> usize {
        self.level_counts[level.index()..].iter().sum()
    }

    /// Returns `true` if any record at `level` or above exists. O(1).
    pub fn has_at_or_above(&self, level: LogLevel) -> bool {
        self.count_at_or_above(level) > 0
    }

    /// Takes a mark at the current buffer position.
    pub fn mark(&self) -> LogMark {
        LogMark {
            index: self.records.len(),
            counts: self.level_counts,
        }
    }

    /// The records appended since `mark` was taken.
    pub fn records_since(&self, mark: LogMark) -> &[LogRecord] {
        &self.records[mark.index..]
    }

    /// Number of records at `level` or above appended since `mark`. O(1).
    pub fn count_at_or_above_since(&self, level: LogLevel, mark: LogMark) -> usize {
        self.level_counts[level.index()..]
            .iter()
            .zip(&mark.counts[level.index()..])
            .map(|(now, then)| now - then)
            .sum()
    }

    /// Returns `true` if any record at `level` or above was appended since
    /// `mark`. O(1).
    pub fn has_at_or_above_since(&self, level: LogLevel, mark: LogMark) -> bool {
        self.count_at_or_above_since(level, mark) > 0
    }

    /// Returns records emitted at or after `since`.
    pub fn since(&self, since: SimTime) -> impl Iterator<Item = &LogRecord> {
        self.records.iter().filter(move |r| r.time >= since)
    }

    /// Renders the whole buffer, one record per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(level: LogLevel, msg: &str, t: u64) -> LogRecord {
        LogRecord {
            time: SimTime::from_millis(t),
            node: Some(1),
            generation: 0,
            level,
            message: msg.to_string(),
        }
    }

    #[test]
    fn levels_order_by_severity() {
        assert!(LogLevel::Fatal > LogLevel::Error);
        assert!(LogLevel::Error > LogLevel::Warn);
        assert!(LogLevel::Warn > LogLevel::Info);
        assert!(LogLevel::Info > LogLevel::Debug);
    }

    #[test]
    fn filters_by_level_and_pattern() {
        let mut buf = LogBuffer::new();
        buf.push(rec(LogLevel::Info, "starting up", 0));
        buf.push(rec(LogLevel::Error, "failed to parse fsimage", 10));
        buf.push(rec(LogLevel::Fatal, "aborting", 20));

        assert_eq!(buf.count_at_or_above(LogLevel::Error), 2);
        assert_eq!(buf.matching("fsimage").count(), 1);
        assert!(buf.has_at_or_above(LogLevel::Fatal));
        assert_eq!(buf.since(SimTime::from_millis(10)).count(), 2);
    }

    #[test]
    fn render_is_line_per_record() {
        let mut buf = LogBuffer::new();
        buf.push(rec(LogLevel::Warn, "slow heartbeat", 5));
        let text = buf.render();
        assert!(text.contains("WARN"));
        assert!(text.contains("slow heartbeat"));
        assert_eq!(text.lines().count(), 1);
    }

    #[test]
    fn empty_buffer_reports_empty() {
        let buf = LogBuffer::new();
        assert!(buf.is_empty());
        assert_eq!(buf.len(), 0);
        assert!(!buf.has_at_or_above(LogLevel::Debug));
    }

    #[test]
    fn level_counts_match_scans() {
        let mut buf = LogBuffer::new();
        buf.push(rec(LogLevel::Debug, "d", 0));
        buf.push(rec(LogLevel::Info, "i", 1));
        buf.push(rec(LogLevel::Error, "e1", 2));
        buf.push(rec(LogLevel::Error, "e2", 3));
        buf.push(rec(LogLevel::Fatal, "f", 4));
        for level in [
            LogLevel::Debug,
            LogLevel::Info,
            LogLevel::Warn,
            LogLevel::Error,
            LogLevel::Fatal,
        ] {
            assert_eq!(
                buf.count_at_or_above(level),
                buf.records().iter().filter(|r| r.level >= level).count(),
                "{level}"
            );
        }
    }

    #[test]
    fn marks_see_only_appended_records() {
        let mut buf = LogBuffer::new();
        buf.push(rec(LogLevel::Error, "before", 0));
        let mark = buf.mark();
        assert_eq!(mark.index(), 1);
        assert!(buf.records_since(mark).is_empty());
        assert!(!buf.has_at_or_above_since(LogLevel::Error, mark));

        buf.push(rec(LogLevel::Info, "after-1", 1));
        buf.push(rec(LogLevel::Fatal, "after-2", 2));
        let since: Vec<&str> = buf
            .records_since(mark)
            .iter()
            .map(|r| r.message.as_str())
            .collect();
        assert_eq!(since, vec!["after-1", "after-2"]);
        assert_eq!(buf.count_at_or_above_since(LogLevel::Error, mark), 1);
        assert!(buf.has_at_or_above_since(LogLevel::Fatal, mark));
        assert!(!buf.has_at_or_above_since(LogLevel::Error, buf.mark()));
    }
}
