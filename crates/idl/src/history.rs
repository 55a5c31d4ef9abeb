//! Release-indexed schemas: the checked-in proto2 text of each shape a
//! message family takes over a system's releases, lowered on first use.

use crate::{lower, parse_proto};
use dup_wire::Schema;
use std::sync::OnceLock;

/// The shapes one message family takes across a system's releases.
///
/// Row `i` is `(first key, proto2 text)`: every key from that first key up
/// to the next row's executes that text. A family states its release →
/// shape mapping once, as these rows, and the text DUPChecker reads
/// ([`SchemaHistory::source_at`]) is the text the codecs run
/// ([`SchemaHistory::at`]).
///
/// # Examples
///
/// ```
/// use dup_idl::SchemaHistory;
///
/// static SINK: SchemaHistory<u32, 2> = SchemaHistory::new([
///     (1, "message Sink { required uint64 age = 1; }"),
///     (3, "message Sink { optional uint64 age = 1; }"),
/// ]);
/// assert_eq!(SINK.source_at(2), SINK.source_at(1));
/// assert!(SINK.at(4).message("Sink").is_some());
/// ```
pub struct SchemaHistory<K: 'static, const N: usize> {
    rows: [(K, &'static str); N],
    lowered: [OnceLock<Schema>; N],
}

impl<K: PartialOrd, const N: usize> SchemaHistory<K, N> {
    /// A history of `rows`, given in ascending key order.
    pub const fn new(rows: [(K, &'static str); N]) -> Self {
        SchemaHistory {
            rows,
            lowered: [const { OnceLock::new() }; N],
        }
    }

    /// The last row whose first key is ≤ `key`; the first row for a key
    /// older than all of them.
    fn row(&self, key: K) -> usize {
        self.rows
            .iter()
            .rposition(|(first, _)| *first <= key)
            .unwrap_or(0)
    }

    /// The schema `key` executes, parsed and lowered once per row.
    ///
    /// # Panics
    ///
    /// Panics if the row's text does not parse or lower — checked-in text,
    /// so a programming error, not a runtime condition.
    pub fn at(&self, key: K) -> &Schema {
        let row = self.row(key);
        self.lowered[row].get_or_init(|| {
            parse_proto(self.rows[row].1)
                .and_then(|file| lower(&file))
                .unwrap_or_else(|e| panic!("schema history row {row}: {e}"))
        })
    }

    /// The proto2 text `key` executes.
    pub fn source_at(&self, key: K) -> &'static str {
        self.rows[self.row(key)].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static HISTORY: SchemaHistory<u32, 3> = SchemaHistory::new([
        (10, "message M { required uint64 a = 1; }"),
        (20, "message M { optional uint64 a = 1; }"),
        (
            30,
            "message M { optional uint64 a = 1; optional bool b = 2; }",
        ),
    ]);

    #[test]
    fn a_key_executes_the_last_row_at_or_before_it() {
        for (key, row) in [(5, 0), (10, 0), (19, 0), (20, 1), (29, 1), (30, 2), (99, 2)] {
            assert_eq!(HISTORY.source_at(key), HISTORY.rows[row].1, "key {key}");
            assert!(std::ptr::eq(
                HISTORY.at(key),
                HISTORY.at(HISTORY.rows[row].0)
            ));
        }
        let fields = &HISTORY.at(30).message("M").unwrap().fields;
        assert_eq!(fields.len(), 2);
    }

    #[test]
    #[should_panic(expected = "schema history row 0")]
    fn bad_text_panics_with_its_row() {
        static BAD: SchemaHistory<u32, 1> =
            SchemaHistory::new([(0, "message M { optional Ghost g = 1; }")]);
        BAD.at(0);
    }
}
