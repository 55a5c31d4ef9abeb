//! Versioned schema corpora and the checker driver that produces Table 6.
//!
//! We cannot ship the Apache codebases the paper scanned, so [`generate`]
//! builds synthetic corpora with a *specified* number of seeded violations
//! per system — the per-system ERR/WARN counts of Table 6 — using the same
//! violation categories. The checker then has to find exactly what was
//! seeded; any drift is a checker bug caught by the tests.

use crate::compare::{compare_files, Severity, Violation};
use dup_core::VersionId;
use dup_idl::{parse_proto, parse_thrift, IdlFile, ParseError, SyntaxKind};
use std::fmt;

/// One version of a system's protocol files.
#[derive(Debug, Clone)]
pub struct CorpusVersion {
    /// Release version.
    pub version: VersionId,
    /// `(file name, source text)` pairs.
    pub files: Vec<(String, String)>,
}

/// A system's protocol-file history.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// System name (Table 6 row label).
    pub system: String,
    /// Which grammar the files use.
    pub syntax: SyntaxKind,
    /// Versions, oldest first.
    pub versions: Vec<CorpusVersion>,
}

/// Checker output for one version pair.
#[derive(Debug, Clone)]
pub struct PairReport {
    /// Old version.
    pub from: VersionId,
    /// New version.
    pub to: VersionId,
    /// All violations.
    pub violations: Vec<Violation>,
}

impl PairReport {
    /// Number of error-severity violations.
    pub fn errors(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity violations.
    pub fn warnings(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity() == Severity::Warning)
            .count()
    }
}

/// Checker output for one system: Table 6's row.
#[derive(Debug, Clone)]
pub struct CorpusReport {
    /// System name.
    pub system: String,
    /// Per-consecutive-pair results.
    pub pairs: Vec<PairReport>,
}

impl CorpusReport {
    /// Total errors across all pairs.
    pub fn errors(&self) -> usize {
        self.pairs.iter().map(PairReport::errors).sum()
    }

    /// Total warnings across all pairs.
    pub fn warnings(&self) -> usize {
        self.pairs.iter().map(PairReport::warnings).sum()
    }
}

impl fmt::Display for CorpusReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:>6} errors {:>6} warnings",
            self.system,
            self.errors(),
            self.warnings()
        )
    }
}

/// Parses every file of a corpus version and merges the declarations.
pub fn parse_version(syntax: SyntaxKind, cv: &CorpusVersion) -> Result<IdlFile, ParseError> {
    let mut merged = IdlFile {
        syntax,
        package: None,
        messages: Vec::new(),
        enums: Vec::new(),
    };
    for (_, source) in &cv.files {
        let file = match syntax {
            SyntaxKind::Proto2 => parse_proto(source)?,
            SyntaxKind::Thrift => parse_thrift(source)?,
        };
        merged.messages.extend(file.messages);
        merged.enums.extend(file.enums);
        if merged.package.is_none() {
            merged.package = file.package;
        }
    }
    Ok(merged)
}

/// Runs the type-1 checker across every consecutive version pair.
pub fn check_corpus(corpus: &Corpus) -> Result<CorpusReport, ParseError> {
    let mut report = CorpusReport {
        system: corpus.system.clone(),
        pairs: Vec::new(),
    };
    // Each version is parsed once: one pair's `new` is the next pair's `old`.
    let mut carried: Option<IdlFile> = None;
    for pair in corpus.versions.windows(2) {
        let old = match carried.take() {
            Some(file) => file,
            None => parse_version(corpus.syntax, &pair[0])?,
        };
        let new = parse_version(corpus.syntax, &pair[1])?;
        report.pairs.push(PairReport {
            from: pair[0].version,
            to: pair[1].version,
            violations: compare_files(&old, &new),
        });
        carried = Some(new);
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Corpus generation
// ---------------------------------------------------------------------------

/// Specification for a generated corpus: how many violations of each
/// severity the version pair should contain.
#[derive(Debug, Clone)]
pub struct CorpusSpec {
    /// System name.
    pub system: &'static str,
    /// Grammar.
    pub syntax: SyntaxKind,
    /// Seeded error-severity violations.
    pub errors: usize,
    /// Seeded warning-severity violations.
    pub warnings: usize,
    /// Unchanged messages added for realism.
    pub stable_messages: usize,
}

/// The per-system ERR/WARN counts of the paper's Table 6.
pub fn table6_specs() -> Vec<CorpusSpec> {
    vec![
        CorpusSpec {
            system: "HBase",
            syntax: SyntaxKind::Proto2,
            errors: 7,
            warnings: 23,
            stable_messages: 24,
        },
        CorpusSpec {
            system: "HDFS",
            syntax: SyntaxKind::Proto2,
            errors: 21,
            warnings: 47,
            stable_messages: 40,
        },
        CorpusSpec {
            system: "Mesos",
            syntax: SyntaxKind::Proto2,
            errors: 8,
            warnings: 12,
            stable_messages: 16,
        },
        CorpusSpec {
            system: "YARN",
            syntax: SyntaxKind::Proto2,
            errors: 42,
            warnings: 0,
            stable_messages: 30,
        },
        CorpusSpec {
            system: "Accumulo",
            syntax: SyntaxKind::Thrift,
            errors: 20,
            warnings: 0,
            stable_messages: 18,
        },
        CorpusSpec {
            system: "Hive",
            syntax: SyntaxKind::Proto2,
            errors: 260,
            warnings: 0,
            stable_messages: 60,
        },
        CorpusSpec {
            system: "Impala",
            syntax: SyntaxKind::Thrift,
            errors: 342,
            warnings: 96,
            stable_messages: 50,
        },
    ]
}

fn msg_proto(name: &str, fields: &[(&str, &str, &str, u32)]) -> String {
    let mut s = format!("message {name} {{\n");
    for (label, ty, fname, tag) in fields {
        s.push_str(&format!("    {label} {ty} {fname} = {tag};\n"));
    }
    s.push_str("}\n");
    s
}

fn msg_thrift(name: &str, fields: &[(&str, &str, &str, u32)]) -> String {
    let mut s = format!("struct {name} {{\n");
    for (label, ty, fname, tag) in fields {
        let ty = match *ty {
            "uint64" => "i64",
            "uint32" => "i32",
            "string" => "string",
            other => other,
        };
        let label = if *label == "repeated" {
            "optional".to_string()
        } else {
            (*label).to_string()
        };
        s.push_str(&format!("    {tag}: {label} {ty} {fname},\n"));
    }
    s.push_str("}\n");
    s
}

fn msg(syntax: SyntaxKind, name: &str, fields: &[(&str, &str, &str, u32)]) -> String {
    match syntax {
        SyntaxKind::Proto2 => msg_proto(name, fields),
        SyntaxKind::Thrift => msg_thrift(name, fields),
    }
}

fn enum_src(syntax: SyntaxKind, name: &str, members: &[(&str, i32)]) -> String {
    match syntax {
        SyntaxKind::Proto2 => {
            let mut s = format!("enum {name} {{\n");
            for (m, n) in members {
                s.push_str(&format!("    {m} = {n};\n"));
            }
            s.push_str("}\n");
            s
        }
        SyntaxKind::Thrift => {
            let mut s = format!("enum {name} {{\n");
            for (m, n) in members {
                s.push_str(&format!("    {m} = {n},\n"));
            }
            s.push_str("}\n");
            s
        }
    }
}

/// Generates a two-version corpus with exactly `spec.errors` error-severity
/// and `spec.warnings` warning-severity seeded violations.
///
/// Error kinds rotate through: required-added, tag-changed, required-removed,
/// type-changed. Warning kinds rotate through: required-downgraded,
/// enum-missing-zero. HBase's corpus additionally opens with the literal
/// `ReplicationLoadSink` diff of the paper's Figure 2 (counted in its 7).
pub fn generate(spec: &CorpusSpec) -> Corpus {
    let s = spec.syntax;
    let mut old_files: Vec<(String, String)> = Vec::new();
    let mut new_files: Vec<(String, String)> = Vec::new();

    let mut errors_left = spec.errors;
    if spec.system == "HBase" && errors_left > 0 {
        // Figure 2, verbatim mechanism.
        old_files.push((
            "ReplicationLoadSink.proto".to_string(),
            msg(
                s,
                "ReplicationLoadSink",
                &[("required", "uint64", "ageOfLastAppliedOp", 1)],
            ),
        ));
        new_files.push((
            "ReplicationLoadSink.proto".to_string(),
            msg(
                s,
                "ReplicationLoadSink",
                &[
                    ("required", "uint64", "ageOfLastAppliedOp", 1),
                    ("required", "uint64", "timestampStarted", 3),
                ],
            ),
        ));
        errors_left -= 1;
    }

    for i in 0..errors_left {
        let name = format!("{}ErrMsg{i}", spec.system);
        let base = [
            ("required", "uint64", "id", 1u32),
            ("optional", "string", "note", 2),
        ];
        let mutated: Vec<(&str, &str, &str, u32)> = match i % 4 {
            0 => vec![
                ("required", "uint64", "id", 1),
                ("optional", "string", "note", 2),
                ("required", "uint64", "injected", 3),
            ],
            1 => vec![
                ("required", "uint64", "id", 7),
                ("optional", "string", "note", 2),
            ],
            2 => vec![("optional", "string", "note", 2)],
            _ => vec![
                ("required", "string", "id", 1),
                ("optional", "string", "note", 2),
            ],
        };
        old_files.push((format!("{name}.idl"), msg(s, &name, &base)));
        new_files.push((format!("{name}.idl"), msg(s, &name, &mutated)));
    }

    for i in 0..spec.warnings {
        let name = format!("{}WarnItem{i}", spec.system);
        if i % 2 == 0 {
            // Required downgraded to optional.
            let base = [("required", "uint64", "token", 1u32)];
            let mutated = [("optional", "uint64", "token", 1u32)];
            old_files.push((format!("{name}.idl"), msg(s, &name, &base)));
            new_files.push((format!("{name}.idl"), msg(s, &name, &mutated)));
        } else {
            // Enum membership change without a zero value.
            let old_members = [("ALPHA", 1), ("BETA", 2)];
            let new_members = [("ALPHA", 1), ("BETA", 2), ("GAMMA", 3)];
            old_files.push((format!("{name}.idl"), enum_src(s, &name, &old_members)));
            new_files.push((format!("{name}.idl"), enum_src(s, &name, &new_members)));
        }
    }

    for i in 0..spec.stable_messages {
        let name = format!("{}Stable{i}", spec.system);
        let fields = [
            ("required", "uint64", "key", 1u32),
            ("optional", "string", "value", 2),
            ("repeated", "uint64", "children", 3),
        ];
        let src = msg(s, &name, &fields);
        old_files.push((format!("{name}.idl"), src.clone()));
        // New version compatibly adds an optional field — must NOT be flagged.
        let extended = [
            ("required", "uint64", "key", 1u32),
            ("optional", "string", "value", 2),
            ("repeated", "uint64", "children", 3),
            ("optional", "uint64", "added_compatibly", 4),
        ];
        new_files.push((format!("{name}.idl"), msg(s, &name, &extended)));
    }

    Corpus {
        system: spec.system.to_string(),
        syntax: s,
        versions: vec![
            CorpusVersion {
                version: VersionId::new(1, 0, 0),
                files: old_files,
            },
            CorpusVersion {
                version: VersionId::new(2, 0, 0),
                files: new_files,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_corpora_check_to_their_spec() {
        for spec in table6_specs() {
            let corpus = generate(&spec);
            let report = check_corpus(&corpus).unwrap();
            assert_eq!(report.errors(), spec.errors, "{} errors", spec.system);
            assert_eq!(report.warnings(), spec.warnings, "{} warnings", spec.system);
        }
    }

    #[test]
    fn table6_totals_match_the_paper() {
        let specs = table6_specs();
        let errors: usize = specs.iter().map(|s| s.errors).sum();
        let warnings: usize = specs.iter().map(|s| s.warnings).sum();
        assert_eq!(errors, 700);
        assert_eq!(warnings, 178);
        assert_eq!(specs.len(), 7);
    }

    #[test]
    fn hbase_corpus_contains_figure_2() {
        let spec = table6_specs()
            .into_iter()
            .find(|s| s.system == "HBase")
            .unwrap();
        let corpus = generate(&spec);
        let report = check_corpus(&corpus).unwrap();
        let has_fig2 = report.pairs.iter().flat_map(|p| &p.violations).any(|v| {
            matches!(v, Violation::RequiredAdded { message, field }
                if message == "ReplicationLoadSink" && field == "timestampStarted")
        });
        assert!(has_fig2);
    }

    #[test]
    fn stable_messages_stay_clean() {
        let spec = CorpusSpec {
            system: "Clean",
            syntax: SyntaxKind::Proto2,
            errors: 0,
            warnings: 0,
            stable_messages: 10,
        };
        let report = check_corpus(&generate(&spec)).unwrap();
        assert_eq!(report.errors(), 0);
        assert_eq!(report.warnings(), 0);
    }

    #[test]
    fn thrift_corpora_generate_and_check() {
        let spec = CorpusSpec {
            system: "ThriftSys",
            syntax: SyntaxKind::Thrift,
            errors: 5,
            warnings: 3,
            stable_messages: 4,
        };
        let report = check_corpus(&generate(&spec)).unwrap();
        assert_eq!(report.errors(), 5);
        assert_eq!(report.warnings(), 3);
    }

    #[test]
    fn longer_histories_check_like_their_pairs() {
        // Generated corpora have two versions; append the old one again as a
        // third, so the middle version is the `new` of one pair and the `old`
        // of the next, and the second pair undoes the first.
        let mut corpus = generate(&table6_specs()[0]);
        let mut third = corpus.versions[0].clone();
        third.version = VersionId::new(9, 9, 9);
        corpus.versions.push(third);
        let report = check_corpus(&corpus).unwrap();
        assert_eq!(report.pairs.len(), 2);
        for (pair, got) in corpus.versions.windows(2).zip(&report.pairs) {
            let old = parse_version(corpus.syntax, &pair[0]).unwrap();
            let new = parse_version(corpus.syntax, &pair[1]).unwrap();
            assert_eq!((got.from, got.to), (pair[0].version, pair[1].version));
            assert_eq!(got.violations, compare_files(&old, &new));
            assert!(!got.violations.is_empty());
        }
        assert_ne!(report.pairs[0].violations, report.pairs[1].violations);
    }
}
