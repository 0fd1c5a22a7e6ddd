//! Loaders for simple on-disk formats, for users who have the real corpora.
//!
//! The paper's datasets come from the UW XML repository (trees), the LAW
//! lab (web graphs) and RCV1 (text). Those distributions need heavyweight
//! parsers; here we support the pre-processed plain-text forms those
//! communities commonly exchange:
//!
//! * **Trees**: one tree per line as `parent-array;labels`, e.g.
//!   `0 0 1;12 7 9` (space-separated `u32`s, `;`-separated sections).
//! * **Graphs**: adjacency text — line `v: t1 t2 t3` (targets of vertex v,
//!   vertices in ascending order, `:` optional).
//! * **Text**: one document per line, tokens as space-separated integer ids.

use std::io::BufRead;

use crate::dataset::{DataKind, Dataset};
use crate::graph::AdjacencyGraph;
use crate::text::Document;
use crate::tree::{LabeledTree, TreeError};

/// Errors from the loaders.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number.
    Parse { line: usize, message: String },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "io error: {e}"),
            LoadError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<TreeError> for LoadError {
    fn from(e: TreeError) -> Self {
        LoadError::Parse {
            line: 0,
            message: e.to_string(),
        }
    }
}

fn parse_u32s(s: &str, line: usize) -> Result<Vec<u32>, LoadError> {
    s.split_whitespace()
        .map(|tok| {
            tok.parse::<u32>().map_err(|e| LoadError::Parse {
                line,
                message: format!("bad integer {tok:?}: {e}"),
            })
        })
        .collect()
}

/// Load a tree dataset from `parent-array;labels` lines.
pub fn load_trees<R: BufRead>(name: &str, reader: R) -> Result<Dataset, LoadError> {
    let mut trees = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = i + 1;
        let (parents, labels) = line.split_once(';').ok_or_else(|| LoadError::Parse {
            line: lineno,
            message: "missing ';' separator".into(),
        })?;
        let parent = parse_u32s(parents, lineno)?;
        let labels = parse_u32s(labels, lineno)?;
        let tree = LabeledTree::new(parent, labels).map_err(|e| LoadError::Parse {
            line: lineno,
            message: e.to_string(),
        })?;
        trees.push(tree);
    }
    Ok(Dataset::from_trees(name, trees))
}

/// Load a graph dataset from adjacency-text lines (`v: t1 t2 …`).
///
/// Vertices absent from the file are isolated. The vertex count is
/// `max(vertex id, max target id) + 1`.
pub fn load_graph<R: BufRead>(name: &str, reader: R) -> Result<Dataset, LoadError> {
    let mut rows: Vec<(u32, Vec<u32>)> = Vec::new();
    let mut max_id = 0u32;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = i + 1;
        let (head, rest) = match line.split_once(':') {
            Some((h, r)) => (h.trim(), r),
            None => {
                // `v t1 t2 …` without the colon.
                match line.split_once(char::is_whitespace) {
                    Some((h, r)) => (h, r),
                    None => (line, ""),
                }
            }
        };
        let v: u32 = head.parse().map_err(|e| LoadError::Parse {
            line: lineno,
            message: format!("bad vertex id {head:?}: {e}"),
        })?;
        let targets = parse_u32s(rest, lineno)?;
        max_id = max_id
            .max(v)
            .max(targets.iter().copied().max().unwrap_or(0));
        rows.push((v, targets));
    }
    let n = if rows.is_empty() {
        0
    } else {
        max_id as usize + 1
    };
    let mut lists = vec![Vec::new(); n];
    for (v, targets) in rows {
        lists[v as usize].extend(targets);
    }
    let graph = AdjacencyGraph::from_adjacency(lists);
    Ok(Dataset::from_graph(name, &graph))
}

/// Load a text dataset: one document per line, integer word ids.
pub fn load_text<R: BufRead>(name: &str, reader: R) -> Result<Dataset, LoadError> {
    let mut docs = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        docs.push(Document::new(parse_u32s(line, i + 1)?));
    }
    Ok(Dataset::from_documents(name, docs))
}

/// Dispatch on [`DataKind`].
pub fn load<R: BufRead>(name: &str, kind: DataKind, reader: R) -> Result<Dataset, LoadError> {
    match kind {
        DataKind::Tree => load_trees(name, reader),
        DataKind::Graph => load_graph(name, reader),
        DataKind::Text => load_text(name, reader),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn loads_trees() {
        let input = "# comment\n0 0 1;5 6 7\n0 0;1 2\n";
        let ds = load_trees("t", Cursor::new(input)).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.kind, DataKind::Tree);
        assert_eq!(ds.items[0].payload.element_count(), 3);
    }

    #[test]
    fn tree_parse_errors_carry_line() {
        let input = "0 0 1\n"; // missing ';'
        let err = load_trees("t", Cursor::new(input)).unwrap_err();
        match err {
            LoadError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn loads_graph_with_and_without_colon() {
        let input = "0: 1 2\n1 2\n"; // second line: vertex 1 -> {2}
        let ds = load_graph("g", Cursor::new(input)).unwrap();
        assert_eq!(ds.len(), 3); // vertices 0,1,2 (2 isolated)
        match &ds.items[0].payload {
            crate::dataset::Payload::Adjacency(ns) => assert_eq!(ns, &[1, 2]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn loads_text() {
        let ds = load_text("x", Cursor::new("1 2 3\n\n4 4 5\n")).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.items[1].items.as_slice(), &[4, 5]);
    }

    #[test]
    fn empty_input_yields_empty_dataset() {
        let ds = load_text("x", Cursor::new("")).unwrap();
        assert!(ds.is_empty());
        let dg = load_graph("g", Cursor::new("")).unwrap();
        assert!(dg.is_empty());
    }

    #[test]
    fn dispatch_load() {
        let ds = load("d", DataKind::Text, Cursor::new("9 8\n")).unwrap();
        assert_eq!(ds.kind, DataKind::Text);
        assert_eq!(ds.len(), 1);
    }
}
