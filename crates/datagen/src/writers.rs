//! Writers for the plain-text dataset formats of [`crate::loaders`].
//!
//! Exact inverses of the loaders (modulo comments/blank lines), so synthetic
//! datasets can be exported, shared, and re-loaded — and so the `paretofab`
//! CLI can hand partition contents to external tools.

use std::io::{self, Write};

use crate::dataset::{DataKind, Dataset, Payload};

/// Write a tree dataset as `parent-array;labels` lines.
pub fn write_trees<W: Write>(dataset: &Dataset, mut out: W) -> io::Result<()> {
    assert_eq!(dataset.kind, DataKind::Tree, "tree writer needs tree data");
    for item in &dataset.items {
        let Payload::Tree(tree) = &item.payload else {
            unreachable!("tree dataset holds tree payloads");
        };
        let parents: Vec<String> = tree.parents().iter().map(u32::to_string).collect();
        let labels: Vec<String> = tree.labels().iter().map(u32::to_string).collect();
        writeln!(out, "{};{}", parents.join(" "), labels.join(" "))?;
    }
    Ok(())
}

/// Write a graph dataset as `v: t1 t2 …` adjacency lines.
pub fn write_graph<W: Write>(dataset: &Dataset, mut out: W) -> io::Result<()> {
    assert_eq!(
        dataset.kind,
        DataKind::Graph,
        "graph writer needs graph data"
    );
    for item in &dataset.items {
        let Payload::Adjacency(ns) = &item.payload else {
            unreachable!("graph dataset holds adjacency payloads");
        };
        let targets: Vec<String> = ns.iter().map(u32::to_string).collect();
        writeln!(out, "{}: {}", item.id, targets.join(" "))?;
    }
    Ok(())
}

/// Write a text dataset as one token-id line per document.
pub fn write_text<W: Write>(dataset: &Dataset, mut out: W) -> io::Result<()> {
    assert_eq!(dataset.kind, DataKind::Text, "text writer needs text data");
    for item in &dataset.items {
        let Payload::Text(doc) = &item.payload else {
            unreachable!("text dataset holds document payloads");
        };
        let tokens: Vec<String> = doc.tokens.iter().map(u32::to_string).collect();
        writeln!(out, "{}", tokens.join(" "))?;
    }
    Ok(())
}

/// Dispatch on the dataset's kind.
pub fn write<W: Write>(dataset: &Dataset, out: W) -> io::Result<()> {
    match dataset.kind {
        DataKind::Tree => write_trees(dataset, out),
        DataKind::Graph => write_graph(dataset, out),
        DataKind::Text => write_text(dataset, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loaders;
    use std::io::Cursor;

    fn roundtrip(ds: &Dataset) -> Dataset {
        let mut buf = Vec::new();
        write(ds, &mut buf).unwrap();
        loaders::load(&ds.name, ds.kind, Cursor::new(buf)).unwrap()
    }

    #[test]
    fn trees_roundtrip() {
        let ds = crate::generators::swissprot_syn(5, 0.02);
        let back = roundtrip(&ds);
        assert_eq!(back.len(), ds.len());
        for (a, b) in ds.items.iter().zip(&back.items) {
            assert_eq!(a.payload, b.payload);
            assert_eq!(a.items, b.items, "itemization must be reproducible");
        }
    }

    #[test]
    fn text_roundtrip() {
        let ds = crate::generators::rcv1_syn(5, 0.01);
        let back = roundtrip(&ds);
        assert_eq!(back.len(), ds.len());
        for (a, b) in ds.items.iter().zip(&back.items) {
            assert_eq!(a.payload, b.payload);
        }
    }

    #[test]
    fn graph_roundtrip() {
        let ds = crate::generators::uk_syn(5, 0.01);
        let back = roundtrip(&ds);
        // Re-loading may add isolated vertices only if ids exceeded n-1;
        // vertex records themselves must match.
        assert!(back.len() >= ds.len());
        for item in &ds.items {
            let b = &back.items[item.id as usize];
            assert_eq!(item.payload, b.payload);
        }
    }

    #[test]
    #[should_panic(expected = "tree writer needs tree data")]
    fn kind_mismatch_panics() {
        let ds = crate::generators::rcv1_syn(5, 0.01);
        let mut buf = Vec::new();
        write_trees(&ds, &mut buf).unwrap();
    }
}
