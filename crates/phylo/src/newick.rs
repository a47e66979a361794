//! Newick tree serialization and parsing.
//!
//! Supports the common dialect: nested parentheses, node labels
//! (bare or single-quoted), and `:length` branch lengths, terminated by
//! `;`. This is the interchange format DrugTree would import trees
//! through (e.g. from an external phylogeny pipeline).

use crate::tree::{NodeId, Tree};
use crate::{PhyloError, Result};

/// Serialize a tree to a Newick string (with branch lengths).
///
/// Walks the tree with an explicit stack, so depth is bounded by memory
/// and not by the thread's stack: a caterpillar phylogeny of *n* leaves
/// is *n − 1* deep.
pub fn to_newick(tree: &Tree) -> String {
    let mut out = String::with_capacity(tree.len() * 8);
    // Each open node with the index of its next unwritten child.
    let mut open = vec![(tree.root(), 0usize)];
    while let Some((id, next)) = open.last_mut() {
        let node = tree.node_unchecked(*id);
        if let Some(&child) = node.children.get(*next) {
            out.push(if *next == 0 { '(' } else { ',' });
            *next += 1;
            open.push((child, 0));
            continue;
        }
        if !node.children.is_empty() {
            out.push(')');
        }
        if let Some(label) = &node.label {
            write_label(label, &mut out);
        }
        open.pop();
        if !open.is_empty() {
            out.push(':');
            // Trim trailing zeros for readability while keeping precision.
            let formatted = format!("{:.6}", node.branch_length);
            let trimmed = formatted.trim_end_matches('0').trim_end_matches('.');
            out.push_str(if trimmed.is_empty() { "0" } else { trimmed });
        }
    }
    out.push(';');
    out
}

fn write_label(label: &str, out: &mut String) {
    let needs_quote = label
        .bytes()
        .any(|b| matches!(b, b'(' | b')' | b',' | b':' | b';' | b'\'' | b' ' | b'\t'));
    if needs_quote {
        out.push('\'');
        for ch in label.chars() {
            if ch == '\'' {
                out.push('\'');
            }
            out.push(ch);
        }
        out.push('\'');
    } else {
        out.push_str(label);
    }
}

/// Parse a Newick string into a [`Tree`].
pub fn parse_newick(input: &str) -> Result<Tree> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let mut tree = Tree::with_root(None);
    p.parse_nodes(&mut tree)?;
    p.skip_ws();
    if !p.eat(b';') {
        return Err(p.err("expected ';'"));
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing input after ';'"));
    }
    Ok(tree)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> PhyloError {
        PhyloError::MalformedNewick {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b) if b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// Parse the whole nested node list into `tree`, whose root exists.
    ///
    /// Iterative over an explicit stack of the nodes whose `(` is still
    /// open: nesting depth is a property of the data (see
    /// [`to_newick`]), so there is no depth to refuse, only memory
    /// proportional to the input.
    fn parse_nodes(&mut self, tree: &mut Tree) -> Result<()> {
        let mut open: Vec<NodeId> = Vec::new();
        let mut id = tree.root();
        loop {
            self.skip_ws();
            if self.eat(b'(') {
                open.push(id);
                id = tree.add_child(id, None, 0.0)?;
                continue;
            }
            // `id` has all its children: read its label and length,
            // then close finished ancestors until a sibling starts.
            loop {
                self.parse_label_and_length(tree, id)?;
                self.skip_ws();
                let Some(&parent) = open.last() else {
                    return Ok(());
                };
                if self.eat(b',') {
                    id = tree.add_child(parent, None, 0.0)?;
                    break;
                }
                if !self.eat(b')') {
                    return Err(self.err("expected ',' or ')'"));
                }
                open.pop();
                id = parent;
            }
        }
    }

    fn parse_label_and_length(&mut self, tree: &mut Tree, id: NodeId) -> Result<()> {
        self.skip_ws();
        if let Some(label) = self.parse_label()? {
            tree.set_label(id, Some(label))?;
        }
        self.skip_ws();
        if self.eat(b':') {
            self.skip_ws();
            let len = self.parse_number()?;
            tree.set_branch_length(id, len)?;
        }
        Ok(())
    }

    fn parse_label(&mut self) -> Result<Option<String>> {
        match self.peek() {
            Some(b'\'') => {
                self.pos += 1;
                let mut label = String::new();
                loop {
                    match self.peek() {
                        Some(b'\'') => {
                            self.pos += 1;
                            // Doubled quote is an escaped quote.
                            if self.peek() == Some(b'\'') {
                                label.push('\'');
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                        Some(_) => {
                            // Advance one full UTF-8 character.
                            let rest = &self.bytes[self.pos..];
                            let s = std::str::from_utf8(rest)
                                .map_err(|_| self.err("invalid UTF-8 in label"))?;
                            let Some(ch) = s.chars().next() else {
                                return Err(self.err("unterminated quoted label"));
                            };
                            label.push(ch);
                            self.pos += ch.len_utf8();
                        }
                        None => return Err(self.err("unterminated quoted label")),
                    }
                }
                Ok(Some(label))
            }
            Some(b)
                if !matches!(b, b'(' | b')' | b',' | b':' | b';') && !b.is_ascii_whitespace() =>
            {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if matches!(b, b'(' | b')' | b',' | b':' | b';') || b.is_ascii_whitespace() {
                        break;
                    }
                    self.pos += 1;
                }
                let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in label"))?;
                // Underscores are conventional space stand-ins in bare labels.
                Ok(Some(raw.replace('_', " ")))
            }
            _ => Ok(None),
        }
    }

    fn parse_number(&mut self) -> Result<f64> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'-' | b'+' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(self.err("expected branch length after ':'"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|v| v.is_finite())
            .ok_or_else(|| self.err("invalid branch length"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let t = parse_newick("(A:0.1,B:0.2,(C:0.3,D:0.4)E:0.5)F;").unwrap();
        assert_eq!(t.leaf_count(), 4);
        assert_eq!(t.node(t.root()).unwrap().label.as_deref(), Some("F"));
        let e = t.find_by_label("E").unwrap();
        assert_eq!(t.node(e).unwrap().branch_length, 0.5);
        assert_eq!(t.node(e).unwrap().children.len(), 2);
        t.check_invariants().unwrap();
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let cases = [
            "(A:0.1,B:0.2,(C:0.3,D:0.4)E:0.5)F;",
            "((a:1,b:2):0.5,c:3);",
            "(leaf:0.000001,other:123.456);",
        ];
        for case in cases {
            let t1 = parse_newick(case).unwrap();
            let rendered = to_newick(&t1);
            let t2 = parse_newick(&rendered).unwrap();
            assert_eq!(t1, t2, "case {case} -> {rendered}");
        }
    }

    #[test]
    fn quoted_labels() {
        let t = parse_newick("('kinase A':1,'it''s':2);").unwrap();
        assert!(t.find_by_label("kinase A").is_ok());
        assert!(t.find_by_label("it's").is_ok());
        // Round-trip keeps the awkward labels.
        let t2 = parse_newick(&to_newick(&t)).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn underscores_become_spaces_in_bare_labels() {
        let t = parse_newick("(Homo_sapiens:1,Mus_musculus:2);").unwrap();
        assert!(t.find_by_label("Homo sapiens").is_ok());
    }

    #[test]
    fn scientific_notation_lengths() {
        let t = parse_newick("(a:1e-3,b:2.5E2);").unwrap();
        let a = t.find_by_label("a").unwrap();
        let b = t.find_by_label("b").unwrap();
        assert!((t.node(a).unwrap().branch_length - 0.001).abs() < 1e-12);
        assert!((t.node(b).unwrap().branch_length - 250.0).abs() < 1e-12);
    }

    #[test]
    fn whitespace_tolerated() {
        let t = parse_newick(" ( A : 1 ,\n B : 2 ) ;\n").unwrap();
        assert_eq!(t.leaf_count(), 2);
    }

    #[test]
    fn error_positions() {
        for bad in [
            "(A,B)",
            "(A,B;",
            "(A:,B);",
            "(A:1,B:2);x",
            "('unterminated:1);",
        ] {
            let err = parse_newick(bad).unwrap_err();
            assert!(
                matches!(err, PhyloError::MalformedNewick { .. }),
                "{bad} gave {err:?}"
            );
        }
    }

    /// Runs on an ordinary 2 MiB test-thread stack: the recursive
    /// parser and writer overflowed it (SIGABRT) well before this depth.
    #[test]
    fn nesting_depth_is_bounded_by_memory_not_the_stack() {
        const DEPTH: usize = 200_000;
        let text = format!("{}a{};", "(".repeat(DEPTH), ")".repeat(DEPTH));
        let tree = parse_newick(&text).unwrap();
        assert_eq!(tree.len(), DEPTH + 1);
        let index = crate::TreeIndex::build(&tree);
        assert_eq!(index.leaf_count(), 1);
        assert_eq!(index.depth(index.leaf_at(0).unwrap()) as usize, DEPTH);
        let rendered = to_newick(&tree);
        assert_eq!(rendered.len(), text.len() + ":0".len() * DEPTH);
        assert_eq!(parse_newick(&rendered).unwrap(), tree);

        // The same nest without its closers fails where the input ends.
        let unclosed = "(".repeat(DEPTH);
        match parse_newick(&unclosed).unwrap_err() {
            PhyloError::MalformedNewick { offset, .. } => assert_eq!(offset, DEPTH),
            other => panic!("expected MalformedNewick, got {other:?}"),
        }
        match parse_newick("((((").unwrap_err() {
            PhyloError::MalformedNewick { offset, .. } => assert_eq!(offset, 4),
            other => panic!("expected MalformedNewick, got {other:?}"),
        }
    }

    #[test]
    fn single_leaf_tree() {
        let t = parse_newick("A;").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.node(t.root()).unwrap().label.as_deref(), Some("A"));
        assert_eq!(to_newick(&t), "A;");
    }

    #[test]
    fn infinite_branch_length_rejected() {
        assert!(parse_newick("(a:1e999,b:1);").is_err());
    }
}
