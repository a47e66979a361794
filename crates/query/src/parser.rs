//! The DrugTree text query language.
//!
//! ```text
//! activities in subtree('cladeA') where p_activity >= 6.5 and mw < 500
//!     top 20 by p_activity desc
//! activities in tree where ligand_id in ('L1', 'L2')
//! activities in leaves('P1', 'P3') similar to 'CCO' >= 0.6
//! activities in tree containing 'c1ccccc1' where p_activity >= 6
//! aggregate max_p_activity in subtree('cladeB')
//! count per leaf in tree where year >= 2010
//! ```
//!
//! Grammar (keywords case-insensitive; strings single-quoted):
//!
//! ```text
//! query    := kind scope? where? containing? similar? top?
//! kind     := 'activities' | 'aggregate' metric | 'count' 'per' 'leaf'
//! metric   := 'count' | 'distinct_ligands' | 'max_p_activity' | 'mean_p_activity'
//! scope    := 'in' ('tree' | 'subtree' '(' string ')' | 'leaves' '(' string (',' string)* ')')
//! where    := 'where' or_expr
//! or_expr  := and_expr ('or' and_expr)*
//! and_expr := atom ('and' atom)*
//! atom     := '(' or_expr ')' | 'not' atom | 'true' | 'false'
//!           | ident cmp literal
//!           | ident 'between' literal 'and' literal
//!           | ident 'in' '(' literal (',' literal)* ')'
//!           | ident 'is' 'null'
//! containing := 'containing' string
//! similar  := 'similar' 'to' string ('>=' number)?
//! top      := 'top' int ('by' ident)? ('asc' | 'desc')?
//! ```
//!
//! An atom may sit inside at most [`MAX_PREDICATE_DEPTH`] levels of
//! `(` and `not`; deeper text is a parse error at the offending token,
//! raised on descent, before any of the nested tree is built.

use crate::ast::{Metric, Query, QueryKind, Scope, SimilaritySpec, MAX_PREDICATE_DEPTH};
use crate::{QueryError, Result};
use drugtree_store::expr::{CompareOp, Predicate};
use drugtree_store::value::Value;

/// Parse query text into a [`Query`].
pub fn parse_query(text: &str) -> Result<Query> {
    let tokens = tokenize(text)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let q = p.parse_query()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("unexpected trailing input"));
    }
    Ok(q)
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Str(String),
    Num(f64),
    Int(i64),
    Sym(&'static str),
}

fn tokenize(text: &str) -> Result<Vec<(usize, Token)>> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        match b {
            b'\'' => {
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        Some(b'\'') => {
                            i += 1;
                            if bytes.get(i) == Some(&b'\'') {
                                s.push('\'');
                                i += 1;
                            } else {
                                break;
                            }
                        }
                        Some(_) => {
                            let rest = &text[i..];
                            let Some(ch) = rest.chars().next() else {
                                return Err(QueryError::Parse {
                                    offset: start,
                                    message: "unterminated string".into(),
                                });
                            };
                            s.push(ch);
                            i += ch.len_utf8();
                        }
                        None => {
                            return Err(QueryError::Parse {
                                offset: start,
                                message: "unterminated string".into(),
                            })
                        }
                    }
                }
                out.push((start, Token::Str(s)));
            }
            b'(' | b')' | b',' => {
                i += 1;
                out.push((
                    start,
                    Token::Sym(match b {
                        b'(' => "(",
                        b')' => ")",
                        _ => ",",
                    }),
                ));
            }
            b'<' | b'>' | b'=' | b'!' => {
                let two = bytes.get(i + 1) == Some(&b'=');
                let sym = match (b, two) {
                    (b'<', true) => "<=",
                    (b'<', false) => "<",
                    (b'>', true) => ">=",
                    (b'>', false) => ">",
                    (b'=', _) => "=",
                    (b'!', true) => "!=",
                    (b'!', false) => {
                        return Err(QueryError::Parse {
                            offset: start,
                            message: "expected '=' after '!'".into(),
                        })
                    }
                    _ => unreachable!(),
                };
                i += sym.len();
                out.push((start, Token::Sym(sym)));
            }
            b'0'..=b'9' | b'-' | b'.' => {
                i += 1;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || matches!(bytes[i], b'.' | b'e' | b'E')
                        || (matches!(bytes[i], b'+' | b'-') && matches!(bytes[i - 1], b'e' | b'E')))
                {
                    i += 1;
                }
                let lit = &text[start..i];
                if let Ok(v) = lit.parse::<i64>() {
                    out.push((start, Token::Int(v)));
                } else if let Ok(v) = lit.parse::<f64>() {
                    out.push((start, Token::Num(v)));
                } else {
                    return Err(QueryError::Parse {
                        offset: start,
                        message: format!("invalid number {lit:?}"),
                    });
                }
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                i += 1;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push((start, Token::Ident(text[start..i].to_ascii_lowercase())));
            }
            other => {
                return Err(QueryError::Parse {
                    offset: start,
                    message: format!("unexpected character {:?}", other as char),
                })
            }
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<(usize, Token)>,
    pos: usize,
    /// `(` / `not` levels enclosing the atom being parsed.
    depth: usize,
}

impl Parser {
    fn err(&self, message: impl Into<String>) -> QueryError {
        let offset = self.tokens.get(self.pos).map_or(usize::MAX, |(o, _)| *o);
        QueryError::Parse {
            offset,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(_, t)| t)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(_, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw:?}")))
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Some(Token::Sym(s)) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: &str) -> Result<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(self.err(format!("expected {sym:?}")))
        }
    }

    fn expect_string(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Str(s)) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected quoted string"))
            }
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected identifier"))
            }
        }
    }

    fn parse_query(&mut self) -> Result<Query> {
        let kind = if self.eat_kw("activities") {
            QueryKind::Activities
        } else if self.eat_kw("aggregate") {
            let metric = self.expect_ident()?;
            let metric = match metric.as_str() {
                "count" => Metric::Count,
                "distinct_ligands" => Metric::DistinctLigands,
                "max_p_activity" => Metric::MaxPActivity,
                "mean_p_activity" => Metric::MeanPActivity,
                other => return Err(self.err(format!("unknown metric {other:?}"))),
            };
            QueryKind::AggregateChildren { metric }
        } else if self.eat_kw("count") {
            self.expect_kw("per")?;
            self.expect_kw("leaf")?;
            QueryKind::CountPerLeaf
        } else {
            return Err(self.err("expected 'activities', 'aggregate', or 'count per leaf'"));
        };

        let scope = if self.eat_kw("in") {
            if self.eat_kw("tree") {
                Scope::Tree
            } else if self.eat_kw("subtree") {
                self.expect_sym("(")?;
                let label = self.expect_string()?;
                self.expect_sym(")")?;
                Scope::Subtree(label)
            } else if self.eat_kw("leaves") {
                self.expect_sym("(")?;
                let mut labels = vec![self.expect_string()?];
                while self.eat_sym(",") {
                    labels.push(self.expect_string()?);
                }
                self.expect_sym(")")?;
                Scope::Leaves(labels)
            } else {
                return Err(self.err("expected 'tree', 'subtree(..)', or 'leaves(..)'"));
            }
        } else {
            Scope::Tree
        };

        let predicate = if self.eat_kw("where") {
            self.parse_or()?
        } else {
            Predicate::True
        };

        let substructure = if self.eat_kw("containing") {
            Some(self.expect_string()?)
        } else {
            None
        };

        let similarity = if self.eat_kw("similar") {
            self.expect_kw("to")?;
            let reference = self.expect_string()?;
            let min_tanimoto = if self.eat_sym(">=") {
                match self.next() {
                    Some(Token::Num(v)) => v,
                    Some(Token::Int(v)) => v as f64,
                    _ => return Err(self.err("expected similarity threshold")),
                }
            } else {
                0.7
            };
            Some(SimilaritySpec {
                reference,
                min_tanimoto,
            })
        } else {
            None
        };

        let kind = if self.eat_kw("top") {
            let k = match self.next() {
                Some(Token::Int(v)) if v > 0 => v as usize,
                _ => return Err(self.err("expected positive integer after 'top'")),
            };
            let by = if self.eat_kw("by") {
                self.expect_ident()?
            } else {
                "p_activity".to_string()
            };
            let descending = if self.eat_kw("asc") {
                false
            } else {
                self.eat_kw("desc");
                true
            };
            if !matches!(kind, QueryKind::Activities) {
                return Err(self.err("'top' applies only to 'activities' queries"));
            }
            QueryKind::TopK { by, k, descending }
        } else {
            kind
        };

        Ok(Query {
            scope,
            predicate,
            similarity,
            substructure,
            kind,
        })
    }

    fn parse_or(&mut self) -> Result<Predicate> {
        let mut parts = vec![self.parse_and()?];
        while self.eat_kw("or") {
            parts.push(self.parse_and()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap_or(Predicate::True)
        } else {
            Predicate::Or(parts)
        })
    }

    fn parse_and(&mut self) -> Result<Predicate> {
        let mut parts = vec![self.parse_atom()?];
        while self.eat_kw("and") {
            parts.push(self.parse_atom()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap_or(Predicate::True)
        } else {
            Predicate::And(parts)
        })
    }

    /// Enter the nesting level opened by the `(` or `not` just eaten.
    fn descend(&mut self) -> Result<()> {
        if self.depth == MAX_PREDICATE_DEPTH {
            self.pos -= 1;
            return Err(self.err(format!(
                "predicate nested deeper than {MAX_PREDICATE_DEPTH} levels"
            )));
        }
        self.depth += 1;
        Ok(())
    }

    fn parse_atom(&mut self) -> Result<Predicate> {
        if self.eat_sym("(") {
            self.descend()?;
            let inner = self.parse_or()?;
            self.depth -= 1;
            self.expect_sym(")")?;
            return Ok(inner);
        }
        if self.eat_kw("not") {
            self.descend()?;
            let inner = self.parse_atom()?;
            self.depth -= 1;
            return Ok(Predicate::Not(Box::new(inner)));
        }
        if self.eat_kw("true") {
            return Ok(Predicate::True);
        }
        if self.eat_kw("false") {
            return Ok(Predicate::Not(Box::new(Predicate::True)));
        }
        let column = self.expect_ident()?;
        if self.eat_kw("between") {
            let lo = self.parse_literal()?;
            self.expect_kw("and")?;
            let hi = self.parse_literal()?;
            return Ok(Predicate::Between { column, lo, hi });
        }
        if self.eat_kw("in") {
            self.expect_sym("(")?;
            let mut values = vec![self.parse_literal()?];
            while self.eat_sym(",") {
                values.push(self.parse_literal()?);
            }
            self.expect_sym(")")?;
            return Ok(Predicate::InSet { column, values });
        }
        if self.eat_kw("is") {
            self.expect_kw("null")?;
            return Ok(Predicate::IsNull { column });
        }
        let op = match self.next() {
            Some(Token::Sym("=")) => CompareOp::Eq,
            Some(Token::Sym("!=")) => CompareOp::Ne,
            Some(Token::Sym("<")) => CompareOp::Lt,
            Some(Token::Sym("<=")) => CompareOp::Le,
            Some(Token::Sym(">")) => CompareOp::Gt,
            Some(Token::Sym(">=")) => CompareOp::Ge,
            _ => {
                self.pos = self.pos.saturating_sub(1);
                return Err(self.err("expected comparison operator"));
            }
        };
        let value = self.parse_literal()?;
        Ok(Predicate::Compare { column, op, value })
    }

    fn parse_literal(&mut self) -> Result<Value> {
        match self.next() {
            Some(Token::Int(v)) => Ok(Value::Int(v)),
            Some(Token::Num(v)) => Ok(Value::Float(v)),
            Some(Token::Str(s)) => Ok(Value::from(s)),
            Some(Token::Ident(s)) if s == "true" => Ok(Value::Bool(true)),
            Some(Token::Ident(s)) if s == "false" => Ok(Value::Bool(false)),
            Some(Token::Ident(s)) if s == "null" => Ok(Value::Null),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected literal"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_activities_query() {
        let q = parse_query(
            "activities in subtree('cladeA') where p_activity >= 6.5 and mw < 500 top 20 by p_activity desc",
        )
        .unwrap();
        assert_eq!(q.scope, Scope::Subtree("cladeA".into()));
        match &q.predicate {
            Predicate::And(ps) => assert_eq!(ps.len(), 2),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            q.kind,
            QueryKind::TopK {
                by: "p_activity".into(),
                k: 20,
                descending: true
            }
        );
    }

    #[test]
    fn defaults() {
        let q = parse_query("activities").unwrap();
        assert_eq!(q.scope, Scope::Tree);
        assert_eq!(q.predicate, Predicate::True);
        assert_eq!(q.kind, QueryKind::Activities);
        assert!(q.similarity.is_none());
    }

    #[test]
    fn top_defaults() {
        let q = parse_query("activities top 5").unwrap();
        assert_eq!(
            q.kind,
            QueryKind::TopK {
                by: "p_activity".into(),
                k: 5,
                descending: true
            }
        );
        let q = parse_query("activities top 5 by mw asc").unwrap();
        assert_eq!(
            q.kind,
            QueryKind::TopK {
                by: "mw".into(),
                k: 5,
                descending: false
            }
        );
    }

    #[test]
    fn aggregate_and_count() {
        let q = parse_query("aggregate max_p_activity in subtree('x')").unwrap();
        assert_eq!(
            q.kind,
            QueryKind::AggregateChildren {
                metric: Metric::MaxPActivity
            }
        );
        let q = parse_query("count per leaf in tree").unwrap();
        assert_eq!(q.kind, QueryKind::CountPerLeaf);
    }

    #[test]
    fn leaves_scope() {
        let q = parse_query("activities in leaves('P1', 'P2', 'P3')").unwrap();
        assert_eq!(
            q.scope,
            Scope::Leaves(vec!["P1".into(), "P2".into(), "P3".into()])
        );
    }

    #[test]
    fn similarity_clause() {
        let q = parse_query("activities similar to 'CCO' >= 0.6").unwrap();
        let s = q.similarity.unwrap();
        assert_eq!(s.reference, "CCO");
        assert_eq!(s.min_tanimoto, 0.6);
        // Default threshold.
        let q = parse_query("activities similar to 'L1'").unwrap();
        assert_eq!(q.similarity.unwrap().min_tanimoto, 0.7);
    }

    #[test]
    fn containing_clause() {
        let q = parse_query("activities containing 'c1ccccc1'").unwrap();
        assert_eq!(q.substructure.as_deref(), Some("c1ccccc1"));
        // Composes with where/similar/top.
        let q =
            parse_query("activities in tree where mw < 500 containing 'C=O' similar to 'L1' top 5")
                .unwrap();
        assert_eq!(q.substructure.as_deref(), Some("C=O"));
        assert!(q.similarity.is_some());
        assert!(parse_query("activities containing").is_err());
    }

    #[test]
    fn predicate_shapes() {
        let q = parse_query(
            "activities where year between 2010 and 2013 and ligand_id in ('L1','L2') or not source is null",
        )
        .unwrap();
        match &q.predicate {
            Predicate::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(&parts[0], Predicate::And(ps) if ps.len() == 2));
                assert!(matches!(&parts[1], Predicate::Not(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parenthesized_predicates() {
        let q = parse_query("activities where (year = 2010 or year = 2012) and mw < 500").unwrap();
        match &q.predicate {
            Predicate::And(ps) => {
                assert!(matches!(&ps[0], Predicate::Or(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn string_escapes_and_case() {
        let q = parse_query("ACTIVITIES IN SUBTREE('it''s a clade')").unwrap();
        assert_eq!(q.scope, Scope::Subtree("it's a clade".into()));
    }

    #[test]
    fn numeric_literals() {
        let q = parse_query("activities where value_nm <= 1.5e3 and year != -1").unwrap();
        match &q.predicate {
            Predicate::And(ps) => {
                assert!(
                    matches!(&ps[0], Predicate::Compare { value: Value::Float(v), .. } if *v == 1500.0)
                );
                assert!(matches!(
                    &ps[1],
                    Predicate::Compare {
                        op: CompareOp::Ne,
                        value: Value::Int(-1),
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "frobnicate",
            "activities in",
            "activities in subtree(cladeA)",
            "activities where",
            "activities where mw",
            "activities where mw <",
            "activities top 0",
            "activities top -3",
            "activities where mw < 5 extra",
            "aggregate bogus_metric",
            "count per tree",
            "activities similar to 'C' >= ",
            "activities where mw < 'unterminated",
            "aggregate count in tree top 5",
        ] {
            assert!(parse_query(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded_on_descent() {
        let parens = |n: usize| {
            format!(
                "activities where {}year = 2010{}",
                "(".repeat(n),
                ")".repeat(n)
            )
        };
        let nots = |n: usize| format!("activities where {}year = 2010", "not ".repeat(n));
        let atom = Predicate::eq("year", 2010i64);

        // Exactly at the bound both forms parse to what they always did.
        let q = parse_query(&parens(MAX_PREDICATE_DEPTH)).unwrap();
        assert_eq!(q.predicate, atom);
        let q = parse_query(&nots(MAX_PREDICATE_DEPTH)).unwrap();
        let (mut p, mut levels) = (&q.predicate, 0);
        while let Predicate::Not(inner) = p {
            (p, levels) = (inner, levels + 1);
        }
        assert_eq!((p, levels), (&atom, MAX_PREDICATE_DEPTH));

        // One level past it is an error at the offending token...
        let at = |text: &str| match parse_query(text).unwrap_err() {
            QueryError::Parse { offset, .. } => offset,
            other => panic!("{other:?}"),
        };
        let prefix = "activities where ".len();
        assert_eq!(
            at(&parens(MAX_PREDICATE_DEPTH + 1)),
            prefix + MAX_PREDICATE_DEPTH
        );
        assert_eq!(
            at(&nots(MAX_PREDICATE_DEPTH + 1)),
            prefix + 4 * MAX_PREDICATE_DEPTH
        );
        // ...and so is input deep enough to overflow the stack if it
        // were followed (or its tree built and dropped).
        assert_eq!(at(&parens(200_000)), prefix + MAX_PREDICATE_DEPTH);
        assert_eq!(at(&nots(200_000)), prefix + 4 * MAX_PREDICATE_DEPTH);
    }

    #[test]
    fn offsets_reported() {
        match parse_query("activities where mw @ 5").unwrap_err() {
            QueryError::Parse { offset, .. } => assert_eq!(offset, 20),
            other => panic!("{other:?}"),
        }
    }
}
