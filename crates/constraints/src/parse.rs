//! Parser for the paper's constraint syntax.
//!
//! Constraints are written exactly as the paper prints them (§4.2):
//!
//! ```text
//! {storm, {hb ∧ mem, 1, ∞}, node}
//! {storm, {spark, 0, 5}, rack}
//! {appid:0023 ∧ storm, {appid:0023 ∧ hb, 1, ∞}, node}
//! {w, {a, 1, ∞} ∨ {b, 1, ∞}, rack} weight=3.5
//! ```
//!
//! ASCII aliases are accepted: `&` for `∧`, `|` or `or` for `∨`, and
//! `inf` for `∞`. Compound expressions are a disjunction (DNF) of
//! conjunctions of `{tag, cmin, cmax}` leaves. A trailing `weight=<f64>`
//! sets the soft-constraint weight; `weight=hard` emulates a hard
//! constraint.

use std::fmt;

use medea_cluster::{NodeGroupId, Tag};

use crate::constraint::{
    Cardinality, PlacementConstraint, TagConstraint, TagConstraintExpr, HARD_WEIGHT,
};
use crate::expr::TagExpr;

/// Errors from [`parse_constraint`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Unexpected character or token at a byte position.
    Unexpected {
        /// Byte offset into the input.
        at: usize,
        /// What the parser expected.
        expected: &'static str,
    },
    /// The cardinality bounds could not be parsed.
    BadCardinality(String),
    /// The weight suffix could not be parsed.
    BadWeight(String),
    /// Input ended prematurely.
    UnexpectedEnd,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Unexpected { at, expected } => {
                write!(f, "unexpected input at byte {at}: expected {expected}")
            }
            ParseError::BadCardinality(s) => write!(f, "bad cardinality '{s}'"),
            ParseError::BadWeight(s) => write!(f, "bad weight '{s}'"),
            ParseError::UnexpectedEnd => write!(f, "unexpected end of input"),
        }
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser { src, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.src.len() - trimmed.len();
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str, expected: &'static str) -> Result<(), ParseError> {
        if self.eat(token) {
            Ok(())
        } else if self.rest().is_empty() {
            Err(ParseError::UnexpectedEnd)
        } else {
            Err(ParseError::Unexpected {
                at: self.pos,
                expected,
            })
        }
    }

    /// `∧` or `&` (with `and` as a word alias).
    fn eat_and(&mut self) -> bool {
        self.eat("∧") || self.eat("&") || self.eat_word("and")
    }

    /// `∨` or `|` (with `or` as a word alias).
    fn eat_or(&mut self) -> bool {
        self.eat("∨") || self.eat("|") || self.eat_word("or")
    }

    /// Eats a whole word (not a prefix of a longer identifier).
    fn eat_word(&mut self, word: &str) -> bool {
        self.skip_ws();
        let r = self.rest();
        if let Some(after) = r.strip_prefix(word) {
            if after
                .chars()
                .next()
                .is_none_or(|c| !c.is_alphanumeric() && c != '_' && c != ':')
            {
                self.pos += word.len();
                return true;
            }
        }
        false
    }

    /// A tag identifier: alphanumerics, `_`, `-`, `.`, and one optional
    /// `:` namespace separator (e.g. `appid:0023`).
    fn parse_tag(&mut self) -> Result<Tag, ParseError> {
        self.skip_ws();
        let start = self.pos;
        // By char, not by byte: a multi-byte char (`é`, or `∧` written
        // without spaces) must end or extend the tag whole, never split.
        let rest = self.rest();
        self.pos += rest
            .find(|c: char| !(c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')))
            .unwrap_or(rest.len());
        if self.pos == start {
            return Err(ParseError::Unexpected {
                at: start,
                expected: "a tag",
            });
        }
        Ok(Tag::new(&self.src[start..self.pos]))
    }

    /// `tag (∧ tag)*`.
    fn parse_tag_expr(&mut self) -> Result<TagExpr, ParseError> {
        let mut tags = vec![self.parse_tag()?];
        loop {
            let save = self.pos;
            if self.eat_and() {
                // A conjunction inside a compound could also start a new
                // *leaf*; only consume if a tag follows directly.
                self.skip_ws();
                if self.rest().starts_with('{') {
                    self.pos = save;
                    break;
                }
                tags.push(self.parse_tag()?);
            } else {
                break;
            }
        }
        Ok(TagExpr::and(tags))
    }

    /// `{tag_expr, cmin, cmax}`.
    fn parse_leaf(&mut self) -> Result<TagConstraint, ParseError> {
        self.expect("{", "'{' starting a tag constraint")?;
        let target = self.parse_tag_expr()?;
        self.expect(",", "',' before cmin")?;
        let cmin = self.parse_u32()?;
        self.expect(",", "',' before cmax")?;
        let cmax = self.parse_cmax()?;
        self.expect("}", "'}' ending the tag constraint")?;
        Ok(TagConstraint::new(
            target,
            Cardinality {
                min: cmin,
                max: cmax,
            },
        ))
    }

    fn parse_u32(&mut self) -> Result<u32, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self
            .rest()
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_digit())
        {
            self.pos += 1;
        }
        self.src[start..self.pos]
            .parse()
            .map_err(|_| ParseError::BadCardinality(self.src[start..self.pos.max(start)].into()))
    }

    fn parse_cmax(&mut self) -> Result<Option<u32>, ParseError> {
        self.skip_ws();
        if self.eat("∞") || self.eat_word("inf") {
            return Ok(None);
        }
        self.parse_u32().map(Some)
    }

    /// DNF: `leaf (∧ leaf)* (∨ leaf (∧ leaf)*)*`.
    fn parse_expr(&mut self) -> Result<TagConstraintExpr, ParseError> {
        let mut conjuncts = Vec::new();
        loop {
            let mut conj = vec![self.parse_leaf()?];
            while self.eat_and() {
                conj.push(self.parse_leaf()?);
            }
            conjuncts.push(conj);
            if !self.eat_or() {
                break;
            }
        }
        Ok(TagConstraintExpr::any(conjuncts))
    }

    fn parse_weight(&mut self) -> Result<Option<f64>, ParseError> {
        if !self.eat_word("weight") {
            return Ok(None);
        }
        self.expect("=", "'=' after weight")?;
        self.skip_ws();
        if self.eat_word("hard") {
            return Ok(Some(HARD_WEIGHT));
        }
        let start = self.pos;
        while self
            .rest()
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_digit() || c == '.' || c == '-')
        {
            self.pos += 1;
        }
        self.src[start..self.pos]
            .parse()
            .map(Some)
            .map_err(|_| ParseError::BadWeight(self.src[start..self.pos].into()))
    }
}

/// Parses a placement constraint in the paper's syntax.
///
/// # Examples
///
/// ```
/// use medea_constraints::{parse_constraint, Cardinality};
///
/// // Caa from the paper: every storm container in a different upgrade
/// // domain from all hb containers.
/// let c = parse_constraint("{storm, {hb, 0, 0}, upgrade_domain}").unwrap();
/// assert_eq!(c.expr.leaves().next().unwrap().cardinality, Cardinality::anti_affinity());
///
/// // ASCII aliases and weights work too.
/// let c = parse_constraint("{w, {a & b, 1, inf}, node} weight=hard").unwrap();
/// assert!(c.is_hard());
/// ```
pub fn parse_constraint(input: &str) -> Result<PlacementConstraint, ParseError> {
    let mut p = Parser::new(input);
    p.expect("{", "'{' starting the constraint")?;
    let subject = p.parse_tag_expr()?;
    p.expect(",", "',' after the subject tag")?;
    let expr = p.parse_expr()?;
    p.expect(",", "',' before the node group")?;
    let group = NodeGroupId::new(p.parse_tag()?.as_str());
    p.expect("}", "'}' ending the constraint")?;
    let weight = p.parse_weight()?;
    p.skip_ws();
    if !p.rest().is_empty() {
        return Err(ParseError::Unexpected {
            at: p.pos,
            expected: "end of input",
        });
    }
    let mut c = PlacementConstraint::compound(subject, expr, group);
    if let Some(w) = weight {
        c.weight = w;
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_affinity_example() {
        // Caf = {storm, {hb ∧ mem, 1, ∞}, node}.
        let c = parse_constraint("{storm, {hb ∧ mem, 1, ∞}, node}").unwrap();
        assert_eq!(c.subject, TagExpr::tag(Tag::new("storm")));
        assert_eq!(c.group, NodeGroupId::node());
        let leaf = c.expr.leaves().next().unwrap();
        assert_eq!(leaf.target, TagExpr::and([Tag::new("hb"), Tag::new("mem")]));
        assert_eq!(leaf.cardinality, Cardinality::affinity());
    }

    /// A multi-byte char extends a tag (`é` is alphanumeric) or ends it
    /// (`∧`) whole: the scan never stops inside one, so neither panics.
    #[test]
    fn multi_byte_chars_never_split_a_tag() {
        let accented = parse_constraint("{stormé, {hb, 1, ∞}, node}").unwrap();
        assert_eq!(accented.subject, TagExpr::tag(Tag::new("stormé")));
        let tight = parse_constraint("{storm,{hb∧mem,1,∞},node}").unwrap();
        assert_eq!(
            tight,
            parse_constraint("{storm, {hb ∧ mem, 1, ∞}, node}").unwrap()
        );
        assert!(parse_constraint("{storm∨, {hb, 1, ∞}, node}").is_err());
    }

    #[test]
    fn paper_appid_example() {
        let c =
            parse_constraint("{appid:0023 ∧ storm, {appid:0023 ∧ hb ∧ mem, 1, ∞}, node}").unwrap();
        assert_eq!(
            c.subject,
            TagExpr::and([Tag::new("appid:0023"), Tag::new("storm")])
        );
        assert_eq!(c.expr.leaves().next().unwrap().target.tags().len(), 3);
    }

    #[test]
    fn paper_cardinality_example() {
        // Cca = {storm, {spark, 0, 5}, rack}.
        let c = parse_constraint("{storm, {spark, 0, 5}, rack}").unwrap();
        assert_eq!(
            c.expr.leaves().next().unwrap().cardinality,
            Cardinality::at_most(5)
        );
        assert_eq!(c.group, NodeGroupId::rack());
    }

    #[test]
    fn ascii_aliases() {
        let a = parse_constraint("{w, {a & b, 1, inf}, node}").unwrap();
        let b = parse_constraint("{w, {a ∧ b, 1, ∞}, node}").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn dnf_compound() {
        let c = parse_constraint("{w, {a, 1, ∞} ∨ {b, 1, ∞} ∧ {c, 0, 0}, rack}").unwrap();
        assert_eq!(c.expr.conjuncts.len(), 2);
        assert_eq!(c.expr.conjuncts[0].len(), 1);
        assert_eq!(c.expr.conjuncts[1].len(), 2);
    }

    #[test]
    fn weights() {
        assert!(
            (parse_constraint("{a, {b, 0, 0}, node} weight=2.5")
                .unwrap()
                .weight
                - 2.5)
                .abs()
                < 1e-12
        );
        assert!(parse_constraint("{a, {b, 0, 0}, node} weight=hard")
            .unwrap()
            .is_hard());
    }

    #[test]
    fn roundtrip_with_display() {
        // Display prints the paper syntax; parse must accept it.
        let original = parse_constraint("{storm, {spark, 0, 5}, rack}").unwrap();
        let reparsed = parse_constraint(&original.to_string()).unwrap();
        assert_eq!(original, reparsed);
    }

    #[test]
    fn errors_are_located() {
        assert_eq!(parse_constraint(""), Err(ParseError::UnexpectedEnd));
        assert!(matches!(
            parse_constraint("{storm {hb, 1, 2}, node}"),
            Err(ParseError::Unexpected { .. })
        ));
        assert!(matches!(
            parse_constraint("{storm, {hb, x, 2}, node}"),
            Err(ParseError::BadCardinality(_))
        ));
        assert!(matches!(
            parse_constraint("{a, {b, 0, 0}, node} weight=abc"),
            Err(ParseError::BadWeight(_))
        ));
        assert!(matches!(
            parse_constraint("{a, {b, 0, 0}, node} trailing"),
            Err(ParseError::Unexpected { .. })
        ));
    }

    #[test]
    fn whitespace_is_flexible() {
        let tight = parse_constraint("{w,{a,1,inf},node}").unwrap();
        let loose = parse_constraint("  { w ,  { a , 1 , ∞ } , node }  ").unwrap();
        assert_eq!(tight, loose);
    }
}
