//! Query filters: equality, range and boolean combinations over fields.

use std::cmp::Ordering;
use std::ops::Bound;

use crate::value::{Document, Value};

/// A predicate over documents.
///
/// # Examples
///
/// ```
/// use datablinder_docstore::{Document, Filter, Value};
///
/// let doc = Document::new("d").with("age", Value::from(42i64));
/// let f = Filter::and(vec![
///     Filter::gte("age", Value::from(18i64)),
///     Filter::lt("age", Value::from(65i64)),
/// ]);
/// assert!(f.matches(&doc));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Matches every document.
    All,
    /// Field equals value (missing field never matches).
    Eq(String, Value),
    /// Field is strictly less than value.
    Lt(String, Value),
    /// Field is less than or equal to value.
    Lte(String, Value),
    /// Field is strictly greater than value.
    Gt(String, Value),
    /// Field is greater than or equal to value.
    Gte(String, Value),
    /// Field exists.
    Exists(String),
    /// Conjunction.
    And(Vec<Filter>),
    /// Disjunction.
    Or(Vec<Filter>),
    /// Negation.
    Not(Box<Filter>),
}

impl Filter {
    /// Equality shorthand.
    pub fn eq(field: impl Into<String>, value: Value) -> Filter {
        Filter::Eq(field.into(), value)
    }

    /// `<` shorthand.
    pub fn lt(field: impl Into<String>, value: Value) -> Filter {
        Filter::Lt(field.into(), value)
    }

    /// `<=` shorthand.
    pub fn lte(field: impl Into<String>, value: Value) -> Filter {
        Filter::Lte(field.into(), value)
    }

    /// `>` shorthand.
    pub fn gt(field: impl Into<String>, value: Value) -> Filter {
        Filter::Gt(field.into(), value)
    }

    /// `>=` shorthand.
    pub fn gte(field: impl Into<String>, value: Value) -> Filter {
        Filter::Gte(field.into(), value)
    }

    /// Inclusive range shorthand: `lo <= field <= hi`.
    pub fn between(field: impl Into<String>, lo: Value, hi: Value) -> Filter {
        let field = field.into();
        Filter::And(vec![Filter::Gte(field.clone(), lo), Filter::Lte(field, hi)])
    }

    /// Conjunction shorthand.
    pub fn and(filters: Vec<Filter>) -> Filter {
        Filter::And(filters)
    }

    /// Disjunction shorthand.
    pub fn or(filters: Vec<Filter>) -> Filter {
        Filter::Or(filters)
    }

    /// Negation shorthand.
    #[allow(clippy::should_implement_trait)]
    pub fn not(filter: Filter) -> Filter {
        Filter::Not(Box::new(filter))
    }

    /// Evaluates the filter against a document.
    pub fn matches(&self, doc: &Document) -> bool {
        match self {
            Filter::All => true,
            Filter::Eq(f, v) => doc.get(f).is_some_and(|x| x.total_cmp(v) == Ordering::Equal),
            Filter::Lt(f, v) => doc.get(f).is_some_and(|x| x.total_cmp(v) == Ordering::Less),
            Filter::Lte(f, v) => doc.get(f).is_some_and(|x| x.total_cmp(v) != Ordering::Greater),
            Filter::Gt(f, v) => doc.get(f).is_some_and(|x| x.total_cmp(v) == Ordering::Greater),
            Filter::Gte(f, v) => doc.get(f).is_some_and(|x| x.total_cmp(v) != Ordering::Less),
            Filter::Exists(f) => doc.get(f).is_some(),
            Filter::And(fs) => fs.iter().all(|f| f.matches(doc)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(doc)),
            Filter::Not(f) => !f.matches(doc),
        }
    }

    /// The conjuncts of this filter, nested conjunctions flattened: every
    /// document the filter matches also matches each of them, which is what
    /// lets the collection serve one from an index and keep the whole filter
    /// as the residual check.
    pub(crate) fn conjuncts(&self) -> Vec<&Filter> {
        fn collect<'a>(filter: &'a Filter, out: &mut Vec<&'a Filter>) {
            match filter {
                Filter::And(fs) => fs.iter().for_each(|f| collect(f, out)),
                leaf => out.push(leaf),
            }
        }
        let mut out = Vec::new();
        collect(self, &mut out);
        out
    }
}

/// The interval `conjuncts` confine `field` to: one lower and one upper
/// bound among them (the last of each; any other is left to the residual
/// check), unbounded on a side none of them bounds.
pub(crate) fn bounds_on<'a>(conjuncts: &[&'a Filter], field: &str) -> (Bound<&'a Value>, Bound<&'a Value>) {
    let (mut lo, mut hi) = (Bound::Unbounded, Bound::Unbounded);
    for conjunct in conjuncts {
        match conjunct {
            Filter::Gte(f, v) if f == field => lo = Bound::Included(v),
            Filter::Gt(f, v) if f == field => lo = Bound::Excluded(v),
            Filter::Lte(f, v) if f == field => hi = Bound::Included(v),
            Filter::Lt(f, v) if f == field => hi = Bound::Excluded(v),
            _ => {}
        }
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::new("d")
            .with("name", Value::from("alice"))
            .with("age", Value::from(30i64))
            .with("score", Value::from(7.5f64))
    }

    #[test]
    fn eq_and_missing_fields() {
        assert!(Filter::eq("name", Value::from("alice")).matches(&doc()));
        assert!(!Filter::eq("name", Value::from("bob")).matches(&doc()));
        assert!(!Filter::eq("missing", Value::Null).matches(&doc()));
        assert!(Filter::Exists("age".into()).matches(&doc()));
        assert!(!Filter::Exists("missing".into()).matches(&doc()));
    }

    #[test]
    fn range_operators() {
        let d = doc();
        assert!(Filter::lt("age", Value::from(31i64)).matches(&d));
        assert!(!Filter::lt("age", Value::from(30i64)).matches(&d));
        assert!(Filter::lte("age", Value::from(30i64)).matches(&d));
        assert!(Filter::gt("age", Value::from(29i64)).matches(&d));
        assert!(Filter::gte("age", Value::from(30i64)).matches(&d));
        assert!(Filter::between("age", Value::from(30i64), Value::from(40i64)).matches(&d));
        assert!(!Filter::between("age", Value::from(31i64), Value::from(40i64)).matches(&d));
    }

    #[test]
    fn boolean_combinations() {
        let d = doc();
        let yes = Filter::eq("name", Value::from("alice"));
        let no = Filter::eq("name", Value::from("bob"));
        assert!(Filter::and(vec![yes.clone(), Filter::All]).matches(&d));
        assert!(!Filter::and(vec![yes.clone(), no.clone()]).matches(&d));
        assert!(Filter::or(vec![no.clone(), yes.clone()]).matches(&d));
        assert!(!Filter::or(vec![no.clone()]).matches(&d));
        assert!(Filter::not(no).matches(&d));
        assert!(!Filter::not(yes).matches(&d));
        // Vacuous cases.
        assert!(Filter::and(vec![]).matches(&d));
        assert!(!Filter::or(vec![]).matches(&d));
    }

    #[test]
    fn range_on_missing_field_never_matches() {
        let d = doc();
        assert!(!Filter::lt("missing", Value::from(1i64)).matches(&d));
        assert!(!Filter::gte("missing", Value::from(1i64)).matches(&d));
    }

    #[test]
    fn conjuncts_flatten_nested_conjunctions_only() {
        let or = Filter::or(vec![Filter::All]);
        let f = Filter::and(vec![
            Filter::gt("age", Value::from(10i64)),
            Filter::and(vec![Filter::eq("name", Value::from("alice")), or.clone()]),
        ]);
        assert_eq!(
            f.conjuncts(),
            vec![&Filter::gt("age", Value::from(10i64)), &Filter::eq("name", Value::from("alice")), &or]
        );
        assert_eq!(Filter::All.conjuncts(), vec![&Filter::All]);
    }

    #[test]
    fn bounds_take_one_conjunct_per_side_of_the_named_field() {
        let (v3, v5, v9) = (Value::from(3i64), Value::from(5i64), Value::from(9i64));
        let f = Filter::and(vec![
            Filter::gte("age", v3.clone()),
            Filter::gt("age", v5.clone()),
            Filter::lte("age", v9.clone()),
            Filter::lt("other", v3.clone()),
        ]);
        assert_eq!(bounds_on(&f.conjuncts(), "age"), (Bound::Excluded(&v5), Bound::Included(&v9)));
        assert_eq!(bounds_on(&f.conjuncts(), "other"), (Bound::Unbounded, Bound::Excluded(&v3)));
        assert_eq!(bounds_on(&f.conjuncts(), "missing"), (Bound::Unbounded, Bound::Unbounded));
        // A disjunction is one opaque conjunct: it confines nothing.
        let or = Filter::or(vec![Filter::gt("age", v3)]);
        assert_eq!(bounds_on(&or.conjuncts(), "age"), (Bound::Unbounded, Bound::Unbounded));
    }
}
