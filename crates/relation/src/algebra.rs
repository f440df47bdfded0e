//! Relational algebra over [`Relation`]s.
//!
//! These are the classic set-semantics operators: selection, projection,
//! rename, union, intersection, difference, cartesian product, equi-join,
//! semijoin and antijoin. Every operator validates schemas up front and
//! produces a fresh relation; inputs are never mutated.
//!
//! Joins are hash joins: the smaller side is loaded into a [`FastMap`] keyed
//! by the join columns, the larger side probes it. With set semantics and
//! checked sorts this is `O(|L| + |R| + |out|)` expected time.

use crate::error::RelationError;
use crate::hash::FastMap;
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::Value;

/// σ: tuples of `rel` satisfying `pred`.
pub fn select(rel: &Relation, mut pred: impl FnMut(&Tuple) -> bool) -> Relation {
    let mut out = Relation::new(rel.schema().clone());
    for t in rel.iter() {
        if pred(t) {
            out.insert(t.clone()).expect("selection preserves schema");
        }
    }
    out
}

/// σ with an equality-to-constant predicate on one column.
pub fn select_eq(rel: &Relation, column: usize, value: Value) -> Result<Relation, RelationError> {
    let arity = rel.schema().arity();
    if column >= arity {
        return Err(RelationError::NoSuchPosition {
            position: column,
            arity,
        });
    }
    Ok(select(rel, |t| t[column] == value))
}

/// π: projection onto `positions` (order matters, duplicates rejected by
/// the schema layer).
pub fn project(rel: &Relation, positions: &[usize]) -> Result<Relation, RelationError> {
    let schema = rel.schema().project(positions)?;
    let mut out = Relation::new(schema);
    for t in rel.iter() {
        out.insert(t.project(positions))
            .expect("projection preserves schema");
    }
    Ok(out)
}

/// ρ: rename one attribute.
pub fn rename(
    rel: &Relation,
    position: usize,
    name: crate::Symbol,
) -> Result<Relation, RelationError> {
    let schema = rel.schema().rename(position, name)?;
    let mut out = Relation::new(schema);
    for t in rel.iter() {
        out.insert(t.clone()).expect("rename preserves tuples");
    }
    Ok(out)
}

fn require_compatible(a: &Relation, b: &Relation) -> Result<(), RelationError> {
    if a.schema().union_compatible(b.schema()) {
        Ok(())
    } else {
        Err(RelationError::NotUnionCompatible)
    }
}

/// ∪: union of union-compatible relations (left schema wins for names).
pub fn union(a: &Relation, b: &Relation) -> Result<Relation, RelationError> {
    require_compatible(a, b)?;
    let mut out = a.clone();
    for t in b.iter() {
        out.insert(t.clone()).expect("compatible schemas");
    }
    Ok(out)
}

/// ∩: intersection of union-compatible relations.
pub fn intersection(a: &Relation, b: &Relation) -> Result<Relation, RelationError> {
    require_compatible(a, b)?;
    Ok(select(a, |t| b.contains(t)))
}

/// ∖: difference `a − b` of union-compatible relations.
pub fn difference(a: &Relation, b: &Relation) -> Result<Relation, RelationError> {
    require_compatible(a, b)?;
    Ok(select(a, |t| !b.contains(t)))
}

/// ×: cartesian product. Output schema is `a.schema ++ b.schema` (name
/// clashes are rejected; rename first).
pub fn product(a: &Relation, b: &Relation) -> Result<Relation, RelationError> {
    let schema = a.schema().concat(b.schema())?;
    let mut out = Relation::new(schema);
    for ta in a.iter() {
        for tb in b.iter() {
            out.insert(ta.concat(tb)).expect("product preserves sorts");
        }
    }
    Ok(out)
}

/// Validates an equi-join column pairing and returns it as `(left, right)`
/// position vectors.
fn check_join_on(a: &Relation, b: &Relation, on: &[(usize, usize)]) -> Result<(), RelationError> {
    for &(la, rb) in on {
        let sa = a
            .schema()
            .sort_at(la)
            .ok_or(RelationError::NoSuchPosition {
                position: la,
                arity: a.schema().arity(),
            })?;
        let sb = b
            .schema()
            .sort_at(rb)
            .ok_or(RelationError::NoSuchPosition {
                position: rb,
                arity: b.schema().arity(),
            })?;
        if sa != sb {
            return Err(RelationError::JoinSortMismatch {
                left: la,
                right: rb,
            });
        }
    }
    Ok(())
}

fn key_of(t: &Tuple, cols: impl Iterator<Item = usize>) -> Vec<Value> {
    cols.map(|c| t[c]).collect()
}

/// Builds a probe table from `rel` keyed by `cols`.
fn build_hash<'r>(rel: &'r Relation, cols: &[usize]) -> FastMap<Vec<Value>, Vec<&'r Tuple>> {
    let mut map: FastMap<Vec<Value>, Vec<&Tuple>> = FastMap::default();
    for t in rel.iter() {
        map.entry(key_of(t, cols.iter().copied()))
            .or_default()
            .push(t);
    }
    map
}

/// ⋈: equi-join on the column pairs `on`. Output schema is
/// `a.schema ++ b.schema` with the joined right columns *retained* (rename
/// beforehand if names clash).
pub fn join(a: &Relation, b: &Relation, on: &[(usize, usize)]) -> Result<Relation, RelationError> {
    check_join_on(a, b, on)?;
    let schema = a.schema().concat(b.schema())?;
    let rcols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    let lcols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    let table = build_hash(b, &rcols);
    let mut out = Relation::new(schema);
    for ta in a.iter() {
        if let Some(matches) = table.get(&key_of(ta, lcols.iter().copied())) {
            for tb in matches {
                out.insert(ta.concat(tb)).expect("join preserves sorts");
            }
        }
    }
    Ok(out)
}

/// ⋉: semijoin — tuples of `a` with at least one `on`-match in `b`.
pub fn semijoin(
    a: &Relation,
    b: &Relation,
    on: &[(usize, usize)],
) -> Result<Relation, RelationError> {
    check_join_on(a, b, on)?;
    let rcols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    let lcols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    let table = build_hash(b, &rcols);
    Ok(select(a, |t| {
        table.contains_key(&key_of(t, lcols.iter().copied()))
    }))
}

/// ▷: antijoin — tuples of `a` with *no* `on`-match in `b`.
pub fn antijoin(
    a: &Relation,
    b: &Relation,
    on: &[(usize, usize)],
) -> Result<Relation, RelationError> {
    check_join_on(a, b, on)?;
    let rcols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    let lcols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    let table = build_hash(b, &rcols);
    Ok(select(a, |t| {
        !table.contains_key(&key_of(t, lcols.iter().copied()))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::Sort;
    use crate::Symbol;

    fn rel_ab(rows: &[(&str, i64)]) -> Relation {
        Relation::from_tuples(
            Schema::of(&[("a", Sort::Str), ("b", Sort::Int)]),
            rows.iter().map(|&(a, b)| tuple![a, b]),
        )
        .unwrap()
    }

    fn rel_cd(rows: &[(i64, &str)]) -> Relation {
        Relation::from_tuples(
            Schema::of(&[("c", Sort::Int), ("d", Sort::Str)]),
            rows.iter().map(|&(c, d)| tuple![c, d]),
        )
        .unwrap()
    }

    #[test]
    fn select_filters() {
        let r = rel_ab(&[("x", 1), ("y", 2)]);
        let s = select(&r, |t| t[1] == Value::Int(2));
        assert_eq!(s.len(), 1);
        assert!(s.contains(&tuple!["y", 2]));
    }

    #[test]
    fn select_eq_bounds_checked() {
        let r = rel_ab(&[("x", 1)]);
        assert!(select_eq(&r, 5, Value::Int(1)).is_err());
        assert_eq!(select_eq(&r, 1, Value::Int(1)).unwrap().len(), 1);
    }

    #[test]
    fn project_deduplicates() {
        let r = rel_ab(&[("x", 1), ("y", 1)]);
        let p = project(&r, &[1]).unwrap();
        assert_eq!(p.len(), 1, "set semantics collapse duplicates");
    }

    #[test]
    fn project_to_empty_schema_yields_unit_or_zero() {
        let r = rel_ab(&[("x", 1)]);
        let p = project(&r, &[]).unwrap();
        assert_eq!(p.len(), 1, "nonempty input projects to the unit tuple");
        let e = project(&rel_ab(&[]), &[]).unwrap();
        assert!(e.is_empty());
    }

    #[test]
    fn union_difference_intersection() {
        let a = rel_ab(&[("x", 1), ("y", 2)]);
        let b = rel_ab(&[("y", 2), ("z", 3)]);
        assert_eq!(union(&a, &b).unwrap().len(), 3);
        assert_eq!(intersection(&a, &b).unwrap().len(), 1);
        let d = difference(&a, &b).unwrap();
        assert_eq!(d.len(), 1);
        assert!(d.contains(&tuple!["x", 1]));
    }

    #[test]
    fn set_ops_reject_incompatible() {
        let a = rel_ab(&[]);
        let c = rel_cd(&[]);
        assert!(union(&a, &c).is_err());
        assert!(intersection(&a, &c).is_err());
        assert!(difference(&a, &c).is_err());
    }

    #[test]
    fn product_sizes_multiply() {
        let a = rel_ab(&[("x", 1), ("y", 2)]);
        let c = rel_cd(&[(7, "p"), (8, "q"), (9, "r")]);
        let p = product(&a, &c).unwrap();
        assert_eq!(p.len(), 6);
        assert_eq!(p.schema().arity(), 4);
    }

    #[test]
    fn product_rejects_name_clash() {
        let a = rel_ab(&[]);
        assert!(product(&a, &a).is_err());
    }

    #[test]
    fn equi_join_matches() {
        let a = rel_ab(&[("x", 1), ("y", 2), ("z", 2)]);
        let c = rel_cd(&[(2, "p"), (3, "q")]);
        let j = join(&a, &c, &[(1, 0)]).unwrap();
        assert_eq!(j.len(), 2);
        assert!(j.contains(&tuple!["y", 2, 2, "p"]));
        assert!(j.contains(&tuple!["z", 2, 2, "p"]));
    }

    #[test]
    fn join_rejects_sort_mismatch() {
        let a = rel_ab(&[]);
        let c = rel_cd(&[]);
        assert!(matches!(
            join(&a, &c, &[(0, 0)]),
            Err(RelationError::JoinSortMismatch { .. })
        ));
    }

    #[test]
    fn join_on_empty_pairs_is_product() {
        let a = rel_ab(&[("x", 1)]);
        let c = rel_cd(&[(2, "p"), (3, "q")]);
        assert_eq!(join(&a, &c, &[]).unwrap().len(), 2);
    }

    #[test]
    fn semijoin_and_antijoin_partition() {
        let a = rel_ab(&[("x", 1), ("y", 2)]);
        let c = rel_cd(&[(2, "p")]);
        let s = semijoin(&a, &c, &[(1, 0)]).unwrap();
        let n = antijoin(&a, &c, &[(1, 0)]).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(n.len(), 1);
        assert!(s.contains(&tuple!["y", 2]));
        assert!(n.contains(&tuple!["x", 1]));
        assert_eq!(union(&s, &n).unwrap(), a);
    }

    #[test]
    fn rename_changes_only_name() {
        let a = rel_ab(&[("x", 1)]);
        let r = rename(&a, 0, Symbol::intern("a2")).unwrap();
        assert_eq!(r.schema().attributes()[0].name.as_str(), "a2");
        assert!(r.contains(&tuple!["x", 1]));
    }
}
