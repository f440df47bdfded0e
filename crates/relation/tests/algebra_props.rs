//! Property tests: classical relational-algebra identities hold for the
//! rtic-relation implementation on arbitrary small relations.

use proptest::prelude::*;
use rtic_relation::{algebra, Relation, Schema, Sort, Symbol, Tuple, Value};

/// Strategy: a relation over (str, int) with a small vocabulary so that
/// joins and intersections actually hit.
fn rel_ab(name_hint: &'static str) -> impl Strategy<Value = Relation> {
    let tuple = (0usize..4, -2i64..3)
        .prop_map(|(s, n)| Tuple::new([Value::str(["p", "q", "r", "s"][s]), Value::Int(n)]));
    proptest::collection::vec(tuple, 0..12).prop_map(move |ts| {
        Relation::from_tuples(
            Schema::of(&[
                (
                    // Distinct attribute names per side keep concat legal.
                    match name_hint {
                        "L" => "la",
                        _ => "ra",
                    },
                    Sort::Str,
                ),
                (
                    match name_hint {
                        "L" => "lb",
                        _ => "rb",
                    },
                    Sort::Int,
                ),
            ]),
            ts,
        )
        .expect("generated tuples conform")
    })
}

proptest! {
    #[test]
    fn union_is_commutative_up_to_tuples(a in rel_ab("L"), b in rel_ab("L")) {
        let ab = algebra::union(&a, &b).unwrap();
        let ba = algebra::union(&b, &a).unwrap();
        prop_assert_eq!(ab.sorted(), ba.sorted());
    }

    #[test]
    fn union_is_idempotent(a in rel_ab("L")) {
        prop_assert_eq!(algebra::union(&a, &a).unwrap(), a);
    }

    #[test]
    fn difference_then_union_restores_superset(a in rel_ab("L"), b in rel_ab("L")) {
        // (a − b) ∪ (a ∩ b) == a
        let d = algebra::difference(&a, &b).unwrap();
        let i = algebra::intersection(&a, &b).unwrap();
        prop_assert_eq!(algebra::union(&d, &i).unwrap(), a);
    }

    #[test]
    fn intersection_via_double_difference(a in rel_ab("L"), b in rel_ab("L")) {
        // a ∩ b == a − (a − b)
        let i = algebra::intersection(&a, &b).unwrap();
        let dd = algebra::difference(&a, &algebra::difference(&a, &b).unwrap()).unwrap();
        prop_assert_eq!(i, dd);
    }

    #[test]
    fn semijoin_antijoin_partition(a in rel_ab("L"), b in rel_ab("R")) {
        let on = [(0usize, 0usize), (1usize, 1usize)];
        let s = algebra::semijoin(&a, &b, &on).unwrap();
        let n = algebra::antijoin(&a, &b, &on).unwrap();
        prop_assert_eq!(algebra::union(&s, &n).unwrap(), a.clone());
        prop_assert!(algebra::intersection(&s, &n).unwrap().is_empty());
    }

    #[test]
    fn join_subset_of_product(a in rel_ab("L"), b in rel_ab("R")) {
        let j = algebra::join(&a, &b, &[(1, 1)]).unwrap();
        let p = algebra::product(&a, &b).unwrap();
        for t in j.iter() {
            prop_assert!(p.contains(t));
            prop_assert_eq!(t[1], t[3], "join columns agree");
        }
        // And every product tuple with agreeing columns is in the join.
        let filtered = algebra::select(&p, |t| t[1] == t[3]);
        prop_assert_eq!(filtered.sorted(), j.sorted());
    }

    #[test]
    fn projection_never_grows(a in rel_ab("L")) {
        let p = algebra::project(&a, &[1]).unwrap();
        prop_assert!(p.len() <= a.len());
    }

    #[test]
    fn select_true_is_identity_select_false_is_empty(a in rel_ab("L")) {
        prop_assert_eq!(algebra::select(&a, |_| true), a.clone());
        prop_assert!(algebra::select(&a, |_| false).is_empty());
    }

    #[test]
    fn rename_preserves_extension(a in rel_ab("L")) {
        let r = algebra::rename(&a, 0, Symbol::intern("fresh_name")).unwrap();
        prop_assert_eq!(r.len(), a.len());
        for t in a.iter() {
            prop_assert!(r.contains(t));
        }
    }

    #[test]
    fn semijoin_is_projectionless_filter(a in rel_ab("L"), b in rel_ab("R")) {
        // a ⋉ b on col1 == σ_{∃ match}(a), i.e. every kept tuple has a join partner.
        let s = algebra::semijoin(&a, &b, &[(1, 1)]).unwrap();
        for t in s.iter() {
            prop_assert!(b.iter().any(|u| u[1] == t[1]));
        }
        for t in a.iter() {
            if b.iter().any(|u| u[1] == t[1]) {
                prop_assert!(s.contains(t));
            }
        }
    }
}
