//! The key chase `chase_K` (Section 2).
//!
//! The paper defines the chase as a fixpoint of the step
//!
//! > for some `R`, some `A`, and distinct `u, v ∈ I(R)` with
//! > `u(K) = v(K)`, `u(A) ≠ ⊥`, and `v(A) = ⊥`, replace `v` by `v′`
//! > identical to `v` except that `v′(A) = u(A)`,
//!
//! and notes that the chase turns an instance into a valid one **iff** the
//! instance contains no two tuples with the same key and distinct non-null
//! values for the same attribute, in which case the result is unique.
//!
//! [`chase_insert`] is the engine's path: the insertion chase
//! `chase_K(I ∪ {R(t)})` of a valid `I`, done in place. Only the one tuple
//! sharing `t`'s key can merge with `t`, so it costs one lookup and one merge
//! instead of a re-chase of `I`.
//!
//! [`chase`] implements the characterization in closed form (group by key,
//! merge attribute-wise, fail on conflicts) and [`naive_chase`] the literal
//! step-by-step fixpoint. Both are kept as test oracles for the key-local
//! chase and for each other.

use std::fmt;

use crate::instance::{Instance, RawInstance, Relation};
use crate::schema::{RelId, Schema};
use crate::tuple::Tuple;
use crate::value::Value;

/// Why the chase failed to produce a valid instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaseFailure {
    /// A tuple has `⊥` as key, so no valid instance can contain it.
    NullKey {
        /// The relation containing the ⊥-keyed tuple.
        rel: RelId,
    },
    /// Two tuples with the same key carry distinct non-null values for the
    /// same attribute; the chase terminates with an invalid instance.
    Conflict {
        /// The relation in which the conflict arose.
        rel: RelId,
        /// The key shared by the conflicting tuples.
        key: Value,
    },
}

impl fmt::Display for ChaseFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaseFailure::NullKey { rel } => {
                write!(f, "chase failed: tuple with ⊥ key in relation {rel:?}")
            }
            ChaseFailure::Conflict { rel, key } => write!(
                f,
                "chase failed: conflicting non-null values for key {key} in relation {rel:?}"
            ),
        }
    }
}

impl std::error::Error for ChaseFailure {}

/// Computes `chase_K(raw)` in closed form.
///
/// For each relation and each key, the merged tuple takes, per attribute, the
/// unique non-null value among the colliding tuples (or `⊥` if all are `⊥`).
/// Returns [`ChaseFailure::Conflict`] when two distinct non-null values
/// compete, and [`ChaseFailure::NullKey`] when a tuple has an undefined key.
pub fn chase(schema: &Schema, raw: &RawInstance) -> Result<Instance, ChaseFailure> {
    debug_assert_eq!(raw.width(), schema.len());
    let mut out = Instance::empty(schema);
    for r in schema.rel_ids() {
        let merged = chase_relation(r, raw.rel(r))?;
        *out.rel_mut(r) = merged;
    }
    Ok(out)
}

fn chase_relation(rel: RelId, tuples: &[Tuple]) -> Result<Relation, ChaseFailure> {
    let mut out = Relation::new();
    // Tuples are few and BTreeMap keeps determinism; group by key.
    let mut groups: std::collections::BTreeMap<&Value, Vec<&Tuple>> = Default::default();
    for t in tuples {
        if t.key().is_null() {
            return Err(ChaseFailure::NullKey { rel });
        }
        groups.entry(t.key()).or_default().push(t);
    }
    for (key, group) in groups {
        let arity = group[0].arity();
        let mut merged = Tuple::nulls(arity);
        for t in &group {
            for (a, v) in t.entries() {
                if v.is_null() {
                    continue;
                }
                let cur = merged.get(a);
                if cur.is_null() {
                    merged.set(a, *v);
                } else if cur != v {
                    return Err(ChaseFailure::Conflict { rel, key: *key });
                }
            }
        }
        out.insert(merged).expect("key checked non-null above");
    }
    Ok(out)
}

/// The key-local insertion chase, in place: `I := chase_K(I ∪ {R(t)})` for
/// a valid `I`.
///
/// Returns the tuple previously stored under `t`'s key (`None` for a fresh
/// key). On failure — a `⊥` key, or a non-null value of `t` that differs
/// from the stored one — the instance is left unchanged. The result equals
/// [`chase`] of `I ∪ {R(t)}`.
pub fn chase_insert(
    instance: &mut Instance,
    rel: RelId,
    t: Tuple,
) -> Result<Option<Tuple>, ChaseFailure> {
    let key = *t.key();
    if key.is_null() {
        return Err(ChaseFailure::NullKey { rel });
    }
    let store = instance.rel_mut(rel);
    let Some(old) = store.get(&key) else {
        store.insert(t).expect("key checked non-null above");
        return Ok(None);
    };
    let mut merged = old.clone();
    for (a, v) in t.entries() {
        let cur = merged.get(a);
        if v.is_null() || cur == v {
            continue;
        }
        if !cur.is_null() {
            return Err(ChaseFailure::Conflict { rel, key });
        }
        merged.set(a, *v);
    }
    if &merged == old {
        return Ok(Some(merged));
    }
    Ok(store.insert(merged).expect("key checked non-null above"))
}

/// `chase_K(I ∪ {R(t)})` for a valid `I` and one extra tuple, as a new
/// instance: a clone of `base` followed by [`chase_insert`].
pub fn chase_with(
    schema: &Schema,
    base: &Instance,
    rel: RelId,
    extra: Tuple,
) -> Result<Instance, ChaseFailure> {
    debug_assert_eq!(base.width(), schema.len());
    let mut out = base.clone();
    chase_insert(&mut out, rel, extra)?;
    Ok(out)
}

/// The literal step-by-step chase fixpoint from the paper, applied until no
/// step fires, followed by duplicate elimination and a validity check.
///
/// Exponentially slower in the worst case than [`chase`]; retained to
/// cross-check the closed form and [`chase_insert`] (see the property tests).
pub fn naive_chase(schema: &Schema, raw: &RawInstance) -> Result<Instance, ChaseFailure> {
    let mut rels: Vec<Vec<Tuple>> = (0..raw.width())
        .map(|i| raw.rel(RelId(i as u32)).to_vec())
        .collect();
    for (ri, tuples) in rels.iter_mut().enumerate() {
        let rel = RelId(ri as u32);
        // Apply chase steps to a fixpoint.
        loop {
            let mut changed = false;
            for i in 0..tuples.len() {
                for j in 0..tuples.len() {
                    if i == j || tuples[i].key() != tuples[j].key() || tuples[i].key().is_null() {
                        continue;
                    }
                    for a in 0..tuples[i].arity() {
                        let a = crate::schema::AttrId(a as u32);
                        if !tuples[i].get(a).is_null() && tuples[j].get(a).is_null() {
                            let v = *tuples[i].get(a);
                            tuples[j].set(a, v);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Deduplicate, then check validity.
        tuples.sort();
        tuples.dedup();
        for t in tuples.iter() {
            if t.key().is_null() {
                return Err(ChaseFailure::NullKey { rel });
            }
        }
        for i in 0..tuples.len() {
            for j in (i + 1)..tuples.len() {
                if tuples[i].key() == tuples[j].key() {
                    return Err(ChaseFailure::Conflict {
                        rel,
                        key: *tuples[i].key(),
                    });
                }
            }
        }
    }
    let mut out = Instance::empty(schema);
    for (ri, tuples) in rels.into_iter().enumerate() {
        for t in tuples {
            out.rel_mut(RelId(ri as u32))
                .insert(t)
                .expect("validity checked above");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrId, RelSchema};

    fn schema() -> Schema {
        Schema::from_relations([RelSchema::new("R", ["K", "A", "B"]).unwrap()]).unwrap()
    }

    const R: RelId = RelId(0);

    fn t(k: &str, a: Option<&str>, b: Option<&str>) -> Tuple {
        Tuple::new([
            Value::str(k),
            a.map(Value::str).unwrap_or(Value::Null),
            b.map(Value::str).unwrap_or(Value::Null),
        ])
    }

    #[test]
    fn merges_complementary_tuples() {
        // Example 2.2's successful half: R(k, ⊥, c) merged with R(k, a, ⊥)
        // yields R(k, a, c).
        let s = schema();
        let mut raw = RawInstance::empty(&s);
        raw.push(R, t("k", None, Some("c")));
        raw.push(R, t("k", Some("a"), None));
        let i = chase(&s, &raw).unwrap();
        assert_eq!(i.rel(R).len(), 1);
        assert_eq!(
            i.rel(R).get(&Value::str("k")),
            Some(&t("k", Some("a"), Some("c")))
        );
    }

    #[test]
    fn conflicting_values_fail() {
        let s = schema();
        let mut raw = RawInstance::empty(&s);
        raw.push(R, t("k", Some("a"), None));
        raw.push(R, t("k", Some("x"), None));
        assert_eq!(
            chase(&s, &raw),
            Err(ChaseFailure::Conflict {
                rel: R,
                key: Value::str("k")
            })
        );
    }

    #[test]
    fn null_key_fails() {
        let s = schema();
        let mut raw = RawInstance::empty(&s);
        raw.push(R, Tuple::new([Value::Null, Value::str("a"), Value::Null]));
        assert_eq!(chase(&s, &raw), Err(ChaseFailure::NullKey { rel: R }));
    }

    #[test]
    fn distinct_keys_pass_through() {
        let s = schema();
        let mut raw = RawInstance::empty(&s);
        raw.push(R, t("k1", Some("a"), None));
        raw.push(R, t("k2", None, Some("b")));
        let i = chase(&s, &raw).unwrap();
        assert_eq!(i.rel(R).len(), 2);
    }

    #[test]
    fn identical_duplicates_collapse() {
        let s = schema();
        let mut raw = RawInstance::empty(&s);
        raw.push(R, t("k", Some("a"), Some("b")));
        raw.push(R, t("k", Some("a"), Some("b")));
        let i = chase(&s, &raw).unwrap();
        assert_eq!(i.rel(R).len(), 1);
    }

    #[test]
    fn chase_with_adds_one_tuple() {
        let s = schema();
        let mut base = Instance::empty(&s);
        base.rel_mut(R).insert(t("k", Some("a"), None)).unwrap();
        let j = chase_with(&s, &base, R, t("k", None, Some("c"))).unwrap();
        assert_eq!(
            j.rel(R).get(&Value::str("k")),
            Some(&t("k", Some("a"), Some("c")))
        );
    }

    #[test]
    fn chase_insert_agrees_with_the_closed_form() {
        let s = schema();
        let mut base = Instance::empty(&s);
        base.rel_mut(R).insert(t("k", Some("a"), None)).unwrap();
        base.rel_mut(R)
            .insert(t("j", Some("a"), Some("b")))
            .unwrap();
        for extra in [
            t("k", None, Some("c")),                                 // merge into a null
            t("k", Some("x"), None),                                 // conflict
            t("k", Some("a"), None),                                 // identical duplicate
            t("n", Some("a"), None),                                 // fresh key
            t("j", None, None),                                      // subsumed by the stored tuple
            Tuple::new([Value::Null, Value::str("a"), Value::Null]), // ⊥ key
        ] {
            let mut raw = RawInstance::from_instance(&base);
            raw.push(R, extra.clone());
            let want = chase(&s, &raw);
            let mut got = base.clone();
            let prev = chase_insert(&mut got, R, extra.clone());
            match want {
                Ok(want) => {
                    assert_eq!(got, want, "{extra:?}");
                    assert_eq!(prev.unwrap().as_ref(), base.rel(R).get(extra.key()));
                }
                Err(e) => {
                    assert_eq!(prev, Err(e), "{extra:?}");
                    assert_eq!(got, base, "a failed chase leaves the instance unchanged");
                }
            }
        }
    }

    #[test]
    fn three_way_merge() {
        // Merging is associative across several partial tuples.
        let s = schema();
        let mut raw = RawInstance::empty(&s);
        raw.push(R, t("k", Some("a"), None));
        raw.push(R, t("k", None, Some("b")));
        raw.push(R, t("k", None, None));
        let i = chase(&s, &raw).unwrap();
        assert_eq!(
            i.rel(R).get(&Value::str("k")),
            Some(&t("k", Some("a"), Some("b")))
        );
    }

    #[test]
    fn naive_chase_agrees_on_examples() {
        let s = schema();
        for raw in [
            {
                let mut r = RawInstance::empty(&s);
                r.push(R, t("k", None, Some("c")));
                r.push(R, t("k", Some("a"), None));
                r
            },
            {
                let mut r = RawInstance::empty(&s);
                r.push(R, t("k", Some("a"), None));
                r.push(R, t("k", Some("x"), None));
                r
            },
            {
                let mut r = RawInstance::empty(&s);
                r.push(R, t("k1", Some("a"), None));
                r.push(R, t("k2", None, Some("b")));
                r
            },
        ] {
            assert_eq!(chase(&s, &raw), naive_chase(&s, &raw));
        }
    }

    #[test]
    fn idempotent_on_valid_instances() {
        let s = schema();
        let mut i = Instance::empty(&s);
        i.rel_mut(R).insert(t("k", Some("a"), None)).unwrap();
        let again = chase(&s, &RawInstance::from_instance(&i)).unwrap();
        assert_eq!(i, again);
    }

    #[test]
    fn merge_respects_attrid_positions() {
        let s = schema();
        let mut raw = RawInstance::empty(&s);
        let partial = Tuple::padded(
            3,
            [(AttrId(0), Value::str("k")), (AttrId(2), Value::str("b"))],
        );
        raw.push(R, partial);
        let i = chase(&s, &raw).unwrap();
        let got = i.rel(R).get(&Value::str("k")).unwrap();
        assert!(got.get(AttrId(1)).is_null());
        assert_eq!(got.get(AttrId(2)), &Value::str("b"));
    }
}
