//! Set layouts are chosen once, when a trie is built (paper §4.3, the
//! fig. 5 density crossover). Executing queries must never rebuild a
//! cached trie: every run after the first serves the same `Arc`, and the
//! answers stay identical run to run.

use emptyheaded::semiring::DynValue;
use emptyheaded::set::LayoutPolicy;
use emptyheaded::{Config, Database, Relation};
use std::sync::Arc;

/// Both column orders of every named relation's set-level trie.
fn cached_tries(db: &Database, names: &[&str]) -> Vec<Arc<emptyheaded::trie::Trie>> {
    let mut out = Vec::new();
    for name in names {
        let rel = db.relation(name).expect("relation loaded");
        for order in [[0, 1], [1, 0]] {
            out.push(rel.trie(&order, LayoutPolicy::SetLevel));
        }
    }
    out
}

fn assert_same_tries(before: &[Arc<emptyheaded::trie::Trie>], db: &Database, names: &[&str]) {
    for (i, (a, b)) in before.iter().zip(cached_tries(db, names)).enumerate() {
        assert!(Arc::ptr_eq(a, &b), "trie {i} of {names:?} was rebuilt");
    }
}

#[test]
fn dense_hub_join_never_rebuilds_cached_tries() {
    // E: 20 hub sources with dense (consecutive) neighbour sets, plus 500
    // tail sources with singleton neighbours, so level 1 is built mostly
    // uint. F shares only the hub sources, so the join reads nothing but
    // the dense sets.
    let mut e_rows: Vec<Vec<u32>> = Vec::new();
    for x in 0..20u32 {
        for y in 0..100u32 {
            e_rows.push(vec![x, 1000 + y]);
        }
    }
    for t in 0..500u32 {
        e_rows.push(vec![100 + t, 5000 + t]);
    }
    let f_rows: Vec<Vec<u32>> = (0..20u32)
        .flat_map(|x| (0..100u32).map(move |y| vec![x, 1000 + y]))
        .collect();
    let mut db = Database::with_config(Config::default());
    db.register("E", Relation::from_rows(2, e_rows));
    db.register("F", Relation::from_rows(2, f_rows));
    let names = ["E", "F"];
    let before = cached_tries(&db, &names);
    for _ in 0..3 {
        let out = db
            .query("C(;w:long) :- E(x,y),F(x,y); w=<<COUNT(*)>>.")
            .unwrap();
        assert_eq!(out.scalar_u64(), Some(2000));
        assert_same_tries(&before, &db, &names);
    }
}

#[test]
fn recursive_sssp_never_rebuilds_cached_tries() {
    // Undirected hub-and-spoke graph: the start node 0 links ten hubs,
    // and each hub fans out to 40 consecutive spokes. The hubs' dense
    // neighbour sets are built as bitsets, the 400 singleton spoke sets as
    // uint, so each fixpoint iteration reads sets of one kind only: the
    // first iteration the hubs' dense sets, the next the spokes' sparse ones.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut undirected = |a: u32, b: u32| {
        edges.push((a, b));
        edges.push((b, a));
    };
    for h in 1..=10u32 {
        undirected(0, h);
        for s in 0..40u32 {
            undirected(h, 11 + 40 * (h - 1) + s);
        }
    }
    let mut db = Database::with_config(Config::default());
    db.load_edges("Edge", &edges);
    db.define_const("start", 0);
    let names = ["Edge"];
    let before = cached_tries(&db, &names);
    let mut answers: Vec<Vec<(Vec<u32>, DynValue)>> = Vec::new();
    for _ in 0..3 {
        db.query("SSSP(x;y:int) :- Edge('start',x); y=1.").unwrap();
        let out = db
            .query("SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.")
            .unwrap();
        assert_same_tries(&before, &db, &names);
        answers.push(
            out.annotated_rows()
                .into_iter()
                .map(|(row, v)| (row.to_vec(), v))
                .collect(),
        );
    }
    assert_eq!(answers[0].len(), 411, "the fixpoint reaches every node");
    assert_eq!(answers[0], answers[1]);
    assert_eq!(answers[1], answers[2]);
}
