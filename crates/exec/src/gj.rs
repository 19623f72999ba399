//! The Generic-Join recursion (paper Algorithm 1), allocation-free.
//!
//! Every loop level runs off the participation tables precomputed in
//! [`crate::program::JoinProgram`] and scratch owned by
//! [`crate::program::GjContext`]: candidate values merge into reusable
//! per-level buffers via [`eh_set::intersect::intersect_all_with`], trie
//! cursors advance in fixed-size slot arrays, and the innermost count fast
//! path folds through [`eh_set::intersect::count_all_with`] — no heap
//! allocation happens anywhere in this module's recursion: no `Vec::new()`,
//! no `collect()`, scratch must come from `GjContext`. The `alloc-free`
//! rule of `eh_lint` enforces this whole-file (it lexes real tokens, so
//! this very sentence naming `Vec::new()` no longer trips the gate the
//! way the old CI grep would have).
//!
//! The level-0 prologue ([`fill_level`] + [`step_value`]) is shared
//! between the serial driver ([`gj`]) and the parallel schedulers in
//! [`crate::parallel`], so the two can no longer drift.

use crate::program::{AtomExec, GjContext, JoinProgram, ValueBuf};
use crate::sink::{emit, Sink};
use eh_semiring::{AggOp, DynValue};
use eh_set::intersect::{count_all_with, intersect_all_with};
use eh_set::MultiwayScratch;
use std::time::Instant;

/// Only 1 in `CLOCK_SAMPLE_MASK + 1` profiled intersections reads the
/// clock — two `Instant` calls per intersection cost more than the
/// intersection itself on small sets (and hundreds of nanoseconds on
/// hosts where `clock_gettime` leaves the vDSO), blowing the <2%
/// overhead ceiling. Span timings are estimates either way; counters
/// stay exact.
pub(crate) const CLOCK_SAMPLE_MASK: u64 = 1023;

/// Deterministic clock sampling for per-level span timings: every
/// profiled merge call ticks its level's tally, but only every
/// `CLOCK_SAMPLE_MASK + 1`-th tick reads the clock (and bumps
/// `samples`). The profile fold scales the sampled `ns`/`values` by the
/// exact `ticks / samples` ratio, so reported spans are sampled
/// estimates while the call and work counters stay exact.
#[inline]
pub(crate) fn sample_clock(ctx: &mut GjContext<'_>, level: usize) -> Option<Instant> {
    let cell = &mut ctx.level_prof[level];
    let tick = cell.ticks;
    cell.ticks = tick.wrapping_add(1);
    if tick & CLOCK_SAMPLE_MASK == 0 {
        cell.samples += 1;
        Some(Instant::now())
    } else {
        None
    }
}

/// Merge the candidate values for `level` into `out` (cleared first):
/// the multiway intersection of every participating atom's current set,
/// smallest-first, through the reusable `mw` scratch. This is the level
/// prologue shared by the serial recursion and the parallel level-0
/// drivers.
pub(crate) fn fill_level(
    program: &JoinProgram,
    level: usize,
    atoms: &[AtomExec],
    cfg: &crate::config::Config,
    mw: &mut MultiwayScratch,
    out: &mut ValueBuf,
) {
    out.clear();
    let steps = &program.levels[level].steps;
    intersect_all_with(
        steps.len(),
        |k| {
            let st = &steps[k];
            atoms[st.atom].set_at(st.depth)
        },
        &cfg.intersect,
        mw,
        out,
    );
}

/// Bind `v` at `level`: advance every participating atom's trie cursor
/// (multiplying in leaf annotations), and recurse into the next level if
/// every atom still matches. The per-value body shared by the serial
/// recursion and the parallel level-0 drivers. `sample` marks this value
/// as a profiling timing sample — derived from the caller's loop index
/// (see [`gj`]'s recursion step), so the innermost count fast path never
/// touches a counter to decide whether to read the clock.
#[inline]
pub(crate) fn step_value(
    program: &JoinProgram,
    ctx: &mut GjContext<'_>,
    level: usize,
    v: u32,
    product: DynValue,
    sink: &mut Sink,
    sample: bool,
) {
    ctx.bindings[level] = v;
    let mut prod = product;
    for st in &program.levels[level].steps {
        let a = &mut ctx.atoms[st.atom];
        let n = a.trie.node(a.stack[st.depth]);
        let mut hint = a.hints[st.depth];
        let rank = n.set.rank_hinted(v, &mut hint);
        a.hints[st.depth] = hint;
        let Some(rank) = rank else {
            // `v` is absent from this atom (a larger participant produced
            // it): the binding dies here, nothing to undo.
            return;
        };
        if !st.leaf {
            a.stack[st.depth + 1] = n.children[rank];
            a.hints[st.depth + 1] = 0;
        } else if a.annotated {
            if let Some(an) = n.annots.get(rank).copied() {
                prod = program.op.times(prod, an);
            }
        }
    }
    gj(program, ctx, level + 1, prod, sink, sample);
}

/// The generic worst-case optimal join over one node (Algorithm 1), with
/// early aggregation and the innermost count fast path. All scratch comes
/// from `ctx`; nothing is allocated per call.
pub(crate) fn gj(
    program: &JoinProgram,
    ctx: &mut GjContext<'_>,
    level: usize,
    product: DynValue,
    sink: &mut Sink,
    sample: bool,
) {
    if level == program.attrs_len {
        emit(program, &ctx.bindings, product, sink);
        return;
    }
    let steps = &program.levels[level].steps;
    if steps.is_empty() {
        // Attribute bound by no live atom at this node (can happen when a
        // selection removed the only binding atom): nothing to iterate.
        return;
    }
    // Innermost count fast path (paper §5.3: aggregate queries never
    // materialize the deepest intersection) — applicability precomputed.
    if level + 1 == program.attrs_len && program.count_fast {
        // The hottest loop in the engine: even one counter bump per call
        // shows up against the <2% profiling-overhead ceiling, so this
        // path keeps NO per-call state. The timing decision rides in on
        // `sample` (the parent loop index), and the fold reconstructs the
        // exact call count from the kernel-dispatch stats (see
        // `fold_node_profile`).
        let started = if ctx.cfg.profile && sample {
            ctx.level_prof[level].samples += 1;
            Some(Instant::now())
        } else {
            None
        };
        let count = {
            let atoms = &ctx.atoms;
            count_all_with(
                steps.len(),
                |k| {
                    let st = &steps[k];
                    atoms[st.atom].set_at(st.depth)
                },
                &ctx.cfg.intersect,
                &mut ctx.mw,
            )
        };
        if let Some(t) = started {
            let cell = &mut ctx.level_prof[level];
            cell.ns += t.elapsed().as_nanos() as u64;
            cell.values += count as u64;
        }
        if count > 0 {
            let folded = fold_count(program.op, product, count);
            emit(program, &ctx.bindings, folded, sink);
        }
        return;
    }
    // Fill this level's value buffer from scratch owned by the context.
    let profiling = ctx.cfg.profile;
    let started = if profiling {
        sample_clock(ctx, level)
    } else {
        None
    };
    let mut merged = std::mem::take(&mut ctx.scratch[level]);
    fill_level(
        program,
        level,
        &ctx.atoms,
        ctx.cfg,
        &mut ctx.mw,
        &mut merged,
    );
    if let Some(t) = started {
        let cell = &mut ctx.level_prof[level];
        cell.ns += t.elapsed().as_nanos() as u64;
        cell.values += merged.len() as u64;
    }
    // Fresh ascent at this level: reset each participating atom's cursor.
    for st in steps {
        ctx.atoms[st.atom].hints[st.depth] = 0;
    }
    for idx in 0..merged.len() {
        // Stateless ~1-in-(CLOCK_SAMPLE_MASK+1) child sampling: xor the
        // value bits into the loop index so the rate holds even when
        // every parent loop is shorter than the mask period.
        let child_sample = (merged[idx] as u64 ^ idx as u64) & CLOCK_SAMPLE_MASK == 0;
        step_value(
            program,
            ctx,
            level,
            merged[idx],
            product,
            sink,
            child_sample,
        );
    }
    // Return the buffer for reuse by sibling invocations at this level.
    ctx.scratch[level] = merged;
}

/// Fold `count` identical contributions of `product` into one value:
/// `⊕`-ing `product` with itself `count` times.
pub(crate) fn fold_count(op: AggOp, product: DynValue, count: usize) -> DynValue {
    match op {
        // x ⊕ ... ⊕ x (count times) = count·x in ℕ/ℝ semirings.
        AggOp::Count => DynValue::U64(product.as_u64().wrapping_mul(count as u64)),
        AggOp::Sum => DynValue::F64(product.as_f64() * count as f64),
        // min(x, x, ...) = x.
        AggOp::Min | AggOp::Max => product,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::executor::execute_rule;
    use crate::storage::{MemCatalog, Relation};
    use eh_query::parse_rule;

    fn path_catalog() -> MemCatalog {
        let mut cat = MemCatalog::new();
        cat.insert(
            "E",
            Relation::from_rows(2, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![1, 3]]),
        );
        cat
    }

    #[test]
    fn two_hop_join() {
        let cat = path_catalog();
        let rule = parse_rule("P(x,z) :- E(x,y),E(y,z).").unwrap();
        let out = execute_rule(&rule, &cat, &Config::default()).unwrap();
        let mut rows: Vec<Vec<u32>> = out.rows().iter().map(|r| r.to_vec()).collect();
        rows.sort();
        assert_eq!(rows, vec![vec![0, 2], vec![0, 3], vec![1, 3]]);
    }

    #[test]
    fn projection_dedups() {
        let cat = path_catalog();
        let rule = parse_rule("S(x) :- E(x,y).").unwrap();
        let out = execute_rule(&rule, &cat, &Config::default()).unwrap();
        assert_eq!(out.rows().flat(), &[0, 1, 2]);
    }

    #[test]
    fn count_two_hops() {
        let cat = path_catalog();
        let rule = parse_rule("C(;w:long) :- E(x,y),E(y,z); w=<<COUNT(*)>>.").unwrap();
        let out = execute_rule(&rule, &cat, &Config::default()).unwrap();
        assert_eq!(out.scalar().unwrap().as_u64(), 3);
    }

    #[test]
    fn count_grouped_by_key() {
        let cat = path_catalog();
        let rule = parse_rule("D(x;w:long) :- E(x,y); w=<<COUNT(*)>>.").unwrap();
        let out = execute_rule(&rule, &cat, &Config::default()).unwrap();
        assert_eq!(out.rows().flat(), &[0, 1, 2]);
        let annots = out.annotations().unwrap();
        assert_eq!(annots[0].as_u64(), 1); // 0 -> {1}
        assert_eq!(annots[1].as_u64(), 2); // 1 -> {2,3}
        assert_eq!(annots[2].as_u64(), 1); // 2 -> {3}
    }

    #[test]
    fn selection_filters() {
        let cat = path_catalog();
        let rule = parse_rule("Q(y) :- E('1',y).").unwrap();
        let out = execute_rule(&rule, &cat, &Config::default()).unwrap();
        assert_eq!(out.rows().flat(), &[2, 3]);
    }

    #[test]
    fn selection_missing_constant_is_empty() {
        let cat = path_catalog();
        let rule = parse_rule("Q(y) :- E('99',y).").unwrap();
        let out = execute_rule(&rule, &cat, &Config::default()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn annotated_sum_aggregation() {
        // Weighted edges; total weight of 2-paths = sum over (x,y,z) of
        // w(x,y)*w(y,z).
        use eh_semiring::DynValue;
        let mut cat = MemCatalog::new();
        cat.insert(
            "W",
            Relation::from_annotated_rows(
                2,
                vec![vec![0, 1], vec![1, 2], vec![1, 3]],
                vec![DynValue::F64(2.0), DynValue::F64(3.0), DynValue::F64(5.0)],
                AggOp::Sum,
            ),
        );
        let rule = parse_rule("C(;w:float) :- W(x,y),W(y,z); w=<<SUM(z)>>.").unwrap();
        let out = execute_rule(&rule, &cat, &Config::default()).unwrap();
        // paths: (0,1,2): 2*3=6, (0,1,3): 2*5=10 → 16.
        assert_eq!(out.scalar().unwrap().as_f64(), 16.0);
    }

    #[test]
    fn fold_count_semantics() {
        assert_eq!(fold_count(AggOp::Count, DynValue::U64(3), 4).as_u64(), 12);
        assert_eq!(fold_count(AggOp::Sum, DynValue::F64(2.5), 4).as_f64(), 10.0);
        assert_eq!(fold_count(AggOp::Min, DynValue::U64(7), 9).as_u64(), 7);
    }
}
