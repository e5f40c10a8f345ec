//! The steady-state command path allocates nothing.
//!
//! A counting global allocator records every allocation made on the
//! test thread. On a warm one-shard functional device (every command
//! kind issued once, so first-seen statistics names and cost memo
//! entries already exist) re-issuing the same pre-built commands must
//! perform zero heap allocations: the object tables are looked up in
//! place, aligned operands are read shard-locally, results are written
//! into the destination's existing buffer, and statistics names are
//! formatted on the stack. Commands whose destination is also an input
//! are excluded; they may keep their one output allocation.
//!
//! The same holds on a four-shard device with the metrics registry on:
//! commands below the pool's work floor run their shards inline (no
//! pool fan-out, no per-shard result slots) and the registry builds its
//! instrument keys on the stack. It also holds for element-wise commands
//! long enough to fan out to the pool: the job lives on the caller's
//! stack and claims its chunks from one counter.
//!
//! This file is its own test binary so the allocator hook sees nothing
//! but this test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pimeval::exec::{self, pool};
use pimeval::pim_microcode::gen::{BinaryOp, CmpOp};
use pimeval::{DataType, Device, DeviceConfig, ObjId, OpKind, PimCommand, PimTarget};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator can run during thread teardown, after
    // the thread-local is gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Every command kind reading `a`, `b` and `mask` and writing `dst`
/// (never read), followed by the three reductions of `a` when
/// `reductions` is set.
fn command_set(a: ObjId, b: ObjId, mask: ObjId, dst: ObjId, reductions: bool) -> Vec<PimCommand> {
    let mut cmds = Vec::new();
    for op in [
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::And,
        BinaryOp::Or,
        BinaryOp::Xor,
        BinaryOp::Xnor,
    ] {
        cmds.push(PimCommand::elementwise2(OpKind::Binary(op), a, b, dst));
        cmds.push(PimCommand::elementwise1(
            OpKind::BinaryScalar(op, 5),
            a,
            dst,
        ));
    }
    for op in [CmpOp::Lt, CmpOp::Gt, CmpOp::Eq] {
        cmds.push(PimCommand::elementwise2(OpKind::Cmp(op), a, b, dst));
        cmds.push(PimCommand::elementwise1(OpKind::CmpScalar(op, -3), a, dst));
        cmds.push(PimCommand::fused_cmp_select(op, a, b, a, b, dst));
    }
    for kind in [OpKind::Min, OpKind::Max] {
        cmds.push(PimCommand::elementwise2(kind, a, b, dst));
    }
    for kind in [
        OpKind::MinScalar(7),
        OpKind::MaxScalar(-7),
        OpKind::Not,
        OpKind::Abs,
        OpKind::Popcount,
        OpKind::ShiftL(3),
        OpKind::ShiftR(2),
    ] {
        cmds.push(PimCommand::elementwise1(kind, a, dst));
    }
    cmds.push(PimCommand::scaled_add(a, b, dst, 9));
    cmds.push(PimCommand::select(mask, a, b, dst));
    cmds.push(PimCommand::copy(a, dst));
    cmds.push(PimCommand::broadcast(dst, 42));
    if reductions {
        for kind in [OpKind::RedSum, OpKind::RedMin, OpKind::RedMax] {
            cmds.push(PimCommand::reduce(kind, a));
        }
    }
    cmds
}

/// Warms `dev` with every command kind once on `n`-element objects, then
/// re-issues the same commands and returns how many heap allocations the
/// re-issue made on this thread.
///
/// Reductions are left out once `n` is long enough to fan out:
/// `exec::par_chunks` collects one partials `Vec` per fan-out, so each
/// such reduction allocates exactly once.
fn warm_reissue_allocations(dev: &mut Device, n: i32) -> u64 {
    let reductions = (n as usize) < 2 * exec::MIN_CHUNK;
    let data: Vec<i32> = (0..n).map(|i| i * 7919 - 1_000_000).collect();
    let other: Vec<i32> = (0..n).map(|i| 5000 - i * 31).collect();
    let bits: Vec<i32> = (0..n).map(|i| i % 3).collect();
    let a = dev.alloc_vec(&data).unwrap();
    let b = dev.alloc_vec(&other).unwrap();
    let mask = dev.alloc_vec(&bits).unwrap();
    let dst = dev.alloc_associated(a, DataType::Int32).unwrap();

    // Warm-up: first-seen statistics names, instrument keys and cost
    // memo entries.
    for cmd in command_set(a, b, mask, dst, reductions) {
        dev.issue(cmd).unwrap();
    }
    let cmds = command_set(a, b, mask, dst, reductions);
    let count = cmds.len() as u64;
    let ops_before = dev.stats().total_ops();

    let before = allocations();
    for cmd in cmds {
        dev.issue(cmd).unwrap();
    }
    let allocated = allocations() - before;

    assert_eq!(dev.stats().total_ops() - ops_before, count);
    allocated
}

#[test]
fn warm_issue_performs_no_heap_allocation() {
    for target in [PimTarget::Fulcrum, PimTarget::BitSerial] {
        let mut dev = Device::new(DeviceConfig::new(target, 1).with_shards(1)).unwrap();
        let allocated = warm_reissue_allocations(&mut dev, 300);
        assert_eq!(
            allocated, 0,
            "{target}: warm commands performed {allocated} heap allocation(s)"
        );
    }
}

/// Also covers the fan-out path: `pool::snapshot()` is process-global, so
/// the fan-out case runs in this test, after the no-fan-out assertions,
/// rather than concurrently with them.
#[test]
fn warm_sharded_metered_issue_performs_no_heap_allocation() {
    // Fan-outs are only counted while pool profiling is on.
    pool::enable();
    for target in [PimTarget::Fulcrum, PimTarget::BitSerial] {
        exec::with_thread_count(2, || {
            let mut dev = Device::new(DeviceConfig::new(target, 1).with_shards(4)).unwrap();
            assert_eq!(dev.system().shard_count(), 4, "{target}");
            dev.enable_metrics(false);
            let fanouts = pool::snapshot().fanouts;
            let allocated = warm_reissue_allocations(&mut dev, 300);
            assert_eq!(
                allocated, 0,
                "{target}, 4 shards, metrics on: warm commands performed \
                 {allocated} heap allocation(s)"
            );
            assert_eq!(
                pool::snapshot().fanouts,
                fanouts,
                "{target}: 300-element commands fanned out to the pool"
            );
        });
    }
    let n = 4 * exec::MIN_CHUNK as i32;
    for target in [PimTarget::Fulcrum, PimTarget::BitSerial] {
        exec::with_thread_count(2, || {
            let mut dev = Device::new(DeviceConfig::new(target, 1).with_shards(1)).unwrap();
            let fanouts = pool::snapshot().fanouts;
            let allocated = warm_reissue_allocations(&mut dev, n);
            assert_eq!(
                allocated, 0,
                "{target}, {n} elements, 2 threads: warm commands performed \
                 {allocated} heap allocation(s)"
            );
            assert!(
                pool::snapshot().fanouts > fanouts,
                "{target}: {n}-element commands did not fan out to the pool"
            );
        });
    }
}
