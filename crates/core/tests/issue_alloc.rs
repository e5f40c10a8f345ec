//! The steady-state command path allocates nothing.
//!
//! A counting global allocator records every allocation made on the
//! test thread. On a warm one-shard functional device (every command
//! kind issued once, so first-seen statistics names and cost memo
//! entries already exist) re-issuing the same commands must perform
//! zero heap allocations, whether they are pre-built [`PimCommand`]s or
//! go through the eager wrappers (`Device::add`, `select`, …): operands
//! are resolved against the object table once, commands hold their
//! inputs inline, aligned operands are read shard-locally, results are
//! written into the destination's existing buffer, and statistics names
//! are built on the stack. Commands whose destination is also an input
//! update it in place.
//!
//! The same holds on a four-shard device with the metrics registry on:
//! commands below the pool's work floor run inline (no pool fan-out, no
//! result slots) and the registry builds its instrument keys on the
//! stack. It also holds for element-wise commands long enough to fan out
//! to the pool: the job lives on the caller's stack and claims its
//! chunks from one counter.
//!
//! Commands, copies and UPMEM bursts priced by the bank FSM allocate
//! nothing either, and a warm `alloc_associated` + `free` pair on one shard
//! allocates exactly its zeroed buffer, traced into a full ring or not.
//! On several shards it adds only the map's and layouts' lists: an object
//! is one buffer, not one per shard.
//!
//! This file is its own test binary so the allocator hook sees nothing
//! but this test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use pimeval::exec::{self, pool};
use pimeval::pim_microcode::gen::{BinaryOp, CmpOp};
use pimeval::{
    DataType, Device, DeviceConfig, ObjId, OpKind, PimCommand, PimTarget, TimingBackend,
};

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
/// (never read), then the three reductions of `a` when `small`, and
/// commands that also read `dst` when `small`.
fn command_set(a: ObjId, b: ObjId, mask: ObjId, dst: ObjId, small: bool) -> Vec<PimCommand> {
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
    if small {
        for kind in [OpKind::RedSum, OpKind::RedMin, OpKind::RedMax] {
            cmds.push(PimCommand::reduce(kind, a));
        }
        // The aliased shapes the apps issue: VGG's `add(tmp, acc, acc)`,
        // AES's `xor(out, s, out)` and `xor_scalar(s, 1, s)`.
        let add = OpKind::Binary(BinaryOp::Add);
        cmds.push(PimCommand::elementwise2(add, a, dst, dst));
        cmds.push(PimCommand::elementwise2(
            OpKind::Binary(BinaryOp::Xor),
            dst,
            b,
            dst,
        ));
        cmds.push(PimCommand::elementwise1(
            OpKind::BinaryScalar(BinaryOp::Xor, 1),
            dst,
            dst,
        ));
        cmds.push(PimCommand::select(mask, dst, b, dst));
        cmds.push(PimCommand::fused_cmp_select(CmpOp::Lt, dst, b, a, dst, dst));
        cmds.push(PimCommand::scaled_add(dst, dst, dst, 3));
    }
    cmds
}

/// The eager wrappers over the same shapes as [`command_set`] (with the
/// same `small` switch); returns how many commands they issued.
fn issue_eager(dev: &mut Device, a: ObjId, b: ObjId, mask: ObjId, dst: ObjId, small: bool) -> u64 {
    let binary = [
        Device::add,
        Device::sub,
        Device::mul,
        Device::and,
        Device::or,
        Device::xor,
        Device::xnor,
        Device::min,
        Device::max,
        Device::lt,
        Device::gt,
        Device::eq,
    ];
    let scalar = [
        Device::add_scalar,
        Device::sub_scalar,
        Device::mul_scalar,
        Device::and_scalar,
        Device::or_scalar,
        Device::xor_scalar,
        Device::min_scalar,
        Device::max_scalar,
        Device::lt_scalar,
        Device::gt_scalar,
        Device::eq_scalar,
    ];
    let unary = [Device::not, Device::abs, Device::popcount];
    for f in binary {
        f(dev, a, b, dst).unwrap();
    }
    for f in scalar {
        f(dev, a, -3, dst).unwrap();
    }
    for f in unary {
        f(dev, a, dst).unwrap();
    }
    dev.shift_left(a, 3, dst).unwrap();
    dev.shift_right(a, 2, dst).unwrap();
    dev.select(mask, a, b, dst).unwrap();
    dev.cmp_select(CmpOp::Gt, a, b, a, b, dst).unwrap();
    dev.copy_object(a, dst).unwrap();
    dev.broadcast(dst, 42).unwrap();
    let mut issued = (binary.len() + scalar.len() + unary.len() + 6) as u64;
    if small {
        dev.red_sum(a).unwrap();
        dev.red_min(a).unwrap();
        dev.red_max(a).unwrap();
        dev.add(a, dst, dst).unwrap();
        dev.xor(dst, b, dst).unwrap();
        dev.xor_scalar(dst, 1, dst).unwrap();
        dev.select(mask, dst, b, dst).unwrap();
        issued += 7;
    }
    issued
}

/// Warms `dev` with every command kind once on `n`-element objects, then
/// re-issues the same commands, pre-built and through the eager
/// wrappers, and returns how many heap allocations the re-issue made on
/// this thread.
///
/// Reductions are left out once `n` is long enough to fan out:
/// `exec::par_chunks` collects one partials `Vec` per fan-out, so each
/// such reduction allocates exactly once. So are aliased commands, whose
/// results above the floor `aliased_commands_above_the_floor_match_one_shard`
/// checks.
fn warm_reissue_allocations(dev: &mut Device, n: i32) -> u64 {
    let small = (n as usize) < 2 * exec::MIN_CHUNK;
    let data: Vec<i32> = (0..n).map(|i| i * 7919 - 1_000_000).collect();
    let other: Vec<i32> = (0..n).map(|i| 5000 - i * 31).collect();
    let bits: Vec<i32> = (0..n).map(|i| i % 3).collect();
    let a = dev.alloc_vec(&data).unwrap();
    let b = dev.alloc_vec(&other).unwrap();
    let mask = dev.alloc_vec(&bits).unwrap();
    let dst = dev.alloc_associated(a, DataType::Int32).unwrap();

    // Warm-up: first-seen statistics names, instrument keys and cost
    // memo entries.
    for cmd in command_set(a, b, mask, dst, small) {
        dev.issue(cmd).unwrap();
    }
    issue_eager(dev, a, b, mask, dst, small);
    let cmds = command_set(a, b, mask, dst, small);
    let mut count = cmds.len() as u64;
    let ops_before = dev.stats().total_ops();

    let before = allocations();
    for cmd in cmds {
        dev.issue(cmd).unwrap();
    }
    count += issue_eager(dev, a, b, mask, dst, small);
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

/// Held by every test that fans out to the pool: `pool::snapshot()` is
/// process-global, so a fan-out elsewhere would show up in the
/// no-fan-out assertions below.
static FANOUTS: Mutex<()> = Mutex::new(());

/// Also covers the fan-out path, after the no-fan-out assertions.
#[test]
fn warm_sharded_metered_issue_performs_no_heap_allocation() {
    let _serial = FANOUTS.lock().unwrap_or_else(|e| e.into_inner());
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

/// Heap allocations of one warm `alloc_associated` + `free` pair of an
/// `n`-element object on a `shards`-shard device, after `setup` ran on
/// the fresh device.
fn warm_alloc_free_allocations(
    target: PimTarget,
    shards: usize,
    n: usize,
    setup: fn(&mut Device),
) -> u64 {
    let mut dev = Device::new(DeviceConfig::new(target, 1).with_shards(shards)).unwrap();
    assert_eq!(dev.system().shard_count(), shards, "{target}");
    setup(&mut dev);
    let a = dev.alloc_vec(&vec![1i32; n]).unwrap();
    for _ in 0..2 {
        let tmp = dev.alloc_associated(a, DataType::Int32).unwrap();
        dev.free(tmp).unwrap();
    }
    let before = allocations();
    let tmp = dev.alloc_associated(a, DataType::Int32).unwrap();
    dev.free(tmp).unwrap();
    allocations() - before
}

#[test]
fn warm_alloc_associated_and_free_allocate_only_the_buffer() {
    for target in [PimTarget::Fulcrum, PimTarget::BitSerial] {
        let allocated = warm_alloc_free_allocations(target, 1, 300, |_| {});
        assert_eq!(
            allocated, 1,
            "{target}: a warm alloc_associated + free made {allocated} heap allocation(s), \
             not just the zeroed buffer"
        );
    }
}

/// One zeroed buffer per object at any shard count, plus the map's list,
/// which grows by doubling from two entries (`PimSystem::alloc` says
/// why): two list allocations at 4 shards, three at 7.
#[test]
fn warm_sharded_alloc_associated_and_free_allocate_one_buffer() {
    // Uploading 100 000 elements fans out.
    let _serial = FANOUTS.lock().unwrap_or_else(|e| e.into_inner());
    for target in [PimTarget::Fulcrum, PimTarget::BitSerial] {
        for (shards, want) in [(4, 3), (7, 4)] {
            let allocated = warm_alloc_free_allocations(target, shards, 100_000, |_| {});
            assert_eq!(
                allocated, want,
                "{target}, {shards} shards: a warm alloc_associated + free made \
                 {allocated} heap allocation(s)"
            );
        }
    }
}

#[test]
fn warm_traced_alloc_associated_and_free_allocate_only_the_buffer() {
    // The warm-up fills the 4-event ring, so the recorder overwrites in
    // place: the alloc and free events themselves must not allocate.
    for target in [PimTarget::Fulcrum, PimTarget::BitSerial] {
        let allocated = warm_alloc_free_allocations(target, 1, 300, |dev| {
            dev.enable_tracing_with_capacity(4);
        });
        assert_eq!(
            allocated, 1,
            "{target}: a warm traced alloc_associated + free made {allocated} heap \
             allocation(s), not just the zeroed buffer"
        );
    }
}

#[test]
fn warm_bank_fsm_issue_performs_no_heap_allocation() {
    for target in [PimTarget::Fulcrum, PimTarget::BitSerial] {
        let config = DeviceConfig::new(target, 1)
            .with_shards(4)
            .with_timing_backend(TimingBackend::BankFsm);
        let mut dev = Device::new(config).unwrap();
        assert_eq!(dev.system().shard_count(), 4, "{target}");
        let allocated = warm_reissue_allocations(&mut dev, 300);
        assert_eq!(
            allocated, 0,
            "{target}, 4 shards, bank FSM: warm commands performed {allocated} \
             heap allocation(s)"
        );
    }
}

#[test]
fn warm_fsm_copies_and_upmem_bursts_perform_no_heap_allocation() {
    let data: Vec<i32> = (0..300).collect();
    let mut out = vec![0i32; data.len()];
    let config =
        DeviceConfig::new(PimTarget::Fulcrum, 1).with_timing_backend(TimingBackend::BankFsm);
    let mut dev = Device::new(config).unwrap();
    let a = dev.alloc_vec(&data).unwrap();
    dev.copy_to_host(a, &mut out).unwrap();
    let before = allocations();
    dev.copy_to_device(&data, a).unwrap();
    dev.copy_to_host(a, &mut out).unwrap();
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "bank-FSM host copies made {allocated} heap allocation(s)"
    );

    let config =
        DeviceConfig::new(PimTarget::UpmemLike, 1).with_timing_backend(TimingBackend::BankFsm);
    let mut dev = Device::new(config).unwrap();
    let a = dev.alloc_vec(&data).unwrap();
    let dst = dev.alloc_associated(a, DataType::Int32).unwrap();
    dev.add(a, a, dst).unwrap();
    let before = allocations();
    dev.add(a, a, dst).unwrap();
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "a bank-FSM UPMEM burst made {allocated} heap allocation(s)"
    );
}

/// Aliased commands long enough to run their shards on the pool compute
/// the same bits on four shards as on one.
#[test]
fn aliased_commands_above_the_floor_match_one_shard() {
    let _serial = FANOUTS.lock().unwrap_or_else(|e| e.into_inner());
    let n = 2 * exec::MIN_CHUNK as i32 + 1234;
    let run = |shards: usize| {
        exec::with_thread_count(2, || {
            let config = DeviceConfig::new(PimTarget::Fulcrum, 1).with_shards(shards);
            let mut dev = Device::new(config).unwrap();
            assert_eq!(dev.system().shard_count(), shards);
            let a = dev.alloc_vec(&(0..n).map(|i| i * 7919 - 1_000_000).collect::<Vec<_>>());
            let b = dev.alloc_vec(&(0..n).map(|i| 5000 - i * 31).collect::<Vec<_>>());
            let mask = dev.alloc_vec(&(0..n).map(|i| i % 3).collect::<Vec<_>>());
            let (a, b, mask) = (a.unwrap(), b.unwrap(), mask.unwrap());
            dev.add(a, b, a).unwrap();
            dev.xor(b, a, b).unwrap();
            dev.xor_scalar(a, 1, a).unwrap();
            dev.mul(b, b, b).unwrap();
            dev.select(mask, a, b, a).unwrap();
            dev.cmp_select(CmpOp::Lt, a, b, b, a, b).unwrap();
            dev.issue(PimCommand::scaled_add(a, b, a, -7)).unwrap();
            (dev.to_vec::<i32>(a).unwrap(), dev.to_vec::<i32>(b).unwrap())
        })
    };
    let one = run(1);
    let four = run(4);
    assert!(one == four, "4 shards differ from 1 on aliased commands");
    // And both match the host's reading of the same sequence.
    let mut a: Vec<i32> = (0..n).map(|i| i * 7919 - 1_000_000).collect();
    let mut b: Vec<i32> = (0..n).map(|i| 5000 - i * 31).collect();
    for i in 0..n as usize {
        a[i] = a[i].wrapping_add(b[i]);
        b[i] ^= a[i];
        a[i] ^= 1;
        b[i] = b[i].wrapping_mul(b[i]);
        if i % 3 == 0 {
            a[i] = b[i];
        }
        if a[i] >= b[i] {
            b[i] = a[i];
        }
        a[i] = a[i].wrapping_mul(-7).wrapping_add(b[i]);
    }
    assert!(
        one == (a, b),
        "aliased commands differ from the host reference"
    );
}
