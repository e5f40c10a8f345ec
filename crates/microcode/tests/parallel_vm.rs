//! Parallel bit-serial VM determinism: on matrices wide enough that the
//! row sweeps fan out across workers (`words_per_row` well past
//! `exec::MIN_CHUNK`), every thread count must produce bit-identical
//! matrix contents, identical execution stats, and an identical
//! accumulator value.

use pim_dram::{exec, BitMatrix};
use pim_microcode::encode::{decode_vertical, encode_vertical, truncate};
use pim_microcode::gen::{self, BinaryOp};
use pim_microcode::vm::{Region, Vm};
use pim_microcode::Cost;

/// Columns per row. `1 << 21` bitlines = 32768 u64 words per row —
/// 4× `exec::MIN_CHUNK`, so an 8-thread run genuinely splits the sweep.
/// The odd tail (+37) keeps the partial-word mask path under test.
const COLS: usize = (1 << 21) + 37;

/// Deterministic SplitMix64 inputs.
fn inputs(seed: u64, n: usize) -> Vec<i64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as i64
        })
        .collect()
}

/// Runs an 8-bit add over `COLS` elements and returns the decoded
/// destination, the final matrix state, and the VM stats.
fn run_add(threads: usize, a: &[i64], b: &[i64]) -> (Vec<i64>, BitMatrix, Cost) {
    exec::with_thread_count(threads, || {
        let bits = 8u32;
        let prog = gen::binary(BinaryOp::Add, bits);
        let rows = 4 * bits as usize + prog.temp_rows() as usize;
        let mut mat = BitMatrix::new(rows, COLS);
        encode_vertical(&mut mat, 0, bits, a);
        encode_vertical(&mut mat, bits as usize, bits, b);
        let mut vm = Vm::new(&mut mat, 3);
        vm.bind(0, Region::new(0, bits));
        vm.bind(1, Region::new(bits as usize, bits));
        vm.bind(2, Region::new(2 * bits as usize, bits));
        vm.bind_temp(Region::new(3 * bits as usize, prog.temp_rows().max(1)));
        vm.run(&prog).unwrap();
        let stats = *vm.stats();
        let out = decode_vertical(vm.matrix(), 2 * bits as usize, bits, COLS, true);
        (out, mat, stats)
    })
}

/// Runs a 16-bit popcount-based reduction and returns the accumulator.
fn run_red_sum(threads: usize, a: &[i64]) -> (i128, Cost) {
    exec::with_thread_count(threads, || {
        let bits = 16u32;
        let prog = gen::red_sum(bits, true);
        let mut mat = BitMatrix::new(bits as usize, COLS);
        encode_vertical(&mut mat, 0, bits, a);
        let mut vm = Vm::new(&mut mat, 1);
        vm.bind(0, Region::new(0, bits));
        vm.run(&prog).unwrap();
        (vm.accumulator(), *vm.stats())
    })
}

#[test]
fn wide_add_is_bit_identical_across_thread_counts() {
    let a = inputs(0xA11CE, COLS);
    let b = inputs(0xB0B, COLS);
    let (out1, mat1, stats1) = run_add(1, &a, &b);

    // Spot-check correctness against the scalar reference before
    // comparing thread counts against each other.
    for i in [0usize, 1, 63, 64, 65, COLS - 2, COLS - 1] {
        assert_eq!(out1[i], truncate(a[i].wrapping_add(b[i]), 8, true));
    }

    for threads in [2, 8] {
        let (out, mat, stats) = run_add(threads, &a, &b);
        assert_eq!(out1, out, "threads={threads}: decoded destination");
        assert_eq!(mat1, mat, "threads={threads}: final matrix state");
        assert_eq!(stats1, stats, "threads={threads}: VM stats");
    }
}

#[test]
fn wide_red_sum_accumulator_is_exact_across_thread_counts() {
    let a = inputs(0x5EED, COLS);
    let expected: i128 = a.iter().map(|&v| truncate(v, 16, true) as i128).sum();
    let (acc1, stats1) = run_red_sum(1, &a);
    assert_eq!(acc1, expected, "sequential accumulator matches reference");
    for threads in [2, 8] {
        let (acc, stats) = run_red_sum(threads, &a);
        assert_eq!(acc1, acc, "threads={threads}: accumulator");
        assert_eq!(stats1, stats, "threads={threads}: VM stats");
    }
}
