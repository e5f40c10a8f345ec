//! Randomized property tests: every generated microprogram, executed on
//! the bit-slice VM, must match the scalar reference semantics exactly
//! (wrapping two's-complement at the element width).
//!
//! Inputs come from a seeded SplitMix64 stream so runs are deterministic
//! and need no registry dependency; each property is exercised across
//! every element width with dozens of random vectors.

use pim_dram::BitMatrix;
use pim_microcode::encode::{decode_vertical, encode_vertical, truncate};
use pim_microcode::gen::{self, BinaryOp, CmpOp};
use pim_microcode::vm::{Region, Vm};
use pim_microcode::MicroProgram;

const WIDTHS: [u32; 6] = [1, 5, 8, 16, 32, 64];
const CASES_PER_WIDTH: usize = 8;

/// Deterministic SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn next_i64(&mut self) -> i64 {
        self.next_u64() as i64
    }

    fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A random vector length in `1..40`.
    fn len(&mut self) -> usize {
        1 + (self.next_u64() % 39) as usize
    }

    fn vec(&mut self, n: usize) -> Vec<i64> {
        (0..n).map(|_| self.next_i64()).collect()
    }

    /// A pair of equal-length random vectors.
    fn vec_pair(&mut self) -> (Vec<i64>, Vec<i64>) {
        let n = self.len();
        (self.vec(n), self.vec(n))
    }
}

/// Runs a 3-slot (A, B, Dst) program and decodes the destination.
fn run_binary(prog: &MicroProgram, bits: u32, a: &[i64], b: &[i64], signed: bool) -> Vec<i64> {
    let n = a.len();
    let rows = 4 * bits as usize + prog.temp_rows() as usize;
    let mut mat = BitMatrix::new(rows.max(1), n.max(1));
    encode_vertical(&mut mat, 0, bits, a);
    encode_vertical(&mut mat, bits as usize, bits, b);
    let mut vm = Vm::new(&mut mat, 3);
    vm.bind(0, Region::new(0, bits));
    vm.bind(1, Region::new(bits as usize, bits));
    vm.bind(2, Region::new(2 * bits as usize, bits));
    vm.bind_temp(Region::new(3 * bits as usize, prog.temp_rows().max(1)));
    vm.run(prog).unwrap();
    decode_vertical(vm.matrix(), 2 * bits as usize, bits, n, signed)
}

/// Runs a 2-slot (A, Dst) unary program.
fn run_unary(prog: &MicroProgram, bits: u32, a: &[i64], signed: bool) -> Vec<i64> {
    let n = a.len();
    let rows = 3 * bits as usize + prog.temp_rows() as usize;
    let mut mat = BitMatrix::new(rows.max(1), n.max(1));
    encode_vertical(&mut mat, 0, bits, a);
    let mut vm = Vm::new(&mut mat, 2);
    vm.bind(0, Region::new(0, bits));
    vm.bind(1, Region::new(bits as usize, bits));
    vm.bind_temp(Region::new(2 * bits as usize, prog.temp_rows().max(1)));
    vm.run(prog).unwrap();
    decode_vertical(vm.matrix(), bits as usize, bits, n, signed)
}

/// Ordering oracle that is correct for 64-bit unsigned values too
/// (an unsigned 64-bit value does not fit in i64).
fn ref_cmp(a: i64, b: i64, bits: u32, signed: bool) -> std::cmp::Ordering {
    if signed {
        truncate(a, bits, true).cmp(&truncate(b, bits, true))
    } else {
        (truncate(a, bits, false) as u64).cmp(&(truncate(b, bits, false) as u64))
    }
}

/// Drives `check` with `CASES_PER_WIDTH` random vector pairs per width.
fn for_cases(seed: u64, mut check: impl FnMut(&mut Rng, u32, &[i64], &[i64])) {
    let mut rng = Rng(seed);
    for bits in WIDTHS {
        for _ in 0..CASES_PER_WIDTH {
            let (a, b) = rng.vec_pair();
            check(&mut rng, bits, &a, &b);
        }
    }
}

#[test]
fn add_matches_wrapping_add() {
    for_cases(0x5EED_0001, |_, bits, a, b| {
        let got = run_binary(&gen::binary(BinaryOp::Add, bits), bits, a, b, true);
        for i in 0..a.len() {
            assert_eq!(got[i], truncate(a[i].wrapping_add(b[i]), bits, true));
        }
    });
}

#[test]
fn sub_matches_wrapping_sub() {
    for_cases(0x5EED_0002, |_, bits, a, b| {
        let got = run_binary(&gen::binary(BinaryOp::Sub, bits), bits, a, b, true);
        for i in 0..a.len() {
            assert_eq!(got[i], truncate(a[i].wrapping_sub(b[i]), bits, true));
        }
    });
}

#[test]
fn mul_matches_wrapping_mul() {
    for_cases(0x5EED_0003, |_, bits, a, b| {
        let got = run_binary(&gen::binary(BinaryOp::Mul, bits), bits, a, b, true);
        for i in 0..a.len() {
            assert_eq!(got[i], truncate(a[i].wrapping_mul(b[i]), bits, true));
        }
    });
}

#[test]
fn logical_ops_match() {
    for_cases(0x5EED_0004, |_, bits, a, b| {
        for (op, f) in [
            (BinaryOp::And, (|x, y| x & y) as fn(i64, i64) -> i64),
            (BinaryOp::Or, |x, y| x | y),
            (BinaryOp::Xor, |x, y| x ^ y),
            (BinaryOp::Xnor, |x, y| !(x ^ y)),
        ] {
            let got = run_binary(&gen::binary(op, bits), bits, a, b, true);
            for i in 0..a.len() {
                assert_eq!(got[i], truncate(f(a[i], b[i]), bits, true), "op={op:?}");
            }
        }
    });
}

#[test]
fn comparisons_match() {
    for_cases(0x5EED_0005, |rng, bits, a, b| {
        let signed = rng.next_bool();
        for op in [CmpOp::Lt, CmpOp::Gt, CmpOp::Eq] {
            let prog = gen::cmp(op, bits, signed);
            // Result occupies 1 row; decode as 1-bit unsigned.
            let n = a.len();
            let mut mat = BitMatrix::new(2 * bits as usize + 1, n);
            encode_vertical(&mut mat, 0, bits, a);
            encode_vertical(&mut mat, bits as usize, bits, b);
            let mut vm = Vm::new(&mut mat, 3);
            vm.bind(0, Region::new(0, bits));
            vm.bind(1, Region::new(bits as usize, bits));
            vm.bind(2, Region::new(2 * bits as usize, 1));
            vm.run(&prog).unwrap();
            let got = decode_vertical(vm.matrix(), 2 * bits as usize, 1, n, false);
            for i in 0..n {
                let ord = ref_cmp(a[i], b[i], bits, signed);
                let expected = match op {
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Eq => ord.is_eq(),
                };
                assert_eq!(
                    got[i] == 1,
                    expected,
                    "op={:?} signed={} bits={} a={} b={}",
                    op,
                    signed,
                    bits,
                    a[i],
                    b[i]
                );
            }
        }
    });
}

#[test]
fn min_max_match() {
    for_cases(0x5EED_0006, |rng, bits, a, b| {
        let signed = rng.next_bool();
        for is_max in [false, true] {
            let got = run_binary(&gen::min_max(is_max, bits, signed), bits, a, b, signed);
            for i in 0..a.len() {
                let a_wins = if is_max {
                    ref_cmp(a[i], b[i], bits, signed).is_gt()
                } else {
                    ref_cmp(a[i], b[i], bits, signed).is_lt()
                };
                let expected = truncate(if a_wins { a[i] } else { b[i] }, bits, signed);
                assert_eq!(got[i], expected, "is_max={is_max} signed={signed}");
            }
        }
    });
}

#[test]
fn scalar_variants_match() {
    for_cases(0x5EED_0007, |rng, bits, a, _b| {
        let k = rng.next_i64();
        for (op, f) in [
            (
                BinaryOp::Add,
                (|x: i64, y: i64| x.wrapping_add(y)) as fn(i64, i64) -> i64,
            ),
            (BinaryOp::Sub, |x, y| x.wrapping_sub(y)),
            (BinaryOp::Mul, |x, y| x.wrapping_mul(y)),
            (BinaryOp::Xor, |x, y| x ^ y),
        ] {
            let prog = gen::binary_scalar(op, bits, k as u64);
            let got = run_binary(&prog, bits, a, a, true); // slot B unused
            for i in 0..a.len() {
                assert_eq!(got[i], truncate(f(a[i], k), bits, true), "op={op:?} k={k}");
            }
        }
    });
}

#[test]
fn cmp_scalar_matches() {
    for_cases(0x5EED_0008, |rng, bits, a, _b| {
        let k = rng.next_i64();
        let signed = rng.next_bool();
        let prog = gen::cmp_scalar(CmpOp::Lt, bits, signed, k as u64);
        let n = a.len();
        let mut mat = BitMatrix::new(2 * bits as usize + 1, n);
        encode_vertical(&mut mat, 0, bits, a);
        let mut vm = Vm::new(&mut mat, 3);
        vm.bind(0, Region::new(0, bits));
        vm.bind(2, Region::new(2 * bits as usize, 1));
        vm.run(&prog).unwrap();
        let got = decode_vertical(vm.matrix(), 2 * bits as usize, 1, n, false);
        for i in 0..n {
            assert_eq!(got[i] == 1, ref_cmp(a[i], k, bits, signed).is_lt());
        }
    });
}

#[test]
fn not_and_abs_match() {
    for_cases(0x5EED_0009, |_, bits, a, _b| {
        let got_not = run_unary(&gen::not(bits), bits, a, true);
        let got_abs = run_unary(&gen::abs(bits, true), bits, a, true);
        for i in 0..a.len() {
            assert_eq!(got_not[i], truncate(!a[i], bits, true));
            let ta = truncate(a[i], bits, true);
            assert_eq!(
                got_abs[i],
                truncate(ta.wrapping_abs(), bits, true),
                "a={ta}"
            );
        }
    });
}

#[test]
fn shifts_match() {
    for_cases(0x5EED_000A, |rng, bits, a, _b| {
        let k = (rng.next_u64() % 70) as u32 % (bits + 1);
        let shl = run_unary(&gen::shift_left(bits, k), bits, a, false);
        let srl = run_unary(&gen::shift_right(bits, k, false), bits, a, false);
        let sra = run_unary(&gen::shift_right(bits, k, true), bits, a, true);
        for i in 0..a.len() {
            let ua = truncate(a[i], bits, false) as u64;
            let sa = truncate(a[i], bits, true);
            let expect_shl = if k >= 64 {
                0
            } else {
                truncate((ua << k) as i64, bits, false)
            };
            let expect_srl = if k >= bits {
                0
            } else {
                truncate((ua >> k) as i64, bits, false)
            };
            let expect_sra = if k >= bits {
                if sa < 0 {
                    truncate(-1, bits, true)
                } else {
                    0
                }
            } else {
                truncate(sa >> k, bits, true)
            };
            assert_eq!(shl[i], expect_shl, "shl k={k}");
            assert_eq!(srl[i], expect_srl, "srl k={k}");
            assert_eq!(sra[i], expect_sra, "sra k={k} a={sa}");
        }
    });
}

#[test]
fn popcount_matches() {
    for_cases(0x5EED_000B, |_, bits, a, _b| {
        let got = run_unary(&gen::popcount(bits), bits, a, false);
        for i in 0..a.len() {
            let ua = truncate(a[i], bits, false) as u64;
            assert_eq!(got[i], ua.count_ones() as i64);
        }
    });
}

#[test]
fn red_sum_matches() {
    for_cases(0x5EED_000C, |rng, bits, a, _b| {
        let signed = rng.next_bool();
        let prog = gen::red_sum(bits, signed);
        let n = a.len();
        let mut mat = BitMatrix::new(bits as usize, n);
        encode_vertical(&mut mat, 0, bits, a);
        let mut vm = Vm::new(&mut mat, 1);
        vm.bind(0, Region::new(0, bits));
        vm.run(&prog).unwrap();
        let expected: i128 = a
            .iter()
            .map(|&v| {
                if signed {
                    truncate(v, bits, true) as i128
                } else {
                    (truncate(v, bits, false) as u64) as i128
                }
            })
            .sum();
        assert_eq!(vm.accumulator(), expected);
    });
}

#[test]
fn broadcast_matches() {
    for_cases(0x5EED_000D, |rng, bits, a, _b| {
        let n = a.len();
        let v = rng.next_i64();
        let prog = gen::broadcast(bits, v as u64);
        let mut mat = BitMatrix::new(bits as usize, n);
        let mut vm = Vm::new(&mut mat, 1);
        vm.bind(0, Region::new(0, bits));
        vm.run(&prog).unwrap();
        let got = decode_vertical(vm.matrix(), 0, bits, n, true);
        for g in got {
            assert_eq!(g, truncate(v, bits, true));
        }
    });
}

#[test]
fn select_matches() {
    for_cases(0x5EED_000E, |rng, bits, a, b| {
        let n = a.len();
        let seed = rng.next_u64();
        let cond: Vec<i64> = (0..n).map(|i| ((seed >> (i % 64)) & 1) as i64).collect();
        let prog = gen::select(bits);
        let mut mat = BitMatrix::new(1 + 3 * bits as usize, n);
        encode_vertical(&mut mat, 0, 1, &cond);
        encode_vertical(&mut mat, 1, bits, a);
        encode_vertical(&mut mat, 1 + bits as usize, bits, b);
        let mut vm = Vm::new(&mut mat, 4);
        vm.bind(0, Region::new(0, 1));
        vm.bind(1, Region::new(1, bits));
        vm.bind(2, Region::new(1 + bits as usize, bits));
        vm.bind(3, Region::new(1 + 2 * bits as usize, bits));
        vm.run(&prog).unwrap();
        let got = decode_vertical(vm.matrix(), 1 + 2 * bits as usize, bits, n, true);
        for i in 0..n {
            let expected = if cond[i] == 1 {
                truncate(a[i], bits, true)
            } else {
                truncate(b[i], bits, true)
            };
            assert_eq!(got[i], expected);
        }
    });
}

#[test]
fn scaled_add_matches_eager_pair() {
    for_cases(0x5EED_0010, |rng, bits, a, b| {
        let k = rng.next_i64();
        // dst aliases B: the AXPY in-place pattern y = a·k + y.
        let n = a.len();
        let prog = gen::scaled_add(bits, k as u64);
        let mut mat = BitMatrix::new(2 * bits as usize, n);
        encode_vertical(&mut mat, 0, bits, a);
        encode_vertical(&mut mat, bits as usize, bits, b);
        let mut vm = Vm::new(&mut mat, 3);
        vm.bind(0, Region::new(0, bits));
        vm.bind(1, Region::new(bits as usize, bits));
        vm.bind(2, Region::new(bits as usize, bits)); // dst == B
        vm.run(&prog).unwrap();
        let got = decode_vertical(vm.matrix(), bits as usize, bits, n, true);
        for i in 0..n {
            // The eager pair: t = a·k (truncated), then t + b.
            let t = truncate(a[i].wrapping_mul(k), bits, true);
            let expected = truncate(t.wrapping_add(b[i]), bits, true);
            assert_eq!(got[i], expected, "k={k} bits={bits} a={} b={}", a[i], b[i]);
        }
    });
}

#[test]
fn cmp_select_matches_eager_pair() {
    for_cases(0x5EED_0011, |rng, bits, a, b| {
        let signed = rng.next_bool();
        let n = a.len();
        let (x, y) = (rng.vec(n), rng.vec(n));
        for op in [CmpOp::Lt, CmpOp::Gt, CmpOp::Eq] {
            let prog = gen::cmp_select(op, bits, signed);
            let mut mat = BitMatrix::new(5 * bits as usize, n);
            encode_vertical(&mut mat, 0, bits, a);
            encode_vertical(&mut mat, bits as usize, bits, b);
            encode_vertical(&mut mat, 2 * bits as usize, bits, &x);
            encode_vertical(&mut mat, 3 * bits as usize, bits, &y);
            let mut vm = Vm::new(&mut mat, 5);
            for slot in 0..5 {
                vm.bind(slot, Region::new(slot * bits as usize, bits));
            }
            vm.run(&prog).unwrap();
            let got = decode_vertical(vm.matrix(), 4 * bits as usize, bits, n, true);
            for i in 0..n {
                let ord = ref_cmp(a[i], b[i], bits, signed);
                let taken = match op {
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Eq => ord.is_eq(),
                };
                let expected = truncate(if taken { x[i] } else { y[i] }, bits, true);
                assert_eq!(got[i], expected, "op={op:?} signed={signed} bits={bits}");
            }
        }
    });
}

#[test]
fn in_place_ops_are_safe() {
    for_cases(0x5EED_000F, |rng, bits, a, b| {
        // dst aliases input A for add and shifts (documented as safe).
        let n = a.len();
        let k = (rng.next_u64() % 16) as u32 % (bits + 1);
        let prog = gen::binary(BinaryOp::Add, bits);
        let mut mat = BitMatrix::new(2 * bits as usize, n);
        encode_vertical(&mut mat, 0, bits, a);
        encode_vertical(&mut mat, bits as usize, bits, b);
        let mut vm = Vm::new(&mut mat, 3);
        vm.bind(0, Region::new(0, bits));
        vm.bind(1, Region::new(bits as usize, bits));
        vm.bind(2, Region::new(0, bits)); // dst == A
        vm.run(&prog).unwrap();
        let got = decode_vertical(vm.matrix(), 0, bits, n, true);
        for i in 0..n {
            assert_eq!(got[i], truncate(a[i].wrapping_add(b[i]), bits, true));
        }
        // In-place shift-left.
        let prog = gen::shift_left(bits, k);
        let mut mat = BitMatrix::new(bits as usize, n);
        encode_vertical(&mut mat, 0, bits, a);
        let mut vm = Vm::new(&mut mat, 2);
        vm.bind(0, Region::new(0, bits));
        vm.bind(1, Region::new(0, bits));
        vm.run(&prog).unwrap();
        let got = decode_vertical(vm.matrix(), 0, bits, n, false);
        for i in 0..n {
            let ua = truncate(a[i], bits, false) as u64;
            let expected = if k >= 64 {
                0
            } else {
                truncate((ua << k) as i64, bits, false)
            };
            assert_eq!(got[i], expected);
        }
    });
}

#[test]
fn copy_roundtrip() {
    let bits = 32;
    let a: Vec<i64> = (0..17).map(|i| i * 7919 - 40000).collect();
    let got = run_unary(&gen::copy(bits), bits, &a, true);
    assert_eq!(got, a);
}
