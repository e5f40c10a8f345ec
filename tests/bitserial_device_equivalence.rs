//! End-to-end equivalence: `Device` computes every result natively,
//! while the bit-serial model prices each command from the microprogram
//! a DRAM-AP controller would broadcast. This suite runs those programs
//! on the reference VM and checks that they compute what the device
//! computes — for every generator family the device issues, at every
//! element width, signed and unsigned, over a length whose last 64-bit
//! word is partial, and for every family over the other tail shapes: a
//! single partial word and an exact multiple of 64.

use pimeval_suite::dram::BitMatrix;
use pimeval_suite::microcode::encode::{decode_vertical, encode_vertical};
use pimeval_suite::microcode::gen::{self, BinaryOp, CmpOp};
use pimeval_suite::microcode::vm::{Region, Vm};
use pimeval_suite::microcode::MicroProgram;
use pimeval_suite::sim::{CmdValue, DataType, Device, ObjId, OpKind, PimCommand, PimScalar};

/// Elements per vector: three full 64-column words plus a 5-column tail.
const N: usize = 197;

/// Further vector lengths: one partial word, an exact multiple of 64,
/// and three words plus a 1-column tail.
const TAIL_LENGTHS: [usize; 3] = [61, 128, 193];

/// SplitMix64: deterministic inputs, and garbage for every matrix row a
/// program does not load (scratch, destinations, padding columns).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Host element types carrying the device's canonical `i64` form, one
/// per dtype (the crate has no host type for `UInt64`).
macro_rules! canonical {
    ($($name:ident => $dtype:ident),* $(,)?) => {$(
        #[derive(Debug, Clone, Copy)]
        struct $name(i64);

        impl PimScalar for $name {
            const DTYPE: DataType = DataType::$dtype;
            fn to_device(self) -> i64 {
                self.0
            }
            fn from_device(v: i64) -> Self {
                $name(v)
            }
        }
    )*};
}

canonical! {
    I8 => Int8, I16 => Int16, I32 => Int32, I64 => Int64,
    U8 => UInt8, U16 => UInt16, U32 => UInt32, U64 => UInt64,
}

/// Runs `family` over `n` elements at every width {8, 16, 32, 64},
/// signed and unsigned.
fn for_every_dtype(family: Family, n: usize) {
    check::<I8>(family, n);
    check::<I16>(family, n);
    check::<I32>(family, n);
    check::<I64>(family, n);
    check::<U8>(family, n);
    check::<U16>(family, n);
    check::<U32>(family, n);
    check::<U64>(family, n);
}

/// Operand objects, indexed by these constants: `A`, `B`, `X`, `Y` hold
/// random elements (the dtype's extremes up front, `B == A` on every
/// fifth element), `COND` a 0/1 mask, and `DST` receives each result.
/// The generators read a select condition's bit 0 while the device tests
/// it for nonzero; the two agree on masks, which is what every
/// comparison produces.
const A: usize = 0;
const B: usize = 1;
const X: usize = 2;
const Y: usize = 3;
const COND: usize = 4;
const DST: usize = 5;

/// What one VM binding slot holds.
#[derive(Clone, Copy)]
enum Slot {
    /// The operand object at this index.
    In(usize),
    /// The full-width destination.
    Dst,
    /// A comparison's destination: the program writes its one live row
    /// (the model charges the zero-fill of the rest).
    Mask,
    Unused,
}

use Slot::{Dst, In, Mask, Unused};

/// One device command and the microprogram the model prices it with.
struct Case {
    prog: MicroProgram,
    slots: Vec<Slot>,
    cmd: PimCommand,
}

fn case(prog: MicroProgram, slots: &[Slot], cmd: PimCommand) -> Case {
    Case {
        prog,
        slots: slots.to_vec(),
        cmd,
    }
}

/// The cases of one generator family for a dtype over the operands.
type Family = fn(DataType, &[ObjId; 6]) -> Vec<Case>;

fn inputs(dtype: DataType, n: usize) -> [Vec<i64>; 5] {
    let bits = dtype.bits();
    let mut rng = SplitMix64(0x5EED ^ (u64::from(bits) << 8) ^ dtype.is_signed() as u64);
    let (min, max) = if dtype.is_signed() {
        (-1i64 << (bits - 1), dtype.truncate(i64::MAX))
    } else {
        (0, dtype.truncate(-1))
    };
    let mut random = |_| dtype.truncate(rng.next() as i64);
    let mut a: Vec<i64> = (0..n).map(&mut random).collect();
    let mut b: Vec<i64> = (0..n).map(&mut random).collect();
    a[..5].copy_from_slice(&[0, 1, dtype.truncate(-1), min, max]);
    b[..5].copy_from_slice(&[max, min, 1, dtype.truncate(-1), 0]);
    for i in (5..n).step_by(5) {
        b[i] = a[i];
    }
    let x = (0..n).map(&mut random).collect();
    let y = (0..n).map(&mut random).collect();
    let cond = (0..n).map(|_| (rng.next() & 1) as i64).collect();
    [a, b, x, y, cond]
}

fn check<W: PimScalar>(family: Family, n: usize) {
    let dtype = W::DTYPE;
    let (bits, signed) = (dtype.bits(), dtype.is_signed());
    let data = inputs(dtype, n);
    let mut dev = Device::bit_serial(1).unwrap();
    let [a, b, x, y, cond] = data.clone().map(|v| {
        let host: Vec<W> = v.into_iter().map(W::from_device).collect();
        dev.alloc_vec(&host).unwrap()
    });
    let dst = dev.alloc_associated(a, dtype).unwrap();

    for case in family(dtype, &[a, b, x, y, cond, dst]) {
        let name = format!("{} on {dtype:?} x {n}", case.prog.name());
        let device_value = dev.issue(case.cmd).unwrap();

        let rows = bits as usize;
        let temp_base = case.slots.len() * rows;
        let temp_rows = case.prog.temp_rows().max(1);
        let mut mat = BitMatrix::new(temp_base + temp_rows as usize, n);
        let mut rng = SplitMix64(0xD1E7);
        for w in mat.words_mut() {
            *w = rng.next();
        }
        for (s, slot) in case.slots.iter().enumerate() {
            if let In(k) = slot {
                encode_vertical(&mut mat, s * rows, bits, &data[*k]);
            }
        }
        let mut vm = Vm::new(&mut mat, case.slots.len());
        for s in 0..case.slots.len() {
            vm.bind(s, Region::new(s * rows, bits));
        }
        vm.bind_temp(Region::new(temp_base, temp_rows));
        vm.run(&case.prog).unwrap_or_else(|e| panic!("{name}: {e}"));

        let from_vm = match case.slots.iter().position(|s| matches!(s, Dst | Mask)) {
            Some(s) if matches!(case.slots[s], Mask) => {
                decode_vertical(vm.matrix(), s * rows, 1, n, false)
            }
            Some(s) => decode_vertical(vm.matrix(), s * rows, bits, n, signed),
            None => {
                assert_eq!(device_value, CmdValue::Wide(vm.accumulator()), "{name}");
                continue;
            }
        };
        let from_device = dev.to_vec::<W>(dst).unwrap();
        for i in 0..n {
            assert_eq!(
                from_device[i].to_device(),
                from_vm[i],
                "{name} at element {i}: a={} b={}",
                data[A][i],
                data[B][i]
            );
        }
    }
}

const BINARY_OPS: [BinaryOp; 7] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::And,
    BinaryOp::Or,
    BinaryOp::Xor,
    BinaryOp::Xnor,
];
const CMP_OPS: [CmpOp; 3] = [CmpOp::Lt, CmpOp::Gt, CmpOp::Eq];
/// Scalar immediates: a small positive, a small negative, and one whose
/// bits overflow every width (the device keeps the low `bits`).
const SCALARS: [i64; 3] = [5, -3, -0x1234_5678_9ABC_DEF1];

fn arithmetic(dtype: DataType, o: &[ObjId; 6]) -> Vec<Case> {
    let (bits, signed) = (dtype.bits(), dtype.is_signed());
    let unary = |kind| PimCommand::elementwise1(kind, o[A], o[DST]);
    let mut v = Vec::new();
    for op in BINARY_OPS {
        v.push(case(
            gen::binary(op, bits),
            &[In(A), In(B), Dst],
            PimCommand::elementwise2(OpKind::Binary(op), o[A], o[B], o[DST]),
        ));
        for k in SCALARS {
            v.push(case(
                gen::binary_scalar(op, bits, k as u64),
                &[In(A), Unused, Dst],
                unary(OpKind::BinaryScalar(op, k)),
            ));
        }
    }
    for k in SCALARS {
        v.push(case(
            gen::scaled_add(bits, k as u64),
            &[In(A), In(B), Dst],
            PimCommand::scaled_add(o[A], o[B], o[DST], k),
        ));
        v.push(case(
            gen::broadcast(bits, k as u64),
            &[Dst],
            PimCommand::broadcast(o[DST], k),
        ));
    }
    for k in [1, 3, bits - 1] {
        v.push(case(
            gen::shift_left(bits, k),
            &[In(A), Dst],
            unary(OpKind::ShiftL(k)),
        ));
        v.push(case(
            gen::shift_right(bits, k, signed),
            &[In(A), Dst],
            unary(OpKind::ShiftR(k)),
        ));
    }
    v.push(case(gen::not(bits), &[In(A), Dst], unary(OpKind::Not)));
    v.push(case(
        gen::abs(bits, signed),
        &[In(A), Dst],
        unary(OpKind::Abs),
    ));
    v.push(case(
        gen::popcount(bits),
        &[In(A), Dst],
        unary(OpKind::Popcount),
    ));
    v.push(case(
        gen::copy(bits),
        &[In(A), Dst],
        PimCommand::copy(o[A], o[DST]),
    ));
    v
}

fn comparisons(dtype: DataType, o: &[ObjId; 6]) -> Vec<Case> {
    let (bits, signed) = (dtype.bits(), dtype.is_signed());
    let mut v = Vec::new();
    for op in CMP_OPS {
        v.push(case(
            gen::cmp(op, bits, signed),
            &[In(A), In(B), Mask],
            PimCommand::elementwise2(OpKind::Cmp(op), o[A], o[B], o[DST]),
        ));
        for k in SCALARS {
            v.push(case(
                gen::cmp_scalar(op, bits, signed, k as u64),
                &[In(A), Unused, Mask],
                PimCommand::elementwise1(OpKind::CmpScalar(op, k), o[A], o[DST]),
            ));
        }
        v.push(case(
            gen::cmp_select(op, bits, signed),
            &[In(A), In(B), In(X), In(Y), Dst],
            PimCommand::fused_cmp_select(op, o[A], o[B], o[X], o[Y], o[DST]),
        ));
    }
    for (is_max, kind) in [(false, OpKind::Min), (true, OpKind::Max)] {
        v.push(case(
            gen::min_max(is_max, bits, signed),
            &[In(A), In(B), Dst],
            PimCommand::elementwise2(kind, o[A], o[B], o[DST]),
        ));
    }
    v.push(case(
        gen::select(bits),
        &[In(COND), In(X), In(Y), Dst],
        PimCommand::select(o[COND], o[X], o[Y], o[DST]),
    ));
    v
}

fn reduction(dtype: DataType, o: &[ObjId; 6]) -> Vec<Case> {
    vec![case(
        gen::red_sum(dtype.bits(), dtype.is_signed()),
        &[In(A)],
        PimCommand::reduce(OpKind::RedSum, o[A]),
    )]
}

#[test]
fn device_and_vm_agree_on_arithmetic() {
    for_every_dtype(arithmetic, N);
}

#[test]
fn device_and_vm_agree_on_comparisons() {
    for_every_dtype(comparisons, N);
}

#[test]
fn device_and_vm_agree_on_reduction() {
    for_every_dtype(reduction, N);
}

#[test]
fn device_and_vm_agree_on_every_family_across_tails() {
    for n in TAIL_LENGTHS {
        for family in [arithmetic as Family, comparisons, reduction] {
            for_every_dtype(family, n);
        }
    }
}
