//! Element-semantics pin.
//!
//! Issues every element-wise [`OpKind`] through [`Device`] over all nine
//! dtypes and compares one digest per (kind family, dtype) against
//! recorded literals, so any change to the functional kernels that
//! moves a single output bit fails here. Inputs cover 0, ±1 and each
//! width's MIN/MAX in every operand pairing, scalar immediates
//! {0, 1, −1, 300, `i64::MIN`}, and shifts by {0, 1, width−1, width, 63,
//! 64}, at lengths on both sides of the `2 × MIN_CHUNK` fan-out floor
//! with two pool threads, so the inline and the pooled loops both run.
//!
//! `tests/bitserial_device_equivalence.rs` at the workspace root is the
//! independent oracle: it checks the same semantics against the
//! bit-serial microprograms.
//!
//! A mismatch prints the whole recomputed table in the literal format
//! below.

use pimeval::exec;
use pimeval::pim_microcode::gen::{BinaryOp, CmpOp};
use pimeval::{DataType, Device, DeviceConfig, ObjId, OpKind, PimCommand, PimTarget};

const DTYPES: [DataType; 9] = [
    DataType::Bool,
    DataType::Int8,
    DataType::Int16,
    DataType::Int32,
    DataType::Int64,
    DataType::UInt8,
    DataType::UInt16,
    DataType::UInt32,
    DataType::UInt64,
];

const BINARY: [BinaryOp; 7] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::And,
    BinaryOp::Or,
    BinaryOp::Xor,
    BinaryOp::Xnor,
];

const CMP: [CmpOp; 3] = [CmpOp::Lt, CmpOp::Gt, CmpOp::Eq];

const IMMEDIATES: [i64; 5] = [0, 1, -1, 300, i64::MIN];

/// One row per kind family: its label, and one 32-bit digest per dtype
/// in [`DTYPES`] order.
const PINNED: &[(&str, &str)] = &[
    (
        "Binary(Add)",
        "4ba48309 e4713119 c6f262fa 89139803 1db759e9 462e0cd9 d9fd8439 565ee267 6f93d28d",
    ),
    (
        "Binary(Sub)",
        "4ba48309 b20ce2c2 9f7c6f55 24577fc8 32fdd2c0 2f7fc2cb 801fd464 a3b58f06 c153a4a3",
    ),
    (
        "Binary(Mul)",
        "c8080d00 8bae01e2 463a7219 3335ed0c 142f970e b277dab0 0686e86a 5aee3f55 4a2a29d2",
    ),
    (
        "Binary(And)",
        "c8080d00 799de89f ae6186cf 63f62967 77a11b72 49eec616 82d44a16 003ff979 0a67808b",
    ),
    (
        "Binary(Or)",
        "8397d4a6 d95f2c1e b31b5cc7 fcc5e132 03237361 6b70b8ac 42d6ef92 a2e9e55e e784c1f5",
    ),
    (
        "Binary(Xor)",
        "4ba48309 319363dd dc0ad168 8de9f28f e1f198bb 0e9e7781 9f92e742 a915db20 d95fdfb6",
    ),
    (
        "Binary(Xnor)",
        "808fac05 9a1c68e7 beda38ff 4c5c111c d6acc610 0100b010 ff678ae1 b81fd219 d6ece86a",
    ),
    (
        "BinaryScalar(Add)",
        "f75d55d4 87501f5d 532ea8ac 0392575a 7d39d43a 60f971ac bb2ca2ff e97e2b1d 0ce1b904",
    ),
    (
        "BinaryScalar(Sub)",
        "f75d55d4 a1fec315 17c362b5 225ddf60 653d0ee3 6101cdc5 134d49ec 8b77e875 1344884f",
    ),
    (
        "BinaryScalar(Mul)",
        "166f38a0 9047bb34 5a4a3ec0 7601199e 718baff7 2b13d486 b2836cf4 4a60a451 c7a080ea",
    ),
    (
        "BinaryScalar(And)",
        "166f38a0 86bb9d80 388fced4 82ed5c4c 4eb4d530 7f11fc66 80206621 10184511 ebc6c6c8",
    ),
    (
        "BinaryScalar(Or)",
        "531e8717 73b9b5f8 2fc6b269 f59a313d 008d5473 93893062 87bebe72 05e8f89a fa979ca3",
    ),
    (
        "BinaryScalar(Xor)",
        "f75d55d4 01d91d8f efcc39a2 292eb783 7f3f3da8 3beffa7f 2fd65ae9 1cd9b207 d6eaee90",
    ),
    (
        "BinaryScalar(Xnor)",
        "ff0bf406 100e12a7 a41dffda 8e9954f9 30f4dac1 0d360b8b 3a006cee 8b5648b7 a86112d4",
    ),
    (
        "Cmp(Lt)",
        "74a39b8f fca70f4e 462d2a53 c1287062 addd2ab7 32668826 eaa5e727 76ae6c69 b5ab405c",
    ),
    (
        "Cmp(Gt)",
        "231aceb7 27397abe 7e5481ff 7b1abc6b acd5da41 c37ba033 11ad6da3 3c8216d8 132e2044",
    ),
    (
        "Cmp(Eq)",
        "808fac05 0cf832fb 7ce6a194 67c1c0c2 960165d7 e5959f19 2f99a0ac e657dcac a9665c4b",
    ),
    (
        "CmpScalar(Lt)",
        "21ae9695 c9c32238 4cb7f40c 00f95fd4 c6f4f559 70b9d1fe 88b1ebfd c5143f51 5d31dc79",
    ),
    (
        "CmpScalar(Gt)",
        "a7d10997 95636e50 e377e7b0 e5ebfc05 a75cec82 1102e997 7df12af5 7b8cfc21 fe8df9f5",
    ),
    (
        "CmpScalar(Eq)",
        "ff0bf406 cc97830d d6f5af90 14b63e09 8777159b a01d0b72 ebc2e214 bda93808 ffbdafed",
    ),
    (
        "Min",
        "c8080d00 a2d3bf61 e87ea8bf e02dd45f e49c81e7 5825f221 9bff02c4 4e2e95f9 493ece90",
    ),
    (
        "Max",
        "8397d4a6 1a8f853a f15fdafa b6c4d67c b31cdbce 6ed82718 05f39f76 3fe4b960 d2472bd7",
    ),
    (
        "MinScalar",
        "166f38a0 b135b12b aa4e4ea9 cbdb7fb5 89ab751f 61913b22 e30d140c f7f0f392 44df0bd2",
    ),
    (
        "MaxScalar",
        "531e8717 24c3ecd9 0b4c423d f873cd53 72ccb355 0b302d46 538adb80 78739605 1fd32e84",
    ),
    (
        "Not",
        "bc77353a 235dd12c fae12a5a 1d0ec5dc 66c844da 5e6bcd2d b76968fd fddc5f35 00d5088f",
    ),
    (
        "Abs",
        "e2db0f4b 5f971582 116927f2 75da6cc0 80289899 24f09022 d3f0f930 ade10781 cff10acf",
    ),
    (
        "Popcount",
        "e2db0f4b 1b7f4f71 74aea947 4c39731a 9d275133 15869ffe 1c9d0285 9b41b5c5 70c2369e",
    ),
    (
        "ShiftL",
        "5012f470 639d553e a8dddd7b 550bebbd 62ce1e9a 5177a548 223cbee8 bf079148 39b04cb0",
    ),
    (
        "ShiftR",
        "5012f470 a87bb300 b2bc4376 550855a3 a745d5e9 e0d35525 89eb82f3 faab4e25 80981feb",
    ),
    (
        "Select",
        "6ae66026 c7a5107c 534ca0e3 6a2a4859 68b4188f b9bfe6f9 ef81c4ed 7a5fd522 37d1dd9d",
    ),
    (
        "ScaledAdd",
        "ea80acc4 1c6d2bc3 c307283c 08180b20 1311b5d0 e703554b 4b528c5f e0bc1225 afe203f1",
    ),
    (
        "FusedCmpSelect(Lt)",
        "9a32bf96 b95b12f3 2b872d1d cc2b260f 96376c1b d0cc4702 9ff319f3 73aba1fa eea7ed9a",
    ),
    (
        "FusedCmpSelect(Gt)",
        "9f033643 33f1a9de b63ee528 2e65aae4 1a575e57 eef6187d ccc44e21 263db43c 885786a0",
    ),
    (
        "FusedCmpSelect(Eq)",
        "a9d3b172 fc98d5bf f23771f1 3ac0a8a4 852aa77c bf4a3ee7 5134a872 e078716d 45a1c3c4",
    ),
];

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
}

/// Every kind family with the concrete kinds it covers.
fn families(d: DataType) -> Vec<(String, Vec<OpKind>)> {
    let w = d.bits();
    let shifts = [0, 1, w - 1, w, 63, 64];
    let mut out = Vec::new();
    for b in BINARY {
        out.push((format!("Binary({b:?})"), vec![OpKind::Binary(b)]));
    }
    for b in BINARY {
        let kinds = IMMEDIATES
            .iter()
            .map(|&k| OpKind::BinaryScalar(b, k))
            .collect();
        out.push((format!("BinaryScalar({b:?})"), kinds));
    }
    for c in CMP {
        out.push((format!("Cmp({c:?})"), vec![OpKind::Cmp(c)]));
    }
    for c in CMP {
        let kinds = IMMEDIATES
            .iter()
            .map(|&k| OpKind::CmpScalar(c, k))
            .collect();
        out.push((format!("CmpScalar({c:?})"), kinds));
    }
    out.push(("Min".into(), vec![OpKind::Min]));
    out.push(("Max".into(), vec![OpKind::Max]));
    out.push((
        "MinScalar".into(),
        IMMEDIATES.iter().map(|&k| OpKind::MinScalar(k)).collect(),
    ));
    out.push((
        "MaxScalar".into(),
        IMMEDIATES.iter().map(|&k| OpKind::MaxScalar(k)).collect(),
    ));
    out.push(("Not".into(), vec![OpKind::Not]));
    out.push(("Abs".into(), vec![OpKind::Abs]));
    out.push(("Popcount".into(), vec![OpKind::Popcount]));
    out.push((
        "ShiftL".into(),
        shifts.iter().map(|&k| OpKind::ShiftL(k)).collect(),
    ));
    out.push((
        "ShiftR".into(),
        shifts.iter().map(|&k| OpKind::ShiftR(k)).collect(),
    ));
    out.push(("Select".into(), vec![OpKind::Select]));
    out.push((
        "ScaledAdd".into(),
        IMMEDIATES.iter().map(|&k| OpKind::ScaledAdd(k)).collect(),
    ));
    for c in CMP {
        out.push((
            format!("FusedCmpSelect({c:?})"),
            vec![OpKind::FusedCmpSelect(c)],
        ));
    }
    out
}

/// Four operand vectors of length `n` for `d`. The first 81 positions
/// pair every special value (0, ±1, ±2, MIN, MIN+1, MAX, MAX−1) of the
/// first operand with every one of the second; the rest are random,
/// with equal operands and zero conditions mixed in.
fn operands(d: DataType, n: usize, seed: u64) -> [Vec<i64>; 4] {
    let (min, max) = if d.is_signed() {
        (
            d.truncate(1 << (d.bits() - 1)),
            d.truncate(!(1 << (d.bits() - 1))),
        )
    } else {
        (0, d.truncate(-1))
    };
    let specials = [0, 1, -1, 2, -2, min, min + 1, max, max - 1].map(|v| d.truncate(v));
    let mut rng = Rng(seed ^ (u64::from(d.bits()) << 8) ^ u64::from(d.is_signed()));
    let mut ops: [Vec<i64>; 4] = Default::default();
    for i in 0..n {
        let r: [i64; 4] = std::array::from_fn(|_| d.truncate(rng.next_u64() as i64));
        let (a, b) = if i < specials.len() * specials.len() {
            (specials[i / specials.len()], specials[i % specials.len()])
        } else if i % 4 == 0 {
            (r[0], r[0])
        } else if i % 4 == 1 {
            (d.truncate(r[0] % 40), d.truncate(r[1] % 40))
        } else {
            (r[0], r[1])
        };
        let c = if i % 2 == 0 { 0 } else { r[2] };
        for (v, x) in ops.iter_mut().zip([a, b, c, r[3]]) {
            v.push(x);
        }
    }
    ops
}

fn upload(dev: &mut Device, d: DataType, vals: &[i64]) -> ObjId {
    macro_rules! up {
        ($t:ty) => {
            dev.alloc_vec(&vals.iter().map(|&v| v as $t).collect::<Vec<$t>>())
        };
    }
    match d {
        DataType::Bool => dev.alloc_vec(&vals.iter().map(|&v| v & 1 == 1).collect::<Vec<_>>()),
        DataType::Int8 => up!(i8),
        DataType::Int16 => up!(i16),
        DataType::Int32 => up!(i32),
        DataType::Int64 => up!(i64),
        DataType::UInt8 => up!(u8),
        DataType::UInt16 => up!(u16),
        DataType::UInt32 => up!(u32),
        DataType::UInt64 => up!(u64),
    }
    .unwrap()
}

fn download(dev: &mut Device, d: DataType, id: ObjId) -> Vec<i64> {
    macro_rules! down {
        ($t:ty) => {
            dev.to_vec::<$t>(id)
                .unwrap()
                .into_iter()
                .map(|v| v as i64)
                .collect()
        };
    }
    match d {
        DataType::Bool => down!(bool),
        DataType::Int8 => down!(i8),
        DataType::Int16 => down!(i16),
        DataType::Int32 => down!(i32),
        DataType::Int64 => down!(i64),
        DataType::UInt8 => down!(u8),
        DataType::UInt16 => down!(u16),
        DataType::UInt32 => down!(u32),
        DataType::UInt64 => down!(u64),
    }
}

/// Folds `vals` into the running digest `h`, one mixed word per element.
fn fold(mut h: u64, vals: &[i64]) -> u64 {
    for &v in vals {
        h = (h ^ v as u64).wrapping_mul(0x100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

/// The recomputed table: one row per family, one digest per dtype.
fn digests() -> Vec<(String, Vec<u32>)> {
    let lengths = [2 * exec::MIN_CHUNK - 1, 2 * exec::MIN_CHUNK + 257];
    let mut rows: Vec<(String, Vec<u32>)> = families(DataType::Int32)
        .into_iter()
        .map(|(name, _)| (name, Vec::new()))
        .collect();
    for d in DTYPES {
        let mut hashes = vec![0xcbf2_9ce4_8422_2325u64; rows.len()];
        for (li, &n) in lengths.iter().enumerate() {
            let mut dev = Device::new(DeviceConfig::new(PimTarget::Fulcrum, 1)).unwrap();
            let ops = operands(d, n, 0x5EED + li as u64);
            let ins: Vec<ObjId> = ops.iter().map(|v| upload(&mut dev, d, v)).collect();
            let dst = dev.alloc_associated(ins[0], d).unwrap();
            for (f, (_, kinds)) in families(d).iter().enumerate() {
                for &kind in kinds {
                    let arity = kind.input_operands() as usize;
                    let cmd = PimCommand {
                        kind,
                        inputs: ins[..arity].into(),
                        dst: Some(dst),
                    };
                    exec::with_thread_count(2, || dev.issue(cmd)).unwrap();
                    hashes[f] = fold(hashes[f], &download(&mut dev, d, dst));
                }
            }
        }
        for (row, h) in rows.iter_mut().zip(hashes) {
            row.1.push((h ^ (h >> 32)) as u32);
        }
    }
    rows
}

#[test]
fn every_elementwise_kind_matches_its_pinned_digest_at_every_dtype() {
    let got: Vec<(String, String)> = digests()
        .into_iter()
        .map(|(name, ds)| {
            let hex: Vec<String> = ds.iter().map(|h| format!("{h:08x}")).collect();
            (name, hex.join(" "))
        })
        .collect();
    let want: Vec<(String, String)> = PINNED
        .iter()
        .map(|&(n, h)| (n.to_string(), h.to_string()))
        .collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(n, h)| format!("    (\"{n}\", \"{h}\"),\n"))
            .collect();
        panic!("element digests moved; recomputed table:\n{table}");
    }
}
