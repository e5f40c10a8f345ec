//! Integration tests for the Device API: functional correctness on all
//! three targets, aliasing, error paths, statistics, and the report.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pimeval::pim_microcode::gen::{BinaryOp, CmpOp};
use pimeval::{DataType, Device, ObjId, OpKind, PimCommand, PimError, PimTarget, SimMode};

fn devices() -> Vec<Device> {
    PimTarget::ALL
        .iter()
        .map(|&t| Device::new(pimeval::DeviceConfig::new(t, 2)).unwrap())
        .collect()
}

#[test]
fn full_binary_op_matrix_on_all_targets() {
    let a: Vec<i32> = (0..257).map(|i| i * 1_000_003 - 7).collect();
    let b: Vec<i32> = (0..257).map(|i| -i * 77 + 13).collect();
    for mut dev in devices() {
        let oa = dev.alloc_vec(&a).unwrap();
        let ob = dev.alloc_vec(&b).unwrap();
        let od = dev.alloc_associated(oa, DataType::Int32).unwrap();
        type OpFn =
            fn(&mut Device, pimeval::ObjId, pimeval::ObjId, pimeval::ObjId) -> pimeval::Result<()>;
        type Case = (OpFn, fn(i32, i32) -> i32);
        let cases: Vec<Case> = vec![
            (Device::add, |x, y| x.wrapping_add(y)),
            (Device::sub, |x, y| x.wrapping_sub(y)),
            (Device::mul, |x, y| x.wrapping_mul(y)),
            (Device::and, |x, y| x & y),
            (Device::or, |x, y| x | y),
            (Device::xor, |x, y| x ^ y),
            (Device::xnor, |x, y| !(x ^ y)),
            (Device::min, |x, y| x.min(y)),
            (Device::max, |x, y| x.max(y)),
            (Device::lt, |x, y| i32::from(x < y)),
            (Device::gt, |x, y| i32::from(x > y)),
            (Device::eq, |x, y| i32::from(x == y)),
        ];
        for (op, reference) in cases {
            op(&mut dev, oa, ob, od).unwrap();
            let got = dev.to_vec::<i32>(od).unwrap();
            for i in 0..a.len() {
                assert_eq!(
                    got[i],
                    reference(a[i], b[i]),
                    "target {}",
                    dev.config().target
                );
            }
        }
    }
}

#[test]
fn unary_and_scalar_ops_on_all_targets() {
    let a: Vec<i32> = (-64..64).map(|i| i * 3_000_017).collect();
    for mut dev in devices() {
        let oa = dev.alloc_vec(&a).unwrap();
        let od = dev.alloc_associated(oa, DataType::Int32).unwrap();

        dev.abs(oa, od).unwrap();
        assert!(dev
            .to_vec::<i32>(od)
            .unwrap()
            .iter()
            .zip(&a)
            .all(|(g, x)| *g == x.wrapping_abs()));

        dev.not(oa, od).unwrap();
        assert!(dev
            .to_vec::<i32>(od)
            .unwrap()
            .iter()
            .zip(&a)
            .all(|(g, x)| *g == !x));

        dev.popcount(oa, od).unwrap();
        assert!(dev
            .to_vec::<i32>(od)
            .unwrap()
            .iter()
            .zip(&a)
            .all(|(g, x)| *g == x.count_ones() as i32));

        dev.add_scalar(oa, 41, od).unwrap();
        assert!(dev
            .to_vec::<i32>(od)
            .unwrap()
            .iter()
            .zip(&a)
            .all(|(g, x)| *g == x.wrapping_add(41)));

        dev.mul_scalar(oa, -3, od).unwrap();
        assert!(dev
            .to_vec::<i32>(od)
            .unwrap()
            .iter()
            .zip(&a)
            .all(|(g, x)| *g == x.wrapping_mul(-3)));

        dev.min_scalar(oa, 0, od).unwrap();
        assert!(dev
            .to_vec::<i32>(od)
            .unwrap()
            .iter()
            .zip(&a)
            .all(|(g, x)| *g == (*x).min(0)));

        dev.shift_left(oa, 4, od).unwrap();
        assert!(dev
            .to_vec::<i32>(od)
            .unwrap()
            .iter()
            .zip(&a)
            .all(|(g, x)| *g == x.wrapping_shl(4)));

        dev.shift_right(oa, 3, od).unwrap();
        assert!(dev
            .to_vec::<i32>(od)
            .unwrap()
            .iter()
            .zip(&a)
            .all(|(g, x)| *g == x >> 3));

        dev.lt_scalar(oa, 100, od).unwrap();
        assert!(dev
            .to_vec::<i32>(od)
            .unwrap()
            .iter()
            .zip(&a)
            .all(|(g, x)| *g == i32::from(*x < 100)));

        dev.broadcast(od, 7).unwrap();
        assert!(dev.to_vec::<i32>(od).unwrap().iter().all(|g| *g == 7));
    }
}

#[test]
fn unsigned_semantics() {
    let a: Vec<u32> = vec![0, 1, u32::MAX, 0x8000_0000, 12345];
    let b: Vec<u32> = vec![u32::MAX, 2, 1, 0x7FFF_FFFF, 54321];
    for mut dev in devices() {
        let oa = dev.alloc_vec(&a).unwrap();
        let ob = dev.alloc_vec(&b).unwrap();
        let od = dev.alloc_associated(oa, DataType::UInt32).unwrap();
        dev.lt(oa, ob, od).unwrap();
        let got = dev.to_vec::<u32>(od).unwrap();
        for i in 0..a.len() {
            assert_eq!(got[i] == 1, a[i] < b[i], "unsigned lt at {i}");
        }
        dev.min(oa, ob, od).unwrap();
        let got = dev.to_vec::<u32>(od).unwrap();
        for i in 0..a.len() {
            assert_eq!(got[i], a[i].min(b[i]));
        }
        dev.shift_right(oa, 8, od).unwrap();
        let got = dev.to_vec::<u32>(od).unwrap();
        for i in 0..a.len() {
            assert_eq!(got[i], a[i] >> 8, "logical shift for unsigned");
        }
        let sum = dev.red_sum(oa).unwrap();
        assert_eq!(sum, a.iter().map(|&v| v as i128).sum::<i128>());
    }
}

#[test]
fn aliasing_dst_with_source_works() {
    // Listing 1 does pimScaledAdd(objX, objY, objY, A).
    let x: Vec<i32> = (0..100).collect();
    let y: Vec<i32> = (0..100).map(|i| 1000 - i).collect();
    for mut dev in devices() {
        let ox = dev.alloc_vec(&x).unwrap();
        let oy = dev.alloc_vec(&y).unwrap();
        dev.scaled_add(ox, oy, oy, 5).unwrap();
        let got = dev.to_vec::<i32>(oy).unwrap();
        for i in 0..x.len() {
            assert_eq!(got[i], x[i] * 5 + y[i]);
        }
        dev.add(ox, ox, ox).unwrap();
        let got = dev.to_vec::<i32>(ox).unwrap();
        for i in 0..x.len() {
            assert_eq!(got[i], x[i] * 2);
        }
    }
}

#[test]
fn select_and_red_sum_range() {
    let a: Vec<i32> = (0..50).collect();
    let b: Vec<i32> = (0..50).map(|i| -i).collect();
    let c: Vec<i32> = (0..50).map(|i| i % 2).collect();
    let mut dev = Device::bit_serial(1).unwrap();
    let (oa, ob, oc) = (
        dev.alloc_vec(&a).unwrap(),
        dev.alloc_vec(&b).unwrap(),
        dev.alloc_vec(&c).unwrap(),
    );
    let od = dev.alloc_associated(oa, DataType::Int32).unwrap();
    dev.select(oc, oa, ob, od).unwrap();
    let got = dev.to_vec::<i32>(od).unwrap();
    for i in 0..a.len() {
        assert_eq!(got[i], if c[i] != 0 { a[i] } else { b[i] });
    }
    let partial = dev.red_sum_range(oa, 10, 20).unwrap();
    assert_eq!(partial, (10..20).sum::<i128>());
    assert!(matches!(
        dev.red_sum_range(oa, 20, 10),
        Err(PimError::InvalidArg(_))
    ));
    assert!(matches!(
        dev.red_sum_range(oa, 0, 51),
        Err(PimError::InvalidArg(_))
    ));
}

#[test]
fn error_paths() {
    let mut dev = Device::fulcrum(1).unwrap();
    let a = dev.alloc_vec(&[1i32, 2, 3]).unwrap();
    let b = dev.alloc_vec(&[1i32, 2]).unwrap();
    let c = dev.alloc_vec(&[1i64, 2, 3]).unwrap();
    let d = dev.alloc_associated(a, DataType::Int32).unwrap();
    assert!(matches!(
        dev.add(a, b, d),
        Err(PimError::CountMismatch { .. })
    ));
    assert!(matches!(
        dev.add(a, c, d),
        Err(PimError::DTypeMismatch { .. })
    ));
    assert!(matches!(
        dev.copy_to_device(&[1i32, 2], a),
        Err(PimError::CountMismatch { .. })
    ));
    assert!(matches!(
        dev.copy_to_device(&[1i64, 2, 3], a),
        Err(PimError::DTypeMismatch { .. })
    ));
    assert!(matches!(
        dev.alloc(0, DataType::Int32),
        Err(PimError::InvalidArg(_))
    ));
}

#[test]
fn a_decimation_whose_represented_bytes_overflow_is_rejected() {
    // Copies charge their bytes times the decimation, and no byte count
    // exceeds the modeled device's capacity in bits, which at these
    // decimations is one core. The largest decimation whose product with
    // that capacity fits builds, and copies at it charge without
    // overflow; one more is an error, not a panic at the first copy.
    for target in PimTarget::ALL {
        let config = pimeval::DeviceConfig::new(target, 1);
        let edge = u64::MAX / (config.rows_per_core() * config.cols_per_core() as u64);
        let mut dev = Device::new(config.clone().with_decimation(edge)).unwrap();
        assert_eq!(dev.config().core_count(), 1, "{target}");
        let a = dev.alloc_vec(&[7i64; 300]).unwrap();
        assert_eq!(dev.to_vec::<i64>(a).unwrap(), [7; 300], "{target}");
        assert!(dev.stats().copy.time_ms > 0.0, "{target}");
        for decimation in [edge + 1, u64::MAX] {
            assert!(
                matches!(
                    Device::new(config.clone().with_decimation(decimation)),
                    Err(PimError::InvalidArg(_))
                ),
                "{target}: decimation {decimation}"
            );
        }
    }
}

#[test]
fn host_time_must_be_finite_and_non_negative() {
    let mut dev = Device::fulcrum(1).unwrap();
    dev.record_host_ms(0.25).unwrap();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
        assert!(
            matches!(dev.record_host_ms(bad), Err(PimError::InvalidArg(_))),
            "{bad} ms"
        );
    }
    dev.record_host_ms(0.0).unwrap();
    assert_eq!(dev.stats().host_time_ms, 0.25);
}

/// Runs one misuse case, failing with its name on a panic or on any
/// result other than `UnknownObject(dead)`.
fn expect_unknown(case: &str, dead: ObjId, f: impl FnOnce() -> pimeval::Result<()>) {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Err(PimError::UnknownObject(id))) => assert_eq!(id, dead, "{case}"),
        Ok(other) => panic!("{case}: expected UnknownObject, got {other:?}"),
        Err(_) => panic!("{case}: panicked"),
    }
}

#[test]
fn dead_ids_are_unknown_objects_everywhere() {
    let kinds = [
        OpKind::Binary(BinaryOp::Add),
        OpKind::BinaryScalar(BinaryOp::Mul, 3),
        OpKind::Cmp(CmpOp::Lt),
        OpKind::CmpScalar(CmpOp::Eq, 1),
        OpKind::Min,
        OpKind::Max,
        OpKind::MinScalar(0),
        OpKind::MaxScalar(0),
        OpKind::Not,
        OpKind::Abs,
        OpKind::Popcount,
        OpKind::ShiftL(2),
        OpKind::ShiftR(2),
        OpKind::Select,
        OpKind::ScaledAdd(5),
        OpKind::FusedCmpSelect(CmpOp::Gt),
        OpKind::Broadcast(9),
        OpKind::RedSum,
        OpKind::RedMin,
        OpKind::RedMax,
        OpKind::Copy,
    ];
    let data: Vec<i32> = (0..5000).collect();
    for shards in [1, 4] {
        let config = pimeval::DeviceConfig::new(PimTarget::Fulcrum, 4).with_shards(shards);
        let mut dev = Device::new(config).unwrap();
        let a = dev.alloc_vec(&data).unwrap();
        let b = dev.alloc_vec(&data).unwrap();
        let dst = dev.alloc_associated(a, DataType::Int32).unwrap();
        let dead = dev.alloc_associated(a, DataType::Int32).unwrap();
        dev.free(dead).unwrap();

        // Every command kind with the dead id in each operand position
        // in turn (inputs first, then the destination).
        for kind in kinds {
            let live_inputs = &[a, b, a, b][..kind.input_operands() as usize];
            let live_dst = kind.writes_output().then_some(dst);
            for pos in 0..live_inputs.len() + usize::from(live_dst.is_some()) {
                let mut command = PimCommand {
                    kind,
                    inputs: live_inputs.into(),
                    dst: live_dst,
                };
                match command.inputs.get_mut(pos) {
                    Some(input) => *input = dead,
                    None => command.dst = Some(dead),
                }
                let case = format!("shards={shards} {kind:?} operand {pos}");
                expect_unknown(&case, dead, || dev.issue(command).map(drop));
            }
        }
        let case = |name: &str| format!("shards={shards} {name}");
        expect_unknown(&case("copy_to_device"), dead, || {
            dev.copy_to_device(&data, dead)
        });
        expect_unknown(&case("copy_to_host"), dead, || {
            dev.copy_to_host(dead, &mut vec![0i32; data.len()])
        });
        expect_unknown(&case("double free"), dead, || dev.free(dead));
        expect_unknown(&case("alloc_associated"), dead, || {
            dev.alloc_associated(dead, DataType::Int32).map(drop)
        });

        // The misuse left the live objects intact.
        dev.add(a, b, dst).unwrap();
        let got = dev.to_vec::<i32>(dst).unwrap();
        assert!(got.iter().zip(&data).all(|(g, x)| *g == 2 * x));
    }
}

#[test]
fn stats_track_commands_and_copies() {
    let mut dev = Device::fulcrum(4).unwrap();
    let a = dev.alloc_vec(&vec![1i32; 2048]).unwrap();
    let b = dev.alloc_associated(a, DataType::Int32).unwrap();
    dev.copy_to_device(&vec![2i32; 2048], b).unwrap();
    dev.add(a, b, b).unwrap();
    dev.add(a, b, b).unwrap();
    let _ = dev.red_sum(b).unwrap();
    let s = dev.stats();
    assert_eq!(s.cmds["add.int32"].count, 2);
    assert_eq!(s.cmds["redsum.int32"].count, 1);
    assert_eq!(s.copy.host_to_device_bytes, 2 * 2048 * 4);
    assert!(s.kernel_time_ms() > 0.0);
    assert!(s.kernel_energy_mj() > 0.0);
    let report = dev.report();
    assert!(report.contains("add.int32"));
    assert!(report.contains("Simulation Target"));
    dev.reset_stats();
    assert_eq!(dev.stats().total_ops(), 0);
}

#[test]
fn model_only_mode_charges_without_data() {
    let cfg = pimeval::DeviceConfig::new(PimTarget::BitSerial, 32).model_only();
    let mut dev = Device::new(cfg).unwrap();
    // Paper-scale allocation: 2 billion elements, no memory materialized.
    let a = dev.alloc(2_035_544_320, DataType::Int32).unwrap();
    let b = dev.alloc_associated(a, DataType::Int32).unwrap();
    dev.add(a, b, b).unwrap();
    assert_eq!(dev.config().mode, SimMode::ModelOnly);
    assert!(dev.stats().kernel_time_ms() > 0.0);
    assert!(matches!(
        dev.to_vec::<i32>(b),
        Err(PimError::NotSupported(_))
    ));
}

#[test]
fn copy_object_moves_data_and_counts_d2d() {
    let mut dev = Device::bank_level(1).unwrap();
    let a = dev.alloc_vec(&[9i32, 8, 7]).unwrap();
    let b = dev.alloc_associated(a, DataType::Int32).unwrap();
    dev.copy_object(a, b).unwrap();
    assert_eq!(dev.to_vec::<i32>(b).unwrap(), vec![9, 8, 7]);
    assert_eq!(dev.stats().copy.device_to_device_bytes, 12);
}

#[test]
fn device_matches_scalar_reference() {
    // Deterministic SplitMix64 stream: 8 random vector pairs per target.
    let mut state = 0xDEA1_0001u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    for &target in PimTarget::ALL.iter().take(3) {
        for _ in 0..8 {
            let n = 1 + (next() % 199) as usize;
            let a: Vec<i32> = (0..n).map(|_| next() as i32).collect();
            let b: Vec<i32> = (0..n).map(|_| next() as i32).collect();
            let mut dev = Device::new(pimeval::DeviceConfig::new(target, 1)).unwrap();
            let oa = dev.alloc_vec(&a).unwrap();
            let ob = dev.alloc_vec(&b).unwrap();
            let od = dev.alloc_associated(oa, DataType::Int32).unwrap();
            dev.mul(oa, ob, od).unwrap();
            let got = dev.to_vec::<i32>(od).unwrap();
            for i in 0..n {
                assert_eq!(got[i], a[i].wrapping_mul(b[i]));
            }
            let sum = dev.red_sum(oa).unwrap();
            assert_eq!(sum, a.iter().map(|&v| v as i128).sum::<i128>());
        }
    }
}

#[test]
fn cmp_select_clamps_and_min_max_reduce_on_all_targets() {
    // dst = (a < b) ? a : b is an element-wise min in one fused command.
    let a = [5i32, -2, 7, 0, i32::MIN];
    let b = [1i32, 4, 9, 0, i32::MAX];
    for mut dev in devices() {
        let target = dev.config().target;
        let oa = dev.alloc_vec(&a).unwrap();
        let ob = dev.alloc_vec(&b).unwrap();
        dev.cmp_select(CmpOp::Lt, oa, ob, oa, ob, ob).unwrap();
        assert_eq!(
            dev.to_vec::<i32>(ob).unwrap(),
            [1, -2, 7, 0, i32::MIN],
            "{target}"
        );
        assert_eq!(dev.red_min(ob).unwrap(), i64::from(i32::MIN), "{target}");
        assert_eq!(dev.red_max(ob).unwrap(), 7, "{target}");
    }
}

#[test]
fn per_rank_sharded_int64_add_and_sum_report_the_interconnect() {
    let config = pimeval::DeviceConfig::new(PimTarget::Fulcrum, 4).sharded_per_rank();
    let mut dev = Device::new(config).unwrap();
    assert_eq!(dev.system().shard_count(), 4);
    let data: Vec<i64> = (0..1000).collect();
    let a = dev.alloc_vec(&data).unwrap();
    let b = dev.alloc_associated(a, DataType::Int64).unwrap();
    dev.broadcast(b, 1).unwrap();
    dev.add(a, b, b).unwrap();
    let out = dev.to_vec::<i64>(b).unwrap();
    assert!(out.iter().enumerate().all(|(i, &v)| v == i as i64 + 1));
    assert_eq!(dev.red_sum(a).unwrap(), 999 * 1000 / 2);
    assert!(dev.report().contains("Interconnect Stats"));

    // One shard moves nothing between ranks, so it prints no such section.
    let mut one = Device::fulcrum(4).unwrap();
    let a = one.alloc_vec(&data).unwrap();
    assert_eq!(one.red_sum(a).unwrap(), 999 * 1000 / 2);
    assert!(!one.report().contains("Interconnect Stats"));
}
