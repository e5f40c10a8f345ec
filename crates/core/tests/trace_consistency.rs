//! Cross-layer consistency between the trace timeline and the
//! statistics engine: the per-event view must sum to exactly what
//! `SimStats` aggregates, and tracing must never perturb a run.

use pimeval::trace::TraceEvent;
use pimeval::{DataType, Device, DeviceConfig, PimTarget, SimStats};

/// A small mixed workload touching commands, copies (all three
/// directions), a ranged reduction, and a host phase.
fn run_workload(dev: &mut Device) -> (SimStats, Vec<i32>) {
    let a = dev.alloc_vec(&[3i32, -1, 4, 1, 5, 9, 2, 6]).unwrap();
    let b = dev.alloc_vec(&[2i32, 7, 1, 8, 2, 8, 1, 8]).unwrap();
    let c = dev.alloc_associated(a, DataType::Int32).unwrap();
    dev.add(a, b, c).unwrap();
    dev.mul(a, c, c).unwrap();
    dev.popcount(c, c).unwrap();
    let _ = dev.red_sum(c).unwrap();
    let _ = dev.red_sum_range(c, 2, 6).unwrap();
    dev.copy_object(a, b).unwrap();
    dev.record_host_ms(0.125);
    let out = dev.to_vec::<i32>(c).unwrap();
    dev.free(a).unwrap();
    dev.free(b).unwrap();
    dev.free(c).unwrap();
    (dev.stats().clone(), out)
}

fn targets() -> [PimTarget; 4] {
    [
        PimTarget::BitSerial,
        PimTarget::Fulcrum,
        PimTarget::BankLevel,
        PimTarget::AnalogBitSerial,
    ]
}

#[test]
fn cmd_events_sum_to_stats_totals() {
    for target in targets() {
        let mut dev = Device::new(DeviceConfig::new(target, 2)).unwrap();
        dev.enable_tracing();
        let (stats, _) = run_workload(&mut dev);
        let events = dev.take_trace();

        let mut cmd_count = 0u64;
        let mut cmd_time = 0.0f64;
        let mut cmd_energy = 0.0f64;
        let mut copy_time = 0.0f64;
        let mut h2d = 0u64;
        let mut d2h = 0u64;
        let mut d2d = 0u64;
        let mut host_time = 0.0f64;
        for e in &events {
            match e {
                TraceEvent::Cmd {
                    time_ms, energy_mj, ..
                } => {
                    cmd_count += 1;
                    cmd_time += time_ms;
                    cmd_energy += energy_mj;
                }
                TraceEvent::Copy {
                    direction,
                    bytes,
                    time_ms,
                    ..
                } => {
                    use pimeval::CopyDirection::*;
                    match direction {
                        HostToDevice => h2d += bytes,
                        DeviceToHost => d2h += bytes,
                        DeviceToDevice => d2d += bytes,
                    }
                    copy_time += time_ms;
                }
                TraceEvent::HostPhase { time_ms, .. } => host_time += time_ms,
                _ => {}
            }
        }
        assert_eq!(
            cmd_count,
            stats.total_ops(),
            "{target}: one Cmd event per op"
        );
        assert!(
            (cmd_time - stats.kernel_time_ms()).abs() < 1e-9,
            "{target}: kernel time"
        );
        assert!(
            (cmd_energy - stats.kernel_energy_mj()).abs() < 1e-9,
            "{target}: kernel energy"
        );
        assert!(
            (copy_time - stats.copy.time_ms).abs() < 1e-9,
            "{target}: copy time"
        );
        assert_eq!(h2d, stats.copy.host_to_device_bytes, "{target}: h2d bytes");
        assert_eq!(d2h, stats.copy.device_to_host_bytes, "{target}: d2h bytes");
        assert_eq!(
            d2d, stats.copy.device_to_device_bytes,
            "{target}: d2d bytes"
        );
        assert!(
            (host_time - stats.host_time_ms).abs() < 1e-12,
            "{target}: host time"
        );
    }
}

#[test]
fn tracing_does_not_perturb_stats_or_results() {
    for target in targets() {
        let cfg = DeviceConfig::new(target, 2);
        let mut plain = Device::new(cfg.clone()).unwrap();
        let (stats_plain, out_plain) = run_workload(&mut plain);
        assert!(
            plain.take_trace().is_empty(),
            "untraced device records nothing"
        );

        let mut traced = Device::new(cfg).unwrap();
        traced.enable_tracing();
        let (stats_traced, out_traced) = run_workload(&mut traced);
        assert!(!traced.take_trace().is_empty());

        assert_eq!(
            out_plain, out_traced,
            "{target}: functional results identical"
        );
        assert_eq!(stats_plain, stats_traced, "{target}: statistics identical");
    }
}

#[test]
fn trace_timeline_is_monotonic() {
    let mut dev = Device::fulcrum(2).unwrap();
    dev.enable_tracing();
    let _ = run_workload(&mut dev);
    let events = dev.take_trace();
    assert!(events.len() > 5);
    let mut last = 0.0f64;
    for e in &events {
        let ts = e.timestamp_ms();
        assert!(
            ts >= last - 1e-12,
            "timestamps never go backwards: {ts} < {last}"
        );
        assert!(e.duration_ms() >= 0.0);
        last = ts;
    }
}

#[test]
fn bit_serial_cmds_carry_micro_counters() {
    for (target, expect_analog) in [
        (PimTarget::BitSerial, false),
        (PimTarget::AnalogBitSerial, true),
    ] {
        let mut dev = Device::new(DeviceConfig::new(target, 2)).unwrap();
        dev.enable_tracing();
        let a = dev.alloc_vec(&[1i32, 2, 3, 4]).unwrap();
        let b = dev.alloc_associated(a, DataType::Int32).unwrap();
        dev.add(a, a, b).unwrap();
        let events = dev.take_trace();
        let micro = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Cmd { name, micro, .. } if name == "add.int32" => micro.as_ref(),
                _ => None,
            })
            .expect("bit-serial add carries microcode counters");
        assert!(micro.row_reads + micro.aap_ops + micro.tra_ops > 0);
        if expect_analog {
            assert!(
                micro.tra_ops > 0,
                "analog target uses triple-row activations"
            );
        } else {
            assert!(micro.logic_ops > 0, "digital target uses sense-amp logic");
        }
    }
}

#[test]
fn word_parallel_cmds_have_no_micro_counters_but_copies_have_protocol() {
    for target in [
        PimTarget::Fulcrum,
        PimTarget::BankLevel,
        PimTarget::UpmemLike,
    ] {
        let mut dev = Device::new(DeviceConfig::new(target, 2)).unwrap();
        dev.enable_tracing();
        let a = dev.alloc_vec(&[1i32; 4096]).unwrap();
        let b = dev.alloc_associated(a, DataType::Int32).unwrap();
        dev.add(a, a, b).unwrap();
        let mut cmds = 0;
        for e in dev.take_trace() {
            match e {
                TraceEvent::Cmd { micro, .. } => {
                    assert!(micro.is_none(), "{target}");
                    cmds += 1;
                }
                TraceEvent::Copy {
                    protocol,
                    direction,
                    ..
                } => {
                    let p = protocol.expect("host↔device copies carry protocol counters");
                    assert_eq!(direction, pimeval::CopyDirection::HostToDevice);
                    let c = p.counters;
                    assert!(c.activations > 0 && c.reads > 0 && c.precharges > 0);
                    assert!(p.achieved_gbs > 0.0, "{target}");
                }
                _ => {}
            }
        }
        assert_eq!(cmds, 1, "{target}");
    }
}

#[test]
fn disable_tracing_stops_recording() {
    let mut dev = Device::fulcrum(2).unwrap();
    dev.enable_tracing();
    let a = dev.alloc_vec(&[1i32, 2]).unwrap();
    dev.disable_tracing();
    assert!(!dev.tracing_enabled());
    let b = dev.alloc_associated(a, DataType::Int32).unwrap();
    dev.add(a, a, b).unwrap();
    assert!(
        dev.take_trace().is_empty(),
        "recorder was replaced by the no-op sink"
    );
}

#[test]
fn trace_enabled_mid_run_stays_on_the_device_clock() {
    // Metrics from creation; tracing only in the second and fourth
    // windows. Every traced span must start where the device clock
    // stood, however much was charged while tracing was off.
    let mut dev = Device::new(DeviceConfig::new(PimTarget::Fulcrum, 2)).unwrap();
    dev.enable_metrics(false);
    let clock = |dev: &mut Device| dev.metrics_snapshot().unwrap().clock_ms;
    let a = dev.alloc_vec(&[3i32, -1, 4, 1, 5, 9, 2, 6]).unwrap();
    let b = dev.alloc_associated(a, DataType::Int32).unwrap();
    let (mut events, mut starts) = (Vec::new(), Vec::new());
    for traced in [false, true, false, true] {
        if traced {
            dev.enable_tracing();
        }
        let _ = dev.to_vec::<i32>(b).unwrap();
        dev.record_host_ms(0.125);
        for _ in 0..3 {
            starts.extend(traced.then(|| clock(&mut dev)));
            dev.add(a, b, b).unwrap();
        }
        if traced {
            events.extend(dev.take_trace());
            dev.disable_tracing();
        }
    }
    let cmd_starts: Vec<f64> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Cmd { .. }))
        .map(TraceEvent::timestamp_ms)
        .collect();
    assert_eq!(cmd_starts.len(), 6);
    for (start, expected) in cmd_starts.iter().zip(&starts) {
        assert_eq!(start.to_bits(), expected.to_bits(), "{start} vs {expected}");
    }
    let last = events.last().expect("the last window ends with a command");
    assert!(matches!(last, TraceEvent::Cmd { .. }));
    let end = last.timestamp_ms() + last.duration_ms();
    assert_eq!(end.to_bits(), clock(&mut dev).to_bits());
}
