//! Cross-backend timing agreement suite.
//!
//! Each shard's timing model has two backends: the stateless
//! closed-form `Analytical` model (the default) and the stateful
//! `BankFsm` built on per-bank open-row state machines. Under the
//! simulator's execute-once-and-stall semantics with closed-page
//! (auto-precharge) row cycles, a streaming access pattern round-robins
//! across ≥2 banks and never waits on a bank interlock, so the FSM's
//! modeled time must agree with the closed form *bit for bit* on every
//! target and dtype. A thrashing pattern (all accesses to one bank)
//! serializes on tRAS/tRP recovery and must be strictly slower on the
//! row-oriented targets. UpmemLike is exempt from the strictness check:
//! its per-op time is a DMA/compute roofline (bandwidth-bound burst),
//! so the row pattern cannot change its totals by design.

use std::sync::{Mutex, MutexGuard};

use pimeval::{Device, DeviceConfig, PimScalar, PimTarget, RowPattern, TimingBackend};

/// Serializes the tests that read or write the `PIM_TIMING` process
/// environment against the ones asserting backend-specific defaults.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Holds [`ENV_LOCK`] with `PIM_TIMING` cleared, so tests that pin a
/// backend in [`DeviceConfig`] are not overridden by an externally set
/// variable (the CI matrix runs the whole suite under
/// `PIM_TIMING=fsm`). The prior value is restored on drop, even if the
/// test panics.
struct EnvGuard {
    _lock: MutexGuard<'static, ()>,
    saved: Option<String>,
}

fn pinned_env() -> EnvGuard {
    let lock = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved = std::env::var("PIM_TIMING").ok();
    std::env::remove_var("PIM_TIMING");
    EnvGuard { _lock: lock, saved }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        match &self.saved {
            Some(v) => std::env::set_var("PIM_TIMING", v),
            None => std::env::remove_var("PIM_TIMING"),
        }
    }
}

const TARGETS: [PimTarget; 5] = [
    PimTarget::BitSerial,
    PimTarget::Fulcrum,
    PimTarget::BankLevel,
    PimTarget::AnalogBitSerial,
    PimTarget::UpmemLike,
];

/// Row-oriented targets whose kernel time flows through row cycles (and
/// therefore reacts to the row pattern under the FSM backend).
const ROW_TARGETS: [PimTarget; 4] = [
    PimTarget::BitSerial,
    PimTarget::Fulcrum,
    PimTarget::BankLevel,
    PimTarget::AnalogBitSerial,
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

fn data<T: PimScalar>(n: usize, seed: u64) -> (Vec<T>, Vec<T>) {
    let mut rng = Rng(seed);
    let mut gen = |_| T::from_device(rng.next_u64() as i64);
    let a: Vec<T> = (0..n).map(&mut gen).collect();
    let b: Vec<T> = (0..n).map(&mut gen).collect();
    (a, b)
}

/// Runs a mixed program (host copies, elementwise, scalar, popcount,
/// reduction, device copy, ranged reduction) on a fresh device and
/// returns it for ledger inspection.
fn run_mixed<T: PimScalar>(config: DeviceConfig, seed: u64) -> Device {
    let n = 1031usize; // odd, multi-unit
    let (xs, ys) = data::<T>(n, seed);
    let mut dev = Device::new(config).unwrap();
    let x = dev.alloc_vec(&xs).unwrap();
    let y = dev.alloc_vec(&ys).unwrap();
    let out = dev.alloc_associated(x, T::DTYPE).unwrap();
    dev.add(x, y, out).unwrap();
    dev.mul(x, y, out).unwrap();
    dev.mul_scalar(x, 7, out).unwrap();
    dev.popcount(x, out).unwrap();
    dev.copy_object(x, y).unwrap();
    let _ = dev.red_sum(out).unwrap();
    let _ = dev.red_sum_range(out, 10, 900).unwrap();
    let mut sink = vec![T::from_device(0); n];
    dev.copy_to_host(out, &mut sink).unwrap();
    dev
}

fn config(target: PimTarget, backend: TimingBackend, pattern: RowPattern) -> DeviceConfig {
    DeviceConfig::new(target, 2)
        .with_timing_backend(backend)
        .with_row_pattern(pattern)
}

#[test]
fn backends_agree_bit_for_bit_at_zero_contention() {
    let _g = pinned_env();
    fn check<T: PimScalar>(target: PimTarget, seed: u64) {
        let analytical = run_mixed::<T>(
            config(target, TimingBackend::Analytical, RowPattern::Streaming),
            seed,
        );
        let fsm = run_mixed::<T>(
            config(target, TimingBackend::BankFsm, RowPattern::Streaming),
            seed,
        );
        let (a, f) = (
            analytical.stats().total_time_ms(),
            fsm.stats().total_time_ms(),
        );
        assert!(
            a == f,
            "{target:?} {:?}: analytical {a} ms != fsm {f} ms (rel err {:e})",
            T::DTYPE,
            ((a - f) / a.max(1e-300)).abs()
        );
        assert!(
            analytical.stats().kernel_time_ms() == fsm.stats().kernel_time_ms(),
            "{target:?} {:?}: kernel time diverged",
            T::DTYPE
        );
    }
    for (i, target) in TARGETS.into_iter().enumerate() {
        let seed = 0x71D1 + i as u64;
        check::<i8>(target, seed);
        check::<i32>(target, seed);
        check::<i64>(target, seed);
        check::<u16>(target, seed);
    }
}

#[test]
fn fsm_is_strictly_slower_under_row_thrashing() {
    let _g = pinned_env();
    for target in ROW_TARGETS {
        let streaming = run_mixed::<i32>(
            config(target, TimingBackend::BankFsm, RowPattern::Streaming),
            0x7157,
        );
        let thrash = run_mixed::<i32>(
            config(target, TimingBackend::BankFsm, RowPattern::Thrashing),
            0x7157,
        );
        let (s, t) = (
            streaming.stats().kernel_time_ms(),
            thrash.stats().kernel_time_ms(),
        );
        assert!(
            t > s,
            "{target:?}: thrashing {t} ms not slower than streaming {s} ms"
        );
    }
}

#[test]
fn fsm_populates_protocol_counters_report_and_json() {
    let _g = pinned_env();
    let dev = run_mixed::<i32>(
        config(
            PimTarget::Fulcrum,
            TimingBackend::BankFsm,
            RowPattern::Streaming,
        ),
        0xF1D0,
    );
    let dp = &dev.stats().dram_protocol;
    assert!(!dp.is_empty(), "FSM backend recorded no protocol traffic");
    assert!(dp.activations > 0 && dp.precharges > 0);
    assert!(dp.reads > 0 && dp.writes > 0);
    assert_eq!(dp.row_hits + dp.row_misses, dp.reads + dp.writes);
    let rate = dp.hit_rate();
    assert!((0.0..=1.0).contains(&rate), "hit rate {rate} out of range");
    assert!(
        dev.report().contains("DRAM Protocol"),
        "report missing the protocol section"
    );
    let json = pimeval::trace::json::stats_to_json(dev.stats(), dev.config());
    assert!(
        json.contains("\"dram_protocol\""),
        "stats JSON missing dram_protocol"
    );
    let parsed = pimeval::trace::json::Json::parse(&json).unwrap();
    let sect = parsed.get("dram_protocol").expect("section parses");
    assert_eq!(
        sect.get("activations").unwrap().as_f64().unwrap() as u64,
        dp.activations
    );
}

#[test]
fn analytical_backend_leaves_protocol_sections_empty() {
    let _g = pinned_env();
    let dev = run_mixed::<i32>(
        config(
            PimTarget::Fulcrum,
            TimingBackend::Analytical,
            RowPattern::Streaming,
        ),
        0xA11A,
    );
    assert!(dev.stats().dram_protocol.is_empty());
    assert!(!dev.report().contains("DRAM Protocol"));
    let json = pimeval::trace::json::stats_to_json(dev.stats(), dev.config());
    assert!(!json.contains("\"dram_protocol\""));
}

#[test]
fn pim_timing_env_overrides_the_configured_backend() {
    let _g = pinned_env();
    std::env::set_var("PIM_TIMING", "fsm");
    let dev = Device::fulcrum(1).unwrap();
    assert_eq!(dev.timing_backend(), TimingBackend::BankFsm);
    std::env::set_var("PIM_TIMING", "analytical");
    let dev = Device::new(
        DeviceConfig::new(PimTarget::Fulcrum, 1).with_timing_backend(TimingBackend::BankFsm),
    )
    .unwrap();
    assert_eq!(dev.timing_backend(), TimingBackend::Analytical);
    // Unknown values keep the configured backend.
    std::env::set_var("PIM_TIMING", "warp-drive");
    let dev = Device::new(
        DeviceConfig::new(PimTarget::Fulcrum, 1).with_timing_backend(TimingBackend::BankFsm),
    )
    .unwrap();
    assert_eq!(dev.timing_backend(), TimingBackend::BankFsm);
    std::env::remove_var("PIM_TIMING");
}

/// Allocates and fills three `i32` objects, then clears the ledger so
/// only [`kernel`] is measured.
fn prepared(config: DeviceConfig) -> (Device, [pimeval::ObjId; 3]) {
    let (xs, ys) = data::<i32>(1031, 0x6E5E);
    let mut dev = Device::new(config).unwrap();
    let x = dev.alloc_vec(&xs).unwrap();
    let y = dev.alloc_vec(&ys).unwrap();
    let out = dev.alloc_associated(x, pimeval::DataType::Int32).unwrap();
    dev.reset_stats();
    (dev, [x, y, out])
}

/// Row-charged commands only, ending on one: no copy settles the bank
/// state machines between two runs.
fn kernel(dev: &mut Device, [x, y, out]: [pimeval::ObjId; 3]) {
    dev.add(x, y, out).unwrap();
    dev.mul(x, y, out).unwrap();
    dev.popcount(x, out).unwrap();
    let _ = dev.red_sum(out).unwrap();
    dev.add(out, y, out).unwrap();
}

#[test]
fn reset_stats_resets_the_fsm_state() {
    let _g = pinned_env();
    // Bit-serial time is the sum of its row cycles, so a stall shows
    // (Fulcrum's walkers hide row time under ALU compute).
    let config = || {
        config(
            PimTarget::BitSerial,
            TimingBackend::BankFsm,
            RowPattern::Thrashing,
        )
    };
    let (mut fresh, ids) = prepared(config());
    kernel(&mut fresh, ids);
    assert!(!fresh.stats().dram_protocol.is_empty());

    let (mut dev, ids) = prepared(config());
    kernel(&mut dev, ids);
    dev.reset_stats();
    assert!(dev.stats().dram_protocol.is_empty());
    // A rank left mid-recovery by the first run would stall the rerun's
    // first row accesses and change its modeled times.
    kernel(&mut dev, ids);
    assert_eq!(dev.stats(), fresh.stats());
}
