//! C-style PIM API compatibility layer.
//!
//! The paper's Listing 1 writes benchmarks against free functions —
//! `pimAlloc`, `pimAllocAssociated`, `pimCopyHostToDevice`,
//! `pimScaledAdd`, `pimFree` — operating on an ambient device created by
//! `pimCreateDevice`. This module mirrors that surface (snake-cased per
//! Rust convention) over a process-global device, so PIMbench C++ code
//! ports line-for-line. The idiomatic object API ([`crate::Device`])
//! remains the primary interface; this layer simply forwards. Every
//! compute function ultimately funnels through [`Device::issue`] — the
//! wrappers here build the same [`crate::PimCommand`]s the typed API
//! does.
//!
//! # Example — the paper's Listing 1, ported
//!
//! ```
//! use pimeval::capi::*;
//! use pimeval::{DataType, PimTarget};
//!
//! # fn main() -> Result<(), pimeval::PimError> {
//! let x = vec![1i32, 2, 3, 4];
//! let mut y = vec![10i32, 20, 30, 40];
//!
//! pim_create_device(PimTarget::Fulcrum, 4)?;
//! let obj_x = pim_alloc(x.len() as u64, DataType::Int32)?;
//! let obj_y = pim_alloc_associated(obj_x, DataType::Int32)?;
//! pim_copy_host_to_device(&x, obj_x)?;
//! pim_copy_host_to_device(&y, obj_y)?;
//! pim_scaled_add(obj_x, obj_y, obj_y, 3)?;
//! pim_copy_device_to_host(obj_y, &mut y)?;
//! pim_free(obj_x)?;
//! pim_free(obj_y)?;
//! pim_delete_device()?;
//! assert_eq!(y, vec![13, 26, 39, 52]);
//! # Ok(())
//! # }
//! ```

use std::sync::{Mutex, MutexGuard};

use crate::config::{DeviceConfig, PimTarget};
use crate::device::Device;
use crate::dtype::{DataType, PimScalar};
use crate::error::{PimError, Result};
use crate::object::ObjId;

static DEVICE: Mutex<Option<Device>> = Mutex::new(None);

fn with_device<R>(f: impl FnOnce(&mut Device) -> Result<R>) -> Result<R> {
    let mut guard: MutexGuard<'_, Option<Device>> =
        DEVICE.lock().unwrap_or_else(|poison| poison.into_inner());
    match guard.as_mut() {
        Some(dev) => f(dev),
        None => Err(PimError::InvalidArg(
            "no PIM device: call pim_create_device first".into(),
        )),
    }
}

/// Creates the ambient PIM device (`pimCreateDevice`), replacing any
/// existing one.
///
/// # Errors
///
/// Propagates [`Device::new`] errors.
pub fn pim_create_device(target: PimTarget, ranks: usize) -> Result<()> {
    let dev = Device::new(DeviceConfig::new(target, ranks))?;
    *DEVICE.lock().unwrap_or_else(|p| p.into_inner()) = Some(dev);
    Ok(())
}

/// Creates the ambient device with one execution shard per DRAM rank
/// (`pimCreateDeviceRanked`): every object is split across `ranks`
/// shards, each with its own resource manager and timing model,
/// and cross-rank traffic is charged to the interconnect ledger.
///
/// ```
/// use pimeval::capi::*;
/// use pimeval::{DataType, PimTarget};
///
/// # fn main() -> Result<(), pimeval::PimError> {
/// pim_create_device_ranked(PimTarget::Fulcrum, 4)?;
/// let x = pim_alloc(8, DataType::Int32)?;
/// let y = pim_alloc_associated(x, DataType::Int32)?;
/// pim_copy_host_to_device(&[1i32, 2, 3, 4, 5, 6, 7, 8], x)?;
/// pim_broadcast(y, 10)?;
/// pim_add(x, y, y)?;
/// let mut out = [0i32; 8];
/// pim_copy_device_to_host(y, &mut out)?;
/// assert_eq!(out, [11, 12, 13, 14, 15, 16, 17, 18]);
/// # pim_delete_device()?;
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates [`Device::new`] errors.
pub fn pim_create_device_ranked(target: PimTarget, ranks: usize) -> Result<()> {
    let dev = Device::new(DeviceConfig::new(target, ranks).sharded_per_rank())?;
    *DEVICE.lock().unwrap_or_else(|p| p.into_inner()) = Some(dev);
    Ok(())
}

/// Creates the ambient device from a full configuration
/// (`pimCreateDeviceFromConfig`).
///
/// # Errors
///
/// Propagates [`Device::new`] errors.
pub fn pim_create_device_from_config(config: DeviceConfig) -> Result<()> {
    let dev = Device::new(config)?;
    *DEVICE.lock().unwrap_or_else(|p| p.into_inner()) = Some(dev);
    Ok(())
}

/// Destroys the ambient device (`pimDeleteDevice`).
///
/// # Errors
///
/// [`PimError::InvalidArg`] if no device exists.
pub fn pim_delete_device() -> Result<()> {
    let mut guard = DEVICE.lock().unwrap_or_else(|p| p.into_inner());
    if guard.take().is_none() {
        return Err(PimError::InvalidArg("no PIM device to delete".into()));
    }
    Ok(())
}

/// `pimAlloc` with automatic placement.
///
/// # Errors
///
/// See [`Device::alloc`].
pub fn pim_alloc(count: u64, dtype: DataType) -> Result<ObjId> {
    with_device(|d| d.alloc(count, dtype))
}

/// `pimAllocAssociated`.
///
/// # Errors
///
/// See [`Device::alloc_associated`].
pub fn pim_alloc_associated(reference: ObjId, dtype: DataType) -> Result<ObjId> {
    with_device(|d| d.alloc_associated(reference, dtype))
}

/// `pimFree`.
///
/// # Errors
///
/// See [`Device::free`].
pub fn pim_free(id: ObjId) -> Result<()> {
    with_device(|d| d.free(id))
}

/// `pimCopyHostToDevice`.
///
/// # Errors
///
/// See [`Device::copy_to_device`].
pub fn pim_copy_host_to_device<T: PimScalar>(data: &[T], id: ObjId) -> Result<()> {
    with_device(|d| d.copy_to_device(data, id))
}

/// `pimCopyDeviceToHost`.
///
/// # Errors
///
/// See [`Device::copy_to_host`].
pub fn pim_copy_device_to_host<T: PimScalar>(id: ObjId, out: &mut [T]) -> Result<()> {
    with_device(|d| d.copy_to_host(id, out))
}

macro_rules! forward_binary {
    ($(#[$doc:meta] $name:ident => $method:ident),* $(,)?) => {
        $(
            #[$doc]
            ///
            /// # Errors
            ///
            /// Count/dtype mismatches; unknown objects; no ambient device.
            pub fn $name(a: ObjId, b: ObjId, dst: ObjId) -> Result<()> {
                with_device(|d| d.$method(a, b, dst))
            }
        )*
    };
}

forward_binary! {
    /// `pimAdd`.
    pim_add => add,
    /// `pimSub`.
    pim_sub => sub,
    /// `pimMul`.
    pim_mul => mul,
    /// `pimAnd`.
    pim_and => and,
    /// `pimOr`.
    pim_or => or,
    /// `pimXor`.
    pim_xor => xor,
    /// `pimXnor`.
    pim_xnor => xnor,
    /// `pimMin`.
    pim_min => min,
    /// `pimMax`.
    pim_max => max,
    /// `pimLT`.
    pim_lt => lt,
    /// `pimGT`.
    pim_gt => gt,
    /// `pimEQ`.
    pim_eq => eq,
}

/// `pimScaledAdd`: `dst = a·scalar + b` (Listing 1).
///
/// ```
/// use pimeval::capi::*;
/// use pimeval::{DataType, PimTarget};
///
/// # fn main() -> Result<(), pimeval::PimError> {
/// pim_create_device(PimTarget::BitSerial, 1)?;
/// let x = pim_alloc(4, DataType::Int32)?;
/// let y = pim_alloc_associated(x, DataType::Int32)?;
/// pim_copy_host_to_device(&[1i32, 2, 3, 4], x)?;
/// pim_copy_host_to_device(&[10i32, 10, 10, 10], y)?;
/// pim_scaled_add(x, y, y, 3)?; // y = 3·x + y
/// let mut out = [0i32; 4];
/// pim_copy_device_to_host(y, &mut out)?;
/// assert_eq!(out, [13, 16, 19, 22]);
/// # pim_delete_device()?;
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// See [`Device::scaled_add`].
pub fn pim_scaled_add(a: ObjId, b: ObjId, dst: ObjId, scalar: i64) -> Result<()> {
    with_device(|d| d.scaled_add(a, b, dst, scalar))
}

/// `pimCmpSelect`: fused `dst = (a OP b) ? x : y` in one device command,
/// charged at the fused-operation cost (no intermediate mask object).
///
/// ```
/// use pimeval::capi::*;
/// use pimeval::pim_microcode::gen::CmpOp;
/// use pimeval::{DataType, PimTarget};
///
/// # fn main() -> Result<(), pimeval::PimError> {
/// pim_create_device(PimTarget::BitSerial, 1)?;
/// let a = pim_alloc(3, DataType::Int32)?;
/// let b = pim_alloc_associated(a, DataType::Int32)?;
/// pim_copy_host_to_device(&[5i32, -2, 7], a)?;
/// pim_copy_host_to_device(&[1i32, 4, 9], b)?;
/// pim_cmp_select(CmpOp::Lt, a, b, a, b, a)?; // a = min(a, b)
/// let mut out = [0i32; 3];
/// pim_copy_device_to_host(a, &mut out)?;
/// assert_eq!(out, [1, -2, 7]);
/// # pim_delete_device()?;
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// See [`Device::cmp_select`].
pub fn pim_cmp_select(
    op: pim_microcode::gen::CmpOp,
    a: ObjId,
    b: ObjId,
    x: ObjId,
    y: ObjId,
    dst: ObjId,
) -> Result<()> {
    with_device(|d| d.cmp_select(op, a, b, x, y, dst))
}

/// `pimAddScalar`.
///
/// # Errors
///
/// See [`Device::add_scalar`].
pub fn pim_add_scalar(a: ObjId, scalar: i64, dst: ObjId) -> Result<()> {
    with_device(|d| d.add_scalar(a, scalar, dst))
}

/// `pimMulScalar`.
///
/// # Errors
///
/// See [`Device::mul_scalar`].
pub fn pim_mul_scalar(a: ObjId, scalar: i64, dst: ObjId) -> Result<()> {
    with_device(|d| d.mul_scalar(a, scalar, dst))
}

/// `pimRedSumInt`.
///
/// # Errors
///
/// See [`Device::red_sum`].
pub fn pim_red_sum(a: ObjId) -> Result<i128> {
    with_device(|d| d.red_sum(a))
}

/// `pimRedMin`: smallest element of `a`.
///
/// ```
/// use pimeval::capi::*;
/// use pimeval::{DataType, PimTarget};
///
/// # fn main() -> Result<(), pimeval::PimError> {
/// pim_create_device(PimTarget::Fulcrum, 1)?;
/// let a = pim_alloc(5, DataType::Int32)?;
/// pim_copy_host_to_device(&[3i32, -7, 12, 0, 5], a)?;
/// assert_eq!(pim_red_min(a)?, -7);
/// assert_eq!(pim_red_max(a)?, 12);
/// # pim_delete_device()?;
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// See [`Device::red_min`].
pub fn pim_red_min(a: ObjId) -> Result<i64> {
    with_device(|d| d.red_min(a))
}

/// `pimRedMax`: largest element of `a` (see [`pim_red_min`] for an
/// end-to-end example).
///
/// # Errors
///
/// See [`Device::red_max`].
pub fn pim_red_max(a: ObjId) -> Result<i64> {
    with_device(|d| d.red_max(a))
}

/// `pimBroadcast`.
///
/// # Errors
///
/// See [`Device::broadcast`].
pub fn pim_broadcast(dst: ObjId, value: i64) -> Result<()> {
    with_device(|d| d.broadcast(dst, value))
}

/// `pimShowStats`: renders the ambient device's Listing-3 report.
///
/// # Errors
///
/// [`PimError::InvalidArg`] if no device exists.
pub fn pim_show_stats() -> Result<String> {
    with_device(|d| Ok(d.report()))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ambient device is process-global; keep all capi tests in one
    // #[test] so they cannot race each other under the parallel runner.
    #[test]
    fn c_api_end_to_end() {
        assert!(pim_alloc(4, DataType::Int32).is_err(), "no device yet");

        pim_create_device(PimTarget::BitSerial, 2).unwrap();
        let a = pim_alloc(8, DataType::Int32).unwrap();
        let b = pim_alloc_associated(a, DataType::Int32).unwrap();
        pim_copy_host_to_device(&[1i32, 2, 3, 4, 5, 6, 7, 8], a).unwrap();
        pim_broadcast(b, 100).unwrap();
        pim_add(a, b, b).unwrap();
        let mut out = [0i32; 8];
        pim_copy_device_to_host(b, &mut out).unwrap();
        assert_eq!(out, [101, 102, 103, 104, 105, 106, 107, 108]);
        assert_eq!(pim_red_sum(a).unwrap(), 36);
        assert_eq!(pim_red_min(a).unwrap(), 1);
        assert_eq!(pim_red_max(a).unwrap(), 8);
        // dst = a·100 + b, then clamp back down with a fused cmp+select.
        pim_scaled_add(a, b, b, 100).unwrap();
        pim_copy_device_to_host(b, &mut out).unwrap();
        assert_eq!(out[0], 201);
        pim_cmp_select(pim_microcode::gen::CmpOp::Lt, a, b, a, b, b).unwrap();
        pim_copy_device_to_host(b, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8], "a < b everywhere, so b = a");
        let report = pim_show_stats().unwrap();
        assert!(report.contains("add.int32"));
        pim_free(a).unwrap();
        pim_free(b).unwrap();

        // Re-creating the device resets state.
        pim_create_device(PimTarget::Fulcrum, 1).unwrap();
        assert!(pim_free(a).is_err(), "objects do not survive re-creation");
        pim_delete_device().unwrap();
        assert!(pim_delete_device().is_err());

        // Ranked creation shards the device per rank; results are
        // unchanged and the report gains the interconnect section.
        pim_create_device_ranked(PimTarget::Fulcrum, 4).unwrap();
        let a = pim_alloc(1000, DataType::Int64).unwrap();
        let b = pim_alloc_associated(a, DataType::Int64).unwrap();
        let data: Vec<i64> = (0..1000).collect();
        pim_copy_host_to_device(&data, a).unwrap();
        pim_broadcast(b, 1).unwrap();
        pim_add(a, b, b).unwrap();
        let mut out = vec![0i64; 1000];
        pim_copy_device_to_host(b, &mut out).unwrap();
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as i64 + 1));
        assert_eq!(pim_red_sum(a).unwrap(), 999 * 1000 / 2);
        let report = pim_show_stats().unwrap();
        assert!(report.contains("Interconnect Stats"));
        pim_delete_device().unwrap();
    }
}
