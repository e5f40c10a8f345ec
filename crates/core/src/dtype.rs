//! PIM element data types.

use std::fmt;

/// Element data types supported by the PIM API (§V-B).
///
/// All integer arithmetic wraps at the type's width (two's complement),
/// matching the bit-serial microprograms. Floating point is not supported,
/// as in the paper ("softmax ... executed on the host CPU because it
/// requires floating-point operations, which PIMeval does not support
/// yet").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 1-bit boolean (comparison bitmaps).
    Bool,
    /// Signed 8-bit integer.
    Int8,
    /// Signed 16-bit integer.
    Int16,
    /// Signed 32-bit integer (the suite's dominant type).
    Int32,
    /// Signed 64-bit integer.
    Int64,
    /// Unsigned 8-bit integer.
    UInt8,
    /// Unsigned 16-bit integer.
    UInt16,
    /// Unsigned 32-bit integer.
    UInt32,
    /// Unsigned 64-bit integer.
    UInt64,
}

impl DataType {
    /// Bits per element.
    pub fn bits(&self) -> u32 {
        match self {
            DataType::Bool => 1,
            DataType::Int8 | DataType::UInt8 => 8,
            DataType::Int16 | DataType::UInt16 => 16,
            DataType::Int32 | DataType::UInt32 => 32,
            DataType::Int64 | DataType::UInt64 => 64,
        }
    }

    /// True for signed two's-complement types.
    pub fn is_signed(&self) -> bool {
        matches!(
            self,
            DataType::Int8 | DataType::Int16 | DataType::Int32 | DataType::Int64
        )
    }

    /// Short name used in command statistics (e.g. `int32`).
    pub fn short_name(&self) -> &'static str {
        match self {
            DataType::Bool => "bool",
            DataType::Int8 => "int8",
            DataType::Int16 => "int16",
            DataType::Int32 => "int32",
            DataType::Int64 => "int64",
            DataType::UInt8 => "uint8",
            DataType::UInt16 => "uint16",
            DataType::UInt32 => "uint32",
            DataType::UInt64 => "uint64",
        }
    }

    /// Truncates a raw `i64` to this type's canonical stored value.
    pub fn truncate(&self, v: i64) -> i64 {
        Elem::of(*self).trunc(v)
    }

    /// Compares two canonical stored values respecting signedness.
    pub fn compare(&self, a: i64, b: i64) -> std::cmp::Ordering {
        let e = Elem::of(*self);
        e.key(a).cmp(&e.key(b))
    }
}

/// A dtype's canonical form, resolved once per call so that the
/// per-element loops of the data path (element-wise commands, uploads,
/// reductions) run without re-deciding the dtype: the per-element
/// methods are branch-free. [`DataType::truncate`] and
/// [`DataType::compare`] are the one-value forms.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Elem {
    /// All-ones mask of the low `bits` bits.
    pub(crate) mask: i64,
    /// The sign bit for signed types, 0 for unsigned ones.
    sign: i64,
    /// `i64::MIN` for unsigned types, so that comparing `x ^ flip` as
    /// signed is the unsigned order; 0 for signed ones.
    pub(crate) flip: i64,
}

impl Elem {
    pub(crate) fn of(dtype: DataType) -> Elem {
        let bits = dtype.bits();
        let mask = pim_microcode::encode::mask(bits) as i64;
        if dtype.is_signed() {
            Elem {
                mask,
                sign: 1i64.wrapping_shl(bits - 1),
                flip: 0,
            }
        } else {
            Elem {
                mask,
                sign: 0,
                flip: i64::MIN,
            }
        }
    }

    /// Truncates `v` to the canonical stored value: keep the low bits,
    /// then sign-extend them when the type is signed. Bit-identical to
    /// `pim_microcode::encode::truncate` for widths 1..=64.
    #[inline(always)]
    pub(crate) fn trunc(self, v: i64) -> i64 {
        ((v & self.mask) ^ self.sign).wrapping_sub(self.sign)
    }

    /// The order key of a canonical value: keys compare as signed
    /// `i64`s in the type's order.
    #[inline(always)]
    pub(crate) fn key(self, v: i64) -> i64 {
        v ^ self.flip
    }

    /// `x < y` under the type's signedness.
    #[inline(always)]
    pub(crate) fn lt(self, x: i64, y: i64) -> bool {
        self.key(x) < self.key(y)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Host scalar types that can be copied to/from PIM objects.
///
/// The canonical device representation is an `i64` holding the truncated
/// two's-complement value; this trait converts losslessly in both
/// directions for every supported width.
///
/// `Send + Sync` so host↔device conversion loops can fan out across the
/// [`pim_dram::exec`] worker threads; every implementor is a primitive.
pub trait PimScalar: Copy + Send + Sync {
    /// The natural [`DataType`] for this host type.
    const DTYPE: DataType;

    /// Converts to the canonical device representation.
    fn to_device(self) -> i64;

    /// Converts from the canonical device representation.
    fn from_device(v: i64) -> Self;
}

macro_rules! impl_pim_scalar {
    ($($t:ty => $d:expr),* $(,)?) => {
        $(impl PimScalar for $t {
            const DTYPE: DataType = $d;
            fn to_device(self) -> i64 { self as i64 }
            fn from_device(v: i64) -> Self { v as $t }
        })*
    };
}

impl_pim_scalar! {
    i8 => DataType::Int8,
    i16 => DataType::Int16,
    i32 => DataType::Int32,
    i64 => DataType::Int64,
    u8 => DataType::UInt8,
    u16 => DataType::UInt16,
    u32 => DataType::UInt32,
}

impl PimScalar for u64 {
    const DTYPE: DataType = DataType::UInt64;

    fn to_device(self) -> i64 {
        self as i64
    }

    fn from_device(v: i64) -> Self {
        v as u64
    }
}

impl PimScalar for bool {
    const DTYPE: DataType = DataType::Bool;

    fn to_device(self) -> i64 {
        i64::from(self)
    }

    fn from_device(v: i64) -> Self {
        v & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn canonical_form_matches_the_scalar_definitions() {
        let mut rng = crate::SplitMix64(0xE1E7);
        let mut values = vec![0, 1, -1, 2, i64::MIN, i64::MAX];
        for bits in [1, 8, 16, 32, 63] {
            let top = 1i64 << (bits - 1);
            values.extend([
                top,
                top - 1,
                -top,
                -top - 1,
                top << 1,
                (top << 1).wrapping_sub(1),
            ]);
        }
        values.extend((0..2000).map(|_| rng.next() as i64));
        for d in DTYPES {
            let canon: Vec<i64> = values.iter().map(|&v| d.truncate(v)).collect();
            for (&v, &t) in values.iter().zip(&canon) {
                let want = pim_microcode::encode::truncate(v, d.bits(), d.is_signed());
                assert_eq!(t, want, "{d} truncate({v})");
            }
            for pair in canon.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                let want = if d.is_signed() {
                    a.cmp(&b)
                } else {
                    (a as u64).cmp(&(b as u64))
                };
                assert_eq!(d.compare(a, b), want, "{d} compare({a}, {b})");
            }
        }
    }

    #[test]
    fn bits_and_signedness() {
        assert_eq!(DataType::Int32.bits(), 32);
        assert!(DataType::Int32.is_signed());
        assert!(!DataType::UInt32.is_signed());
        assert_eq!(DataType::Bool.bits(), 1);
    }

    #[test]
    fn truncate_wraps() {
        assert_eq!(DataType::Int8.truncate(130), -126);
        assert_eq!(DataType::UInt8.truncate(-1), 255);
        assert_eq!(DataType::Bool.truncate(3), 1);
    }

    #[test]
    fn unsigned_compare_uses_u64_order() {
        let d = DataType::UInt64;
        let big = d.truncate(u64::MAX as i64);
        assert_eq!(d.compare(0, big), std::cmp::Ordering::Less);
        assert_eq!(DataType::Int64.compare(0, -1), std::cmp::Ordering::Greater);
    }

    #[test]
    fn scalar_roundtrip() {
        assert_eq!(i32::from_device((-5i32).to_device()), -5);
        assert_eq!(
            u32::from_device(4_000_000_000u32.to_device()),
            4_000_000_000
        );
        assert_eq!(u64::from_device(u64::MAX.to_device()), u64::MAX);
        assert!(bool::from_device(true.to_device()));
    }
}
