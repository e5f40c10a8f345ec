//! Digital bit-serial (DRAM-AP) micro-op VM and microprogram generators.
//!
//! The paper's subarray-level bit-serial architecture ("DRAM-AP", §IV)
//! attaches a tiny logic block to every sense amplifier: it can latch the
//! open row (SA), keep four single-bit registers per bitline, and combine
//! them with **AND**, **XNOR** and **SEL** (2:1 mux) gates — enough for
//! bit-serial arithmetic *and* associative (conditional match-update)
//! processing. High-level operations such as 32-bit addition are
//! *microprograms*: sequences of row reads/writes and register logic that
//! the memory controller broadcasts to every subarray.
//!
//! This crate implements that machine faithfully:
//!
//! * [`isa`] — the micro-op ISA ([`MicroOp`], [`Loc`], [`RowRef`]).
//! * [`program`] — [`MicroProgram`] containers with exact cost accounting
//!   ([`Cost`]: row reads, row writes, logic ops, popcount reads).
//! * [`gen`] — generators that lower every PIM API operation (§V-B) to a
//!   microprogram: logical ops, add/sub/mul, comparisons, min/max/select,
//!   shifts, abs, popcount, reduction and broadcast.
//! * [`vm`] — the reference executor, an op-by-op interpreter over a
//!   [`pim_dram::BitMatrix`]: one logic step applies to *all* bitlines at
//!   once (the bit-slice parallelism that makes bit-serial PIM fast for
//!   low-complexity ops). `pimeval::Device` computes results natively;
//!   the VM exists to check that every generated program computes the
//!   same values.
//! * [`encode`] — vertical data layout helpers (bit *b* of element *e*
//!   lives at row `base + b`, column `e`).
//!
//! The performance model in `pimeval` does **not** use a hand-written cost
//! table: it generates the same microprograms and counts their row
//! accesses, so modeled latency and functional behaviour can never drift
//! apart.
//!
//! # Example: 8-bit vector addition on the bit-slice VM
//!
//! ```
//! use pim_dram::BitMatrix;
//! use pim_microcode::{encode, gen, vm::{Region, Vm}};
//!
//! let bits = 8;
//! let a = [12i64, 250, 7];
//! let b = [30i64, 9, 99];
//! let mut mat = BitMatrix::new(3 * bits as usize, 64);
//! encode::encode_vertical(&mut mat, 0, bits, &a);
//! encode::encode_vertical(&mut mat, bits as usize, bits, &b);
//!
//! let prog = gen::binary(gen::BinaryOp::Add, bits);
//! let mut vm = Vm::new(&mut mat, 3);
//! vm.bind(0, Region::new(0, bits));
//! vm.bind(1, Region::new(bits as usize, bits));
//! vm.bind(2, Region::new(2 * bits as usize, bits));
//! vm.run(&prog).unwrap();
//!
//! let sum = encode::decode_vertical(vm.matrix(), 2 * bits as usize, bits, 3, false);
//! assert_eq!(sum, vec![42, 3, 106]); // wrapping 8-bit arithmetic
//! ```

#![warn(missing_docs)]

pub mod analog;
pub mod encode;
pub mod gen;
pub mod isa;
pub mod program;
pub mod vm;

pub use isa::{Loc, MicroOp, RowRef};
pub use program::{Cost, MicroProgram};
pub use vm::{Region, Vm, VmError};
