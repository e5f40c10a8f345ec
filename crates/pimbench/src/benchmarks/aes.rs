//! AES-256 ECB encryption/decryption on PIM (Table I, Cryptography).
//!
//! The PIM implementation is *bitsliced*: each of the 128 state bit
//! positions becomes one PIM object holding that bit for every block, so
//! all blocks encrypt in parallel and every AES step becomes element-wise
//! logic — exactly the "look-up table realized using logic gates" the
//! paper describes (§VIII):
//!
//! * **S-box**: a reduced ordered BDD is built from the S-box truth table
//!   (hash-consed Shannon expansion) and evaluated with one PIM `select`
//!   (2:1 mux) per node — the LUT-as-logic-gates realization.
//! * **MixColumns / InvMixColumns**: every GF(2⁸) constant multiply is a
//!   linear map over bits, so output planes are XOR chains of input
//!   planes (the matrix is derived from `gf_mul`, not hardcoded).
//! * **ShiftRows**: pure wiring (object relabeling, zero cost).
//! * **AddRoundKey**: the key is a controller constant, so key-bit XORs
//!   lower to conditional NOTs (`xor_scalar`).

// Index loops over the fixed 8-bit/16-byte AES state mirror FIPS-197
// notation; iterator rewrites obscure the bit/byte positions.
#![allow(clippy::needless_range_loop)]

use std::collections::HashMap;

use pim_baseline::WorkloadProfile;
use pimeval::{DataType, Device, ObjId};

use super::aes_ref;
use crate::common::{
    finish, BenchError, BenchSpec, Benchmark, Domain, ExecType, Params, RunOutcome, SplitMix64,
};

// ----------------------------------------------------------------------
// Reduced ordered BDD over 8 variables, built from a 256-entry table.
// ----------------------------------------------------------------------

const BDD_ZERO: u32 = 0;
const BDD_ONE: u32 = 1;

#[derive(Debug)]
struct Bdd {
    /// nodes[i] = (var, lo, hi); indices 0/1 are the terminals.
    nodes: Vec<(u8, u32, u32)>,
    unique: HashMap<(u8, u32, u32), u32>,
}

impl Bdd {
    fn new() -> Self {
        // Two placeholder terminal slots.
        Bdd {
            nodes: vec![(u8::MAX, 0, 0), (u8::MAX, 1, 1)],
            unique: HashMap::new(),
        }
    }

    fn mk(&mut self, var: u8, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            return lo;
        }
        *self.unique.entry((var, lo, hi)).or_insert_with(|| {
            self.nodes.push((var, lo, hi));
            (self.nodes.len() - 1) as u32
        })
    }

    /// Builds the BDD of a boolean function given as a truth table of
    /// length 2^k over variables `k-1 .. 0` (variable = bit of the
    /// index).
    #[allow(clippy::wrong_self_convention)] // builder method, not a conversion
    fn from_table(&mut self, table: &[bool]) -> u32 {
        let k = table.len().trailing_zeros();
        debug_assert_eq!(table.len(), 1 << k);
        if k == 0 {
            return if table[0] { BDD_ONE } else { BDD_ZERO };
        }
        let half = table.len() / 2;
        let lo = self.from_table(&table[..half]); // top bit = 0
        let hi = self.from_table(&table[half..]); // top bit = 1
        self.mk((k - 1) as u8, lo, hi)
    }
}

/// The S-box (or inverse S-box) as shared BDD roots for its 8 output
/// bits.
struct SboxCircuit {
    bdd: Bdd,
    roots: [u32; 8],
    /// The internal nodes reachable from the roots, ascending. Nodes are
    /// created bottom-up, so this is a topological order.
    order: Vec<u32>,
}

impl SboxCircuit {
    fn build(f: impl Fn(u8) -> u8) -> Self {
        let mut bdd = Bdd::new();
        let mut roots = [BDD_ZERO; 8];
        for (bit, root) in roots.iter_mut().enumerate() {
            let table: Vec<bool> = (0..256).map(|x| (f(x as u8) >> bit) & 1 == 1).collect();
            *root = bdd.from_table(&table);
        }
        let mut reachable = vec![false; bdd.nodes.len()];
        let mut stack: Vec<u32> = roots.to_vec();
        while let Some(n) = stack.pop() {
            if n <= BDD_ONE || reachable[n as usize] {
                continue;
            }
            reachable[n as usize] = true;
            let (_, lo, hi) = bdd.nodes[n as usize];
            stack.push(lo);
            stack.push(hi);
        }
        let order = (0..bdd.nodes.len() as u32)
            .filter(|&n| reachable[n as usize])
            .collect();
        SboxCircuit { bdd, roots, order }
    }

    /// Internal (non-terminal) node count — the number of PIM `select`
    /// ops one byte substitution costs.
    #[cfg_attr(not(test), allow(dead_code))]
    fn gate_count(&self) -> usize {
        self.bdd.nodes.len() - 2
    }

    /// Evaluates the circuit on 8 input bit planes, returning 8 fresh
    /// output planes. `c0`/`c1` are shared constant-0/1 planes.
    fn eval(
        &self,
        dev: &mut Device,
        input: &[ObjId; 8],
        c0: ObjId,
        c1: ObjId,
    ) -> Result<[ObjId; 8], BenchError> {
        // The plane holding each node's value, indexed by node; the
        // terminals are the constant planes.
        let mut memo = vec![c0; self.bdd.nodes.len()];
        memo[BDD_ONE as usize] = c1;
        for &n in &self.order {
            let (var, lo, hi) = self.bdd.nodes[n as usize];
            let out = dev.alloc_associated(input[0], DataType::Bool)?;
            dev.select(
                input[var as usize],
                memo[hi as usize],
                memo[lo as usize],
                out,
            )?;
            memo[n as usize] = out;
        }
        // Copy roots out (a root may be shared, a terminal, or an input).
        let mut outputs = [input[0]; 8];
        for (bit, out) in outputs.iter_mut().enumerate() {
            let fresh = dev.alloc_associated(input[0], DataType::Bool)?;
            dev.copy_object(memo[self.roots[bit] as usize], fresh)?;
            *out = fresh;
        }
        // Free in node order, so the trace's free events are the same
        // on every run.
        for &n in &self.order {
            dev.free(memo[n as usize])?;
        }
        Ok(outputs)
    }
}

// ----------------------------------------------------------------------
// Plane-level AES steps
// ----------------------------------------------------------------------

type State = [[ObjId; 8]; 16];

/// Bit `i` of `m · x` as a function of the bits of `x` (GF(2⁸) constant
/// multiplication is linear over GF(2)).
fn mul_matrix(m: u8) -> [[bool; 8]; 8] {
    let mut mat = [[false; 8]; 8];
    for j in 0..8 {
        let col = aes_ref::gf_mul(m, 1 << j);
        for (i, row) in mat.iter_mut().enumerate() {
            row[j] = (col >> i) & 1 == 1;
        }
    }
    mat
}

fn add_round_key(dev: &mut Device, state: &mut State, rk: &[u8; 16]) -> Result<(), BenchError> {
    for byte in 0..16 {
        for bit in 0..8 {
            if (rk[byte] >> bit) & 1 == 1 {
                dev.xor_scalar(state[byte][bit], 1, state[byte][bit])?;
            }
        }
    }
    Ok(())
}

fn shift_rows(state: &mut State, inverse: bool) {
    let old = *state;
    for r in 0..4 {
        for c in 0..4 {
            if inverse {
                state[4 * ((c + r) % 4) + r] = old[4 * c + r];
            } else {
                state[4 * c + r] = old[4 * ((c + r) % 4) + r];
            }
        }
    }
}

/// Generic MixColumns with row coefficients `coeffs` (forward:
/// `[2, 3, 1, 1]`; inverse: `[14, 11, 13, 9]`).
fn mix_columns(
    dev: &mut Device,
    state: &mut State,
    coeffs: [u8; 4],
    c0: ObjId,
) -> Result<(), BenchError> {
    let mats: Vec<[[bool; 8]; 8]> = coeffs.iter().map(|&m| mul_matrix(m)).collect();
    for c in 0..4 {
        let col: Vec<[ObjId; 8]> = (0..4).map(|r| state[4 * c + r]).collect();
        for r in 0..4 {
            let mut new_planes = [c0; 8];
            for (i, plane) in new_planes.iter_mut().enumerate() {
                // Sources: bit j of byte (r+q)%4 when mats[q][i][j].
                let mut sources = Vec::new();
                for q in 0..4 {
                    for j in 0..8 {
                        if mats[q][i][j] {
                            sources.push(col[(r + q) % 4][j]);
                        }
                    }
                }
                let out = dev.alloc_associated(col[0][0], DataType::Bool)?;
                match sources.split_first() {
                    None => dev.broadcast(out, 0)?,
                    Some((&first, rest)) => {
                        dev.copy_object(first, out)?;
                        for &s in rest {
                            dev.xor(out, s, out)?;
                        }
                    }
                }
                *plane = out;
            }
            state[4 * c + r] = new_planes;
        }
        // Free the consumed column planes.
        for planes in col {
            for p in planes {
                dev.free(p)?;
            }
        }
    }
    Ok(())
}

fn sub_bytes(
    dev: &mut Device,
    state: &mut State,
    circuit: &SboxCircuit,
    c0: ObjId,
    c1: ObjId,
) -> Result<(), BenchError> {
    for byte in 0..16 {
        let outputs = circuit.eval(dev, &state[byte], c0, c1)?;
        for p in state[byte] {
            dev.free(p)?;
        }
        state[byte] = outputs;
    }
    Ok(())
}

// ----------------------------------------------------------------------
// The benchmark
// ----------------------------------------------------------------------

/// AES-256 ECB on PIM. `decrypt = false` is the "AES-Encryption" row of
/// Table I; `decrypt = true` the "AES-Decryption" row.
#[derive(Debug, Clone, Copy)]
pub struct Aes {
    /// Run the inverse cipher.
    pub decrypt: bool,
}

impl Aes {
    const BASE_BLOCKS: u64 = 192;

    fn blocks(params: &Params) -> usize {
        params.scaled(Self::BASE_BLOCKS) as usize
    }
}

impl Benchmark for Aes {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            name: if self.decrypt {
                "AES-Decryption"
            } else {
                "AES-Encryption"
            },
            domain: Domain::Cryptography,
            sequential: true,
            random: true,
            exec: ExecType::Pim,
            paper_input: "1,035,544,320 Bytes",
        }
    }

    fn run(&self, dev: &mut Device, params: &Params) -> Result<RunOutcome, BenchError> {
        dev.reset_stats();
        let n = Self::blocks(params);
        let mut rng = SplitMix64::new(params.seed);
        let key: [u8; 32] = std::array::from_fn(|_| rng.below(256) as u8);
        let rk = aes_ref::expand_key(&key);
        let plaintext: Vec<[u8; 16]> = (0..n)
            .map(|_| std::array::from_fn(|_| rng.below(256) as u8))
            .collect();
        let ciphertext: Vec<[u8; 16]> = plaintext
            .iter()
            .map(|b| aes_ref::encrypt_block(b, &rk))
            .collect();
        let (input, expected) = if self.decrypt {
            (&ciphertext, &plaintext)
        } else {
            (&plaintext, &ciphertext)
        };

        // Bitslice the input: plane[byte][bit][block].
        let proto = dev.alloc(n as u64, DataType::Bool)?;
        let c0 = dev.alloc_associated(proto, DataType::Bool)?;
        let c1 = dev.alloc_associated(proto, DataType::Bool)?;
        dev.broadcast(c0, 0)?;
        dev.broadcast(c1, 1)?;
        let mut state: State = [[proto; 8]; 16];
        for byte in 0..16 {
            for bit in 0..8 {
                let plane: Vec<bool> = input
                    .iter()
                    .map(|blk| (blk[byte] >> bit) & 1 == 1)
                    .collect();
                state[byte][bit] = dev.alloc_vec(&plane)?;
            }
        }
        dev.free(proto)?;

        let circuit = SboxCircuit::build(if self.decrypt {
            aes_ref::inv_sbox
        } else {
            aes_ref::sbox
        });

        if self.decrypt {
            add_round_key(dev, &mut state, &rk[14])?;
            shift_rows(&mut state, true);
            sub_bytes(dev, &mut state, &circuit, c0, c1)?;
            for round in (1..14).rev() {
                add_round_key(dev, &mut state, &rk[round])?;
                mix_columns(dev, &mut state, [14, 11, 13, 9], c0)?;
                shift_rows(&mut state, true);
                sub_bytes(dev, &mut state, &circuit, c0, c1)?;
            }
            add_round_key(dev, &mut state, &rk[0])?;
        } else {
            add_round_key(dev, &mut state, &rk[0])?;
            for round in 1..14 {
                sub_bytes(dev, &mut state, &circuit, c0, c1)?;
                shift_rows(&mut state, false);
                mix_columns(dev, &mut state, [2, 3, 1, 1], c0)?;
                add_round_key(dev, &mut state, &rk[round])?;
            }
            sub_bytes(dev, &mut state, &circuit, c0, c1)?;
            shift_rows(&mut state, false);
            add_round_key(dev, &mut state, &rk[14])?;
        }

        // Un-bitslice and verify.
        let mut ok = true;
        let mut out_blocks = vec![[0u8; 16]; n];
        for byte in 0..16 {
            for bit in 0..8 {
                let plane = dev.to_vec::<bool>(state[byte][bit])?;
                for (blk, &v) in out_blocks.iter_mut().zip(&plane) {
                    blk[byte] |= u8::from(v) << bit;
                }
                dev.free(state[byte][bit])?;
            }
        }
        dev.free(c0)?;
        dev.free(c1)?;
        for (got, exp) in out_blocks.iter().zip(expected) {
            ok &= got == exp;
        }
        finish(dev, ok, "AES block output")
    }

    fn cpu_profile(&self, params: &Params) -> WorkloadProfile {
        let bytes = Self::blocks(params) as f64 * 16.0;
        // OpenSSL with AES-NI: ~1.3 cycles/byte on one core; scale to
        // equivalent scalar ops so the roofline lands near measured
        // AES-NI throughput rather than at a naive software-AES cost.
        WorkloadProfile::new(40.0 * bytes, 2.0 * bytes).with_efficiency(0.5)
    }

    fn gpu_profile(&self, params: &Params) -> WorkloadProfile {
        let bytes = Self::blocks(params) as f64 * 16.0;
        // GPU table-based AES sustains hundreds of GB/s.
        WorkloadProfile::new(60.0 * bytes, 2.0 * bytes).with_efficiency(0.7)
    }

    fn paper_factor(&self, params: &Params) -> f64 {
        (1_035_544_320.0 / 16.0) / Self::blocks(params) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbox_circuit_is_compact() {
        let c = SboxCircuit::build(aes_ref::sbox);
        // The AES S-box ROBDD is a few hundred shared nodes.
        assert!(
            c.gate_count() > 50 && c.gate_count() < 1200,
            "{}",
            c.gate_count()
        );
    }

    #[test]
    fn bdd_from_table_reduces_constants() {
        let mut bdd = Bdd::new();
        let always = vec![true; 256];
        assert_eq!(bdd.from_table(&always), BDD_ONE);
        let never = vec![false; 256];
        assert_eq!(bdd.from_table(&never), BDD_ZERO);
        // x0: table[i] = bit 0 of i.
        let x0: Vec<bool> = (0..256).map(|i| i & 1 == 1).collect();
        let root = bdd.from_table(&x0);
        let (var, lo, hi) = bdd.nodes[root as usize];
        assert_eq!((var, lo, hi), (0, BDD_ZERO, BDD_ONE));
    }

    #[test]
    fn mul_matrix_matches_gf_mul() {
        for m in [2u8, 3, 9, 11, 13, 14] {
            let mat = mul_matrix(m);
            for x in 0..=255u8 {
                let mut y = 0u8;
                for i in 0..8 {
                    let mut bit = false;
                    for j in 0..8 {
                        bit ^= mat[i][j] && (x >> j) & 1 == 1;
                    }
                    y |= (bit as u8) << i;
                }
                assert_eq!(y, aes_ref::gf_mul(m, x), "m={m} x={x}");
            }
        }
    }

    #[test]
    fn aes_encrypt_verifies_on_fulcrum() {
        let mut dev = Device::fulcrum(1).unwrap();
        let out = Aes { decrypt: false }
            .run(
                &mut dev,
                &Params {
                    scale: 1.0 / 16.0,
                    seed: 12,
                    ..Params::default()
                },
            )
            .unwrap();
        assert!(out.verified);
        // Logic-gate heavy mix: xor + bit (select) dominate.
        assert!(out.stats.categories[&pimeval::OpCategory::Xor] > 0);
        assert!(out.stats.categories[&pimeval::OpCategory::Bit] > 0);
    }

    #[test]
    fn aes_decrypt_verifies_on_bitserial() {
        let mut dev = Device::bit_serial(1).unwrap();
        let out = Aes { decrypt: true }
            .run(
                &mut dev,
                &Params {
                    scale: 1.0 / 16.0,
                    seed: 13,
                    ..Params::default()
                },
            )
            .unwrap();
        assert!(out.verified);
    }
}
