//! Benchmarks of the bit-serial substrate: microprogram generation and
//! row-wide VM execution at full subarray width. Run with `cargo bench`.

use pim_bench_harness::microbench::{bench, bench_throughput, group};
use pim_dram::BitMatrix;
use pim_microcode::analog;
use pim_microcode::encode::encode_vertical;
use pim_microcode::gen::{self, BinaryOp};
use pim_microcode::vm::{Region, Vm};

fn bench_codegen() {
    group("codegen");
    for bits in [8u32, 32, 64] {
        bench(&format!("add/{bits}"), || gen::binary(BinaryOp::Add, bits));
        bench(&format!("mul/{bits}"), || gen::binary(BinaryOp::Mul, bits));
    }
}

fn bench_vm() {
    let cols = 8192; // one full subarray row
    let bits = 32u32;
    group("vm_row_wide");
    let values: Vec<i64> = (0..cols as i64).collect();
    for (name, prog) in [
        ("add32", gen::binary(BinaryOp::Add, bits)),
        ("mul32", gen::binary(BinaryOp::Mul, bits)),
        ("redsum32", gen::red_sum(bits, true)),
    ] {
        let mut mat = BitMatrix::new(3 * bits as usize, cols);
        encode_vertical(&mut mat, 0, bits, &values);
        encode_vertical(&mut mat, bits as usize, bits, &values);
        bench_throughput(name, cols as u64, || {
            let mut vm = Vm::new(&mut mat, 3);
            vm.bind(0, Region::new(0, bits));
            vm.bind(1, Region::new(bits as usize, bits));
            vm.bind(2, Region::new(2 * bits as usize, bits));
            vm.run(&prog).unwrap();
            vm.accumulator()
        });
    }
}

fn bench_analog() {
    let cols = 8192;
    let bits = 32u32;
    group("analog_vm");
    let values: Vec<i64> = (0..cols as i64).collect();
    let prog = analog::binary(BinaryOp::Add, bits);
    let rows = 3 * bits as usize + prog.temp_rows() as usize;
    let mut mat = BitMatrix::new(rows, cols);
    encode_vertical(&mut mat, 0, bits, &values);
    encode_vertical(&mut mat, bits as usize, bits, &values);
    bench_throughput("tra_add32", cols as u64, || {
        let mut vm = Vm::new(&mut mat, 3);
        vm.bind(0, Region::new(0, bits));
        vm.bind(1, Region::new(bits as usize, bits));
        vm.bind(2, Region::new(2 * bits as usize, bits));
        vm.bind_temp(Region::new(3 * bits as usize, prog.temp_rows()));
        vm.run(&prog).unwrap();
    });
}

fn main() {
    bench_codegen();
    bench_vm();
    bench_analog();
}
