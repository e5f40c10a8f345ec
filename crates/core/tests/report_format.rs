//! Format-stability tests for the Listing-3 statistics report: the
//! artifact's output structure is part of the reproduction surface, so
//! lock the section layout and key lines against refactors.

use pimeval::{DataType, Device};

fn sample_report() -> String {
    let mut dev = Device::fulcrum(4).unwrap();
    let a = dev.alloc_vec(&vec![1i32; 2048]).unwrap();
    let b = dev.alloc_associated(a, DataType::Int32).unwrap();
    dev.copy_to_device(&vec![2i32; 2048], b).unwrap();
    dev.add(a, b, b).unwrap();
    dev.to_vec::<i32>(b).unwrap();
    dev.report()
}

#[test]
fn report_sections_appear_in_listing3_order() {
    let report = sample_report();
    let idx = |needle: &str| {
        report
            .find(needle)
            .unwrap_or_else(|| panic!("report must contain {needle:?}:\n{report}"))
    };
    let params = idx("PIM Params:");
    let copy = idx("Data Copy Stats:");
    let cmds = idx("PIM Command Stats:");
    // The command-section total is the *last* TOTAL line (the copy
    // section has its own).
    let total = report.rfind("TOTAL -----").expect("command total line");
    assert!(
        params < copy && copy < cmds && cmds < total,
        "section order"
    );
}

#[test]
fn report_carries_the_artifact_fields() {
    let report = sample_report();
    for field in [
        "Simulation Target             : Fulcrum",
        "Rank, Bank, Subarray, Row, Col: 4, 128, 32, 1024, 8192",
        "Number of PIM Cores           : 8192",
        "Typical Rank BW               : 25.600000 GB/s",
        "Row Read (ns)                 : 28.500000",
        "Row Write (ns)                : 43.500000",
        "tCCD (ns)                     : 3.000000",
        "Host to Device   : 16384 bytes",
        "Device to Host   : 8192 bytes",
        "add.int32",
    ] {
        assert!(report.contains(field), "missing {field:?} in:\n{report}");
    }
}

#[test]
fn info_banner_matches_artifact_shape() {
    let dev = Device::fulcrum(4).unwrap();
    let banner = dev.info_banner();
    assert!(banner.contains("PIM-Info: Simulation Target = Fulcrum"));
    assert!(banner.contains("#ranks = 4, #bankPerRank = 128, #subarrayPerBank = 32"));
    assert!(banner.contains("Created PIM device with 8192 cores of 2048 rows and 8192 columns."));
}

#[test]
fn report_counts_are_numerically_consistent() {
    let report = sample_report();
    // The copy total line must equal H2D + D2H bytes.
    let total_line = report
        .lines()
        .find(|l| l.contains("TOTAL ----------"))
        .expect("copy total line");
    assert!(
        total_line.contains("24576 bytes"),
        "16384 + 8192 = 24576: {total_line}"
    );
}

#[test]
fn copies_only_report_prints_positive_zero_totals() {
    // No PIM command ran: the empty kernel sums must print `0.000000`,
    // not the `-0.000000` of `f64`'s `Sum`.
    let mut dev = Device::fulcrum(1).unwrap();
    let a = dev.alloc(64, DataType::Int32).unwrap();
    dev.copy_to_device(&vec![1i32; 64], a).unwrap();
    let report = dev.report();
    let total = report.lines().rfind(|l| l.contains("TOTAL -----")).unwrap();
    let fields: Vec<&str> = total.split_whitespace().collect();
    assert_eq!(
        fields[fields.len() - 3..],
        ["0", "0.000000", "0.000000"],
        "{report}"
    );
}
