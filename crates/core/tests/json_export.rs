//! Golden tests for the machine-readable exporters: the Chrome trace
//! document must be well-formed trace-event JSON, and the stats JSON
//! must round-trip the Listing-3 totals through the bundled parser.

use pimeval::trace::chrome::{chrome_trace_json, ChromeTraceBuilder};
use pimeval::trace::json::{stats_to_json, Json};
use pimeval::{DataType, Device, DeviceConfig, PimTarget};

fn traced_run(target: PimTarget) -> (Device, Vec<pimeval::TraceEvent>) {
    let mut dev = Device::new(DeviceConfig::new(target, 2)).unwrap();
    dev.enable_tracing();
    let a = dev.alloc_vec(&[5i32, 3, 8, 1]).unwrap();
    let b = dev.alloc_associated(a, DataType::Int32).unwrap();
    dev.add(a, a, b).unwrap();
    dev.mul(a, b, b).unwrap();
    let _ = dev.red_sum(b).unwrap();
    let _ = dev.to_vec::<i32>(b).unwrap();
    dev.record_host_ms(0.5).unwrap();
    let events = dev.take_trace();
    (dev, events)
}

#[test]
fn chrome_trace_is_wellformed_trace_event_json() {
    let (_, events) = traced_run(PimTarget::Fulcrum);
    let doc = Json::parse(&chrome_trace_json(&events)).expect("trace parses as JSON");
    let entries = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!entries.is_empty());
    let mut spans = 0;
    for e in entries {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .expect("every entry has ph");
        assert!(
            e.get("name").and_then(Json::as_str).is_some(),
            "every entry has a name"
        );
        assert!(e.get("pid").and_then(Json::as_f64).is_some());
        assert!(e.get("tid").and_then(Json::as_f64).is_some());
        match ph {
            "X" => {
                spans += 1;
                let ts = e.get("ts").and_then(Json::as_f64).expect("span has ts");
                let dur = e.get("dur").and_then(Json::as_f64).expect("span has dur");
                assert!(ts >= 0.0 && dur >= 0.0);
            }
            "i" => {
                assert!(e.get("ts").and_then(Json::as_f64).is_some());
            }
            "M" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    // 3 cmds + 2 copies (alloc_vec h2d + to_vec d2h) + 1 host phase.
    assert_eq!(spans, 6);
}

#[test]
fn chrome_trace_has_one_span_per_pim_command() {
    for target in [
        PimTarget::BitSerial,
        PimTarget::Fulcrum,
        PimTarget::BankLevel,
    ] {
        let (dev, events) = traced_run(target);
        let json = chrome_trace_json(&events);
        let doc = Json::parse(&json).unwrap();
        let entries = doc.get("traceEvents").unwrap().as_array().unwrap();
        for (name, stat) in &dev.stats().cmds {
            let spans = entries
                .iter()
                .filter(|e| {
                    e.get("ph").and_then(Json::as_str) == Some("X")
                        && e.get("name").and_then(Json::as_str) == Some(name)
                })
                .count() as u64;
            assert_eq!(spans, stat.count, "{target}: {name} span count");
        }
    }
}

#[test]
fn multi_run_builder_assigns_distinct_pids() {
    let (_, e1) = traced_run(PimTarget::Fulcrum);
    let (_, e2) = traced_run(PimTarget::BankLevel);
    let mut b = ChromeTraceBuilder::new();
    b.add_run("run one", &e1);
    b.add_run("run two", &e2);
    let doc = Json::parse(&b.finish()).unwrap();
    let pids: std::collections::BTreeSet<i64> = doc
        .get("traceEvents")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|e| e.get("pid").and_then(Json::as_f64))
        .map(|p| p as i64)
        .collect();
    assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![0, 1]);
}

#[test]
fn stats_json_round_trips_listing3_totals() {
    for target in [
        PimTarget::BitSerial,
        PimTarget::Fulcrum,
        PimTarget::BankLevel,
    ] {
        let (dev, _) = traced_run(target);
        let stats = dev.stats();
        let doc = Json::parse(&stats_to_json(stats, dev.config())).expect("stats JSON parses");

        let totals = doc.get("totals").unwrap();
        let f = |k: &str| totals.get(k).unwrap().as_f64().unwrap();
        assert_eq!(f("total_ops") as u64, stats.total_ops());
        assert!((f("kernel_time_ms") - stats.kernel_time_ms()).abs() < 1e-9);
        assert!((f("kernel_energy_mj") - stats.kernel_energy_mj()).abs() < 1e-9);
        assert!((f("total_time_ms") - stats.total_time_ms()).abs() < 1e-9);

        let copy = doc.get("copy").unwrap();
        let c = |k: &str| copy.get(k).unwrap().as_f64().unwrap() as u64;
        assert_eq!(c("host_to_device_bytes"), stats.copy.host_to_device_bytes);
        assert_eq!(c("device_to_host_bytes"), stats.copy.device_to_host_bytes);

        let cmds = doc.get("cmds").unwrap().as_object().unwrap();
        assert_eq!(cmds.len(), stats.cmds.len());
        for (name, stat) in &stats.cmds {
            let entry = cmds.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(
                entry.get("count").unwrap().as_f64().unwrap() as u64,
                stat.count
            );
        }

        assert_eq!(
            doc.get("target").unwrap().as_str().unwrap(),
            dev.config().target.to_string()
        );
        assert_eq!(
            doc.get("host_time_ms").unwrap().as_f64().unwrap(),
            stats.host_time_ms
        );
    }
}

#[test]
fn stats_json_matches_report_numbers() {
    // The JSON must agree with the human-readable Listing-3 report the
    // artifact prints: same byte counters, same op total.
    let (dev, _) = traced_run(PimTarget::Fulcrum);
    let report = dev.report();
    let doc = Json::parse(&stats_to_json(dev.stats(), dev.config())).unwrap();
    let copy = doc.get("copy").unwrap();
    let h2d = copy.get("host_to_device_bytes").unwrap().as_f64().unwrap() as u64;
    assert!(report.contains(&format!("Host to Device   : {h2d} bytes")));
    let ops = doc
        .get("totals")
        .unwrap()
        .get("total_ops")
        .unwrap()
        .as_f64()
        .unwrap() as u64;
    assert!(report.contains(&format!("{:<22}: {:>8}", "TOTAL -----", ops)));
}
