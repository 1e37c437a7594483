//! The benchmark's own checks: seeded generation, workload names, the
//! metric set of short runs, and the correctness gate.

use openmx_core::ProcId;
use wallbench::bench::{self, Gate, Options, Report, END_TO_END, PER_LAYER};
use wallbench::gen::{self, Workload, BLOCK};
use wallbench::job;

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        spans_out: None,
    }
}

#[test]
fn generator_is_deterministic_for_a_seed() {
    for w in Workload::ALL {
        for i in 0..2 * BLOCK as u64 {
            let a = gen::spec(w, 42, i);
            assert_eq!(a, gen::spec(w, 42, i));
            let (ja, jb) = (gen::build(&a), gen::build(&a));
            assert_eq!(format!("{:?}", ja.scripts), format!("{:?}", jb.scripts));
            assert_eq!(ja.expects, jb.expects);
        }
        let one: Vec<u64> = (0..BLOCK as u64).map(|i| gen::spec(w, 1, i).size).collect();
        let two: Vec<u64> = (0..BLOCK as u64).map(|i| gen::spec(w, 2, i).size).collect();
        assert_ne!(one, two, "{}: seeds must change the inputs", w.name());
    }
}

#[test]
fn every_workload_name_parses() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("bulk"), None);
}

#[test]
fn benchmark_json_lists_the_workloads_and_metrics_emitted() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

fn assert_metrics(report: &Report, table: &[(&str, &str)]) {
    assert!(report.gate.correct(), "{:?}", report.gate.problems);
    assert!(report.gate.attempted > 0);
    let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, table);
    for m in &report.metrics {
        assert!(
            m.value.is_finite() && m.value >= 0.0,
            "{} = {}",
            m.name,
            m.value
        );
    }
    let json = report.json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
}

#[test]
fn short_runs_emit_every_metric_with_its_unit() {
    for w in Workload::ALL {
        let plain = bench::run(&options(w, false));
        assert_metrics(&plain, &END_TO_END);
        for (name, _) in END_TO_END {
            assert!(plain.get(name).unwrap() > 0.0, "{}: {name} is 0", w.name());
        }
        let traced = bench::run(&options(w, true));
        assert_metrics(&traced, &PER_LAYER);
        assert!(traced.get("engine.events").unwrap() > 0.0);
        assert!(traced.get("obs.trace_records").unwrap() > 0.0);
        assert!(traced.get("model.virt_mib_s").unwrap() > 0.0);
        if w == Workload::SmallA2a {
            assert_eq!(traced.get("driver.pin_syscalls"), Some(0.0));
            assert_eq!(traced.get("simmem.pin_calls"), Some(0.0));
        } else {
            assert!(traced.get("driver.pin_syscalls").unwrap() > 0.0);
        }
        if w == Workload::OverlapChurn {
            assert_eq!(traced.get("cache.hit_ratio"), Some(0.0));
            assert!(traced.get("driver.notifier_deferred").unwrap() > 0.0);
        }
    }
}

#[test]
fn traced_run_writes_its_span_file() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("spans-test.json");
    let _ = std::fs::remove_file(&path);
    let mut o = options(Workload::OverlapChurn, true);
    o.spans_out = Some(path.clone());
    assert!(bench::run(&o).gate.correct());
    let spans = std::fs::read_to_string(&path).expect("span file");
    assert!(spans.starts_with("{\"otherData\":{\"workload\":\"overlap_churn\",\"seed\":5}"));
    for name in ["job", "setup", "step_until", "callback"] {
        assert!(spans.contains(&format!("{{\"name\":\"{name}\"")), "{name}");
    }
}

#[test]
fn a_corrupted_received_byte_fails_the_check() {
    let spec = gen::spec(Workload::SmallA2a, 3, 0);
    let mut p = job::prepare(&spec, None);
    job::run(&mut p, None, None);
    let clean = job::verify(&mut p);
    assert!(clean.completed && clean.failed == 0 && clean.bad_bytes == 0);

    let e = p.job.expects[0];
    let addr = p.recorder.borrow()[e.rank].buffer_addrs[e.buf].add(e.offset + 3);
    let bad = e.byte(3) ^ 0xff;
    p.cl.drive(ProcId(e.rank as u32), |ctx| ctx.write_buf(addr, &[bad]));
    let v = job::verify(&mut p);
    assert_eq!(v.bad_bytes, 1);

    let mut gate = Gate::default();
    gate.job(&spec, p.job.requests, &v);
    assert!(!gate.correct());
}

#[test]
fn digests_repeat_and_a_mismatch_fails_the_check() {
    let digest = |seed| {
        let spec = gen::spec(Workload::OverlapChurn, seed, 1);
        let mut p = job::prepare(&spec, None);
        job::run(&mut p, None, None);
        job::verify(&mut p).digest
    };
    assert_eq!(digest(9), digest(9));
    let (a, b) = (digest(9), digest(10));
    assert_ne!(a, b);

    let mut gate = Gate::default();
    gate.same_digest("same job twice", a, a);
    assert!(gate.correct());
    gate.same_digest("different jobs", a, b);
    assert!(!gate.correct());
}
