//! Tests of the benchmark itself, on small instances of the pinned
//! workloads run through the same pass and summary code.

use perfbench::report::{self, per_layer, END_TO_END};
use perfbench::{run_pass, run_pass_with, workload, Algo, Built, Mode, Pass, Workload, WORKLOADS};

/// `w` shrunk to a size a debug build runs in about a second.
fn small(w: Workload) -> Workload {
    let n = match w.algo {
        Algo::Bfs => 5_000,
        Algo::Slt => 1_000,
        Algo::Spanner => 300,
    };
    Workload { n, ..w }
}

#[test]
fn every_workload_passes_its_oracles_timed_and_traced() {
    for w in WORKLOADS.map(small) {
        let timed: Vec<Pass> = (0..2).map(|_| run_pass(&w, 7, Mode::Timed)).collect();
        let seeded = run_pass(&w, 8, Mode::Timed);
        let s = report::summarize_timed(&timed, &seeded);
        assert_eq!(
            (s.attempted, s.failed),
            (3, 0),
            "{}: {:?}",
            w.name,
            s.errors
        );
        assert!(s
            .to_json()
            .starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        for (name, _) in END_TO_END {
            let v = s.metric(name).expect("every end-to-end metric printed");
            assert!(v > 0.0 && v.is_finite(), "{}: {name} = {v}", w.name);
        }
        assert_eq!(s.metric("ok_frac"), Some(1.0));

        let traced = run_pass(&w, 7, Mode::Traced);
        let serial = run_pass(&w, 7, Mode::Serial);
        let t = report::summarize_traced(&traced, &serial, &timed[0], &seeded);
        assert_eq!(
            (t.attempted, t.failed),
            (4, 0),
            "{}: {:?}",
            w.name,
            t.errors
        );
        let names: Vec<String> = t.metrics.iter().map(|m| m.0.clone()).collect();
        let want: Vec<String> = per_layer().into_iter().map(|m| m.0).collect();
        assert_eq!(names, want);
        let root = match w.algo {
            Algo::Bfs => "bfs",
            Algo::Slt => "slt",
            Algo::Spanner => "spanner",
        };
        // The root span carries the whole run's counts.
        assert_eq!(t.metric(&format!("{root}.delivered")), s.metric("messages"));
        assert_eq!(t.metric(&format!("{root}.rounds")), s.metric("rounds"));
        for name in ["engine.deliver_s", "engine.compute_s", "engine.speedup_t2"] {
            assert!(t.metric(name).unwrap() > 0.0, "{}: {name}", w.name);
        }
    }
}

#[test]
fn a_corrupted_tree_is_counted_as_a_failure() {
    let w = small(workload("bfs-geo-1m").unwrap());
    let good = run_pass(&w, 3, Mode::Timed);
    assert_eq!(good.error, None);
    let bad = run_pass_with(&w, 3, Mode::Timed, |built| {
        let Built::Tree(tree) = built else {
            panic!("BFS builds a tree")
        };
        let leaf = (0..tree.parent.len())
            .find(|&v| tree.parent[v].is_some() && tree.children[v].is_empty())
            .expect("a tree has a leaf");
        tree.parent[leaf] = None;
    });
    assert!(bad
        .error
        .as_deref()
        .unwrap()
        .contains("not in the BFS tree"));
    let s = report::summarize_timed(&[good.clone(), bad.clone()], &good);
    assert_eq!((s.attempted, s.failed), (3, 1));
    assert_eq!(s.metric("ok_frac"), Some(2.0 / 3.0));
    assert!(s.to_json().starts_with("{\"correct\": false,"));
    // A wrong object on the seeded instance counts just the same.
    let s = report::summarize_timed(&[good.clone(), good], &bad);
    assert_eq!((s.attempted, s.failed), (3, 1));
    assert_eq!(s.fail_frac(), 1.0 / 3.0);
    assert!(
        s.errors[0].starts_with("seeded instance: "),
        "{:?}",
        s.errors
    );
}

#[test]
fn a_count_that_does_not_repeat_is_a_failure() {
    let w = small(workload("spanner-gnp-2k").unwrap());
    let a = run_pass(&w, 5, Mode::Timed);
    let mut b = a.clone();
    *b.values.get_mut("msg_max").unwrap() += 1.0;
    let s = report::summarize_timed(&[a.clone(), b], &a);
    assert_eq!(s.failed, 1);
    assert!(s.errors[0].contains("msg_max"), "{:?}", s.errors);
}

#[test]
fn a_pass_survives_its_line_format() {
    let w = small(workload("slt-geo-64k").unwrap());
    let p = run_pass(&w, 2, Mode::Traced);
    assert!(!p.spans.is_empty());
    assert_eq!(Pass::parse(&p.to_lines()), Ok(p));
    let failed = Pass::failed("oracle said\nno".to_owned());
    assert_eq!(
        Pass::parse(&failed.to_lines()).unwrap().error.unwrap(),
        "oracle said no"
    );
}

#[test]
fn benchmark_json_declares_what_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let declared = |section: &str| -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
                    entry[at..].split('"').next().unwrap().to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect();
    assert_eq!(declared("per_layer"), layers);
    let names: Vec<String> = declared_workloads(&json);
    let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
    assert_eq!(names, ours);
}

fn declared_workloads(json: &str) -> Vec<String> {
    let start = json.find("\"workloads\"").expect("workloads listed");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().unwrap().to_owned())
        .collect()
}
