//! `BENCHMARK.json` names exactly what the program prints.

use gridbench::harness::END_TO_END;
use gridbench::ledger::METRICS;
use gridbench::workloads::NAMES;

/// `(name, unit)` of every object in the JSON array that follows `key`.
/// The file is flat enough that scanning for the two fields is exact.
fn named(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let section = &json[start..];
    let section = &section[..section.find(']').expect("array closes")];
    let field = |object: &str, name: &str| {
        let marker = format!("\"{name}\": \"");
        object.find(&marker).map(|at| {
            let rest = &object[at + marker.len()..];
            rest[..rest.find('"').expect("string closes")].to_string()
        })
    };
    section
        .split('{')
        .skip(1)
        .map(|object| {
            (
                field(object, "name").expect("every entry is named"),
                field(object, "unit").unwrap_or_default(),
            )
        })
        .collect()
}

fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_the_programs_workloads_and_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let workloads: Vec<String> = named(&json, "workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, NAMES);
    assert_eq!(named(&json, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(named(&json, "per_layer"), pairs(&METRICS));
}
