//! `BENCHMARK.json` must describe exactly what this package measures,
//! within the limits its consumers enforce.

use perfbench::json::{parse, Value};
use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

fn manifest() -> (String, Value) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let value = parse(&text).expect("BENCHMARK.json is valid JSON");
    (text, value)
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` is a string in {v:?}"))
}

#[test]
fn top_level_keys_and_limits() {
    let (text, v) = manifest();
    assert!(text.len() <= 64 * 1024);
    assert_eq!(
        v.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let run_seconds = v.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));

    let paths = v.get("paths").and_then(Value::as_array).unwrap();
    assert!((1..=16).contains(&paths.len()));
    for p in paths {
        let p = p.as_str().unwrap();
        assert!(p.len() <= 200 && !p.starts_with('/') && !p.split('/').any(|s| s == ".."));
        assert!(p
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/')));
    }

    let command = v.get("command").and_then(Value::as_array).unwrap();
    assert!(!command.is_empty() && command.len() <= 32);
    for arg in command {
        let arg = arg.as_str().unwrap();
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
    }
}

#[test]
fn workloads_match_the_binary() {
    let (_, v) = manifest();
    let workloads = v.get("workloads").and_then(Value::as_array).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<&str> = workloads.iter().map(|w| str_field(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        assert_eq!(w.keys(), ["name", "why"]);
        let why = str_field(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        assert!(is_name(str_field(w, "name")));
    }
}

#[test]
fn metrics_match_the_binary() {
    let (_, v) = manifest();
    let e2e = v.get("end_to_end").and_then(Value::as_array).unwrap();
    let layers = v.get("per_layer").and_then(Value::as_array).unwrap();
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));

    let listed = |items: &[Value]| -> Vec<(String, String)> {
        items
            .iter()
            .map(|m| {
                (
                    str_field(m, "name").to_owned(),
                    str_field(m, "unit").to_owned(),
                )
            })
            .collect()
    };
    let expect = |catalog: &[(&str, &str)]| -> Vec<(String, String)> {
        catalog
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(listed(e2e), expect(&END_TO_END));
    assert_eq!(listed(layers), expect(&PER_LAYER));

    let mut seen = std::collections::BTreeSet::new();
    for m in e2e.iter().chain(layers) {
        let name = str_field(m, "name");
        assert!(is_name(name), "{name}");
        assert!(seen.insert(name.to_owned()), "{name} listed twice");
        assert!(is_unit(str_field(m, "unit")), "{name}");
        assert!(
            matches!(str_field(m, "better"), "higher" | "lower"),
            "{name}"
        );
    }
    for m in layers {
        assert_eq!(m.keys(), ["name", "unit", "better"]);
    }

    let mut setup_bound = None;
    let mut max_other = 0.0f64;
    for m in e2e {
        assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
        if str_field(m, "name") == "setup_s" {
            assert_eq!(str_field(m, "unit"), "s");
            assert_eq!(str_field(m, "better"), "lower");
            setup_bound = Some(bound);
        } else {
            max_other = max_other.max(bound);
        }
    }
    assert!(setup_bound.expect("setup_s is an end-to-end metric") >= max_other);
}
