//! The `BENCH_e2e.json` trajectory (`fj_experiments record`): one captured
//! `fj_benchmark` run appended per call. Pass-through on purpose — header
//! tokens and result values are copied as [`serde_json::Value`]s, so a
//! metric added to the benchmark needs no change here — and nothing is
//! compared: bounds and paired runs belong to `BENCHMARK.json`.

use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{Error, ErrorKind, Result, Write};
use std::path::Path;

fn invalid(what: String) -> Error {
    Error::new(ErrorKind::InvalidData, what)
}

/// The history entry for one run's captured stdout: the `key=value` tokens
/// of its `#` header lines, then from its last line `correct`, `attempted`,
/// `failed` and `metrics` flattened to `{name: value}`.
pub fn entry(label: &str, stdout: &str) -> Result<Value> {
    let header = stdout.lines().filter(|l| l.starts_with('#'));
    let tokens = header.flat_map(|l| l.split_whitespace().filter_map(|t| t.split_once('=')));
    let mut fields: BTreeMap<String, Value> = tokens.map(|(k, v)| (k.into(), v.into())).collect();
    if !fields.contains_key("workload") {
        return Err(invalid("no `# workload=…` header line".into()));
    }
    let last = stdout.lines().rfind(|l| !l.trim().is_empty());
    let result: Value = serde_json::from_str(last.unwrap_or_default())?;
    let not_result = |key: &str| invalid(format!("last line is not a result object: {key}"));
    for key in ["correct", "attempted", "failed"] {
        let value = result.get(key).ok_or_else(|| not_result(key))?;
        fields.insert(key.into(), value.clone());
    }
    let metrics = result["metrics"].as_object();
    let values = metrics.ok_or_else(|| not_result("metrics"))?.iter();
    let values = values.map(|(name, metric)| match metric.get("value") {
        Some(v @ Value::Number(_)) => Ok((name.clone(), v.clone())),
        _ => Err(invalid(format!("metric {name} has no numeric value"))),
    });
    fields.insert(
        "metrics".into(),
        Value::Object(values.collect::<Result<_>>()?),
    );
    fields.insert("label".into(), label.into());
    Ok(Value::Object(fields))
}

/// Appends `entry` to the `{"version":1,"history":[…]}` file at `path`
/// (created when absent), one entry per line. The text is staged in a
/// same-directory temp file and renamed over `path`, so an error leaves
/// the file as it was.
pub fn append(path: &Path, entry: Value) -> Result<()> {
    let mut history = match std::fs::read_to_string(path) {
        Ok(text) => {
            let doc: Value = serde_json::from_str(&text)?;
            match doc.get("history").and_then(Value::as_array) {
                Some(history) if doc["version"] == 1 => history.clone(),
                _ => return Err(invalid("not a {\"version\":1,\"history\":[…]} file".into())),
            }
        }
        Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    history.push(entry);
    let lines: Vec<String> = history.iter().map(Value::to_string).collect();
    let text = format!(
        "{{\"version\":1,\"history\":[\n{}\n]}}\n",
        lines.join(",\n")
    );
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let staged = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if staged.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    staged
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exactly the shape `fj_benchmark` prints: two `#` header lines,
    /// `# …` comment lines, an optional `FAILED …` line, `name value unit`
    /// lines, and the result object last.
    const RUN: &str = "\
# fj_benchmark nproc=2 load1=1.40 commit=9ec79bb0d9b2
# workload=tcp_mixed seed=2023 seconds=15 trace=0 inputs_hash=0b7ae315d5da5528
# set-up repetitions: [1.493, 1.521, 2.122] s
# oracle: 279 sub-plans of 19 pinned queries in 3.065 s
FAILED batch 17: reply carried 3 estimates, expected 4
setup_s 1.521482445 s
subplans_per_s 246693.73428152583 1/s
ok_frac 0.9999 ratio
{\"attempted\":15051,\"correct\":false,\"failed\":1,\"metrics\":{\
\"ok_frac\":{\"unit\":\"ratio\",\"value\":0.9999},\
\"setup_s\":{\"unit\":\"s\",\"value\":1.521482445},\
\"subplans_per_s\":{\"unit\":\"1/s\",\"value\":246693.73428152583}}}
";

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fj_record_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("BENCH_e2e.json")
    }

    #[test]
    fn entry_carries_header_keys_and_exactly_the_result_metrics() {
        let e = entry("pr18", RUN).unwrap();
        assert_eq!(e["label"], "pr18");
        for (key, value) in [
            ("nproc", "2"),
            ("load1", "1.40"),
            ("commit", "9ec79bb0d9b2"),
            ("workload", "tcp_mixed"),
            ("seed", "2023"),
            ("seconds", "15"),
            ("trace", "0"),
            ("inputs_hash", "0b7ae315d5da5528"),
        ] {
            assert_eq!(e[key], value, "header key {key}");
        }
        assert_eq!(e["correct"], false);
        assert_eq!(e["attempted"], 15051);
        assert_eq!(e["failed"], 1);
        let metrics = e["metrics"].as_object().unwrap();
        let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        assert_eq!(names, ["ok_frac", "setup_s", "subplans_per_s"]);
        assert_eq!(e["metrics"]["subplans_per_s"], 246693.73428152583);
        assert_eq!(e["metrics"]["setup_s"], 1.521482445);
    }

    #[test]
    fn appending_twice_keeps_the_first_entry_untouched() {
        let path = scratch("append");
        append(&path, entry("first", RUN).unwrap()).unwrap();
        let after_one = std::fs::read_to_string(&path).unwrap();
        append(&path, entry("second", RUN).unwrap()).unwrap();
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc["version"], 1);
        let history = doc["history"].as_array().unwrap();
        assert_eq!(history.len(), 2);
        let first: Value = serde_json::from_str(&after_one).unwrap();
        assert_eq!(history[0], first["history"][0]);
        assert_eq!(history[0], entry("first", RUN).unwrap());
        assert_eq!(history[1]["label"], "second");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn bad_input_or_bad_history_is_an_error_that_leaves_the_file_unchanged() {
        // Input: the last line must be the result object, the header must
        // name the workload, every metric must carry a number.
        let without_result = RUN.trim_end().rsplit_once('\n').unwrap().0;
        assert!(entry("x", without_result).is_err());
        assert!(entry("x", "").is_err());
        assert!(entry("x", &RUN.replace("# workload=", "# w=")).is_err());
        assert!(entry("x", &RUN.replace("\"value\":0.9999", "\"value\":\"n/a\"")).is_err());
        assert!(entry("x", &RUN.replace("\"failed\":1,", "")).is_err());

        // History file: anything but {"version":1,"history":[…]} is refused
        // and stays on disk byte for byte, with no temp file left behind.
        let path = scratch("refuse");
        for foreign in [
            "{\"version\":2,\"history\":[]}",
            "{\"version\":1,\"history\":{}}",
            "[]",
            "not json",
        ] {
            std::fs::write(&path, foreign).unwrap();
            assert!(
                append(&path, entry("x", RUN).unwrap()).is_err(),
                "{foreign}"
            );
            assert_eq!(std::fs::read_to_string(&path).unwrap(), foreign);
        }
        let dir = path.parent().unwrap();
        assert_eq!(std::fs::read_dir(dir).unwrap().count(), 1, "temp file left");
        std::fs::remove_dir_all(dir).ok();
    }
}
