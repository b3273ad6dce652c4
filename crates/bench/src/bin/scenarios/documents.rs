//! Result documents on disk: read, write, `--merge` and `--compare`.

use crate::Error;
use engine::json::JsonValue;
use engine::{results_from_json, ScenarioSpec, TIMING_FIELDS};

/// Reads the document at `path` and parses it with `parse`.
fn read_with<T, E: std::fmt::Display>(
    path: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, Error> {
    let text = std::fs::read_to_string(path)
        .map_err(|error| Error::Failed(format!("cannot read {path}: {error}")))?;
    parse(&text).map_err(|error| Error::Failed(format!("cannot parse {path}: {error}")))
}

/// Reads a result document (unsharded or one shard) into its grid spec and
/// raw result rows.
pub fn read_results(path: &str) -> Result<(ScenarioSpec, Vec<JsonValue>), Error> {
    read_with(path, results_from_json)
}

/// Renders `document` and writes it to `path`.
pub fn write(path: &str, document: &JsonValue) -> Result<(), Error> {
    let json = document.render()?;
    std::fs::write(path, &json)
        .map_err(|error| Error::Failed(format!("cannot write {path}: {error}")))?;
    println!("wrote {} bytes to {path}\n", json.len());
    Ok(())
}

/// `--merge OUT IN...`: concatenates shard documents (in argument order,
/// which must be shard order) into one result document at OUT.
pub fn merge(args: &[String]) -> Result<(), Error> {
    let [out, inputs @ ..] = args else {
        return Err(Error::Usage("--merge needs an output path and at least one input".into()));
    };
    let paths: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let document = merged(&paths)?;
    write(out, &document)?;
    let (_, rows) = read_results(out)?;
    println!("merged {} inputs into {out} ({} result rows)", inputs.len(), rows.len());
    Ok(())
}

/// The shard documents at `paths` as one document. Every input must carry
/// the same grid spec: shards of different grids refuse to merge instead
/// of producing a silently inconsistent artifact.
fn merged(paths: &[&str]) -> Result<JsonValue, Error> {
    let Some((first, rest)) = paths.split_first() else {
        return Err(Error::Usage("--merge needs at least one input document".into()));
    };
    let (spec, mut rows) = read_results(first)?;
    for path in rest {
        let (shard_spec, shard_rows) = read_results(path)?;
        if shard_spec != spec {
            return Err(Error::Failed(format!(
                "{path} holds a different grid spec than {first} — not shards of one grid"
            )));
        }
        rows.extend(shard_rows);
    }
    Ok(JsonValue::object(vec![("spec", spec.to_json_value()), ("results", JsonValue::Array(rows))]))
}

/// A result row without its [`TIMING_FIELDS`]: everything else in a row is
/// deterministic, wall time never is. This is the only field-ignoring rule
/// of `--compare`.
fn without_timing(row: &JsonValue) -> JsonValue {
    match row {
        JsonValue::Object(fields) => JsonValue::Object(
            fields
                .iter()
                .filter(|(key, _)| !TIMING_FIELDS.contains(&key.as_str()))
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// `--compare A B`: fails unless the two documents are equal, section by
/// section, with every `results` row compared through [`without_timing`].
/// CI holds every regenerated document to its committed copy with it, and
/// a merged sharded sweep to the unsharded run.
pub fn compare(args: &[String]) -> Result<(), Error> {
    let [a, b] = args else {
        return Err(Error::Usage("--compare needs exactly two documents".into()));
    };
    let (sections, rows) =
        compare_documents(&read_with(a, JsonValue::parse)?, &read_with(b, JsonValue::parse)?)
            .map_err(|difference| Error::Failed(format!("{a} and {b} differ: {difference}")))?;
    println!(
        "documents match: {sections} sections, {rows} result rows identical \
         (timing fields ignored)"
    );
    Ok(())
}

/// Compares two documents; on a match returns the number of sections and
/// of result rows, otherwise names the first differing section (or row).
fn compare_documents(a: &JsonValue, b: &JsonValue) -> Result<(usize, usize), String> {
    let (JsonValue::Object(a_sections), JsonValue::Object(b_sections)) = (a, b) else {
        return Err("both documents must be JSON objects".into());
    };
    let names = |sections: &[(String, JsonValue)]| -> Vec<String> {
        sections.iter().map(|(name, _)| name.clone()).collect()
    };
    if names(a_sections) != names(b_sections) {
        return Err(format!("sections {:?} against {:?}", names(a_sections), names(b_sections)));
    }
    let mut rows = 0;
    for ((name, a_value), (_, b_value)) in a_sections.iter().zip(b_sections) {
        if name != "results" {
            if a_value != b_value {
                return Err(format!("section '{name}' differs"));
            }
            continue;
        }
        let (Some(a_rows), Some(b_rows)) = (a_value.as_array(), b_value.as_array()) else {
            return Err("section 'results' is not an array".into());
        };
        if a_rows.len() != b_rows.len() {
            return Err(format!("{} result rows against {}", a_rows.len(), b_rows.len()));
        }
        for (index, (a_row, b_row)) in a_rows.iter().zip(b_rows).enumerate() {
            if without_timing(a_row) != without_timing(b_row) {
                let render = |row: &JsonValue| row.render().unwrap_or_else(|e| e.to_string());
                return Err(format!(
                    "result row {index} differs (timing fields ignored):\n  {}\n  {}",
                    render(a_row),
                    render(b_row)
                ));
            }
        }
        rows = a_rows.len();
    }
    Ok((a_sections.len(), rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> JsonValue {
        JsonValue::parse(text).unwrap()
    }

    fn optimal_document(row: &str, availability: u64) -> JsonValue {
        parse(&format!(
            r#"{{"spec": {{"grid": 1}}, "results": [{{"load": "CL 500", "nodes_explored": 5}}, {row}],
                "frontier_root_bounds": [{{"fleet": "3xB1", "availability_steps": {availability}}}]}}"#
        ))
    }

    #[test]
    fn compare_ignores_only_the_timing_fields() {
        let committed =
            optimal_document(r#"{"nodes_explored": 7, "wall_micros": 3, "bound_micros": 9}"#, 1140);
        let rerun = optimal_document(
            r#"{"nodes_explored": 7, "wall_micros": 41, "bound_micros": 2}"#,
            1140,
        );
        assert_eq!(compare_documents(&committed, &rerun), Ok((3, 2)));

        let more_nodes =
            optimal_document(r#"{"nodes_explored": 8, "wall_micros": 3, "bound_micros": 9}"#, 1140);
        let error = compare_documents(&committed, &more_nodes).unwrap_err();
        assert!(error.contains("result row 1 differs"), "{error}");
    }

    #[test]
    fn compare_names_a_differing_section() {
        let row = r#"{"nodes_explored": 7}"#;
        let error = compare_documents(&optimal_document(row, 1140), &optimal_document(row, 1220))
            .unwrap_err();
        assert_eq!(error, "section 'frontier_root_bounds' differs");

        let one_row = parse(r#"{"spec": {"grid": 1}, "results": [{"load": "CL 500"}]}"#);
        let no_rows = parse(r#"{"spec": {"grid": 1}, "results": []}"#);
        assert!(compare_documents(&one_row, &no_rows)
            .unwrap_err()
            .contains("1 result rows against 0"));
        assert!(compare_documents(&one_row, &parse(r#"{"spec": {"grid": 1}}"#))
            .unwrap_err()
            .starts_with("sections"));
    }

    #[test]
    fn merge_refuses_shards_of_different_grids() {
        let dir = std::env::temp_dir().join(format!("scenarios-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let shard = |name: &str, spec: &ScenarioSpec| {
            let path = dir.join(name).to_string_lossy().into_owned();
            let document = JsonValue::object(vec![
                ("spec", spec.to_json_value()),
                ("results", JsonValue::Array(vec![parse(r#"{"load": "CL 500"}"#)])),
            ]);
            std::fs::write(&path, document.render().unwrap()).unwrap();
            path
        };
        let paper = ScenarioSpec::paper_table5();
        let mut other = paper.clone();
        other.battery_counts = vec![3];
        let (a, b, c) = (shard("a.json", &paper), shard("b.json", &paper), shard("c.json", &other));

        let document = merged(&[&a, &b]).unwrap();
        assert_eq!(document.get("results").and_then(JsonValue::as_array).map(<[_]>::len), Some(2));
        let Err(Error::Failed(error)) = merged(&[&a, &c]) else { panic!("merged two grids") };
        assert!(error.contains("different grid spec"), "{error}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
