//! `BENCHMARK.json` as the single source of metric names, units, directions
//! and bounds: the binary emits exactly the names listed there, with the
//! units listed there, and fails if the two ever disagree.

use crate::json::{self, Json};
use std::path::Path;

pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by. End-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

pub struct Manifest {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Manifest {
    pub fn load(root: &Path) -> Result<Manifest, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json: no list `{key}`"))
        };
        let field = |m: &Json, key: &str| {
            m.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let def = MetricDef {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        higher_is_better: field(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    };
                    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
                    if def.name.is_empty() || !def.name.chars().all(ok) || def.unit.is_empty() {
                        return Err(format!("BENCHMARK.json: bad metric entry `{}`", def.name));
                    }
                    Ok(def)
                })
                .collect()
        };
        Ok(Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no `run_seconds`")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Pair measured values with the manifest's units, requiring every
    /// listed name exactly once, nothing unlisted, and finite numbers.
    pub fn metrics_json(defs: &[MetricDef], values: &[(&str, f64)]) -> Result<Json, String> {
        for (name, _) in values {
            if !defs.iter().any(|d| d.name == *name) {
                return Err(format!("metric `{name}` is not in BENCHMARK.json"));
            }
        }
        let mut out = Vec::new();
        for d in defs {
            let mut found = values.iter().filter(|(n, _)| *n == d.name);
            let value = match (found.next(), found.next()) {
                (Some((_, v)), None) => *v,
                (None, _) => return Err(format!("metric `{}` was not measured", d.name)),
                _ => return Err(format!("metric `{}` was measured twice", d.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric `{}` is not finite", d.name));
            }
            out.push((
                d.name.clone(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(&d.unit))]),
            ));
        }
        Ok(Json::Obj(out))
    }
}
