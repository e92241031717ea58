//! `--compare a.json b.json`: is `b` worse than `a` by more than the
//! bounds `BENCHMARK.json` fixes?
//!
//! The inputs are two `result.json` files as a full run writes them.
//! Every end-to-end metric × workload is held to its bound; per-layer
//! metrics marked exact, and the simulated-statistics digest, must be
//! identical. A workload whose op quartile spread exceeds 10% of its
//! median is printed as `noisy`: its row is a reading, not a verdict.

use crate::json::Json;
use crate::spec::PER_LAYER;

const NOISY_SPREAD: f64 = 0.10;

struct Bound {
    name: String,
    better_lower: bool,
    bound: f64,
}

fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not text")?
                    .to_string(),
                better_lower: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

fn metric<'a>(run: &'a Json, section: &str, name: &str) -> Option<&'a Json> {
    run.get(section)?.get("metrics")?.get(name)
}

fn value(run: &Json, section: &str, name: &str) -> Option<f64> {
    metric(run, section, name)?.get("value")?.as_f64()
}

/// Quartile distance of a median metric as a share of its value.
fn spread(run: &Json, name: &str) -> Option<f64> {
    let m = metric(run, "untraced", name)?;
    let v = m.get("value")?.as_f64()?;
    Some((m.get("q3")?.as_f64()? - m.get("q1")?.as_f64()?) / v)
}

/// Returns the report text and whether `b` stayed within every bound.
pub fn compare(benchmark: &Json, a: &Json, b: &Json) -> Result<(String, bool), String> {
    let bounds = bounds(benchmark)?;
    let wa = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first file has no workloads")?;
    let wb = b
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("second file has no workloads")?;
    let mut out = String::new();
    let mut ok = true;
    for (name, ra) in wa {
        let Some(rb) = wb.get(name) else {
            out.push_str(&format!("{name}: missing from the second file\n"));
            ok = false;
            continue;
        };
        let noisy = [ra, rb]
            .iter()
            .filter_map(|r| spread(r, "op_cal_p50"))
            .any(|s| s > NOISY_SPREAD);
        out.push_str(&format!(
            "{name}{}\n",
            if noisy {
                "  [noisy: op quartile spread > 10% of the median]"
            } else {
                ""
            }
        ));
        for bd in &bounds {
            let (Some(va), Some(vb)) = (
                value(ra, "untraced", &bd.name),
                value(rb, "untraced", &bd.name),
            ) else {
                out.push_str(&format!("  {:<14} missing\n", bd.name));
                ok = false;
                continue;
            };
            // Positive = worse, as a share of the first file's value.
            let worse = if bd.better_lower {
                (vb - va) / va
            } else {
                (va - vb) / va
            };
            let past = worse > bd.bound;
            ok &= !past;
            out.push_str(&format!(
                "  {:<14} {:>14.6} -> {:>14.6}  {:+7.2}% (bound {:.1}%){}\n",
                bd.name,
                va,
                vb,
                worse * 100.0,
                bd.bound * 100.0,
                if past { "  PAST BOUND" } else { "" }
            ));
        }
        for section in ["untraced", "traced"] {
            let digest = |r: &Json| {
                r.get(section)
                    .and_then(|s| s.get("sim_digest"))
                    .and_then(Json::as_str)
                    .map(str::to_string)
            };
            for r in [ra, rb] {
                if r.get(section).and_then(|s| s.get("correct")) != Some(&Json::Bool(true)) {
                    out.push_str(&format!("  {section}: a run was not correct\n"));
                    ok = false;
                }
            }
            if digest(ra) != digest(rb) {
                out.push_str(&format!(
                    "  {section} sim_digest {:?} != {:?}: simulated statistics moved\n",
                    digest(ra),
                    digest(rb)
                ));
                ok = false;
            }
        }
        for d in PER_LAYER.iter().filter(|d| d.exact) {
            let (va, vb) = (value(ra, "traced", d.name), value(rb, "traced", d.name));
            if va != vb {
                out.push_str(&format!(
                    "  {:<26} {va:?} != {vb:?}  EXACT COUNT MOVED\n",
                    d.name
                ));
                ok = false;
            }
        }
    }
    for name in wb.keys().filter(|k| !wa.contains_key(*k)) {
        out.push_str(&format!("{name}: missing from the first file\n"));
        ok = false;
    }
    out.push_str(if ok {
        "within bounds\n"
    } else {
        "NOT within bounds\n"
    });
    Ok((out, ok))
}
