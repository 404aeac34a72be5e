//! Reading the server's own observability surfaces from outside:
//! Prometheus text from `GET /metrics` (diffed before/after a phase)
//! and the JSON of `GET /debug/explain`.

use std::collections::HashMap;

/// One scrape of `/metrics`: every sample by its series text exactly as
/// exposed, e.g. `stage_service_seconds_sum{stage="header"}`.
#[derive(Debug, Default, Clone)]
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    /// Parses the text exposition format; comment lines and lines that
    /// do not end in a number are skipped.
    pub fn parse(text: &str) -> Scrape {
        let samples = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                Some((series.trim().to_string(), value.parse().ok()?))
            })
            .collect();
        Scrape(samples)
    }

    /// The sample's value; a series the server does not expose reads 0
    /// (the baseline has no header stage, a cache-less server no cache
    /// counters).
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }
}

/// The change of the server's counters over a phase.
#[derive(Debug, Clone)]
pub struct Delta<'a> {
    pub before: &'a Scrape,
    pub after: &'a Scrape,
}

impl Delta<'_> {
    /// `after − before` for one series.
    pub fn of(&self, series: &str) -> f64 {
        self.after.get(series) - self.before.get(series)
    }

    /// Seconds a histogram family accumulated over the phase
    /// (`<family>_sum{<labels>}`).
    pub fn sum(&self, family: &str, labels: &str) -> f64 {
        self.of(&format!("{family}_sum{{{labels}}}"))
    }

    /// Mean seconds per observation over the phase: Δ`_sum` ÷ Δ`_count`,
    /// 0 when nothing was observed.
    pub fn mean(&self, family: &str, labels: &str) -> f64 {
        let count = self.of(&format!("{family}_count{{{labels}}}"));
        if count > 0.0 {
            self.sum(family, labels) / count
        } else {
            0.0
        }
    }
}

/// The text of the JSON array that follows `"key"` — one section of
/// `BENCHMARK.json` (whose strings hold no brackets).
pub fn array_after<'a>(json: &'a str, key: &str) -> &'a str {
    let Some(from) = json.find(&format!("\"{key}\"")) else {
        return "";
    };
    let rest = &json[from..];
    &rest[..rest.find(']').unwrap_or(rest.len())]
}

/// Every number that follows `"key":` in a JSON text, in order. Enough
/// for the flat documents read here (`/debug/explain` plan trees, this
/// benchmark's own result line, `BENCHMARK.json`) without a parser.
pub fn numbers_after(json: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find(&needle) {
        rest = rest[at + needle.len()..].trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(rest.len());
        if let Ok(n) = rest[..end].parse() {
            out.push(n);
        }
    }
    out
}

/// Every string that follows `"key":` in a JSON text, in order (no
/// escapes: route names, node kinds and metric names have none).
pub fn strings_after<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find(&needle) {
        rest = rest[at + needle.len()..].trim_start();
        if let Some(quoted) = rest.strip_prefix('"') {
            if let Some(end) = quoted.find('"') {
                out.push(&quoted[..end]);
            }
        }
    }
    out
}

/// The strings of the JSON array that follows `"key":` — the route list
/// of `GET /debug/explain`.
pub fn string_array<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\":[");
    let Some(at) = json.find(&needle) else {
        return Vec::new();
    };
    let list = &json[at + needle.len()..];
    let list = &list[..list.find(']').unwrap_or(list.len())];
    list.split(',')
        .map(|s| s.trim().trim_matches('"'))
        .filter(|s| !s.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# TYPE stage_service_seconds histogram\n\
        stage_service_seconds_bucket{stage=\"header\",le=\"0.001\"} 4\n\
        stage_service_seconds_sum{stage=\"header\"} 0.5\n\
        stage_service_seconds_count{stage=\"header\"} 10\n\
        requests_completed_total{class=\"static\"} 7\n\
        scheduler_t_spare 3\n";
    const AFTER: &str = "# TYPE stage_service_seconds histogram\n\
        stage_service_seconds_sum{stage=\"header\"} 0.8\n\
        stage_service_seconds_count{stage=\"header\"} 40\n\
        requests_completed_total{class=\"static\"} 19\n\
        doc_cache_hits_total 5\n";

    #[test]
    fn sum_and_count_are_diffed_before_and_after() {
        let (before, after) = (Scrape::parse(BEFORE), Scrape::parse(AFTER));
        assert_eq!(before.get("scheduler_t_spare"), 3.0);
        assert_eq!(
            before.get("stage_service_seconds_bucket{stage=\"header\",le=\"0.001\"}"),
            4.0
        );
        let delta = Delta {
            before: &before,
            after: &after,
        };
        assert_eq!(delta.of("requests_completed_total{class=\"static\"}"), 12.0);
        assert!((delta.sum("stage_service_seconds", "stage=\"header\"") - 0.3).abs() < 1e-12);
        assert!((delta.mean("stage_service_seconds", "stage=\"header\"") - 0.01).abs() < 1e-12);
        // Absent before: counts from zero. Absent in both: zero.
        assert_eq!(delta.of("doc_cache_hits_total"), 5.0);
        assert_eq!(delta.mean("stage_service_seconds", "stage=\"render\""), 0.0);
    }

    #[test]
    fn explain_json_is_scanned_for_rows_nodes_and_routes() {
        let explain = "{\"route\":\"best_sellers\",\"statements\":[{\"sql\":\"SELECT 1\",\
            \"plan\":{\"node\":\"sort\",\"estimated_rows\":50,\"executions\":3,\
            \"rows_total\":120,\"rows_mean\":40,\"time_seconds_total\":0.000120000,\
            \"input\":{\"node\":\"index_range\",\"rows_total\":9000}}},\
            {\"sql\":\"x\",\"plan\":{\"node\":\"legacy_select\"}}]}";
        assert_eq!(numbers_after(explain, "rows_total"), vec![120.0, 9000.0]);
        assert_eq!(
            strings_after(explain, "node"),
            vec!["sort", "index_range", "legacy_select"]
        );
        assert_eq!(
            string_array("{\"routes\":[\"home\",\"new_products\"]}", "routes"),
            vec!["home", "new_products"]
        );
        assert!(string_array("{\"routes\":[]}", "routes").is_empty());
        assert_eq!(
            numbers_after("{\"bound\": 0.25, \"bound\": 1e-2}", "bound"),
            vec![0.25, 0.01]
        );
    }
}
