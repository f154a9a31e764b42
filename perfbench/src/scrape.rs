//! Readers for the server's own telemetry: the `x-bbs-trace` response
//! header, `GET /stats` JSON and `GET /metrics` Prometheus text.

use bbs_json::Json;
use std::collections::BTreeMap;

/// The stage timings one `x-bbs-trace` header carries (all µs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Trace {
    pub parse_us: u64,
    pub queue_us: u64,
    pub lower_us: u64,
    pub sim_us: u64,
    pub ser_us: u64,
    pub park_us: u64,
    pub total_us: u64,
}

/// Parses `id=..;served=..;parse_us=..;..;total_us=..`. Unknown keys are
/// skipped; a header without `total_us` is not a stage trace.
pub fn parse_trace(header: &str) -> Option<Trace> {
    let mut t = Trace::default();
    let mut has_total = false;
    for part in header.split(';') {
        let (k, v) = part.split_once('=')?;
        let slot = match k.trim() {
            "parse_us" => &mut t.parse_us,
            "queue_us" => &mut t.queue_us,
            "lower_us" => &mut t.lower_us,
            "sim_us" => &mut t.sim_us,
            "ser_us" => &mut t.ser_us,
            "park_us" => &mut t.park_us,
            "total_us" => {
                has_total = true;
                &mut t.total_us
            }
            _ => continue,
        };
        *slot = v.trim().parse().ok()?;
    }
    has_total.then_some(t)
}

/// One `/metrics` scrape: every sample line keyed by its full series name
/// (`name{label="v"}`).
#[derive(Debug, Clone, Default)]
pub struct Prom(BTreeMap<String, f64>);

impl Prom {
    /// Parses Prometheus text exposition (comments skipped).
    pub fn parse(text: &str) -> Prom {
        Prom(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (series, value) = l.rsplit_once(' ')?;
                    Some((series.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    /// One series' value (0 when absent: counters start at zero).
    pub fn value(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }
}

/// What a histogram recorded between two scrapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistDelta {
    /// Sum of the new samples, in the exposition's unit (seconds).
    pub sum: f64,
    /// Number of new samples.
    pub count: f64,
}

impl HistDelta {
    /// Between `before` and `after` for histogram family `name`.
    pub fn between(before: &Prom, after: &Prom, name: &str) -> HistDelta {
        let d = |suffix: &str| {
            let series = format!("{name}_{suffix}");
            after.value(&series) - before.value(&series)
        };
        HistDelta {
            sum: d("sum"),
            count: d("count"),
        }
    }

    /// Mean of the new samples scaled by `scale` (e.g. `1e6` for µs), or 0
    /// when nothing was recorded.
    pub fn mean(&self, scale: f64) -> f64 {
        if self.count > 0.0 {
            self.sum * scale / self.count
        } else {
            0.0
        }
    }
}

/// A numeric `/stats` field addressed by a dotted path (`a.b.c`); array
/// elements are addressed by index. 0 when absent.
pub fn stat(v: &Json, path: &str) -> f64 {
    path.split('.')
        .try_fold(v, |node, key| match key.parse::<usize>() {
            Ok(i) => node.as_arr()?.get(i),
            Err(_) => node.get(key),
        })
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_header_round_trips_every_stage() {
        let t = parse_trace(
            "id=00000000deadbeef;served=cache;parse_us=1;queue_us=2;lower_us=3;\
             sim_us=4;ser_us=5;park_us=6;total_us=270",
        )
        .unwrap();
        assert_eq!(
            t,
            Trace {
                parse_us: 1,
                queue_us: 2,
                lower_us: 3,
                sim_us: 4,
                ser_us: 5,
                park_us: 6,
                total_us: 270,
            }
        );
        // A sweep stream's header carries only the id.
        assert_eq!(parse_trace("id=00000000deadbeef"), None);
        assert_eq!(parse_trace("total_us=abc"), None);
        assert_eq!(parse_trace("garbage"), None);
    }

    const BEFORE: &str = "# HELP bbs_stage_total_seconds x\n\
        # TYPE bbs_stage_total_seconds histogram\n\
        bbs_stage_total_seconds_bucket{le=\"0.000255\"} 3\n\
        bbs_stage_total_seconds_bucket{le=\"+Inf\"} 4\n\
        bbs_stage_total_seconds_sum 0.001\n\
        bbs_stage_total_seconds_count 4\n\
        bbs_coord_cells_routed_total{shard=\"127.0.0.1:1\"} 10\n";
    const AFTER: &str = "bbs_stage_total_seconds_sum 0.0031\n\
        bbs_stage_total_seconds_count 10\n";

    #[test]
    fn histogram_delta_between_two_scrapes() {
        let (before, after) = (Prom::parse(BEFORE), Prom::parse(AFTER));
        let d = HistDelta::between(&before, &after, "bbs_stage_total_seconds");
        assert!((d.sum - 0.0021).abs() < 1e-12, "{d:?}");
        assert_eq!(d.count, 6.0);
        assert!((d.mean(1e6) - 350.0).abs() < 1e-6);
        let none = HistDelta::between(&after, &after, "bbs_stage_total_seconds");
        assert_eq!(none.mean(1e6), 0.0);
        // A family that never appeared reads as an empty delta.
        let absent = HistDelta::between(&before, &after, "bbs_nope_seconds");
        assert_eq!((absent.sum, absent.count), (0.0, 0.0));
        // Labelled series keep their labels in the key.
        assert_eq!(
            before.value("bbs_coord_cells_routed_total{shard=\"127.0.0.1:1\"}"),
            10.0
        );
    }

    #[test]
    fn stats_paths_reach_nested_fields() {
        let v = Json::parse(
            "{\"sim_runs\":5,\"coordinator\":{\"shards\":[{\"routed\":3},{\"routed\":4}]}}",
        )
        .unwrap();
        assert_eq!(stat(&v, "sim_runs"), 5.0);
        assert_eq!(stat(&v, "coordinator.shards.1.routed"), 4.0);
        assert_eq!(stat(&v, "coordinator.shards.2.routed"), 0.0);
        assert_eq!(stat(&v, "nope"), 0.0);
    }
}
