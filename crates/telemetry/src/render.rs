//! A `top`-style terminal renderer for live registry snapshots.
//!
//! [`render_dashboard`] formats one snapshot as a fixed-width panel —
//! counters with rates over the uptime window, histograms with
//! count/mean/p50/p99 — and [`cursor_home`] yields the ANSI prefix a
//! polling loop prints before each frame so the panel redraws in place.
//! The loadgen's `--top` mode polls the service's unified snapshot through
//! this renderer; plain strings in, plain strings out, so tests can pin the
//! layout without a terminal.

use crate::registry::RegistrySnapshot;

/// ANSI: cursor to top-left + clear to end of screen (redraw in place).
pub fn cursor_home() -> &'static str {
    "\x1b[H\x1b[J"
}

fn format_rate(value: u64, secs: f64) -> String {
    if secs <= 0.0 {
        return "-".to_string();
    }
    let rate = value as f64 / secs;
    if rate >= 1e6 {
        format!("{:.2}M/s", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k/s", rate / 1e3)
    } else {
        format!("{rate:.1}/s")
    }
}

fn format_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.2}s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.2}ms", us / 1e3)
    } else {
        format!("{us:.0}µs")
    }
}

/// Renders one snapshot as a multi-line dashboard panel titled `title`.
pub fn render_dashboard(snapshot: &RegistrySnapshot, title: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== {title} — up {:.1}s ===\n",
        snapshot.uptime_secs
    ));
    if snapshot.is_empty() {
        out.push_str("(no metrics registered)\n");
        return out;
    }
    if !snapshot.counters.is_empty() {
        out.push_str(&format!(
            "{:<44} {:>14} {:>10}\n",
            "counter", "total", "rate"
        ));
        for (name, value) in &snapshot.counters {
            out.push_str(&format!(
                "{name:<44} {value:>14} {:>10}\n",
                format_rate(*value, snapshot.uptime_secs)
            ));
        }
    }
    if !snapshot.gauges.is_empty() {
        out.push_str(&format!("{:<44} {:>14}\n", "gauge", "value"));
        for (name, value) in &snapshot.gauges {
            out.push_str(&format!("{name:<44} {value:>14}\n"));
        }
    }
    if !snapshot.histograms.is_empty() {
        out.push_str(&format!(
            "{:<44} {:>10} {:>9} {:>9} {:>9}\n",
            "histogram", "count", "mean", "p50", "p99"
        ));
        for (name, hist) in &snapshot.histograms {
            out.push_str(&format!(
                "{name:<44} {:>10} {:>9} {:>9} {:>9}\n",
                hist.count,
                format_us(hist.mean()),
                format_us(hist.quantile(0.50)),
                format_us(hist.quantile(0.99)),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn dashboard_lists_every_metric_kind() {
        let registry = Registry::default();
        registry.counter("service.frames_completed").add(4096);
        registry.gauge("service.queue_depth").set(12);
        registry
            .histogram("service.stage.decode_us")
            .record_n(200, 64);
        let panel = render_dashboard(&registry.snapshot(), "loadgen");
        assert!(panel.contains("=== loadgen"));
        assert!(panel.contains("service.frames_completed"));
        assert!(panel.contains("4096"));
        assert!(panel.contains("service.queue_depth"));
        assert!(panel.contains("service.stage.decode_us"));
    }

    #[test]
    fn disabled_snapshot_renders_a_placeholder() {
        let panel = render_dashboard(&RegistrySnapshot::default(), "x");
        assert!(panel.contains("no metrics registered"));
    }
}
