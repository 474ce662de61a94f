//! Hand-rolled SVG chart rendering: a line chart (serving sweeps) and
//! a bar chart (figure tables, A/B ratios), std only.
//!
//! The committed `docs/bench/*.svg` artifacts must be **byte-identical
//! on regeneration** (the golden test diffs them), so everything here
//! is a pure function of its inputs: fixed canvas geometry, a fixed
//! palette, fixed-precision coordinate formatting, and no timestamps,
//! randomness, or map-iteration order anywhere.

/// Fixed series palette (cycled when a chart has more series).
const PALETTE: [&str; 10] = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
    "#bcbd22", "#17becf",
];

const MARGIN_LEFT: f64 = 70.0;
const MARGIN_TOP: f64 = 42.0;
const MARGIN_BOTTOM: f64 = 58.0;
const PLOT_H: f64 = 300.0;
const LEGEND_W: f64 = 150.0;

/// One named line on a [`line_chart`]. `values[i]` pairs with
/// `x_labels[i]`; a `NaN` marks a gap (the line breaks around it).
pub struct Series {
    /// Legend name.
    pub name: String,
    /// One value per x label; `NaN` for "no data at this x".
    pub values: Vec<f64>,
}

/// Renders a categorical-x line chart (one point per label per
/// series), y-axis from zero with auto "nice" ticks.
pub fn line_chart(title: &str, y_label: &str, x_labels: &[String], series: &[Series]) -> String {
    let slot = 90.0_f64;
    let plot_w = (slot * x_labels.len() as f64).max(420.0);
    let width = MARGIN_LEFT + plot_w + 16.0 + LEGEND_W;
    let height = MARGIN_TOP + PLOT_H + MARGIN_BOTTOM;
    let max = series
        .iter()
        .flat_map(|s| s.values.iter().copied())
        .filter(|v| v.is_finite())
        .fold(0.0_f64, f64::max);
    let (step, top) = nice_scale(max);

    let mut out = svg_open(width, height, title);
    axes_and_grid(&mut out, plot_w, step, top, y_label);
    x_category_labels(&mut out, plot_w, x_labels);

    let x_at = |i: usize| MARGIN_LEFT + plot_w * (i as f64 + 0.5) / x_labels.len() as f64;
    let y_at = |v: f64| MARGIN_TOP + PLOT_H * (1.0 - v / top);
    for (si, s) in series.iter().enumerate() {
        let color = PALETTE[si % PALETTE.len()];
        // Break the polyline at NaN gaps: emit one <polyline> per run
        // of finite points, plus a marker dot per point.
        let mut run: Vec<String> = Vec::new();
        let flush = |run: &mut Vec<String>, out: &mut String| {
            if run.len() > 1 {
                out.push_str(&format!(
                    "  <polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"2\" points=\"{}\"/>\n",
                    run.join(" ")
                ));
            }
            run.clear();
        };
        for (i, v) in s.values.iter().enumerate() {
            if v.is_finite() {
                let (x, y) = (x_at(i), y_at(*v));
                run.push(format!("{},{}", fmt2(x), fmt2(y)));
                out.push_str(&format!(
                    "  <circle cx=\"{}\" cy=\"{}\" r=\"3\" fill=\"{color}\"/>\n",
                    fmt2(x),
                    fmt2(y)
                ));
            } else {
                flush(&mut run, &mut out);
            }
        }
        flush(&mut run, &mut out);
        // Legend entry.
        let ly = MARGIN_TOP + 8.0 + 18.0 * si as f64;
        let lx = MARGIN_LEFT + plot_w + 16.0;
        out.push_str(&format!(
            "  <line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"{color}\" stroke-width=\"2\"/>\n",
            fmt2(lx),
            fmt2(ly),
            fmt2(lx + 18.0),
            fmt2(ly)
        ));
        out.push_str(&format!(
            "  <text x=\"{}\" y=\"{}\" font-size=\"11\" fill=\"#333\">{}</text>\n",
            fmt2(lx + 24.0),
            fmt2(ly + 4.0),
            esc(&s.name)
        ));
    }
    out.push_str("</svg>\n");
    out
}

/// Renders a single-series bar chart, y-axis from zero, with the value
/// printed above each bar and, where `whiskers` has a `[lo, hi]` for
/// the bar, a vertical line from `lo` to `hi`.
pub fn bar_chart(
    title: &str,
    y_label: &str,
    labels: &[String],
    values: &[f64],
    whiskers: &[[f64; 2]],
) -> String {
    let slot = 80.0_f64;
    let plot_w = (slot * labels.len() as f64).max(420.0);
    let width = MARGIN_LEFT + plot_w + 24.0;
    let height = MARGIN_TOP + PLOT_H + MARGIN_BOTTOM;
    let max = values
        .iter()
        .chain(whiskers.iter().flatten())
        .copied()
        .filter(|v| v.is_finite())
        .fold(0.0_f64, f64::max);
    let (step, top) = nice_scale(max);

    let mut out = svg_open(width, height, title);
    axes_and_grid(&mut out, plot_w, step, top, y_label);
    x_category_labels(&mut out, plot_w, labels);

    let y_at = |v: f64| MARGIN_TOP + PLOT_H * (1.0 - v / top);
    let slot_w = plot_w / labels.len() as f64;
    let bar_w = slot_w * 0.6;
    for (i, v) in values.iter().enumerate() {
        if !v.is_finite() {
            continue;
        }
        let x = MARGIN_LEFT + slot_w * (i as f64 + 0.5) - bar_w / 2.0;
        let y = y_at(*v);
        let color = PALETTE[i % PALETTE.len()];
        out.push_str(&format!(
            "  <rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" fill=\"{color}\" fill-opacity=\"0.85\"/>\n",
            fmt2(x),
            fmt2(y),
            fmt2(bar_w),
            fmt2(MARGIN_TOP + PLOT_H - y)
        ));
        let mut text_y = y;
        if let Some(&[lo, hi]) = whiskers.get(i) {
            text_y = text_y.min(y_at(hi));
            out.push_str(&format!(
                "  <line x1=\"{x}\" y1=\"{}\" x2=\"{x}\" y2=\"{}\" stroke=\"#333\" stroke-width=\"2\"/>\n",
                fmt2(y_at(lo)),
                fmt2(y_at(hi)),
                x = fmt2(x + bar_w / 2.0)
            ));
        }
        out.push_str(&format!(
            "  <text x=\"{}\" y=\"{}\" font-size=\"10\" fill=\"#333\" text-anchor=\"middle\">{}</text>\n",
            fmt2(x + bar_w / 2.0),
            fmt2(text_y - 5.0),
            fmt2(*v)
        ));
    }
    out.push_str("</svg>\n");
    out
}

/// Document header, white background, and centered title.
fn svg_open(width: f64, height: f64, title: &str) -> String {
    let mut out = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\" font-family=\"Menlo, Consolas, monospace\">\n",
        w = fmt2(width),
        h = fmt2(height)
    );
    out.push_str(&format!(
        "  <rect x=\"0\" y=\"0\" width=\"{}\" height=\"{}\" fill=\"#ffffff\"/>\n",
        fmt2(width),
        fmt2(height)
    ));
    out.push_str(&format!(
        "  <text x=\"{}\" y=\"24\" font-size=\"14\" fill=\"#111\" text-anchor=\"middle\">{}</text>\n",
        fmt2(width / 2.0),
        esc(title)
    ));
    out
}

/// Y grid lines, tick labels, axis lines, and the rotated y-axis name.
fn axes_and_grid(out: &mut String, plot_w: f64, step: f64, top: f64, y_label: &str) {
    let decimals = if step >= 1.0 {
        0
    } else {
        (-step.log10().floor()) as usize
    };
    let mut tick = 0.0;
    while tick <= top + step * 1e-9 {
        let y = MARGIN_TOP + PLOT_H * (1.0 - tick / top);
        out.push_str(&format!(
            "  <line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"#dddddd\" stroke-width=\"1\"/>\n",
            fmt2(MARGIN_LEFT),
            fmt2(y),
            fmt2(MARGIN_LEFT + plot_w),
            fmt2(y)
        ));
        out.push_str(&format!(
            "  <text x=\"{}\" y=\"{}\" font-size=\"11\" fill=\"#333\" text-anchor=\"end\">{:.*}</text>\n",
            fmt2(MARGIN_LEFT - 8.0),
            fmt2(y + 4.0),
            decimals,
            tick
        ));
        tick += step;
    }
    out.push_str(&format!(
        "  <line x1=\"{l}\" y1=\"{t}\" x2=\"{l}\" y2=\"{b}\" stroke=\"#333\" stroke-width=\"1\"/>\n",
        l = fmt2(MARGIN_LEFT),
        t = fmt2(MARGIN_TOP),
        b = fmt2(MARGIN_TOP + PLOT_H)
    ));
    out.push_str(&format!(
        "  <line x1=\"{l}\" y1=\"{b}\" x2=\"{r}\" y2=\"{b}\" stroke=\"#333\" stroke-width=\"1\"/>\n",
        l = fmt2(MARGIN_LEFT),
        r = fmt2(MARGIN_LEFT + plot_w),
        b = fmt2(MARGIN_TOP + PLOT_H)
    ));
    out.push_str(&format!(
        "  <text x=\"16\" y=\"{y}\" font-size=\"11\" fill=\"#333\" text-anchor=\"middle\" transform=\"rotate(-90 16 {y})\">{}</text>\n",
        esc(y_label),
        y = fmt2(MARGIN_TOP + PLOT_H / 2.0)
    ));
}

/// Rotated category labels under the x axis.
fn x_category_labels(out: &mut String, plot_w: f64, labels: &[String]) {
    for (i, label) in labels.iter().enumerate() {
        let x = MARGIN_LEFT + plot_w * (i as f64 + 0.5) / labels.len() as f64;
        let y = MARGIN_TOP + PLOT_H + 16.0;
        out.push_str(&format!(
            "  <text x=\"{x}\" y=\"{y}\" font-size=\"11\" fill=\"#333\" text-anchor=\"end\" transform=\"rotate(-30 {x} {y})\">{}</text>\n",
            esc(label),
            x = fmt2(x),
            y = fmt2(y)
        ));
    }
}

/// "Nice" y scale: a {1,2,5}×10^k tick step giving roughly five
/// intervals, and the axis top rounded up to a tick multiple.
fn nice_scale(max: f64) -> (f64, f64) {
    if !max.is_finite() || max <= 0.0 {
        return (0.2, 1.0);
    }
    let raw = max / 5.0;
    let mag = 10f64.powf(raw.log10().floor());
    let norm = raw / mag;
    let step = if norm <= 1.0 {
        mag
    } else if norm <= 2.0 {
        2.0 * mag
    } else if norm <= 5.0 {
        5.0 * mag
    } else {
        10.0 * mag
    };
    (step, step * (max / step).ceil())
}

/// Fixed two-decimal coordinate formatting (the determinism contract).
fn fmt2(v: f64) -> String {
    format!("{v:.2}")
}

/// Minimal XML escaping for labels and titles.
fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nice_scale_picks_1_2_5_steps() {
        let (s, t) = nice_scale(9.4);
        assert_eq!((s, t), (2.0, 10.0));
        let (s, t) = nice_scale(0.83);
        assert_eq!((s, t), (0.2, 1.0));
        let (s, t) = nice_scale(104.0);
        assert_eq!((s, t), (50.0, 150.0));
        // Degenerate inputs fall back to a unit axis.
        assert_eq!(nice_scale(0.0), (0.2, 1.0));
        assert_eq!(nice_scale(f64::NAN), (0.2, 1.0));
    }

    #[test]
    fn charts_are_deterministic_and_well_formed() {
        let labels = vec!["e49a82c".to_string(), "47c11f1".to_string()];
        let series = [
            Series {
                name: "Pipm".to_string(),
                values: vec![9.4, 8.7],
            },
            Series {
                name: "Native <&>".to_string(),
                values: vec![8.9, f64::NAN],
            },
        ];
        let a = line_chart("trend", "Mrefs/s", &labels, &series);
        let b = line_chart("trend", "Mrefs/s", &labels, &series);
        assert_eq!(a, b, "same input must render the same bytes");
        assert!(a.starts_with("<svg ") && a.ends_with("</svg>\n"));
        assert!(a.contains("Native &lt;&amp;&gt;"), "labels must be escaped");
        // The NaN gap must suppress the second point's polyline but
        // keep the first point's marker.
        assert_eq!(a.matches("<polyline").count(), 1);

        let bars = bar_chart("latest", "Mrefs/s", &labels, &[5.2, 9.4], &[[4.0, 12.5]]);
        assert!(bars.contains("<rect") && bars.contains("9.40"));
        // One whisker, for the first bar; its top sets the axis (0..15).
        assert_eq!(bars.matches("stroke-width=\"2\"").count(), 1);
        assert!(bars.contains(">15</text>"));
    }
}
