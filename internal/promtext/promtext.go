// Package promtext writes the Prometheus text exposition format (version
// 0.0.4) by hand — no client library dependency. It backs tranced's
// `GET /metrics?format=prometheus`; tranced's tests hold the strict parser
// that proves the exposition parses cleanly (cmd/tranced/promparse_test.go).
package promtext

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Label is one name="value" pair on a sample.
type Label struct {
	Name, Value string
}

// Sample is one exposition line of a family. Suffix distinguishes histogram
// series ("_bucket", "_sum", "_count"); plain counters and gauges leave it
// empty.
type Sample struct {
	Suffix string
	Labels []Label
	Value  float64
}

// Family is one metric family: a HELP line, a TYPE line, and its samples.
type Family struct {
	Name    string
	Help    string
	Type    string // "counter", "gauge" or "histogram"
	Samples []Sample
}

// Write renders the families in order. Families render deterministically:
// samples keep their given order.
func Write(w io.Writer, fams []Family) error {
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, escapeHelp(f.Help), f.Name, f.Type); err != nil {
			return err
		}
		for _, s := range f.Samples {
			if _, err := io.WriteString(w, f.Name+s.Suffix+formatLabels(s.Labels)+" "+formatValue(s.Value)+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatLabels(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// HistogramSamples renders one histogram series: counts[i] observations fell
// in (bounds[i-1], bounds[i]], overflow above the last bound. Buckets are
// emitted cumulatively with a trailing +Inf bucket, followed by _sum and
// _count, all carrying the given base labels.
func HistogramSamples(labels []Label, bounds []float64, counts []int64, overflow int64, sum float64) []Sample {
	out := make([]Sample, 0, len(bounds)+3)
	var cum int64
	for i, b := range bounds {
		cum += counts[i]
		le := append(append([]Label(nil), labels...), Label{Name: "le", Value: formatValue(b)})
		out = append(out, Sample{Suffix: "_bucket", Labels: le, Value: float64(cum)})
	}
	cum += overflow
	inf := append(append([]Label(nil), labels...), Label{Name: "le", Value: "+Inf"})
	out = append(out,
		Sample{Suffix: "_bucket", Labels: inf, Value: float64(cum)},
		Sample{Suffix: "_sum", Labels: labels, Value: sum},
		Sample{Suffix: "_count", Labels: labels, Value: float64(cum)},
	)
	return out
}
