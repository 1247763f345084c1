package promtext

import (
	"strings"
	"testing"
)

// series reads an exposition's sample lines back: each series as written —
// name and escaped labels — to its value. The strict parser proving a whole
// scrape well-formed lives with tranced's tests (cmd/tranced).
func series(text string) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if i := strings.LastIndexByte(line, ' '); !strings.HasPrefix(line, "#") && i > 0 {
			out[line[:i]] = line[i+1:]
		}
	}
	return out
}

func write(t *testing.T, fams []Family) string {
	t.Helper()
	var sb strings.Builder
	if err := Write(&sb, fams); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestWriteAndParseRoundTrip(t *testing.T) {
	text := write(t, []Family{
		{Name: "up_seconds", Help: "Uptime.", Type: "gauge", Samples: []Sample{{Value: 12.5}}},
		{Name: "reqs_total", Help: "Requests.", Type: "counter", Samples: []Sample{
			{Labels: []Label{{Name: "route", Value: "a/L0/standard"}}, Value: 3},
			{Labels: []Label{{Name: "route", Value: "b/L1/shred"}}, Value: 7},
		}},
	})
	if !strings.HasPrefix(text, "# HELP up_seconds Uptime.\n# TYPE up_seconds gauge\nup_seconds 12.5\n# HELP reqs_total Requests.\n# TYPE reqs_total counter\n") {
		t.Fatalf("declarations out of place:\n%s", text)
	}
	got := series(text)
	if got["up_seconds"] != "12.5" || got[`reqs_total{route="a/L0/standard"}`] != "3" || got[`reqs_total{route="b/L1/shred"}`] != "7" || len(got) != 3 {
		t.Fatalf("samples read back as %v from\n%s", got, text)
	}
}

func TestLabelEscaping(t *testing.T) {
	text := write(t, []Family{{Name: "m", Help: "H.", Type: "gauge", Samples: []Sample{
		{Labels: []Label{{Name: "k", Value: `a\b"c` + "\nd"}}, Value: 1},
	}}})
	if got := series(text); got[`m{k="a\\b\"c\nd"}`] != "1" {
		t.Fatalf("escaped label read back as %v from\n%s", got, text)
	}
}

func TestHistogramSamples(t *testing.T) {
	bounds := []float64{0.1, 1, 10}
	counts := []int64{2, 3, 0}
	samples := HistogramSamples([]Label{{Name: "route", Value: "r"}}, bounds, counts, 1, 4.2)
	text := write(t, []Family{{Name: "lat_seconds", Help: "Latency.", Type: "histogram", Samples: samples}})
	got := series(text)
	for s, want := range map[string]string{
		`lat_seconds_bucket{route="r",le="0.1"}`:  "2",
		`lat_seconds_bucket{route="r",le="1"}`:    "5",
		`lat_seconds_bucket{route="r",le="10"}`:   "5",
		`lat_seconds_bucket{route="r",le="+Inf"}`: "6",
		`lat_seconds_sum{route="r"}`:              "4.2",
		`lat_seconds_count{route="r"}`:            "6",
	} {
		if got[s] != want {
			t.Errorf("%s = %q, want %s", s, got[s], want)
		}
	}
	if len(got) != 6 {
		t.Fatalf("%d series from\n%s", len(got), text)
	}
}
