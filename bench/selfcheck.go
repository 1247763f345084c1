package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// series is one metric's values over the runs of one set.
type series struct {
	Values    []float64 `json:"values"`
	Median    float64   `json:"median"`
	Q1        float64   `json:"q1"`
	Q3        float64   `json:"q3"`
	SpreadPct float64   `json:"spread_pct"`
}

func newSeries(xs []float64) series {
	s := series{Values: xs, Median: median(xs), SpreadPct: spreadPct(xs)}
	if len(xs) >= 2 {
		s.Q1, s.Q3 = quartiles(xs)
	}
	return s
}

// comparison is one metric on one workload across the two sets.
type comparison struct {
	Unit    string    `json:"unit"`
	Bound   float64   `json:"bound,omitempty"`
	Sets    [2]series `json:"sets"`
	DiffPct float64   `json:"diff_pct"`
}

// selfCheck measures every workload in two sets of `runs` runs (seeds
// seed..seed+runs-1, the same in both sets) and fails, naming the metric, if
// the two medians of any end-to-end metric differ by more than its bound or,
// from five runs per set on, if a set's interquartile spread exceeds the
// bound (setup_s excepted: its spread is not part of the acceptance rule).
// With record set it writes every value to that file.
func selfCheck(cfg config, sp *spec, runs int, record string) error {
	if runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	type key struct{ workload, metric string }
	values := map[key]*[2][]float64{}
	units := map[string]string{}
	for set := 0; set < 2; set++ {
		for run := 0; run < runs; run++ {
			for _, name := range workloadNames {
				c := cfg
				c.seed = cfg.seed + int64(run)
				fmt.Printf("# set %d run %d\n", set+1, run+1)
				r, err := runWorkload(c, name)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				if !r.correct {
					return fmt.Errorf("%s: %d failed operations or checks", name, len(r.problems))
				}
				for _, ms := range []map[string]metric{r.endToEnd, r.perLayer} {
					for mn, m := range ms {
						k := key{name, mn}
						if values[k] == nil {
							values[k] = &[2][]float64{}
						}
						values[k][set] = append(values[k][set], m.Value)
						units[mn] = m.Unit
					}
				}
			}
		}
	}

	bounds := map[string]float64{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	out := map[string]map[string]comparison{}
	var broken []string
	fmt.Printf("\n%-16s %-20s %12s %12s %8s %8s %8s\n", "workload", "metric", "median 1", "median 2", "diff %", "spread1%", "spread2%")
	for _, name := range workloadNames {
		out[name] = map[string]comparison{}
		for k, v := range values {
			if k.workload != name {
				continue
			}
			c := comparison{Unit: units[k.metric], Bound: bounds[k.metric], Sets: [2]series{newSeries(v[0]), newSeries(v[1])}}
			if c.Sets[0].Median != 0 {
				c.DiffPct = 100 * (c.Sets[1].Median - c.Sets[0].Median) / c.Sets[0].Median
			}
			out[name][k.metric] = c
		}
		for _, m := range sp.EndToEnd {
			c := out[name][m.Name]
			fmt.Printf("%-16s %-20s %12.4f %12.4f %8.2f %8.2f %8.2f\n", name, m.Name,
				c.Sets[0].Median, c.Sets[1].Median, c.DiffPct, c.Sets[0].SpreadPct, c.Sets[1].SpreadPct)
			if math.Abs(c.DiffPct) > 100*m.Bound {
				broken = append(broken, fmt.Sprintf("%s/%s differs by %.2f%% (bound %.0f%%)", name, m.Name, c.DiffPct, 100*m.Bound))
			}
			for i, set := range c.Sets {
				if runs >= 5 && m.Name != "setup_s" && set.SpreadPct > 100*m.Bound {
					broken = append(broken, fmt.Sprintf("%s/%s spreads by %.2f%% in set %d (bound %.0f%%)", name, m.Name, set.SpreadPct, i+1, 100*m.Bound))
				}
			}
		}
	}

	if record != "" {
		doc := map[string]any{
			"machine": map[string]any{
				"cpu": cpuModel(), "cores": runtime.NumCPU(), "go": runtime.Version(),
				"os": runtime.GOOS, "arch": runtime.GOARCH,
			},
			"commit":       gitCommit(cfg.root),
			"seed":         cfg.seed,
			"runs_per_set": runs,
			"seconds":      cfg.seconds,
			"workloads":    out,
		}
		data, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(record, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(broken) > 0 {
		return fmt.Errorf("selfcheck: %s", strings.Join(broken, "; "))
	}
	fmt.Println("selfcheck: every end-to-end pair agrees within its bound")
	return nil
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
