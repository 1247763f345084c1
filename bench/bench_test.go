package main

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// kindSequence flattens one round into the request kinds in issue order and
// the request texts (path and body) in issue order.
func kindSequence(lists [][]op) (kinds []int, texts []string) {
	for _, l := range lists {
		for _, o := range l {
			kinds = append(kinds, o.kind)
			texts = append(texts, o.path+"\n"+o.body)
		}
	}
	return kinds, texts
}

func countKinds(kinds []int, n int) []int {
	c := make([]int, n)
	for _, k := range kinds {
		c[k]++
	}
	return c
}

// TestSmoke runs every workload at -quick size against a real tranced and
// checks what the benchmark contract and later comparisons rely on: every
// metric BENCHMARK.json names is emitted with its unit, names stay within
// the contract's alphabet, and counts repeat exactly for one seed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches cmd/tranced")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !nameOK.MatchString(m.Name) {
			t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(sp.Workloads), len(workloadNames))
	}

	cfg := config{
		root: root, build: filepath.Join(root, ".bench_build"), out: filepath.Join(root, "bench", "out"),
		seed: 1, seconds: sp.RunSeconds, quick: true,
	}
	for i, name := range workloadNames {
		if sp.Workloads[i].Name != name {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q", i, sp.Workloads[i].Name, name)
		}
		t.Run(name, func(t *testing.T) {
			wa, err := newWorkload(name, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			traced := cfg
			traced.trace = true
			r1, err := measure(traced, wa)
			if err != nil {
				t.Fatal(err)
			}
			if !r1.correct {
				t.Fatalf("run is not correct: %v", r1.problems)
			}
			for _, trace := range []bool{false, true} {
				line, err := resultLine(sp, []*result{r1}, trace)
				if err != nil {
					t.Fatal(err)
				}
				var got map[string]json.RawMessage
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatal(err)
				}
				if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
					t.Errorf("result line has keys %v", reflect.ValueOf(got).MapKeys())
				}
			}

			// Another seed: other requests, the same number of each kind.
			wb, err := newWorkload(name, 2, true)
			if err != nil {
				t.Fatal(err)
			}
			const cycles = 6
			ka, ta := kindSequence(wa.round(cycles))
			kb, tb := kindSequence(wb.round(cycles))
			if !reflect.DeepEqual(countKinds(ka, len(wa.kinds)), countKinds(kb, len(wb.kinds))) {
				t.Errorf("per-kind counts differ between seeds: %v and %v", ka, kb)
			}
			if reflect.DeepEqual(ta, tb) {
				t.Errorf("seeds 1 and 2 issue identical requests in identical order")
			}

			// The same seed again: counts and shuffled bytes repeat exactly.
			r2, err := measure(cfg, wa)
			if err != nil {
				t.Fatal(err)
			}
			if r1.attempted != r2.attempted || r1.failed != r2.failed || !reflect.DeepEqual(r1.kindOps, r2.kindOps) {
				t.Errorf("op counts differ between two runs of seed 1: %d/%d %v and %d/%d %v",
					r1.attempted, r1.failed, r1.kindOps, r2.attempted, r2.failed, r2.kindOps)
			}
			if a, b := r1.endToEnd["shuffle_kib_per_op"], r2.endToEnd["shuffle_kib_per_op"]; a != b || a.Value == 0 {
				t.Errorf("shuffle_kib_per_op is %v then %v; want equal and not 0", a, b)
			}
		})
	}
}

// TestSelfTimesCountEveryRequest: a span that only some requests of a kind
// open (a parse that a cache hit skips) must weigh in that kind's median as
// 0 for the others, not be a median over the requests that opened it.
func TestSelfTimesCountEveryRequest(t *testing.T) {
	tr := newTracer()
	for i := 0; i < 3; i++ {
		req := tr.request("lookup")
		if i == 0 {
			sp := tr.begin(req, "parse")
			time.Sleep(time.Millisecond)
			tr.close(sp)
		}
		tr.close(req)
	}
	parse := tr.selfTimes()["lookup"]["parse"]
	if len(parse) != 3 {
		t.Fatalf("parse has %d self times for 3 requests: %v", len(parse), parse)
	}
	if m := median(parse); m != 0 {
		t.Errorf("median parse self time is %v ms; 2 of 3 requests skipped the parse, want 0", m)
	}
	if quantile(parse, 1) < 1 {
		t.Errorf("the request that parsed recorded %v ms, want at least the 1 ms it slept", quantile(parse, 1))
	}
}
