package metrics

import (
	"sync"
	"testing"
)

func TestCounterTotalsUnderContention(t *testing.T) {
	c := NewCounter("test.contended", "trance_test_contended_total", "Test counter.")
	v := NewVec("test.contended_vec", "trance_test_contended_vec_total", "Test vec.", "who")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				c.Add(1)
			}
			v.Add("all", 1)
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 80000 {
		t.Fatalf("8 × 10 000 Add(1) totalled %d", got)
	}
	if got := v.Load()["all"]; got != 8 {
		t.Fatalf("8 Vec.Add totalled %d", got)
	}
	c.Reset()
	if c.Load() != 0 {
		t.Fatal("Reset left a count")
	}
}

func TestCounterAddAllocatesNothing(t *testing.T) {
	c := NewCounter("test.allocs", "trance_test_allocs_total", "Test counter.")
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v objects per call", n)
	}
}

// TestGatherOrder: samples come sorted by family name whatever the order of
// declaration, and two calls agree.
func TestGatherOrder(t *testing.T) {
	NewCounter("test.order.z", "trance_test_order_z_total", "Declared first.")
	NewGauge("test.order.m", "trance_test_order_m", "Declared second.", func() int64 { return 7 })
	NewVec("test.order.a", "trance_test_order_a_total", "Declared last.", "k")

	first, second := Gather(), Gather()
	var got []string
	for i, s := range first {
		if s.Desc != second[i].Desc {
			t.Fatalf("Gather order moved between calls at %d: %v vs %v", i, s.Desc, second[i].Desc)
		}
		if i > 0 && first[i-1].Name >= s.Name {
			t.Fatalf("Gather not sorted by family name: %s before %s", first[i-1].Name, s.Name)
		}
		switch s.Path {
		case "test.order.z", "test.order.m", "test.order.a":
			got = append(got, s.Path)
		}
		if s.Path == "test.order.m" && (!s.Gauge || s.Value != 7) {
			t.Fatalf("gauge sample %+v, want Gauge with value 7", s)
		}
		if s.Path == "test.order.a" && (s.Label != "k" || s.Values == nil || len(s.Values) != 0) {
			t.Fatalf("empty vec sample %+v, want label k and an empty, non-nil Values", s)
		}
	}
	if len(got) != 3 || got[0] != "test.order.a" || got[1] != "test.order.m" || got[2] != "test.order.z" {
		t.Fatalf("declared z, m, a; gathered %v", got)
	}
}

// TestDuplicateDeclarationPanics: a second family of the same name would
// reach the scrape and make the whole document unparseable, so it fails where
// it is declared.
func TestDuplicateDeclarationPanics(t *testing.T) {
	NewCounter("test.dup", "trance_test_dup_total", "Original.")
	for name, declare := range map[string]func(){
		"same path":   func() { NewCounter("test.dup", "trance_test_dup_other_total", "Dup.") },
		"same family": func() { NewVec("test.dup.other", "trance_test_dup_total", "Dup.", "k") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: declaration did not panic", name)
				}
			}()
			declare()
		}()
	}
	for _, s := range Gather() {
		if s.Name == "trance_test_dup_other_total" || s.Path == "test.dup.other" {
			t.Errorf("refused declaration %s was registered", s.Path)
		}
	}
}

func TestVecLoadReturnsCopy(t *testing.T) {
	v := NewVec("test.copy", "trance_test_copy_total", "Test vec.", "k")
	v.Add("x", 2)
	snap := v.Load()
	snap["x"] = 99
	snap["y"] = 1
	if got := v.Load(); got["x"] != 2 || len(got) != 1 {
		t.Fatalf("mutating a Load result changed the Vec: %v", got)
	}
	if vals := Values(); vals["test.copy.x"] != 2 {
		t.Fatalf("Values()[test.copy.x] = %d, want 2", vals["test.copy.x"])
	}
}
