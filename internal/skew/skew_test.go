package skew

import (
	"testing"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/value"
)

func skewedDataset(ctx *dataflow.Context, n int, heavyShare float64) *dataflow.Dataset {
	rows := make([]dataflow.Row, n)
	heavy := int(float64(n) * heavyShare)
	for i := range rows {
		if i < heavy {
			rows[i] = dataflow.Row{int64(7), int64(i)}
		} else {
			rows[i] = dataflow.Row{int64(1000 + i), int64(i)}
		}
	}
	return ctx.FromRows(rows)
}

func TestHeavyKeysDetectsSkew(t *testing.T) {
	ctx := dataflow.NewContext(4)
	d := skewedDataset(ctx, 4000, 0.5)
	det := NewDetector()
	hk := det.HeavyKeys(d, []int{0})
	if !hk.Has(dataflow.Row{int64(7)}, []int{0}) {
		t.Fatal("heavy key 7 not detected")
	}
	// The bound from the threshold: at most 1/threshold heavy keys per
	// partition (paper Section 5).
	if len(hk) > 4*int(1/det.Threshold) {
		t.Fatalf("too many heavy keys: %d", len(hk))
	}
}

func TestHeavyKeysUniformDataHasFew(t *testing.T) {
	ctx := dataflow.NewContext(4)
	rows := make([]dataflow.Row, 4000)
	for i := range rows {
		rows[i] = dataflow.Row{int64(i), int64(i)}
	}
	det := NewDetector()
	hk := det.HeavyKeys(ctx.FromRows(rows), []int{0})
	if len(hk) != 0 {
		t.Fatalf("uniform keys misdetected as heavy: %d", len(hk))
	}
}

func TestSplitPartitionsRows(t *testing.T) {
	ctx := dataflow.NewContext(4)
	d := skewedDataset(ctx, 1000, 0.3)
	det := NewDetector()
	hk := det.HeavyKeys(d, []int{0})
	light, heavy := Split(d, []int{0}, hk)
	if light.Count()+heavy.Count() != 1000 {
		t.Fatalf("split lost rows: %d + %d", light.Count(), heavy.Count())
	}
	for _, r := range heavy.Collect() {
		if !hk.Has(r, []int{0}) {
			t.Fatal("light row in heavy component")
		}
	}
	for _, r := range light.Collect() {
		if hk.Has(r, []int{0}) {
			t.Fatal("heavy row in light component")
		}
	}
}

func TestSplitNoHeavyKeysIsIdentity(t *testing.T) {
	ctx := dataflow.NewContext(2)
	d := ctx.FromRows([]dataflow.Row{{int64(1)}, {int64(2)}})
	light, heavy := Split(d, []int{0}, nil)
	if light != d || heavy.Count() != 0 {
		t.Fatal("empty heavy-key set must return the input unchanged")
	}
}

// TestKeySetMatchesKeyStrings: the heavy set tells keys apart the way the key
// strings it replaced did — int64 5, float64 5.0 and NULL are three heavy
// keys, a composite key is heavy as a whole — reports its size through len,
// finds a key wherever the probing row keeps it, and splits the right side of
// a join on the left side's heavy keys.
func TestKeySetMatchesKeyStrings(t *testing.T) {
	ctx := dataflow.NewContext(2)
	var rows []dataflow.Row
	for i := 0; i < 600; i++ {
		var k value.Value
		switch i % 6 {
		case 0:
			k = int64(5)
		case 1:
			k = 5.0
		case 2:
			k = nil
		default:
			k = int64(1000 + i)
		}
		rows = append(rows, dataflow.Row{k, "tag", int64(i)})
	}
	det := NewDetector()
	hk := det.HeavyKeys(ctx.FromRows(rows), []int{0})

	ref := map[string]bool{}
	for _, k := range []value.Value{int64(5), 5.0, nil} {
		ref[value.KeyCols(dataflow.Row{k}, []int{0})] = true
	}
	if len(hk) != len(ref) {
		t.Fatalf("%d heavy keys, want %d", len(hk), len(ref))
	}
	seen := map[int]bool{}
	for _, r := range rows {
		probe := dataflow.Row{"right", r[2], r[0]} // the key sits in column 2 here
		at := hk.Find(probe, []int{2})
		if want := ref[value.KeyCols(r, []int{0})]; (at >= 0) != want || hk.Has(probe, []int{2}) != want {
			t.Fatalf("key %s: Find=%d, key strings say heavy=%t", value.Format(r[0]), at, want)
		}
		if at >= len(hk) {
			t.Fatalf("Find=%d outside a set of %d", at, len(hk))
		}
		if at >= 0 {
			seen[at] = true
		}
	}
	if len(seen) != len(hk) {
		t.Fatalf("Find reached %d of %d positions", len(seen), len(hk))
	}
	if hk.Has(dataflow.Row{int64(5), "tag"}, []int{0, 1}) || hk.Has(dataflow.Row{value.Date(5)}, []int{0}) {
		t.Fatal("a wider key or another kind matched a heavy key")
	}

	both := det.HeavyKeys(ctx.FromRows(rows), []int{0, 1})
	if len(both) != 3 || !both.Has(dataflow.Row{"tag", 5.0}, []int{1, 0}) {
		t.Fatalf("composite heavy keys = %d, want the same three keys with their tag", len(both))
	}

	right := ctx.FromRows([]dataflow.Row{{"a", int64(5)}, {"b", 5.0}, {"c", nil}, {"d", int64(6)}, {"e", "5"}})
	light, heavy := Split(right, []int{1}, hk)
	if light.Count() != 2 || heavy.Count() != 3 {
		t.Fatalf("right side split %d light / %d heavy, want 2 / 3", light.Count(), heavy.Count())
	}
}
